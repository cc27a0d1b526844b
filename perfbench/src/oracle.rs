//! The outcome oracle and the decision fingerprint.
//!
//! Every tape operation has an expected outcome that follows from the tape
//! alone: an owner's own file, listener or token is allowed; another user's
//! home or listener is denied; a revoked serial is denied once the
//! staleness budget has passed. An allow where a deny was expected is a
//! separation breach and ends the run. A deny where an allow was expected
//! is a refused legitimate operation and counts as failed.

use crate::tape::Op;
use eus_core::simcore::SimTime;
use std::fmt;

/// What the oracle expects of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A legitimate operation: it must succeed.
    Allow,
    /// A cross-user (or revoked-credential) operation: it must be refused.
    Deny,
}

/// A separation breach: the operation that was allowed and should not
/// have been.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Breach {
    /// Index of the operation on the tape (drain boundaries follow it).
    pub op: usize,
    /// What was allowed.
    pub what: String,
}

impl Breach {
    /// A revoked serial still accepted past the staleness budget.
    pub fn revoked_accepted(op: usize, serial: u64, revoked_at: SimTime, now: SimTime) -> Breach {
        Breach {
            op,
            what: format!(
                "serial {serial} revoked at {revoked_at} still accepted at {now}, past the \
                 staleness budget"
            ),
        }
    }
}

impl fmt::Display for Breach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op #{}: {}", self.op, self.what)
    }
}

/// Judges outcomes and hashes them into the run's fingerprint.
#[derive(Debug, Clone)]
pub struct Oracle {
    judging: bool,
    failed: u64,
    hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Oracle {
    /// An oracle; with `judging` off it only fingerprints.
    pub fn new(judging: bool) -> Oracle {
        Oracle {
            judging,
            failed: 0,
            hash: FNV_OFFSET,
        }
    }

    /// Judge one outcome against its expectation and fold it into the
    /// fingerprint.
    pub fn judge(
        &mut self,
        idx: usize,
        op: &Op,
        expect: Expect,
        allowed: bool,
    ) -> Result<(), Breach> {
        self.note(idx, allowed);
        if !self.judging {
            return Ok(());
        }
        match (expect, allowed) {
            (Expect::Allow, false) => {
                self.failed += 1;
                Ok(())
            }
            (Expect::Deny, true) => Err(Breach {
                op: idx,
                what: format!("{op:?} was allowed"),
            }),
            _ => Ok(()),
        }
    }

    /// Fold one operation's outcome into the fingerprint.
    pub fn note(&mut self, idx: usize, allowed: bool) {
        self.note_value(((idx as u64) << 1) | allowed as u64);
    }

    /// Fold any decision value into the fingerprint.
    pub fn note_value(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    /// Legitimate operations refused so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The fingerprint so far.
    pub fn fingerprint(&self) -> u64 {
        self.hash
    }
}

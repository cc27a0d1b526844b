//! The reservation calendar: conservative-backfill bookkeeping.
//!
//! EASY backfill (PR 4's shadow) protects exactly one job — the queue head
//! — from being delayed by opportunistic backfill. The calendar generalizes
//! that: with `SchedConfig::reservations = K > 0`, the engine plans the
//! **top-K queued jobs** forward in time over the same flat capacity
//! vectors the shadow uses, producing one [`Reservation`] per job — an
//! earliest start, an end bound (`start + time_limit`), and the concrete
//! per-node allocation held for it. That turns the scheduler's "when will
//! my job run?" question ([`crate::engine::Scheduler::earliest_start`])
//! into a table lookup, and turns backfill *conservative*: a candidate may
//! start only if it cannot collide with **any** held reservation, not just
//! the head's shadow.
//!
//! # Construction invariant — no double-booked cores
//!
//! Reservations are placed sequentially in dispatch order against a
//! capacity profile that already contains (a) running jobs' releases at
//! their expected end times and (b) every earlier reservation's claim and
//! release. Feasibility at an anchor time `t` is judged against each
//! node's **minimum** free capacity over the whole window
//! `[t, t + time_limit)` — future claims inside the window are subtracted
//! up front, and releases inside the window are ignored (that is the
//! "conservative" in conservative backfill). A core is therefore never
//! promised to two reservations at an overlapping instant;
//! `tests/sched_policy_properties.rs` re-derives the invariant externally
//! over random traces.
//!
//! Ownership semantics (`WholeNodeUser`) are enforced at *dispatch* time by
//! real placement, not by the calendar — a reservation is a capacity hold
//! and a start-time answer, and may be optimistic about owner affinity.
//! Similarly, under fair-share each partition *plans* its calendar against
//! its own profile: with **overlapping** partitions (the Slurm
//! "all + subset" layout) two classes' plans may promise the same shared
//! node, in which case the later start is corrected at dispatch time (the
//! backfill collision test does consult every class's holds; only the
//! planned start estimates are optimistic). Disjoint partitions — the
//! layout fair-share queues are built for — plan exactly.
//! The calendar is rebuilt whenever the engine's state version moves (any
//! claim, release, failure, or repair) *or* the queue composition changes
//! (a new arrival deserves its reservation), so stale promises are never
//! consulted.

use crate::job::{JobId, TaskAlloc};
use eus_simcore::SimTime;
use eus_simos::{NodeId, Uid};

/// One signed capacity transition in a planning profile: a running job's
/// release (+) or a reservation's claim (−) / release (+) on one node.
/// The engine builds a time-sorted `Vec<CapDelta>` per calendar rebuild
/// and retains it on the calendar so `earliest_start` can probe-plan
/// beyond-top-K jobs against the very same profile.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CapDelta {
    /// When the transition happens.
    pub(crate) at: SimTime,
    /// The node it happens on.
    pub(crate) node: NodeId,
    /// Core delta (claims negative).
    pub(crate) cores: i64,
    /// Memory delta, MiB (claims negative).
    pub(crate) mem: i64,
    /// GPU delta (claims negative).
    pub(crate) gpus: i64,
}

/// One planned future start: the calendar's row for a queued job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reservation {
    /// The queued job this start is held for.
    pub job: JobId,
    /// Its owner (separation audits key on this).
    pub user: Uid,
    /// Planned start — the job's `earliest_start` answer.
    pub start: SimTime,
    /// Hold horizon: `start + time_limit` (the backfill bound).
    pub end: SimTime,
    /// Concrete capacity held per node.
    pub allocs: Vec<(NodeId, TaskAlloc)>,
}

impl Reservation {
    /// Does this reservation hold capacity on `node`?
    #[inline]
    pub fn holds_node(&self, node: NodeId) -> bool {
        self.allocs.iter().any(|(n, _)| *n == node)
    }

    /// Total cores held across nodes.
    pub fn total_cores(&self) -> u64 {
        self.allocs.iter().map(|(_, a)| a.cores as u64).sum()
    }
}

/// The held reservations for one scheduling class (a partition under
/// fair-share, or the whole queue otherwise), tagged with the engine state
/// version they were planned against.
#[derive(Debug, Clone, Default)]
pub struct ReservationCalendar {
    /// Planned starts, in dispatch (priority) order.
    pub reservations: Vec<Reservation>,
    /// Engine `(state_version, queue_seq)` the plan is valid for — any
    /// claim/release *or* arrival invalidates it; `None` = never built.
    pub(crate) built_version: Option<(u64, u64)>,
    /// The top-K job list the plan was derived from. If an arrival leaves
    /// this list unchanged (and no capacity moved), the standing plan is
    /// still exact and is re-tagged instead of re-derived.
    pub(crate) planned_for: Vec<JobId>,
    /// The final capacity-delta profile the plan settled on (running
    /// releases + every reservation's claim/release, time-sorted). Valid
    /// exactly as long as `built_version` matches; `earliest_start` plans
    /// one-off probes for beyond-top-K jobs against it.
    pub(crate) profile: Vec<CapDelta>,
}

impl ReservationCalendar {
    /// An empty calendar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of held reservations.
    pub fn len(&self) -> usize {
        self.reservations.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.reservations.is_empty()
    }

    /// The reservation held for `job`, if any.
    pub fn get(&self, job: JobId) -> Option<&Reservation> {
        self.reservations.iter().find(|r| r.job == job)
    }

    /// Would a job (`cand`) occupying `placement` until `cand_end` collide
    /// with any reservation held for a *different* job? See [`blocks_any`].
    pub fn blocks(
        &self,
        cand: JobId,
        placement: &[(NodeId, TaskAlloc)],
        cand_end: SimTime,
    ) -> bool {
        blocks_any(&self.reservations, cand, placement, cand_end)
    }
}

/// The conservative-backfill admission test over any set of holds: overlap
/// in both time (`r.start < cand_end`) and space (any shared node) is a
/// conflict — the candidate would sit on capacity promised away. The
/// engine's backfill scan calls this against a cross-class snapshot of
/// every held reservation.
pub fn blocks_any(
    holds: &[Reservation],
    cand: JobId,
    placement: &[(NodeId, TaskAlloc)],
    cand_end: SimTime,
) -> bool {
    holds.iter().any(|r| {
        r.job != cand && r.start < cand_end && placement.iter().any(|(n, _)| r.holds_node(*n))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(cores: u32) -> TaskAlloc {
        TaskAlloc {
            tasks: cores,
            cores,
            mem_mib: 1024,
            gpus: 0,
        }
    }

    fn res(job: u64, node: u32, start: u64, end: u64) -> Reservation {
        Reservation {
            job: JobId(job),
            user: Uid(1),
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
            allocs: vec![(NodeId(node), alloc(4))],
        }
    }

    #[test]
    fn conflict_requires_time_and_space_overlap() {
        let cal = ReservationCalendar {
            reservations: vec![res(1, 1, 100, 200)],
            built_version: Some((0, 0)),
            planned_for: vec![JobId(1)],
            profile: Vec::new(),
        };
        let placement = vec![(NodeId(1), alloc(2))];
        // Ends before the reservation starts: no conflict.
        assert!(!cal.blocks(JobId(9), &placement, SimTime::from_secs(100)));
        // Overlaps in time on the reserved node: conflict.
        assert!(cal.blocks(JobId(9), &placement, SimTime::from_secs(101)));
        // Overlaps in time on a different node: no conflict.
        let elsewhere = vec![(NodeId(2), alloc(2))];
        assert!(!cal.blocks(JobId(9), &elsewhere, SimTime::from_secs(500)));
        // A job never conflicts with its own reservation.
        assert!(!cal.blocks(JobId(1), &placement, SimTime::from_secs(500)));
    }

    #[test]
    fn lookup_and_totals() {
        let cal = ReservationCalendar {
            reservations: vec![res(1, 1, 100, 200), res(2, 2, 50, 80)],
            built_version: Some((3, 0)),
            planned_for: vec![JobId(1), JobId(2)],
            profile: Vec::new(),
        };
        assert_eq!(cal.len(), 2);
        assert!(!cal.is_empty());
        assert_eq!(cal.get(JobId(2)).unwrap().start, SimTime::from_secs(50));
        assert!(cal.get(JobId(7)).is_none());
        assert!(cal.get(JobId(1)).unwrap().holds_node(NodeId(1)));
        assert!(!cal.get(JobId(1)).unwrap().holds_node(NodeId(2)));
        assert_eq!(cal.get(JobId(1)).unwrap().total_cores(), 4);
    }
}

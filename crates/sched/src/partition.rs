//! Slurm-style partitions: named subsets of nodes that jobs can be routed
//! to. The paper's environment distinguishes batch partitions, interactive/
//! debug partitions (multi-user by nature — one reason `hidepid` stays
//! necessary under whole-node scheduling), and notes that the LLSC portal
//! can reach apps "on any compute node in any partition" (Sec. IV-E).
//!
//! # Role in the scheduler
//!
//! Partitions feed the engine at three points:
//!
//! * **submit-time validation** — a job naming an unknown partition is
//!   rejected (`Cancelled`) before it ever queues, mirroring Slurm;
//! * **placement eligibility** — [`PartitionTable::eligible_nodes`] returns
//!   the node set a job may use (`None` = unpartitioned cluster, all
//!   nodes), which the placement index and the EASY-shadow/reservation
//!   machinery filter against;
//! * **the policy plane** — with `SchedConfig::fair_share` on, the engine
//!   keys its per-partition queues and the decayed usage ledger by
//!   [`PartitionTable::resolve`]d partition name, so one partition's
//!   backlog cannot head-of-line-block another partition's dispatch or
//!   backfill budget.
//!
//! The table is expected to be configured once, before jobs run (like
//! `SchedConfig::policy`); `Scheduler::partitions_mut` invalidates every
//! derived structure (memoized placements, shadows, the maintained head
//! fit) to keep mid-run edits safe, at the cost of a rebuild.

use eus_simos::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A named partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Partition name (`"batch"`, `"interactive"`, `"gpu"`, …).
    pub name: String,
    /// Member nodes.
    pub nodes: BTreeSet<NodeId>,
    /// Default partition for jobs that name none.
    pub is_default: bool,
}

/// Partition registry errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// Duplicate name.
    Duplicate(String),
    /// Unknown partition referenced by a job.
    Unknown(String),
    /// No default partition configured.
    NoDefault,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::Duplicate(n) => write!(f, "partition already exists: {n}"),
            PartitionError::Unknown(n) => write!(f, "no such partition: {n}"),
            PartitionError::NoDefault => f.write_str("no default partition configured"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// The partition table. When empty, every node is schedulable by every job
/// (the configuration used by most of the test suite).
#[derive(Debug, Clone, Default)]
pub struct PartitionTable {
    partitions: BTreeMap<String, Partition>,
    /// Cached name of the default partition (lexicographically smallest
    /// when several are flagged, matching the scan order the lookups used
    /// before the cache). `resolve(None)` / `eligible_nodes(None)` run on
    /// every unpartitioned head attempt, so the default
    /// lookup must be O(1), not a table scan.
    default_name: Option<String>,
}

impl PartitionTable {
    /// An empty table (partitioning disabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no partitions are configured.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// Define a partition.
    pub fn add(
        &mut self,
        name: &str,
        nodes: impl IntoIterator<Item = NodeId>,
        is_default: bool,
    ) -> Result<(), PartitionError> {
        if self.partitions.contains_key(name) {
            return Err(PartitionError::Duplicate(name.to_string()));
        }
        if is_default
            && self
                .default_name
                .as_deref()
                .map_or(true, |cur| name < cur)
        {
            self.default_name = Some(name.to_string());
        }
        self.partitions.insert(
            name.to_string(),
            Partition {
                name: name.to_string(),
                nodes: nodes.into_iter().collect(),
                is_default,
            },
        );
        Ok(())
    }

    /// Look up a partition.
    pub fn get(&self, name: &str) -> Option<&Partition> {
        self.partitions.get(name)
    }

    /// The set of nodes a job naming `partition` may use. `None` in, default
    /// partition out (or error if none is marked default). With an empty
    /// table, returns `None` meaning "all nodes".
    pub fn eligible_nodes(
        &self,
        partition: Option<&str>,
    ) -> Result<Option<&BTreeSet<NodeId>>, PartitionError> {
        if self.partitions.is_empty() {
            return Ok(None);
        }
        match partition {
            Some(name) => self
                .partitions
                .get(name)
                .map(|p| Some(&p.nodes))
                .ok_or_else(|| PartitionError::Unknown(name.to_string())),
            None => self
                .default_name
                .as_deref()
                .and_then(|n| self.partitions.get(n))
                .map(|p| Some(&p.nodes))
                .ok_or(PartitionError::NoDefault),
        }
    }

    /// Resolve a job's requested partition to the partition *name* it will
    /// actually run in: `None` in, the default partition's name out. With
    /// an empty table returns `None`, meaning "the whole, unpartitioned
    /// cluster". This is the key the policy plane's per-partition queues,
    /// and usage ledger are indexed by.
    pub fn resolve(&self, partition: Option<&str>) -> Result<Option<&str>, PartitionError> {
        if self.partitions.is_empty() {
            return Ok(None);
        }
        match partition {
            Some(name) => self
                .partitions
                .get(name)
                .map(|p| Some(p.name.as_str()))
                .ok_or_else(|| PartitionError::Unknown(name.to_string())),
            None => self
                .default_name
                .as_deref()
                .and_then(|n| self.partitions.get(n))
                .map(|p| Some(p.name.as_str()))
                .ok_or(PartitionError::NoDefault),
        }
    }

    /// Iterate partitions.
    pub fn iter(&self) -> impl Iterator<Item = &Partition> {
        self.partitions.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_means_all_nodes() {
        let t = PartitionTable::new();
        assert!(t.eligible_nodes(None).unwrap().is_none());
        assert!(t.eligible_nodes(Some("anything")).unwrap().is_none());
    }

    #[test]
    fn default_and_named_routing() {
        let mut t = PartitionTable::new();
        t.add("batch", [NodeId(1), NodeId(2)], true).unwrap();
        t.add("gpu", [NodeId(3)], false).unwrap();
        assert_eq!(
            t.eligible_nodes(None).unwrap().unwrap(),
            &BTreeSet::from([NodeId(1), NodeId(2)])
        );
        assert_eq!(
            t.eligible_nodes(Some("gpu")).unwrap().unwrap(),
            &BTreeSet::from([NodeId(3)])
        );
        assert!(matches!(
            t.eligible_nodes(Some("debug")),
            Err(PartitionError::Unknown(_))
        ));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resolve_names_match_eligible_sets() {
        let mut t = PartitionTable::new();
        assert_eq!(t.resolve(None).unwrap(), None, "empty table = all nodes");
        assert_eq!(t.resolve(Some("x")).unwrap(), None);
        t.add("batch", [NodeId(1)], true).unwrap();
        t.add("gpu", [NodeId(2)], false).unwrap();
        assert_eq!(t.resolve(None).unwrap(), Some("batch"));
        assert_eq!(t.resolve(Some("gpu")).unwrap(), Some("gpu"));
        assert!(matches!(
            t.resolve(Some("nope")),
            Err(PartitionError::Unknown(_))
        ));
    }

    #[test]
    fn cached_default_matches_the_scan_order_it_replaced() {
        // Several partitions flagged default: the cache must answer what
        // the old `values().find(is_default)` scan answered — the
        // lexicographically smallest — regardless of insertion order.
        let mut t = PartitionTable::new();
        t.add("zeta", [NodeId(1)], true).unwrap();
        assert_eq!(t.resolve(None).unwrap(), Some("zeta"));
        t.add("alpha", [NodeId(2)], true).unwrap();
        assert_eq!(t.resolve(None).unwrap(), Some("alpha"));
        t.add("mid", [NodeId(3)], true).unwrap();
        assert_eq!(t.resolve(None).unwrap(), Some("alpha"));
        assert_eq!(
            t.eligible_nodes(None).unwrap().unwrap(),
            &BTreeSet::from([NodeId(2)])
        );
    }

    #[test]
    fn duplicates_and_missing_default() {
        let mut t = PartitionTable::new();
        t.add("batch", [NodeId(1)], false).unwrap();
        assert!(matches!(
            t.add("batch", [NodeId(2)], false),
            Err(PartitionError::Duplicate(_))
        ));
        assert!(matches!(
            t.eligible_nodes(None),
            Err(PartitionError::NoDefault)
        ));
    }
}

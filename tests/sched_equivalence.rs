//! Observational equivalence: the optimized scheduler (incremental
//! placement index, capacity-vector EASY shadow, order-indexed queue) must
//! behave **identically** to the retained scan-the-world reference
//! implementation — same start times, same placements, same epilogs, same
//! squeue views — over random traces × every `NodeSharing` policy, with
//! backfill on and off, node failures injected, partitions configured, and
//! per-job `--exclusive` requests mixed in.
//!
//! The two engines share job/node/policy types, so any divergence is in the
//! scheduling data structures themselves — exactly what this suite guards.
//!
//! The policy-plane knobs (fair-share, preemption, reservations) have no
//! reference oracle, so `knobs_on_decisions_are_pinned` fingerprints their
//! decisions over a fixed replay grid and compares against constants: any
//! engine change that alters a knobs-on decision turns it red.

use hpc_user_separation::obs::ObsConfig;
use hpc_user_separation::sched::{
    JobSpec, JobState, NodeSharing, PrivateData, QosClass, ReferenceScheduler, SchedConfig,
    Scheduler,
};
use hpc_user_separation::simcore::{SimDuration, SimRng, SimTime};
use hpc_user_separation::simos::{Credentials, Gid, NodeId, Uid, UserDb};
use hpc_user_separation::workloads::{UserPopulation, WorkloadMix};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::fmt::Write as _;
use std::sync::Arc;

/// Per-property case count; CI can raise it via `SCHED_PROPTEST_CASES`.
fn cases(default: u32) -> u32 {
    std::env::var("SCHED_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn policy_from(i: u8) -> NodeSharing {
    match i % 3 {
        0 => NodeSharing::Shared,
        1 => NodeSharing::Exclusive,
        _ => NodeSharing::WholeNodeUser,
    }
}

/// A randomized trace decorated with the request shapes the engines must
/// agree on: per-job `--exclusive`, tight wall-time limits (Timeout path +
/// backfill bounds), QoS classes (inert with the policy plane off, driving
/// preemption with it on), and partition routing: `route(i)` names the
/// partition job `i` requests.
fn decorated_trace(
    seed: u64,
    route: impl Fn(usize) -> Option<&'static str>,
) -> Vec<(SimTime, Arc<JobSpec>)> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut db = UserDb::new();
    let pop = UserPopulation::build(&mut db, 10, 3, 1.0, &mut rng);
    let trace = WorkloadMix::llsc_like().generate(&pop, SimTime::from_secs(900), &mut rng);
    trace
        .entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut spec = e.spec.clone();
            if i % 7 == 3 {
                spec.request_exclusive = true;
            }
            spec.qos = match i % 9 {
                0..=4 => QosClass::Bulk,
                5 | 6 => QosClass::Normal,
                7 => QosClass::Interactive,
                _ => QosClass::Urgent,
            };
            if i % 11 == 5 {
                // Requested limit under the true runtime: slurmstepd kills
                // at the limit (and backfill reasons over the limit).
                spec.time_limit =
                    SimDuration::from_secs_f64((spec.duration.as_secs_f64() / 2.0).max(1.0));
            }
            spec.partition = route(i).map(str::to_string);
            (e.at, Arc::new(spec))
        })
        .collect()
}

struct Pair {
    opt: Scheduler,
    reference: ReferenceScheduler,
}

fn build_pair(
    policy: NodeSharing,
    nodes: u32,
    cores: u32,
    gpus: u32,
    backfill: bool,
    with_partitions: bool,
    private_data: PrivateData,
) -> Pair {
    let config = SchedConfig {
        policy,
        backfill,
        private_data,
        ..SchedConfig::default()
    };
    let mut opt = Scheduler::new(config.clone());
    let mut reference = ReferenceScheduler::new(config);
    for _ in 0..nodes {
        opt.add_node(cores, 65_536, gpus);
        reference.add_node(cores, 65_536, gpus);
    }
    if with_partitions {
        let half = nodes / 2;
        let batch: Vec<NodeId> = (1..=half).map(NodeId).collect();
        let debug: Vec<NodeId> = (half + 1..=nodes).map(NodeId).collect();
        opt.partitions_mut()
            .add("batch", batch.clone(), true)
            .unwrap();
        opt.partitions_mut()
            .add("debug", debug.clone(), false)
            .unwrap();
        reference.partitions.add("batch", batch, true).unwrap();
        reference.partitions.add("debug", debug, false).unwrap();
    }
    Pair { opt, reference }
}

/// Drive both schedulers through the same trace + failure schedule and
/// assert identical observable behavior, both in lockstep (squeue views,
/// counts) and at the end (states, start/end times, placements, epilogs).
///
/// Both engines run with their flight recorders on (the optimized engine
/// via full `enable_obs`, so every green run here is also a proof that
/// instrumentation does not perturb scheduling decisions). On any
/// divergence the last events of **both** recorders are printed —
/// replayable forensics instead of an opaque mismatch. Set
/// `SCHED_EQUIV_FORCE_FAIL=1` to force a failure and see the tails.
fn assert_equivalent(
    seed: u64,
    policy: NodeSharing,
    nodes: u32,
    backfill: bool,
    failures: u32,
    with_partitions: bool,
) -> Result<(), TestCaseError> {
    // Odd seeds run with the paper's PrivateData filtering, so the squeue
    // comparison also covers whole-row redaction.
    let private_data = if seed % 2 == 1 {
        PrivateData::llsc()
    } else {
        PrivateData::open()
    };
    let mut pair = build_pair(
        policy,
        nodes,
        16,
        2,
        backfill,
        with_partitions,
        private_data,
    );
    pair.opt
        .enable_obs(ObsConfig::enabled().with_flight_capacity(256));
    pair.reference.enable_flight(256);
    let result = drive_pair(&mut pair, seed, nodes, failures, with_partitions);
    if result.is_err() {
        eprintln!(
            "{}",
            pair.opt.obs.rec.flight.render_tail("optimized engine", 48)
        );
        if let Some(fr) = &pair.reference.flight {
            eprintln!("{}", fr.render_tail("reference engine", 48));
        }
    }
    result
}

fn drive_pair(
    pair: &mut Pair,
    seed: u64,
    nodes: u32,
    failures: u32,
    with_partitions: bool,
) -> Result<(), TestCaseError> {
    let trace = decorated_trace(seed, |i| match i % 6 {
        _ if !with_partitions => None,
        0 => Some("batch"),
        1 => Some("debug"),
        2 if i % 36 == 2 => Some("nope"), // rejected at submit
        _ => None,
    });
    for (at, spec) in &trace {
        let a = pair.opt.submit_at_shared(*at, Arc::clone(spec));
        let b = pair.reference.submit_at_shared(*at, Arc::clone(spec));
        prop_assert_eq!(a, b, "job ids assigned in lockstep");
    }
    let mut frng = SimRng::seed_from_u64(seed ^ 0xfa11);
    for _ in 0..failures {
        let at = SimTime::from_secs(frng.range_u64(1, 900));
        let node = NodeId(frng.range_u64(1, nodes as u64 + 1) as u32);
        pair.opt.schedule_node_failure(at, node);
        pair.reference.schedule_node_failure(at, node);
    }

    // Lockstep advance, comparing live views along the way.
    let viewers = [Credentials::new(Uid(1001), Gid(2001)), Credentials::root()];
    let mut t = 0u64;
    loop {
        t += 157;
        let horizon = SimTime::from_secs(t);
        pair.opt.run_until(horizon);
        pair.reference.run_until(horizon);
        prop_assert_eq!(pair.opt.pending_count(), pair.reference.pending_count());
        prop_assert_eq!(pair.opt.running_count(), pair.reference.running_count());
        for v in &viewers {
            prop_assert_eq!(pair.opt.squeue(v), pair.reference.squeue(v), "squeue views");
        }
        if pair.opt.pending_count() == 0 && pair.opt.running_count() == 0 && t > 900 {
            break;
        }
        // A job too big for its (Exclusive-policy) partition pends forever
        // — in both schedulers. All genuine activity is over long before
        // this horizon (arrivals ≤900s, durations ≤4h, repairs 600s).
        if t > 40_000 {
            prop_assert_eq!(pair.opt.running_count(), 0, "no runaway jobs");
            break;
        }
    }
    let end_opt = pair.opt.run_to_completion();
    let end_ref = pair.reference.run_to_completion();
    prop_assert_eq!(end_opt, end_ref, "identical makespan");

    // Full per-job comparison: states, times, placements.
    prop_assert_eq!(pair.opt.jobs.len(), pair.reference.jobs.len());
    for (id, a) in &pair.opt.jobs {
        let b = &pair.reference.jobs[id];
        prop_assert_eq!(a.state, b.state, "state of {}", id);
        prop_assert_eq!(a.submitted, b.submitted);
        prop_assert_eq!(a.started, b.started, "start time of {}", id);
        prop_assert_eq!(a.ended, b.ended, "end time of {}", id);
        prop_assert_eq!(&a.allocations, &b.allocations, "placement of {}", id);
    }
    // Epilog streams (order matters: the cluster layer consumes them).
    prop_assert_eq!(pair.opt.drain_epilogs(), pair.reference.drain_epilogs());
    // Failure records.
    prop_assert_eq!(pair.opt.failures.len(), pair.reference.failures.len());
    for (fa, fb) in pair.opt.failures.iter().zip(pair.reference.failures.iter()) {
        prop_assert_eq!(fa.node, fb.node);
        prop_assert_eq!(fa.at, fb.at);
        prop_assert_eq!(&fa.failed_jobs, &fb.failed_jobs);
    }
    // Aggregate metrics.
    prop_assert_eq!(
        pair.opt.metrics.completed.get(),
        pair.reference.metrics.completed.get()
    );
    prop_assert_eq!(
        pair.opt.metrics.failed.get(),
        pair.reference.metrics.failed.get()
    );
    prop_assert_eq!(
        pair.opt.metrics.timed_out.get(),
        pair.reference.metrics.timed_out.get()
    );
    prop_assert_eq!(
        pair.opt.metrics.wait_times.len(),
        pair.reference.metrics.wait_times.len()
    );
    // Forced-failure hook: proves the flight tails actually print on a red
    // run (`SCHED_EQUIV_FORCE_FAIL=1 cargo test --test sched_equivalence`).
    if std::env::var_os("SCHED_EQUIV_FORCE_FAIL").is_some() {
        prop_assert!(
            false,
            "forced failure via SCHED_EQUIV_FORCE_FAIL — flight-recorder tails follow"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(12), ..ProptestConfig::default() })]

    /// Random traces × policy × backfill on/off on a healthy cluster.
    #[test]
    fn equivalent_on_healthy_cluster(
        seed in 0u64..10_000,
        policy_idx in 0u8..3,
        backfill in any::<bool>(),
    ) {
        assert_equivalent(seed, policy_from(policy_idx), 12, backfill, 0, false)?;
    }

    /// Same, with node failures injected mid-run (kills + repairs + the
    /// index rebuild paths).
    #[test]
    fn equivalent_under_node_failures(
        seed in 0u64..10_000,
        policy_idx in 0u8..3,
        failures in 1u32..4,
    ) {
        assert_equivalent(seed, policy_from(policy_idx), 10, true, failures, false)?;
    }

    /// Same, with partitions configured (eligible-set-filtered placement,
    /// submit-time rejects) and backfill on/off.
    #[test]
    fn equivalent_with_partitions(
        seed in 0u64..10_000,
        policy_idx in 0u8..3,
        backfill in any::<bool>(),
    ) {
        assert_equivalent(seed, policy_from(policy_idx), 12, backfill, 0, true)?;
    }
}

/// EASY invariant pinned at 1k-node scale: a backfilled job may never delay
/// the head job's shadow start. 999 nodes run full-width long jobs; node
/// 1000 has a 2-core hole. The head needs a whole node, so its shadow start
/// is the first release (t=100). A short filler fits the hole and ends
/// before the shadow → backfills; a long filler would overrun the shadow →
/// must wait behind the head.
#[test]
fn backfill_never_delays_head_at_1k_nodes() {
    let mut s = Scheduler::new(SchedConfig {
        policy: NodeSharing::Shared,
        backfill: true,
        ..SchedConfig::default()
    });
    for _ in 0..1000 {
        s.add_node(8, 65_536, 0);
    }
    let wall = |user: u32, name: &str, tasks: u32, secs: u64| {
        JobSpec::new(Uid(user), name, SimDuration::from_secs(secs))
            .with_tasks(tasks)
            .with_cpus_per_task(1)
            .with_mem_per_task(64)
    };
    // Fill nodes 1..=999 completely for 100s; node 1000 gets 6/8 cores.
    for _ in 0..999 {
        s.submit_at(SimTime::ZERO, wall(1, "wall", 8, 100));
    }
    s.submit_at(SimTime::ZERO, wall(1, "hole", 6, 100));
    // Head wants a full node → shadow = 100.
    let head = s.submit_at(SimTime::from_secs(1), wall(2, "head", 8, 10).exclusive());
    // Short filler: 2 cores, ends 2+50 < 100 → may backfill into the hole.
    let short = s.submit_at(SimTime::from_secs(2), wall(3, "short", 2, 50));
    // Long filler: 2 cores, 2+500 > 100 → would delay the head; must wait.
    let long = s.submit_at(SimTime::from_secs(3), wall(4, "long", 2, 500));
    s.run_until(SimTime::from_secs(5));
    assert_eq!(s.jobs[&head].state, JobState::Pending, "head blocked");
    assert_eq!(s.jobs[&short].state, JobState::Running, "short backfilled");
    assert_eq!(s.jobs[&long].state, JobState::Pending, "long refused");
    s.run_to_completion();
    assert_eq!(
        s.jobs[&head].started,
        Some(SimTime::from_secs(100)),
        "head started exactly at its shadow time — backfill delayed nothing"
    );
    assert!(s.jobs[&long].started.unwrap() >= SimTime::from_secs(100));
}

/// The knobs-on policy configs the pinned replay covers. Fair share is
/// always on: per-partition classes are what the policy plane adds.
fn knobs_from(i: u8, policy: NodeSharing) -> SchedConfig {
    let mut cfg = SchedConfig {
        policy,
        fair_share: true,
        ..SchedConfig::default()
    };
    match i % 4 {
        0 => {}
        1 => cfg.preemption = true,
        2 => cfg.reservations = 4,
        _ => {
            cfg.preemption = true;
            cfg.reservations = 4;
        }
    }
    cfg
}

/// FNV-1a over everything written into it.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Replay `decorated_trace(seed)` under one knobs-on config on the 12-node,
/// two-partition cluster, with `failures` node crashes, and fingerprint
/// every decision: job states, starts, ends and allocations, preemption
/// records, epilog order, the full flight stream, and every counter.
fn knobs_on_fingerprint(seed: u64, policy: NodeSharing, knobs: u8, failures: u32) -> u64 {
    const NODES: u32 = 12;
    let mut s = Scheduler::new(knobs_from(knobs, policy));
    s.enable_obs(ObsConfig::enabled().with_flight_capacity(1 << 16));
    for _ in 0..NODES {
        s.add_node(16, 65_536, 2);
    }
    let half = NODES / 2;
    let batch: Vec<NodeId> = (1..=half).map(NodeId).collect();
    let debug: Vec<NodeId> = (half + 1..=NODES).map(NodeId).collect();
    s.partitions_mut().add("batch", batch, true).unwrap();
    s.partitions_mut().add("debug", debug, false).unwrap();
    let route = |i: usize| match i % 5 {
        0 | 1 => Some("batch"),
        2 => Some("debug"),
        _ => None, // resolves to the default partition's class
    };
    for (at, spec) in decorated_trace(seed, route) {
        s.submit_at_shared(at, spec);
    }
    let mut frng = SimRng::seed_from_u64(seed ^ 0xfa11);
    for _ in 0..failures {
        let at = SimTime::from_secs(frng.range_u64(1, 900));
        let node = NodeId(frng.range_u64(1, NODES as u64 + 1) as u32);
        s.schedule_node_failure(at, node);
    }
    let end = s.run_to_completion();
    let epilogs = s.drain_epilogs();

    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "end={end:?};").unwrap();
    for (id, j) in &s.jobs {
        write!(
            h,
            "{id:?}:{:?}:{:?}:{:?}:{:?};",
            j.state, j.started, j.ended, j.allocations
        )
        .unwrap();
    }
    write!(h, "{:?}{:?}", s.preemptions, epilogs).unwrap();
    assert!(
        s.obs.rec.flight.pushed() as usize <= s.obs.rec.flight.capacity(),
        "the flight ring holds the whole stream"
    );
    write!(h, "{:?}", s.obs.rec.flight.events()).unwrap();
    for (name, v) in s.obs.snapshot().counters {
        write!(h, "{name}={v};").unwrap();
    }
    h.0
}

/// Fingerprints of the knobs-on replay grid, indexed
/// `[policy][knob config][failures ∈ {0, 2}]`, recorded from the engine
/// before its shard plane and capacity mirrors were removed.
const KNOBS_ON_PINNED: [[[u64; 2]; 4]; 3] = [
    [
        [0xcc77250c36abe162, 0xd4cb7cff37a74353],
        [0x7d080cbac3777630, 0x149cf91ca43e782],
        [0x5dd7c2aa7f5f69e6, 0x9a43aace63d2cb97],
        [0xf76e95be79eee6c2, 0xb833b474904ea93d],
    ],
    [
        [0x225f91fa69d11446, 0xa5ca45507f1f34dd],
        [0xc940ba9980471f01, 0x951f8828477a556e],
        [0x4f55ade3baafab3f, 0xae1d5db4969a2ad2],
        [0xf40f1e4c2dd68e00, 0xfa590efbc3806ff7],
    ],
    [
        [0xbae4e01fcb838c61, 0x1464b6008f95467e],
        [0x6eddcab639738e10, 0xc080a841433b126d],
        [0xbbb78a4a1afb7945, 0x3ef46fc7e061ac89],
        [0xe94a3ceb6b5c49ee, 0x479c0d7584b95ea0],
    ],
];

/// Knobs-on decisions are pinned: 3 policies × 4 knob configs × {0, 2}
/// node failures on the 12-node, two-partition cluster must reproduce the
/// recorded fingerprints bit for bit.
#[test]
fn knobs_on_decisions_are_pinned() {
    let mut actual = [[[0u64; 2]; 4]; 3];
    for (p, by_policy) in actual.iter_mut().enumerate() {
        for (k, by_knobs) in by_policy.iter_mut().enumerate() {
            for (f, slot) in by_knobs.iter_mut().enumerate() {
                let seed = 0xbe9c + (p * 8 + k * 2 + f) as u64;
                *slot = knobs_on_fingerprint(seed, policy_from(p as u8), k as u8, 2 * f as u32);
            }
        }
    }
    assert_eq!(
        actual, KNOBS_ON_PINNED,
        "knobs-on decisions changed; actual fingerprints:\n{actual:#x?}"
    );
}

//! Oracle for the fair-share head index: after every scheduling cycle of
//! random fair-share traces, the engine's head (a first-key read of
//! [`HeadIndex`]) must equal a brute-force scan of the pending queue
//! scored straight from the ledger — the selection rule the index
//! replaced — and the reservation top-K must equal a full sort.

use super::*;
use eus_simcore::SimRng;

/// A queued job's place in its class's dispatch order, computed afresh
/// from the ledger: `(band, score, enqueue seq)`.
fn scan_key(s: &Scheduler, class: &str, seq: u64, id: JobId) -> (u8, f64, u64) {
    let spec = &s.jobs[&id].spec;
    (s.user_band(spec), s.ledger.score(class, spec.user), seq)
}

fn scan_cmp(a: &(u8, f64, u64), b: &(u8, f64, u64)) -> std::cmp::Ordering {
    a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2))
}

/// Every queued job of `class`, in brute-force dispatch order.
fn scan_order(s: &Scheduler, class: &str) -> Vec<JobId> {
    let mut queued: Vec<((u8, f64, u64), JobId)> = s
        .queue
        .iter()
        .filter(|(_, id)| s.job_part[id] == class)
        .map(|(seq, id)| (scan_key(s, class, seq, id), id))
        .collect();
    queued.sort_by(|a, b| scan_cmp(&a.0, &b.0));
    queued.into_iter().map(|(_, id)| id).collect()
}

fn check(s: &Scheduler) {
    let classes: Vec<&String> = s.part_fifo.keys().collect();
    assert_eq!(
        s.part_heads.keys().collect::<Vec<_>>(),
        classes,
        "one head index per queued class"
    );
    for class in classes {
        let order = scan_order(s, class);
        let head = s.select_head(Some(class));
        assert_eq!(
            head,
            order.first().copied(),
            "head of {class:?} at {:?}",
            s.now
        );
        if !s.config.preemption {
            let head = head.expect("a queued class has a head");
            assert_eq!(
                s.class_top_k(Some(class), head, 6),
                order.iter().copied().take(6).collect::<Vec<_>>(),
                "top-K of {class:?} at {:?}",
                s.now
            );
        }
    }
}

/// `jobs` random submissions by 8 users over 600 s into two partitions
/// (or the default), all four QoS classes.
fn random_trace(s: &mut Scheduler, seed: u64, jobs: usize) {
    let mut rng = SimRng::seed_from_u64(seed);
    for _ in 0..jobs {
        let user = rng.range_u64(1, 9) as u32;
        let at = SimTime::from_secs(rng.range_u64(0, 600));
        let mut spec = JobSpec::new(
            Uid(user),
            format!("u{user}"),
            SimDuration::from_secs(rng.range_u64(5, 120)),
        )
        .with_tasks(rng.range_u64(1, 17) as u32)
        .with_mem_per_task(100)
        .with_qos(*rng.pick(&[
            crate::job::QosClass::Bulk,
            crate::job::QosClass::Normal,
            crate::job::QosClass::Interactive,
            crate::job::QosClass::Urgent,
        ]));
        match rng.index(3) {
            0 => spec = spec.with_partition("a"),
            1 => spec = spec.with_partition("b"),
            _ => {}
        }
        s.submit_at(at, spec);
    }
}

/// Replay one trace event by event, checking after every cycle.
fn replay(preemption: bool, half_life_s: u64, seed: u64) -> Scheduler {
    let mut s = Scheduler::new(SchedConfig {
        policy: NodeSharing::Shared,
        fair_share: true,
        preemption,
        fair_share_half_life: SimDuration::from_secs(half_life_s),
        ..SchedConfig::default()
    });
    for _ in 0..4 {
        s.add_node(8, 64_000, 0);
    }
    s.partitions_mut()
        .add("a", [NodeId(1), NodeId(2)], true)
        .unwrap();
    s.partitions_mut()
        .add("b", [NodeId(3), NodeId(4)], false)
        .unwrap();
    random_trace(&mut s, seed, 240);
    while let Some(Reverse((t, _, ev))) = s.events.pop() {
        s.now = t;
        s.fire(ev);
        check(&s);
    }
    assert!(s.queue.len() == 0 && s.part_heads.is_empty(), "drained");
    s
}

#[test]
fn head_index_matches_scan_with_and_without_bands() {
    for preemption in [false, true] {
        let mut preempted = 0;
        for seed in 0..4 {
            let s = replay(preemption, 3600, 0x4ead + seed);
            assert_eq!(s.metrics.completed.get(), 240);
            preempted += s.preemptions.len();
        }
        assert_eq!(
            preempted > 0,
            preemption,
            "bands reorder dispatch only with preemption"
        );
    }
}

#[test]
fn head_index_matches_scan_across_ledger_rebases() {
    // A one-second half-life over a trace that charges past t = 600 s:
    // the ledger rebases after 256 s, and again and again as charges
    // move past each new origin. Without a rebase a cell charged that
    // late would exceed 2^600.
    for preemption in [false, true] {
        for seed in 0..4 {
            let s = replay(preemption, 1, 0x4eba + seed);
            let last_end = s.jobs.values().filter_map(|j| j.ended).max().unwrap();
            assert!(
                last_end > SimTime::from_secs(600),
                "charges past 600 half-lives"
            );
            for class in ["a", "b"] {
                for u in 1..9 {
                    let score = s.ledger.score(class, Uid(u));
                    assert!(score < 2f64.powi(300), "rebased: {class} u{u} = {score}");
                }
            }
        }
    }
}

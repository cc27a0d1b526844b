//! Tests of the benchmark itself: tape determinism, the percentile floor,
//! the outcome oracle and the traced/untraced fingerprint.

use eus_core::simos::{FsCtx, Mode};
use eus_core::{ClusterSpec, SecureCluster, SeparationConfig};
use eus_perfbench::replay::{replay, setup, Env, ReplayError};
use eus_perfbench::stats::percentile;
use eus_perfbench::tape::{Op, Plan, Workload};
use std::collections::BTreeMap;

fn small_plan(w: Workload, seed: u64) -> Plan {
    Plan::with_shape(w.shape().small(), seed)
}

#[test]
fn same_seed_same_tape_other_seed_other_tape() {
    for w in Workload::ALL {
        let a = small_plan(w, 11);
        let b = small_plan(w, 11);
        let c = small_plan(w, 12);
        assert_eq!(a.ops, b.ops, "{}: same seed", w.name());
        assert_eq!(a.jobs, b.jobs, "{}: same seed", w.name());
        assert_eq!(a.projects, b.projects, "{}: same seed", w.name());
        assert_ne!(a.ops, c.ops, "{}: another seed", w.name());
    }
}

#[test]
fn full_size_tapes_carry_a_p99_of_every_operation() {
    for w in Workload::ALL {
        let plan = Plan::generate(w, 3);
        let (logins, access, _validates, submits, revokes) = plan.op_counts();
        // Simulated time repeats exactly between replays of a tape, so one
        // replay must carry the revoke-to-deny p99 alone.
        assert!(revokes >= 1_000, "{}: {revokes} revocations", w.name());
        // Wall times pool over the faster half of a run's replays, so the
        // faster four of eight replays must carry every p99.
        assert!(4 * logins >= 1_000, "{}: {logins} logins", w.name());
        assert!(4 * access >= 1_000, "{}: {access} access ops", w.name());
        assert!(4 * submits >= 1_000, "{}: {submits} submits", w.name());
        assert_eq!(
            submits,
            plan.jobs.len(),
            "{}: every job submitted",
            w.name()
        );
    }
}

#[test]
fn percentile_refuses_a_p99_without_ten_samples_beyond_it() {
    let thin: Vec<f64> = (0..999).map(f64::from).collect();
    assert_eq!(percentile(&thin, 0.99), None);
    let enough: Vec<f64> = (0..1_000).map(f64::from).collect();
    assert!(percentile(&enough, 0.99).is_some());
    assert_eq!(percentile(&thin[..19], 0.5), None);
}

#[test]
fn percentiles_pool_the_faster_half_of_the_replays() {
    use eus_perfbench::replay::Outcome;
    use eus_perfbench::report::faster_half;

    let outs: Vec<Outcome> = [3.0, 1.0, 5.0, 2.0, 4.0]
        .into_iter()
        .map(|ref_wall_s| Outcome {
            ref_wall_s,
            ..Outcome::default()
        })
        .collect();
    let walls: Vec<f64> = faster_half(&outs).iter().map(|o| o.ref_wall_s).collect();
    assert_eq!(walls, [1.0, 2.0, 3.0]);
}

#[test]
fn the_speed_gauge_scales_each_sample_by_its_segment() {
    use eus_perfbench::speed::{reading, scale};
    use eus_perfbench::stats::Samples;

    // A host on which the reference pass takes twice its reference time
    // runs at half speed: its times are halved.
    assert_eq!(scale(&[2.0]), 0.5);
    assert_eq!(scale(&[1.0, 3.0]), 0.5);
    assert!(reading() > 0.0);
    let mut s = Samples::default();
    s.push_at(1_000, 0);
    s.push_at(1_000, 1);
    s.push_at(4_000, 1);
    s.rescale(&[0.5, 2.0]);
    assert_eq!(s.total_s(), 10_500e-9);
}

/// A two-user `ClusterSpec::tiny()` cluster and a one-operation tape in
/// which alice reads a file in bob's home.
fn tiny_read_other() -> (Env, Plan) {
    let mut cluster = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::tiny());
    let alice = cluster.add_user("alice").expect("fresh db");
    let bob = cluster.add_user("bob").expect("fresh db");
    let mut plan = small_plan(Workload::LoginRush, 1);
    plan.users = vec!["alice".into(), "bob".into()];
    plan.projects.clear();
    plan.sister_pool.clear();
    plan.jobs.clear();
    plan.ops = vec![Op::FsReadOther { user: 0, owner: 1 }];
    let env = Env {
        cluster,
        uids: vec![alice, bob],
        sisters: BTreeMap::new(),
        sister_tokens: Vec::new(),
    };
    (env, plan)
}

#[test]
fn oracle_flags_a_planted_cross_user_allow() {
    let (mut env, plan) = tiny_read_other();
    let out = replay(&mut env, &plan, false, true).expect("llsc keeps bob's home closed");
    assert_eq!(out.failed, 0);

    // Plant the breach: open bob's home and put a world-readable file in it.
    let (mut env, plan) = tiny_read_other();
    {
        let mut home = env.cluster.shared_home.write();
        let root = FsCtx::root().with_umask(Mode::new(0));
        home.write_file(&root, "/bob/f0", Mode::new(0o644), b"secret")
            .expect("root writes");
        home.set_meta_as_root("/bob", |m| m.mode = Mode::new(0o755))
            .expect("home exists");
        home.set_meta_as_root("/bob/f0", |m| m.mode = Mode::new(0o644))
            .expect("file exists");
    }
    match replay(&mut env, &plan, false, true) {
        Err(ReplayError::Breach(b)) => {
            assert_eq!(b.op, 0);
            assert!(b.to_string().contains("FsReadOther"), "{b}");
        }
        other => panic!("planted allow not flagged: {other:?}"),
    }
}

#[test]
fn traced_and_untraced_fingerprints_agree() {
    for w in Workload::ALL {
        let plan = small_plan(w, 5);
        let run = |traced| {
            let mut env = setup(&plan, SeparationConfig::llsc());
            replay(&mut env, &plan, traced, true).expect("no breach")
        };
        let plain = run(false);
        let again = run(false);
        let traced = run(true);
        assert_eq!(plain.failed, 0, "{}", w.name());
        assert_eq!(plain.fingerprint, again.fingerprint, "{}: repeat", w.name());
        assert_eq!(
            plain.fingerprint,
            traced.fingerprint,
            "{}: traced",
            w.name()
        );
        assert_eq!(plain.attempted, traced.attempted, "{}", w.name());
        assert!(plain.ref_wall_s > 0.0 && plain.wall_s > 0.0, "{}", w.name());
        let layers = traced.layers.expect("traced replay keeps layers");
        assert!(layers.busy_s() <= traced.wall_s, "{}", w.name());
    }
}

/// `"name"` values of one top-level array of `BENCHMARK.json`.
fn declared_names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("array closes");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn printed_metrics_are_the_declared_ones() {
    use eus_perfbench::replay::{Layers, Outcome};
    use eus_perfbench::report::{end_to_end, per_layer};
    use eus_perfbench::stats::Samples;

    let thousand = || {
        let mut s = Samples::default();
        (1..=1_000).for_each(|ns| s.push(ns));
        s
    };
    let out = Outcome {
        wall_s: 1.0,
        ref_wall_s: 1.0,
        attempted: 1,
        login: thousand(),
        access: thousand(),
        validate: thousand(),
        submit: thousand(),
        boundary: thousand(),
        revoke_to_deny_s: vec![1.0; 1_000],
        job_waits_s: vec![1.0; 1_000],
        ..Outcome::default()
    };
    let e2e: Vec<String> = end_to_end(&[1.0], std::slice::from_ref(&out), 1.0)
        .expect("enough samples")
        .metrics
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(e2e, declared_names("end_to_end"));

    let declared = declared_names("per_layer");
    let mut layers = Layers::default();
    for name in &declared {
        if let Some(piece) = name.strip_suffix(".calls") {
            let piece: &'static str = Box::leak(piece.to_string().into_boxed_str());
            layers.pieces.insert(piece, thousand());
        }
    }
    let printed: Vec<String> = per_layer(&layers, 1, &out, 1.0, 0.0)
        .expect("enough samples")
        .metrics
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(printed, declared);
}

/// Quoted strings of a JSON fragment.
fn quoted(fragment: &str) -> Vec<String> {
    fragment
        .split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

#[test]
fn predictions_cover_every_per_layer_metric_once() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/predictions.json"))
        .expect("predictions.json in perfbench/");
    let mut covered: Vec<String> = text
        .split("\"per_layer\": [")
        .skip(1)
        .flat_map(|rest| quoted(&rest[..rest.find(']').expect("array closes")]))
        .collect();
    covered.sort();
    let mut declared = declared_names("per_layer");
    declared.sort();
    assert_eq!(covered, declared);

    let e2e = declared_names("end_to_end");
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    for pair in text.split("\"metric\": ").skip(1) {
        let fields = quoted(&pair[..pair.find('}').expect("object closes")]);
        assert!(e2e.contains(&fields[0]), "unknown metric {}", fields[0]);
        assert_eq!(fields[1], "workload");
        assert!(workloads.contains(&fields[2].as_str()), "{}", fields[2]);
    }
}

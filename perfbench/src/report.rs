//! Metric derivation and the result line.

use crate::replay::{Layers, Outcome};
use crate::stats::{median, percentile, Samples};
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value, all digits.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// An ordered set of metrics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Push a percentile, refusing when the samples are too few.
    fn quantile(
        &mut self,
        name: &str,
        samples: &Samples,
        q: f64,
        scale: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let v = samples
            .quantile_ns(q)
            .ok_or_else(|| too_few(name, samples.len(), q))?;
        self.push(name, v / scale, unit);
        Ok(())
    }

    /// The result line: one JSON object with the keys `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String");
        }
        s.push_str("}}");
        Ok(s)
    }

    /// Human-readable table, one metric a line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            writeln!(s, "  {:<34} {:>16.6} {}", m.name, m.value, m.unit).expect("String");
        }
        s
    }
}

fn too_few(name: &str, n: usize, q: f64) -> String {
    format!(
        "{name}: {n} samples leave fewer than 10 beyond the {}th percentile",
        q * 100.0
    )
}

fn pooled(outs: &[&Outcome], pick: impl Fn(&Outcome) -> &Samples) -> Samples {
    let mut all = Samples::default();
    for o in outs {
        all.extend(pick(o));
    }
    all
}

/// The faster half of a run's replays, by wall time at the reference
/// host's speed (rounded up). Replays of one tape do the same work, so the
/// slower ones are those the host disturbed in a way the speed gauge did
/// not see: a burst of a few seconds would otherwise set a pooled p99 by
/// itself.
pub fn faster_half(outs: &[Outcome]) -> Vec<&Outcome> {
    let mut by_wall: Vec<&Outcome> = outs.iter().collect();
    by_wall.sort_by(|a, b| a.ref_wall_s.total_cmp(&b.ref_wall_s));
    by_wall.truncate(outs.len().div_ceil(2));
    by_wall
}

/// End-to-end metrics of an untraced run, at the reference host's speed:
/// medians over replays for the per-replay aggregates, and for the latency
/// percentiles the pooled samples of the faster half of the replays.
/// `setups_s` are set-up times already scaled.
pub fn end_to_end(setups_s: &[f64], outs: &[Outcome], peak_rss_mib: f64) -> Result<Report, String> {
    let mut r = Report::default();
    let first = &outs[0];
    r.push("setup_s", median(setups_s), "s");
    let rates: Vec<f64> = outs
        .iter()
        .map(|o| o.attempted as f64 / o.ref_wall_s)
        .collect();
    r.push("ops_per_s", median(&rates), "ops/s");
    let outs = faster_half(outs);
    let login = pooled(&outs, |o| &o.login);
    r.quantile("login_p50_us", &login, 0.50, 1e3, "us")?;
    r.quantile("login_p99_us", &login, 0.99, 1e3, "us")?;
    let access = pooled(&outs, |o| &o.access);
    r.quantile("access_p50_us", &access, 0.50, 1e3, "us")?;
    let validate = pooled(&outs, |o| &o.validate);
    r.quantile("validate_p50_ns", &validate, 0.50, 1.0, "ns")?;
    let submit = pooled(&outs, |o| &o.submit);
    r.quantile("submit_p50_us", &submit, 0.50, 1e3, "us")?;
    let boundary = pooled(&outs, |o| &o.boundary);
    r.quantile("boundary_p50_us", &boundary, 0.50, 1e3, "us")?;
    // Simulated-time metrics repeat exactly for a seed: one replay's
    // distribution stands for all of them.
    let wait = percentile(&first.job_waits_s, 0.95)
        .ok_or_else(|| too_few("job_wait_p95_s", first.job_waits_s.len(), 0.95))?;
    r.push("job_wait_p95_s", wait, "sim-s");
    let deny = percentile(&first.revoke_to_deny_s, 0.99)
        .ok_or_else(|| too_few("revoke_to_deny_p99_s", first.revoke_to_deny_s.len(), 0.99))?;
    r.push("revoke_to_deny_p99_s", deny, "sim-s");
    r.push("peak_rss_mib", peak_rss_mib, "MiB");
    Ok(r)
}

/// A percentile a piece reports: (name suffix, quantile, ns per unit).
type Quantile = (&'static str, f64, f64);

/// Timed pieces and the percentiles each reports. Every piece also reports
/// `.calls` and `.busy_s`.
const PIECES: &[(&str, &[Quantile])] = &[
    ("sched.run_until", &[("p99_us", 0.99, 1e3)]),
    (
        "core.reconcile",
        &[("p50_us", 0.50, 1e3), ("p99_us", 0.99, 1e3)],
    ),
    ("core.ssh_raw", &[("p50_us", 0.50, 1e3)]),
    ("core.try_submit", &[("p99_us", 0.99, 1e3)]),
    ("fedauth.ensure_session", &[("p50_us", 0.50, 1e3)]),
    ("fedauth.advance", &[]),
    ("fedauth.sister_login", &[]),
    ("fedauth.validate_home", &[("p50_ns", 0.50, 1.0)]),
    ("revsync.validate", &[("p50_ns", 0.50, 1.0)]),
    ("revsync.pump", &[("p99_us", 0.99, 1e3)]),
    ("revsync.revoke", &[]),
    ("portal.login", &[("p50_us", 0.50, 1e3)]),
    ("portal.advance", &[]),
    ("simos.userdb_snapshot", &[("p50_us", 0.50, 1e3)]),
    ("simos.credentials", &[("p50_us", 0.50, 1e3)]),
    ("simos.vfs", &[("p50_us", 0.50, 1e3)]),
    ("simnet.listen", &[("p50_us", 0.50, 1e3)]),
    ("ubf.connect", &[("p50_us", 0.50, 1e3)]),
];

/// Per-layer metrics of a traced run. `layers` pools `replays` traced
/// replays; busy times and call counts are reported per replay, so that
/// the busy times plus `unattributed_s` add up to `traced_wall_s`, the mean
/// traced replay's wall time as measured. `overhead_pct` compares the
/// median traced and untraced replay walls at the reference host's speed.
pub fn per_layer(
    layers: &Layers,
    replays: usize,
    traced: &Outcome,
    traced_wall_s: f64,
    overhead_pct: f64,
) -> Result<Report, String> {
    let mut r = Report::default();
    let k = replays as f64;
    let empty = Samples::default();
    for (piece, quantiles) in PIECES {
        let s = layers.pieces.get(piece).unwrap_or(&empty);
        r.push(&format!("{piece}.calls"), s.len() as f64 / k, "count");
        r.push(&format!("{piece}.busy_s"), s.total_s() / k, "s");
        for (suffix, q, scale) in *quantiles {
            let unit = if suffix.ends_with("_ns") { "ns" } else { "us" };
            r.quantile(&format!("{piece}.{suffix}"), s, *q, *scale, unit)?;
        }
    }
    let ensure_calls = layers
        .pieces
        .get("fedauth.ensure_session")
        .map_or(0, Samples::len);
    r.push(
        "fedauth.ensure_session.remint_ratio",
        layers.remints as f64 / ensure_calls.max(1) as f64,
        "ratio",
    );
    r.push("sched.jobs.started", traced.jobs_started as f64, "count");
    r.push(
        "sched.jobs.completed",
        traced.jobs_completed as f64,
        "count",
    );
    r.push("sched.pending.peak", traced.pending_peak as f64, "count");
    r.push(
        "revsync.denied.revoked",
        traced.denied_revoked as f64,
        "count",
    );
    r.push("revsync.denied.stale", traced.denied_stale as f64, "count");
    r.push("simos.vfs.denied", layers.vfs_denied as f64 / k, "count");
    r.push(
        "ubf.connect.denied",
        layers.connect_denied as f64 / k,
        "count",
    );
    r.push("unattributed_s", traced_wall_s - layers.busy_s() / k, "s");
    r.push("obs.trace_overhead_pct", overhead_pct, "%");
    Ok(r)
}

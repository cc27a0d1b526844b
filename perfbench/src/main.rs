//! `eus-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0`, replays the workload's tape on fresh clusters until
//! `--seconds` have passed and every percentile has its samples, and
//! prints the end-to-end metrics. With `--trace 1`, alternates untraced and
//! traced replays of the same tape and prints the per-layer split. The last
//! stdout line is the JSON result; the lines before it are for people.

use eus_core::SeparationConfig;
use eus_perfbench::replay::{replay, setup, Env, Layers, Outcome};
use eus_perfbench::report::{end_to_end, per_layer, Report};
use eus_perfbench::speed;
use eus_perfbench::stats::median;
use eus_perfbench::tape::{Plan, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run, at least: `setup_s` is their median.
const MIN_SETUPS: usize = 5;

/// A run that still lacks samples for a percentile after this long gives
/// up, so that a slow host still finishes within 180 s.
const SAMPLES_CUTOFF_S: f64 = 140.0;

/// The informational baseline replay is skipped when it would end a traced
/// run later than this, for the same reason.
const BASELINE_CUTOFF_S: f64 = 150.0;

/// The host the committed bounds were measured on. A different host only
/// warns: the numbers are still printed, but compare them with care.
const REFERENCE_NPROC: usize = 2;
const REFERENCE_RUSTC: &str = "rustc 1.95.0";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| format!("no workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB, less the speed
/// gauge's two blocks, which are resident from the first reading on.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0 - speed::BLOCK_BYTES as f64 / (1024.0 * 1024.0))
}

/// Print the host facts every result travels with; warn on a mismatch
/// with the reference host.
fn host_facts(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = option_env!("PERFBENCH_RUSTC").unwrap_or("unknown");
    let rev = std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "host: nproc={nproc} rustc=\"{rustc}\" profile={profile} git={rev} workload={} \
         seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    if nproc != REFERENCE_NPROC || !rustc.starts_with(REFERENCE_RUSTC) {
        eprintln!(
            "warning: host differs from the reference (nproc={REFERENCE_NPROC}, \
             {REFERENCE_RUSTC}); bounds were set there"
        );
    }
    if profile != "release" {
        eprintln!("warning: {profile} build; bounds were set on release builds");
    }
}

/// Generate the tape and provision a cluster; returns the set-up time at
/// the reference host's speed, read from two speed readings on either
/// side of it.
fn build(workload: Workload, seed: u64, config: SeparationConfig) -> (Plan, Env, f64) {
    let mut readings = vec![speed::reading(), speed::reading()];
    let t0 = Instant::now();
    let plan = Plan::generate(workload, seed);
    let env = setup(&plan, config);
    let s = t0.elapsed().as_secs_f64();
    readings.extend([speed::reading(), speed::reading()]);
    (plan, env, s * speed::scale(&readings))
}

fn one_replay(
    workload: Workload,
    seed: u64,
    traced: bool,
    setups: &mut Vec<f64>,
) -> Result<Outcome, String> {
    let (plan, mut env, s) = build(workload, seed, SeparationConfig::llsc());
    setups.push(s);
    let out = replay(&mut env, &plan, traced, true).map_err(|e| e.to_string())?;
    println!(
        "replay {}: setup {s:.3} s, wall {:.3} s ({:.3} s as measured, speed pass at {:.2}x \
         its reference time), {} ops, {} failed{}",
        setups.len(),
        out.ref_wall_s,
        out.wall_s,
        out.slowness,
        out.attempted,
        out.failed,
        if traced { ", traced" } else { "" }
    );
    Ok(out)
}

/// Whether one more round of replays, at the mean pace so far, ends no
/// more than half a round past the deadline: a run measures for about
/// `--seconds`, and at least one round.
fn another_fits(start: Instant, rounds: usize, deadline: Duration) -> bool {
    let spent = start.elapsed();
    spent + spent / (2 * rounds as u32) < deadline
}

fn same_fingerprint(outs: &[&Outcome]) -> Result<u64, String> {
    let fp = outs[0].fingerprint;
    if let Some(o) = outs.iter().find(|o| o.fingerprint != fp) {
        return Err(format!(
            "replays of one tape disagree: fingerprint {fp:#018x} vs {:#018x}",
            o.fingerprint
        ));
    }
    Ok(fp)
}

/// Whether the run may stop: every percentile has its samples and another
/// round would overrun `--seconds`. Past [`SAMPLES_CUTOFF_S`] without the
/// samples, the run fails with `thin`, the report's complaint.
fn done(
    start: Instant,
    rounds: usize,
    deadline: Duration,
    thin: Result<(), String>,
) -> Result<bool, String> {
    match thin {
        Ok(()) => Ok(!another_fits(start, rounds, deadline)),
        Err(e) if start.elapsed().as_secs_f64() > SAMPLES_CUTOFF_S => Err(format!(
            "still too few samples after {SAMPLES_CUTOFF_S} s: {e}"
        )),
        Err(_) => Ok(false),
    }
}

/// Per-layer report of a traced run: `plain` and `traced` replays of one
/// tape.
fn layer_report(plain: &[Outcome], traced: &[Outcome]) -> Result<(Report, Layers, f64), String> {
    let mut layers = Layers::default();
    for o in traced {
        layers.merge(o.layers.as_ref().expect("traced replay"));
    }
    let wall = |v: &[Outcome]| median(&v.iter().map(|o| o.ref_wall_s).collect::<Vec<_>>());
    let traced_wall = traced.iter().map(|o| o.wall_s).sum::<f64>() / traced.len() as f64;
    let report = per_layer(
        &layers,
        traced.len(),
        &traced[0],
        traced_wall,
        (wall(traced) / wall(plain) - 1.0) * 100.0,
    )?;
    Ok((report, layers, traced_wall))
}

fn run(args: &Args) -> Result<(), String> {
    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut setups = Vec::new();
    let (report, attempted, failed) = if !args.trace {
        let mut outs = Vec::new();
        loop {
            outs.push(one_replay(args.workload, args.seed, false, &mut setups)?);
            let thin = end_to_end(&setups, &outs, 0.0).map(drop);
            if done(start, outs.len(), deadline, thin)? {
                break;
            }
        }
        while setups.len() < MIN_SETUPS {
            let (_, env, s) = build(args.workload, args.seed, SeparationConfig::llsc());
            drop(env);
            setups.push(s);
        }
        let fp = same_fingerprint(&outs.iter().collect::<Vec<_>>())?;
        let attempted: u64 = outs.iter().map(|o| o.attempted).sum();
        let failed: u64 = outs.iter().map(|o| o.failed).sum();
        println!(
            "replays={} fingerprint={fp:#018x} failed_ops_ratio={}",
            outs.len(),
            failed as f64 / attempted as f64
        );
        (
            end_to_end(&setups, &outs, peak_rss_mib()?)?,
            attempted,
            failed,
        )
    } else {
        let mut plain = Vec::new();
        let mut traced = Vec::new();
        loop {
            // Alternate which replay of a pair runs first, so neither side
            // always pays for the process's first heap growth.
            let traced_first = plain.len() % 2 == 1;
            for traced_now in [traced_first, !traced_first] {
                let out = one_replay(args.workload, args.seed, traced_now, &mut setups)?;
                if traced_now {
                    traced.push(out);
                } else {
                    plain.push(out);
                }
            }
            let thin = layer_report(&plain, &traced).map(drop);
            if done(start, plain.len(), deadline, thin)? {
                break;
            }
        }
        let all: Vec<&Outcome> = plain.iter().chain(traced.iter()).collect();
        let fp = same_fingerprint(&all)?;
        let attempted: u64 = all.iter().map(|o| o.attempted).sum();
        let failed: u64 = all.iter().map(|o| o.failed).sum();
        println!(
            "replays={}+{} traced fingerprint={fp:#018x} (equal to untraced) \
             failed_ops_ratio={}",
            plain.len(),
            traced.len(),
            failed as f64 / attempted as f64
        );
        let (report, layers, traced_wall) = layer_report(&plain, &traced)?;
        if args.workload == Workload::LoginRush {
            // One more replay must still end well inside a run's time limit
            // on a host that has slowed down.
            let projected = start.elapsed().as_secs_f64() + traced_wall;
            if projected < BASELINE_CUTOFF_S {
                baseline_split(args.seed, &layers, traced.len(), traced_wall)?;
            } else {
                println!(
                    "separation cost, login_rush: baseline replay skipped, the run would \
                     reach {projected:.0} s"
                );
            }
        }
        (report, attempted, failed)
    };
    print!("{}", report.table());
    println!("{}", report.json(true, attempted, failed)?);
    Ok(())
}

/// The paper's "separation is cheap" figure: the login-rush tape, where
/// every separation check sits on the request path, under the stock-Linux
/// baseline next to the LLSC deployment, per layer.
/// Informational; nothing is gated on it.
fn baseline_split(
    seed: u64,
    llsc: &Layers,
    llsc_replays: usize,
    llsc_wall_s: f64,
) -> Result<(), String> {
    let (plan, mut env, _) = build(Workload::LoginRush, seed, SeparationConfig::baseline());
    let out = replay(&mut env, &plan, true, false).map_err(|e| e.to_string())?;
    let base = out.layers.expect("traced replay");
    println!("separation cost, login_rush: busy seconds per replay, baseline vs llsc");
    let names: std::collections::BTreeSet<&str> = base
        .pieces
        .keys()
        .chain(llsc.pieces.keys())
        .copied()
        .collect();
    for name in names {
        let b = base.pieces.get(name).map_or(0.0, |s| s.total_s());
        let l = llsc.pieces.get(name).map_or(0.0, |s| s.total_s()) / llsc_replays as f64;
        println!("  {name:<26} baseline {b:>10.4} s   llsc {l:>10.4} s");
    }
    println!(
        "  {:<26} baseline {:>10.4} s   llsc {llsc_wall_s:>10.4} s",
        "wall", out.wall_s
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: eus-perfbench --workload <login_rush|fairshare_storm> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    host_facts(&args);
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

//! The Cloud9-RS benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload curl-1w --seed 1 --seconds 35 --trace 0
//! ```
//!
//! With `--trace 0` it repeats untraced sessions of the workload for about
//! `--seconds` and reports the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced sessions and reports the per-layer
//! metrics plus a layer table. Every run is checked against pinned path
//! counts and digests; a mismatch is a failed attempt, not an abort. The
//! last line of standard output is one JSON object; see README.md.

mod layers;
mod measure;
mod timed;
mod workloads;

use layers::{Split, PER_LAYER};
use measure::{median, tail};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use timed::Call;
use workloads::{Session, Workload};

/// Set-up-only passes before the measured sessions, bounded by count and
/// time: set-up takes microseconds to milliseconds, so one sample per
/// session would make a noisy median.
const SETUP_REPEATS: usize = 200;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

const USAGE: &str =
    "usage: c9-perfbench --workload <curl-1w|memcached-2w-tcp|service-mix> --seed <n> \
     --seconds <n> --trace <0|1>";

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
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Workload>()?),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    n => return Err(format!("--trace {n}: want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(35),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("c9-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();

    if !measure::reset_peak_rss() {
        eprintln!("c9-perfbench: cannot reset VmHWM; peak_rss_mb is the process-wide peak");
    }
    let mut setup = Vec::new();
    let mut failures = Vec::new();
    let mut attempts = 0u64;
    while setup.len() + failures.len() < SETUP_REPEATS && started.elapsed() < SETUP_BUDGET {
        match workload.setup_only() {
            Ok(s) => setup.push(s),
            Err(why) => {
                attempts += 1;
                failures.push(format!("set-up: {why}"));
            }
        }
    }

    // Sessions until the budget is spent. A traced run alternates with an
    // untraced one, so both see the same machine conditions.
    let mut plain: Vec<Session> = Vec::new();
    let mut traced: Vec<Session> = Vec::new();
    loop {
        let round = Instant::now();
        plain.push(workload.session(args.seed, false));
        if args.trace {
            traced.push(workload.session(args.seed, true));
        }
        let spent = started.elapsed() + round.elapsed() / 2;
        if spent >= budget {
            break;
        }
    }

    for session in plain.iter().chain(&traced) {
        attempts += session.attempts;
        failures.extend(session.failures.iter().cloned());
        if session.measured() {
            setup.push(session.setup_s);
        }
    }
    for why in &failures {
        eprintln!("c9-perfbench: FAILED {why}");
    }
    let timed: Vec<&Session> = plain.iter().filter(|s| s.measured()).collect();
    let exhaust: Vec<f64> = timed.iter().map(|s| s.exhaust_s).collect();
    let rss: Vec<f64> = timed.iter().map(|s| s.peak_rss_mb).collect();
    let turnaround: Vec<f64> = timed
        .iter()
        .flat_map(|s| s.turnarounds.iter().copied())
        .collect();
    let (tail_pct, tail_s) = tail(&turnaround);

    println!(
        "c9-perfbench {} seed {} trace {}: {} untraced + {} traced sessions in {:.1} s on {} CPUs",
        workload.name(),
        args.seed,
        args.trace as u8,
        plain.len(),
        traced.len(),
        started.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!(
        "  exhaust_s {:.4} (median of {}; samples {:.3?})",
        median(&exhaust),
        exhaust.len(),
        exhaust
    );
    println!(
        "  setup_s {:.6} (median of {})",
        median(&setup),
        setup.len()
    );
    println!(
        "  peak_rss_mb {:.1} (median of {})",
        median(&rss),
        rss.len()
    );
    println!(
        "  turnaround_s p50 {:.4}, tail p{tail_pct:.1} {tail_s:.4} (of {} runs)",
        median(&turnaround),
        turnaround.len()
    );
    println!("  attempts {attempts}, failed {}", failures.len());

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        layer_report(&plain, &traced)
    } else {
        vec![
            ("exhaust_s".into(), median(&exhaust), "s"),
            ("setup_s".into(), median(&setup), "s"),
            ("peak_rss_mb".into(), median(&rss), "MiB"),
            ("turnaround_p50_s".into(), median(&turnaround), "s"),
            ("turnaround_tail_s".into(), tail_s, "s"),
        ]
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        attempts.max(1),
        failures.len(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}

fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

/// Prints the layer table and returns every per-layer metric: the median
/// over traced sessions, plus the tracing overhead against the untraced
/// ones.
fn layer_report(plain: &[Session], traced: &[Session]) -> Vec<(String, f64, &'static str)> {
    let layers: Vec<&layers::Traced> = traced
        .iter()
        .filter(|s| s.measured())
        .filter_map(|s| s.traced.as_ref())
        .collect();
    let per_session: Vec<Vec<(&str, f64)>> = layers.iter().map(|t| layers::metrics(t)).collect();
    let plain_exhaust: Vec<f64> = plain
        .iter()
        .filter(|s| s.measured())
        .map(|s| s.exhaust_s)
        .collect();
    let traced_exhaust: Vec<f64> = traced
        .iter()
        .filter(|s| s.measured())
        .map(|s| s.exhaust_s)
        .collect();
    let overhead = median(&traced_exhaust) / median(&plain_exhaust) - 1.0;

    if let Some(middle) = layers.iter().min_by(|a, b| {
        let m = median(&traced_exhaust);
        (a.window_s - m).abs().total_cmp(&(b.window_s - m).abs())
    }) {
        let split = Split::of(middle);
        println!(
            "  layer table (traced session nearest the median; worker-seconds = {:.3} s wall x {} workers):",
            middle.window_s, middle.workers
        );
        for (row, secs) in split.rows() {
            println!(
                "    {row:<14} {secs:>9.3} s  {:>6.1}%",
                100.0 * secs / split.wall
            );
        }
        println!("    {:<14} {:>9.3} s  100.0%", "wall", split.wall);
        println!(
            "    unattributed share {:.1}%; tracing overhead {:+.1}% (traced {:.3} s vs untraced {:.3} s exhaust)",
            100.0 * split.other() / split.wall,
            100.0 * overhead,
            median(&traced_exhaust),
            median(&plain_exhaust)
        );
        println!("  endpoint calls of that session (count, seconds):");
        for call in Call::ALL {
            println!(
                "    {:<24} {:>8} {:>9.4}",
                call.name(),
                middle.net.count(call),
                middle.net.secs(call)
            );
        }
    }

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "trace.overhead_frac" {
                overhead
            } else {
                let values: Vec<f64> = per_session
                    .iter()
                    .filter_map(|m| m.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                    .collect();
                median(&values)
            };
            println!("  {name} {value} {unit}");
            (name.to_string(), value, unit)
        })
        .collect()
}

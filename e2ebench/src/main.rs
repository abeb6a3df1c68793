//! `e2ebench` — runs one workload and prints its metrics.
//!
//! ```text
//! e2ebench --workload races|memory|paradigms [--seed N] [--seconds S] [--trace 0|1]
//! e2ebench --workload W --print-digests
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and the metrics (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`). The line before it records provenance.
//! `--trace 1` also writes the spans to
//! `.bench_build/e2ebench/spans-<workload>-seed<N>.json`. Any failed
//! check makes the exit code 1; bad arguments make it 2.

use std::process::ExitCode;
use std::time::Instant;

use locus_e2ebench::check::parse_digests;
use locus_e2ebench::run::{result_json, run, spans_json, Host, RunConfig};
use locus_e2ebench::spans::Clock;
use locus_e2ebench::workloads::{Plan, Scale, Workload};
use locus_e2ebench::{DEFAULT_SEED, DIGESTS};

/// Set-up samples per run; `setup_s` is their median.
const SETUP_REPS: usize = 20;
/// Seconds spent setting up per run, so each sample is the mean of a
/// batch of at least 50 ms. A set-up takes 0.1–1.5 ms, and on a shared
/// 2-vCPU VM its time alternates between two levels about 1.5× apart in
/// phases of a few milliseconds. Single set-ups fall on either level, and
/// their median jumps between the two as the mix shifts; batch means
/// move with the mix smoothly.
const SETUP_SECONDS: f64 = 1.0;

struct WallClock(Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

impl Host for WallClock {
    fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb * 1024.0 / 1e6)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::Races,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        print_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload {name:?}; expected races, memory or paradigms"
                ))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--print-digests" => args.print_digests = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The commit checked out, read from `.git` without running git (the
/// benchmark may run from an export that has no repository).
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".to_string() } else { head.to_string() };
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn provenance(plan: &Plan, args: &Args) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"commit\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \"host_cpus\": {cpus}, \"seconds\": {}, \"trace\": {}, \"plan\": {}}}",
        commit(),
        rustc_version(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.seconds,
        args.trace,
        plan.describe()
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.workload, Scale::Full, args.seed);
    let clock = WallClock(Instant::now());

    if args.print_digests {
        // One traced pass reaches every cell, the capture split included.
        let cfg = RunConfig {
            plan,
            seconds: 0.0,
            trace: true,
            setup_reps: 1,
            setup_seconds: 0.0,
            min_passes: 2,
            digests: None,
        };
        let result = run(&cfg, &clock);
        for (id, d) in &result.checker.digests {
            println!("{} {id} {d:016x}", args.workload.name());
        }
        return ExitCode::SUCCESS;
    }

    let digests = (args.seed == DEFAULT_SEED).then(|| parse_digests(DIGESTS, args.workload.name()));
    let prov = provenance(&plan, &args);
    let cfg = RunConfig {
        plan,
        seconds: args.seconds,
        trace: args.trace,
        setup_reps: SETUP_REPS,
        setup_seconds: SETUP_SECONDS,
        min_passes: 1,
        digests,
    };
    let result = run(&cfg, &clock);

    for line in &result.summary {
        eprintln!("{line}");
    }
    for m in &result.checker.messages {
        eprintln!("FAILED {m}");
    }
    if args.trace {
        let dir = std::path::Path::new(".bench_build").join("e2ebench");
        let path = dir.join(format!("spans-{}-seed{}.json", args.workload.name(), args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans_json(&prov, &result.spans)));
        match written {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("e2ebench: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    println!("{{\"provenance\": {prov}}}");
    println!("{}", result_json(&result));
    if result.checker.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

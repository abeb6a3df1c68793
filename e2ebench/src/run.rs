//! One benchmark run: repeated set-up, then passes for the requested
//! time, the repeat check, and the metrics.

use std::collections::BTreeMap;

use crate::check::Checker;
use crate::spans::{pass_times, Clock, Meter, PassTimes, Span};
use crate::workloads::{references, run_pass, setup, Counts, Plan, Workload};

/// What the run needs from its host beyond a clock.
pub trait Host: Clock {
    /// Peak resident set of the process so far, in MB (10^6 bytes).
    fn peak_rss_mb(&self) -> f64;
}

/// End-to-end metrics `(name, unit)`, reported with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("pass_s", "s"),
    ("refs_per_s", "refs/s"),
    ("wires_per_s", "wires/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Memory backends, in registry order, for the per-backend metrics.
const BACKENDS: [&str; 4] = ["bus-wbi", "bus-wt", "directory", "dls"];

/// Layers whose self time the traced run reports; `bench` is the
/// benchmark's own checking between layer calls.
const LAYERS: [&str; 6] = ["bench", "shmem", "router", "analysis", "coherence", "msgpass"];

/// Per-layer metrics `(name, unit)`, reported by the traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("circuit.generate_s", "s"),
        ("shmem.emul_trace_s", "s"),
        ("shmem.emul_s", "s"),
        ("shmem.capture_s", "s"),
        ("shmem.trace_refs", "count"),
        ("shmem.trace_mb", "MB"),
        ("router.seq_s", "s"),
        ("router.cells_examined", "count"),
        ("router.wires_routed", "count"),
        ("router.ns_per_cell", "ns"),
        ("analysis.detect_s", "s"),
        ("analysis.classify_s", "s"),
        ("analysis.refs", "count"),
        ("analysis.detect_ns_per_ref", "ns"),
        ("analysis.classify_us_per_race", "us"),
        ("analysis.races", "count"),
        ("analysis.benign_races", "count"),
        ("analysis.sync_pairs", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    v.extend(BACKENDS.iter().map(|b| (format!("coherence.replay_s.{b}"), "s")));
    v.extend(BACKENDS.iter().map(|b| (format!("coherence.mbytes.{b}"), "MB")));
    v.extend(
        [
            ("coherence.events", "count"),
            ("coherence.replayed_refs", "count"),
            ("msgpass.run_s", "s"),
            ("msgpass.recovery_run_s", "s"),
            ("msgpass.recovery.wires_reassigned", "count"),
            ("msgpass.recovery.checkpoints", "count"),
            ("msgpass.degraded_runs", "count"),
            ("mesh.host_ns_per_packet", "ns"),
            ("mesh.packets", "count"),
            ("mesh.wire_bytes", "bytes"),
            ("mesh.contention_ns", "sim_ns"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v.extend(LAYERS.iter().map(|l| (format!("{l}.self_s"), "s")));
    v.extend(
        [
            ("trace.pass_s", "s"),
            ("trace.untraced_pass_s", "s"),
            ("trace.overhead_s", "s"),
            ("fail_frac", "ratio"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

/// How to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// What to run.
    pub plan: Plan,
    /// Keep starting passes until this much time has been measured.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Set-up samples; the median is reported. Each sample is the mean
    /// set-up time over a batch that lasts `setup_seconds / setup_reps`
    /// (at least one set-up).
    pub setup_reps: usize,
    /// Total time spent setting up, at least.
    pub setup_seconds: f64,
    /// Passes to run however long they take (at least 3 when tracing: a
    /// warm-up, then a traced and an untraced pass to compare).
    pub min_passes: usize,
    /// Committed cell digests to compare against, when the seed has them.
    pub digests: Option<BTreeMap<String, u64>>,
}

/// One metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Everything a run produced.
pub struct RunResult {
    /// Every cell check of every pass, plus the repeat checks.
    pub checker: Checker,
    /// The end-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// `name median q1 q3 n` lines for the timings behind the metrics.
    pub summary: Vec<String>,
    /// Recorded spans (traced run only).
    pub spans: Vec<Span>,
}

/// Median and quartiles by linear interpolation between order statistics.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.5), at(0.25), at(0.75))
}

fn median(values: &[f64]) -> f64 {
    quartiles(values).0
}

/// One pass as measured: wall time and the durations of its outermost
/// layer calls, in call order.
struct PassTime {
    secs: f64,
    calls: Vec<u64>,
}

/// The time of one pass, robust to host slowdowns that hit only some
/// passes: each layer call's median over `passes`, summed, plus the
/// median of the rest of the pass (the benchmark's checking between
/// calls). Passes that made different calls fall back to the median
/// pass.
fn pass_estimate(passes: &[&PassTime]) -> f64 {
    let Some(first) = passes.first() else {
        return 0.0;
    };
    if passes.iter().any(|p| p.calls.len() != first.calls.len()) {
        return median(&passes.iter().map(|p| p.secs).collect::<Vec<_>>());
    }
    let col = |k: usize| passes.iter().map(|p| p.calls[k] as f64 / 1e9).collect::<Vec<_>>();
    let rest: Vec<f64> =
        passes.iter().map(|p| p.secs - p.calls.iter().sum::<u64>() as f64 / 1e9).collect();
    (0..first.calls.len()).map(|k| median(&col(k))).sum::<f64>() + median(&rest)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs the benchmark described by `cfg` on `host`.
pub fn run(cfg: &RunConfig, host: &dyn Host) -> RunResult {
    let plan = &cfg.plan;
    let mut meter = Meter::new(host, false);
    let mut summary = Vec::new();

    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut inputs = None;
    let samples = cfg.setup_reps.max(1);
    let batch_ns = (cfg.setup_seconds.max(0.0) * 1e9) as u64 / samples as u64;
    let mut setups = 0usize;
    for _ in 0..samples {
        let t0 = meter.now_ns();
        let (mut n, mut gen_ns) = (0u64, 0u64);
        while n == 0 || meter.now_ns().saturating_sub(t0) < batch_ns {
            let (built, g) = setup(plan, &meter);
            inputs = Some(built);
            gen_ns += g;
            n += 1;
        }
        setup_s.push(meter.now_ns().saturating_sub(t0) as f64 / 1e9 / n as f64);
        generate_s.push(gen_ns as f64 / 1e9 / n as f64);
        setups += n as usize;
    }
    let inputs = inputs.expect("set-up ran at least once");
    let refs = references(plan, &inputs);

    let mut checker = Checker::new(cfg.digests.clone());
    let min_passes = if cfg.trace { cfg.min_passes.max(3) } else { cfg.min_passes.max(1) };
    let budget_ns = (cfg.seconds.max(0.0) * 1e9) as u64;
    let start = meter.now_ns();
    // (traced, time, counts) per pass.
    let mut passes: Vec<(bool, PassTime, Counts)> = Vec::new();
    loop {
        let k = passes.len();
        // The traced run alternates traced and untraced passes so the
        // tracing overhead is measured within one process; its first pass
        // only warms caches and the allocator, and is reported by neither.
        let traced = cfg.trace && k % 2 == 1;
        meter.set_tracing(traced, k);
        let t0 = meter.now_ns();
        let counts = meter.span("pass", "", |m| run_pass(plan, &inputs, &refs, m, &mut checker));
        let dur = meter.now_ns().saturating_sub(t0);
        let time = PassTime { secs: dur as f64 / 1e9, calls: meter.take_calls() };
        passes.push((traced, time, counts));
        // Start another pass only if it would end no more than half a
        // pass past the budget.
        let elapsed = meter.now_ns().saturating_sub(start);
        if passes.len() >= min_passes && elapsed + dur / 2 >= budget_ns {
            break;
        }
    }

    // Counts are outputs of deterministic code: any difference between
    // passes is a failure, never something to average.
    let first = &passes[0].2;
    for (k, (_, _, counts)) in passes.iter().enumerate().skip(1) {
        let keys: std::collections::BTreeSet<&String> = first.keys().chain(counts.keys()).collect();
        let problems: Vec<String> = keys
            .into_iter()
            .filter(|key| {
                first.get(*key).map(|v| v.to_bits()) != counts.get(*key).map(|v| v.to_bits())
            })
            .map(|key| {
                format!("{key}: pass 0 {:?}, pass {k} {:?}", first.get(key), counts.get(key))
            })
            .collect();
        checker.check(&format!("repeat/pass{k}"), problems);
    }

    let measured = if cfg.trace { &passes[1..] } else { &passes[..] };
    let untraced: Vec<&PassTime> = measured.iter().filter(|p| !p.0).map(|p| &p.1).collect();
    let traced: Vec<&PassTime> = passes.iter().filter(|p| p.0).map(|p| &p.1).collect();
    let mut line = |name: &str, p: &[&PassTime]| {
        let v: Vec<f64> = p.iter().map(|p| p.secs).collect();
        let (m, q1, q3) = quartiles(&v);
        let all: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
        summary.push(format!(
            "{name} {:.6} from per-call medians; passes median {m:.6} q1 {q1:.6} q3 {q3:.6} n {} [{}]",
            pass_estimate(p),
            v.len(),
            all.join(" ")
        ));
    };
    line("pass_s", &untraced);
    if cfg.trace {
        line("trace.pass_s", &traced);
    }
    let (m, q1, q3) = quartiles(&setup_s);
    summary.push(format!(
        "setup_s median {m:.6} q1 {q1:.6} q3 {q3:.6} n {} batches of {setups} set-ups",
        setup_s.len()
    ));
    let pass_s = pass_estimate(&untraced);
    let traced_pass_s = pass_estimate(&traced);
    let count = |name: &str| first.get(name).copied().unwrap_or(0.0);

    let mut metrics = Vec::new();
    let mut put = |name: &str, unit: &'static str, value: f64| {
        metrics.push(Metric { name: name.to_string(), unit, value });
    };
    if !cfg.trace {
        put("pass_s", "s", pass_s);
        // The trace windows consumed, whose size is the same for every
        // seed; `paradigms` captures no trace, so there it is the
        // engines' cost-array references.
        let refs = match plan.workload {
            Workload::Paradigms => count("router.cost_refs"),
            _ => count("analysis.refs") + count("coherence.replayed_refs"),
        };
        put("refs_per_s", "refs/s", ratio(refs, pass_s));
        put("wires_per_s", "wires/s", ratio(count("router.wires_routed"), pass_s));
        put("setup_s", "s", median(&setup_s));
        put("peak_rss_mb", "MB", host.peak_rss_mb());
        put("ok_frac", "ratio", 1.0 - checker.fail_frac());
    } else {
        let times: Vec<PassTimes> = passes
            .iter()
            .enumerate()
            .filter(|(_, p)| p.0)
            .map(|(k, _)| pass_times(meter.spans(), k))
            .collect();
        let med = |pick: &dyn Fn(&PassTimes) -> Option<f64>| {
            median(&times.iter().map(|t| pick(t).unwrap_or(0.0)).collect::<Vec<_>>())
        };
        let span_s = |name: &str| med(&|t| t.by_name.get(name).copied());
        let self_s = |layer: &str| med(&|t| t.self_by_layer.get(layer).copied());
        let emul_trace_s = span_s("shmem.emul_trace");
        let seq_s = span_s("router.seq");
        let detect_s = span_s("analysis.detect");
        let classify_s = span_s("analysis.classify");
        let run_s = span_s("msgpass.run");
        for (name, unit) in per_layer() {
            let value = match name.as_str() {
                "circuit.generate_s" => median(&generate_s),
                "shmem.emul_trace_s" => emul_trace_s,
                "shmem.emul_s" => span_s("shmem.emul"),
                // Only passes that trace also run the untraced emulator
                // on the same circuits, so the difference is capture.
                "shmem.capture_s" => {
                    if emul_trace_s > 0.0 {
                        emul_trace_s - span_s("shmem.emul")
                    } else {
                        0.0
                    }
                }
                "router.seq_s" => seq_s,
                "router.ns_per_cell" => ratio(seq_s * 1e9, count("router.seq_cells_examined")),
                "analysis.detect_s" => detect_s,
                "analysis.classify_s" => classify_s,
                "analysis.detect_ns_per_ref" => ratio(detect_s * 1e9, count("analysis.refs")),
                "analysis.classify_us_per_race" => ratio(classify_s * 1e6, count("analysis.races")),
                "msgpass.run_s" => run_s,
                "msgpass.recovery_run_s" => span_s("msgpass.recovery_run"),
                "mesh.host_ns_per_packet" => ratio(run_s * 1e9, count("mesh.packets")),
                "trace.pass_s" => traced_pass_s,
                "trace.untraced_pass_s" => pass_s,
                "trace.overhead_s" => traced_pass_s - pass_s,
                "fail_frac" => checker.fail_frac(),
                n => match (n.strip_prefix("coherence.replay_s."), n.strip_suffix(".self_s")) {
                    (Some(backend), _) => span_s(&format!("coherence.replay.{backend}")),
                    (_, Some(layer)) => self_s(layer),
                    _ => count(n),
                },
            };
            put(&name, unit, value);
        }
    }

    RunResult { checker, metrics, summary, spans: meter.spans().to_vec() }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
pub fn result_json(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.checker.failed == 0,
        result.checker.attempted,
        result.checker.failed,
        metrics.join(", ")
    )
}

/// A JSON number with every digit of `v` (non-finite values become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The recorded spans and per-pass self times as JSON, headed by
/// `provenance` (a JSON object).
pub fn spans_json(provenance: &str, spans: &[Span]) -> String {
    let mut out = format!("{{\"provenance\": {provenance},\n\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"cell\": \"{}\", \"pass\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}{}\n",
            s.name,
            s.cell,
            s.pass,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("],\n\"self_s\": [\n");
    let passes: std::collections::BTreeSet<usize> = spans.iter().map(|s| s.pass).collect();
    let rows: Vec<String> = passes
        .into_iter()
        .map(|k| {
            let t = pass_times(spans, k);
            let layers: Vec<String> =
                t.self_by_layer.iter().map(|(l, v)| format!("\"{l}\": {}", json_num(*v))).collect();
            format!("{{\"pass\": {k}, {}}}", layers.join(", "))
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n]}\n");
    out
}

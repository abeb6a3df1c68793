//! Smoke test of the benchmark at `presets::small()` scale, plus the
//! checks that guard it: corrupted outputs are caught, every metric in
//! `BENCHMARK.json` is emitted with its unit, and the sources pass the
//! workspace lint.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::Path;

use locus_circuit::presets;
use locus_coherence::{memory_registry, MemoryConfig};
use locus_e2ebench::check::{self, Checker};
use locus_e2ebench::run::{per_layer, result_json, run, Host, RunConfig, END_TO_END};
use locus_e2ebench::spans::Clock;
use locus_e2ebench::workloads::{Plan, Scale, Workload};
use locus_e2ebench::DEFAULT_SEED;
use locus_msgpass::{run_msgpass, MsgPassConfig, UpdateSchedule};
use locus_shmem::{ShmemConfig, ShmemEmulator};

/// A clock that advances one microsecond per read, so runs are
/// deterministic and every span has a non-zero length.
struct FakeHost(Cell<u64>);

impl Clock for FakeHost {
    fn now_ns(&self) -> u64 {
        let t = self.0.get();
        self.0.set(t + 1_000);
        t
    }
}

impl Host for FakeHost {
    fn peak_rss_mb(&self) -> f64 {
        1.0
    }
}

fn smoke(
    workload: Workload,
    trace: bool,
    digests: Option<BTreeMap<String, u64>>,
) -> locus_e2ebench::run::RunResult {
    let cfg = RunConfig {
        plan: Plan::new(workload, Scale::Smoke, DEFAULT_SEED),
        seconds: 0.0,
        trace,
        setup_reps: 2,
        setup_seconds: 0.0,
        min_passes: 2,
        digests,
    };
    assert!(cfg.plan.procs <= 4);
    run(&cfg, &FakeHost(Cell::new(0)))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn benchmark_metrics(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit_and_passes_every_check() {
    let e2e: Vec<(String, String)> =
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
    let layers: Vec<(String, String)> =
        per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    assert_eq!(benchmark_metrics("end_to_end"), e2e);
    assert_eq!(benchmark_metrics("per_layer"), layers);

    for workload in Workload::ALL {
        for (trace, expected) in [(false, &e2e), (true, &layers)] {
            let result = smoke(workload, trace, None);
            assert_eq!(result.checker.messages, Vec::<String>::new(), "{workload:?}");
            assert_eq!(result.checker.failed, 0);
            assert!(result.checker.attempted > 0);
            let emitted: Vec<(String, String)> =
                result.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
            assert_eq!(&emitted, expected, "{workload:?} trace={trace}");
            let value =
                |name: &str| result.metrics.iter().find(|m| m.name == name).map(|m| m.value);
            if trace {
                assert_eq!(value("fail_frac"), Some(0.0));
                assert!(!result.spans.is_empty());
            } else {
                assert_eq!(value("ok_frac"), Some(1.0));
                for (name, _) in &e2e {
                    assert!(value(name).is_some_and(|v| v > 0.0), "{workload:?} {name} is 0");
                }
            }
            let line = result_json(&result);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
        }
    }
}

#[test]
fn traced_and_untraced_passes_produce_identical_outputs() {
    for workload in Workload::ALL {
        // The traced run reaches every cell (it adds the capture split),
        // so its digests cover the untraced run's.
        let traced = smoke(workload, true, None);
        let untraced = smoke(workload, false, Some(traced.checker.digests.clone()));
        assert_eq!(untraced.checker.messages, Vec::<String>::new(), "{workload:?}");
    }
}

#[test]
fn races_and_memory_consume_the_same_window_of_every_trace() {
    for (workload, consumed, consumers) in [
        (Workload::Races, "analysis.refs", 1.0),
        (Workload::Memory, "coherence.replayed_refs", memory_registry().len() as f64),
    ] {
        let plan = Plan::new(workload, Scale::Smoke, DEFAULT_SEED);
        let window = plan.window_refs.expect("the workload consumes a window") as f64;
        let result = smoke(workload, true, None);
        let value = |name: &str| result.metrics.iter().find(|m| m.name == name).map(|m| m.value);
        let traces = plan.circuits.len() as f64;
        // Every trace is longer than the window, so every consumer reads
        // exactly the window of each.
        assert!(value("shmem.trace_refs").is_some_and(|v| v > window * traces), "{workload:?}");
        assert_eq!(value(consumed), Some(window * traces * consumers), "{workload:?}");
    }
}

#[test]
fn a_corrupted_output_is_caught() {
    let c = presets::small();
    let id = "small/msgpass.sender-2-10";
    let out = run_msgpass(&c, MsgPassConfig::new(4, UpdateSchedule::sender_initiated(2, 10)));
    let good = check::msgpass_digest(&out);
    let mut chk = Checker::new(Some(BTreeMap::from([(id.to_string(), good)])));
    chk.cell(id, good, check::msgpass_invariants(&c, &out));
    assert_eq!((chk.attempted, chk.failed), (1, 0));

    // Two wires trade routes: neither covers its own pins any more, and
    // the digest no longer matches the committed one.
    let mut bad = out.clone();
    bad.routes.swap(0, 1);
    chk.cell(id, check::msgpass_digest(&bad), check::msgpass_invariants(&c, &bad));
    assert_eq!((chk.attempted, chk.failed), (2, 1));
    assert!(chk.messages.iter().any(|m| m.contains("not covered")), "{:?}", chk.messages);
    assert!(chk.messages.iter().any(|m| m.contains("committed")), "{:?}", chk.messages);
    assert!(chk.fail_frac() > 0.0);

    // A backend that loses one read no longer sums to the trace.
    let traced = ShmemEmulator::new(&c, ShmemConfig::new(4).with_trace()).run();
    let trace = traced.trace.expect("trace requested");
    let (reads, writes) = check::trace_counts(&trace);
    let model = (memory_registry()[0].build)(MemoryConfig::paper(4, 8));
    let mut mem = model.run(&trace);
    assert!(check::memory_invariants(&mem, reads, writes).is_empty());
    mem.per_proc[0].reads -= 1;
    assert_eq!(check::memory_invariants(&mem, reads, writes).len(), 1);

    // A trace that lost a reference no longer matches the engine's work.
    assert!(check::trace_matches_work(&trace, &traced.work).is_empty());
    let mut work = traced.work;
    work.cells_written += 1;
    assert_eq!(check::trace_matches_work(&trace, &work).len(), 1);
}

#[test]
fn sources_pass_the_workspace_lint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let outcome = locus_analysis::lint::lint_workspace(root).expect("sources are readable");
    assert!(outcome.files_scanned >= 5, "scanned {}", outcome.files_scanned);
    let found: Vec<String> = outcome
        .violations
        .iter()
        .map(|v| format!("{}:{} {}", v.file.display(), v.line, v.rule))
        .collect();
    assert_eq!(found, Vec::<String>::new());
}

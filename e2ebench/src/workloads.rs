//! The three workloads: their inputs, generated from a seed, and one
//! pass of layer calls over those inputs with every output checked.

use std::collections::BTreeMap;

use locus_analysis::{classify_races, detect, AnalysisReport, ClassifiedRace};
use locus_circuit::{presets, Circuit, CircuitGenerator, GeneratorConfig};
use locus_coherence::{memory_registry, MemRef, MemoryConfig, MemoryModel, Trace};
use locus_mesh::{FaultPlan, NodeFault};
use locus_msgpass::{run_msgpass, MsgPassConfig, MsgPassOutcome, RecoveryConfig, UpdateSchedule};
use locus_router::{
    EngineCtx, Route, RouterParams, RoutingEngine, SequentialEngine, SequentialRouter, WorkStats,
};
use locus_shmem::{ShmemConfig, ShmemEmulator, ShmemOutcome};

use crate::check::{self, Checker, StableHash};
use crate::spans::Meter;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Traced emulator plus race analysis (`analyze --engine emul`).
    Races,
    /// Traced emulator replayed through every memory backend (`memory`).
    Memory,
    /// Untraced routing on every engine, the Table 1/2 grids and the
    /// recovery cells.
    Paradigms,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 3] = [Workload::Races, Workload::Memory, Workload::Paradigms];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Races => "races",
            Workload::Memory => "memory",
            Workload::Paradigms => "paradigms",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the paper's circuit shapes, or `presets::small()`-scale
/// circuits on at most 4 processors for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// bnrE- and MDC-shape circuits at the workload's processor count.
    Full,
    /// small-shape circuits, 4 processors.
    Smoke,
}

/// Race analysis runs on this many processors. Races grow faster than P
/// (about 66 k / 225 k / 550 k per bnrE-shape circuit at 4 / 8 / 16), and
/// classifying one costs 12–34 µs depending on the circuit (a stale read
/// re-routes its wire, so long wires cost more). With many races the
/// pass time therefore follows the seed. At 2 processors detection,
/// whose cost the trace window fixes, does most of the analysis.
const RACES_PROCS: usize = 2;
/// bnrE-shape circuits per `races` pass.
const RACES_CIRCUITS: usize = 4;
/// The paper's processor count.
const PAPER_PROCS: usize = 16;
/// (bnrE, MDC) circuit pairs per `memory` pass.
const MEMORY_PAIRS: usize = 2;
/// References of each trace that `races` analyses and `memory` replays
/// through the backends: the first this many, in time order. A whole
/// trace holds 1.9–4.5 M refs depending on the seed, and detection and
/// replay time follow its length, so a fixed window keeps a pass's work
/// the same for every seed.
const WINDOW_REFS: usize = 1_500_000;
/// The same at smoke scale, below a small circuit's trace length.
const SMOKE_WINDOW_REFS: usize = 20_000;
/// (bnrE, MDC) circuit pairs per `paradigms` pass: enough for a pass of
/// a few seconds.
const PARADIGMS_PAIRS: usize = 8;
/// Cache line size of the memory study (bytes).
const LINE_SIZE: u32 = 8;
/// Table 1 sender grid: (SendRmtData, SendLocData).
const SENDER_GRID: [(u32, u32); 12] = [
    (2, 1),
    (2, 5),
    (2, 10),
    (2, 20),
    (5, 1),
    (5, 5),
    (5, 10),
    (5, 20),
    (10, 1),
    (10, 5),
    (10, 10),
    (10, 20),
];
/// Table 2 receiver grid: (ReqLocData, ReqRmtData).
const RECEIVER_GRID: [(u32, u32); 9] =
    [(1, 5), (1, 10), (1, 30), (2, 5), (2, 10), (2, 30), (10, 5), (10, 10), (10, 30)];
/// Recovery cells checkpoint every this many wires.
const CHECKPOINT_EVERY: u32 = 4;
/// Heartbeat period as a fraction of the probed completion time.
const HEARTBEAT_DIVISOR: u64 = 50;
/// Heartbeats of silence before a peer is declared dead.
const SUSPECT_AFTER: u32 = 8;

/// What a workload runs: circuits, processors, schedules and backends,
/// all derived from the workload, scale and seed.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed the circuits are generated from.
    pub seed: u64,
    /// Input scale.
    pub scale: Scale,
    /// Processors for every parallel engine.
    pub procs: usize,
    /// `(label, generator configuration)` per circuit.
    pub circuits: Vec<(String, GeneratorConfig)>,
    /// Longest trace prefix a pass consumes (`races` and `memory`).
    pub window_refs: Option<usize>,
}

/// SplitMix64 step: spreads a seed into independent circuit seeds.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Plan {
    /// The plan for `workload` at `scale` from `seed`.
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Plan {
        let shape = |name: &str, base: GeneratorConfig, i: usize| {
            let mut cfg = base;
            cfg.seed = mix(seed ^ mix(i as u64 * 2 + u64::from(name.starts_with('M'))));
            cfg.name = format!("{name}-{i}");
            (cfg.name.clone(), cfg)
        };
        let (procs, circuits) = match (workload, scale) {
            (Workload::Races, Scale::Full) => (
                RACES_PROCS,
                (0..RACES_CIRCUITS).map(|i| shape("bnrE", presets::bnr_e_config(), i)).collect(),
            ),
            (Workload::Memory, Scale::Full) => (
                PAPER_PROCS,
                (0..MEMORY_PAIRS)
                    .flat_map(|i| {
                        [
                            shape("bnrE", presets::bnr_e_config(), i),
                            shape("MDC", presets::mdc_config(), i),
                        ]
                    })
                    .collect(),
            ),
            (Workload::Paradigms, Scale::Full) => (
                PAPER_PROCS,
                (0..PARADIGMS_PAIRS)
                    .flat_map(|i| {
                        [
                            shape("bnrE", presets::bnr_e_config(), i),
                            shape("MDC", presets::mdc_config(), i),
                        ]
                    })
                    .collect(),
            ),
            (Workload::Memory, Scale::Smoke) => (
                4,
                vec![
                    shape("small", presets::small_config(), 0),
                    shape("small", presets::small_config(), 1),
                ],
            ),
            (_, Scale::Smoke) => (4, vec![shape("small", presets::small_config(), 0)]),
        };
        let window_refs = (workload != Workload::Paradigms).then_some(match scale {
            Scale::Full => WINDOW_REFS,
            Scale::Smoke => SMOKE_WINDOW_REFS,
        });
        Plan { workload, seed, scale, procs, circuits, window_refs }
    }

    /// The plan's parameters as a JSON object, for provenance.
    pub fn describe(&self) -> String {
        let circuits: Vec<String> = self
            .circuits
            .iter()
            .map(|(label, c)| {
                format!(
                    "{{\"label\": \"{label}\", \"channels\": {}, \"grids\": {}, \"wires\": {}, \"generator_seed\": {}}}",
                    c.channels, c.grids, c.n_wires, c.seed
                )
            })
            .collect();
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"scale\": \"{:?}\", \"procs\": {}, \"circuits\": [{}]",
            self.workload.name(),
            self.seed,
            self.scale,
            self.procs,
            circuits.join(", ")
        );
        match self.workload {
            Workload::Races => out.push_str(&format!(
                ", \"engine\": \"shmem-emul traced\", \"window_refs\": {}",
                self.window_refs.unwrap_or(0)
            )),
            Workload::Memory => {
                let names: Vec<String> =
                    memory_registry().iter().map(|e| format!("\"{}\"", e.name)).collect();
                out.push_str(&format!(
                    ", \"backends\": [{}], \"line_size\": {LINE_SIZE}, \"window_refs\": {}",
                    names.join(", "),
                    self.window_refs.unwrap_or(0)
                ));
            }
            Workload::Paradigms => {
                let grid = |g: &[(u32, u32)]| {
                    g.iter().map(|(a, b)| format!("[{a}, {b}]")).collect::<Vec<_>>().join(", ")
                };
                out.push_str(&format!(
                    ", \"sender_grid\": [{}], \"receiver_grid\": [{}], \"recovery\": {{\"schedule\": [2, 10], \"checkpoint_every\": {CHECKPOINT_EVERY}, \"heartbeat\": \"probe time / {HEARTBEAT_DIVISOR}\", \"cells\": [\"clean\", \"worker-crash\", \"coordinator-crash\"]}}",
                    grid(&SENDER_GRID),
                    grid(&RECEIVER_GRID)
                ));
            }
        }
        out.push('}');
        out
    }
}

/// Everything set-up builds before the first timed call.
pub(crate) struct Inputs {
    /// The generated circuits, in plan order.
    pub(crate) circuits: Vec<Circuit>,
    /// Memory backends in registry order (`memory` only).
    pub(crate) models: Vec<Box<dyn MemoryModel>>,
}

/// Set-up: circuit generation plus engine and model construction.
/// Returns the inputs and the nanoseconds circuit generation took.
pub(crate) fn setup(plan: &Plan, meter: &Meter) -> (Inputs, u64) {
    let t0 = meter.now_ns();
    let circuits: Vec<Circuit> = plan
        .circuits
        .iter()
        .map(|(_, cfg)| CircuitGenerator::new(cfg.clone()).generate())
        .collect();
    let generate_ns = meter.now_ns().saturating_sub(t0);
    let models = if plan.workload == Workload::Memory {
        memory_registry()
            .iter()
            .map(|e| (e.build)(MemoryConfig::paper(plan.procs as u32, LINE_SIZE)))
            .collect()
    } else {
        Vec::new()
    };
    (Inputs { circuits, models }, generate_ns)
}

/// Reference outputs the checks compare against, computed once per run
/// outside any timing: `SequentialRouter` routes per circuit
/// (`paradigms` only).
pub(crate) fn references(plan: &Plan, inputs: &Inputs) -> Vec<Vec<Route>> {
    if plan.workload != Workload::Paradigms {
        return Vec::new();
    }
    inputs
        .circuits
        .iter()
        .map(|c| SequentialRouter::new(c, RouterParams::default()).run().routes)
        .collect()
}

/// Count-type outputs of one pass, by metric name.
pub(crate) type Counts = BTreeMap<String, f64>;

fn add(counts: &mut Counts, name: &str, v: f64) {
    *counts.entry(name.to_string()).or_default() += v;
}

/// Adds one engine run's work: wires routed, cells examined, and
/// cost-array references (cells examined plus cells written, which is
/// exactly what a traced run captures).
fn engine_work(counts: &mut Counts, w: &WorkStats) {
    add(counts, "router.wires_routed", w.wires_routed as f64);
    add(counts, "router.cells_examined", w.cells_examined as f64);
    add(counts, "router.cost_refs", (w.cells_examined + w.cells_written) as f64);
}

fn engine_digest(routes: &[Route], work: &WorkStats) -> u64 {
    StableHash::default().routes(routes).work(work).finish()
}

/// Untraced emulator run, checked as its own cell. In traced passes it is
/// the capture split and is kept out of the counts.
fn emul(
    meter: &mut Meter,
    chk: &mut Checker,
    c: &Circuit,
    label: &str,
    procs: usize,
) -> ShmemOutcome {
    let out =
        meter.span("shmem.emul", label, |_| ShmemEmulator::new(c, ShmemConfig::new(procs)).run());
    chk.cell(
        &format!("{label}/shmem.emul"),
        engine_digest(&out.routes, &out.work),
        check::routes_every_wire(c, &out.routes),
    );
    out
}

/// Traced emulator run, checked as its own cell.
fn emul_traced(
    meter: &mut Meter,
    chk: &mut Checker,
    counts: &mut Counts,
    c: &Circuit,
    label: &str,
    procs: usize,
) -> Trace {
    let out = meter.span("shmem.emul_trace", label, |_| {
        ShmemEmulator::new(c, ShmemConfig::new(procs).with_trace()).run()
    });
    let mut problems = check::routes_every_wire(c, &out.routes);
    let trace = match out.trace {
        Some(trace) => trace,
        None => {
            problems.push("traced emulator returned no trace".to_string());
            Trace::new()
        }
    };
    problems.extend(check::trace_matches_work(&trace, &out.work));
    chk.cell(&format!("{label}/shmem.emul_trace"), engine_digest(&out.routes, &out.work), problems);
    engine_work(counts, &out.work);
    add(counts, "shmem.trace_refs", trace.len() as f64);
    add(counts, "shmem.trace_mb", (trace.len() * std::mem::size_of::<MemRef>()) as f64 / 1e6);
    trace
}

/// One pass of `plan` over `inputs`: every layer call, every check.
pub(crate) fn run_pass(
    plan: &Plan,
    inputs: &Inputs,
    refs: &[Vec<Route>],
    meter: &mut Meter,
    chk: &mut Checker,
) -> Counts {
    let mut counts = Counts::new();
    let label = |i: usize| plan.circuits[i].0.as_str();
    if plan.workload == Workload::Paradigms {
        for (i, c) in inputs.circuits.iter().enumerate() {
            meter.span("cell", label(i), |m| {
                paradigms_cell(m, chk, &mut counts, c, label(i), plan.procs, &refs[i])
            });
        }
        return counts;
    }
    // Every circuit is traced before any window is consumed, so a pass
    // holds all its windows at once: its peak memory follows the windows'
    // volume plus the largest whole trace, which is freed once its window
    // is copied.
    let traces: Vec<Trace> = inputs
        .circuits
        .iter()
        .enumerate()
        .map(|(i, c)| {
            meter.span("cell", label(i), |m| {
                if m.tracing() {
                    emul(m, chk, c, label(i), plan.procs);
                }
                let trace = emul_traced(m, chk, &mut counts, c, label(i), plan.procs);
                match plan.window_refs {
                    Some(n) if trace.len() > n => trace.refs()[..n].iter().copied().collect(),
                    _ => trace,
                }
            })
        })
        .collect();
    for (i, (c, trace)) in inputs.circuits.iter().zip(&traces).enumerate() {
        meter.span("cell", label(i), |m| match plan.workload {
            Workload::Races => races_cell(m, chk, &mut counts, c, trace, label(i), plan.procs),
            _ => memory_cell(m, chk, &mut counts, trace, label(i), &inputs.models),
        });
    }
    counts
}

fn races_cell(
    m: &mut Meter,
    chk: &mut Checker,
    counts: &mut Counts,
    c: &Circuit,
    trace: &Trace,
    label: &str,
    procs: usize,
) {
    let overshoot = RouterParams::default().channel_overshoot;
    // The traced run calls the parts of `AnalysisReport::build` separately
    // so each gets its own span; both paths must digest identically.
    let (refs, epochs, sync_pairs, races): (usize, u32, u64, Vec<ClassifiedRace>) = if m.tracing() {
        let d = m.span("analysis.detect", label, |_| detect(trace));
        let (refs, epochs, sync) = (d.refs, d.epochs, d.synchronized_pairs);
        let races =
            m.span("analysis.classify", label, |_| classify_races(c, trace, d.races, overshoot));
        (refs, epochs, sync, races)
    } else {
        let r = m.span("analysis.build", label, |_| {
            AnalysisReport::build("shmem-emul", procs, c, trace, overshoot)
        });
        (r.refs, r.epochs, r.synchronized_pairs, r.races)
    };
    let benign = races.iter().filter(|r| r.is_benign()).count();
    add(counts, "analysis.refs", refs as f64);
    add(counts, "analysis.races", races.len() as f64);
    add(counts, "analysis.benign_races", benign as f64);
    add(counts, "analysis.sync_pairs", sync_pairs as f64);
    chk.cell(
        &format!("{label}/analysis"),
        check::races_digest(refs, epochs, sync_pairs, &races),
        check::analysis_invariants(trace.len(), refs, &races),
    );
}

fn memory_cell(
    m: &mut Meter,
    chk: &mut Checker,
    counts: &mut Counts,
    trace: &Trace,
    label: &str,
    models: &[Box<dyn MemoryModel>],
) {
    let (reads, writes) = check::trace_counts(trace);
    let outs: Vec<_> = models
        .iter()
        .map(|model| {
            let span = format!("coherence.replay.{}", model.name());
            (model.name(), m.span(&span, label, |_| model.run(trace)))
        })
        .collect();
    let bus_bytes = outs.iter().find(|(n, _)| *n == "bus-wbi").map(|(_, o)| o.stats.total_bytes);
    for (name, out) in &outs {
        let mut problems = check::memory_invariants(out, reads, writes);
        // The directory keeps write-back-invalidate semantics, so it moves
        // exactly the data bytes of the snooping bus.
        if *name == "directory" && bus_bytes != Some(out.stats.total_bytes) {
            problems
                .push(format!("{} data bytes, bus-wbi moved {bus_bytes:?}", out.stats.total_bytes));
        }
        add(counts, &format!("coherence.mbytes.{name}"), out.stats.mbytes());
        add(counts, "coherence.replayed_refs", trace.len() as f64);
        add(counts, "coherence.events", out.coherence_events() as f64);
        chk.cell(&format!("{label}/coherence.{name}"), check::memory_digest(out), problems);
    }
}

/// Runs one message-passing cell and records its check and counts.
/// `plain` runs feed the mesh counters; recovery runs feed the recovery
/// counters.
fn msgpass_cell(
    m: &mut Meter,
    chk: &mut Checker,
    counts: &mut Counts,
    c: &Circuit,
    id: String,
    cfg: MsgPassConfig,
    plain: bool,
) -> MsgPassOutcome {
    let span = if plain { "msgpass.run" } else { "msgpass.recovery_run" };
    let out = m.span(span, &id, |_| run_msgpass(c, cfg));
    // Plain runs must terminate cleanly. A recovery run must route every
    // wire; when it needed the deadlock watchdog to do so, that is counted
    // in `msgpass.degraded_runs` rather than failing the output check.
    let problems = if plain {
        check::msgpass_invariants(c, &out)
    } else {
        check::routes_every_wire(c, &out.routes)
    };
    chk.cell(&id, check::msgpass_digest(&out), problems);
    engine_work(counts, &out.work);
    if plain {
        add(counts, "mesh.packets", out.net.packets as f64);
        add(counts, "mesh.wire_bytes", out.net.wire_bytes as f64);
        add(counts, "mesh.contention_ns", out.net.contention_ns as f64);
    } else {
        add(counts, "msgpass.recovery.wires_reassigned", out.recovery.wires_reassigned as f64);
        add(counts, "msgpass.recovery.checkpoints", out.recovery.checkpoints_taken as f64);
    }
    let degraded = out.deadlocked || out.degraded.is_some() || out.watchdog_recoveries > 0;
    add(counts, "msgpass.degraded_runs", f64::from(u8::from(degraded)));
    out
}

fn paradigms_cell(
    m: &mut Meter,
    chk: &mut Checker,
    counts: &mut Counts,
    c: &Circuit,
    label: &str,
    procs: usize,
    reference: &[Route],
) {
    let params = RouterParams::default();
    let seq =
        m.span("router.seq", label, |_| SequentialEngine.route(c, &params, &EngineCtx::new(1)));
    let mut problems = check::routes_every_wire(c, &seq.outcome.routes);
    if seq.outcome.routes != reference {
        problems.push("sequential engine routes differ from SequentialRouter".to_string());
    }
    chk.cell(
        &format!("{label}/router.seq"),
        engine_digest(&seq.outcome.routes, &seq.outcome.work),
        problems,
    );
    engine_work(counts, &seq.outcome.work);
    add(counts, "router.seq_cells_examined", seq.outcome.work.cells_examined as f64);

    let out = emul(m, chk, c, label, procs);
    engine_work(counts, &out.work);

    for (rmt, loc) in SENDER_GRID {
        let cfg = MsgPassConfig::new(procs, UpdateSchedule::sender_initiated(rmt, loc));
        msgpass_cell(m, chk, counts, c, format!("{label}/msgpass.sender-{rmt}-{loc}"), cfg, true);
    }
    for (loc, rmt) in RECEIVER_GRID {
        let cfg = MsgPassConfig::new(procs, UpdateSchedule::receiver_initiated(loc, rmt));
        msgpass_cell(m, chk, counts, c, format!("{label}/msgpass.receiver-{loc}-{rmt}"), cfg, true);
    }

    // Recovery cells as in the chaos study: a clean probe without
    // recovery sizes the heartbeat, then recovery-armed (2,10) runs
    // without a fault, with the longest-routing worker crashing at half
    // its own routing span, and with the coordinator crashing likewise.
    let base = || {
        let mut cfg = MsgPassConfig::new(procs, UpdateSchedule::sender_initiated(2, 10));
        cfg.params = cfg.params.with_iterations(1);
        cfg
    };
    let probe = msgpass_cell(m, chk, counts, c, format!("{label}/msgpass.probe"), base(), true);
    let t_ns = (probe.time_secs * 1e9) as u64;
    let spans_ns: Vec<u64> =
        probe.routing_done_secs_by_proc.iter().map(|s| (s * 1e9) as u64).collect();
    let worker = spans_ns
        .iter()
        .enumerate()
        .skip(1)
        .max_by_key(|&(p, ns)| (ns, std::cmp::Reverse(p)))
        .map_or(1, |(p, _)| p);
    let half = |node: usize| (spans_ns.get(node).copied().unwrap_or(t_ns) / 2).max(1);
    let recovery = RecoveryConfig {
        checkpoint_every: CHECKPOINT_EVERY,
        heartbeat_ns: (t_ns / HEARTBEAT_DIVISOR).max(1_000_000),
        suspect_after: SUSPECT_AFTER,
        ..RecoveryConfig::default()
    };
    let faults = [
        ("clean", None),
        ("worker-crash", Some((worker, half(worker)))),
        ("coordinator-crash", Some((0, half(0)))),
    ];
    for (scenario, fault) in faults {
        let mut cfg = base().with_reliability().with_recovery_config(recovery);
        if let Some((node, at_ns)) = fault {
            cfg = cfg.with_faults(
                FaultPlan::none().with_node_fault(node as u32, NodeFault::Crash { at_ns }),
            );
        }
        msgpass_cell(m, chk, counts, c, format!("{label}/recovery.{scenario}"), cfg, false);
    }
}

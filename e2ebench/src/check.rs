//! Output checks: invariants that hold for any seed, plus a stable digest
//! of each cell's deterministic outputs that is compared against the
//! committed `digests.txt` for the default seed.

use std::collections::BTreeMap;

use locus_analysis::{ClassifiedRace, RaceClass};
use locus_circuit::Circuit;
use locus_coherence::{MemoryOutcome, RefKind, Trace};
use locus_msgpass::MsgPassOutcome;
use locus_router::{Route, WorkStats};

/// FNV-1a over 64-bit words. Hand-rolled because `DefaultHasher` does not
/// promise the same output across Rust releases, and digests are
/// committed.
#[derive(Clone, Copy, Debug)]
pub struct StableHash(u64);

impl Default for StableHash {
    fn default() -> Self {
        StableHash(0xcbf2_9ce4_8422_2325)
    }
}

impl StableHash {
    /// Mixes one word in, byte by byte (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes a float in by its bit pattern (outputs are bit-reproducible).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Mixes every cell of every route, with a length prefix per route.
    pub fn routes(&mut self, routes: &[Route]) -> &mut Self {
        self.u64(routes.len() as u64);
        for r in routes {
            self.u64(r.cells().len() as u64);
            for c in r.cells() {
                self.u64((u64::from(c.channel) << 16) | u64::from(c.x));
            }
        }
        self
    }

    /// Mixes the routing work counters.
    pub fn work(&mut self, w: &WorkStats) -> &mut Self {
        self.u64(w.wires_routed)
            .u64(w.connections)
            .u64(w.candidates)
            .u64(w.cells_examined)
            .u64(w.cells_written)
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a message-passing outcome: routes, quality, simulated time,
/// traffic and recovery counters.
pub fn msgpass_digest(out: &MsgPassOutcome) -> u64 {
    let mut h = StableHash::default();
    h.routes(&out.routes)
        .work(&out.work)
        .u64(out.quality.circuit_height)
        .u64(out.quality.occupancy_factor)
        .f64(out.time_secs)
        .f64(out.mbytes)
        .u64(out.net.packets)
        .u64(out.net.wire_bytes)
        .u64(out.net.contention_ns)
        .u64(out.recovery.checkpoints_taken)
        .u64(out.recovery.wires_reassigned)
        .u64(out.recovery.coordinator_failovers);
    h.finish()
}

/// Digest of one memory-model replay.
pub fn memory_digest(out: &MemoryOutcome) -> u64 {
    let s = &out.stats;
    let mut h = StableHash::default();
    h.u64(s.total_bytes)
        .u64(s.read_caused_bytes)
        .u64(s.write_caused_bytes)
        .u64(s.line_fetches)
        .u64(s.word_writes)
        .u64(s.invalidations)
        .u64(s.refetches)
        .u64(out.invalidation_traffic_bytes)
        .u64(out.fifo.all().total_wait_ns)
        .u64(out.critical_first.all().total_wait_ns)
        .u64(out.fifo.makespan_ns);
    for p in &out.per_proc {
        h.u64(p.reads).u64(p.writes);
    }
    h.finish()
}

/// Digest of a detection plus classification: the summary counts and
/// every race pair's identity and verdict, in order.
pub fn races_digest(
    refs: usize,
    epochs: u32,
    synchronized_pairs: u64,
    races: &[ClassifiedRace],
) -> u64 {
    let mut h = StableHash::default();
    h.u64(refs as u64).u64(u64::from(epochs)).u64(synchronized_pairs).u64(races.len() as u64);
    for c in races {
        h.u64(u64::from(c.pair.addr))
            .u64(c.pair.first_idx as u64)
            .u64(c.pair.second_idx as u64)
            .u64(u64::from(c.class == RaceClass::Benign));
    }
    h.finish()
}

/// Reads and writes in a trace.
pub fn trace_counts(trace: &Trace) -> (u64, u64) {
    let writes = trace.refs().iter().filter(|r| r.kind == RefKind::Write).count() as u64;
    (trace.len() as u64 - writes, writes)
}

/// Accumulates the outcome of every cell check in a run.
#[derive(Debug, Default)]
pub struct Checker {
    /// Cells checked.
    pub attempted: u64,
    /// Cells with at least one failed check.
    pub failed: u64,
    /// One line per failed check, for the operator.
    pub messages: Vec<String>,
    /// Digest per cell id of the most recent pass.
    pub digests: BTreeMap<String, u64>,
    /// Committed digests to compare against (default seed only).
    expected: Option<BTreeMap<String, u64>>,
}

impl Checker {
    /// A checker that compares cell digests against `expected` when given.
    pub fn new(expected: Option<BTreeMap<String, u64>>) -> Self {
        Checker { expected, ..Checker::default() }
    }

    /// Records one cell: `problems` lists its failed invariants, `digest`
    /// its deterministic outputs.
    pub fn cell(&mut self, id: &str, digest: u64, mut problems: Vec<String>) {
        self.attempted += 1;
        if let Some(expected) = &self.expected {
            match expected.get(id) {
                Some(&want) if want == digest => {}
                Some(&want) => {
                    problems.push(format!("digest {digest:016x}, committed {want:016x}"))
                }
                None => problems.push(format!("no committed digest (got {digest:016x})")),
            }
        }
        self.digests.insert(id.to_string(), digest);
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.messages.push(format!("{id}: {p}"));
            }
        }
    }

    /// Records a check that is not tied to one cell's outputs (the
    /// repeat check across passes).
    pub fn check(&mut self, id: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.messages.extend(problems.into_iter().map(|p| format!("{id}: {p}")));
        }
    }

    /// Failed cells over attempted cells.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Parses `digests.txt`: `<workload> <cell id> <hex digest>` per line,
/// `#` comments. Returns the digests of `workload`.
pub fn parse_digests(text: &str, workload: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        if let (Some(w), Some(id), Some(hex)) = (parts.next(), parts.next(), parts.next()) {
            if w == workload {
                if let Ok(v) = u64::from_str_radix(hex, 16) {
                    out.insert(id.to_string(), v);
                }
            }
        }
    }
    out
}

/// Every wire has a route of the right count, and every route covers
/// all pins of its wire.
pub fn routes_every_wire(circuit: &Circuit, routes: &[Route]) -> Vec<String> {
    if routes.len() != circuit.wire_count() {
        return vec![format!("{} routes for {} wires", routes.len(), circuit.wire_count())];
    }
    let mut problems = Vec::new();
    for (wire, route) in circuit.wires.iter().zip(routes) {
        if let Some(pin) =
            wire.pins.iter().find(|p| route.cells().binary_search(&p.cell()).is_err())
        {
            problems.push(format!("wire {} pin {:?} not covered by its route", wire.id, pin));
        }
    }
    problems
}

/// A traced engine captured one reference per cost-array cell it
/// examined or wrote.
pub fn trace_matches_work(trace: &Trace, work: &WorkStats) -> Vec<String> {
    let expected = work.cells_examined + work.cells_written;
    if trace.len() as u64 == expected {
        Vec::new()
    } else {
        vec![format!("trace has {} refs, engine examined+wrote {expected} cells", trace.len())]
    }
}

/// Invariants of one race analysis: every race is benign or
/// quality-affecting, and the analysis saw the whole trace.
pub fn analysis_invariants(
    trace_len: usize,
    analysed_refs: usize,
    races: &[ClassifiedRace],
) -> Vec<String> {
    let mut problems = Vec::new();
    let benign = races.iter().filter(|c| c.class == RaceClass::Benign).count();
    let quality = races.iter().filter(|c| c.class == RaceClass::QualityAffecting).count();
    if benign + quality != races.len() {
        problems.push(format!("{benign} benign + {quality} quality != {} races", races.len()));
    }
    if analysed_refs != trace_len {
        problems.push(format!("analysed {analysed_refs} refs of a {trace_len}-ref trace"));
    }
    problems
}

/// A backend's per-processor reads and writes sum to the trace's counts.
pub fn memory_invariants(out: &MemoryOutcome, reads: u64, writes: u64) -> Vec<String> {
    let r: u64 = out.per_proc.iter().map(|p| p.reads).sum();
    let w: u64 = out.per_proc.iter().map(|p| p.writes).sum();
    if (r, w) == (reads, writes) {
        Vec::new()
    } else {
        vec![format!("per-proc reads/writes {r}/{w}, trace has {reads}/{writes}")]
    }
}

/// A message-passing run terminated cleanly with every wire routed.
pub fn msgpass_invariants(circuit: &Circuit, out: &MsgPassOutcome) -> Vec<String> {
    let mut problems = routes_every_wire(circuit, &out.routes);
    if out.deadlocked {
        problems.push("deadlocked".to_string());
    }
    if let Some(reason) = &out.degraded {
        problems.push(format!("degraded: {:?}", reason.kind));
    }
    if out.watchdog_recoveries > 0 {
        problems.push(format!("{} watchdog recoveries", out.watchdog_recoveries));
    }
    problems
}

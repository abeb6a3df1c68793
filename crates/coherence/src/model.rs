//! Pluggable memory-system backends: the [`MemoryModel`] trait and its
//! name→constructor registry.
//!
//! The paper's shared-memory numbers come from a single 1989 design
//! point — a snooped Write-Back-with-Invalidate bus ([`CoherenceSim`]).
//! This module turns that into a family: every backend consumes the same
//! Tango-style [`Trace`] and produces a [`MemoryOutcome`] — protocol
//! traffic ([`TrafficStats`]), invalidation-transport bytes, per-processor
//! reference counts, and queueing-delay accounting from the mesh
//! [`Arbiter`] resolved under both FIFO and criticality-aware service.
//!
//! Registered backends:
//!
//! * `bus-wbi` — the paper's snooped WBI bus, delegated verbatim to
//!   [`CoherenceSim`] (Table 3 byte-identity is a test invariant);
//! * `bus-wt` — the write-through ablation on the same bus;
//! * `directory` — directory-based MSI: WBI line semantics, but line
//!   state lives at an address-interleaved home node that *unicasts*
//!   invalidations to the actual holders, so invalidation transport
//!   scales with sharing rather than with machine size;
//! * `dls` — a directoryless shared LLC (arXiv:1206.4753): shared lines
//!   are never privately cached, every access is a word transfer to the
//!   line's home tile — no invalidations, no refetches, and byte traffic
//!   that is insensitive to line size.
//!
//! ## Traffic vs transport accounting
//!
//! [`MemoryOutcome::stats`] counts *protocol data traffic* — line fetches
//! and word-write announcements — identically across WBI-semantics
//! backends, so backends are directly comparable and `bus-wbi` stays
//! byte-identical to the legacy path. The broadcast-vs-unicast difference
//! lives in [`MemoryOutcome::invalidation_traffic_bytes`]: on the bus
//! every write announcement is snooped by all `P−1` other caches; the
//! directory sends one word per *actual* holder; DLS sends none.
//!
//! ## Contention and criticality
//!
//! Each backend logs every transaction against its contended service
//! point (bus = one resource; directory/DLS = one resource per home
//! tile, with mesh-distance flight time added to the arrival), and one
//! [`Arbiter::resolve`] call prices the log under both
//! [`ServicePolicy::Fifo`] and [`ServicePolicy::CriticalFirst`] — so a
//! report can state how much critical-request wait the priority arbiter
//! removes on identical traffic (arXiv:1606.05933). Criticality comes
//! from the trace: the emulator tags rip-up/commit stores
//! [`Criticality::Critical`].
//!
//! [`Criticality::Critical`]: crate::trace::Criticality::Critical
//! [`ServicePolicy::Fifo`]: locus_mesh::ServicePolicy::Fifo
//! [`ServicePolicy::CriticalFirst`]: locus_mesh::ServicePolicy::CriticalFirst

use locus_mesh::{Arbiter, MeshConfig, ResolvedContention, ServiceRequest, Topology};
use locus_obs::{Event as ObsEvent, EventKind as ObsKind, NullSink, Sink};

use crate::protocol::{
    CoherenceConfig, CoherenceSim, DirectoryParams, DlsParams, LineTable, Protocol, TrafficStats,
};
use crate::trace::{MemRef, RefKind, Trace};

/// Everything a backend needs to price a trace: processor count, the
/// protocol configuration (line size, word size, protocol variant with
/// its params), and the machine the messages travel on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Processors issuing references (home tiles live on the same mesh).
    pub n_procs: u32,
    /// Protocol family and sizes.
    pub coherence: CoherenceConfig,
    /// Machine model used to price transport and contention.
    pub mesh: MeshConfig,
}

impl MemoryConfig {
    /// The paper's evaluation machine for `n_procs` processors with the
    /// given line size: WBI protocol, 4-byte words, Ametek-style mesh of
    /// near-square shape (16 → 4×4).
    pub fn paper(n_procs: u32, line_size: u32) -> Self {
        let n = n_procs.max(1);
        let topo = Topology::for_procs(n as usize);
        MemoryConfig {
            n_procs: n,
            coherence: CoherenceConfig::with_line_size(line_size),
            mesh: MeshConfig::ametek(topo.rows, topo.cols),
        }
    }

    /// Returns `self` with the protocol replaced.
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.coherence.protocol = protocol;
        self
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig::paper(16, 8)
    }
}

/// Per-processor reference counts, tallied by each backend's own replay
/// loop (the backend-agreement proptests pin these to the trace).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcCounts {
    /// Read references issued by the processor.
    pub reads: u64,
    /// Write references issued by the processor.
    pub writes: u64,
}

/// What one backend produced over one trace.
#[derive(Clone, Debug, PartialEq)]
pub struct MemoryOutcome {
    /// Registry name of the backend that produced this.
    pub backend: &'static str,
    /// Protocol data traffic (line fetches + word-write announcements),
    /// accounted identically across WBI-semantics backends.
    pub stats: TrafficStats,
    /// Bytes spent *transporting* invalidation news: bus backends
    /// broadcast every announcement to all `P−1` snoopers, the directory
    /// unicasts one word per actual holder, DLS sends none.
    pub invalidation_traffic_bytes: u64,
    /// Reference counts per processor (index = processor id).
    pub per_proc: Vec<ProcCounts>,
    /// Queueing delays when service points grant in arrival order.
    pub fifo: ResolvedContention,
    /// Queueing delays when queued critical requests are granted first.
    pub critical_first: ResolvedContention,
}

impl MemoryOutcome {
    /// Coherence *events* over the trace: invalidations plus forced
    /// refetches. Zero on any single-processor trace, on every backend.
    pub fn coherence_events(&self) -> u64 {
        self.stats.invalidations + self.stats.refetches
    }

    /// Total critical-request wait the priority arbiter removes relative
    /// to FIFO on the same request log (ns).
    pub fn critical_wait_saved_ns(&self) -> u64 {
        self.fifo.critical.total_wait_ns.saturating_sub(self.critical_first.critical.total_wait_ns)
    }
}

/// A memory-system backend: replay a trace, price its traffic.
///
/// Implementations are stateless configuration objects — `run` builds all
/// per-run state internally, so one model can price many traces.
pub trait MemoryModel {
    /// Registry name of the backend.
    fn name(&self) -> &'static str;

    /// Replays `trace`, streaming one [`EventKind::MemRequest`] per
    /// priced transaction into `sink`.
    ///
    /// [`EventKind::MemRequest`]: locus_obs::EventKind::MemRequest
    fn run_observed(&self, trace: &Trace, sink: &mut dyn Sink) -> MemoryOutcome;

    /// Replays `trace` without observability.
    fn run(&self, trace: &Trace) -> MemoryOutcome {
        self.run_observed(trace, &mut NullSink)
    }
}

/// Shared transport pricing: how long a transaction occupies its service
/// point and how long it flies through the mesh to get there.
#[derive(Clone, Copy)]
struct Pricer {
    mesh: MeshConfig,
    topo: Topology,
}

impl Pricer {
    fn new(cfg: &MemoryConfig) -> Self {
        Pricer { mesh: cfg.mesh, topo: Topology::new(cfg.mesh.rows, cfg.mesh.cols) }
    }

    /// Occupancy of the service point: per-byte receive/disassembly cost
    /// over payload plus framing (the bus analogue: transfer cycles).
    fn service_ns(&self, payload_bytes: u64) -> u64 {
        self.mesh.recv_per_byte_ns * (self.mesh.header_bytes as u64 + payload_bytes)
    }

    /// Flight time from the requesting processor's tile to the home tile
    /// (dimension-order distance at `hop_time_ns` per hop); the request
    /// only starts queueing once it arrives.
    fn flight_ns(&self, proc: u32, home: u32) -> u64 {
        let n = self.topo.n_nodes();
        let d = self.topo.hops(proc as usize % n, home as usize % n);
        self.mesh.hop_time_ns * d as u64
    }
}

/// Per-run accumulator shared by all backends: per-proc counts, the
/// arbiter request log, and the obs stream.
struct RunAcc<'a> {
    per_proc: Vec<ProcCounts>,
    arb: Arbiter,
    sink: &'a mut dyn Sink,
    obs_on: bool,
}

impl<'a> RunAcc<'a> {
    fn new(n_procs: u32, sink: &'a mut dyn Sink) -> Self {
        let obs_on = sink.enabled();
        RunAcc {
            per_proc: vec![ProcCounts::default(); n_procs as usize],
            arb: Arbiter::new(),
            sink,
            obs_on,
        }
    }

    fn count(&mut self, r: &MemRef) {
        if r.proc as usize >= self.per_proc.len() {
            self.per_proc.resize(r.proc as usize + 1, ProcCounts::default());
        }
        let c = &mut self.per_proc[r.proc as usize];
        match r.kind {
            RefKind::Read => c.reads += 1,
            RefKind::Write => c.writes += 1,
        }
    }

    /// Logs one priced transaction against `resource`.
    fn request(&mut self, resource: u32, r: &MemRef, bytes: u64, arrive_ns: u64, service_ns: u64) {
        self.arb.push(ServiceRequest {
            resource,
            proc: r.proc,
            arrive_ns,
            service_ns,
            critical: r.is_critical(),
        });
        if self.obs_on {
            self.sink.record(ObsEvent {
                at_ns: arrive_ns,
                node: r.proc,
                kind: ObsKind::MemRequest {
                    resource,
                    bytes: bytes.min(u32::MAX as u64) as u32,
                    critical: r.is_critical(),
                },
            });
        }
    }

    fn finish(
        self,
        backend: &'static str,
        stats: TrafficStats,
        invalidation_traffic_bytes: u64,
    ) -> MemoryOutcome {
        let resolved = self.arb.resolve();
        MemoryOutcome {
            backend,
            stats,
            invalidation_traffic_bytes,
            per_proc: self.per_proc,
            fifo: resolved.fifo,
            critical_first: resolved.critical_first,
        }
    }
}

/// The snooped-bus backends (`bus-wbi` / `bus-wt`): traffic accounting
/// is delegated access-by-access to [`CoherenceSim`], so the resulting
/// [`TrafficStats`] are byte-identical to the legacy Table 3 path.
pub struct BusModel {
    cfg: MemoryConfig,
    write_through: bool,
}

impl BusModel {
    /// A bus backend over `cfg`; `write_through` selects the ablation.
    pub fn new(cfg: MemoryConfig, write_through: bool) -> Self {
        BusModel { cfg, write_through }
    }
}

impl MemoryModel for BusModel {
    fn name(&self) -> &'static str {
        if self.write_through {
            "bus-wt"
        } else {
            "bus-wbi"
        }
    }

    fn run_observed(&self, trace: &Trace, sink: &mut dyn Sink) -> MemoryOutcome {
        let mut bus_cfg =
            CoherenceConfig { protocol: Protocol::WriteBackInvalidate, ..self.cfg.coherence };
        if self.write_through {
            bus_cfg.protocol = Protocol::WriteThrough;
        }
        let pricer = Pricer::new(&self.cfg);
        let mut sim = CoherenceSim::new(bus_cfg);
        let mut acc = RunAcc::new(self.cfg.n_procs, sink);
        for r in trace.refs() {
            acc.count(r);
            let before = sim.stats().total_bytes;
            sim.access(r.proc, r.addr, r.kind);
            let moved = sim.stats().total_bytes - before;
            if moved > 0 {
                // One bus transaction; the bus is a single broadcast
                // medium, so there is no per-hop flight time.
                acc.request(0, r, moved, r.time, pricer.service_ns(moved));
            }
        }
        let stats = *sim.stats();
        // Every announcement is snooped by all other caches.
        let broadcast = stats.word_writes
            * bus_cfg.word_bytes as u64
            * (self.cfg.n_procs as u64).saturating_sub(1);
        acc.finish(self.name(), stats, broadcast)
    }
}

/// The `directory` backend: MSI with WBI line semantics, home-node line
/// state, and unicast invalidations priced through the mesh.
pub struct DirectoryModel {
    cfg: MemoryConfig,
    params: DirectoryParams,
}

impl DirectoryModel {
    /// A directory backend over `cfg` with the given home interleaving.
    pub fn new(cfg: MemoryConfig, params: DirectoryParams) -> Self {
        assert!(params.home_tiles > 0, "directory needs at least one home tile");
        DirectoryModel { cfg, params }
    }
}

impl MemoryModel for DirectoryModel {
    fn name(&self) -> &'static str {
        "directory"
    }

    fn run_observed(&self, trace: &Trace, sink: &mut dyn Sink) -> MemoryOutcome {
        let line_size = self.cfg.coherence.line_size;
        let word = self.cfg.coherence.word_bytes as u64;
        let pricer = Pricer::new(&self.cfg);
        let mut lines = LineTable::new();
        let mut stats = TrafficStats::default();
        let mut unicast_bytes = 0u64;
        let mut acc = RunAcc::new(self.cfg.n_procs, sink);

        for r in trace.refs() {
            assert!(r.proc < 64, "bitmask directory supports up to 64 processors");
            acc.count(r);
            let line_addr = r.addr / line_size;
            let home = line_addr % self.params.home_tiles;
            let st = lines.entry(line_addr);
            let pbit = 1u64 << r.proc;
            let line_bytes = line_size as u64;
            // Bytes this access moves (data) and transports (invals).
            let mut moved = 0u64;
            let mut invals = 0u64;

            match r.kind {
                RefKind::Read => {
                    if st.holders & pbit != 0 {
                        continue; // hit in the private cache
                    }
                    // Read miss: home supplies the line (a dirty owner
                    // writes back through the home in passing).
                    stats.line_fetches += 1;
                    stats.total_bytes += line_bytes;
                    st.dirty = None;
                    if st.invalidated & pbit != 0 {
                        st.invalidated &= !pbit;
                        stats.refetches += 1;
                        stats.write_caused_bytes += line_bytes;
                    } else {
                        stats.read_caused_bytes += line_bytes;
                    }
                    st.holders |= pbit;
                    moved = line_bytes;
                }
                RefKind::Write => {
                    if st.dirty == Some(r.proc) {
                        continue; // exclusive dirty hit
                    }
                    if st.holders & pbit == 0 {
                        stats.line_fetches += 1;
                        stats.total_bytes += line_bytes;
                        stats.write_caused_bytes += line_bytes;
                        if st.invalidated & pbit != 0 {
                            st.invalidated &= !pbit;
                            stats.refetches += 1;
                        }
                        st.holders |= pbit;
                        moved += line_bytes;
                    }
                    // Ownership request to the home: one word announces
                    // the write; the home unicasts an invalidation word
                    // to each *actual* holder (no broadcast).
                    stats.word_writes += 1;
                    stats.total_bytes += word;
                    stats.write_caused_bytes += word;
                    let others = st.holders & !pbit;
                    stats.invalidations += others.count_ones() as u64;
                    st.invalidated |= others;
                    st.holders = pbit;
                    st.dirty = Some(r.proc);
                    moved += word;
                    invals = others.count_ones() as u64 * word;
                    unicast_bytes += invals;
                }
            }
            let arrive = r.time + pricer.flight_ns(r.proc, home);
            acc.request(home, r, moved + invals, arrive, pricer.service_ns(moved + invals));
        }
        acc.finish(self.name(), stats, unicast_bytes)
    }
}

/// The `dls` backend: a directoryless shared LLC. Shared lines are never
/// privately cached — every reference is a word transfer to the line's
/// address-interleaved home tile. No private copies means no
/// invalidations and no refetches, and total traffic that does not
/// depend on the line size.
pub struct DlsModel {
    cfg: MemoryConfig,
    params: DlsParams,
}

impl DlsModel {
    /// A DLS backend over `cfg` with the given tile interleaving.
    pub fn new(cfg: MemoryConfig, params: DlsParams) -> Self {
        assert!(params.interleave_lines > 0, "interleave granularity must be nonzero");
        DlsModel { cfg, params }
    }
}

impl MemoryModel for DlsModel {
    fn name(&self) -> &'static str {
        "dls"
    }

    fn run_observed(&self, trace: &Trace, sink: &mut dyn Sink) -> MemoryOutcome {
        let line_size = self.cfg.coherence.line_size;
        let word = self.cfg.coherence.word_bytes as u64;
        let tiles = self.cfg.n_procs.max(1);
        let pricer = Pricer::new(&self.cfg);
        let mut stats = TrafficStats::default();
        let mut acc = RunAcc::new(self.cfg.n_procs, sink);

        for r in trace.refs() {
            acc.count(r);
            let line_addr = r.addr / line_size;
            let home = (line_addr / self.params.interleave_lines) % tiles;
            stats.total_bytes += word;
            match r.kind {
                RefKind::Read => stats.read_caused_bytes += word,
                RefKind::Write => {
                    stats.write_caused_bytes += word;
                    stats.word_writes += 1;
                }
            }
            let arrive = r.time + pricer.flight_ns(r.proc, home);
            acc.request(home, r, word, arrive, pricer.service_ns(word));
        }
        acc.finish(self.name(), stats, 0)
    }
}

/// Builds the backend that services `cfg.coherence.protocol` — the
/// canonical constructor when the protocol variant (with its params) is
/// already known.
pub fn model_for_config(cfg: MemoryConfig) -> Box<dyn MemoryModel> {
    match cfg.coherence.protocol {
        Protocol::WriteBackInvalidate => Box::new(BusModel::new(cfg, false)),
        Protocol::WriteThrough => Box::new(BusModel::new(cfg, true)),
        Protocol::Directory(params) => Box::new(DirectoryModel::new(cfg, params)),
        Protocol::DirectorylessLlc(params) => Box::new(DlsModel::new(cfg, params)),
    }
}

/// One registered backend.
pub struct MemoryModelEntry {
    /// CLI/report name.
    pub name: &'static str,
    /// One-line description for `--memory help` listings.
    pub summary: &'static str,
    /// Constructor: adjusts `cfg`'s protocol variant (defaulting params
    /// from the config when the variant doesn't already match) and builds.
    pub build: fn(MemoryConfig) -> Box<dyn MemoryModel>,
}

fn build_bus_wbi(cfg: MemoryConfig) -> Box<dyn MemoryModel> {
    model_for_config(cfg.with_protocol(Protocol::WriteBackInvalidate))
}

fn build_bus_wt(cfg: MemoryConfig) -> Box<dyn MemoryModel> {
    model_for_config(cfg.with_protocol(Protocol::WriteThrough))
}

fn build_directory(cfg: MemoryConfig) -> Box<dyn MemoryModel> {
    let params = match cfg.coherence.protocol {
        Protocol::Directory(p) => p,
        _ => DirectoryParams::per_tile(cfg.n_procs),
    };
    model_for_config(cfg.with_protocol(Protocol::Directory(params)))
}

fn build_dls(cfg: MemoryConfig) -> Box<dyn MemoryModel> {
    let params = match cfg.coherence.protocol {
        Protocol::DirectorylessLlc(p) => p,
        _ => DlsParams::default(),
    };
    model_for_config(cfg.with_protocol(Protocol::DirectorylessLlc(params)))
}

static MEMORY_MODELS: [MemoryModelEntry; 4] = [
    MemoryModelEntry {
        name: "bus-wbi",
        summary: "snooped Write-Back-with-Invalidate bus (the paper's Table 3 memory system)",
        build: build_bus_wbi,
    },
    MemoryModelEntry {
        name: "bus-wt",
        summary: "snooped write-through bus (Archibald & Baer ablation; every write on the bus)",
        build: build_bus_wt,
    },
    MemoryModelEntry {
        name: "directory",
        summary: "directory-based MSI: home-node line state, unicast invalidations over the mesh",
        build: build_directory,
    },
    MemoryModelEntry {
        name: "dls",
        summary: "directoryless shared LLC: no private caching, word transfers to home tiles",
        build: build_dls,
    },
];

/// All registered backends, in presentation order.
pub fn memory_registry() -> &'static [MemoryModelEntry] {
    &MEMORY_MODELS
}

/// Builds the backend registered as `name`, or an error listing the
/// known names.
pub fn build_memory_model(name: &str, cfg: MemoryConfig) -> Result<Box<dyn MemoryModel>, String> {
    match MEMORY_MODELS.iter().find(|e| e.name == name) {
        Some(entry) => Ok((entry.build)(cfg)),
        None => {
            let known: Vec<&str> = MEMORY_MODELS.iter().map(|e| e.name).collect();
            Err(format!("unknown memory backend `{name}` (known: {})", known.join(", ")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Criticality;

    /// A churny multi-processor trace with tagged criticality: every
    /// processor sweeps reads over a shared region (background) and the
    /// round's winner commits a few stores (critical).
    fn churn_trace(n_procs: u32) -> Trace {
        let mut t = Trace::new();
        let mut time = 0u64;
        for round in 0..20u32 {
            for p in 0..n_procs {
                for cell in 0..24u32 {
                    t.push(MemRef::new(time + (cell as u64) * 7, p, cell * 2, RefKind::Read));
                }
            }
            time += 24 * 7;
            for i in 0..5u32 {
                t.push(
                    MemRef::new(time, round % n_procs, ((round * 5 + i) % 24) * 2, RefKind::Write)
                        .with_delta(1)
                        .with_criticality(Criticality::Critical),
                );
                time += 3;
            }
        }
        t.sort_by_time();
        t
    }

    #[test]
    fn bus_wbi_is_byte_identical_to_coherence_sim() {
        let t = churn_trace(4);
        for line in [4u32, 8, 32] {
            let legacy = CoherenceSim::new(CoherenceConfig::with_line_size(line)).run(&t);
            let out = BusModel::new(MemoryConfig::paper(4, line), false).run(&t);
            assert_eq!(out.stats, legacy, "line {line}");
        }
    }

    #[test]
    fn bus_wt_is_byte_identical_to_coherence_sim_write_through() {
        let t = churn_trace(4);
        let legacy = CoherenceSim::new(CoherenceConfig::with_line_size(8).write_through()).run(&t);
        let out = BusModel::new(MemoryConfig::paper(4, 8), true).run(&t);
        assert_eq!(out.stats, legacy);
    }

    #[test]
    fn directory_data_traffic_matches_bus_wbi() {
        // Same WBI line semantics, different transport: the protocol data
        // traffic must agree; only invalidation transport differs.
        let t = churn_trace(4);
        let cfg = MemoryConfig::paper(4, 8);
        let bus = build_memory_model("bus-wbi", cfg).expect("registered").run(&t);
        let dir = build_memory_model("directory", cfg).expect("registered").run(&t);
        assert_eq!(dir.stats, bus.stats);
        assert!(dir.invalidation_traffic_bytes <= bus.invalidation_traffic_bytes);
    }

    #[test]
    fn directory_unicast_beats_broadcast_with_few_sharers() {
        // One writer, one reader, 16 processors: bus broadcast pays 15
        // snoops per announcement, the directory pays one unicast.
        let mut t = Trace::new();
        for i in 0..40u64 {
            t.push(MemRef::new(3 * i, 0, 0, RefKind::Write));
            t.push(MemRef::new(3 * i + 1, 1, 0, RefKind::Read));
        }
        let cfg = MemoryConfig::paper(16, 8);
        let bus = build_memory_model("bus-wbi", cfg).expect("registered").run(&t);
        let dir = build_memory_model("directory", cfg).expect("registered").run(&t);
        assert!(dir.invalidation_traffic_bytes < bus.invalidation_traffic_bytes / 8);
    }

    #[test]
    fn dls_has_no_coherence_traffic_and_ignores_line_size() {
        let t = churn_trace(4);
        let a = build_memory_model("dls", MemoryConfig::paper(4, 4)).expect("registered").run(&t);
        let b = build_memory_model("dls", MemoryConfig::paper(4, 32)).expect("registered").run(&t);
        assert_eq!(a.coherence_events(), 0);
        assert_eq!(a.invalidation_traffic_bytes, 0);
        assert_eq!(a.stats.total_bytes, b.stats.total_bytes, "DLS is line-size insensitive");
        assert_eq!(a.stats.total_bytes, (t.len() as u64) * 4);
    }

    #[test]
    fn per_proc_counts_agree_across_backends() {
        let t = churn_trace(4);
        let cfg = MemoryConfig::paper(4, 8);
        let outs: Vec<MemoryOutcome> =
            memory_registry().iter().map(|e| (e.build)(cfg).run(&t)).collect();
        for pair in outs.windows(2) {
            assert_eq!(
                pair[0].per_proc, pair[1].per_proc,
                "{} vs {}",
                pair[0].backend, pair[1].backend
            );
        }
        let total: u64 = outs[0].per_proc.iter().map(|c| c.reads + c.writes).sum();
        assert_eq!(total, t.len() as u64);
    }

    #[test]
    fn critical_first_reduces_critical_wait_under_churn() {
        let t = churn_trace(8);
        for name in ["bus-wbi", "directory", "dls"] {
            let out =
                build_memory_model(name, MemoryConfig::paper(8, 8)).expect("registered").run(&t);
            assert!(out.fifo.critical.requests > 0, "{name}: no critical requests priced");
            assert!(
                out.critical_first.critical.total_wait_ns <= out.fifo.critical.total_wait_ns,
                "{name}: priority must not increase critical wait"
            );
        }
        // On the contended single bus the reduction must be strict.
        let bus =
            build_memory_model("bus-wbi", MemoryConfig::paper(8, 8)).expect("registered").run(&t);
        assert!(
            bus.critical_wait_saved_ns() > 0,
            "bus churn must show a FIFO-vs-priority gap (fifo {} ns)",
            bus.fifo.critical.total_wait_ns
        );
    }

    #[test]
    fn model_for_config_dispatches_on_protocol_variant() {
        let cfg = MemoryConfig::paper(4, 8);
        assert_eq!(model_for_config(cfg).name(), "bus-wbi");
        assert_eq!(model_for_config(cfg.with_protocol(Protocol::WriteThrough)).name(), "bus-wt");
        let dir = cfg.with_protocol(Protocol::Directory(DirectoryParams::per_tile(4)));
        assert_eq!(model_for_config(dir).name(), "directory");
        let dls = cfg.with_protocol(Protocol::DirectorylessLlc(DlsParams::default()));
        assert_eq!(model_for_config(dls).name(), "dls");
    }

    #[test]
    fn registry_rejects_unknown_names() {
        let err = build_memory_model("mesi-torus", MemoryConfig::default())
            .err()
            .expect("must be unknown");
        assert!(err.contains("bus-wbi") && err.contains("dls"), "{err}");
    }

    #[test]
    fn observed_run_streams_mem_requests() {
        use locus_obs::{names, SharedSink};
        let t = churn_trace(4);
        let sink = SharedSink::new();
        let out = build_memory_model("directory", MemoryConfig::paper(4, 8))
            .expect("registered")
            .run_observed(&t, &mut sink.clone());
        let m = sink.metrics_snapshot();
        assert_eq!(m.counter(names::MEM_REQUESTS), out.fifo.all().requests);
        assert_eq!(m.counter(names::MEM_CRITICAL_REQUESTS), out.fifo.critical.requests);
    }
}

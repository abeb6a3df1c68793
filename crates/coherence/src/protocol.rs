//! The Write-Back-with-Invalidate protocol state machine and bus-byte
//! accounting.

use locus_mesh::PagedTable;
use locus_obs::{Event as ObsEvent, EventKind as ObsKind, NullSink, Sink};

use crate::trace::{RefKind, Trace};

/// Parameters of the directory-based MSI backend: line state lives at an
/// address-interleaved *home node* which unicasts invalidations to the
/// actual holders instead of broadcasting on a snooped bus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirectoryParams {
    /// Number of home nodes the directory is interleaved over; home `h`
    /// lives on mesh node `h % n_nodes`. Usually the processor count
    /// (one directory slice per tile).
    pub home_tiles: u32,
}

impl DirectoryParams {
    /// One directory slice per processor tile.
    pub fn per_tile(n_procs: u32) -> Self {
        assert!(n_procs > 0, "directory needs at least one home tile");
        DirectoryParams { home_tiles: n_procs }
    }
}

impl Default for DirectoryParams {
    fn default() -> Self {
        DirectoryParams::per_tile(16)
    }
}

/// Parameters of the DLS-style directoryless shared LLC (arXiv:1206.4753):
/// shared data is never privately cached — every access goes to the
/// line's address-interleaved home tile, so no invalidations or refetches
/// ever happen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DlsParams {
    /// Consecutive lines mapped to the same home tile before the
    /// interleaving moves to the next (1 = line-granular interleaving).
    pub interleave_lines: u32,
}

impl Default for DlsParams {
    fn default() -> Self {
        DlsParams { interleave_lines: 1 }
    }
}

/// The coherence protocol family to simulate. Backend-specific knobs
/// travel inside the variant, so adding a backend never grows unrelated
/// flat fields on [`CoherenceConfig`].
///
/// The paper evaluates Write-Back-with-Invalidate (citing Archibald &
/// Baer's comparative study); the write-through variant is provided as an
/// ablation — it is the other classic point in that study's design space
/// and shows why write-back was the sensible choice for this workload.
/// The directory and DLS variants are serviced by the [`crate::model`]
/// registry, not by the bus simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Protocol {
    /// Write-Back with Invalidate: first write to a clean line announces
    /// itself with one bus word and invalidates other copies; subsequent
    /// writes to the now-dirty line are free.
    #[default]
    WriteBackInvalidate,
    /// Write-through: *every* write puts a word on the bus and
    /// invalidates other copies; lines are never dirty.
    WriteThrough,
    /// Directory-based MSI: WBI line semantics, but invalidations are
    /// unicast from the line's home node to the actual holders.
    Directory(DirectoryParams),
    /// Directoryless shared LLC: no private copies of shared lines, every
    /// access is a word transfer to the line's home tile.
    DirectorylessLlc(DlsParams),
}

impl Protocol {
    /// Whether the protocol runs on the snooped bus simulator
    /// ([`CoherenceSim`]); the other variants need the mesh-priced
    /// backends in [`crate::model`].
    pub fn is_bus(&self) -> bool {
        matches!(self, Protocol::WriteBackInvalidate | Protocol::WriteThrough)
    }

    /// The registry name of the backend that services this protocol.
    pub fn backend_name(&self) -> &'static str {
        match self {
            Protocol::WriteBackInvalidate => "bus-wbi",
            Protocol::WriteThrough => "bus-wt",
            Protocol::Directory(_) => "directory",
            Protocol::DirectorylessLlc(_) => "dls",
        }
    }
}

/// Protocol parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoherenceConfig {
    /// Cache line size in bytes (Table 3 sweeps 4, 8, 16, 32).
    pub line_size: u32,
    /// Size of the bus word write used to announce writes.
    pub word_bytes: u32,
    /// Protocol family.
    pub protocol: Protocol,
}

impl CoherenceConfig {
    /// Write-Back-with-Invalidate with the given line size and 4-byte bus
    /// words — the paper's configuration.
    pub fn with_line_size(line_size: u32) -> Self {
        assert!(line_size.is_power_of_two(), "line size must be a power of two");
        CoherenceConfig { line_size, word_bytes: 4, protocol: Protocol::WriteBackInvalidate }
    }

    /// Switches to the write-through ablation protocol.
    pub fn write_through(mut self) -> Self {
        self.protocol = Protocol::WriteThrough;
        self
    }

    /// Switches to the directory-based MSI protocol.
    pub fn directory(mut self, params: DirectoryParams) -> Self {
        self.protocol = Protocol::Directory(params);
        self
    }

    /// Switches to the directoryless shared-LLC protocol.
    pub fn dls(mut self, params: DlsParams) -> Self {
        self.protocol = Protocol::DirectorylessLlc(params);
        self
    }
}

impl Default for CoherenceConfig {
    fn default() -> Self {
        CoherenceConfig::with_line_size(8)
    }
}

/// Bus traffic measured over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// All bytes moved on the shared bus.
    pub total_bytes: u64,
    /// Bytes attributable to reads (cold fetches by read accesses).
    pub read_caused_bytes: u64,
    /// Bytes attributable to writes: bus word writes, write-miss fetches,
    /// and refetches of invalidated lines (§5.2's ">80% of the bytes
    /// transferred are caused by writes").
    pub write_caused_bytes: u64,
    /// Whole-line transfers.
    pub line_fetches: u64,
    /// Bus word writes (first write to a clean line).
    pub word_writes: u64,
    /// Cache-line invalidations performed in other caches.
    pub invalidations: u64,
    /// Line fetches that re-load a previously invalidated copy.
    pub refetches: u64,
}

impl TrafficStats {
    /// Traffic in megabytes (10^6 bytes), as the tables report.
    pub fn mbytes(&self) -> f64 {
        self.total_bytes as f64 / 1e6
    }

    /// Fraction of bytes caused by writes.
    pub fn write_fraction(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.write_caused_bytes as f64 / self.total_bytes as f64
        }
    }
}

/// Per-line coherence state, kept by the snooped bus ([`CoherenceSim`])
/// and by the directory backend alike. Caches are infinite, so presence
/// bits are never evicted.
#[derive(Clone, Copy, Default)]
pub(crate) struct LineState {
    /// Bitmask of processors holding a valid copy.
    pub(crate) holders: u64,
    /// Processor holding the line dirty (exclusive), if any.
    pub(crate) dirty: Option<u32>,
    /// Processors whose copy was invalidated and not yet refetched.
    pub(crate) invalidated: u64,
}

/// Line state indexed by line address (`addr / line_size`). Addresses
/// are dense cost-array offsets, so lookups are array indexing; a stray
/// address near `u32::MAX` costs one page and the page directory.
pub(crate) type LineTable = PagedTable<LineState>;

/// The coherence simulator: infinite per-processor caches over a shared
/// bus, Write-Back-with-Invalidate.
pub struct CoherenceSim {
    config: CoherenceConfig,
    lines: LineTable,
    stats: TrafficStats,
    sink: Box<dyn Sink>,
    obs_on: bool,
    /// Timestamp for emitted events: the current reference's trace time
    /// when driven by [`CoherenceSim::run`], else an access counter.
    tick: u64,
}

impl CoherenceSim {
    /// Creates a simulator.
    ///
    /// # Panics
    /// Panics if `config.protocol` is not a bus protocol — the directory
    /// and DLS variants are serviced by [`crate::model::model_for_config`].
    pub fn new(config: CoherenceConfig) -> Self {
        assert!(
            config.protocol.is_bus(),
            "CoherenceSim only simulates bus protocols; build `{}` via the model registry",
            config.protocol.backend_name()
        );
        CoherenceSim {
            config,
            lines: LineTable::new(),
            stats: TrafficStats::default(),
            sink: Box::new(NullSink),
            obs_on: false,
            tick: 0,
        }
    }

    /// Routes protocol events (cache misses, invalidations, bus
    /// transfers) into `sink`, stamped with trace reference times.
    pub fn with_sink(mut self, sink: Box<dyn Sink>) -> Self {
        self.obs_on = sink.enabled();
        self.sink = sink;
        self
    }

    /// Processes a single reference.
    pub fn access(&mut self, proc: u32, addr: u32, kind: RefKind) {
        assert!(proc < 64, "bitmask directory supports up to 64 processors");
        let line_addr = addr / self.config.line_size;
        let st = self.lines.entry(line_addr);
        let pbit = 1u64 << proc;
        let line_bytes = self.config.line_size as u64;

        match kind {
            RefKind::Read => {
                if st.holders & pbit != 0 {
                    return; // hit (dirty-by-us implies holder bit set too)
                }
                // Miss: fetch the line; a dirty owner supplies it and the
                // line becomes shared-clean (memory updated in passing).
                self.stats.line_fetches += 1;
                self.stats.total_bytes += line_bytes;
                if self.obs_on {
                    self.sink.record(ObsEvent {
                        at_ns: self.tick,
                        node: proc,
                        kind: ObsKind::CacheMiss { addr, line_bytes: self.config.line_size },
                    });
                    self.sink.record(ObsEvent {
                        at_ns: self.tick,
                        node: proc,
                        kind: ObsKind::BusTransfer { bytes: self.config.line_size },
                    });
                }
                st.dirty = None;
                if st.invalidated & pbit != 0 {
                    st.invalidated &= !pbit;
                    self.stats.refetches += 1;
                    self.stats.write_caused_bytes += line_bytes;
                } else {
                    self.stats.read_caused_bytes += line_bytes;
                }
                st.holders |= pbit;
            }
            RefKind::Write => {
                if self.config.protocol == Protocol::WriteThrough {
                    // Every write goes to memory: one bus word, and any
                    // other copy is invalidated. The writer keeps (or
                    // gains) a clean copy; nothing is ever dirty.
                    if st.holders & pbit == 0 {
                        self.stats.line_fetches += 1;
                        self.stats.total_bytes += line_bytes;
                        self.stats.write_caused_bytes += line_bytes;
                        if st.invalidated & pbit != 0 {
                            st.invalidated &= !pbit;
                            self.stats.refetches += 1;
                        }
                        if self.obs_on {
                            self.sink.record(ObsEvent {
                                at_ns: self.tick,
                                node: proc,
                                kind: ObsKind::CacheMiss {
                                    addr,
                                    line_bytes: self.config.line_size,
                                },
                            });
                            self.sink.record(ObsEvent {
                                at_ns: self.tick,
                                node: proc,
                                kind: ObsKind::BusTransfer { bytes: self.config.line_size },
                            });
                        }
                    }
                    self.stats.word_writes += 1;
                    self.stats.total_bytes += self.config.word_bytes as u64;
                    self.stats.write_caused_bytes += self.config.word_bytes as u64;
                    let others = st.holders & !pbit;
                    self.stats.invalidations += others.count_ones() as u64;
                    if self.obs_on {
                        self.sink.record(ObsEvent {
                            at_ns: self.tick,
                            node: proc,
                            kind: ObsKind::BusTransfer { bytes: self.config.word_bytes },
                        });
                        if others != 0 {
                            self.sink.record(ObsEvent {
                                at_ns: self.tick,
                                node: proc,
                                kind: ObsKind::Invalidation { addr, copies: others.count_ones() },
                            });
                        }
                    }
                    st.invalidated |= others;
                    st.holders = pbit;
                    st.dirty = None;
                    return;
                }
                if st.dirty == Some(proc) {
                    return; // exclusive dirty hit: pure cache write
                }
                if st.holders & pbit == 0 {
                    // Write miss: fetch the line first.
                    self.stats.line_fetches += 1;
                    self.stats.total_bytes += line_bytes;
                    self.stats.write_caused_bytes += line_bytes;
                    if st.invalidated & pbit != 0 {
                        st.invalidated &= !pbit;
                        self.stats.refetches += 1;
                    }
                    st.holders |= pbit;
                    if self.obs_on {
                        self.sink.record(ObsEvent {
                            at_ns: self.tick,
                            node: proc,
                            kind: ObsKind::CacheMiss { addr, line_bytes: self.config.line_size },
                        });
                        self.sink.record(ObsEvent {
                            at_ns: self.tick,
                            node: proc,
                            kind: ObsKind::BusTransfer { bytes: self.config.line_size },
                        });
                    }
                }
                // First write to a clean copy: bus word write announces it
                // and every other copy is invalidated.
                self.stats.word_writes += 1;
                self.stats.total_bytes += self.config.word_bytes as u64;
                self.stats.write_caused_bytes += self.config.word_bytes as u64;
                let others = st.holders & !pbit;
                self.stats.invalidations += others.count_ones() as u64;
                if self.obs_on {
                    self.sink.record(ObsEvent {
                        at_ns: self.tick,
                        node: proc,
                        kind: ObsKind::BusTransfer { bytes: self.config.word_bytes },
                    });
                    if others != 0 {
                        self.sink.record(ObsEvent {
                            at_ns: self.tick,
                            node: proc,
                            kind: ObsKind::Invalidation { addr, copies: others.count_ones() },
                        });
                    }
                }
                st.invalidated |= others;
                st.holders = pbit;
                st.dirty = Some(proc);
            }
        }
    }

    /// Processes an entire trace and returns the accumulated statistics.
    pub fn run(mut self, trace: &Trace) -> TrafficStats {
        debug_assert!(trace.is_sorted(), "trace must be time-ordered");
        for r in trace.refs() {
            self.tick = r.time;
            self.access(r.proc, r.addr, r.kind);
        }
        self.stats
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MemRef;

    fn sim(line: u32) -> CoherenceSim {
        CoherenceSim::new(CoherenceConfig::with_line_size(line))
    }

    #[test]
    fn cold_read_fetches_once() {
        let mut s = sim(8);
        s.access(0, 0, RefKind::Read);
        s.access(0, 4, RefKind::Read); // same 8-byte line: hit
        assert_eq!(s.stats().line_fetches, 1);
        assert_eq!(s.stats().total_bytes, 8);
        assert_eq!(s.stats().read_caused_bytes, 8);
    }

    #[test]
    fn write_hit_on_clean_costs_one_word() {
        let mut s = sim(8);
        s.access(0, 0, RefKind::Read); // fetch
        s.access(0, 0, RefKind::Write); // word write, now dirty
        s.access(0, 4, RefKind::Write); // dirty hit: free
        assert_eq!(s.stats().word_writes, 1);
        assert_eq!(s.stats().total_bytes, 8 + 4);
    }

    #[test]
    fn cold_write_fetches_line_and_writes_word() {
        let mut s = sim(8);
        s.access(0, 0, RefKind::Write);
        assert_eq!(s.stats().line_fetches, 1);
        assert_eq!(s.stats().word_writes, 1);
        assert_eq!(s.stats().total_bytes, 8 + 4);
        assert_eq!(s.stats().write_caused_bytes, 12);
        assert_eq!(s.stats().read_caused_bytes, 0);
    }

    #[test]
    fn write_invalidates_other_copies_and_forces_refetch() {
        let mut s = sim(8);
        s.access(0, 0, RefKind::Read);
        s.access(1, 0, RefKind::Read);
        s.access(0, 0, RefKind::Write); // invalidates proc 1
        assert_eq!(s.stats().invalidations, 1);
        let before = s.stats().total_bytes;
        s.access(1, 0, RefKind::Read); // refetch
        assert_eq!(s.stats().refetches, 1);
        assert_eq!(s.stats().total_bytes, before + 8);
        // The refetch is write-caused.
        assert_eq!(s.stats().write_caused_bytes, 4 + 8);
    }

    #[test]
    fn dirty_line_read_by_other_becomes_shared() {
        let mut s = sim(8);
        s.access(0, 0, RefKind::Write); // proc 0 dirty
        s.access(1, 0, RefKind::Read); // supplied, both clean
        let bytes = s.stats().total_bytes;
        // Proc 0 writing again must now pay the word write again.
        s.access(0, 0, RefKind::Write);
        assert_eq!(s.stats().total_bytes, bytes + 4);
        assert_eq!(s.stats().invalidations, 1, "proc 1's copy invalidated");
    }

    #[test]
    fn ping_pong_writes_generate_per_iteration_traffic() {
        let mut s = sim(8);
        s.access(0, 0, RefKind::Write);
        s.access(1, 0, RefKind::Write);
        s.access(0, 0, RefKind::Write);
        s.access(1, 0, RefKind::Write);
        // Every ownership transfer refetches the line and word-writes.
        assert_eq!(s.stats().word_writes, 4);
        assert_eq!(s.stats().line_fetches, 4);
        assert_eq!(s.stats().refetches, 2);
    }

    #[test]
    fn false_sharing_grows_with_line_size() {
        // Proc 0 writes addr 0; proc 1 reads addr 28 repeatedly. With
        // 4-byte lines they never interact; with 32-byte lines every
        // write invalidates proc 1's copy.
        let make_trace = || -> Trace {
            let mut t = Trace::new();
            for i in 0..50u64 {
                t.push(MemRef::new(2 * i, 0, 0, RefKind::Write));
                t.push(MemRef::new(2 * i + 1, 1, 28, RefKind::Read));
            }
            t
        };
        let small = CoherenceSim::new(CoherenceConfig::with_line_size(4)).run(&make_trace());
        let large = CoherenceSim::new(CoherenceConfig::with_line_size(32)).run(&make_trace());
        assert!(
            large.total_bytes > 4 * small.total_bytes,
            "false sharing must inflate traffic: {} vs {}",
            large.total_bytes,
            small.total_bytes
        );
        assert!(large.refetches > 0);
        assert_eq!(small.refetches, 0);
    }

    #[test]
    fn write_fraction_reflects_churn() {
        let mut t = Trace::new();
        // One cold read, then a long write ping-pong.
        t.push(MemRef::new(0, 0, 0, RefKind::Read));
        for i in 0..100u64 {
            t.push(MemRef::new(i + 1, (i % 2) as u32, 0, RefKind::Write));
        }
        let stats = CoherenceSim::new(CoherenceConfig::with_line_size(8)).run(&t);
        assert!(stats.write_fraction() > 0.8, "churn trace must be write-dominated");
    }

    #[test]
    fn sink_counters_cross_check_traffic_stats() {
        use locus_obs::{names, SharedSink};
        let mut t = Trace::new();
        for i in 0..200u64 {
            t.push(MemRef::new(
                i,
                (i % 4) as u32,
                ((i * 7) % 96) as u32,
                if i % 3 == 0 { RefKind::Read } else { RefKind::Write },
            ));
        }
        for wt in [false, true] {
            let mut cfg = CoherenceConfig::with_line_size(8);
            if wt {
                cfg = cfg.write_through();
            }
            let sink = SharedSink::new();
            let stats = CoherenceSim::new(cfg).with_sink(Box::new(sink.clone())).run(&t);
            let m = sink.metrics_snapshot();
            assert_eq!(m.counter(names::BUS_BYTES), stats.total_bytes, "wt={wt}");
            assert_eq!(m.counter(names::CACHE_MISSES), stats.line_fetches, "wt={wt}");
            assert_eq!(m.counter(names::INVALIDATIONS), stats.invalidations, "wt={wt}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_lines() {
        let _ = CoherenceConfig::with_line_size(12);
    }

    #[test]
    fn write_through_pays_per_write() {
        let mut s = CoherenceSim::new(CoherenceConfig::with_line_size(8).write_through());
        s.access(0, 0, RefKind::Write); // fetch + word
        s.access(0, 0, RefKind::Write); // word (no dirty state exists)
        s.access(0, 4, RefKind::Write); // word
        assert_eq!(s.stats().word_writes, 3);
        assert_eq!(s.stats().line_fetches, 1);
        assert_eq!(s.stats().total_bytes, 8 + 3 * 4);
    }

    #[test]
    fn write_through_invalidates_and_forces_refetch() {
        let mut s = CoherenceSim::new(CoherenceConfig::with_line_size(8).write_through());
        s.access(1, 0, RefKind::Read);
        s.access(0, 0, RefKind::Write);
        assert_eq!(s.stats().invalidations, 1);
        s.access(1, 0, RefKind::Read);
        assert_eq!(s.stats().refetches, 1);
    }

    #[test]
    fn write_through_never_cheaper_than_write_back_on_write_heavy_traces() {
        let mut t = Trace::new();
        for i in 0..200u64 {
            t.push(MemRef::new(
                i,
                (i % 4) as u32,
                ((i * 3) % 64) as u32 * 2,
                if i % 3 == 0 { RefKind::Read } else { RefKind::Write },
            ));
        }
        for line in [4u32, 8, 32] {
            let wb = CoherenceSim::new(CoherenceConfig::with_line_size(line)).run(&t);
            let wt =
                CoherenceSim::new(CoherenceConfig::with_line_size(line).write_through()).run(&t);
            assert!(
                wt.total_bytes >= wb.total_bytes,
                "line {line}: WT {} < WB {}",
                wt.total_bytes,
                wb.total_bytes
            );
            assert!(wt.word_writes >= wb.word_writes);
        }
    }
}

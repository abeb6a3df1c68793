//! Addresses from outside the cost array must not blow up the line-state
//! tables: a reference near `u32::MAX` allocates one page and its share
//! of the page directory, never a table spanning the address space.
//! Processor ids ≥ 64 still fail with the bitmask's panic message.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use locus_coherence::{
    build_memory_model, memory_registry, CoherenceConfig, CoherenceSim, MemRef, MemoryConfig,
    RefKind, Trace,
};

/// Counts live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Serializes the measured tests: the counters are process-wide.
static MEASURE: Mutex<()> = Mutex::new(());

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics and never
// influence an allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap bytes `f` holds at its peak, beyond what was live before it ran.
fn peak_extra_bytes(f: impl FnOnce()) -> usize {
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - base
}

/// The largest key's page directory (2 MB of page pointers at 4-byte
/// lines, 8 MB over the whole `u32` range) plus pages and logs.
const BUDGET_BYTES: usize = 12 << 20;

#[test]
fn bus_write_at_u32_max_stays_within_a_few_pages() {
    let mut stats = None;
    let extra = peak_extra_bytes(|| {
        let mut sim = CoherenceSim::new(CoherenceConfig::with_line_size(4));
        sim.access(0, u32::MAX, RefKind::Write);
        sim.access(1, u32::MAX, RefKind::Read);
        sim.access(1, u32::MAX - 4, RefKind::Write);
        stats = Some(*sim.stats());
    });
    assert!(extra < BUDGET_BYTES, "allocated {extra} bytes");
    let stats = stats.expect("ran");
    assert_eq!(stats.line_fetches, 3);
    assert_eq!(stats.word_writes, 2);
    assert_eq!(stats.invalidations, 0, "different 4-byte lines never invalidate each other");
}

fn near_top_trace() -> Trace {
    let mut t = Trace::new();
    for i in 0..400u32 {
        let addr = u32::MAX - (i % 40) * 2;
        let kind = if i % 3 == 0 { RefKind::Write } else { RefKind::Read };
        t.push(MemRef::new(u64::from(i) * 5, i % 4, addr, kind));
    }
    t
}

#[test]
fn directory_replay_near_u32_max_stays_within_a_few_pages() {
    let trace = near_top_trace();
    for line in [4u32, 8, 32] {
        let cfg = MemoryConfig::paper(4, line);
        let mut outs = None;
        let extra = peak_extra_bytes(|| {
            let dir = build_memory_model("directory", cfg).expect("registered").run(&trace);
            let bus = build_memory_model("bus-wbi", cfg).expect("registered").run(&trace);
            outs = Some((dir, bus));
        });
        assert!(extra < BUDGET_BYTES, "line {line}: allocated {extra} bytes");
        let (dir, bus) = outs.expect("ran");
        assert_eq!(dir.stats, bus.stats, "line {line}: same line semantics");
        assert!(dir.coherence_events() > 0, "line {line}: writers and readers share lines");
        assert_eq!(dir.fifo.all().requests, dir.critical_first.all().requests);
    }
}

#[test]
fn every_backend_replays_addresses_near_u32_max() {
    let trace = near_top_trace();
    for e in memory_registry() {
        let extra = peak_extra_bytes(|| {
            let out = (e.build)(MemoryConfig::paper(4, 4)).run(&trace);
            let refs: u64 = out.per_proc.iter().map(|c| c.reads + c.writes).sum();
            assert_eq!(refs, trace.len() as u64, "{}", e.name);
        });
        assert!(extra < BUDGET_BYTES, "{}: allocated {extra} bytes", e.name);
    }
}

#[test]
#[should_panic(expected = "bitmask directory supports up to 64 processors")]
fn bus_rejects_processor_64() {
    CoherenceSim::new(CoherenceConfig::with_line_size(4)).access(64, 0, RefKind::Read);
}

#[test]
#[should_panic(expected = "bitmask directory supports up to 64 processors")]
fn directory_rejects_processor_64() {
    let mut t = Trace::new();
    t.push(MemRef::new(0, 64, u32::MAX, RefKind::Write));
    let _ = build_memory_model("directory", MemoryConfig::paper(4, 4)).expect("registered").run(&t);
}

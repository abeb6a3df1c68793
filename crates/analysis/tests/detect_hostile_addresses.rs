//! Addresses from anywhere in the `u32` range must not blow up the
//! detector's dense shadow: it interns addresses through a paged table,
//! so a trace spanning the whole range costs the page directory and one
//! page per address touched, never a table indexed by raw address.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use locus_analysis::race::detect;
use locus_coherence::{MemRef, RefKind, Trace};

/// Counts live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

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

/// The page directory over the whole `u32` range (8 MB of page
/// pointers), the half-size directory it grew from, one 16 KB page per
/// distinct address, and the shadow rows. Indexing by raw address would
/// need billions of entries.
const BUDGET_BYTES: usize = 16 << 20;

#[test]
fn detect_over_the_whole_u32_range_stays_within_a_few_pages() {
    // 64 addresses spread evenly from 0 to u32::MAX, touched by four
    // processors in one epoch, reads and writes alternating.
    let step = u32::MAX / 63;
    let trace: Trace = (0..1024u32)
        .map(|i| {
            let addr = (i % 64) * step;
            let kind = if i % 3 == 0 { RefKind::Write } else { RefKind::Read };
            MemRef::new(u64::from(i), (i / 64) % 4, addr, kind)
        })
        .collect();
    assert_eq!(trace.refs().iter().map(|r| r.addr).max(), Some(u32::MAX - u32::MAX % 63));

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let result = detect(&trace);
    let extra = PEAK.load(Ordering::Relaxed) - base;

    assert!(extra < BUDGET_BYTES, "detect allocated {extra} bytes");
    assert_eq!(result.refs, 1024);
    assert_eq!(result.procs, 4);
    assert!(!result.races.is_empty(), "cross-processor writes on shared addresses race");
    assert!(result.races.iter().all(|r| r.addr % step == 0));
}

//! Property tests for [`TraceMerger`]: over any producer that keeps the
//! merger's contract, the merged trace equals a stable time sort of the
//! push sequence — including the order of same-time references across
//! processors, which only the push order decides.

use locus_coherence::{MemRef, RefKind, Trace, TraceMerger};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Drives one random producer: `procs` processors with their own clocks
/// push in random interleaving, stepping their clocks by 0–2 ns so that
/// timestamps tie often, within and across processors. Occasional
/// barriers lift every clock to the latest one. Advances use a random key
/// between the last key and the slowest clock, which no later push can
/// undercut. Returns the merged trace and the stable sort of the pushes.
fn merge_and_sort(procs: usize, seed: u64, ops: usize, advance_every: u32) -> (Trace, Trace) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clocks = vec![0u64; procs];
    let mut merger = TraceMerger::new(procs, 0);
    let mut pushed = Vec::with_capacity(ops);
    let mut last_key = 0;
    for i in 0..ops {
        let draw = rng.random_range(0..1000u32);
        if draw < advance_every {
            let floor = clocks.iter().copied().min().unwrap_or(0);
            last_key = rng.random_range(last_key..=floor);
            merger.advance(last_key);
        } else if draw < advance_every + 5 {
            let top = clocks.iter().copied().max().unwrap_or(0);
            clocks.iter_mut().for_each(|c| *c = top);
        } else {
            let p = rng.random_range(0..procs);
            clocks[p] += rng.random_range(0..3u64);
            // The address numbers the push, so equal traces mean equal order.
            let r = MemRef::new(clocks[p], p as u32, i as u32, RefKind::Read);
            merger.push(r);
            pushed.push(r);
        }
    }
    let mut sorted: Trace = pushed.into_iter().collect();
    sorted.sort_by_time();
    (merger.finish(), sorted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Frequent advances: the emulator's pattern, small releases.
    #[test]
    fn merge_equals_stable_sort_with_frequent_advances(
        procs in 1usize..65,
        seed in any::<u64>(),
        ops in 0usize..3000,
    ) {
        let (merged, sorted) = merge_and_sort(procs, seed, ops, 100);
        prop_assert!(merged.is_sorted());
        prop_assert_eq!(merged, sorted);
    }

    /// Rare advances: long runs, large releases.
    #[test]
    fn merge_equals_stable_sort_with_rare_advances(
        procs in 1usize..65,
        seed in any::<u64>(),
        ops in 0usize..3000,
    ) {
        let (merged, sorted) = merge_and_sort(procs, seed, ops, 2);
        prop_assert_eq!(merged, sorted);
    }

    /// No advance at all: whole runs pushed, merged once by `finish` (the
    /// threaded engine's pattern).
    #[test]
    fn merge_equals_stable_sort_with_finish_only(
        procs in 1usize..65,
        seed in any::<u64>(),
        ops in 0usize..3000,
    ) {
        let (merged, sorted) = merge_and_sort(procs, seed, ops, 0);
        prop_assert_eq!(merged, sorted);
    }
}

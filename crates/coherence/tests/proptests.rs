//! Property-based tests for the WBI coherence model and the registered
//! memory-system backends.

use locus_coherence::{
    build_memory_model, memory_registry, CoherenceConfig, CoherenceSim, Criticality, MemRef,
    MemoryConfig, RefKind, Trace,
};
use proptest::prelude::*;

fn arb_trace(max_procs: u32, max_addr: u32) -> impl Strategy<Value = Trace> {
    let one_ref = (0..max_procs, 0..max_addr, any::<bool>(), 0u32..32, any::<u32>());
    proptest::collection::vec(one_ref, 0..400).prop_map(|refs| {
        refs.into_iter()
            .enumerate()
            .map(|(i, (proc, addr, is_write, draw, wide))| {
                // Word-align addresses like real cost-array accesses. One
                // reference in 32 comes from anywhere in the `u32` range
                // and one in 32 from just below `u32::MAX`, as a corrupt
                // trace would have them.
                let addr = match draw {
                    0 => wide & !1,
                    1 => u32::MAX - 1 - (wide % 4096) * 2,
                    _ => addr * 2,
                };
                MemRef::new(
                    i as u64,
                    proc,
                    addr,
                    if is_write { RefKind::Write } else { RefKind::Read },
                )
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn byte_attribution_is_exhaustive(trace in arb_trace(8, 256), line in 0u32..4) {
        let line_size = 4u32 << line; // 4, 8, 16, 32
        let stats = CoherenceSim::new(CoherenceConfig::with_line_size(line_size)).run(&trace);
        prop_assert_eq!(
            stats.total_bytes,
            stats.read_caused_bytes + stats.write_caused_bytes,
            "every byte is read- or write-caused"
        );
    }

    #[test]
    fn transfer_counts_are_consistent(trace in arb_trace(8, 256), line in 0u32..4) {
        let line_size = 4u32 << line;
        let stats = CoherenceSim::new(CoherenceConfig::with_line_size(line_size)).run(&trace);
        prop_assert_eq!(
            stats.total_bytes,
            stats.line_fetches * line_size as u64 + stats.word_writes * 4
        );
        prop_assert!(stats.refetches <= stats.line_fetches);
        prop_assert!(stats.refetches <= stats.invalidations);
    }

    #[test]
    fn model_is_deterministic(trace in arb_trace(8, 256)) {
        let a = CoherenceSim::new(CoherenceConfig::with_line_size(8)).run(&trace);
        let b = CoherenceSim::new(CoherenceConfig::with_line_size(8)).run(&trace);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn single_processor_never_invalidates(trace in arb_trace(1, 256), line in 0u32..4) {
        let line_size = 4u32 << line;
        let stats = CoherenceSim::new(CoherenceConfig::with_line_size(line_size)).run(&trace);
        prop_assert_eq!(stats.invalidations, 0);
        prop_assert_eq!(stats.refetches, 0);
        // With an infinite cache, one processor fetches each line at most
        // once.
        let distinct_lines = {
            let mut lines: Vec<u32> =
                trace.refs().iter().map(|r| r.addr / line_size).collect();
            lines.sort_unstable();
            lines.dedup();
            lines.len() as u64
        };
        prop_assert!(stats.line_fetches <= distinct_lines);
    }

    #[test]
    fn doubling_line_size_never_increases_fetch_count(trace in arb_trace(8, 256)) {
        // Fetch *count* (not bytes) is monotone non-increasing in line
        // size: a larger line always covers a superset of addresses, so
        // a hit at size L is still a hit at 2L under the same protocol
        // events... which is not strictly true under invalidation, so we
        // assert the weaker, always-true bound: at most the reference
        // count.
        let refs = trace.len() as u64;
        for line_size in [4u32, 8, 16, 32] {
            let stats =
                CoherenceSim::new(CoherenceConfig::with_line_size(line_size)).run(&trace);
            prop_assert!(stats.line_fetches <= refs);
            prop_assert!(stats.word_writes <= trace.write_count() as u64);
        }
    }

    #[test]
    fn reads_alone_cost_one_fetch_per_line_per_proc(
        procs in 1u32..8,
        addrs in proptest::collection::vec(0u32..128, 1..100),
    ) {
        // A read-only workload has no coherence traffic beyond cold
        // misses: fetches == distinct (proc, line) pairs.
        let mut trace = Trace::new();
        for (i, &a) in addrs.iter().enumerate() {
            trace.push(MemRef::new(i as u64, i as u32 % procs, a * 2, RefKind::Read));
        }
        let stats = CoherenceSim::new(CoherenceConfig::with_line_size(8)).run(&trace);
        let mut pairs: Vec<(u32, u32)> = trace
            .refs()
            .iter()
            .map(|r| (r.proc, r.addr / 8))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        prop_assert_eq!(stats.line_fetches, pairs.len() as u64);
        prop_assert_eq!(stats.word_writes, 0);
        prop_assert_eq!(stats.write_caused_bytes, 0);
    }

    #[test]
    fn every_backend_agrees_on_per_proc_counts(trace in arb_trace(6, 128), line in 0u32..3) {
        // The backends disagree on traffic, never on what the processors
        // did: per-processor read/write counts are a property of the
        // trace alone.
        let line_size = 4u32 << line;
        let n_procs = trace.refs().iter().map(|r| r.proc + 1).max().unwrap_or(1);
        let mut per_backend = Vec::new();
        for e in memory_registry() {
            let out = (e.build)(MemoryConfig::paper(n_procs, line_size)).run(&trace);
            let reads: u64 = out.per_proc.iter().map(|p| p.reads).sum();
            let writes: u64 = out.per_proc.iter().map(|p| p.writes).sum();
            prop_assert_eq!(reads + writes, trace.len() as u64, "{}", e.name);
            per_backend.push((e.name, out.per_proc));
        }
        for pair in per_backend.windows(2) {
            prop_assert_eq!(
                &pair[0].1, &pair[1].1,
                "{} and {} disagree on per-proc counts", pair[0].0, pair[1].0
            );
        }
    }

    #[test]
    fn single_processor_traces_have_no_coherence_traffic_on_any_backend(
        trace in arb_trace(1, 128),
        line in 0u32..3,
    ) {
        // With one processor there is nobody to invalidate: every backend
        // must report zero coherence events and zero invalidation
        // transport, whatever the line size.
        for e in memory_registry() {
            let out = (e.build)(MemoryConfig::paper(1, 4u32 << line)).run(&trace);
            prop_assert_eq!(out.coherence_events(), 0, "{}", e.name);
            prop_assert_eq!(out.invalidation_traffic_bytes, 0, "{}", e.name);
        }
    }

    #[test]
    fn directory_unicast_never_exceeds_bus_broadcast(
        trace in arb_trace(8, 64),
        line in 0u32..3,
    ) {
        // The directory sends each invalidation to the actual holders
        // only; the bus broadcasts every announced write to all P-1
        // other caches. Same line semantics, so data traffic is
        // identical and the unicast transport can never cost more.
        let line_size = 4u32 << line;
        let n_procs = trace.refs().iter().map(|r| r.proc + 1).max().unwrap_or(1);
        let cfg = MemoryConfig::paper(n_procs, line_size);
        let bus = build_memory_model("bus-wbi", cfg).unwrap().run(&trace);
        let dir = build_memory_model("directory", cfg).unwrap().run(&trace);
        prop_assert_eq!(bus.stats.clone(), dir.stats.clone());
        prop_assert!(dir.invalidation_traffic_bytes <= bus.invalidation_traffic_bytes);
    }

    #[test]
    fn criticality_tags_affect_scheduling_not_traffic(
        refs in proptest::collection::vec((0u32..6, 0u32..64, any::<bool>(), any::<bool>()), 1..300),
    ) {
        // Tagging requests critical reorders the service queue; it must
        // never change what the memory system transfers, and
        // critical-first service must never leave critical requests
        // waiting longer than FIFO did.
        let mut plain = Trace::new();
        let mut tagged = Trace::new();
        for (i, &(proc, addr, is_write, crit)) in refs.iter().enumerate() {
            let kind = if is_write { RefKind::Write } else { RefKind::Read };
            let r = MemRef::new(i as u64, proc, addr * 2, kind);
            plain.push(r);
            tagged.push(if crit { r.with_criticality(Criticality::Critical) } else { r });
        }
        for e in memory_registry() {
            let a = (e.build)(MemoryConfig::paper(6, 8)).run(&plain);
            let b = (e.build)(MemoryConfig::paper(6, 8)).run(&tagged);
            prop_assert_eq!(a.stats.clone(), b.stats.clone(), "{}", e.name);
            prop_assert_eq!(a.invalidation_traffic_bytes, b.invalidation_traffic_bytes);
            prop_assert!(
                b.critical_first.critical.total_wait_ns <= b.fifo.critical.total_wait_ns,
                "{}: critical-first hurt critical requests", e.name
            );
        }
    }
}

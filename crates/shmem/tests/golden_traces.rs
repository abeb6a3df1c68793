//! Golden trace digests: the traced emulator's complete reference stream,
//! hashed field by field, on a fixed set of circuits and processor counts.
//!
//! Each line of `golden/trace_digests.txt` is the FNV-1a hash over all
//! eight fields of every `MemRef` of one run, in trace order. Any change
//! to trace capture that moves, drops, adds or alters a single reference
//! fails here. Regenerate the file only for a deliberate output change,
//! by writing `render()` to `tests/golden/trace_digests.txt`.

use locus_circuit::{presets, Circuit};
use locus_coherence::{Criticality, RefKind, Trace};
use locus_router::AssignmentStrategy;
use locus_shmem::{ShmemConfig, ShmemEmulator};

/// FNV-1a over every field of every reference, little-endian.
fn digest(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in trace.refs() {
        eat(&r.time.to_le_bytes());
        eat(&r.proc.to_le_bytes());
        eat(&r.addr.to_le_bytes());
        eat(&[matches!(r.kind, RefKind::Write) as u8]);
        eat(&r.epoch.to_le_bytes());
        eat(&r.wire.to_le_bytes());
        eat(&r.delta.to_le_bytes());
        eat(&[matches!(r.crit, Criticality::Critical) as u8]);
    }
    h
}

fn line(name: &str, circuit: &Circuit, config: ShmemConfig) -> String {
    let trace = ShmemEmulator::new(circuit, config.with_trace())
        .run()
        .trace
        .expect("traced run records a trace");
    format!("{name} refs={} {:016x}\n", trace.len(), digest(&trace))
}

fn render() -> String {
    let tiny = presets::tiny();
    let small = presets::small();
    let mut out = line("tiny P=2", &tiny, ShmemConfig::new(2));
    for procs in [1, 2, 4, 16] {
        out.push_str(&line(&format!("small P={procs}"), &small, ShmemConfig::new(procs)));
    }
    let locality = ShmemConfig::new(4)
        .with_static_assignment(AssignmentStrategy::Locality { threshold_cost: Some(30) });
    out.push_str(&line("small P=4 static-locality", &small, locality));
    out
}

#[test]
fn emulator_traces_match_the_golden_digests() {
    let golden = include_str!("golden/trace_digests.txt");
    let actual = render();
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "golden line {} differs", i + 1);
    }
    assert_eq!(actual.lines().count(), golden.lines().count(), "golden line count differs");
}

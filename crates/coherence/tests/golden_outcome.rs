//! Golden `MemoryOutcome`s: every registered backend at line sizes
//! 4 / 8 / 32 over one fixed `presets::small()` P = 4 emulator trace.
//!
//! The committed file pins the full `Debug` of each outcome — traffic,
//! invalidation transport, per-processor counts and both arbiter
//! resolutions — so any change to the replay path that moves a single
//! byte of output fails here. Regenerate it only for a deliberate output
//! change, by writing `render()` to `tests/golden/memory_outcome.txt`.

use locus_circuit::presets;
use locus_coherence::{memory_registry, MemoryConfig};
use locus_shmem::{ShmemConfig, ShmemEmulator};

const PROCS: u32 = 4;
const LINE_SIZES: [u32; 3] = [4, 8, 32];

fn render() -> String {
    let circuit = presets::small();
    let trace = ShmemEmulator::new(&circuit, ShmemConfig::new(PROCS as usize).with_trace())
        .run()
        .trace
        .expect("traced run records a trace");
    let mut out = format!("# presets::small() P={PROCS}, {} refs\n", trace.len());
    for line in LINE_SIZES {
        for entry in memory_registry() {
            let outcome = (entry.build)(MemoryConfig::paper(PROCS, line)).run(&trace);
            out.push_str(&format!("line={line} {outcome:?}\n"));
        }
    }
    out
}

#[test]
fn memory_outcomes_match_the_golden_file() {
    let golden = include_str!("golden/memory_outcome.txt");
    let actual = render();
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "golden line {} differs", i + 1);
    }
    assert_eq!(actual.lines().count(), golden.lines().count(), "golden line count differs");
}

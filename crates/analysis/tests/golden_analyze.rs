//! Golden `analyze` reports: the FNV-1a digest of `race_report_json` for
//! the configurations of CI's race smoke (`analyze --quick` on the
//! emulator at P = 4 and on the sequential engine) and for the emulator
//! at P = 16, so detection, classification and report rendering stay
//! byte-identical together. Regenerate `golden/analyze_digests.txt` from
//! `render()` only for a deliberate output change. The full-scale
//! `analyze --engine emul --report` is pinned by the sha256 in
//! `golden/analyze_full_emul.sha256`, checked in CI.

use locus_analysis::{analyze_engine, race_report_json};
use locus_circuit::presets;
use locus_router::RouterParams;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

fn render() -> String {
    let circuit = presets::small();
    let mut out = String::new();
    for (engine, procs) in [("emul", 4), ("seq", 4), ("emul", 16)] {
        let report = analyze_engine(&circuit, engine, procs, RouterParams::default())
            .expect("engine has a trace");
        let json = race_report_json(&report);
        out.push_str(&format!(
            "{engine} P={procs} races={} {:016x}\n",
            report.races.len(),
            fnv1a(json.as_bytes())
        ));
    }
    out
}

#[test]
fn analyze_reports_match_the_golden_digests() {
    let golden = include_str!("golden/analyze_digests.txt");
    let actual = render();
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "golden line {} differs", i + 1);
    }
    assert_eq!(actual.lines().count(), golden.lines().count(), "golden line count differs");
}

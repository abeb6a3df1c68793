//! The dense race detector against the `BTreeMap` shadow it replaced.
//!
//! `reference_detect` below is the former detector, kept verbatim in
//! behaviour: a per-address `BTreeMap` of `Option` shadow cells, an
//! always-built epoch-major index and a bare `BTreeSet` dedup. `detect`
//! must return a `DetectionResult` equal to it field by field — every
//! `RacePair` field and the pairs' order, `synchronized_pairs`, `epochs`
//! — on random traces past the 32-processor width of the dedup bitmask,
//! traces whose epochs are not sorted, addresses near `u32::MAX`, and
//! emulator traces.

use std::collections::{BTreeMap, BTreeSet};

use locus_analysis::race::{detect, DetectionResult, RaceKey, RaceKind, RacePair};
use locus_analysis::VectorClock;
use locus_circuit::presets;
use locus_coherence::{MemRef, RefKind, Trace};
use locus_shmem::{ShmemConfig, ShmemEmulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[derive(Clone, Copy)]
struct Access {
    clock: u64,
    r: MemRef,
    idx: usize,
}

struct Shadow {
    writes: Vec<Option<Access>>,
    reads: Vec<Option<Access>>,
}

fn reference_detect(trace: &Trace) -> DetectionResult {
    let refs = trace.refs();
    let n_procs = refs.iter().map(|r| r.proc as usize + 1).max().unwrap_or(0);
    let epochs = refs.iter().map(|r| r.epoch + 1).max().unwrap_or(0);
    let mut result =
        DetectionResult { refs: refs.len(), procs: n_procs, epochs, ..Default::default() };
    if n_procs == 0 {
        return result;
    }
    let mut order: Vec<usize> = (0..refs.len()).collect();
    order.sort_by_key(|&i| refs[i].epoch);

    let mut clock: Vec<u64> = vec![0; n_procs];
    let mut vc: Vec<VectorClock> = vec![VectorClock::new(n_procs); n_procs];
    let mut current_epoch = 0u32;
    let mut shadow: BTreeMap<u32, Shadow> = BTreeMap::new();
    let mut seen: BTreeSet<RaceKey> = BTreeSet::new();

    for &i in &order {
        let r = refs[i];
        if r.epoch > current_epoch {
            let mut release = VectorClock::new(n_procs);
            for c in &vc {
                release.join(c);
            }
            for c in &mut vc {
                c.join(&release);
            }
            current_epoch = r.epoch;
        }
        let p = r.proc as usize;
        clock[p] += 1;
        vc[p].set(p, clock[p]);
        let cell = shadow
            .entry(r.addr)
            .or_insert_with(|| Shadow { writes: vec![None; n_procs], reads: vec![None; n_procs] });
        for q in 0..n_procs {
            if q == p {
                continue;
            }
            if let Some(w) = cell.writes[q] {
                if vc[p].has_observed(q, w.clock) {
                    result.synchronized_pairs += 1;
                } else {
                    let kind = if r.kind == RefKind::Write {
                        RaceKind::WriteWrite
                    } else {
                        RaceKind::ReadWrite
                    };
                    push_race(&mut result.races, &mut seen, w, r, i, kind);
                }
            }
            if r.kind == RefKind::Write {
                if let Some(rd) = cell.reads[q] {
                    if vc[p].has_observed(q, rd.clock) {
                        result.synchronized_pairs += 1;
                    } else {
                        push_race(&mut result.races, &mut seen, rd, r, i, RaceKind::ReadWrite);
                    }
                }
            }
        }
        let access = Access { clock: clock[p], r, idx: i };
        match r.kind {
            RefKind::Write => cell.writes[p] = Some(access),
            RefKind::Read => cell.reads[p] = Some(access),
        }
    }
    result
}

fn push_race(
    races: &mut Vec<RacePair>,
    seen: &mut BTreeSet<RaceKey>,
    prior: Access,
    r: MemRef,
    idx: usize,
    kind: RaceKind,
) {
    let pair = RacePair {
        addr: r.addr,
        epoch: r.epoch,
        first: prior.r,
        first_idx: prior.idx,
        second: r,
        second_idx: idx,
        kind,
    };
    if seen.insert(pair.key()) {
        races.push(pair);
    }
}

/// Where a random trace's addresses come from.
#[derive(Clone, Copy, Debug)]
enum Addrs {
    /// A few dense cost-array cells, so races collide often.
    Dense,
    /// Just below `u32::MAX`, mixed with a few low cells.
    NearTop,
}

/// A time-ordered random trace: `procs` processors, `len` references on
/// 1–12 addresses, with epochs either in time bands (epoch-sorted, as
/// producers emit them) or drawn independently of time (epoch-unsorted,
/// so the detector must build its epoch-major index).
fn random_trace(procs: u32, len: usize, seed: u64, addrs: Addrs, banded: bool) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let slots = rng.random_range(1..13u32);
    let epochs = rng.random_range(1..4u32);
    let mut t: Trace = (0..len)
        .map(|_| {
            let slot = rng.random_range(0..slots);
            let addr = match addrs {
                Addrs::Dense => slot * 2,
                Addrs::NearTop if slot % 4 == 0 => slot * 2,
                Addrs::NearTop => u32::MAX - slot * 2,
            };
            let epoch = rng.random_range(0..epochs);
            let offset = rng.random_range(0..8u64);
            let time = if banded { epoch as u64 * 1_000 + offset } else { offset };
            let kind = if rng.random_bool(0.4) { RefKind::Write } else { RefKind::Read };
            let delta = if kind == RefKind::Write { 1 } else { 0 };
            MemRef::new(time, rng.random_range(0..procs), addr, kind)
                .with_epoch(epoch)
                .with_wire(slot % 5)
                .with_delta(delta)
        })
        .collect();
    t.sort_by_time();
    t
}

fn assert_equivalent(trace: &Trace) {
    let dense = detect(trace);
    let reference = reference_detect(trace);
    assert_eq!(dense.races.len(), reference.races.len(), "race count");
    for (i, (a, b)) in dense.races.iter().zip(&reference.races).enumerate() {
        assert_eq!(a, b, "race {i}");
    }
    assert_eq!(dense, reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dense addresses, up to 40 processors (past the 32-bit dedup
    /// bitmask), epoch-sorted and epoch-unsorted traces.
    #[test]
    fn dense_detector_matches_the_reference(
        procs in 1u32..41,
        len in 0usize..400,
        seed in any::<u64>(),
        banded in any::<bool>(),
    ) {
        assert_equivalent(&random_trace(procs, len, seed, Addrs::Dense, banded));
    }

    /// Addresses just below `u32::MAX`, mixed with low cells.
    #[test]
    fn dense_detector_matches_the_reference_near_u32_max(
        procs in 1u32..41,
        len in 0usize..400,
        seed in any::<u64>(),
        banded in any::<bool>(),
    ) {
        assert_equivalent(&random_trace(procs, len, seed, Addrs::NearTop, banded));
    }
}

#[test]
fn dense_detector_matches_the_reference_on_emulator_traces() {
    let circuit = presets::small();
    for procs in [2, 4, 16] {
        let trace = ShmemEmulator::new(&circuit, ShmemConfig::new(procs).with_trace())
            .run()
            .trace
            .expect("traced run records a trace");
        let dense = detect(&trace);
        assert!(!dense.races.is_empty(), "P={procs} emulation races");
        assert_eq!(dense, reference_detect(&trace), "P={procs}");
    }
}

//! The span-query race classifier against the per-cell classifier it
//! replaced.
//!
//! `reference_classify` below is the former classifier, kept verbatim in
//! behaviour: a `u32` replay array, a per-cell override view, and every
//! read/write race judged by re-routing the reading wire in full under
//! both values. `classify_races` must return the same `(pair, class,
//! reason)` vector on random multi-pin traces, emulator traces, and
//! hostile traces: cells driven past `u16::MAX`, unattributable reads,
//! out-of-range wire ids, overshoot 0 and 3, and ±127 races at the zero
//! floor.

use locus_analysis::race::{detect, RaceKind, RacePair};
use locus_analysis::{addr_cell, classify_races, ClassifiedRace, RaceClass};
use locus_circuit::{presets, Circuit, GridCell, Pin, Wire};
use locus_coherence::{MemRef, RefKind, Trace};
use locus_router::router::route_wire;
use locus_router::CostView;
use locus_shmem::{ShmemConfig, ShmemEmulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

struct ReplayView<'a> {
    values: &'a [u32],
    channels: u16,
    grids: u16,
    override_cell: usize,
    override_value: u32,
}

impl CostView for ReplayView<'_> {
    fn channels(&self) -> u16 {
        self.channels
    }
    fn grids(&self) -> u16 {
        self.grids
    }
    fn cost_at(&self, cell: GridCell) -> u32 {
        let idx = cell.channel as usize * self.grids as usize + cell.x as usize;
        if idx == self.override_cell {
            self.override_value
        } else {
            self.values[idx]
        }
    }
}

fn apply_delta(value: u32, delta: i8) -> u32 {
    if delta >= 0 {
        value.saturating_add(delta as u32)
    } else {
        value.saturating_sub((-(delta as i32)) as u32)
    }
}

fn replay_order(value: u32, first: i8, second: i8) -> (u32, bool) {
    let mut clamped = false;
    let mut v = value;
    for d in [first, second] {
        if d < 0 && v < (-(d as i32)) as u32 {
            clamped = true;
        }
        v = apply_delta(v, d);
    }
    (v, clamped)
}

fn reference_classify(
    circuit: &Circuit,
    trace: &Trace,
    races: Vec<RacePair>,
    channel_overshoot: u16,
) -> Vec<ClassifiedRace> {
    let grids = circuit.grids;
    let n_cells = circuit.channels as usize * grids as usize;
    let mut values = vec![0u32; n_cells];
    let cell_idx = |addr: u32| {
        let c = addr_cell(addr, grids);
        c.channel as usize * grids as usize + c.x as usize
    };

    let n = races.len();
    let min_of = |p: &RacePair| p.first_idx.min(p.second_idx);
    let max_of = |p: &RacePair| p.first_idx.max(p.second_idx);
    let mut order_min: Vec<usize> = (0..n).collect();
    order_min.sort_by_key(|&k| min_of(&races[k]));
    let mut order_max: Vec<usize> = (0..n).collect();
    order_max.sort_by_key(|&k| max_of(&races[k]));

    let mut before = vec![0u32; n];
    let mut verdicts: Vec<Option<ClassifiedRace>> = (0..n).map(|_| None).collect();
    let (mut mi, mut ma) = (0usize, 0usize);
    for (i, r) in trace.refs().iter().enumerate() {
        while mi < n && min_of(&races[order_min[mi]]) == i {
            let k = order_min[mi];
            before[k] = values[cell_idx(races[k].addr)];
            mi += 1;
        }
        while ma < n && max_of(&races[order_max[ma]]) == i {
            let k = order_max[ma];
            verdicts[k] = Some(reference_one(
                circuit,
                &values,
                races[k].clone(),
                before[k],
                channel_overshoot,
            ));
            ma += 1;
        }
        if r.kind == RefKind::Write {
            let idx = cell_idx(r.addr);
            values[idx] = apply_delta(values[idx], r.delta);
        }
    }
    while ma < n {
        let k = order_max[ma];
        verdicts[k] =
            Some(reference_one(circuit, &values, races[k].clone(), before[k], channel_overshoot));
        ma += 1;
    }
    verdicts.into_iter().map(|v| v.expect("every pair classified")).collect()
}

fn reference_one(
    circuit: &Circuit,
    values: &[u32],
    pair: RacePair,
    before: u32,
    channel_overshoot: u16,
) -> ClassifiedRace {
    let grids = circuit.grids;
    let cell = addr_cell(pair.addr, grids);
    let idx = cell.channel as usize * grids as usize + cell.x as usize;
    let current = values[idx];
    let verdict = |pair, benign: bool, reason| ClassifiedRace {
        pair,
        class: if benign { RaceClass::Benign } else { RaceClass::QualityAffecting },
        reason,
    };

    match pair.kind {
        RaceKind::WriteWrite => {
            let (d_first, d_second) = (pair.first.delta, pair.second.delta);
            let (v_ab, clamp_ab) = replay_order(before, d_first, d_second);
            let (v_ba, clamp_ba) = replay_order(before, d_second, d_first);
            if v_ab == v_ba && !clamp_ab && !clamp_ba {
                verdict(pair, true, "increments commute")
            } else {
                verdict(pair, false, "write order reaches the saturating zero floor")
            }
        }
        RaceKind::ReadWrite => {
            let write = pair.write_ref();
            let read = pair.read_ref().expect("read/write pair has a read");
            let (with_write, without_write) = if pair.second.kind == RefKind::Read {
                (current, apply_delta(current, -write.delta))
            } else {
                (apply_delta(current, write.delta), current)
            };
            if with_write == without_write {
                return verdict(pair, true, "write does not change the observed value");
            }
            let wire_id = read.wire as usize;
            if read.wire == MemRef::NO_WIRE || wire_id >= circuit.wire_count() {
                return verdict(
                    pair,
                    false,
                    "observed value changes and the read has no attributable wire",
                );
            }
            let wire = circuit.wire(wire_id);
            let base = ReplayView {
                values,
                channels: circuit.channels,
                grids,
                override_cell: idx,
                override_value: with_write,
            };
            let eval_with = route_wire(&base, wire, channel_overshoot);
            let alt = ReplayView { override_value: without_write, ..base };
            let eval_without = route_wire(&alt, wire, channel_overshoot);
            if eval_with.route == eval_without.route {
                verdict(pair, true, "two-bend winner identical under either order")
            } else {
                verdict(pair, false, "stale read changes the two-bend winner")
            }
        }
    }
}

fn cell_addr(cell: GridCell, grids: u16) -> u32 {
    (cell.channel as u32 * grids as u32 + cell.x as u32) * 2
}

/// Classifies `trace`'s races both ways and requires equal verdicts;
/// returns them for the caller's own checks.
fn assert_equivalent(circuit: &Circuit, trace: &Trace, overshoot: u16) -> Vec<ClassifiedRace> {
    let races = detect(trace).races;
    let fast = classify_races(circuit, trace, races.clone(), overshoot);
    let reference = reference_classify(circuit, trace, races, overshoot);
    assert_eq!(fast.len(), reference.len(), "verdict count");
    for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
        assert_eq!(a, b, "race {i} overshoot {overshoot}");
    }
    fast
}

/// A random circuit of multi-pin wires (2–5 pins, pins may share a
/// column or coincide) on a surface of 1–6 channels by 1–24 grids.
fn random_circuit(rng: &mut StdRng) -> Circuit {
    let channels = rng.random_range(1..7u16);
    let grids = rng.random_range(1..25u16);
    let wires = (0..rng.random_range(1..9usize))
        .map(|id| {
            let pins = (0..rng.random_range(2..6usize))
                .map(|_| Pin::new(rng.random_range(0..channels), rng.random_range(0..grids)))
                .collect();
            Wire::new(id, pins)
        })
        .collect();
    Circuit::new("random", channels, grids, wires).expect("valid random circuit")
}

/// A time-ordered random trace over `circuit`'s cells: writes of mixed
/// sign (mostly ±1, sometimes ±127) build up uneven costs, and reads are
/// attributed to real wires, with a few out-of-range and unattributable
/// wire ids mixed in. With `wide`, an unraced epoch first drives one
/// random cell past `u16::MAX` (517 writes of +127), so every later race
/// is judged on values a `u16` cannot hold.
fn random_trace(circuit: &Circuit, procs: u32, len: usize, wide: bool, rng: &mut StdRng) -> Trace {
    let wires = circuit.wire_count() as u32;
    let epochs = rng.random_range(1..3u32);
    let first_epoch = wide as u32;
    let hot =
        GridCell::new(rng.random_range(0..circuit.channels), rng.random_range(0..circuit.grids));
    let prefix = (0..if wide { 517 } else { 0 }).map(|time| {
        MemRef::new(time, 0, cell_addr(hot, circuit.grids), RefKind::Write).with_delta(127)
    });
    let random = (0..len)
        .map(|i| {
            let cell = GridCell::new(
                rng.random_range(0..circuit.channels),
                rng.random_range(0..circuit.grids),
            );
            let epoch = first_epoch + (i * epochs as usize / len.max(1)) as u32;
            let time = epoch as u64 * 10_000 + rng.random_range(0..50u64);
            let proc = rng.random_range(0..procs);
            let addr = cell_addr(cell, circuit.grids);
            if rng.random_bool(0.45) {
                let delta: i8 = match rng.random_range(0..10u32) {
                    0 => 127,
                    1 => -127,
                    2..=3 => -1,
                    4 => 3,
                    _ => 1,
                };
                MemRef::new(time, proc, addr, RefKind::Write).with_epoch(epoch).with_delta(delta)
            } else {
                let wire = match rng.random_range(0..20u32) {
                    0 => MemRef::NO_WIRE,
                    1 => wires + rng.random_range(0..3u32),
                    _ => rng.random_range(0..wires),
                };
                MemRef::new(time, proc, addr, RefKind::Read).with_epoch(epoch).with_wire(wire)
            }
        })
        .collect::<Vec<_>>();
    let mut t: Trace = prefix.chain(random).collect();
    t.sort_by_time();
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn classifier_matches_the_reference_on_random_traces(
        seed in any::<u64>(),
        procs in 1u32..6,
        len in 0usize..300,
        overshoot in 0u16..4,
        wide in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_circuit(&mut rng);
        let trace = random_trace(&circuit, procs, len, wide, &mut rng);
        assert_equivalent(&circuit, &trace, overshoot);
    }
}

#[test]
fn classifier_matches_the_reference_on_emulator_traces() {
    let circuit = presets::small();
    for procs in [2, 4, 16] {
        let trace = ShmemEmulator::new(&circuit, ShmemConfig::new(procs).with_trace())
            .run()
            .trace
            .expect("traced run records a trace");
        for overshoot in [0, 1, 3] {
            let verdicts = assert_equivalent(&circuit, &trace, overshoot);
            assert!(verdicts.iter().any(|v| v.pair.kind == RaceKind::ReadWrite), "P={procs}");
        }
    }
}

/// One processor drives a pin cell of wire 0 past `u16::MAX` with +127
/// writes while others read it for wire 0, and the other pin sits just
/// below `u16::MAX` so a racing +127 pushes only the override past it.
#[test]
fn classifier_matches_the_reference_past_u16_max() {
    let circuit = presets::tiny();
    let grids = circuit.grids;
    let pins = &circuit.wire(0).pins;
    let (a, b) = (pins[0].cell(), pins[1].cell());
    let (hot, near) = (cell_addr(a, grids), cell_addr(b, grids));
    let mut refs = Vec::new();
    let mut time = 0u64;
    let mut push = |r: MemRef| {
        refs.push(MemRef { time, ..r });
        time += 1;
    };
    // `near` climbs to 65 532 (516 × 127) in epoch 0, unraced.
    for _ in 0..516 {
        push(MemRef::new(0, 0, near, RefKind::Write).with_delta(127));
    }
    // Races are reported once per (address, epoch, processor pair), so
    // each probe uses fresh processors to race at a new value.
    for i in 0..560u32 {
        push(MemRef::new(0, 0, hot, RefKind::Write).with_epoch(1).with_delta(127));
        if i % 7 == 0 {
            let k = 1 + i / 7 * 3;
            push(MemRef::new(0, k, hot, RefKind::Read).with_epoch(1).with_wire(0));
            push(MemRef::new(0, k + 1, near, RefKind::Read).with_epoch(1).with_wire(0));
            push(MemRef::new(0, k + 2, near, RefKind::Write).with_epoch(1).with_delta(127));
            push(MemRef::new(0, k + 2, near, RefKind::Write).with_epoch(1).with_delta(-127));
        }
    }
    let trace: Trace = refs.into_iter().collect();
    for overshoot in [0, 3] {
        let verdicts = assert_equivalent(&circuit, &trace, overshoot);
        assert!(verdicts.iter().any(|v| v.pair.kind == RaceKind::ReadWrite));
    }
}

/// Unattributable reads, wire ids past the netlist, and ±127 writes
/// racing at the zero floor, at overshoot 0 and 3.
#[test]
fn classifier_matches_the_reference_on_hostile_pairs() {
    let circuit = presets::tiny();
    let grids = circuit.grids;
    let wires = circuit.wire_count() as u32;
    let cell = circuit.wire(1).pins[0].cell();
    let addr = cell_addr(cell, grids);
    let other = cell_addr(GridCell::new(cell.channel, (cell.x + 1) % grids), grids);
    let refs = [
        MemRef::new(0, 0, addr, RefKind::Write).with_delta(-127),
        MemRef::new(1, 1, addr, RefKind::Write).with_delta(127),
        MemRef::new(2, 2, addr, RefKind::Read).with_wire(MemRef::NO_WIRE),
        MemRef::new(3, 3, addr, RefKind::Read).with_wire(wires),
        MemRef::new(4, 4, addr, RefKind::Read).with_wire(u32::MAX - 1),
        MemRef::new(5, 5, addr, RefKind::Read).with_wire(1),
        MemRef::new(6, 0, other, RefKind::Read).with_wire(1),
        MemRef::new(7, 1, other, RefKind::Write).with_delta(-127),
        MemRef::new(8, 2, other, RefKind::Write).with_delta(127),
        MemRef::new(9, 3, other, RefKind::Read).with_wire(2),
    ];
    let trace: Trace = refs.into_iter().collect();
    for overshoot in [0, 3] {
        let verdicts = assert_equivalent(&circuit, &trace, overshoot);
        let reasons: Vec<&str> = verdicts.iter().map(|v| v.reason).collect();
        assert!(reasons.contains(&"write order reaches the saturating zero floor"), "{reasons:?}");
        assert!(
            reasons.contains(&"observed value changes and the read has no attributable wire"),
            "{reasons:?}"
        );
    }
}

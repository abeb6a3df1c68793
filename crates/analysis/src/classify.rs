//! Benign vs quality-affecting classification of detected races.
//!
//! The paper routes with an unlocked shared cost array on purpose: "the
//! cost array is not locked [...] the penalty is that some wires may be
//! routed with slightly stale data" (§3). Most races are therefore
//! *benign by design* — increments commute, and a stale read usually
//! picks the same two-bend route anyway. This module makes that claim
//! checkable per race pair:
//!
//! * **write/write** — the two increments are replayed in both orders
//!   from the reconstructed cell value. Addition commutes, so the pair
//!   is benign unless one order drives the cell through the saturating
//!   zero floor (a rip-up decrement racing ahead of the commit it
//!   undoes), in which case the final values differ.
//! * **read/write** — the reading wire's two-bend evaluation is re-run
//!   twice against the replayed array: once with the racing write
//!   applied to the contested cell and once without. If the winning
//!   route is identical either way, the stale read could not have
//!   changed the routing decision: benign. Otherwise quality-affecting.
//!
//! Both checks are deterministic approximations: the replay reconstructs
//! the globally time-ordered value sequence (atomic increments lose
//! nothing, so this is the value the hardware would converge to), and
//! the read/write check perturbs only the contested cell, holding the
//! rest of the array at its replay state.
//!
//! # Cost of the read/write check
//!
//! The sweep keeps its replayed values in a prefix-cached
//! [`CostArray`], so the "what if" views answer the evaluator's span
//! queries in O(1) (correcting the one overridden cell) and advertise
//! [`CostView::fast_spans`]; the fast and per-cell kernels compute the
//! same integer sums, so the verdict is unchanged. Only the reading
//! wire's connections whose [`Connection::candidate_box`] holds the
//! contested cell can see it, so just those are re-evaluated under both
//! values: identical segments everywhere make the race benign, and any
//! difference falls back to comparing the whole wire's routes, as the
//! verdict is defined. A replayed value past `u16::MAX` (which a
//! `CostArray` cannot hold) switches the sweep for good to exact `u32`
//! values read cell by cell.

use locus_circuit::{Circuit, GridCell, Pin, Wire};
use locus_coherence::{RefKind, Trace};
use locus_router::router::route_wire_scratch;
use locus_router::segment::{decompose_into, Connection};
use locus_router::twobend::best_route_into;
use locus_router::{CostArray, CostView, EvalScratch, Segment};

use crate::race::{RaceKind, RacePair};

/// Classification verdict for one race pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaceClass {
    /// Both orders of the pair yield the same array values and the same
    /// route decision.
    Benign,
    /// The orders diverge: a saturating underflow or a changed two-bend
    /// winner.
    QualityAffecting,
}

/// A race pair with its verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassifiedRace {
    /// The detected pair.
    pub pair: RacePair,
    /// Benign or quality-affecting.
    pub class: RaceClass,
    /// One-line justification of the verdict.
    pub reason: &'static str,
}

impl ClassifiedRace {
    /// Whether the pair was classified benign.
    pub fn is_benign(&self) -> bool {
        self.class == RaceClass::Benign
    }
}

/// Decodes a trace byte address back to its cost-array cell (addresses
/// are `locus_shmem::cell_addr`: `(channel * grids + x) * 2`).
pub fn addr_cell(addr: u32, grids: u16) -> GridCell {
    let slot = addr / 2;
    GridCell::new((slot / grids as u32) as u16, (slot % grids as u32) as u16)
}

/// The replayed cost array with one cell overridden — the "what if the
/// racing write had (not) landed" view, answering spans in O(1) from the
/// array's prefix caches.
struct OverrideView<'a> {
    array: &'a CostArray,
    cell: GridCell,
    /// The array's own value at `cell`.
    base: u32,
    /// The value `cell` holds in this view.
    value: u32,
}

impl OverrideView<'_> {
    /// Replaces the array's value at `cell` by the override in a span sum
    /// that covers it.
    #[inline]
    fn correct(&self, sum: u64) -> u64 {
        sum - self.base as u64 + self.value as u64
    }
}

impl CostView for OverrideView<'_> {
    fn channels(&self) -> u16 {
        CostView::channels(self.array)
    }
    fn grids(&self) -> u16 {
        CostView::grids(self.array)
    }
    fn cost_at(&self, cell: GridCell) -> u32 {
        if cell == self.cell {
            self.value
        } else {
            self.array.cost_at(cell)
        }
    }
    fn horizontal_cost(&self, channel: u16, x_lo: u16, x_hi: u16) -> u64 {
        let sum = self.array.horizontal_cost(channel, x_lo, x_hi);
        if channel == self.cell.channel && (x_lo..=x_hi).contains(&self.cell.x) {
            self.correct(sum)
        } else {
            sum
        }
    }
    fn vertical_cost(&self, x: u16, c_lo: u16, c_hi: u16) -> u64 {
        let sum = self.array.vertical_cost(x, c_lo, c_hi);
        if x == self.cell.x && (c_lo..=c_hi).contains(&self.cell.channel) {
            self.correct(sum)
        } else {
            sum
        }
    }
    fn fast_spans(&self) -> bool {
        true
    }
}

/// Exact `u32` replay values with one cell overridden, read cell by
/// cell: the view for a sweep whose values outgrew the `CostArray`.
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

/// Applies a saturating delta the way the threaded router's atomics do.
fn apply_delta(value: u32, delta: i8) -> u32 {
    if delta >= 0 {
        value.saturating_add(delta as u32)
    } else {
        value.saturating_sub((-(delta as i32)) as u32)
    }
}

/// Whether applying `first` then `second` to `value` stays off the zero
/// floor; returns the final value alongside.
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

/// The sweep's replayed cell values.
enum Replay {
    /// Every value fits a `u16`: a prefix-cached array with O(1) spans.
    Narrow(CostArray),
    /// A value passed `u16::MAX`: exact row-major `u32` values.
    Wide(Vec<u32>),
}

/// Scratch buffers the read/write check reuses from race to race.
#[derive(Default)]
struct Rerun {
    pins: Vec<Pin>,
    connections: Vec<Connection>,
    with_segments: Vec<Segment>,
    without_segments: Vec<Segment>,
    scratch: EvalScratch,
}

impl Rerun {
    /// Whether `wire` routes identically under the `with` and `without`
    /// views, which differ only at `cell`. Connections whose candidate
    /// box misses `cell` read the same values under both and are
    /// skipped; if the rest all pick the same segments the routes are
    /// equal, and otherwise the whole routes are compared.
    fn same_winner<V: CostView>(
        &mut self,
        with: &V,
        without: &V,
        wire: &Wire,
        cell: GridCell,
        overshoot: u16,
    ) -> bool {
        decompose_into(wire, &mut self.pins, &mut self.connections);
        let channels = with.channels();
        let differs = self.connections.iter().any(|&conn| {
            if !conn.candidate_box(overshoot, channels).contains(cell) {
                return false;
            }
            self.with_segments.clear();
            self.without_segments.clear();
            best_route_into(with, conn, overshoot, &mut self.with_segments);
            best_route_into(without, conn, overshoot, &mut self.without_segments);
            self.with_segments != self.without_segments
        });
        if !differs {
            return true;
        }
        let route_with = route_wire_scratch(with, wire, overshoot, &mut self.scratch).route;
        route_with == route_wire_scratch(without, wire, overshoot, &mut self.scratch).route
    }
}

/// The replay state of a classification sweep.
struct Sweep<'a> {
    circuit: &'a Circuit,
    overshoot: u16,
    replay: Replay,
    rerun: Rerun,
}

impl<'a> Sweep<'a> {
    fn new(circuit: &'a Circuit, overshoot: u16) -> Self {
        Sweep {
            circuit,
            overshoot,
            replay: Replay::Narrow(CostArray::new(circuit.channels, circuit.grids)),
            rerun: Rerun::default(),
        }
    }

    fn index(&self, cell: GridCell) -> usize {
        cell.channel as usize * self.circuit.grids as usize + cell.x as usize
    }

    /// The replayed value of `cell`.
    fn value(&self, cell: GridCell) -> u32 {
        match &self.replay {
            Replay::Narrow(array) => array.get(cell) as u32,
            Replay::Wide(values) => values[self.index(cell)],
        }
    }

    /// Replays one write: `delta` lands on `cell`, saturating at zero.
    fn write(&mut self, cell: GridCell, delta: i8) {
        let idx = self.index(cell);
        if let Replay::Narrow(array) = &mut self.replay {
            if apply_delta(array.get(cell) as u32, delta) <= u16::MAX as u32 {
                array.add(cell, delta as i32);
                return;
            }
            let surface = self.circuit.surface();
            self.replay = Replay::Wide(array.extract(surface).into_iter().map(u32::from).collect());
        }
        if let Replay::Wide(values) = &mut self.replay {
            values[idx] = apply_delta(values[idx], delta);
        }
    }

    /// Classifies one pair against the replay state: the values as of
    /// just before the pair's later access (the earlier access's delta,
    /// if a write, already applied), and `before` the cell value captured
    /// just before the earlier access.
    fn classify_one(&mut self, pair: RacePair, before: u32) -> ClassifiedRace {
        let circuit = self.circuit;
        let cell = addr_cell(pair.addr, circuit.grids);
        let current = self.value(cell);

        match pair.kind {
            RaceKind::WriteWrite => {
                // Replay both orders from the value both interleavings
                // start from.
                let (d_first, d_second) = (pair.first.delta, pair.second.delta);
                let (v_ab, clamp_ab) = replay_order(before, d_first, d_second);
                let (v_ba, clamp_ba) = replay_order(before, d_second, d_first);
                if v_ab == v_ba && !clamp_ab && !clamp_ba {
                    ClassifiedRace { pair, class: RaceClass::Benign, reason: "increments commute" }
                } else {
                    ClassifiedRace {
                        pair,
                        class: RaceClass::QualityAffecting,
                        reason: "write order reaches the saturating zero floor",
                    }
                }
            }
            RaceKind::ReadWrite => {
                let write = pair.write_ref();
                let read = pair.read_ref().expect("read/write pair has a read");
                // Value the read sees with / without the racing write.
                // When the read is the later access the sweep already
                // applied the write; otherwise apply it here.
                let (with_write, without_write) = if pair.second.kind == RefKind::Read {
                    (current, apply_delta(current, -write.delta))
                } else {
                    (apply_delta(current, write.delta), current)
                };
                if with_write == without_write {
                    return ClassifiedRace {
                        pair,
                        class: RaceClass::Benign,
                        reason: "write does not change the observed value",
                    };
                }
                let wire_id = read.wire as usize;
                if read.wire == locus_coherence::MemRef::NO_WIRE || wire_id >= circuit.wire_count()
                {
                    // Cannot re-evaluate an unattributable read; a changed
                    // value with no decision to re-run is reported as
                    // quality-affecting (conservative).
                    return ClassifiedRace {
                        pair,
                        class: RaceClass::QualityAffecting,
                        reason: "observed value changes and the read has no attributable wire",
                    };
                }
                let wire = circuit.wire(wire_id);
                let idx = self.index(cell);
                let (rerun, overshoot) = (&mut self.rerun, self.overshoot);
                let same = match &self.replay {
                    Replay::Narrow(array) => {
                        let with = OverrideView { array, cell, base: current, value: with_write };
                        let without = OverrideView { value: without_write, ..with };
                        rerun.same_winner(&with, &without, wire, cell, overshoot)
                    }
                    Replay::Wide(values) => {
                        let with = ReplayView {
                            values,
                            channels: circuit.channels,
                            grids: circuit.grids,
                            override_cell: idx,
                            override_value: with_write,
                        };
                        let without = ReplayView { override_value: without_write, ..with };
                        rerun.same_winner(&with, &without, wire, cell, overshoot)
                    }
                };
                if same {
                    ClassifiedRace {
                        pair,
                        class: RaceClass::Benign,
                        reason: "two-bend winner identical under either order",
                    }
                } else {
                    ClassifiedRace {
                        pair,
                        class: RaceClass::QualityAffecting,
                        reason: "stale read changes the two-bend winner",
                    }
                }
            }
        }
    }
}
/// Classifies every race pair by replaying the trace's write deltas up
/// to each pair's later access and re-evaluating the contested decision
/// under both orders. `races` must come from detecting `trace`; the
/// trace supplies the replay order (its stored order, which detection
/// also used for indices).
pub fn classify_races(
    circuit: &Circuit,
    trace: &Trace,
    races: Vec<RacePair>,
    channel_overshoot: u16,
) -> Vec<ClassifiedRace> {
    let grids = circuit.grids;
    let n = races.len();
    let min_of = |p: &RacePair| p.first_idx.min(p.second_idx);
    let max_of = |p: &RacePair| p.first_idx.max(p.second_idx);
    let mut order_min: Vec<usize> = (0..n).collect();
    order_min.sort_by_key(|&k| min_of(&races[k]));
    let mut order_max: Vec<usize> = (0..n).collect();
    order_max.sort_by_key(|&k| max_of(&races[k]));

    // Sweep the trace once, capturing each pair's cell value before its
    // earlier access (the state both interleavings start from — undoing
    // a clamped decrement after the fact would be lossy) and issuing the
    // verdict just before its later access.
    let mut sweep = Sweep::new(circuit, channel_overshoot);
    let mut before = vec![0u32; n];
    let mut verdicts: Vec<Option<ClassifiedRace>> = (0..n).map(|_| None).collect();
    let (mut mi, mut ma) = (0usize, 0usize);
    for (i, r) in trace.refs().iter().enumerate() {
        while mi < n && min_of(&races[order_min[mi]]) == i {
            let k = order_min[mi];
            before[k] = sweep.value(addr_cell(races[k].addr, grids));
            mi += 1;
        }
        while ma < n && max_of(&races[order_max[ma]]) == i {
            let k = order_max[ma];
            verdicts[k] = Some(sweep.classify_one(races[k].clone(), before[k]));
            ma += 1;
        }
        if r.kind == RefKind::Write {
            sweep.write(addr_cell(r.addr, grids), r.delta);
        }
    }
    // Pairs indexed at/after trace end (defensive; cannot happen for
    // races detected on this trace).
    while ma < n {
        let k = order_max[ma];
        verdicts[k] = Some(sweep.classify_one(races[k].clone(), before[k]));
        ma += 1;
    }
    verdicts.into_iter().map(|v| v.expect("every pair classified")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::race::detect;
    use locus_circuit::presets;
    use locus_coherence::MemRef;

    fn wref(time: u64, proc: u32, addr: u32, epoch: u32, delta: i8) -> MemRef {
        MemRef::new(time, proc, addr, RefKind::Write).with_epoch(epoch).with_delta(delta)
    }

    #[test]
    fn addr_cell_inverts_cell_addr() {
        for (channel, x, grids) in [(0u16, 0u16, 341u16), (2, 5, 341), (7, 0, 13)] {
            let addr = locus_shmem_cell_addr(channel, x, grids);
            let cell = addr_cell(addr, grids);
            assert_eq!((cell.channel, cell.x), (channel, x));
        }
    }

    // Local copy of the address formula to avoid a dev-only crate edge.
    fn locus_shmem_cell_addr(channel: u16, x: u16, grids: u16) -> u32 {
        (channel as u32 * grids as u32 + x as u32) * 2
    }

    #[test]
    fn colliding_increments_are_benign() {
        let c = presets::tiny();
        let t: Trace = [wref(0, 0, 4, 0, 1), wref(1, 1, 4, 0, 1)].into_iter().collect();
        let races = detect(&t).races;
        assert_eq!(races.len(), 1);
        let classified = classify_races(&c, &t, races, 1);
        assert_eq!(classified[0].class, RaceClass::Benign);
    }

    #[test]
    fn ripup_racing_past_zero_is_quality_affecting() {
        // Cell starts at 0; a −1 rip-up races a +1 commit. The −1-first
        // order saturates at the floor, so the orders disagree.
        let c = presets::tiny();
        let t: Trace = [wref(0, 0, 4, 0, -1), wref(1, 1, 4, 0, 1)].into_iter().collect();
        let races = detect(&t).races;
        assert_eq!(races.len(), 1);
        let classified = classify_races(&c, &t, races, 1);
        assert_eq!(classified[0].class, RaceClass::QualityAffecting);
    }

    #[test]
    fn read_write_verdict_reruns_the_evaluator() {
        // A read for wire 0 races a +1 commit on a cell; the verdict
        // must come from re-running the two-bend evaluation, and with a
        // +1 on an otherwise-zero array the winner is unchanged for the
        // tiny circuit's wire 0 → benign.
        let c = presets::tiny();
        let grids = c.grids;
        let wire = c.wire(0);
        let pin_cell = wire.pins[0].cell();
        let addr = locus_shmem_cell_addr(pin_cell.channel, pin_cell.x, grids);
        let t: Trace = [
            MemRef::new(0, 0, addr, RefKind::Read).with_epoch(0).with_wire(0),
            wref(1, 1, addr, 0, 1),
        ]
        .into_iter()
        .collect();
        let races = detect(&t).races;
        assert_eq!(races.len(), 1);
        let classified = classify_races(&c, &t, races, 1);
        // Either verdict is legal in principle; what we pin down is that
        // classification ran the evaluator path (reason string).
        assert!(
            classified[0].reason.contains("two-bend"),
            "unexpected reason {:?}",
            classified[0].reason
        );
    }
}

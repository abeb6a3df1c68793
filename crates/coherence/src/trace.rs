//! Shared-data reference traces (the Tango interface, paper §2.2).
//!
//! "These traces contain all shared data references made by the program
//! during execution. For each reference, the time, address, and
//! referencing processor are recorded."
//!
//! Beyond the paper's minimal triple, each reference also carries the
//! synchronization context the race analyser needs: the barrier-delimited
//! *epoch* in which the access happened, the *wire* being routed when it
//! happened, and (for writes) the signed *delta* the store applied to the
//! cost cell. Producers that predate the analyser can leave the extras at
//! their defaults via [`MemRef::new`].
//!
//! Producers hand out traces already in time order. Each processor's
//! references are produced in program order, so a producer feeds them to
//! a [`TraceMerger`], which releases them in `(time, push order)` order as
//! the producer's clock advances: the result is exactly the stable time
//! sort of everything pushed, and no whole trace is ever sorted.

/// Whether a reference reads or writes shared data.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum RefKind {
    /// Load from shared memory.
    Read,
    /// Store to shared memory.
    Write,
}

/// How urgently the memory system must service a reference.
///
/// The router's accesses split into two classes: rip-up/commit stores on
/// the wire currently being routed gate every other processor's view of
/// the cost array (the route decision is unusable until they land), while
/// candidate-sweep loads are speculative, prefetch-like traffic — most
/// candidates lose. Criticality-aware backends service [`Critical`]
/// requests ahead of queued [`Background`] ones (arXiv:1606.05933).
///
/// [`Critical`]: Criticality::Critical
/// [`Background`]: Criticality::Background
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Default)]
pub enum Criticality {
    /// Speculative / streaming traffic; can absorb queueing delay.
    #[default]
    Background,
    /// The issuing processor (and its readers) are blocked on this.
    Critical,
}

/// One shared-data reference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemRef {
    /// Logical time of the reference (ns of the emulated execution).
    pub time: u64,
    /// Referencing processor.
    pub proc: u32,
    /// Byte address within the shared region.
    pub addr: u32,
    /// Read or write.
    pub kind: RefKind,
    /// Barrier-delimited synchronization epoch (routing iteration).
    /// Accesses in different epochs are ordered by the barrier between
    /// them; accesses in the same epoch on different processors are not.
    pub epoch: u32,
    /// Wire being routed when the access happened, or [`MemRef::NO_WIRE`]
    /// when the access is not attributable to a single wire.
    pub wire: u32,
    /// Signed value change applied by a write (+1 commit, -1 rip-up);
    /// zero for reads.
    pub delta: i8,
    /// Service-priority class of the reference (see [`Criticality`]).
    pub crit: Criticality,
}

impl MemRef {
    /// Sentinel for [`MemRef::wire`] when no wire is attributable.
    pub const NO_WIRE: u32 = u32::MAX;

    /// A reference with no synchronization context (epoch 0, no wire,
    /// zero delta) — the paper's minimal (time, proc, addr, kind) record.
    pub fn new(time: u64, proc: u32, addr: u32, kind: RefKind) -> Self {
        MemRef {
            time,
            proc,
            addr,
            kind,
            epoch: 0,
            wire: Self::NO_WIRE,
            delta: 0,
            crit: Criticality::Background,
        }
    }

    /// Sets the barrier epoch.
    pub fn with_epoch(mut self, epoch: u32) -> Self {
        self.epoch = epoch;
        self
    }

    /// Sets the attributable wire.
    pub fn with_wire(mut self, wire: u32) -> Self {
        self.wire = wire;
        self
    }

    /// Sets the write delta.
    pub fn with_delta(mut self, delta: i8) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the service-priority class.
    pub fn with_criticality(mut self, crit: Criticality) -> Self {
        self.crit = crit;
        self
    }

    /// Whether the reference is service-critical.
    #[inline]
    pub fn is_critical(&self) -> bool {
        self.crit == Criticality::Critical
    }
}

/// A time-ordered sequence of shared references.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    refs: Vec<MemRef>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates a trace with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        Trace { refs: Vec::with_capacity(n) }
    }

    /// Appends a reference. The trace stays time-ordered only if `r` is
    /// no earlier than the last reference; producers that interleave
    /// processors go through a [`TraceMerger`] instead, which hands out a
    /// trace already in time order.
    #[inline]
    pub fn push(&mut self, r: MemRef) {
        self.refs.push(r);
    }

    /// Stable-sorts the trace by time (ties keep insertion order, which
    /// preserves each processor's program order). Producers never need
    /// it — they merge through a [`TraceMerger`] — but hand-built traces
    /// may.
    pub fn sort_by_time(&mut self) {
        self.refs.sort_by_key(|r| r.time);
    }

    /// Whether the trace is time-ordered.
    pub fn is_sorted(&self) -> bool {
        self.refs.windows(2).all(|w| w[0].time <= w[1].time)
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// The references in order.
    pub fn refs(&self) -> &[MemRef] {
        &self.refs
    }

    /// Count of write references.
    pub fn write_count(&self) -> usize {
        self.refs.iter().filter(|r| r.kind == RefKind::Write).count()
    }
}

/// One processor's pushed references and their push sequence numbers;
/// those from `head` on are pending.
#[derive(Default)]
struct Run {
    refs: Vec<MemRef>,
    seqs: Vec<u64>,
    head: usize,
    /// Time of the run's latest push (runs must not go back in time).
    last: u64,
}

/// The releasable stretch `at..end` of one run during an `advance`.
#[derive(Clone, Copy)]
struct Cursor {
    run: usize,
    at: usize,
    end: usize,
}

/// Merge key of a pending reference: `(time, push sequence)` packed into
/// one integer; an exhausted cursor holds `u128::MAX`, above every key.
#[inline]
fn merge_key(time: u64, seq: u64) -> u128 {
    (time as u128) << 64 | seq as u128
}

/// Builds a time-ordered [`Trace`] from per-processor reference streams
/// as they are produced, with no post-hoc sort.
///
/// The producer pushes each processor's references in program order and
/// periodically calls [`advance`](Self::advance) with a key no later push
/// will undercut. The merger keeps one pending run per processor (indexed
/// by [`MemRef::proc`]); `advance` takes from every run the prefix with
/// `time <= key` and merges those prefixes into the output in `(time,
/// push sequence)` order through a loser tree. The contract is:
///
/// * each processor's pushes have nondecreasing `time`;
/// * after `advance(key)`, every push has `time >= key`.
///
/// Under it, everything released is ≤ everything still to come in
/// `(time, seq)` order, so the finished trace equals a stable sort by time
/// of the whole push sequence. A push that breaks the contract panics
/// rather than yielding a misordered trace.
pub struct TraceMerger {
    runs: Vec<Run>,
    /// Sequence number of the next push.
    seq: u64,
    /// Largest key passed to `advance`: no push may be earlier.
    horizon: u64,
    out: Trace,
}

impl TraceMerger {
    /// A merger over processors `0..n_procs`, whose output trace is
    /// pre-sized for `capacity` references.
    pub fn new(n_procs: usize, capacity: usize) -> Self {
        TraceMerger {
            runs: (0..n_procs).map(|_| Run::default()).collect(),
            seq: 0,
            horizon: 0,
            out: Trace::with_capacity(capacity),
        }
    }

    /// Queues `r` on its processor's run.
    ///
    /// # Panics
    /// Panics if `r.proc` is out of range, or if `r` breaks the ordering
    /// contract (see [type docs](Self)).
    #[inline]
    pub fn push(&mut self, r: MemRef) {
        let p = r.proc as usize;
        assert!(p < self.runs.len(), "proc {p} out of range for {} runs", self.runs.len());
        assert!(
            r.time >= self.horizon,
            "push at time {} after advance({}) would be released out of order",
            r.time,
            self.horizon
        );
        let run = &mut self.runs[p];
        assert!(r.time >= run.last, "proc {p} went back in time: {} after {}", r.time, run.last);
        run.last = r.time;
        if run.head > 0 && run.refs.len() == run.refs.capacity() {
            // Reclaim released entries before growing (amortized O(1)).
            run.refs.drain(..run.head);
            run.seqs.drain(..run.head);
            run.head = 0;
        }
        run.refs.push(r);
        run.seqs.push(self.seq);
        self.seq += 1;
    }

    /// Releases every pending reference with `time <= key`, in order.
    /// From now on no push may be earlier than `key`.
    pub fn advance(&mut self, key: u64) {
        self.horizon = self.horizon.max(key);
        let mut cursors: Vec<Cursor> = Vec::new();
        for (p, run) in self.runs.iter().enumerate() {
            let n = run.refs[run.head..].partition_point(|r| r.time <= key);
            if n > 0 {
                cursors.push(Cursor { run: p, at: run.head, end: run.head + n });
            }
        }
        match cursors.len() {
            0 => return,
            1 => {
                let c = cursors[0];
                self.out.refs.extend_from_slice(&self.runs[c.run].refs[c.at..c.end]);
            }
            _ => merge(&self.runs, &mut cursors, &mut self.out.refs),
        }
        // Merging moved each cursor's `at` to its `end`.
        for c in &cursors {
            let run = &mut self.runs[c.run];
            run.head = c.end;
            if run.head == run.refs.len() {
                run.refs.clear();
                run.seqs.clear();
                run.head = 0;
            }
        }
    }

    /// Releases everything still pending and returns the trace.
    pub fn finish(mut self) -> Trace {
        self.advance(u64::MAX);
        self.out
    }
}

/// Merges the cursors' stretches of `runs` onto `out` through a loser
/// tree: `k` leaves at `k..2k`, match `n` between nodes `2n` and
/// `2n + 1`, each node holding a `(key, cursor)` pair.
fn merge(runs: &[Run], cursors: &mut [Cursor], out: &mut Vec<MemRef>) {
    let k = cursors.len();
    let key_at = |c: &Cursor| {
        if c.at < c.end {
            merge_key(runs[c.run].refs[c.at].time, runs[c.run].seqs[c.at])
        } else {
            u128::MAX
        }
    };
    // Play the tournament bottom-up: `winner[n]` wins the match at `n`,
    // `tree[n]` keeps its loser.
    let mut winner: Vec<(u128, usize)> = (0..2 * k)
        .map(|i| {
            let c = i.saturating_sub(k);
            (key_at(&cursors[c]), c)
        })
        .collect();
    let mut tree = vec![(u128::MAX, 0); k];
    for n in (1..k).rev() {
        let (a, b) = (winner[2 * n], winner[2 * n + 1]);
        let (w, l) = if a.0 < b.0 { (a, b) } else { (b, a) };
        winner[n] = w;
        tree[n] = l;
    }
    let total: usize = cursors.iter().map(|c| c.end - c.at).sum();
    let mut w = winner[1].1;
    for _ in 0..total {
        let c = &mut cursors[w];
        out.push(runs[c.run].refs[c.at]);
        c.at += 1;
        // Replay the winner's path: at each match the smaller of the new
        // head and the stored loser moves on.
        let mut up = (key_at(c), w);
        let mut n = (k + w) / 2;
        while n > 0 {
            if tree[n].0 < up.0 {
                std::mem::swap(&mut tree[n], &mut up);
            }
            n /= 2;
        }
        w = up.1;
    }
}

impl FromIterator<MemRef> for Trace {
    fn from_iter<T: IntoIterator<Item = MemRef>>(iter: T) -> Self {
        Trace { refs: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(time: u64, proc: u32, addr: u32, kind: RefKind) -> MemRef {
        MemRef::new(time, proc, addr, kind)
    }

    #[test]
    fn push_and_sort() {
        let mut t = Trace::new();
        t.push(r(5, 0, 0, RefKind::Read));
        t.push(r(1, 1, 4, RefKind::Write));
        assert!(!t.is_sorted());
        t.sort_by_time();
        assert!(t.is_sorted());
        assert_eq!(t.refs()[0].time, 1);
    }

    #[test]
    fn stable_sort_preserves_program_order_at_equal_times() {
        let mut t = Trace::new();
        t.push(r(3, 0, 0, RefKind::Read));
        t.push(r(3, 0, 4, RefKind::Write));
        t.sort_by_time();
        assert_eq!(t.refs()[0].addr, 0);
        assert_eq!(t.refs()[1].addr, 4);
    }

    #[test]
    fn stable_sort_preserves_order_across_procs_at_equal_times() {
        // Three procs all touch at t=7, interleaved with earlier refs.
        let mut t = Trace::new();
        t.push(r(9, 0, 0, RefKind::Read));
        t.push(r(7, 2, 8, RefKind::Write));
        t.push(r(7, 0, 12, RefKind::Read));
        t.push(r(7, 1, 16, RefKind::Write));
        t.push(r(1, 1, 20, RefKind::Read));
        t.sort_by_time();
        assert!(t.is_sorted());
        // The three t=7 refs keep their relative insertion order.
        let at7: Vec<u32> = t.refs().iter().filter(|r| r.time == 7).map(|r| r.addr).collect();
        assert_eq!(at7, vec![8, 12, 16]);
    }

    #[test]
    fn is_sorted_on_empty_and_single_traces() {
        let empty = Trace::new();
        assert!(empty.is_sorted());
        assert!(empty.is_empty());
        let single: Trace = [r(42, 3, 0, RefKind::Write)].into_iter().collect();
        assert!(single.is_sorted());
        assert_eq!(single.len(), 1);
    }

    #[test]
    fn write_count() {
        let t: Trace =
            [r(0, 0, 0, RefKind::Read), r(1, 0, 0, RefKind::Write), r(2, 1, 4, RefKind::Write)]
                .into_iter()
                .collect();
        assert_eq!(t.write_count(), 2);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn write_count_matches_refkind_partition() {
        // write_count + read count must always equal len, and must agree
        // with a direct RefKind scan.
        let t: Trace = (0..32)
            .map(|i| {
                r(i, i as u32 % 4, (i as u32 % 8) * 2, {
                    if i % 3 == 0 {
                        RefKind::Write
                    } else {
                        RefKind::Read
                    }
                })
            })
            .collect();
        let writes = t.refs().iter().filter(|r| r.kind == RefKind::Write).count();
        let reads = t.refs().iter().filter(|r| r.kind == RefKind::Read).count();
        assert_eq!(t.write_count(), writes);
        assert_eq!(writes + reads, t.len());
    }

    #[test]
    fn merger_breaks_same_time_ties_by_push_order() {
        let mut m = TraceMerger::new(3, 0);
        m.push(r(5, 2, 0, RefKind::Read));
        m.push(r(5, 0, 4, RefKind::Read));
        m.push(r(3, 1, 8, RefKind::Write));
        m.advance(4);
        m.push(r(5, 1, 12, RefKind::Read));
        m.push(r(6, 0, 16, RefKind::Read));
        let t = m.finish();
        let addrs: Vec<u32> = t.refs().iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![8, 0, 4, 12, 16]);
    }

    #[test]
    fn merger_releases_only_up_to_the_key() {
        let mut m = TraceMerger::new(2, 0);
        m.push(r(1, 0, 0, RefKind::Read));
        m.push(r(9, 0, 4, RefKind::Read));
        m.push(r(2, 1, 8, RefKind::Read));
        m.advance(2);
        assert_eq!(m.out.len(), 2);
        m.advance(8);
        assert_eq!(m.out.len(), 2);
        assert_eq!(m.finish().len(), 3);
    }

    #[test]
    #[should_panic(expected = "released out of order")]
    fn merger_rejects_a_push_before_the_last_key() {
        let mut m = TraceMerger::new(2, 0);
        m.push(r(10, 0, 0, RefKind::Read));
        m.advance(10);
        m.push(r(9, 1, 4, RefKind::Read));
    }

    #[test]
    #[should_panic(expected = "went back in time")]
    fn merger_rejects_a_processor_going_back_in_time() {
        let mut m = TraceMerger::new(2, 0);
        m.push(r(10, 0, 0, RefKind::Read));
        m.push(r(9, 0, 4, RefKind::Read));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn merger_rejects_an_unknown_processor() {
        let mut m = TraceMerger::new(2, 0);
        m.push(r(0, 2, 0, RefKind::Read));
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let plain = MemRef::new(10, 1, 4, RefKind::Read);
        assert_eq!(plain.epoch, 0);
        assert_eq!(plain.wire, MemRef::NO_WIRE);
        assert_eq!(plain.delta, 0);
        assert_eq!(plain.crit, Criticality::Background);
        assert!(!plain.is_critical());
        let full = plain
            .with_epoch(3)
            .with_wire(17)
            .with_delta(-1)
            .with_criticality(Criticality::Critical);
        assert_eq!(full.epoch, 3);
        assert_eq!(full.wire, 17);
        assert_eq!(full.delta, -1);
        assert!(full.is_critical());
        // Builders leave the base triple untouched.
        assert_eq!((full.time, full.proc, full.addr, full.kind), (10, 1, 4, RefKind::Read));
    }
}

//! The benchmark's own spans around every layer call.
//!
//! Spans are recorded only when tracing is on. They stay in memory and
//! are written out when the run ends. Whether tracing or not, the meter
//! times every outermost layer call, so a run can take each call's median
//! over its passes. A span's layer is its name up to
//! the first `.` (`analysis.detect` → `analysis`); the benchmark's own
//! wrapper spans (`pass`, `cell`) belong to the `bench` layer, whose self
//! time is the checking and bookkeeping between layer calls.

use std::collections::BTreeMap;

/// A monotonic clock. Binaries supply a wall clock; tests can supply a
/// fake one, so the library stays deterministic.
pub trait Clock {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&self) -> u64;
}

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span name, `<layer>.<call>` or a benchmark wrapper name.
    pub name: String,
    /// Cell id (circuit and call) the span belongs to; empty for the pass.
    pub cell: String,
    /// Pass index within the run.
    pub pass: usize,
    /// Start, clock nanoseconds.
    pub start_ns: u64,
    /// End, clock nanoseconds.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Meter::spans`].
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer the span is attributed to.
    pub fn layer(&self) -> &str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "bench",
        }
    }
}

/// Times layer calls and, when tracing, records them as spans.
pub struct Meter<'c> {
    clock: &'c dyn Clock,
    tracing: bool,
    pass: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
    in_call: bool,
    calls: Vec<u64>,
}

impl<'c> Meter<'c> {
    /// A meter reading `clock`; spans are kept only when `tracing`.
    pub fn new(clock: &'c dyn Clock, tracing: bool) -> Self {
        Meter {
            clock,
            tracing,
            pass: 0,
            open: Vec::new(),
            spans: Vec::new(),
            in_call: false,
            calls: Vec::new(),
        }
    }

    /// The clock, for timing outside spans.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Whether spans are being recorded.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Switches span recording on or off for the passes that follow.
    pub fn set_tracing(&mut self, on: bool, pass: usize) {
        self.tracing = on;
        self.pass = pass;
    }

    /// Runs `f` inside a span named `name` for `cell`. A layer call (a
    /// name with a `.`) not nested in another is also timed for
    /// [`Meter::take_calls`].
    pub fn span<T>(&mut self, name: &str, cell: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let call = !self.in_call && name.contains('.');
        if !self.tracing && !call {
            return f(self);
        }
        let start_ns = self.clock.now_ns();
        let idx = self.tracing.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                cell: cell.to_string(),
                pass: self.pass,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        self.in_call |= call;
        let out = f(self);
        let end_ns = self.clock.now_ns();
        if call {
            self.in_call = false;
            self.calls.push(end_ns.saturating_sub(start_ns));
        }
        if let Some(idx) = idx {
            self.open.pop();
            self.spans[idx].end_ns = end_ns;
        }
        out
    }

    /// Durations in nanoseconds of the outermost layer calls made since
    /// the last take, in call order.
    pub fn take_calls(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.calls)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-pass totals: summed duration per span name and self time per
/// layer, both in seconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassTimes {
    /// Summed span duration by span name.
    pub by_name: BTreeMap<String, f64>,
    /// Self time (duration minus time covered by child spans) by layer.
    pub self_by_layer: BTreeMap<String, f64>,
}

/// Aggregates the spans of pass `pass`.
pub fn pass_times(spans: &[Span], pass: usize) -> PassTimes {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.pass == pass) {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut t = PassTimes::default();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.pass == pass) {
        *t.by_name.entry(s.name.clone()).or_default() += s.dur_ns() as f64 / 1e9;
        let self_ns = s.dur_ns().saturating_sub(child_ns[i]);
        *t.self_by_layer.entry(s.layer().to_string()).or_default() += self_ns as f64 / 1e9;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Advances 10 ns per read.
    struct Ticks(Cell<u64>);

    impl Clock for Ticks {
        fn now_ns(&self) -> u64 {
            let t = self.0.get();
            self.0.set(t + 10);
            t
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let clock = Ticks(Cell::new(0));
        let mut m = Meter::new(&clock, true);
        m.span("pass", "", |m| {
            m.span("shmem.emul", "a", |_| ());
            m.span("analysis.detect", "a", |m| m.span("router.seq", "a", |_| ()));
        });
        let spans = m.spans().to_vec();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].parent, Some(2));
        let t = pass_times(&spans, 0);
        // pass: 0..70, emul 10..20, detect 30..60, seq 40..50.
        assert!((t.by_name["pass"] - 70e-9).abs() < 1e-15);
        assert!((t.self_by_layer["bench"] - 30e-9).abs() < 1e-15);
        assert!((t.self_by_layer["analysis"] - 20e-9).abs() < 1e-15);
        assert!((t.self_by_layer["router"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn untraced_meter_records_nothing() {
        let clock = Ticks(Cell::new(0));
        let mut m = Meter::new(&clock, false);
        let v = m.span("shmem.emul", "a", |_| 7);
        assert_eq!(v, 7);
        assert!(m.spans().is_empty());
    }

    #[test]
    fn outermost_layer_calls_are_timed_without_tracing() {
        let clock = Ticks(Cell::new(0));
        let mut m = Meter::new(&clock, false);
        m.span("pass", "", |m| {
            m.span("shmem.emul", "a", |_| ());
            m.span("analysis.detect", "a", |m| m.span("router.seq", "a", |_| ()));
        });
        // emul 0..10; detect 20..30 (its nested call is not read).
        assert_eq!(m.take_calls(), vec![10, 10]);
        assert!(m.take_calls().is_empty());
        assert!(m.spans().is_empty());
    }
}

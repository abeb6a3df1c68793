//! Deterministic service-queue arbitration with optional criticality-aware
//! priority — the latency/contention pricing layer the pluggable memory
//! backends (`locus-coherence`) charge their messages through.
//!
//! The mesh [`Kernel`](crate::kernel::Kernel) models wormhole channel
//! blocking for the message-passing router; the memory-system backends
//! need a different, simpler resource model: a shared *service point* (the
//! snooping bus, a directory home node, an LLC home tile) that serves one
//! request at a time. Backends log every request they price —
//! `(resource, proc, arrival, service time, criticality)` — into an
//! [`Arbiter`] while replaying a trace, then [`Arbiter::resolve`] replays
//! the request log under both [`ServicePolicy`]s:
//!
//! * [`ServicePolicy::Fifo`] — requests are granted in arrival order (the
//!   classic bus arbiter);
//! * [`ServicePolicy::CriticalFirst`] — at every grant instant, queued
//!   **critical** requests (rip-up/commit stores that gate a route
//!   decision) are serviced before queued background requests
//!   (speculative candidate-sweep loads), in the spirit of
//!   criticality-aware memory scheduling (arXiv:1606.05933).
//!
//! Resolving is deterministic: the same log always produces the same
//! grant schedules, and both policies are resolved from one log so a study
//! can report the FIFO-vs-priority delta on identical traffic.
//!
//! ## Cost
//!
//! For `n` logged requests:
//!
//! * [`Arbiter::push`] files each request into its resource's bucket as a
//!   24-byte record (the resource is the bucket, so it is not stored);
//!   the resource → bucket lookup is a [`PagedTable`], O(1) for any `u32`
//!   id. There is no global log and no second copy of it.
//! * Each bucket is brought into stable arrival order once. `push` keeps
//!   it ordered by inserting a late arrival after the last request that
//!   arrived no later, scanning back at most 32 records — a time-ordered
//!   trace's requests land at most a few places out of order. A request
//!   further out marks the bucket for one stable sort at resolve time
//!   instead, so the worst case (e.g. a reverse-ordered log) is
//!   O(n log n), never quadratic.
//! * [`Arbiter::resolve`] serves both policies from the same ordered
//!   bucket:
//!   * FIFO is a queue-free walk, `grant = max(free_at, arrival)`;
//!   * critical-first keeps its two FIFO queues (critical, background)
//!     as two cursors into the sorted bucket: within a class, requests
//!     are granted in arrival order, so each class's queue is the run of
//!     admitted requests from its cursor on. Both cursors only advance.
//!
//!   Resolving both policies is therefore O(n log n) in the worst case and
//!   O(n) on sorted input, with no allocation beyond the outputs.

use crate::paged::PagedTable;

/// How queued requests are granted the service point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServicePolicy {
    /// Grant strictly in arrival order.
    Fifo,
    /// Grant queued critical requests first (FIFO within each class).
    CriticalFirst,
}

impl ServicePolicy {
    /// Short stable name (used by reports).
    pub fn name(&self) -> &'static str {
        match self {
            ServicePolicy::Fifo => "fifo",
            ServicePolicy::CriticalFirst => "critical-first",
        }
    }
}

/// One priced request for a service point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceRequest {
    /// The contended resource (bus = 0, or a home node/tile id).
    pub resource: u32,
    /// Requesting processor (indexes per-proc wait accounting).
    pub proc: u32,
    /// When the request reaches the service point (ns).
    pub arrive_ns: u64,
    /// How long the service point is busy with it (ns).
    pub service_ns: u64,
    /// Whether the requester is blocked on the result (rip-up/commit
    /// stores) rather than streaming speculative reads.
    pub critical: bool,
}

/// Wait accounting for one request class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Requests granted.
    pub requests: u64,
    /// Total queueing delay (grant − arrival) across them (ns).
    pub total_wait_ns: u64,
    /// Largest single queueing delay (ns).
    pub max_wait_ns: u64,
}

impl WaitStats {
    fn record(&mut self, wait_ns: u64) {
        self.requests += 1;
        self.total_wait_ns = self.total_wait_ns.saturating_add(wait_ns);
        self.max_wait_ns = self.max_wait_ns.max(wait_ns);
    }

    /// Mean queueing delay in ns (0 when no requests).
    pub fn mean_wait_ns(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_wait_ns as f64 / self.requests as f64
        }
    }
}

/// The grant schedule statistics of one policy over one request log.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResolvedContention {
    /// Waits of requests flagged critical.
    pub critical: WaitStats,
    /// Waits of background requests.
    pub background: WaitStats,
    /// Total queueing delay charged to each processor (ns).
    pub per_proc_wait_ns: Vec<u64>,
    /// Total busy time across all service points (ns).
    pub busy_ns: u64,
    /// Completion time of the last grant (ns).
    pub makespan_ns: u64,
}

impl ResolvedContention {
    /// Waits over both classes combined.
    pub fn all(&self) -> WaitStats {
        WaitStats {
            requests: self.critical.requests + self.background.requests,
            total_wait_ns: self
                .critical
                .total_wait_ns
                .saturating_add(self.background.total_wait_ns),
            max_wait_ns: self.critical.max_wait_ns.max(self.background.max_wait_ns),
        }
    }

    /// An empty schedule with wait accounting for `n_procs` processors.
    fn for_procs(n_procs: usize) -> Self {
        ResolvedContention { per_proc_wait_ns: vec![0; n_procs], ..ResolvedContention::default() }
    }

    /// Grants `q` at `now` (≥ its arrival) and returns when the service
    /// point frees up again.
    #[inline]
    fn grant(&mut self, q: &Queued, now: u64) -> u64 {
        let wait = now - q.arrive_ns;
        if q.critical {
            self.critical.record(wait);
        } else {
            self.background.record(wait);
        }
        let proc_wait = &mut self.per_proc_wait_ns[q.proc as usize];
        *proc_wait = proc_wait.saturating_add(wait);
        self.busy_ns = self.busy_ns.saturating_add(q.service_ns);
        let free_at = now + q.service_ns;
        self.makespan_ns = self.makespan_ns.max(free_at);
        free_at
    }
}

/// Both policies' grant schedules over one request log.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Resolution {
    /// Grants in arrival order.
    pub fifo: ResolvedContention,
    /// Queued critical requests granted first.
    pub critical_first: ResolvedContention,
}

/// A logged request within its resource's bucket (24 bytes).
#[derive(Clone, Copy, Debug)]
struct Queued {
    arrive_ns: u64,
    service_ns: u64,
    proc: u32,
    critical: bool,
}

/// How far back [`Arbiter::push`] scans to keep a bucket in arrival
/// order. Requests from a time-ordered trace land at most a few places
/// out of order (mesh flight times differ by a few hops); a request
/// further out leaves its bucket to one stable sort at resolve time.
const MAX_BACKSCAN: usize = 32;

/// One resource's requests.
#[derive(Clone, Debug)]
struct Bucket {
    log: Vec<Queued>,
    /// Whether `log` is in stable arrival order (ties in log order).
    sorted: bool,
}

impl Bucket {
    /// Appends `q`, or inserts it after the last request that arrived no
    /// later, if that one is within [`MAX_BACKSCAN`] of the end.
    #[inline]
    fn insert(&mut self, q: Queued) {
        let log = &mut self.log;
        match log.last() {
            Some(last) if self.sorted && last.arrive_ns > q.arrive_ns => {
                let floor = log.len().saturating_sub(MAX_BACKSCAN);
                let mut pos = log.len() - 1;
                while pos > floor && log[pos - 1].arrive_ns > q.arrive_ns {
                    pos -= 1;
                }
                if pos == 0 || log[pos - 1].arrive_ns <= q.arrive_ns {
                    log.insert(pos, q);
                } else {
                    self.sorted = false;
                    log.push(q);
                }
            }
            _ => log.push(q),
        }
    }

    /// The log in stable arrival order. Requests appended after the
    /// bucket fell out of order follow, in log order, everything logged
    /// before them, so one stable sort restores the exact order.
    fn arrival_order(&mut self) -> &[Queued] {
        if !self.sorted {
            self.log.sort_by_key(|q| q.arrive_ns);
            self.sorted = true;
        }
        &self.log
    }
}

/// A request log, bucketed by resource, plus the machinery to replay it;
/// see [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct Arbiter {
    /// Bucket index + 1 of each resource id (0: not seen yet).
    slot: PagedTable<u32>,
    /// Each resource's requests, resources in first-seen order.
    buckets: Vec<Bucket>,
    /// One more than the largest processor id logged.
    n_procs: usize,
}

impl Arbiter {
    /// Creates an empty request log.
    pub fn new() -> Self {
        Arbiter::default()
    }

    /// Logs one request.
    #[inline]
    pub fn push(&mut self, req: ServiceRequest) {
        let slot = self.slot.entry(req.resource);
        if *slot == 0 {
            self.buckets.push(Bucket { log: Vec::new(), sorted: true });
            *slot = self.buckets.len() as u32;
        }
        self.buckets[*slot as usize - 1].insert(Queued {
            arrive_ns: req.arrive_ns,
            service_ns: req.service_ns,
            proc: req.proc,
            critical: req.critical,
        });
        self.n_procs = self.n_procs.max(req.proc as usize + 1);
    }

    /// Requests logged so far.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.log.len()).sum()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Replays the log under both policies and returns their wait
    /// accounting.
    ///
    /// Each resource serves one request at a time, non-preemptively.
    /// Whenever the resource frees up (or sits idle until the next
    /// arrival), the policy picks the next queued request; ties keep log
    /// order, so resolution is deterministic regardless of equal
    /// timestamps.
    pub fn resolve(mut self) -> Resolution {
        let empty = ResolvedContention::for_procs(self.n_procs);
        let mut out = Resolution { fifo: empty.clone(), critical_first: empty };
        for bucket in &mut self.buckets {
            let log = bucket.arrival_order();
            serve_fifo(log, &mut out.fifo);
            serve_critical_first(log, &mut out.critical_first);
        }
        out
    }
}

/// FIFO over one arrival-ordered bucket: each request is granted as soon
/// as both it and the service point are there.
fn serve_fifo(bucket: &[Queued], out: &mut ResolvedContention) {
    let mut free_at = 0u64;
    for q in bucket {
        free_at = out.grant(q, free_at.max(q.arrive_ns));
    }
}

/// Critical-first over one arrival-ordered bucket. Requests before
/// `admitted` have arrived by `now`; each class's queue is its ungranted
/// admitted requests, which start at that class's cursor because a class
/// is granted in arrival order.
fn serve_critical_first(bucket: &[Queued], out: &mut ResolvedContention) {
    let n = bucket.len();
    let next_of = |from: usize, critical: bool| {
        (from..n).find(|&i| bucket[i].critical == critical).unwrap_or(n)
    };
    let (mut crit, mut back) = (next_of(0, true), next_of(0, false));
    let (mut admitted, mut now) = (0usize, 0u64);
    while crit < n || back < n {
        if crit >= admitted && back >= admitted {
            // Both queues empty: idle until the next arrival.
            now = now.max(bucket[admitted].arrive_ns);
        }
        while admitted < n && bucket[admitted].arrive_ns <= now {
            admitted += 1;
        }
        if crit < admitted {
            now = out.grant(&bucket[crit], now);
            crit = next_of(crit + 1, true);
        } else {
            now = out.grant(&bucket[back], now);
            back = next_of(back + 1, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(resource: u32, proc: u32, arrive: u64, service: u64, critical: bool) -> ServiceRequest {
        ServiceRequest { resource, proc, arrive_ns: arrive, service_ns: service, critical }
    }

    fn log(reqs: &[ServiceRequest]) -> Arbiter {
        let mut a = Arbiter::new();
        for &r in reqs {
            a.push(r);
        }
        a
    }

    #[test]
    fn uncontended_requests_never_wait() {
        let r = log(&[req(0, 0, 0, 100, false), req(0, 1, 1_000, 100, true)]).resolve();
        for r in [r.fifo, r.critical_first] {
            assert_eq!(r.all().total_wait_ns, 0);
            assert_eq!(r.busy_ns, 200);
            assert_eq!(r.makespan_ns, 1_100);
        }
    }

    #[test]
    fn fifo_waits_accumulate_in_arrival_order() {
        let r =
            log(&[req(0, 0, 0, 100, false), req(0, 1, 10, 100, false), req(0, 2, 20, 100, false)])
                .resolve()
                .fifo;
        // Grants at 0, 100, 200 → waits 0, 90, 180.
        assert_eq!(r.background.total_wait_ns, 270);
        assert_eq!(r.background.max_wait_ns, 180);
        assert_eq!(r.per_proc_wait_ns, vec![0, 90, 180]);
    }

    #[test]
    fn fifo_orders_by_arrival_not_log_order() {
        // Logged out of order: the later arrival must not be served first.
        let r = log(&[req(0, 0, 50, 100, false), req(0, 1, 0, 100, false)]).resolve().fifo;
        assert_eq!(r.per_proc_wait_ns, vec![50, 0]);
    }

    #[test]
    fn critical_first_overtakes_queued_background() {
        let Resolution { fifo, critical_first: prio } = log(&[
            req(0, 0, 0, 100, false),  // in service at t=0
            req(0, 1, 10, 100, false), // queued
            req(0, 2, 20, 100, true),  // critical, queued behind it
        ])
        .resolve();
        // FIFO: critical granted at 200 (wait 180). Priority: at 100 (wait 80).
        assert_eq!(fifo.critical.total_wait_ns, 180);
        assert_eq!(prio.critical.total_wait_ns, 80);
        assert!(prio.critical.total_wait_ns < fifo.critical.total_wait_ns);
        // Conservation: total wait only shifts between classes.
        assert_eq!(
            fifo.all().total_wait_ns,
            prio.all().total_wait_ns,
            "equal service times make total wait policy-invariant"
        );
        assert_eq!(fifo.busy_ns, prio.busy_ns);
        assert_eq!(fifo.makespan_ns, prio.makespan_ns);
    }

    #[test]
    fn in_service_requests_are_not_preempted() {
        let prio = log(&[
            req(0, 0, 0, 1_000, false), // long background in service
            req(0, 1, 1, 10, true),     // critical arrives just after
        ])
        .resolve()
        .critical_first;
        // Non-preemptive: the critical request still waits out the grant.
        assert_eq!(prio.critical.total_wait_ns, 999);
    }

    #[test]
    fn resources_are_independent() {
        let r = log(&[req(0, 0, 0, 100, false), req(1, 1, 0, 100, false)]).resolve().fifo;
        assert_eq!(r.all().total_wait_ns, 0, "different resources never queue on each other");
        assert_eq!(r.busy_ns, 200);
        assert_eq!(r.makespan_ns, 100);
    }

    #[test]
    fn resolve_is_deterministic() {
        let mut a = Arbiter::new();
        for i in 0..50u64 {
            a.push(req((i % 3) as u32, (i % 4) as u32, i * 7 % 40, 25, i % 5 == 0));
        }
        assert_eq!(a.len(), 50);
        let x = a.clone().resolve();
        assert_eq!(x, a.resolve());
        assert_eq!(x.fifo.all().requests, 50);
        assert_eq!(x.critical_first.all().requests, 50);
    }

    #[test]
    fn empty_log_resolves_to_empty_schedules() {
        let a = Arbiter::new();
        assert!(a.is_empty());
        assert_eq!(a.resolve(), Resolution::default());
    }

    #[test]
    fn queued_request_records_stay_compact() {
        assert!(std::mem::size_of::<Queued>() <= 24);
    }

    #[test]
    fn mean_wait_handles_empty_class() {
        let stats = WaitStats::default();
        assert_eq!(stats.mean_wait_ns(), 0.0);
    }
}

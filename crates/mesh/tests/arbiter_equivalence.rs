//! The bucketed [`Arbiter::resolve`] against a reference copy of the
//! original per-policy loop (group by resource with a linear search,
//! stable-sort indices by arrival, then serve from one queue with
//! `Vec::remove`), compared field by field: the critical/background split,
//! `max_wait_ns`, `per_proc_wait_ns`, `busy_ns` and `makespan_ns`, for
//! both policies.

use std::time::{Duration, Instant};

use locus_mesh::{Arbiter, ResolvedContention, ServicePolicy, ServiceRequest, WaitStats};
use proptest::prelude::*;

fn record(stats: &mut WaitStats, wait_ns: u64) {
    stats.requests += 1;
    stats.total_wait_ns = stats.total_wait_ns.saturating_add(wait_ns);
    stats.max_wait_ns = stats.max_wait_ns.max(wait_ns);
}

/// The original resolve loop, kept as the specification.
fn reference_resolve(requests: &[ServiceRequest], policy: ServicePolicy) -> ResolvedContention {
    let n_procs = requests.iter().map(|r| r.proc as usize + 1).max().unwrap_or(0);
    let mut out =
        ResolvedContention { per_proc_wait_ns: vec![0; n_procs], ..ResolvedContention::default() };

    let mut by_resource: Vec<(u32, Vec<usize>)> = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        match by_resource.iter_mut().find(|(res, _)| *res == r.resource) {
            Some((_, v)) => v.push(i),
            None => by_resource.push((r.resource, vec![i])),
        }
    }

    for (_, idxs) in &mut by_resource {
        idxs.sort_by_key(|&i| requests[i].arrive_ns);
        let mut queue: Vec<usize> = Vec::new();
        let mut next = 0usize;
        let mut now = 0u64;
        while next < idxs.len() || !queue.is_empty() {
            if queue.is_empty() {
                now = now.max(requests[idxs[next]].arrive_ns);
            }
            while next < idxs.len() && requests[idxs[next]].arrive_ns <= now {
                queue.push(idxs[next]);
                next += 1;
            }
            let pick_pos = match policy {
                ServicePolicy::Fifo => 0,
                ServicePolicy::CriticalFirst => {
                    queue.iter().position(|&i| requests[i].critical).unwrap_or(0)
                }
            };
            let i = queue.remove(pick_pos);
            let r = &requests[i];
            let wait = now - r.arrive_ns;
            if r.critical {
                record(&mut out.critical, wait);
            } else {
                record(&mut out.background, wait);
            }
            out.per_proc_wait_ns[r.proc as usize] =
                out.per_proc_wait_ns[r.proc as usize].saturating_add(wait);
            out.busy_ns = out.busy_ns.saturating_add(r.service_ns);
            now += r.service_ns;
            out.makespan_ns = out.makespan_ns.max(now);
        }
    }
    out
}

fn resolve_both(requests: &[ServiceRequest]) -> (ResolvedContention, ResolvedContention) {
    let mut arb = Arbiter::new();
    for &r in requests {
        arb.push(r);
    }
    assert_eq!(arb.len(), requests.len());
    let resolved = arb.resolve();
    (resolved.fifo, resolved.critical_first)
}

fn assert_matches_reference(requests: &[ServiceRequest]) {
    let (fifo, critical_first) = resolve_both(requests);
    assert_eq!(fifo, reference_resolve(requests, ServicePolicy::Fifo), "fifo");
    assert_eq!(
        critical_first,
        reference_resolve(requests, ServicePolicy::CriticalFirst),
        "critical-first"
    );
}

/// Resource ids for one log: a single resource, a few, many, or sparse
/// ids scattered over the whole `u32` range (including `u32::MAX`).
fn resource_for(mode: u32, raw: u32) -> u32 {
    match mode {
        0 => 0,
        1 => raw % 4,
        2 => raw % 512,
        _ => [u32::MAX, u32::MAX - 1, 1 << 31, 7, raw][raw as usize % 5],
    }
}

type RawRequest = (u32, u32, u64, u64, bool);

fn raw_log() -> impl Strategy<Value = Vec<RawRequest>> {
    // Arrivals drawn from a narrow window: logs are unsorted, with many
    // equal timestamps and deep queues.
    proptest::collection::vec(
        (any::<u32>(), 0u32..20, 0u64..2_000, 0u64..120, any::<bool>()),
        0..160,
    )
}

/// How a log's arrivals are ordered: as drawn, sorted (as a replayed
/// trace logs them), or sorted and then shifted by a small per-request
/// flight time (as the mesh-priced backends log them: a few places out of
/// order, the case `push` keeps ordered by insertion).
fn build_log(mode: u32, order: u32, raw: &[RawRequest]) -> Vec<ServiceRequest> {
    let mut log: Vec<ServiceRequest> = raw
        .iter()
        .map(|&(res, proc, arrive_ns, service_ns, critical)| ServiceRequest {
            resource: resource_for(mode, res),
            proc,
            arrive_ns,
            service_ns,
            critical,
        })
        .collect();
    if order > 0 {
        log.sort_by_key(|r| r.arrive_ns);
    }
    if order > 1 {
        for r in &mut log {
            r.arrive_ns += u64::from(r.proc % 7) * 15;
        }
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3_000))]

    #[test]
    fn bucketed_resolve_matches_the_reference_loop(
        mode in 0u32..3,
        order in 0u32..3,
        raw in raw_log(),
    ) {
        assert_matches_reference(&build_log(mode, order, &raw));
    }
}

proptest! {
    // Fewer cases: each log here spans the whole `u32` id range, so each
    // builds a full-size (zeroed) page directory in the arbiter.
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn bucketed_resolve_matches_the_reference_loop_on_sparse_and_huge_ids(
        order in 0u32..3,
        raw in raw_log(),
    ) {
        assert_matches_reference(&build_log(3, order, &raw));
    }
}

#[test]
fn empty_log_matches_the_reference() {
    assert_matches_reference(&[]);
    let (fifo, critical_first) = resolve_both(&[]);
    assert_eq!(fifo, ResolvedContention::default());
    assert_eq!(critical_first, ResolvedContention::default());
}

#[test]
fn equal_timestamps_keep_log_order_within_a_class() {
    let req = |proc, critical| ServiceRequest {
        resource: u32::MAX,
        proc,
        arrive_ns: 5,
        service_ns: 10,
        critical,
    };
    let log = [req(0, false), req(1, true), req(2, false), req(3, true)];
    assert_matches_reference(&log);
    let (fifo, critical_first) = resolve_both(&log);
    assert_eq!(fifo.per_proc_wait_ns, vec![0, 10, 20, 30]);
    // Critical-first: all four are queued at t=5, so both criticals go
    // first, then the background requests, each class in log order.
    assert_eq!(critical_first.per_proc_wait_ns, vec![20, 0, 30, 10]);
}

#[test]
fn late_arrivals_around_the_backscan_window_match_the_reference() {
    // A sorted run, then one request that belongs `back` places before
    // the end (arriving together with the request before those, or just
    // after it), then more sorted requests: inside the push back-scan
    // window it is inserted in place, beyond it the bucket falls back to
    // one sort.
    let req = |i: u64, critical: bool| ServiceRequest {
        resource: 1,
        proc: (i % 5) as u32,
        arrive_ns: 10 * (i + 1),
        service_ns: 25,
        critical,
    };
    for back in [1u64, 2, 31, 32, 33, 40, 99, 100] {
        for tie in [false, true] {
            let mut log: Vec<ServiceRequest> = (0..100).map(|i| req(i, i % 4 == 0)).collect();
            let arrive_ns = 10 * (100 - back) + if tie { 0 } else { 5 };
            log.push(ServiceRequest { proc: 6, arrive_ns, critical: true, ..req(0, true) });
            log.extend((100..120).map(|i| req(i, false)));
            assert_matches_reference(&log);
        }
    }
}

#[test]
fn reverse_ordered_log_of_100k_requests_resolves_in_n_log_n() {
    // One resource, logged latest-first: arrivals every 10 ns, each
    // served for 20 ns, so the queue grows without bound and request k
    // (in arrival order) is granted at 20k under FIFO. Every third
    // request is critical. An ordering step that is quadratic on
    // reverse-ordered input takes minutes here.
    const N: u64 = 100_000;
    let mut arb = Arbiter::new();
    for k in (0..N).rev() {
        arb.push(ServiceRequest {
            resource: 3,
            proc: (k % 8) as u32,
            arrive_ns: 10 * k,
            service_ns: 20,
            critical: k % 3 == 0,
        });
    }
    let start = Instant::now();
    let resolved = arb.resolve();
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(20), "resolve took {elapsed:?}");

    let fifo = &resolved.fifo;
    let all = fifo.all();
    assert_eq!(all.requests, N);
    assert_eq!(all.total_wait_ns, 10 * N * (N - 1) / 2);
    assert_eq!(all.max_wait_ns, 10 * (N - 1));
    assert_eq!(fifo.busy_ns, 20 * N);
    assert_eq!(fifo.makespan_ns, 20 * N);

    // Equal service times: the grant instants are the same under both
    // policies, so total wait, busy time and makespan are too; priority
    // only moves wait from the critical to the background class.
    let prio = &resolved.critical_first;
    assert_eq!(prio.all().total_wait_ns, all.total_wait_ns);
    assert_eq!(prio.busy_ns, fifo.busy_ns);
    assert_eq!(prio.makespan_ns, fifo.makespan_ns);
    assert_eq!(prio.critical.requests, fifo.critical.requests);
    assert!(prio.critical.total_wait_ns < fifo.critical.total_wait_ns);
}

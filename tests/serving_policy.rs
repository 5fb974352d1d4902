//! The serving policy under overload, on the virtual clock: the batcher
//! the wall server runs, driven by seeded arrivals and a priced service
//! time, so a 10 000-request overload is deterministic and takes
//! milliseconds instead of a wall-clock smoke.

use std::time::Duration;

use duet_serve::{poisson_arrivals, serve_virtual, ServeConfig, VirtualReport};

const REQUESTS: usize = 10_000;
/// Per-request SLA.
const SLA_US: f64 = 1_500.0;

/// A batch of `k` costs a fixed 600 µs plus 50 µs per request: a full
/// batch of 8 serves 8 requests per millisecond.
fn service_us(k: usize) -> f64 {
    600.0 + 50.0 * k as f64
}

fn overload(seed: u64) -> VirtualReport {
    let cfg = ServeConfig {
        queue_cap: 16,
        ..ServeConfig::default()
    };
    let capacity_qps = cfg.max_batch as f64 / service_us(cfg.max_batch) * 1e6;
    let arrivals = poisson_arrivals(3.0 * capacity_qps, seed)
        .take(REQUESTS)
        .map(|at| (at, at + SLA_US));
    serve_virtual(arrivals, service_us, &cfg)
}

/// At three times capacity with a 16-deep queue and a 1.5 ms SLA, every
/// offered request ends as exactly one of completed, expired or shed, so
/// nothing is left queued; and a request that completes began executing
/// before its deadline.
#[test]
fn every_request_under_overload_gets_exactly_one_outcome() {
    let r = overload(1);
    // Each outcome is counted once, so any request still queued or held
    // at the end would leave the sum short.
    let (completed, expired, shed) = (r.sojourn.count(), r.expired, r.shed);
    assert_eq!(
        completed + expired + shed,
        REQUESTS,
        "{completed} {expired} {shed}"
    );
    assert!(
        completed > 0 && expired > 0 && shed > 0,
        "{completed} {expired} {shed}"
    );
    // Admission and expiry bound the tail: a completed request's run began
    // before its deadline, and the costliest run is 7 requests in chunks
    // of 4, 2 and 1.
    let worst_us = SLA_US + [4, 2, 1].map(service_us).iter().sum::<f64>();
    assert!(
        r.sojourn.max() <= worst_us,
        "{} > {worst_us}",
        r.sojourn.max()
    );
    // Overload keeps the server busy on batches that stay large even
    // with expired requests taking some of their places.
    assert!(r.mean_batch > 4.0, "mean batch {}", r.mean_batch);
    assert!(r.utilization > 0.95, "utilization {}", r.utilization);
    let capacity_qps = 8.0 / service_us(8) * 1e6;
    assert!(
        r.throughput_qps <= capacity_qps * 1.001,
        "{}",
        r.throughput_qps
    );
}

#[test]
fn overload_is_deterministic_per_seed() {
    let outcomes = |r: &VirtualReport| (r.sojourn.count(), r.expired, r.shed);
    let (a, b, c) = (overload(7), overload(7), overload(8));
    assert_eq!(outcomes(&a), outcomes(&b));
    assert_eq!(a.sojourn.p99().to_bits(), b.sojourn.p99().to_bits());
    assert_ne!(
        outcomes(&a),
        outcomes(&c),
        "another seed draws other arrivals"
    );
}

/// Under light load the policy sheds nothing, and a request after a
/// quiet spell runs at once: the median sojourn is one batch-1 service,
/// not a linger window on top of it.
#[test]
fn light_load_runs_lone_requests_at_once() {
    let cfg = ServeConfig {
        linger: Duration::from_millis(2),
        ..ServeConfig::default()
    };
    let arrivals = poisson_arrivals(25.0, 1)
        .take(1000)
        .map(|at| (at, f64::INFINITY));
    let r = serve_virtual(arrivals, service_us, &cfg);
    assert_eq!((r.sojourn.count(), r.expired, r.shed), (1000, 0, 0));
    assert!(
        (r.sojourn.p50() - service_us(1)).abs() < 1e-6,
        "{}",
        r.sojourn.p50()
    );
}

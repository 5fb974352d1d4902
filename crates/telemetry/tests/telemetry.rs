//! Integration tests: concurrent exactness, Prometheus golden format,
//! span-ring wraparound. Global-registry statics are shared across the
//! test process, so format tests use *local* metric instances and only
//! presence (never values) is asserted on the global rendering.

use duet_telemetry::metric::{Counter, Gauge, Histogram};
use duet_telemetry::{render_prometheus, SpanKind, SpanRing};

#[test]
fn concurrent_counter_and_histogram_are_exact() {
    static C: Counter = Counter::new("t_concurrent_total", "test");
    static H: Histogram = Histogram::new("t_concurrent_us", "test");
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    C.inc();
                    H.observe(t as u64 * PER_THREAD + i);
                }
            });
        }
    });
    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(C.get(), total);
    assert_eq!(H.count(), total);
    // Sum of 0..80000.
    assert_eq!(H.sum(), total * (total - 1) / 2);
    let bucketed: u64 = H.nonzero_buckets().iter().map(|&(_, n)| n).sum();
    assert_eq!(bucketed, total);
}

#[test]
fn prometheus_rendering_matches_golden() {
    static REQS_A: Counter = Counter::with_label("t_requests_total", "Requests", "code", "200");
    static REQS_B: Counter = Counter::with_label("t_requests_total", "Requests", "code", "500");
    static DEPTH: Gauge = Gauge::new("t_depth", "Queue depth");
    static LAT: Histogram = Histogram::new("t_latency_us", "Latency");
    REQS_A.add(3);
    REQS_B.inc();
    DEPTH.set(-2);
    for v in [1u64, 1, 3, 9] {
        LAT.observe(v);
    }
    let text = render_prometheus(&[&REQS_A, &REQS_B], &[&DEPTH], &[&LAT]);
    let golden = "\
# HELP t_requests_total Requests
# TYPE t_requests_total counter
t_requests_total{code=\"200\"} 3
t_requests_total{code=\"500\"} 1
# HELP t_depth Queue depth
# TYPE t_depth gauge
t_depth -2
# HELP t_latency_us Latency
# TYPE t_latency_us histogram
t_latency_us_bucket{le=\"1\"} 2
t_latency_us_bucket{le=\"3\"} 3
t_latency_us_bucket{le=\"15\"} 4
t_latency_us_bucket{le=\"+Inf\"} 4
t_latency_us_sum 14
t_latency_us_count 4
";
    assert_eq!(text, golden);
}

#[test]
fn global_exposition_contains_every_required_family() {
    let text = duet_telemetry::prometheus_text();
    for family in [
        "duet_compile_pass_wall_us_total",
        "duet_profile_samples_total",
        "duet_sched_moves_evaluated_total",
        "duet_sched_moves_accepted_total",
        "duet_sched_predicted_latency_us",
        "duet_tape_runs_total",
        "duet_arena_checkouts_total",
        "duet_serve_batches_total",
        "duet_serve_shed_total",
        "duet_serve_sojourn_us",
        "duet_serve_queue_depth",
        "duet_kernel_pool_regions_total",
        "duet_kernel_pool_chunks_total",
        "duet_kernel_pool_parks_total",
        "duet_kernel_pool_migrations_total",
    ] {
        assert!(text.contains(family), "missing family {family}");
    }
    // Labelled families carry their variants even at zero.
    assert!(text.contains("duet_arena_checkouts_total{result=\"reused\"}"));
    assert!(text.contains("duet_serve_shed_total{reason=\"expired\"}"));
    assert!(text.contains("duet_kernel_pool_regions_total{mode=\"inline\"}"));
    assert!(text.contains("duet_kernel_pool_chunks_total{by=\"worker\"}"));
}

#[test]
fn span_ring_wraps_keeping_newest() {
    let ring = SpanRing::with_capacity(8);
    for i in 0..20u64 {
        ring.record(SpanKind::ExecSubgraph, i, i as f64, 1.0, 0.0, 0.0);
    }
    let spans = ring.collect();
    assert_eq!(spans.len(), 8);
    // The newest 8 survive, oldest first.
    let details: Vec<u64> = spans.iter().map(|s| s.detail).collect();
    assert_eq!(details, (12..20).collect::<Vec<_>>());
    assert!(spans.windows(2).all(|w| w[0].seq < w[1].seq));
    assert_eq!(ring.recorded(), 20);
}

#[test]
fn span_ring_reset_hides_existing_spans() {
    let ring = SpanRing::with_capacity(8);
    ring.record(SpanKind::ExecRun, 1, 0.0, 5.0, 0.0, 0.0);
    ring.reset();
    assert!(ring.collect().is_empty());
    ring.record(SpanKind::ExecRun, 2, 5.0, 5.0, 0.0, 0.0);
    let spans = ring.collect();
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].detail, 2);
}

#[test]
fn concurrent_span_writers_never_produce_torn_reads() {
    let ring = SpanRing::with_capacity(64);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let ring = &ring;
            s.spawn(move || {
                for i in 0..5_000u64 {
                    // Payload fields all derive from detail, so a torn
                    // mix of two writes is detectable.
                    let d = t * 1_000_000 + i;
                    ring.record(SpanKind::ExecSubgraph, d, d as f64, d as f64, d as f64, 0.0);
                }
            });
        }
        let ring = &ring;
        s.spawn(move || {
            for _ in 0..200 {
                for sp in ring.collect() {
                    assert_eq!(sp.start_us, sp.detail as f64, "torn span read");
                    assert_eq!(sp.dur_us, sp.detail as f64, "torn span read");
                }
            }
        });
    });
    assert_eq!(ring.recorded(), 20_000);
}

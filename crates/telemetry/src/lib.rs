//! # duet-telemetry
//!
//! Unified, low-overhead instrumentation for every DUET pipeline stage:
//! compile → profile → schedule → execute → serve.
//!
//! Design contract (what lets this stay on by default):
//!
//! * **Zero heap allocation on the hot path.** Counters and gauges are
//!   single atomics; histograms are fixed arrays of atomics (log2
//!   buckets); spans go into a bounded ring buffer of pre-sized slots.
//!   The `duet-alloc-gate` steady-state budget holds with telemetry
//!   *enabled* — that is a CI gate, not an aspiration.
//! * **Lock-free writers.** Metric updates are relaxed atomic RMWs; span
//!   slots use a per-slot seqlock so readers detect (and skip) torn
//!   writes instead of writers ever blocking.
//! * **Static registration.** Every metric is a `static` declared once
//!   in [`registry`]'s table; the Prometheus exposition walks the lists
//!   that table emits, so a scrape never observes a half-registered or
//!   split family.
//! * **No dependencies.** This crate is a leaf: every other DUET crate
//!   may depend on it without cycles.
//!
//! Two export paths:
//!
//! * [`prometheus_text`] renders the whole registry in Prometheus text
//!   exposition format (`duet-serve --metrics-addr` serves it over HTTP
//!   via [`export::serve_metrics`]; `--metrics-out` dumps it to a file).
//! * [`spans`] drains the span ring for the merged Perfetto timeline
//!   (`duet trace <model> --out <file> --full`), interleaving offline
//!   compile/profile/schedule spans with the runtime witness lanes.
//!   Every span enters the ring through one writer,
//!   [`SpanRing::record`]; the executor's come from the runtime's span
//!   observer, which `Duet::run` composes.
//!
//! Telemetry defaults to **on**; `DUET_TELEMETRY=0` in the environment
//! or [`set_enabled`]`(false)` turns span recording off (metric counters
//! are so cheap they are unconditional). The `duet-telemetry-overhead`
//! CI gate proves the enabled-vs-disabled end-to-end gap stays < 3%.

pub mod context;
pub mod export;
pub mod metric;
pub mod registry;
pub mod span;
pub mod stats;

pub use context::{next_span_id, next_trace_id, TraceContext};
pub use metric::{Counter, Gauge, Histogram};
pub use registry::{prometheus_text, render_prometheus};
pub use span::{
    clock_us, record_instant, record_span, reset_spans, spans, Span, SpanKind, SpanRing,
};
pub use stats::{percentile_sorted, Reservoir};

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = uninitialised (consult the environment), 1 = on, 2 = off.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether span recording is enabled. First call consults
/// `DUET_TELEMETRY` (`0`, `off`, `false` disable); [`set_enabled`]
/// overrides. Metric counters ignore this flag — they are single
/// relaxed RMWs and not worth a branch.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = !matches!(
                std::env::var("DUET_TELEMETRY").as_deref(),
                Ok("0") | Ok("off") | Ok("false")
            );
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Force span recording on or off for this process.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

//! Metric primitives: counters, gauges, and fixed-bucket histograms.
//!
//! All three are `const`-constructible so they can live in statics, and
//! all updates are single relaxed atomic RMWs — no locks, no heap, no
//! fences on the hot path. The same types also work as instance fields
//! (per-model serving metrics own private histograms).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    help: &'static str,
    label: Option<(&'static str, &'static str)>,
    v: AtomicU64,
}

impl Counter {
    /// Unlabelled counter.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Counter {
            name,
            help,
            label: None,
            v: AtomicU64::new(0),
        }
    }

    /// Counter carrying one constant label (`name{key="value"}`); several
    /// statics sharing a `name` form one Prometheus family.
    pub const fn with_label(
        name: &'static str,
        help: &'static str,
        key: &'static str,
        value: &'static str,
    ) -> Self {
        Counter {
            name,
            help,
            label: Some((key, value)),
            v: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the counter to `v` if it is lower: mirrors a monotonic
    /// count kept elsewhere (the kernel pool's own atomics).
    #[inline]
    pub fn raise_to(&self, v: u64) {
        self.v.fetch_max(v, Ordering::Relaxed);
    }

    /// Accumulate a duration expressed in (fractional) microseconds.
    #[inline]
    pub fn add_us(&self, us: f64) {
        self.add(us.max(0.0) as u64);
    }

    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn help(&self) -> &'static str {
        self.help
    }

    pub fn label(&self) -> Option<(&'static str, &'static str)> {
        self.label
    }
}

/// Gauge: a value that can go up and down.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    v: AtomicI64,
}

impl Gauge {
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Gauge {
            name,
            help,
            v: AtomicI64::new(0),
        }
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if it is currently lower (high-water mark
    /// across concurrent writers, e.g. the max epoch over all models).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.v.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn help(&self) -> &'static str {
        self.help
    }
}

/// Number of log2 buckets. Bucket `i` holds values whose bit length is
/// `i` (so 0, then [2^(i-1), 2^i - 1]); the last bucket absorbs the
/// tail. Powers of two land in distinct buckets, which makes the bucket
/// exactly reconstructible for power-of-two-valued series (batch sizes).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Fixed-bucket (log2) histogram. Bounded memory forever, O(1) relaxed
/// updates, and a cumulative Prometheus rendering. Percentile *estimates*
/// come from bucket upper bounds; exact percentiles for reporting use a
/// bounded [`crate::Reservoir`] next to it.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    label: Option<(&'static str, &'static str)>,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// Largest value ever passed to `observe_exemplar` — a tail
    /// exemplar.
    ex_value: AtomicU64,
    /// Trace id attached to that value; 0 = no exemplar yet.
    ex_trace: AtomicU64,
}

/// Bucket index of a value: its bit length, clamped to the last bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (the last bucket is unbounded).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Histogram {
            name,
            help,
            label: None,
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            ex_value: AtomicU64::new(0),
            ex_trace: AtomicU64::new(0),
        }
    }

    /// Histogram carrying one constant label (`name{key="value"}`);
    /// several statics sharing a `name` form one Prometheus family.
    pub const fn with_label(
        name: &'static str,
        help: &'static str,
        key: &'static str,
        value: &'static str,
    ) -> Self {
        Histogram {
            name,
            help,
            label: Some((key, value)),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            ex_value: AtomicU64::new(0),
            ex_trace: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record one observation and offer it as the histogram's tail
    /// exemplar. The largest value ever offered wins (so the exemplar
    /// names a trace inhabiting the top bucket — the P99+ tail); a 0
    /// trace id records the value without exemplar metadata. The
    /// value/trace pair is updated best-effort under races — an
    /// exemplar is a debugging pointer, not an exact statistic.
    #[inline]
    pub fn observe_exemplar(&self, v: u64, trace_id: u64) {
        self.observe(v);
        self.exemplar_hint(v, trace_id);
    }

    /// Offer a tail exemplar *without* recording an observation — for
    /// call sites where the value was already observed through another
    /// path (e.g. a batched recording API) and only the trace linkage
    /// is being added.
    #[inline]
    pub fn exemplar_hint(&self, v: u64, trace_id: u64) {
        if trace_id == 0 {
            return;
        }
        let mut cur = self.ex_value.load(Ordering::Relaxed);
        while v >= cur {
            match self
                .ex_value
                .compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.ex_trace.store(trace_id, Ordering::Relaxed);
                    break;
                }
                Err(now) => cur = now,
            }
        }
    }

    /// The tail exemplar as `(value, trace_id)`, if any was recorded.
    pub fn exemplar(&self) -> Option<(u64, u64)> {
        let trace = self.ex_trace.load(Ordering::Relaxed);
        (trace != 0).then(|| (self.ex_value.load(Ordering::Relaxed), trace))
    }

    /// Record a (fractional) microsecond value, truncated to integer µs.
    #[inline]
    pub fn observe_us(&self, us: f64) {
        self.observe(us.max(0.0) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Non-empty buckets as `(bucket index, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect()
    }

    /// For power-of-two-valued series (batch sizes): reconstruct the
    /// exact `(value, count)` pairs. Bucket `i ≥ 1` maps back to value
    /// `2^(i-1)`; bucket 0 maps to 0.
    pub fn pow2_values(&self) -> Vec<(u64, u64)> {
        self.nonzero_buckets()
            .into_iter()
            .map(|(i, n)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, n))
            .collect()
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn help(&self) -> &'static str {
        self.help
    }

    pub fn label(&self) -> Option<(&'static str, &'static str)> {
        self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn pow2_reconstruction_is_exact() {
        static H: Histogram = Histogram::new("h", "test");
        H.observe(4);
        H.observe(2);
        H.observe(4);
        H.observe(1);
        assert_eq!(H.pow2_values(), vec![(1, 1), (2, 1), (4, 2)]);
        assert_eq!(H.count(), 4);
        assert_eq!(H.sum(), 11);
    }
}

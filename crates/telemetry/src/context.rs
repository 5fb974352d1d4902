//! Causal trace context for per-request tracing.
//!
//! A [`TraceContext`] is minted at serving admission ([`TraceContext::root`])
//! and propagated through the batcher, plan cache, and executors: each
//! stage derives a [`child`](TraceContext::child) carrying the same
//! trace id but a fresh span id, and records its span with
//! `(trace_id, span_id, parent_id)` linkage so a reader can rebuild the
//! span tree for one request out of the shared ring.
//!
//! Ids are minted from process-wide atomic counters starting at 1 — id
//! 0 is reserved to mean *untraced* everywhere (span slots, exemplars),
//! which keeps the zero-initialised ring unambiguous.

use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Mint a fresh process-unique trace id (never 0).
#[inline]
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Mint a fresh process-unique span id (never 0).
#[inline]
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// A position in a causal trace: which request (`trace_id`) and which
/// span within it (`span_id`). Copy it across threads freely; derive
/// children with [`child`](TraceContext::child).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    pub trace_id: u64,
    pub span_id: u64,
}

impl TraceContext {
    /// The reserved all-zero context of a span outside any trace.
    pub const UNTRACED: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
    };

    /// Start a new trace (one per admitted request).
    pub fn root() -> TraceContext {
        TraceContext {
            trace_id: next_trace_id(),
            span_id: next_span_id(),
        }
    }

    /// A child context: same trace, fresh span id. The caller records
    /// the child span with `parent_id = self.span_id`. Outside any trace
    /// there is nothing to link: the child of [`Self::UNTRACED`] is
    /// `UNTRACED`.
    pub fn child(&self) -> TraceContext {
        match self.trace_id {
            0 => TraceContext::UNTRACED,
            trace_id => TraceContext {
                trace_id,
                span_id: next_span_id(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = TraceContext::root();
        let b = TraceContext::root();
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.span_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
        assert_ne!(a.span_id, b.span_id);
        let c = a.child();
        assert_eq!(c.trace_id, a.trace_id);
        assert_ne!(c.span_id, a.span_id);
        assert_eq!(TraceContext::UNTRACED.child(), TraceContext::UNTRACED);
    }
}

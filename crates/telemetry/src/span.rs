//! Bounded span ring buffer.
//!
//! Spans record *what happened when* for the merged Perfetto timeline:
//! compiler passes, per-subgraph profiling, every candidate move of the
//! Algorithm 1 correction search, executor subgraph dispatches, serving
//! batches. The ring is a fixed array of slots; each write claims a slot
//! by a global sequence counter and fills it under a per-slot seqlock,
//! so writers never block and never allocate, and a reader skips any
//! slot it catches mid-write. When the ring wraps, the oldest spans are
//! overwritten — observability is a window, not an archive.
//!
//! **Time domains.** Offline-stage spans (compile, profile, schedule,
//! serve) carry wall-clock microseconds from [`clock_us`] (one process-
//! wide epoch). Executor spans carry *virtual* microseconds from the
//! device models — the same clock the execution witness uses, so the
//! two agree in the merged trace and span ordering can be checked
//! against witness happens-before order.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// What a span describes. A closed enum keeps span names `'static` and
/// slot writes purely numeric (no pointers in the ring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// Whole `Compiler::optimize` pipeline. detail = nodes before,
    /// arg0 = nodes after.
    CompileOptimize = 0,
    /// Constant folding pass. detail = constants folded.
    PassFoldConstants = 1,
    /// Common-subexpression elimination. detail = merged.
    PassCse = 2,
    /// Dead-code elimination. detail = removed.
    PassDce = 3,
    /// One subgraph profiled on both devices. detail = subgraph index,
    /// arg0 = CPU mean µs, arg1 = GPU mean µs.
    ProfileSubgraph = 4,
    /// One full correction search. detail = rounds, arg0 = initial
    /// predicted latency µs, arg1 = final predicted latency µs.
    SchedCorrection = 5,
    /// One correction round. detail = round index, arg0 = incumbent
    /// latency µs.
    SchedRound = 6,
    /// Candidate move/swap that improved latency and was applied.
    /// detail = encoded move (i*1024+j+1, or i+1 for single moves),
    /// arg0 = predicted latency µs, arg1 = margin vs the epsilon-scaled
    /// incumbent (positive).
    SchedMoveAccepted = 7,
    /// Candidate move/swap evaluated and rejected. Same payload; the
    /// margin is ≤ 0 (how far it missed the epsilon threshold).
    SchedMoveRejected = 8,
    /// One subgraph dispatch on the executor. detail = subgraph index,
    /// start/dur in *virtual* µs, arg0 = device (0 CPU, 1 GPU).
    ExecSubgraph = 9,
    /// One whole executor run. detail = subgraph count, dur = virtual
    /// latency µs.
    ExecRun = 10,
    /// One executed serving batch. detail = batch size, arg0 = virtual
    /// batch latency µs.
    ServeBatch = 11,
    /// One request's whole serving lifetime (admission → response).
    /// detail = batch the request executed in, wall µs.
    ServeRequest = 12,
    /// Queue-wait phase of one request (admission → worker pull),
    /// wall µs.
    ServeQueue = 13,
    /// Batch-linger phase of one request (worker pull → batch close),
    /// wall µs.
    ServeLinger = 14,
    /// Execution phase of one request (batch close → response ready),
    /// wall µs. arg0 = executed batch size.
    ServeExec = 15,
    /// Kernel-tape execution inside one subgraph dispatch. detail =
    /// tape instruction count, *virtual* µs, arg0 = device.
    ExecKernel = 16,
}

impl SpanKind {
    /// Pipeline stage this kind belongs to (Perfetto lane grouping).
    pub fn stage(self) -> &'static str {
        match self {
            SpanKind::CompileOptimize
            | SpanKind::PassFoldConstants
            | SpanKind::PassCse
            | SpanKind::PassDce => "compile",
            SpanKind::ProfileSubgraph => "profile",
            SpanKind::SchedCorrection
            | SpanKind::SchedRound
            | SpanKind::SchedMoveAccepted
            | SpanKind::SchedMoveRejected => "schedule",
            SpanKind::ExecSubgraph | SpanKind::ExecRun | SpanKind::ExecKernel => "execute",
            SpanKind::ServeBatch
            | SpanKind::ServeRequest
            | SpanKind::ServeQueue
            | SpanKind::ServeLinger
            | SpanKind::ServeExec => "serve",
        }
    }

    /// Human-readable event name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::CompileOptimize => "optimize",
            SpanKind::PassFoldConstants => "fold_constants",
            SpanKind::PassCse => "cse",
            SpanKind::PassDce => "dce",
            SpanKind::ProfileSubgraph => "profile_subgraph",
            SpanKind::SchedCorrection => "correction",
            SpanKind::SchedRound => "round",
            SpanKind::SchedMoveAccepted => "move_accepted",
            SpanKind::SchedMoveRejected => "move_rejected",
            SpanKind::ExecSubgraph => "subgraph",
            SpanKind::ExecRun => "run",
            SpanKind::ServeBatch => "batch",
            SpanKind::ServeRequest => "request",
            SpanKind::ServeQueue => "queue",
            SpanKind::ServeLinger => "linger",
            SpanKind::ServeExec => "exec",
            SpanKind::ExecKernel => "kernel",
        }
    }

    /// Inverse of the discriminant cast; `None` for out-of-range values
    /// (a persisted span from a newer build).
    pub fn from_u64(v: u64) -> Option<SpanKind> {
        Some(match v {
            0 => SpanKind::CompileOptimize,
            1 => SpanKind::PassFoldConstants,
            2 => SpanKind::PassCse,
            3 => SpanKind::PassDce,
            4 => SpanKind::ProfileSubgraph,
            5 => SpanKind::SchedCorrection,
            6 => SpanKind::SchedRound,
            7 => SpanKind::SchedMoveAccepted,
            8 => SpanKind::SchedMoveRejected,
            9 => SpanKind::ExecSubgraph,
            10 => SpanKind::ExecRun,
            11 => SpanKind::ServeBatch,
            12 => SpanKind::ServeRequest,
            13 => SpanKind::ServeQueue,
            14 => SpanKind::ServeLinger,
            15 => SpanKind::ServeExec,
            16 => SpanKind::ExecKernel,
            _ => return None,
        })
    }
}

/// One recorded span (a snapshot copied out of the ring).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Global sequence number (total order of recording).
    pub seq: u64,
    pub kind: SpanKind,
    /// Kind-specific integer payload (see [`SpanKind`] docs).
    pub detail: u64,
    /// Start timestamp, microseconds (wall for offline stages, virtual
    /// for executor spans).
    pub start_us: f64,
    /// Duration, microseconds; 0 renders as an instant event.
    pub dur_us: f64,
    pub arg0: f64,
    pub arg1: f64,
    /// Causal trace this span belongs to; 0 = untraced (the span was
    /// recorded outside any request context).
    pub trace_id: u64,
    /// This span's id within the trace; 0 = untraced.
    pub span_id: u64,
    /// Id of the causal parent span; 0 = root (or untraced).
    pub parent_id: u64,
}

impl Span {
    /// Whether this span carries causal trace linkage.
    pub fn is_traced(&self) -> bool {
        self.trace_id != 0
    }

    /// A span built once by an owner that both publishes it
    /// ([`Span::record`]) and keeps it (executor `trace_spans`, the serve
    /// flight ring): identified by `ctx` under the span `parent_id`
    /// ([`TraceContext::UNTRACED`] and 0 outside any trace), `seq` 0 and
    /// `arg1` 0 until the owner says otherwise.
    pub fn linked(
        kind: SpanKind,
        detail: u64,
        start_us: f64,
        dur_us: f64,
        arg0: f64,
        ctx: crate::TraceContext,
        parent_id: u64,
    ) -> Span {
        Span {
            seq: 0,
            kind,
            detail,
            start_us,
            dur_us,
            arg0,
            arg1: 0.0,
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id,
        }
    }

    /// Publish this span to the global ring, linkage included; a no-op
    /// when telemetry is off. The ring assigns its own sequence number.
    #[inline]
    pub fn record(&self) {
        if crate::enabled() {
            global_ring().record_traced(
                self.kind,
                self.detail,
                self.start_us,
                self.dur_us,
                self.arg0,
                self.arg1,
                self.trace_id,
                self.span_id,
                self.parent_id,
            );
        }
    }
}

struct Slot {
    /// Seqlock word: `2*seq + 1` while writing, `2*seq + 2` when
    /// published, 0 when never written.
    version: AtomicU64,
    kind: AtomicU64,
    detail: AtomicU64,
    start: AtomicU64,
    dur: AtomicU64,
    arg0: AtomicU64,
    arg1: AtomicU64,
    trace: AtomicU64,
    span_id: AtomicU64,
    parent: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            detail: AtomicU64::new(0),
            start: AtomicU64::new(0),
            dur: AtomicU64::new(0),
            arg0: AtomicU64::new(0),
            arg1: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            parent: AtomicU64::new(0),
        }
    }
}

/// Fixed-capacity multi-writer span buffer. The global ring (via
/// [`record_span`]) is one instance; tests build small private ones.
pub struct SpanRing {
    slots: Box<[Slot]>,
    seq: AtomicU64,
    /// Spans with `seq <` floor are hidden (a cheap reset that does not
    /// race with in-flight writers).
    floor: AtomicU64,
}

impl SpanRing {
    /// Ring with `capacity` slots (rounded up to at least 1).
    pub fn with_capacity(capacity: usize) -> SpanRing {
        SpanRing {
            slots: (0..capacity.max(1)).map(|_| Slot::empty()).collect(),
            seq: AtomicU64::new(0),
            floor: AtomicU64::new(0),
        }
    }

    /// Record one span. Lock-free and allocation-free.
    pub fn record(
        &self,
        kind: SpanKind,
        detail: u64,
        start_us: f64,
        dur_us: f64,
        a0: f64,
        a1: f64,
    ) {
        self.record_traced(kind, detail, start_us, dur_us, a0, a1, 0, 0, 0);
    }

    /// Record one span carrying causal trace linkage (trace id, own span
    /// id, parent span id; all 0 for untraced). Lock-free and
    /// allocation-free.
    #[allow(clippy::too_many_arguments)]
    pub fn record_traced(
        &self,
        kind: SpanKind,
        detail: u64,
        start_us: f64,
        dur_us: f64,
        a0: f64,
        a1: f64,
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        slot.version.store(2 * seq + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.detail.store(detail, Ordering::Relaxed);
        slot.start.store(start_us.to_bits(), Ordering::Relaxed);
        slot.dur.store(dur_us.to_bits(), Ordering::Relaxed);
        slot.arg0.store(a0.to_bits(), Ordering::Relaxed);
        slot.arg1.store(a1.to_bits(), Ordering::Relaxed);
        slot.trace.store(trace_id, Ordering::Relaxed);
        slot.span_id.store(span_id, Ordering::Relaxed);
        slot.parent.store(parent_id, Ordering::Relaxed);
        slot.version.store(2 * seq + 2, Ordering::Release);
    }

    /// How many times [`collect`](SpanRing::collect) re-reads a slot it
    /// caught mid-write before giving up on it. A writer finishes a slot
    /// in a handful of stores, so one retry almost always suffices; the
    /// bound exists because a writer can be preempted mid-publish.
    pub const TORN_RETRY_LIMIT: u32 = 64;

    /// Copy out every published span at or above the floor, oldest
    /// first. A slot caught mid-write (or overwritten while reading) is
    /// re-read up to [`TORN_RETRY_LIMIT`](SpanRing::TORN_RETRY_LIMIT)
    /// times — each torn observation counts into
    /// `duet_insight_torn_reads_total{result="retried"}` — and only
    /// dropped (never misread) when the writer still hasn't published,
    /// counted under `result="skipped"`.
    pub fn collect(&self) -> Vec<Span> {
        let floor = self.floor.load(Ordering::Relaxed);
        let mut out: Vec<Span> = Vec::with_capacity(self.slots.len());
        'slots: for slot in self.slots.iter() {
            let mut attempts = 0u32;
            let (v1, payload) = loop {
                let v1 = slot.version.load(Ordering::Acquire);
                if v1 == 0 {
                    continue 'slots; // never written
                }
                if v1 % 2 == 0 {
                    let payload = [
                        slot.kind.load(Ordering::Relaxed),
                        slot.detail.load(Ordering::Relaxed),
                        slot.start.load(Ordering::Relaxed),
                        slot.dur.load(Ordering::Relaxed),
                        slot.arg0.load(Ordering::Relaxed),
                        slot.arg1.load(Ordering::Relaxed),
                        slot.trace.load(Ordering::Relaxed),
                        slot.span_id.load(Ordering::Relaxed),
                        slot.parent.load(Ordering::Relaxed),
                    ];
                    fence(Ordering::Acquire);
                    if slot.version.load(Ordering::Relaxed) == v1 {
                        break (v1, payload);
                    }
                }
                // Torn: a writer raced us (or holds the slot mid-write).
                crate::registry::INSIGHT_TORN_RETRIED.inc();
                attempts += 1;
                if attempts > Self::TORN_RETRY_LIMIT {
                    crate::registry::INSIGHT_TORN_SKIPPED.inc();
                    continue 'slots;
                }
                std::hint::spin_loop();
            };
            let [kind, detail, start, dur, arg0, arg1, trace, span_id, parent] = payload;
            let seq = v1 / 2 - 1;
            if seq < floor {
                continue;
            }
            let Some(kind) = SpanKind::from_u64(kind) else {
                continue;
            };
            out.push(Span {
                seq,
                kind,
                detail,
                start_us: f64::from_bits(start),
                dur_us: f64::from_bits(dur),
                arg0: f64::from_bits(arg0),
                arg1: f64::from_bits(arg1),
                trace_id: trace,
                span_id,
                parent_id: parent,
            });
        }
        out.sort_by_key(|s| s.seq);
        out
    }

    /// Hide everything recorded so far (new recordings still appear).
    pub fn reset(&self) {
        self.floor
            .store(self.seq.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Total spans ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }
}

/// Global ring capacity: large enough for a full offline build plus a
/// few executor runs; the merged-trace path resets it first anyway.
const GLOBAL_RING_CAPACITY: usize = 16_384;

fn global_ring() -> &'static SpanRing {
    static RING: OnceLock<SpanRing> = OnceLock::new();
    RING.get_or_init(|| SpanRing::with_capacity(GLOBAL_RING_CAPACITY))
}

/// Microseconds since the process-wide telemetry epoch (first call).
pub fn clock_us() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// Record a span into the global ring (no-op when telemetry is off).
#[inline]
pub fn record_span(kind: SpanKind, detail: u64, start_us: f64, dur_us: f64, a0: f64, a1: f64) {
    if crate::enabled() {
        global_ring().record(kind, detail, start_us, dur_us, a0, a1);
    }
}

/// Record an instant event (zero duration, stamped now) into the global
/// ring.
#[inline]
pub fn record_instant(kind: SpanKind, detail: u64, a0: f64, a1: f64) {
    if crate::enabled() {
        global_ring().record(kind, detail, clock_us(), 0.0, a0, a1);
    }
}

/// Snapshot the global ring, oldest span first.
pub fn spans() -> Vec<Span> {
    global_ring().collect()
}

/// Hide all spans recorded in the global ring so far.
pub fn reset_spans() {
    global_ring().reset();
}

//! The static metric registry and Prometheus text exposition.
//!
//! Every metric in the DUET pipeline is a `static` defined here, grouped
//! by stage, and listed in the registry slices below. Instrumented
//! crates reference the statics directly (e.g.
//! `duet_telemetry::registry::SCHED_MOVES_ACCEPTED.inc()`); the
//! exposition walks the fixed lists, so `/metrics` always shows every
//! family — zero-valued families included, which is what lets a scrape
//! assert presence before traffic arrives.
//!
//! Naming scheme: `duet_<stage>_<what>[_total|_us]`, stages `compile`,
//! `profile`, `sched`, `exec`, `tape`, `arena`, `serve`. Counters of
//! accumulated time end in `_us_total`; histograms of microsecond
//! values end in `_us`.

use crate::metric::{bucket_upper_bound, Counter, Gauge, Histogram};

// ---- compile ----

pub static COMPILE_RUNS: Counter = Counter::new(
    "duet_compile_runs_total",
    "Compiler::optimize pipeline invocations",
);
pub static COMPILE_PASS_RUNS_FOLD: Counter = Counter::with_label(
    "duet_compile_pass_runs_total",
    "Optimization pass executions",
    "pass",
    "fold_constants",
);
pub static COMPILE_PASS_RUNS_CSE: Counter = Counter::with_label(
    "duet_compile_pass_runs_total",
    "Optimization pass executions",
    "pass",
    "cse",
);
pub static COMPILE_PASS_RUNS_DCE: Counter = Counter::with_label(
    "duet_compile_pass_runs_total",
    "Optimization pass executions",
    "pass",
    "dce",
);
pub static COMPILE_PASS_US_FOLD: Counter = Counter::with_label(
    "duet_compile_pass_wall_us_total",
    "Accumulated wall time per optimization pass, microseconds",
    "pass",
    "fold_constants",
);
pub static COMPILE_PASS_US_CSE: Counter = Counter::with_label(
    "duet_compile_pass_wall_us_total",
    "Accumulated wall time per optimization pass, microseconds",
    "pass",
    "cse",
);
pub static COMPILE_PASS_US_DCE: Counter = Counter::with_label(
    "duet_compile_pass_wall_us_total",
    "Accumulated wall time per optimization pass, microseconds",
    "pass",
    "dce",
);
pub static COMPILE_PASS_DELTA_FOLD: Counter = Counter::with_label(
    "duet_compile_pass_node_delta_total",
    "Nodes folded/merged/removed per pass",
    "pass",
    "fold_constants",
);
pub static COMPILE_PASS_DELTA_CSE: Counter = Counter::with_label(
    "duet_compile_pass_node_delta_total",
    "Nodes folded/merged/removed per pass",
    "pass",
    "cse",
);
pub static COMPILE_PASS_DELTA_DCE: Counter = Counter::with_label(
    "duet_compile_pass_node_delta_total",
    "Nodes folded/merged/removed per pass",
    "pass",
    "dce",
);

// ---- profile ----

pub static PROFILE_SUBGRAPHS: Counter = Counter::new(
    "duet_profile_subgraphs_total",
    "Compiled subgraphs micro-benchmarked (both devices each)",
);
pub static PROFILE_SAMPLES_CPU: Counter = Counter::with_label(
    "duet_profile_samples_total",
    "Profiling samples recorded after warm-up",
    "device",
    "cpu",
);
pub static PROFILE_SAMPLES_GPU: Counter = Counter::with_label(
    "duet_profile_samples_total",
    "Profiling samples recorded after warm-up",
    "device",
    "gpu",
);

// ---- schedule (Algorithm 1 correction search) ----

pub static SCHED_CORRECTIONS: Counter = Counter::new(
    "duet_sched_corrections_total",
    "Correction searches run (offline builds + drift re-corrections)",
);
pub static SCHED_ROUNDS: Counter = Counter::new(
    "duet_sched_correction_rounds_total",
    "Correction rounds across all searches",
);
pub static SCHED_MOVES_EVALUATED: Counter = Counter::new(
    "duet_sched_moves_evaluated_total",
    "Candidate moves/swaps priced against measured latency",
);
pub static SCHED_MOVES_ACCEPTED: Counter = Counter::new(
    "duet_sched_moves_accepted_total",
    "Candidate moves that improved latency and were applied",
);
pub static SCHED_MOVES_REJECTED: Counter = Counter::new(
    "duet_sched_moves_rejected_total",
    "Candidate moves evaluated but not applied",
);
pub static SCHED_ACCEPTED_GAIN_US: Histogram = Histogram::new(
    "duet_sched_accepted_gain_us",
    "Predicted latency improvement per accepted move, microseconds",
);
pub static SCHED_CORRECTION_WALL_US: Histogram = Histogram::new(
    "duet_sched_correction_wall_us",
    "Wall time of one correction search (Algorithm 1 step 3), microseconds",
);
pub static SCHED_PREDICTED_LATENCY_US: Gauge = Gauge::new(
    "duet_sched_predicted_latency_us",
    "Predicted end-to-end latency after the most recent correction, microseconds",
);

// ---- execute ----

pub static EXEC_RUNS: Counter =
    Counter::new("duet_exec_runs_total", "Heterogeneous executor inferences");
pub static EXEC_SUBGRAPHS_CPU: Counter = Counter::with_label(
    "duet_exec_subgraphs_total",
    "Subgraph dispatches per device",
    "device",
    "cpu",
);
pub static EXEC_SUBGRAPHS_GPU: Counter = Counter::with_label(
    "duet_exec_subgraphs_total",
    "Subgraph dispatches per device",
    "device",
    "gpu",
);
pub static TAPE_RUNS: Counter = Counter::new(
    "duet_tape_runs_total",
    "Instruction-tape executions (memory-planned path)",
);
pub static TAPE_INSTRS: Counter =
    Counter::new("duet_tape_instructions_total", "Tape instructions executed");
pub static ARENA_CHECKOUTS_CREATED: Counter = Counter::with_label(
    "duet_arena_checkouts_total",
    "Tape-arena pool checkouts",
    "result",
    "created",
);
pub static ARENA_CHECKOUTS_REUSED: Counter = Counter::with_label(
    "duet_arena_checkouts_total",
    "Tape-arena pool checkouts",
    "result",
    "reused",
);

// ---- serve ----

pub static SERVE_SUBMITTED: Counter = Counter::new(
    "duet_serve_submitted_total",
    "Requests submitted across all models",
);
pub static SERVE_ADMITTED: Counter = Counter::new(
    "duet_serve_admitted_total",
    "Requests accepted by admission control",
);
pub static SERVE_COMPLETED: Counter = Counter::new(
    "duet_serve_completed_total",
    "Requests answered successfully",
);
pub static SERVE_SHED_QUEUE_FULL: Counter = Counter::with_label(
    "duet_serve_shed_total",
    "Requests shed",
    "reason",
    "queue_full",
);
pub static SERVE_SHED_EXPIRED: Counter = Counter::with_label(
    "duet_serve_shed_total",
    "Requests shed",
    "reason",
    "expired",
);
pub static SERVE_EXEC_ERRORS: Counter = Counter::new(
    "duet_serve_exec_errors_total",
    "Batches failed in execution",
);
pub static SERVE_BATCHES: Counter = Counter::new(
    "duet_serve_batches_total",
    "Batches executed by the dynamic batcher",
);
pub static SERVE_BATCH_SIZE: Histogram = Histogram::new(
    "duet_serve_batch_size",
    "Executed batch sizes (power-of-two chunks)",
);
pub static SERVE_SOJOURN_US: Histogram = Histogram::new(
    "duet_serve_sojourn_us",
    "Wall-clock sojourn per request (queueing + linger + execution), microseconds",
);
pub static SERVE_VIRTUAL_SERVICE_US: Histogram = Histogram::new(
    "duet_serve_virtual_service_us",
    "Per-request virtual service share on the modeled hardware, microseconds",
);
pub static SERVE_PLAN_SWAPS: Counter =
    Counter::new("duet_serve_plan_swaps_total", "Drift-driven plan hot-swaps");
pub static SERVE_PLAN_SWAP_REJECTED: Counter = Counter::new(
    "duet_serve_plan_swap_rejected_total",
    "Re-corrected plans refused by the D5xx model-check gate",
);
pub static SERVE_SWAP_STALL_US: Histogram = Histogram::new(
    "duet_serve_swap_stall_us",
    "Wall time the serving worker spent re-planning on confirmed drift, microseconds",
);
pub static SERVE_QUEUE_DEPTH: Gauge = Gauge::new(
    "duet_serve_queue_depth",
    "Requests currently queued across all models",
);
pub static SERVE_EPOCH: Gauge = Gauge::new(
    "duet_serve_epoch",
    "Highest metrics epoch across models (bumped on drift injection and hot-swap)",
);

// ---- insight (per-request tracing, attribution, flight recorder) ----

pub static SERVE_SLO_BREACHES: Counter = Counter::new(
    "duet_serve_slo_breaches_total",
    "Requests whose sojourn exceeded the configured SLO budget",
);
pub static SERVE_SEGMENT_QUEUE: Histogram = Histogram::with_label(
    "duet_serve_segment_us",
    "Per-request latency attribution per segment, microseconds",
    "segment",
    "queue",
);
pub static SERVE_SEGMENT_LINGER: Histogram = Histogram::with_label(
    "duet_serve_segment_us",
    "Per-request latency attribution per segment, microseconds",
    "segment",
    "linger",
);
pub static SERVE_SEGMENT_COMPUTE_CPU: Histogram = Histogram::with_label(
    "duet_serve_segment_us",
    "Per-request latency attribution per segment, microseconds",
    "segment",
    "compute_cpu",
);
pub static SERVE_SEGMENT_COMPUTE_GPU: Histogram = Histogram::with_label(
    "duet_serve_segment_us",
    "Per-request latency attribution per segment, microseconds",
    "segment",
    "compute_gpu",
);
pub static SERVE_SEGMENT_TRANSFER: Histogram = Histogram::with_label(
    "duet_serve_segment_us",
    "Per-request latency attribution per segment, microseconds",
    "segment",
    "transfer",
);
pub static SERVE_SEGMENT_OVERHEAD: Histogram = Histogram::with_label(
    "duet_serve_segment_us",
    "Per-request latency attribution per segment, microseconds",
    "segment",
    "overhead",
);
pub static INSIGHT_TRACES: Counter = Counter::new(
    "duet_insight_traces_total",
    "Completed request traces pushed into the flight-recorder ring",
);
pub static INSIGHT_TORN_RETRIED: Counter = Counter::with_label(
    "duet_insight_torn_reads_total",
    "Span-ring snapshot reads that caught a slot mid-write",
    "result",
    "retried",
);
pub static INSIGHT_TORN_SKIPPED: Counter = Counter::with_label(
    "duet_insight_torn_reads_total",
    "Span-ring snapshot reads that caught a slot mid-write",
    "result",
    "skipped",
);
pub static INSIGHT_DUMPS_SLO_BURN: Counter = Counter::with_label(
    "duet_insight_dumps_total",
    "Flight-recorder dumps written per anomaly rule",
    "rule",
    "slo_burn",
);
pub static INSIGHT_DUMPS_SHED: Counter = Counter::with_label(
    "duet_insight_dumps_total",
    "Flight-recorder dumps written per anomaly rule",
    "rule",
    "shed",
);
pub static INSIGHT_DUMPS_DRIFT_SWAP: Counter = Counter::with_label(
    "duet_insight_dumps_total",
    "Flight-recorder dumps written per anomaly rule",
    "rule",
    "drift_swap",
);
pub static INSIGHT_DUMPS_SWAP_REFUSED: Counter = Counter::with_label(
    "duet_insight_dumps_total",
    "Flight-recorder dumps written per anomaly rule",
    "rule",
    "swap_refused",
);
pub static INSIGHT_DUMPS_SUPPRESSED: Counter = Counter::new(
    "duet_insight_dumps_suppressed_total",
    "Anomaly triggers suppressed because the once-per-run dump latch had fired",
);

// ---- tune (simulator-oracle schedule search) ----

pub static TUNE_RUNS: Counter = Counter::new(
    "duet_tune_runs_total",
    "Autotuning searches run (one per model/batch tuned)",
);
pub static TUNE_CANDIDATES: Counter = Counter::new(
    "duet_tune_candidates_total",
    "Placement candidates priced by the simulator oracle",
);
pub static TUNE_PROMOTIONS_ACCEPTED: Counter = Counter::with_label(
    "duet_tune_promotions_total",
    "Winning plans through the D5xx/D2xx promotion gate",
    "result",
    "accepted",
);
pub static TUNE_PROMOTIONS_REJECTED: Counter = Counter::with_label(
    "duet_tune_promotions_total",
    "Winning plans through the D5xx/D2xx promotion gate",
    "result",
    "rejected",
);
pub static TUNE_ORACLE_WALL_US: Histogram = Histogram::new(
    "duet_tune_oracle_wall_us",
    "Wall time of one tune call's placement search, microseconds",
);
pub static TUNE_SEARCH_WALL_US: Histogram = Histogram::new(
    "duet_tune_search_wall_us",
    "End-to-end wall time per tune call (search and promotion), microseconds",
);

// ---- analysis ----

pub static ANALYSIS_CHECKS_GRAPH: Counter = Counter::with_label(
    "duet_analysis_checks_total",
    "Analyzer invocations",
    "family",
    "graph",
);
pub static ANALYSIS_CHECKS_PASS: Counter = Counter::with_label(
    "duet_analysis_checks_total",
    "Analyzer invocations",
    "family",
    "pass",
);
pub static ANALYSIS_CHECKS_PLAN: Counter = Counter::with_label(
    "duet_analysis_checks_total",
    "Analyzer invocations",
    "family",
    "plan",
);
pub static ANALYSIS_CHECKS_WITNESS: Counter = Counter::with_label(
    "duet_analysis_checks_total",
    "Analyzer invocations",
    "family",
    "witness",
);
pub static ANALYSIS_CHECKS_MEMORY: Counter = Counter::with_label(
    "duet_analysis_checks_total",
    "Analyzer invocations",
    "family",
    "memory",
);
pub static ANALYSIS_CHECKS_MODEL: Counter = Counter::with_label(
    "duet_analysis_checks_total",
    "Analyzer invocations",
    "family",
    "model",
);
pub static ANALYSIS_DIAGNOSTICS_GRAPH: Counter = Counter::with_label(
    "duet_analysis_diagnostics_total",
    "Diagnostics emitted per analyzer family",
    "family",
    "graph",
);
pub static ANALYSIS_DIAGNOSTICS_PASS: Counter = Counter::with_label(
    "duet_analysis_diagnostics_total",
    "Diagnostics emitted per analyzer family",
    "family",
    "pass",
);
pub static ANALYSIS_DIAGNOSTICS_PLAN: Counter = Counter::with_label(
    "duet_analysis_diagnostics_total",
    "Diagnostics emitted per analyzer family",
    "family",
    "plan",
);
pub static ANALYSIS_DIAGNOSTICS_WITNESS: Counter = Counter::with_label(
    "duet_analysis_diagnostics_total",
    "Diagnostics emitted per analyzer family",
    "family",
    "witness",
);
pub static ANALYSIS_DIAGNOSTICS_MEMORY: Counter = Counter::with_label(
    "duet_analysis_diagnostics_total",
    "Diagnostics emitted per analyzer family",
    "family",
    "memory",
);
pub static ANALYSIS_DIAGNOSTICS_MODEL: Counter = Counter::with_label(
    "duet_analysis_diagnostics_total",
    "Diagnostics emitted per analyzer family",
    "family",
    "model",
);
pub static ANALYSIS_CHECKS_DATAFLOW: Counter = Counter::with_label(
    "duet_analysis_checks_total",
    "Analyzer invocations",
    "family",
    "dataflow",
);
pub static ANALYSIS_DIAGNOSTICS_DATAFLOW: Counter = Counter::with_label(
    "duet_analysis_diagnostics_total",
    "Diagnostics emitted per analyzer family",
    "family",
    "dataflow",
);
pub static ANALYSIS_MODEL_CHECK_STATES: Histogram = Histogram::new(
    "duet_analysis_model_check_states",
    "States expanded per plan model check",
);
pub static ANALYSIS_MODEL_CHECK_WALL_US: Histogram = Histogram::new(
    "duet_analysis_model_check_wall_us",
    "Model-checker wall time per plan, microseconds",
);
pub static ANALYSIS_DATAFLOW_WALL_US: Histogram = Histogram::new(
    "duet_analysis_dataflow_wall_us",
    "Dataflow (abstract interpretation) wall time per graph, microseconds",
);

/// Every registered counter, in exposition order.
pub fn counters() -> &'static [&'static Counter] {
    static COUNTERS: &[&Counter] = &[
        &COMPILE_RUNS,
        &COMPILE_PASS_RUNS_FOLD,
        &COMPILE_PASS_RUNS_CSE,
        &COMPILE_PASS_RUNS_DCE,
        &COMPILE_PASS_US_FOLD,
        &COMPILE_PASS_US_CSE,
        &COMPILE_PASS_US_DCE,
        &COMPILE_PASS_DELTA_FOLD,
        &COMPILE_PASS_DELTA_CSE,
        &COMPILE_PASS_DELTA_DCE,
        &PROFILE_SUBGRAPHS,
        &PROFILE_SAMPLES_CPU,
        &PROFILE_SAMPLES_GPU,
        &SCHED_CORRECTIONS,
        &SCHED_ROUNDS,
        &SCHED_MOVES_EVALUATED,
        &SCHED_MOVES_ACCEPTED,
        &SCHED_MOVES_REJECTED,
        &EXEC_RUNS,
        &EXEC_SUBGRAPHS_CPU,
        &EXEC_SUBGRAPHS_GPU,
        &TAPE_RUNS,
        &TAPE_INSTRS,
        &ARENA_CHECKOUTS_CREATED,
        &ARENA_CHECKOUTS_REUSED,
        &SERVE_SUBMITTED,
        &SERVE_ADMITTED,
        &SERVE_COMPLETED,
        &SERVE_SHED_QUEUE_FULL,
        &SERVE_SHED_EXPIRED,
        &SERVE_EXEC_ERRORS,
        &SERVE_BATCHES,
        &SERVE_PLAN_SWAPS,
        &SERVE_PLAN_SWAP_REJECTED,
        &SERVE_SLO_BREACHES,
        &INSIGHT_TRACES,
        &INSIGHT_TORN_RETRIED,
        &INSIGHT_TORN_SKIPPED,
        &INSIGHT_DUMPS_SLO_BURN,
        &INSIGHT_DUMPS_SHED,
        &INSIGHT_DUMPS_DRIFT_SWAP,
        &INSIGHT_DUMPS_SWAP_REFUSED,
        &INSIGHT_DUMPS_SUPPRESSED,
        &TUNE_RUNS,
        &TUNE_CANDIDATES,
        &TUNE_PROMOTIONS_ACCEPTED,
        &TUNE_PROMOTIONS_REJECTED,
        &ANALYSIS_CHECKS_GRAPH,
        &ANALYSIS_CHECKS_PASS,
        &ANALYSIS_CHECKS_PLAN,
        &ANALYSIS_CHECKS_WITNESS,
        &ANALYSIS_CHECKS_MEMORY,
        &ANALYSIS_CHECKS_MODEL,
        &ANALYSIS_DIAGNOSTICS_GRAPH,
        &ANALYSIS_DIAGNOSTICS_PASS,
        &ANALYSIS_DIAGNOSTICS_PLAN,
        &ANALYSIS_DIAGNOSTICS_WITNESS,
        &ANALYSIS_DIAGNOSTICS_MEMORY,
        &ANALYSIS_DIAGNOSTICS_MODEL,
        &ANALYSIS_CHECKS_DATAFLOW,
        &ANALYSIS_DIAGNOSTICS_DATAFLOW,
    ];
    COUNTERS
}

/// Every registered gauge.
pub fn gauges() -> &'static [&'static Gauge] {
    static GAUGES: &[&Gauge] = &[
        &SCHED_PREDICTED_LATENCY_US,
        &SERVE_QUEUE_DEPTH,
        &SERVE_EPOCH,
    ];
    GAUGES
}

/// Every registered histogram.
pub fn histograms() -> &'static [&'static Histogram] {
    static HISTOGRAMS: &[&Histogram] = &[
        &SCHED_ACCEPTED_GAIN_US,
        &SCHED_CORRECTION_WALL_US,
        &SERVE_BATCH_SIZE,
        &SERVE_SOJOURN_US,
        &SERVE_VIRTUAL_SERVICE_US,
        &SERVE_SEGMENT_QUEUE,
        &SERVE_SEGMENT_LINGER,
        &SERVE_SEGMENT_COMPUTE_CPU,
        &SERVE_SEGMENT_COMPUTE_GPU,
        &SERVE_SEGMENT_TRANSFER,
        &SERVE_SEGMENT_OVERHEAD,
        &SERVE_SWAP_STALL_US,
        &TUNE_ORACLE_WALL_US,
        &TUNE_SEARCH_WALL_US,
        &ANALYSIS_MODEL_CHECK_STATES,
        &ANALYSIS_MODEL_CHECK_WALL_US,
        &ANALYSIS_DATAFLOW_WALL_US,
    ];
    HISTOGRAMS
}

/// Render the full global registry in Prometheus text exposition format,
/// followed by the kernel pool's counters.
pub fn prometheus_text() -> String {
    let mut out = render_prometheus(counters(), gauges(), histograms());
    out.push_str(&kernel_pool_text());
    out
}

/// The `duet_kernel_pool_*` families. The counters are plain atomics owned
/// by the `rayon` stand-in (the pool cannot depend on this crate), read at
/// exposition time: together they show whether the fork gate and the pool
/// are work-conserving — regions forked vs kept inline, chunks run by
/// workers vs by the submitting caller, and how often a worker parked.
fn kernel_pool_text() -> String {
    const REGIONS: &str = "Parallel kernel regions, by whether they were submitted to the pool \
        or run inline on their caller (single chunk, width 1, or below the fork gate)";
    const CHUNKS: &str = "Chunks of forked kernel regions, by the thread that ran them";
    let s = rayon::pool_stats();
    let families = [
        (
            Counter::with_label("duet_kernel_pool_regions_total", REGIONS, "mode", "forked"),
            s.regions_forked,
        ),
        (
            Counter::with_label("duet_kernel_pool_regions_total", REGIONS, "mode", "inline"),
            s.regions_inline,
        ),
        (
            Counter::with_label("duet_kernel_pool_chunks_total", CHUNKS, "by", "worker"),
            s.chunks_by_worker,
        ),
        (
            Counter::with_label("duet_kernel_pool_chunks_total", CHUNKS, "by", "caller"),
            s.chunks_by_caller,
        ),
        (
            Counter::new(
                "duet_kernel_pool_parks_total",
                "Times a pool worker stopped spinning for work and parked",
            ),
            s.parks,
        ),
        (
            Counter::new(
                "duet_kernel_pool_migrations_total",
                "Times a pool worker woke on its submitter's CPU and moved itself off it",
            ),
            s.migrations,
        ),
    ];
    let counters: Vec<&Counter> = families
        .iter()
        .map(|(counter, value)| {
            counter.add(*value);
            counter
        })
        .collect();
    render_prometheus(&counters, &[], &[])
}

/// Render arbitrary metric sets in Prometheus text exposition format
/// (version 0.0.4). Consecutive counters sharing a family name emit one
/// `# HELP` / `# TYPE` header.
pub fn render_prometheus(
    counters: &[&Counter],
    gauges: &[&Gauge],
    histograms: &[&Histogram],
) -> String {
    let mut out = String::new();
    let mut last_family = "";
    for c in counters {
        if c.name() != last_family {
            out.push_str(&format!("# HELP {} {}\n", c.name(), c.help()));
            out.push_str(&format!("# TYPE {} counter\n", c.name()));
            last_family = c.name();
        }
        match c.label() {
            Some((k, v)) => out.push_str(&format!("{}{{{}=\"{}\"}} {}\n", c.name(), k, v, c.get())),
            None => out.push_str(&format!("{} {}\n", c.name(), c.get())),
        }
    }
    for g in gauges {
        out.push_str(&format!("# HELP {} {}\n", g.name(), g.help()));
        out.push_str(&format!("# TYPE {} gauge\n", g.name()));
        out.push_str(&format!("{} {}\n", g.name(), g.get()));
    }
    let mut last_family = "";
    for h in histograms {
        if h.name() != last_family {
            out.push_str(&format!("# HELP {} {}\n", h.name(), h.help()));
            out.push_str(&format!("# TYPE {} histogram\n", h.name()));
            last_family = h.name();
        }
        // A constant label (e.g. segment="queue") prefixes every label
        // set; `_sum`/`_count` carry it alone.
        let (bucket_prefix, plain) = match h.label() {
            Some((k, v)) => (format!("{k}=\"{v}\","), format!("{{{k}=\"{v}\"}}")),
            None => (String::new(), String::new()),
        };
        let mut cumulative = 0u64;
        for (i, n) in h.nonzero_buckets() {
            cumulative += n;
            let le = bucket_upper_bound(i);
            if le == u64::MAX {
                continue; // folded into +Inf below
            }
            out.push_str(&format!(
                "{}_bucket{{{}le=\"{}\"}} {}\n",
                h.name(),
                bucket_prefix,
                le,
                cumulative
            ));
        }
        // Tail exemplar (OpenMetrics syntax) rides on the +Inf bucket,
        // only when one was recorded — zero-state renderings are
        // byte-identical to the pre-exemplar format.
        let exemplar = match h.exemplar() {
            Some((v, trace)) => format!(" # {{trace_id=\"{trace:x}\"}} {v}"),
            None => String::new(),
        };
        out.push_str(&format!(
            "{}_bucket{{{}le=\"+Inf\"}} {}{}\n",
            h.name(),
            bucket_prefix,
            h.count(),
            exemplar
        ));
        out.push_str(&format!("{}_sum{} {}\n", h.name(), plain, h.sum()));
        out.push_str(&format!("{}_count{} {}\n", h.name(), plain, h.count()));
    }
    out
}

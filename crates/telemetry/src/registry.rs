//! The static metric registry and Prometheus text exposition.
//!
//! Every metric in the DUET pipeline is a `static` declared once in the
//! `registry!` table below. Instrumented crates reference the statics
//! directly (e.g. `duet_telemetry::registry::SCHED_MOVES_ACCEPTED.inc()`);
//! the exposition walks the lists the table emits, so `/metrics` always
//! shows every family — zero-valued families included, which is what
//! lets a scrape assert presence before traffic arrives.
//!
//! The table has one section per metric type, in exposition order:
//! counters, gauges, histograms, then the kernel pool's counters. A
//! plain metric is one entry, `ID = "name", "help";`. A labeled family
//! states its name, help and label key once and lists its members,
//! `"name", "help", "key" { ID = "value", ... }`, so its samples print
//! as one group under one `# HELP`/`# TYPE` pair by construction.
//!
//! Naming scheme: `duet_<stage>_<what>[_total|_us]`, stages `compile`,
//! `profile`, `sched`, `exec`, `tape`, `arena`, `serve`, `insight`,
//! `tune`, `analysis` and `kernel_pool`. Counters of accumulated time
//! end in `_us_total`; histograms of microsecond values end in `_us`.

use crate::metric::{bucket_upper_bound, Counter, Gauge, Histogram};

/// Declares each section's statics with their `const` constructors, and
/// the function that returns them all in table order.
macro_rules! registry {
    (@ ($($head:tt)*) $ty:ident [$($id:ident)*]) => {
        $($head)*() -> &'static [&'static $ty] {
            static LIST: &[&$ty] = &[$(&$id),*];
            LIST
        }
    };
    (@ $head:tt $ty:ident [$($done:ident)*]
        $id:ident = $name:literal, $help:literal; $($rest:tt)*) => {
        pub static $id: $ty = $ty::new($name, $help);
        registry!(@ $head $ty [$($done)* $id] $($rest)*);
    };
    (@ $head:tt $ty:ident [$($done:ident)*]
        $name:literal, $help:literal, $key:literal { $($id:ident = $value:literal),+ $(,)? }
        $($rest:tt)*) => {
        $(pub static $id: $ty = $ty::with_label($name, $help, $key, $value);)+
        registry!(@ $head $ty [$($done)* $($id)+] $($rest)*);
    };
    ($($(#[$doc:meta])* $vis:vis fn $list:ident -> $ty:ident { $($table:tt)* })*) => {
        $(registry!(@ ($(#[$doc])* $vis fn $list) $ty [] $($table)*);)*
    };
}

registry! {
    /// Every registered counter, in exposition order.
    pub fn counters -> Counter {
        // ---- compile ----
        COMPILE_RUNS = "duet_compile_runs_total", "Compiler::optimize pipeline invocations";
        "duet_compile_pass_runs_total", "Optimization pass executions", "pass" {
            COMPILE_PASS_RUNS_FOLD = "fold_constants",
            COMPILE_PASS_RUNS_CSE = "cse",
            COMPILE_PASS_RUNS_DCE = "dce",
        }
        "duet_compile_pass_wall_us_total",
        "Accumulated wall time per optimization pass, microseconds", "pass" {
            COMPILE_PASS_US_FOLD = "fold_constants",
            COMPILE_PASS_US_CSE = "cse",
            COMPILE_PASS_US_DCE = "dce",
        }
        "duet_compile_pass_node_delta_total", "Nodes folded/merged/removed per pass", "pass" {
            COMPILE_PASS_DELTA_FOLD = "fold_constants",
            COMPILE_PASS_DELTA_CSE = "cse",
            COMPILE_PASS_DELTA_DCE = "dce",
        }
        // ---- profile ----
        PROFILE_SUBGRAPHS = "duet_profile_subgraphs_total",
            "Compiled subgraphs micro-benchmarked (both devices each)";
        "duet_profile_samples_total", "Profiling samples recorded after warm-up", "device" {
            PROFILE_SAMPLES_CPU = "cpu",
            PROFILE_SAMPLES_GPU = "gpu",
        }
        // ---- schedule (Algorithm 1 correction search) ----
        SCHED_CORRECTIONS = "duet_sched_corrections_total",
            "Correction searches run (offline builds + drift re-corrections)";
        SCHED_ROUNDS = "duet_sched_correction_rounds_total",
            "Correction rounds across all searches";
        SCHED_MOVES_EVALUATED = "duet_sched_moves_evaluated_total",
            "Candidate moves/swaps priced against measured latency";
        SCHED_MOVES_ACCEPTED = "duet_sched_moves_accepted_total",
            "Candidate moves that improved latency and were applied";
        SCHED_MOVES_REJECTED = "duet_sched_moves_rejected_total",
            "Candidate moves evaluated but not applied";
        // ---- execute ----
        EXEC_RUNS = "duet_exec_runs_total", "Heterogeneous executor inferences";
        "duet_exec_subgraphs_total", "Subgraph dispatches per device", "device" {
            EXEC_SUBGRAPHS_CPU = "cpu",
            EXEC_SUBGRAPHS_GPU = "gpu",
        }
        TAPE_RUNS = "duet_tape_runs_total", "Instruction-tape executions (memory-planned path)";
        TAPE_INSTRS = "duet_tape_instructions_total", "Tape instructions executed";
        "duet_arena_checkouts_total", "Tape-arena pool checkouts", "result" {
            ARENA_CHECKOUTS_CREATED = "created",
            ARENA_CHECKOUTS_REUSED = "reused",
        }
        // ---- serve ----
        SERVE_SUBMITTED = "duet_serve_submitted_total", "Requests submitted across all models";
        SERVE_ADMITTED = "duet_serve_admitted_total", "Requests accepted by admission control";
        SERVE_COMPLETED = "duet_serve_completed_total", "Requests answered successfully";
        "duet_serve_shed_total", "Requests shed", "reason" {
            SERVE_SHED_QUEUE_FULL = "queue_full",
            SERVE_SHED_EXPIRED = "expired",
        }
        SERVE_EXEC_ERRORS = "duet_serve_exec_errors_total", "Batches failed in execution";
        SERVE_BATCHES = "duet_serve_batches_total", "Batches executed by the dynamic batcher";
        SERVE_PLAN_SWAPS = "duet_serve_plan_swaps_total", "Drift-driven plan hot-swaps";
        SERVE_PLAN_SWAP_REJECTED = "duet_serve_plan_swap_rejected_total",
            "Re-corrected plans refused by the D5xx model-check gate";
        // ---- insight (per-request tracing, attribution, flight recorder) ----
        SERVE_SLO_BREACHES = "duet_serve_slo_breaches_total",
            "Requests whose sojourn exceeded the configured SLO budget";
        INSIGHT_TRACES = "duet_insight_traces_total",
            "Completed request traces pushed into the flight-recorder ring";
        "duet_insight_torn_reads_total",
        "Span-ring snapshot reads that caught a slot mid-write", "result" {
            INSIGHT_TORN_RETRIED = "retried",
            INSIGHT_TORN_SKIPPED = "skipped",
        }
        "duet_insight_dumps_total", "Flight-recorder dumps written per anomaly rule", "rule" {
            INSIGHT_DUMPS_SLO_BURN = "slo_burn",
            INSIGHT_DUMPS_SHED = "shed",
            INSIGHT_DUMPS_DRIFT_SWAP = "drift_swap",
            INSIGHT_DUMPS_SWAP_REFUSED = "swap_refused",
        }
        INSIGHT_DUMPS_SUPPRESSED = "duet_insight_dumps_suppressed_total",
            "Anomaly triggers suppressed because the once-per-run dump latch had fired";
        // ---- tune (simulator-oracle schedule search) ----
        TUNE_RUNS = "duet_tune_runs_total", "Autotuning searches run (one per model/batch tuned)";
        TUNE_CANDIDATES = "duet_tune_candidates_total",
            "Placement candidates priced by the simulator oracle";
        "duet_tune_promotions_total", "Winning plans through the D5xx/D2xx promotion gate",
        "result" {
            TUNE_PROMOTIONS_ACCEPTED = "accepted",
            TUNE_PROMOTIONS_REJECTED = "rejected",
        }
        // ---- analysis ----
        "duet_analysis_checks_total", "Analyzer invocations", "family" {
            ANALYSIS_CHECKS_GRAPH = "graph",
            ANALYSIS_CHECKS_PASS = "pass",
            ANALYSIS_CHECKS_PLAN = "plan",
            ANALYSIS_CHECKS_WITNESS = "witness",
            ANALYSIS_CHECKS_MEMORY = "memory",
            ANALYSIS_CHECKS_MODEL = "model",
            ANALYSIS_CHECKS_DATAFLOW = "dataflow",
        }
        "duet_analysis_diagnostics_total", "Diagnostics emitted per analyzer family", "family" {
            ANALYSIS_DIAGNOSTICS_GRAPH = "graph",
            ANALYSIS_DIAGNOSTICS_PASS = "pass",
            ANALYSIS_DIAGNOSTICS_PLAN = "plan",
            ANALYSIS_DIAGNOSTICS_WITNESS = "witness",
            ANALYSIS_DIAGNOSTICS_MEMORY = "memory",
            ANALYSIS_DIAGNOSTICS_MODEL = "model",
            ANALYSIS_DIAGNOSTICS_DATAFLOW = "dataflow",
        }
    }

    /// Every registered gauge.
    pub fn gauges -> Gauge {
        SCHED_PREDICTED_LATENCY_US = "duet_sched_predicted_latency_us",
            "Predicted end-to-end latency after the most recent correction, microseconds";
        SERVE_QUEUE_DEPTH = "duet_serve_queue_depth", "Requests currently queued across all models";
        SERVE_EPOCH = "duet_serve_epoch",
            "Highest metrics epoch across models (bumped on drift injection and hot-swap)";
    }

    /// Every registered histogram.
    pub fn histograms -> Histogram {
        // ---- schedule ----
        SCHED_ACCEPTED_GAIN_US = "duet_sched_accepted_gain_us",
            "Predicted latency improvement per accepted move, microseconds";
        SCHED_CORRECTION_WALL_US = "duet_sched_correction_wall_us",
            "Wall time of one correction search (Algorithm 1 step 3), microseconds";
        // ---- serve and insight ----
        SERVE_BATCH_SIZE = "duet_serve_batch_size", "Executed batch sizes (power-of-two chunks)";
        SERVE_SOJOURN_US = "duet_serve_sojourn_us",
            "Wall-clock sojourn per request (queueing + linger + execution), microseconds";
        SERVE_VIRTUAL_SERVICE_US = "duet_serve_virtual_service_us",
            "Per-request virtual service share on the modeled hardware, microseconds";
        "duet_serve_segment_us", "Per-request latency attribution per segment, microseconds",
        "segment" {
            SERVE_SEGMENT_QUEUE = "queue",
            SERVE_SEGMENT_LINGER = "linger",
            SERVE_SEGMENT_COMPUTE_CPU = "compute_cpu",
            SERVE_SEGMENT_COMPUTE_GPU = "compute_gpu",
            SERVE_SEGMENT_TRANSFER = "transfer",
            SERVE_SEGMENT_OVERHEAD = "overhead",
        }
        SERVE_SWAP_STALL_US = "duet_serve_swap_stall_us",
            "Wall time the serving worker spent re-planning on confirmed drift, microseconds";
        // ---- tune ----
        TUNE_ORACLE_WALL_US = "duet_tune_oracle_wall_us",
            "Wall time of one tune call's placement search, microseconds";
        TUNE_SEARCH_WALL_US = "duet_tune_search_wall_us",
            "End-to-end wall time per tune call (search and promotion), microseconds";
        // ---- analysis ----
        ANALYSIS_MODEL_CHECK_STATES = "duet_analysis_model_check_states",
            "States of the one run walked per plan model check (2n + 1 for n subgraphs)";
        ANALYSIS_MODEL_CHECK_WALL_US = "duet_analysis_model_check_wall_us",
            "Model-checker wall time per plan, microseconds";
        ANALYSIS_DATAFLOW_WALL_US = "duet_analysis_dataflow_wall_us",
            "Dataflow (abstract interpretation) wall time per graph, microseconds";
    }

    /// The `duet_kernel_pool_*` families: mirrors of the plain atomics the
    /// `rayon` stand-in owns (the pool cannot depend on this crate), raised
    /// to them at each exposition. Together they show whether the fork gate
    /// and the pool are work-conserving — regions forked vs kept inline,
    /// chunks run by workers vs by the submitting caller, and how often a
    /// worker parked.
    fn kernel_pool -> Counter {
        "duet_kernel_pool_regions_total",
        "Parallel kernel regions, by whether they were submitted to the pool \
            or run inline on their caller (single chunk, width 1, or below the fork gate)",
        "mode" {
            KERNEL_POOL_REGIONS_FORKED = "forked",
            KERNEL_POOL_REGIONS_INLINE = "inline",
        }
        "duet_kernel_pool_chunks_total",
        "Chunks of forked kernel regions, by the thread that ran them", "by" {
            KERNEL_POOL_CHUNKS_BY_WORKER = "worker",
            KERNEL_POOL_CHUNKS_BY_CALLER = "caller",
        }
        KERNEL_POOL_PARKS = "duet_kernel_pool_parks_total",
            "Times a pool worker stopped spinning for work and parked";
        KERNEL_POOL_MIGRATIONS = "duet_kernel_pool_migrations_total",
            "Times a pool worker woke on its submitter's CPU and moved itself off it";
    }
}

/// Render the full global registry in Prometheus text exposition format,
/// followed by the kernel pool's counters.
pub fn prometheus_text() -> String {
    let s = rayon::pool_stats();
    KERNEL_POOL_REGIONS_FORKED.raise_to(s.regions_forked);
    KERNEL_POOL_REGIONS_INLINE.raise_to(s.regions_inline);
    KERNEL_POOL_CHUNKS_BY_WORKER.raise_to(s.chunks_by_worker);
    KERNEL_POOL_CHUNKS_BY_CALLER.raise_to(s.chunks_by_caller);
    KERNEL_POOL_PARKS.raise_to(s.parks);
    KERNEL_POOL_MIGRATIONS.raise_to(s.migrations);
    let mut out = render_prometheus(counters(), gauges(), histograms());
    out.push_str(&render_prometheus(kernel_pool(), &[], &[]));
    out
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

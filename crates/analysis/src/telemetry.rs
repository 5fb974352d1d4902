//! Observability for the analyzers themselves.
//!
//! Every analyzer entry point records one `duet_analysis_checks_total`
//! tick and its emitted diagnostic count under its family label
//! (`graph`, `pass`, `plan`, `witness`, `memory`, `model`,
//! `dataflow`); the model checker additionally feeds its histograms of
//! the states of the one run it walks (2n + 1 for n subgraphs) and of
//! its wall time, and the dataflow analyzer its per-graph wall-time
//! histogram. All of it lands in the existing `duet-telemetry` registry,
//! so `duet-serve`'s `/metrics` and the `--metrics-out` snapshot expose
//! analysis activity alongside the pipeline metrics.

use duet_telemetry::registry as tm;

use crate::diagnostics::Report;
use crate::model_check::ModelCheckOutcome;

/// The analyzer family a report came from (one per code namespace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `D0xx` graph verifier.
    Graph,
    /// `D1xx` pass-invariant checker.
    Pass,
    /// `D2xx` plan/schedule linter.
    Plan,
    /// `D3xx` runtime-conformance checker.
    Witness,
    /// `D4xx` memory-plan checker.
    Memory,
    /// `D5xx` plan model checker.
    Model,
    /// `D6xx` dataflow (abstract interpretation) analyzer.
    Dataflow,
}

/// Record one analyzer invocation and its diagnostic yield.
pub fn record_check(family: Family, report: &Report) {
    let (checks, diags) = match family {
        Family::Graph => (&tm::ANALYSIS_CHECKS_GRAPH, &tm::ANALYSIS_DIAGNOSTICS_GRAPH),
        Family::Pass => (&tm::ANALYSIS_CHECKS_PASS, &tm::ANALYSIS_DIAGNOSTICS_PASS),
        Family::Plan => (&tm::ANALYSIS_CHECKS_PLAN, &tm::ANALYSIS_DIAGNOSTICS_PLAN),
        Family::Witness => (
            &tm::ANALYSIS_CHECKS_WITNESS,
            &tm::ANALYSIS_DIAGNOSTICS_WITNESS,
        ),
        Family::Memory => (
            &tm::ANALYSIS_CHECKS_MEMORY,
            &tm::ANALYSIS_DIAGNOSTICS_MEMORY,
        ),
        Family::Model => (&tm::ANALYSIS_CHECKS_MODEL, &tm::ANALYSIS_DIAGNOSTICS_MODEL),
        Family::Dataflow => (
            &tm::ANALYSIS_CHECKS_DATAFLOW,
            &tm::ANALYSIS_DIAGNOSTICS_DATAFLOW,
        ),
    };
    checks.inc();
    diags.add(report.diagnostics().len() as u64);
}

/// Record one model-checker run: the family tick plus exploration size
/// and wall time.
pub fn record_model_check(outcome: &ModelCheckOutcome) {
    record_check(Family::Model, &outcome.report);
    tm::ANALYSIS_MODEL_CHECK_STATES.observe(outcome.stats.states as u64);
    tm::ANALYSIS_MODEL_CHECK_WALL_US.observe_us(outcome.stats.wall_us);
}

/// Record one dataflow-analyzer run: the family tick plus per-graph
/// wall time.
pub fn record_dataflow(report: &Report, wall_us: u64) {
    record_check(Family::Dataflow, report);
    tm::ANALYSIS_DATAFLOW_WALL_US.observe_us(wall_us as f64);
}

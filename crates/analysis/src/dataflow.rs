//! The dataflow analyzer (`D6xx`).
//!
//! The diagnostic face of the abstract interpreter in
//! [`duet_ir::absint`]: runs the forward interval/NaN/Inf/constantness
//! analysis over a graph and maps each proven [`Hazard`] to a coded
//! diagnostic:
//!
//! * `D600` — a divisor is *certainly* exactly zero,
//! * `D601` — a mathematical domain violation can produce NaN, with
//!   the producing operand's path in the context,
//! * `D602` — the entire output interval lies beyond f32 range: every
//!   execution overflows to ±Inf,
//! * `D603` — a node's output is statically constant although a
//!   runtime-varying input feeds it (dead-by-constant subgraph,
//!   warning),
//! * `D604` — an op attribute makes interval reasoning (and the
//!   kernel) unsound, e.g. a non-positive layer-norm epsilon.
//!
//! The analyzer is *certainty-biased*: overflow-driven NaN arithmetic
//! (`Inf − Inf`, `0 × Inf`) only sets abstract facts silently —
//! otherwise every residual `Add` in a deep network would scream — and
//! errors fire only on violations the interpreter can actually prove.
//! All eight zoo models analyze clean; the mutation suite proves each
//! seeded corruption trips exactly its own code.

use std::time::Instant;

use duet_ir::absint::{self, AbsintConfig, DataflowFacts, Hazard, HazardKind};
use duet_ir::Graph;

use crate::codes;
use crate::diagnostics::{Diagnostic, Report};

/// Run the dataflow analyzer with the default configuration (inputs
/// assumed finite f32, caps as documented on [`AbsintConfig`]).
pub fn check_dataflow(graph: &Graph) -> Report {
    check_dataflow_with(graph, &AbsintConfig::default()).0
}

/// Run the dataflow analyzer with an explicit configuration and return
/// the underlying facts alongside the report (the tape planner and
/// pass checker consume the facts; the CLI consumes the report).
pub fn check_dataflow_with(graph: &Graph, cfg: &AbsintConfig) -> (Report, DataflowFacts) {
    let t0 = Instant::now();
    let facts = absint::analyze_values_with(graph, cfg);
    let report = report_since(graph, &facts, t0);
    (report, facts)
}

/// The `D6xx` report of facts a caller already holds for `graph` — the
/// checked optimizer's, which analysed this very graph one step earlier
/// (`Compiler::optimize_with_facts`). No second analysis runs.
pub fn dataflow_report(graph: &Graph, facts: &DataflowFacts) -> Report {
    report_since(graph, facts, Instant::now())
}

fn report_since(graph: &Graph, facts: &DataflowFacts, t0: Instant) -> Report {
    let mut report = Report::new(format!("{}/dataflow", graph.name));
    for hazard in &facts.hazards {
        report.push(hazard_to_diagnostic(graph, hazard));
    }
    crate::telemetry::record_dataflow(&report, t0.elapsed().as_micros() as u64);
    report
}

/// Map one interpreter hazard to its coded diagnostic.
pub fn hazard_to_diagnostic(graph: &Graph, hazard: &Hazard) -> Diagnostic {
    let (code, warning) = match hazard.kind {
        HazardKind::CertainDivByZero => (codes::DATAFLOW_DIV_BY_ZERO, false),
        HazardKind::NanProduction { .. } => (codes::DATAFLOW_NAN, false),
        HazardKind::CertainOverflow => (codes::DATAFLOW_OVERFLOW, false),
        HazardKind::DeadByConstant => (codes::DATAFLOW_DEAD_CONST, true),
        HazardKind::UnsoundAttribute => (codes::DATAFLOW_BAD_ATTRIBUTE, false),
    };
    let mut d = if warning {
        Diagnostic::warning(code, hazard.detail.clone())
    } else {
        Diagnostic::error(code, hazard.detail.clone())
    }
    .with_node(hazard.node);
    if !hazard.path.is_empty() {
        let rendered: Vec<String> = hazard
            .path
            .iter()
            .map(|&id| {
                if id < graph.len() {
                    format!("{id}:{}", graph.node(id).op.name())
                } else {
                    format!("{id}:?")
                }
            })
            .collect();
        d = d.with_context(format!("via {}", rendered.join(" <- ")));
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_ir::{Graph, Op};
    use duet_tensor::Tensor;

    #[test]
    fn clean_graph_reports_clean() {
        let mut g = Graph::new("clean");
        let x = g.add_input("x", vec![2, 8]);
        let w = g.add_constant("w", Tensor::randn(vec![8, 4], 0.1, 1));
        let m = g.add_op("m", Op::MatMul, &[x, w]).unwrap();
        let s = g.add_op("s", Op::Softmax, &[m]).unwrap();
        g.mark_output(s).unwrap();
        let report = check_dataflow(&g);
        assert!(!report.has_errors(), "{}", report.render());
        assert_eq!(report.warning_count(), 0);
    }

    #[test]
    fn nan_diagnostic_carries_producer_path() {
        let mut g = Graph::new("nan");
        let x = g.add_input("x", vec![1, 2, 2, 2]);
        let gamma = g.add_constant("g", Tensor::full(vec![2], 1.0));
        let beta = g.add_constant("b", Tensor::full(vec![2], 0.0));
        let mean = g.add_constant("m", Tensor::full(vec![2], 0.0));
        let var = g.add_constant("v", Tensor::full(vec![2], -0.5));
        let bn = g
            .add_op("bn", Op::BatchNorm2d, &[x, gamma, beta, mean, var])
            .unwrap();
        g.mark_output(bn).unwrap();
        let report = check_dataflow(&g);
        assert!(report.contains(codes::DATAFLOW_NAN));
        let diag = report
            .diagnostics()
            .iter()
            .find(|d| d.code == codes::DATAFLOW_NAN)
            .unwrap();
        assert_eq!(diag.node, Some(bn));
        assert!(
            diag.context.as_deref().unwrap_or("").contains("const"),
            "path should name the var producer: {diag}"
        );
    }
}

//! The pass-invariant checker (`D1xx`).
//!
//! The mechanical checks live in [`duet_compiler::invariants`] — they
//! must, so [`Compiler::optimize`] can run them after every pass without
//! depending on this crate. This module is the diagnostics face: it runs
//! the pipeline with checking forced on and converts any
//! [`PassViolation`] into a coded [`Diagnostic`] whose context names the
//! offending pass.
//!
//! [`Compiler::optimize`]: duet_compiler::Compiler::optimize

use duet_compiler::invariants::ViolationKind;
use duet_compiler::{CompileError, CompileOptions, Compiler, OptimizeStats, PassViolation};
use duet_ir::Graph;

use crate::codes;
use crate::diagnostics::{Diagnostic, Report};

/// Map a compiler-reported violation onto its stable diagnostic code.
pub fn violation_to_diagnostic(v: &PassViolation) -> Diagnostic {
    let code = match v.kind {
        ViolationKind::OutputInterfaceChanged => codes::PASS_OUTPUT_INTERFACE,
        ViolationKind::BrokeValidation => codes::PASS_BROKE_VALIDATION,
        ViolationKind::RemovedLiveNode => codes::PASS_REMOVED_LIVE_NODE,
        ViolationKind::GrewGraph => codes::PASS_GREW_GRAPH,
        ViolationKind::WidenedAbstractState => codes::PASS_WIDENED_ABSTRACT,
    };
    let mut d = Diagnostic::error(code, v.detail.clone()).with_context(v.pass);
    if let Some(n) = v.node {
        d = d.with_node(n);
    }
    d
}

/// Run the optimization pipeline with invariant checking forced on.
///
/// Returns the optimized graph and stats when the pipeline held its
/// invariants, `None` plus the failure diagnostics otherwise. This is
/// what `duet lint` runs per model; passing means fold → CSE → DCE all
/// preserved the graph's interface and structure.
pub fn check_optimize(
    graph: &Graph,
    options: CompileOptions,
) -> (Option<(Graph, OptimizeStats)>, Report) {
    let mut report = Report::new(format!("{}:passes", graph.name));
    let out = match Compiler::new(options.with_check(true)).optimize(graph) {
        Ok(result) => (Some(result), report),
        Err(CompileError::Invariant(v)) => {
            report.push(violation_to_diagnostic(&v));
            (None, report)
        }
        Err(CompileError::Graph(e)) => {
            report.push(Diagnostic::error(
                codes::PASS_FAILED,
                format!("pipeline error: {e}"),
            ));
            (None, report)
        }
    };
    crate::telemetry::record_check(crate::telemetry::Family::Pass, &out.1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_compiler::invariants::check_pass;
    use duet_ir::{Graph, Op};

    fn chain() -> Graph {
        let mut g = Graph::new("c");
        let x = g.add_input("x", vec![4]);
        let r = g.add_op("r", Op::Relu, &[x]).unwrap();
        g.mark_output(r).unwrap();
        g
    }

    #[test]
    fn clean_pipeline_reports_nothing() {
        let (opt, report) = check_optimize(&chain(), CompileOptions::full());
        assert!(opt.is_some());
        assert!(report.is_clean());
    }

    #[test]
    fn each_violation_kind_has_a_distinct_code() {
        let g = chain();
        let mut shrunk = Graph::new("c");
        let x = shrunk.add_input("x", vec![4]);
        shrunk.mark_output(x).unwrap();
        let grown = {
            let mut g2 = g.clone();
            g2.add_op("extra", Op::Tanh, &[0]).unwrap();
            g2
        };
        let removed = check_pass("dce", &g, &shrunk, true).unwrap_err();
        let grew = check_pass("cse", &g, &grown, false).unwrap_err();
        assert_eq!(
            violation_to_diagnostic(&removed).code,
            codes::PASS_REMOVED_LIVE_NODE
        );
        assert_eq!(violation_to_diagnostic(&grew).code, codes::PASS_GREW_GRAPH);
        assert_eq!(
            violation_to_diagnostic(&removed).context.as_deref(),
            Some("dce")
        );
    }

    #[test]
    fn widened_abstract_state_maps_to_d105() {
        use duet_compiler::invariants::check_dataflow_refinement;
        use duet_ir::absint::{analyze_values, AbsintConfig};
        let g = chain();
        // "Optimizing" relu(x) to x widens [0, MAX] back to [-MAX, MAX].
        let mut widened = Graph::new("c");
        let x = widened.add_input("x", vec![4]);
        widened.mark_output(x).unwrap();
        let cfg = AbsintConfig::default();
        let v = check_dataflow_refinement(
            "fold_constants",
            &g,
            &analyze_values(&g),
            &widened,
            &analyze_values(&widened),
            &cfg,
        )
        .unwrap_err();
        let d = violation_to_diagnostic(&v);
        assert_eq!(d.code, codes::PASS_WIDENED_ABSTRACT);
        assert_eq!(d.context.as_deref(), Some("fold_constants"));
    }
}

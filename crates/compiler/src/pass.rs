//! The compiler driver: pass pipeline + lowering entry points.

use duet_ir::absint::{analyze_values_with, AbsintConfig, DataflowFacts};
use duet_ir::{Graph, GraphError, NodeId};
use duet_telemetry::metric::Counter;
use duet_telemetry::{registry as tm, SpanKind};

use crate::invariants::{self, PassViolation};
use crate::lower::CompiledSubgraph;
use crate::passes;

/// Which optimizations to run.
///
/// [`CompileOptions::full`] is the TVM-like configuration DUET profiles
/// and schedules against; [`CompileOptions::none`] is the DL-framework
/// configuration (one kernel per operator, nothing folded) used by the
/// `duet-frameworks` baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    pub fold_constants: bool,
    pub cse: bool,
    pub dce: bool,
    pub fusion: bool,
    /// Verify pass invariants after every pass (LLVM-verifier style, see
    /// [`crate::invariants`]). Defaults to on in debug builds and off in
    /// release; release users opt in via [`CompileOptions::with_check`]
    /// or [`CompileOptions::checked`].
    pub check: bool,
}

impl CompileOptions {
    /// All passes on.
    pub fn full() -> Self {
        CompileOptions {
            fold_constants: true,
            cse: true,
            dce: true,
            fusion: true,
            check: cfg!(debug_assertions),
        }
    }

    /// All passes off.
    pub fn none() -> Self {
        CompileOptions {
            fold_constants: false,
            cse: false,
            dce: false,
            fusion: false,
            check: cfg!(debug_assertions),
        }
    }

    /// All passes on, invariant checking forced on regardless of build
    /// profile (what `duet-lint` and the analysis harness use).
    pub fn checked() -> Self {
        CompileOptions {
            check: true,
            ..Self::full()
        }
    }

    /// Set invariant checking explicitly.
    pub fn with_check(mut self, check: bool) -> Self {
        self.check = check;
        self
    }
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self::full()
    }
}

/// Why compilation failed: either a pass itself errored, or (in check
/// mode) a pass ran but produced a graph that breaks an invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A pass reported a graph error while rewriting.
    Graph(GraphError),
    /// A pass completed but its output violates a pipeline invariant.
    Invariant(PassViolation),
}

impl From<GraphError> for CompileError {
    fn from(e: GraphError) -> Self {
        CompileError::Graph(e)
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Graph(e) => write!(f, "{e}"),
            CompileError::Invariant(v) => write!(f, "{v}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// What the graph-level pipeline did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizeStats {
    pub nodes_before: usize,
    pub nodes_after: usize,
    pub constants_folded: usize,
    pub subexpressions_merged: usize,
    pub dead_removed: usize,
}

/// One graph-level pass of the pipeline and where its numbers go.
struct Pass {
    name: &'static str,
    run: fn(&Graph) -> Result<(Graph, usize), GraphError>,
    /// May delete dead nodes but must never touch live ones (DCE).
    removal_only: bool,
    stat: fn(&mut OptimizeStats) -> &mut usize,
    span: SpanKind,
    runs: &'static Counter,
    wall_us: &'static Counter,
    delta: &'static Counter,
}

static FOLD: Pass = Pass {
    name: "fold_constants",
    run: passes::fold_constants,
    removal_only: false,
    stat: |s| &mut s.constants_folded,
    span: SpanKind::PassFoldConstants,
    runs: &tm::COMPILE_PASS_RUNS_FOLD,
    wall_us: &tm::COMPILE_PASS_US_FOLD,
    delta: &tm::COMPILE_PASS_DELTA_FOLD,
};
static CSE: Pass = Pass {
    name: "cse",
    run: passes::eliminate_common_subexpressions,
    removal_only: false,
    stat: |s| &mut s.subexpressions_merged,
    span: SpanKind::PassCse,
    runs: &tm::COMPILE_PASS_RUNS_CSE,
    wall_us: &tm::COMPILE_PASS_US_CSE,
    delta: &tm::COMPILE_PASS_DELTA_CSE,
};
static DCE: Pass = Pass {
    name: "dce",
    run: passes::eliminate_dead_code,
    removal_only: true,
    stat: |s| &mut s.dead_removed,
    span: SpanKind::PassDce,
    runs: &tm::COMPILE_PASS_RUNS_DCE,
    wall_us: &tm::COMPILE_PASS_US_DCE,
    delta: &tm::COMPILE_PASS_DELTA_DCE,
};

/// The optimizing compiler.
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    options: CompileOptions,
}

impl Compiler {
    /// Compiler with explicit options.
    pub fn new(options: CompileOptions) -> Self {
        Compiler { options }
    }

    /// The active options.
    pub fn options(&self) -> CompileOptions {
        self.options
    }

    /// Run the graph-level pipeline: fold → CSE → DCE.
    ///
    /// With [`CompileOptions::check`] set, every pass is verified
    /// immediately after it runs (see [`crate::invariants`]); a failure
    /// names the offending pass instead of surfacing later as a
    /// mis-profiled schedule or an executor panic.
    pub fn optimize(&self, graph: &Graph) -> Result<(Graph, OptimizeStats), CompileError> {
        self.optimize_with_facts(graph)
            .map(|(g, stats, _)| (g, stats))
    }

    /// [`Compiler::optimize`], also handing back the abstract dataflow
    /// facts of the optimized graph that check mode computed along the
    /// way (`None` exactly when check mode is off) — so a D6xx gate
    /// behind the optimizer reads them instead of analysing the same
    /// graph again.
    pub fn optimize_with_facts(
        &self,
        graph: &Graph,
    ) -> Result<(Graph, OptimizeStats, Option<DataflowFacts>), CompileError> {
        let o = self.options;
        let passes: Vec<&Pass> = [(o.fold_constants, &FOLD), (o.cse, &CSE), (o.dce, &DCE)]
            .into_iter()
            .filter_map(|(on, pass)| on.then_some(pass))
            .collect();
        self.run_pipeline(graph, &passes)
    }

    fn run_pipeline(
        &self,
        graph: &Graph,
        passes: &[&Pass],
    ) -> Result<(Graph, OptimizeStats, Option<DataflowFacts>), CompileError> {
        let pipeline_start = duet_telemetry::clock_us();
        tm::COMPILE_RUNS.inc();
        let mut stats = OptimizeStats {
            nodes_before: graph.len(),
            ..Default::default()
        };
        let mut g = graph.clone();
        // In check mode every pass must also *refine* abstract dataflow
        // state (intervals shrink, NaN/Inf facts never appear). The facts
        // of the running graph are carried forward, so a pass costs one
        // re-analysis — and none at all when it handed back the program
        // it was given.
        let cfg = AbsintConfig::default();
        let mut facts = self.options.check.then(|| analyze_values_with(&g, &cfg));
        for pass in passes {
            let t0 = duet_telemetry::clock_us();
            let (g2, n) = (pass.run)(&g)?;
            if let Some(before) = &mut facts {
                invariants::check_pass(pass.name, &g, &g2, pass.removal_only)
                    .map_err(CompileError::Invariant)?;
                // Keyed on the graphs themselves, never on the count the
                // pass reports about itself.
                if !g2.same_program(&g) {
                    let after = analyze_values_with(&g2, &cfg);
                    invariants::check_dataflow_refinement(pass.name, &g, before, &g2, &after, &cfg)
                        .map_err(CompileError::Invariant)?;
                    *before = after;
                }
            }
            g = g2;
            *(pass.stat)(&mut stats) = n;
            let dur = duet_telemetry::clock_us() - t0;
            pass.runs.inc();
            pass.wall_us.add_us(dur);
            pass.delta.add(n as u64);
            duet_telemetry::record_span(pass.span, n as u64, t0, dur, 0.0, 0.0);
        }
        stats.nodes_after = g.len();
        duet_telemetry::record_span(
            SpanKind::CompileOptimize,
            stats.nodes_before as u64,
            pipeline_start,
            duet_telemetry::clock_us() - pipeline_start,
            stats.nodes_after as f64,
            0.0,
        );
        Ok((g, stats, facts))
    }

    /// Lower a node subset of an (already optimized) graph into a
    /// compiled subgraph, applying fusion if enabled.
    pub fn compile_nodes(
        &self,
        graph: &Graph,
        nodes: &[NodeId],
        name: impl Into<String>,
    ) -> CompiledSubgraph {
        let groups = if self.options.fusion {
            passes::fuse_groups(graph, nodes)
        } else {
            let mut sorted = nodes.to_vec();
            sorted.sort_unstable();
            sorted.into_iter().map(|n| vec![n]).collect()
        };
        if self.options.check {
            invariants::assert_fusion_groups(nodes, &groups);
        }
        CompiledSubgraph::from_groups(graph, name, groups)
    }

    /// Lower the entire graph as one subgraph (single-device execution).
    pub fn compile_whole(&self, graph: &Graph, name: impl Into<String>) -> CompiledSubgraph {
        self.compile_nodes(graph, &graph.compute_ids(), name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_ir::{GraphBuilder, Op};
    use duet_tensor::Tensor;
    use std::collections::HashMap;

    fn messy_graph() -> (Graph, NodeId) {
        // Contains: a foldable constant branch, a duplicate subexpression,
        // and a dead branch.
        let mut g = Graph::new("messy");
        let x = g.add_input("x", vec![4]);
        let c1 = g.add_constant("c1", Tensor::full(vec![4], 2.0));
        let c2 = g.add_constant("c2", Tensor::full(vec![4], 3.0));
        let csum = g.add_op("csum", Op::Add, &[c1, c2]).unwrap(); // foldable
        let r1 = g.add_op("r1", Op::Relu, &[x]).unwrap();
        let r2 = g.add_op("r2", Op::Relu, &[x]).unwrap(); // duplicate
        let m = g.add_op("m", Op::Mul, &[r1, csum]).unwrap();
        let a = g.add_op("a", Op::Add, &[m, r2]).unwrap();
        let _dead = g.add_op("dead", Op::Tanh, &[x]).unwrap();
        g.mark_output(a).unwrap();
        (g, x)
    }

    #[test]
    fn full_pipeline_shrinks_and_preserves() {
        let (g, x) = messy_graph();
        let c = Compiler::new(CompileOptions::full());
        let (g2, stats) = c.optimize(&g).unwrap();
        assert_eq!(stats.constants_folded, 1);
        assert_eq!(stats.subexpressions_merged, 1);
        assert!(stats.dead_removed >= 1);
        assert!(stats.nodes_after < stats.nodes_before);
        let t = Tensor::randn(vec![4], 1.0, 1);
        let o1 = g.eval(&HashMap::from([(x, t.clone())])).unwrap();
        let o2 = g2.eval(&HashMap::from([(g2.input_ids()[0], t)])).unwrap();
        assert!(o1[0].approx_eq(&o2[0], 1e-6));
    }

    #[test]
    fn lying_pass_that_widens_a_value_is_refused() {
        // Reports zero rewrites, but rewires the output past the relu:
        // its [0, MAX] interval widens back to the raw input's. The
        // facts carry-over is keyed on the graphs, so the count cannot
        // talk the pipeline out of re-analysing.
        fn widen(g: &Graph) -> Result<(Graph, usize), GraphError> {
            let mut out = Graph::new(g.name.clone());
            let x = out.add_input("x", vec![4]);
            let t = out.add_op("t", Op::Tanh, &[x])?;
            out.mark_output(t)?;
            Ok((out, 0))
        }
        let liar = Pass {
            name: "liar",
            run: widen,
            ..FOLD
        };
        let honest = Pass {
            name: "noop",
            run: |g| Ok((g.clone(), 0)),
            ..FOLD
        };
        let mut g = Graph::new("chain");
        let x = g.add_input("x", vec![4]);
        let r = g.add_op("r", Op::Relu, &[x]).unwrap();
        let t = g.add_op("t", Op::Tanh, &[r]).unwrap();
        g.mark_output(t).unwrap();

        let checked = Compiler::new(CompileOptions::checked());
        let err = checked.run_pipeline(&g, &[&honest, &liar]).unwrap_err();
        match err {
            CompileError::Invariant(v) => {
                assert_eq!(v.pass, "liar");
                assert_eq!(
                    v.kind,
                    crate::invariants::ViolationKind::WidenedAbstractState
                );
            }
            other => panic!("expected a refinement violation, got {other}"),
        }
        // The honest no-op passes, and the facts handed on are the input's.
        let (_, stats, facts) = checked.run_pipeline(&g, &[&honest, &honest]).unwrap();
        assert_eq!(stats.constants_folded, 0);
        let facts = facts.expect("check mode returns facts");
        let want = duet_ir::absint::analyze_values(&g);
        assert_eq!(format!("{}", facts.val(t)), format!("{}", want.val(t)));
        // Unchecked pipelines verify nothing and return no facts.
        let unchecked = Compiler::new(CompileOptions::full().with_check(false));
        assert!(unchecked.run_pipeline(&g, &[&liar]).unwrap().2.is_none());
    }

    #[test]
    fn none_options_are_identity() {
        let (g, _) = messy_graph();
        let c = Compiler::new(CompileOptions::none());
        let (g2, stats) = c.optimize(&g).unwrap();
        assert_eq!(g2.len(), g.len());
        assert_eq!(stats.constants_folded, 0);
    }

    #[test]
    fn compile_whole_without_fusion_has_one_kernel_per_op() {
        let mut b = GraphBuilder::new("m", 2);
        let x = b.input("x", vec![1, 8]);
        let y = b.dense("fc", x, 4, Some(Op::Relu)).unwrap();
        let g = b.finish(&[y]).unwrap();
        let unfused = Compiler::new(CompileOptions::none()).compile_whole(&g, "u");
        assert_eq!(unfused.kernel_count(), g.compute_ids().len());
        let fused = Compiler::new(CompileOptions::full()).compile_whole(&g, "f");
        assert!(fused.kernel_count() < unfused.kernel_count());
    }

    #[test]
    fn optimized_graph_lowering_runs() {
        let (g, x) = messy_graph();
        let c = Compiler::default();
        let (g2, _) = c.optimize(&g).unwrap();
        let sg = c.compile_whole(&g2, "m");
        let t = Tensor::randn(vec![4], 1.0, 3);
        let x2 = g2.input_ids()[0];
        let out = sg.execute(&g2, &HashMap::from([(x2, t.clone())])).unwrap();
        let want = g.eval(&HashMap::from([(x, t)])).unwrap();
        assert!(out[&g2.outputs()[0]].approx_eq(&want[0], 1e-6));
    }
}

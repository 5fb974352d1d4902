//! Direct layer probes: the traced run's per-layer numbers that a
//! window cannot give, one file per crate. Unlike the workloads these
//! reach below the facade on purpose — `../api.json` lists every
//! function each file calls, so an issue that renames one knows it
//! needs a benchmark change first.
//!
//! Every probe times a call into a public function as the median of
//! repeated calls after one untimed call, inside one span.

pub mod analysis;
pub mod compiler;
pub mod core;
pub mod runtime;
pub mod serve;
pub mod telemetry;
pub mod tensor;
pub mod tune;

use std::collections::HashMap;
use std::time::{Duration, Instant};

use duet_core::Duet;
use duet_ir::{Graph, NodeId};
use duet_models::{input_feeds, wide_and_deep, zoo_model, WideAndDeepConfig};
use duet_serve::ModelSpec;
use duet_tensor::Tensor;

use crate::stats::median;
use crate::trace::{Open, Tracer};

/// (metric name, value) pairs a probe reports.
pub type Readings = Vec<(&'static str, f64)>;

/// What the probes share: the paper-scale `wide_and_deep` (the model
/// `infer_heavy` runs), its engine, one feed set, and the tiny batch-8
/// siamese engine `serve_sat` spends its time in.
pub struct Probe<'t> {
    pub tracer: &'t Tracer,
    /// Repeat each timed call for about this long.
    pub budget: Duration,
    pub wd_model: Graph,
    pub wd: Duet,
    pub wd_feeds: HashMap<NodeId, Tensor>,
    pub tiny: Duet,
    pub tiny_feeds: HashMap<NodeId, Tensor>,
    pub resnet18: Graph,
}

impl<'t> Probe<'t> {
    pub fn new(tracer: &'t Tracer, budget: Duration) -> Self {
        let wd_model = wide_and_deep(&WideAndDeepConfig::default());
        let wd = Duet::builder()
            .build(&wd_model)
            .expect("wide_and_deep builds");
        let wd_feeds = input_feeds(wd.graph(), 1);
        let tiny_model = crate::workloads::serve_sat::model().graph_at(8);
        let tiny = Duet::builder()
            .build(&tiny_model)
            .expect("siamese_tiny builds");
        let tiny_feeds = input_feeds(tiny.graph(), 1);
        Probe {
            tracer,
            budget,
            wd_model,
            wd,
            wd_feeds,
            tiny,
            tiny_feeds,
            resnet18: zoo_model("resnet18").expect("resnet18 is in the zoo"),
        }
    }

    /// Median wall time of `f`, µs: one untimed call, then at least
    /// three timed ones and as many more as fit the budget.
    pub fn time_us(&self, span: &'static str, mut f: impl FnMut()) -> f64 {
        let open = self.tracer.begin(span, Open::NONE, 0);
        f();
        let began = Instant::now();
        let mut times = Vec::new();
        while times.len() < 3 || (began.elapsed() < self.budget && times.len() < 10_000) {
            let t = Instant::now();
            f();
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
        self.tracer.end(open);
        median(&times)
    }

    pub fn time_ms(&self, span: &'static str, f: impl FnMut()) -> f64 {
        self.time_us(span, f) / 1e3
    }
}

/// Run every layer's probes. `serve_model` and `serve_batch` pick the
/// model and engine variant `layers::serve` measures (the traced
/// workload's own, when it is a serve workload).
pub fn run_all(
    tracer: &Tracer,
    budget: Duration,
    serve_model: fn() -> ModelSpec,
    serve_batch: usize,
) -> Readings {
    let probe = Probe::new(tracer, budget);
    let mut out = Readings::new();
    out.extend(tensor::probe(&probe));
    let subgraphs =
        compiler::subgraph_times(&probe, &probe.wd, &probe.wd_feeds, "compiler.subgraph_sum");
    out.extend(compiler::probe(&probe, &subgraphs));
    out.extend(runtime::probe(&probe, &subgraphs));
    out.extend(core::probe(&probe));
    out.extend(analysis::probe(&probe));
    out.extend(tune::probe(&probe));
    out.extend(serve::probe(&probe, serve_model, serve_batch));
    out.extend(telemetry::probe(&probe));
    out
}

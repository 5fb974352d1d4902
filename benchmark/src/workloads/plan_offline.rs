//! `plan_offline`: the compiler half of a compiler-runtime paper. One
//! caller, no kernels: each operation takes seven zoo graphs through
//! checked build → plan export/replay → recorrection under a degraded
//! GPU → autotune → autotune under drift, plus one per-operator build of
//! `resnet18`. `duet-compiler` passes, `duet-core` partition and
//! Algorithm 1, the D2xx/D5xx/D6xx checkers in `duet-analysis`, the
//! simulator in `duet-runtime` and `duet-tune` do all the work here and
//! none of it in the other three workloads. The scheduler is used both
//! ways: search, beside plan replay.
//!
//! The run is pinned to one CPU (`ONE_CPU`): the only threads here are
//! the tuner's scoped evaluation workers, and on the 2-vCPU host
//! starting and joining them across vCPUs made an operation a fifth
//! slower than running it on one (152 → 125 ms), by an amount that
//! follows the co-tenants (see `crate::pin`).
//!
//! There is no tensor output to compare; the oracle is a set of
//! verdicts (the `verdicts_ok` checks in `operation`, one more in
//! `prepare`), and every operation must reproduce the
//! first one's modeled latencies bit for bit.

use std::time::Instant;

use duet_compiler::CompileOptions;
use duet_core::{Duet, EngineError, Granularity, SchedulePlan, SchedulePolicy};
use duet_ir::Graph;
use duet_models::zoo_model;
use duet_serve::loadgen::degraded_gpu;
use duet_tune::{tune, tune_drifted, TuneConfig};

use super::{Counts, Samples, Window, Workload, WorkloadSpec};
use crate::trace::{Open, Tracer};

pub const SPEC: WorkloadSpec = WorkloadSpec {
    name: "plan_offline",
    open_loop: false,
    tail_pct: 90.0,
    slo_ms: 400.0,
};

/// `vgg16` is left out: its build is a third of the whole zoo's and
/// exercises nothing `resnet50` does not.
pub const MODELS: [&str; 7] = [
    "wide_and_deep",
    "siamese",
    "mtdnn",
    "resnet18",
    "resnet50",
    "mobilenet",
    "squeezenet",
];
/// The one graph also built at per-operator granularity. Doing that for
/// all seven would be ~90 % of the operation and hide everything else.
const PER_OPERATOR_MODEL: usize = 3;
/// `SchedulePolicy::Ideal` enumerates 2^n placements.
const IDEAL_MAX_UNITS: usize = 16;

/// The modeled latencies one operation produced, as bits: the
/// determinism signature later operations must reproduce.
type Signature = Vec<u64>;

pub struct PlanOffline {
    graphs: Vec<Graph>,
    first: Signature,
    /// Per model, from the first operation: tuned latency (µs) and
    /// the number of subgraphs scheduled.
    tuned_us: Vec<f64>,
    units: Vec<usize>,
}

struct OpResult {
    signature: Signature,
    tuned_us: Vec<f64>,
    units: Vec<usize>,
    /// Every in-operation verdict held.
    verdicts_ok: bool,
}

/// One operation. `Err` means a build refused a graph or plan (lint,
/// model check or dataflow errors included — those are `EngineError`s).
fn operation(
    graphs: &[Graph],
    tracer: &Tracer,
    root: Open,
    op: u64,
) -> Result<OpResult, EngineError> {
    let mut signature = Vec::with_capacity(graphs.len() * 5 + 1);
    let mut tuned_us = Vec::with_capacity(graphs.len());
    let mut units = Vec::with_capacity(graphs.len());
    let mut verdicts_ok = true;
    let cfg = TuneConfig::default();
    for graph in graphs {
        let engine = tracer.span("core.build", root, op, || {
            Duet::builder()
                .compile_options(CompileOptions::checked())
                .build(graph)
        })?;

        let replayed = tracer.span("core.build_with_plan", root, op, || {
            let json = engine.export_plan().to_json();
            let plan = SchedulePlan::from_json(&json).expect("an exported plan parses");
            Duet::builder().build_with_plan(graph, &plan)
        })?;
        verdicts_ok &= replayed.devices() == engine.devices()
            && replayed.latency_us().to_bits() == engine.latency_us().to_bits();

        let degraded = degraded_gpu(engine.system());
        let recorrected = tracer.span("core.recorrect", root, op, || {
            engine.recorrect(degraded.clone())
        });

        let tuned = tracer.span("tune.tune", root, op, || tune(&engine, &cfg));
        verdicts_ok &= tuned.promoted && tuned.tuned_us <= engine.latency_us();

        let drifted = tracer.span("tune.tune_drifted", root, op, || {
            tune_drifted(&engine, degraded, &cfg)
        });
        verdicts_ok &= drifted.promoted && drifted.tuned_us <= recorrected.latency_us();

        signature.extend(
            [
                engine.latency_us(),
                replayed.latency_us(),
                recorrected.latency_us(),
                tuned.tuned_us,
                drifted.tuned_us,
            ]
            .map(f64::to_bits),
        );
        tuned_us.push(tuned.tuned_us);
        units.push(engine.units().len());
    }
    let per_operator = tracer.span("core.per_operator_build", root, op, || {
        Duet::builder()
            .granularity(Granularity::PerOperator)
            .build(&graphs[PER_OPERATOR_MODEL])
    })?;
    signature.push(per_operator.latency_us().to_bits());
    Ok(OpResult {
        signature,
        tuned_us,
        units,
        verdicts_ok,
    })
}

impl Workload for PlanOffline {
    const SPEC: &'static WorkloadSpec = &SPEC;
    const ONE_CPU: bool = true;

    fn set_up() -> Self {
        let graphs: Vec<Graph> = MODELS
            .iter()
            .map(|name| zoo_model(name).expect("a zoo model"))
            .collect();
        let first = operation(&graphs, &Tracer::new(false), Open::NONE, 0)
            .expect("every zoo model builds, checked");
        assert!(first.verdicts_ok, "the first operation's verdicts hold");
        PlanOffline {
            graphs,
            first: first.signature,
            tuned_us: first.tuned_us,
            units: first.units,
        }
    }

    /// The one verdict too slow for the loop: where a model has few
    /// enough subgraphs to enumerate, the tuner's answer equals the
    /// exhaustive optimum.
    fn prepare(&mut self, _seed: u64) {
        for ((graph, &tuned_us), &units) in self.graphs.iter().zip(&self.tuned_us).zip(&self.units)
        {
            if units > IDEAL_MAX_UNITS {
                continue;
            }
            let ideal = Duet::builder()
                .policy(SchedulePolicy::Ideal)
                .build(graph)
                .expect("a zoo model builds");
            assert_eq!(
                tuned_us.to_bits(),
                ideal.latency_us().to_bits(),
                "{}: tune is not the enumerated optimum",
                graph.name
            );
        }
    }

    fn window(&mut self, seconds: f64, tracer: &Tracer) -> Window {
        let mut counts = Counts::default();
        let mut samples = Samples::default();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let op = counts.attempted;
            counts.attempted += 1;
            let root = tracer.begin("plan_offline.op", Open::NONE, op);
            let began = Instant::now();
            let result = operation(&self.graphs, tracer, root, op);
            let latency_ms = began.elapsed().as_secs_f64() * 1e3;
            let done_s = start.elapsed().as_secs_f64();
            let verify = tracer.begin("bench.verify", root, op);
            match result {
                Err(_) => counts.errors += 1,
                Ok(r) if r.verdicts_ok && r.signature == self.first => {
                    counts.ok += 1;
                    samples.push(done_s, latency_ms);
                }
                Ok(_) => counts.mismatched += 1,
            }
            tracer.end(verify);
            tracer.end(root);
        }
        let log_sum: f64 = self.tuned_us.iter().map(|us| us.ln()).sum();
        Window {
            seconds: start.elapsed().as_secs_f64(),
            samples,
            counts,
            virtual_us: (log_sum / self.tuned_us.len() as f64).exp(),
            gen_late_ms: Vec::new(),
            serve: None,
        }
    }
}

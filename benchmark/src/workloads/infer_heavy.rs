//! `infer_heavy`: one caller running the paper's headline model back to
//! back. About nine tenths of an operation is conv/GEMM/LSTM tape time,
//! so `duet-tensor` and `duet-compiler` own this latency; executor and
//! serving fixed costs are below one percent and cannot be seen here.

use std::collections::HashMap;
use std::time::Instant;

use duet_core::Duet;
use duet_ir::{Graph, NodeId};
use duet_models::{input_feeds, wide_and_deep, WideAndDeepConfig};
use duet_tensor::Tensor;

use super::{feed_seed, Counts, Samples, Window, Workload, WorkloadSpec};
use crate::oracle::{self, Labeled};
use crate::trace::{Open, Tracer};

pub const SPEC: WorkloadSpec = WorkloadSpec {
    name: "infer_heavy",
    open_loop: false,
    tail_pct: 90.0,
    slo_ms: 300.0,
};

/// Seeded feed sets rotated through; enough that no two neighbouring
/// operations share inputs.
const FEED_SETS: usize = 16;

pub struct InferHeavy {
    model: Graph,
    duet: Duet,
    feeds: Vec<HashMap<NodeId, Tensor>>,
    expected: Vec<Labeled>,
    next: usize,
}

impl InferHeavy {
    fn labeled_feeds(&self, seed: u64) -> Labeled {
        oracle::by_label(&self.model, &input_feeds(&self.model, seed))
    }
}

impl Workload for InferHeavy {
    const SPEC: &'static WorkloadSpec = &SPEC;

    fn set_up() -> Self {
        let model = wide_and_deep(&WideAndDeepConfig::default());
        let duet = Duet::builder()
            .build(&model)
            .expect("paper-scale wide_and_deep builds");
        let this = InferHeavy {
            model,
            duet,
            feeds: Vec::new(),
            expected: Vec::new(),
            next: 0,
        };
        let first = oracle::feeds_for(this.duet.graph(), &this.labeled_feeds(0));
        this.duet.run(&first).expect("the first inference runs");
        this
    }

    fn prepare(&mut self, seed: u64) {
        for i in 0..FEED_SETS {
            let labeled = self.labeled_feeds(feed_seed(seed, i));
            self.expected.push(oracle::expected(&self.model, &labeled));
            self.feeds
                .push(oracle::feeds_for(self.duet.graph(), &labeled));
        }
    }

    fn window(&mut self, seconds: f64, tracer: &Tracer) -> Window {
        let mut counts = Counts::default();
        let mut samples = Samples::default();
        let mut virtual_sum = 0.0;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let i = self.next % FEED_SETS;
            self.next += 1;
            let op = counts.attempted;
            counts.attempted += 1;
            let root = tracer.begin("infer_heavy.op", Open::NONE, op);
            let began = Instant::now();
            let result = tracer.span("runtime.run", root, op, || self.duet.run(&self.feeds[i]));
            let latency_ms = began.elapsed().as_secs_f64() * 1e3;
            let done_s = start.elapsed().as_secs_f64();
            let verify = tracer.begin("bench.verify", root, op);
            match result {
                Err(_) => counts.errors += 1,
                Ok(outcome) => {
                    let got = oracle::by_label(self.duet.graph(), &outcome.outputs);
                    if oracle::matches(&got, &self.expected[i]) {
                        counts.ok += 1;
                        virtual_sum += outcome.virtual_latency_us;
                        samples.push(done_s, latency_ms);
                    } else {
                        counts.mismatched += 1;
                    }
                }
            }
            tracer.end(verify);
            tracer.end(root);
        }
        Window {
            seconds: start.elapsed().as_secs_f64(),
            samples,
            counts,
            virtual_us: virtual_sum / counts.ok.max(1) as f64,
            gen_late_ms: Vec::new(),
            serve: None,
        }
    }
}

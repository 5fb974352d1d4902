//! `duet-serve`, what a window cannot show: the cost of one batch on
//! the cached engine variant, and of assembling and splitting it.
//!
//! On `serve_sat`, batch period − `exec_at_batch_us` is the server's
//! per-batch overhead (~45 % of the period); `merge_us`, `split_us` and
//! `submit_us` are parts of it. On `serve_open` all of this is below 2 %
//! of a 14 ms request.

use std::collections::HashMap;

use duet_device::SystemModel;
use duet_serve::{merge_feeds, split_outputs, ModelSpec, PlanCache};
use duet_tensor::Tensor;

use super::{Probe, Readings};

pub fn probe(p: &Probe, model: fn() -> ModelSpec, batch: usize) -> Readings {
    let cache = PlanCache::new(model(), SystemModel::paper_server());
    let variant = cache.get_or_build(batch);
    let graph = variant.duet.graph();
    let requests: Vec<HashMap<String, Tensor>> = (0..batch as u64)
        .map(|i| cache.spec().request_feeds(i))
        .collect();
    let refs: Vec<&HashMap<String, Tensor>> = requests.iter().collect();
    let merge_us = p.time_us("serve.merge", || {
        merge_feeds(graph, &refs).expect("feeds merge");
    });
    let merged = merge_feeds(graph, &refs).expect("feeds merge");
    let exec_at_batch_us = p.time_us("serve.exec_at_batch", || {
        variant.duet.run(&merged).expect("batch runs");
    });
    let outcome = variant.duet.run(&merged).expect("batch runs");
    let split_us = p.time_us("serve.split", || {
        split_outputs(graph, &outcome.outputs, batch).expect("outputs split");
    });
    vec![
        ("serve.exec_at_batch_us", exec_at_batch_us),
        ("serve.merge_us", merge_us),
        ("serve.split_us", split_us),
    ]
}

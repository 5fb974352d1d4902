//! Every metric the benchmark prints: name and unit, in print order.
//! `BENCHMARK.json` carries the same two lists (with direction and
//! bound); `tests/smoke.rs` holds the two in step.

pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_p10_ms", "ms"),
    ("throughput_p90_per_s", "1/s"),
    ("slo_ok_share", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.linear_us", "us"),
    ("tensor.gflops.linear", "GFLOP/s"),
    ("tensor.matmul_us", "us"),
    ("tensor.gflops.matmul", "GFLOP/s"),
    ("tensor.conv2d_us", "us"),
    ("tensor.gflops.conv2d", "GFLOP/s"),
    ("tensor.depthwise_us", "us"),
    ("tensor.gflops.depthwise", "GFLOP/s"),
    ("tensor.lstm_us", "us"),
    ("tensor.gflops.lstm", "GFLOP/s"),
    ("compiler.subgraph_sum_us", "us"),
    ("compiler.optimize_ms", "ms"),
    ("compiler.compile_ms", "ms"),
    ("compiler.fused_epilogues", "count"),
    ("compiler.peak_planned_bytes", "bytes"),
    ("compiler.peak_naive_bytes", "bytes"),
    ("compiler.arena_reuse_share", "share"),
    ("runtime.exec_run_us", "us"),
    ("runtime.exec_residual_us", "us"),
    ("runtime.overlap_share", "share"),
    ("runtime.exec_fixed_us", "us"),
    ("runtime.sim_us", "us"),
    ("runtime.profile_ms", "ms"),
    ("core.partition_ms", "ms"),
    ("core.build_ms", "ms"),
    ("core.build_with_plan_ms", "ms"),
    ("core.recorrect_ms", "ms"),
    ("core.per_operator_build_ms", "ms"),
    ("core.subgraphs", "count"),
    ("core.virtual_latency_us", "virtual_us"),
    ("analysis.dataflow_ms", "ms"),
    ("analysis.lint_plan_ms", "ms"),
    ("analysis.model_check_ms", "ms"),
    ("analysis.model_check_states", "count"),
    ("analysis.checked_build_extra_ms", "ms"),
    ("tune.tune_ms", "ms"),
    ("tune.tune_drifted_ms", "ms"),
    ("tune.evals", "count"),
    ("tune.oracle_eval_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.queue_us_p50", "us"),
    ("serve.linger_us_p50", "us"),
    ("serve.compute_us_p50", "us"),
    ("serve.overhead_us_p50", "us"),
    ("serve.mean_batch", "count"),
    ("serve.batch_period_us", "us"),
    ("serve.exec_at_batch_us", "us"),
    ("serve.batch_residual_us", "us"),
    ("serve.merge_us", "us"),
    ("serve.split_us", "us"),
    ("serve.cache_misses", "count"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("telemetry.span_overhead_share", "share"),
    ("bench.latency_p50_ms", "ms"),
    ("bench.latency_tail_ms", "ms"),
    ("bench.trace_overhead_share", "share"),
    ("bench.max_child_share", "share"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.gen_late_max_ms", "ms"),
    ("bench.slice_spread", "ratio"),
    ("bench.samples", "count"),
    ("bench.failed_share", "share"),
    ("bench.kernel_threads", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "metric {name} is listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }
}

//! `duet-runtime`: the two-worker executor, the simulator and the
//! profiler.
//!
//! `exec_fixed_us` — what one executor run costs beyond its tapes, on
//! the tiny batch-8 siamese — is about 40 % of `serve_sat`'s batch
//! period and moves its throughput and latency; on `infer_heavy` it is
//! below one percent. `sim_us` and `profile_ms` move `plan_offline`.

use duet_runtime::{measure_latency, Profiler};

use super::compiler::{subgraph_times, SubgraphTimes};
use super::{Probe, Readings};

pub fn probe(p: &Probe, wd_subgraphs: &SubgraphTimes) -> Readings {
    let system = p.wd.system().clone();
    let exec_run_us = p.time_us("runtime.exec_run", || {
        p.wd.executor_with(system.clone())
            .run(&p.wd_feeds)
            .expect("wide_and_deep runs");
    });
    let longer_lane_us = wd_subgraphs.cpu_lane_us.max(wd_subgraphs.gpu_lane_us);

    let tiny_run_us = p.time_us("runtime.exec_fixed", || {
        p.tiny.run(&p.tiny_feeds).expect("siamese_tiny runs");
    });
    let tiny_subgraphs = subgraph_times(p, &p.tiny, &p.tiny_feeds, "runtime.exec_fixed.subgraphs");

    let sim_us = p.time_us("runtime.sim", || {
        measure_latency(p.wd.graph(), p.wd.placed(), &system);
    });
    let subgraphs: Vec<_> = p.wd.units().iter().map(|u| u.sg.clone()).collect();
    let profiler = Profiler::new(system.clone()).with_runs(500, 50);
    let profile_ms = p.time_ms("runtime.profile", || {
        profiler.profile_all(p.wd.graph(), &subgraphs);
    });

    vec![
        ("runtime.exec_run_us", exec_run_us),
        ("runtime.exec_residual_us", exec_run_us - longer_lane_us),
        (
            "runtime.overlap_share",
            1.0 - exec_run_us / wd_subgraphs.sum_us,
        ),
        ("runtime.exec_fixed_us", tiny_run_us - tiny_subgraphs.sum_us),
        ("runtime.sim_us", sim_us),
        ("runtime.profile_ms", profile_ms),
    ]
}

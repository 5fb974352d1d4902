//! Criterion benchmarks for profiling, scheduling, and the timing core —
//! the rest of DUET's offline pipeline. The correction loop's cost is
//! one `Timeline::makespan` replay per candidate, so replay throughput
//! is the headline number here; `simulate` (build the timeline, replay
//! once, keep the entries) is what a one-off caller pays.

use criterion::{criterion_group, criterion_main, Criterion};
use duet_compiler::Compiler;
use duet_core::sched::{self, greedy, SubgraphUnit};
use duet_core::{partition, Duet, SchedulePolicy};
use duet_device::{DeviceKind, SystemModel};
use duet_models::{wide_and_deep, WideAndDeepConfig};
use duet_runtime::{simulate, Profiler, SimNoise, Timeline};

fn units() -> (duet_ir::Graph, Vec<SubgraphUnit>) {
    let g = wide_and_deep(&WideAndDeepConfig::default());
    let part = partition(&g);
    let compiler = Compiler::default();
    let sgs = part.compile(&g, &compiler);
    let profiler = Profiler::new(SystemModel::paper_server());
    let profiles = profiler.profile_all(&g, &sgs);
    let u = sched::make_units(&part, sgs, profiles);
    (g, u)
}

fn bench_profiler(c: &mut Criterion) {
    let g = wide_and_deep(&WideAndDeepConfig::default());
    let part = partition(&g);
    let compiler = Compiler::default();
    let sgs = part.compile(&g, &compiler);
    let profiler = Profiler::new(SystemModel::paper_server());
    c.bench_function("profile/wide_and_deep_all_subgraphs", |b| {
        b.iter(|| profiler.profile_all(&g, &sgs))
    });
}

fn bench_simulator(c: &mut Criterion) {
    let (g, u) = units();
    let sys = SystemModel::paper_server();
    let devices = greedy::greedy_placement(&u);
    let placed = sched::to_placed(&u, &devices);
    c.bench_function("simulate/wide_and_deep", |b| {
        b.iter(|| simulate(&g, &placed, &sys, &mut SimNoise::disabled()))
    });
    let timeline = Timeline::new(&g, u.iter().map(|u| &u.sg), &sys).unwrap();
    c.bench_function("timeline/build_wide_and_deep", |b| {
        b.iter(|| Timeline::new(&g, u.iter().map(|u| &u.sg), &sys).unwrap())
    });
    c.bench_function("timeline/makespan_wide_and_deep", |b| {
        b.iter(|| timeline.makespan(&devices))
    });
}

fn bench_schedulers(c: &mut Criterion) {
    let (g, u) = units();
    let sys = SystemModel::paper_server();
    let timeline = Timeline::new(&g, u.iter().map(|u| &u.sg), &sys).unwrap();
    c.bench_function("schedule/greedy", |b| {
        b.iter(|| greedy::greedy_placement(&u))
    });
    c.bench_function("schedule/greedy_correction", |b| {
        b.iter(|| {
            let init = greedy::greedy_placement(&u);
            greedy::correct(&timeline, &u, init)
        })
    });
    c.bench_function("schedule/ideal_exhaustive", |b| {
        b.iter(|| sched::schedule(&timeline, &u, &sys, SchedulePolicy::Ideal))
    });
}

fn bench_end_to_end_build(c: &mut Criterion) {
    let g = wide_and_deep(&WideAndDeepConfig::default());
    let mut group = c.benchmark_group("engine_build");
    group.sample_size(10);
    group.bench_function("duet_offline_pipeline", |b| {
        b.iter(|| Duet::builder().build(&g).unwrap())
    });
    group.finish();
    // Sanity anchor for the bench log.
    let duet = Duet::builder().build(&g).unwrap();
    eprintln!(
        "[anchor] wide&deep: duet {:.3} ms, cpu {:.3} ms, gpu {:.3} ms",
        duet.latency_us() / 1e3,
        duet.single_device_latency_us(DeviceKind::Cpu) / 1e3,
        duet.single_device_latency_us(DeviceKind::Gpu) / 1e3
    );
}

criterion_group!(
    benches,
    bench_profiler,
    bench_simulator,
    bench_schedulers,
    bench_end_to_end_build
);
criterion_main!(benches);

//! Golden bit-for-bit fixture for every modeled latency the paper
//! figures rest on.
//!
//! `tests/fixtures/golden_timeline.txt` was recorded at the commit
//! *before* the simulator, the candidate oracle and the scheduler's
//! pricing were folded into one `Timeline`; it holds `f64::to_bits` of
//! each value, so "reproducible bit for bit" has a gate that does not
//! depend on two live implementations agreeing with each other. A line
//! that differs means a modeled number moved: either the event semantics
//! or the noise draw order of the replay changed.

use std::fmt::Write as _;

use duet_core::{Duet, Granularity, SchedulePolicy};
use duet_device::{DeviceKind, SystemModel};
use duet_models::zoo_model;
use duet_serve::loadgen::degraded_gpu;
use duet_tune::{tune, tune_drifted, TuneConfig};

/// The `plan_offline` benchmark's model list.
const MODELS: [&str; 7] = [
    "wide_and_deep",
    "siamese",
    "mtdnn",
    "resnet18",
    "resnet50",
    "mobilenet",
    "squeezenet",
];
/// `SchedulePolicy::Ideal` enumerates 2^n placements.
const IDEAL_MAX_UNITS: usize = 16;

fn line(out: &mut String, label: &str, engine: &Duet) {
    let devices: String = engine
        .devices()
        .iter()
        .map(|d| match d {
            DeviceKind::Cpu => 'C',
            DeviceKind::Gpu => 'G',
        })
        .collect();
    writeln!(
        out,
        "{label} latency={:016x} cpu_only={:016x} gpu_only={:016x} devices={devices}",
        engine.latency_us().to_bits(),
        engine.single_device_latency_us(DeviceKind::Cpu).to_bits(),
        engine.single_device_latency_us(DeviceKind::Gpu).to_bits(),
    )
    .unwrap();
}

fn render() -> String {
    let mut out = String::new();
    let cfg = TuneConfig::default();
    for name in MODELS {
        let graph = zoo_model(name).unwrap();
        let engine = Duet::builder().build(&graph).unwrap();
        line(&mut out, &format!("{name} build"), &engine);
        let degraded = degraded_gpu(engine.system());
        line(
            &mut out,
            &format!("{name} recorrect"),
            &engine.recorrect(degraded.clone()),
        );
        line(
            &mut out,
            &format!("{name} tune"),
            &tune(&engine, &cfg).tuned,
        );
        line(
            &mut out,
            &format!("{name} tune_drifted"),
            &tune_drifted(&engine, degraded, &cfg).tuned,
        );
        if engine.units().len() <= IDEAL_MAX_UNITS {
            let policies = (1..=3)
                .map(|seed| SchedulePolicy::RandomCorrection { seed })
                .chain([SchedulePolicy::Ideal]);
            for policy in policies {
                let e = Duet::builder().policy(policy).build(&graph).unwrap();
                line(&mut out, &format!("{name} {policy:?}"), &e);
            }
        }
        if name == "resnet18" {
            let e = Duet::builder()
                .granularity(Granularity::PerOperator)
                .build(&graph)
                .unwrap();
            line(&mut out, &format!("{name} per_operator"), &e);
        }
        if matches!(name, "wide_and_deep" | "siamese" | "mtdnn") {
            let mut sys = SystemModel::paper_server();
            sys.cpu = sys.cpu.with_lanes(2, 0.7);
            let e = Duet::builder().system(sys).build(&graph).unwrap();
            line(&mut out, &format!("{name} cpu_lanes_2"), &e);
        }
        // Fig. 12: the tail percentiles are a function of the order in
        // which the replay draws transfer, compute and D2H noise.
        if matches!(name, "wide_and_deep" | "siamese") {
            for seed in [1u64, 42] {
                let s = engine.measure(5000, seed);
                writeln!(
                    out,
                    "{name} measure seed={seed} p50={:016x} p99={:016x} p999={:016x}",
                    s.p50().to_bits(),
                    s.p99().to_bits(),
                    s.p999().to_bits(),
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn modeled_latencies_match_the_recorded_fixture() {
    let want = include_str!("fixtures/golden_timeline.txt");
    let got = render();
    for (n, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(g, w, "fixture line {} differs", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}

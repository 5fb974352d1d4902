//! Acceptance suite for the autotuner over the full model zoo.
//!
//! The headline empirical fact (see EXPERIMENTS.md): Algorithm 1 with
//! the §VI-E fallback guardrail is *exactly optimal* on every zoo model
//! — exhaustive enumeration (`SchedulePolicy::Ideal`) finds the same
//! makespan. So offline the tuner's job is certification (never worse,
//! ties everywhere, and it must actually *match* the enumerated
//! optimum), and its strict wins live where Algorithm 1's inputs go
//! stale: drifted deployments, where the tuned plan beats the
//! still-running stale plan on most of the zoo.

use std::sync::OnceLock;

use duet_core::{Duet, SchedulePolicy};
use duet_device::SystemModel;
use duet_models::{input_feeds, mlp, zoo_model, MlpConfig};
use duet_tune::{tune, tune_drifted, TuneConfig};
use proptest::prelude::*;

const ZOO: [&str; 8] = [
    "wide_and_deep",
    "siamese",
    "mtdnn",
    "resnet18",
    "resnet50",
    "vgg16",
    "mobilenet",
    "squeezenet",
];

fn engine_for(name: &str) -> Duet {
    let g = zoo_model(name).unwrap();
    Duet::builder().build(&g).unwrap()
}

/// The canonical drift scenario (same degradation duet-serve's smoke
/// test injects): the GPU loses most of its compute, bandwidth, and
/// launch throughput.
fn degraded_gpu(base: &SystemModel) -> SystemModel {
    let mut s = base.clone();
    s.gpu.peak_gflops /= 12.0;
    s.gpu.mem_bw_gbps /= 8.0;
    s.gpu.kernel_launch_us *= 8.0;
    s
}

#[test]
fn offline_tuning_is_never_worse_and_matches_the_enumerated_optimum() {
    for name in ZOO {
        let engine = engine_for(name);
        let out = tune(&engine, &TuneConfig::default());
        assert!(
            out.tuned_us <= out.algorithm1_us,
            "{name}: tuned {} µs worse than Algorithm 1 {} µs",
            out.tuned_us,
            out.algorithm1_us
        );
        assert!(out.promoted, "{name}: winning plan failed a gate:\n{out}");
        // Whatever the tuner claims must be what the simulator claims.
        assert_eq!(
            out.plan.expected_latency_us.to_bits(),
            out.tuned_us.to_bits(),
            "{name}: plan latency disagrees with the tuned engine"
        );
        // Certification against exhaustive enumeration, where feasible
        // (2^n simulations; squeezenet's 25 subgraphs are out of reach).
        if engine.units().len() <= 16 {
            let ideal = Duet::builder()
                .policy(SchedulePolicy::Ideal)
                .build(engine.graph())
                .unwrap();
            assert_eq!(
                out.tuned_us,
                ideal.latency_us(),
                "{name}: tuned plan misses the enumerated optimum"
            );
        }
    }
}

#[test]
fn drift_tuning_strictly_beats_the_stale_plan_on_most_of_the_zoo() {
    let mut strict_wins = Vec::new();
    for name in ZOO {
        let engine = engine_for(name);
        let deployed = degraded_gpu(engine.system());
        let out = tune_drifted(&engine, deployed, &TuneConfig::default());
        let stale = out.stale_us.expect("drift runs record the stale latency");
        assert!(
            out.tuned_us <= stale,
            "{name}: tuned {} µs worse than the stale plan {} µs",
            out.tuned_us,
            stale
        );
        assert!(
            out.tuned_us <= out.algorithm1_us,
            "{name}: tuned worse than the replanned Algorithm 1"
        );
        assert!(
            out.promoted,
            "{name}: drift-tuned plan failed a gate:\n{out}"
        );
        if out.tuned_us < stale {
            strict_wins.push((name, stale / out.tuned_us));
        }
    }
    assert!(
        strict_wins.len() >= 2,
        "expected strict wins over the stale plan on at least two zoo \
         models, got {strict_wins:?}"
    );
}

#[test]
fn tuner_repairs_a_deliberately_bad_seed() {
    // Algorithm 1 needs no repair on the zoo — so give the tuner a
    // random placement (the paper's ablation baseline) and require a
    // strict win, proving the search machinery does move when there is
    // headroom.
    let g = zoo_model("mtdnn").unwrap();
    let engine = Duet::builder()
        .policy(SchedulePolicy::Random { seed: 3 })
        .no_fallback()
        .build(&g)
        .unwrap();
    let optimal = engine_for("mtdnn");
    assert!(
        engine.latency_us() > optimal.latency_us(),
        "random seed should start suboptimal"
    );
    let out = tune(&engine, &TuneConfig::default());
    assert!(
        out.strictly_better(),
        "tuner failed to improve a random seed:\n{out}"
    );
    assert_eq!(
        out.tuned_us,
        optimal.latency_us(),
        "tuner should recover the optimum from a random seed"
    );
}

#[test]
fn same_seed_bit_identical_winning_plan() {
    for name in ["wide_and_deep", "mtdnn"] {
        let engine = engine_for(name);
        let cfg = TuneConfig { budget: 800 };
        let a = tune(&engine, &cfg);
        let b = tune(&engine, &cfg);
        assert_eq!(
            a.plan.to_json(),
            b.plan.to_json(),
            "{name}: two runs must yield a bit-identical winning plan"
        );
        assert_eq!(a.tuned_us.to_bits(), b.tuned_us.to_bits());
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(a.winner, b.winner);
    }
}

#[test]
fn tuned_outputs_bit_identical_to_algorithm1() {
    // The tuner only moves subgraphs between devices; the computation
    // itself must be untouched — same feeds, bitwise-equal outputs.
    for name in ["mtdnn", "siamese"] {
        let engine = engine_for(name);
        let out = tune(&engine, &TuneConfig::default());
        let feeds = input_feeds(engine.graph(), 11);
        let base = engine.run(&feeds).unwrap();
        let tuned = out.tuned.run(&feeds).unwrap();
        assert_eq!(
            base.outputs.len(),
            tuned.outputs.len(),
            "{name}: output arity changed"
        );
        for (id, v) in &base.outputs {
            assert_eq!(
                &tuned.outputs[id], v,
                "{name}: tuned plan drifted numerically on node {id}"
            );
        }
    }
}

/// `tune` is a pure function of (engine, config): what other engines
/// executed in this process — and so left in the telemetry span ring —
/// must not move the search, let alone its answer.
#[test]
fn tuning_ignores_what_else_ran_in_the_process() {
    let engines: Vec<Duet> = ["resnet18", "siamese"].map(engine_for).into();
    let tune_each = || -> Vec<(usize, String)> {
        engines
            .iter()
            .map(|engine| {
                let out = tune(engine, &TuneConfig::default());
                (out.candidates, out.plan.to_json())
            })
            .collect()
    };
    let before = tune_each();
    duet_telemetry::set_enabled(true);
    let bystander = Duet::builder()
        .no_fallback()
        .build(&mlp(&MlpConfig::default()))
        .unwrap();
    let feeds = input_feeds(bystander.graph(), 1);
    for _ in 0..5 {
        bystander.run(&feeds).unwrap();
    }
    assert_eq!(before, tune_each());
}

fn shared_engine() -> &'static Duet {
    static ENGINE: OnceLock<Duet> = OnceLock::new();
    ENGINE.get_or_init(|| engine_for("mtdnn"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every plan the search emits — whatever budget cut it short —
    /// must clear the D2xx lints and the D5xx model check after
    /// promotion through `with_devices` (which re-applies the fallback
    /// guardrail).
    #[test]
    fn every_search_emitted_plan_is_provable(budget in 50usize..250) {
        let out = tune(shared_engine(), &TuneConfig { budget });
        prop_assert!(!out.lint.has_errors(), "search emitted a D2xx-dirty plan:\n{}", out.lint);
        prop_assert!(
            !out.check.report.has_errors(),
            "search emitted a D5xx-dirty plan:\n{}",
            out.check.report
        );
    }
}

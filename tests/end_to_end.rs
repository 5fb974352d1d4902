//! Cross-crate integration tests: the whole pipeline — model zoo →
//! compiler → partitioner → profiler → scheduler → executor — produces
//! numerically correct results and paper-consistent decisions.

use std::collections::{HashMap, HashSet};
use std::sync::Barrier;

use duet::prelude::*;
use duet_core::SchedulePolicy;
use duet_device::DeviceKind;
use duet_frameworks::Framework;
use duet_ir::Graph;
use duet_models::{input_feeds, mlp, squeezenet, MlpConfig};

fn small_zoo() -> Vec<Graph> {
    vec![
        wide_and_deep(&WideAndDeepConfig::small()),
        siamese(&SiameseConfig::small()),
        mtdnn(&MtDnnConfig::small()),
        resnet(&ResNetConfig::small()),
        mlp(&MlpConfig {
            input: 16,
            hidden: 32,
            ..Default::default()
        }),
        squeezenet(1, 32),
    ]
}

#[test]
fn heterogeneous_execution_matches_reference_on_every_model() {
    for model in small_zoo() {
        let engine = Duet::builder()
            .no_fallback()
            .build(&model)
            .expect("engine builds");
        let feeds = input_feeds(engine.graph(), 11);
        let outcome = engine.run(&feeds).expect("inference runs");
        let want = engine.graph().eval(&feeds).expect("reference eval");
        for (i, &out_id) in engine.graph().outputs().iter().enumerate() {
            assert!(
                outcome.outputs[&out_id].approx_eq(&want[i], 1e-4),
                "{}: output {i} diverged",
                model.name
            );
        }
    }
}

#[test]
fn every_policy_produces_a_valid_runnable_schedule() {
    let model = siamese(&SiameseConfig::small());
    for policy in [
        SchedulePolicy::GreedyCorrection,
        SchedulePolicy::GreedyOnly,
        SchedulePolicy::Random { seed: 3 },
        SchedulePolicy::RoundRobin,
        SchedulePolicy::RandomCorrection { seed: 3 },
        SchedulePolicy::Ideal,
        SchedulePolicy::Pin(DeviceKind::Cpu),
        SchedulePolicy::Pin(DeviceKind::Gpu),
    ] {
        let engine = Duet::builder()
            .policy(policy)
            .no_fallback()
            .build(&model)
            .expect("engine builds");
        let feeds = input_feeds(engine.graph(), 2);
        let outcome = engine.run(&feeds).expect("inference runs");
        let want = engine.graph().eval(&feeds).expect("reference");
        let out_id = engine.graph().outputs()[0];
        assert!(
            outcome.outputs[&out_id].approx_eq(&want[0], 1e-4),
            "policy {policy:?} diverged"
        );
    }
}

#[test]
fn framework_baseline_agrees_with_duet_numerically() {
    let model = wide_and_deep(&WideAndDeepConfig::small());
    let feeds = input_feeds(&model, 5);
    let fw_out = Framework::pytorch()
        .run(&model, &feeds)
        .expect("framework runs");
    let reference = model.eval(&feeds).expect("reference");
    assert!(fw_out[&model.outputs()[0]].approx_eq(&reference[0], 1e-5));
}

#[test]
fn fallback_schedule_still_runs_numerically() {
    let model = resnet(&ResNetConfig::small());
    let engine = Duet::builder().build(&model).expect("engine builds");
    let feeds = input_feeds(engine.graph(), 3);
    let outcome = engine.run(&feeds).expect("inference runs");
    let want = engine.graph().eval(&feeds).expect("reference");
    let out_id = engine.graph().outputs()[0];
    assert!(outcome.outputs[&out_id].approx_eq(&want[0], 1e-4));
}

#[test]
fn graph_input_named_as_output_passes_through_the_engine() {
    // `finish`, `eval` and the timeline accept a source in the output
    // list; the threaded executor used to panic looking up its producer.
    let mut b = GraphBuilder::new("pass_through", 4);
    let x = b.input("x", vec![1, 32]);
    let l = b.dense("left", x, 32, Some(Op::Relu)).expect("left");
    let r = b.dense("right", x, 32, Some(Op::Tanh)).expect("right");
    let cat = b.op("cat", Op::Concat { axis: 1 }, &[l, r]).expect("cat");
    let y = b.dense("head", cat, 4, None).expect("head");
    let model = b.finish(&[y, x]).expect("graph builds");
    for builder in [Duet::builder(), Duet::builder().no_fallback()] {
        let engine = builder.build(&model).expect("engine builds");
        let graph = engine.graph();
        assert_eq!(graph.outputs().len(), 2);
        let feeds = input_feeds(graph, 13);
        let outcome = engine.run(&feeds).expect("inference runs");
        let want = graph.eval(&feeds).expect("reference eval");
        for (&id, want) in graph.outputs().iter().zip(&want) {
            assert!(outcome.outputs[&id].approx_eq(want, 1e-5), "output {id}");
        }
        let fed = graph.outputs()[1];
        assert_eq!(outcome.outputs[&fed], feeds[&fed], "the fed tensor itself");
    }
}

#[test]
fn optimized_graph_preserves_model_semantics() {
    // Compare each model's output before/after the compiler pipeline by
    // matching input nodes by label.
    for model in small_zoo() {
        let engine = Duet::builder().build(&model).expect("engine builds");
        let opt = engine.graph();
        let feeds_orig = input_feeds(&model, 21);
        // Rebuild the same feeds for the optimized graph via labels.
        let by_label: HashMap<&str, &duet_tensor::Tensor> = model
            .input_ids()
            .iter()
            .map(|&id| (model.node(id).label.as_str(), &feeds_orig[&id]))
            .collect();
        let feeds_opt: HashMap<_, _> = opt
            .input_ids()
            .into_iter()
            .map(|id| (id, by_label[opt.node(id).label.as_str()].clone()))
            .collect();
        let a = model.eval(&feeds_orig).expect("original eval");
        let b = opt.eval(&feeds_opt).expect("optimized eval");
        for (x, y) in a.iter().zip(&b) {
            assert!(
                x.approx_eq(y, 1e-4),
                "{}: optimization changed results",
                model.name
            );
        }
    }
}

#[test]
fn paper_headline_results_hold() {
    // The three complex models co-execute and win; speedup bands overlap
    // the paper's reported ranges.
    for (model, lo_gpu, hi_gpu) in [
        (wide_and_deep(&WideAndDeepConfig::default()), 1.3, 4.5),
        (siamese(&SiameseConfig::default()), 1.3, 3.0),
        (mtdnn(&MtDnnConfig::default()), 1.3, 4.5),
    ] {
        let engine = Duet::builder().build(&model).expect("engine builds");
        assert!(
            engine.fallback_device().is_none(),
            "{} must co-execute",
            model.name
        );
        let x_gpu = engine.single_device_latency_us(DeviceKind::Gpu) / engine.latency_us();
        let x_cpu = engine.single_device_latency_us(DeviceKind::Cpu) / engine.latency_us();
        assert!(
            (lo_gpu..hi_gpu).contains(&x_gpu),
            "{}: vs GPU {x_gpu}",
            model.name
        );
        assert!(x_cpu > 1.3, "{}: vs CPU {x_cpu}", model.name);
    }
    // And the traditional model does not.
    let engine = Duet::builder()
        .build(&resnet(&ResNetConfig::default()))
        .expect("engine builds");
    assert_eq!(engine.fallback_device(), Some(DeviceKind::Gpu));
}

#[test]
fn executor_distributes_work_across_devices() {
    let model = siamese(&SiameseConfig::default());
    let engine = Duet::builder().build(&model).expect("engine builds");
    // Replace the heavy default with a small numeric twin for execution:
    // same structure, tiny dims.
    let small = siamese(&SiameseConfig::small());
    let small_engine = Duet::builder().no_fallback().build(&small).expect("builds");
    let feeds = input_feeds(small_engine.graph(), 1);
    let outcome = small_engine.run(&feeds).expect("runs");
    let cpu = outcome.tasks_per_device[&DeviceKind::Cpu];
    let gpu = outcome.tasks_per_device[&DeviceKind::Gpu];
    assert_eq!(cpu + gpu, small_engine.placed().len());
    // The big engine's schedule genuinely uses both devices.
    let devices: Vec<DeviceKind> = engine.placed().iter().map(|p| p.device).collect();
    assert!(devices.contains(&DeviceKind::Cpu) && devices.contains(&DeviceKind::Gpu));
}

/// Lanes run on their callers' threads and share the engine's arena pool:
/// concurrent `Duet::run`s on one engine answer bit for bit as the same
/// feeds do one after the other, whether the plan is one lane run inline
/// or two lanes with a thread.
#[test]
fn concurrent_callers_of_one_engine_answer_as_serial_runs_do() {
    const THREADS: u64 = 4;
    const RUNS: usize = 50;
    let fallback = Duet::builder().build(&siamese(&SiameseConfig::small()));
    let both = Duet::builder()
        .no_fallback()
        .build(&wide_and_deep(&WideAndDeepConfig::small()));
    for (engine, lanes) in [(fallback, 1), (both, 2)] {
        let engine = engine.expect("engine builds");
        let devices: HashSet<DeviceKind> = engine.placed().iter().map(|p| p.device).collect();
        assert_eq!(devices.len(), lanes, "{}", engine.graph().name);
        let bits = |feeds: &HashMap<_, _>| -> Vec<Vec<u32>> {
            let outcome = engine.run(feeds).expect("inference runs");
            let outputs = engine.graph().outputs().iter();
            outputs
                .map(|id| {
                    outcome.outputs[id]
                        .data()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                })
                .collect()
        };
        // Distinct feeds per thread, answered serially first.
        let serial: Vec<_> = (0..THREADS)
            .map(|t| input_feeds(engine.graph(), 1000 + t))
            .map(|feeds| (bits(&feeds), feeds))
            .collect();
        let start = Barrier::new(serial.len());
        std::thread::scope(|scope| {
            for (t, (want, feeds)) in serial.iter().enumerate() {
                let (start, bits) = (&start, &bits);
                scope.spawn(move || {
                    start.wait();
                    for r in 0..RUNS {
                        assert_eq!(&bits(feeds), want, "thread {t} run {r}");
                    }
                });
            }
        });
        // At most one arena per subgraph is out per caller at a time.
        let created = engine.arena_stats().created;
        assert!(
            created <= THREADS * engine.placed().len() as u64,
            "{created}"
        );
    }
}

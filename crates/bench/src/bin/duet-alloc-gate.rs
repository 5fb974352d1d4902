//! `duet-alloc-gate` — CI perf smoke for the memory planner.
//!
//! Runs a batch-1 MLP through the tape + arena path (the serve
//! steady state) and fails if an inference makes more heap-allocation
//! calls than the budget. This is the regression tripwire: any change
//! that re-introduces per-run buffer churn — a kernel allocating a
//! temporary, the tape cloning feeds, an arena slot refreshed every
//! run — blows the exact count immediately, long before it would show
//! up as a latency regression.
//!
//! The budget covers what the steady state legitimately allocates per
//! run: the feed-resolution scratch, the output HashMap handed to the
//! caller, and one copy-on-write refresh for the escaped output slot
//! (its Arc is still held by the previous run's result).
//!
//! Also asserts the planner actually planned: planned peak < naive
//! peak, with at least one reused or in-place slot.
//!
//! A second tape, the small wide-and-deep (ResNet convolutions, LSTM,
//! FFN), holds the kernels to the same standard: a kernel borrows its
//! scratch (strips, padded images) from grow-only lists and parallel
//! regions carry no chunk lists, so a per-call kernel temporary trips this
//! budget too.
//!
//! A plan-time budget holds `Duet::recorrect` — what the serving worker
//! runs when drift fires — to its allocation count on paper-scale
//! `wide_and_deep` and on `squeezenet` (25 units, the zoo's largest
//! correction search). A candidate placement costs one replay of the
//! engine's timeline: a few scratch vectors. Cloning the compiled
//! subgraphs per candidate again (a `to_placed` in the pricing path)
//! multiplies the count by tens and trips this at once.
//!
//! A run budget holds one steady-state `Duet::run` — the executor's own
//! fixed cost on top of the tapes, which the benchmark's
//! `runtime.exec_fixed_us` only sees statistically — to its count on the
//! small siamese (a single-device fallback plan: one subgraph, run on the
//! caller's thread with no thread spawned) and the small wide-and-deep (a
//! heterogeneous plan: one spawned lane, triggers, cross-device
//! transfers, the shared value store). The executor reads its structure
//! and prices from the engine's `Timeline`; deriving them per run again
//! (a node→subgraph map, per-subgraph dependency lists) trips this, and
//! so does a thread per run or per device coming back.

use duet_bench::count_allocs;
use duet_compiler::{CompiledSubgraph, Compiler, TapeArena};
use duet_core::Duet;
use duet_ir::Graph;
use duet_models::{
    input_feeds, mlp, mobilenet, siamese, wide_and_deep, zoo_model, MlpConfig, MobileNetConfig,
    SiameseConfig, WideAndDeepConfig,
};
use duet_serve::loadgen::degraded_gpu;

const WARMUP: usize = 4;
const RUNS: u64 = 64;
/// Exact-count budget per steady-state inference (see module docs).
const BUDGET_PER_RUN: u64 = 32;
/// Budget for the conv tape. Of its 89 allocations per run at pool width 2
/// (counted exactly; none from a kernel), 77 are the tape's own: the result
/// tensor and the operand views (a shape clone each) of the ops without an
/// `_into` twin (LSTM, embedding, concat, global pooling). Convolutions,
/// their fused batch norms and max pooling read their operands as slices
/// and write the slot, and a kernel's scratch (padded images, prepacked
/// strips, offset tables) comes from grow-only lists. The other 12 are the
/// job headers of the regions that pass the fork gate (none at width 1). The
/// slack of 4 is fewer than the model's 20 convolutions: one temporary per
/// conv call trips it.
const CONV_BUDGET_PER_RUN: u64 = 93;
/// Budget for the depthwise tape (the small MobileNet compiled whole: 13
/// depthwise → batch norm → ReLU instructions). Its 22 allocations per run,
/// counted exactly at pool widths 1 and 2, are the tape's own: the result
/// map, the escaped output's refresh, and the operand views and results of
/// global pooling and softmax, which fall back to `Op::execute`; no region
/// of this small model passes the fork gate. The depthwise convolutions
/// read slices, write the slot, run their fused epilogue per plane and
/// borrow their padded planes from the grow-only lists (178 per run while
/// they went through `Op::execute`). The slack of 4 is fewer than the
/// model's 13 depthwise convolutions: one temporary per call trips it.
const DEPTHWISE_BUDGET_PER_RUN: u64 = 26;

/// Allocation calls of one `recorrect(degraded_gpu)`: 2469 and 3057,
/// counted exactly (the search is deterministic), plus 1 % slack. The
/// two searches price 31 and 269 candidates at two scratch vectors
/// each, so the slack is less than one more allocation per candidate;
/// the rest is re-profiling and the new engine's own subgraph clones.
const RECORRECT_BUDGETS: [(&str, u64); 2] = [("wide_and_deep", 2494), ("squeezenet", 3088)];

/// Allocation calls of one steady-state `Duet::run` per small model, and
/// whether its plan is heterogeneous: 140 and 141, counted over 64 runs
/// (the second was 371 while the conv tape cloned shapes and allocated
/// epilogue and pooling results).
/// The first spawns no thread and the second one; a spawn is at least
/// three calls, so a thread per run or per device coming back trips both.
/// The single-lane count is exact; with both lanes busy two or three
/// calls per 64 runs come and go with the interleaving, so the gate trips
/// at one whole allocation per run over the budget.
const RUN_BUDGETS: [(&str, bool, u64); 2] = [("siamese", false, 140), ("wide_and_deep", true, 141)];

fn main() {
    // The budget must hold with telemetry ON: counters are relaxed
    // atomics and spans go into the pre-sized global ring, so the
    // instrumented hot path allocates exactly as much as the bare one.
    duet_telemetry::set_enabled(true);
    let graph = mlp(&MlpConfig {
        batch: 1,
        input: 64,
        hidden: 64,
        layers: 3,
        ..MlpConfig::default()
    });
    let sg = Compiler::default().compile_whole(&graph, graph.name.clone());
    let plan = &sg.tape.plan;

    let mut failed = false;
    if plan.planned_peak_bytes >= plan.naive_peak_bytes {
        eprintln!(
            "FAIL: planner saved nothing (planned {} >= naive {})",
            plan.planned_peak_bytes, plan.naive_peak_bytes
        );
        failed = true;
    }
    if plan.reused_slots == 0 && plan.in_place_ops == 0 {
        eprintln!("FAIL: plan shows no slot reuse and no in-place ops");
        failed = true;
    }
    if plan.fused_epilogues == 0 {
        // An MLP is wall-to-wall linear→relu chains; a tape that fuses
        // none of them has lost the register-graph path entirely.
        eprintln!("FAIL: plan fused no epilogue chains");
        failed = true;
    }

    let per_run = steady_state_allocs(&sg, &graph);
    println!(
        "tape+arena steady state: {per_run:.2} allocs/inference over {RUNS} runs \
         (budget {BUDGET_PER_RUN}); planned/naive peak {}/{} bytes, \
         {} in-place op(s), {} reused slot(s), {} fused epilogue(s)",
        plan.planned_peak_bytes,
        plan.naive_peak_bytes,
        plan.in_place_ops,
        plan.reused_slots,
        plan.fused_epilogues
    );
    if per_run > BUDGET_PER_RUN as f64 {
        eprintln!("FAIL: {per_run:.2} allocs/inference exceeds the budget of {BUDGET_PER_RUN}");
        failed = true;
    }

    for (what, graph, budget) in [
        (
            "conv tape (small wide_and_deep)",
            wide_and_deep(&WideAndDeepConfig::small()),
            CONV_BUDGET_PER_RUN,
        ),
        (
            "depthwise tape (small mobilenet)",
            mobilenet(&MobileNetConfig::small()),
            DEPTHWISE_BUDGET_PER_RUN,
        ),
    ] {
        let sg = Compiler::default().compile_whole(&graph, graph.name.clone());
        let per_run = steady_state_allocs(&sg, &graph);
        println!("{what} steady state: {per_run:.2} allocs/inference (budget {budget})");
        if per_run > budget as f64 {
            eprintln!(
                "FAIL: {per_run:.2} allocs/inference on the {what} exceeds the budget of {budget}"
            );
            failed = true;
        }
    }
    for (model, budget) in RECORRECT_BUDGETS {
        let graph = zoo_model(model).expect("a zoo model");
        let engine = Duet::builder().build(&graph).expect("builds");
        let degraded = degraded_gpu(engine.system());
        let (allocs, replanned) = count_allocs(|| engine.recorrect(degraded));
        println!(
            "recorrect({model}, {} units): {allocs} allocs (budget {budget})",
            replanned.units().len()
        );
        if allocs > budget {
            eprintln!("FAIL: recorrect({model}) made {allocs} allocations, budget {budget}");
            failed = true;
        }
    }
    let small_engines = [
        Duet::builder().build(&siamese(&SiameseConfig::small())),
        Duet::builder()
            .no_fallback()
            .build(&wide_and_deep(&WideAndDeepConfig::small())),
    ];
    for ((model, heterogeneous, budget), engine) in RUN_BUDGETS.into_iter().zip(small_engines) {
        let engine = engine.expect("builds");
        let feeds = input_feeds(engine.graph(), 7);
        let mut last = None;
        for _ in 0..WARMUP {
            last = Some(engine.run(&feeds).expect("inference"));
        }
        let (allocs, ()) = count_allocs(|| {
            for _ in 0..RUNS {
                last = Some(engine.run(&feeds).expect("inference"));
            }
        });
        drop(last);
        let per_run = allocs as f64 / RUNS as f64;
        println!(
            "Duet::run(small {model}, {} subgraph(s)): {per_run:.2} allocs/inference \
             (budget {budget})",
            engine.placed().len()
        );
        if engine.fallback_device().is_none() != heterogeneous {
            eprintln!("FAIL: small {model} no longer exercises the plan shape this budget is for");
            failed = true;
        }
        if per_run >= (budget + 1) as f64 {
            eprintln!(
                "FAIL: {per_run:.2} allocs per Duet::run({model}) exceeds the budget of {budget}"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("alloc gate passed.");
}

/// Heap-allocation calls per inference of `sg` through a warm arena.
fn steady_state_allocs(sg: &CompiledSubgraph, graph: &Graph) -> f64 {
    let env = input_feeds(graph, 7);
    let mut arena = TapeArena::for_tape(&sg.tape);
    let mut last = None;
    for _ in 0..WARMUP {
        last = Some(sg.execute_with_arena(&env, &mut arena).expect("inference"));
    }
    let (allocs, ()) = count_allocs(|| {
        for _ in 0..RUNS {
            // Dropping the previous result before the next run is the
            // steady-state shape: exactly one escaped-output Arc alive.
            last = Some(sg.execute_with_arena(&env, &mut arena).expect("inference"));
        }
    });
    drop(last);
    allocs as f64 / RUNS as f64
}

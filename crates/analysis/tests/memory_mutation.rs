//! Mutation tests for the D4xx memory-plan checker: take a correctly
//! compiled tape, corrupt it the way a buggy planner would, and assert
//! the checker pins the corruption with the right code. A checker that
//! passes clean tapes proves nothing until it also fails broken ones.

use duet_analysis::{check_memory_plan, codes};
use duet_compiler::passes::fuse_groups;
use duet_compiler::{CompiledSubgraph, EpilogueOp, Operand};
use duet_ir::{Graph, GraphBuilder, Op};

/// fc1 → relu → fc2: one in-place epilogue, two distinct slot shapes.
fn mlp() -> Graph {
    let mut b = GraphBuilder::new("mlp", 1);
    let x = b.input("x", vec![1, 8]);
    let h = b.dense("fc1", x, 16, Some(Op::Relu)).unwrap();
    let y = b.dense("fc2", h, 4, None).unwrap();
    b.finish(&[y]).unwrap()
}

/// The unfused tape layout: singleton groups, one instruction per node.
/// The slot/in-place corruptions below need the relu to be its own
/// instruction rather than a fused epilogue step.
fn compile(g: &Graph) -> CompiledSubgraph {
    let singletons = g.compute_ids().into_iter().map(|id| vec![id]).collect();
    CompiledSubgraph::from_groups(g, "all", singletons)
}

/// The default register-graph layout, epilogue chains fused.
fn compile_fused(g: &Graph) -> CompiledSubgraph {
    let ids = g.compute_ids();
    CompiledSubgraph::from_groups(g, "all", fuse_groups(g, &ids))
}

/// fc1 → relu → residual add(·, x): a linear anchor carrying a
/// two-step epilogue chain (unary + binary) on the fused tape.
fn residual_mlp() -> Graph {
    let mut b = GraphBuilder::new("res", 1);
    let x = b.input("x", vec![1, 8]);
    let h = b.dense("fc1", x, 8, Some(Op::Relu)).unwrap();
    let s = b.op("res", Op::Add, &[h, x]).unwrap();
    b.finish(&[s]).unwrap()
}

#[test]
fn clean_tape_passes() {
    let g = mlp();
    let sg = compile(&g);
    let report = check_memory_plan(&g, &sg);
    assert!(report.is_clean(), "unexpected findings:\n{report}");
    // The fixture must actually exercise the interesting machinery.
    assert!(
        sg.tape.instrs.iter().any(|i| i.in_place),
        "fixture lost its in-place epilogue"
    );
    assert!(sg.tape.plan.planned_peak_bytes < sg.tape.plan.naive_peak_bytes);
}

#[test]
fn reordered_tape_is_caught() {
    let g = mlp();
    let mut sg = compile(&g);
    // Run the consumer before its producer.
    sg.tape.instrs.swap(0, 1);
    let report = check_memory_plan(&g, &sg);
    assert!(report.contains(codes::TAPE_ORDER), "missed D401:\n{report}");
    assert!(report.has_errors());
}

#[test]
fn aliasing_two_live_slots_is_caught() {
    let g = mlp();
    let mut sg = compile(&g);
    // Retarget the final instruction's output onto a slot whose value it
    // reads — without in-place rights. The relu value is clobbered while
    // still live.
    let last = sg.tape.instrs.len() - 1;
    let stolen = match sg.tape.instrs[last].inputs[0] {
        Operand::Slot(s) => s,
        ref other => panic!("fixture changed: first operand is {other:?}"),
    };
    let old = sg.tape.instrs[last].out;
    sg.tape.instrs[last].out = stolen;
    for out in &mut sg.tape.outputs {
        if out.1 == old {
            out.1 = stolen;
        }
    }
    let report = check_memory_plan(&g, &sg);
    assert!(
        report.contains(codes::TAPE_SLOT_OVERLAP) || report.contains(codes::TAPE_INPLACE),
        "missed the live-slot clobber:\n{report}"
    );
    assert!(report.has_errors());
}

#[test]
fn in_place_flag_on_incapable_op_is_caught() {
    let g = mlp();
    let mut sg = compile(&g);
    // Flag a Linear (a reduction — reads every input element after
    // writing starts) as in-place.
    let victim = sg
        .tape
        .instrs
        .iter()
        .position(|i| matches!(i.op, Op::Linear))
        .expect("fixture has a Linear");
    sg.tape.instrs[victim].in_place = true;
    let report = check_memory_plan(&g, &sg);
    assert!(
        report.contains(codes::TAPE_INPLACE),
        "missed D403:\n{report}"
    );
    assert!(report.has_errors());
}

#[test]
fn dropped_in_place_flag_is_caught() {
    let g = mlp();
    let mut sg = compile(&g);
    // The relu reads and writes the same slot; removing its flag leaves
    // an undeclared alias.
    let victim = sg
        .tape
        .instrs
        .iter()
        .position(|i| i.in_place)
        .expect("fixture has an in-place instr");
    sg.tape.instrs[victim].in_place = false;
    let report = check_memory_plan(&g, &sg);
    assert!(
        report.contains(codes::TAPE_INPLACE),
        "missed D403:\n{report}"
    );
    assert!(report.has_errors());
}

#[test]
fn corrupted_slot_shape_is_caught() {
    let g = mlp();
    let mut sg = compile(&g);
    sg.tape.plan.slot_shapes[0] = vec![1, 3].into();
    let report = check_memory_plan(&g, &sg);
    assert!(
        report.contains(codes::TAPE_SLOT_SHAPE),
        "missed D404:\n{report}"
    );
    assert!(report.has_errors());
}

#[test]
fn inflated_peak_accounting_is_a_warning() {
    let g = mlp();
    let mut sg = compile(&g);
    sg.tape.plan.planned_peak_bytes *= 10;
    let report = check_memory_plan(&g, &sg);
    assert!(
        report.contains(codes::TAPE_PEAK_ACCOUNTING),
        "missed D405:\n{report}"
    );
    assert!(!report.has_errors(), "D405 must stay a warning");
    assert!(report.warning_count() > 0);
}

#[test]
fn missing_instruction_is_caught() {
    let g = mlp();
    let mut sg = compile(&g);
    sg.tape.instrs.remove(0);
    let report = check_memory_plan(&g, &sg);
    assert!(
        report.contains(codes::TAPE_COVERAGE),
        "missed D400:\n{report}"
    );
    assert!(report.has_errors());
}

#[test]
fn swapped_kernels_are_caught() {
    let g = mlp();
    let mut sg = compile(&g);
    // The tape is untouched; only the priced kernel list is out of order.
    sg.kernels.swap(0, 1);
    let report = check_memory_plan(&g, &sg);
    assert!(
        report.contains(codes::TAPE_COVERAGE),
        "missed D400:\n{report}"
    );
    assert!(report.has_errors());
}

// --- fused-tape (D406 and friends) corruptions --------------------------

#[test]
fn clean_fused_tape_passes() {
    let g = residual_mlp();
    let sg = compile_fused(&g);
    let report = check_memory_plan(&g, &sg);
    assert!(report.is_clean(), "unexpected findings:\n{report}");
    // The fixture must actually fuse the two-step chain.
    assert_eq!(sg.tape.instrs.len(), 1, "expected one fused instruction");
    assert_eq!(sg.tape.instrs[0].epilogue.len(), 2);
    assert_eq!(sg.tape.plan.fused_epilogues, 2);
}

#[test]
fn epilogue_operand_aliasing_output_is_caught() {
    let g = residual_mlp();
    let mut sg = compile_fused(&g);
    // Retarget the residual add's rhs onto the very buffer the chain is
    // mutating — the classic fused-aliasing miscompile.
    let instr = &mut sg.tape.instrs[0];
    let rhs = match instr.epilogue[1].op {
        EpilogueOp::Add { rhs } => rhs,
        ref other => panic!("fixture changed: second step is {other:?}"),
    };
    instr.inputs[rhs] = Operand::Slot(instr.out);
    let report = check_memory_plan(&g, &sg);
    assert!(
        report.contains(codes::TAPE_FUSED_ALIAS),
        "missed D406:\n{report}"
    );
    assert!(report.has_errors());
}

#[test]
fn epilogue_op_disagreeing_with_graph_is_caught() {
    let g = residual_mlp();
    let mut sg = compile_fused(&g);
    // The graph says relu; the tape claims tanh.
    sg.tape.instrs[0].epilogue[0].op = EpilogueOp::Unary(duet_tensor::kernels::UnaryOp::Tanh);
    let report = check_memory_plan(&g, &sg);
    assert!(
        report.contains(codes::TAPE_FUSED_ALIAS),
        "missed D406:\n{report}"
    );
    assert!(report.has_errors());
}

#[test]
fn dropped_epilogue_step_is_caught() {
    let g = residual_mlp();
    let mut sg = compile_fused(&g);
    // Silently dropping the chain's last step loses the residual add:
    // coverage no longer matches the subgraph.
    sg.tape.instrs[0].epilogue.pop();
    let report = check_memory_plan(&g, &sg);
    assert!(
        report.contains(codes::TAPE_COVERAGE),
        "missed D400:\n{report}"
    );
    assert!(report.has_errors());
}

#[test]
fn split_fused_kernel_is_caught() {
    let g = residual_mlp();
    let mut sg = compile_fused(&g);
    // Price the one fused instruction as two kernels: the linear alone,
    // then its relu and residual add.
    let mut anchor = sg.kernels[0].clone();
    let mut rest = anchor.clone();
    anchor.nodes.truncate(1);
    rest.nodes.remove(0);
    rest.anchor = rest.nodes[0];
    sg.kernels = vec![anchor, rest];
    let report = check_memory_plan(&g, &sg);
    assert!(
        report.contains(codes::TAPE_COVERAGE),
        "missed D400:\n{report}"
    );
    assert!(report.has_errors());
}

#[test]
fn corrupted_arg_shape_is_caught() {
    let g = residual_mlp();
    let mut sg = compile_fused(&g);
    sg.tape.instrs[0].arg_shapes[0] = vec![2, 2].into();
    let report = check_memory_plan(&g, &sg);
    assert!(
        report.contains(codes::TAPE_SLOT_SHAPE),
        "missed D404:\n{report}"
    );
    assert!(report.has_errors());
}

#[test]
fn fused_zoo_tapes_are_clean() {
    // The full checker, fused path included, accepts every compiled zoo
    // model — D406 must not reject legitimate chains (conv→bn→relu,
    // residual adds, linear→relu).
    use duet_compiler::{CompileOptions, Compiler};
    for &name in duet_models::zoo_names() {
        let model = duet_models::zoo_model(name).expect("zoo model");
        let (model, _) = Compiler::new(CompileOptions::default())
            .optimize(&model)
            .expect("optimize");
        let ids = model.compute_ids();
        let sg = CompiledSubgraph::from_groups(&model, name, fuse_groups(&model, &ids));
        let report = check_memory_plan(&model, &sg);
        assert!(report.is_clean(), "{name}: unexpected findings:\n{report}");
    }
}

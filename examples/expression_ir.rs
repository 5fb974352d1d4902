//! Building a model through the Relay-style expression IR (§V) and
//! saving/loading it as a binary artifact.
//!
//! The paper's implementation translates TVM's expression-oriented Relay
//! into an adjacency-list graph via the visitor pattern before
//! partitioning. This example does the same translation on a small
//! two-branch recommender, then round-trips the model through the binary
//! format and serves it from the decoded copy.
//!
//! ```text
//! cargo run --release --example expression_ir
//! ```

use duet::ir::expr::{to_graph, Expr};
use duet::ir::{decode, encode, Op};
use duet::prelude::*;

fn main() {
    // --- Describe the model as pure expressions (shared subterms stay
    // shared; the translation emits each exactly once).
    let user = Expr::var("user.features", vec![1, 64]);
    let w1 = Expr::constant("tower.w1", Tensor::randn(vec![128, 64], 0.12, 1));
    let b1 = Expr::constant("tower.b1", Tensor::zeros(vec![128]));
    let hidden = Expr::call(
        "tower.act",
        Op::Relu,
        vec![Expr::call(
            "tower.fc",
            Op::Linear,
            vec![user.clone(), w1, b1],
        )],
    );

    // Two heads consume the same tower output — a shared node (§IV-A).
    let head = |name: &str, seed: u64| {
        let w = Expr::constant(format!("{name}.w"), Tensor::randn(vec![1, 128], 0.1, seed));
        let b = Expr::constant(format!("{name}.b"), Tensor::zeros(vec![1]));
        Expr::call(
            format!("{name}.sigmoid"),
            Op::Sigmoid,
            vec![Expr::call(
                format!("{name}.fc"),
                Op::Linear,
                vec![hidden.clone(), w, b],
            )],
        )
    };
    let click = head("click", 7);
    let purchase = head("purchase", 8);

    // --- Translate to the adjacency-list graph.
    let graph = to_graph("two_head_recsys", &[click, purchase]).expect("valid expressions");
    println!(
        "translated: {} nodes, {} outputs",
        graph.len(),
        graph.outputs().len()
    );

    // --- Round-trip through the binary model format.
    let bytes = encode(&graph);
    println!("\nserialized model: {} KB", bytes.len() / 1024);
    let reloaded = decode(&bytes).expect("model decodes");

    // --- Schedule and execute the *decoded* model.
    let engine = Duet::builder().build(&reloaded).expect("engine builds");
    println!("\n{}", engine.placement_report());
    let feeds = duet_models::input_feeds(engine.graph(), 42);
    let out = engine.run(&feeds).expect("inference runs");
    for &o in engine.graph().outputs() {
        println!(
            "  {:<18} = {:.6}",
            engine.graph().node(o).label,
            out.outputs[&o].data()[0]
        );
    }

    // --- And prove the decoded model equals the original numerically.
    let reference = graph.eval(&feeds).expect("original eval");
    for (i, &o) in engine.graph().outputs().iter().enumerate() {
        assert_eq!(out.outputs[&o], reference[i]);
    }
    println!("\ndecoded model matches the original bit-for-bit ✔");
}

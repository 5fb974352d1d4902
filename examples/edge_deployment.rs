//! Deploying to a different coupled architecture: schedule Wide-and-Deep
//! for an integrated edge SoC (shared memory, zero-copy "transfers"),
//! compare the decision against the datacenter server, and ship the
//! result as a model artifact + schedule plan.
//!
//! ```text
//! cargo run --release --example edge_deployment
//! ```

use duet::core::SchedulePlan;
use duet::device::SystemModel;
use duet::ir::{decode, encode};
use duet::prelude::*;

fn main() {
    let model = wide_and_deep(&WideAndDeepConfig::default());

    // --- Schedule the same model for two very different systems.
    let server = Duet::builder()
        .system(SystemModel::paper_server())
        .build(&model)
        .expect("server engine");
    let edge = Duet::builder()
        .system(SystemModel::edge_soc())
        .build(&model)
        .expect("edge engine");

    println!("datacenter server (Xeon + Titan V over PCIe 3.0):");
    println!("{}", server.placement_report());
    println!("edge SoC (6-core CPU + integrated GPU, zero-copy memory):");
    println!("{}", edge.placement_report());

    // --- The deployment artifact: model bytes + schedule plan.
    let artifact = encode(&model);
    let plan = edge.export_plan();
    println!(
        "deployment bundle: model {:.1} MB + plan {} bytes (expected {:.3} ms on-device)",
        artifact.len() as f64 / 1e6,
        plan.to_json().len(),
        plan.expected_latency_us / 1e3
    );

    // --- On the "device": decode the model, apply the shipped plan
    // (no profiling, no scheduling), run.
    let on_device_model = decode(&artifact).expect("artifact decodes");
    let shipped_plan = SchedulePlan::from_json(&plan.to_json()).expect("plan parses");
    let engine = Duet::builder()
        .system(SystemModel::edge_soc())
        .build_with_plan(&on_device_model, &shipped_plan)
        .expect("plan applies");
    assert_eq!(engine.latency_us(), edge.latency_us());
    println!(
        "on-device engine from shipped plan: {:.3} ms (same as offline decision ✔)",
        engine.latency_us() / 1e3
    );
}

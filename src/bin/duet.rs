//! `duet` — command-line front end for the engine.
//!
//! ```text
//! duet list                                # available zoo models
//! duet report wide_and_deep                # placement report (Table II row)
//! duet schedule mtdnn --policy round-robin # compare a policy
//! duet run siamese                         # execute one real inference
//! duet measure wide_and_deep --runs 5000   # latency distribution
//! duet analyze mtdnn                       # structural metrics
//! duet export-plan siamese plan.json       # save the offline decision
//! duet apply-plan siamese plan.json        # reload it (no re-scheduling)
//! duet tune all --drift                    # autotune the zoo under drift
//! duet insight render <dump> out.json      # flight dump -> Perfetto timeline
//! duet insight attribution <dump>          # per-segment latency table
//! duet insight diff <dump-a> <dump-b>      # compare two flight dumps
//! ```

use std::collections::HashMap;

use duet_core::{Duet, SchedulePolicy};
use duet_device::DeviceKind;
use duet_models::{input_feeds, zoo_model};

const MODELS: &[&str] = &[
    "wide_and_deep",
    "siamese",
    "mtdnn",
    "resnet18",
    "resnet50",
    "vgg16",
    "squeezenet",
    "mobilenet",
];

fn usage() -> ! {
    eprintln!(
        "usage:\n  duet list\n  duet report <model>\n  duet schedule <model> [--policy <p>]\n  \
         duet run <model>\n  duet measure <model> [--runs <n>]\n  duet analyze <model>\n  \
         duet export-plan <model> <file>\n  duet apply-plan <model> <file>\n  \
         duet save <model> <file>\n  duet report-file <file>\n  duet explain <model>\n  \
         duet trace <model> <file> [--full]\n  \
         duet tune <model|all> [--budget <n>] [--drift] [--json <file>] \
         [--metrics-out <file>]\n  \
         duet insight render <dump-dir> <out.json>\n  \
         duet insight attribution <dump-dir>\n  \
         duet insight diff <dump-dir-a> <dump-dir-b>\n\nmodels: {}\npolicies: \
         greedy-correction | greedy | random | round-robin | random-correction | ideal | \
         flops-proxy | cpu | gpu\n\nonline serving lives in its own binary: \
         cargo run --release -p duet-serve --bin duet-serve -- --help",
        MODELS.join(", ")
    );
    std::process::exit(2);
}

fn parse_policy(name: &str) -> SchedulePolicy {
    match name {
        "greedy-correction" => SchedulePolicy::GreedyCorrection,
        "greedy" => SchedulePolicy::GreedyOnly,
        "random" => SchedulePolicy::Random { seed: 0 },
        "round-robin" => SchedulePolicy::RoundRobin,
        "random-correction" => SchedulePolicy::RandomCorrection { seed: 0 },
        "ideal" => SchedulePolicy::Ideal,
        "flops-proxy" => SchedulePolicy::FlopsProxy,
        "cpu" => SchedulePolicy::Pin(DeviceKind::Cpu),
        "gpu" => SchedulePolicy::Pin(DeviceKind::Gpu),
        other => {
            eprintln!("unknown policy {other}");
            usage()
        }
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn model_or_die(name: &str) -> duet_ir::Graph {
    zoo_model(name).unwrap_or_else(|| {
        eprintln!("unknown model {name}");
        usage()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r.to_vec()),
        None => usage(),
    };
    match cmd {
        "list" => {
            for m in MODELS {
                let g = zoo_model(m).expect("zoo model");
                println!(
                    "{m:<16} {:>4} operators  {:>8.1} MB params",
                    g.compute_ids().len(),
                    g.param_bytes() as f64 / 1e6
                );
            }
        }
        "report" | "schedule" => {
            let model = rest.first().map(String::as_str).unwrap_or_else(|| usage());
            let policy = flag(&rest, "--policy")
                .map(|p| parse_policy(&p))
                .unwrap_or(SchedulePolicy::GreedyCorrection);
            let graph = model_or_die(model);
            let engine = Duet::builder()
                .policy(policy)
                .build(&graph)
                .expect("engine builds");
            print!("{}", engine.placement_report());
        }
        "run" => {
            let model = rest.first().map(String::as_str).unwrap_or_else(|| usage());
            let graph = model_or_die(model);
            let engine = Duet::builder().build(&graph).expect("engine builds");
            let feeds: HashMap<_, _> = input_feeds(engine.graph(), 0);
            let out = engine.run(&feeds).expect("inference runs");
            println!(
                "virtual latency {:.3} ms (host wall {:?})",
                out.virtual_latency_us / 1e3,
                out.wall_time
            );
            for (&id, v) in &out.outputs {
                let d = v.data();
                let preview: Vec<String> = d.iter().take(4).map(|x| format!("{x:.4}")).collect();
                println!(
                    "  output {:<18} {} [{}{}]",
                    engine.graph().node(id).label,
                    v.shape(),
                    preview.join(", "),
                    if d.len() > 4 { ", …" } else { "" }
                );
            }
        }
        "analyze" => {
            let model = rest.first().map(String::as_str).unwrap_or_else(|| usage());
            let graph = model_or_die(model);
            println!("{model}:");
            print!("{}", duet_ir::analyze(&graph));
        }
        "export-plan" => {
            let model = rest.first().map(String::as_str).unwrap_or_else(|| usage());
            let path = rest.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let graph = model_or_die(model);
            let engine = Duet::builder().build(&graph).expect("engine builds");
            std::fs::write(path, engine.export_plan().to_json()).expect("plan written");
            println!(
                "plan for {model} written to {path} (expected latency {:.3} ms)",
                engine.latency_us() / 1e3
            );
        }
        "apply-plan" => {
            let model = rest.first().map(String::as_str).unwrap_or_else(|| usage());
            let path = rest.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let graph = model_or_die(model);
            let text = std::fs::read_to_string(path).expect("plan readable");
            let plan = duet_core::SchedulePlan::from_json(&text).expect("plan parses");
            match Duet::builder().build_with_plan(&graph, &plan) {
                Ok(engine) => print!("{}", engine.placement_report()),
                Err(e) => {
                    eprintln!("plan rejected: {e}");
                    std::process::exit(1);
                }
            }
        }
        "save" => {
            let model = rest.first().map(String::as_str).unwrap_or_else(|| usage());
            let path = rest.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let graph = model_or_die(model);
            let bytes = duet_ir::encode(&graph);
            std::fs::write(path, &bytes).expect("model written");
            println!(
                "{model} saved to {path} ({:.1} MB)",
                bytes.len() as f64 / 1e6
            );
        }
        "report-file" => {
            let path = rest.first().map(String::as_str).unwrap_or_else(|| usage());
            let bytes = std::fs::read(path).expect("model readable");
            let graph = match duet_ir::decode(bytes) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("cannot load {path}: {e}");
                    std::process::exit(1);
                }
            };
            let engine = Duet::builder().build(&graph).expect("engine builds");
            print!("{}", engine.placement_report());
        }
        "explain" => {
            let model = rest.first().map(String::as_str).unwrap_or_else(|| usage());
            let graph = model_or_die(model);
            let engine = Duet::builder().build(&graph).expect("engine builds");
            print!("{}", duet_core::explain(&engine));
        }
        "trace" => {
            let model = rest.first().map(String::as_str).unwrap_or_else(|| usage());
            let path = rest.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let full = rest.iter().any(|a| a == "--full");
            let graph = model_or_die(model);
            if full {
                // Merged timeline: reset the span ring, run the whole
                // pipeline (compile → profile → schedule) plus one
                // witnessed inference, then interleave the collected
                // telemetry spans with the witness lanes.
                duet_telemetry::set_enabled(true);
                duet_telemetry::reset_spans();
                let engine = Duet::builder().build(&graph).expect("engine builds");
                let feeds = input_feeds(&graph, 7);
                let (_, witness) = engine.run_witnessed(&feeds).expect("model runs");
                let spans = duet_telemetry::spans();
                std::fs::write(
                    path,
                    duet_runtime::merged_perfetto_trace(model, &witness, &spans),
                )
                .expect("trace written");
                println!(
                    "merged timeline for {model} written to {path}: {} telemetry spans \
                     across compile/profile/schedule/execute plus witness lanes \
                     (open in ui.perfetto.dev)",
                    spans.len()
                );
            } else {
                let engine = Duet::builder().build(&graph).expect("engine builds");
                let (_, witness) = duet_runtime::simulate_witnessed(
                    engine.graph(),
                    engine.placed(),
                    engine.system(),
                    &mut duet_runtime::SimNoise::disabled(),
                );
                std::fs::write(path, duet_runtime::witness_to_chrome_trace(model, &witness))
                    .expect("trace written");
                println!("timeline for {model} written to {path} (open in ui.perfetto.dev)");
            }
        }
        "measure" => {
            let model = rest.first().map(String::as_str).unwrap_or_else(|| usage());
            let runs: usize = flag(&rest, "--runs")
                .map(|r| r.parse().expect("numeric --runs"))
                .unwrap_or(5000);
            let graph = model_or_die(model);
            let engine = Duet::builder().build(&graph).expect("engine builds");
            let s = engine.measure(runs, 0xC11);
            println!(
                "{model}: mean {:.3} ms  p50 {:.3}  p99 {:.3}  p99.9 {:.3}  (n={})",
                s.mean() / 1e3,
                s.p50() / 1e3,
                s.p99() / 1e3,
                s.p999() / 1e3,
                s.count()
            );
        }
        "tune" => cmd_tune(&rest),
        "insight" => cmd_insight(&rest),
        _ => usage(),
    }
}

/// `duet insight <render|attribution|diff>` — offline analysis of the
/// anomaly flight dumps `duet-serve --flight-dir` writes: merge a
/// dump's span trees into one Perfetto timeline, print its per-segment
/// tail-latency attribution, or compare two dumps side by side.
fn cmd_insight(rest: &[String]) {
    use duet_serve::{AttributionSummary, FlightDump};

    let load = |dir: &str| -> FlightDump {
        FlightDump::load(std::path::Path::new(dir)).unwrap_or_else(|e| {
            eprintln!("cannot load flight dump: {e}");
            std::process::exit(2);
        })
    };
    let header = |dir: &str, d: &FlightDump| {
        println!(
            "dump {dir}: model {} | rule {} | trigger trace {} | {} traces",
            d.model().unwrap_or("?"),
            d.rule().unwrap_or("?"),
            d.trigger_trace_id(),
            d.traces.len()
        );
    };
    let verb = rest.first().map(String::as_str).unwrap_or_else(|| usage());
    match verb {
        "render" => {
            let dir = rest.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let out = rest.get(2).map(String::as_str).unwrap_or_else(|| usage());
            let dump = load(dir);
            let Some(witness) = &dump.witness else {
                eprintln!("dump {dir} carries no witness.json; cannot render the virtual lanes");
                std::process::exit(2);
            };
            // Every member of a batch carries its own copy of the shared
            // batch/executor spans, so merge the trees deduplicating by
            // span id (untraced spans have id 0 and are all kept).
            let mut seen = std::collections::HashSet::new();
            let mut spans = Vec::new();
            for t in &dump.traces {
                for s in &t.spans {
                    if s.span_id == 0 || seen.insert(s.span_id) {
                        spans.push(*s);
                    }
                }
            }
            spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
            let model = dump.model().unwrap_or("unknown").to_string();
            std::fs::write(
                out,
                duet_runtime::merged_perfetto_trace(&model, witness, &spans),
            )
            .expect("trace written");
            header(dir, &dump);
            println!(
                "merged timeline: {} spans across {} request trees written to {out} \
                 (open in ui.perfetto.dev)",
                spans.len(),
                dump.traces.len()
            );
        }
        "attribution" => {
            let dir = rest.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let dump = load(dir);
            header(dir, &dump);
            let samples: Vec<_> = dump.traces.iter().map(|t| t.attribution).collect();
            print!(
                "{}",
                AttributionSummary::from_samples(&samples).render_table()
            );
            if let Some(w) = dump
                .traces
                .iter()
                .max_by(|a, b| a.sojourn_us.total_cmp(&b.sojourn_us))
            {
                println!(
                    "worst sojourn: trace {} at {:.1} us (batch {}, epoch {})",
                    w.trace_id, w.sojourn_us, w.batch, w.epoch
                );
            }
        }
        "diff" => {
            let dir_a = rest.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let dir_b = rest.get(2).map(String::as_str).unwrap_or_else(|| usage());
            let (a, b) = (load(dir_a), load(dir_b));
            header(dir_a, &a);
            header(dir_b, &b);
            let fp = |d: &FlightDump| {
                d.manifest
                    .get("plan_fingerprint")
                    .and_then(serde_json::Value::as_u64)
                    .unwrap_or(0)
            };
            if fp(&a) != fp(&b) {
                println!(
                    "plan fingerprints differ: {:#018x} vs {:#018x} (a plan swap happened between dumps)",
                    fp(&a),
                    fp(&b)
                );
            }
            let sum_a = AttributionSummary::from_samples(
                &a.traces.iter().map(|t| t.attribution).collect::<Vec<_>>(),
            );
            let sum_b = AttributionSummary::from_samples(
                &b.traces.iter().map(|t| t.attribution).collect::<Vec<_>>(),
            );
            println!(
                "  {:<12} {:>12} {:>12} {:>12}",
                "segment", "mean_a_us", "mean_b_us", "delta_us"
            );
            for sa in &sum_a.segments {
                let mean_b = sum_b
                    .segments
                    .iter()
                    .find(|sb| sb.segment == sa.segment)
                    .map_or(0.0, |sb| sb.mean_us);
                println!(
                    "  {:<12} {:>12.1} {:>12.1} {:>+12.1}",
                    sa.segment,
                    sa.mean_us,
                    mean_b,
                    mean_b - sa.mean_us
                );
            }
        }
        other => {
            eprintln!("unknown insight verb {other} (render | attribution | diff)");
            usage()
        }
    }
}

/// `duet tune <model|all>` — search placements with the simulator
/// oracle, prove the winner (D2xx + D5xx) and report speedup vs
/// Algorithm 1 — or, with `--drift`, vs the stale plan under a degraded
/// deployment (the serving hot-swap scenario).
/// Exits nonzero if any run comes back worse than Algorithm 1 or fails
/// promotion.
fn cmd_tune(rest: &[String]) {
    let model = rest.first().map(String::as_str).unwrap_or_else(|| usage());
    let mut cfg = duet_tune::TuneConfig::default();
    if let Some(budget) = flag(rest, "--budget") {
        cfg.budget = budget.parse().expect("numeric --budget");
    }
    let drift = rest.iter().any(|a| a == "--drift");
    let names: Vec<&str> = if model == "all" {
        MODELS.to_vec()
    } else {
        vec![model]
    };

    let mut failed = false;
    let mut rows = Vec::new();
    for name in &names {
        let graph = model_or_die(name);
        let engine = Duet::builder().build(&graph).expect("engine builds");
        let out = if drift {
            // The canonical drift scenario (duet-serve's smoke test):
            // the GPU loses most of its compute, bandwidth and launch
            // throughput, and the tuner races the stale plan.
            let mut deployed = engine.system().clone();
            deployed.gpu.peak_gflops /= 12.0;
            deployed.gpu.mem_bw_gbps /= 8.0;
            deployed.gpu.kernel_launch_us *= 8.0;
            duet_tune::tune_drifted(&engine, deployed, &cfg)
        } else {
            duet_tune::tune(&engine, &cfg)
        };
        println!("{out}");
        if !out.promoted || out.tuned_us > out.algorithm1_us {
            failed = true;
        }
        println!();
        rows.push(serde_json::json!({
            "model": out.model,
            "algorithm1_us": out.algorithm1_us,
            "tuned_us": out.tuned_us,
            "stale_us": out.stale_us,
            "speedup": out.speedup(),
            "speedup_vs_stale": out.speedup_vs_stale(),
            "winner": out.winner,
            "candidates": out.candidates,
            "wall_us": out.wall_us,
            "critical_path_lb_us": out.critical_path_lb_us,
            "promoted": out.promoted,
        }));
    }

    let better = rows
        .iter()
        .filter(|r| r["speedup"].as_f64() > Some(1.0))
        .count();
    let worse = rows
        .iter()
        .filter(|r| r["speedup"].as_f64() < Some(1.0))
        .count();
    println!(
        "tuned {} model(s): {} strictly better than Algorithm 1, {} tie(s), {} worse",
        rows.len(),
        better,
        rows.len() - better - worse,
        worse
    );
    if let Some(path) = flag(rest, "--json") {
        let doc = serde_json::json!({ "drift": drift, "runs": rows });
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&doc).expect("serializes"),
        )
        .expect("json written");
        println!("json report written to {path}");
    }
    if let Some(path) = flag(rest, "--metrics-out") {
        std::fs::write(&path, duet_telemetry::prometheus_text()).expect("metrics written");
        println!("metrics exposition dumped to {path}");
    }
    if failed {
        eprintln!("FAIL: a run regressed vs Algorithm 1 or failed promotion");
        std::process::exit(1);
    }
}

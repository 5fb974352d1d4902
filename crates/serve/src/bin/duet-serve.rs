//! `duet-serve` — load generator and end-to-end verifier for the DUET
//! online-serving runtime.
//!
//! Runs Poisson (open-loop) or closed-loop traffic against a freshly
//! registered model, optionally injects a degraded system model at half
//! duration (the drift scenario), then verifies:
//!
//! * every submitted request was answered (no wedged server);
//! * sampled batched outputs are bit-identical to direct batch-1 runs;
//! * a witnessed request passes the D3xx runtime-conformance checks;
//! * under drift: exactly one plan hot-swap fired and the post-swap
//!   per-request virtual P50 beats the drifted (stale-plan) P50.
//!
//! Exit codes: 0 ok, 2 usage, 3 wedged/deadlock, 4 drift verification
//! failed, 5 bit-identity failed, 6 witness conformance failed, 7 shed
//! under `--require-zero-shed`, 8 attribution segments failed to sum to
//! the measured sojourn.

// The report `json!` literal is wide enough to exhaust the default
// macro recursion limit of the vendored serde_json.
#![recursion_limit = "512"]

use std::path::PathBuf;
use std::time::Duration;

use duet_device::SystemModel;
use duet_serve::loadgen::degraded_gpu;
use duet_serve::{
    LoadGen, LoadGenConfig, LoadReport, ModelSpec, ServeConfig, ServeServer, SloConfig,
};

struct Args {
    model: String,
    qps: f64,
    duration_ms: u64,
    max_batch: usize,
    linger_us: u64,
    queue_cap: usize,
    sla_ms: Option<u64>,
    seed: u64,
    drift: bool,
    closed: Option<usize>,
    require_zero_shed: bool,
    json: bool,
    metrics_addr: Option<String>,
    metrics_out: Option<String>,
    slo_us: Option<f64>,
    slo_window: usize,
    slo_burn: usize,
    flight_dir: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            model: "wide_deep".into(),
            qps: 200.0,
            duration_ms: 2000,
            max_batch: 8,
            linger_us: 2000,
            queue_cap: 256,
            sla_ms: None,
            seed: 0x10ad,
            drift: true,
            closed: None,
            require_zero_shed: false,
            json: false,
            metrics_addr: None,
            metrics_out: None,
            slo_us: None,
            slo_window: 64,
            slo_burn: 8,
            flight_dir: None,
        }
    }
}

const USAGE: &str = "duet-serve — DUET online-serving load generator

USAGE: duet-serve [OPTIONS]

OPTIONS:
  --model NAME          model to serve: wide_deep | mlp | siamese (default wide_deep)
  --qps RATE            open-loop Poisson arrival rate (default 200)
  --duration-ms MS      load generation window (default 2000)
  --max-batch N         dynamic batcher ceiling (default 8)
  --linger-us US        batching linger window (default 2000)
  --queue-cap N         admission queue bound (default 256)
  --sla-ms MS           per-request SLA budget (default: none)
  --seed N              arrival/content seed (default 0x10ad)
  --no-drift            skip the half-time degraded-system injection
  --closed N            closed-loop mode with N workers instead of Poisson
  --require-zero-shed   fail (exit 7) if any request was shed
  --json                print the report as JSON too
  --metrics-addr ADDR   serve Prometheus text exposition at http://ADDR/metrics
                        (e.g. 127.0.0.1:9464; port 0 picks a free port)
  --metrics-out FILE    dump the final Prometheus exposition to FILE on exit
  --slo US              per-request sojourn SLO in microseconds; breaches are
                        counted and a burn fires the flight recorder
  --slo-window N        sliding window for SLO burn detection (default 64)
  --slo-burn N          breaches within the window that constitute a burn
                        (default 8)
  --flight-dir DIR      write an anomaly-triggered flight dump (last traces +
                        metrics + plan + witness) under DIR, at most once
  --help                this text";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--model" => args.model = val("--model")?,
            "--qps" => args.qps = val("--qps")?.parse().map_err(|e| format!("--qps: {e}"))?,
            "--duration-ms" => {
                args.duration_ms = val("--duration-ms")?
                    .parse()
                    .map_err(|e| format!("--duration-ms: {e}"))?
            }
            "--max-batch" => {
                args.max_batch = val("--max-batch")?
                    .parse()
                    .map_err(|e| format!("--max-batch: {e}"))?
            }
            "--linger-us" => {
                args.linger_us = val("--linger-us")?
                    .parse()
                    .map_err(|e| format!("--linger-us: {e}"))?
            }
            "--queue-cap" => {
                args.queue_cap = val("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?
            }
            "--sla-ms" => {
                args.sla_ms = Some(
                    val("--sla-ms")?
                        .parse()
                        .map_err(|e| format!("--sla-ms: {e}"))?,
                )
            }
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--no-drift" => args.drift = false,
            "--closed" => {
                args.closed = Some(
                    val("--closed")?
                        .parse()
                        .map_err(|e| format!("--closed: {e}"))?,
                )
            }
            "--require-zero-shed" => args.require_zero_shed = true,
            "--json" => args.json = true,
            "--metrics-addr" => args.metrics_addr = Some(val("--metrics-addr")?),
            "--metrics-out" => args.metrics_out = Some(val("--metrics-out")?),
            "--slo" => {
                args.slo_us = Some(val("--slo")?.parse().map_err(|e| format!("--slo: {e}"))?)
            }
            "--slo-window" => {
                args.slo_window = val("--slo-window")?
                    .parse()
                    .map_err(|e| format!("--slo-window: {e}"))?
            }
            "--slo-burn" => {
                args.slo_burn = val("--slo-burn")?
                    .parse()
                    .map_err(|e| format!("--slo-burn: {e}"))?
            }
            "--flight-dir" => args.flight_dir = Some(PathBuf::from(val("--flight-dir")?)),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.max_batch == 0 || args.qps <= 0.0 || args.duration_ms == 0 {
        return Err("--max-batch, --qps and --duration-ms must be positive".into());
    }
    Ok(args)
}

fn fail(code: i32, msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(code)
}

fn print_report(model: &str, report: &LoadReport) {
    let s = &report.snapshot;
    println!("== duet-serve report: {model} ==");
    println!(
        "traffic   offered {} | accepted {} | completed {} | errors {} | throughput {:.1} qps",
        report.offered, report.accepted, s.completed, report.error_responses, report.throughput_qps
    );
    println!(
        "shedding  queue-full {} | expired {} | undrained {}",
        s.shed_queue_full, s.shed_expired, report.undrained
    );
    let hist: Vec<String> = s
        .batch_histogram
        .iter()
        .map(|(b, n)| format!("{b}x{n}"))
        .collect();
    println!(
        "batching  batches {} | mean size {:.2} | histogram [{}]",
        s.batches_executed,
        s.mean_batch(),
        hist.join(", ")
    );
    // Per-phase latency attribution replaces the old single end-to-end
    // sojourn line: each completed request's wall time is decomposed
    // into queue/linger/compute/transfer/overhead segments server-side.
    if report.attribution.requests > 0 {
        print!("{}", report.attribution.render_table());
    }
    if let Some(w) = &s.sojourn {
        println!(
            "sojourn   total wall P50 {:.2} ms | P99 {:.2} ms | max {:.2} ms",
            w.p50() / 1e3,
            w.p99() / 1e3,
            w.max() / 1e3
        );
    }
    if let Some(v) = &s.virtual_service {
        println!(
            "service   virtual per-request P50 {:.1} us | P99 {:.1} us",
            v.p50(),
            v.p99()
        );
    }
    println!(
        "feedback  plan swaps {} | epoch {} | drifted-epoch P50 {} | post-swap P50 {}",
        s.plan_swaps,
        s.epoch,
        report
            .drift_epoch_p50_us
            .map_or("-".into(), |v| format!("{v:.1} us")),
        report
            .post_swap_epoch_p50_us
            .map_or("-".into(), |v| format!("{v:.1} us")),
    );
    let (checked, failures, max_batch) = report.verified;
    println!(
        "verify    bit-identity {checked} checked ({failures} failed, largest batch {max_batch})"
    );
}

fn json_report(model: &str, report: &LoadReport, witness_clean: bool) -> String {
    let s = &report.snapshot;
    let hist: Vec<serde_json::Value> = s
        .batch_histogram
        .iter()
        .map(|(b, n)| serde_json::json!({ "batch": b, "count": n }))
        .collect();
    serde_json::json!({
        "model": model,
        "offered": report.offered,
        "accepted": report.accepted,
        "completed": s.completed,
        "errors": report.error_responses,
        "throughput_qps": report.throughput_qps,
        "shed_queue_full": s.shed_queue_full,
        "shed_expired": s.shed_expired,
        "undrained": report.undrained,
        "batches": s.batches_executed,
        "mean_batch": s.mean_batch(),
        "batch_histogram": hist,
        "sojourn_p50_us": s.sojourn.as_ref().map(|w| w.p50()),
        "sojourn_p99_us": s.sojourn.as_ref().map(|w| w.p99()),
        "attribution": report.attribution,
        "attribution_mismatches": report.attribution_mismatches,
        "virtual_service_p50_us": s.virtual_service.as_ref().map(|v| v.p50()),
        "virtual_service_p99_us": s.virtual_service.as_ref().map(|v| v.p99()),
        "plan_swaps": s.plan_swaps,
        "drift_injected": report.drift_injected,
        "baseline_epoch_p50_us": report.baseline_epoch_p50_us,
        "drift_epoch_p50_us": report.drift_epoch_p50_us,
        "post_swap_epoch_p50_us": report.post_swap_epoch_p50_us,
        "verified": {
            "checked": report.verified.0,
            "failures": report.verified.1,
            "largest_batch": report.verified.2,
        },
        "witness_clean": witness_clean,
    })
    .to_string()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(spec) = ModelSpec::serving_zoo(&args.model) else {
        eprintln!(
            "error: unknown model {:?} (try wide_deep, mlp, siamese)",
            args.model
        );
        std::process::exit(2);
    };
    let model = spec.name().to_string();
    let system = SystemModel::paper_server();

    if let Some(addr) = &args.metrics_addr {
        match duet_telemetry::export::serve_metrics(addr) {
            Ok(bound) => eprintln!("metrics exposition at http://{bound}/metrics"),
            Err(e) => {
                eprintln!("error: cannot bind --metrics-addr {addr}: {e}");
                std::process::exit(2);
            }
        }
    }

    let mut server = ServeServer::new(ServeConfig {
        max_batch: args.max_batch,
        linger: Duration::from_micros(args.linger_us),
        queue_cap: args.queue_cap,
        slo: args.slo_us.map(|limit_us| SloConfig {
            limit_us,
            window: args.slo_window,
            burn_threshold: args.slo_burn,
        }),
        flight_dir: args.flight_dir.clone(),
        ..ServeConfig::default()
    });
    eprintln!(
        "building engines for {model} (batch 1 + {})...",
        args.max_batch
    );
    server.register(spec, system.clone());

    let gen = LoadGen::new(LoadGenConfig {
        qps: args.qps,
        duration: Duration::from_millis(args.duration_ms),
        seed: args.seed,
        sla: args.sla_ms.map(Duration::from_millis),
        closed_workers: args.closed,
        drift: args.drift.then(|| degraded_gpu(&system)),
        verify_samples: 8,
        drain_timeout: Duration::from_secs(30),
    });
    eprintln!(
        "running {} load: {:.0} qps for {} ms (drift {})...",
        if args.closed.is_some() {
            "closed-loop"
        } else {
            "open-loop Poisson"
        },
        args.qps,
        args.duration_ms,
        if args.drift { "on at half-time" } else { "off" },
    );
    let report = match gen.run(&server, &model) {
        Ok(r) => r,
        Err(e) => fail(3, &format!("load run failed: {e}")),
    };

    // Runtime conformance on a fresh witnessed request.
    let witness = match server.witness_check(&model, args.seed ^ 0x3157) {
        Ok(r) => r,
        Err(e) => fail(6, &format!("witness run failed: {e}")),
    };

    print_report(&model, &report);
    if args.json {
        println!("{}", json_report(&model, &report, witness.is_clean()));
    }
    if let Some(path) = &args.metrics_out {
        match std::fs::write(path, duet_telemetry::prometheus_text()) {
            Ok(()) => eprintln!("metrics exposition dumped to {path}"),
            Err(e) => fail(3, &format!("cannot write --metrics-out {path}: {e}")),
        }
    }

    // ---- hard verifications ----
    if report.undrained > 0 {
        fail(
            3,
            &format!(
                "{} requests never completed — server wedged",
                report.undrained
            ),
        );
    }
    let (checked, failures, _) = report.verified;
    if checked == 0 {
        fail(5, "no responses available for bit-identity verification");
    }
    if failures > 0 {
        fail(
            5,
            &format!("{failures}/{checked} sampled responses differ from reference runs"),
        );
    }
    if !witness.is_clean() {
        fail(6, &format!("witness conformance errors:\n{witness}"));
    }
    if report.drift_injected {
        let swaps = report.snapshot.plan_swaps;
        // A model placed entirely on the undegraded device never sees
        // the injection: measured latency stays at baseline and the
        // monitor rightly never fires. Only models the injection
        // actually perturbed must produce exactly one corrective swap.
        let perturbed = match (report.baseline_epoch_p50_us, report.drift_epoch_p50_us) {
            (Some(base), Some(stale)) => stale > base * 1.35,
            _ => swaps > 0,
        };
        if !perturbed && swaps == 0 {
            println!(
                "drift     injection did not move this model's measured latency (placement avoids the degraded device); swap verification skipped"
            );
        } else {
            if swaps != 1 {
                fail(
                    4,
                    &format!("expected exactly one plan hot-swap, saw {swaps}"),
                );
            }
            match (report.drift_epoch_p50_us, report.post_swap_epoch_p50_us) {
                (Some(stale), Some(fresh)) if fresh < stale => {
                    println!(
                        "drift     hot-swap lowered per-request virtual P50: {stale:.1} -> {fresh:.1} us ({:.2}x)",
                        stale / fresh
                    );
                }
                (stale, fresh) => fail(
                    4,
                    &format!(
                        "hot-swap did not lower P50 (stale {stale:?}, post-swap {fresh:?} us)"
                    ),
                ),
            }
        }
    }
    if args.require_zero_shed && report.snapshot.shed() + report.shed_at_submit > 0 {
        fail(
            7,
            &format!(
                "shed under --require-zero-shed: queue-full {} expired {}",
                report.snapshot.shed_queue_full, report.snapshot.shed_expired
            ),
        );
    }
    if report.attribution_mismatches > 0 {
        fail(
            8,
            &format!(
                "{} responses had attribution segments that do not sum to the measured sojourn (>5% off)",
                report.attribution_mismatches
            ),
        );
    }
    if let Some(dump) = server.flight(&model).and_then(|f| f.last_dump()) {
        println!(
            "flight    anomaly dump written to {} (inspect with `duet insight render`)",
            dump.display()
        );
    }
    println!("OK");
}

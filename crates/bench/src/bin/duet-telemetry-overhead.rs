//! `duet-telemetry-overhead` — CI gate for the telemetry overhead
//! contract.
//!
//! The observability layer promises to stay on by default, which only
//! holds if it is effectively free. This gate runs repeated end-to-end
//! MLP inferences through `Duet::run` (the threaded executor under the
//! untraced span observer it composes: run and subgraph spans into the
//! global ring, plus per-device counters and tape/arena stats), toggling
//! telemetry enabled/disabled on *every successive run* — so scheduler
//! noise, thermal drift and noisy neighbors hit both populations
//! identically — and fails if the median enabled run is more than 3%
//! slower than the median disabled run. Per-run medians over thousands
//! of samples are stable where trial means on a ~50 µs threaded run are
//! pure noise.
//!
//! A second phase holds the same 3% budget over the *serving* path:
//! sequential submit→wait requests through a live [`ServeServer`],
//! where every completed request additionally pays causal span
//! recording, per-segment attribution and the flight-recorder ring.

use std::time::{Duration, Instant};

use duet_core::Duet;
use duet_models::{input_feeds, mlp, MlpConfig};
use duet_serve::{ModelSpec, ServeConfig, ServeServer};

const WARMUP: usize = 32;
const PAIRS: usize = 1500;
/// submit→wait round trips are ~10x longer than a bare engine run, so
/// fewer pairs reach a stable median.
const SERVE_PAIRS: usize = 400;
/// Allowed relative overhead of telemetry-enabled over disabled.
const MAX_OVERHEAD: f64 = 0.03;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let graph = mlp(&MlpConfig {
        batch: 1,
        input: 64,
        hidden: 64,
        layers: 3,
        ..MlpConfig::default()
    });
    let engine = Duet::builder().build(&graph).expect("engine builds");
    let feeds = input_feeds(&graph, 7);

    let timed_run = |enabled: bool| -> f64 {
        duet_telemetry::set_enabled(enabled);
        let start = Instant::now();
        engine.run(&feeds).expect("inference");
        start.elapsed().as_secs_f64()
    };

    for _ in 0..WARMUP {
        engine.run(&feeds).expect("inference");
    }

    let mut on = Vec::with_capacity(PAIRS);
    let mut off = Vec::with_capacity(PAIRS);
    for i in 0..PAIRS {
        // Flip which side goes first each pair to cancel ordering bias.
        if i % 2 == 0 {
            on.push(timed_run(true));
            off.push(timed_run(false));
        } else {
            off.push(timed_run(false));
            on.push(timed_run(true));
        }
    }
    duet_telemetry::set_enabled(true);

    let med_on = median(on);
    let med_off = median(off);
    let overhead = med_on / med_off - 1.0;
    println!(
        "telemetry overhead on mlp: enabled {:.1} us/run, disabled {:.1} us/run, \
         overhead {:+.2}% (budget {:.0}%)",
        med_on * 1e6,
        med_off * 1e6,
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );
    if overhead > MAX_OVERHEAD {
        eprintln!(
            "FAIL: telemetry adds {:.2}% to end-to-end latency (budget {:.0}%)",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0
        );
        std::process::exit(1);
    }
    println!("telemetry overhead gate passed.");

    // ---- phase 2: the attribution-enabled serving path ----
    let mut server = ServeServer::new(ServeConfig {
        max_batch: 1,
        linger: Duration::ZERO,
        ..ServeConfig::default()
    });
    let spec = ModelSpec::serving_zoo("mlp").expect("zoo model");
    server.register(spec, duet_device::SystemModel::paper_server());
    let spec = ModelSpec::serving_zoo("mlp").expect("zoo model");

    let timed_request = |enabled: bool, seed: u64| -> f64 {
        duet_telemetry::set_enabled(enabled);
        let feeds = spec.request_feeds(seed);
        let start = Instant::now();
        server
            .submit("mlp", feeds, None)
            .expect("admitted")
            .wait()
            .expect("completes");
        start.elapsed().as_secs_f64()
    };

    for i in 0..WARMUP {
        timed_request(true, i as u64);
    }
    let mut on = Vec::with_capacity(SERVE_PAIRS);
    let mut off = Vec::with_capacity(SERVE_PAIRS);
    for i in 0..SERVE_PAIRS {
        let seed = 1000 + i as u64;
        if i % 2 == 0 {
            on.push(timed_request(true, seed));
            off.push(timed_request(false, seed));
        } else {
            off.push(timed_request(false, seed));
            on.push(timed_request(true, seed));
        }
    }
    duet_telemetry::set_enabled(true);

    let med_on = median(on);
    let med_off = median(off);
    let overhead = med_on / med_off - 1.0;
    println!(
        "attribution-enabled serve overhead on mlp: enabled {:.1} us/request, \
         disabled {:.1} us/request, overhead {:+.2}% (budget {:.0}%)",
        med_on * 1e6,
        med_off * 1e6,
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );
    if overhead > MAX_OVERHEAD {
        eprintln!(
            "FAIL: serve-path tracing+attribution adds {:.2}% to request latency (budget {:.0}%)",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0
        );
        std::process::exit(1);
    }
    println!("serve attribution overhead gate passed.");
}

//! From windows to named metrics, and from metrics to output: the
//! human-readable table, `out/<workload>.json`, and the one-line JSON
//! result the driver reads off the end of stdout.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::{json, Map, Number, Value};

use crate::layers::Readings;
use crate::stats::{block_rates, mean, median, percentile, slice_spread, sorted};
use crate::trace::{NameTotals, Span};
use crate::workloads::{Counts, Window, WorkloadSpec};

/// A closed-loop window with fewer samples than this has fewer than ten
/// beyond its tail percentile (p90); an open-loop window whose
/// generator ran later than this at its own 99th percentile did not
/// quite offer the schedule it claims. Either gets the run a warning,
/// on stdout and in its run file — not a failure: on the shared 2-vCPU
/// host a sleeping generator is woken 4–6 ms late whenever both cores
/// are mid-inference, and latency is timed from the due time, so the
/// lateness is already in the numbers.
pub const MIN_CLOSED_SAMPLES: usize = 100;
pub const MAX_GEN_LATE_P99_MS: f64 = 5.0;

pub fn latencies(w: &Window) -> Vec<f64> {
    w.samples.sorted_ms()
}

/// The gated latency and throughput are low-contention order
/// statistics of the whole window, not its middle: on the shared host an
/// operation runs either undisturbed or slowed by a co-tenant, and the
/// window's median flips between the two as the disturbed share crosses
/// one half (README, "Estimators"). The 10th percentile of latency and
/// the 90th of block rates stay in the undisturbed mode until nine
/// tenths of a window are disturbed, and still move one for one with the
/// code's own speed.
pub const LATENCY_PCT: f64 = 10.0;
pub const THROUGHPUT_PCT: f64 = 90.0;
/// Blocks of equally many completions a closed-loop window is cut into
/// for `throughput_p90_per_s`: half a second each in a full window.
pub const THROUGHPUT_BLOCKS: usize = 48;

/// Correct completions ÷ window seconds.
pub fn mean_rate_per_s(w: &Window) -> f64 {
    if w.counts.ok == 0 {
        return 0.0;
    }
    w.counts.ok as f64 / w.seconds
}

/// Closed loop: the [`THROUGHPUT_PCT`]th percentile of the completion
/// rates of [`THROUGHPUT_BLOCKS`] consecutive blocks of the window. Open
/// loop: the schedule sets the rate, so completions ÷ window seconds.
pub fn throughput_p90_per_s(spec: &WorkloadSpec, w: &Window) -> f64 {
    if spec.open_loop {
        return mean_rate_per_s(w);
    }
    let rates = sorted(&block_rates(&w.samples.done_s(), THROUGHPUT_BLOCKS));
    percentile(&rates, THROUGHPUT_PCT)
}

pub fn window_warning(spec: &WorkloadSpec, w: &Window) -> Option<String> {
    if spec.open_loop {
        let p99 = percentile(&sorted(&w.gen_late_ms), 99.0);
        (p99 >= MAX_GEN_LATE_P99_MS).then(|| {
            format!("generator ran {p99:.2} ms late at its p99 (limit {MAX_GEN_LATE_P99_MS} ms)")
        })
    } else {
        (w.samples.len() < MIN_CLOSED_SAMPLES).then(|| {
            format!(
                "{} samples in a closed-loop window (minimum {MIN_CLOSED_SAMPLES})",
                w.samples.len()
            )
        })
    }
}

/// The end-to-end metrics of one untraced window.
/// `lat`: its latencies, ascending.
pub fn end_to_end(
    spec: &WorkloadSpec,
    w: &Window,
    lat: &[f64],
    setup_s: f64,
    peak_rss_mb: f64,
) -> Readings {
    let within = lat.iter().filter(|&&ms| ms <= spec.slo_ms).count();
    vec![
        ("latency_p10_ms", percentile(lat, LATENCY_PCT)),
        ("throughput_p90_per_s", throughput_p90_per_s(spec, w)),
        (
            "slo_ok_share",
            within as f64 / w.counts.attempted.max(1) as f64,
        ),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb),
    ]
}

/// Largest share of root-span time spent under one child span name.
fn max_child_share(spans: &[Span]) -> f64 {
    let mut root_total = 0.0;
    let mut by_child: BTreeMap<&str, f64> = BTreeMap::new();
    for s in spans {
        let dur = s.end_us - s.start_us;
        if s.parent == 0 {
            if s.name.ends_with(".op") || s.name.ends_with(".request") {
                root_total += dur;
            }
        } else if spans[s.parent as usize - 1].parent == 0 {
            *by_child.entry(s.name).or_default() += dur;
        }
    }
    if root_total <= 0.0 {
        return 0.0;
    }
    by_child.values().copied().fold(0.0, f64::max) / root_total
}

/// The per-layer metrics of a traced run: direct probe readings plus
/// what the traced window, its spans and its untraced twin show.
pub fn per_layer(
    spec: &WorkloadSpec,
    reference: &Window,
    traced: &Window,
    spans: &[Span],
    probes: Readings,
) -> Readings {
    let mut out = probes;
    let probe = |out: &Readings, name: &str| {
        out.iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };

    out.push(("core.virtual_latency_us", traced.virtual_us));

    let serve = traced.serve.clone().unwrap_or_default();
    let batch_period_us = if serve.batches > 0.0 {
        traced.seconds * 1e6 / serve.batches
    } else {
        0.0
    };
    let exec_at_batch_us = probe(&out, "serve.exec_at_batch_us");
    out.extend([
        ("serve.submit_us", median(&serve.submit_us)),
        ("serve.queue_us_p50", median(&serve.queue_us)),
        ("serve.linger_us_p50", median(&serve.linger_us)),
        ("serve.compute_us_p50", median(&serve.compute_us)),
        ("serve.overhead_us_p50", median(&serve.overhead_us)),
        (
            "serve.mean_batch",
            if serve.batches > 0.0 {
                serve.responses as f64 / serve.batches
            } else {
                0.0
            },
        ),
        ("serve.batch_period_us", batch_period_us),
        (
            "serve.batch_residual_us",
            if traced.serve.is_some() {
                batch_period_us - exec_at_batch_us
            } else {
                0.0
            },
        ),
        ("serve.cache_misses", serve.cache_misses as f64),
        ("serve.shed", traced.counts.shed as f64),
        ("serve.expired", traced.counts.expired as f64),
    ]);

    // Closed loops slow down under tracing; an open loop's rate is set
    // by its schedule, so there tracing shows as added latency.
    let traced_latencies = latencies(traced);
    let trace_overhead = if spec.open_loop {
        let reference_p50 = percentile(&latencies(reference), 50.0);
        if reference_p50 > 0.0 {
            percentile(&traced_latencies, 50.0) / reference_p50 - 1.0
        } else {
            0.0
        }
    } else {
        1.0 - mean_rate_per_s(traced) / mean_rate_per_s(reference)
    };
    let late = sorted(&traced.gen_late_ms);
    out.extend([
        ("bench.latency_p50_ms", percentile(&traced_latencies, 50.0)),
        (
            "bench.latency_tail_ms",
            percentile(&traced_latencies, spec.tail_pct),
        ),
        ("bench.trace_overhead_share", trace_overhead),
        ("bench.max_child_share", max_child_share(spans)),
        ("bench.gen_late_p99_ms", percentile(&late, 99.0)),
        ("bench.gen_late_max_ms", percentile(&late, 100.0)),
        (
            "bench.slice_spread",
            slice_spread(&traced.samples.done_and_latency(), traced.seconds, 10),
        ),
        ("bench.samples", traced.samples.len() as f64),
        (
            "bench.failed_share",
            traced.counts.failed() as f64 / traced.counts.attempted.max(1) as f64,
        ),
        ("bench.kernel_threads", rayon::current_num_threads() as f64),
    ]);
    out
}

/// Order `readings` as `names` lists them, with units. Panics when the
/// two disagree: a metric printed under a name the contract does not
/// have (or one missing) is a bug in this benchmark.
pub fn in_contract_order(
    names: &[(&'static str, &'static str)],
    readings: &Readings,
) -> Vec<(&'static str, f64, &'static str)> {
    for (name, _) in readings {
        assert!(
            names.iter().any(|(n, _)| n == name),
            "metric {name} is not in names.rs"
        );
    }
    names
        .iter()
        .map(|&(name, unit)| {
            let value = readings
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            (name, value, unit)
        })
        .collect()
}

pub fn print_metrics(metrics: &[(&'static str, f64, &'static str)]) {
    for (name, value, unit) in metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
}

pub fn print_counts(c: &Counts) {
    println!(
        "  attempted {} ok {} failed {} (errors {} shed {} expired {} undrained {} mismatched {})",
        c.attempted,
        c.ok,
        c.failed(),
        c.errors,
        c.shed,
        c.expired,
        c.undrained,
        c.mismatched
    );
}

fn metrics_value(metrics: &[(&'static str, f64, &'static str)]) -> Value {
    let mut map = Map::new();
    for (name, value, unit) in metrics {
        map.insert(*name, json!({ "value": *value, "unit": *unit }));
    }
    Value::Object(map)
}

/// The driver's line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(
    correct: bool,
    counts: &Counts,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let mut map = Map::new();
    map.insert("correct", Value::Bool(correct));
    map.insert(
        "attempted",
        Value::Number(Number::from_u64(counts.attempted.max(1))),
    );
    map.insert("failed", Value::Number(Number::from_u64(counts.failed())));
    map.insert("metrics", metrics_value(metrics));
    serde_json::to_string(&Value::Object(map)).expect("a value tree serializes")
}

/// Everything about the run, for people and scripts: `out/<file>`.
#[allow(clippy::too_many_arguments)]
pub fn write_run_file(
    path: &Path,
    spec: &WorkloadSpec,
    seed: u64,
    seconds: f64,
    quick: bool,
    warning: Option<&str>,
    window: &Window,
    lat: &[f64],
    metrics: &[(&'static str, f64, &'static str)],
    setup_runs_s: &[f64],
    self_time: Option<&BTreeMap<&'static str, NameTotals>>,
) -> std::io::Result<()> {
    let c = &window.counts;
    let percentiles: Vec<Value> = [10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9]
        .iter()
        .map(|&p| json!({ "p": p, "ms": percentile(lat, p) }))
        .collect();
    let mut doc = json!({
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "comparable": !quick,
        "warning": warning,
        "loop": if spec.open_loop { "open" } else { "closed" },
        "tail_percentile": spec.tail_pct,
        "latency_limit_ms": spec.slo_ms,
        "window_seconds": window.seconds,
        "samples": lat.len(),
        "samples_beyond_tail": (lat.len() as f64 * (1.0 - spec.tail_pct / 100.0)).floor(),
        "latency_mean_ms": mean(lat),
        "mean_rate_per_s": mean_rate_per_s(window),
        "latency_percentiles_ms": percentiles,
        "counts": {
            "attempted": c.attempted,
            "ok": c.ok,
            "failed": c.failed(),
            "errors": c.errors,
            "shed": c.shed,
            "expired": c.expired,
            "undrained": c.undrained,
            "mismatched": c.mismatched,
        },
        "virtual_latency_us": window.virtual_us,
        "setup_runs_s": setup_runs_s,
        "metrics": metrics_value(metrics),
    });
    if let (Some(totals), Value::Object(map)) = (self_time, &mut doc) {
        let rows: Vec<Value> = totals
            .iter()
            .map(|(name, t)| {
                json!({
                    "span": *name,
                    "count": t.count,
                    "total_us": t.total_us,
                    "self_us": t.self_us,
                })
            })
            .collect();
        map.insert("self_time", Value::Array(rows));
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(
        path,
        serde_json::to_string_pretty(&doc).expect("a value tree serializes") + "\n",
    )
}

/// `VmHWM` of this process, MB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

//! `duet-benchmark`: the repo's wall-clock benchmark. See `README.md`.
//!
//! ```text
//! duet-benchmark [run] --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! duet-benchmark run [--seed N] [--seconds S] [--quick]               all four, untraced then traced
//! duet-benchmark aa [--sets 2] [--runs 5] [--seconds S]               A/A calibration
//! ```
//!
//! One run is one process: `setup_s` and `peak_rss_mb` are properties
//! of a process, so `run` without `--workload` and `aa` start one child
//! per run and wait for it.

mod aa;
mod layers;
mod names;
mod oracle;
mod pin;
mod report;
mod schedule;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::trace::Tracer;
use crate::workloads::infer_heavy::InferHeavy;
use crate::workloads::plan_offline::PlanOffline;
use crate::workloads::serve_open::ServeOpen;
use crate::workloads::serve_sat::ServeSat;
use crate::workloads::{Workload, SPECS};

/// Untimed run of the same loop before the measured window.
const WARMUP_S: f64 = 3.0;
/// Set-ups per run; `setup_s` is their lower quartile (like the other
/// gated times, an order statistic below the middle: see
/// `report::LATENCY_PCT`). The first one — the one the windows then
/// use — also pays for page faults and lazy statics; the rest run after
/// the measured window. Cheap set-ups repeat for up to
/// [`SETUP_REPEAT_FOR`], at most [`MAX_SETUPS`] times.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 21;
const SETUP_REPEAT_FOR: Duration = Duration::from_secs(1);
const SETUP_PCT: f64 = 25.0;
/// `--quick`: short windows for smoke tests. Not comparable with
/// anything.
const QUICK_SECONDS: f64 = 2.0;
const QUICK_WARMUP_S: f64 = 0.5;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
    pub sets: usize,
    pub runs: usize,
    pub spec: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: duet-benchmark [run|aa] [--workload {}] [--seed N] [--seconds S] [--trace 0|1] \
         [--quick] [--out DIR] [--sets N] [--runs N] [--spec BENCHMARK.json]",
        SPECS.map(|s| s.name).join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<(String, Options)> {
    let mut command = "run".to_string();
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: 24.0,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
        sets: 2,
        runs: 5,
        spec: PathBuf::from("BENCHMARK.json"),
    };
    let mut seconds_given = false;
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            command = it.next()?.clone();
        }
    }
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            o.quick = true;
            continue;
        }
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = value.parse().ok()?,
            "--seconds" => {
                o.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?;
                seconds_given = true;
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--out" => o.out = PathBuf::from(value),
            "--sets" => o.sets = value.parse().ok().filter(|n| *n >= 2)?,
            "--runs" => o.runs = value.parse().ok().filter(|n| *n >= 2)?,
            "--spec" => o.spec = PathBuf::from(value),
            _ => return None,
        }
    }
    if o.quick && !seconds_given {
        o.seconds = QUICK_SECONDS;
    }
    Some((command, o))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, options)) = parse(&args) else {
        return usage();
    };
    match (command.as_str(), options.workload.as_deref()) {
        ("run", Some("infer_heavy")) => run_one::<InferHeavy>(&options),
        ("run", Some("serve_open")) => run_one::<ServeOpen>(&options),
        ("run", Some("serve_sat")) => run_one::<ServeSat>(&options),
        ("run", Some("plan_offline")) => run_one::<PlanOffline>(&options),
        ("run", None) => aa::run_all(&options),
        ("aa", None) => aa::run_aa(&options),
        _ => usage(),
    }
}

fn run_one<W: Workload>(o: &Options) -> ExitCode {
    let spec = W::SPEC;
    println!(
        "duet-benchmark {} seed {} seconds {} trace {}{}",
        spec.name,
        o.seed,
        o.seconds,
        u8::from(o.trace),
        if o.quick {
            "  [QUICK: not comparable]"
        } else {
            ""
        }
    );
    // Before any other thread exists: server workers, the executor's
    // device threads and the kernel pool all inherit the pin.
    let pin = W::ONE_CPU.then(pin::Pinned::to_one_cpu);
    if matches!(pin, Some(None)) {
        eprintln!(
            "{}: cannot pin to one CPU here; running unpinned (noisier)",
            spec.name
        );
    }
    let correct = if o.trace {
        traced::<W>(o)
    } else {
        untraced::<W>(o)
    };
    match correct {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("duet-benchmark: cannot write results: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Time one set-up.
fn timed_set_up<W: Workload>() -> (W, f64) {
    let t = Instant::now();
    let workload = W::set_up();
    (workload, t.elapsed().as_secs_f64())
}

/// The set-ups after the first, each dropped before the next begins (a
/// server joins its worker there). Appends their times to `times`.
fn repeat_set_up<W: Workload>(times: &mut Vec<f64>) {
    let began = Instant::now();
    while times.len() < MIN_SETUPS
        || (began.elapsed() < SETUP_REPEAT_FOR && times.len() < MAX_SETUPS)
    {
        let (workload, seconds) = timed_set_up::<W>();
        times.push(seconds);
        drop(workload);
    }
}

/// The end-to-end run: tracing off, whole-window percentiles.
fn untraced<W: Workload>(o: &Options) -> std::io::Result<bool> {
    let spec = W::SPEC;
    let off = Tracer::new(false);
    let (mut workload, first_set_up_s) = timed_set_up::<W>();
    workload.prepare(o.seed);
    workload.window(if o.quick { QUICK_WARMUP_S } else { WARMUP_S }, &off);
    let window = workload.window(o.seconds, &off);
    drop(workload);
    // The peak of one set-up and its windows. Read before the repeat
    // set-ups: how the allocator reuses memory across those made the
    // peak bimodal (serve_open: 233 or 285 MB).
    let peak_rss_mb = report::peak_rss_mb();
    let mut setup_runs_s = vec![first_set_up_s];
    if !o.quick {
        repeat_set_up::<W>(&mut setup_runs_s);
    }

    let warning = report::window_warning(spec, &window).filter(|_| !o.quick);
    let latencies = report::latencies(&window);
    let readings = report::end_to_end(
        spec,
        &window,
        &latencies,
        stats::percentile(&stats::sorted(&setup_runs_s), SETUP_PCT),
        peak_rss_mb,
    );
    let metrics = report::in_contract_order(names::END_TO_END, &readings);
    report::print_counts(&window.counts);
    let beyond = latencies.len() as f64 * (1.0 - spec.tail_pct / 100.0);
    println!(
        "  samples {}; latency limit {} ms; {} set-ups",
        latencies.len(),
        spec.slo_ms,
        setup_runs_s.len()
    );
    report::print_metrics(&metrics);
    // Reported, not gated: see README, "Estimators".
    println!(
        "  latency_p50_ms {:.4} ms; latency_tail_ms (p{}, {:.0} samples beyond) {:.4} ms; \
         mean rate {:.4} 1/s",
        stats::percentile(&latencies, 50.0),
        spec.tail_pct,
        beyond.floor(),
        stats::percentile(&latencies, spec.tail_pct),
        report::mean_rate_per_s(&window)
    );
    if spec.open_loop {
        let late = stats::sorted(&window.gen_late_ms);
        println!(
            "  generator lateness p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            stats::percentile(&late, 50.0),
            stats::percentile(&late, 99.0),
            stats::percentile(&late, 100.0)
        );
    }
    if let Some(why) = &warning {
        println!("  WARNING: {why}");
    }
    report::write_run_file(
        &o.out.join(format!("{}.json", spec.name)),
        spec,
        o.seed,
        o.seconds,
        o.quick,
        warning.as_deref(),
        &window,
        &latencies,
        &metrics,
        &setup_runs_s,
        None,
    )?;
    let correct = window.counts.failed() == 0;
    println!("{}", report::result_line(correct, &window.counts, &metrics));
    Ok(correct)
}

/// The traced run: an untraced reference window, the same loop with
/// spans on, then the direct layer probes. Never a source of end-to-end
/// numbers.
fn traced<W: Workload>(o: &Options) -> std::io::Result<bool> {
    let spec = W::SPEC;
    let off = Tracer::new(false);
    let tracer = Tracer::new(true);
    let mut workload = W::set_up();
    workload.prepare(o.seed);
    workload.window(
        if o.quick {
            QUICK_WARMUP_S
        } else {
            WARMUP_S / 3.0
        },
        &off,
    );
    let reference = workload.window(o.seconds / 4.0, &off);
    let window = workload.window(o.seconds / 2.0, &tracer);
    // Stop the workload's threads before the probes time anything.
    drop(workload);

    let (serve_model, serve_batch) = match (W::serve_model(), &window.serve) {
        (Some(model), Some(s)) if s.batches > 0.0 => {
            // The engine variant most batches ran on: batch sizes are
            // powers of two.
            let mean = s.responses as f64 / s.batches;
            (model, 1usize << (mean.max(1.0).log2().round() as u32))
        }
        _ => (
            workloads::serve_sat::model as fn() -> _,
            workloads::serve_sat::OUTSTANDING,
        ),
    };
    let budget = Duration::from_millis(if o.quick { 10 } else { 100 });
    let probes = layers::run_all(&tracer, budget, serve_model, serve_batch);

    let spans = tracer.into_spans();
    let readings = report::per_layer(spec, &reference, &window, &spans, probes);
    let metrics = report::in_contract_order(names::PER_LAYER, &readings);
    let totals = trace::totals_by_name(&spans);
    report::print_counts(&window.counts);
    report::print_metrics(&metrics);
    println!("{}", trace::render_table(&totals));
    std::fs::create_dir_all(&o.out)?;
    trace::write_chrome_trace(
        &o.out.join(format!("{}.trace.json", spec.name)),
        spec.name,
        &spans,
        &totals,
    )?;
    report::write_run_file(
        &o.out.join(format!("{}.layers.json", spec.name)),
        spec,
        o.seed,
        o.seconds / 2.0,
        o.quick,
        None,
        &window,
        &report::latencies(&window),
        &metrics,
        &[],
        Some(&totals),
    )?;
    let correct = window.counts.failed() == 0 && reference.counts.failed() == 0;
    println!("{}", report::result_line(correct, &window.counts, &metrics));
    Ok(correct)
}

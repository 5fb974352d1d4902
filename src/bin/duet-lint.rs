//! `duet-lint` — static analysis front end.
//!
//! Runs the `duet-analysis` analyzers over a model (or all of them) and
//! exits non-zero when any reports an error:
//!
//! ```text
//! duet-lint wide_and_deep             # verify + pass-check + schedule lint
//! duet-lint all                       # every zoo model
//! duet-lint mtdnn --plan plan.json    # lint a serialized plan instead
//! duet-lint siamese --json            # machine-readable report
//! duet-lint resnet50 --fast           # skip the engine build / plan lint
//! duet-lint trace siamese             # run + record + conformance-check
//! duet-lint trace mtdnn --out t.json  # dump annotated Chrome trace
//! duet-lint trace --dump <dir>        # conformance-check a flight dump
//! duet-lint model-check all           # prove D5xx for every zoo plan
//! duet-lint model-check mtdnn --out cex.json  # counterexample trace
//! duet-lint dataflow all              # D6xx abstract interpretation
//! duet-lint dataflow resnet50 --json  # machine-readable hazards
//! ```
//!
//! Per model: the raw graph is verified (`D0xx`), the optimization
//! pipeline runs with pass-invariant checking forced on (`D1xx`), the
//! optimized graph is re-verified, the scheduling decision — a
//! `--plan` file, or the engine's own freshly exported plan — is linted
//! (`D2xx`), and every placed subgraph's memory-planned instruction
//! tape is verified (`D4xx`: coverage, dependency order, live-range
//! slot overlap, in-place aliasing, shapes, peak accounting).
//!
//! The `trace` subcommand is the dynamic counterpart: it builds the
//! engine, executes one inference on the threaded executor *and* one in
//! the noise-free simulator, records an execution witness from each,
//! runs the `D3xx` conformance checker on both, and cross-checks the
//! two witnesses against each other (`check_agreement`): the executor
//! runs the schedule the replay priced and reads its clock from it, so
//! the latencies must be the same `f64` and every device's dispatch
//! order the same (`D310`, `D311`, both errors). `--out <file>`
//! additionally dumps the executor witness as an annotated Chrome trace
//! (load in `chrome://tracing` / Perfetto). With `--dump <dir>` it
//! instead replays a `duet-serve` flight-recorder dump post mortem: the
//! engine is rebuilt from the dumped plan and system model, the dumped
//! witness goes through `check_witness`, and a fresh noise-free
//! simulation cross-checks it (`check_agreement`, exact: the dumped JSON
//! keeps every `f64` bit) — proving the anomalous serving run still
//! obeyed every runtime invariant.
//!
//! The `model-check` subcommand proves the `D5xx` interleaving
//! properties of a plan *before* it runs: deadlock-freedom,
//! schedule-determinism, transfer/aliasing race freedom, device
//! occupancy and bounded trigger staleness, by exhaustive exploration
//! of the plan's reachable states. With the engine's own plan the model
//! is priced from the compiled subgraphs (enabling the `D503` occupancy
//! bound); with `--plan <file>` the supplied plan is checked unpriced.
//! `--out <file>` dumps the first violation's counterexample as a
//! Chrome trace; `--max-states <n>` bounds the exploration.
//!
//! The `dataflow` subcommand runs the `D6xx` abstract interpreter over
//! the raw model graph: value intervals, NaN/Inf reachability and
//! alias/escape facts in one forward pass, reporting proven hazards
//! (certain division by zero, reachable NaN with its producing path,
//! certain overflow to infinity, dead-by-constant results, unsound
//! attributes). Per model it prints node count, finding counts and the
//! analyzer's wall time; the summary line carries the worst per-model
//! time so CI can hold the analyzer to its latency budget.
//!
//! ## Exit codes (stable, same for every subcommand)
//!
//! * `0` — all reports clean (warnings allowed unless `--deny-warnings`)
//! * `1` — at least one error diagnostic, or any warning under
//!   `--deny-warnings`
//! * `2` — usage or I/O failure (bad flags, unknown model, unreadable
//!   or unwritable file)

use duet_analysis::{
    check_agreement, check_memory_plans, check_optimize, check_witness, lint_plan, verify_graph,
    LintConfig, ModelCheckConfig, Report, WitnessCheckConfig,
};
use duet_compiler::CompileOptions;
use duet_core::{Duet, SchedulePlan};
use duet_models::{input_feeds, zoo_model, zoo_names};
use duet_runtime::{chrome_trace, simulate_witnessed, SimNoise, WitnessLog, WitnessSource};

fn usage() -> ! {
    eprintln!(
        "usage:\n  duet-lint <model>|all [--plan <file>] [--fast] [--json] [--deny-warnings]\n  \
         duet-lint trace <model>|all [--seed <n>] [--out <file>] [--json] [--deny-warnings]\n  \
         duet-lint trace --dump <dir> [--out <file>] [--json] [--deny-warnings]\n  \
         duet-lint model-check <model>|all [--plan <file>] [--max-states <n>] [--out <file>]\n                                    \
         [--json] [--deny-warnings]\n  \
         duet-lint dataflow <model>|all [--json] [--deny-warnings]\n\n\
         models: {}\n\noptions:\n  --plan <file>    lint/check a serialized schedule plan against the model\n  \
         --fast           skip the engine build (no schedule lint)\n  \
         --seed <n>       input-feed seed for trace runs (default 7)\n  \
         --out <file>     trace: dump the executor witness as a Chrome trace\n                   \
         model-check: dump the counterexample as a Chrome trace\n  \
         --dump <dir>     trace: replay a duet-serve flight dump instead of a live run\n  \
         --max-states <n> model-check: exploration budget (default 262144)\n  \
         --json           machine-readable output\n  \
         --deny-warnings  exit non-zero on warnings too\n\nexit codes:\n  \
         0  clean (warnings allowed unless --deny-warnings)\n  \
         1  errors found, or warnings under --deny-warnings\n  \
         2  usage or I/O failure",
        zoo_names().join(", ")
    );
    std::process::exit(2);
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Lint,
    Trace,
    ModelCheck,
    Dataflow,
}

struct Options {
    plan_path: Option<String>,
    fast: bool,
    json: bool,
    deny_warnings: bool,
    seed: u64,
    out: Option<String>,
    dump: Option<String>,
    max_states: usize,
}

/// Read + parse a plan file, exiting 2 on failure (I/O, not a finding).
fn load_plan(path: &str) -> SchedulePlan {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    SchedulePlan::from_json(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

fn write_file(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
}

fn known_model(name: &str) -> duet_ir::Graph {
    zoo_model(name).unwrap_or_else(|| {
        eprintln!("unknown model {name}");
        usage()
    })
}

fn lint_model(name: &str, opts: &Options) -> Vec<Report> {
    let graph = known_model(name);
    let mut reports = vec![verify_graph(&graph)];

    let (optimized, pass_report) = check_optimize(&graph, CompileOptions::checked());
    reports.push(pass_report);
    let Some((optimized, _stats)) = optimized else {
        return reports; // pipeline broke; nothing downstream to lint
    };
    let mut post = verify_graph(&optimized);
    post.subject = format!("{}:optimized", graph.name);
    reports.push(post);

    if let Some(path) = &opts.plan_path {
        let plan = load_plan(path);
        reports.push(lint_plan(
            &optimized,
            &plan.to_facts(),
            &LintConfig::default(),
        ));
    } else if !opts.fast {
        // No plan supplied: build the engine and lint its own decision.
        match Duet::builder().build(&graph) {
            Ok(engine) => {
                let plan = engine.export_plan();
                reports.push(lint_plan(
                    engine.graph(),
                    &plan.to_facts(),
                    &LintConfig::default(),
                ));
                // D4xx: verify every placed subgraph's memory plan.
                reports.push(check_memory_plans(
                    engine.graph(),
                    engine.placed().iter().map(|p| &p.sg),
                ));
            }
            Err(e) => {
                let mut r = Report::new(format!("{name}:plan"));
                r.push(duet_analysis::Diagnostic::error(
                    duet_analysis::codes::PASS_FAILED,
                    format!("engine build failed: {e}"),
                ));
                reports.push(r);
            }
        }
    }
    reports
}

/// The `trace` subcommand body: run `name` once on the threaded
/// executor and once in the noise-free simulator, conformance-check
/// both witnesses (`D30x`) and cross-check them (`D31x`).
fn trace_model(name: &str, opts: &Options) -> Vec<Report> {
    let graph = known_model(name);
    let engine = match Duet::builder().build(&graph) {
        Ok(e) => e,
        Err(e) => {
            let mut r = Report::new(format!("{name}:trace"));
            r.push(duet_analysis::Diagnostic::error(
                duet_analysis::codes::PASS_FAILED,
                format!("engine build failed: {e}"),
            ));
            return vec![r];
        }
    };
    let cfg = WitnessCheckConfig::default();
    let feeds = input_feeds(engine.graph(), opts.seed);
    let log = WitnessLog::default();
    let latency_us = match engine.run_observed(&feeds, &log) {
        Ok(outcome) => outcome.virtual_latency_us,
        Err(e) => {
            let mut r = Report::new(format!("{name}:trace"));
            r.push(duet_analysis::Diagnostic::error(
                duet_analysis::codes::WITNESS_MISSING_EXECUTION,
                format!("threaded execution failed: {e}"),
            ));
            return vec![r];
        }
    };
    let exec_witness = log.seal(&engine.graph().name, WitnessSource::Executor, latency_us);
    // Conformance checking assumes noise-free virtual clocks.
    let (_, sim_witness) = simulate_witnessed(
        engine.graph(),
        engine.placed(),
        engine.system(),
        &mut SimNoise::disabled(),
    );
    let reports = vec![
        check_witness(
            engine.graph(),
            engine.placed(),
            engine.system(),
            &exec_witness,
            &cfg,
        ),
        check_witness(
            engine.graph(),
            engine.placed(),
            engine.system(),
            &sim_witness,
            &cfg,
        ),
        check_agreement(&exec_witness, &sim_witness),
    ];
    if let Some(path) = &opts.out {
        write_file(path, &chrome_trace(name, &exec_witness, &[]));
    }
    reports
}

/// The `trace --dump` body: post-mortem conformance for a serving
/// anomaly. Loads a `duet-serve` flight dump, rebuilds the engine from
/// the dumped plan + system model, runs the dumped witness through
/// `check_witness`, and cross-checks it against a fresh noise-free
/// simulation of the same placement (`check_agreement`).
fn trace_flight_dump(opts: &Options) -> Vec<Report> {
    let dir = opts.dump.as_deref().expect("dump mode implies --dump");
    let fail = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let dump = duet_serve::FlightDump::load(std::path::Path::new(dir))
        .unwrap_or_else(|e| fail(format!("cannot load flight dump: {e}")));
    let model = dump
        .model()
        .unwrap_or_else(|| fail(format!("{dir}: manifest has no model name")))
        .to_string();
    let Some(witness) = &dump.witness else {
        fail(format!(
            "{dir}: no witness.json in the dump (the anomaly payload's replay run failed); \
             nothing to conformance-check"
        ));
    };
    let plan = SchedulePlan::from_json(&dump.plan_json)
        .unwrap_or_else(|e| fail(format!("{dir}/plan.json: {e}")));
    let system: duet_device::SystemModel = serde_json::from_str(&dump.system_json)
        .unwrap_or_else(|e| fail(format!("{dir}/system.json: {e}")));
    let spec = duet_serve::ModelSpec::serving_zoo(&model).unwrap_or_else(|| {
        fail(format!(
            "{dir}: dumped model {model:?} is not in the serving zoo"
        ))
    });
    let graph = spec.graph_at(plan.batch);
    let engine = match Duet::builder()
        .system(system)
        .build_with_plan(&graph, &plan)
    {
        Ok(e) => e,
        Err(e) => {
            let mut r = Report::new(format!("{model}:flight-dump"));
            r.push(duet_analysis::Diagnostic::error(
                duet_analysis::codes::PASS_FAILED,
                format!("engine rebuild from dumped plan failed: {e}"),
            ));
            return vec![r];
        }
    };
    let cfg = WitnessCheckConfig::default();
    let (_, sim_witness) = simulate_witnessed(
        engine.graph(),
        engine.placed(),
        engine.system(),
        &mut SimNoise::disabled(),
    );
    let reports = vec![
        check_witness(
            engine.graph(),
            engine.placed(),
            engine.system(),
            witness,
            &cfg,
        ),
        check_agreement(witness, &sim_witness),
    ];
    if let Some(path) = &opts.out {
        write_file(path, &chrome_trace(&model, witness, &[]));
    }
    reports
}

/// The `model-check` subcommand body: prove the `D5xx` interleaving
/// properties of one plan. Returns the report plus the (states, wall
/// microseconds) the summary and the CI gate aggregate.
fn model_check_model(name: &str, opts: &Options) -> (Vec<Report>, usize, f64) {
    let graph = known_model(name);
    let cfg = ModelCheckConfig {
        max_states: opts.max_states,
        ..Default::default()
    };
    let outcome = if let Some(path) = &opts.plan_path {
        // A supplied plan: check it against the optimized graph,
        // unpriced (no engine build, so no D503 occupancy bound).
        let plan = load_plan(path);
        let (optimized, pass_report) = check_optimize(&graph, CompileOptions::checked());
        let Some((optimized, _)) = optimized else {
            return (vec![pass_report], 0, 0.0);
        };
        duet_analysis::check_plan(&optimized, &plan.to_facts(), &cfg)
    } else {
        match Duet::builder().build(&graph) {
            Ok(engine) => engine.check_plan(&cfg),
            Err(e) => {
                let mut r = Report::new(format!("{name}:model-check"));
                r.push(duet_analysis::Diagnostic::error(
                    duet_analysis::codes::PASS_FAILED,
                    format!("engine build failed: {e}"),
                ));
                return (vec![r], 0, 0.0);
            }
        }
    };
    if let Some(path) = &opts.out {
        match &outcome.counterexample {
            Some(witness) => write_file(path, &chrome_trace(name, witness, &[])),
            None => eprintln!("{name}: clean — no counterexample to write"),
        }
    }
    if !opts.json {
        let s = &outcome.stats;
        println!(
            "{name}: {} state(s), {} transition(s), {} pruned, {:.2} ms{}",
            s.states,
            s.transitions,
            s.pruned,
            s.wall_us / 1e3,
            if s.truncated { " (truncated)" } else { "" },
        );
    }
    (
        vec![outcome.report],
        outcome.stats.states,
        outcome.stats.wall_us,
    )
}

/// The `dataflow` subcommand body: abstract-interpret one model's raw
/// graph (`D6xx`). Returns the report plus the analyzer's wall
/// microseconds, which the summary aggregates into a worst-model time
/// for the CI latency budget.
fn dataflow_model(name: &str, opts: &Options) -> (Vec<Report>, f64) {
    let graph = known_model(name);
    let t0 = std::time::Instant::now();
    let report = duet_analysis::check_dataflow(&graph);
    let wall_us = t0.elapsed().as_secs_f64() * 1e6;
    if !opts.json {
        println!(
            "{name}: {} node(s), {} error(s), {} warning(s), {:.2} ms",
            graph.len(),
            report.error_count(),
            report.warning_count(),
            wall_us / 1e3,
        );
    }
    (vec![report], wall_us)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut names: Vec<String> = Vec::new();
    let mut mode = Mode::Lint;
    let mut opts = Options {
        plan_path: None,
        fast: false,
        json: false,
        deny_warnings: false,
        seed: 7,
        out: None,
        dump: None,
        max_states: ModelCheckConfig::default().max_states,
    };
    let mut it = args.into_iter().peekable();
    match it.peek().map(String::as_str) {
        Some("trace") => {
            mode = Mode::Trace;
            it.next();
        }
        Some("model-check") => {
            mode = Mode::ModelCheck;
            it.next();
        }
        Some("dataflow") => {
            mode = Mode::Dataflow;
            it.next();
        }
        _ => {}
    }
    let mut max_states_set = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--plan" => match it.next() {
                Some(p) => opts.plan_path = Some(p),
                None => usage(),
            },
            "--fast" => opts.fast = true,
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => opts.seed = s,
                None => usage(),
            },
            "--out" => match it.next() {
                Some(p) => opts.out = Some(p),
                None => usage(),
            },
            "--dump" => match it.next() {
                Some(p) => opts.dump = Some(p),
                None => usage(),
            },
            "--max-states" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => {
                    opts.max_states = n;
                    max_states_set = true;
                }
                None => usage(),
            },
            "--help" | "-h" => usage(),
            flag if flag.starts_with('-') => usage(),
            model => names.push(model.to_string()),
        }
    }
    // Per-mode flag validity.
    let flag_ok = match mode {
        Mode::Lint => {
            opts.out.is_none() && opts.seed == 7 && !max_states_set && opts.dump.is_none()
        }
        Mode::Trace => opts.plan_path.is_none() && !opts.fast && !max_states_set,
        Mode::ModelCheck => !opts.fast && opts.seed == 7 && opts.dump.is_none(),
        Mode::Dataflow => {
            opts.plan_path.is_none()
                && !opts.fast
                && opts.out.is_none()
                && opts.seed == 7
                && !max_states_set
                && opts.dump.is_none()
        }
    };
    // `trace --dump <dir>` names no model: the dump's manifest does.
    let dump_mode = mode == Mode::Trace && opts.dump.is_some();
    if dump_mode && (!names.is_empty() || opts.seed != 7) {
        eprintln!("--dump replays the dumped request; it takes no model or --seed");
        usage();
    }
    if (names.is_empty() && !dump_mode) || !flag_ok {
        usage();
    }
    if dump_mode {
        names.push("flight-dump".to_string());
    }
    if names.iter().any(|n| n == "all") {
        if opts.plan_path.is_some() {
            eprintln!("--plan needs a single model");
            usage();
        }
        if opts.out.is_some() {
            eprintln!("--out needs a single model");
            usage();
        }
        names = zoo_names().iter().map(|s| s.to_string()).collect();
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut total_states = 0usize;
    let mut total_wall_us = 0.0f64;
    let mut max_wall_us = 0.0f64;
    let mut json_reports = Vec::new();
    for name in &names {
        let reports = match mode {
            Mode::Trace if dump_mode => trace_flight_dump(&opts),
            Mode::Trace => trace_model(name, &opts),
            Mode::Lint => lint_model(name, &opts),
            Mode::ModelCheck => {
                let (reports, states, wall_us) = model_check_model(name, &opts);
                total_states += states;
                total_wall_us += wall_us;
                reports
            }
            Mode::Dataflow => {
                let (reports, wall_us) = dataflow_model(name, &opts);
                total_wall_us += wall_us;
                max_wall_us = max_wall_us.max(wall_us);
                reports
            }
        };
        for report in reports {
            errors += report.error_count();
            warnings += report.warning_count();
            if opts.json {
                json_reports.push(report.to_json());
            } else if report.is_clean() {
                println!("{}: clean", report.subject);
            } else {
                print!("{report}");
            }
        }
    }
    if opts.json {
        let rendered = serde_json::to_string_pretty(&serde_json::Value::Array(json_reports))
            .expect("report serializes");
        println!("{rendered}");
    } else if mode == Mode::ModelCheck {
        println!(
            "model-check: {} plan(s), {total_states} state(s), {:.2} ms total, \
             {errors} error(s), {warnings} warning(s)",
            names.len(),
            total_wall_us / 1e3,
        );
    } else if mode == Mode::Dataflow {
        println!(
            "dataflow: {} model(s), {:.2} ms total, worst {:.2} ms/model, \
             {errors} error(s), {warnings} warning(s)",
            names.len(),
            total_wall_us / 1e3,
            max_wall_us / 1e3,
        );
    } else {
        println!(
            "{} model(s): {errors} error(s), {warnings} warning(s)",
            names.len()
        );
    }
    if errors > 0 || (opts.deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
}

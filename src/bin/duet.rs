//! `duet` — the command-line front end: build, run, plan, tune and check
//! models.
//!
//! ```text
//! duet list                                   # available zoo models
//! duet report wide_and_deep                   # placement report (Table II row)
//! duet report siamese --plan plan.json        # replay a saved plan (no re-scheduling)
//! duet schedule mtdnn --policy round-robin    # compare a policy
//! duet run siamese                            # execute one real inference
//! duet measure wide_and_deep --runs 5000      # latency distribution
//! duet explain mtdnn                          # why each subgraph sits where it does
//! duet export-plan siamese plan.json          # save the offline decision
//! duet save siamese model.duet                # serialize a model
//! duet report-file model.duet                 # placement report of a saved model
//! duet tune all --drift --out tune.json       # autotune the zoo under drift
//! duet lint all                               # D0xx, D1xx, D2xx, D4xx over the zoo
//! duet lint mtdnn --plan plan.json            # the same checks on a replayed plan
//! duet trace siamese --out t.json [--full]    # run, D3xx-check, write the witness
//! duet trace --dump <dir>                     # D3xx-check a flight dump
//! duet model-check all                        # D5xx proof for every zoo plan
//! duet dataflow all --json                    # D6xx abstract interpretation
//! duet insight render <dump> out.json         # flight dump -> Perfetto timeline
//! duet insight attribution <dump>             # per-segment latency table
//! duet insight diff <dump-a> <dump-b>         # compare two flight dumps
//! ```
//!
//! Every verb builds its engine the same way: Algorithm 1 under
//! `--policy`, or — with `--plan <file>` — the saved plan replayed by
//! `build_with_plan`, which refuses a plan that fails the `D2xx` linter.
//!
//! The four check verbs print one report per stage and a summary line:
//!
//! * `lint` verifies the raw graph (`D0xx`), runs the optimization
//!   pipeline with pass-invariant checking forced on (`D1xx`), re-verifies
//!   the optimized graph, lints the engine's scheduling decision (`D2xx`)
//!   and verifies every placed subgraph's memory-planned instruction tape
//!   (`D4xx`). `--fast` stops before the engine build.
//! * `trace` runs one inference on the threaded executor under a
//!   `WitnessLog`, checks its witness and the noise-free replay's against
//!   the schedule (`D30x`) and against each other: the executor runs the
//!   schedule the replay priced, so the latencies must be the same `f64`
//!   and every device's dispatch order the same (`D310`, `D311`). `--out`
//!   writes the executor witness it checked as a Chrome trace; `--full`
//!   adds the telemetry spans of the whole pipeline (compile, profile,
//!   schedule, execute). `--dump <dir>` checks a `duet-serve` flight dump
//!   post mortem instead: the engine is rebuilt from the dumped plan and
//!   system model and the dumped witness is checked the same way (the
//!   dumped JSON keeps every `f64` bit).
//! * `model-check` proves the `D5xx` properties of the plan before it
//!   runs — deadlock freedom, determinism, transfer race freedom, device
//!   occupancy against the priced latency, bounded trigger staleness —
//!   over the happens-before closure of the order its executor runs
//!   (trigger edges plus each device lane's priced dispatch order).
//!   `--out` writes a dirty plan's counterexample run as a Chrome trace.
//! * `dataflow` abstract-interprets the raw graph (`D6xx`): value
//!   intervals, NaN/Inf reachability and alias/escape facts, reporting
//!   proven hazards. Its summary line carries the worst per-model time.
//!
//! ## Exit codes (every verb)
//!
//! * `0` — done, and every report clean (warnings allowed unless
//!   `--deny-warnings`)
//! * `1` — an error diagnostic (or a warning under `--deny-warnings`), a
//!   refused plan or engine build, or a failed tuning gate
//! * `2` — usage or I/O: an unknown verb, model or flag, a flag the verb
//!   does not take, a malformed value, an unreadable, unparsable or
//!   unwritable file, or a stdout its reader closed (`duet list | head
//!   -1`), which ends the run without a message

use std::fmt::Display;
use std::str::FromStr;

use duet_analysis::{
    check_agreement, check_memory_plans, check_optimize, check_witness, codes, lint_plan,
    verify_graph, Diagnostic, LintConfig, ModelCheckConfig, Report, WitnessCheckConfig,
};
use duet_compiler::CompileOptions;
use duet_core::{Duet, EngineError, SchedulePlan, SchedulePolicy};
use duet_device::DeviceKind;
use duet_ir::Graph;
use duet_models::{input_feeds, zoo_model, zoo_names};
use duet_runtime::{chrome_trace, simulate_witnessed, SimNoise, WitnessLog, WitnessSource};

/// Each verb with the most positional arguments it takes and the flags it
/// accepts; anything else is a usage error.
const VERBS: &[(&str, usize, &str)] = &[
    ("list", 0, ""),
    ("report", 1, "--policy --plan"),
    ("schedule", 1, "--policy --plan"),
    ("run", 1, ""),
    ("measure", 1, "--runs"),
    ("explain", 1, ""),
    ("export-plan", 2, ""),
    ("save", 2, ""),
    ("report-file", 1, ""),
    ("tune", 1, "--budget --drift --out --metrics-out"),
    ("lint", 1, "--plan --fast --json --deny-warnings"),
    (
        "trace",
        1,
        "--seed --out --full --dump --json --deny-warnings",
    ),
    ("model-check", 1, "--plan --out --json --deny-warnings"),
    ("dataflow", 1, "--json --deny-warnings"),
    ("insight", 3, ""),
];

fn usage_text() -> String {
    format!(
        "usage:\n  duet list\n  duet report <model> [--policy <p>] [--plan <file>]\n  \
         duet schedule <model> [--policy <p>] [--plan <file>]\n  duet run <model>\n  \
         duet measure <model> [--runs <n>]\n  duet explain <model>\n  \
         duet export-plan <model> <file>\n  duet save <model> <file>\n  \
         duet report-file <file>\n  \
         duet tune <model>|all [--budget <n>] [--drift] [--out <file>] [--metrics-out <file>]\n  \
         duet lint <model>|all [--plan <file>] [--fast] [--json] [--deny-warnings]\n  \
         duet trace <model>|all [--seed <n>] [--out <file>] [--full] [--json] \
         [--deny-warnings]\n  \
         duet trace --dump <dir> [--out <file>] [--json] [--deny-warnings]\n  \
         duet model-check <model>|all [--plan <file>] [--out <file>] [--json] \
         [--deny-warnings]\n  \
         duet dataflow <model>|all [--json] [--deny-warnings]\n  \
         duet insight render <dump-dir> <out.json>\n  \
         duet insight attribution <dump-dir>\n  \
         duet insight diff <dump-dir-a> <dump-dir-b>\n\n\
         models: {}\npolicies: greedy-correction | greedy | random | round-robin | \
         random-correction | ideal | flops-proxy | cpu | gpu\n\n\
         options:\n  \
         --policy <p>       scheduling policy (default greedy-correction)\n  \
         --plan <file>      replay a saved plan instead of scheduling\n  \
         --runs <n>         measure: simulated runs (default 5000)\n  \
         --budget <n>       tune: oracle evaluations\n  \
         --drift            tune: race the stale plan on a degraded GPU\n  \
         --out <file>       tune: JSON report; trace: executor witness as a Chrome \
         trace;\n                     model-check: counterexample as a Chrome trace\n  \
         --metrics-out <f>  tune: Prometheus exposition\n  \
         --fast             lint: skip the engine build (no D2xx, D4xx)\n  \
         --seed <n>         trace: input-feed seed (default 7)\n  \
         --full             trace: add the pipeline's telemetry spans to --out\n  \
         --dump <dir>       trace: check a duet-serve flight dump instead of a live run\n  \
         --json             machine-readable reports\n  \
         --deny-warnings    exit 1 on warnings too\n\n\
         exit codes: 0 clean, 1 errors found (or warnings under --deny-warnings), \
         2 usage or I/O\n\n\
         online serving lives in its own binary: \
         cargo run --release -p duet-serve --bin duet-serve -- --help",
        zoo_names().join(", ")
    )
}

/// Write `text` to stdout, where all of the binary's output goes. A closed
/// stdout is an I/O failure: exit 2, quietly when the reader closed the
/// pipe.
fn emit(text: impl Display) {
    use std::io::{ErrorKind, Write};
    if let Err(e) = write!(std::io::stdout(), "{text}") {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(2);
        }
        exit(2, format!("cannot write to stdout: {e}"));
    }
}

/// `println!` through [`emit`].
macro_rules! say {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Print `msg` and exit with `code`: 1 for a finding, 2 for usage or I/O.
fn exit(code: i32, msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(code);
}

fn usage(msg: impl Display) -> ! {
    exit(2, format!("error: {msg}\n\n{}", usage_text()))
}

/// Every option of every verb; [`VERBS`] says which verb takes which.
struct Opts {
    policy: SchedulePolicy,
    plan: Option<String>,
    runs: usize,
    tune: duet_tune::TuneConfig,
    drift: bool,
    out: Option<String>,
    metrics_out: Option<String>,
    fast: bool,
    seed: Option<u64>,
    full: bool,
    dump: Option<String>,
    json: bool,
    deny_warnings: bool,
}

fn value<T: FromStr>(rest: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let v = rest
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    v.parse().map_err(|e| format!("{flag} {v:?}: {e}"))
}

fn policy(name: &str) -> Result<SchedulePolicy, String> {
    Ok(match name {
        "greedy-correction" => SchedulePolicy::GreedyCorrection,
        "greedy" => SchedulePolicy::GreedyOnly,
        "random" => SchedulePolicy::Random { seed: 0 },
        "round-robin" => SchedulePolicy::RoundRobin,
        "random-correction" => SchedulePolicy::RandomCorrection { seed: 0 },
        "ideal" => SchedulePolicy::Ideal,
        "flops-proxy" => SchedulePolicy::FlopsProxy,
        "cpu" => SchedulePolicy::Pin(DeviceKind::Cpu),
        "gpu" => SchedulePolicy::Pin(DeviceKind::Gpu),
        other => return Err(format!("unknown policy {other}")),
    })
}

/// Split the command line into its verb, positional arguments and options.
fn parse_args() -> Result<(String, Vec<String>, Opts), String> {
    let mut it = std::env::args().skip(1);
    let verb = it.next().ok_or("no verb given")?;
    let &(_, max_args, flags) = VERBS
        .iter()
        .find(|v| v.0 == verb)
        .ok_or_else(|| format!("unknown verb {verb}"))?;
    let mut o = Opts {
        policy: SchedulePolicy::GreedyCorrection,
        plan: None,
        runs: 5000,
        tune: duet_tune::TuneConfig::default(),
        drift: false,
        out: None,
        metrics_out: None,
        fast: false,
        seed: None,
        full: false,
        dump: None,
        json: false,
        deny_warnings: false,
    };
    let mut args = Vec::new();
    while let Some(flag) = it.next() {
        let it = &mut it;
        match flag.as_str() {
            "--policy" => o.policy = policy(&value::<String>(it, &flag)?)?,
            "--plan" => o.plan = Some(value(it, &flag)?),
            "--runs" => o.runs = value(it, &flag)?,
            "--budget" => o.tune.budget = value(it, &flag)?,
            "--drift" => o.drift = true,
            "--out" => o.out = Some(value(it, &flag)?),
            "--metrics-out" => o.metrics_out = Some(value(it, &flag)?),
            "--fast" => o.fast = true,
            "--seed" => o.seed = Some(value(it, &flag)?),
            "--full" => o.full = true,
            "--dump" => o.dump = Some(value(it, &flag)?),
            "--json" => o.json = true,
            "--deny-warnings" => o.deny_warnings = true,
            f if f.starts_with('-') => return Err(format!("unknown flag {f}")),
            _ => {
                args.push(flag);
                continue;
            }
        }
        if !flags.split(' ').any(|f| f == flag) {
            return Err(format!("{verb} does not take {flag}"));
        }
    }
    if args.len() > max_args {
        return Err(format!("{verb} takes at most {max_args} argument(s)"));
    }
    Ok((verb, args, o))
}

/// The `i`-th positional argument.
fn arg(args: &[String], i: usize) -> &str {
    args.get(i)
        .map(String::as_str)
        .unwrap_or_else(|| usage("missing argument"))
}

fn model(name: &str) -> Graph {
    zoo_model(name).unwrap_or_else(|| usage(format!("unknown model {name}")))
}

/// `all` is every zoo model.
fn model_names(arg: &str) -> Vec<&str> {
    if arg == "all" {
        zoo_names().to_vec()
    } else {
        vec![arg]
    }
}

fn write(path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        exit(2, format!("cannot write {path}: {e}"));
    }
}

fn pretty(doc: &serde_json::Value) -> String {
    serde_json::to_string_pretty(doc).unwrap_or_else(|e| exit(2, e))
}

fn read(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| exit(2, format!("cannot read {path}: {e}")))
}

fn load_plan(path: &str) -> SchedulePlan {
    SchedulePlan::from_json(&String::from_utf8_lossy(&read(path)))
        .unwrap_or_else(|e| exit(2, format!("cannot parse {path}: {e}")))
}

/// Build `graph`'s engine: Algorithm 1 under `--policy`, or the `--plan`
/// file replayed.
fn engine(graph: &Graph, o: &Opts) -> Result<Duet, Report> {
    let builder = Duet::builder().policy(o.policy);
    let built = match &o.plan {
        Some(path) => builder.build_with_plan(graph, &load_plan(path)),
        None => builder.build(graph),
    };
    built.map_err(|e| build_failure(&graph.name, e))
}

/// A failed engine build as a report. A refused plan keeps the analyzer's
/// own diagnostics.
fn build_failure(subject: &str, e: EngineError) -> Report {
    match e {
        EngineError::Lint(r) | EngineError::ModelCheck(r) | EngineError::Dataflow(r) => r,
        e => {
            let mut r = Report::new(format!("{subject}:build"));
            r.push(Diagnostic::error(
                codes::PASS_FAILED,
                format!("engine build failed: {e}"),
            ));
            r
        }
    }
}

/// [`engine`] for the verbs that only use it: a failed build exits 1.
fn built(graph: &Graph, o: &Opts) -> Duet {
    engine(graph, o).unwrap_or_else(|r| exit(1, r))
}

fn main() {
    let (verb, args, o) = parse_args().unwrap_or_else(|e| usage(e));
    match verb.as_str() {
        "list" => {
            for &m in zoo_names() {
                let g = model(m);
                say!(
                    "{m:<16} {:>4} operators  {:>8.1} MB params",
                    g.compute_ids().len(),
                    g.param_bytes() as f64 / 1e6
                );
            }
        }
        "report" | "schedule" => emit(built(&model(arg(&args, 0)), &o).placement_report()),
        "run" => {
            let engine = built(&model(arg(&args, 0)), &o);
            let feeds = input_feeds(engine.graph(), 0);
            let out = engine
                .run(&feeds)
                .unwrap_or_else(|e| exit(1, format!("inference failed: {e}")));
            say!(
                "virtual latency {:.3} ms (host wall {:?})",
                out.virtual_latency_us / 1e3,
                out.wall_time
            );
            for (&id, v) in &out.outputs {
                let d = v.data();
                let preview: Vec<String> = d.iter().take(4).map(|x| format!("{x:.4}")).collect();
                say!(
                    "  output {:<18} {} [{}{}]",
                    engine.graph().node(id).label,
                    v.shape(),
                    preview.join(", "),
                    if d.len() > 4 { ", …" } else { "" }
                );
            }
        }
        "export-plan" => {
            let (name, path) = (arg(&args, 0), arg(&args, 1));
            let engine = built(&model(name), &o);
            write(path, engine.export_plan().to_json());
            say!(
                "plan for {name} written to {path} (expected latency {:.3} ms)",
                engine.latency_us() / 1e3
            );
        }
        "save" => {
            let (name, path) = (arg(&args, 0), arg(&args, 1));
            let bytes = duet_ir::encode(&model(name));
            write(path, &bytes);
            say!(
                "{name} saved to {path} ({:.1} MB)",
                bytes.len() as f64 / 1e6
            );
        }
        "report-file" => {
            let path = arg(&args, 0);
            let graph = duet_ir::decode(&read(path))
                .unwrap_or_else(|e| exit(2, format!("cannot load {path}: {e}")));
            emit(built(&graph, &o).placement_report());
        }
        "explain" => emit(duet_core::explain(&built(&model(arg(&args, 0)), &o))),
        "measure" => {
            let name = arg(&args, 0);
            if o.runs == 0 {
                usage("--runs must be at least 1");
            }
            let s = built(&model(name), &o).measure(o.runs, 0xC11);
            say!(
                "{name}: mean {:.3} ms  p50 {:.3}  p99 {:.3}  p99.9 {:.3}  (n={})",
                s.mean() / 1e3,
                s.p50() / 1e3,
                s.p99() / 1e3,
                s.p999() / 1e3,
                s.count()
            );
        }
        "tune" => cmd_tune(arg(&args, 0), &o),
        "insight" => cmd_insight(&args),
        check => cmd_check(check, &args, &o),
    }
}

/// One check's reports, plus the walked states and the analyzer's wall
/// microseconds the summary line aggregates.
type Checked = (Vec<Report>, usize, f64);

/// `lint`, `trace`, `model-check` and `dataflow`: run the check over one
/// model (or the zoo), print the reports and a summary, and exit 1 on an
/// error, or a warning under `--deny-warnings`.
fn cmd_check(verb: &str, args: &[String], o: &Opts) {
    let names = if o.dump.is_some() {
        if !args.is_empty() || o.seed.is_some() {
            usage("--dump checks the dumped request; it takes no model or --seed");
        }
        vec!["flight-dump"]
    } else {
        model_names(arg(args, 0))
    };
    if names.len() > 1 && (o.plan.is_some() || o.out.is_some()) {
        usage("--plan and --out need a single model");
    }
    if o.fast && o.plan.is_some() {
        usage("--fast skips the engine build, so it reads no --plan");
    }
    if o.full && o.out.is_none() {
        usage("--full adds spans to the --out trace");
    }
    let check: fn(&str, &Opts) -> Checked = match verb {
        "lint" => lint,
        "trace" => trace,
        "model-check" => model_check,
        _ => dataflow,
    };
    let (mut errors, mut warnings, mut states) = (0, 0, 0);
    let (mut total_us, mut worst_us) = (0.0f64, 0.0f64);
    let mut json = Vec::new();
    for name in &names {
        let (reports, s, wall_us) = check(name, o);
        states += s;
        total_us += wall_us;
        worst_us = worst_us.max(wall_us);
        for report in reports {
            errors += report.error_count();
            warnings += report.warning_count();
            if o.json {
                json.push(report.to_json());
            } else if report.is_clean() {
                say!("{}: clean", report.subject);
            } else {
                emit(&report);
            }
        }
    }
    let n = names.len();
    if o.json {
        say!("{}", pretty(&serde_json::Value::Array(json)));
    } else if verb == "model-check" {
        say!(
            "model-check: {n} plan(s), {states} state(s), {:.2} ms total, \
             {errors} error(s), {warnings} warning(s)",
            total_us / 1e3,
        );
    } else if verb == "dataflow" {
        say!(
            "dataflow: {n} model(s), {:.2} ms total, worst {:.2} ms/model, \
             {errors} error(s), {warnings} warning(s)",
            total_us / 1e3,
            worst_us / 1e3,
        );
    } else {
        say!("{n} model(s): {errors} error(s), {warnings} warning(s)");
    }
    if errors > 0 || (o.deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
}

/// `lint`: D0xx on the raw and optimized graph, D1xx on the pipeline, and,
/// unless `--fast`, D2xx on the engine's plan and D4xx on its tapes.
fn lint(name: &str, o: &Opts) -> Checked {
    let graph = model(name);
    let mut reports = vec![verify_graph(&graph)];
    let (optimized, pass_report) = check_optimize(&graph, CompileOptions::checked());
    reports.push(pass_report);
    let Some((optimized, _stats)) = optimized else {
        return (reports, 0, 0.0); // pipeline broke; nothing downstream to lint
    };
    let mut post = verify_graph(&optimized);
    post.subject = format!("{}:optimized", graph.name);
    reports.push(post);
    if !o.fast {
        match engine(&graph, o) {
            Ok(engine) => {
                let facts = engine.export_plan().to_facts();
                reports.push(lint_plan(engine.graph(), &facts, &LintConfig::default()));
                reports.push(check_memory_plans(
                    engine.graph(),
                    engine.placed().iter().map(|p| &*p.sg),
                ));
            }
            Err(r) => reports.push(r),
        }
    }
    (reports, 0, 0.0)
}

/// `trace`: take one witness — the executor's on a live run, or a flight
/// dump's — D3xx-check it and the noise-free replay's, check the two agree
/// (D310, D311), and write the witness that was checked.
fn trace(name: &str, o: &Opts) -> Checked {
    let traced = match &o.dump {
        Some(dir) => dumped(dir),
        None => {
            if o.full {
                duet_telemetry::set_enabled(true);
                duet_telemetry::reset_spans();
            }
            engine(&model(name), o).and_then(|engine| {
                let log = WitnessLog::default();
                let feeds = input_feeds(engine.graph(), o.seed.unwrap_or(7));
                let outcome = engine.run_observed(&feeds, &log).map_err(|e| {
                    let mut r = Report::new(format!("{name}:trace"));
                    r.push(Diagnostic::error(
                        codes::WITNESS_MISSING_EXECUTION,
                        format!("threaded execution failed: {e}"),
                    ));
                    r
                })?;
                let latency_us = outcome.virtual_latency_us;
                let witness = log.seal(&engine.graph().name, WitnessSource::Executor, latency_us);
                Ok((name.to_string(), engine, witness))
            })
        }
    };
    let (model, engine, witness) = match traced {
        Ok(t) => t,
        Err(r) => return (vec![r], 0, 0.0),
    };
    let (graph, placed, system) = (engine.graph(), engine.placed(), engine.system());
    let (_, replay) = simulate_witnessed(graph, placed, system, &mut SimNoise::disabled());
    let cfg = WitnessCheckConfig::default();
    let reports = vec![
        check_witness(graph, placed, system, &witness, &cfg),
        check_witness(graph, placed, system, &replay, &cfg),
        check_agreement(&witness, &replay),
    ];
    if let Some(path) = &o.out {
        let spans = if o.full {
            duet_telemetry::spans()
        } else {
            Vec::new()
        };
        write(path, chrome_trace(&model, &witness, &spans));
    }
    (reports, 0, 0.0)
}

/// A `duet-serve` flight dump's model, its engine rebuilt from the dumped
/// plan and system model, and its witness. A dump that cannot be read is
/// an I/O failure.
fn dumped(dir: &str) -> Result<(String, Duet, duet_runtime::ExecutionWitness), Report> {
    let fail = |msg: String| -> ! { exit(2, msg) };
    let dump = duet_serve::FlightDump::load(std::path::Path::new(dir))
        .unwrap_or_else(|e| fail(format!("cannot load flight dump: {e}")));
    let model = dump
        .model()
        .unwrap_or_else(|| fail(format!("{dir}: manifest has no model name")))
        .to_string();
    let Some(witness) = dump.witness else {
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
    let engine = Duet::builder()
        .system(system)
        .build_with_plan(&spec.graph_at(plan.batch), &plan)
        .map_err(|e| build_failure(&model, e))?;
    Ok((model, engine, witness))
}

/// `model-check`: prove the D5xx properties of the engine's plan, priced
/// from its timeline.
fn model_check(name: &str, o: &Opts) -> Checked {
    let outcome = match engine(&model(name), o) {
        Ok(engine) => engine.check_plan(&ModelCheckConfig::default()),
        Err(r) => return (vec![r], 0, 0.0),
    };
    if let Some(path) = &o.out {
        match &outcome.counterexample {
            Some(witness) => write(path, chrome_trace(name, witness, &[])),
            None => eprintln!("{name}: clean — no counterexample to write"),
        }
    }
    let s = &outcome.stats;
    if !o.json {
        say!("{name}: {} state(s), {:.2} ms", s.states, s.wall_us / 1e3);
    }
    (vec![outcome.report], s.states, s.wall_us)
}

/// `dataflow`: abstract-interpret the raw graph (D6xx), timed for the
/// summary's worst-model figure.
fn dataflow(name: &str, o: &Opts) -> Checked {
    let graph = model(name);
    let t0 = std::time::Instant::now();
    let report = duet_analysis::check_dataflow(&graph);
    let wall_us = t0.elapsed().as_secs_f64() * 1e6;
    if !o.json {
        say!(
            "{name}: {} node(s), {} error(s), {} warning(s), {:.2} ms",
            graph.len(),
            report.error_count(),
            report.warning_count(),
            wall_us / 1e3,
        );
    }
    (vec![report], 0, wall_us)
}

/// `duet insight <render|attribution|diff>` — offline analysis of the
/// anomaly flight dumps `duet-serve --flight-dir` writes: merge a
/// dump's span trees into one Perfetto timeline, print its per-segment
/// tail-latency attribution, or compare two dumps side by side.
fn cmd_insight(args: &[String]) {
    use duet_serve::{AttributionSummary, FlightDump};

    let load = |dir: &str| -> FlightDump {
        FlightDump::load(std::path::Path::new(dir))
            .unwrap_or_else(|e| exit(2, format!("cannot load flight dump: {e}")))
    };
    let header = |dir: &str, d: &FlightDump| {
        say!(
            "dump {dir}: model {} | rule {} | trigger trace {} | {} traces",
            d.model().unwrap_or("?"),
            d.rule().unwrap_or("?"),
            d.trigger_trace_id(),
            d.traces.len()
        );
    };
    match arg(args, 0) {
        "render" => {
            let (dir, out) = (arg(args, 1), arg(args, 2));
            let dump = load(dir);
            let Some(witness) = &dump.witness else {
                exit(
                    2,
                    format!("dump {dir} carries no witness.json; cannot render the virtual lanes"),
                );
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
            write(out, chrome_trace(&model, witness, &spans));
            header(dir, &dump);
            say!(
                "merged timeline: {} spans across {} request trees written to {out} \
                 (open in ui.perfetto.dev)",
                spans.len(),
                dump.traces.len()
            );
        }
        "attribution" => {
            let dir = arg(args, 1);
            let dump = load(dir);
            header(dir, &dump);
            let samples: Vec<_> = dump.traces.iter().map(|t| t.attribution).collect();
            emit(AttributionSummary::from_samples(&samples).render_table());
            if let Some(w) = dump
                .traces
                .iter()
                .max_by(|a, b| a.sojourn_us.total_cmp(&b.sojourn_us))
            {
                say!(
                    "worst sojourn: trace {} at {:.1} us (batch {}, epoch {})",
                    w.trace_id,
                    w.sojourn_us,
                    w.batch,
                    w.epoch
                );
            }
        }
        "diff" => {
            let (dir_a, dir_b) = (arg(args, 1), arg(args, 2));
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
                say!(
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
            say!(
                "  {:<12} {:>12} {:>12} {:>12}",
                "segment",
                "mean_a_us",
                "mean_b_us",
                "delta_us"
            );
            for sa in &sum_a.segments {
                let mean_b = sum_b
                    .segments
                    .iter()
                    .find(|sb| sb.segment == sa.segment)
                    .map_or(0.0, |sb| sb.mean_us);
                say!(
                    "  {:<12} {:>12.1} {:>12.1} {:>+12.1}",
                    sa.segment,
                    sa.mean_us,
                    mean_b,
                    mean_b - sa.mean_us
                );
            }
        }
        other => usage(format!(
            "unknown insight verb {other} (render | attribution | diff)"
        )),
    }
}

/// `duet tune <model|all>` — search placements with the simulator
/// oracle, prove the winner (D2xx + D5xx) and report speedup vs
/// Algorithm 1 — or, with `--drift`, vs the stale plan under a degraded
/// deployment (the serving hot-swap scenario).
/// Exits 1 if any run comes back worse than Algorithm 1 or fails
/// promotion.
fn cmd_tune(arg: &str, o: &Opts) {
    let mut failed = false;
    let mut rows = Vec::new();
    for name in model_names(arg) {
        let engine = built(&model(name), o);
        let out = if o.drift {
            // The canonical drift scenario (duet-serve's smoke test):
            // the tuner races the stale plan.
            let deployed = duet_serve::loadgen::degraded_gpu(engine.system());
            duet_tune::tune_drifted(&engine, deployed, &o.tune)
        } else {
            duet_tune::tune(&engine, &o.tune)
        };
        say!("{out}\n");
        if !out.promoted || out.tuned_us > out.algorithm1_us {
            failed = true;
        }
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
    say!(
        "tuned {} model(s): {} strictly better than Algorithm 1, {} tie(s), {} worse",
        rows.len(),
        better,
        rows.len() - better - worse,
        worse
    );
    if let Some(path) = &o.out {
        write(
            path,
            pretty(&serde_json::json!({ "drift": o.drift, "runs": rows })),
        );
        say!("json report written to {path}");
    }
    if let Some(path) = &o.metrics_out {
        write(path, duet_telemetry::prometheus_text());
        say!("metrics exposition dumped to {path}");
    }
    if failed {
        exit(
            1,
            "FAIL: a run regressed vs Algorithm 1 or failed promotion",
        );
    }
}

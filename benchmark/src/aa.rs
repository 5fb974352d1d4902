//! The commands that run the benchmark as child processes: `run` for
//! all four workloads, and `aa`, which runs identical code in two
//! interleaved sets and checks that the sets agree — the calibration
//! every bound in `BENCHMARK.json` comes from.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use crate::stats::quartiles;
use crate::workloads::SPECS;
use crate::{names, Options};

/// Metric values of one child run, by name; `None` if the child failed.
fn run_child(
    o: &Options,
    workload: &str,
    seed: u64,
    trace: bool,
    echo: bool,
) -> Option<BTreeMap<String, f64>> {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&o.out);
    if o.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = cmd.stderr(Stdio::inherit()).output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    if !output.status.success() {
        eprintln!(
            "{workload} seed {seed} trace {}: exit {}",
            u8::from(trace),
            output.status
        );
        return None;
    }
    let result: Value = serde_json::from_str(stdout.lines().last()?).ok()?;
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        return None;
    };
    Some(
        metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    )
}

/// `run` without `--workload`: every workload untraced, then traced.
pub fn run_all(o: &Options) -> ExitCode {
    let mut all_ok = true;
    for spec in SPECS {
        for trace in [false, true] {
            all_ok &= run_child(o, spec.name, o.seed, trace, true).is_some();
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json`.
fn bounds(o: &Options) -> Option<BTreeMap<String, f64>> {
    let text = std::fs::read_to_string(&o.spec).ok()?;
    let doc: Value = serde_json::from_str(&text).ok()?;
    let Some(Value::Array(metrics)) = doc.get("end_to_end") else {
        return None;
    };
    metrics
        .iter()
        .map(|m| match (m.get("name")?, m.get("bound")?.as_f64()?) {
            (Value::String(name), bound) => Some((name.clone(), bound)),
            _ => None,
        })
        .collect()
}

/// `aa`: `sets` × `runs` end-to-end runs of every workload, sets
/// interleaved A B B A … so slow drift of the host lands on both, each
/// run with its own seed. Fails if the medians of any two sets differ
/// by more than half the metric's bound.
pub fn run_aa(o: &Options) -> ExitCode {
    let Some(bounds) = bounds(o) else {
        eprintln!(
            "aa: cannot read end_to_end bounds from {}",
            o.spec.display()
        );
        return ExitCode::from(2);
    };
    // values[workload][metric][set] = one value per run
    let mut values: BTreeMap<&str, BTreeMap<&str, Vec<Vec<f64>>>> = BTreeMap::new();
    let mut seed = o.seed;
    for round in 0..o.runs {
        let forward: Vec<usize> = (0..o.sets).collect();
        let order: Vec<usize> = if round % 2 == 0 {
            forward
        } else {
            forward.into_iter().rev().collect()
        };
        for set in order {
            for spec in SPECS {
                eprintln!("aa: round {round} set {set} {} seed {seed}", spec.name);
                let Some(metrics) = run_child(o, spec.name, seed, false, false) else {
                    return ExitCode::FAILURE;
                };
                let by_metric = values.entry(spec.name).or_default();
                for &(name, _) in names::END_TO_END {
                    by_metric
                        .entry(name)
                        .or_insert_with(|| vec![Vec::new(); o.sets])[set]
                        .push(metrics[name]);
                }
            }
            seed += 1;
        }
    }

    let mut all_agree = true;
    println!("| workload | metric | set | q1 | median | q3 | IQR/median | vs set 0 | bound |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for spec in SPECS {
        for &(name, _) in names::END_TO_END {
            let bound = bounds.get(name).copied().unwrap_or(0.0);
            let sets = &values[spec.name][name];
            let base = quartiles(&sets[0])[1];
            for (i, runs) in sets.iter().enumerate() {
                let [q1, q2, q3] = quartiles(runs);
                let apart = (q2 - base).abs() / base;
                let agrees = apart <= bound / 2.0;
                all_agree &= agrees;
                println!(
                    "| {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.2} % | {:.2} %{} | {:.0} % |",
                    spec.name,
                    name,
                    i,
                    q1,
                    q2,
                    q3,
                    (q3 - q1) / q2 * 100.0,
                    apart * 100.0,
                    if agrees { "" } else { " FAIL" },
                    bound * 100.0
                );
            }
            // All runs together: with ten of them, the spread the driver
            // computes.
            let [q1, q2, q3] = quartiles(&sets.concat());
            println!(
                "| {} | {} | all | {:.4} | {:.4} | {:.4} | {:.2} % | | {:.0} % |",
                spec.name,
                name,
                q1,
                q2,
                q3,
                (q3 - q1) / q2 * 100.0,
                bound * 100.0
            );
        }
    }
    if all_agree {
        println!("aa: every set median is within half its bound of set 0's");
        ExitCode::SUCCESS
    } else {
        println!("aa: FAILED — fix the estimator or the workload before widening a bound");
        ExitCode::FAILURE
    }
}

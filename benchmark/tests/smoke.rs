//! `--quick` smoke run of all four workloads, traced and untraced: each
//! must exit 0 with `correct`, and the metric names it prints must be
//! exactly the names `BENCHMARK.json` lists — in both directions.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn contract() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, key: &str) -> BTreeSet<String> {
    let Some(Value::Array(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|item| match item.get("name") {
            Some(Value::String(name)) => name.clone(),
            _ => panic!("a {key} entry has no name"),
        })
        .collect()
}

/// Run one quick window; return the metric names (and units) printed.
fn quick_run(workload: &str, trace: &str) -> BTreeSet<String> {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let output = Command::new(env!("CARGO_BIN_EXE_duet-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--trace",
            trace,
            "--quick",
        ])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace {trace} exited {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("not comparable"), "quick runs say so");
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    let Value::Object(fields) = &result else {
        panic!("the result is an object");
    };
    let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("metrics is an object");
    };
    for (name, m) in metrics.iter() {
        let value = m.get("value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name} is a number");
        assert!(
            matches!(m.get("unit"), Some(Value::String(_))),
            "{name} has a unit"
        );
    }
    metrics.keys().cloned().collect()
}

#[test]
fn quick_runs_print_exactly_the_contract_names() {
    let doc = contract();
    let end_to_end = names(&doc, "end_to_end");
    let per_layer = names(&doc, "per_layer");
    let workloads = names(&doc, "workloads");
    assert_eq!(
        workloads,
        ["infer_heavy", "plan_offline", "serve_open", "serve_sat"]
            .map(String::from)
            .into()
    );
    for workload in &workloads {
        assert_eq!(
            quick_run(workload, "0"),
            end_to_end,
            "{workload} end to end"
        );
        assert_eq!(quick_run(workload, "1"), per_layer, "{workload} per layer");
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_duet-benchmark"))
            .args(args)
            .output()
            .expect("the benchmark binary starts");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}

//! The `duet` binary's exit-code contract: 0 clean, 1 a finding (a
//! diagnostic, a refused plan, a failed gate), 2 usage or I/O — and never
//! a panic. Uses the cheapest models: `siamese` (13 operators) and
//! `squeezenet` (5 MB of weights).

use std::process::Command;

/// Run `duet` with `args`; return its exit code and stdout + stderr.
fn duet(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_duet"))
        .args(args)
        .output()
        .expect("duet starts");
    let text =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    assert!(
        !text.contains("panicked"),
        "duet {args:?} panicked:\n{text}"
    );
    (out.status.code().expect("duet exits, not killed"), text)
}

#[test]
fn usage_errors_exit_2_without_a_panic() {
    for args in [
        &["no-such-verb"][..],
        &["analyze", "mtdnn"],
        &["report", "no_such_model"],
        &["measure", "siamese", "--run", "10"],
        &["dataflow", "siamese", "--plan", "plan.json"],
        &["measure", "siamese", "--runs", "x"],
        &["measure", "siamese", "--runs", "0"],
        &["lint", "all", "--plan", "plan.json"],
        &["report", "siamese", "--plan", "no/such/plan.json"],
        &["model-check", "siamese", "--max-states", "5"],
    ] {
        let (code, text) = duet(args);
        assert_eq!(code, 2, "duet {args:?} exited {code}:\n{text}");
    }
}

#[test]
fn a_plan_for_another_model_is_refused_with_one_d206() {
    let path = std::env::temp_dir().join(format!("duet-cli-{}.json", std::process::id()));
    let plan = path.to_str().expect("utf-8 temp path");
    let (code, text) = duet(&["export-plan", "siamese", plan]);
    assert_eq!(code, 0, "export-plan failed:\n{text}");
    let (code, text) = duet(&["report", "squeezenet", "--plan", plan]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, 1, "a stale plan exited {code}:\n{text}");
    let errors: Vec<&str> = text.lines().filter(|l| l.contains("error[")).collect();
    assert_eq!(errors.len(), 1, "expected exactly one error:\n{text}");
    assert!(errors[0].starts_with("error[D206]"), "{text}");
}

#[test]
fn dataflow_of_a_clean_model_exits_0() {
    let (code, text) = duet(&["dataflow", "siamese"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("dataflow: 1 model(s)"), "{text}");
}

/// A reader that stops early closes the pipe under `duet`'s output
/// (`duet list | head -c 1`): the next write fails, and `duet` must end
/// with a contract code, not a panic.
#[test]
fn a_closed_stdout_ends_with_a_contract_code() {
    use std::io::Read;
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_duet"))
        .arg("list")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("duet starts");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut byte = [0u8; 1];
    stdout.read_exact(&mut byte).expect("duet list prints");
    drop(stdout);
    let out = child.wait_with_output().expect("duet exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "duet list panicked:\n{stderr}"
    );
    let code = out.status.code().expect("duet exits, not killed");
    assert!(
        (0..=2).contains(&code),
        "duet list exited {code}:\n{stderr}"
    );
}

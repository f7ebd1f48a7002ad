//! The benchmark's own checks, at smoke scale: every workload runs in a
//! few seconds and passes, and each kind of wrong program output fails
//! the run.
//!
//! Needs a release `fastofd` binary: `cargo build --release --bin fastofd`
//! at the repository root (or point `PERFBENCH_FASTOFD` at one).

use std::path::PathBuf;
use std::process::Command;

fn fastofd() -> PathBuf {
    if let Ok(p) = std::env::var("PERFBENCH_FASTOFD") {
        return PathBuf::from(p);
    }
    let target = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../target"));
    let path = target.join("release/fastofd");
    assert!(
        path.is_file(),
        "{} is missing: run `cargo build --release --bin fastofd` at the repository root",
        path.display()
    );
    path
}

/// Runs one smoke-scale workload; returns (exit ok, result line).
fn run(workload: &str, trace: bool, tamper: Option<&str>) -> (bool, String) {
    let dir = std::env::temp_dir().join(format!(
        "perfbench-smoke-{workload}-{}-{}",
        trace,
        tamper.unwrap_or("none")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("working dir");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(&dir)
        .env("PERFBENCH_FASTOFD", fastofd())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "2",
            "--scale",
            "smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(t) = tamper {
        cmd.args(["--tamper", t]);
    }
    let out = cmd.output().expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    let _ = std::fs::remove_dir_all(&dir);
    (out.status.success(), line)
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let start = line
        .find(&format!("\"{key}\": "))
        .map(|i| i + key.len() + 4)
        .unwrap_or(0);
    line[start..].split([',', '}']).next().unwrap_or("")
}

fn assert_passes(workload: &str, trace: bool) {
    let (ok, line) = run(workload, trace, None);
    assert!(ok, "{workload} (trace {trace}) failed: {line}");
    assert_eq!(field(&line, "correct"), "true", "{line}");
    assert_eq!(field(&line, "failed"), "0", "{line}");
}

fn assert_fails(workload: &str, tamper: &str) {
    let (ok, line) = run(workload, false, Some(tamper));
    assert!(!ok, "{workload} with {tamper} exited 0: {line}");
    assert_eq!(field(&line, "correct"), "false", "{line}");
    assert_ne!(field(&line, "failed"), "0", "{line}");
}

#[test]
fn discover_deep_runs_and_catches_a_dropped_ofd() {
    assert_passes("discover-deep", false);
    assert_passes("discover-deep", true);
    assert_fails("discover-deep", "drop-ofd");
}

#[test]
fn clean_beam_runs_and_catches_an_unsatisfied_result() {
    assert_passes("clean-beam", false);
    assert_passes("clean-beam", true);
    assert_fails("clean-beam", "clean-unsatisfied");
}

#[test]
fn serve_mixed_runs_and_catches_a_tampered_validate_reply() {
    assert_passes("serve-mixed", false);
    assert_passes("serve-mixed", true);
    assert_fails("serve-mixed", "validate-reply");
}

#[test]
fn fleet_mixed_runs() {
    assert_passes("fleet-mixed", false);
    assert_passes("fleet-mixed", true);
}

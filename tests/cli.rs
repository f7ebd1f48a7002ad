//! End-to-end tests of the `fastofd` command-line binary: generate →
//! check (violated) → clean → check (satisfied), all through real files.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fastofd"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fastofd_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn generate_check_clean_round_trip() {
    let dir = tmp_dir("roundtrip");
    let data = dir.join("d.csv");
    let onto = dir.join("o.txt");
    let repaired = dir.join("r.csv");
    let repaired_onto = dir.join("ro.txt");

    // 1. Generate a corrupted dataset.
    let out = bin()
        .args(["generate", "--preset", "clinical", "--rows", "800"])
        .args(["--err", "3", "--inc", "4", "--seed", "7"])
        .args(["--out", data.to_str().unwrap()])
        .args(["--onto-out", onto.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(data.exists() && onto.exists());

    // 2. Check: the planted OFD must be violated on the dirty data.
    let out = bin()
        .args(["check", "--data", data.to_str().unwrap()])
        .args(["--ontology", onto.to_str().unwrap()])
        .args(["--ofd", "CC->CTRY"])
        .output()
        .expect("run check");
    assert!(!out.status.success(), "dirty data must fail the check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VIOLATED"), "{stdout}");

    // 3. Clean.
    let out = bin()
        .args(["clean", "--data", data.to_str().unwrap()])
        .args(["--ontology", onto.to_str().unwrap()])
        .args(["--ofd", "CC->CTRY", "--ofd", "CC,SYMP->MED"])
        .args(["--out", repaired.to_str().unwrap()])
        .args(["--onto-out", repaired_onto.to_str().unwrap()])
        .output()
        .expect("run clean");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("satisfied: true"), "{stdout}");

    // 4. Re-check the repaired artifacts.
    let out = bin()
        .args(["check", "--data", repaired.to_str().unwrap()])
        .args(["--ontology", repaired_onto.to_str().unwrap()])
        .args(["--ofd", "CC->CTRY", "--ofd", "CC,SYMP->MED"])
        .output()
        .expect("run re-check");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("SATISFIED").count(), 2, "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn discover_prints_minimal_ofds() {
    let dir = tmp_dir("discover");
    let data = dir.join("d.csv");
    let onto = dir.join("o.txt");
    let out = bin()
        .args(["generate", "--preset", "kiva", "--rows", "500", "--seed", "3"])
        .args(["--out", data.to_str().unwrap()])
        .args(["--onto-out", onto.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success());

    let out = bin()
        .args(["discover", "--data", data.to_str().unwrap()])
        .args(["--ontology", onto.to_str().unwrap()])
        .args(["--max-level", "2", "--threads", "2"])
        .output()
        .expect("run discover");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The planted level-2 dependency CC →syn CTRY must appear.
    assert!(stdout.contains("[CC] ->syn CTRY"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn enforce_discovers_rules_and_makes_them_exact() {
    let dir = tmp_dir("enforce");
    let data = dir.join("d.csv");
    let onto = dir.join("o.txt");
    let out = bin()
        .args(["generate", "--preset", "clinical", "--rows", "700"])
        .args(["--err", "3", "--seed", "11"])
        .args(["--out", data.to_str().unwrap()])
        .args(["--onto-out", onto.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success());

    let out = bin()
        .args(["enforce", "--data", data.to_str().unwrap()])
        .args(["--ontology", onto.to_str().unwrap()])
        .args(["--kappa", "0.9"])
        .output()
        .expect("run enforce");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("all rules exact: true"), "{stdout}");
    assert!(stdout.contains("[CC] ->syn CTRY"), "planted rule recovered: {stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_explain_prints_options() {
    let dir = tmp_dir("explain");
    let data = dir.join("d.csv");
    let onto = dir.join("o.txt");
    let out = bin()
        .args(["generate", "--preset", "demo", "--rows", "600"])
        .args(["--err", "4", "--seed", "21"])
        .args(["--out", data.to_str().unwrap()])
        .args(["--onto-out", onto.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success());

    let out = bin()
        .args(["check", "--data", data.to_str().unwrap()])
        .args(["--ontology", onto.to_str().unwrap()])
        .args(["--ofd", "CC->CTRY", "--explain"])
        .output()
        .expect("run check --explain");
    assert!(!out.status.success(), "dirty data fails the check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("violated for class"), "{stdout}");
    assert!(stdout.contains("option 1"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A run that trips an execution limit exits with the dedicated
/// INCOMPLETE code (3): the printed partial result is sound, and scripts
/// can tell "finished early under a budget" from an outright failure.
#[test]
fn incomplete_run_exits_with_code_3() {
    let dir = tmp_dir("exit3");
    let data = dir.join("d.csv");
    let onto = dir.join("o.txt");
    let out = bin()
        .args(["generate", "--preset", "clinical", "--rows", "600", "--seed", "5"])
        .args(["--out", data.to_str().unwrap()])
        .args(["--onto-out", onto.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success());

    let out = bin()
        .args(["discover", "--data", data.to_str().unwrap()])
        .args(["--ontology", onto.to_str().unwrap()])
        .args(["--max-work", "1"])
        .output()
        .expect("run budget-capped discover");
    assert_eq!(
        out.status.code(),
        Some(3),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    // An outright usage error stays on the generic failure code.
    let out = bin().args(["discover"]).output().expect("missing --data");
    assert_eq!(out.status.code(), Some(1));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = bin().output().expect("run with no args");
    assert!(!out.status.success());
    let out = bin()
        .args(["discover"])
        .output()
        .expect("missing --data");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--data"));
    let out = bin()
        .args(["frobnicate"])
        .output()
        .expect("unknown command");
    assert!(!out.status.success());
}

/// Each subcommand accepts only its own flags: a misspelt or misplaced
/// flag is a usage error naming the flag, never silently ignored.
#[test]
fn unknown_flags_are_rejected_per_subcommand() {
    for (args, bad) in [
        (&["generate", "--dataset", "clinical"][..], "--dataset"),
        (&["serve", "--queue-capp", "4"][..], "--queue-capp"),
        (&["check", "--data", "d.csv", "--tau", "0.5"][..], "--tau"),
    ] {
        let out = bin().args(args).output().expect("run with a bad flag");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(bad), "{args:?}: {stderr}");
    }
}

//! `sched_smoke` is run by CI and quoted by the README, so a bad command
//! line must end in a usage error, not a panic.

use std::process::Command;

fn smoke(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sched_smoke"))
        .args(args)
        .output()
        .expect("sched_smoke runs")
}

#[test]
fn bad_arguments_are_one_line_usage_errors() {
    for args in [
        &["--tasks"][..],
        &["--budget-ms"],
        &["--heuristics"],
        &["--hypercube"],
        &["--tasks", "0"],
        &["--tasks", "many"],
        &["--hypercube", "64"],
        &["--heuristics", "BOGUS"],
        &["--heuristics", "HLFET,BOGUS"],
        &["--frobnicate"],
    ] {
        let out = smoke(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} started work");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains("usage: sched_smoke"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn small_run_schedules_every_heuristic_within_budget() {
    let out = smoke(&[
        "--tasks",
        "150",
        "--hypercube",
        "2",
        "--heuristics",
        "HLFET,MCP,ETF,DLS,MH,DSH",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.starts_with("sched_smoke: 150 tasks"), "{stdout}");
    assert!(stdout.contains("on hypercube-2"), "{stdout}");
    for h in ["HLFET", "MCP", "ETF", "DLS", "MH", "DSH"] {
        assert!(
            stdout.lines().any(|l| l.trim_start().starts_with(h)),
            "{h} missing: {stdout}"
        );
    }
}

//! Integration tests for the `banger` CLI on the bundled `.bang` project.

use banger_taskgraph::json::{parse as parse_json, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn banger() -> Command {
    // The CLI lives in another workspace package, so CARGO_BIN_EXE_* is not
    // set here; locate it next to this test executable
    // (target/debug/deps/this_test -> target/debug/banger) and build it on
    // demand the first time.
    let mut dir = std::env::current_exe().expect("test exe path");
    dir.pop(); // deps/
    dir.pop(); // debug/
    let path: PathBuf = dir.join("banger");
    if !path.exists() {
        let status = Command::new(env!("CARGO"))
            .args(["build", "-p", "banger", "--bin", "banger"])
            .status()
            .expect("cargo build runs");
        assert!(status.success(), "building the banger CLI failed");
    }
    Command::new(path)
}

fn project_path() -> &'static str {
    "examples/projects/heat_probe.bang"
}

fn run_ok(args: &[&str]) -> String {
    let out = banger().args(args).output().expect("CLI runs");
    assert!(
        out.status.success(),
        "banger {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn show_reports_design() {
    let out = run_ok(&["show", project_path()]);
    assert!(out.contains("project heat_probe"));
    assert!(out.contains("5 leaf tasks"));
    assert!(out.contains("digraph"));
    assert!(out.contains("inputs: [\"left\", \"right\"]"));
}

#[test]
fn gantt_renders_schedule() {
    let out = run_ok(&["gantt", project_path()]);
    assert!(out.contains("Gantt chart — MH"));
    assert!(out.contains("P0"));
    assert!(out.contains("makespan"));
    // Alternate heuristic selection works.
    let out2 = run_ok(&["gantt", project_path(), "-H", "ETF"]);
    assert!(out2.contains("Gantt chart — ETF"));
}

#[test]
fn compare_lists_all_heuristics() {
    let out = run_ok(&["compare", project_path()]);
    for h in ["serial", "HLFET", "MCP", "ETF", "DLS", "MH", "DSH"] {
        assert!(out.contains(h), "missing {h} in:\n{out}");
    }
}

#[test]
fn recommend_ranks_standard_machines() {
    let out = run_ok(&["recommend", project_path(), "-p", "4"]);
    assert!(
        out.contains("machine search — heat_probe (budget 4)"),
        "{out}"
    );
    for m in ["single", "hypercube-1", "hypercube-2", "ring-4", "star-4"] {
        assert!(out.contains(m), "missing {m} in:\n{out}");
    }
    // Ranked by makespan: the serial machine can never beat the top row.
    let first = out.lines().nth(2).unwrap();
    assert!(!first.starts_with("single"), "{out}");
    // Deterministic across invocations (the sweep runs on worker threads).
    assert_eq!(out, run_ok(&["recommend", project_path(), "-p", "4"]));

    let err = banger()
        .args(["recommend", project_path(), "-p", "0"])
        .output()
        .expect("CLI runs");
    assert!(!err.status.success());
    assert!(String::from_utf8_lossy(&err.stderr).contains("at least 1"));
}

#[test]
fn run_executes_with_inputs() {
    let out = run_ok(&["run", project_path(), "-i", "left=100", "-i", "right=0"]);
    assert!(out.contains("summary = ["), "{out}");
    // Steady-state endpoints of the relaxed halves straddle 50 degrees.
    let inner = out
        .lines()
        .find(|l| l.starts_with("summary"))
        .unwrap()
        .split_once('[')
        .unwrap()
        .1
        .trim_end_matches(']');
    let vals: Vec<f64> = inner
        .split(',')
        .map(|s| s.trim().parse().unwrap())
        .collect();
    assert!(vals[0] > vals[1], "lower half is hotter: {vals:?}");
    assert!((vals[2] - 50.0).abs() < 10.0, "midpoint near 50: {vals:?}");
}

#[test]
fn run_trace_emits_chrome_json_and_drift_report() {
    let trace_path = std::env::temp_dir().join("banger_cli_test_trace.json");
    let out = banger()
        .args([
            "run",
            project_path(),
            "-i",
            "left=100",
            "-i",
            "right=0",
            "--trace",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("CLI runs");
    assert!(
        out.status.success(),
        "traced run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);

    // The normal run output still prints, plus both Gantt charts and
    // the per-task drift table.
    assert!(stdout.contains("summary = ["), "{stdout}");
    assert!(stdout.contains("predicted (MH):"), "{stdout}");
    assert!(stdout.contains("observed:"), "{stdout}");
    assert!(stdout.contains("drift report"), "{stdout}");
    assert!(stdout.contains("makespan: predicted"), "{stdout}");
    assert!(stderr.contains("task runs in"), "{stderr}");
    assert!(stderr.contains("CoW copies"), "{stderr}");

    // The file is valid Chrome trace-format JSON: an object with a
    // traceEvents array of M/X/C phase events carrying pid/tid/ts.
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let json = parse_json(text.trim()).expect("trace file is valid JSON");
    assert_eq!(
        json.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let Some(Json::Arr(events)) = json.get("traceEvents") else {
        panic!("traceEvents missing or not an array");
    };
    assert!(!events.is_empty());
    let mut complete = 0;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("event has ph");
        assert!(
            matches!(ph, "M" | "X" | "C" | "i"),
            "unexpected phase {ph:?}"
        );
        if ph == "X" {
            assert!(e.get("ts").is_some() && e.get("dur").is_some());
            assert!(e.get("name").and_then(Json::as_str).is_some());
            // Complete events are task spans or queue-wait intervals.
            if e.get("cat").and_then(Json::as_str) == Some("task") {
                complete += 1;
            }
        }
    }
    // One task-span complete event per task run (5 tasks in heat_probe).
    assert_eq!(complete, 5, "{text}");
    std::fs::remove_file(&trace_path).ok();
}

/// A usage error, locally and with `--connect`: exit 2, one line on
/// stderr naming `named`, nothing on stdout — and no request made: nobody
/// listens on the socket, so an attempt would say "running locally".
fn assert_usage_error(args: &[&str], named: &str) {
    let nobody = std::env::temp_dir().join(format!("banger-cli-usage-{}.sock", std::process::id()));
    for connect in [vec![], vec!["--connect", nobody.to_str().unwrap()]] {
        let out = banger().args(&connect).args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} {connect:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} {connect:?}");
        assert_eq!(err.lines().count(), 1, "{args:?} {connect:?}: {err}");
        assert!(err.contains(named), "{args:?} {connect:?}: {err}");
    }
}

#[test]
fn run_trace_without_path_is_a_usage_error() {
    assert_usage_error(
        &["run", project_path(), "--trace"],
        "--trace needs an output path",
    );
}

#[test]
fn trial_runs_single_program_on_both_engines() {
    let vm = run_ok(&[
        "trial",
        project_path(),
        "Init",
        "-i",
        "left=100",
        "-i",
        "right=0",
    ]);
    assert!(vm.contains("rod0 = [100,"), "{vm}");
    let tree = run_ok(&[
        "trial",
        project_path(),
        "Init",
        "-i",
        "left=100",
        "-i",
        "right=0",
        "--reference",
    ]);
    // Identical stdout (outputs and prints) from both engines; the op
    // count on stderr must match too.
    assert_eq!(vm, tree);
    let ops_of = |reference: bool| {
        let mut args = vec![
            "trial",
            project_path(),
            "Init",
            "-i",
            "left=100",
            "-i",
            "right=0",
        ];
        if reference {
            args.push("--reference");
        }
        let out = banger().args(&args).output().unwrap();
        assert!(out.status.success());
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        err.split_once(" ops")
            .unwrap()
            .0
            .rsplit('(')
            .next()
            .unwrap()
            .to_string()
    };
    assert_eq!(ops_of(false), ops_of(true));

    // Unknown program fails cleanly; missing program name is a usage error.
    let bad = banger()
        .args(["trial", project_path(), "NoSuch"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("no program named"));
    let none = banger().args(["trial", project_path()]).output().unwrap();
    assert!(!none.status.success());
}

#[test]
fn advise_reports_bottlenecks() {
    let out = run_ok(&["advise", project_path()]);
    assert!(out.contains("binding chain"), "{out}");
    assert!(out.contains("suggestions:"), "{out}");
}

#[test]
fn animate_renders_frames() {
    let out = run_ok(&["animate", project_path()]);
    assert!(out.contains("Animation"), "{out}");
    assert!(out.contains("t="), "{out}");
}

#[test]
fn parallelize_rewrites_document() {
    // `init` is top-level but not a reduction: expect a clean error.
    let out = banger()
        .args(["parallelize", project_path(), "init", "4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot parallelize"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Tasks nested inside compounds are reported as unknown (the transform
    // works on top-level nodes).
    let out2 = banger()
        .args(["parallelize", project_path(), "lower", "4"])
        .output()
        .unwrap();
    assert!(!out2.status.success());
    assert!(
        String::from_utf8_lossy(&out2.stderr).contains("no program"),
        "{}",
        String::from_utf8_lossy(&out2.stderr)
    );
    // A loop that reads its accumulator is not a reduction (this one
    // doubles: 1024 for n = 10). It used to be split into chunks that read
    // an `s` they no longer own, and the rewritten document failed at run.
    let path = std::env::temp_dir().join("banger_cli_test_doubling.bang");
    std::fs::write(
        &path,
        "project doubling\n\
         design\n\
         \x20 storage n 1\n\
         \x20 task T 10 prog Doubling\n\
         \x20 storage s 1\n\
         \x20 arc n -> T\n\
         \x20 arc T -> s\n\
         end\n\
         begin-program\n\
         task Doubling\n\
         \x20 in n\n\
         \x20 out s\n\
         \x20 local i\n\
         begin\n\
         \x20 s := 1\n\
         \x20 for i := 1 to n do\n\
         \x20   s := s + s\n\
         \x20 end\n\
         end\n\
         end-program\n",
    )
    .unwrap();
    let out3 = banger()
        .args(["parallelize", path.to_str().unwrap(), "T", "2"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out3.stderr);
    assert_eq!(out3.status.code(), Some(1), "{err}");
    assert!(err.contains("cannot parallelize"), "{err}");
    assert!(err.contains("reads the accumulator"), "{err}");
    assert!(out3.stdout.is_empty(), "nothing may be emitted: {out3:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_closed_pipe_is_not_a_panic() {
    // 415 KB of document into a pipe nobody reads: the write fails with
    // EPIPE once the reader is gone. That is the reader's choice
    // (`banger ... | head -1`), not a crash: `print!` used to panic,
    // exit 101.
    let mut child = banger()
        .args(["optimize", "examples/projects/dense_lu.bang"])
        .args(["--expand", "fact:8", "--emit", "-"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("CLI starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("CLI exits");
    let err = String::from_utf8_lossy(&out.stderr);
    // Not 101 (a panic), not a signal: the response's own code.
    assert!(
        matches!(out.status.code(), Some(0..=2)),
        "{:?}: {err}",
        out.status
    );
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn svg_writes_three_files() {
    let dir = std::env::temp_dir().join("banger_svg_test");
    let _ = std::fs::remove_dir_all(&dir);
    run_ok(&["svg", project_path(), "-o", dir.to_str().unwrap()]);
    for name in ["gantt.svg", "speedup.svg", "utilization.svg"] {
        let body = std::fs::read_to_string(dir.join(name)).unwrap();
        assert!(body.starts_with("<svg"), "{name}");
        assert!(body.trim_end().ends_with("</svg>"), "{name}");
    }
}

#[test]
fn simulate_reports_ratio() {
    let out = run_ok(&["simulate", project_path()]);
    assert!(out.contains("predicted"));
    assert!(out.contains("ratio"));
    assert!(out.contains("messages"));
}

#[test]
fn speedup_chart_renders() {
    let out = run_ok(&[
        "speedup",
        project_path(),
        "-t",
        "single,hypercube:1,hypercube:2",
    ]);
    assert!(out.contains("predicted speedup"));
    assert!(out.contains("1 procs"));
    assert!(out.contains("4 procs"));
}

#[test]
fn codegen_emits_rust_and_c() {
    let rust = run_ok(&[
        "codegen",
        project_path(),
        "rust",
        "-i",
        "left=100",
        "-i",
        "right=0",
    ]);
    assert!(rust.contains("fn main()"));
    assert!(rust.contains("task_RelaxLower"));
    let c = run_ok(&[
        "codegen",
        project_path(),
        "c",
        "-i",
        "left=100",
        "-i",
        "right=0",
    ]);
    assert!(c.contains("MPI_Init"));
}

#[test]
fn save_and_verify_schedule_round_trip() {
    let path = std::env::temp_dir().join("banger_cli_test.sched");
    run_ok(&[
        "save-schedule",
        project_path(),
        "-H",
        "DSH",
        "-o",
        path.to_str().unwrap(),
    ]);
    let out = run_ok(&["verify", project_path(), "-s", path.to_str().unwrap()]);
    assert!(out.contains("VALID"), "{out}");
    assert!(out.contains("ratio"), "{out}");

    // Corrupt the schedule: verification must fail.
    let mut text = std::fs::read_to_string(&path).unwrap();
    text = text.replacen("primary", "copy", 1);
    std::fs::write(&path, text).unwrap();
    let bad = banger()
        .args(["verify", project_path(), "-s", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("INVALID"),
        "{}",
        String::from_utf8_lossy(&bad.stderr)
    );
}

#[test]
fn matmul_project_computes_identity_product() {
    let a = "A=[1,0,0,0,0,0,0,1,0,0,0,0,0,0,1,0,0,0,0,0,0,1,0,0,0,0,0,0,1,0,0,0,0,0,0,1]";
    let b = "B=[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36]";
    let out = run_ok(&["run", "examples/projects/matmul.bang", "-i", a, "-i", b]);
    // Identity * B = B.
    assert!(out.contains("C = [1, 2, 3, 4, 5, 6,"), "{out}");
    assert!(out.contains("35, 36]"), "{out}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = banger()
        .args(["gantt", "/no/such/file.bang"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // Unknown subcommands exit 2 with a pointed message, not a usage dump.
    let out2 = banger()
        .args(["frobnicate", project_path()])
        .output()
        .unwrap();
    assert_eq!(out2.status.code(), Some(2));
    let err2 = String::from_utf8_lossy(&out2.stderr);
    assert!(err2.contains("unknown subcommand"), "{err2}");
    assert!(err2.contains("frobnicate"), "{err2}");

    // A known subcommand with no file also exits 2.
    let out3 = banger().args(["gantt"]).output().unwrap();
    assert_eq!(out3.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out3.stderr).contains("file.bang"));

    // An option without its value, or with one that does not parse, and
    // an operand the verb does not take (a misspelt flag, usually).
    let file = project_path();
    assert_usage_error(&["run", file, "-i", "notapair"], "var=value");
    assert_usage_error(&["run", file, "-i", "a=1x"], "1x");
    assert_usage_error(&["gantt", file, "-H"], "-H needs");
    assert_usage_error(&["recommend", file, "-p", "x"], "\"x\"");
    assert_usage_error(&["run", file, "--repeat", "x"], "--repeat needs");
    assert_usage_error(&["check", file, "--weigths"], "--weigths");
    assert_usage_error(&["gantt", file, "extra"], "extra");
    assert_usage_error(&["svg", file, "-o"], "-o needs");

    // An option the verb's handler never reads is refused, not ignored;
    // on a verb with operands, too, it is not taken for one.
    let lu3 = "examples/projects/lu3.bang";
    let inputs = ["-i", "left=100", "-i", "right=0"];
    let fused = [&["run", file][..], &inputs, &["--fuse"]].concat();
    assert_usage_error(&fused, "run does not take \"--fuse\"");
    assert_usage_error(&["gantt", lu3, "--format", "json"], "--format");
    assert_usage_error(&["check", lu3, "-H", "ETF"], "\"-H\"");
    let trial = [&["trial", file, "Init"][..], &inputs, &["-t", "single"]].concat();
    assert_usage_error(&trial, "trial does not take \"-t\"");
    // A verb on the daemon takes only what its row says: `ping` no
    // operand, `stats` no flag, `evict` one path.
    assert_usage_error(&["ping", "junk"], "ping does not take \"junk\"");
    assert_usage_error(
        &["stats", "--format", "json"],
        "stats does not take \"--format\"",
    );
    assert_usage_error(&["evict", file, "extra"], "evict does not take \"extra\"");
    assert_usage_error(&["evict"], "evict needs a <file.bang> argument");

    // An unreadable `-s` file is not a usage error: the command was right.
    let out5 = banger()
        .args(["verify", file, "-s", "/no/such/schedule"])
        .output()
        .unwrap();
    assert_eq!(out5.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out5.stderr).contains("cannot read /no/such/schedule"));
}

/// `serve` takes `--socket PATH` and nothing else: a flag without its
/// path, or a misspelt one, is a usage error, not a daemon on the default
/// socket.
#[cfg(unix)]
#[test]
fn serve_refuses_what_it_does_not_take() {
    let fallback = std::env::temp_dir().join(format!("banger-cli-fb-{}.sock", std::process::id()));
    for (args, named) in [
        (&["serve", "--socket"][..], "--socket needs a socket path"),
        (
            &["serve", "--sokcet", "x.sock"][..],
            "serve does not take \"--sokcet\"",
        ),
    ] {
        let mut child = banger()
            .args(args)
            .env("BANGER_SOCKET", &fallback)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("CLI starts");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while child.try_wait().unwrap().is_none() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        if child.try_wait().unwrap().is_none() {
            child.kill().ok();
            child.wait().ok();
            std::fs::remove_file(&fallback).ok();
            panic!("banger {args:?} served instead of refusing");
        }
        let out = child.wait_with_output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(err.contains(named), "{args:?}: {err}");
        assert!(!fallback.exists(), "{args:?} bound the fallback socket");
    }
}

/// `evict` resolves a relative path in the client's working directory,
/// as every project verb does: the daemon has its own.
#[cfg(unix)]
#[test]
fn evict_reads_a_relative_path_where_the_client_stands() {
    let base = std::env::temp_dir().join(format!("banger-cli-evict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (daemon_dir, client_dir) = (base.join("d1"), base.join("d2"));
    std::fs::create_dir_all(&daemon_dir).unwrap();
    std::fs::create_dir_all(&client_dir).unwrap();
    std::fs::copy("examples/projects/lu3.bang", client_dir.join("lu3.bang")).unwrap();
    let (sock, guard) = start_daemon("evict", &daemon_dir);
    let ask = |args: &[&str]| {
        let out = banger()
            .args(["--connect", sock.to_str().unwrap()])
            .args(args)
            .current_dir(&client_dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert!(ask(&["check", "lu3.bang"]).contains("0 errors"));
    assert_eq!(ask(&["evict", "lu3.bang"]), "evicted\n");
    assert_eq!(ask(&["evict", "lu3.bang"]), "not cached\n");
    stop_daemon(&sock, guard);
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn help_lists_every_subcommand_and_exit_codes() {
    let out = banger().args(["help"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for verb in banger::serve::ops::VERBS {
        let line = format!("\n  {} ", verb.name());
        assert!(text.contains(&line), "help is missing {line:?}:\n{text}");
    }
    assert!(text.contains("exit codes"), "{text}");
    // Every option row is listed, with its verbs, in lines that fit a
    // terminal.
    let (_, options) = text.split_once("\noptions:\n").expect("an options block");
    let (options, _) = options.split_once("\n\ndaemon:").expect("a daemon block");
    for opt in banger::serve::ops::OPTIONS
        .iter()
        .filter(|o| !o.usage.is_empty())
    {
        let line = format!("  {:<16} {}", opt.usage, opt.verbs[0]);
        assert!(options.contains(&line), "help is missing {line:?}:\n{text}");
    }
    assert!(
        options.lines().all(|l| l.chars().count() <= 80),
        "{options}"
    );
    // The daemon's caches are keyed by the bytes themselves, not a hash.
    assert!(!text.contains("content-hashed"), "{text}");
    // `--help` is an alias.
    let alias = banger().args(["--help"]).output().unwrap();
    assert_eq!(alias.status.code(), Some(0));
}

fn racy_path() -> &'static str {
    "examples/projects/racy_pipeline.bang"
}

#[test]
fn check_passes_clean_designs() {
    let out = run_ok(&["check", project_path()]);
    assert!(out.contains("0 errors"), "{out}");
    let out2 = run_ok(&["check", "examples/projects/matmul.bang"]);
    assert!(out2.contains("0 errors"), "{out2}");
}

#[test]
fn check_reports_race_and_exits_nonzero() {
    let out = banger().args(["check", racy_path()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("B001"), "{text}");
    assert!(text.contains("sensor_a"), "{text}");
    assert!(text.contains("sensor_b"), "{text}");
    assert!(text.contains("reading"), "{text}");
    // Error-severity findings also refuse scheduling and execution.
    let gantt = banger().args(["gantt", racy_path()]).output().unwrap();
    assert_eq!(gantt.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&gantt.stderr).contains("B001"),
        "{}",
        String::from_utf8_lossy(&gantt.stderr)
    );
}

#[test]
fn check_json_round_trips_without_serde() {
    let out = banger()
        .args(["check", racy_path(), "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = parse_json(text.trim()).expect("check --format json emits valid JSON");
    let Json::Arr(items) = &parsed else {
        panic!("expected a JSON array, got {parsed:?}");
    };
    assert!(!items.is_empty());
    for item in items {
        let code = item.get("code").and_then(Json::as_str).expect("code field");
        assert!(
            code.len() == 4 && code.starts_with('B'),
            "unexpected code {code:?}"
        );
        let sev = item
            .get("severity")
            .and_then(Json::as_str)
            .expect("severity field");
        assert!(sev == "error" || sev == "warning", "{sev}");
        assert!(item.get("message").and_then(Json::as_str).is_some());
    }
    let b001 = items
        .iter()
        .find(|i| i.get("code").and_then(Json::as_str) == Some("B001"))
        .expect("B001 present");
    let Some(Json::Arr(nodes)) = b001.get("nodes") else {
        panic!("B001 carries nodes: {b001:?}");
    };
    let names: Vec<&str> = nodes.iter().filter_map(Json::as_str).collect();
    assert!(
        names.contains(&"sensor_a") && names.contains(&"sensor_b"),
        "{names:?}"
    );

    // A diagnostic-free design yields an empty array, also valid JSON.
    let clean = run_ok(&["check", "examples/projects/matmul.bang", "--format", "json"]);
    assert_eq!(parse_json(clean.trim()), Ok(Json::Arr(vec![])));
}

#[test]
fn check_weights_prints_static_cost_table() {
    let out = run_ok(&["check", "examples/projects/lu3.bang", "--weights"]);
    assert!(out.contains("static bounds"), "{out}");
    assert!(out.contains("Factor.fan1"), "{out}");
    // Every LU body is literal-bound loops: the bounds collapse.
    assert!(out.contains("(exact)"), "{out}");
}

#[test]
fn check_weights_json_with_measured_run() {
    // Without inputs: an object with diagnostics + weights, measured null.
    let out = run_ok(&["check", project_path(), "--weights", "--format", "json"]);
    let json = parse_json(out.trim()).expect("valid JSON");
    let Some(Json::Arr(diags)) = json.get("diagnostics") else {
        panic!("diagnostics array missing: {json:?}");
    };
    // heat_probe's relax kernels index with statically-unknown bounds.
    assert!(diags
        .iter()
        .any(|d| d.get("code").and_then(Json::as_str) == Some("B041")));
    let Some(Json::Arr(rows)) = json.get("weights") else {
        panic!("weights array missing: {json:?}");
    };
    assert_eq!(rows.len(), 5, "{json:?}");
    for row in rows {
        assert!(row.get("task").and_then(Json::as_str).is_some());
        assert!(matches!(row.get("drawn"), Some(Json::Num(_))));
        assert_eq!(row.get("measured"), Some(&Json::Null));
    }
    // The relax kernels loop over an unknown-length rod: upper bound
    // unbounded, serialized as null (never `inf`).
    let lower = rows
        .iter()
        .find(|r| r.get("task").and_then(Json::as_str) == Some("Relax.lower"))
        .expect("Relax.lower row");
    let stat = lower.get("static").expect("static object");
    assert_eq!(stat.get("ops_hi"), Some(&Json::Null), "{stat:?}");
    assert_eq!(stat.get("exact"), Some(&Json::Bool(false)));

    // With inputs the design runs once and measured ops land in-bounds.
    let out = run_ok(&[
        "check",
        project_path(),
        "--weights",
        "--format",
        "json",
        "-i",
        "left=100",
        "-i",
        "right=0",
    ]);
    let json = parse_json(out.trim()).expect("valid JSON");
    let Some(Json::Arr(rows)) = json.get("weights") else {
        panic!("weights array missing: {json:?}");
    };
    for row in rows {
        let Some(Json::Num(m)) = row.get("measured") else {
            panic!("measured missing after a run: {row:?}");
        };
        let stat = row.get("static").expect("static object");
        let Some(Json::Num(lo)) = stat.get("ops_lo") else {
            panic!("ops_lo missing: {stat:?}");
        };
        assert!(lo <= m, "{row:?}");
        if let Some(Json::Num(hi)) = stat.get("ops_hi") {
            assert!(m <= hi, "{row:?}");
        }
    }
}

/// A task name with a control character must come out of every JSON
/// writer escaped: `--weights --format json` used to emit the raw byte.
#[test]
fn check_weights_json_escapes_control_characters() {
    let text = std::fs::read_to_string(project_path()).unwrap();
    let path = std::env::temp_dir().join("banger_cli_test_ctrl.bang");
    std::fs::write(&path, text.replace("report", "rep\u{1}rt")).unwrap();
    let out = run_ok(&[
        "check",
        path.to_str().unwrap(),
        "--weights",
        "--format",
        "json",
    ]);
    assert!(out.contains("\"rep\\u0001rt\""), "{out}");
    let json = parse_json(out.trim()).expect("valid JSON");
    let Some(Json::Arr(rows)) = json.get("weights") else {
        panic!("weights missing or not an array");
    };
    assert!(rows
        .iter()
        .any(|r| r.get("task").and_then(Json::as_str) == Some("rep\u{1}rt")));
    std::fs::remove_file(&path).ok();
}

#[test]
fn check_rejects_runaway_compound_nesting_with_a_positioned_error() {
    // 10,000 nested compounds used to abort with a stack overflow
    // (exit 134); the parser's depth cap makes it an ordinary error.
    let depth = 10_000;
    let mut doc = String::from("project deep\ndesign\n");
    doc.push_str(&"compound c\n".repeat(depth));
    doc.push_str("task t 1\n");
    doc.push_str(&"end\n".repeat(depth + 1));
    let path = std::env::temp_dir().join("banger_cli_test_deep.bang");
    std::fs::write(&path, doc).unwrap();
    let out = banger()
        .args(["check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("line 203: compounds nested deeper than 200 levels"),
        "{err}"
    );
    std::fs::remove_file(&path).ok();
}

/// A document whose one program sets `x` to `1+1+…+1` with `terms`
/// terms, on line 20.
fn chain_doc(terms: usize) -> String {
    format!(
        "project chain\n\nmachine single\n  speed 1\n  process-startup 0\n  msg-startup 0\n  \
         rate 1\nend\n\ndesign\n  storage x 1\n  task t 1 prog Chain\n  arc t -> x\nend\n\n\
         begin-program\ntask Chain\n  out x\nbegin\n  x := {}\nend\nend-program\n",
        vec!["1"; terms].join("+")
    )
}

/// A `+` chain longer than the parser's height cap is a positioned error
/// at the operator that crossed it; one at the cap checks, schedules and
/// runs. 200,000 terms aborted `check` with a stack overflow (exit 134),
/// and 20,000 aborted the daemon for every client.
#[test]
fn a_chain_past_the_height_cap_is_refused_at_its_operator() {
    let cap = banger_calc::parser::MAX_HEIGHT as usize;
    let path = std::env::temp_dir().join(format!("banger_cli_chain_{}.bang", std::process::id()));
    let file = path.to_str().unwrap();
    std::fs::write(&path, chain_doc(cap)).unwrap();
    run_ok(&["check", file]);
    assert!(run_ok(&["gantt", file]).contains("Gantt chart"));
    assert_eq!(run_ok(&["run", file]), format!("x = {cap}\n"));

    // The cap-th `+` is at column 8 + 2 * cap - 1 of line 20.
    let refusal = format!(
        "banger: line 20, column {}: bad PITS program: expression deeper than {cap} levels; \
         split it over several assignments\n",
        2 * cap + 7
    );
    for terms in [cap + 1, 200_000] {
        std::fs::write(&path, chain_doc(terms)).unwrap();
        let out = banger().args(["check", file]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{terms} terms");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            refusal,
            "{terms} terms"
        );
        assert!(out.stdout.is_empty());
    }

    #[cfg(unix)]
    {
        std::fs::write(&path, chain_doc(20_000)).unwrap();
        let (sock, guard) = start_daemon("chain", Path::new("."));
        let out = banger()
            .args(["--connect", sock.to_str().unwrap(), "check", file])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1));
        assert_eq!(String::from_utf8_lossy(&out.stderr), refusal);
        let ping = banger()
            .args(["--connect", sock.to_str().unwrap(), "ping"])
            .output()
            .unwrap();
        assert_eq!(String::from_utf8_lossy(&ping.stdout), "pong\n");
        stop_daemon(&sock, guard);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn check_reports_body_safety_errors_and_exits_nonzero() {
    // A design whose only defect is a PITS body bug: a definite read of
    // an unassigned variable. B040 must gate exactly like graph errors.
    let path = std::env::temp_dir().join("banger_cli_test_badread.bang");
    std::fs::write(
        &path,
        "project badread\n\
         \n\
         machine full:2\n\
         \x20 speed 1\n\
         \x20 process-startup 0.1\n\
         \x20 msg-startup 0.5\n\
         \x20 rate 8\n\
         end\n\
         \n\
         design\n\
         \x20 storage src 1\n\
         \x20 task t 10 prog Bad\n\
         \x20 storage dst 1\n\
         \x20 arc src -> t\n\
         \x20 arc t -> dst\n\
         end\n\
         \n\
         begin-program\n\
         task Bad\n\
         \x20 in src\n\
         \x20 out dst\n\
         \x20 local q\n\
         begin\n\
         \x20 dst := q + src\n\
         end\n\
         end-program\n",
    )
    .unwrap();
    let out = banger()
        .args(["check", path.to_str().unwrap(), "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = parse_json(text.trim()).expect("valid JSON");
    let Json::Arr(items) = &parsed else {
        panic!("expected a bare array without --weights, got {parsed:?}");
    };
    let b040 = items
        .iter()
        .find(|i| i.get("code").and_then(Json::as_str) == Some("B040"))
        .expect("B040 present");
    assert_eq!(
        b040.get("severity").and_then(Json::as_str),
        Some("error"),
        "{b040:?}"
    );
    // Execution refuses the same design with the same code.
    let run = banger()
        .args(["run", path.to_str().unwrap(), "-i", "src=1"])
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&run.stderr).contains("B040"),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    std::fs::remove_file(&path).ok();
}

/// A declared input that neither an arc nor `-i` supplies is refused by
/// every verb that binds it — the generators used to emit a program that
/// computed with zero where `run` refused.
#[test]
fn an_unsupplied_input_is_refused_by_run_and_both_generators_alike() {
    let path = std::env::temp_dir().join("banger_cli_test_unbound.bang");
    std::fs::write(
        &path,
        "project unbound\n\
         \n\
         machine full:2\n\
         \x20 speed 1\n\
         \x20 process-startup 0.1\n\
         \x20 msg-startup 0.5\n\
         \x20 rate 8\n\
         end\n\
         \n\
         design\n\
         \x20 storage a 1\n\
         \x20 task first 10 prog First\n\
         \x20 task second 10 prog Second\n\
         \x20 storage y 1\n\
         \x20 arc a -> first\n\
         \x20 arc first -> second label x vol 1\n\
         \x20 arc second -> y\n\
         end\n\
         \n\
         begin-program\n\
         task First\n\
         \x20 in a\n\
         \x20 out x\n\
         begin\n\
         \x20 x := a + 1\n\
         end\n\
         end-program\n\
         \n\
         begin-program\n\
         task Second\n\
         \x20 in x, k\n\
         \x20 out y\n\
         begin\n\
         \x20 y := x * k\n\
         end\n\
         end-program\n",
    )
    .unwrap();
    let file = path.to_str().unwrap();
    for verb in [vec!["run"], vec!["codegen", "rust"], vec!["codegen", "c"]] {
        let (head, lang) = verb.split_at(1);
        let args = |extra: &[&'static str]| [head, &[file], lang, &["-i", "a=1"], extra].concat();
        let refused = banger().args(args(&[])).output().unwrap();
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert_eq!(refused.status.code(), Some(1), "{verb:?}: {stderr}");
        assert!(
            stderr.contains("task \"second\": input \"k\" has no producer"),
            "{verb:?}: {stderr}"
        );
        assert!(refused.stdout.is_empty(), "{verb:?} printed a product");
        let supplied = banger().args(args(&["-i", "k=2"])).output().unwrap();
        assert!(supplied.status.success(), "{verb:?} with k supplied");
        assert!(!supplied.stdout.is_empty());
    }
    std::fs::remove_file(&path).ok();
}

/// Kills the daemon child on drop so a failing assertion cannot leak a
/// background process into the test runner.
#[cfg(unix)]
struct DaemonGuard(std::process::Child);

#[cfg(unix)]
impl Drop for DaemonGuard {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// `banger serve` in the background with `cwd` as its working directory
/// and its stderr in `<socket>.log`; returns once the socket answers.
#[cfg(unix)]
fn start_daemon(name: &str, cwd: &Path) -> (PathBuf, DaemonGuard) {
    let mut banger = banger();
    banger.current_dir(cwd);
    serve_as(banger, name)
}

/// Starts `banger serve` as `command`: `banger` itself, or a shell that
/// execs it.
#[cfg(unix)]
fn serve_as(mut command: Command, name: &str) -> (PathBuf, DaemonGuard) {
    let sock = std::env::temp_dir().join(format!("banger-cli-{name}-{}.sock", std::process::id()));
    std::fs::remove_file(&sock).ok();
    let log = std::fs::File::create(sock.with_extension("log")).unwrap();
    let child = command
        .args(["serve", "--socket", sock.to_str().unwrap()])
        .stderr(log)
        .spawn()
        .expect("daemon starts");
    let guard = DaemonGuard(child);
    for _ in 0..200 {
        if std::os::unix::net::UnixStream::connect(&sock).is_ok() {
            return (sock, guard);
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    panic!("daemon never opened {}", sock.display());
}

/// Asks the daemon to shut down and checks that it exits cleanly;
/// returns what it wrote to stderr over its life.
#[cfg(unix)]
fn stop_daemon(sock: &Path, mut guard: DaemonGuard) -> String {
    let bye = banger()
        .args(["--connect", sock.to_str().unwrap(), "shutdown"])
        .output()
        .unwrap();
    assert!(bye.status.success());
    let status = guard.0.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status {status:?}");
    assert!(!sock.exists(), "socket file removed on shutdown");
    let log = sock.with_extension("log");
    let text = std::fs::read_to_string(&log).unwrap();
    std::fs::remove_file(&log).ok();
    text
}

/// Every file under `dir`, by path relative to it.
#[cfg(unix)]
fn files_under(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    let mut found = std::collections::BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let name = path
                    .strip_prefix(dir)
                    .unwrap()
                    .to_str()
                    .unwrap()
                    .to_string();
                found.insert(name, std::fs::read(&path).unwrap());
            }
        }
    }
    found
}

/// One representative invocation per subcommand and flag. `{out}` is a
/// directory the run may write into, `{sched}` a schedule saved from the
/// project beforehand (absent when the project cannot be scheduled).
#[cfg(unix)]
fn every_verb(project: &str, inputs: &[String]) -> Vec<Vec<String>> {
    let plain = |words: &[&str]| -> Vec<String> { words.iter().map(|w| w.to_string()).collect() };
    let with_inputs = |words: &[&str]| -> Vec<String> {
        plain(words)
            .into_iter()
            .chain(inputs.iter().cloned())
            .collect()
    };
    let mut table = vec![
        plain(&["check", project]),
        plain(&["check", project, "--format", "json"]),
        plain(&["check", project, "--weights", "--format", "json"]),
        with_inputs(&["check", project, "--weights"]),
        plain(&["show", project]),
        plain(&["gantt", project, "-H", "ETF"]),
        plain(&["gantt", project, "--optimize"]),
        plain(&["schedule", project]),
        plain(&["compare", project]),
        plain(&["simulate", project, "-H", "ETF"]),
        plain(&["animate", project]),
        plain(&["advise", project, "-H", "MCP"]),
        plain(&["recommend", project, "-p", "4"]),
        plain(&["svg", project, "-o", "{out}/charts"]),
        plain(&["save-schedule", project, "-H", "DSH"]),
        plain(&["save-schedule", project, "-o", "{out}/s.sched"]),
        plain(&["verify", project, "-s", "{sched}"]),
        with_inputs(&["run", project]),
        with_inputs(&["run", project, "--repeat", "3"]),
        with_inputs(&["run", project, "--optimize"]),
        with_inputs(&["run", project, "-H", "ETF", "--trace", "{out}/t.json"]),
        plain(&["speedup", project, "-t", "single,hypercube:1,hypercube:2"]),
        with_inputs(&["codegen", project, "rust"]),
        with_inputs(&["codegen", project, "c", "-H", "ETF"]),
        plain(&["optimize", project, "--fuse"]),
        plain(&["optimize", project, "--fuse", "--emit", "{out}/o.bang"]),
        plain(&["optimize", project, "--emit", "-"]),
        plain(&["graph", project]),
        plain(&["graph", project, "--optimized"]),
        plain(&["graph", project, "--dot"]),
    ];
    if project.ends_with("heat_probe.bang") {
        table.push(with_inputs(&["trial", project, "Init"]));
        table.push(with_inputs(&["trial", project, "Init", "--reference"]));
        table.push(plain(&["trial", project, "NoSuch"]));
        table.push(plain(&["parallelize", project, "init", "4"]));
    }
    if project.ends_with("dense_lu.bang") {
        let expand = [
            "optimize",
            project,
            "--expand",
            "fact:4",
            "--emit",
            "{out}/t.bang",
        ];
        table.push(plain(&expand));
    }
    table
}

/// Every project verb of `ops::VERBS` is the first word of some
/// `every_verb` invocation, so none can skip the local/daemon
/// differential below.
#[cfg(unix)]
#[test]
fn every_project_verb_is_in_the_differential() {
    let tried: std::collections::BTreeSet<String> =
        ["heat_probe", "lu3", "matmul", "dense_lu", "racy_pipeline"]
            .iter()
            .flat_map(|name| every_verb(&format!("examples/projects/{name}.bang"), &[]))
            .map(|args| args[0].clone())
            .collect();
    for verb in banger::serve::ops::VERBS {
        if !verb.on_daemon() {
            let name = verb.name();
            assert!(tried.contains(name), "every_verb never runs {name}");
        }
    }
}

/// The all-verb differential: every subcommand and flag, on every
/// bundled project, answered in-process and by a daemon (cold, then
/// warm) that runs in another directory. Stdout, exit code and written
/// files must be the same; a traced run's wall-clock parts are checked
/// for shape instead.
#[cfg(unix)]
#[test]
fn serve_daemon_round_trip() {
    let scratch = std::env::temp_dir().join(format!("banger-cli-verbs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let (sock, guard) = start_daemon("serve", &scratch);
    let connect = ["--connect", sock.to_str().unwrap()];

    let ping = banger().args(connect).arg("ping").output().unwrap();
    assert!(ping.status.success());
    assert_eq!(String::from_utf8_lossy(&ping.stdout), "pong\n");

    let dense: Vec<String> = (0..64 * 64)
        .map(|k| {
            if k / 64 == k % 64 {
                "66".into()
            } else {
                format!("{}", 1.0 + (k % 5) as f64 / 4.0)
            }
        })
        .collect();
    let matmul_a: Vec<&str> = (0..36)
        .map(|k| if k / 6 == k % 6 { "1" } else { "0" })
        .collect();
    let matmul_b: Vec<String> = (1..=36).map(|k| k.to_string()).collect();
    let projects = [
        ("heat_probe", vec!["left=100".to_string(), "right=0".into()]),
        (
            "lu3",
            vec![
                "A=[5,1.5,2,1.75,5,1.5,1.25,1.75,5]".into(),
                "b=[1,2,3]".into(),
            ],
        ),
        (
            "matmul",
            vec![
                format!("A=[{}]", matmul_a.join(",")),
                format!("B=[{}]", matmul_b.join(",")),
            ],
        ),
        ("dense_lu", vec![format!("a=[{}]", dense.join(","))]),
        ("racy_pipeline", vec!["raw=[3,4]".into()]),
    ];
    for (name, values) in &projects {
        let project = format!("examples/projects/{name}.bang");
        let inputs: Vec<String> = values
            .iter()
            .flat_map(|v| ["-i".to_string(), v.clone()])
            .collect();
        let sched = scratch.join(format!("{name}.sched"));
        let saved = banger()
            .args(["save-schedule", &project, "-o", sched.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(saved.status.success(), *name != "racy_pipeline");

        for (n, args) in every_verb(&project, &inputs).iter().enumerate() {
            let run = |mode: &str| {
                let out = scratch.join(format!("{name}-{n}-{mode}"));
                std::fs::create_dir_all(&out).unwrap();
                let args: Vec<String> = args
                    .iter()
                    .map(|a| {
                        a.replace("{out}", out.to_str().unwrap())
                            .replace("{sched}", sched.to_str().unwrap())
                    })
                    .collect();
                let mut cmd = banger();
                if mode != "local" {
                    cmd.args(connect);
                }
                let done = cmd.args(&args).output().unwrap();
                let stderr = String::from_utf8_lossy(&done.stderr);
                assert!(
                    !stderr.contains("running locally"),
                    "{args:?} ({mode}) fell back: {stderr}"
                );
                (
                    done.status.code(),
                    String::from_utf8_lossy(&done.stdout).into_owned(),
                    files_under(&out),
                )
            };
            let traced = args.iter().any(|a| a == "--trace");
            let settled = |stdout: &str| match stdout.split_once("observed:") {
                Some((before, _)) if traced => before.to_string(),
                _ => stdout.to_string(),
            };
            let (code, stdout, files) = run("local");
            if *name == "racy_pipeline"
                && !matches!(
                    args[0].as_str(),
                    "show" | "graph" | "compare" | "recommend" | "speedup" | "verify"
                )
            {
                assert_eq!(
                    code,
                    Some(1),
                    "{args:?}: a design with a race must be refused"
                );
            }
            for mode in ["cold", "warm"] {
                let (d_code, d_stdout, d_files) = run(mode);
                assert_eq!(d_code, code, "{args:?} ({mode}) exit codes differ");
                assert_eq!(
                    settled(&d_stdout),
                    settled(&stdout),
                    "{args:?} ({mode}) stdout differs"
                );
                assert_eq!(
                    d_files.keys().collect::<Vec<_>>(),
                    files.keys().collect::<Vec<_>>(),
                    "{args:?} ({mode}) wrote other files"
                );
                for (file, bytes) in &d_files {
                    if file.ends_with("t.json") {
                        let trace = parse_json(std::str::from_utf8(bytes).unwrap().trim())
                            .expect("trace parses");
                        let Some(Json::Arr(events)) = trace.get("traceEvents") else {
                            panic!("{args:?} ({mode}) traceEvents missing or not an array");
                        };
                        assert!(!events.is_empty(), "{args:?} ({mode}) empty trace");
                    } else {
                        assert_eq!(bytes, &files[file], "{args:?} ({mode}) {file} differs");
                    }
                }
            }
        }
    }

    let stats = banger().args(connect).arg("stats").output().unwrap();
    let text = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(text.starts_with("requests "), "{text}");
    assert!(text.contains("panics 0"), "{text}");
    stop_daemon(&sock, guard);
    std::fs::remove_dir_all(&scratch).ok();
}

/// The pool threads a daemon holds once it has checked lu3 and run
/// nothing stealable: the check fans the seeded B04x analyses a fresh
/// parse leaves to run (`misses`) out on `min(cores, misses)` workers,
/// the caller and one fewer pool threads.
#[cfg(unix)]
fn pool_after_checking_lu3() -> usize {
    let text = std::fs::read_to_string("examples/projects/lu3.bang").unwrap();
    let project = banger::parse_project(&text).unwrap();
    let misses = banger_analyze::absint::memo_misses(project.expanded(), project.library());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(misses) - 1
}

/// `stats` counts the executor sessions and pool threads a daemon holds.
/// An edited small design keeps one session, whose firings run on one
/// worker however often it is rebuilt; only its first check fans out,
/// and grows the pool to `min(cores, misses) − 1`. The first design with
/// a stealable task grows the process pool to the core count less the
/// caller; a second such design shares it, and evicting one leaves it
/// whole. The daemon is its own process, so no other test moves these
/// counts.
#[cfg(unix)]
#[test]
fn stats_counts_sessions_and_pool_threads() {
    let dir = std::env::temp_dir().join(format!("banger-cli-pool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (sock, guard) = start_daemon("pool", &dir);
    let connect = ["--connect", sock.to_str().unwrap()];
    let inputs = |name: &str| -> Vec<String> {
        let file = format!("bench_all/inputs/{name}.inputs");
        let text = std::fs::read_to_string(file).unwrap();
        text.lines()
            .flat_map(|line| ["-i".to_string(), line.to_string()])
            .collect()
    };
    let ask = |args: &[&str]| {
        let out = banger().args(connect).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let counts = || {
        let text = ask(&["stats"]);
        let (_, tail) = text
            .split_once("  sessions ")
            .expect("stats counts sessions");
        tail.trim_end().to_string()
    };

    let lu3 = dir.join("lu3.bang");
    let source = std::fs::read_to_string("examples/projects/lu3.bang").unwrap();
    let lu3_inputs = inputs("lu3");
    for weight in 9..19 {
        let edited = source.replace("task fan1 9 prog", &format!("task fan1 {weight} prog"));
        std::fs::write(&lu3, edited).unwrap();
        let mut run = vec!["run", lu3.to_str().unwrap(), "--repeat", "2"];
        run.extend(lu3_inputs.iter().map(String::as_str));
        let out = banger().args(connect).args(&run).output().unwrap();
        assert!(String::from_utf8_lossy(&out.stdout).contains("x = "));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("(2 firings on 1 warm worker: "), "{stderr}");
    }
    let checked = pool_after_checking_lu3();
    assert_eq!(counts(), format!("1  pool threads {checked}"));

    let dense_inputs = inputs("dense_lu");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let source = std::fs::read_to_string("examples/projects/dense_lu.bang").unwrap();
    let copies = ["dense_a.bang", "dense_b.bang"].map(|name| dir.join(name));
    for (resident, copy) in copies.iter().enumerate() {
        std::fs::write(copy, &source).unwrap();
        let mut run = vec!["run", copy.to_str().unwrap()];
        run.extend(dense_inputs.iter().map(String::as_str));
        ask(&run);
        let sessions = resident + 2;
        assert_eq!(counts(), format!("{sessions}  pool threads {}", cores - 1));
    }

    ask(&["evict", copies[0].to_str().unwrap()]);
    assert_eq!(counts(), format!("2  pool threads {}", cores - 1));
    stop_daemon(&sock, guard);
    std::fs::remove_dir_all(&dir).ok();
}

/// A traced `run` is pinned to the schedule, and a pinned firing sizes
/// itself as a greedy one does: lu3 has no task worth a helper (none
/// weighs `inline_below`), so its traced run over a daemon fires on one
/// worker, and the pool holds only what the run's check fanned out to.
#[cfg(unix)]
#[test]
fn a_traced_run_of_a_design_with_nothing_to_steal_fires_on_one_worker() {
    let dir = std::env::temp_dir().join(format!("banger-cli-traced-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (sock, guard) = start_daemon("traced", &dir);
    let trace = dir.join("t.json");
    let out = banger()
        .args(["--connect", sock.to_str().unwrap(), "run"])
        .arg(std::fs::canonicalize("examples/projects/lu3.bang").unwrap())
        .args([
            "-i",
            "A=[5,1.5,2,1.75,5,1.5,1.25,1.75,5]",
            "-i",
            "b=[1,2,3]",
        ])
        .arg("--trace")
        .arg(&trace)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(!stderr.contains("running locally"), "{stderr}");
    assert!(stderr.contains(" 1 workers at "), "{stderr}");
    assert!(std::fs::read_to_string(&trace)
        .unwrap()
        .contains("traceEvents"));
    let stats = banger()
        .args(["--connect", sock.to_str().unwrap(), "stats"])
        .output()
        .unwrap();
    let stats = String::from_utf8_lossy(&stats.stdout);
    let checked = pool_after_checking_lu3();
    assert!(
        stats
            .trim_end()
            .ends_with(&format!("pool threads {checked}")),
        "{stats}"
    );
    stop_daemon(&sock, guard);
    std::fs::remove_dir_all(&dir).ok();
}

/// A daemon's threads are bounded by the host, not by the designs it
/// holds or the verbs that fan out: 50 resident copies of `dense_lu`,
/// each run, checked and charted on several machines once, share one
/// pool of `cores - 1` helpers beside the accept loop and a thread per
/// open connection.
#[cfg(unix)]
#[test]
fn fifty_resident_stealable_designs_keep_one_pool() {
    let dir = std::env::temp_dir().join(format!("banger-cli-fifty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (sock, guard) = start_daemon("fifty", &dir);
    let tasks = format!("/proc/{}/task", guard.0.id());
    let threads = || std::fs::read_dir(&tasks).expect("daemon threads").count();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let source = std::fs::read_to_string("examples/projects/dense_lu.bang").unwrap();
    let inputs = std::fs::read_to_string("bench_all/inputs/dense_lu.inputs").unwrap();
    let topologies = "single,hypercube:1,hypercube:2,linear:4,mesh:2x2";
    for copy in 0..50 {
        let path = dir.join(format!("dense_{copy}.bang"));
        std::fs::write(&path, &source).unwrap();
        let file = path.to_str().unwrap();
        let mut run = vec!["run", file];
        run.extend(inputs.lines().flat_map(|line| ["-i", line]));
        let check = vec!["check", file];
        let speedup = vec!["speedup", file, "-t", topologies];
        for args in [run, check, speedup] {
            let out = banger()
                .args(["--connect", sock.to_str().unwrap()])
                .args(&args)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{args:?}: {stderr}");
            assert!(!stderr.contains("running locally"), "{stderr}");
        }
        // No connection is open once the client has exited, but the
        // daemon's thread for it ends only when it reads the close.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while threads() > cores && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(
            threads() <= cores,
            "after {} resident copies the daemon has {} threads on {cores} cores",
            copy + 1,
            threads()
        );
    }
    let stats = banger()
        .args(["--connect", sock.to_str().unwrap(), "stats"])
        .output()
        .unwrap();
    let stats = String::from_utf8_lossy(&stats.stdout);
    assert!(
        stats
            .trim_end()
            .ends_with(&format!("sessions 50  pool threads {}", cores - 1)),
        "{stats}"
    );
    stop_daemon(&sock, guard);
    std::fs::remove_dir_all(&dir).ok();
}

/// One defect, one answer: a design that cannot be flattened is refused
/// by every verb with the analyzer's named finding, not with the
/// flattener's own wording, in-process and by a daemon, which keeps
/// serving afterwards.
#[cfg(unix)]
#[test]
fn every_verb_names_an_unflattenable_designs_defect_the_way_check_does() {
    const MACHINE: &str = "machine hypercube:1\n  speed 1\n  process-startup 0\n  \
                           msg-startup 0\n  rate 1\nend\n";
    let documents = [
        (
            "unbound",
            "task gen 1\ncompound C\ntask w 1\nend\ntask use 1\nbind C out r w\n\
             arc gen -> C label v vol 1\narc C -> use label r vol 1\n",
            ["error[B020]", "compound `C` has no input binding"],
        ),
        (
            "cycle",
            "task p 1\ntask q 1\narc p -> q label x vol 1\narc q -> p label y vol 1\n",
            ["error[B030]", "p -> q -> p"],
        ),
    ];
    let dir = std::env::temp_dir().join(format!("banger-cli-defects-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (sock, guard) = start_daemon("defects", &dir);
    for (name, design, named) in documents {
        let path = dir.join(format!("{name}.bang"));
        let text = format!("project {name}\n{MACHINE}design\n{design}end\n");
        std::fs::write(&path, text).unwrap();
        for connect in [vec![], vec!["--connect", sock.to_str().unwrap()]] {
            for verb in ["check", "gantt", "show", "graph", "run"] {
                let out = banger()
                    .args(&connect)
                    .args([verb, path.to_str().unwrap()])
                    .output()
                    .unwrap();
                let said = format!(
                    "{}{}",
                    String::from_utf8_lossy(&out.stdout),
                    String::from_utf8_lossy(&out.stderr)
                );
                assert_eq!(out.status.code(), Some(1), "{verb} {connect:?}: {said}");
                for want in named {
                    assert!(said.contains(want), "{verb} {connect:?}: {said}");
                }
                assert!(!said.contains("running locally"), "{verb}: {said}");
            }
        }
    }
    let ping = banger()
        .args(["--connect", sock.to_str().unwrap(), "ping"])
        .output()
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&ping.stdout), "pong\n");
    stop_daemon(&sock, guard);
    std::fs::remove_dir_all(&dir).ok();
}

/// A document error names the line of the document in both modes: a
/// second program of the same name (it used to win silently: `run -i a=2`
/// printed `r = 200`), and a PITS syntax error (it used to name the
/// `begin-program` line and a position relative to the block).
#[cfg(unix)]
#[test]
fn document_errors_are_positioned_in_both_modes() {
    const HEAD: &str = "project twice\nmachine single\n  speed 1\n  process-startup 0\n  \
                        msg-startup 0\n  rate 1\nend\ndesign\n  storage a 1\n  \
                        task t 1 prog Id\n  storage r 1\n  arc a -> t\n  arc t -> r\nend\n";
    let id = |body: &str| {
        format!("\nbegin-program\ntask Id\n  in a\n  out r\nbegin\n  {body}\nend\nend-program\n")
    };
    let documents = [
        (
            "duplicate",
            format!("{HEAD}{}{}", id("r := a"), id("r := a * 100")),
            "line 25: duplicate program \"Id\" (first defined at line 16)",
        ),
        (
            "syntax",
            format!("{HEAD}{}", id("r := := a")),
            "line 21, column 8: bad PITS program: expected an expression",
        ),
    ];
    let dir = std::env::temp_dir().join(format!("banger-cli-docerr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (sock, guard) = start_daemon("docerr", &dir);
    for (name, text, want) in documents {
        let path = dir.join(format!("{name}.bang"));
        std::fs::write(&path, text).unwrap();
        for connect in [vec![], vec!["--connect", sock.to_str().unwrap()]] {
            for verb in [vec!["check"], vec!["run", "-i", "a=2"]] {
                let out = banger()
                    .args(&connect)
                    .arg(verb[0])
                    .arg(&path)
                    .args(&verb[1..])
                    .output()
                    .unwrap();
                let err = String::from_utf8_lossy(&out.stderr);
                assert_eq!(out.status.code(), Some(1), "{verb:?} {connect:?}: {err}");
                assert!(err.contains(want), "{verb:?} {connect:?}: {err}");
                assert!(out.stdout.is_empty(), "{verb:?} {connect:?}");
            }
        }
    }
    stop_daemon(&sock, guard);
    std::fs::remove_dir_all(&dir).ok();
}

/// A device is refused by both modes before it is read: `check
/// /dev/zero` used to grow the process until the allocator failed, and
/// over the socket the OOM killer took the daemon from every client.
#[cfg(unix)]
#[test]
fn a_device_is_refused_in_both_modes() {
    let (sock, guard) = start_daemon("device", Path::new("."));
    for connect in [vec![], vec!["--connect", sock.to_str().unwrap()]] {
        let out = banger()
            .args(&connect)
            .args(["check", "/dev/zero"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{connect:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "banger: cannot read /dev/zero: not a regular file\n",
            "{connect:?}"
        );
        assert!(out.stdout.is_empty(), "{connect:?}");
    }
    let ping = banger()
        .args(["--connect", sock.to_str().unwrap(), "ping"])
        .output()
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&ping.stdout), "pong\n");
    stop_daemon(&sock, guard);
}

/// Runs the CLI under a 4 GB address-space limit, so a machine the
/// process cannot hold aborts it rather than filling the host.
#[cfg(unix)]
fn banger_capped(args: &[&str]) -> std::process::Output {
    banger_under(4_000_000, args)
}

/// `banger` under a virtual memory limit of `kib` KiB.
#[cfg(unix)]
fn banger_under(kib: u64, args: &[&str]) -> std::process::Output {
    capped(kib).args(args).output().unwrap()
}

/// A command that runs `banger` with the arguments added to it, under a
/// virtual memory limit of `kib` KiB.
#[cfg(unix)]
fn capped(kib: u64) -> Command {
    let mut sh = Command::new("sh");
    sh.arg("-c")
        .arg(format!("ulimit -v {kib}; exec \"$0\" \"$@\""))
        .arg(banger().get_program());
    sh
}

/// `check` describes an array by its length and never builds it: a
/// program that asks for `zeros(1e9)` (8 GB) is checked under a 2 GB
/// limit, in process and by a daemon started under the same limit, which
/// answers `ping` afterwards. The analysis used to run the builtin and
/// abort the process (exit 134), the daemon with it.
#[cfg(unix)]
#[test]
fn check_never_builds_the_arrays_a_program_asks_for() {
    const KIB: u64 = 2_000_000;
    let path = std::env::temp_dir().join(format!("banger-cli-zeros-{}.bang", std::process::id()));
    std::fs::write(
        &path,
        "project huge\n\nmachine single\nend\n\ndesign\n  storage y 1\n  task t 1 prog Huge\n  \
         arc t -> y\nend\n\nbegin-program\ntask Huge\n  out y\n  local a\nbegin\n  \
         a := zeros(1e9)\n  y := a[1]\nend\nend-program\n",
    )
    .unwrap();
    let file = path.to_str().unwrap();
    let local = banger_under(KIB, &["check", file]);
    let stderr = String::from_utf8_lossy(&local.stderr);
    assert!(matches!(local.status.code(), Some(0 | 1)), "{stderr}");

    let (sock, guard) = serve_as(capped(KIB), "zeros");
    let connect = ["--connect", sock.to_str().unwrap()];
    let remote = banger()
        .args(connect)
        .args(["check", file])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&remote.stderr);
    assert!(matches!(remote.status.code(), Some(0 | 1)), "{stderr}");
    assert!(!stderr.contains("running locally"), "{stderr}");
    assert_eq!(remote.stdout, local.stdout);
    let ping = banger().args(connect).arg("ping").output().unwrap();
    assert_eq!(String::from_utf8_lossy(&ping.stdout), "pong\n");
    stop_daemon(&sock, guard);
    std::fs::remove_file(&path).ok();
}

/// `speedup -t` builds each machine in the worker that schedules on it
/// and drops it with the run: sixty `linear:256` machines (about 22 MB
/// each) used to be built before the first run and aborted under a
/// 1.5 GB limit (exit 134). About 5 s in release, minutes in debug.
#[cfg(unix)]
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes in a debug build; CI runs it in release"
)]
fn speedup_over_many_large_machines_holds_few_at_once() {
    let topologies = vec!["linear:256"; 60].join(",");
    let args = ["speedup", "examples/projects/lu3.bang", "-t", &topologies];
    let out = banger_under(1_500_000, &args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let one = banger()
        .args(["speedup", "examples/projects/lu3.bang", "-t", "linear:256"])
        .output()
        .unwrap();
    let row = String::from_utf8_lossy(&one.stdout)
        .lines()
        .find(|l| l.contains("256 procs"))
        .expect("a row for the one machine")
        .to_string();
    assert_eq!(stdout.lines().filter(|l| *l == row).count(), 60, "{stdout}");
}

/// `run --trace` pinned to a schedule on 256 processors fires on the
/// process pool like every run, so it needs no more threads than a greedy
/// run: MH spreads this 2,009-task `dense_lu` over all 256 processors of
/// `linear:256`, and a thread per processor used to fail under a 1.5 GB
/// limit (exit 1, `cannot spawn worker 57`). About 2 s in release.
#[cfg(unix)]
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in a debug build; CI runs it in release"
)]
fn a_run_pinned_to_256_processors_fits_where_the_greedy_run_fits() {
    let expand = [
        "optimize",
        "examples/projects/dense_lu.bang",
        "--expand",
        "fact:16",
    ];
    let expanded = banger()
        .args(expand)
        .args(["--emit", "-"])
        .output()
        .unwrap();
    assert!(expanded.status.success());
    let doc = String::from_utf8(expanded.stdout).unwrap();
    let doc = doc.replacen("machine hypercube:4", "machine linear:256", 1);
    let path = std::env::temp_dir().join(format!("banger-cli-lu256-{}.bang", std::process::id()));
    let trace = path.with_extension("json");
    std::fs::write(&path, doc).unwrap();
    let inputs = std::fs::read_to_string("bench_all/inputs/dense_lu.inputs").unwrap();
    let mut args = vec!["run", path.to_str().unwrap()];
    for line in inputs.lines() {
        args.extend(["-i", line]);
    }
    let greedy = banger_under(1_500_000, &args);
    assert!(greedy.status.success(), "{greedy:?}");
    args.extend(["-H", "MH", "--trace", trace.to_str().unwrap()]);
    let pinned = banger_under(1_500_000, &args);
    let err = String::from_utf8_lossy(&pinned.stderr);
    assert_eq!(pinned.status.code(), Some(0), "{err}");
    // The trace has a row per processor, but its summary counts the
    // threads that played them.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = err
        .split_once(" workers at ")
        .and_then(|(head, _)| head.rsplit(' ').next()?.parse::<usize>().ok());
    assert!(err.contains("2009 task runs"), "{err}");
    assert!(threads.is_some_and(|n| (1..=cores).contains(&n)), "{err}");
    let chrome = std::fs::read_to_string(&trace).unwrap();
    assert!(chrome.contains("traceEvents"));
    assert!(chrome.contains("\"worker 255\""), "a row per processor");
    let lu = |out: &[u8]| {
        let out = String::from_utf8_lossy(out);
        out.lines()
            .find(|l| l.starts_with("lu = "))
            .map(str::to_string)
    };
    assert!(lu(&greedy.stdout).is_some());
    assert_eq!(lu(&pinned.stdout), lu(&greedy.stdout));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&trace).ok();
}

/// A machine of more processors than the cap is a diagnostic and exit 1,
/// whether a `machine` line, `speedup -t` or `recommend -p` asks for it:
/// each used to abort (exit 134) while building the routing table.
#[cfg(unix)]
#[test]
fn a_machine_beyond_the_processor_cap_is_refused() {
    let path = std::env::temp_dir().join("banger_cli_test_big_machine.bang");
    for spec in ["mesh:300x300", "hypercube:20", "tree:1000x10"] {
        let doc = format!("project big\nmachine {spec}\nend\ndesign\ntask t 1\nend\n");
        std::fs::write(&path, doc).unwrap();
        let out = banger_capped(&["check", path.to_str().unwrap()]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{spec}: {err}");
        assert!(
            err.contains("line 2: bad topology") && err.contains("more than 256 processors"),
            "{spec}: {err}"
        );
    }
    std::fs::remove_file(&path).ok();
    let lu = "examples/projects/lu3.bang";
    for (args, want) in [
        (
            ["recommend", lu, "-p", "1048576"],
            "processor budget must be at most 256",
        ),
        (
            ["speedup", lu, "-t", "single,hypercube:20"],
            "more than 256 processors",
        ),
    ] {
        let out = banger_capped(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(want), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// One frame of deeply nested JSON is refused with a `bad request`; it
/// does not overflow the stack of the thread that parses it, which
/// would take the daemon down for every client.
#[cfg(unix)]
#[test]
fn a_deeply_nested_frame_is_refused_not_fatal() {
    use banger::serve::protocol::{read_frame, write_frame};
    let (sock, guard) = start_daemon("nested", Path::new("."));
    let mut raw = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
    write_frame(&mut raw, "[".repeat(100_000).as_bytes()).unwrap();
    let frame = read_frame(&mut raw)
        .expect("the daemon answers")
        .expect("an answer, not a closed connection");
    let reply = parse_json(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    let error = reply.get("error").and_then(Json::as_str).unwrap();
    assert!(
        error.starts_with("bad request: nesting deeper than"),
        "{error}"
    );
    let ping = banger()
        .args(["--connect", sock.to_str().unwrap(), "ping"])
        .output()
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&ping.stdout), "pong\n");
    stop_daemon(&sock, guard);
}

/// A daemon resolves nothing against its own working directory: the
/// client sends the project path absolute and reads and writes the
/// other files itself.
#[cfg(unix)]
#[test]
fn connect_resolves_paths_in_the_clients_directory() {
    let elsewhere = std::env::temp_dir().join(format!("banger-cli-cwd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&elsewhere);
    std::fs::create_dir_all(&elsewhere).unwrap();
    let (sock, guard) = start_daemon("cwd", &elsewhere);
    let examples = std::fs::canonicalize("examples/projects").unwrap();
    let client = |args: &[&str]| {
        let out = banger().current_dir(&examples).args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let sock_arg = sock.to_str().unwrap();
    assert_eq!(
        client(&["--connect", sock_arg, "check", "heat_probe.bang"]),
        client(&["check", "heat_probe.bang"])
    );
    // Relative -o and -s are the client's too.
    let sched = format!("../../target/banger-cli-cwd-{}.sched", std::process::id());
    client(&[
        "--connect",
        sock_arg,
        "save-schedule",
        "heat_probe.bang",
        "-o",
        &sched,
    ]);
    assert!(examples.join(&sched).exists(), "the client wrote {sched}");
    let verified = client(&[
        "--connect",
        sock_arg,
        "verify",
        "heat_probe.bang",
        "-s",
        &sched,
    ]);
    assert!(verified.contains("VALID"), "{verified}");
    assert_eq!(files_under(&elsewhere).len(), 0, "the daemon wrote nothing");
    std::fs::remove_file(examples.join(&sched)).ok();
    stop_daemon(&sock, guard);
    std::fs::remove_dir_all(&elsewhere).ok();
}

/// Design warnings reach the user's stderr whichever process answered,
/// and stay out of the daemon's own log.
#[cfg(unix)]
#[test]
fn warnings_reach_the_clients_stderr_in_both_modes() {
    let (sock, guard) = start_daemon("warn", Path::new("."));
    for connect in [vec![], vec!["--connect", sock.to_str().unwrap()]] {
        let out = banger()
            .args(&connect)
            .args(["gantt", project_path(), "-H", "ETF"])
            .output()
            .unwrap();
        assert!(out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.matches("warning[B041]").count(),
            2,
            "{connect:?}: {stderr}"
        );
        assert!(
            stderr.contains("RelaxLower") && stderr.contains("RelaxUpper"),
            "{stderr}"
        );
    }
    let log = stop_daemon(&sock, guard);
    assert!(!log.contains("B041"), "daemon log: {log}");
}

/// Without a daemon, `--connect` falls back to local execution instead
/// of failing — the one reason it ever does.
#[cfg(unix)]
#[test]
fn connect_falls_back_to_local_without_a_daemon() {
    let sock =
        std::env::temp_dir().join(format!("banger-cli-fallback-{}.sock", std::process::id()));
    std::fs::remove_file(&sock).ok();
    let local = run_ok(&["gantt", project_path()]);
    let out = banger()
        .args(["--connect", sock.to_str().unwrap(), "gantt", project_path()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), local);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("running locally"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

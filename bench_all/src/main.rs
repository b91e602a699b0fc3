//! `bench_all` — one benchmark for Banger's edit → Gantt/answer loop.
//!
//! ```text
//! bench_all --workload NAME [--seed N] [--trace 0|1] [--quick] [--seconds S]
//! bench_all [--seed N] [--quick]                    every workload, both ways
//! bench_all aa [--sets N] [--seed N] [--quick]      the suite N times, compared
//! ```
//!
//! A single-workload run is what the driver starts, as
//! `<command of BENCHMARK.json> --workload NAME --seed N --seconds S
//! --trace 0|1`: it prints every metric by name on a line of its own and,
//! last, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. README.md has the tables; `../BENCHMARK.json` has them as
//! data, and `metrics.rs` reads them from there.

mod check;
mod daemon;
mod host;
mod inputs;
mod json;
mod metrics;
mod sched;
mod spans;
mod stats;
mod tiled;
mod workload;

use json::Json;
use metrics::{manifest, Layers};
use spans::Spans;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Counts, Ctx, Workload};

pub const DEFAULT_SEED: u64 = 1994;

/// Set-ups in one run; `setup_s` is their median. All but the measuring
/// process's own happen in child processes that set up and exit: a
/// set-up is then always a fresh process's, as the user's is, and the
/// measuring process's peak memory is that of one set-up and its ops.
const SETUPS: usize = 5;

struct Args {
    aa: bool,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    sets: usize,
    /// Set up, print the time it took, exit: what a run asks of its
    /// child processes.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        aa: false,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: manifest().run_seconds,
        trace: false,
        quick: false,
        sets: 2,
        setup_only: false,
    };
    let mut seconds = None;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|_| "--seconds takes a whole number")?,
                )
            }
            "--sets" => {
                args.sets = value("--sets")?
                    .parse()
                    .map_err(|_| "--sets takes a whole number")?
            }
            "--quick" => args.quick = true,
            "--setup-only" => args.setup_only = true,
            // `--trace` alone turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "aa" => args.aa = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // The run length is `run_seconds` of BENCHMARK.json, or one second
    // with `--quick`: the same code, for smoke tests. `--seconds` is the
    // driver's: its command line hands that same `run_seconds` over.
    if args.quick {
        args.seconds = 1;
    }
    if let Some(s) = seconds {
        args.seconds = s;
    }
    if args.seconds == 0 || args.sets == 0 {
        return Err("--seconds and --sets must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // fd 2 goes to a log during a run, so a panic must say so on stdout.
    std::panic::set_hook(Box::new(|info| println!("bench_all: error: {info}")));
    let outcome = parse_args().and_then(|args| match &args.workload {
        _ if args.aa => aa(&args),
        Some(name) => run_workload(name, &args).map(|r| {
            println!("{}", r.render());
            true
        }),
        None => suite(&args).map(|s| s.failed == 0),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            println!("bench_all: error: {e}");
            ExitCode::from(2)
        }
    }
}

// ------------------------------------------------------- one workload

fn set_up(name: &str, ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    std::fs::create_dir_all(&ctx.dir).map_err(|e| format!("create {}: {e}", ctx.dir.display()))?;
    let mut w: Box<dyn Workload> = match name {
        "daemon_warm" => Box::new(daemon::DaemonWarm::setup(ctx)),
        "daemon_edit" => Box::new(daemon::DaemonEdit::setup(ctx)),
        "pipeline_large" => Box::new(tiled::PipelineLarge::setup(ctx)),
        "sched_scale" => Box::new(sched::SchedScale::setup(ctx)),
        "exec_heavy" => Box::new(tiled::ExecHeavy::setup(ctx)),
        other => {
            return Err(format!(
                "unknown workload {other:?} (want one of {})",
                manifest().workloads.join(", ")
            ));
        }
    };
    // Warm-up ops end the set-up. A wrong output here will be wrong in
    // the measured ops too, and is counted there.
    let mut off = Spans::new(false);
    for i in 0..w.warmup_ops() {
        w.op(i, &mut off);
    }
    w.take_counts();
    Ok(w)
}

fn tear_down(w: Box<dyn Workload>, ctx: &Ctx) {
    w.finish();
    std::fs::remove_dir_all(&ctx.dir).ok();
}

/// Ops run, ops failed, and each op's latency in milliseconds.
#[derive(Default)]
struct Pass {
    latencies_ms: Vec<f64>,
    failed: u64,
}

impl Pass {
    fn record(&mut self, outcome: workload::OpOutcome) {
        self.latencies_ms.push(outcome.ns as f64 / 1e6);
        if let Some(e) = outcome.error {
            if self.failed < 3 {
                println!("failed op {}: {e}", self.latencies_ms.len() - 1);
            }
            self.failed += 1;
        }
    }
}

fn fixed_pass(w: &mut dyn Workload, ops: u64, spans: &mut Spans) -> (Pass, Counts) {
    let mut pass = Pass::default();
    for i in 0..ops {
        spans.set_op(Some(i));
        pass.record(w.op(i, spans));
    }
    spans.set_op(None);
    (pass, w.take_counts())
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn run_workload(name: &str, args: &Args) -> Result<Json, String> {
    let out = host::out_dir();
    let log_name = if args.setup_only { "setup-only" } else { name };
    let log = host::redirect_stderr(&out.join(format!("stderr-{log_name}.log")));
    let ctx = Ctx {
        seed: args.seed,
        dir: out.join(format!("tmp-{}", std::process::id())),
        workers: host::nproc().min(2),
        quick: args.quick,
    };

    let started = Instant::now();
    let mut w = set_up(name, &ctx)?;
    let own_setup_s = started.elapsed().as_secs_f64();
    if args.setup_only {
        tear_down(w, &ctx);
        return Ok(Json::Num(own_setup_s));
    }

    let (pass, metrics) = if args.trace {
        let traced = traced(name, w.as_mut(), args, &log, &out);
        tear_down(w, &ctx);
        let (pass, layers) = traced?;
        let metrics = layers
            .iter()
            .map(|(m, value)| {
                println!("{} = {value} {}", m.name, m.unit);
                (m.name.clone(), metric(value, &m.unit))
            })
            .collect();
        (pass, metrics)
    } else {
        let mut setup_s = vec![own_setup_s];
        for _ in 1..SETUPS {
            let r = child(name, args, &["--setup-only"])?;
            setup_s.push(r.as_f64().ok_or("a set-up child printed no time")?);
        }
        let mut pass = Pass::default();
        let mut host = stats::HostShare::default();
        let mut off = Spans::new(false);
        let window = Duration::from_secs(args.seconds);
        let started = Instant::now();
        while started.elapsed() < window {
            pass.record(w.op(pass.latencies_ms.len() as u64, &mut off));
            // The reference work: once after every op, and on until it
            // has had its share of the run so far.
            loop {
                host.probe();
                if host.spent_s() >= stats::PROBE_SHARE * started.elapsed().as_secs_f64() {
                    break;
                }
            }
        }
        let run_s = started.elapsed().as_secs_f64();
        tear_down(w, &ctx);
        let metrics = end_to_end(&pass, run_s, &host, &mut setup_s);
        (pass, metrics)
    };

    let attempted = pass.latencies_ms.len() as u64;
    println!(
        "failed_share = {} ratio ({} of {attempted})",
        pass.failed as f64 / attempted as f64,
        pass.failed
    );
    Ok(Json::obj([
        ("correct", Json::Bool(pass.failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(pass.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// The end-to-end metrics of a measured run, printed and as JSON. The
/// two timings are the whole run's, every op in them, multiplied by the
/// share of the run's time the host delivered (`stats::HostShare`); the
/// numbers as the clock gave them are printed beside them.
fn end_to_end(
    pass: &Pass,
    run_s: f64,
    host: &stats::HostShare,
    setup_s: &mut [f64],
) -> Vec<(String, Json)> {
    let mut sorted = pass.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (p50, per_s) = (stats::percentile(&sorted, 0.5), n as f64 / run_s);
    let beyond = stats::samples_beyond(n, 0.95);
    println!(
        "by the clock: n={n} in {run_s} s, p50 {p50} ms, p95 {} ms ({beyond} beyond{}), {per_s} ops/s",
        stats::percentile(&sorted, 0.95),
        if beyond < stats::MIN_BEYOND {
            ": too few, a slow op, not the tail"
        } else {
            ""
        },
    );
    let share = host.quiet_share();
    println!(
        "host.quiet_share = {share} ratio ({} runs of the reference work, {} s)",
        host.probes(),
        host.spent_s()
    );
    let scaled = format!("(n={n}, every op of the run; by the clock, scaled by the quiet share)");
    let values = [
        ("op_p50_ms", p50 * share, scaled.clone()),
        ("ops_per_s", per_s / share, scaled),
        (
            "setup_s",
            stats::median(setup_s),
            format!("(median of {SETUPS} set-ups, each in a fresh process)"),
        ),
        (
            "peak_rss_mb",
            host::peak_rss_mb(),
            "(VmHWM after the last op)".to_string(),
        ),
    ];
    manifest()
        .end_to_end
        .iter()
        .map(|m| {
            let (_, value, note) = values
                .iter()
                .find(|(name, ..)| *name == m.name)
                .unwrap_or_else(|| panic!("{} is not an end-to-end metric", m.name));
            println!("{} = {value} {} {note}", m.name, m.unit);
            (m.name.clone(), metric(*value, &m.unit))
        })
        .collect()
}

/// The traced run: a fixed number of ops, once untraced and twice with
/// spans on, then the layer probes. The counts of the two traced passes
/// must agree exactly.
fn traced(
    name: &str,
    w: &mut dyn Workload,
    args: &Args,
    log: &host::StderrLog,
    out: &Path,
) -> Result<(Pass, Layers), String> {
    let ops = ((w.traced_ops_per_second() * args.seconds as f64).round() as u64).max(4);
    let stderr_before = log.bytes();
    let (untraced, _) = fixed_pass(w, ops, &mut Spans::new(false));
    let stderr_per_op = (log.bytes() - stderr_before) as f64 / ops as f64;

    let mut spans = Spans::new(true);
    let (first, first_counts) = fixed_pass(w, ops, &mut spans);
    spans.clear();
    let (second, counts) = fixed_pass(w, ops, &mut spans);
    if first_counts != counts {
        let differing: Vec<String> = counts
            .iter()
            .filter(|(k, v)| first_counts.get(*k) != Some(v))
            .map(|(k, v)| format!("{k}: {:?} then {v}", first_counts.get(k)))
            .collect();
        return Err(format!(
            "counts differ between two traced passes of {ops} ops: {}",
            differing.join("; ")
        ));
    }

    let mut layers = Layers::new();
    for (&count, &value) in &counts {
        layers.set(count, value);
    }
    if let (Some(hits), Some(misses)) = (counts.get("serve.hits"), counts.get("serve.misses")) {
        layers.set("serve.hit_ratio", hits / (hits + misses));
    }
    let by_layer = spans.op_self_time_by_layer();
    let op_ns: u64 = by_layer.values().sum();
    println!("self time by layer over {ops} traced ops of {name}:");
    for (layer, ns) in &by_layer {
        println!(
            "  {layer:<10} {:>10.3} ms  {:>5.1} %",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / op_ns as f64
        );
    }
    for layer in manifest().share_layers() {
        let share = by_layer
            .get(layer)
            .map_or(0.0, |&ns| ns as f64 / op_ns as f64);
        layers.set(&format!("share.{layer}"), share);
    }
    layers.median_of(&spans, "harness.traced_op_ms", "harness.op", 1.0);
    layers.set("harness.traced_ops", ops as f64);
    let mut sorted = untraced.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let beyond = stats::samples_beyond(sorted.len(), 0.95);
    if beyond < stats::MIN_BEYOND {
        println!("harness.op_p95_ms has {beyond} samples beyond it: read it as a slow op, not as the tail");
    }
    let untraced_p50 = stats::percentile(&sorted, 0.5);
    layers.set("harness.op_p50_ms", untraced_p50);
    layers.set("harness.op_p95_ms", stats::percentile(&sorted, 0.95));
    layers.set(
        "harness.trace_overhead_share",
        stats::median(&mut second.latencies_ms.clone()) / untraced_p50 - 1.0,
    );
    layers.set("core.stderr_bytes", stderr_per_op);

    spans.set_op(None);
    w.probes(&mut spans, &mut layers);

    let chrome = spans.chrome_json();
    let path = out.join(format!("trace-{name}.json"));
    std::fs::write(&path, &chrome).map_err(|e| format!("write {}: {e}", path.display()))?;
    layers.set("trace.chrome_bytes", chrome.len() as f64);
    println!("{} spans written to {}", spans.all().len(), path.display());

    let mut all = untraced;
    for pass in [first, second] {
        all.latencies_ms.extend(pass.latencies_ms);
        all.failed += pass.failed;
    }
    Ok((all, layers))
}

// ------------------------------------------------------------- suites

/// `metrics[workload][metric]`, end-to-end and per-layer together.
struct SuiteResult {
    metrics: BTreeMap<String, BTreeMap<String, f64>>,
    failed: u64,
}

/// Runs one workload in a process of its own, so memory is the
/// workload's, forwards what it prints and returns the JSON value on its
/// last line.
fn child(name: &str, args: &Args, extra: &[&str]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(extra)
        .args(args.quick.then_some("--quick"))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if !report.is_empty() {
        println!("{report}");
    }
    if !output.status.success() {
        return Err(format!("{name} exited with {}: {last}", output.status));
    }
    json::parse(last).map_err(|e| format!("{name} printed no result: {e}"))
}

fn suite(args: &Args) -> Result<SuiteResult, String> {
    println!("{}", host::host_line());
    println!(
        "seed {}, {} s a run{}",
        args.seed,
        args.seconds,
        if args.quick {
            ", quick: not a source for BENCHMARK.json or README.md"
        } else {
            ""
        }
    );
    let mut result = SuiteResult {
        metrics: BTreeMap::new(),
        failed: 0,
    };
    for name in &manifest().workloads {
        for trace in [false, true] {
            println!(
                "\n== {name} {}",
                if trace { "(traced)" } else { "(end to end)" }
            );
            let r = child(name, args, &["--trace", if trace { "1" } else { "0" }])?;
            result.failed += r.get("failed").and_then(Json::as_f64).unwrap_or(1.0) as u64;
            if let Some(Json::Obj(pairs)) = r.get("metrics") {
                let slot = result.metrics.entry(name.clone()).or_default();
                for (name, m) in pairs {
                    slot.insert(
                        name.clone(),
                        m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    );
                }
            }
        }
    }
    let file = host::out_dir().join("result.json");
    let doc = Json::obj([
        ("quick", Json::Bool(args.quick)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("failed", Json::Num(result.failed as f64)),
        (
            "workloads",
            Json::Obj(
                result
                    .metrics
                    .iter()
                    .map(|(w, ms)| {
                        let ms = ms.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect();
                        (w.clone(), Json::Obj(ms))
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&file, doc.render() + "\n")
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    println!("\nsuite written to {}", file.display());
    Ok(result)
}

/// Counts that must be identical between two runs of one commit.
const EXACT: [&str; 10] = [
    "calc.vm_ops",
    "sched.arrival_probes",
    "sched.slot_searches",
    "sched.makespan",
    "taskgraph.tasks",
    "taskgraph.arcs",
    "exec.cow_copies",
    "serve.hits",
    "serve.misses",
    "serve.rebuilds",
];

/// In `aa`, `setup_s` may differ by the larger of its bound and this.
const SETUP_FLOOR_S: f64 = 0.05;

/// A/A: the suite `--sets` times on one build. Passes when every
/// workload × end-to-end metric agrees within its bound between the
/// first set and each later one, and every exact count is identical.
fn aa(args: &Args) -> Result<bool, String> {
    let mut sets = Vec::new();
    for k in 0..args.sets {
        println!("\n#### set {} of {}", k + 1, args.sets);
        sets.push(suite(args)?);
    }
    let mut ok = sets.iter().all(|s| s.failed == 0);
    println!(
        "\n{:<16} {:<14} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "first", "other", "gap", "bound"
    );
    let first = &sets[0];
    for other in &sets[1..] {
        for w in &manifest().workloads {
            let (a, b) = (&first.metrics[w], &other.metrics[w]);
            for m in &manifest().end_to_end {
                let (x, y) = (a[&m.name], b[&m.name]);
                let gap = (y - x).abs() / x;
                // A set-up of under 0.2 s moves by more than a quarter
                // from one set to the next; 0.05 s of it is no regression.
                let bound = if m.name == "setup_s" {
                    m.bound.max(SETUP_FLOOR_S / x)
                } else {
                    m.bound
                };
                let verdict = if gap <= bound { "" } else { "  EXCEEDS" };
                ok &= gap <= bound;
                println!(
                    "{w:<16} {:<14} {x:>12.4} {y:>12.4} {:>7.1}% {:>6.0}%{verdict}",
                    m.name,
                    100.0 * gap,
                    100.0 * bound
                );
            }
            for name in EXACT {
                if a[name] != b[name] {
                    ok = false;
                    println!(
                        "{w:<16} {name:<14} {:>12} {:>12}  COUNT DIFFERS",
                        a[name], b[name]
                    );
                }
            }
        }
    }
    println!("{}", if ok { "A/A passed" } else { "A/A FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two `[profile.release]` tables must say the same: the benchmark
    /// has to measure the code as the repository ships it.
    #[test]
    fn release_profile_is_the_repositorys() {
        let profile = |manifest: &str| -> Vec<String> {
            let text =
                std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(manifest))
                    .unwrap_or_else(|e| panic!("{manifest}: {e}"));
            text.lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .map(str::trim)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect()
        };
        let ours = profile("Cargo.toml");
        assert!(!ours.is_empty(), "no [profile.release] in Cargo.toml");
        assert_eq!(ours, profile("../Cargo.toml"));
    }

    /// Rewrites `golden/` from this build. By hand, when an input or a
    /// workload size changes; never to make a failing run pass.
    #[test]
    #[ignore = "rewrites the checked-in expected outputs"]
    fn regenerate_golden() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
        let ctx = Ctx {
            seed: DEFAULT_SEED,
            dir: host::out_dir().join(format!("tmp-{}-golden", std::process::id())),
            workers: host::nproc().min(2),
            quick: false,
        };
        std::fs::create_dir_all(&ctx.dir).unwrap();
        let (files, mut numbers) = daemon::golden_outputs();
        numbers.push_str(&tiled::golden_numbers(&ctx));
        numbers.push_str(&sched::golden_numbers(&ctx));
        std::fs::remove_dir_all(&ctx.dir).ok();
        for (name, text) in files.into_iter().chain([("expected.txt".into(), numbers)]) {
            std::fs::write(dir.join(&name), text)
                .unwrap_or_else(|e| panic!("write {}: {e}", name.display()));
        }
    }
}

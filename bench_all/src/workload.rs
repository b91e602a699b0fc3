//! What a workload is to the harness, and the layer probes workloads
//! share.

use crate::metrics::Layers;
use crate::spans::Spans;
use crate::stats;
use banger::Project;
use banger_calc::{InterpConfig, Value};
use banger_exec::{ExecMode, ExecOptions};
use banger_machine::{Machine, MachineParams, Topology};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;

pub type Inputs = BTreeMap<String, Value>;

/// Counts that must repeat exactly from one traced pass to the next.
pub type Counts = BTreeMap<&'static str, f64>;

/// What one set-up gets from the harness.
pub struct Ctx {
    pub seed: u64,
    /// A fresh directory of this set-up's own; the harness removes it.
    pub dir: PathBuf,
    /// `min(nproc, 2)`: executor workers, and the most threads that may
    /// be busy generating load.
    pub workers: usize,
    /// Shrinks the layer probes' inputs; the ops stay as they are.
    pub quick: bool,
}

pub struct OpOutcome {
    /// What the user waited for, in nanoseconds.
    pub ns: u64,
    /// Why the op counts as failed: an error, a refusal, an unexpected
    /// exit code, or output that differs from the expected output.
    pub error: Option<String>,
}

pub trait Workload {
    /// Ops run and discarded at the end of set-up.
    fn warmup_ops(&self) -> u64;

    /// Ops in one traced pass, for each second of `--seconds`.
    fn traced_ops_per_second(&self) -> f64;

    /// Runs op `i` of a pass. The op is timed and wrapped in spans here;
    /// its outputs are checked after the clock has stopped.
    fn op(&mut self, i: u64, spans: &mut Spans) -> OpOutcome;

    /// The exact counts gathered since the last call.
    fn take_counts(&mut self) -> Counts;

    /// Times the layers under this workload from outside, on its own
    /// inputs, and fills in the per-layer metrics its spans give.
    fn probes(&mut self, spans: &mut Spans, layers: &mut Layers);

    /// Stops what set-up started.
    fn finish(self: Box<Self>);
}

/// Adds `v` to the count called `name`.
pub fn add_count(counts: &mut Counts, name: &'static str, v: f64) {
    *counts.entry(name).or_insert(0.0) += v;
}

pub fn greedy(workers: usize, trace: bool) -> ExecOptions {
    ExecOptions {
        mode: ExecMode::Greedy { workers },
        trace,
        ..ExecOptions::default()
    }
}

/// Fails the op unless `got == want`.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: T,
    want: T,
) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        let (got, want) = (format!("{got:?}"), format!("{want:?}"));
        let clip = |s: &str| s.chars().take(120).collect::<String>();
        Err(format!("{what}: got {}, want {}", clip(&got), clip(&want)))
    }
}

/// The PITS sources between `begin-program` and `end-program` lines.
pub fn program_sources(doc: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current: Option<String> = None;
    for line in doc.lines() {
        match line.trim() {
            "begin-program" => current = Some(String::new()),
            "end-program" => out.extend(current.take()),
            _ => {
                if let Some(src) = current.as_mut() {
                    src.push_str(line);
                    src.push('\n');
                }
            }
        }
    }
    out
}

const PROBE_REPS: usize = 5;

/// Building the machine a project names, `hypercube:dim`: inside
/// `parse_project`, timed here alone.
pub fn machine_probe(dim: u32, spans: &mut Spans, layers: &mut Layers) {
    for _ in 0..20 {
        spans.time("machine.build", || {
            black_box(Machine::new(
                Topology::hypercube(dim),
                MachineParams::default(),
            ))
        });
    }
    layers.median_of(spans, "machine.build_us", "machine.build", 1e3);
}

/// `calc` and `analyze::absint` over every program of `doc`, each timed
/// as one span per sweep: what `parse_project` and `diagnose` spend in
/// them, seen from outside.
pub fn calc_probes(doc: &str, spans: &mut Spans, layers: &mut Layers) {
    let sources = program_sources(doc);
    for _ in 0..PROBE_REPS {
        let programs = spans.time("calc.parse_program", || {
            sources
                .iter()
                .map(|s| {
                    banger_calc::parse_program(s).expect("a program of a checked document parses")
                })
                .collect::<Vec<_>>()
        });
        spans.time("calc.compile", || {
            for p in &programs {
                black_box(banger_calc::compile(p));
            }
        });
        spans.time("analyze.absint", || {
            for p in &programs {
                black_box(banger_calc::analyze(p));
            }
        });
    }
    layers.median_of(spans, "calc.parse_program_us", "calc.parse_program", 1e3);
    layers.median_of(spans, "calc.compile_us", "calc.compile", 1e3);
    layers.median_of(spans, "analyze.absint_ms", "analyze.absint", 1.0);
}

/// Runs one compiled program alone on a fresh VM frame: the VM's cost
/// per operation without executor or routing around it.
pub fn vm_probe(source: &str, inputs: &Inputs, spans: &mut Spans, layers: &mut Layers) {
    let program = banger_calc::parse_program(source).expect("the probe program parses");
    let compiled = banger_calc::compile(&program);
    let config = InterpConfig {
        max_steps: 1_000_000_000,
        ..InterpConfig::default()
    };
    let mut ops = 0;
    for _ in 0..PROBE_REPS {
        ops = spans.time("calc.vm_run", || {
            banger_calc::run_compiled(&compiled, inputs, config)
                .expect("the probe program runs")
                .ops
        });
    }
    let ms = stats::median(&mut spans.durations_ms("calc.vm_run"));
    layers.set("calc.vm_ns_per_op", ms * 1e6 / ops as f64);
}

/// The executor under `project` from outside, on `workers` workers: bind,
/// cold execute, warm firing, and traced warm firings for the executor's
/// own summary. The spans are `exec.probe_*`, names no op uses, so a
/// median taken here holds no op's span: `exec_heavy` fires on one worker
/// in its ops and on `workers` here.
pub fn exec_probes(
    project: &mut Project,
    inputs: &Inputs,
    workers: usize,
    spans: &mut Spans,
    layers: &mut Layers,
) {
    for _ in 0..3 {
        spans.time("exec.probe_cold_run", || {
            black_box(
                project
                    .run_with(inputs, &greedy(workers, false))
                    .expect("cold run"),
            );
        });
    }
    let mut session = None;
    for _ in 0..3 {
        session = Some(spans.time("exec.probe_bind", || {
            project
                .session(&greedy(workers, false))
                .expect("bind a session")
        }));
    }
    let mut session = session.expect("bound above");
    session.run(inputs).expect("warm the pool");
    let mut tasks = 0;
    for _ in 0..PROBE_REPS {
        tasks = spans.time("exec.probe_warm_fire", || {
            session.run(inputs).expect("warm firing").runs.len()
        });
    }
    drop(session);

    let mut traced = project
        .session(&greedy(workers, true))
        .expect("bind a traced session");
    traced.run(inputs).expect("warm the traced pool");
    let mut reports = Vec::new();
    for _ in 0..PROBE_REPS {
        reports.push(spans.time("exec.probe_traced_fire", || {
            traced.run(inputs).expect("traced firing")
        }));
    }
    // The steadiest firing stands for the steady state, as in BENCH_exec.
    let report = reports
        .iter()
        .min_by_key(|r| r.wall)
        .expect("PROBE_REPS > 0");
    let trace = report
        .trace
        .as_ref()
        .expect("a traced firing records a trace");
    let s = trace.summary();

    layers.median_of(spans, "exec.cold_execute_ms", "exec.probe_cold_run", 1.0);
    layers.median_of(spans, "exec.bind_us", "exec.probe_bind", 1e3);
    let warm_ms = layers.median_of(spans, "exec.warm_fire_ms", "exec.probe_warm_fire", 1.0);
    let traced_ms = stats::median(&mut spans.durations_ms("exec.probe_traced_fire"));
    layers.set("exec.tasks", tasks as f64);
    layers.set("exec.workers", s.workers as f64);
    layers.set("exec.tasks_per_s", tasks as f64 / (warm_ms / 1e3));
    layers.set("exec.utilization", s.utilization());
    layers.set("exec.queue_wait_us", s.queue_wait.as_secs_f64() * 1e6);
    layers.set("exec.steals", s.steals as f64);
    layers.set("exec.inline_tasks", s.inline_tasks as f64);
    layers.set("exec.cow_copies", s.cow_copies as f64);
    layers.set("exec.cow_bytes", s.cow_bytes as f64);
    layers.set("exec.input_bytes", s.bytes_in as f64);
    layers.set("trace.overhead_share", traced_ms / warm_ms - 1.0);
    layers.set("trace.events", trace.events.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_sources_are_what_parse_project_hands_to_calc() {
        for p in &crate::inputs::PROJECTS {
            let sources = program_sources(p.text);
            let project = banger::parse_project(p.text).unwrap();
            assert_eq!(sources.len(), project.library().len(), "{}", p.name);
            for s in &sources {
                banger_calc::parse_program(s).unwrap();
            }
        }
    }
}

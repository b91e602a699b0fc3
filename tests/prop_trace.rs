//! Tracing transparency property suite.
//!
//! Turning [`ExecOptions::trace`] on must be *observationally free*: a
//! traced run's outputs, prints, and measured task weights are
//! byte-identical to the same run untraced, in every dispatch mode.
//! The recorded trace itself must be internally consistent — its spans
//! are the report's runs field by field, its only other events are queue
//! waits and dispatch counters, workers are within range, and summary
//! counters reconcile with the report.

use banger_calc::ProgramLibrary;
use banger_exec::{
    execute, ExecMode, ExecOptions, ExecReport, Session, TaskRun, Trace, TraceEvent,
    DEFAULT_INLINE_BELOW,
};
use banger_machine::{Machine, MachineParams, Topology};
use banger_taskgraph::hierarchy::{Flattened, HierGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

#[path = "support/pool.rs"]
mod pool;

/// Random layered design mixing scalar sums with array traffic (the
/// `fill`/index-write tasks force CoW copies so the trace's byte
/// counters see real work). Task `t{l}_{w}` computes `1 + sum(inputs)`.
fn build(seed: u64, layers: usize, width: usize) -> (Flattened, ProgramLibrary) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = HierGraph::new("traced");
    let mut lib = ProgramLibrary::new();
    let mut prev: Vec<(banger_taskgraph::HierNodeId, String)> = Vec::new();

    for l in 0..layers {
        let mut cur = Vec::with_capacity(width);
        for w in 0..width {
            let out_var = format!("o{l}_{w}");
            let node = h.add_task_with_program(format!("t{l}_{w}"), 1.0, format!("P{l}_{w}"));
            let mut ins: Vec<String> = Vec::new();
            if l > 0 {
                for (pn, pv) in &prev {
                    if rng.gen_bool(0.5) || (ins.is_empty() && *pn == prev.last().unwrap().0) {
                        h.add_arc(*pn, node, pv.clone(), 1.0).unwrap();
                        ins.push(pv.clone());
                    }
                }
            }
            // Sources push an array through an index write, forcing a
            // CoW unshare on every downstream aliased read; interior
            // tasks read the first element of each (array) input.
            let stmt = if ins.is_empty() {
                format!("{out_var} := fill(8, {}) {out_var}[1] := 2", l + w + 1)
            } else {
                format!("{out_var} := fill(4, 1 + {}[1])", ins.join("[1] + "))
            };
            lib.add_source(&format!(
                "task P{l}_{w} {} out {out_var} begin {stmt} end",
                if ins.is_empty() {
                    String::new()
                } else {
                    format!("in {}", ins.join(", "))
                },
            ))
            .unwrap();
            cur.push((node, out_var));
        }
        prev = cur;
    }

    let gather = h.add_task_with_program("gather", 1.0, "Gather");
    let sink = h.add_storage("result", 1.0);
    h.add_flow(gather, sink).unwrap();
    let mut ins = Vec::new();
    for (pn, pv) in &prev {
        h.add_arc(*pn, gather, pv.clone(), 1.0).unwrap();
        ins.push(pv.clone());
    }
    lib.add_source(&format!(
        "task Gather in {} out result begin result := {} end",
        ins.join(", "),
        ins.join("[1] + ") + "[1]"
    ))
    .unwrap();

    (h.flatten().unwrap(), lib)
}

fn run(
    design: &Flattened,
    lib: &ProgramLibrary,
    mode: ExecMode,
    inline_below: f64,
    trace: bool,
) -> ExecReport {
    execute(
        design,
        lib,
        &BTreeMap::new(),
        &ExecOptions {
            mode,
            inline_below,
            trace,
            ..ExecOptions::default()
        },
    )
    .expect("run succeeds")
}

/// The trace records each task copy once, as the report does: sorted,
/// its spans are the report's runs field by field, and every other event
/// is a queue wait or a worker's dispatch counters.
fn spans_are_runs(trace: &Trace, runs: &[TaskRun]) -> Result<(), TestCaseError> {
    let key = |r: &TaskRun| (r.finish, r.task, r.worker, r.start, r.ops);
    let mut spans = trace.spans();
    spans.sort_by_key(key);
    let mut sorted = runs.to_vec();
    sorted.sort_by_key(key);
    prop_assert_eq!(spans, sorted);
    let finishes = trace.events.iter().filter(|e| match e {
        TraceEvent::TaskFinish { .. } => true,
        TraceEvent::QueueWait { .. } | TraceEvent::WorkerStats { .. } => false,
    });
    prop_assert_eq!(finishes.count(), runs.len());
    Ok(())
}

/// Dispatch variants: greedy with the default inline threshold (these
/// weight-1.0 tasks all run on the private inline stack), greedy with
/// inlining disabled (every task travels the stealable deque path), and
/// the pinned schedule with inlining disabled (otherwise no task is
/// worth a helper, and one thread plays every processor).
fn modes(design: &Flattened, workers: usize) -> Vec<(ExecMode, f64)> {
    let m = Machine::new(Topology::fully_connected(workers), MachineParams::default());
    vec![
        (ExecMode::Greedy { workers }, DEFAULT_INLINE_BELOW),
        (ExecMode::Greedy { workers }, 0.0),
        (
            ExecMode::pinned(banger_sched::list::etf(&design.graph, &m)),
            0.0,
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn traced_runs_are_observationally_identical(
        seed in 0u64..500,
        layers in 2usize..5,
        width in 1usize..5,
        workers in 1usize..5,
    ) {
        let _turn = pool::turn();
        let (design, lib) = build(seed, layers, width);
        let n = design.graph.task_count();
        for (mode, inline_below) in modes(&design, workers) {
            let plain = run(&design, &lib, mode.clone(), inline_below, false);
            let traced = run(&design, &lib, mode.clone(), inline_below, true);

            // The observable contract: byte-identical outputs, prints,
            // and measured weights.
            prop_assert_eq!(
                format!("{:?}", plain.outputs),
                format!("{:?}", traced.outputs)
            );
            prop_assert_eq!(&plain.prints, &traced.prints);
            prop_assert_eq!(plain.measured_weights(n), traced.measured_weights(n));
            prop_assert!(plain.trace.is_none());

            // Trace self-consistency.
            let trace = traced.trace.as_ref().expect("traced run records events");
            spans_are_runs(trace, &traced.runs)?;
            let spans = trace.spans();
            for sp in &spans {
                prop_assert!(sp.worker < trace.workers);
                prop_assert!(sp.start <= sp.finish);
            }
            let summary = trace.summary();
            prop_assert_eq!(summary.tasks, traced.runs.len());
            prop_assert_eq!(
                summary.ops,
                traced.runs.iter().map(|r| r.ops).sum::<u64>()
            );
            // Dispatch counters reconcile with the threshold: with
            // inlining disabled every task is deque-dispatched; with the
            // default threshold these weight-1.0 tasks never leave the
            // private inline stacks, so nothing is there to steal.
            // That holds for every worker count: `workers: 1` is a firing
            // with no helper on the same loop, not a separate path.
            if matches!(mode, ExecMode::Greedy { .. }) {
                if inline_below == 0.0 {
                    prop_assert_eq!(summary.inline_tasks, 0);
                } else {
                    prop_assert_eq!(summary.inline_tasks as usize, summary.tasks);
                    prop_assert_eq!(summary.steals, 0);
                }
            }
            prop_assert!((summary.inline_tasks as usize) <= summary.tasks);
            // The observed schedule replays every span onto its worker.
            let observed = trace.observed_schedule(n);
            prop_assert_eq!(observed.placements().len(), spans.len());
        }
    }

    #[test]
    fn traced_session_firings_are_observationally_identical(
        seed in 0u64..200,
        layers in 2usize..4,
        width in 1usize..4,
        workers in 1usize..5,
    ) {
        let _turn = pool::turn();
        // Tracing must stay observationally free under the persistent
        // executor too, where deques, Vm frames and the slab store
        // survive across firings.
        let (design, lib) = build(seed, layers, width);
        let n = design.graph.task_count();
        for inline_below in [DEFAULT_INLINE_BELOW, 0.0] {
            let opts = |trace| ExecOptions {
                mode: ExecMode::Greedy { workers },
                inline_below,
                trace,
                ..ExecOptions::default()
            };
            let mut plain = Session::new(&design, &lib, &opts(false)).unwrap();
            let mut traced = Session::new(&design, &lib, &opts(true)).unwrap();
            for _ in 0..3 {
                let p = plain.run(&BTreeMap::new()).unwrap();
                let t = traced.run(&BTreeMap::new()).unwrap();
                prop_assert_eq!(format!("{:?}", p.outputs), format!("{:?}", t.outputs));
                prop_assert_eq!(&p.prints, &t.prints);
                prop_assert_eq!(p.measured_weights(n), t.measured_weights(n));
                prop_assert!(p.trace.is_none());

                let trace = t.trace.as_ref().expect("traced firing records events");
                spans_are_runs(trace, &t.runs)?;
                for sp in &trace.spans() {
                    prop_assert!(sp.worker < trace.workers);
                }
                let summary = trace.summary();
                prop_assert_eq!(summary.tasks, t.runs.len());
                if inline_below == 0.0 {
                    prop_assert_eq!(summary.inline_tasks, 0);
                } else {
                    prop_assert_eq!(summary.inline_tasks as usize, summary.tasks);
                }
            }
        }
    }
}

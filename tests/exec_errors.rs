//! Executor error-path integration tests at scale.
//!
//! A worker panic must surface as an attributed [`ExecError::WorkerPanic`]
//! naming the offending task — never crash the test process, never hang
//! the coordinator, and never leave the run deadlocked with work
//! outstanding — in both dispatch modes (greedy pools of one to eight
//! workers, pinned).
//! The panics are injected with the `ExecOptions::inject_panic` test hook
//! so the fault fires inside a worker thread's task body, exactly where a
//! buggy PITS builtin or a poisoned lock would.

use banger_calc::{ProgramLibrary, Value};
use banger_exec::{execute, ExecError, ExecMode, ExecOptions, Session, DEFAULT_INLINE_BELOW};
use banger_machine::{Machine, MachineParams, Topology};
use banger_taskgraph::hierarchy::{Flattened, HierGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

#[path = "support/pool.rs"]
mod pool;

/// Random layered design where task `t{l}_{w}` computes `1 + sum(inputs)`,
/// gathered into a `result` port (same shape as `tests/exec_stress.rs`).
fn build(seed: u64, layers: usize, width: usize) -> (Flattened, ProgramLibrary, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = HierGraph::new("errs");
    let mut lib = ProgramLibrary::new();
    let mut prev: Vec<(banger_taskgraph::HierNodeId, String)> = Vec::new();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();

    for l in 0..layers {
        let mut cur = Vec::with_capacity(width);
        for w in 0..width {
            let out_var = format!("o{l}_{w}");
            let node = h.add_task_with_program(format!("t{l}_{w}"), 1.0, format!("P{l}_{w}"));
            let mut ins: Vec<String> = Vec::new();
            if l > 0 {
                for (pn, pv) in &prev {
                    if rng.gen_bool(0.4) || (ins.is_empty() && *pn == prev.last().unwrap().0) {
                        h.add_arc(*pn, node, pv.clone(), 1.0).unwrap();
                        ins.push(pv.clone());
                    }
                }
            }
            let body_sum = if ins.is_empty() {
                String::from("1")
            } else {
                format!("1 + {}", ins.join(" + "))
            };
            lib.add_source(&format!(
                "task P{l}_{w} {} out {out_var} begin {out_var} := {body_sum} end",
                if ins.is_empty() {
                    String::new()
                } else {
                    format!("in {}", ins.join(", "))
                },
            ))
            .unwrap();
            let v = 1.0 + ins.iter().map(|i| values[i]).sum::<f64>();
            values.insert(out_var.clone(), v);
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
        ins.join(" + ")
    ))
    .unwrap();
    let expected: f64 = ins.iter().map(|i| values[i]).sum();

    (h.flatten().unwrap(), lib, expected)
}

/// The options of each mode: greedy with the default inline threshold,
/// and pinned with every task stealable, so that its processors get
/// threads.
fn all_modes(design: &Flattened) -> Vec<(&'static str, ExecOptions)> {
    let m = Machine::new(Topology::fully_connected(4), MachineParams::default());
    let pinned = banger_sched::list::etf(&design.graph, &m);
    let greedy = |workers| ExecOptions {
        mode: ExecMode::Greedy { workers },
        ..ExecOptions::default()
    };
    vec![
        ("greedy-1", greedy(1)),
        ("greedy-4", greedy(4)),
        ("greedy-8", greedy(8)),
        (
            "pinned",
            ExecOptions {
                mode: ExecMode::pinned(pinned),
                inline_below: 0.0,
                ..ExecOptions::default()
            },
        ),
    ]
}

#[test]
fn injected_panic_is_attributed_in_every_mode() {
    let _turn = pool::turn();
    let (design, lib, _) = build(3, 6, 8);
    // A mid-graph task: predecessors have completed, successors are
    // still outstanding when the panic fires.
    let victim = "t3_4";
    for (label, opts) in all_modes(&design) {
        let err = execute(
            &design,
            &lib,
            &BTreeMap::new(),
            &ExecOptions {
                inject_panic: Some(victim.to_string()),
                ..opts
            },
        )
        .expect_err("injected panic must fail the run");
        match err {
            ExecError::WorkerPanic { task, message } => {
                assert_eq!(task, victim, "mode {label}");
                assert!(
                    message.contains("injected fault"),
                    "mode {label}: panic payload lost: {message}"
                );
            }
            other => panic!("mode {label}: expected WorkerPanic, got {other}"),
        }
    }
}

#[test]
fn panic_with_outstanding_fan_out_never_crashes_or_hangs() {
    // Panic the very first task of a wide graph: everything else is
    // outstanding, so the coordinator must unwind dozens of queued and
    // in-flight tasks without its old `expect("workers alive")` crash.
    for seed in 0..10u64 {
        let (design, lib, _) = build(seed, 4, 16);
        for workers in [2usize, 4, 8] {
            let err = execute(
                &design,
                &lib,
                &BTreeMap::new(),
                &ExecOptions {
                    mode: ExecMode::Greedy { workers },
                    inject_panic: Some("t0_0".to_string()),
                    ..ExecOptions::default()
                },
            )
            .expect_err("injected panic must fail the run");
            assert!(
                matches!(
                    err,
                    ExecError::WorkerPanic { .. } | ExecError::WorkerLost(_)
                ),
                "seed {seed} workers {workers}: unexpected error {err}"
            );
        }
    }
}

#[test]
fn runtime_error_is_attributed_not_panicked() {
    let _turn = pool::turn();
    // A genuine PITS runtime error (out-of-range index) inside a large
    // run must come back as ExecError::Run naming the task, through the
    // same poisoned-store unwind as a panic.
    let mut h = HierGraph::new("bad-index");
    let mut lib = ProgramLibrary::new();
    let ok = h.add_task_with_program("fine", 1.0, "Fine");
    let bad = h.add_task_with_program("oops", 1.0, "Oops");
    h.add_arc(ok, bad, "v", 4.0).unwrap();
    lib.add_source("task Fine out v begin v := fill(4, 1) end")
        .unwrap();
    lib.add_source("task Oops in v out r begin r := v[99] end")
        .unwrap();
    let design = h.flatten().unwrap();

    for (label, opts) in all_modes(&design) {
        let err = execute(&design, &lib, &BTreeMap::new(), &opts)
            .expect_err("out-of-range index must fail the run");
        match err {
            ExecError::Run { task, .. } => assert_eq!(task, "oops", "mode {label}"),
            other => panic!("mode {label}: expected Run error, got {other}"),
        }
    }
}

#[test]
fn executor_recovers_after_a_failed_run() {
    // The same design executes correctly right after a panicked run:
    // no global state (thread-locals, poisoned locks) leaks across runs.
    let (design, lib, expected) = build(21, 5, 8);
    for workers in [1usize, 4] {
        let opts = ExecOptions {
            mode: ExecMode::Greedy { workers },
            inject_panic: Some("t2_3".to_string()),
            ..ExecOptions::default()
        };
        execute(&design, &lib, &BTreeMap::new(), &opts).expect_err("injected panic");
        let clean = ExecOptions {
            mode: ExecMode::Greedy { workers },
            ..ExecOptions::default()
        };
        let report = execute(&design, &lib, &BTreeMap::new(), &clean)
            .unwrap_or_else(|e| panic!("workers={workers}: clean rerun failed: {e}"));
        assert_eq!(report.outputs["result"], Value::Num(expected));
    }
}

/// Work-stealing dispatch thresholds: `inline_below: 0.0` forces every
/// task (all weight 1.0 here) through the stealable Chase–Lev deques;
/// the default threshold routes them through each worker's private
/// inline stack instead. Fault paths must behave identically on both.
fn ws_thresholds() -> [(&'static str, f64); 2] {
    [("deque", 0.0), ("inline-stack", DEFAULT_INLINE_BELOW)]
}

#[test]
fn injected_panic_is_attributed_under_forced_stealing() {
    let _turn = pool::turn();
    // Same contract as `injected_panic_is_attributed_in_every_mode`, but
    // with inlining disabled so the victim task travels the deque/steal
    // path — the panic unwinds inside whichever worker stole it, and the
    // attribution must still name the task, not the thief.
    let (design, lib, _) = build(3, 6, 8);
    let victim = "t3_4";
    for (label, inline_below) in ws_thresholds() {
        for workers in [2usize, 4, 8] {
            let err = execute(
                &design,
                &lib,
                &BTreeMap::new(),
                &ExecOptions {
                    mode: ExecMode::Greedy { workers },
                    inline_below,
                    inject_panic: Some(victim.to_string()),
                    ..ExecOptions::default()
                },
            )
            .expect_err("injected panic must fail the run");
            match err {
                ExecError::WorkerPanic { task, message } => {
                    assert_eq!(task, victim, "{label} workers={workers}");
                    assert!(
                        message.contains("injected fault"),
                        "{label} workers={workers}: panic payload lost: {message}"
                    );
                }
                other => panic!("{label} workers={workers}: expected WorkerPanic, got {other}"),
            }
        }
    }
}

#[test]
fn worker_death_with_stolen_work_in_flight_is_worker_lost_never_a_hang() {
    let _turn = pool::turn();
    // A helper lost from its firing mid-run — while other workers
    // still hold work stolen from its deque — must surface as
    // ExecError::WorkerLost, not deadlock the remaining workers at the
    // end-of-run rendezvous. The test completing at all is the no-hang
    // assertion.
    for seed in 0..6u64 {
        let (design, lib, _) = build(seed, 4, 12);
        for (label, inline_below) in ws_thresholds() {
            for workers in [2usize, 4, 8] {
                let err = execute(
                    &design,
                    &lib,
                    &BTreeMap::new(),
                    &ExecOptions {
                        mode: ExecMode::Greedy { workers },
                        inline_below,
                        inject_worker_death: Some("t1_1".to_string()),
                        ..ExecOptions::default()
                    },
                )
                .expect_err("dead worker must fail the run");
                assert!(
                    matches!(err, ExecError::WorkerLost(_)),
                    "{label} seed {seed} workers {workers}: expected WorkerLost, got {err}"
                );
            }
        }
    }
}

#[test]
fn worker_death_is_worker_lost_even_when_the_worker_cannot_die() {
    let _turn = pool::turn();
    // A one-worker greedy run has no helper to lose, and a pinned worker
    // dies as the processor it plays: in both, as for helpers, the worker
    // that dequeues the victim stops participating and the run is
    // WorkerLost naming it — the injection is never ignored.
    let (design, lib, _) = build(5, 4, 6);
    for (label, opts) in all_modes(&design) {
        if matches!(opts.mode, ExecMode::Greedy { workers } if workers > 1) {
            continue; // covered, with helpers lost mid-run, above
        }
        let err = execute(
            &design,
            &lib,
            &BTreeMap::new(),
            &ExecOptions {
                inject_worker_death: Some("t1_1".to_string()),
                ..opts
            },
        )
        .expect_err("lost worker must fail the run");
        assert!(
            matches!(err, ExecError::WorkerLost(ref m) if m.contains("t1_1")),
            "mode {label}: expected WorkerLost, got {err}"
        );
    }
}

#[test]
fn session_surfaces_faults_per_firing_and_stays_usable() {
    let _turn = pool::turn();
    // A persistent Session built with a fault injected fails every
    // firing with the attributed error — the poisoned store and leftover
    // deque items from one firing must not wedge or corrupt the next —
    // and a clean session over the same design still computes the
    // expected result afterwards.
    let (design, lib, expected) = build(21, 5, 8);
    for (label, inline_below) in ws_thresholds() {
        let mut faulty = Session::new(
            &design,
            &lib,
            &ExecOptions {
                mode: ExecMode::Greedy { workers: 4 },
                inline_below,
                inject_panic: Some("t2_3".to_string()),
                ..ExecOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{label}: session open failed: {e}"));
        for firing in 0..2 {
            let err = faulty
                .run(&BTreeMap::new())
                .expect_err("injected panic must fail every firing");
            match err {
                ExecError::WorkerPanic { task, .. } => {
                    assert_eq!(task, "t2_3", "{label} firing {firing}")
                }
                other => panic!("{label} firing {firing}: expected WorkerPanic, got {other}"),
            }
        }
        drop(faulty);

        let mut clean = Session::new(
            &design,
            &lib,
            &ExecOptions {
                mode: ExecMode::Greedy { workers: 4 },
                inline_below,
                ..ExecOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{label}: clean session open failed: {e}"));
        for firing in 0..2 {
            let report = clean
                .run(&BTreeMap::new())
                .unwrap_or_else(|e| panic!("{label} firing {firing}: clean firing failed: {e}"));
            assert_eq!(report.outputs["result"], Value::Num(expected));
        }
    }
}

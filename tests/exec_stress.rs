//! Executor stress: a few hundred auto-generated tasks with real dataflow,
//! run across worker counts and dispatch modes, checked against a
//! sequential reference evaluation. Exercises the dependence-counting
//! dispatcher, the results store, and value passing under contention.
//! Every task weighs 1 op, below `DEFAULT_INLINE_BELOW`, so every case
//! sets `inline_below: 0.0`: otherwise no task is stealable and a
//! firing, greedy or pinned, never has a helper.

use banger_calc::{ProgramLibrary, Value};
use banger_exec::{execute, ExecMode, ExecOptions};
use banger_machine::{Machine, MachineParams, Topology};
use banger_taskgraph::hierarchy::{Flattened, HierGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

#[path = "support/pool.rs"]
mod pool;

/// Builds a random layered design where task `t` computes
/// `o_t = 1 + sum(inputs)`, plus a final gather into the `result` port.
/// Returns the design and the expected final value.
fn build(seed: u64, layers: usize, width: usize) -> (Flattened, ProgramLibrary, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = HierGraph::new("stress");
    let mut lib = ProgramLibrary::new();
    let mut prev: Vec<(banger_taskgraph::HierNodeId, String)> = Vec::new();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();

    for l in 0..layers {
        let mut cur = Vec::with_capacity(width);
        for w in 0..width {
            let out_var = format!("o{l}_{w}");
            let node = h.add_task_with_program(format!("t{l}_{w}"), 1.0, format!("P{l}_{w}"));
            // Wire to a random subset of the previous layer.
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
            // Reference value.
            let v = 1.0 + ins.iter().map(|i| values[i]).sum::<f64>();
            values.insert(out_var.clone(), v);
            cur.push((node, out_var));
        }
        prev = cur;
    }

    // Gather the last layer into the output port.
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

#[test]
fn hundreds_of_tasks_all_worker_counts() {
    let _turn = pool::turn();
    let (design, lib, expected) = build(7, 12, 16); // 193 tasks
    assert!(design.graph.task_count() > 150);
    // A helper wakes after the firing has begun, so one round may run
    // entirely on its caller; rounds repeat until a helper ran a task.
    let mut helped = false;
    for _ in 0..100 {
        for workers in [1usize, 2, 4, 8] {
            let report = execute(
                &design,
                &lib,
                &BTreeMap::new(),
                &ExecOptions {
                    mode: ExecMode::Greedy { workers },
                    inline_below: 0.0,
                    ..ExecOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("workers={workers}: {e}"));
            assert_eq!(
                report.outputs["result"],
                Value::Num(expected),
                "workers={workers}"
            );
            assert_eq!(report.runs.len(), design.graph.task_count());
            // Task timing must respect dataflow: every run starts after all
            // of its predecessors' finishes.
            let mut finish = vec![std::time::Duration::ZERO; design.graph.task_count()];
            for r in &report.runs {
                finish[r.task.index()] = r.finish;
            }
            for r in &report.runs {
                for p in design.graph.predecessors(r.task) {
                    assert!(
                        finish[p.index()] <= r.start,
                        "workers={workers}: task {} started before its input {}",
                        r.task,
                        p
                    );
                }
            }
            helped |= report.runs.iter().any(|r| r.worker > 0);
        }
        if helped {
            break;
        }
    }
    assert!(
        helped,
        "no firing at 2 or more workers ran a task on a helper"
    );
}

#[test]
fn pinned_stress_matches_greedy() {
    let _turn = pool::turn();
    // ETF places every task once; DSH (with message start-up making
    // communication dear) duplicates predecessors onto their consumers'
    // processors. Either way pinned mode runs one copy per placement, on
    // the placement's processor, and computes what greedy computes.
    let (design, lib, expected) = build(11, 8, 12);
    let params = MachineParams {
        msg_startup: 5.0,
        ..MachineParams::default()
    };
    let m = Machine::new(Topology::fully_connected(6), params);
    let etf = banger_sched::list::etf(&design.graph, &m);
    let dsh = banger_sched::dsh::dsh(&design.graph, &m);
    assert!(dsh.placements().len() > design.graph.task_count());
    for s in [etf, dsh] {
        let report = execute(
            &design,
            &lib,
            &BTreeMap::new(),
            &ExecOptions {
                mode: ExecMode::pinned(s.clone()),
                inline_below: 0.0,
                ..ExecOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: {e}", s.heuristic()));
        assert_eq!(report.outputs["result"], Value::Num(expected));
        let mut ran: Vec<_> = report.runs.iter().map(|r| (r.task, r.worker)).collect();
        let mut placed: Vec<_> = s
            .placements()
            .iter()
            .map(|p| (p.task, p.proc.index()))
            .collect();
        ran.sort();
        placed.sort();
        assert_eq!(ran, placed, "{}", s.heuristic());
    }
}

#[test]
fn poisoning_under_load_stops_quickly() {
    let _turn = pool::turn();
    // Inject a failing task in the middle of a large design; execution must
    // return the error, not hang or panic.
    let (design, mut lib, _) = build(13, 10, 12);
    // Sabotage one mid-layer program.
    let victim = design
        .graph
        .tasks()
        .find(|(_, t)| t.name == "t5_3")
        .map(|(_, t)| t.program.clone().unwrap())
        .expect("task exists");
    lib.add_source(&format!("task {victim} out zzz begin zzz := nodefined end"))
        .unwrap();
    let err = execute(
        &design,
        &lib,
        &BTreeMap::new(),
        &ExecOptions {
            mode: ExecMode::Greedy { workers: 8 },
            inline_below: 0.0,
            ..ExecOptions::default()
        },
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("nodefined") || msg.contains("t5_3") || msg.contains("input"),
        "unexpected error: {msg}"
    );
}

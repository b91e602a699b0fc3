//! Retained naive reference implementations of every heuristic, kept
//! verbatim from before the scale rework so the differential suites can
//! pin the optimised schedulers to **bit-identical** output. A test
//! oracle only: `tests/prop_sched_scale.rs` is the one caller.
//!
//! These are the original `O(n^2)`-selection / full-rescan pair-scan
//! implementations: a `Vec`-backed ready set with a linear `max_by` scan
//! (`position()` + `swap_remove` deletion), and ETF/DLS recomputing
//! `ready_time` for every ready×processor pair at every step. They share
//! the [`Engine`] with the production schedulers, so any divergence in a
//! differential run points at the selection/caching rework, not at the
//! probe/commit machinery.
//!
//! Do **not** optimise this module. Its only job is to stay slow and
//! obviously correct. The complexity gap versus the production paths is
//! itself asserted by `tests/prop_sched_scale.rs` via the per-run
//! [`crate::SchedStats`] probe counters.

use crate::engine::{CommModel, Engine};
use crate::schedule::Schedule;
use banger_machine::{Machine, ProcId};
use banger_taskgraph::analysis::GraphAnalysis;
use banger_taskgraph::{TaskGraph, TaskId};

/// Tracks readiness with the legacy `Vec` ready set.
struct ReadyTracker {
    remaining_preds: Vec<usize>,
    ready: Vec<TaskId>,
}

impl ReadyTracker {
    fn new(g: &TaskGraph) -> Self {
        let remaining_preds: Vec<usize> = g.task_ids().map(|t| g.in_degree(t)).collect();
        let ready = g
            .task_ids()
            .filter(|&t| remaining_preds[t.index()] == 0)
            .collect();
        ReadyTracker {
            remaining_preds,
            ready,
        }
    }

    fn complete(&mut self, g: &TaskGraph, t: TaskId) {
        let pos = self
            .ready
            .iter()
            .position(|&x| x == t)
            .expect("completed task must be ready");
        self.ready.swap_remove(pos);
        for s in g.successors(t) {
            let r = &mut self.remaining_preds[s.index()];
            *r -= 1;
            if *r == 0 {
                self.ready.push(s);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.ready.is_empty()
    }
}

/// Legacy task-first list scheduling: linear max-scan selection.
fn task_first(name: &str, g: &TaskGraph, m: &Machine, priority: &[f64]) -> Schedule {
    let mut eng = Engine::new(name, g, m, CommModel::Analytic);
    let mut tracker = ReadyTracker::new(g);
    while !tracker.is_done() {
        let &t = tracker
            .ready
            .iter()
            .max_by(|a, b| {
                priority[a.index()]
                    .total_cmp(&priority[b.index()])
                    .then(b.0.cmp(&a.0))
            })
            .unwrap();
        let p = eng.best_processor(t);
        eng.commit(t, p);
        tracker.complete(g, t);
    }
    eng.finish()
}

/// Reference HLFET (linear selection scan).
pub fn hlfet_with(g: &TaskGraph, m: &Machine, a: &GraphAnalysis) -> Schedule {
    task_first("HLFET", g, m, &a.static_level)
}

/// Reference MCP (linear selection scan).
pub fn mcp_with(g: &TaskGraph, m: &Machine, a: &GraphAnalysis) -> Schedule {
    let neg_alap: Vec<f64> = a.alap.iter().map(|&x| -x).collect();
    task_first("MCP", g, m, &neg_alap)
}

/// Reference ETF: recomputes every ready×processor earliest start from
/// scratch at every step.
pub fn etf_with(g: &TaskGraph, m: &Machine, a: &GraphAnalysis) -> Schedule {
    let mut eng = Engine::new("ETF", g, m, CommModel::Analytic);
    let mut tracker = ReadyTracker::new(g);
    while !tracker.is_done() {
        // Key: (start, -static_level, task id, proc id), lexicographic min.
        let mut best: Option<(f64, f64, TaskId, ProcId)> = None;
        for &t in &tracker.ready {
            for p in m.proc_ids() {
                let s = eng.earliest_start(t, p);
                let cand = (s, -a.static_level[t.index()], t, p);
                let better = match &best {
                    None => true,
                    Some(b) => cand
                        .0
                        .total_cmp(&b.0)
                        .then(cand.1.total_cmp(&b.1))
                        .then(cand.2.cmp(&b.2))
                        .then(cand.3.cmp(&b.3))
                        .is_lt(),
                };
                if better {
                    best = Some(cand);
                }
            }
        }
        let (_, _, t, p) = best.unwrap();
        eng.commit(t, p);
        tracker.complete(g, t);
    }
    eng.finish()
}

/// Reference DLS: full pair rescan per step.
pub fn dls_with(g: &TaskGraph, m: &Machine, a: &GraphAnalysis) -> Schedule {
    let mut eng = Engine::new("DLS", g, m, CommModel::Analytic);
    let mut tracker = ReadyTracker::new(g);
    while !tracker.is_done() {
        // Key: (-dynamic_level, task id, proc id), lexicographic min.
        let mut best: Option<(f64, TaskId, ProcId)> = None;
        for &t in &tracker.ready {
            for p in m.proc_ids() {
                let dl = a.static_level[t.index()] - eng.earliest_start(t, p);
                let cand = (-dl, t, p);
                let better = match &best {
                    None => true,
                    Some(b) => cand
                        .0
                        .total_cmp(&b.0)
                        .then(cand.1.cmp(&b.1))
                        .then(cand.2.cmp(&b.2))
                        .is_lt(),
                };
                if better {
                    best = Some(cand);
                }
            }
        }
        let (_, t, p) = best.unwrap();
        eng.commit(t, p);
        tracker.complete(g, t);
    }
    eng.finish()
}

/// Reference communication-blind baseline (linear selection scan).
pub fn naive_no_comm_with(g: &TaskGraph, m: &Machine, a: &GraphAnalysis) -> Schedule {
    let mut eng = Engine::new("naive-no-comm", g, m, CommModel::Analytic);
    let mut tracker = ReadyTracker::new(g);
    while !tracker.is_done() {
        let &t = tracker
            .ready
            .iter()
            .max_by(|x, y| {
                a.static_level[x.index()]
                    .total_cmp(&a.static_level[y.index()])
                    .then(y.0.cmp(&x.0))
            })
            .unwrap();
        let p = m
            .proc_ids()
            .min_by(|x, y| {
                eng.timelines[x.index()]
                    .last_finish()
                    .total_cmp(&eng.timelines[y.index()].last_finish())
                    .then(x.0.cmp(&y.0))
            })
            .unwrap();
        eng.commit(t, p);
        tracker.complete(g, t);
    }
    eng.finish()
}

/// Reference Mapping Heuristic (linear b-level selection scan).
pub fn mh_with(g: &TaskGraph, m: &Machine, a: &GraphAnalysis) -> Schedule {
    let mut eng = Engine::new("MH", g, m, CommModel::Contention);

    let mut remaining: Vec<usize> = g.task_ids().map(|t| g.in_degree(t)).collect();
    let mut ready: Vec<TaskId> = g
        .task_ids()
        .filter(|&t| remaining[t.index()] == 0)
        .collect();

    while !ready.is_empty() {
        let (pos, &t) = ready
            .iter()
            .enumerate()
            .max_by(|(_, x), (_, y)| {
                a.b_level[x.index()]
                    .total_cmp(&a.b_level[y.index()])
                    .then(y.0.cmp(&x.0))
            })
            .unwrap();
        ready.swap_remove(pos);

        let mut best = m.proc_ids().next().unwrap();
        let mut best_finish = f64::INFINITY;
        for p in m.proc_ids() {
            let r = eng.ready_time(t, p);
            let dur = m.exec_time(g.task(t).weight, p);
            let start = eng.slot(p, r, dur);
            let finish = start + dur;
            if finish + crate::schedule::TIME_EPS < best_finish {
                best_finish = finish;
                best = p;
            }
        }
        eng.commit(t, best);

        for s in g.successors(t) {
            let r = &mut remaining[s.index()];
            *r -= 1;
            if *r == 0 {
                ready.push(s);
            }
        }
    }
    eng.finish()
}

/// Reference DSH (linear static-level selection scan; the duplication
/// machinery itself is shared with production via [`crate::dsh`]).
pub fn dsh_with(g: &TaskGraph, m: &Machine, a: &GraphAnalysis) -> Schedule {
    let mut eng = Engine::new("DSH", g, m, CommModel::Analytic);

    let mut remaining: Vec<usize> = g.task_ids().map(|t| g.in_degree(t)).collect();
    let mut ready: Vec<TaskId> = g
        .task_ids()
        .filter(|&t| remaining[t.index()] == 0)
        .collect();

    while !ready.is_empty() {
        let (pos, &t) = ready
            .iter()
            .enumerate()
            .max_by(|(_, x), (_, y)| {
                a.static_level[x.index()]
                    .total_cmp(&a.static_level[y.index()])
                    .then(y.0.cmp(&x.0))
            })
            .unwrap();
        ready.swap_remove(pos);

        let mut best = ProcId(0);
        let mut best_finish = f64::INFINITY;
        for p in m.proc_ids() {
            let start = crate::dsh::estimate_start_with_duplication(&eng, t, p);
            let finish = start + m.exec_time(g.task(t).weight, p);
            if finish + crate::schedule::TIME_EPS < best_finish {
                best_finish = finish;
                best = p;
            }
        }

        crate::dsh::duplicate_binding_preds(&mut eng, t, best);
        eng.commit(t, best);

        for s in g.successors(t) {
            let r = &mut remaining[s.index()];
            *r -= 1;
            if *r == 0 {
                ready.push(s);
            }
        }
    }
    eng.finish()
}

/// Reference serial baseline (identical to production; included so the
/// differential dispatcher covers every name).
pub fn serial(g: &TaskGraph, m: &Machine) -> Schedule {
    let mut eng = Engine::new("serial", g, m, CommModel::Analytic);
    for t in g.topo_order().expect("scheduling requires a DAG") {
        eng.commit(t, ProcId(0));
    }
    eng.finish()
}

/// Runs a reference heuristic by name, mirroring
/// [`crate::run_heuristic_with`]. Returns `None` for unknown names.
pub fn run_reference_with(
    name: &str,
    g: &TaskGraph,
    m: &Machine,
    a: &GraphAnalysis,
) -> Option<Schedule> {
    Some(match name {
        "serial" => serial(g, m),
        "naive" => naive_no_comm_with(g, m, a),
        "HLFET" => hlfet_with(g, m, a),
        "MCP" => mcp_with(g, m, a),
        "ETF" => etf_with(g, m, a),
        "DLS" => dls_with(g, m, a),
        "MH" => mh_with(g, m, a),
        "DSH" => dsh_with(g, m, a),
        _ => return None,
    })
}

//! Retained naive reference implementations of every heuristic, kept
//! verbatim from before the scale rework so the differential suites can
//! pin the optimised schedulers to **bit-identical** output. A test
//! oracle, not part of `banger-sched`: `tests/prop_sched_scale.rs`
//! includes it with `#[path]` and is its one caller, and it reads only
//! the crate's public API.
//!
//! These are the original `O(n^2)`-selection / full-rescan pair-scan
//! implementations: a `Vec`-backed ready set with a linear `max_by` scan
//! (`position()` + `swap_remove` deletion), and ETF/DLS recomputing
//! `ready_time` for every ready×processor pair at every step. They share
//! the [`Engine`] with the production schedulers, so any divergence in a
//! differential run points at the selection/caching rework, not at the
//! probe/commit machinery. Like the production schedulers, each is a
//! plain `(g, m)` function reading the levels of `g.analysis()`. The
//! ready time of a `(task, processor)` pair is always probed on its own,
//! through [`Engine::ready_time`] or [`Engine::earliest_start`], and DSH's
//! duplication steps recompute every ready time they price, with no memo.
//!
//! Do **not** optimise this module. Its only job is to stay slow and
//! obviously correct. The complexity gap versus the production paths is
//! itself asserted by `tests/prop_sched_scale.rs` via the per-run
//! [`banger_sched::SchedStats`] probe counters.

use banger_machine::{Machine, ProcId};
use banger_sched::engine::{CommModel, Engine};
use banger_sched::schedule::{Schedule, TIME_EPS};
use banger_taskgraph::analysis::ArcTable;
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

/// Selects the processor minimising the earliest start of `t`, one
/// [`Engine::earliest_start`] probe per processor (ties broken toward
/// lower processor ids).
fn best_processor(eng: &Engine<'_>, t: TaskId) -> ProcId {
    let mut best = ProcId(0);
    let mut best_start = f64::INFINITY;
    for p in eng.m.proc_ids() {
        let s = eng.earliest_start(t, p);
        if s < best_start - TIME_EPS {
            best_start = s;
            best = p;
        }
    }
    best
}

/// Legacy task-first list scheduling: linear max-scan selection.
fn task_first(name: &str, g: &TaskGraph, m: &Machine, priority: &[f64]) -> Schedule {
    let arcs = ArcTable::new(g);
    let mut eng = Engine::new(name, &arcs, m, CommModel::Analytic);
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
        let p = best_processor(&eng, t);
        eng.commit(t, p);
        tracker.complete(g, t);
    }
    eng.finish()
}

/// Reference HLFET (linear selection scan).
pub fn hlfet(g: &TaskGraph, m: &Machine) -> Schedule {
    task_first("HLFET", g, m, &g.analysis().static_level)
}

/// Reference MCP (linear selection scan).
pub fn mcp(g: &TaskGraph, m: &Machine) -> Schedule {
    let neg_alap: Vec<f64> = g.analysis().alap.iter().map(|&x| -x).collect();
    task_first("MCP", g, m, &neg_alap)
}

/// Reference ETF: recomputes every ready×processor earliest start from
/// scratch at every step.
pub fn etf(g: &TaskGraph, m: &Machine) -> Schedule {
    let a = g.analysis();
    let arcs = ArcTable::new(g);
    let mut eng = Engine::new("ETF", &arcs, m, CommModel::Analytic);
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
pub fn dls(g: &TaskGraph, m: &Machine) -> Schedule {
    let a = g.analysis();
    let arcs = ArcTable::new(g);
    let mut eng = Engine::new("DLS", &arcs, m, CommModel::Analytic);
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
pub fn naive_no_comm(g: &TaskGraph, m: &Machine) -> Schedule {
    let a = g.analysis();
    let arcs = ArcTable::new(g);
    let mut eng = Engine::new("naive-no-comm", &arcs, m, CommModel::Analytic);
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
pub fn mh(g: &TaskGraph, m: &Machine) -> Schedule {
    let a = g.analysis();
    let arcs = ArcTable::new(g);
    let mut eng = Engine::new("MH", &arcs, m, CommModel::Contention);

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
            if finish + TIME_EPS < best_finish {
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

/// Reference DSH: linear static-level selection scan, and the estimate
/// and duplication loop as they stood before [`banger_sched::dsh`] kept ready
/// times, recomputing every one they price.
pub fn dsh(g: &TaskGraph, m: &Machine) -> Schedule {
    let a = g.analysis();
    let arcs = ArcTable::new(g);
    let mut eng = Engine::new("DSH", &arcs, m, CommModel::Analytic);

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
            let start = estimate_start_with_duplication(g, &eng, t, p);
            let finish = start + m.exec_time(g.task(t).weight, p);
            if finish + TIME_EPS < best_finish {
                best_finish = finish;
                best = p;
            }
        }

        duplicate_binding_preds(g, &mut eng, t, best);
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

/// Estimates `t`'s start on `p` assuming the same one-level duplication
/// that [`duplicate_binding_preds`] would commit: for every input whose
/// message arrival exceeds the predecessor's locally-recomputed finish, use
/// the duplicated finish instead. A cheap upper-fidelity mirror of the
/// commit path — it does not mutate engine state.
fn estimate_start_with_duplication(g: &TaskGraph, eng: &Engine<'_>, t: TaskId, p: ProcId) -> f64 {
    let mut ready = 0.0f64;
    // Track the local occupancy consumed by hypothetical copies so two
    // copies do not claim the same idle slot.
    let mut local_extra = 0.0f64;
    for &e in g.in_edges(t) {
        let edge = g.edge(e);
        let msg_arrival = eng.edge_arrival(edge.src, edge.volume, p);
        let already_local = eng.has_copy_on(edge.src, p);
        let arrival = if already_local {
            msg_arrival
        } else {
            // Hypothetical copy of the predecessor on p.
            let pred_ready = eng.ready_time(edge.src, p);
            let dur = eng.m.exec_time(g.task(edge.src).weight, p);
            let slot = eng.slot(p, pred_ready.max(local_extra), dur);
            let dup_finish = slot + dur;
            if dup_finish < msg_arrival {
                local_extra = dup_finish;
                dup_finish
            } else {
                msg_arrival
            }
        };
        ready = ready.max(arrival);
    }
    let dur = eng.m.exec_time(g.task(t).weight, p);
    eng.slot(p, ready.max(local_extra), dur)
}

/// Repeatedly copies the predecessor whose message currently bounds `t`'s
/// ready time onto `p`, while each copy strictly reduces that ready time.
fn duplicate_binding_preds(g: &TaskGraph, eng: &mut Engine<'_>, t: TaskId, p: ProcId) {
    for _ in 0..banger_sched::dsh::MAX_DUPES_PER_TASK {
        let ready = eng.ready_time(t, p);
        if ready <= TIME_EPS {
            return; // already starts at time zero
        }
        // Find the binding predecessor: the input with the latest arrival
        // that is NOT already satisfied by a local copy.
        let mut binding: Option<(TaskId, f64)> = None;
        for &e in g.in_edges(t) {
            let edge = g.edge(e);
            let arrival = eng.edge_arrival(edge.src, edge.volume, p);
            if (arrival - ready).abs() <= TIME_EPS {
                let already_local = eng.has_copy_on(edge.src, p);
                if !already_local {
                    binding = Some((edge.src, arrival));
                }
            }
        }
        let Some((pred, old_arrival)) = binding else {
            return; // bound by local work or by an unimprovable input
        };

        // Would a local copy of `pred` help? Its own inputs arrive from
        // existing copies; it needs an idle slot ending before old_arrival.
        let pred_ready = eng.ready_time(pred, p);
        let dur = eng.m.exec_time(g.task(pred).weight, p);
        let start = eng.slot(p, pred_ready, dur);
        let local_finish = start + dur;
        if local_finish + TIME_EPS < old_arrival {
            eng.commit(pred, p); // duplicate copy (not primary)
        } else {
            return; // copying does not pay; stop
        }
    }
}

/// Reference serial baseline (identical to production; included so the
/// differential dispatcher covers every name).
pub fn serial(g: &TaskGraph, m: &Machine) -> Schedule {
    let arcs = ArcTable::new(g);
    let mut eng = Engine::new("serial", &arcs, m, CommModel::Analytic);
    for t in g.topo_order().expect("scheduling requires a DAG") {
        eng.commit(t, ProcId(0));
    }
    eng.finish()
}

/// Runs a reference heuristic by name, mirroring
/// [`banger_sched::run_heuristic`]. Returns `None` for unknown names.
pub fn run_reference(name: &str, g: &TaskGraph, m: &Machine) -> Option<Schedule> {
    Some(match name {
        "serial" => serial(g, m),
        "naive" => naive_no_comm(g, m),
        "HLFET" => hlfet(g, m),
        "MCP" => mcp(g, m),
        "ETF" => etf(g, m),
        "DLS" => dls(g, m),
        "MH" => mh(g, m),
        "DSH" => dsh(g, m),
        _ => return None,
    })
}

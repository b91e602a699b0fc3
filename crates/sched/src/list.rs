//! Classic list-scheduling heuristics: HLFET, MCP, ETF and DLS.
//!
//! All four share the [`Engine`]'s analytic communication model and
//! insertion-based slot search; they differ only in how the next
//! `(task, processor)` decision is made:
//!
//! * **HLFET** (Highest Level First with Estimated Times, Adam/Chandy/
//!   Dickson 1974): pick the ready task with the greatest *static level*
//!   (computation-only bottom level), then the processor giving it the
//!   earliest start.
//! * **MCP** (Modified Critical Path, Wu & Gajski 1990): pick the ready
//!   task with the smallest ALAP time, then the earliest-start processor.
//! * **ETF** (Earliest Task First, Hwang et al. 1989): scan every ready
//!   `(task, processor)` pair and commit the pair with the earliest start;
//!   ties go to the greater static level.
//! * **DLS** (Dynamic Level Scheduling, Sih & Lee 1993): commit the pair
//!   maximising the *dynamic level* `static_level - earliest_start`.

use crate::engine::{CommModel, Engine};
use crate::ready::ReadyQueue;
use crate::schedule::Schedule;
use banger_machine::{Machine, ProcId};
use banger_taskgraph::analysis::GraphAnalysis;
use banger_taskgraph::{TaskGraph, TaskId};

/// Task-first list scheduling: repeatedly take the ready task with the
/// highest `priority` (greater = earlier; ties toward lower task id) via
/// the [`ReadyQueue`] heap, then commit it to the processor giving the
/// earliest start. Selection is `O(log n)` per step; the legacy linear
/// scan lives on in [`crate::reference`], which only the differential
/// tests call.
fn task_first(name: &str, g: &TaskGraph, m: &Machine, priority: &[f64]) -> Schedule {
    let mut eng = Engine::new(name, g, m, CommModel::Analytic);
    let mut queue = ReadyQueue::new(g, priority);
    while let Some(t) = queue.pop() {
        let p = eng.best_processor(t);
        eng.commit(t, p);
        queue.complete(g, t);
    }
    eng.finish()
}

/// Per-`(task, processor)` earliest-start cache for the pair-scan
/// heuristics (ETF/DLS), with epoch-based selective invalidation.
///
/// The legacy pair scan recomputed `ready_time(t, p)` — a walk over every
/// in-edge — for every ready×processor pair at every step, i.e.
/// `O(steps · |ready| · P · in_degree)` arrival probes. Two facts make
/// that work cacheable without changing a single selected pair:
///
/// * Under [`CommModel::Analytic`] with no duplication, `ready_time(t, p)`
///   is **immutable once `t` is ready**: every predecessor has exactly one
///   committed copy and the closed-form `comm_time` never changes. So it
///   is computed exactly once per pair, when `t` is promoted — `O(E · P)`
///   arrival probes for the whole run.
/// * The earliest start additionally depends only on processor `p`'s
///   timeline, which changes exactly when something commits on `p`. A
///   per-processor epoch counter is bumped on commit and each cache entry
///   remembers the epoch it was computed at; the selection scan lazily
///   recomputes just the stale entries (one slot search each).
///
/// Recomputing a stale entry runs the same `slot` search a fresh
/// evaluation would, so every candidate key in the scan is bit-identical
/// to the legacy full recomputation, and keys embed `(task, proc)` so the
/// strict total order makes scan order irrelevant.
struct PairCache {
    procs: usize,
    /// `ready_time[t * procs + p]`, filled once when `t` becomes ready.
    ready_time: Vec<f64>,
    /// Execution time of `t` on `p`, filled alongside `ready_time`.
    dur: Vec<f64>,
    /// Cached earliest start per pair (`ready_time` + slot search).
    est: Vec<f64>,
    /// Epoch at which `est` was computed; stale when != `proc_epoch[p]`.
    entry_epoch: Vec<u64>,
    /// Bumped on every commit to the processor. Starts at 1 so a zeroed
    /// `entry_epoch` always reads as stale.
    proc_epoch: Vec<u64>,
}

impl PairCache {
    fn new(tasks: usize, procs: usize) -> Self {
        PairCache {
            procs,
            ready_time: vec![0.0; tasks * procs],
            dur: vec![0.0; tasks * procs],
            est: vec![0.0; tasks * procs],
            entry_epoch: vec![0; tasks * procs],
            proc_epoch: vec![1; procs],
        }
    }

    /// Fills the ready-time/duration row of a newly ready task. Costs
    /// `in_degree(t)` arrival probes per processor, paid exactly once.
    fn promote(&mut self, eng: &Engine<'_>, t: TaskId) {
        let row = t.index() * self.procs;
        let weight = eng.g.task(t).weight;
        for p in eng.m.proc_ids() {
            self.ready_time[row + p.index()] = eng.ready_time(t, p);
            self.dur[row + p.index()] = eng.m.exec_time(weight, p);
        }
    }

    /// Earliest start of ready task `t` on `p`, recomputing the slot
    /// search only if `p`'s timeline changed since the entry was cached.
    fn earliest_start(&mut self, eng: &Engine<'_>, t: TaskId, p: ProcId) -> f64 {
        let i = t.index() * self.procs + p.index();
        let epoch = self.proc_epoch[p.index()];
        if self.entry_epoch[i] != epoch {
            self.est[i] = eng.slot(p, self.ready_time[i], self.dur[i]);
            self.entry_epoch[i] = epoch;
        }
        self.est[i]
    }

    /// Invalidates every entry on `p` (called after committing there).
    fn commit_to(&mut self, p: ProcId) {
        self.proc_epoch[p.index()] += 1;
    }
}

/// Ready-set bookkeeping for the pair-scan heuristics: a plain `Vec` ready
/// set (the scan visits every ready task anyway) plus [`PairCache`] rows
/// filled on promotion.
struct PairScan {
    remaining_preds: Vec<usize>,
    ready: Vec<TaskId>,
    cache: PairCache,
}

impl PairScan {
    fn new(eng: &Engine<'_>) -> Self {
        let g = eng.g;
        let remaining_preds: Vec<usize> = g.task_ids().map(|t| g.in_degree(t)).collect();
        let ready: Vec<TaskId> = g
            .task_ids()
            .filter(|&t| remaining_preds[t.index()] == 0)
            .collect();
        let mut cache = PairCache::new(g.task_count(), eng.m.processors());
        for &t in &ready {
            cache.promote(eng, t);
        }
        PairScan {
            remaining_preds,
            ready,
            cache,
        }
    }

    /// Commits the chosen pair (found at `pos` in the ready vec) and
    /// promotes any newly ready successors.
    fn commit(&mut self, eng: &mut Engine<'_>, pos: usize, p: ProcId) {
        let t = self.ready.swap_remove(pos);
        eng.commit(t, p);
        self.cache.commit_to(p);
        for s in eng.g.successors(t) {
            let r = &mut self.remaining_preds[s.index()];
            *r -= 1;
            if *r == 0 {
                self.cache.promote(eng, s);
                self.ready.push(s);
            }
        }
    }
}

/// HLFET: static-level priority, earliest-start processor.
pub fn hlfet(g: &TaskGraph, m: &Machine) -> Schedule {
    let a = GraphAnalysis::analyze(g);
    hlfet_with(g, m, &a)
}

/// [`hlfet`] with a precomputed [`GraphAnalysis`], so sweeps over many
/// machines pay for the (machine-independent) level computation once.
pub fn hlfet_with(g: &TaskGraph, m: &Machine, a: &GraphAnalysis) -> Schedule {
    task_first("HLFET", g, m, &a.static_level)
}

/// MCP: smallest-ALAP priority (implemented as `-alap`), earliest-start
/// processor.
pub fn mcp(g: &TaskGraph, m: &Machine) -> Schedule {
    let a = GraphAnalysis::analyze(g);
    mcp_with(g, m, &a)
}

/// [`mcp`] with a precomputed [`GraphAnalysis`].
pub fn mcp_with(g: &TaskGraph, m: &Machine, a: &GraphAnalysis) -> Schedule {
    let neg_alap: Vec<f64> = a.alap.iter().map(|&x| -x).collect();
    task_first("MCP", g, m, &neg_alap)
}

/// ETF: commit the ready `(task, processor)` pair with the earliest start;
/// break ties by greater static level, then lower ids.
pub fn etf(g: &TaskGraph, m: &Machine) -> Schedule {
    let a = GraphAnalysis::analyze(g);
    etf_with(g, m, &a)
}

/// [`etf`] with a precomputed [`GraphAnalysis`].
pub fn etf_with(g: &TaskGraph, m: &Machine, a: &GraphAnalysis) -> Schedule {
    let mut eng = Engine::new("ETF", g, m, CommModel::Analytic);
    let mut scan = PairScan::new(&eng);
    while !scan.ready.is_empty() {
        // Key: (start, -static_level, task id, proc id), lexicographic min.
        let mut best: Option<(f64, f64, TaskId, ProcId, usize)> = None;
        for pos in 0..scan.ready.len() {
            let t = scan.ready[pos];
            for p in m.proc_ids() {
                let s = scan.cache.earliest_start(&eng, t, p);
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
                    best = Some((cand.0, cand.1, cand.2, cand.3, pos));
                }
            }
        }
        let (_, _, _, p, pos) = best.unwrap();
        scan.commit(&mut eng, pos, p);
    }
    eng.finish()
}

/// DLS: commit the ready pair maximising `static_level - earliest_start`.
pub fn dls(g: &TaskGraph, m: &Machine) -> Schedule {
    let a = GraphAnalysis::analyze(g);
    dls_with(g, m, &a)
}

/// [`dls`] with a precomputed [`GraphAnalysis`].
pub fn dls_with(g: &TaskGraph, m: &Machine, a: &GraphAnalysis) -> Schedule {
    let mut eng = Engine::new("DLS", g, m, CommModel::Analytic);
    let mut scan = PairScan::new(&eng);
    while !scan.ready.is_empty() {
        // Key: (-dynamic_level, task id, proc id), lexicographic min.
        let mut best: Option<(f64, TaskId, ProcId, usize)> = None;
        for pos in 0..scan.ready.len() {
            let t = scan.ready[pos];
            for p in m.proc_ids() {
                let dl = a.static_level[t.index()] - scan.cache.earliest_start(&eng, t, p);
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
                    best = Some((cand.0, cand.1, cand.2, pos));
                }
            }
        }
        let (_, _, p, pos) = best.unwrap();
        scan.commit(&mut eng, pos, p);
    }
    eng.finish()
}

/// A naive baseline that ignores communication entirely when choosing
/// processors (it balances load by earliest-finishing processor). Used by
/// the A1 ablation to quantify the value of communication awareness.
pub fn naive_no_comm(g: &TaskGraph, m: &Machine) -> Schedule {
    let a = GraphAnalysis::analyze(g);
    naive_no_comm_with(g, m, &a)
}

/// [`naive_no_comm`] with a precomputed [`GraphAnalysis`].
pub fn naive_no_comm_with(g: &TaskGraph, m: &Machine, a: &GraphAnalysis) -> Schedule {
    let mut eng = Engine::new("naive-no-comm", g, m, CommModel::Analytic);
    let mut queue = ReadyQueue::new(g, &a.static_level);
    while let Some(t) = queue.pop() {
        // Pick the processor that is free soonest, blind to where the
        // task's inputs live.
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
        queue.complete(g, t);
    }
    eng.finish()
}

/// Serial baseline: every task on processor 0 in topological order.
pub fn serial(g: &TaskGraph, m: &Machine) -> Schedule {
    let mut eng = Engine::new("serial", g, m, CommModel::Analytic);
    for t in g.topo_order().expect("scheduling requires a DAG") {
        eng.commit(t, banger_machine::ProcId(0));
    }
    eng.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_machine::{MachineParams, Topology};
    use banger_taskgraph::generators;

    fn machine(n: usize) -> Machine {
        Machine::new(Topology::fully_connected(n), MachineParams::default())
    }

    type Heuristic = fn(&TaskGraph, &Machine) -> Schedule;

    fn all_heuristics() -> Vec<(&'static str, Heuristic)> {
        vec![
            ("HLFET", hlfet as Heuristic),
            ("MCP", mcp),
            ("ETF", etf),
            ("DLS", dls),
            ("naive", naive_no_comm),
            ("serial", serial),
        ]
    }

    #[test]
    fn all_valid_on_gauss() {
        let g = generators::gauss_elimination(5, 2.0, 1.0);
        let m = machine(4);
        for (name, h) in all_heuristics() {
            let s = h(&g, &m);
            s.validate(&g, &m).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(s.makespan() > 0.0);
        }
    }

    #[test]
    fn independent_tasks_spread_across_processors() {
        let g = generators::independent(8, 10.0);
        let m = machine(4);
        for (name, h) in [
            ("HLFET", hlfet as fn(&TaskGraph, &Machine) -> Schedule),
            ("ETF", etf),
            ("DLS", dls),
        ] {
            let s = h(&g, &m);
            s.validate(&g, &m).unwrap();
            assert_eq!(s.makespan(), 20.0, "{name} should perfectly balance");
            assert_eq!(s.processors_used(), 4, "{name}");
        }
    }

    #[test]
    fn chain_stays_on_one_processor() {
        let g = generators::chain(6, 5.0, 10.0);
        let m = machine(4);
        for (name, h) in [
            ("HLFET", hlfet as fn(&TaskGraph, &Machine) -> Schedule),
            ("ETF", etf),
            ("MCP", mcp),
        ] {
            let s = h(&g, &m);
            s.validate(&g, &m).unwrap();
            assert_eq!(s.makespan(), 30.0, "{name}: a chain cannot go faster");
            assert_eq!(s.processors_used(), 1, "{name}: moving would pay comm");
        }
    }

    #[test]
    fn serial_baseline_uses_one_processor() {
        let g = generators::fork_join(4, 1.0, 5.0, 1.0, 2.0);
        let m = machine(4);
        let s = serial(&g, &m);
        s.validate(&g, &m).unwrap();
        assert_eq!(s.processors_used(), 1);
        assert_eq!(s.makespan(), g.total_weight());
    }

    #[test]
    fn parallel_heuristics_beat_serial_when_comm_cheap() {
        let g = generators::fork_join(8, 1.0, 20.0, 1.0, 0.5);
        let m = machine(4);
        let base = serial(&g, &m).makespan();
        for (name, h) in [
            ("HLFET", hlfet as fn(&TaskGraph, &Machine) -> Schedule),
            ("MCP", mcp),
            ("ETF", etf),
            ("DLS", dls),
        ] {
            let s = h(&g, &m);
            s.validate(&g, &m).unwrap();
            assert!(s.makespan() < base, "{name}: {} !< {base}", s.makespan());
        }
    }

    #[test]
    fn heuristics_respect_expensive_comm() {
        // With enormous communication volumes, good heuristics serialise
        // rather than paying the messages.
        let mut g = generators::fork_join(4, 1.0, 2.0, 1.0, 1.0);
        g.scale_volumes(1000.0);
        let m = machine(4);
        for (name, h) in [
            ("ETF", etf as fn(&TaskGraph, &Machine) -> Schedule),
            ("DLS", dls),
        ] {
            let s = h(&g, &m);
            s.validate(&g, &m).unwrap();
            assert_eq!(
                s.processors_used(),
                1,
                "{name} should avoid 1000-unit messages"
            );
        }
    }

    #[test]
    fn naive_worse_or_equal_when_comm_matters() {
        let mut g = generators::fork_join(4, 1.0, 2.0, 1.0, 1.0);
        g.scale_volumes(100.0);
        let m = machine(4);
        let naive = naive_no_comm(&g, &m);
        naive.validate(&g, &m).unwrap();
        let smart = etf(&g, &m);
        assert!(smart.makespan() <= naive.makespan());
        // The gap should be dramatic here: naive pays four 200-unit routes.
        assert!(naive.makespan() > 2.0 * smart.makespan());
    }

    #[test]
    fn works_on_machine_with_topology() {
        let g = generators::gauss_elimination(4, 3.0, 2.0);
        let m = Machine::new(
            Topology::hypercube(2),
            MachineParams {
                msg_startup: 0.5,
                ..MachineParams::default()
            },
        );
        for (name, h) in all_heuristics() {
            let s = h(&g, &m);
            s.validate(&g, &m).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn single_processor_machine_degenerates_to_serial() {
        let g = generators::gauss_elimination(4, 3.0, 2.0);
        let m = Machine::new(Topology::single(), MachineParams::default());
        let s = etf(&g, &m);
        s.validate(&g, &m).unwrap();
        assert_eq!(s.makespan(), g.total_weight());
    }

    #[test]
    fn deterministic() {
        let g = generators::gauss_elimination(6, 2.0, 1.5);
        let m = machine(4);
        for (_, h) in all_heuristics() {
            let s1 = h(&g, &m);
            let s2 = h(&g, &m);
            assert_eq!(s1, s2);
        }
    }

    #[test]
    fn empty_graph_gives_empty_schedule() {
        let g = TaskGraph::new("empty");
        let m = machine(2);
        let s = etf(&g, &m);
        assert_eq!(s.makespan(), 0.0);
        s.validate(&g, &m).unwrap();
    }
}

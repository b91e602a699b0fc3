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
//! * **ETF** (Earliest Task First, Hwang et al. 1989): commit the ready
//!   `(task, processor)` pair with the earliest start; ties go to the
//!   greater static level.
//! * **DLS** (Dynamic Level Scheduling, Sih & Lee 1993): commit the pair
//!   maximising the *dynamic level* `static_level - earliest_start`.

use crate::engine::{CommModel, Engine};
use crate::ready::ReadyQueue;
use crate::schedule::{Schedule, TIME_EPS};
use banger_machine::{Machine, ProcId};
use banger_taskgraph::analysis::{ArcTable, GraphAnalysis};
use banger_taskgraph::{TaskGraph, TaskId};
use std::collections::BinaryHeap;

/// Task-first list scheduling: repeatedly take the ready task with the
/// highest `priority` (greater = earlier; ties toward lower task id) via
/// the [`ReadyQueue`] heap, then commit it to the processor giving the
/// earliest start. Selection is `O(log n)` per step; the legacy linear
/// scan lives on in [`crate::reference`], which only the differential
/// tests call.
fn task_first(name: &str, arcs: &ArcTable, m: &Machine, priority: &[f64]) -> Schedule {
    let mut eng = Engine::new(name, arcs, m, CommModel::Analytic);
    let mut queue = ReadyQueue::new(arcs, priority);
    while let Some(t) = queue.pop() {
        let p = eng.best_processor(t);
        eng.commit(t, p);
        queue.complete(arcs, t);
    }
    eng.finish()
}

/// One ready task's candidacy on one processor: the heuristic's key for
/// that pair, then the task id. Ordered so that [`BinaryHeap`] — a
/// max-heap — pops the *least* key first.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    key: (f64, f64),
    task: TaskId,
}

impl Candidate {
    fn precedes(&self, other: &Candidate) -> bool {
        self.cmp(other).is_gt()
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .key
            .0
            .total_cmp(&self.key.0)
            .then(other.key.1.total_cmp(&self.key.1))
            .then(other.task.cmp(&self.task))
    }
}

/// Which of the three column rules settled an entry after a commit (see
/// [`PairHeaps::commit`]); indexes the tally it returns.
const UNCHANGED: usize = 0;
const TAIL: usize = 1;
const SEARCH: usize = 2;

/// Marks a task that is not in the ready set.
const NOT_READY: usize = usize::MAX;

/// The pair-first heuristics' state (ETF, DLS): the ready set, every ready
/// `(task, processor)` pair's earliest start, and per processor a min-heap
/// of the ready tasks keyed by `key(task, earliest start)`. The pair to
/// commit is the least heap top, ties toward the lower processor — the
/// lexicographic minimum of `(key, task, proc)` over every ready pair,
/// which is what a full pair scan selects.
///
/// * `ready_time(t, p)` is immutable once `t` is ready under
///   [`CommModel::Analytic`] with no duplication — every predecessor has
///   its one committed copy — so it is computed exactly once, at
///   promotion: `O(E · P)` arrival probes for the whole run.
/// * The earliest start on `p` depends only on `p`'s timeline, so a
///   commit on `p` moves only `p`'s column, and one pass over it settles
///   each entry by the cheapest of three rules that give the slot search's
///   own answer (DESIGN.md §14 has the proofs). The other heaps keep their
///   keys; the committed task leaves them lazily, when it surfaces at a
///   top.
struct PairHeaps<K> {
    key: K,
    procs: usize,
    remaining_preds: Vec<u32>,
    ready: Vec<TaskId>,
    /// Index of each task in `ready`, [`NOT_READY`] when it is not there.
    position: Vec<usize>,
    /// Per pair, at `t * procs + p`: the ready time, the execution time
    /// and the earliest start — `Engine::slot` of the first two on `p`'s
    /// current timeline.
    ready_time: Vec<f64>,
    dur: Vec<f64>,
    est: Vec<f64>,
    heaps: Vec<BinaryHeap<Candidate>>,
}

impl<K: Fn(TaskId, f64) -> (f64, f64)> PairHeaps<K> {
    fn new(eng: &Engine<'_>, key: K) -> Self {
        let (n, procs) = (eng.arcs.task_count(), eng.m.processors());
        let pairs = n * procs;
        let mut heaps = PairHeaps {
            key,
            procs,
            remaining_preds: (0..n as u32)
                .map(|t| eng.arcs.inputs(TaskId(t)).len() as u32)
                .collect(),
            ready: Vec::new(),
            position: vec![NOT_READY; n],
            ready_time: vec![0.0; pairs],
            dur: vec![0.0; pairs],
            est: vec![0.0; pairs],
            heaps: vec![BinaryHeap::new(); procs],
        };
        for t in (0..n as u32).map(TaskId) {
            if heaps.remaining_preds[t.index()] == 0 {
                heaps.promote(eng, t);
            }
        }
        heaps
    }

    /// Adds a newly ready task to the ready set and to every heap. Costs
    /// `in_degree(t)` arrival probes and one slot search per processor;
    /// the ready times are one [`Engine::ready_times`] pass.
    fn promote(&mut self, eng: &Engine<'_>, t: TaskId) {
        self.position[t.index()] = self.ready.len();
        self.ready.push(t);
        let row = t.index() * self.procs;
        eng.ready_times(t, &mut self.ready_time[row..row + self.procs]);
        for p in eng.m.proc_ids() {
            let i = row + p.index();
            self.dur[i] = eng.exec_time(t, p);
            self.est[i] = eng.slot(p, self.ready_time[i], self.dur[i]);
            let key = (self.key)(t, self.est[i]);
            self.heaps[p.index()].push(Candidate { key, task: t });
        }
    }

    /// The pair to commit next, or `None` once every task is placed.
    fn pick(&mut self) -> Option<(TaskId, ProcId)> {
        let mut best: Option<(Candidate, ProcId)> = None;
        for (p, heap) in self.heaps.iter_mut().enumerate() {
            while heap
                .peek()
                .is_some_and(|c| self.position[c.task.index()] == NOT_READY)
            {
                heap.pop();
            }
            if let Some(&top) = heap.peek() {
                if best.is_none_or(|(b, _)| top.precedes(&b)) {
                    best = Some((top, ProcId(p as u32)));
                }
            }
        }
        best.map(|(c, p)| (c.task, p))
    }

    /// Commits `t` on `p`, brings `p`'s column up to date and promotes the
    /// successors `t` was the last predecessor of. Returns how many column
    /// entries each rule settled, indexed by [`UNCHANGED`], [`TAIL`] and
    /// [`SEARCH`].
    ///
    /// With `[s, f]` the new interval and `tail` the latest finish on `p`
    /// before it, an entry with cached start `e` and duration `d` is
    /// 1. unchanged if `e + d <= s + TIME_EPS` or `e >= f`: its slot ends
    ///    before the interval or starts after it;
    /// 2. moved to `f` if `s >= tail`: the interval extends the timeline,
    ///    and the slot, which rule 1 found overlapping it, follows it;
    /// 3. otherwise searched again, as the full scan would.
    fn commit(&mut self, eng: &mut Engine<'_>, t: TaskId, p: ProcId) -> [usize; 3] {
        let tail = eng.timelines[p.index()].last_finish();
        let (s, f) = eng.commit(t, p);
        let pos = std::mem::replace(&mut self.position[t.index()], NOT_READY);
        self.ready.swap_remove(pos);
        if let Some(&moved) = self.ready.get(pos) {
            self.position[moved.index()] = pos;
        }

        let mut fired = [0; 3];
        let mut column = std::mem::take(&mut self.heaps[p.index()]).into_vec();
        column.clear();
        for &u in &self.ready {
            let i = u.index() * self.procs + p.index();
            let (e, d) = (self.est[i], self.dur[i]);
            let rule = if e + d <= s + TIME_EPS || e >= f {
                UNCHANGED
            } else if s >= tail {
                self.est[i] = f;
                TAIL
            } else {
                self.est[i] = eng.slot(p, self.ready_time[i], d);
                SEARCH
            };
            fired[rule] += 1;
            column.push(Candidate {
                key: (self.key)(u, self.est[i]),
                task: u,
            });
        }
        self.heaps[p.index()] = BinaryHeap::from(column);

        let arcs = eng.arcs;
        for &succ in arcs.consumers(t) {
            let r = &mut self.remaining_preds[succ.index()];
            *r -= 1;
            if *r == 0 {
                self.promote(eng, succ);
            }
        }
        fired
    }
}

/// Pair-first list scheduling: repeatedly commit the ready `(task,
/// processor)` pair whose `key(task, earliest start)` is least, ties
/// toward the lower task id, then the lower processor id.
fn pair_first(
    name: &str,
    arcs: &ArcTable,
    m: &Machine,
    key: impl Fn(TaskId, f64) -> (f64, f64),
) -> Schedule {
    let mut eng = Engine::new(name, arcs, m, CommModel::Analytic);
    let mut heaps = PairHeaps::new(&eng, key);
    while let Some((t, p)) = heaps.pick() {
        heaps.commit(&mut eng, t, p);
    }
    eng.finish()
}

/// HLFET: static-level priority, earliest-start processor.
pub fn hlfet(g: &TaskGraph, m: &Machine) -> Schedule {
    let a = GraphAnalysis::analyze(g);
    hlfet_with(g, m, &a)
}

/// [`hlfet`] with a precomputed [`GraphAnalysis`], so sweeps over many
/// machines pay for the (machine-independent) level computation once.
/// `a` must be `GraphAnalysis::analyze(g)` (see [`crate::run_heuristic_with`]).
pub fn hlfet_with(g: &TaskGraph, m: &Machine, a: &GraphAnalysis) -> Schedule {
    task_first("HLFET", crate::arcs_of(g, a), m, &a.static_level)
}

/// MCP: smallest-ALAP priority (implemented as `-alap`), earliest-start
/// processor.
pub fn mcp(g: &TaskGraph, m: &Machine) -> Schedule {
    let a = GraphAnalysis::analyze(g);
    mcp_with(g, m, &a)
}

/// [`mcp`] with a precomputed [`GraphAnalysis`].
/// `a` must be `GraphAnalysis::analyze(g)` (see [`crate::run_heuristic_with`]).
pub fn mcp_with(g: &TaskGraph, m: &Machine, a: &GraphAnalysis) -> Schedule {
    let neg_alap: Vec<f64> = a.alap.iter().map(|&x| -x).collect();
    task_first("MCP", crate::arcs_of(g, a), m, &neg_alap)
}

/// ETF: commit the ready `(task, processor)` pair with the earliest start;
/// break ties by greater static level, then lower ids.
pub fn etf(g: &TaskGraph, m: &Machine) -> Schedule {
    let a = GraphAnalysis::analyze(g);
    etf_with(g, m, &a)
}

/// [`etf`] with a precomputed [`GraphAnalysis`].
/// `a` must be `GraphAnalysis::analyze(g)` (see [`crate::run_heuristic_with`]).
pub fn etf_with(g: &TaskGraph, m: &Machine, a: &GraphAnalysis) -> Schedule {
    pair_first("ETF", crate::arcs_of(g, a), m, etf_key(a))
}

/// ETF's pair key: the start, then minus the static level.
fn etf_key(a: &GraphAnalysis) -> impl Fn(TaskId, f64) -> (f64, f64) + '_ {
    |t, start| (start, -a.static_level[t.index()])
}

/// DLS: commit the ready pair maximising `static_level - earliest_start`.
pub fn dls(g: &TaskGraph, m: &Machine) -> Schedule {
    let a = GraphAnalysis::analyze(g);
    dls_with(g, m, &a)
}

/// [`dls`] with a precomputed [`GraphAnalysis`].
/// `a` must be `GraphAnalysis::analyze(g)` (see [`crate::run_heuristic_with`]).
pub fn dls_with(g: &TaskGraph, m: &Machine, a: &GraphAnalysis) -> Schedule {
    pair_first("DLS", crate::arcs_of(g, a), m, dls_key(a))
}

/// DLS's pair key: minus the dynamic level. The second component is a
/// constant, so ties fall to the task id.
fn dls_key(a: &GraphAnalysis) -> impl Fn(TaskId, f64) -> (f64, f64) + '_ {
    |t, start| (-(a.static_level[t.index()] - start), 0.0)
}

/// A naive baseline that ignores communication entirely when choosing
/// processors (it balances load by earliest-finishing processor). Used by
/// the A1 ablation to quantify the value of communication awareness.
pub fn naive_no_comm(g: &TaskGraph, m: &Machine) -> Schedule {
    let a = GraphAnalysis::analyze(g);
    naive_no_comm_with(g, m, &a)
}

/// [`naive_no_comm`] with a precomputed [`GraphAnalysis`].
/// `a` must be `GraphAnalysis::analyze(g)` (see [`crate::run_heuristic_with`]).
pub fn naive_no_comm_with(g: &TaskGraph, m: &Machine, a: &GraphAnalysis) -> Schedule {
    let arcs = crate::arcs_of(g, a);
    let mut eng = Engine::new("naive-no-comm", arcs, m, CommModel::Analytic);
    let mut queue = ReadyQueue::new(arcs, &a.static_level);
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
        queue.complete(arcs, t);
    }
    eng.finish()
}

/// Serial baseline: every task on processor 0 in topological order.
pub fn serial(g: &TaskGraph, m: &Machine) -> Schedule {
    let a = GraphAnalysis::analyze(g);
    serial_with(g, m, &a)
}

/// [`serial`] with a precomputed [`GraphAnalysis`].
/// `a` must be `GraphAnalysis::analyze(g)` (see [`crate::run_heuristic_with`]).
pub fn serial_with(g: &TaskGraph, m: &Machine, a: &GraphAnalysis) -> Schedule {
    let mut eng = Engine::new("serial", crate::arcs_of(g, a), m, CommModel::Analytic);
    for &t in &a.topo {
        eng.commit(t, ProcId(0));
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

    /// Steps the pair heaps over `g` and checks every pick against a full
    /// scan of the ready pairs — `key(t, earliest start)`, then `t`, then
    /// the processor, least first — on the same engine state, and every
    /// cached start after each commit against a fresh search. Returns how
    /// often each column rule fired.
    fn picks_match_the_full_scan(
        g: &TaskGraph,
        m: &Machine,
        key: &dyn Fn(TaskId, f64) -> (f64, f64),
    ) -> [usize; 3] {
        let a = GraphAnalysis::analyze(g);
        let mut eng = Engine::new("step", &a.arcs, m, CommModel::Analytic);
        let mut heaps = PairHeaps::new(&eng, key);
        let mut fired = [0; 3];
        while let Some((t, p)) = heaps.pick() {
            let full = heaps
                .ready
                .iter()
                .flat_map(|&u| m.proc_ids().map(move |q| (u, q)))
                .map(|(u, q)| (key(u, eng.earliest_start(u, q)), u, q))
                .min_by(|x, y| {
                    (x.0 .0.total_cmp(&y.0 .0))
                        .then(x.0 .1.total_cmp(&y.0 .1))
                        .then(x.1.cmp(&y.1))
                        .then(x.2.cmp(&y.2))
                })
                .unwrap();
            assert_eq!((t, p), (full.1, full.2), "pick {}", g.task(t).name);
            for (sum, n) in fired.iter_mut().zip(heaps.commit(&mut eng, t, p)) {
                *sum += n;
            }
            for &u in &heaps.ready {
                for q in m.proc_ids() {
                    let cached = heaps.est[u.index() * heaps.procs + q.index()];
                    assert_eq!(
                        cached,
                        eng.earliest_start(u, q),
                        "{} on {q:?}",
                        g.task(u).name
                    );
                }
            }
        }
        let s = eng.finish();
        s.validate(g, m).unwrap();
        assert_eq!(s.placements().len(), g.task_count());
        fired
    }

    #[test]
    fn every_column_rule_fires_and_every_pick_is_the_full_scans() {
        // h and g feed h2 over 5-unit messages, so h2 waits on p0 until 6
        // and leaves the gap [1, 6] behind h. DLS places h, g, h2, then m
        // into that gap at [1, 5]: l's cached start on p0 (1) now overlaps
        // m and is searched again (rule 3), to 16, as [5, 6] is too short.
        // The first two commits extend idle timelines and move every
        // overlapping entry to their finish (rule 2); h2 leaves l's and
        // m's slots in the gap alone (rule 1).
        let mut g = TaskGraph::new("rules");
        let h = g.add_task("h", 1.0);
        let gg = g.add_task("g", 1.0);
        g.add_task("l", 2.0);
        g.add_task("m", 4.0);
        let h2 = g.add_task("h2", 10.0);
        g.add_edge(h, h2, 5.0, "x").unwrap();
        g.add_edge(gg, h2, 5.0, "y").unwrap();
        let m = machine(2);
        let a = GraphAnalysis::analyze(&g);

        let fired = picks_match_the_full_scan(&g, &m, &dls_key(&a));
        assert!(fired.iter().all(|&n| n > 0), "DLS rules fired {fired:?}");
        let fired = picks_match_the_full_scan(&g, &m, &etf_key(&a));
        assert!(fired[UNCHANGED] > 0 && fired[TAIL] > 0, "ETF {fired:?}");
        for (g, m) in [
            (generators::gauss_elimination(6, 2.0, 1.5), machine(3)),
            (generators::fork_join(6, 1.0, 4.0, 1.0, 3.0), machine(4)),
        ] {
            let a = GraphAnalysis::analyze(&g);
            picks_match_the_full_scan(&g, &m, &etf_key(&a));
            picks_match_the_full_scan(&g, &m, &dls_key(&a));
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

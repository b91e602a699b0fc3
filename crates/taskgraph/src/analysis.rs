//! Static graph analysis used by the scheduling heuristics and by Banger's
//! "instant feedback" displays: t-levels, b-levels, static levels, ALAP
//! times, the parallelism profile, and summary statistics.
//!
//! Conventions follow the task-scheduling literature the paper builds on
//! (El-Rewini & Lewis 1990; Kruatrachue 1987):
//!
//! * **t-level(t)** — longest path length from any entry to `t`, *excluding*
//!   `t`'s own weight, *including* communication volumes along the path.
//!   It is the earliest possible start time on an idealised machine.
//! * **b-level(t)** — longest path length from `t` to any exit, *including*
//!   `t`'s own weight and communication volumes.
//! * **static level(t)** — b-level computed with communication ignored
//!   (the HLFET priority).
//! * **ALAP(t)** — latest start time that does not stretch the critical
//!   path.

use crate::graph::{TaskGraph, TaskId};

/// The arcs of a [`TaskGraph`] laid out for passes that read every arc
/// many times: per task its weight, its inputs as `(producer, volume)` in
/// [`TaskGraph::in_edges`] order and its consumers in
/// [`TaskGraph::out_edges`] order, each list one contiguous run of one
/// shared array. A consumer carries no volume: a pass that needs the
/// volume of an out-arc pushes over the consumer's inputs instead, as the
/// backward level passes of [`GraphAnalysis::analyze`] do.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArcTable {
    weight: Vec<f64>,
    /// `inputs[input_start[t]..input_start[t + 1]]` are `t`'s inputs.
    input_start: Vec<u32>,
    inputs: Vec<(TaskId, f64)>,
    /// `consumers[consumer_start[t]..consumer_start[t + 1]]` likewise.
    consumer_start: Vec<u32>,
    consumers: Vec<TaskId>,
}

impl ArcTable {
    /// Lays out the arcs of `g` in one pass over its tasks.
    pub fn new(g: &TaskGraph) -> Self {
        let n = g.task_count();
        let mut table = ArcTable {
            weight: Vec::with_capacity(n),
            input_start: Vec::with_capacity(n + 1),
            inputs: Vec::with_capacity(g.edge_count()),
            consumer_start: Vec::with_capacity(n + 1),
            consumers: Vec::with_capacity(g.edge_count()),
        };
        table.input_start.push(0);
        table.consumer_start.push(0);
        for (t, task) in g.tasks() {
            table.weight.push(task.weight);
            table.inputs.extend(g.in_edges(t).iter().map(|&e| {
                let edge = g.edge(e);
                (edge.src, edge.volume)
            }));
            table
                .consumers
                .extend(g.out_edges(t).iter().map(|&e| g.edge(e).dst));
            table.input_start.push(table.inputs.len() as u32);
            table.consumer_start.push(table.consumers.len() as u32);
        }
        table
    }

    /// Number of tasks.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.weight.len()
    }

    /// Number of arcs (parallel arcs counted apart).
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.inputs.len()
    }

    /// The weight of `t`.
    #[inline]
    pub fn weight(&self, t: TaskId) -> f64 {
        self.weight[t.index()]
    }

    /// The inputs of `t` as `(producer, volume)`, in
    /// [`TaskGraph::in_edges`] order (a producer repeats for parallel arcs).
    #[inline]
    pub fn inputs(&self, t: TaskId) -> &[(TaskId, f64)] {
        let i = t.index();
        &self.inputs[self.input_start[i] as usize..self.input_start[i + 1] as usize]
    }

    /// The consumers of `t`, in [`TaskGraph::out_edges`] order (a consumer
    /// repeats for parallel arcs).
    #[inline]
    pub fn consumers(&self, t: TaskId) -> &[TaskId] {
        let i = t.index();
        &self.consumers[self.consumer_start[i] as usize..self.consumer_start[i + 1] as usize]
    }
}

/// Result of a full static analysis of a task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphAnalysis {
    /// Earliest start times including communication (one per task).
    pub t_level: Vec<f64>,
    /// Longest exit path including the task itself and communication.
    pub b_level: Vec<f64>,
    /// Longest exit path ignoring communication (HLFET priority).
    pub static_level: Vec<f64>,
    /// Latest start times that keep the (comm-inclusive) critical path.
    pub alap: Vec<f64>,
    /// Length of the communication-inclusive critical path.
    pub cp_length: f64,
    /// One valid topological order (reused by schedulers).
    pub topo: Vec<TaskId>,
    /// The graph's arcs, laid out once for the level passes below and for
    /// every scheduling run handed this analysis.
    pub arcs: ArcTable,
}

impl GraphAnalysis {
    /// Runs the full analysis. Panics if the graph is cyclic: callers are
    /// expected to validate designs before analysing them (use
    /// [`TaskGraph::is_dag`]).
    ///
    /// After the topological sort the graph is read once, into the
    /// [`ArcTable`]; every level pass reads the table. The backward passes
    /// push each finished level over the task's inputs instead of pulling
    /// over its consumers: when
    /// a task's turn comes, every consumer has pushed its term, and the
    /// maximum (or minimum) of the same finite values taken in another
    /// order is the same value, so the levels are those of the pull.
    pub fn analyze(g: &TaskGraph) -> Self {
        let topo = g
            .topo_order()
            .expect("analysis requires an acyclic dataflow graph");
        let arcs = ArcTable::new(g);
        let n = arcs.task_count();
        let mut t_level = vec![0.0f64; n];
        for &t in &topo {
            let mut best = 0.0f64;
            for &(src, volume) in arcs.inputs(t) {
                best = best.max(t_level[src.index()] + arcs.weight(src) + volume);
            }
            t_level[t.index()] = best;
        }

        // Until a task's turn, its entries hold the maximum over the
        // consumers pushed so far (0 with none).
        let mut b_level = vec![0.0f64; n];
        let mut static_level = vec![0.0f64; n];
        for &t in topo.iter().rev() {
            let i = t.index();
            let w = arcs.weight(t);
            b_level[i] += w;
            static_level[i] += w;
            for &(src, volume) in arcs.inputs(t) {
                let s = src.index();
                b_level[s] = b_level[s].max(volume + b_level[i]);
                static_level[s] = static_level[s].max(static_level[i]);
            }
        }

        let cp_length = (0..n)
            .map(|i| t_level[i] + b_level[i])
            .fold(0.0f64, f64::max);

        // Likewise the latest finish, which starts at the critical path.
        let mut alap = vec![cp_length; n];
        for &t in topo.iter().rev() {
            let i = t.index();
            alap[i] -= arcs.weight(t);
            for &(src, volume) in arcs.inputs(t) {
                let s = src.index();
                alap[s] = alap[s].min(alap[i] - volume);
            }
        }

        GraphAnalysis {
            t_level,
            b_level,
            static_level,
            alap,
            cp_length,
            topo,
            arcs,
        }
    }

    /// Slack of each task: `alap - t_level`; zero for critical tasks.
    pub fn slack(&self) -> Vec<f64> {
        self.t_level
            .iter()
            .zip(&self.alap)
            .map(|(t, a)| a - t)
            .collect()
    }
}

/// The parallelism profile: for each *depth level* (longest hop count from
/// an entry), how many tasks sit at that level. The maximum is the graph's
/// width — an upper bound on usable processors.
pub fn parallelism_profile(g: &TaskGraph) -> Vec<usize> {
    let topo = match g.topo_order() {
        Ok(t) => t,
        Err(_) => return Vec::new(),
    };
    let mut depth = vec![0usize; g.task_count()];
    let mut max_depth = 0usize;
    for &t in &topo {
        let d = g
            .predecessors(t)
            .map(|p| depth[p.index()] + 1)
            .max()
            .unwrap_or(0);
        depth[t.index()] = d;
        max_depth = max_depth.max(d);
    }
    if g.task_count() == 0 {
        return Vec::new();
    }
    let mut profile = vec![0usize; max_depth + 1];
    for d in depth {
        profile[d] += 1;
    }
    profile
}

/// The graph's width: the maximum of the parallelism profile.
pub fn width(g: &TaskGraph) -> usize {
    parallelism_profile(g).into_iter().max().unwrap_or(0)
}

/// The graph's depth: number of levels in the parallelism profile.
pub fn depth(g: &TaskGraph) -> usize {
    parallelism_profile(g).len()
}

/// Average parallelism: total weight divided by the computation-only
/// critical path length. This is the classic upper bound on achievable
/// speedup.
pub fn average_parallelism(g: &TaskGraph) -> f64 {
    let cp = g.critical_path_length();
    if cp == 0.0 {
        0.0
    } else {
        g.total_weight() / cp
    }
}

/// Summary statistics used by the `repro` binary's design report.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of tasks.
    pub tasks: usize,
    /// Number of arcs.
    pub edges: usize,
    /// Total computation weight.
    pub total_weight: f64,
    /// Total communication volume.
    pub total_volume: f64,
    /// Communication/computation ratio.
    pub ccr: f64,
    /// Computation-only critical path length.
    pub cp_length: f64,
    /// Maximum width (tasks at one depth level).
    pub width: usize,
    /// Number of depth levels.
    pub depth: usize,
    /// Total weight / critical path — the speedup upper bound.
    pub average_parallelism: f64,
}

/// Computes [`GraphStats`] for a design.
pub fn stats(g: &TaskGraph) -> GraphStats {
    GraphStats {
        tasks: g.task_count(),
        edges: g.edge_count(),
        total_weight: g.total_weight(),
        total_volume: g.total_volume(),
        ccr: g.ccr(),
        cp_length: g.critical_path_length(),
        width: width(g),
        depth: depth(g),
        average_parallelism: average_parallelism(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraph;

    /// The canonical two-level fork/join:
    ///        a(2)
    ///   v=4 /    \ v=1
    ///    b(3)    c(5)
    ///   v=2 \    / v=6
    ///        d(1)
    fn fork_join() -> TaskGraph {
        let mut g = TaskGraph::new("fj");
        let a = g.add_task("a", 2.0);
        let b = g.add_task("b", 3.0);
        let c = g.add_task("c", 5.0);
        let d = g.add_task("d", 1.0);
        g.add_edge(a, b, 4.0, "ab").unwrap();
        g.add_edge(a, c, 1.0, "ac").unwrap();
        g.add_edge(b, d, 2.0, "bd").unwrap();
        g.add_edge(c, d, 6.0, "cd").unwrap();
        g
    }

    #[test]
    fn t_levels() {
        let g = fork_join();
        let a = GraphAnalysis::analyze(&g);
        assert_eq!(a.t_level, vec![0.0, 6.0, 3.0, 14.0]);
    }

    #[test]
    fn b_levels() {
        let g = fork_join();
        let a = GraphAnalysis::analyze(&g);
        // d: 1; b: 3+2+1=6; c: 5+6+1=12; a: 2+max(4+6, 1+12)=15
        assert_eq!(a.b_level, vec![15.0, 6.0, 12.0, 1.0]);
        assert_eq!(a.cp_length, 15.0);
    }

    #[test]
    fn static_levels_ignore_comm() {
        let g = fork_join();
        let a = GraphAnalysis::analyze(&g);
        // d: 1; b: 4; c: 6; a: 2+6=8
        assert_eq!(a.static_level, vec![8.0, 4.0, 6.0, 1.0]);
    }

    #[test]
    fn alap_and_slack() {
        let g = fork_join();
        let a = GraphAnalysis::analyze(&g);
        // cp = 15. alap(d) = 14; alap(c) = 14-6-5 = 3; alap(b) = 14-2-3 = 9;
        // alap(a) = min(9-4, 3-1) - 2 = 0.
        assert_eq!(a.alap, vec![0.0, 9.0, 3.0, 14.0]);
        let slack = a.slack();
        assert_eq!(slack, vec![0.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn profile_width_depth() {
        let g = fork_join();
        assert_eq!(parallelism_profile(&g), vec![1, 2, 1]);
        assert_eq!(width(&g), 2);
        assert_eq!(depth(&g), 3);
    }

    #[test]
    fn avg_parallelism() {
        let g = fork_join();
        // total weight 11, comp-only cp = 2+5+1 = 8
        assert!((average_parallelism(&g) - 11.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn stats_summary() {
        let g = fork_join();
        let s = stats(&g);
        assert_eq!(s.tasks, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.width, 2);
        assert_eq!(s.cp_length, 8.0);
    }

    #[test]
    fn empty_profile() {
        let g = TaskGraph::new("e");
        assert!(parallelism_profile(&g).is_empty());
        assert_eq!(width(&g), 0);
        assert_eq!(depth(&g), 0);
        assert_eq!(average_parallelism(&g), 0.0);
    }

    #[test]
    fn independent_tasks_profile() {
        let mut g = TaskGraph::new("ind");
        for i in 0..5 {
            g.add_task(format!("t{i}"), 1.0);
        }
        assert_eq!(parallelism_profile(&g), vec![5]);
        assert_eq!(width(&g), 5);
        let a = GraphAnalysis::analyze(&g);
        assert_eq!(a.cp_length, 1.0);
        assert!(a.t_level.iter().all(|&x| x == 0.0));
    }
}

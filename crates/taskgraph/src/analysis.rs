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
}

impl GraphAnalysis {
    /// Runs the full analysis. Panics if the graph is cyclic: callers are
    /// expected to validate designs before analysing them (use
    /// [`TaskGraph::is_dag`]).
    pub fn analyze(g: &TaskGraph) -> Self {
        let topo = g
            .topo_order()
            .expect("analysis requires an acyclic dataflow graph");
        let n = g.task_count();
        let mut t_level = vec![0.0f64; n];
        for &t in &topo {
            let mut best = 0.0f64;
            for &e in g.in_edges(t) {
                let edge = g.edge(e);
                let cand = t_level[edge.src.index()] + g.task(edge.src).weight + edge.volume;
                best = best.max(cand);
            }
            t_level[t.index()] = best;
        }

        let mut b_level = vec![0.0f64; n];
        let mut static_level = vec![0.0f64; n];
        for &t in topo.iter().rev() {
            let w = g.task(t).weight;
            let mut bb = 0.0f64;
            let mut sb = 0.0f64;
            for &e in g.out_edges(t) {
                let edge = g.edge(e);
                bb = bb.max(edge.volume + b_level[edge.dst.index()]);
                sb = sb.max(static_level[edge.dst.index()]);
            }
            b_level[t.index()] = w + bb;
            static_level[t.index()] = w + sb;
        }

        let cp_length = g
            .task_ids()
            .map(|t| t_level[t.index()] + b_level[t.index()])
            .fold(0.0f64, f64::max);

        let mut alap = vec![0.0f64; n];
        for &t in topo.iter().rev() {
            let w = g.task(t).weight;
            let mut latest_finish = cp_length;
            for &e in g.out_edges(t) {
                let edge = g.edge(e);
                latest_finish = latest_finish.min(alap[edge.dst.index()] - edge.volume);
            }
            alap[t.index()] = latest_finish - w;
        }

        GraphAnalysis {
            t_level,
            b_level,
            static_level,
            alap,
            cp_length,
            topo,
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

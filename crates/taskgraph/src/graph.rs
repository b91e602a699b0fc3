//! The flat weighted task DAG consumed by the scheduler.
//!
//! A [`TaskGraph`] is the result of flattening a hierarchical PITL design:
//! every node is a primitive sequential task with a computational *weight*
//! (abstract operation count; the machine model converts it to seconds),
//! and every arc carries a data *volume* (abstract data units) plus the
//! variable label shown on the arc in Banger's graph editor.

use crate::error::GraphError;
use std::collections::VecDeque;
use std::fmt;

/// Identifier of a task in a [`TaskGraph`]; a dense index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The task's position in the graph's dense node array.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of an edge in a [`TaskGraph`]; a dense index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge's position in the graph's dense edge array.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A primitive sequential task (a PITS node after flattening).
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Human-readable name, e.g. `fan1` or `fl21` in the paper's Figure 1.
    pub name: String,
    /// Computational weight in abstract operations. The target machine's
    /// processor speed converts this to elapsed time.
    pub weight: f64,
    /// Optional name of the PITS program attached to this node; the
    /// executor looks task bodies up by this key.
    pub program: Option<String>,
}

/// A dataflow arc between two tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Producer task.
    pub src: TaskId,
    /// Consumer task.
    pub dst: TaskId,
    /// Data volume in abstract units (words); the machine model converts it
    /// to transmission time.
    pub volume: f64,
    /// Variable label drawn on the arc, e.g. `l21` or `u23`.
    pub label: String,
}

/// A flat, weighted, directed acyclic dataflow graph.
///
/// Nodes and edges are stored densely; adjacency is kept as per-node edge
/// lists so scheduling inner loops never allocate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskGraph {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
    /// `succ[i]` lists edge ids whose `src` is task `i`.
    succ: Vec<Vec<EdgeId>>,
    /// `pred[i]` lists edge ids whose `dst` is task `i`.
    pred: Vec<Vec<EdgeId>>,
}

impl TaskGraph {
    /// Creates an empty graph with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        TaskGraph {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tasks.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Adds a task with the given name and weight, returning its id.
    ///
    /// Weights must be finite and non-negative; this is checked by
    /// [`TaskGraph::try_add_task`], which this method unwraps for the common
    /// case of literal weights.
    pub fn add_task(&mut self, name: impl Into<String>, weight: f64) -> TaskId {
        self.try_add_task(name, weight)
            .expect("task weight must be finite and non-negative")
    }

    /// Fallible variant of [`TaskGraph::add_task`].
    pub fn try_add_task(
        &mut self,
        name: impl Into<String>,
        weight: f64,
    ) -> Result<TaskId, GraphError> {
        if !weight.is_finite() || weight < 0.0 {
            return Err(GraphError::BadWeight(weight));
        }
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task {
            name: name.into(),
            weight,
            program: None,
        });
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        Ok(id)
    }

    /// Attaches the name of a PITS program to a task.
    pub fn set_program(&mut self, t: TaskId, program: impl Into<String>) -> Result<(), GraphError> {
        let task = self
            .tasks
            .get_mut(t.index())
            .ok_or(GraphError::UnknownNode(t.0))?;
        task.program = Some(program.into());
        Ok(())
    }

    /// Adds a dataflow arc `src -> dst` carrying `volume` units of the
    /// variable `label`.
    pub fn add_edge(
        &mut self,
        src: TaskId,
        dst: TaskId,
        volume: f64,
        label: impl Into<String>,
    ) -> Result<EdgeId, GraphError> {
        if src.index() >= self.tasks.len() {
            return Err(GraphError::UnknownNode(src.0));
        }
        if dst.index() >= self.tasks.len() {
            return Err(GraphError::UnknownNode(dst.0));
        }
        if src == dst {
            return Err(GraphError::SelfLoop(src.0));
        }
        if !volume.is_finite() || volume < 0.0 {
            return Err(GraphError::BadWeight(volume));
        }
        let label = label.into();
        if self.succ[src.index()]
            .iter()
            .any(|&e| self.edges[e.index()].dst == dst && self.edges[e.index()].label == label)
        {
            return Err(GraphError::DuplicateEdge {
                src: src.0,
                dst: dst.0,
                label,
            });
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            src,
            dst,
            volume,
            label,
        });
        self.succ[src.index()].push(id);
        self.pred[dst.index()].push(id);
        Ok(id)
    }

    /// Returns the task record for `t`.
    #[inline]
    pub fn task(&self, t: TaskId) -> &Task {
        &self.tasks[t.index()]
    }

    /// Mutable access to the task record for `t`.
    #[inline]
    pub fn task_mut(&mut self, t: TaskId) -> &mut Task {
        &mut self.tasks[t.index()]
    }

    /// Returns the edge record for `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Iterates over all task ids in insertion order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Iterates over all edge ids in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Iterates over all tasks with their ids.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId(i as u32), t))
    }

    /// Iterates over all edges with their ids.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Edge ids leaving `t`.
    #[inline]
    pub fn out_edges(&self, t: TaskId) -> &[EdgeId] {
        &self.succ[t.index()]
    }

    /// Edge ids entering `t`.
    #[inline]
    pub fn in_edges(&self, t: TaskId) -> &[EdgeId] {
        &self.pred[t.index()]
    }

    /// Successor task ids of `t` (may repeat if parallel arcs exist).
    pub fn successors(&self, t: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.succ[t.index()]
            .iter()
            .map(move |&e| self.edges[e.index()].dst)
    }

    /// Predecessor task ids of `t` (may repeat if parallel arcs exist).
    pub fn predecessors(&self, t: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.pred[t.index()]
            .iter()
            .map(move |&e| self.edges[e.index()].src)
    }

    /// In-degree of `t`.
    #[inline]
    pub fn in_degree(&self, t: TaskId) -> usize {
        self.pred[t.index()].len()
    }

    /// Out-degree of `t`.
    #[inline]
    pub fn out_degree(&self, t: TaskId) -> usize {
        self.succ[t.index()].len()
    }

    /// Tasks with no predecessors (graph entries).
    pub fn entry_tasks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.in_degree(t) == 0)
            .collect()
    }

    /// Tasks with no successors (graph exits).
    pub fn exit_tasks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.out_degree(t) == 0)
            .collect()
    }

    /// Total computational weight of all tasks.
    pub fn total_weight(&self) -> f64 {
        self.tasks.iter().map(|t| t.weight).sum()
    }

    /// Total communication volume over all arcs.
    pub fn total_volume(&self) -> f64 {
        self.edges.iter().map(|e| e.volume).sum()
    }

    /// Communication-to-computation ratio (total volume / total weight).
    /// Returns 0 for an empty graph.
    pub fn ccr(&self) -> f64 {
        let w = self.total_weight();
        if w == 0.0 {
            0.0
        } else {
            self.total_volume() / w
        }
    }

    /// Kahn topological sort. Returns `Err(GraphError::Cycle)` when the
    /// graph is cyclic; the error names one node on a cycle.
    pub fn topo_order(&self) -> Result<Vec<TaskId>, GraphError> {
        let n = self.tasks.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.pred[i].len()).collect();
        let mut queue: VecDeque<TaskId> = (0..n as u32)
            .map(TaskId)
            .filter(|t| indeg[t.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(t) = queue.pop_front() {
            order.push(t);
            for &e in &self.succ[t.index()] {
                let d = self.edges[e.index()].dst;
                indeg[d.index()] -= 1;
                if indeg[d.index()] == 0 {
                    queue.push_back(d);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            let culprit = (0..n).find(|&i| indeg[i] > 0).unwrap_or(0);
            Err(GraphError::Cycle(culprit as u32))
        }
    }

    /// True when the graph is acyclic.
    pub fn is_dag(&self) -> bool {
        self.topo_order().is_ok()
    }

    /// Length of the computation-only critical path (ignoring communication),
    /// i.e. the heaviest weight sum along any directed path. This is the
    /// absolute lower bound on parallel completion time on infinitely many
    /// unit-speed processors with free communication.
    pub fn critical_path_length(&self) -> f64 {
        let order = match self.topo_order() {
            Ok(o) => o,
            Err(_) => return f64::INFINITY,
        };
        let mut finish = vec![0.0f64; self.tasks.len()];
        let mut best = 0.0f64;
        for t in order {
            let start = self.pred[t.index()]
                .iter()
                .map(|&e| finish[self.edges[e.index()].src.index()])
                .fold(0.0f64, f64::max);
            finish[t.index()] = start + self.tasks[t.index()].weight;
            best = best.max(finish[t.index()]);
        }
        best
    }

    /// Returns one heaviest (computation-only) path through the graph as a
    /// task sequence from an entry to an exit. Empty for an empty graph.
    pub fn critical_path(&self) -> Vec<TaskId> {
        let order = match self.topo_order() {
            Ok(o) => o,
            Err(_) => return Vec::new(),
        };
        if order.is_empty() {
            return Vec::new();
        }
        let n = self.tasks.len();
        let mut finish = vec![0.0f64; n];
        let mut from: Vec<Option<TaskId>> = vec![None; n];
        for &t in &order {
            let mut start = 0.0f64;
            let mut via = None;
            for &e in &self.pred[t.index()] {
                let p = self.edges[e.index()].src;
                if finish[p.index()] > start {
                    start = finish[p.index()];
                    via = Some(p);
                }
            }
            from[t.index()] = via;
            finish[t.index()] = start + self.tasks[t.index()].weight;
        }
        let mut cur = self
            .task_ids()
            .max_by(|a, b| finish[a.index()].total_cmp(&finish[b.index()]))
            .unwrap();
        let mut path = vec![cur];
        while let Some(p) = from[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Scales every edge volume by `f` (e.g. to sweep the CCR).
    pub fn scale_volumes(&mut self, f: f64) {
        for e in &mut self.edges {
            e.volume *= f;
        }
    }

    /// Finds a task id by name (first match).
    pub fn find_task(&self, name: &str) -> Option<TaskId> {
        self.tasks
            .iter()
            .position(|t| t.name == name)
            .map(|i| TaskId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (TaskGraph, [TaskId; 4]) {
        let mut g = TaskGraph::new("diamond");
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 2.0);
        let c = g.add_task("c", 3.0);
        let d = g.add_task("d", 4.0);
        g.add_edge(a, b, 1.0, "x").unwrap();
        g.add_edge(a, c, 1.0, "y").unwrap();
        g.add_edge(b, d, 1.0, "u").unwrap();
        g.add_edge(c, d, 1.0, "v").unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn build_and_query() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.task_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.entry_tasks(), vec![a]);
        assert_eq!(g.exit_tasks(), vec![d]);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.out_degree(a), 2);
        let succ: Vec<_> = g.successors(a).collect();
        assert_eq!(succ, vec![b, c]);
        assert_eq!(g.task(c).name, "c");
        assert_eq!(g.find_task("b"), Some(b));
        assert_eq!(g.find_task("zzz"), None);
    }

    #[test]
    fn totals_and_ccr() {
        let (g, _) = diamond();
        assert_eq!(g.total_weight(), 10.0);
        assert_eq!(g.total_volume(), 4.0);
        assert!((g.ccr() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, _) = diamond();
        let order = g.topo_order().unwrap();
        let pos: Vec<usize> = g
            .task_ids()
            .map(|t| order.iter().position(|&x| x == t).unwrap())
            .collect();
        for (_, e) in g.edges() {
            assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
    }

    #[test]
    fn cycle_detected() {
        let mut g = TaskGraph::new("cyc");
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 1.0);
        g.add_edge(a, b, 0.0, "x").unwrap();
        g.add_edge(b, a, 0.0, "y").unwrap();
        assert!(matches!(g.topo_order(), Err(GraphError::Cycle(_))));
        assert!(!g.is_dag());
        assert!(g.critical_path_length().is_infinite());
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = TaskGraph::new("s");
        let a = g.add_task("a", 1.0);
        assert_eq!(g.add_edge(a, a, 0.0, "x"), Err(GraphError::SelfLoop(0)));
    }

    #[test]
    fn duplicate_edge_rejected_but_distinct_labels_ok() {
        let mut g = TaskGraph::new("d");
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 1.0);
        g.add_edge(a, b, 1.0, "x").unwrap();
        assert!(matches!(
            g.add_edge(a, b, 2.0, "x"),
            Err(GraphError::DuplicateEdge { .. })
        ));
        // Two different variables may flow between the same pair of tasks.
        g.add_edge(a, b, 2.0, "y").unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn bad_weights_rejected() {
        let mut g = TaskGraph::new("w");
        assert!(g.try_add_task("a", -1.0).is_err());
        assert!(g.try_add_task("a", f64::NAN).is_err());
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 1.0);
        assert!(g.add_edge(a, b, f64::INFINITY, "x").is_err());
    }

    #[test]
    fn unknown_node_rejected() {
        let mut g = TaskGraph::new("u");
        let a = g.add_task("a", 1.0);
        assert_eq!(
            g.add_edge(a, TaskId(9), 1.0, "x"),
            Err(GraphError::UnknownNode(9))
        );
        assert_eq!(
            g.add_edge(TaskId(9), a, 1.0, "x"),
            Err(GraphError::UnknownNode(9))
        );
    }

    #[test]
    fn critical_path_of_diamond() {
        let (g, [a, _, c, d]) = diamond();
        // a -> c -> d = 1 + 3 + 4 = 8
        assert_eq!(g.critical_path_length(), 8.0);
        assert_eq!(g.critical_path(), vec![a, c, d]);
    }

    #[test]
    fn critical_path_single_node() {
        let mut g = TaskGraph::new("one");
        let a = g.add_task("only", 7.0);
        assert_eq!(g.critical_path_length(), 7.0);
        assert_eq!(g.critical_path(), vec![a]);
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new("empty");
        assert!(g.is_empty());
        assert_eq!(g.topo_order().unwrap(), vec![]);
        assert_eq!(g.critical_path_length(), 0.0);
        assert!(g.critical_path().is_empty());
        assert_eq!(g.ccr(), 0.0);
    }

    #[test]
    fn scaling() {
        let (mut g, _) = diamond();
        g.scale_volumes(0.5);
        assert_eq!(g.total_weight(), 10.0);
        assert_eq!(g.total_volume(), 2.0);
    }

    #[test]
    fn program_attachment() {
        let (mut g, [a, ..]) = diamond();
        g.set_program(a, "sqrt_prog").unwrap();
        assert_eq!(g.task(a).program.as_deref(), Some("sqrt_prog"));
        assert!(g.set_program(TaskId(99), "x").is_err());
    }
}

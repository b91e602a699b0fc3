//! Priority-keyed ready queue shared by the task-first heuristics.
//!
//! Every list scheduler in this crate repeatedly asks the same question:
//! *which ready task has the highest static priority, ties toward the
//! lower task id?* The original implementations answered it with a linear
//! scan over a `Vec` of ready tasks plus a `position()`/`swap_remove`
//! deletion — `O(|ready|)` per step, `O(n^2)` per run on wide graphs. This
//! module replaces that with a binary heap so selection is `O(log n)`,
//! while producing **bit-identical** selection order:
//!
//! * priorities are static (computed once from the graph analysis before
//!   the run, never updated), so heap invariants never go stale;
//! * every task enters the queue exactly once (when its last predecessor
//!   completes) and leaves exactly once, so no lazy deletion is needed;
//! * the heap order `(priority, lower-id-wins)` is a *strict* total order
//!   because task ids are unique — the popped maximum is exactly the
//!   element the old `max_by(total_cmp.then(lower id))` scan returned.

use banger_taskgraph::analysis::ArcTable;
use banger_taskgraph::TaskId;
use std::collections::BinaryHeap;

/// One heap entry: a ready task and its (static) selection priority.
#[derive(Debug, Clone, Copy)]
struct Entry {
    pri: f64,
    task: TaskId,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: greatest priority first; among equal priorities the
        // *lower* task id must win, so the id comparison is reversed.
        self.pri
            .total_cmp(&other.pri)
            .then_with(|| other.task.cmp(&self.task))
    }
}

/// Readiness tracking plus `O(log n)` highest-priority selection.
///
/// `pop` returns the next task to place; after committing it, call
/// [`ReadyQueue::complete`] to promote successors whose last dependency it
/// was. The queue is exhausted exactly when every task has been popped
/// once (on a DAG).
pub(crate) struct ReadyQueue<'a> {
    priority: &'a [f64],
    remaining_preds: Vec<u32>,
    heap: BinaryHeap<Entry>,
}

impl<'a> ReadyQueue<'a> {
    /// Builds the queue over the graph of `arcs` with one static
    /// `priority` per task (greater = selected earlier; ties toward lower
    /// task id).
    pub fn new(arcs: &ArcTable, priority: &'a [f64]) -> Self {
        let n = arcs.task_count();
        let remaining_preds: Vec<u32> = (0..n as u32)
            .map(|t| arcs.inputs(TaskId(t)).len() as u32)
            .collect();
        let mut heap = BinaryHeap::with_capacity(n);
        for t in (0..n as u32).map(TaskId) {
            if remaining_preds[t.index()] == 0 {
                heap.push(Entry {
                    pri: priority[t.index()],
                    task: t,
                });
            }
        }
        ReadyQueue {
            priority,
            remaining_preds,
            heap,
        }
    }

    /// Removes and returns the highest-priority ready task.
    pub fn pop(&mut self) -> Option<TaskId> {
        self.heap.pop().map(|e| e.task)
    }

    /// Marks `t` complete, promoting any successors whose last dependency
    /// it was.
    pub fn complete(&mut self, arcs: &ArcTable, t: TaskId) {
        for &s in arcs.consumers(t) {
            let r = &mut self.remaining_preds[s.index()];
            *r -= 1;
            if *r == 0 {
                self.heap.push(Entry {
                    pri: self.priority[s.index()],
                    task: s,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_taskgraph::generators;

    /// The heap must reproduce the legacy linear-scan selection exactly:
    /// max priority, ties toward the lower task id.
    #[test]
    fn heap_matches_linear_scan_order() {
        let g = generators::gauss_elimination(6, 2.0, 1.0);
        // Adversarial priorities with lots of ties.
        let priority: Vec<f64> = g.task_ids().map(|t| (t.index() % 3) as f64).collect();

        // Legacy reference: Vec ready-set with max_by scan.
        let mut remaining: Vec<usize> = g.task_ids().map(|t| g.in_degree(t)).collect();
        let mut ready: Vec<TaskId> = g
            .task_ids()
            .filter(|&t| remaining[t.index()] == 0)
            .collect();
        let mut want = Vec::new();
        while !ready.is_empty() {
            let pos = (0..ready.len())
                .max_by(|&a, &b| {
                    priority[ready[a].index()]
                        .total_cmp(&priority[ready[b].index()])
                        .then(ready[b].0.cmp(&ready[a].0))
                })
                .unwrap();
            let t = ready.swap_remove(pos);
            want.push(t);
            for s in g.successors(t) {
                let r = &mut remaining[s.index()];
                *r -= 1;
                if *r == 0 {
                    ready.push(s);
                }
            }
        }

        let arcs = ArcTable::new(&g);
        let mut q = ReadyQueue::new(&arcs, &priority);
        let mut got = Vec::new();
        while let Some(t) = q.pop() {
            got.push(t);
            q.complete(&arcs, t);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn nan_priorities_still_total_order() {
        // total_cmp puts NaN above +inf; the queue must not panic or loop.
        let g = generators::independent(4, 1.0);
        let priority = [f64::NAN, 1.0, f64::INFINITY, f64::NAN];
        let arcs = ArcTable::new(&g);
        let mut q = ReadyQueue::new(&arcs, &priority);
        let mut got = Vec::new();
        while let Some(t) = q.pop() {
            got.push(t.index());
            q.complete(&arcs, t);
        }
        // NaN (positive) > inf > 1.0; equal NaNs tie toward lower id.
        assert_eq!(got, vec![0, 3, 2, 1]);
    }
}

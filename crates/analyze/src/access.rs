//! The analyzer's reading of an `Expanded` design, the result of the one
//! hierarchy walk (`HierGraph::expand` in `banger_taskgraph::hierarchy`;
//! `Expanded::flatten` is its strict reading). Nothing here walks: the
//! passes are handed the same `Expanded` the scheduler graph is projected
//! from. The walk drops an arc it cannot route and lists why; here each
//! reason becomes a B020 / B021 [`Diagnostic`], so the later passes can
//! still report everything else that is wrong with the design.

use crate::diag::{Code, Diagnostic, Location};
use banger_taskgraph::hierarchy::{BindingFault, BindingProblem, Expanded};

/// The distinct tasks of a storage class's `writers` or `readers`,
/// ascending. The walk lists one task per routed arc, in route order,
/// because `Expanded::flatten`'s edge ids follow that order; a pass that
/// pairs tasks up wants each once.
pub fn distinct(tasks: &[usize]) -> Vec<usize> {
    let mut tasks = tasks.to_vec();
    tasks.sort_unstable();
    tasks.dedup();
    tasks
}

/// Adjacency of the full precedence graph: direct arcs plus a
/// writer -> reader edge for every storage class. `skip_class` omits the
/// induced edges of that one storage class (used by the racy-read pass to
/// ask whether ordering comes from elsewhere).
pub fn adjacency(view: &Expanded, skip_class: Option<usize>) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); view.tasks.len()];
    for arc in &view.arcs {
        adj[arc.src].push(arc.dst);
    }
    for (ci, class) in view.classes.iter().enumerate() {
        if Some(ci) == skip_class {
            continue;
        }
        for &w in &class.writers {
            for &r in &class.readers {
                if w != r {
                    adj[w].push(r);
                }
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// The B020 / B021 finding for an arc the walk dropped.
pub fn binding_diagnostic(problem: &BindingProblem) -> Diagnostic {
    let (compound, label) = (&problem.compound, &problem.label);
    let at = Location::node(compound.clone());
    match &problem.fault {
        BindingFault::Unbound { incoming, .. } => {
            let (side, dir) = if *incoming {
                ("input", "in")
            } else {
                ("output", "out")
            };
            Diagnostic::error(
                Code::B020,
                at,
                format!("compound `{compound}` has no {side} binding for variable `{label}`"),
            )
            .with_help(format!(
                "add `bind {compound} {dir} {label} <inner-node>` so the arc can cross the \
                 compound boundary",
            ))
        }
        BindingFault::NestedUnbound => Diagnostic::error(
            Code::B020,
            at,
            format!("nested compound inside `{compound}` lacks a binding for `{label}`"),
        )
        .with_help("add a bind declaration for the variable on the nested compound"),
        BindingFault::MissingInner(inner) => Diagnostic::error(
            Code::B021,
            at,
            format!(
                "port binding for `{label}` in compound `{compound}` names missing inner \
                 node {inner}",
            ),
        )
        .with_help("bind the port to a node that exists in the expansion"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_taskgraph::{HierGraph, HierNodeId};

    #[test]
    fn storage_between_tasks_forms_a_class() {
        let mut g = HierGraph::new("t");
        let a = g.add_task("a", 1.0);
        let s = g.add_storage("s", 4.0);
        let b = g.add_task("b", 1.0);
        g.add_flow(a, s).unwrap();
        g.add_flow(s, b).unwrap();
        let v = g.expand();
        assert_eq!(v.tasks.len(), 2);
        assert_eq!(v.classes.len(), 1);
        assert_eq!(v.classes[0].base, "s");
        assert_eq!(v.classes[0].writers, vec![0]);
        assert_eq!(v.classes[0].readers, vec![1]);
        assert!(v.problems.is_empty());
        let adj = adjacency(&v, None);
        assert_eq!(adj[0], vec![1]);
    }

    #[test]
    fn missing_port_binding_becomes_b020() {
        let mut inner = HierGraph::new("inner");
        inner.add_task("w", 1.0);
        let mut g = HierGraph::new("outer");
        let c = g.add_compound("C", inner);
        let t = g.add_task("t", 1.0);
        g.add_arc(t, c, "x", 1.0).unwrap();
        let v = g.expand();
        assert_eq!(v.problems.len(), 1);
        let d = binding_diagnostic(&v.problems[0]);
        assert_eq!(d.code, Code::B020);
        assert!(d.message.contains('C'), "{}", d.message);
        // The arc was dropped, not fatal: both tasks still flattened.
        assert_eq!(v.tasks.len(), 2);
    }

    #[test]
    fn binding_to_missing_inner_node_becomes_b021() {
        let mut inner = HierGraph::new("inner");
        inner.add_task("w", 1.0);
        let mut g = HierGraph::new("outer");
        let c = g.add_compound("C", inner);
        g.bind_input(c, "x", HierNodeId(7)).unwrap();
        let t = g.add_task("t", 1.0);
        g.add_arc(t, c, "x", 1.0).unwrap();
        let v = g.expand();
        assert!(
            v.problems
                .iter()
                .any(|p| binding_diagnostic(p).code == Code::B021),
            "{:?}",
            v.problems
        );
    }

    #[test]
    fn aliased_storage_merges_across_boundary() {
        // outer storage S bound to inner storage s: one class, two names.
        let mut inner = HierGraph::new("inner");
        let is = inner.add_storage("s", 2.0);
        let w = inner.add_task("w", 1.0);
        inner.add_flow(w, is).unwrap();
        let mut g = HierGraph::new("outer");
        let c = g.add_compound("C", inner);
        g.bind_output(c, "S", is).unwrap();
        let s = g.add_storage("S", 2.0);
        let r = g.add_task("r", 1.0);
        g.add_arc(c, s, "S", 0.0).unwrap();
        g.add_flow(s, r).unwrap();
        let v = g.expand();
        assert_eq!(v.classes.len(), 1, "{:?}", v.classes);
        assert_eq!(v.classes[0].members.len(), 2);
        assert_eq!(v.classes[0].writers.len(), 1);
        assert_eq!(v.classes[0].readers.len(), 1);
    }
}

//! Rebuilding a [`HierGraph`] design from an optimised [`Flattened`]
//! graph.
//!
//! The optimizer passes work on the flat task graph, but the rest of the
//! toolchain — diagnostics, the document format, scheduling, execution —
//! consumes hierarchical designs. This module closes the loop: the flat
//! graph becomes a single-level design whose storage nodes are exactly
//! the external ports. Flattening the rebuilt design reproduces the
//! optimised graph with task and arc order preserved, so it resolves to
//! the same bindings (`banger_taskgraph::binding`).

use std::collections::BTreeMap;

use banger_taskgraph::hierarchy::{Flattened, HierGraph};
use banger_taskgraph::GraphError;

/// Converts a flattened graph back into a flat (depth-1) design.
///
/// `sizes` supplies storage sizes for port variables (from the original
/// design); ports without an entry default to size `1.0`.
pub fn flat_to_design(
    name: &str,
    flat: &Flattened,
    sizes: &BTreeMap<String, f64>,
) -> Result<HierGraph, GraphError> {
    let mut design = HierGraph::new(name);
    let size_of = |var: &str| sizes.get(var).copied().unwrap_or(1.0);

    // Tasks first, in task-id order, so the rebuilt flatten assigns the
    // same ids.
    let g = &flat.graph;
    let mut node_of = Vec::with_capacity(g.task_count());
    for (_, task) in g.tasks() {
        let id = match &task.program {
            Some(p) => design.add_task_with_program(task.name.clone(), task.weight, p.clone()),
            None => design.add_task(task.name.clone(), task.weight),
        };
        node_of.push(id);
    }

    // Input storage feeds its readers; task-to-task arcs carry over in
    // edge order; output storage collects its writers.
    for port in &flat.inputs {
        let s = design.add_storage(port.var.clone(), size_of(&port.var));
        for &t in &port.tasks {
            design.add_flow(s, node_of[t.index()])?;
        }
    }
    for (_, edge) in g.edges() {
        design.add_arc(
            node_of[edge.src.index()],
            node_of[edge.dst.index()],
            edge.label.clone(),
            edge.volume,
        )?;
    }
    for port in &flat.outputs {
        let s = design.add_storage(port.var.clone(), size_of(&port.var));
        for &t in &port.tasks {
            design.add_flow(node_of[t.index()], s)?;
        }
    }
    Ok(design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_taskgraph::hierarchy::ExternalPort;
    use banger_taskgraph::TaskGraph;

    #[test]
    fn rebuild_round_trips_through_flatten() {
        let mut g = TaskGraph::new("d");
        let p = g.add_task("p", 3.0);
        let c = g.add_task("c", 4.0);
        g.set_program(p, "P").unwrap();
        g.set_program(c, "C").unwrap();
        g.add_edge(p, c, 2.0, "x").unwrap();
        let flat = Flattened {
            graph: std::sync::Arc::new(g),
            inputs: vec![ExternalPort {
                var: "a".into(),
                tasks: vec![p],
            }],
            outputs: vec![ExternalPort {
                var: "y".into(),
                tasks: vec![c],
            }],
        };
        let mut sizes = BTreeMap::new();
        sizes.insert("a".to_string(), 9.0);
        let design = flat_to_design("d", &flat, &sizes).unwrap();
        let again = design.flatten().unwrap();
        assert_eq!(again.graph, flat.graph);
        assert_eq!(again.inputs, flat.inputs);
        assert_eq!(again.outputs, flat.outputs);
    }
}

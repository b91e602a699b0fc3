//! Property tests over hierarchical designs and project documents:
//! flattening conserves work, port wiring is complete, and `.bang`
//! documents round-trip.

#[path = "support/designs.rs"]
mod designs;

use banger::document::{parse_project, print_project};
use banger::project::Project;
use banger_machine::{Machine, MachineParams, Topology};
use banger_taskgraph::{generators, HierGraph, NodeKind};
use designs::grouped_design;
use proptest::prelude::*;

/// Total task weight across all hierarchy levels.
fn hier_weight(g: &HierGraph) -> f64 {
    g.nodes()
        .map(|(_, n)| match &n.kind {
            NodeKind::Task { weight, .. } => *weight,
            NodeKind::Compound { expansion, .. } => hier_weight(expansion),
            NodeKind::Storage { .. } => 0.0,
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flatten_conserves_tasks_and_weight(
        groups in 1usize..6,
        chain_len in 1usize..5,
        weight in 1.0f64..20.0,
    ) {
        let h = grouped_design(groups, chain_len, weight);
        let f = h.flatten().unwrap();
        prop_assert_eq!(f.graph.task_count(), h.leaf_task_count());
        prop_assert!((f.graph.total_weight() - hier_weight(&h)).abs() < 1e-9);
        prop_assert!(f.graph.is_dag());
        // Exactly one external input and one output.
        prop_assert_eq!(f.inputs.len(), 1);
        prop_assert_eq!(f.inputs[0].var.clone(), "input");
        prop_assert_eq!(f.outputs.len(), 1);
        prop_assert_eq!(f.outputs[0].var.clone(), "output");
        // The sink depends on every group's last task.
        let sink = f.graph.find_task("sink").unwrap();
        prop_assert_eq!(f.graph.in_degree(sink), groups);
        // Width equals the number of parallel groups.
        prop_assert_eq!(banger_taskgraph::analysis::width(&f.graph), groups.max(1));
    }

    #[test]
    fn documents_round_trip_generated_designs(
        groups in 1usize..5,
        chain_len in 1usize..4,
        dim in 0u32..3,
    ) {
        // The document stores one name for both project and design, so use
        // the design's name for the project.
        let h = grouped_design(groups, chain_len, 3.0);
        let name = h.name().to_string();
        let mut p = Project::new(name, h);
        p.set_machine(Machine::new(
            Topology::hypercube(dim),
            MachineParams {
                msg_startup: 0.5,
                ..MachineParams::default()
            },
        ));
        let text = print_project(&p);
        let p2 = parse_project(&text).unwrap();
        prop_assert_eq!(p.design(), p2.design());
        prop_assert_eq!(p.machine(), p2.machine());
        // Printing is a fixpoint.
        prop_assert_eq!(text, print_project(&p2));
    }

    #[test]
    fn lu_design_flatten_invariants(n in 2usize..9) {
        let h = generators::lu_hierarchical(n);
        let f = h.flatten().unwrap();
        prop_assert_eq!(f.graph.task_count(), h.leaf_task_count());
        prop_assert!((f.graph.total_weight() - hier_weight(&h)).abs() < 1e-9);
        prop_assert!(f.graph.is_dag());
        // The factor stage width is n-1 (first stage updates in parallel).
        prop_assert_eq!(
            banger_taskgraph::analysis::width(&f.graph),
            (n - 1).max(1)
        );
    }
}

#[test]
fn dot_outputs_are_parse_free() {
    // DOT rendering should never contain unescaped quotes that would
    // break Graphviz, for any of our generated designs.
    for h in [generators::lu_hierarchical(4), grouped_design(3, 2, 2.0)] {
        let dot = banger_taskgraph::dot::hiergraph_to_dot(&h);
        // Equal numbers of braces, brackets and quotes.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
        assert_eq!(dot.matches('[').count(), dot.matches(']').count());
        assert_eq!(dot.matches('"').count() % 2, 0);
    }
}

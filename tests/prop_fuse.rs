//! Differential property tests for the graph-rewrite optimizer.
//!
//! The soundness contract (crates/opt): dead-arc elimination and task
//! fusion preserve Outcomes *exactly* — output values, print output and
//! total interpreter operation counts — on both execution engines. Map
//! expansion preserves values bit-for-bit. These tests check the
//! contract against randomly generated flattened designs seeded with
//! dead arcs, shadowed duplicates and unused declarations.

#[path = "support/flat_gen.rs"]
mod flat_gen;

use std::collections::BTreeMap;

use banger_calc::{InterpConfig, ProgramLibrary, Value};
use banger_exec::{execute, ExecOptions, ExecReport};
use banger_opt::{eliminate_dead, fuse, fuse_with};
use banger_taskgraph::hierarchy::{ExternalPort, Flattened};
use banger_taskgraph::TaskGraph;
use flat_gen::random_flat;
use proptest::prelude::*;

fn run(
    flat: &Flattened,
    lib: &ProgramLibrary,
    ext: &BTreeMap<String, Value>,
    reference: bool,
) -> ExecReport {
    let options = ExecOptions {
        interp: InterpConfig {
            reference,
            ..Default::default()
        },
        ..Default::default()
    };
    execute(flat, lib, ext, &options).expect("design executes")
}

/// Print lines as a sorted multiset. Task ids shift under rewrites and
/// parallel workers may interleave, so only the lines are compared.
fn print_multiset(r: &ExecReport) -> Vec<String> {
    let mut v: Vec<String> = r.prints.iter().map(|(_, line)| line.clone()).collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DCE + fusion preserve output values, print output and total
    /// operation counts exactly, on both engines, for random designs.
    #[test]
    fn optimizer_preserves_outcomes(seed in any::<u64>()) {
        let (flat, lib, ext) = random_flat(seed);
        let base = run(&flat, &lib, &ext, false);

        let (dced, dlib, _) = eliminate_dead(&flat, &lib).unwrap();
        let (fused, flib, stats) = fuse(&dced, &dlib).unwrap();
        prop_assert!(fused.graph.is_dag());
        prop_assert_eq!(stats.tasks_after, fused.graph.task_count());

        for (name, design, library) in [("dce", &dced, &dlib), ("fuse", &fused, &flib)] {
            let vm = run(design, library, &ext, false);
            prop_assert_eq!(&base.outputs, &vm.outputs, "{} vm outputs", name);
            prop_assert_eq!(base.total_ops(), vm.total_ops(), "{} vm ops", name);
            prop_assert_eq!(print_multiset(&base), print_multiset(&vm), "{} vm prints", name);

            let tree = run(design, library, &ext, true);
            prop_assert_eq!(&base.outputs, &tree.outputs, "{} reference outputs", name);
            prop_assert_eq!(base.total_ops(), tree.total_ops(), "{} reference ops", name);
        }
    }

    /// Total graph weight is conserved by fusion: fused tasks weigh the
    /// sum of their members, singletons are untouched.
    #[test]
    fn fusion_conserves_total_weight(seed in any::<u64>()) {
        let (flat, lib, _) = random_flat(seed);
        let (dced, dlib, _) = eliminate_dead(&flat, &lib).unwrap();
        let before = dced.graph.total_weight();
        let (fused, _, _) = fuse(&dced, &dlib).unwrap();
        prop_assert!((fused.graph.total_weight() - before).abs() < 1e-9);
    }
}

/// Explicit clustering: fusing a 3-chain produces one task whose weight
/// is the exact member sum and whose execution matches the original.
#[test]
fn explicit_chain_fusion_weight_and_outcome() {
    let mut lib = ProgramLibrary::new();
    lib.add_source("task A in a out p begin p := a + 1 end")
        .unwrap();
    lib.add_source("task B in p out q begin q := p * 2 end")
        .unwrap();
    lib.add_source("task C in q out r begin r := q - 3 end")
        .unwrap();
    let mut g = TaskGraph::new("chain");
    let a = g.add_task("a", 2.5);
    let b = g.add_task("b", 3.25);
    let c = g.add_task("c", 4.0);
    g.set_program(a, "A").unwrap();
    g.set_program(b, "B").unwrap();
    g.set_program(c, "C").unwrap();
    g.add_edge(a, b, 1.0, "p").unwrap();
    g.add_edge(b, c, 1.0, "q").unwrap();
    let flat = Flattened {
        graph: std::sync::Arc::new(g),
        inputs: vec![ExternalPort {
            var: "a".into(),
            tasks: vec![a],
        }],
        outputs: vec![ExternalPort {
            var: "r".into(),
            tasks: vec![c],
        }],
    };
    let ext: BTreeMap<String, Value> = [("a".to_string(), Value::Num(10.0))].into();

    let base = run(&flat, &lib, &ext, false);
    let (fused, flib, stats) = fuse_with(&flat, &lib, &[0, 0, 0]).unwrap();
    assert_eq!(stats.clusters_fused, 1);
    assert_eq!(fused.graph.task_count(), 1);
    let (_, only) = fused.graph.tasks().next().unwrap();
    assert!((only.weight - 9.75).abs() < 1e-12, "weight {}", only.weight);

    let got = run(&fused, &flib, &ext, false);
    assert_eq!(base.outputs, got.outputs);
    assert_eq!(base.total_ops(), got.total_ops());
    assert_eq!(got.outputs["r"], Value::Num(19.0));
}

/// Map expansion at an odd tiling (3x3 over n = 12) stays bit-identical
/// to the dense template end to end, complementing the 2x2 case in the
/// core crate's tests.
#[test]
fn expansion_n12_tiles3_bit_identical() {
    use banger::project::Project;
    use banger_machine::{Machine, MachineParams, Topology};
    use banger_taskgraph::HierGraph;

    let n = 12;
    let build = || {
        let mut design = HierGraph::new("dense");
        let s_in = design.add_storage("a", (n * n) as f64);
        let t = design.add_task_with_program("fact", 1000.0, "DenseLU");
        let s_out = design.add_storage("lu", (n * n) as f64);
        design.add_flow(s_in, t).unwrap();
        design.add_flow(t, s_out).unwrap();
        let mut p = Project::new("dense", design);
        p.library_mut()
            .add(banger_opt::dense_lu_program("DenseLU", "a", "lu", n));
        p.set_machine(Machine::new(
            Topology::hypercube(2),
            MachineParams::default(),
        ));
        p
    };
    // A diagonally dominant matrix, LU-factorable without pivoting.
    let a: Vec<f64> = (0..n * n)
        .map(|k| {
            let (i, j) = (k / n, k % n);
            if i == j {
                2.0 * n as f64 + i as f64
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            }
        })
        .collect();
    let inputs: BTreeMap<String, Value> =
        [("a".to_string(), Value::array(a))].into_iter().collect();

    let dense = build();
    let want = dense.run(&inputs).unwrap();
    let mut tiled = build();
    tiled.expand_task("fact", 3).unwrap();
    tiled.optimize(false).unwrap();
    let got = tiled.run(&inputs).unwrap();

    let w = want.outputs["lu"].as_array("lu").unwrap();
    let g = got.outputs["lu"].as_array("lu").unwrap();
    assert_eq!(w.len(), g.len());
    for (x, y) in w.iter().zip(g.iter()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

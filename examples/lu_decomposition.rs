//! The paper's running example end-to-end: the Figure 1 hierarchical LU
//! design solving `Ax = b`, scheduled on hypercubes (Figure 3), simulated,
//! executed on threads, and verified against a reference solver.
//!
//! Run with: `cargo run --example lu_decomposition [-- n]` (default n=5).

use banger::figures;
use banger::lu::{lu_inputs, solve_reference, test_system};
use banger_machine::{Machine, Topology};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(5)
        .clamp(2, 9);

    println!("=== Banger LU decomposition, {n}x{n} system ===\n");

    let machine = Machine::new(Topology::hypercube(2), figures::figure3_params());
    println!("target machine: {}\n", machine.describe());
    let project = figures::lu_project(n, machine);

    // Design statistics (the "instant feedback" display).
    let f = project.flatten().unwrap();
    let stats = banger_taskgraph::analysis::stats(&f.graph);
    println!(
        "design: {} tasks, {} arcs, width {}, critical path {:.1}, avg parallelism {:.2}\n",
        stats.tasks, stats.edges, stats.width, stats.cp_length, stats.average_parallelism
    );

    // Schedule with MH; show the Gantt chart.
    let schedule = project.schedule("MH").expect("schedules");
    println!("{}", project.gantt(&schedule).unwrap());

    // Whole-program trial run (discrete-event simulation).
    let sim = project.simulate(&schedule).expect("simulates");
    println!(
        "simulation: predicted makespan {:.2}, achieved {:.2} (ratio {:.3}), {} messages\n",
        sim.predicted_makespan,
        sim.achieved_makespan(),
        sim.compare(),
        sim.stats.messages
    );

    // Execute for real and verify.
    let (a, b) = test_system(n);
    let report = project.run(&lu_inputs(&a, &b)).expect("executes");
    let x = report.outputs["x"].as_array("x").unwrap().to_vec();
    let reference = solve_reference(&a, &b);
    let max_err = x
        .iter()
        .zip(&reference)
        .map(|(g, w)| (g - w).abs())
        .fold(0.0f64, f64::max);
    println!(
        "executed {} task runs in {:?}",
        report.runs.len(),
        report.wall
    );
    println!("x = {x:?}");
    println!("max |x - x_ref| = {max_err:.3e}");
    assert!(max_err < 1e-9, "solution must match the reference solver");

    // Speedup prediction across hypercube sizes (Figure 3, right).
    let points = project
        .predict_speedup(
            &[
                Topology::single(),
                Topology::hypercube(1),
                Topology::hypercube(2),
                Topology::hypercube(3),
            ],
            figures::figure3_params(),
        )
        .unwrap();
    println!();
    println!(
        "{}",
        banger::speedup_chart(
            &format!("predicted speedup, LU {n}x{n} on hypercubes"),
            &points,
            40
        )
    );
}

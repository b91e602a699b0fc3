//! Workspace integration tests: the complete Banger workflow across all
//! crates — design → programs → machine → schedule → simulate → execute →
//! verify.

use banger::figures;
use banger::lu::{lu_inputs, lu_program_library, solve_reference, test_system};
use banger::project::Project;
use banger_calc::Value;
use banger_machine::{Machine, MachineParams, Topology};
use banger_taskgraph::generators;
use std::collections::BTreeMap;

#[test]
fn lu_workflow_all_sizes_and_machines() {
    for n in 2..=6 {
        for topo in [
            Topology::single(),
            Topology::hypercube(1),
            Topology::hypercube(2),
            Topology::hypercube(3),
        ] {
            let m = Machine::new(topo, figures::figure3_params());
            let p = figures::lu_project(n, m.clone());
            // Every heuristic schedules validly.
            for h in banger_sched::HEURISTIC_NAMES {
                let s = p.schedule(h).unwrap();
                let g = p.flatten().unwrap().graph.clone();
                s.validate(&g, &m)
                    .unwrap_or_else(|e| panic!("n={n} {h} on {}: {e}", m.topology().name()));
                // Simulation replays it.
                let sim = p.simulate(&s).unwrap();
                assert!(sim.compare() >= 0.9, "n={n} {h}: ratio {}", sim.compare());
            }
            // Execution solves the system.
            let (a, b) = test_system(n);
            let report = p.run(&lu_inputs(&a, &b)).unwrap();
            let got = report.outputs["x"].as_array("x").unwrap().to_vec();
            let want = solve_reference(&a, &b);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9, "n={n}");
            }
        }
    }
}

#[test]
fn pinned_execution_matches_greedy_for_every_heuristic() {
    let m = Machine::new(Topology::hypercube(2), figures::figure3_params());
    let p = figures::lu_project(4, m);
    let (a, b) = test_system(4);
    let baseline = p.run(&lu_inputs(&a, &b)).unwrap().outputs;
    for h in ["HLFET", "ETF", "MH", "DSH"] {
        let s = p.schedule(h).unwrap();
        let pinned = p.run_scheduled(&s, &lu_inputs(&a, &b)).unwrap();
        assert_eq!(pinned.outputs, baseline, "{h}");
    }
}

#[test]
fn measured_weights_feed_back_into_scheduling() {
    // The instant-feedback loop: run, measure real op counts, re-weight
    // the flat graph, re-schedule. The re-weighted schedule must still be
    // valid and the predicted makespan must change.
    let m = Machine::new(Topology::hypercube(2), figures::figure3_params());
    let p = figures::lu_project(4, m.clone());
    let s_before = p.schedule("MH").unwrap();
    let (a, b) = test_system(4);
    let report = p.run(&lu_inputs(&a, &b)).unwrap();
    let mut g = (*p.flatten().unwrap().graph).clone();
    let weights = report.measured_weights(g.task_count());
    let ids: Vec<_> = g.task_ids().collect();
    for t in ids {
        g.task_mut(t).weight = weights[t.index()];
    }
    let s_after = banger_sched::mh::mh(&g, &m);
    s_after.validate(&g, &m).unwrap();
    assert_ne!(
        s_before.makespan(),
        s_after.makespan(),
        "measured weights should differ from nominal ones"
    );
}

#[test]
fn panel_to_execution_round_trip() {
    // Record a task on the calculator panel, drop it into a design, run
    // the design — the full non-programmer story.
    let mut panel = banger_calc::Panel::new();
    panel.begin_task("Hypot");
    panel.declare_in("p", Value::Num(3.0)).unwrap();
    panel.declare_in("q", Value::Num(4.0)).unwrap();
    panel.declare_out("h").unwrap();
    panel.record_line("h := sqrt(p ^ 2 + q ^ 2)").unwrap();
    let (prog, _) = panel.finish_task().unwrap();

    let mut design = banger_taskgraph::HierGraph::new("hypot");
    let sp = design.add_storage("p", 1.0);
    let sq = design.add_storage("q", 1.0);
    let t = design.add_task_with_program("hypot", 5.0, "Hypot");
    let sh = design.add_storage("h", 1.0);
    design.add_flow(sp, t).unwrap();
    design.add_flow(sq, t).unwrap();
    design.add_flow(t, sh).unwrap();

    let mut project = Project::new("hypot", design);
    project.library_mut().add(prog);
    project.set_machine(Machine::new(Topology::single(), MachineParams::default()));

    let inputs: BTreeMap<String, Value> = [
        ("p".to_string(), Value::Num(3.0)),
        ("q".to_string(), Value::Num(4.0)),
    ]
    .into_iter()
    .collect();
    let report = project.run(&inputs).unwrap();
    assert_eq!(report.outputs["h"], Value::Num(5.0));
}

#[test]
fn grain_packing_pipeline() {
    // Pack a fine-grain graph, schedule the packed version, verify it
    // never loses to the raw schedule when startup costs are punishing.
    let g = generators::lattice(5, 5, 1.0, 5.0);
    let m = Machine::new(
        Topology::hypercube(2),
        MachineParams {
            process_startup: 3.0,
            ..MachineParams::default()
        },
    );
    let packing = banger_sched::grain::pack(&g).unwrap();
    assert!(packing.packed.task_count() < g.task_count());
    let raw = banger_sched::list::etf(&g, &m);
    let packed = banger_sched::list::etf(&packing.packed, &m);
    raw.validate(&g, &m).unwrap();
    packed.validate(&packing.packed, &m).unwrap();
    assert!(
        packed.makespan() <= raw.makespan(),
        "packed {} vs raw {}",
        packed.makespan(),
        raw.makespan()
    );
}

#[test]
fn textfmt_round_trip_through_scheduling() {
    // Save a design to the text format, load it back, schedule both —
    // identical schedules.
    let g = generators::gauss_elimination(6, 2.0, 1.5);
    let text = banger_taskgraph::textfmt::to_text(&g);
    let g2 = banger_taskgraph::textfmt::from_text(&text).unwrap();
    assert_eq!(g, g2);
    let m = Machine::new(Topology::hypercube(2), MachineParams::default());
    assert_eq!(banger_sched::mh::mh(&g, &m), banger_sched::mh::mh(&g2, &m));
}

#[test]
fn heterogeneous_machine_end_to_end() {
    // Processor 0 is 4x faster: schedules should prefer it, and the
    // validator must accept the heterogeneous durations.
    let mut m = Machine::new(Topology::fully_connected(4), MachineParams::default());
    m.set_relative_speed(banger_machine::ProcId(0), 4.0)
        .unwrap();
    let g = generators::gauss_elimination(6, 2.0, 0.5);
    for h in ["ETF", "DLS", "MH", "DSH"] {
        let s = banger_sched::run_heuristic(h, &g, &m).unwrap();
        s.validate(&g, &m).unwrap_or_else(|e| panic!("{h}: {e}"));
        // Busy time understates the fast processor (it finishes tasks in a
        // quarter of the time); compare executed *weight* = busy x speed.
        let fast_work = s.busy_time(banger_machine::ProcId(0)) * 4.0;
        let slow_work = s.busy_time(banger_machine::ProcId(3));
        assert!(
            fast_work >= slow_work,
            "{h}: fast processor should execute at least as much weight ({fast_work} vs {slow_work})"
        );
    }
}

#[test]
fn figures_are_stable() {
    // The figure builders are deterministic (no ambient randomness).
    assert_eq!(figures::figure1(), figures::figure1());
    assert_eq!(figures::figure2(), figures::figure2());
    assert_eq!(figures::figure3(), figures::figure3());
    assert_eq!(figures::figure4(), figures::figure4());
}

#[test]
fn program_library_and_design_agree_for_all_lu_sizes() {
    for n in 2..=9 {
        let lib = lu_program_library(n);
        let f = generators::lu_hierarchical(n).flatten().unwrap();
        for (_, task) in f.graph.tasks() {
            let pname = task.program.as_deref().unwrap();
            let prog = lib
                .get(pname)
                .unwrap_or_else(|| panic!("n={n}: missing {pname}"));
            // Every incoming arc label the task consumes is declared.
            for &e in f.graph.in_edges(f.graph.find_task(&task.name).unwrap()) {
                let label = &f.graph.edge(e).label;
                assert!(
                    prog.inputs.iter().any(|v| v == label),
                    "n={n}: task {} does not declare input {label}",
                    task.name
                );
            }
        }
    }
}

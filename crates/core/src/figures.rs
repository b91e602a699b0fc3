//! Builders that regenerate each figure of the paper. The `repro` binary
//! in `banger-bench` prints these; EXPERIMENTS.md records the outputs.

use crate::chart::{speedup_chart, SpeedupPoint};
use crate::gantt;
use crate::lu::{lu_inputs, lu_program_library, solve_reference, test_system};
use crate::project::{short_name, Project};
use banger_calc::{parser, pretty, Button, Panel, Value};
use banger_machine::{Machine, MachineParams, Topology};
use banger_taskgraph::{analysis, dot, generators};
use std::fmt::Write as _;

/// Machine parameters used for the Figure 3 reproduction: modest message
/// startup and bandwidth so the LU design's communication is visible but
/// not dominant (the paper does not publish its exact constants; shapes,
/// not absolute numbers, are the reproduction target).
pub fn figure3_params() -> MachineParams {
    MachineParams {
        processor_speed: 1.0,
        process_startup: 0.1,
        msg_startup: 0.25,
        transmission_rate: 8.0,
        ..MachineParams::default()
    }
}

/// **Figure 1** — the 2-level hierarchical dataflow graph of the LU
/// decomposition design for a 3-by-3 system `Ax = b`. Returns a printable
/// report: design statistics plus the DOT rendering of the hierarchy.
pub fn figure1() -> String {
    let h = generators::lu_hierarchical(3);
    let f = h.flatten().expect("LU design flattens");
    let stats = analysis::stats(&f.graph);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 1 — Hierarchical dataflow graph, LU of 3x3 Ax=b"
    );
    let _ = writeln!(out, "design: {} (depth {})", h.name(), h.depth());
    let _ = writeln!(
        out,
        "top level: {} nodes, {} arcs; flattened: {} tasks, {} arcs",
        h.node_count(),
        h.arc_count(),
        stats.tasks,
        stats.edges
    );
    let _ = writeln!(
        out,
        "width {} / depth {} / critical path {:.1} / avg parallelism {:.2}",
        stats.width, stats.depth, stats.cp_length, stats.average_parallelism
    );
    let _ = writeln!(
        out,
        "external inputs: {:?}; outputs: {:?}",
        f.inputs.iter().map(|p| p.var.as_str()).collect::<Vec<_>>(),
        f.outputs.iter().map(|p| p.var.as_str()).collect::<Vec<_>>()
    );
    out.push('\n');
    out.push_str(&dot::hiergraph_to_dot(&h));
    out
}

/// **Figure 2** — the interconnection topologies Banger supports. Returns
/// a table of name / processors / links / degree / diameter.
pub fn figure2() -> String {
    let topos = [
        Topology::hypercube(3),
        Topology::mesh(4, 4),
        Topology::tree(2, 3),
        Topology::star(8),
        Topology::fully_connected(8),
        Topology::ring(8),
    ];
    let mut out = String::new();
    let _ = writeln!(out, "Figure 2 — Supported interconnection topologies");
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>6} {:>9} {:>9} {:>10}",
        "topology", "procs", "links", "max-deg", "diameter", "mean-dist"
    );
    for t in topos {
        let r = banger_machine::RoutingTable::build(&t);
        let maxdeg = t.proc_ids().map(|p| t.degree(p)).max().unwrap_or(0);
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>6} {:>9} {:>9} {:>10.3}",
            t.name(),
            t.processors(),
            t.link_count(),
            maxdeg,
            r.diameter().map(|d| d.to_string()).unwrap_or_default(),
            r.mean_distance()
        );
    }
    out
}

/// **Figure 3** — Gantt charts of the LU design mapped (by MH) onto 2-, 4-
/// and 8-processor hypercubes, plus the speedup-prediction chart.
pub fn figure3() -> String {
    let params = figure3_params();
    let f = generators::lu_hierarchical(3).flatten().unwrap();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3 — LU design scheduled on hypercubes (MH heuristic)"
    );
    let mut points = vec![];
    for dim in 0..=3u32 {
        let m = Machine::new(Topology::hypercube(dim), params);
        let s = banger_sched::mh::mh(&f.graph, &m);
        s.validate(&f.graph, &m).expect("MH schedules validate");
        if dim > 0 {
            out.push('\n');
            out.push_str(&gantt::render(&s, m.processors(), |t| {
                short_name(&f.graph.task(t).name)
            }));
        }
        points.push(SpeedupPoint {
            processors: m.processors(),
            speedup: s.speedup(&f.graph, &m),
        });
    }
    out.push('\n');
    out.push_str(&speedup_chart(
        "Predicted speedup, LU 3x3 on hypercubes (1,2,4,8 processors)",
        &points,
        40,
    ));

    // The 3x3 design has average parallelism ~1.3, so its curve saturates
    // immediately; the paper's speedup chart shape (growth over 2/4/8)
    // appears once the system is large enough to have parallel width.
    let f6 = generators::lu_hierarchical(6).flatten().unwrap();
    let mut pts6 = Vec::new();
    for dim in 0..=3u32 {
        let m = Machine::new(Topology::hypercube(dim), params);
        let s = banger_sched::mh::mh(&f6.graph, &m);
        pts6.push(SpeedupPoint {
            processors: m.processors(),
            speedup: s.speedup(&f6.graph, &m),
        });
    }
    out.push('\n');
    out.push_str(&speedup_chart(
        "Predicted speedup, LU 6x6 on hypercubes (1,2,4,8 processors)",
        &pts6,
        40,
    ));
    out
}

/// The paper's Figure 4 program, verbatim.
pub const SQUARE_ROOT_SRC: &str = "\
task SquareRoot
  in a
  out x
  local g, prev
begin
  g := a / 2
  prev := 0
  while abs(g - prev) > 1e-12 do
    prev := g
    g := (g + a / g) / 2
  end
  x := g
end
";

/// **Figure 4** — the calculator panel defining the `SquareRoot` task
/// (Newton–Raphson), built by button presses, trial-run on `a = 2`.
pub fn figure4() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4 — Calculator panel: SquareRoot task (Newton–Raphson)"
    );

    // Immediate mode: the calculator evaluates as you type.
    let mut panel = Panel::new();
    panel.begin_task("SquareRoot");
    panel.declare_in("a", Value::Num(2.0)).unwrap();
    panel.declare_out("x").unwrap();
    panel.declare_local("g").unwrap();
    panel.declare_local("prev").unwrap();
    panel
        .press_all([Button::Var("a".into()), Button::Op('/'), Button::Digit(2)])
        .unwrap();
    let g0 = panel.store("g").unwrap();
    let _ = writeln!(out, "panel: a / 2 [STO g] -> {g0}   (instant feedback)");
    panel.press(Button::Digit(0)).unwrap();
    panel.store("prev").unwrap();
    panel.record_line("while abs(g - prev) > 1e-12 do").unwrap();
    panel.record_line("prev := g").unwrap();
    panel.record_line("g := (g + a / g) / 2").unwrap();
    panel.record_line("end").unwrap();
    panel.record_line("x := g").unwrap();
    let (prog, _src) = panel.finish_task().unwrap();

    // The recorded program equals the canonical Figure 4 source.
    let reference = parser::parse_program(SQUARE_ROOT_SRC).unwrap();
    debug_assert_eq!(prog, reference);
    out.push('\n');
    out.push_str("program (lower window):\n");
    out.push_str(&pretty::print_program(&prog));

    // Trial run, through the same compile-once bytecode path the
    // executor uses (the tree-walker stays available via `--reference`).
    let outcome = banger_calc::vm::compile_and_run(
        &prog,
        &[("a".to_string(), Value::Num(2.0))].into_iter().collect(),
        banger_calc::InterpConfig::default(),
    )
    .unwrap();
    let x = outcome.outputs["x"].as_num("x").unwrap();
    let _ = writeln!(
        out,
        "\ntrial run: a = 2  =>  x = {x}  ({} ops, |x - sqrt(2)| = {:.2e})",
        outcome.ops,
        (x - 2.0_f64.sqrt()).abs()
    );
    out
}

/// Builds the complete Figure-1 LU project (design + programs + default
/// machine) — the shared starting point for examples and benches.
pub fn lu_project(n: usize, machine: Machine) -> Project {
    let mut p = Project::new(format!("LU-{n}x{n}"), generators::lu_hierarchical(n));
    *p.library_mut() = lu_program_library(n);
    p.set_machine(machine);
    p
}

/// Executes the LU project end-to-end and verifies the answer against the
/// reference solver; returns a one-line report. Used by `repro` to show
/// that the reproduced environment is not just plumbing.
pub fn lu_end_to_end(n: usize) -> String {
    let p = lu_project(n, Machine::new(Topology::hypercube(2), figure3_params()));
    let (a, b) = test_system(n);
    let report = p.run(&lu_inputs(&a, &b)).expect("LU executes");
    let got = report.outputs["x"].as_array("x").unwrap().to_vec();
    let want = solve_reference(&a, &b);
    let err = got
        .iter()
        .zip(&want)
        .map(|(g, w)| (g - w).abs())
        .fold(0.0f64, f64::max);
    format!(
        "LU {n}x{n}: executed {} task runs on {} threads, max |x - x_ref| = {err:.2e}",
        report.runs.len(),
        report
            .runs
            .iter()
            .map(|r| r.worker)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_contains_structure() {
        let text = figure1();
        assert!(text.contains("Figure 1"));
        assert!(text.contains("flattened: 11 tasks"), "{text}");
        assert!(text.contains("subgraph cluster"));
        assert!(text.contains("fan1"));
        assert!(text.contains("[\"A\", \"b\"]"));
    }

    #[test]
    fn figure2_lists_all_topologies() {
        let text = figure2();
        for name in [
            "hypercube-3",
            "mesh-4x4",
            "tree-2x3",
            "star-8",
            "full-8",
            "ring-8",
        ] {
            assert!(text.contains(name), "missing {name}:\n{text}");
        }
        // hypercube-3 diameter is 3
        let line = text.lines().find(|l| l.contains("hypercube-3")).unwrap();
        assert!(line.contains(" 3"), "{line}");
    }

    #[test]
    fn figure3_has_gantts_and_speedup() {
        let text = figure3();
        assert!(text.matches("Gantt chart").count() == 3, "{text}");
        assert!(text.contains("Predicted speedup"));
        assert!(text.contains("8 procs"));
    }

    #[test]
    fn figure4_runs_newton_raphson() {
        let text = figure4();
        assert!(text.contains("task SquareRoot"));
        assert!(text.contains("trial run"));
        assert!(text.contains("1.4142135623"), "{text}");
    }

    #[test]
    fn lu_end_to_end_is_accurate() {
        let line = lu_end_to_end(4);
        assert!(line.contains("max |x - x_ref|"));
        // extract exponent: must be tiny
        assert!(
            line.contains("e-1") || line.contains("e-9") || line.contains("0.00e0"),
            "{line}"
        );
    }
}

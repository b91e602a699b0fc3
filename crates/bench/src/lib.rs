#![warn(missing_docs)]

//! # banger-bench — workloads and experiment drivers
//!
//! The library behind the `repro` binary: the experiment definitions for
//! every figure and results paragraph of the paper (see DESIGN.md's
//! experiment index: F1–F4, R1–R4, ablations A1–A3).

use banger::chart::SpeedupPoint;
use banger::figures;
use banger_machine::{Machine, MachineParams, Topology};
use banger_sched::{bounds, HEURISTIC_NAMES};
use banger_sim::simulate;
use banger_taskgraph::{generators, TaskGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// The flat graph of the paper's hierarchical `n`×`n` LU design.
fn lu_graph(n: usize) -> TaskGraph {
    std::sync::Arc::unwrap_or_clone(generators::lu_hierarchical(n).flatten().unwrap().graph)
}

/// The benchmark workload suite: name + graph, covering the structures the
/// scheduling literature (and the paper's own LU example) exercises.
pub fn workload_suite() -> Vec<(&'static str, TaskGraph)> {
    let mut rng = StdRng::seed_from_u64(1994); // ICPP 1994
    vec![
        ("lu-5", lu_graph(5)),
        ("gauss-8", generators::gauss_elimination(8, 2.0, 1.0)),
        ("fft-16", generators::fft(16, 4.0, 8.0)),
        ("lattice-6x6", generators::lattice(6, 6, 3.0, 6.0)),
        (
            "forkjoin-12",
            generators::fork_join(12, 2.0, 10.0, 2.0, 12.0),
        ),
        ("outtree-4x2", generators::outtree(4, 2, 3.0, 8.0)),
        ("cholesky-7", generators::cholesky(7, 2.0, 1.5)),
        (
            "divcon-4",
            generators::divide_conquer(4, 1.0, 12.0, 2.0, 4.0),
        ),
        (
            "random-48",
            generators::random_layered(
                &mut rng,
                &generators::RandomSpec {
                    layers: 6,
                    width: 8,
                    edge_prob: 0.3,
                    weight: (5.0, 40.0),
                    volume: (1.0, 15.0),
                },
            ),
        ),
    ]
}

/// Cost parameters for the comparison suite: slower links than the
/// Figure 3 set, so communication placement is actually visible in the
/// tables (with fast links every reasonable heuristic pins to the
/// critical-path bound and the comparison degenerates).
pub fn suite_params() -> MachineParams {
    MachineParams {
        processor_speed: 1.0,
        process_startup: 0.1,
        msg_startup: 0.5,
        transmission_rate: 2.0,
        ..MachineParams::default()
    }
}

/// The machine suite: every Figure 2 topology at 8-ish processors, with
/// the [`suite_params`] cost set.
pub fn machine_suite() -> Vec<Machine> {
    let params = suite_params();
    vec![
        Machine::new(Topology::hypercube(3), params),
        Machine::new(Topology::mesh(2, 4), params),
        Machine::new(Topology::tree(2, 2), params),
        Machine::new(Topology::star(8), params),
        Machine::new(Topology::fully_connected(8), params),
        Machine::new(Topology::ring(8), params),
    ]
}

/// R1 — heuristic comparison table: one row per (workload, machine,
/// heuristic) with makespan, speedup and makespan/lower-bound ratio.
pub fn sched_compare_table() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "R1 — scheduler comparison (makespan | speedup | makespan/LB)"
    );
    for (wname, g) in workload_suite() {
        let _ = writeln!(
            out,
            "\nworkload {wname} ({} tasks, ccr {:.2}):",
            g.task_count(),
            g.ccr()
        );
        let _ = write!(out, "{:<14}", "machine");
        for h in HEURISTIC_NAMES {
            let _ = write!(out, " {h:>18}");
        }
        out.push('\n');
        for m in machine_suite() {
            let lb = bounds::lower_bound(&g, &m);
            let _ = write!(out, "{:<14}", m.topology().name());
            // One parallel sweep per machine row; identical to the old
            // heuristic-at-a-time loop.
            for s in banger_sched::sweep::sweep_heuristics(&HEURISTIC_NAMES, &g, &m) {
                let s = s.expect("known heuristic");
                debug_assert!(s.validate(&g, &m).is_ok());
                let _ = write!(
                    out,
                    " {:>7.1} {:>4.2}x {:>4.2}",
                    s.makespan(),
                    s.speedup(&g, &m),
                    s.makespan() / lb
                );
            }
            out.push('\n');
        }
    }
    out
}

/// R2 — predicted vs achieved: simulate each heuristic's schedule and
/// report the achieved/predicted makespan ratio.
pub fn predicted_vs_achieved_table() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "R2 — predicted vs achieved makespan (DES simulation; ratio = achieved/predicted)"
    );
    let _ = writeln!(
        out,
        "{:<14} {:<14} {:>10} {:>10} {:>7} {:>9} {:>11}",
        "workload", "machine", "predicted", "achieved", "ratio", "messages", "queue-delay"
    );
    for (wname, g) in workload_suite() {
        for m in machine_suite() {
            for h in ["ETF", "MH"] {
                let s = banger_sched::run_heuristic(h, &g, &m).unwrap();
                let r = simulate(&g, &m, &s).expect("simulates");
                let _ = writeln!(
                    out,
                    "{:<14} {:<14} {:>10.2} {:>10.2} {:>7.3} {:>9} {:>11.2}  ({h})",
                    wname,
                    m.topology().name(),
                    s.makespan(),
                    r.achieved_makespan(),
                    r.compare(),
                    r.stats.messages,
                    r.stats.queue_delay
                );
            }
        }
    }
    out
}

/// R3 — speedup sweep of the LU and Gauss designs across processor counts
/// on hypercubes (extends Figure 3's 2/4/8 sweep to 1..=16).
pub fn speedup_sweep() -> String {
    let params = figures::figure3_params();
    let mut out = String::new();
    for (name, g) in [
        ("LU 5x5", lu_graph(5)),
        ("Gauss 8", generators::gauss_elimination(8, 2.0, 1.0)),
    ] {
        let machines: Vec<Machine> = (0..=4u32)
            .map(|dim| Machine::new(Topology::hypercube(dim), params))
            .collect();
        let points: Vec<SpeedupPoint> = machines
            .iter()
            .zip(banger_sched::sweep::sweep_machines("MH", &g, &machines).unwrap())
            .map(|(m, s)| SpeedupPoint {
                processors: m.processors(),
                speedup: s.speedup(&g, m),
            })
            .collect();
        out.push_str(&banger::speedup_chart(
            &format!("R3 — {name} on hypercubes, MH"),
            &points,
            40,
        ));
        out.push('\n');
    }
    out
}

/// A1 — communication-awareness ablation: naive (comm-blind) vs ETF vs MH
/// as the communication volume scales.
pub fn ablation_comm() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "A1 — value of communication awareness (fork-join, volume sweep, hypercube-3)"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>10} {:>10}",
        "ccr", "naive", "ETF", "MH"
    );
    let m = Machine::new(Topology::hypercube(3), figures::figure3_params());
    for scale in [0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
        let mut g = generators::fork_join(8, 2.0, 10.0, 2.0, 1.0);
        g.scale_volumes(scale * 10.0);
        let row: Vec<f64> = banger_sched::sweep::sweep_heuristics(&["naive", "ETF", "MH"], &g, &m)
            .into_iter()
            .map(|s| s.unwrap().makespan())
            .collect();
        let _ = writeln!(
            out,
            "{:>8.2} {:>10.2} {:>10.2} {:>10.2}",
            g.ccr(),
            row[0],
            row[1],
            row[2]
        );
    }
    out
}

/// A2 — duplication ablation: ETF vs DSH as message startup grows.
pub fn ablation_duplication() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "A2 — value of duplication (out-tree, msg-startup sweep, 8 procs full)"
    );
    let _ = writeln!(
        out,
        "{:>12} {:>10} {:>10} {:>8}",
        "msg-startup", "ETF", "DSH", "copies"
    );
    let g = generators::outtree(3, 2, 3.0, 2.0);
    for startup in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let m = Machine::new(
            Topology::fully_connected(8),
            MachineParams {
                msg_startup: startup,
                ..MachineParams::default()
            },
        );
        let e = banger_sched::list::etf(&g, &m);
        let d = banger_sched::dsh::dsh(&g, &m);
        let copies = d.placements().len() - g.task_count();
        let _ = writeln!(
            out,
            "{:>12.1} {:>10.2} {:>10.2} {:>8}",
            startup,
            e.makespan(),
            d.makespan(),
            copies
        );
    }
    out
}

/// A3 — grain packing ablation: schedule a fine-grain lattice raw vs
/// packed, with process startup making small grains expensive.
pub fn ablation_grain() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "A3 — value of grain packing (fine-grain lattice, startup sweep, hypercube-2)"
    );
    let _ = writeln!(
        out,
        "{:>14} {:>10} {:>10} {:>9}",
        "proc-startup", "raw ETF", "packed ETF", "clusters"
    );
    let g = generators::lattice(6, 6, 1.0, 4.0);
    let packing = banger_sched::grain::pack(&g).expect("packs");
    for startup in [0.0, 0.5, 1.0, 2.0, 4.0] {
        let m = Machine::new(
            Topology::hypercube(2),
            MachineParams {
                process_startup: startup,
                ..MachineParams::default()
            },
        );
        let raw = banger_sched::list::etf(&g, &m);
        let packed = banger_sched::list::etf(&packing.packed, &m);
        let _ = writeln!(
            out,
            "{:>14.1} {:>10.2} {:>10.2} {:>9}",
            startup,
            raw.makespan(),
            packed.makespan(),
            packing.packed.task_count()
        );
    }
    out
}

/// R4 — code generation demo: generate the Rust and C programs for the
/// scheduled LU 3x3 design and report their sizes.
pub fn codegen_report() -> String {
    let m = Machine::new(Topology::hypercube(2), figures::figure3_params());
    let project = figures::lu_project(3, m);
    let schedule = project.schedule("MH").expect("schedules");
    let (a, b) = banger::lu::test_system(3);
    let inputs = banger::lu::lu_inputs(&a, &b);
    let rust = project
        .generate_rust(&schedule, &inputs)
        .expect("rust codegen");
    let c = project.generate_c(&schedule, &inputs).expect("c codegen");
    format!(
        "R4 — code generation (LU 3x3, MH on hypercube-2)\n\
         generated Rust: {} lines / {} bytes (threads + mpsc; compiled & run by tests/codegen_roundtrip.rs)\n\
         generated C:    {} lines / {} bytes (MPI SPMD)\n",
        rust.lines().count(),
        rust.len(),
        c.lines().count(),
        c.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_are_nonempty_and_valid() {
        let ws = workload_suite();
        assert_eq!(ws.len(), 9);
        for (name, g) in &ws {
            assert!(g.is_dag(), "{name}");
            assert!(g.task_count() >= 10, "{name} too small");
        }
        assert_eq!(machine_suite().len(), 6);
    }

    #[test]
    fn r1_table_renders() {
        let t = sched_compare_table();
        assert!(t.contains("workload lu-5"));
        assert!(t.contains("hypercube-3"));
        assert!(t.contains("DSH"));
    }

    #[test]
    fn r2_table_renders_and_ratios_sane() {
        let t = predicted_vs_achieved_table();
        assert!(t.contains("ratio"));
        // Every data line carries a sane ratio. ETF's analytic prediction
        // is a lower bound on the simulation, so its ratio is >= 1; MH's
        // link reservations are conservative, so simulation may beat its
        // prediction somewhat (ratio below 1 is legitimate there).
        for line in t.lines().skip(2) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            if cols.len() >= 5 {
                let ratio: f64 = cols[4].parse().unwrap();
                if line.ends_with("(ETF)") {
                    assert!(ratio >= 0.999, "{line}");
                }
                assert!(ratio > 0.5, "{line}");
                assert!(ratio < 10.0, "{line}");
            }
        }
    }

    #[test]
    fn r3_sweep_renders() {
        let t = speedup_sweep();
        assert!(t.contains("LU 5x5"));
        assert!(t.contains("16 procs"));
    }

    #[test]
    fn ablations_render() {
        assert!(ablation_comm().contains("A1"));
        assert!(ablation_duplication().contains("A2"));
        assert!(ablation_grain().contains("A3"));
    }

    #[test]
    fn a1_naive_loses_when_comm_expensive() {
        let t = ablation_comm();
        let last = t.lines().last().unwrap();
        let cols: Vec<f64> = last
            .split_whitespace()
            .map(|c| c.parse().unwrap())
            .collect();
        // naive >= MH at the highest CCR
        assert!(cols[1] >= cols[3], "{last}");
    }

    #[test]
    fn a2_dsh_wins_at_high_startup() {
        let t = ablation_duplication();
        let last = t.lines().last().unwrap();
        let cols: Vec<f64> = last
            .split_whitespace()
            .map(|c| c.parse().unwrap())
            .collect();
        assert!(cols[2] <= cols[1], "DSH should not lose: {last}");
        assert!(cols[3] > 0.0, "DSH should duplicate at startup 8: {last}");
    }

    #[test]
    fn codegen_report_renders() {
        let t = codegen_report();
        assert!(t.contains("generated Rust"));
        assert!(t.contains("generated C"));
    }
}

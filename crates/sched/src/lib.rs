#![warn(missing_docs)]

//! # banger-sched — PPSE scheduling heuristics
//!
//! The paper's second principle: *machine-independent parallel programming
//! can be made efficient by optimal scheduling heuristics which find the
//! shortest elapsed execution time schedule for a specific parallel
//! program, given a specific target machine.* Banger inherited its
//! schedulers from PPSE; this crate re-implements that family:
//!
//! * [`list`] — classic analytic list schedulers (HLFET, MCP, ETF, DLS)
//!   plus the `serial` and communication-blind `naive_no_comm` baselines;
//! * [`mh`] — the El-Rewini & Lewis **Mapping Heuristic** with hop-accurate
//!   routing and link contention (the PPSE flagship);
//! * [`dsh`] — Kruatrachue's **Duplication Scheduling Heuristic**;
//! * [`grain`] — grain packing (edge-zeroing clustering) to coarsen
//!   fine-grain designs before scheduling;
//! * [`schedule`] — the validated [`Schedule`] representation shared by
//!   all of the above;
//! * [`bounds`] — lower bounds for reporting heuristic quality.
//!
//! The test oracle that pins the optimised schedulers bit for bit, the
//! retained naive implementations, lives outside the crate in the root
//! package's `tests/support/sched_reference.rs` (DESIGN.md §14 has the
//! complexity contract).
//!
//! ## Example
//!
//! ```
//! use banger_machine::{Machine, MachineParams, Topology};
//! use banger_sched::{list, mh};
//! use banger_taskgraph::generators;
//!
//! let g = generators::gauss_elimination(4, 2.0, 1.0);
//! let m = Machine::new(Topology::hypercube(2), MachineParams::default());
//! let schedule = mh::mh(&g, &m);
//! schedule.validate(&g, &m).unwrap();
//! assert!(schedule.makespan() <= list::serial(&g, &m).makespan());
//! ```

pub mod bounds;
pub mod dsh;
pub mod engine;
pub mod grain;
pub mod list;
pub mod mh;
mod ready;
pub mod schedule;
pub mod sweep;
pub mod textfmt;

pub use schedule::{Placement, SchedStats, Schedule, ScheduleError, ScheduleSummary};

use banger_machine::Machine;
use banger_taskgraph::TaskGraph;

/// Every heuristic in the crate, by name — the comparison tables iterate
/// over this list. DSH, the one that duplicates tasks, is last.
pub const HEURISTIC_NAMES: [&str; 8] =
    ["serial", "naive", "HLFET", "MCP", "ETF", "DLS", "MH", "DSH"];

/// Runs a heuristic by name (see [`HEURISTIC_NAMES`]). Returns `None` for
/// unknown names. Every heuristic reads [`TaskGraph::analysis`], which the
/// graph keeps until its next edit, so a sweep over one graph computes it
/// once.
pub fn run_heuristic(name: &str, g: &TaskGraph, m: &Machine) -> Option<Schedule> {
    Some(match name {
        "serial" => list::serial(g, m),
        "naive" => list::naive_no_comm(g, m),
        "HLFET" => list::hlfet(g, m),
        "MCP" => list::mcp(g, m),
        "ETF" => list::etf(g, m),
        "DLS" => list::dls(g, m),
        "MH" => mh::mh(g, m),
        "DSH" => dsh::dsh(g, m),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_machine::{MachineParams, Topology};
    use banger_taskgraph::{generators, TaskId};

    #[test]
    fn run_heuristic_dispatch() {
        let g = generators::gauss_elimination(4, 2.0, 1.0);
        let m = Machine::new(Topology::hypercube(2), MachineParams::default());
        assert!(HEURISTIC_NAMES.contains(&"DSH"));
        for name in HEURISTIC_NAMES {
            let s = run_heuristic(name, &g, &m).unwrap_or_else(|| panic!("{name} missing"));
            s.validate(&g, &m).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                s.heuristic(),
                if name == "naive" {
                    "naive-no-comm"
                } else {
                    name
                }
            );
        }
        assert!(run_heuristic("bogus", &g, &m).is_none());
    }

    /// The sweeps read the analysis the graph owns, so on a graph nobody
    /// has analysed yet they schedule exactly as one `run_heuristic` per
    /// run on a graph of its own.
    #[test]
    fn a_sweep_on_a_fresh_graph_matches_one_run_per_graph() {
        let fresh = || generators::gauss_elimination(5, 2.0, 3.0);
        let machines: Vec<Machine> = (0..=3)
            .map(|dim| Machine::new(Topology::hypercube(dim), MachineParams::default()))
            .collect();
        let swept = sweep::sweep_machines("DSH", &fresh(), &machines).unwrap();
        for (m, s) in machines.iter().zip(&swept) {
            assert_eq!(Some(s), run_heuristic("DSH", &fresh(), m).as_ref());
        }
        let swept = sweep::sweep_heuristics(&HEURISTIC_NAMES, &fresh(), &machines[2]);
        for (name, s) in HEURISTIC_NAMES.iter().zip(swept) {
            assert_eq!(s, run_heuristic(name, &fresh(), &machines[2]), "{name}");
        }
    }

    /// An edit after a run drops the analysis the run read, so the next
    /// run schedules the graph as it is now.
    #[test]
    fn a_run_after_an_edit_schedules_the_edited_graph() {
        let edit = |g: &mut TaskGraph| {
            let late = g.add_task("late", 5.0);
            g.add_edge(TaskId(0), late, 1.0, "late").unwrap();
        };
        let m = Machine::new(Topology::hypercube(2), MachineParams::default());
        let mut g = generators::gauss_elimination(4, 2.0, 1.0);
        run_heuristic("HLFET", &g, &m);
        edit(&mut g);
        let mut fresh = generators::gauss_elimination(4, 2.0, 1.0);
        edit(&mut fresh);
        let s = run_heuristic("HLFET", &g, &m).unwrap();
        s.validate(&g, &m).unwrap();
        assert_eq!(Some(s), run_heuristic("HLFET", &fresh, &m));
    }
}

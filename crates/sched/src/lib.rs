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
//! * [`bounds`] — lower bounds for reporting heuristic quality;
//! * [`reference`] — a test oracle only: the retained naive
//!   implementations that `tests/prop_sched_scale.rs` compares the
//!   optimised selection/caching paths with, bit for bit. Nothing outside
//!   tests calls it (see DESIGN.md §14 for the complexity contract).
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
pub mod reference;
pub mod schedule;
pub mod sweep;
pub mod textfmt;

pub use schedule::{Placement, SchedStats, Schedule, ScheduleError, ScheduleSummary};

use banger_machine::Machine;
use banger_taskgraph::analysis::{ArcTable, GraphAnalysis};
use banger_taskgraph::TaskGraph;

/// Every heuristic in the crate, by name — the comparison tables iterate
/// over this list. DSH, the one that duplicates tasks, is last.
pub const HEURISTIC_NAMES: [&str; 8] =
    ["serial", "naive", "HLFET", "MCP", "ETF", "DLS", "MH", "DSH"];

/// Runs a heuristic by name (see [`HEURISTIC_NAMES`]). Returns `None` for
/// unknown names.
pub fn run_heuristic(name: &str, g: &TaskGraph, m: &Machine) -> Option<Schedule> {
    if !HEURISTIC_NAMES.contains(&name) {
        return None;
    }
    let a = GraphAnalysis::analyze(g);
    run_heuristic_with(name, g, m, &a)
}

/// [`run_heuristic`] with a precomputed [`GraphAnalysis`], so sweeps over
/// many heuristics or machines compute the machine-independent levels and
/// the arc table once.
///
/// `a` must be `GraphAnalysis::analyze(g)` of `g` as it is now: the run
/// reads every weight and arc from `a.arcs`, not from `g`. An analysis
/// with another task or arc count panics; one of a different graph with
/// the same counts schedules that graph. The same holds for every
/// heuristic's `*_with` function.
pub fn run_heuristic_with(
    name: &str,
    g: &TaskGraph,
    m: &Machine,
    a: &GraphAnalysis,
) -> Option<Schedule> {
    Some(match name {
        "serial" => list::serial_with(g, m, a),
        "naive" => list::naive_no_comm_with(g, m, a),
        "HLFET" => list::hlfet_with(g, m, a),
        "MCP" => list::mcp_with(g, m, a),
        "ETF" => list::etf_with(g, m, a),
        "DLS" => list::dls_with(g, m, a),
        "MH" => mh::mh_with(g, m, a),
        "DSH" => dsh::dsh_with(g, m, a),
        _ => return None,
    })
}

/// The arc table every `*_with` run reads: `a`'s, which must be the
/// analysis of `g`. Panics when the task or arc counts differ.
fn arcs_of<'a>(g: &TaskGraph, a: &'a GraphAnalysis) -> &'a ArcTable {
    assert!(
        g.task_count() == a.arcs.task_count() && g.edge_count() == a.arcs.arc_count(),
        "the analysis of another graph"
    );
    &a.arcs
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

    #[test]
    #[should_panic(expected = "the analysis of another graph")]
    fn an_analysis_taken_before_an_edit_is_refused() {
        let mut g = generators::gauss_elimination(4, 2.0, 1.0);
        let a = GraphAnalysis::analyze(&g);
        let (first, last) = (TaskId(0), TaskId(g.task_count() as u32 - 1));
        g.add_edge(first, last, 1.0, "late").unwrap();
        let m = Machine::new(Topology::hypercube(2), MachineParams::default());
        run_heuristic_with("HLFET", &g, &m, &a);
    }
}

//! Deterministic parallel sweeps over independent scheduling runs.
//!
//! The environment's interactive tools — speedup prediction, heuristic
//! comparison, machine advice — all share one shape: schedule the *same*
//! task graph many times against different machines or with different
//! heuristics, then tabulate. Every run is independent, so the sweep is
//! embarrassingly parallel; what must NOT change is the answer. The sweeps
//! fan out through [`banger_taskgraph::parallel::parallel_map`], which
//! collects by input index: a sweep's output is bit-identical to the
//! sequential loop's.

use crate::schedule::Schedule;
use banger_machine::Machine;
use banger_taskgraph::parallel::parallel_map;
use banger_taskgraph::TaskGraph;

/// Schedules `g` on every machine in `machines` with the named heuristic,
/// in parallel. Every run reads the one [`TaskGraph::analysis`] of `g`, so
/// the levels are computed at most once per sweep. Results are in
/// `machines` order. Returns `None` if `name` is unknown.
pub fn sweep_machines(name: &str, g: &TaskGraph, machines: &[Machine]) -> Option<Vec<Schedule>> {
    // Validate the name once, up front, so the fan-out can unwrap.
    if !crate::HEURISTIC_NAMES.contains(&name) {
        return None;
    }
    Some(parallel_map(machines, |_, m| {
        crate::run_heuristic(name, g, m).expect("name pre-validated")
    }))
}

/// Schedules `g` on `m` with every named heuristic, in parallel, all
/// reading the one [`TaskGraph::analysis`] of `g`. Results are in `names`
/// order; unknown names yield `None` in their slot.
pub fn sweep_heuristics(names: &[&str], g: &TaskGraph, m: &Machine) -> Vec<Option<Schedule>> {
    parallel_map(names, |_, name| crate::run_heuristic(name, g, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_machine::{MachineParams, Topology};
    use banger_taskgraph::generators;

    #[test]
    fn sweep_machines_matches_sequential() {
        let g = generators::gauss_elimination(5, 2.0, 3.0);
        let machines: Vec<Machine> = (0..=4)
            .map(|dim| {
                Machine::new(
                    Topology::hypercube(dim),
                    MachineParams {
                        msg_startup: 0.5,
                        ..MachineParams::default()
                    },
                )
            })
            .collect();
        let par = sweep_machines("MH", &g, &machines).unwrap();
        for (m, s) in machines.iter().zip(&par) {
            let seq = crate::mh::mh(&g, m);
            assert_eq!(*s, seq, "{}", m.topology().name());
        }
    }

    #[test]
    fn sweep_machines_rejects_unknown_heuristic() {
        let g = generators::fork_join(2, 1.0, 1.0, 1.0, 1.0);
        let machines = [Machine::new(Topology::single(), MachineParams::default())];
        assert!(sweep_machines("bogus", &g, &machines).is_none());
    }

    #[test]
    fn sweep_heuristics_matches_sequential() {
        let g = generators::lattice(4, 4, 3.0, 2.0);
        let m = Machine::new(Topology::mesh(2, 2), MachineParams::default());
        let mut names: Vec<&str> = crate::HEURISTIC_NAMES.to_vec();
        names.push("bogus");
        let par = sweep_heuristics(&names, &g, &m);
        for (name, s) in names.iter().zip(&par) {
            let seq = crate::run_heuristic(name, &g, &m);
            assert_eq!(*s, seq, "{name}");
        }
        assert!(par.last().unwrap().is_none());
    }
}

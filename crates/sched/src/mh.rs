//! MH — the El-Rewini & Lewis *Mapping Heuristic* (JPDC 1990), the
//! scheduler Banger inherited from PPSE.
//!
//! MH is a list scheduler that prices communication with the **actual
//! interconnection network**: messages traverse the routing table's
//! shortest paths hop by hop, each hop occupying a link with
//! store-and-forward timing, and later messages queue behind earlier ones
//! on busy links. The ready task with the greatest communication-inclusive
//! bottom level (b-level) is committed to the processor where it can
//! *finish* earliest under that link-accurate model.
//!
//! Compared with the analytic heuristics in [`crate::list`], MH sees both
//! hop distance and link contention, which is exactly the paper's argument
//! for machine-aware scheduling of machine-independent designs.

use crate::engine::{CommModel, Engine};
use crate::ready::ReadyQueue;
use crate::schedule::Schedule;
use banger_machine::Machine;
use banger_taskgraph::analysis::ArcTable;
use banger_taskgraph::TaskGraph;

/// Runs the Mapping Heuristic. See module docs.
pub fn mh(g: &TaskGraph, m: &Machine) -> Schedule {
    let arcs = &ArcTable::new(g);
    let mut eng = Engine::new("MH", arcs, m, CommModel::Contention);
    // Highest b-level first; ties toward lower task id. Note MH's per-proc
    // finish loop below probes each (task, proc) pair exactly once per
    // selected task, so only the *selection* needed the heap — there is no
    // repeated pair rescan to cache away (unlike ETF/DLS).
    let mut queue = ReadyQueue::new(arcs, &g.analysis().b_level);
    let mut ready = vec![0.0; m.processors()];

    while let Some(t) = queue.pop() {
        // Choose the processor with the earliest finish under link-accurate
        // arrival times; ties toward lower processor id.
        eng.ready_times(t, &mut ready);
        let mut best = m.proc_ids().next().unwrap();
        let mut best_finish = f64::INFINITY;
        for (p, &r) in m.proc_ids().zip(&ready) {
            let dur = eng.exec_time(t, p);
            let start = eng.slot(p, r, dur);
            let finish = start + dur;
            if finish + crate::schedule::TIME_EPS < best_finish {
                best_finish = finish;
                best = p;
            }
        }
        eng.commit(t, best);
        queue.complete(arcs, t);
    }
    eng.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_machine::{MachineParams, Topology};
    use banger_taskgraph::generators;

    #[test]
    fn valid_on_hypercubes() {
        let g = generators::gauss_elimination(5, 3.0, 2.0);
        for dim in 0..=3 {
            let m = Machine::new(
                Topology::hypercube(dim),
                MachineParams {
                    msg_startup: 0.5,
                    ..MachineParams::default()
                },
            );
            let s = mh(&g, &m);
            s.validate(&g, &m)
                .unwrap_or_else(|e| panic!("dim {dim}: {e}"));
        }
    }

    #[test]
    fn hop_awareness_prefers_near_processors() {
        // Source on P0 fans out to two tasks. On a linear array of 4, MH
        // should put work on processors near P0, not at the far end.
        let g = generators::fork_join(2, 1.0, 20.0, 1.0, 8.0);
        let m = Machine::new(Topology::linear(4), MachineParams::default());
        let s = mh(&g, &m);
        s.validate(&g, &m).unwrap();
        for p in s.placements() {
            assert!(
                p.proc.index() <= 1,
                "task {} placed on distant {}",
                p.task,
                p.proc
            );
        }
    }

    #[test]
    fn mh_equal_or_better_than_serial() {
        let g = generators::gauss_elimination(6, 4.0, 1.0);
        let m = Machine::new(Topology::hypercube(3), MachineParams::default());
        let s = mh(&g, &m);
        s.validate(&g, &m).unwrap();
        let serial = crate::list::serial(&g, &m);
        assert!(s.makespan() <= serial.makespan() + crate::schedule::TIME_EPS);
    }

    #[test]
    fn contention_on_star_hub_is_modelled() {
        // Many independent producer->consumer pairs crossing the star hub:
        // MH's link model must queue them rather than assume parallelism.
        let mut g = TaskGraph::new("cross");
        for i in 0..4 {
            let a = g.add_task(format!("src{i}"), 1.0);
            let b = g.add_task(format!("dst{i}"), 1.0);
            g.add_edge(a, b, 20.0, format!("m{i}")).unwrap();
        }
        let m = Machine::new(Topology::star(5), MachineParams::default());
        let s = mh(&g, &m);
        s.validate(&g, &m).unwrap();
        // The best answer is to keep each pair local, which costs 2 time
        // units per processor pair; if MH shipped the messages the star hub
        // would serialise 40-unit transfers.
        assert!(s.makespan() <= 4.0, "makespan {}", s.makespan());
    }

    #[test]
    fn deterministic() {
        let g = generators::lattice(4, 4, 3.0, 2.0);
        let m = Machine::new(Topology::mesh(2, 2), MachineParams::default());
        assert_eq!(mh(&g, &m), mh(&g, &m));
    }

    #[test]
    fn lu_design_on_growing_hypercubes_improves() {
        // The paper's Figure 3 story: mapping the LU design onto 2-, 4-,
        // 8-processor hypercubes yields decreasing makespans.
        let f = generators::lu_hierarchical(4).flatten().unwrap();
        let params = MachineParams {
            msg_startup: 0.2,
            transmission_rate: 8.0,
            ..MachineParams::default()
        };
        let mut prev = f64::INFINITY;
        for dim in 0..=3 {
            let m = Machine::new(Topology::hypercube(dim), params);
            let s = mh(&f.graph, &m);
            s.validate(&f.graph, &m).unwrap();
            assert!(
                s.makespan() <= prev + crate::schedule::TIME_EPS,
                "dim {dim}: {} > {prev}",
                s.makespan()
            );
            prev = s.makespan();
        }
    }
}

//! Determinism regression: the parallel sweep layer must return exactly —
//! bit-identically — what the sequential path returns, on the paper's LU
//! design and on random proptest graphs. Results are collected by input
//! index, never by completion order, so thread interleaving can never
//! reorder or alter a table the non-programmer is watching.

use banger_env::core::chart::SpeedupPoint;
use banger_env::core::Project;
use banger_machine::{Machine, MachineParams, Topology};
use banger_sched::sweep;
use banger_taskgraph::{generators, TaskGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn figure3_topologies() -> Vec<Topology> {
    (0..=4u32).map(Topology::hypercube).collect()
}

fn figure3_params() -> MachineParams {
    MachineParams {
        msg_startup: 0.2,
        transmission_rate: 8.0,
        ..MachineParams::default()
    }
}

/// The sequential reference for `Project::predict_speedup`: the exact loop
/// the project ran before the sweep layer existed.
fn sequential_speedup(g: &TaskGraph, topologies: &[Topology]) -> Vec<SpeedupPoint> {
    topologies
        .iter()
        .map(|topo| {
            let m = Machine::new(topo.clone(), figure3_params());
            let s = banger_sched::mh::mh(g, &m);
            SpeedupPoint {
                processors: m.processors(),
                speedup: s.speedup(g, &m),
            }
        })
        .collect()
}

#[test]
fn lu_speedup_points_bit_identical() {
    let mut p = Project::new("lu4", generators::lu_hierarchical(4));
    p.set_machine(Machine::new(Topology::hypercube(2), figure3_params()));
    let topologies = figure3_topologies();
    let parallel = p.predict_speedup(&topologies, figure3_params()).unwrap();
    let g = p.flatten().unwrap().graph.clone();
    let sequential = sequential_speedup(&g, &topologies);
    assert_eq!(parallel, sequential);
    // Stable across repeated invocations too.
    assert_eq!(
        parallel,
        p.predict_speedup(&topologies, figure3_params()).unwrap()
    );
}

#[test]
fn lu_heuristic_comparison_ordering_bit_identical() {
    let mut p = Project::new("lu4", generators::lu_hierarchical(4));
    p.set_machine(Machine::new(Topology::hypercube(2), figure3_params()));
    let rows = p.compare_heuristics().unwrap();
    let g = p.flatten().unwrap().graph.clone();
    let m = p.machine().unwrap().clone();
    // Sequential reference: the pre-sweep loop, summarised and sorted the
    // same way.
    let mut want: Vec<_> = banger_sched::HEURISTIC_NAMES
        .iter()
        .map(|name| {
            banger_sched::run_heuristic(name, &g, &m)
                .unwrap()
                .summarize(&g, &m)
        })
        .collect();
    want.sort_by(|a, b| a.makespan.total_cmp(&b.makespan));
    assert_eq!(rows, want);
}

fn random_graph() -> impl Strategy<Value = TaskGraph> {
    (any::<u64>(), 1usize..5, 1usize..6, 0.1f64..0.8).prop_map(
        |(seed, layers, width, edge_prob)| {
            let mut rng = StdRng::seed_from_u64(seed);
            generators::random_layered(
                &mut rng,
                &generators::RandomSpec {
                    layers,
                    width,
                    edge_prob,
                    weight: (1.0, 30.0),
                    volume: (0.0, 20.0),
                },
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sweep_machines_matches_sequential_on_random_graphs(g in random_graph()) {
        let machines: Vec<Machine> = [
            Topology::single(),
            Topology::hypercube(1),
            Topology::hypercube(2),
            Topology::mesh(2, 3),
            Topology::ring(5),
        ]
        .into_iter()
        .map(|t| Machine::new(t, MachineParams { msg_startup: 0.5, ..MachineParams::default() }))
        .collect();
        let par = sweep::sweep_machines("MH", &g, &machines).unwrap();
        for (m, s) in machines.iter().zip(&par) {
            let seq = banger_sched::mh::mh(&g, m);
            prop_assert_eq!(s, &seq);
        }
    }

    #[test]
    fn sweep_heuristics_matches_sequential_on_random_graphs(g in random_graph()) {
        let m = Machine::new(
            Topology::hypercube(2),
            MachineParams { msg_startup: 0.5, ..MachineParams::default() },
        );
        let names = banger_sched::HEURISTIC_NAMES;
        let par = sweep::sweep_heuristics(&names, &g, &m);
        for (name, s) in names.iter().zip(&par) {
            let seq = banger_sched::run_heuristic(name, &g, &m);
            prop_assert_eq!(s, &seq);
        }
    }
}

//! Property tests over the graph and machine substrates.

#[path = "support/levels_oracle.rs"]
mod levels_oracle;

use banger_machine::{ProcId, RoutingTable, Topology};
use banger_taskgraph::{analysis, generators, textfmt, TaskGraph, TaskId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a random layered DAG described by (seed, layers, width,
/// edge probability).
fn random_graph() -> impl Strategy<Value = TaskGraph> {
    (any::<u64>(), 1usize..6, 1usize..7, 0.05f64..0.9).prop_map(
        |(seed, layers, width, edge_prob)| {
            let mut rng = StdRng::seed_from_u64(seed);
            generators::random_layered(
                &mut rng,
                &generators::RandomSpec {
                    layers,
                    width,
                    edge_prob,
                    weight: (1.0, 50.0),
                    volume: (0.0, 25.0),
                },
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topo_order_is_a_valid_linearisation(g in random_graph()) {
        let order = g.topo_order().unwrap();
        prop_assert_eq!(order.len(), g.task_count());
        let mut pos = vec![usize::MAX; g.task_count()];
        for (i, t) in order.iter().enumerate() {
            pos[t.index()] = i;
        }
        for (_, e) in g.edges() {
            prop_assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
    }

    #[test]
    fn critical_path_bounds_hold(g in random_graph()) {
        let cp = g.critical_path_length();
        let max_w = g.tasks().map(|(_, t)| t.weight).fold(0.0f64, f64::max);
        prop_assert!(cp >= max_w - 1e-9);
        prop_assert!(cp <= g.total_weight() + 1e-9);
        // The reported path's weights sum to the cp length.
        let path = g.critical_path();
        let sum: f64 = path.iter().map(|&t| g.task(t).weight).sum();
        prop_assert!((sum - cp).abs() < 1e-6, "path sum {} vs cp {}", sum, cp);
    }

    #[test]
    fn levels_are_consistent(g in random_graph()) {
        let a = analysis::GraphAnalysis::analyze(&g);
        for t in g.task_ids() {
            let i = t.index();
            // b-level at least the task weight; t-level non-negative.
            prop_assert!(a.b_level[i] + 1e-9 >= g.task(t).weight);
            prop_assert!(a.t_level[i] >= -1e-9);
            // slack non-negative; t+b <= cp.
            prop_assert!(a.alap[i] + 1e-6 >= a.t_level[i]);
            prop_assert!(a.t_level[i] + a.b_level[i] <= a.cp_length + 1e-6);
            // static level <= b level (comm only adds).
            prop_assert!(a.static_level[i] <= a.b_level[i] + 1e-9);
        }
        // Profile sums to the task count.
        let profile = analysis::parallelism_profile(&g);
        prop_assert_eq!(profile.iter().sum::<usize>(), g.task_count());
    }

    #[test]
    fn textfmt_round_trips(g in random_graph()) {
        let text = textfmt::to_text(&g);
        let back = textfmt::from_text(&text).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn packing_preserves_weight_and_dag(g in random_graph()) {
        let p = banger_sched::grain::pack(&g).unwrap();
        prop_assert!((p.packed.total_weight() - g.total_weight()).abs() < 1e-6);
        prop_assert!(p.packed.is_dag());
        prop_assert!(p.packed.task_count() <= g.task_count().max(1));
        // Estimated PT never exceeds the trivial clustering's estimate.
        let trivial: Vec<usize> = (0..g.task_count()).collect();
        let before = banger_sched::grain::estimate_pt(&g, &trivial).unwrap();
        prop_assert!(p.estimated_pt <= before + 1e-6);
        // Cluster ids are dense.
        if !p.cluster_of.is_empty() {
            let max = *p.cluster_of.iter().max().unwrap();
            prop_assert_eq!(max + 1, p.packed.task_count());
        }
    }
}

/// Strategy: a DAG of up to 40 tasks with what the layered generator never
/// makes — parallel arcs (same ends, another label), zero weights and
/// volumes, isolated tasks — and arcs added in random order, so that
/// neither edge list is sorted by the other end.
fn irregular_graph() -> impl Strategy<Value = TaskGraph> {
    (any::<u64>(), 1usize..40).prop_map(|(seed, n)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = TaskGraph::new("irregular");
        for i in 0..n {
            let w = match rng.gen_range(0..4) {
                0 => 0.0,
                1 => 1e-7,
                _ => rng.gen_range(0.0..50.0),
            };
            g.add_task(format!("t{i}"), w);
        }
        for k in 0..rng.gen_range(0..3 * n) {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            if a == b {
                continue;
            }
            let (src, dst) = (TaskId(a.min(b)), TaskId(a.max(b)));
            let volume = if rng.gen_bool(0.3) {
                0.0
            } else {
                rng.gen_range(0.0..25.0)
            };
            // Two draws of the same pair are parallel arcs.
            g.add_edge(src, dst, volume, format!("v{k}")).unwrap();
        }
        g
    })
}

/// Every level bit for bit, and the order itself.
fn levels_match_the_oracle(g: &TaskGraph) -> Result<(), TestCaseError> {
    let a = analysis::GraphAnalysis::analyze(g);
    let old = levels_oracle::analyze(g);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&a.t_level), bits(&old.t_level));
    prop_assert_eq!(bits(&a.b_level), bits(&old.b_level));
    prop_assert_eq!(bits(&a.static_level), bits(&old.static_level));
    prop_assert_eq!(bits(&a.alap), bits(&old.alap));
    prop_assert_eq!(a.cp_length.to_bits(), old.cp_length.to_bits());
    prop_assert_eq!(&a.topo, &old.topo);
    // The table is the graph's arcs, list for list.
    for t in g.task_ids() {
        prop_assert_eq!(a.arcs.weight(t).to_bits(), g.task(t).weight.to_bits());
        let inputs: Vec<(TaskId, f64)> = g
            .in_edges(t)
            .iter()
            .map(|&e| (g.edge(e).src, g.edge(e).volume))
            .collect();
        prop_assert_eq!(a.arcs.inputs(t), &inputs[..]);
        prop_assert!(a.arcs.consumers(t).iter().copied().eq(g.successors(t)));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn levels_over_the_arc_table_are_the_old_passes_bit_for_bit(g in irregular_graph()) {
        levels_match_the_oracle(&g)?;
    }

    #[test]
    fn levels_on_layered_graphs_are_the_old_passes_bit_for_bit(g in random_graph()) {
        levels_match_the_oracle(&g)?;
    }
}

/// Strategy: one of the supported topology families with small parameters.
fn random_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (0u32..4).prop_map(Topology::hypercube),
        (1usize..4, 1usize..5).prop_map(|(r, c)| Topology::mesh(r, c)),
        (2usize..9).prop_map(Topology::ring),
        (1usize..9).prop_map(Topology::linear),
        (2usize..9).prop_map(Topology::star),
        (2usize..4, 1u32..3).prop_map(|(a, d)| Topology::tree(a, d)),
        (1usize..9).prop_map(Topology::fully_connected),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn routing_paths_are_shortest_and_connected(topo in random_topology()) {
        let r = RoutingTable::build(&topo);
        prop_assert!(topo.is_connected());
        for s in topo.proc_ids() {
            for d in topo.proc_ids() {
                let hops = r.hops(s, d).unwrap();
                let path = r.path(s, d);
                prop_assert_eq!(path.len() as u32, hops + 1);
                prop_assert_eq!(path[0], s);
                prop_assert_eq!(*path.last().unwrap(), d);
                for w in path.windows(2) {
                    prop_assert!(topo.neighbors(w[0]).contains(&w[1]));
                }
                // Symmetry (undirected links).
                prop_assert_eq!(r.hops(d, s), Some(hops));
                // Triangle inequality through any intermediate node.
                for via in topo.proc_ids() {
                    prop_assert!(
                        hops <= r.hops(s, via).unwrap() + r.hops(via, d).unwrap()
                    );
                }
            }
        }
        // Diameter consistency.
        let diam = r.diameter().unwrap();
        let max_pair = topo
            .proc_ids()
            .flat_map(|s| topo.proc_ids().map(move |d| (s, d)))
            .map(|(s, d)| r.hops(s, d).unwrap())
            .max()
            .unwrap_or(0);
        prop_assert_eq!(diam, max_pair);
    }

    #[test]
    fn hypercube_distance_is_hamming(dim in 0u32..5) {
        let t = Topology::hypercube(dim);
        let r = RoutingTable::build(&t);
        for s in 0..t.processors() as u32 {
            for d in 0..t.processors() as u32 {
                prop_assert_eq!(r.hops(ProcId(s), ProcId(d)), Some((s ^ d).count_ones()));
            }
        }
    }
}

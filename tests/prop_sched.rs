//! Property tests over the scheduling layer: every heuristic, on random
//! graphs and random machines, must produce schedules that satisfy the
//! three schedule invariants, respect lower bounds, and survive
//! discrete-event replay.

use banger_machine::{Machine, MachineParams, SwitchingMode, Topology};
use banger_sched::bounds;
use banger_taskgraph::{generators, TaskGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

fn random_machine() -> impl Strategy<Value = Machine> {
    let topo = prop_oneof![
        (0u32..3).prop_map(Topology::hypercube),
        (1usize..3, 1usize..4).prop_map(|(r, c)| Topology::mesh(r, c)),
        (2usize..6).prop_map(Topology::star),
        (2usize..6).prop_map(Topology::ring),
        (1usize..6).prop_map(Topology::fully_connected),
    ];
    (
        topo,
        0.5f64..4.0,     // processor speed
        0.0f64..2.0,     // process startup
        0.0f64..3.0,     // msg startup
        0.5f64..8.0,     // transmission rate
        prop::bool::ANY, // cut-through?
    )
        .prop_map(|(t, speed, pstart, mstart, rate, cut)| {
            Machine::new(
                t,
                MachineParams {
                    processor_speed: speed,
                    process_startup: pstart,
                    msg_startup: mstart,
                    transmission_rate: rate,
                    switching: if cut {
                        SwitchingMode::CutThrough { hop_latency: 0.2 }
                    } else {
                        SwitchingMode::StoreAndForward
                    },
                },
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_heuristic_is_valid_and_bounded(
        g in random_graph(),
        m in random_machine(),
    ) {
        let lb = bounds::lower_bound(&g, &m);
        let serial = banger_sched::list::serial(&g, &m).makespan();
        for h in banger_sched::HEURISTIC_NAMES {
            let s = banger_sched::run_heuristic(h, &g, &m).unwrap();
            // Invariant 1-3 (coverage, exclusivity, precedence+comm).
            if let Err(e) = s.validate(&g, &m) {
                prop_assert!(false, "{h} on {}: {e}", m.topology().name());
            }
            // Lower bound.
            prop_assert!(
                s.makespan() + 1e-6 >= lb,
                "{h}: makespan {} < lower bound {lb}",
                s.makespan()
            );
            // Communication-aware heuristics should stay within 2x serial
            // (near-serial worst case plus comm losses). The deliberately
            // comm-blind `naive` baseline is exempt — being arbitrarily
            // worse is exactly what the A1 ablation demonstrates.
            if h != "naive" {
                prop_assert!(
                    s.makespan() <= 2.0 * serial + 1e-6,
                    "{h}: makespan {} vs serial {serial}",
                    s.makespan()
                );
            }
        }
    }

    #[test]
    fn schedules_survive_simulation(
        g in random_graph(),
        m in random_machine(),
    ) {
        for h in ["ETF", "MH", "DSH"] {
            let s = banger_sched::run_heuristic(h, &g, &m).unwrap();
            let r = banger_sim::simulate(&g, &m, &s)
                .unwrap();
            // The achieved timeline is itself a valid schedule.
            if let Err(e) = r.achieved.validate(&g, &m) {
                prop_assert!(false, "{h}: achieved invalid: {e}");
            }
            // Simulation can beat an analytic prediction slightly (message
            // interleaving differs) but never by more than the total
            // communication the prediction charged.
            prop_assert!(
                r.compare() > 0.4,
                "{h}: achieved {} wildly below predicted {}",
                r.achieved_makespan(),
                s.makespan()
            );
        }
    }

    #[test]
    fn dsh_never_duplicates_when_communication_is_free(
        g in random_graph(),
        speed in 0.5f64..4.0,
    ) {
        // With zero volumes and zero message startup there is nothing for
        // duplication to save, so DSH must not copy anything. (Per-instance
        // dominance over HLFET does NOT hold in general — greedy duplicates
        // can displace later tasks — so we assert the true invariant.)
        let mut g = g;
        g.scale_volumes(0.0);
        let m = Machine::new(
            Topology::fully_connected(4),
            MachineParams {
                processor_speed: speed,
                ..MachineParams::default()
            },
        );
        let d = banger_sched::dsh::dsh(&g, &m);
        prop_assert_eq!(d.placements().len(), g.task_count());
        d.validate(&g, &m).unwrap();
    }

    #[test]
    fn dsh_wins_on_single_source_fanout(
        width in 2usize..8,
        w_src in 1.0f64..5.0,
        w_mid in 5.0f64..20.0,
        volume in 10.0f64..40.0,
    ) {
        // The textbook duplication case: a cheap source fanning heavy
        // messages to independent children. Copying the source is always at
        // least as good as shipping the message.
        let mut g = TaskGraph::new("fan");
        let src = g.add_task("src", w_src);
        for i in 0..width {
            let c = g.add_task(format!("c{i}"), w_mid);
            g.add_edge(src, c, volume, format!("m{i}")).unwrap();
        }
        let m = Machine::new(
            Topology::fully_connected(width),
            MachineParams {
                msg_startup: 1.0,
                ..MachineParams::default()
            },
        );
        let d = banger_sched::dsh::dsh(&g, &m);
        let e = banger_sched::list::etf(&g, &m);
        d.validate(&g, &m).unwrap();
        prop_assert!(
            d.makespan() <= e.makespan() + 1e-6,
            "DSH {} vs ETF {}",
            d.makespan(),
            e.makespan()
        );
    }

    #[test]
    fn single_processor_machines_serialise_exactly(g in random_graph()) {
        let m = Machine::new(Topology::single(), MachineParams::default());
        for h in ["HLFET", "ETF", "MH", "DSH"] {
            let s = banger_sched::run_heuristic(h, &g, &m).unwrap();
            prop_assert!((s.makespan() - g.total_weight()).abs() < 1e-6, "{h}");
        }
    }

    #[test]
    fn zero_comm_machines_reach_work_or_cp_bound_on_wide_graphs(
        seed in any::<u64>(),
        width in 2usize..6,
    ) {
        // Independent tasks on a fully-connected free-comm machine: list
        // schedulers achieve perfect balance within one task's weight.
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_layered(
            &mut rng,
            &generators::RandomSpec {
                layers: 1,
                width: width * 3,
                edge_prob: 0.0,
                weight: (5.0, 10.0),
                volume: (0.0, 0.0),
            },
        );
        let m = Machine::new(Topology::fully_connected(width), MachineParams::default());
        let s = banger_sched::list::etf(&g, &m);
        let work_bound = g.total_weight() / width as f64;
        let max_task = g.tasks().map(|(_, t)| t.weight).fold(0.0f64, f64::max);
        prop_assert!(s.makespan() <= work_bound + max_task + 1e-6);
    }
}

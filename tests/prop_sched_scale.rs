//! Differential pinning of the scheduler scale rework.
//!
//! The heap-based ready queues and the ETF/DLS candidate heaps must
//! produce **bit-identical** schedules — same commit order, same
//! placements, same start/finish times — to the retained naive
//! implementations in `support/sched_reference.rs` (the pre-rework linear
//! scans and full pair rescans), a test oracle kept out of the product.
//! `Schedule`'s `PartialEq` compares the heuristic name, the task count
//! and the ordered placement list with exact float equality, so equality
//! here *is* the bit-identical contract; per-run probe stats are
//! deliberately excluded from it and asserted separately (the asymptotic
//! win must show up in the counters, not just the wall clock).
//!
//! The heuristics under test are the product's own list,
//! `banger_sched::HEURISTIC_NAMES`: one the product gains fails
//! `assert_identical` until the oracle has it too.

#[path = "support/sched_reference.rs"]
mod sched_reference;

use banger_machine::{Machine, MachineParams, SwitchingMode, Topology};
use banger_sched::schedule::TIME_EPS;
use banger_sched::HEURISTIC_NAMES;
use banger_taskgraph::{generators, TaskGraph, TaskId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_identical(g: &TaskGraph, m: &Machine, names: &[&str]) {
    for name in names {
        let opt = banger_sched::run_heuristic(name, g, m)
            .unwrap_or_else(|| panic!("{name} unknown to production dispatcher"));
        let naive = sched_reference::run_reference(name, g, m)
            .unwrap_or_else(|| panic!("{name} unknown to reference dispatcher"));
        assert_eq!(
            opt,
            naive,
            "{name} diverged from reference on {} / {}",
            g.name(),
            m.topology().name()
        );
    }
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

    /// The heart of the contract: on arbitrary graphs and machines, every
    /// optimised heuristic equals its retained reference, placement for
    /// placement.
    #[test]
    fn optimised_matches_reference(
        g in random_graph(),
        m in random_machine(),
    ) {
        assert_identical(&g, &m, &HEURISTIC_NAMES);
    }

    /// Priority ties are where heap order could silently diverge from the
    /// linear scan (same level, different pop order). Uniform weights and
    /// volumes make almost every priority a tie.
    #[test]
    fn tie_heavy_graphs_match(
        seed in any::<u64>(),
        layers in 1usize..6,
        width in 2usize..8,
        procs in 1usize..5,
    ) {
        let g = generators::layered_random(seed, layers, width, 2, (4.0, 4.0), (3.0, 3.0));
        let m = Machine::new(Topology::fully_connected(procs), MachineParams::default());
        assert_identical(&g, &m, &HEURISTIC_NAMES);
    }
}

/// Sampled sizes of the new scale generators through every heuristic.
/// Sizes are chosen so the quadratic references stay affordable in debug
/// builds; CI additionally runs this whole suite in release.
#[test]
fn scale_generators_match_reference() {
    let m4 = Machine::new(
        Topology::hypercube(2),
        MachineParams {
            msg_startup: 0.5,
            ..MachineParams::default()
        },
    );
    let m3 = Machine::new(Topology::star(3), MachineParams::default());

    let layered = generators::layered_random(11, 40, 25, 3, (1.0, 20.0), (0.5, 10.0));
    assert_eq!(layered.task_count(), 1000);
    assert_identical(&layered, &m4, &HEURISTIC_NAMES);
    assert_identical(&layered, &m3, &HEURISTIC_NAMES);

    let lu = generators::tiled_lu(10, 2.0, 1.0);
    assert_identical(&lu, &m4, &HEURISTIC_NAMES);

    let st = generators::stencil(25, 20, 3.0, 1.0);
    assert_identical(&st, &m4, &HEURISTIC_NAMES);
}

/// Duplication-heavy shapes: fork-joins and out-trees with message
/// startups of 1 or more, where DSH copies producers onto their consumers'
/// processors. Weights are scaled per task by a seeded factor, so static
/// levels interleave the tree's depths: a task's ready time on a processor
/// is priced (and kept by DSH) while its producer can still gain a
/// duplicate there, which is when that kept value must be forgotten. Each
/// case must duplicate, so none passes vacuously.
#[test]
fn duplication_heavy_graphs_match_reference() {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut graphs = [
            generators::fork_join(6 + seed as usize % 5, 2.0, 10.0, 2.0, 15.0),
            generators::outtree(3, 2 + seed as usize % 2, 3.0, 12.0),
        ];
        for g in &mut graphs {
            for t in g.task_ids().collect::<Vec<_>>() {
                g.task_mut(t).weight *= rng.gen_range(0.5..2.0);
            }
        }
        for g in &graphs {
            for (topology, msg_startup) in [
                (Topology::fully_connected(4), 1.0),
                (Topology::fully_connected(8), 2.5),
                (Topology::hypercube(3), 1.0),
                (Topology::ring(5), 1.5),
            ] {
                let params = MachineParams {
                    msg_startup,
                    ..MachineParams::default()
                };
                let m = Machine::new(topology, params);
                assert_identical(g, &m, &["DSH"]);
                let s = banger_sched::dsh::dsh(g, &m);
                assert!(
                    s.placements().len() > g.task_count(),
                    "seed {seed}: DSH duplicated nothing on {} / {}",
                    g.name(),
                    m.topology().name()
                );
            }
        }
    }
}

/// A random DAG of `n` tasks: task `i` takes up to three distinct
/// predecessors among the tasks before it. Weights and volumes are drawn
/// from the given lists.
fn random_dag(rng: &mut StdRng, n: usize, weights: &[f64], volumes: &[f64]) -> TaskGraph {
    let mut g = TaskGraph::new("random-dag");
    let draw = |rng: &mut StdRng, from: &[f64]| from[rng.gen_range(0..from.len())];
    for i in 0..n {
        let t = g.add_task(format!("t{i}"), draw(rng, weights));
        let mut preds: Vec<usize> = (0..rng.gen_range(0..4usize).min(i))
            .map(|_| rng.gen_range(0..i))
            .collect();
        preds.sort_unstable();
        preds.dedup();
        for p in preds {
            let v = draw(rng, volumes);
            g.add_edge(TaskId(p as u32), t, v, "x").unwrap();
        }
    }
    g
}

/// Machines whose message startup is 0 or `TIME_EPS`, one or two hops.
fn eps_machines() -> Vec<Machine> {
    let mut out = Vec::new();
    for msg_startup in [0.0, TIME_EPS] {
        let params = MachineParams {
            msg_startup,
            ..MachineParams::default()
        };
        out.push(Machine::new(Topology::fully_connected(3), params));
        out.push(Machine::new(Topology::ring(4), params));
    }
    out
}

/// The slot search's tolerance is where a cached earliest start could
/// part from a fresh search: tasks of weights around `TIME_EPS`,
/// zero-volume arcs, and a message startup of 0 or `TIME_EPS`. Each seed
/// gives three graphs: every task of weight `w`; `w` mixed with
/// unit-scale weights, so tasks both stack inside the tolerance and leave
/// gaps to fill; and `w` beside long tasks over zero-volume arcs only.
fn eps_scale_graphs_match_reference(tiny: &[f64]) {
    let volumes = [0.0, 0.0, TIME_EPS, 1.0, 4.0];
    let machines = eps_machines();
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = tiny[seed as usize % tiny.len()];
        let graphs = [
            random_dag(&mut rng, 40, &[w], &volumes),
            random_dag(&mut rng, 40, &[w, w, 1.0, 2.5], &volumes),
            random_dag(&mut rng, 40, &[w, 3.0], &[0.0]),
        ];
        for g in &graphs {
            for m in &machines {
                assert_identical(g, m, &["ETF", "DLS"]);
            }
        }
    }
}

#[test]
fn time_eps_weights_match_reference() {
    eps_scale_graphs_match_reference(&[TIME_EPS, 2.0 * TIME_EPS]);
}

/// Zero weights and weights inside `(0, TIME_EPS)` make the slot search
/// stack tasks within its tolerance, which the engine's overlap assertion
/// rejects in debug builds — in the reference as in production (DESIGN.md
/// §14). The release run compares them.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "weights below TIME_EPS trip the engine's debug assertion"
)]
fn sub_time_eps_weights_match_reference() {
    eps_scale_graphs_match_reference(&[0.0, TIME_EPS / 2.0]);
}

/// Insertion-heavy shapes: a few long tasks with high static levels and
/// heavy messages between them, placed first by DLS with communication
/// gaps between them, and many short low-level tasks that land in those
/// gaps afterwards. A commit inside a gap is the case the column update
/// has to search again, so this checks that it does: every slot search
/// beyond the one per ready pair at promotion and the one per commit is
/// such a search, and there must be some.
#[test]
fn insertion_heavy_graphs_match_reference() {
    let mut researched = 0;
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = random_dag(&mut rng, 12, &[6.0, 9.0, 14.0], &[3.0, 5.0, 8.0]);
        for i in 0..28 {
            let w = [0.0, TIME_EPS, 0.5, 1.0, 2.0][rng.gen_range(0..5usize)];
            let t = g.add_task(format!("fill{i}"), w);
            if rng.gen_bool(0.5) {
                let pred = TaskId(rng.gen_range(0..12u32));
                g.add_edge(pred, t, [0.0, 1.0][rng.gen_range(0..2usize)], "y")
                    .unwrap();
            }
        }
        for m in eps_machines() {
            assert_identical(&g, &m, &["ETF", "DLS"]);
            let dls = banger_sched::run_heuristic("DLS", &g, &m).unwrap();
            let floor = (g.task_count() * (m.processors() + 1)) as u64;
            researched += dls.stats().slot_searches - floor;
        }
    }
    assert!(
        researched > 0,
        "no commit inside a gap made DLS search a cached start again"
    );
}

/// A wide, shallow graph keeps the ready set large for the whole run —
/// the worst case for the legacy scans and the best case for the rework.
/// The selection heuristics (HLFET/MCP) must probe *exactly* as often as
/// the reference (only selection time and the order of their ready-time
/// probes changed), while the pair-first heuristics (ETF/DLS) must show
/// the asymptotic probe reduction of computing each ready time once and
/// settling most of a commit's column without a search, and DSH the
/// reduction of keeping the ready times it prices.
#[test]
fn probe_counters_prove_the_asymptotic_win() {
    let g = generators::stencil(30, 40, 2.0, 1.0);
    let m = Machine::new(Topology::fully_connected(4), MachineParams::default());

    for name in ["HLFET", "MCP", "naive", "MH"] {
        let opt = banger_sched::run_heuristic(name, &g, &m).unwrap();
        let naive = sched_reference::run_reference(name, &g, &m).unwrap();
        assert_eq!(opt, naive, "{name}");
        assert_eq!(
            opt.stats(),
            naive.stats(),
            "{name}: selection-only rework must not change probe counts"
        );
    }

    for name in ["ETF", "DLS"] {
        let opt = banger_sched::run_heuristic(name, &g, &m).unwrap();
        let naive = sched_reference::run_reference(name, &g, &m).unwrap();
        assert_eq!(opt, naive, "{name}");
        let (o, r) = (opt.stats(), naive.stats());
        assert!(
            o.arrival_probes * 5 < r.arrival_probes,
            "{name}: cache should cut arrival probes ≥5x: {} vs {}",
            o.arrival_probes,
            r.arrival_probes
        );
        assert!(
            o.slot_searches * 5 <= r.slot_searches,
            "{name}: the column rules should cut slot searches ≥5x: {} vs {}",
            o.slot_searches,
            r.slot_searches
        );
    }

    // DSH keeps the ready time of every placed task it prices, where the
    // reference recomputes each one: on the benchmark's 3k-task layered
    // shape it must probe at most 0.6x as often.
    let g = generators::layered_random(13, 20, 150, 3, (1.0, 10.0), (1.0, 5.0));
    let m = Machine::new(Topology::hypercube(3), MachineParams::default());
    let opt = banger_sched::run_heuristic("DSH", &g, &m).unwrap();
    let naive = sched_reference::run_reference("DSH", &g, &m).unwrap();
    assert_eq!(opt, naive, "DSH");
    let (o, r) = (opt.stats(), naive.stats());
    assert!(
        o.arrival_probes * 10 <= r.arrival_probes * 6,
        "DSH: the kept ready times should cut arrival probes to 0.6x: {} vs {}",
        o.arrival_probes,
        r.arrival_probes
    );
}

/// Stats ride the schedule, per run — two concurrent sweeps must each see
/// exactly their own counters (the old process-global atomics interleaved
/// them).
#[test]
fn probe_stats_are_per_run() {
    let g = generators::gauss_elimination(8, 2.0, 1.0);
    let m = Machine::new(Topology::hypercube(2), MachineParams::default());
    let solo = banger_sched::mh::mh(&g, &m).stats();
    assert!(solo.arrival_probes > 0 && solo.slot_searches > 0);

    // Four threads whatever the host offers, eight identical runs.
    let machines: Vec<Machine> = (0..8)
        .map(|_| Machine::new(Topology::hypercube(2), MachineParams::default()))
        .collect();
    let schedules = banger_taskgraph::parallel::parallel_map_on(4, &machines, |_, m| {
        banger_sched::mh::mh(&g, m)
    });

    for s in &schedules {
        assert_eq!(
            s.stats(),
            solo,
            "concurrent identical runs must report identical per-run stats"
        );
    }
}

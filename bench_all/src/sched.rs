//! `sched_scale`: the scheduler alone, on seeded layered random graphs.

use crate::check;
use crate::inputs::{self, Rng};
use crate::metrics::Layers;
use crate::spans::Spans;
use crate::stats;
use crate::workload::{self, add_count, Counts, Ctx, OpOutcome, Workload};
use banger_machine::{Machine, MachineParams, Topology};
use banger_sched::{run_heuristic, Schedule};
use banger_taskgraph::{generators, TaskGraph};
use std::time::Instant;

/// One heuristic on `graphs` graphs of `layers`×`width` tasks each,
/// in-degree 3. The metric is the time for one graph.
struct Cell {
    heuristic: &'static str,
    span: &'static str,
    metric: &'static str,
    graphs: usize,
    layers: usize,
    width: usize,
}

/// The op: one sweep over these. Sized so that a sweep takes about
/// 50 ms and a 20 s run holds over 300 of them; HLFET and DSH are
/// near-linear and get the bigger graphs, ETF and MH grow much faster.
/// ETF's time on a graph of this size moves by a tenth with the seed, so
/// ETF and MH get two graphs each and the seed's luck halves.
const SWEEP: [Cell; 4] = [
    Cell {
        heuristic: "HLFET",
        span: "sched.HLFET",
        metric: "sched.hlfet_8k_ms",
        graphs: 1,
        layers: 40,
        width: 200,
    },
    Cell {
        heuristic: "ETF",
        span: "sched.ETF",
        metric: "sched.etf_1k_ms",
        graphs: 2,
        layers: 10,
        width: 90,
    },
    Cell {
        heuristic: "MH",
        span: "sched.MH",
        metric: "sched.mh_1k_ms",
        graphs: 2,
        layers: 10,
        width: 90,
    },
    Cell {
        heuristic: "DSH",
        span: "sched.DSH",
        metric: "sched.dsh_3k_ms",
        graphs: 1,
        layers: 20,
        width: 150,
    },
];

/// Run once in a traced run, outside the ops: where each heuristic
/// stands at the scale ROADMAP item 2(e) asks about.
const WALL: [Cell; 5] = [
    Cell {
        heuristic: "HLFET",
        span: "sched.wall_HLFET",
        metric: "sched.hlfet_100k_ms",
        graphs: 1,
        layers: 200,
        width: 500,
    },
    Cell {
        heuristic: "MCP",
        span: "sched.wall_MCP",
        metric: "sched.mcp_100k_ms",
        graphs: 1,
        layers: 200,
        width: 500,
    },
    Cell {
        heuristic: "ETF",
        span: "sched.wall_ETF",
        metric: "sched.etf_10k_ms",
        graphs: 1,
        layers: 50,
        width: 200,
    },
    Cell {
        heuristic: "DLS",
        span: "sched.wall_DLS",
        metric: "sched.dls_5k_ms",
        graphs: 1,
        layers: 25,
        width: 200,
    },
    Cell {
        heuristic: "MH",
        span: "sched.wall_MH",
        metric: "sched.mh_10k_ms",
        graphs: 1,
        layers: 50,
        width: 200,
    },
];

fn graph(cell: &Cell, seed: u64, shrink: usize) -> TaskGraph {
    generators::layered_random(
        seed,
        (cell.layers / shrink).max(2),
        cell.width,
        3,
        (1.0, 10.0),
        (1.0, 5.0),
    )
}

fn checked(g: &TaskGraph, edges: &[(usize, usize)], s: &Schedule) -> Result<(), String> {
    check::check_schedule(g.task_count(), edges, &check::slots_of(s))?;
    if s.makespan() > 0.0 {
        Ok(())
    } else {
        Err(format!("{} makespan is {}", s.heuristic(), s.makespan()))
    }
}

/// One graph of the sweep: the cell it belongs to, the graph, and its
/// precedence edges for the checker.
type SweepGraph = (&'static Cell, TaskGraph, Vec<(usize, usize)>);

pub struct SchedScale {
    seed: u64,
    quick: bool,
    machine: Machine,
    /// Every graph of the sweep, in sweep order.
    graphs: Vec<SweepGraph>,
    counts: Counts,
}

impl SchedScale {
    pub fn setup(ctx: &Ctx) -> Self {
        let mut rng = Rng::new(ctx.seed);
        let graphs = SWEEP
            .iter()
            .flat_map(|cell| std::iter::repeat_n(cell, cell.graphs))
            .map(|cell| {
                let g = graph(cell, rng.next_u64(), 1);
                let edges = check::edges_of(&g);
                (cell, g, edges)
            })
            .collect();
        SchedScale {
            seed: ctx.seed,
            quick: ctx.quick,
            machine: Machine::new(Topology::hypercube(3), MachineParams::default()),
            graphs,
            counts: Counts::new(),
        }
    }
}

impl SchedScale {
    fn sweep(&self, spans: &mut Spans) -> Vec<Option<Schedule>> {
        self.graphs
            .iter()
            .map(|(cell, g, _)| {
                spans.time(cell.span, || {
                    run_heuristic(cell.heuristic, g, &self.machine)
                })
            })
            .collect()
    }
}

/// The `expected.txt` line of `sched_scale`; `ctx` carries the default
/// seed.
#[cfg(test)]
pub fn golden_numbers(ctx: &Ctx) -> String {
    let sum: f64 = SchedScale::setup(ctx)
        .sweep(&mut Spans::new(false))
        .iter()
        .map(|s| {
            s.as_ref()
                .expect("a sweep cell names a heuristic")
                .makespan()
        })
        .sum();
    format!("sched_scale.seed{}.makespan_sum {sum}\n", ctx.seed)
}

impl Workload for SchedScale {
    fn warmup_ops(&self) -> u64 {
        2
    }

    fn traced_ops_per_second(&self) -> f64 {
        2.0
    }

    fn op(&mut self, _i: u64, spans: &mut Spans) -> OpOutcome {
        spans.enter("harness.op");
        let started = Instant::now();
        let schedules = self.sweep(spans);
        let ns = started.elapsed().as_nanos() as u64;
        spans.exit();

        let mut makespans = 0.0;
        let mut verdict = Ok(());
        for ((cell, g, edges), s) in self.graphs.iter().zip(&schedules) {
            let Some(s) = s else {
                verdict = Err(format!("{} is not a heuristic", cell.heuristic));
                break;
            };
            if let Err(e) = checked(g, edges, s) {
                verdict = Err(format!("{}: {e}", cell.heuristic));
                break;
            }
            makespans += s.makespan();
            let mut add = |name, v: f64| add_count(&mut self.counts, name, v);
            add("sched.arrival_probes", s.stats().arrival_probes as f64);
            add("sched.slot_searches", s.stats().slot_searches as f64);
            add("sched.makespan", s.makespan());
            add("sched.tasks", g.task_count() as f64);
            add("sched.placements", s.placements().len() as f64);
            add("taskgraph.tasks", g.task_count() as f64);
            add("taskgraph.arcs", g.edge_count() as f64);
        }
        // The default seed's makespans are checked in, so a change that
        // keeps schedules valid but makes them longer shows as failures.
        if verdict.is_ok() && self.seed == crate::DEFAULT_SEED {
            let want = inputs::expected("sched_scale.seed1994.makespan_sum");
            if makespans != want {
                verdict = Err(format!("makespans sum to {makespans}, checked in: {want}"));
            }
        }
        OpOutcome {
            ns,
            error: verdict.err(),
        }
    }

    fn take_counts(&mut self) -> Counts {
        std::mem::take(&mut self.counts)
    }

    fn probes(&mut self, spans: &mut Spans, layers: &mut Layers) {
        let mut sweep_ms = 0.0;
        for cell in &SWEEP {
            sweep_ms += cell.graphs as f64 * layers.median_of(spans, cell.metric, cell.span, 1.0);
        }
        let tasks: usize = self.graphs.iter().map(|(_, g, _)| g.task_count()).sum();
        layers.set("sched.schedule_ms", sweep_ms);
        layers.set("sched.ns_per_task", sweep_ms * 1e6 / tasks as f64);

        workload::machine_probe(3, spans, layers);

        let (_, g, _) = &self.graphs[0];
        let s = run_heuristic("HLFET", g, &self.machine).expect("HLFET exists");
        for _ in 0..5 {
            spans.time("sched.validate", || {
                s.validate(g, &self.machine)
                    .expect("the library accepts its own schedule")
            });
        }
        layers.median_of(spans, "sched.validate_ms", "sched.validate", 1.0);

        // `--quick` keeps the code path and shrinks the graphs tenfold.
        let shrink = if self.quick { 10 } else { 1 };
        let mut rng = Rng::new(self.seed ^ 0x77a1_1ce1);
        for cell in &WALL {
            let g = graph(cell, rng.next_u64(), shrink);
            let s = spans
                .time(cell.span, || {
                    run_heuristic(cell.heuristic, &g, &self.machine)
                })
                .expect("a wall cell names a heuristic");
            checked(&g, &check::edges_of(&g), &s).expect("a wall cell's schedule is valid");
            let ms = stats::median(&mut spans.durations_ms(cell.span));
            layers.set(cell.metric, ms);
        }
    }

    fn finish(self: Box<Self>) {}
}

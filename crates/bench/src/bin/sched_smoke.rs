//! `sched_smoke` — large-graph scheduling smoke with a wall-clock budget,
//! run by CI so a quadratic regression in the scheduler core fails the
//! build instead of silently rotting.
//!
//! Default: a 10k-task bounded-degree layered-random graph through HLFET
//! and MH on the Figure 3 hypercube-3 machine, each schedule validated,
//! under a total budget (default 30s — generous on CI hardware; the
//! pre-rework quadratic selection alone blows it). CI runs all six
//! heuristics (`--heuristics HLFET,MCP,ETF,DLS,MH,DSH --budget-ms 5000`).
//!
//! ```text
//! cargo run --release -p banger-bench --bin sched_smoke [-- --tasks N]
//!            [--budget-ms MS] [--heuristics A,B] [--hypercube DIM]
//! ```
//!
//! `--tasks 100000` is the README's 100k quick-start demo.

use banger_sched::SchedStats;
use banger_taskgraph::analysis::GraphAnalysis;
use banger_taskgraph::generators;
use std::time::Instant;

fn main() {
    let mut tasks: usize = 10_000;
    let mut budget_ms: u128 = 30_000;
    let mut heuristics = vec!["HLFET".to_string(), "MH".to_string()];
    let mut hypercube: Option<u32> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tasks" => {
                i += 1;
                tasks = args[i].parse().expect("--tasks N");
            }
            "--budget-ms" => {
                i += 1;
                budget_ms = args[i].parse().expect("--budget-ms MS");
            }
            "--heuristics" => {
                i += 1;
                heuristics = args[i].split(',').map(str::to_string).collect();
            }
            "--hypercube" => {
                i += 1;
                hypercube = Some(args[i].parse().expect("--hypercube DIM"));
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // Layer the graph ~200 wide: deep enough to have real dependence
    // structure, wide enough that the ready set stresses selection.
    let width = 200usize.min(tasks);
    let layers = tasks.div_ceil(width).max(1);
    let g = generators::layered_random(2026, layers, width, 3, (1.0, 20.0), (0.5, 10.0));
    let m = match hypercube {
        // Same Figure 3 machine parameters as `bench_machine`, on a
        // caller-chosen hypercube dimension (the EXPERIMENTS.md scaling
        // table's machine axis).
        Some(dim) => banger_machine::Machine::new(
            banger_machine::Topology::hypercube(dim),
            banger::figures::figure3_params(),
        ),
        None => banger_bench::bench_machine(),
    };
    println!(
        "sched_smoke: {} tasks, {} edges on {} (budget {budget_ms} ms)",
        g.task_count(),
        g.edge_count(),
        m.topology().name()
    );

    let start = Instant::now();
    let a = GraphAnalysis::analyze(&g);
    for h in &heuristics {
        let t0 = Instant::now();
        let s = banger_sched::run_heuristic_with(h, &g, &m, &a)
            .unwrap_or_else(|| panic!("unknown heuristic {h}"));
        let sched_ms = t0.elapsed().as_millis();
        s.validate(&g, &m)
            .unwrap_or_else(|e| panic!("{h}: invalid schedule: {e}"));
        let SchedStats {
            arrival_probes,
            slot_searches,
        } = s.stats();
        println!(
            "  {h:<6} {sched_ms:>6} ms  makespan {:>12.1}  arrival_probes {arrival_probes}  slot_searches {slot_searches}",
            s.makespan()
        );
    }
    let total = start.elapsed().as_millis();
    println!("total {total} ms (budget {budget_ms} ms)");
    if total > budget_ms {
        eprintln!("FAIL: wall-clock budget exceeded — quadratic regression?");
        std::process::exit(1);
    }
}

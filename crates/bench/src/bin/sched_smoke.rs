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
use banger_taskgraph::generators;
use std::time::Instant;

const USAGE: &str =
    "usage: sched_smoke [--tasks N] [--budget-ms MS] [--heuristics A,B] [--hypercube DIM]";

fn usage_error(msg: &str) -> ! {
    eprintln!("sched_smoke: {msg}; {USAGE}");
    std::process::exit(2);
}

/// The value following `flag`, parsed; a missing or malformed one is a
/// usage error.
fn value<T: std::str::FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> T {
    let Some(raw) = args.next() else {
        usage_error(&format!("{flag} needs a value"));
    };
    raw.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag}: bad value {raw:?}")))
}

fn main() {
    let mut tasks: usize = 10_000;
    let mut budget_ms: u128 = 30_000;
    let mut heuristics = vec!["HLFET".to_string(), "MH".to_string()];
    // The Figure 3 hypercube-3 machine unless the caller picks another
    // dimension (the EXPERIMENTS.md scaling table's machine axis).
    let mut hypercube: u32 = 3;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--tasks" => tasks = value(&flag, &mut args),
            "--budget-ms" => budget_ms = value(&flag, &mut args),
            "--heuristics" => {
                heuristics = value::<String>(&flag, &mut args)
                    .split(',')
                    .map(str::to_string)
                    .collect();
            }
            "--hypercube" => hypercube = value(&flag, &mut args),
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if tasks == 0 {
        usage_error("--tasks must be at least 1");
    }
    let max_dim = banger_machine::MAX_PROCESSORS.ilog2();
    if hypercube > max_dim {
        usage_error(&format!(
            "--hypercube must be at most {max_dim} ({} processors)",
            banger_machine::MAX_PROCESSORS
        ));
    }
    let known = &banger_sched::HEURISTIC_NAMES;
    if let Some(h) = heuristics.iter().find(|h| !known.contains(&h.as_str())) {
        usage_error(&format!("unknown heuristic {h:?}"));
    }

    // Layer the graph ~200 wide: deep enough to have real dependence
    // structure, wide enough that the ready set stresses selection.
    let width = 200usize.min(tasks);
    let layers = tasks.div_ceil(width);
    let g = generators::layered_random(2026, layers, width, 3, (1.0, 20.0), (0.5, 10.0));
    let m = banger_machine::Machine::new(
        banger_machine::Topology::hypercube(hypercube),
        banger::figures::figure3_params(),
    );
    println!(
        "sched_smoke: {} tasks, {} edges on {} (budget {budget_ms} ms)",
        g.task_count(),
        g.edge_count(),
        m.topology().name()
    );

    let start = Instant::now();
    for h in &heuristics {
        let t0 = Instant::now();
        let s = banger_sched::run_heuristic(h, &g, &m)
            .expect("heuristic names were checked against the registry");
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

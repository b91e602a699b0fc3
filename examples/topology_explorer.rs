//! Explore how one design maps onto every Figure 2 topology: the
//! machine-independence principle made visible. Prints the topology table,
//! a per-topology scheduling comparison, and the winner's Gantt chart.
//!
//! Run with: `cargo run --example topology_explorer`

use banger::figures;
use banger::gantt;
use banger::project::short_name;
use banger_machine::{Machine, RoutingTable, Topology};
use banger_sched::bounds;
use banger_taskgraph::generators;

fn main() {
    // Figure 2: what the environment supports.
    println!("{}", figures::figure2());

    // One design, many machines. The FFT butterfly is communication-heavy
    // (every rank talks to a partner a power-of-two away), so the network
    // shape shows through — hypercubes embed it perfectly, rings do not.
    let g = generators::fft(16, 4.0, 8.0);
    println!(
        "design: {} ({} tasks, {} arcs, avg parallelism {:.2})\n",
        g.name(),
        g.task_count(),
        g.edge_count(),
        banger_taskgraph::analysis::average_parallelism(&g)
    );

    let topologies = [
        Topology::hypercube(3),
        Topology::mesh(2, 4),
        Topology::tree(2, 2),
        Topology::star(8),
        Topology::fully_connected(8),
        Topology::ring(8),
    ];

    println!(
        "{:<16} {:>9} {:>10} {:>9} {:>8} {:>12}",
        "topology", "diameter", "makespan", "speedup", "MS/LB", "sim-ratio"
    );
    let mut best: Option<(Machine, banger_sched::Schedule)> = None;
    let params = banger_machine::MachineParams {
        msg_startup: 0.25,
        transmission_rate: 2.0,
        process_startup: 0.1,
        ..banger_machine::MachineParams::default()
    };
    for topo in topologies {
        let m = Machine::new(topo, params);
        let s = banger_sched::mh::mh(&g, &m);
        s.validate(&g, &m).expect("valid");
        let lb = bounds::lower_bound(&g, &m);
        let sim = banger_sim::simulate(&g, &m, &s).expect("simulates");
        println!(
            "{:<16} {:>9} {:>10.2} {:>8.2}x {:>8.3} {:>12.3}",
            m.topology().name(),
            RoutingTable::build(m.topology()).diameter().unwrap(),
            s.makespan(),
            s.speedup(&g, &m),
            s.makespan() / lb,
            sim.compare()
        );
        if best
            .as_ref()
            .map(|(_, b)| s.makespan() < b.makespan())
            .unwrap_or(true)
        {
            best = Some((m, s));
        }
    }

    let (m, s) = best.unwrap();
    println!("\nbest machine: {} — Gantt chart:\n", m.topology().name());
    println!(
        "{}",
        gantt::render(&s, m.processors(), |t| short_name(&g.task(t).name),)
    );
}

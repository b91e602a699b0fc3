//! Pins every scheduler's placements bit for bit: one hash per heuristic
//! × machine × graph over `(task, proc, start.to_bits(),
//! finish.to_bits())` in commit order, compared with
//! `tests/golden/sched_placements.txt`, which was generated before the
//! engine's timelines were coalesced into runs.
//!
//! `prop_sched_scale` cannot see a change to the timeline: the reference
//! schedulers in `banger_sched::reference` drive the same `Engine`, so
//! both sides of that differential get whatever the slot search returns.
//! This file is what holds the slot search itself in place.
//!
//! The graphs are seeded `layered_random` shapes wide enough to saturate
//! every machine here (long gap-free timelines) and narrow enough
//! elsewhere to leave gaps that later tasks are inserted into; one weight
//! range starts at 0.0, one graph has weight exactly 0.0 throughout (a
//! zero-length probe may start at an interior boundary of a run) and one
//! has weights a few `TIME_EPS` long. Weights *below* `TIME_EPS` are left
//! out: there the slot search lets tasks share a processor, and the
//! engine's debug assertion says so.

#[path = "support/golden.rs"]
mod golden;

use banger_machine::{Machine, MachineParams, SwitchingMode, Topology};
use banger_sched::Schedule;
use banger_taskgraph::analysis::GraphAnalysis;
use banger_taskgraph::generators::layered_random;
use std::fmt::Write as _;

const GOLDEN: &str = "sched_placements.txt";

const HEURISTICS: [&str; 8] = ["serial", "naive", "HLFET", "MCP", "ETF", "DLS", "MH", "DSH"];

/// `(seed, layers, width, deg, weight range, volume range)`.
type Shape = (u64, usize, usize, usize, (f64, f64), (f64, f64));

const SHAPES: [Shape; 9] = [
    (1, 40, 25, 3, (1.0, 10.0), (1.0, 5.0)),
    (2, 12, 60, 3, (1.0, 10.0), (1.0, 5.0)),
    (3, 150, 4, 2, (1.0, 10.0), (0.0, 20.0)),
    (4, 30, 20, 3, (0.0, 3.0), (1.0, 5.0)),
    (5, 25, 16, 4, (0.0, 3.0), (0.0, 1.0)),
    (6, 20, 30, 2, (5.0, 5.0), (2.0, 2.0)),
    (7, 20, 12, 3, (0.0, 0.0), (1.0, 5.0)),
    (8, 60, 10, 5, (1.0, 1000.0), (0.0, 50.0)),
    (9, 10, 100, 1, (2e-6, 1e-5), (1.0, 5.0)),
];

fn machines() -> Vec<(&'static str, Machine)> {
    let plain = MachineParams::default();
    let startup = MachineParams {
        process_startup: 0.5,
        msg_startup: 1.5,
        transmission_rate: 2.0,
        ..MachineParams::default()
    };
    let cut = MachineParams {
        processor_speed: 1.5,
        switching: SwitchingMode::CutThrough { hop_latency: 0.25 },
        ..MachineParams::default()
    };
    vec![
        ("hypercube3", Machine::new(Topology::hypercube(3), plain)),
        ("mesh3x3", Machine::new(Topology::mesh(3, 3), startup)),
        ("ring5", Machine::new(Topology::ring(5), cut)),
        ("star6", Machine::new(Topology::star(6), plain)),
    ]
}

/// The daemon's content hash (FNV-1a) over the placement list, in commit
/// order.
fn placement_hash(s: &Schedule) -> u64 {
    let mut bytes = Vec::with_capacity(s.placements().len() * 32);
    for p in s.placements() {
        for word in [
            p.task.index() as u64,
            p.proc.index() as u64,
            p.start.to_bits(),
            p.finish.to_bits(),
        ] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    banger::serve::content_hash(&bytes)
}

fn dump() -> String {
    let machines = machines();
    let mut out = String::new();
    for &(seed, layers, width, deg, weight, volume) in &SHAPES {
        let g = layered_random(seed, layers, width, deg, weight, volume);
        let a = GraphAnalysis::analyze(&g);
        for (mname, m) in &machines {
            for h in HEURISTICS {
                let s = banger_sched::run_heuristic_with(h, &g, m, &a).expect("known heuristic");
                let _ = writeln!(
                    out,
                    "{h} {mname} seed{seed}-{} placements={} hash={:016x}",
                    g.name(),
                    s.placements().len(),
                    placement_hash(&s)
                );
            }
        }
    }
    out
}

#[test]
fn placements_of_every_heuristic_are_bit_identical_to_the_golden_hashes() {
    golden::assert_matches(GOLDEN, &dump());
}

#[test]
#[ignore = "rewrites the checked-in golden file"]
fn regenerate_golden() {
    golden::regenerate(GOLDEN, &dump());
}

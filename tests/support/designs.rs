//! The design generators shared by `prop_lint`, `prop_hierarchy` and
//! `golden_flatten` (the pinned flatten/diagnose dump): a seeded
//! flat-ish design that is deliberately *not* kept clean, the same with
//! one compound whose wiring a seed may break, and a clean two-level
//! grouped design.
#![allow(dead_code)] // each suite uses its own subset

use banger_taskgraph::{HierGraph, HierNodeId};

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A random flat-ish design driven by a seed: `n` tasks, arcs and storage
/// wired pseudo-randomly — including broken shapes (races, cycles via
/// storage fan-in/out, isolated tasks, zero weights) that the lints are
/// for. The generator intentionally does NOT keep designs clean.
pub fn random_design(seed: u64, n: usize) -> HierGraph {
    let mut g = HierGraph::new(format!("rand{seed}"));
    let mut next = xorshift(seed);
    let tasks: Vec<_> = (0..n)
        .map(|i| {
            // Mix in zero weights so B032 paths are exercised.
            let w = (next() % 5) as f64;
            g.add_task(format!("t{i}"), w)
        })
        .collect();
    let stores: Vec<_> = (0..n.div_ceil(2))
        .map(|i| g.add_storage(format!("s{i}"), (next() % 8) as f64))
        .collect();
    let arcs = (n * 2).max(4);
    for k in 0..arcs {
        let t = tasks[(next() as usize) % tasks.len()];
        let s = stores[(next() as usize) % stores.len()];
        // Alternate write and read arcs; duplicates and self-loops are
        // rejected by add_arc/add_flow, which is fine — skip them.
        let r = if k % 2 == 0 {
            g.add_flow(t, s)
        } else {
            g.add_flow(s, t)
        };
        let _ = r;
        if next().is_multiple_of(3) {
            let a = tasks[(next() as usize) % tasks.len()];
            let b = tasks[(next() as usize) % tasks.len()];
            let _ = g.add_arc(a, b, format!("d{k}"), (next() % 4) as f64);
        }
    }
    g
}

/// [`random_design`] plus a compound `C` (a two-task chain) wired between
/// two of its tasks, and one seeded variation: the input binding dropped,
/// the output binding dropped, a back-arc closing a cycle through `C`, or
/// nothing. The defects a strict flatten refuses and the analyzer names.
pub fn varied_design(seed: u64, n: usize) -> HierGraph {
    let mut g = random_design(seed, n);
    let mut next = xorshift(seed ^ 0x5bd1e995);
    let mut inner = HierGraph::new("inner");
    let a = inner.add_task("a", 1.0);
    let b = inner.add_task("b", 1.0);
    inner.add_arc(a, b, "m", 1.0).unwrap();
    let c = g.add_compound("C", inner);
    // The random tasks are the first `n` nodes.
    let from = HierNodeId((next() % n as u64) as u32);
    let to = HierNodeId((next() % n as u64) as u32);
    g.add_arc(from, c, "cin", 1.0).unwrap();
    g.add_arc(c, to, "cout", 1.0).unwrap();
    let variation = next() % 4;
    if variation != 0 {
        g.bind_input(c, "cin", a).unwrap();
    }
    if variation != 1 {
        g.bind_output(c, "cout", b).unwrap();
    }
    if variation == 2 {
        // `to == from` is already a cycle; add_arc rejects the self-loop.
        let _ = g.add_arc(to, from, "back", 1.0);
    }
    g
}

/// A two-level design: a top-level source storage, `groups` compound
/// nodes each holding a chain of `chain_len` tasks, and a sink task
/// collecting every group's output.
pub fn grouped_design(groups: usize, chain_len: usize, weight: f64) -> HierGraph {
    let mut top = HierGraph::new("grouped");
    let src = top.add_storage("input", 4.0);
    let sink = top.add_task("sink", weight);
    let out = top.add_storage("output", 1.0);
    top.add_flow(sink, out).unwrap();
    for gi in 0..groups {
        let mut inner = HierGraph::new(format!("G{gi}"));
        let mut prev = None;
        let mut first = None;
        for ci in 0..chain_len {
            let t = inner.add_task(format!("t{ci}"), weight * (ci + 1) as f64);
            if let Some(p) = prev {
                inner.add_arc(p, t, format!("c{ci}"), 2.0).unwrap();
            } else {
                first = Some(t);
            }
            prev = Some(t);
        }
        let c = top.add_compound(format!("G{gi}"), inner);
        top.bind_input(c, "input", first.unwrap()).unwrap();
        top.bind_output(c, format!("r{gi}"), prev.unwrap()).unwrap();
        top.add_arc(src, c, "input", 4.0).unwrap();
        top.add_arc(c, sink, format!("r{gi}"), 1.0).unwrap();
    }
    top
}

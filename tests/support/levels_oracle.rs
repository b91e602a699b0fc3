//! `GraphAnalysis::analyze` as it stood before the levels were computed
//! over the flat arc table: a topological sort of the graph, then each
//! level pass reading `in_edges`/`out_edges` and the `Edge` records,
//! pulling over the consumers on the way back. Kept verbatim as the
//! oracle `prop_graph` compares the table's passes with, bit for bit.

use banger_taskgraph::{TaskGraph, TaskId};

/// The fields of the old `GraphAnalysis`.
pub struct Levels {
    pub t_level: Vec<f64>,
    pub b_level: Vec<f64>,
    pub static_level: Vec<f64>,
    pub alap: Vec<f64>,
    pub cp_length: f64,
    pub topo: Vec<TaskId>,
}

/// The old `GraphAnalysis::analyze`.
pub fn analyze(g: &TaskGraph) -> Levels {
    let topo = g
        .topo_order()
        .expect("analysis requires an acyclic dataflow graph");
    let n = g.task_count();
    let mut t_level = vec![0.0f64; n];
    for &t in &topo {
        let mut best = 0.0f64;
        for &e in g.in_edges(t) {
            let edge = g.edge(e);
            let cand = t_level[edge.src.index()] + g.task(edge.src).weight + edge.volume;
            best = best.max(cand);
        }
        t_level[t.index()] = best;
    }

    let mut b_level = vec![0.0f64; n];
    let mut static_level = vec![0.0f64; n];
    for &t in topo.iter().rev() {
        let w = g.task(t).weight;
        let mut bb = 0.0f64;
        let mut sb = 0.0f64;
        for &e in g.out_edges(t) {
            let edge = g.edge(e);
            bb = bb.max(edge.volume + b_level[edge.dst.index()]);
            sb = sb.max(static_level[edge.dst.index()]);
        }
        b_level[t.index()] = w + bb;
        static_level[t.index()] = w + sb;
    }

    let cp_length = g
        .task_ids()
        .map(|t| t_level[t.index()] + b_level[t.index()])
        .fold(0.0f64, f64::max);

    let mut alap = vec![0.0f64; n];
    for &t in topo.iter().rev() {
        let w = g.task(t).weight;
        let mut latest_finish = cp_length;
        for &e in g.out_edges(t) {
            let edge = g.edge(e);
            latest_finish = latest_finish.min(alap[edge.dst.index()] - edge.volume);
        }
        alap[t.index()] = latest_finish - w;
    }

    Levels {
        t_level,
        b_level,
        static_level,
        alap,
        cp_length,
        topo,
    }
}

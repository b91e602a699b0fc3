//! Grain packing — Kruatrachue & Lewis's answer to "how big should a task
//! be?" (IEEE Software 1988). Fine-grain designs drown in process startup
//! and message costs; grain packing merges tasks into clusters until the
//! estimated parallel time stops improving, then hands the coarsened graph
//! to any scheduler.
//!
//! The implementation follows Sarkar-style **edge zeroing**: walk the arcs
//! in decreasing volume order and merge the two endpoint clusters whenever
//! the merge does not increase the estimated parallel time on an unbounded
//! processor set (intra-cluster messages cost zero; each cluster is
//! sequential).

use banger_taskgraph::{GraphError, TaskGraph, TaskId};

/// The result of packing: a cluster id per original task plus the packed
/// (coarsened) graph whose tasks are the clusters.
#[derive(Debug, Clone, PartialEq)]
pub struct Packing {
    /// `cluster_of[t]` = index of the packed task containing original `t`.
    pub cluster_of: Vec<usize>,
    /// The coarsened graph: one task per cluster, weights summed,
    /// inter-cluster arc volumes summed per (src, dst) pair.
    pub packed: TaskGraph,
    /// Estimated parallel time of the final clustering (unbounded
    /// processors, zero intra-cluster communication).
    pub estimated_pt: f64,
}

/// Estimates parallel time of a clustering on unboundedly many processors:
/// each cluster executes its tasks sequentially in topological order;
/// inter-cluster arcs cost their volume, intra-cluster arcs cost zero.
/// Cyclic graphs return `Err(GraphError::Cycle)` instead of panicking.
pub fn estimate_pt(g: &TaskGraph, cluster_of: &[usize]) -> Result<f64, GraphError> {
    let order = g.topo_order()?;
    Ok(estimate_pt_ordered(g, &order, cluster_of))
}

/// [`estimate_pt`] with a precomputed topological order, so packing's
/// inner loop (one estimate per candidate edge) never re-sorts the graph.
fn estimate_pt_ordered(g: &TaskGraph, order: &[TaskId], cluster_of: &[usize]) -> f64 {
    let nclusters = cluster_of.iter().copied().max().map_or(0, |m| m + 1);
    let mut cluster_free = vec![0.0f64; nclusters];
    let mut finish = vec![0.0f64; g.task_count()];
    let mut pt = 0.0f64;
    for &t in order {
        let c = cluster_of[t.index()];
        let mut ready = cluster_free[c];
        for &e in g.in_edges(t) {
            let edge = g.edge(e);
            let comm = if cluster_of[edge.src.index()] == c {
                0.0
            } else {
                edge.volume
            };
            ready = ready.max(finish[edge.src.index()] + comm);
        }
        let f = ready + g.task(t).weight;
        finish[t.index()] = f;
        cluster_free[c] = f;
        pt = pt.max(f);
    }
    pt
}

/// Packs `g` by iterative edge zeroing. Returns the clustering and the
/// coarsened graph. The packed graph is always a DAG (merges that would
/// create cycles are rejected).
///
/// ```
/// use banger_sched::grain;
/// use banger_taskgraph::generators;
/// // A chain with heavy messages collapses to one cluster.
/// let g = generators::chain(5, 1.0, 100.0);
/// let p = grain::pack(&g).unwrap();
/// assert_eq!(p.packed.task_count(), 1);
/// assert_eq!(p.estimated_pt, 5.0);
/// ```
pub fn pack(g: &TaskGraph) -> Result<Packing, GraphError> {
    let n = g.task_count();
    // One topological sort up front: it both rejects cyclic inputs with a
    // proper error and feeds every PT estimate below.
    let order = g.topo_order()?;
    let mut cluster_of: Vec<usize> = (0..n).collect();
    if n > 0 {
        let mut edge_ids: Vec<_> = g.edge_ids().collect();
        edge_ids.sort_by(|&a, &b| {
            g.edge(b)
                .volume
                .total_cmp(&g.edge(a).volume)
                .then(a.cmp(&b))
        });
        let mut current_pt = estimate_pt_ordered(g, &order, &cluster_of);
        for e in edge_ids {
            let edge = g.edge(e);
            let (cs, cd) = (cluster_of[edge.src.index()], cluster_of[edge.dst.index()]);
            if cs == cd {
                continue;
            }
            // Tentatively merge cd into cs.
            let trial: Vec<usize> = cluster_of
                .iter()
                .map(|&c| if c == cd { cs } else { c })
                .collect();
            if clustering_is_acyclic(g, &trial) {
                let pt = estimate_pt_ordered(g, &order, &trial);
                if pt <= current_pt {
                    cluster_of = trial;
                    current_pt = pt;
                }
            }
        }
    }

    // Renumber clusters densely in topological order of first appearance.
    let mut dense: Vec<Option<usize>> = vec![None; n];
    let mut next = 0usize;
    for &t in &order {
        let c = cluster_of[t.index()];
        if dense[c].is_none() {
            dense[c] = Some(next);
            next += 1;
        }
    }
    let cluster_of: Vec<usize> = cluster_of.iter().map(|&c| dense[c].unwrap()).collect();

    // Build the packed graph.
    let mut packed = TaskGraph::new(format!("{}-packed", g.name()));
    let mut members: Vec<Vec<TaskId>> = vec![Vec::new(); next];
    for &t in &order {
        members[cluster_of[t.index()]].push(t);
    }
    for (c, mem) in members.iter().enumerate() {
        let weight: f64 = mem.iter().map(|&t| g.task(t).weight).sum();
        let name = if mem.len() == 1 {
            g.task(mem[0]).name.clone()
        } else {
            format!("pack{c}[{}]", mem.len())
        };
        packed.try_add_task(name, weight)?;
    }
    // Sum inter-cluster volumes per ordered pair.
    let mut volumes: std::collections::BTreeMap<(usize, usize), f64> =
        std::collections::BTreeMap::new();
    for (_, edge) in g.edges() {
        let (cs, cd) = (cluster_of[edge.src.index()], cluster_of[edge.dst.index()]);
        if cs != cd {
            *volumes.entry((cs, cd)).or_insert(0.0) += edge.volume;
        }
    }
    for ((cs, cd), vol) in volumes {
        packed.add_edge(
            TaskId(cs as u32),
            TaskId(cd as u32),
            vol,
            format!("pk{cs}_{cd}"),
        )?;
    }
    let estimated_pt = estimate_pt_ordered(g, &order, &cluster_of);
    Ok(Packing {
        cluster_of,
        packed,
        estimated_pt,
    })
}

/// True when contracting each cluster to one node leaves a DAG.
fn clustering_is_acyclic(g: &TaskGraph, cluster_of: &[usize]) -> bool {
    // Kahn over the contracted multigraph.
    let nclusters = cluster_of.iter().copied().max().map_or(0, |m| m + 1);
    let mut indeg = vec![0usize; nclusters];
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); nclusters];
    for (_, e) in g.edges() {
        let (a, b) = (cluster_of[e.src.index()], cluster_of[e.dst.index()]);
        if a != b {
            succ[a].push(b);
            indeg[b] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..nclusters).filter(|&c| indeg[c] == 0).collect();
    let mut seen = 0usize;
    while let Some(c) = queue.pop() {
        seen += 1;
        for &d in &succ[c] {
            indeg[d] -= 1;
            if indeg[d] == 0 {
                queue.push(d);
            }
        }
    }
    seen == nclusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_taskgraph::generators;

    #[test]
    fn estimate_pt_unclustered_includes_comm() {
        let g = generators::chain(3, 2.0, 5.0);
        let each_own: Vec<usize> = (0..3).collect();
        // 2 + 5 + 2 + 5 + 2 = 16
        assert_eq!(estimate_pt(&g, &each_own).unwrap(), 16.0);
        let all_one = vec![0usize; 3];
        assert_eq!(estimate_pt(&g, &all_one).unwrap(), 6.0);
    }

    #[test]
    fn cyclic_graph_is_an_error_not_a_panic() {
        let mut g = TaskGraph::new("cyc");
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 1.0);
        g.add_edge(a, b, 1.0, "x").unwrap();
        g.add_edge(b, a, 1.0, "y").unwrap();
        assert!(matches!(
            estimate_pt(&g, &[0, 1]),
            Err(GraphError::Cycle(_))
        ));
        assert!(matches!(pack(&g), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn chain_packs_to_single_cluster() {
        let g = generators::chain(6, 2.0, 5.0);
        let p = pack(&g).unwrap();
        assert_eq!(p.packed.task_count(), 1);
        assert_eq!(p.packed.total_weight(), 12.0);
        assert_eq!(p.estimated_pt, 12.0);
        assert!(p.cluster_of.iter().all(|&c| c == 0));
    }

    #[test]
    fn independent_tasks_stay_separate() {
        let g = generators::independent(5, 4.0);
        let p = pack(&g).unwrap();
        assert_eq!(p.packed.task_count(), 5);
        assert_eq!(p.estimated_pt, 4.0);
    }

    #[test]
    fn fork_join_with_heavy_comm_collapses() {
        // Communication dwarfs computation: everything should merge.
        let g = generators::fork_join(3, 1.0, 1.0, 1.0, 100.0);
        let p = pack(&g).unwrap();
        assert_eq!(p.packed.task_count(), 1, "{:?}", p.cluster_of);
    }

    #[test]
    fn fork_join_with_cheap_comm_stays_parallel() {
        let g = generators::fork_join(4, 1.0, 50.0, 1.0, 0.5);
        let p = pack(&g).unwrap();
        assert!(
            p.packed.task_count() >= 4,
            "parallel middles must not merge: {:?}",
            p.cluster_of
        );
        // PT never increases relative to the unclustered estimate.
        let trivial: Vec<usize> = (0..g.task_count()).collect();
        assert!(p.estimated_pt <= estimate_pt(&g, &trivial).unwrap());
    }

    #[test]
    fn packing_never_increases_estimated_pt() {
        for g in [
            generators::gauss_elimination(5, 1.0, 3.0),
            generators::lattice(3, 3, 2.0, 6.0),
            generators::fft(8, 1.0, 4.0),
            generators::outtree(3, 2, 1.0, 9.0),
        ] {
            let trivial: Vec<usize> = (0..g.task_count()).collect();
            let before = estimate_pt(&g, &trivial).unwrap();
            let p = pack(&g).unwrap();
            assert!(
                p.estimated_pt <= before + 1e-9,
                "{}: {} > {before}",
                g.name(),
                p.estimated_pt
            );
            assert!(p.packed.is_dag(), "{}", g.name());
            // weight is conserved
            assert!((p.packed.total_weight() - g.total_weight()).abs() < 1e-9);
        }
    }

    #[test]
    fn packed_graph_volume_never_exceeds_original() {
        let g = generators::gauss_elimination(5, 1.0, 3.0);
        let p = pack(&g).unwrap();
        assert!(p.packed.total_volume() <= g.total_volume() + 1e-9);
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new("empty");
        let p = pack(&g).unwrap();
        assert_eq!(p.packed.task_count(), 0);
        assert_eq!(p.estimated_pt, 0.0);
    }
}

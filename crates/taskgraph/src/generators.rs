//! Workload generators.
//!
//! The paper's running example (Figure 1) is the hierarchical LU
//! decomposition design for a 3-by-3 system `Ax = b`; [`lu_hierarchical`]
//! builds that design for arbitrary `n`. The remaining generators produce
//! the classic task-graph families used throughout the scheduling
//! literature the paper builds on (El-Rewini & Lewis 1990; Kruatrachue
//! 1987): chains, fork/joins, trees, wavefront lattices, FFT butterflies,
//! Gaussian-elimination and Cholesky graphs, divide-and-conquer shapes,
//! and seeded random layered DAGs.
//!
//! All weights are deterministic functions of the parameters (except the
//! explicitly seeded random generator), so benchmark runs are repeatable.

use crate::graph::{TaskGraph, TaskId};
use crate::hierarchy::HierGraph;
use rand::Rng;

/// A linear chain of `n` tasks, each of weight `w`, joined by arcs of
/// volume `v`. Width 1 — the pathological no-parallelism case.
pub fn chain(n: usize, w: f64, v: f64) -> TaskGraph {
    let mut g = TaskGraph::new(format!("chain-{n}"));
    let ids: Vec<TaskId> = (0..n).map(|i| g.add_task(format!("c{i}"), w)).collect();
    for pair in ids.windows(2) {
        g.add_edge(pair[0], pair[1], v, format!("d{}", pair[0].0))
            .unwrap();
    }
    g
}

/// `n` completely independent tasks of weight `w` — the embarrassingly
/// parallel case.
pub fn independent(n: usize, w: f64) -> TaskGraph {
    let mut g = TaskGraph::new(format!("indep-{n}"));
    for i in 0..n {
        g.add_task(format!("p{i}"), w);
    }
    g
}

/// A fork/join: one source of weight `w_src`, `width` parallel middles of
/// weight `w_mid`, one sink of weight `w_sink`; all arcs carry volume `v`.
///
/// With large `v` this is Kruatrachue's motivating case for task
/// duplication: copying the source onto every processor deletes the fan-out
/// messages.
pub fn fork_join(width: usize, w_src: f64, w_mid: f64, w_sink: f64, v: f64) -> TaskGraph {
    let mut g = TaskGraph::new(format!("forkjoin-{width}"));
    let src = g.add_task("fork", w_src);
    let sink = g.add_task("join", w_sink);
    for i in 0..width {
        let m = g.add_task(format!("m{i}"), w_mid);
        g.add_edge(src, m, v, format!("a{i}")).unwrap();
        g.add_edge(m, sink, v, format!("b{i}")).unwrap();
    }
    g
}

/// An out-tree (broadcast): `arity.pow(depth)` leaves fanned out level by
/// level from a single root. Task weight `w`, arc volume `v`.
pub fn outtree(depth: u32, arity: usize, w: f64, v: f64) -> TaskGraph {
    assert!(arity >= 2, "broadcast trees need arity >= 2");
    let mut g = TaskGraph::new(format!("outtree-{depth}x{arity}"));
    let root = g.add_task("root", w);
    let mut frontier = vec![root];
    for level in 1..=depth {
        let mut next = Vec::with_capacity(frontier.len() * arity);
        for (j, &p) in frontier.iter().enumerate() {
            for k in 0..arity {
                let c = g.add_task(format!("n{level}_{j}_{k}"), w);
                g.add_edge(p, c, v, format!("b{level}_{j}_{k}")).unwrap();
                next.push(c);
            }
        }
        frontier = next;
    }
    g
}

/// A wavefront lattice (`rows x cols` grid): task `(i, j)` depends on
/// `(i-1, j)` and `(i, j-1)` — the dependence structure of dynamic
/// programming and stencil sweeps.
pub fn lattice(rows: usize, cols: usize, w: f64, v: f64) -> TaskGraph {
    let mut g = TaskGraph::new(format!("lattice-{rows}x{cols}"));
    let mut ids = vec![vec![TaskId(0); cols]; rows];
    for (i, row) in ids.iter_mut().enumerate() {
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = g.add_task(format!("g{i}_{j}"), w);
        }
    }
    for i in 0..rows {
        for j in 0..cols {
            if i > 0 {
                g.add_edge(ids[i - 1][j], ids[i][j], v, format!("v{i}_{j}"))
                    .unwrap();
            }
            if j > 0 {
                g.add_edge(ids[i][j - 1], ids[i][j], v, format!("h{i}_{j}"))
                    .unwrap();
            }
        }
    }
    g
}

/// The FFT butterfly dataflow: `points` must be a power of two; the graph
/// has `log2(points) + 1` ranks of `points` tasks, and each task at rank
/// `r+1` depends on two tasks at rank `r` (itself and its butterfly
/// partner).
pub fn fft(points: usize, w: f64, v: f64) -> TaskGraph {
    assert!(
        points.is_power_of_two() && points >= 2,
        "points must be a power of two >= 2"
    );
    let ranks = points.trailing_zeros() as usize;
    let mut g = TaskGraph::new(format!("fft-{points}"));
    let mut prev: Vec<TaskId> = (0..points)
        .map(|i| g.add_task(format!("in{i}"), w))
        .collect();
    for r in 0..ranks {
        let stride = 1usize << r;
        let cur: Vec<TaskId> = (0..points)
            .map(|i| g.add_task(format!("bf{r}_{i}"), w))
            .collect();
        for i in 0..points {
            let partner = i ^ stride;
            g.add_edge(prev[i], cur[i], v, format!("s{r}_{i}")).unwrap();
            g.add_edge(prev[partner], cur[i], v, format!("x{r}_{i}"))
                .unwrap();
        }
        prev = cur;
    }
    g
}

/// The Gaussian-elimination task graph for an `n x n` system, the flat
/// equivalent of the paper's LU example. For each pivot column `k` there is
/// a *fan* task `fan{k}` computing the multipliers `l(i,k) = a(i,k)/a(k,k)`
/// and, for each remaining column `j > k`, an update task `u{k}_{j}`
/// applying them. Dependencies:
///
/// * `u(k-1, k)   -> fan(k)`   (the pivot column must be up to date)
/// * `fan(k)      -> u(k, j)`  (updates need the multipliers)
/// * `u(k-1, j)   -> u(k, j)`  (column `j` must be up to date)
///
/// Weights model the shrinking active submatrix: work is proportional to
/// `n - k`. `unit_w`/`unit_v` scale computation and communication.
///
/// ```
/// use banger_taskgraph::{analysis, generators};
/// let g = generators::gauss_elimination(5, 2.0, 1.0);
/// assert_eq!(g.task_count(), 4 + 4 + 3 + 2 + 1);
/// assert_eq!(analysis::width(&g), 4);
/// ```
pub fn gauss_elimination(n: usize, unit_w: f64, unit_v: f64) -> TaskGraph {
    assert!(n >= 2, "elimination needs at least a 2x2 system");
    let mut g = TaskGraph::new(format!("gauss-{n}"));
    // fan[k], upd[k][j] for j in k+1..n
    let mut fan: Vec<TaskId> = Vec::with_capacity(n - 1);
    let mut upd: Vec<Vec<TaskId>> = Vec::with_capacity(n - 1);
    for k in 0..n - 1 {
        let rows = (n - k) as f64;
        let f = g.add_task(format!("fan{}", k + 1), rows * unit_w);
        if k > 0 {
            g.add_edge(upd[k - 1][0], f, rows * unit_v, format!("col{}", k + 1))
                .unwrap();
        }
        let mut row = Vec::with_capacity(n - k - 1);
        for j in k + 1..n {
            let u = g.add_task(format!("u{}_{}", k + 1, j + 1), rows * unit_w);
            g.add_edge(f, u, rows * unit_v, format!("l{}", k + 1))
                .unwrap();
            if k > 0 {
                g.add_edge(
                    upd[k - 1][j - k],
                    u,
                    rows * unit_v,
                    format!("a{}_{}", k + 1, j + 1),
                )
                .unwrap();
            }
            row.push(u);
        }
        fan.push(f);
        upd.push(row);
    }
    g
}

/// The paper's Figure 1: a two-level hierarchical dataflow design for LU
/// decomposition of an `n x n` system `Ax = b`.
///
/// The top level has storage `A`, `b`, `x` and two compound nodes:
/// `Factor` (expanding to the Gaussian-elimination fan/update tasks, named
/// `fan1`, `fl21`, ... following the figure) and `Solve` (expanding to the
/// forward- and back-substitution chains). Every primitive task carries a
/// program name so an attached PITS library can execute the design.
pub fn lu_hierarchical(n: usize) -> HierGraph {
    assert!(n >= 2, "LU needs at least a 2x2 system");
    let vol_col = n as f64; // one column of the matrix
    let vol_mat = (n * n) as f64;
    let vol_vec = n as f64;

    // --- Factor: Gaussian elimination producing L and U ------------------
    let mut factor = HierGraph::new("Factor");
    let a_in = factor.add_storage("A", vol_mat);
    let lu_out = factor.add_storage("LU", vol_mat);
    let mut prev_fan_updates: Vec<crate::hierarchy::HierNodeId> = Vec::new();
    for k in 0..n - 1 {
        let rows = (n - k) as f64;
        let fan = factor.add_task_with_program(
            format!("fan{}", k + 1),
            rows * 3.0,
            format!("fan{}", k + 1),
        );
        if k == 0 {
            factor.add_arc(a_in, fan, "A", vol_mat).unwrap();
        } else {
            factor
                .add_arc(prev_fan_updates[0], fan, format!("col{}", k + 1), vol_col)
                .unwrap();
        }
        let mut row = Vec::new();
        for j in k + 1..n {
            // Figure 1 names these fl21, fl31, ... at the first level.
            let u = factor.add_task_with_program(
                format!("fl{}{}", j + 1, k + 1),
                rows * 2.0,
                format!("fl{}{}", j + 1, k + 1),
            );
            factor
                .add_arc(fan, u, format!("l{}", k + 1), vol_col)
                .unwrap();
            if k > 0 {
                factor
                    .add_arc(
                        prev_fan_updates[j - k],
                        u,
                        format!("a{}{}", j + 1, k + 1),
                        vol_col,
                    )
                    .unwrap();
            }
            row.push(u);
        }
        if k == n - 2 {
            // Only the final update task holds the complete factors: its
            // matrix accumulates every finalized pivot column along the
            // dependence chain (see banger-core's lu module for the message
            // protocol).
            debug_assert_eq!(row.len(), 1);
            factor.add_arc(row[0], lu_out, "LU", vol_mat).unwrap();
        }
        // row[0] is next stage's pivot column update; row[j-k] updates
        // column j+1.
        prev_fan_updates = row;
    }

    // --- Solve: forward then back substitution ---------------------------
    let mut solve = HierGraph::new("Solve");
    let lu_in = solve.add_storage("LU", vol_mat);
    let b_in = solve.add_storage("b", vol_vec);
    let x_out = solve.add_storage("x", vol_vec);
    let mut prev: Option<crate::hierarchy::HierNodeId> = None;
    for i in 0..n {
        let f = solve.add_task_with_program(
            format!("fwd{}", i + 1),
            (i + 1) as f64 * 2.0,
            format!("fwd{}", i + 1),
        );
        solve.add_arc(lu_in, f, "LU", vol_mat).unwrap();
        if i == 0 {
            solve.add_arc(b_in, f, "b", vol_vec).unwrap();
        }
        if let Some(p) = prev {
            solve.add_arc(p, f, format!("y{}", i), 1.0).unwrap();
        }
        prev = Some(f);
    }
    for i in (0..n).rev() {
        let bk = solve.add_task_with_program(
            format!("bck{}", i + 1),
            (n - i) as f64 * 2.0,
            format!("bck{}", i + 1),
        );
        solve.add_arc(lu_in, bk, "LU", vol_mat).unwrap();
        solve
            .add_arc(prev.unwrap(), bk, format!("z{}", i + 1), 1.0)
            .unwrap();
        if i == 0 {
            solve.add_arc(bk, x_out, "x", vol_vec).unwrap();
        }
        prev = Some(bk);
    }

    // --- Top level --------------------------------------------------------
    let mut top = HierGraph::new(format!("LU-{n}x{n}"));
    let a = top.add_storage("A", vol_mat);
    let b = top.add_storage("b", vol_vec);
    let x = top.add_storage("x", vol_vec);
    let fc = top.add_compound("Factor", factor);
    let sc = top.add_compound("Solve", solve);
    top.bind_input(fc, "A", a_in).unwrap();
    top.bind_output(fc, "LU", lu_out).unwrap();
    top.bind_input(sc, "LU", lu_in).unwrap();
    top.bind_input(sc, "b", b_in).unwrap();
    top.bind_output(sc, "x", x_out).unwrap();
    top.add_arc(a, fc, "A", vol_mat).unwrap();
    top.add_arc(fc, sc, "LU", vol_mat).unwrap();
    top.add_arc(b, sc, "b", vol_vec).unwrap();
    top.add_arc(sc, x, "x", vol_vec).unwrap();
    top
}

/// The column-Cholesky task graph for an `n x n` SPD system: for each
/// column `k` there is a factor task `chol{k}` (computes the diagonal and
/// scales the column) and, for each later column `j > k`, an update task
/// `cupd{k}_{j}`. Dependencies mirror [`gauss_elimination`] but the
/// update fan-in grows with `j` (column `j` receives updates from *every*
/// earlier column), giving a denser, more communication-bound graph.
pub fn cholesky(n: usize, unit_w: f64, unit_v: f64) -> TaskGraph {
    assert!(n >= 2, "Cholesky needs at least a 2x2 system");
    let mut g = TaskGraph::new(format!("cholesky-{n}"));
    let mut fac: Vec<TaskId> = Vec::with_capacity(n);
    let mut upd: Vec<Vec<TaskId>> = vec![Vec::new(); n]; // upd[j] = updates feeding column j
    for k in 0..n {
        let rows = (n - k) as f64;
        let f = g.add_task(format!("chol{}", k + 1), rows * unit_w);
        for (i, &u) in upd[k].iter().enumerate() {
            g.add_edge(u, f, rows * unit_v, format!("uc{}_{}", k + 1, i))
                .unwrap();
        }
        for (j, feeds) in upd.iter_mut().enumerate().take(n).skip(k + 1) {
            let u = g.add_task(format!("cupd{}_{}", k + 1, j + 1), rows * unit_w * 0.5);
            g.add_edge(f, u, rows * unit_v, format!("col{}", k + 1))
                .unwrap();
            feeds.push(u);
        }
        fac.push(f);
    }
    let _ = fac;
    g
}

/// A divide-and-conquer graph: a binary *divide* tree of the given depth,
/// leaf *solve* tasks, and a mirror-image *merge* tree. Total tasks
/// `3 * 2^depth - 2`. The classic recursive-algorithm shape (mergesort,
/// quadrature, Barnes–Hut force splitting).
pub fn divide_conquer(depth: u32, w_divide: f64, w_solve: f64, w_merge: f64, v: f64) -> TaskGraph {
    let mut g = TaskGraph::new(format!("divcon-{depth}"));
    // Divide tree.
    let root = g.add_task("div0", w_divide);
    let mut frontier = vec![root];
    for level in 1..=depth {
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for (i, &p) in frontier.iter().enumerate() {
            for side in 0..2 {
                let c = g.add_task(format!("div{level}_{}", i * 2 + side), w_divide);
                g.add_edge(p, c, v, format!("d{level}_{}_{side}", i))
                    .unwrap();
                next.push(c);
            }
        }
        frontier = next;
    }
    // Leaves solve; then merge back up.
    let mut merged: Vec<TaskId> = frontier
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let s = g.add_task(format!("solve{i}"), w_solve);
            g.add_edge(d, s, v, format!("s{i}")).unwrap();
            s
        })
        .collect();
    let mut level = 0;
    while merged.len() > 1 {
        level += 1;
        let mut next = Vec::with_capacity(merged.len() / 2);
        for (i, pair) in merged.chunks(2).enumerate() {
            let m = g.add_task(format!("merge{level}_{i}"), w_merge);
            for (k, &c) in pair.iter().enumerate() {
                g.add_edge(c, m, v, format!("m{level}_{i}_{k}")).unwrap();
            }
            next.push(m);
        }
        merged = next;
    }
    g
}

/// Parameters for [`random_layered`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomSpec {
    /// Number of layers.
    pub layers: usize,
    /// Tasks per layer.
    pub width: usize,
    /// Probability of an arc between consecutive-layer task pairs.
    pub edge_prob: f64,
    /// Task weight range (inclusive).
    pub weight: (f64, f64),
    /// Arc volume range (inclusive).
    pub volume: (f64, f64),
}

impl Default for RandomSpec {
    fn default() -> Self {
        RandomSpec {
            layers: 6,
            width: 8,
            edge_prob: 0.35,
            weight: (5.0, 50.0),
            volume: (1.0, 20.0),
        }
    }
}

/// A seeded random layered DAG. Every non-entry task is guaranteed at
/// least one predecessor in the previous layer, so the depth equals
/// `spec.layers`.
pub fn random_layered<R: Rng>(rng: &mut R, spec: &RandomSpec) -> TaskGraph {
    assert!(spec.layers >= 1 && spec.width >= 1);
    let mut g = TaskGraph::new(format!("random-{}x{}", spec.layers, spec.width));
    let mut prev: Vec<TaskId> = Vec::new();
    for l in 0..spec.layers {
        let cur: Vec<TaskId> = (0..spec.width)
            .map(|i| {
                let w = rng.gen_range(spec.weight.0..=spec.weight.1);
                g.add_task(format!("r{l}_{i}"), w)
            })
            .collect();
        if l > 0 {
            for (i, &t) in cur.iter().enumerate() {
                let mut any = false;
                for (j, &p) in prev.iter().enumerate() {
                    if rng.gen_bool(spec.edge_prob) {
                        let v = rng.gen_range(spec.volume.0..=spec.volume.1);
                        g.add_edge(p, t, v, format!("e{l}_{j}_{i}")).unwrap();
                        any = true;
                    }
                }
                if !any {
                    let j = rng.gen_range(0..prev.len());
                    let v = rng.gen_range(spec.volume.0..=spec.volume.1);
                    g.add_edge(prev[j], t, v, format!("e{l}_{j}_{i}")).unwrap();
                }
            }
        }
        prev = cur;
    }
    g
}

/// A seeded random layered DAG with **bounded in-degree**, built in
/// `O(n · deg)` — the scale companion to [`random_layered`], whose
/// coin-flip-per-pair construction is `O(layers · width²)` and
/// impractical at the 10k–100k tasks the scheduler benchmarks need.
///
/// Every task in layer `l > 0` receives exactly `min(deg, width)`
/// predecessors sampled (with replacement, distinct labels) from layer
/// `l - 1`, so depth equals `layers` and the edge count is
/// `≈ n · deg`. Weights and volumes are drawn from the inclusive ranges.
/// Deterministic for a given `(seed, layers, width, deg)` — benchmark and
/// CI graphs are repeatable by construction.
pub fn layered_random(
    seed: u64,
    layers: usize,
    width: usize,
    deg: usize,
    weight: (f64, f64),
    volume: (f64, f64),
) -> TaskGraph {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    assert!(layers >= 1 && width >= 1 && deg >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = TaskGraph::new(format!("layered-{layers}x{width}d{deg}"));
    let mut prev: Vec<TaskId> = Vec::new();
    for l in 0..layers {
        let cur: Vec<TaskId> = (0..width)
            .map(|i| {
                let w = rng.gen_range(weight.0..=weight.1);
                g.add_task(format!("r{l}_{i}"), w)
            })
            .collect();
        if l > 0 {
            let fan = deg.min(prev.len());
            for (i, &t) in cur.iter().enumerate() {
                for k in 0..fan {
                    let j = rng.gen_range(0..prev.len());
                    let v = rng.gen_range(volume.0..=volume.1);
                    g.add_edge(prev[j], t, v, format!("e{l}_{i}_{k}")).unwrap();
                }
            }
        }
        prev = cur;
    }
    g
}

/// The right-looking **tiled LU** task graph over a `tiles × tiles` tile
/// grid — the dense-linear-algebra DAG that optimizer-expanded designs
/// hand the scheduler at scale (`≈ tiles³/3` tasks; `tiles = 67` is just
/// over 100k). Per elimination step `k`:
///
/// * `getrf{k}` factors the diagonal tile;
/// * `trsm{k}_r{j}` / `trsm{k}_c{i}` solve the remaining row/column
///   panels (`j, i > k`), each depending on `getrf{k}`;
/// * `gemm{k}_{i}_{j}` updates trailing tile `(i, j)`, depending on
///   `trsm{k}_c{i}` and `trsm{k}_r{j}`.
///
/// Each step-`k` task on tile `(i, j)` also depends on the step-`k-1`
/// update of the same tile, giving the classic shrinking-wavefront
/// structure. Weights model the per-tile kernel costs (`getrf` heaviest),
/// scaled by `unit_w`; every message carries one tile (`unit_v`).
pub fn tiled_lu(tiles: usize, unit_w: f64, unit_v: f64) -> TaskGraph {
    assert!(tiles >= 2, "tiled LU needs at least a 2x2 tile grid");
    let mut g = TaskGraph::new(format!("tiled-lu-{tiles}"));
    // prev[i][j] = the step-(k-1) task that last wrote tile (i, j),
    // indexed relative to the trailing submatrix.
    let mut prev: Vec<Vec<Option<TaskId>>> = vec![vec![None; tiles]; tiles];
    for k in 0..tiles {
        let getrf = g.add_task(format!("getrf{k}"), 3.0 * unit_w);
        if let Some(p) = prev[k][k] {
            g.add_edge(p, getrf, unit_v, format!("a{k}_{k}_{k}"))
                .unwrap();
        }
        prev[k][k] = Some(getrf);
        // Row and column panels. (`prev` is indexed both `[k][j]` and
        // `[j][k]` here, so the iterator form clippy suggests can't apply.)
        #[allow(clippy::needless_range_loop)]
        for j in k + 1..tiles {
            let r = g.add_task(format!("trsm{k}_r{j}"), 2.0 * unit_w);
            g.add_edge(getrf, r, unit_v, format!("u{k}_r{j}")).unwrap();
            if let Some(p) = prev[k][j] {
                g.add_edge(p, r, unit_v, format!("a{k}_{k}_{j}")).unwrap();
            }
            prev[k][j] = Some(r);

            let c = g.add_task(format!("trsm{k}_c{j}"), 2.0 * unit_w);
            g.add_edge(getrf, c, unit_v, format!("l{k}_c{j}")).unwrap();
            if let Some(p) = prev[j][k] {
                g.add_edge(p, c, unit_v, format!("a{k}_{j}_{k}")).unwrap();
            }
            prev[j][k] = Some(c);
        }
        // Trailing updates.
        for i in k + 1..tiles {
            for j in k + 1..tiles {
                let u = g.add_task(format!("gemm{k}_{i}_{j}"), unit_w);
                let col = prev[i][k].expect("column panel placed above");
                let row = prev[k][j].expect("row panel placed above");
                g.add_edge(col, u, unit_v, format!("l{k}_{i}_{j}")).unwrap();
                g.add_edge(row, u, unit_v, format!("u{k}_{i}_{j}")).unwrap();
                if let Some(p) = prev[i][j] {
                    g.add_edge(p, u, unit_v, format!("a{k}_{i}_{j}")).unwrap();
                }
                prev[i][j] = Some(u);
            }
        }
    }
    g
}

/// A time-stepped 1-D three-point **stencil** sweep: task `(t, i)` at time
/// step `t` depends on `(t-1, i-1)`, `(t-1, i)` and `(t-1, i+1)` (clamped
/// at the boundaries). `steps × points` tasks, `≈ 3 n` edges, constant
/// width `points` — the iterative-solver shape whose ready set stays wide
/// for the whole run, the worst case for linear ready-set scans.
pub fn stencil(steps: usize, points: usize, w: f64, v: f64) -> TaskGraph {
    assert!(steps >= 1 && points >= 1);
    let mut g = TaskGraph::new(format!("stencil-{steps}x{points}"));
    let mut prev: Vec<TaskId> = Vec::new();
    for t in 0..steps {
        let cur: Vec<TaskId> = (0..points)
            .map(|i| g.add_task(format!("s{t}_{i}"), w))
            .collect();
        if t > 0 {
            for (i, &task) in cur.iter().enumerate() {
                let lo = i.saturating_sub(1);
                let hi = (i + 1).min(points - 1);
                for (k, j) in (lo..=hi).enumerate() {
                    g.add_edge(prev[j], task, v, format!("n{t}_{i}_{k}"))
                        .unwrap();
                }
            }
        }
        prev = cur;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chain_shape() {
        let g = chain(5, 2.0, 1.0);
        assert_eq!(g.task_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(analysis::width(&g), 1);
        assert_eq!(analysis::depth(&g), 5);
        assert_eq!(g.critical_path_length(), 10.0);
    }

    #[test]
    fn independent_shape() {
        let g = independent(7, 3.0);
        assert_eq!(g.task_count(), 7);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(analysis::width(&g), 7);
    }

    #[test]
    fn fork_join_shape() {
        let g = fork_join(4, 1.0, 10.0, 1.0, 5.0);
        assert_eq!(g.task_count(), 6);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(analysis::width(&g), 4);
        assert_eq!(g.critical_path_length(), 12.0);
    }

    #[test]
    fn outtree_shape() {
        let g = outtree(2, 3, 1.0, 1.0);
        // 1 + 3 + 9 = 13 nodes
        assert_eq!(g.task_count(), 13);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(g.entry_tasks().len(), 1);
        assert_eq!(g.exit_tasks().len(), 9);
    }

    #[test]
    fn lattice_shape() {
        let g = lattice(3, 4, 1.0, 1.0);
        assert_eq!(g.task_count(), 12);
        // vertical: 2*4 = 8; horizontal: 3*3 = 9
        assert_eq!(g.edge_count(), 17);
        assert_eq!(analysis::depth(&g), 6); // 3+4-1 anti-diagonals
        assert!(g.is_dag());
    }

    #[test]
    fn fft_shape() {
        let g = fft(8, 1.0, 1.0);
        // 4 ranks of 8
        assert_eq!(g.task_count(), 32);
        assert_eq!(g.edge_count(), 48);
        assert_eq!(analysis::width(&g), 8);
        assert_eq!(analysis::depth(&g), 4);
        assert!(g.is_dag());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        fft(6, 1.0, 1.0);
    }

    #[test]
    fn gauss_shape() {
        let g = gauss_elimination(4, 1.0, 1.0);
        // k=0: fan + 3 upd; k=1: fan + 2; k=2: fan + 1 => 9 tasks
        assert_eq!(g.task_count(), 9);
        assert!(g.is_dag());
        assert_eq!(g.entry_tasks().len(), 1);
        // weights shrink with k
        let f1 = g.find_task("fan1").unwrap();
        let f3 = g.find_task("fan3").unwrap();
        assert!(g.task(f1).weight > g.task(f3).weight);
    }

    #[test]
    fn gauss_dependencies() {
        let g = gauss_elimination(3, 1.0, 1.0);
        let fan2 = g.find_task("fan2").unwrap();
        let u12 = g.find_task("u1_2").unwrap();
        // fan2 must wait for the first update of column 2.
        assert!(g.predecessors(fan2).any(|p| p == u12));
    }

    #[test]
    fn lu_hierarchical_flattens_to_dag() {
        for n in 2..=5 {
            let h = lu_hierarchical(n);
            assert_eq!(h.depth(), 2, "two-level design per Figure 1");
            let f = h.flatten().unwrap();
            assert!(f.graph.is_dag());
            // Factor tasks: sum_{k=1}^{n-1} (n-k) + (n-1) fans; Solve: 2n.
            let expected = (n - 1) + (n - 1) * n / 2 + 2 * n;
            assert_eq!(f.graph.task_count(), expected, "n={n}");
            // External ports are A, b (inputs) and x (output).
            let mut in_vars: Vec<&str> = f.inputs.iter().map(|p| p.var.as_str()).collect();
            in_vars.sort_unstable();
            assert_eq!(in_vars, vec!["A", "b"]);
            assert_eq!(f.outputs.len(), 1);
            assert_eq!(f.outputs[0].var, "x");
        }
    }

    #[test]
    fn lu_figure1_names_present() {
        let f = lu_hierarchical(3).flatten().unwrap();
        for name in [
            "Factor.fan1",
            "Factor.fl21",
            "Factor.fl31",
            "Factor.fan2",
            "Factor.fl32",
            "Solve.fwd1",
            "Solve.bck3",
        ] {
            assert!(f.graph.find_task(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn lu_programs_attached() {
        let f = lu_hierarchical(3).flatten().unwrap();
        for (_, t) in f.graph.tasks() {
            assert!(t.program.is_some(), "task {} lacks a program", t.name);
        }
    }

    #[test]
    fn cholesky_shape() {
        let g = cholesky(4, 1.0, 1.0);
        // factors: 4; updates: 3 + 2 + 1 = 6
        assert_eq!(g.task_count(), 10);
        assert!(g.is_dag());
        // column j's factor waits for j earlier updates
        let c3 = g.find_task("chol3").unwrap();
        assert_eq!(g.in_degree(c3), 2);
        let c4 = g.find_task("chol4").unwrap();
        assert_eq!(g.in_degree(c4), 3);
        // denser than gauss of the same size
        let gauss = gauss_elimination(4, 1.0, 1.0);
        assert!(g.ccr() >= gauss.ccr() * 0.5);
    }

    #[test]
    fn divide_conquer_shape() {
        let g = divide_conquer(3, 1.0, 8.0, 2.0, 3.0);
        // 2^(3+2) - 2 = 30: 15 divides + 8 solves + 7 merges
        assert_eq!(g.task_count(), 30);
        assert_eq!(g.entry_tasks().len(), 1);
        assert_eq!(g.exit_tasks().len(), 1);
        assert_eq!(analysis::width(&g), 8, "8 parallel solves");
        assert!(g.is_dag());
        // depth = 3 divides + solve + 3 merges + root = 8 levels
        assert_eq!(analysis::depth(&g), 8);
    }

    #[test]
    fn divide_conquer_depth_zero() {
        let g = divide_conquer(0, 1.0, 8.0, 2.0, 3.0);
        // one divide, one solve, no merges
        assert_eq!(g.task_count(), 2);
    }

    #[test]
    fn random_layered_deterministic_and_valid() {
        let spec = RandomSpec::default();
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let g1 = random_layered(&mut r1, &spec);
        let g2 = random_layered(&mut r2, &spec);
        assert_eq!(g1, g2, "same seed must give the same graph");
        assert!(g1.is_dag());
        assert_eq!(g1.task_count(), spec.layers * spec.width);
        assert_eq!(analysis::depth(&g1), spec.layers);
        // every non-entry task has a predecessor
        for t in g1.task_ids() {
            if t.index() >= spec.width {
                assert!(g1.in_degree(t) >= 1);
            }
        }
    }

    #[test]
    fn random_layered_different_seeds_differ() {
        let spec = RandomSpec::default();
        let g1 = random_layered(&mut StdRng::seed_from_u64(1), &spec);
        let g2 = random_layered(&mut StdRng::seed_from_u64(2), &spec);
        assert_ne!(g1, g2);
    }

    #[test]
    fn layered_random_bounded_degree() {
        let g = layered_random(7, 20, 50, 3, (1.0, 10.0), (1.0, 5.0));
        assert_eq!(g.task_count(), 1000);
        assert!(g.is_dag());
        assert_eq!(analysis::depth(&g), 20);
        // Exactly 3 in-edges per non-entry task (labels distinct, sources
        // may repeat), so edge count is linear in n — not width².
        assert_eq!(g.edge_count(), 19 * 50 * 3);
        for t in g.task_ids().skip(50) {
            assert_eq!(g.in_degree(t), 3);
        }
        // Deterministic per seed.
        assert_eq!(g, layered_random(7, 20, 50, 3, (1.0, 10.0), (1.0, 5.0)));
        assert_ne!(g, layered_random(8, 20, 50, 3, (1.0, 10.0), (1.0, 5.0)));
    }

    #[test]
    fn tiled_lu_shape() {
        let g = tiled_lu(4, 1.0, 1.0);
        // Per step k over T=4: 1 getrf + 2(T-1-k) trsm + (T-1-k)² gemm.
        let expect: usize = (0..4).map(|k| 1 + 2 * (3 - k) + (3 - k) * (3 - k)).sum();
        assert_eq!(g.task_count(), expect);
        assert!(g.is_dag());
        // Single entry (getrf0), single exit (getrf at the last step).
        assert_eq!(g.entry_tasks().len(), 1);
        assert_eq!(g.exit_tasks().len(), 1);
        // The final getrf depends on the step-(T-2) gemm of its own tile.
        let last = g.find_task("getrf3").unwrap();
        let gemm = g.find_task("gemm2_3_3").unwrap();
        assert!(g.predecessors(last).any(|p| p == gemm));
        // getrf dominates trsm dominates gemm in weight.
        let w = |name: &str| g.task(g.find_task(name).unwrap()).weight;
        assert!(w("getrf0") > w("trsm0_r1"));
        assert!(w("trsm0_r1") > w("gemm0_1_1"));
    }

    #[test]
    fn stencil_shape() {
        let g = stencil(5, 8, 2.0, 1.0);
        assert_eq!(g.task_count(), 40);
        assert!(g.is_dag());
        assert_eq!(analysis::depth(&g), 5);
        assert_eq!(analysis::width(&g), 8);
        // Interior tasks have 3 predecessors, boundary tasks 2.
        let mid = g.find_task("s3_4").unwrap();
        assert_eq!(g.in_degree(mid), 3);
        let edge = g.find_task("s3_0").unwrap();
        assert_eq!(g.in_degree(edge), 2);
        // 4 transitions × (2 boundary·2 + 6 interior·3) = 4 × 22 edges.
        assert_eq!(g.edge_count(), 4 * 22);
    }
}

//! Map expansion: tiling a dense-LU template task into a data-parallel
//! compound.
//!
//! A template node describes a whole-array computation at drawing
//! granularity — one box, one program, no parallelism. This pass
//! recognises the dense LU factorisation template (the exact shape
//! produced by [`dense_lu_program`]) and replaces the node *in place*
//! ([`banger_taskgraph::HierGraph::replace_task_with_compound`]) with a
//! tiled right-looking block-LU expansion: one scatter task per tile,
//! a chain of rank-`b` update (gemm) tasks, a factor/solve kernel per
//! tile, and a gather that reassembles the full matrix. For `tiles = T`
//! the compound holds `T^2` scatters, `sum(min(i,j))` gemms, `T^2`
//! kernels, `T^2` relabel copies and one gather — thousands of tasks at
//! `T = 16`, all from one drawn node.
//!
//! # Value preservation
//!
//! The expansion is *bit-identical* in values: the per-element sequence
//! of floating-point operations (update steps ascending, division before
//! the row's updates, columns ascending) is exactly the dense template's,
//! and every operand a tiled kernel reads is already at its final dense
//! value when read. It is *not* ops-preserving — scatter, gather and the
//! per-tile copies cost extra interpreter operations by construction.
//!
//! # PITS naming constraints
//!
//! A PITS program may not declare one variable as both input and output,
//! so the working-tile chain alternates between `z0` and `z1`: each
//! kernel comes in an even variant (reads `z0`) and an odd variant
//! (reads `z1`), chosen by how many gemm steps precede it. Kernel
//! programs are shared across tiles; scatter/relabel/gather programs are
//! per-tile because their offsets (and the router's name-binding
//! contract: producer output = arc label = consumer input) require
//! distinct names.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use banger_calc::ast::{Expr, Program, Stmt};
use banger_calc::library::ProgramLibrary;
use banger_calc::parser::parse_program;
use banger_taskgraph::hierarchy::{HierGraph, HierNodeId, NodeKind};

use crate::OptError;

/// What [`expand_dense_lu`] built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpandStats {
    /// Tiles per dimension.
    pub tiles: usize,
    /// Block (tile) edge length `n / tiles`.
    pub block: usize,
    /// Tasks inside the generated compound.
    pub tasks_added: usize,
    /// Programs added to the library.
    pub programs_added: usize,
}

/// Generates the dense LU factorisation template: Doolittle elimination,
/// row-major 1-based indexing, no pivoting — the same operation order as
/// `banger::lu::solve_reference`'s factor phase.
///
/// This is both a usable program and the *recognition pattern* for
/// [`expand_dense_lu`]: a task qualifies for expansion exactly when its
/// program structurally equals `dense_lu_program(name, a, lu, n)` for
/// its declared input `a` and output `lu`.
pub fn dense_lu_program(name: &str, a: &str, lu: &str, n: usize) -> Program {
    let mut s = String::new();
    let _ = writeln!(s, "task {name}");
    let _ = writeln!(s, "  in {a}");
    let _ = writeln!(s, "  out {lu}");
    let _ = writeln!(s, "  local t, r, c");
    let _ = writeln!(s, "begin");
    let _ = writeln!(s, "  {lu} := {a}");
    let _ = writeln!(s, "  for t := 1 to {} do", n - 1);
    let _ = writeln!(s, "    for r := t + 1 to {n} do");
    let _ = writeln!(
        s,
        "      {lu}[(r - 1) * {n} + t] := {lu}[(r - 1) * {n} + t] / {lu}[(t - 1) * {n} + t]"
    );
    let _ = writeln!(s, "      for c := t + 1 to {n} do");
    let _ = writeln!(
        s,
        "        {lu}[(r - 1) * {n} + c] := {lu}[(r - 1) * {n} + c] - \
         {lu}[(r - 1) * {n} + t] * {lu}[(t - 1) * {n} + c]"
    );
    let _ = writeln!(s, "      end");
    let _ = writeln!(s, "    end");
    let _ = writeln!(s, "  end");
    let _ = writeln!(s, "end");
    parse_program(&s).expect("generated dense LU template parses")
}

/// Recognises a dense-LU template and returns `(input, output, n)`.
fn recognize(prog: &Program) -> Option<(String, String, usize)> {
    if prog.inputs.len() != 1 || prog.outputs.len() != 1 {
        return None;
    }
    let n = match prog.body.get(1)? {
        Stmt::For {
            to: Expr::Num(x), ..
        } if *x >= 1.0 && x.fract() == 0.0 => *x as usize + 1,
        _ => return None,
    };
    let (a, lu) = (prog.inputs[0].clone(), prog.outputs[0].clone());
    let template = dense_lu_program(&prog.name, &a, &lu, n);
    (*prog == template).then_some((a, lu, n))
}

/// Even/odd working-tile variable for a chain position.
fn zvar(parity: usize) -> &'static str {
    if parity.is_multiple_of(2) {
        "z0"
    } else {
        "z1"
    }
}

fn parity_suffix(parity: usize) -> &'static str {
    if parity.is_multiple_of(2) {
        "e"
    } else {
        "o"
    }
}

/// The shared factor/update kernels, two parity variants each.
fn kernel_programs(prefix: &str, b: usize) -> Vec<Program> {
    let mut progs = Vec::new();
    for p in 0..2 {
        let (zin, zout, sfx) = (zvar(p), zvar(p + 1), parity_suffix(p));

        // getrf: dense LU of the diagonal tile (template restricted to
        // one block).
        let mut s = String::new();
        let _ = writeln!(
            s,
            "task {prefix}_getrf_{sfx} in {zin} out f local t, r, c begin"
        );
        let _ = writeln!(s, "  f := {zin}");
        let _ = writeln!(s, "  for t := 1 to {} do", b - 1);
        let _ = writeln!(s, "    for r := t + 1 to {b} do");
        let _ = writeln!(
            s,
            "      f[(r - 1) * {b} + t] := f[(r - 1) * {b} + t] / f[(t - 1) * {b} + t]"
        );
        let _ = writeln!(s, "      for c := t + 1 to {b} do");
        let _ = writeln!(
            s,
            "        f[(r - 1) * {b} + c] := f[(r - 1) * {b} + c] - \
             f[(r - 1) * {b} + t] * f[(t - 1) * {b} + c]"
        );
        let _ = writeln!(s, "      end end end end");
        progs.push(parse_program(&s).expect("getrf parses"));

        // trsmr: U block right of the diagonal — the remaining update
        // steps of its own block row (no divisions land in it).
        let mut s = String::new();
        let _ = writeln!(
            s,
            "task {prefix}_trsmr_{sfx} in f, {zin} out u local t, r, c begin"
        );
        let _ = writeln!(s, "  u := {zin}");
        let _ = writeln!(s, "  for t := 1 to {} do", b - 1);
        let _ = writeln!(s, "    for r := t + 1 to {b} do");
        let _ = writeln!(s, "      for c := 1 to {b} do");
        let _ = writeln!(
            s,
            "        u[(r - 1) * {b} + c] := u[(r - 1) * {b} + c] - \
             f[(r - 1) * {b} + t] * u[(t - 1) * {b} + c]"
        );
        let _ = writeln!(s, "      end end end end");
        progs.push(parse_program(&s).expect("trsmr parses"));

        // trsmc: L block below the diagonal — divisions by the pivot
        // diagonal plus trailing updates inside the block column.
        let mut s = String::new();
        let _ = writeln!(
            s,
            "task {prefix}_trsmc_{sfx} in f, {zin} out l local t, r, c begin"
        );
        let _ = writeln!(s, "  l := {zin}");
        let _ = writeln!(s, "  for t := 1 to {b} do");
        let _ = writeln!(s, "    for r := 1 to {b} do");
        let _ = writeln!(
            s,
            "      l[(r - 1) * {b} + t] := l[(r - 1) * {b} + t] / f[(t - 1) * {b} + t]"
        );
        let _ = writeln!(s, "      for c := t + 1 to {b} do");
        let _ = writeln!(
            s,
            "        l[(r - 1) * {b} + c] := l[(r - 1) * {b} + c] - \
             l[(r - 1) * {b} + t] * f[(t - 1) * {b} + c]"
        );
        let _ = writeln!(s, "      end end end end");
        progs.push(parse_program(&s).expect("trsmc parses"));

        // gemm: one rank-b update block-step, alternating the chain
        // variable (PITS forbids `in z out z`).
        let mut s = String::new();
        let _ = writeln!(
            s,
            "task {prefix}_gemm_{sfx} in l, u, {zin} out {zout} local t, r, c begin"
        );
        let _ = writeln!(s, "  {zout} := {zin}");
        let _ = writeln!(s, "  for t := 1 to {b} do");
        let _ = writeln!(s, "    for r := 1 to {b} do");
        let _ = writeln!(s, "      for c := 1 to {b} do");
        let _ = writeln!(
            s,
            "        {zout}[(r - 1) * {b} + c] := {zout}[(r - 1) * {b} + c] - \
             l[(r - 1) * {b} + t] * u[(t - 1) * {b} + c]"
        );
        let _ = writeln!(s, "      end end end end");
        progs.push(parse_program(&s).expect("gemm parses"));
    }
    progs
}

/// Expands the named top-level dense-LU template task of `design` into a
/// `tiles x tiles` block-LU compound, registering the generated programs
/// in `lib`. The node keeps its id, so surrounding arcs stay attached;
/// the compound imports the template's input variable and exports its
/// output variable.
pub fn expand_dense_lu(
    design: &mut HierGraph,
    task: &str,
    lib: &mut ProgramLibrary,
    tiles: usize,
) -> Result<ExpandStats, OptError> {
    let (node_id, pname) = find_template_task(design, task)?;
    let prog = lib
        .get(&pname)
        .ok_or_else(|| OptError::UnknownProgram(pname.clone()))?;
    let (a, lu, n) = recognize(prog).ok_or_else(|| OptError::NotATemplate(task.to_string()))?;
    if tiles < 2 || n % tiles != 0 || n / tiles < 2 {
        return Err(OptError::BadTiling { n, tiles });
    }
    let b = n / tiles;

    // A fresh name prefix for the generated programs (collision-bumped
    // against the library).
    let mut prefix = pname.clone();
    while lib.get(&format!("{prefix}_gather")).is_some() {
        prefix.push_str("_x");
    }

    let mut programs = kernel_programs(&prefix, b);

    // Per-tile scatter: copy tile (i, j) out of the full matrix.
    for i in 0..tiles {
        for j in 0..tiles {
            let (ro, co) = (i * b, j * b);
            let mut s = String::new();
            let _ = writeln!(s, "task {prefix}_sc_{i}_{j} in {a} out z0 local r, c begin");
            let _ = writeln!(s, "  z0 := zeros({})", b * b);
            let _ = writeln!(s, "  for r := 1 to {b} do for c := 1 to {b} do");
            let _ = writeln!(
                s,
                "    z0[(r - 1) * {b} + c] := {a}[(r + {ro} - 1) * {n} + c + {co}]"
            );
            let _ = writeln!(s, "  end end end");
            programs.push(parse_program(&s).expect("scatter parses"));
        }
    }

    // Per-tile relabel: give each finished tile a unique variable name
    // so the gather can import all of them (a whole-array copy-on-write
    // assignment: one operation, no element copies).
    for i in 0..tiles {
        for j in 0..tiles {
            let src = kernel_output(i, j);
            let mut s = String::new();
            let _ = writeln!(
                s,
                "task {prefix}_rl_{i}_{j} in {src} out q_{i}_{j} begin q_{i}_{j} := {src} end"
            );
            programs.push(parse_program(&s).expect("relabel parses"));
        }
    }

    // Gather: assemble the full factored matrix from all tiles.
    let mut s = String::new();
    let _ = write!(s, "task {prefix}_gather in ");
    for i in 0..tiles {
        for j in 0..tiles {
            if i + j > 0 {
                let _ = write!(s, ", ");
            }
            let _ = write!(s, "q_{i}_{j}");
        }
    }
    let _ = writeln!(s, " out {lu} local r, c begin");
    let _ = writeln!(s, "  {lu} := zeros({})", n * n);
    for i in 0..tiles {
        for j in 0..tiles {
            let (ro, co) = (i * b, j * b);
            let _ = writeln!(s, "  for r := 1 to {b} do for c := 1 to {b} do");
            let _ = writeln!(
                s,
                "    {lu}[(r + {ro} - 1) * {n} + c + {co}] := q_{i}_{j}[(r - 1) * {b} + c]"
            );
            let _ = writeln!(s, "  end end");
        }
    }
    let _ = writeln!(s, "end");
    programs.push(parse_program(&s).expect("gather parses"));

    let programs_added = programs.len();
    for p in programs {
        lib.add(p);
    }
    let weight = |name: &str| -> f64 { lib.estimate_weight(name).unwrap_or(1.0).max(1.0) };

    // Build the inner design.
    let mut inner = HierGraph::new(format!("{task}_tiled"));
    let vol = (b * b) as f64;
    let mut scatter: BTreeMap<(usize, usize), HierNodeId> = BTreeMap::new();
    let mut kernel: BTreeMap<(usize, usize), HierNodeId> = BTreeMap::new();
    let mut chain_end: BTreeMap<(usize, usize), HierNodeId> = BTreeMap::new();
    for i in 0..tiles {
        for j in 0..tiles {
            let sc = inner.add_task_with_program(
                format!("sc_{i}_{j}"),
                weight(&format!("{prefix}_sc_{i}_{j}")),
                format!("{prefix}_sc_{i}_{j}"),
            );
            scatter.insert((i, j), sc);
            chain_end.insert((i, j), sc);
        }
    }
    // Kernel + gemm chain per tile, in block-step order so every arc's
    // producer node already exists.
    for i in 0..tiles {
        for j in 0..tiles {
            let steps = i.min(j);
            let mut prev = chain_end[&(i, j)];
            for t in 0..steps {
                let g = format!("{prefix}_gemm_{}", parity_suffix(t));
                let mm = inner.add_task_with_program(format!("mm_{i}_{j}_{t}"), weight(&g), g);
                inner.add_arc(prev, mm, zvar(t), vol)?;
                prev = mm;
            }
            let kname = format!("{prefix}_{}_{}", kernel_kind(i, j), parity_suffix(steps));
            let k = inner.add_task_with_program(format!("k_{i}_{j}"), weight(&kname), kname);
            inner.add_arc(prev, k, zvar(steps), vol)?;
            kernel.insert((i, j), k);
        }
    }
    // Cross-tile dependencies: factor panels feed the updates.
    for i in 0..tiles {
        for j in 0..tiles {
            let steps = i.min(j);
            for t in 0..steps {
                let mm_name = format!("mm_{i}_{j}_{t}");
                let mm = find_inner(&inner, &mm_name);
                inner.add_arc(kernel[&(i, t)], mm, "l", vol)?;
                inner.add_arc(kernel[&(t, j)], mm, "u", vol)?;
            }
            if i != j {
                let diag = if i > j { (j, j) } else { (i, i) };
                inner.add_arc(kernel[&diag], kernel[&(i, j)], "f", vol)?;
            }
        }
    }
    // Relabel + gather.
    let gather = inner.add_task_with_program(
        "gather",
        weight(&format!("{prefix}_gather")),
        format!("{prefix}_gather"),
    );
    for i in 0..tiles {
        for j in 0..tiles {
            let rl = inner.add_task_with_program(
                format!("rl_{i}_{j}"),
                weight(&format!("{prefix}_rl_{i}_{j}")),
                format!("{prefix}_rl_{i}_{j}"),
            );
            inner.add_arc(kernel[&(i, j)], rl, kernel_output(i, j), vol)?;
            inner.add_arc(rl, gather, format!("q_{i}_{j}"), vol)?;
        }
    }

    let tasks_added = inner.leaf_task_count();
    let mut inputs = BTreeMap::new();
    inputs.insert(a, scatter.values().copied().collect::<Vec<_>>());
    let mut outputs = BTreeMap::new();
    outputs.insert(lu, vec![gather]);
    design.replace_task_with_compound(node_id, inner, inputs, outputs)?;

    Ok(ExpandStats {
        tiles,
        block: b,
        tasks_added,
        programs_added,
    })
}

/// The variable a tile's terminal kernel produces.
fn kernel_output(i: usize, j: usize) -> &'static str {
    use std::cmp::Ordering::*;
    match i.cmp(&j) {
        Equal => "f",
        Less => "u",
        Greater => "l",
    }
}

fn kernel_kind(i: usize, j: usize) -> &'static str {
    use std::cmp::Ordering::*;
    match i.cmp(&j) {
        Equal => "getrf",
        Less => "trsmr",
        Greater => "trsmc",
    }
}

fn find_inner(inner: &HierGraph, name: &str) -> HierNodeId {
    inner
        .nodes()
        .find(|(_, n)| n.name == name)
        .map(|(id, _)| id)
        .expect("inner node exists by construction")
}

fn find_template_task(design: &HierGraph, task: &str) -> Result<(HierNodeId, String), OptError> {
    for (id, node) in design.nodes() {
        if node.name == task {
            return match &node.kind {
                NodeKind::Task {
                    program: Some(p), ..
                } => Ok((id, p.clone())),
                _ => Err(OptError::NotATemplate(task.to_string())),
            };
        }
    }
    Err(OptError::UnknownTask(task.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_calc::Value;
    use banger_exec::{execute, ExecOptions};
    use std::collections::BTreeMap as Map;

    /// A design with one dense-LU template node: A -> lu -> LU.
    fn template_design(n: usize) -> (HierGraph, ProgramLibrary) {
        let mut lib = ProgramLibrary::new();
        lib.add(dense_lu_program("DenseLU", "A", "LU", n));
        let mut g = HierGraph::new("lu");
        let a = g.add_storage("A", (n * n) as f64);
        let t = g.add_task_with_program("lu", (n * n * n) as f64, "DenseLU");
        let out = g.add_storage("LU", (n * n) as f64);
        g.add_flow(a, t).unwrap();
        g.add_flow(t, out).unwrap();
        (g, lib)
    }

    fn run(design: &HierGraph, lib: &ProgramLibrary, a: &[f64]) -> Vec<f64> {
        let flat = design.flatten().unwrap();
        let mut ext = Map::new();
        ext.insert("A".to_string(), Value::array(a.to_vec()));
        let report = execute(&flat, lib, &ext, &ExecOptions::default()).unwrap();
        report.outputs["LU"].as_array("LU").unwrap().to_vec()
    }

    #[test]
    fn template_is_recognised_and_nontemplates_are_not() {
        let (_, lib) = template_design(8);
        assert!(recognize(lib.get("DenseLU").unwrap()).is_some());
        let other = parse_program("task T in a out b begin b := a end").unwrap();
        assert!(recognize(&other).is_none());
    }

    #[test]
    fn tiled_expansion_is_bit_identical_to_dense() {
        let n = 8;
        let (design, lib) = template_design(n);
        // Deterministic well-conditioned matrix.
        let a: Vec<f64> = (0..n * n)
            .map(|k| {
                let (i, j) = (k / n, k % n);
                if i == j {
                    (n + 2) as f64
                } else {
                    1.0 + ((i * 3 + j * 7) % 5) as f64 * 0.25
                }
            })
            .collect();
        let dense = run(&design, &lib, &a);

        let (mut tiled, mut tiled_lib) = template_design(n);
        let stats = expand_dense_lu(&mut tiled, "lu", &mut tiled_lib, 2).unwrap();
        assert_eq!(stats.block, 4);
        let got = run(&tiled, &tiled_lib, &a);
        assert_eq!(dense.len(), got.len());
        for (k, (d, g)) in dense.iter().zip(&got).enumerate() {
            assert!(
                d.to_bits() == g.to_bits(),
                "element {k}: dense {d:?} vs tiled {g:?}"
            );
        }
    }

    #[test]
    fn expansion_task_count_scales_with_tiles() {
        let n = 16;
        let (mut design, mut lib) = template_design(n);
        let stats = expand_dense_lu(&mut design, "lu", &mut lib, 4).unwrap();
        // T^2 scatters + sum(min(i,j)) gemms + T^2 kernels + T^2
        // relabels + 1 gather.
        let t = 4usize;
        let gemms: usize = (0..t).flat_map(|i| (0..t).map(move |j| i.min(j))).sum();
        assert_eq!(stats.tasks_added, 3 * t * t + gemms + 1);
        assert_eq!(design.leaf_task_count(), stats.tasks_added);
        assert!(design.flatten().is_ok());
    }

    #[test]
    fn bad_tilings_are_rejected() {
        let (mut design, mut lib) = template_design(8);
        for tiles in [0, 1, 3, 8] {
            let err = expand_dense_lu(&mut design, "lu", &mut lib, tiles);
            assert!(
                matches!(err, Err(OptError::BadTiling { .. })),
                "tiles={tiles}: {err:?}"
            );
        }
        assert!(matches!(
            expand_dense_lu(&mut design, "nosuch", &mut lib, 2),
            Err(OptError::UnknownTask(_))
        ));
    }
}

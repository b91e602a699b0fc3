//! Pins the hierarchy walk byte for byte: what `HierGraph::flatten`
//! returns (every task with weight and program, every edge with label
//! and volume in order, both external port lists in order — or the
//! strict error text) and what `banger_analyze::diagnose` reports on a
//! fixed corpus must equal `tests/golden/flatten.txt`, which was dumped
//! while the scheduler graph and the analyzer each had their own
//! flattener. Both now read one walk in `taskgraph::hierarchy`; any
//! change to its node order, arc routing, alias merging or problem
//! order shows up here as a byte difference.
//!
//! The corpus: the bundled projects, the hierarchical LU at n = 2..=8,
//! the dense LU expanded to 8×8 tiles, fixed seeds of the `prop_lint` and
//! `prop_hierarchy` generators, and hand-built broken designs.

#[path = "support/designs.rs"]
mod designs;
#[path = "support/golden.rs"]
mod golden;

use banger::lu::lu_program_library;
use banger::parse_project;
use banger_analyze::{diagnose, render_json};
use banger_calc::ProgramLibrary;
use banger_taskgraph::{generators, HierGraph, HierNodeId};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const GOLDEN: &str = "flatten.txt";

fn dump(out: &mut String, label: &str, design: &HierGraph, library: &ProgramLibrary) {
    let _ = writeln!(out, "== {label}");
    match design.flatten() {
        Err(e) => {
            let _ = writeln!(out, "error {e}");
        }
        Ok(f) => {
            for (t, task) in f.graph.tasks() {
                let _ = writeln!(
                    out,
                    "task {} {} {:?} {:?}",
                    t.0, task.name, task.weight, task.program
                );
            }
            for (_, e) in f.graph.edges() {
                let _ = writeln!(
                    out,
                    "edge {} -> {} {} {:?}",
                    e.src.0, e.dst.0, e.label, e.volume
                );
            }
            for (kind, ports) in [("input", &f.inputs), ("output", &f.outputs)] {
                for p in ports {
                    let tasks: Vec<u32> = p.tasks.iter().map(|t| t.0).collect();
                    let _ = writeln!(out, "{kind} {} {tasks:?}", p.var);
                }
            }
        }
    }
    let _ = writeln!(
        out,
        "diagnostics {}",
        render_json(&diagnose(design, library))
    );
}

/// `gen -> C -> use` with `C` holding one task `w`; the caller decides
/// which bindings exist.
fn around_compound(bind: impl FnOnce(&mut HierGraph, HierNodeId, HierNodeId)) -> HierGraph {
    let mut inner = HierGraph::new("inner");
    let w = inner.add_task("w", 2.0);
    let mut g = HierGraph::new("outer");
    let gen = g.add_task("gen", 1.0);
    let c = g.add_compound("C", inner);
    let use_ = g.add_task("use", 1.0);
    g.add_arc(gen, c, "v", 4.0).unwrap();
    g.add_arc(c, use_, "r", 4.0).unwrap();
    bind(&mut g, c, w);
    g
}

/// `top: gen -> M`, `M: L`, `L: w`, with `M` bound to `L` for `x`; `L`
/// binds `x` to `w` only when `leaf_bound`.
fn nested(leaf_bound: bool) -> HierGraph {
    let mut leaf = HierGraph::new("leaf");
    let w = leaf.add_task("w", 1.0);
    let mut mid = HierGraph::new("mid");
    let l = mid.add_compound("L", leaf);
    if leaf_bound {
        mid.bind_input(l, "x", w).unwrap();
    }
    let mut top = HierGraph::new("top");
    let gen = top.add_task("gen", 1.0);
    let m = top.add_compound("M", mid);
    top.bind_input(m, "x", l).unwrap();
    top.add_arc(gen, m, "x", 2.0).unwrap();
    top
}

fn broken_designs() -> Vec<(&'static str, HierGraph)> {
    let mut all = vec![
        (
            "unbound input",
            around_compound(|g, c, w| g.bind_output(c, "r", w).unwrap()),
        ),
        (
            "unbound output",
            around_compound(|g, c, w| g.bind_input(c, "v", w).unwrap()),
        ),
        ("nested compound bound", nested(true)),
        ("nested compound lacking the label", nested(false)),
        (
            "binding to a missing inner node",
            around_compound(|g, c, w| {
                g.bind_input(c, "v", HierNodeId(7)).unwrap();
                g.bind_output(c, "r", w).unwrap();
            }),
        ),
        // Every defect of the walk at once: the order of the problems is
        // part of the contract (strict flatten reports the first).
        ("several binding problems", {
            let mut g = nested(false);
            let extra = g.add_compound(
                "X",
                around_compound(|g, c, _| {
                    g.bind_input(c, "v", HierNodeId(9)).unwrap();
                }),
            );
            let gen = HierNodeId(0);
            g.add_arc(gen, extra, "q", 1.0).unwrap();
            g.add_arc(extra, gen, "p", 1.0).unwrap();
            g
        }),
    ];

    // Outer storage `S` bound to inner storage `s`: one class, two names;
    // a second alias pair the other way round (inner read from outside).
    let mut inner = HierGraph::new("inner");
    let is = inner.add_storage("s", 2.0);
    let iin = inner.add_storage("feed", 3.0);
    let w = inner.add_task("w", 1.0);
    inner.add_flow(iin, w).unwrap();
    inner.add_flow(w, is).unwrap();
    let mut g = HierGraph::new("alias");
    let feed = g.add_storage("F", 5.0);
    let c = g.add_compound("C", inner);
    g.bind_input(c, "F", iin).unwrap();
    g.bind_output(c, "S", is).unwrap();
    let s = g.add_storage("S", 2.0);
    let r = g.add_task("r", 1.0);
    let p = g.add_task("p", 1.0);
    g.add_flow(p, feed).unwrap();
    g.add_arc(feed, c, "F", 0.0).unwrap();
    g.add_arc(c, s, "S", 0.0).unwrap();
    g.add_flow(s, r).unwrap();
    all.push(("storage aliased across a boundary", g));

    let mut g = HierGraph::new("rw");
    let t = g.add_task("t", 1.0);
    let s = g.add_storage("s", 4.0);
    let u = g.add_task("u", 1.0);
    g.add_flow(t, s).unwrap();
    g.add_flow(s, t).unwrap();
    g.add_flow(s, u).unwrap();
    all.push(("a task reading and writing one storage", g));

    let mut g = HierGraph::new("ghost");
    let a = g.add_task("a", 1.0);
    let b = g.add_task("b", 1.0);
    g.add_arc(a, b, "x", 1.0).unwrap();
    g.add_storage("ghost", 1.0);
    all.push(("isolated storage", g));

    let mut g = HierGraph::new("cyc");
    let a = g.add_task("first", 1.0);
    let b = g.add_task("second", 1.0);
    let s = g.add_storage("loop", 1.0);
    g.add_arc(a, b, "x", 1.0).unwrap();
    g.add_flow(b, s).unwrap();
    g.add_flow(s, a).unwrap();
    all.push(("a cycle", g));

    let mut g = HierGraph::new("neg");
    let a = g.add_task("zero", 0.0);
    let b = g.add_task("neg", -1.0);
    let s = g.add_storage("minus", -3.0);
    g.add_arc(a, b, "x", 1.0).unwrap();
    g.add_flow(b, s).unwrap();
    all.push(("a negative weight", g));
    all
}

fn corpus_dump() -> String {
    let mut out = String::new();

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/projects");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/projects exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "bang"))
        .collect();
    files.sort();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("readable project");
        let mut project = parse_project(&text).expect("bundled project parses");
        let label = file.file_name().unwrap().to_string_lossy().into_owned();
        dump(&mut out, &label, project.design(), project.library());
        if label == "dense_lu.bang" {
            project
                .expand_task("fact", 8)
                .expect("the template expands");
            dump(
                &mut out,
                "dense_lu.bang/8",
                project.design(),
                project.library(),
            );
        }
    }

    for n in 2..=8 {
        let design = generators::lu_hierarchical(n);
        dump(
            &mut out,
            &format!("lu {n}"),
            &design,
            &lu_program_library(n),
        );
    }

    let none = ProgramLibrary::new();
    for seed in 0..40u64 {
        let n = 2 + (seed as usize * 7) % 10;
        let label = format!("random {seed} {n}");
        dump(&mut out, &label, &designs::random_design(seed, n), &none);
        let label = format!("varied {seed} {n}");
        dump(&mut out, &label, &designs::varied_design(seed, n), &none);
    }
    for (groups, chain_len) in [(1, 1), (2, 3), (5, 4)] {
        let label = format!("grouped {groups} {chain_len}");
        let design = designs::grouped_design(groups, chain_len, 1.5);
        dump(&mut out, &label, &design, &none);
    }
    for (label, design) in broken_designs() {
        dump(&mut out, label, &design, &none);
    }
    out
}

#[test]
fn flatten_and_diagnose_of_the_fixed_corpus_are_byte_identical_to_the_golden_dump() {
    golden::assert_matches(GOLDEN, &corpus_dump());
}

#[test]
#[ignore = "rewrites the checked-in golden file"]
fn regenerate_golden() {
    golden::regenerate(GOLDEN, &corpus_dump());
}

//! Pins everything that depends on how an arc's label becomes a
//! program's variable — the rule `banger_taskgraph::binding` owns: the
//! generated Rust and C, the optimizer's rewritten document, and the
//! executor's outputs, prints and per-task operation counts on the
//! greedy pool and pinned to an MH schedule. One FNV-1a hash per design
//! and product in `tests/golden/bindings.txt`, dumped while the router,
//! both code generators, `dce` and `fuse` each still resolved arcs on
//! their own.
//!
//! The corpus: the four clean bundled projects with the inputs
//! `tests/cli.rs` gives them, the dense LU expanded to 8×8 tiles, the
//! hierarchical LU at n = 3..=5, and 64 seeds of `prop_fuse`'s flat
//! generator (dead labels, shadowed duplicates, unused declarations).

#[path = "support/flat_gen.rs"]
mod flat_gen;
#[path = "support/golden.rs"]
mod golden;

use banger::figures::{figure3_params, lu_project};
use banger::lu::{lu_inputs, test_system};
use banger::serve::content_hash;
use banger::{parse_project, print_project, Project};
use banger_calc::{ProgramLibrary, Value};
use banger_exec::{execute, ExecMode, ExecOptions, ExecReport};
use banger_machine::{Machine, MachineParams, Topology};
use banger_sched::Schedule;
use banger_taskgraph::hierarchy::Flattened;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

const GOLDEN: &str = "bindings.txt";
const FLAT_SEEDS: u64 = 64;

type Inputs = BTreeMap<String, Value>;

fn line(out: &mut String, label: &str, product: &str, text: &str) {
    let hash = content_hash(text.as_bytes());
    let _ = writeln!(out, "{label} {product} {hash:016x}");
}

/// What a run lets an observer see, free of timing and of the order in
/// which parallel workers happened to finish: the output ports, the print
/// lines as a sorted multiset, the operation count of every task.
fn outcome(report: &ExecReport, tasks: usize) -> String {
    let mut prints: Vec<&str> = report.prints.iter().map(|(_, l)| l.as_str()).collect();
    prints.sort_unstable();
    format!(
        "{:?}\n{prints:?}\n{:?}",
        report.outputs,
        report.measured_weights(tasks)
    )
}

fn dump_project(out: &mut String, label: &str, mut p: Project, inputs: &Inputs) {
    let tasks = p.flatten().expect("design flattens").graph.task_count();
    let schedule = p.schedule("MH").expect("MH schedules the design");
    let rust = p.generate_rust(&schedule, inputs).expect("rust generates");
    line(out, label, "rust", &rust);
    let c = p.generate_c(&schedule, inputs).expect("c generates");
    line(out, label, "c", &c);
    let greedy = p.run(inputs).expect("greedy run");
    line(out, label, "greedy", &outcome(&greedy, tasks));
    let pinned = p.run_scheduled(&schedule, inputs).expect("pinned run");
    line(out, label, "pinned", &outcome(&pinned, tasks));
    p.optimize(true).expect("design optimizes");
    line(out, label, "optimized", &print_project(&p));
}

fn dump_flat(
    out: &mut String,
    label: &str,
    flat: &Flattened,
    lib: &ProgramLibrary,
    inputs: &Inputs,
) {
    let machine = Machine::new(Topology::hypercube(2), MachineParams::default());
    let schedule: Schedule =
        banger_sched::run_heuristic("MH", &flat.graph, &machine).expect("MH is a heuristic");
    let tasks = flat.graph.task_count();
    let rust = banger_codegen::generate_rust(flat, lib, &schedule, inputs).expect("rust generates");
    line(out, label, "rust", &rust);
    let c = banger_codegen::generate_c(flat, lib, &schedule, inputs).expect("c generates");
    line(out, label, "c", &c);
    let greedy = execute(flat, lib, inputs, &ExecOptions::default()).expect("greedy run");
    line(out, label, "greedy", &outcome(&greedy, tasks));
    let pinned = ExecOptions {
        mode: ExecMode::pinned(schedule),
        ..ExecOptions::default()
    };
    let pinned = execute(flat, lib, inputs, &pinned).expect("pinned run");
    line(out, label, "pinned", &outcome(&pinned, tasks));

    let (dced, dlib, _) = banger_opt::eliminate_dead(flat, lib).expect("dce");
    let (fused, flib, _) = banger_opt::fuse(&dced, &dlib).expect("fuse");
    let design = banger_opt::flat_to_design(label, &fused, &BTreeMap::new()).expect("rebuilds");
    let mut optimized = Project::new(label, design);
    *optimized.library_mut() = flib;
    line(out, label, "optimized", &print_project(&optimized));
}

fn bundled(name: &str) -> Project {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("examples/projects/{name}.bang"));
    let text = std::fs::read_to_string(path).expect("readable project");
    parse_project(&text).expect("bundled project parses")
}

fn corpus_dump() -> String {
    let mut out = String::new();

    // The inputs `tests/cli.rs::serve_daemon_round_trip` runs them with.
    let array = |var: &str, values: Vec<f64>| (var.to_string(), Value::array(values));
    let num = |var: &str, value: f64| (var.to_string(), Value::Num(value));
    let identity = (0..36).map(|k| f64::from(u8::from(k / 6 == k % 6)));
    let dense = (0..64 * 64).map(|k| {
        if k / 64 == k % 64 {
            66.0
        } else {
            1.0 + f64::from(k % 5) / 4.0
        }
    });
    let projects: [(&str, Inputs); 4] = [
        ("heat_probe", [num("left", 100.0), num("right", 0.0)].into()),
        (
            "lu3",
            [
                array("A", vec![5.0, 1.5, 2.0, 1.75, 5.0, 1.5, 1.25, 1.75, 5.0]),
                array("b", vec![1.0, 2.0, 3.0]),
            ]
            .into(),
        ),
        (
            "matmul",
            [
                array("A", identity.collect()),
                array("B", (1..=36).map(f64::from).collect()),
            ]
            .into(),
        ),
        ("dense_lu", [array("a", dense.collect())].into()),
    ];
    for (name, inputs) in &projects {
        dump_project(&mut out, name, bundled(name), inputs);
        if *name == "dense_lu" {
            let mut tiled = bundled(name);
            tiled.expand_task("fact", 8).expect("the template expands");
            dump_project(&mut out, "dense_lu/8", tiled, inputs);
        }
    }

    for n in 3..=5 {
        let machine = Machine::new(Topology::hypercube(2), figure3_params());
        let (a, b) = test_system(n);
        dump_project(
            &mut out,
            &format!("lu{n}"),
            lu_project(n, machine),
            &lu_inputs(&a, &b),
        );
    }

    for seed in 0..FLAT_SEEDS {
        let (flat, lib, inputs) = flat_gen::random_flat(seed);
        dump_flat(&mut out, &format!("flat{seed}"), &flat, &lib, &inputs);
    }
    out
}

#[test]
fn every_product_of_the_binding_rule_is_byte_identical_to_the_golden_hashes() {
    golden::assert_matches(GOLDEN, &corpus_dump());
}

#[test]
#[ignore = "rewrites the checked-in golden hashes"]
fn regenerate_golden() {
    golden::regenerate(GOLDEN, &corpus_dump());
}

//! Pins `banger_calc::absint` bit for bit: the `Analysis` (cost
//! lo/hi/est/exact and every finding, in order) of a fixed corpus must
//! equal `tests/golden/absint_analysis.txt`, which was dumped from the
//! string-keyed analyzer before it was rebuilt on dense slots. Any
//! change to the walk order, the `steps`/budget accounting or a
//! snapshot/restore path shows up here as a byte difference.
//!
//! The corpus: every program of the bundled projects, the dense LU
//! kernel at n = 60 (the budget-exhausting path) and n = 128, every
//! program of their tiled expansions, every storage-seeded analysis
//! `body_safety` makes on those designs, and 512 fixed-seed programs of
//! the `prop_absint` generator, each also under a budget small enough to
//! abandon its unrolls.

#[path = "support/absint_gen.rs"]
mod absint_gen;
#[path = "support/golden.rs"]
mod golden;

use banger::{parse_project, Project};
use banger_analyze::absint::seeded_analyses;
use banger_calc::absint::{analyze_with, Analysis, AnalysisOptions, FindingKind};
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const GOLDEN: &str = "absint_analysis.txt";

const GENERATED: u64 = 512;
/// Below the statement count of most generated programs: loops are
/// abandoned mid-unroll or never unrolled at all.
const TINY_BUDGET: u64 = 24;

/// Shapes the generator never draws: the finding kinds it cannot raise
/// (`no-variant`, `output-unset`) and every path on which the walker
/// throws a trial away — an unroll that outruns its budget, the `for`
/// whose step stalls past 2^53, a concrete `while` that turns
/// indeterminate or aborts, and fixpoints that need widening or give up.
const HANDWRITTEN: &[&str] = &[
    "task T in a out x begin x := 0 while a > 0 do x := x + 1 end end",
    "task T out x begin x := 0 while 1 do x := x + 1 end end",
    "task T in a out x, y begin if a > 0 then x := 1 end if 0 then y := 1 end end",
    "task T out s local i begin s := 0 for i := 1e16 to 1e16 do s := s + 1 end end",
    "task T out s local i, q begin s := 0 \
     for i := 9007199254740991 to 9007199254740995 do s := s + q end end",
    "task T out s local i, j, q begin s := 0 \
     for i := 1 to 40 do for j := 1 to i * i do s := s + q end end end",
    "task T out s local i, j, w begin s := 0 w := zeros(8) \
     for i := 1 to 30 do for j := i to 30 do s := s + w[j] end w := zeros(i) end end",
    "task T in a out x local g, n begin g := 64 n := 0 \
     while g > 1 do g := g / 2 n := n + 1 if n > 3 then g := a end end x := g + n end",
    "task T out x local g, q begin g := 4 x := 0 \
     while g > 0 do g := g - 1 x := x + q end end",
    "task T in n out s, p local i, k begin s := 0 k := 1 \
     for i := 1 to n do s := s + k k := k * 2 if s > 100 then p := s end end end",
    "task T in n out s local i, j, t begin s := 0 \
     for i := 1 to n do t := i for j := 1 to 1000000 do t := t + j end s := s + t end end",
    "task T in a, v out x local i, t begin x := 0 t := a \
     while t > 0 do t := t - 1 for i := 1 to 3 do x := x + v[i] / (t - t) end end end",
    "task T in v out x local i, lo, hi begin lo := 1 hi := len(v) x := 0 \
     while lo < hi do i := floor((lo + hi) / 2) \
     if v[i] > 0 then hi := i else lo := i + 1 end x := x + 1 end end",
    "task T out x local a, b, c, d, e, f, i begin a := 0 b := 0 c := 0 d := 0 e := 0 f := 0 \
     for i := 1 to 1000000 do f := e e := d d := c c := b b := a a := a + 1 end x := f end",
];

fn dump_analysis(out: &mut String, label: &str, a: &Analysis) {
    let c = a.cost;
    let _ = writeln!(
        out,
        "== {label}\ncost {:?} {:?} {:?} {}",
        c.ops_lo, c.ops_hi, c.est, c.exact
    );
    for f in &a.findings {
        let _ = write!(out, "{} ", f.kind.tag());
        match &f.kind {
            FindingKind::UninitRead { var }
            | FindingKind::DeadAssign { var }
            | FindingKind::OutputUnset { var } => {
                let _ = write!(out, "{var}");
            }
            FindingKind::IndexOut {
                var,
                index,
                len,
                declared,
            } => {
                let _ = write!(
                    out,
                    "{var} index [{:?}, {:?}] len [{:?}, {:?}] declared {declared}",
                    index.lo, index.hi, len.lo, len.hi
                );
            }
            FindingKind::DivByZero => {}
            FindingKind::Domain { func } => {
                let _ = write!(out, "{func}");
            }
            FindingKind::NoVariant { vars } => {
                let _ = write!(out, "{}", vars.join(","));
            }
        }
        match f.pos {
            Some(p) => {
                let _ = write!(out, " @{}:{}", p.line, p.col);
            }
            None => out.push_str(" @-"),
        }
        let _ = writeln!(out, " definite {}", f.definite);
    }
}

/// Every program of the project's library with unknown inputs, then the
/// seeded analyses `body_safety` would run on its design.
fn dump_project(out: &mut String, label: &str, project: &Project) {
    let lib = project.library();
    for (name, prog) in lib.iter() {
        let a = analyze_with(prog, &AnalysisOptions::default());
        dump_analysis(out, &format!("{label} program {name}"), &a);
    }
    for (name, prog, opts) in seeded_analyses(project.expanded(), lib) {
        let seeds: Vec<String> = opts
            .inputs
            .iter()
            .map(|(k, v)| format!("{k}={:?}", v.len.map(|l| l.lo)))
            .collect();
        let a = analyze_with(prog, &opts);
        dump_analysis(
            out,
            &format!("{label} seeded {name} [{}]", seeds.join(" ")),
            &a,
        );
    }
}

/// The dense LU document of `bench_all` (`inputs::dense_lu_doc`), so the
/// positions in the dump are the ones the benchmark's `diagnose` sees.
fn dense_lu_doc(n: usize) -> String {
    let (sq, last) = (n * n, n - 1);
    format!(
        "project dense-lu-{n}

machine hypercube:4
  speed 1
  process-startup 0
  msg-startup 0
  rate 1
end

design
  storage a {sq}
  storage lu {sq}
  task fact {weight} prog DenseLU
  arc a -> fact label a vol {sq}
  arc fact -> lu label lu vol {sq}
end

begin-program
task DenseLU
  in a
  out lu
  local t, r, c
begin
  lu := a
  for t := 1 to {last} do
    for r := t + 1 to {n} do
      lu[(r - 1) * {n} + t] := lu[(r - 1) * {n} + t] / lu[(t - 1) * {n} + t]
      for c := t + 1 to {n} do
        lu[(r - 1) * {n} + c] := lu[(r - 1) * {n} + c] - lu[(r - 1) * {n} + t] * lu[(t - 1) * {n} + c]
      end
    end
  end
end
end-program
",
        weight = n * n * n / 3
    )
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
        let project = parse_project(&text).expect("bundled project parses");
        let label = file.file_name().unwrap().to_string_lossy().into_owned();
        dump_project(&mut out, &label, &project);
    }

    for (n, tiles) in [(60, 10), (128, 8)] {
        let mut project = parse_project(&dense_lu_doc(n)).expect("dense LU document parses");
        dump_project(&mut out, &format!("dense{n}"), &project);
        project
            .expand_task("fact", tiles)
            .expect("the template expands");
        dump_project(&mut out, &format!("dense{n}/{tiles}"), &project);
    }

    for (i, src) in HANDWRITTEN.iter().enumerate() {
        let prog = banger_calc::parse_program(src).expect("handwritten program parses");
        for budget in [
            AnalysisOptions::default().budget,
            2_000,
            300,
            100,
            TINY_BUDGET,
        ] {
            let opts = AnalysisOptions {
                budget,
                ..AnalysisOptions::default()
            };
            let a = analyze_with(&prog, &opts);
            dump_analysis(&mut out, &format!("handwritten {i} budget {budget}"), &a);
        }
    }

    let strategy = absint_gen::arb_program();
    for seed in 0..GENERATED {
        let prog = strategy.generate(&mut TestRng::from_seed(seed));
        for budget in [AnalysisOptions::default().budget, TINY_BUDGET] {
            let opts = AnalysisOptions {
                budget,
                ..AnalysisOptions::default()
            };
            let a = analyze_with(&prog, &opts);
            dump_analysis(&mut out, &format!("generated {seed} budget {budget}"), &a);
        }
    }
    out
}

#[test]
fn analysis_of_the_fixed_corpus_is_byte_identical_to_the_golden_dump() {
    golden::assert_matches(GOLDEN, &corpus_dump());
}

#[test]
#[ignore = "rewrites the checked-in golden file"]
fn regenerate_golden() {
    golden::regenerate(GOLDEN, &corpus_dump());
}

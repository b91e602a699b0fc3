//! Copy-on-write aliasing property suite.
//!
//! `Value::Array` shares its buffer behind an `Arc` and copies only on
//! write (`Arc::make_mut`). These properties pin the contract down:
//!
//! 1. **Aliasing is invisible.** Binding *one* shared array to several
//!    task inputs must be observationally identical to binding
//!    independent deep copies — same outputs, same prints, same `ops`
//!    (the scheduler's measured weight; a CoW copy must not tick), same
//!    errors, and `StepLimit` at exactly the same budget.
//! 2. **Both engines agree under aliasing.** The compiled VM and the
//!    tree-walking reference interpreter stay byte-identical when their
//!    inputs alias.
//! 3. **The caller's buffer survives.** Whatever a task does to its
//!    bindings, the values the caller passed in still hold their
//!    original contents afterwards.
//!
//! Programs are generated to *write* arrays aggressively (index
//! assignment is weighted up versus `tests/prop_vm.rs`) so the
//! `make_mut` unshare path is exercised constantly, and to fail in all
//! the usual ways (type errors, out-of-range indices, step limits) so
//! error identity is covered too. Comparison goes through `Debug`
//! formatting so `NaN` results compare equal.

use banger_calc::ast::{BinOp, Expr, Program, Stmt};
use banger_calc::error::Pos;
use banger_calc::{compile, interp, vm, InterpConfig, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

const SCALARS: [&str; 2] = ["a", "b"];
/// Every array variable is an *input*, so aliasing applies to all of them.
const ARRAYS: [&str; 3] = ["v", "w", "z"];

/// Step budgets to differentiate at; the small ones make `StepLimit`
/// fire mid-write, where a divergence in unshare behaviour would show.
const BUDGETS: [u64; 5] = [5, 19, 101, 997, 50_000];

fn pos() -> Pos {
    Pos { line: 1, col: 1 }
}

fn assign(var: &str, expr: Expr) -> Stmt {
    Stmt::Assign {
        var: var.to_string(),
        expr,
        pos: pos(),
    }
}

/// Expressions over the seeded scalars, the aliased arrays, indexing, a
/// couple of array builtins, and error leaves.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        5 => (0i32..16).prop_map(|v| Expr::Num(v as f64)),
        4 => (0usize..SCALARS.len()).prop_map(|i| Expr::Var(SCALARS[i].to_string())),
        // Arrays as bare values: array-to-array assignment (`w := v`) is
        // where sharing propagates.
        3 => (0usize..ARRAYS.len()).prop_map(|i| Expr::Var(ARRAYS[i].to_string())),
        1 => Just(Expr::Var("q".to_string())), // never assigned: Undefined parity
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            6 => (inner.clone(), inner.clone(), arb_binop()).prop_map(|(l, r, op)| {
                Expr::Bin(op, Box::new(l), Box::new(r))
            }),
            // Indexing with arbitrary (possibly out-of-range) indices.
            4 => ((0usize..ARRAYS.len()), inner.clone()).prop_map(|(i, e)| {
                Expr::Index(ARRAYS[i].to_string(), Box::new(e))
            }),
            2 => (0usize..ARRAYS.len())
                .prop_map(|i| Expr::Call("sum".to_string(), vec![Expr::Var(ARRAYS[i].into())])),
            1 => (0usize..ARRAYS.len())
                .prop_map(|i| Expr::Call("len".to_string(), vec![Expr::Var(ARRAYS[i].into())])),
            1 => inner.prop_map(|e| Expr::Call("abs".to_string(), vec![e])),
        ]
    })
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Lt),
        Just(BinOp::Gt),
    ]
}

/// Statements, with array writes and array-to-array copies weighted up:
/// the whole point is to hit the `make_mut` unshare path often.
fn arb_stmt() -> impl Strategy<Value = Stmt> {
    let index_assign = ((0usize..ARRAYS.len()), arb_expr(), arb_expr()).prop_map(|(i, idx, e)| {
        Stmt::AssignIndex {
            var: ARRAYS[i].to_string(),
            index: idx,
            expr: e,
            pos: pos(),
        }
    });
    let array_copy = ((0usize..ARRAYS.len()), (0usize..ARRAYS.len()))
        .prop_map(|(dst, src)| assign(ARRAYS[dst], Expr::Var(ARRAYS[src].to_string())));
    let scalar_assign =
        ((0usize..SCALARS.len()), arb_expr()).prop_map(|(i, e)| assign(SCALARS[i], e));
    let print = arb_expr().prop_map(|e| Stmt::Print {
        expr: e,
        pos: pos(),
    });
    let ifstmt = (arb_expr(), arb_expr(), arb_expr()).prop_map(|(c, e1, e2)| Stmt::If {
        cond: c,
        then_body: vec![assign("a", e1)],
        else_body: vec![assign("b", e2)],
        pos: pos(),
    });
    let forstmt =
        ((0usize..ARRAYS.len()), (1i32..5), arb_expr()).prop_map(|(arr, n, e)| Stmt::For {
            var: "i".to_string(),
            from: Expr::Num(1.0),
            to: Expr::Num(n as f64),
            body: vec![Stmt::AssignIndex {
                var: ARRAYS[arr].to_string(),
                index: Expr::Var("i".to_string()),
                expr: e,
                pos: pos(),
            }],
            pos: pos(),
        });
    prop_oneof![
        5 => index_assign,
        3 => array_copy,
        3 => scalar_assign,
        2 => forstmt,
        1 => print,
        1 => ifstmt,
    ]
}

/// A program whose inputs are all three array variables plus a scalar;
/// everything is also an output so every mutation is observable.
fn arb_program() -> impl Strategy<Value = Program> {
    prop::collection::vec(arb_stmt(), 1..8).prop_map(|body| {
        let mut full: Vec<Stmt> = vec![assign("b", Expr::Num(2.0))];
        full.extend(body);
        Program {
            name: "Cow".to_string(),
            inputs: std::iter::once("a")
                .chain(ARRAYS.iter().copied())
                .map(str::to_string)
                .collect(),
            outputs: SCALARS
                .iter()
                .chain(ARRAYS.iter())
                .map(|v| v.to_string())
                .collect(),
            locals: vec![],
            body: full,
            decl_pos: Default::default(),
        }
    })
}

/// A deep, structurally independent copy of a value (what the pre-CoW
/// runtime passed around implicitly).
fn deep(v: &Value) -> Value {
    match v {
        Value::Num(n) => Value::Num(*n),
        Value::Array(a) => Value::array(a.as_ref().clone()),
    }
}

/// Inputs where all three arrays alias ONE shared buffer.
fn aliased_inputs(buf: &[f64]) -> (Value, BTreeMap<String, Value>) {
    let shared = Value::array(buf.to_vec());
    let mut m = BTreeMap::new();
    m.insert("a".to_string(), Value::Num(3.0));
    for arr in ARRAYS {
        m.insert(arr.to_string(), shared.clone());
    }
    (shared, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Aliased inputs must be observationally identical to deep copies —
    /// per engine, at every budget, including ops counts and StepLimit.
    #[test]
    fn aliasing_is_invisible(
        p in arb_program(),
        buf in prop::collection::vec(-8.0f64..8.0, 0..6),
    ) {
        let compiled = compile(&p);
        let mut machine = vm::Vm::new();
        let (_, shared) = aliased_inputs(&buf);
        let copied: BTreeMap<String, Value> =
            shared.iter().map(|(k, v)| (k.clone(), deep(v))).collect();
        for max_steps in BUDGETS {
            let cfg = InterpConfig { max_steps, ..Default::default() };
            let vm_shared = machine.run(&compiled, &shared, cfg);
            let vm_copied = machine.run(&compiled, &copied, cfg);
            prop_assert_eq!(
                format!("{vm_shared:?}"),
                format!("{vm_copied:?}"),
                "VM: aliased vs deep-copied diverged at max_steps={} on:\n{}",
                max_steps,
                banger_calc::pretty::print_program(&p)
            );
            let tw_shared = interp::run_with(&p, &shared, cfg);
            let tw_copied = interp::run_with(&p, &copied, cfg);
            prop_assert_eq!(
                format!("{tw_shared:?}"),
                format!("{tw_copied:?}"),
                "tree-walker: aliased vs deep-copied diverged at max_steps={} on:\n{}",
                max_steps,
                banger_calc::pretty::print_program(&p)
            );
        }
    }

    /// The VM and the reference tree-walker stay byte-identical when
    /// their inputs alias (the cross-engine leg of the CoW contract).
    #[test]
    fn engines_agree_under_aliasing(
        p in arb_program(),
        buf in prop::collection::vec(-8.0f64..8.0, 0..6),
    ) {
        let compiled = compile(&p);
        let mut machine = vm::Vm::new();
        let (_, shared) = aliased_inputs(&buf);
        for max_steps in BUDGETS {
            let cfg = InterpConfig { max_steps, ..Default::default() };
            let want = interp::run_with(&p, &shared, cfg);
            let got = machine.run(&compiled, &shared, cfg);
            prop_assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "engines diverged at max_steps={} on:\n{}",
                max_steps,
                banger_calc::pretty::print_program(&p)
            );
        }
    }

    /// Whatever the task body does, the caller's buffer is never
    /// mutated: writes through one binding are invisible through the
    /// original value.
    #[test]
    fn caller_buffer_is_never_mutated(
        p in arb_program(),
        buf in prop::collection::vec(-8.0f64..8.0, 0..6),
    ) {
        let compiled = compile(&p);
        let mut machine = vm::Vm::new();
        let (original, shared) = aliased_inputs(&buf);
        let cfg = InterpConfig::default();
        let _ = machine.run(&compiled, &shared, cfg);
        let _ = interp::run_with(&p, &shared, cfg);
        prop_assert_eq!(
            original.as_array("original").unwrap(),
            &buf[..],
            "a task run mutated its caller's buffer on:\n{}",
            banger_calc::pretty::print_program(&p)
        );
        // And the map bindings themselves still alias the original.
        for arr in ARRAYS {
            prop_assert!(
                shared[arr].shares_buffer(&original),
                "input map binding {} was disturbed", arr
            );
        }
    }
}

/// Deterministic spot-check: a program that writes one of three aliased
/// arrays produces the same ops as with deep copies, and unshared
/// bindings keep sharing right through an engine run (reads never copy).
#[test]
fn read_only_bindings_stay_shared_and_ops_do_not_tick_on_copy() {
    let src = "task T in a, v, w, z out b, rv, rw, rz begin \
               b := sum(w) + z[1] \
               v[1] := a \
               rv := v \
               rw := w \
               rz := z \
               end";
    let p = banger_calc::parser::parse_program(src).unwrap();
    let c = compile(&p);
    let mut machine = vm::Vm::new();
    let (original, shared) = aliased_inputs(&[1.0, 2.0, 3.0]);
    let copied: BTreeMap<String, Value> =
        shared.iter().map(|(k, v)| (k.clone(), deep(v))).collect();
    let cfg = InterpConfig::default();
    let with_alias = machine.run(&c, &shared, cfg).unwrap();
    let with_copies = machine.run(&c, &copied, cfg).unwrap();
    assert_eq!(
        with_alias.ops, with_copies.ops,
        "the CoW copy for v[1] := a must not tick the op counter"
    );
    assert_eq!(with_alias, with_copies);
    // Only `v` was written; `w` and `z` came back still sharing the
    // caller's buffer — the read-only fan-out was zero-copy end to end.
    assert!(with_alias.outputs["rw"].shares_buffer(&original));
    assert!(with_alias.outputs["rz"].shares_buffer(&original));
    assert!(!with_alias.outputs["rv"].shares_buffer(&original));
    assert_eq!(original.as_array("o").unwrap(), &[1.0, 2.0, 3.0]);
    assert_eq!(
        with_alias.outputs["rv"].as_array("rv").unwrap(),
        &[3.0, 2.0, 3.0]
    );
}

/// The copies a run makes, read from the thread's CoW counters:
/// `(buffers copied, elements copied)`.
fn copies_of<T>(run: impl FnOnce() -> T) -> ((u64, u64), T) {
    let (c0, e0) = banger_calc::value::cow::counters();
    let out = run();
    let (c1, e1) = banger_calc::value::cow::counters();
    ((c1 - c0, e1 - e0), out)
}

/// The VM owns an array register from its first element write on and
/// moves it back into an `Arc` when the array is read whole; the copies
/// that makes are the tree-walker's, which writes through `make_mut` on
/// every element. Each case is one program, a run on each engine, and
/// the copies both must count; a case made of two programs feeds the
/// first one's output to the second, on the same `Vm`.
#[test]
fn both_engines_copy_the_same_buffers() {
    let parse = |src: &str| banger_calc::parser::parse_program(src).unwrap();
    let cfg = InterpConfig::default();
    let arr = || Value::array(vec![1.0, 2.0, 3.0]);
    type Case<'a> = (&'a str, &'a [&'a str], BTreeMap<String, Value>, (u64, u64));
    let cases: [Case; 5] = [
        // An aliased input written: the caller and the other binding
        // still hold the buffer.
        (
            "aliased input",
            &["task T in v, w out x begin v[1] := 9 x := v[1] + w[1] end"],
            {
                let shared = arr();
                [("v".to_string(), shared.clone()), ("w".to_string(), shared)]
                    .into_iter()
                    .collect()
            },
            (1, 3),
        ),
        // Written twice: only the first write copies.
        (
            "written twice",
            &["task T in a out x begin a[1] := 1 a[2] := 2 x := a[1] end"],
            [("a".to_string(), arr())].into_iter().collect(),
            (1, 3),
        ),
        // Written after `b := a`: `a` and `b` share, then each write of a
        // shared buffer copies it.
        (
            "written after b := a",
            &["task T in n out x local a, b begin \
               a := zeros(n) a[1] := 1 b := a b[2] := 2 a[3] := 3 x := a[1] + b[2] end"],
            [("n".to_string(), Value::Num(3.0))].into_iter().collect(),
            (1, 3),
        ),
        // Printed between writes: the print's reference is gone by the
        // second write, which copies nothing.
        (
            "written after print",
            &["task T in n out x local a begin \
               a := zeros(n) a[1] := 1 print a a[2] := 2 x := a[2] end"],
            [("n".to_string(), Value::Num(3.0))].into_iter().collect(),
            (0, 0),
        ),
        // Written after being output: the caller holds the first run's
        // output when the second run writes it.
        (
            "written after output",
            &[
                "task P in n out w begin w := zeros(n) w[1] := 1 end",
                "task Q in w out y begin w[2] := 2 y := w[2] end",
            ],
            [("n".to_string(), Value::Num(3.0))].into_iter().collect(),
            (1, 3),
        ),
    ];
    for (what, sources, inputs, want) in cases {
        let progs: Vec<_> = sources.iter().map(|s| parse(s)).collect();
        let compiled: Vec<_> = progs.iter().map(compile).collect();
        let (by_walker, walked) = copies_of(|| {
            let mut ins = inputs.clone();
            let mut out = None;
            for p in &progs {
                let o = interp::run_with(p, &ins, cfg).unwrap();
                ins.extend(o.outputs.clone());
                out = Some(o);
            }
            out
        });
        let mut machine = vm::Vm::new();
        let (by_vm, ran) = copies_of(|| {
            let mut ins = inputs.clone();
            let mut out = None;
            for c in &compiled {
                let o = machine.run(c, &ins, cfg).unwrap();
                ins.extend(o.outputs.clone());
                out = Some(o);
            }
            out
        });
        assert_eq!(ran, walked, "{what}");
        assert_eq!(by_vm, by_walker, "{what}: copies and elements copied");
        assert_eq!(by_vm, want, "{what}");
    }
}

// ---------------------------------------------------------------------------
// Executor differential: work-stealing dispatch vs inline execution.
// ---------------------------------------------------------------------------
//
// The dispatch layer must be invisible to the CoW machinery. A design
// run on the work-stealing pool — at any inline threshold, including
// `0.0` which forces every task through the stealable deques — or fired
// repeatedly through a persistent `Session` produces byte-identical
// outputs, the same per-task measured ops, and the same total CoW
// copy/byte counters as the same design run sequentially on the
// caller's thread. The generated designs push arrays through index
// writes so every run exercises the unshare path.

use banger_calc::ProgramLibrary;
use banger_exec::{execute, ExecMode, ExecOptions, ExecReport, Session, DEFAULT_INLINE_BELOW};
use banger_taskgraph::hierarchy::{Flattened, HierGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "support/pool.rs"]
mod pool;

/// Random layered design with aggressive array traffic (same shape as
/// `tests/prop_trace.rs`): sources fill an array and write one slot,
/// interior tasks read aliased elements of every input.
fn build_design(seed: u64, layers: usize, width: usize) -> (Flattened, ProgramLibrary) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = HierGraph::new("cowdiff");
    let mut lib = ProgramLibrary::new();
    let mut prev: Vec<(banger_taskgraph::HierNodeId, String)> = Vec::new();

    for l in 0..layers {
        let mut cur = Vec::with_capacity(width);
        for w in 0..width {
            let out_var = format!("o{l}_{w}");
            let node = h.add_task_with_program(format!("t{l}_{w}"), 1.0, format!("P{l}_{w}"));
            let mut ins: Vec<String> = Vec::new();
            if l > 0 {
                for (pn, pv) in &prev {
                    if rng.gen_bool(0.5) || (ins.is_empty() && *pn == prev.last().unwrap().0) {
                        h.add_arc(*pn, node, pv.clone(), 1.0).unwrap();
                        ins.push(pv.clone());
                    }
                }
            }
            let stmt = if ins.is_empty() {
                format!("{out_var} := fill(8, {}) {out_var}[1] := 2", l + w + 1)
            } else {
                format!("{out_var} := fill(4, 1 + {}[1])", ins.join("[1] + "))
            };
            lib.add_source(&format!(
                "task P{l}_{w} {} out {out_var} begin {stmt} end",
                if ins.is_empty() {
                    String::new()
                } else {
                    format!("in {}", ins.join(", "))
                },
            ))
            .unwrap();
            cur.push((node, out_var));
        }
        prev = cur;
    }

    let gather = h.add_task_with_program("gather", 1.0, "Gather");
    let sink = h.add_storage("result", 1.0);
    h.add_flow(gather, sink).unwrap();
    let mut ins = Vec::new();
    for (pn, pv) in &prev {
        h.add_arc(*pn, gather, pv.clone(), 1.0).unwrap();
        ins.push(pv.clone());
    }
    lib.add_source(&format!(
        "task Gather in {} out result begin result := {} end",
        ins.join(", "),
        ins.join("[1] + ") + "[1]"
    ))
    .unwrap();

    (h.flatten().unwrap(), lib)
}

/// Traced execution so the report carries the CoW copy/byte counters.
fn run_exec(
    design: &Flattened,
    lib: &ProgramLibrary,
    workers: usize,
    inline_below: f64,
) -> ExecReport {
    execute(
        design,
        lib,
        &BTreeMap::new(),
        &ExecOptions {
            mode: ExecMode::Greedy { workers },
            inline_below,
            trace: true,
            ..ExecOptions::default()
        },
    )
    .expect("run succeeds")
}

/// Byte-identical check between a work-stealing report and the inline
/// baseline: outputs, prints, per-task ops, and total CoW counters.
fn assert_matches_baseline(
    label: &str,
    base: &ExecReport,
    other: &ExecReport,
    n: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        format!("{:?}", base.outputs),
        format!("{:?}", other.outputs),
        "{}: outputs diverge",
        label
    );
    prop_assert_eq!(&base.prints, &other.prints, "{}: prints diverge", label);
    prop_assert_eq!(
        base.measured_weights(n),
        other.measured_weights(n),
        "{}: per-task ops diverge",
        label
    );
    let bs = base.trace.as_ref().expect("traced baseline").summary();
    let os = other.trace.as_ref().expect("traced run").summary();
    prop_assert_eq!(os.tasks, bs.tasks, "{}: task counts diverge", label);
    prop_assert_eq!(os.ops, bs.ops, "{}: total ops diverge", label);
    prop_assert_eq!(
        os.cow_copies,
        bs.cow_copies,
        "{}: CoW copy counts diverge",
        label
    );
    prop_assert_eq!(os.cow_bytes, bs.cow_bytes, "{}: CoW bytes diverge", label);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn work_stealing_dispatch_is_byte_identical_to_inline(
        seed in 0u64..300,
        layers in 2usize..4,
        width in 1usize..4,
        workers in 2usize..5,
    ) {
        let _turn = pool::turn();
        let (design, lib) = build_design(seed, layers, width);
        let n = design.graph.task_count();
        let base = run_exec(&design, &lib, 1, DEFAULT_INLINE_BELOW);
        for inline_below in [DEFAULT_INLINE_BELOW, 0.0] {
            let ws = run_exec(&design, &lib, workers, inline_below);
            assert_matches_baseline(
                &format!("workers={workers} inline_below={inline_below}"),
                &base,
                &ws,
                n,
            )?;
        }
    }

    #[test]
    fn session_firings_are_byte_identical_to_inline(
        seed in 0u64..300,
        layers in 2usize..4,
        width in 1usize..4,
        workers in 2usize..5,
    ) {
        let _turn = pool::turn();
        // Reused deques, Vm frames and slab store across firings
        // must not change what the CoW layer observes.
        let (design, lib) = build_design(seed, layers, width);
        let n = design.graph.task_count();
        let base = run_exec(&design, &lib, 1, DEFAULT_INLINE_BELOW);
        for inline_below in [DEFAULT_INLINE_BELOW, 0.0] {
            let mut session = Session::new(
                &design,
                &lib,
                &ExecOptions {
                    mode: ExecMode::Greedy { workers },
                    inline_below,
                    trace: true,
                    ..ExecOptions::default()
                },
            )
            .unwrap();
            for firing in 0..3 {
                let report = session.run(&BTreeMap::new()).unwrap();
                assert_matches_baseline(
                    &format!("firing {firing} workers={workers} inline_below={inline_below}"),
                    &base,
                    &report,
                    n,
                )?;
            }
        }
    }
}

//! Differential property suite: the compiled register VM and the
//! tree-walking reference interpreter must be observationally identical
//! on generated programs — same `Outcome` (outputs, prints, and the ops
//! count the scheduler consumes as a measured task weight), same errors,
//! and `StepLimit` at exactly the same budget.
//!
//! The generator deliberately produces programs that *fail* — undefined
//! variables, arrays where scalars belong, out-of-range indices, unknown
//! functions, wrong arities — because error identity (variant, payload,
//! and the moment it fires relative to the step budget) is part of the
//! contract. Comparison goes through `Debug` formatting so `NaN`
//! results (e.g. `0 / 0`) compare equal.
//!
//! The compiler proves some fused chains clean (every operand an
//! initialised scalar: a literal, a loop counter, a register an earlier
//! op checked) and the VM then skips their checks. So the loops here
//! read their counters as operands and inside affine indices, nest,
//! reassign their counter to a scalar or an array, and take bounds that
//! may be NaN or infinite; and a program may take `pi` as an input that
//! shadows the preloaded constant with an array.

use banger_calc::ast::{BinOp, Expr, Program, Stmt, UnOp};
use banger_calc::error::Pos;
use banger_calc::{compile, interp, vm, InterpConfig, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

const SCALARS: [&str; 4] = ["a", "b", "c", "d"];
const ARRAYS: [&str; 2] = ["v", "w"];

fn pos() -> Pos {
    Pos { line: 1, col: 1 }
}

/// Step budgets to differentiate at. The tiny ones make `StepLimit`
/// fire mid-expression, mid-loop, and mid-call — any divergence in tick
/// placement between the engines shows up as a budget where one engine
/// errors and the other completes.
const BUDGETS: [u64; 6] = [3, 7, 23, 101, 997, 50_000];

/// Random expressions over seeded scalars, arrays, indexing, builtins,
/// and a sprinkling of guaranteed-error leaves.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        6 => (0i32..100).prop_map(|v| Expr::Num(v as f64)),
        6 => (0usize..SCALARS.len()).prop_map(|i| Expr::Var(SCALARS[i].to_string())),
        // Arrays read as bare variables: legal as values, type errors
        // inside arithmetic — both paths must agree.
        2 => (0usize..ARRAYS.len()).prop_map(|i| Expr::Var(ARRAYS[i].to_string())),
        // A variable nothing ever assigns: Undefined parity.
        1 => Just(Expr::Var("q".to_string())),
        // A constant, or the array input that shadows it.
        1 => Just(Expr::Var("pi".to_string())),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            8 => (inner.clone(), inner.clone(), arb_binop()).prop_map(|(l, r, op)| {
                Expr::Bin(op, Box::new(l), Box::new(r))
            }),
            2 => inner.clone().prop_map(|e| Expr::Un(UnOp::Neg, Box::new(e))),
            2 => inner.clone().prop_map(|e| Expr::Un(UnOp::Not, Box::new(e))),
            // Indexing with arbitrary (possibly out-of-range) indices.
            3 => ((0usize..ARRAYS.len()), inner.clone()).prop_map(|(i, e)| {
                Expr::Index(ARRAYS[i].to_string(), Box::new(e))
            }),
            2 => inner.clone().prop_map(|e| Expr::Call("abs".to_string(), vec![e])),
            2 => (inner.clone(), inner.clone())
                .prop_map(|(x, y)| Expr::Call("max".to_string(), vec![x, y])),
            1 => (0usize..ARRAYS.len())
                .prop_map(|i| Expr::Call("len".to_string(), vec![Expr::Var(ARRAYS[i].into())])),
            1 => (0usize..ARRAYS.len())
                .prop_map(|i| Expr::Call("sum".to_string(), vec![Expr::Var(ARRAYS[i].into())])),
            // Guaranteed compile-time-resolvable failures, only fatal if
            // control flow actually reaches them.
            1 => inner.clone().prop_map(|e| Expr::Call("wat".to_string(), vec![e])),
            1 => (inner.clone(), inner)
                .prop_map(|(x, y)| Expr::Call("sqrt".to_string(), vec![x, y])),
        ]
    })
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Mod),
        Just(BinOp::Pow),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::And),
        Just(BinOp::Or),
    ]
}

fn assign(var: &str, expr: Expr) -> Stmt {
    Stmt::Assign {
        var: var.to_string(),
        expr,
        pos: pos(),
    }
}

/// Statements: scalar and array-element assignment, conditionals,
/// bounded `for` loops, counted-down `while` loops, and prints.
fn arb_stmt() -> impl Strategy<Value = Stmt> {
    let scalar_assign =
        ((0usize..SCALARS.len()), arb_expr()).prop_map(|(i, e)| assign(SCALARS[i], e));
    let index_assign = ((0usize..ARRAYS.len()), arb_expr(), arb_expr()).prop_map(|(i, idx, e)| {
        Stmt::AssignIndex {
            var: ARRAYS[i].to_string(),
            index: idx,
            expr: e,
            pos: pos(),
        }
    });
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
    let forstmt = prop_oneof![
        (arb_expr(), (0i32..6), arb_expr()).prop_map(|(from, n, e)| for_loop(
            "i",
            from,
            Expr::Num(n as f64),
            vec![assign("c", e)]
        )),
        arb_loop(),
    ];
    // `t := n; while t > 0 do t := t - 1; <stmt> end` — always terminates
    // (modulo errors in the body), exercising the while-loop tick path.
    let whilestmt = ((1i32..5), arb_expr()).prop_map(|(n, e)| {
        let dec = assign(
            "t",
            Expr::Bin(
                BinOp::Sub,
                Box::new(Expr::Var("t".into())),
                Box::new(Expr::Num(1.0)),
            ),
        );
        Stmt::While {
            cond: Expr::Bin(
                BinOp::Gt,
                Box::new(Expr::Var("t".into())),
                Box::new(Expr::Num(0.0)),
            ),
            body: vec![dec, assign("d", e)],
            pos: pos(),
        }
        .precede_with(assign("t", Expr::Num(n as f64)))
    });
    prop_oneof![
        5 => scalar_assign,
        3 => index_assign,
        1 => print,
        2 => ifstmt,
        2 => forstmt,
        2 => whilestmt,
    ]
}

fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
    Expr::Bin(op, Box::new(l), Box::new(r))
}

fn num(v: f64) -> Expr {
    Expr::Num(v)
}

fn var(name: &str) -> Expr {
    Expr::Var(name.to_string())
}

fn for_loop(var: &str, from: Expr, to: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::For {
        var: var.to_string(),
        from,
        to,
        body,
        pos: pos(),
    }
}

/// The affine index `(i - 1) * 2 + j` of a loop sweeping a matrix.
fn affine(i: &str, j: &str) -> Expr {
    bin(
        BinOp::Add,
        bin(BinOp::Mul, bin(BinOp::Sub, var(i), num(1.0)), num(2.0)),
        var(j),
    )
}

/// A loop bound: mostly a small count, else any expression, or one of
/// NaN (no iteration), +inf and -inf (a loop only the budget stops).
fn arb_bound() -> impl Strategy<Value = Expr> {
    prop_oneof![
        6 => (-1i32..5).prop_map(|n| num(n as f64)),
        2 => arb_expr(),
        1 => Just(bin(BinOp::Div, num(0.0), num(0.0))),
        1 => Just(bin(BinOp::Div, num(1.0), num(0.0))),
        1 => Just(bin(BinOp::Div, num(-1.0), num(0.0))),
    ]
}

/// An expression that reads the counter `i`: as an operand, or inside
/// the affine index `(i - 1) * 2 + j` of an element read.
fn counter_expr(i: &'static str, j: &'static str) -> impl Strategy<Value = Expr> {
    prop_oneof![
        2 => (arb_binop(), arb_expr()).prop_map(move |(op, e)| bin(op, var(i), e)),
        2 => (arb_binop(), arb_expr()).prop_map(move |(op, e)| bin(op, e, bin(BinOp::Sub, var(i), num(1.0)))),
        3 => (0usize..ARRAYS.len()).prop_map(move |k| Expr::Index(ARRAYS[k].to_string(), Box::new(affine(i, j)))),
        1 => Just(var(i)),
    ]
}

/// A statement of a loop over `i`: a scalar or element write reading
/// `i`, a reassignment of `i` itself, to a scalar or an array, or one
/// that makes the scalar `c` an array.
fn counter_stmt(i: &'static str, j: &'static str) -> impl Strategy<Value = Stmt> {
    prop_oneof![
        3 => counter_expr(i, j).prop_map(|e| assign("c", e)),
        3 => ((0usize..ARRAYS.len()), counter_expr(i, j)).prop_map(move |(k, e)| Stmt::AssignIndex {
            var: ARRAYS[k].to_string(),
            index: affine(i, j),
            expr: e,
            pos: pos(),
        }),
        1 => arb_expr().prop_map(move |e| assign(i, e)),
        1 => (0usize..ARRAYS.len()).prop_map(move |k| assign(i, var(ARRAYS[k]))),
        // A scalar the next iteration reads, turned into an array.
        1 => (0usize..ARRAYS.len()).prop_map(|k| assign("c", var(ARRAYS[k]))),
    ]
}

/// A loop over `i` whose body of 1–3 statements reads `i`, alone or
/// around an inner loop over `j` that reads both counters.
fn arb_loop() -> impl Strategy<Value = Stmt> {
    let body = || prop::collection::vec(counter_stmt("i", "a"), 1..=3);
    let inner = (
        arb_bound(),
        arb_bound(),
        prop::collection::vec(counter_stmt("j", "i"), 1..=3),
    )
        .prop_map(|(from, to, body)| for_loop("j", from, to, body));
    prop_oneof![
        (arb_bound(), arb_bound(), body())
            .prop_map(|(from, to, body)| for_loop("i", from, to, body)),
        (arb_bound(), arb_bound(), body(), inner, any::<bool>()).prop_map(
            |(from, to, mut body, inner, first)| {
                body.insert(if first { 0 } else { body.len() }, inner);
                for_loop("i", from, to, body)
            }
        ),
    ]
}

/// The inputs a generated program declares: only `pi`, as an array.
fn inputs_of(p: &Program) -> BTreeMap<String, Value> {
    p.inputs
        .iter()
        .map(|name| (name.clone(), Value::array(vec![1.5, 2.5])))
        .collect()
}

/// Helper letting the while generator seed its counter first.
trait Precede {
    fn precede_with(self, first: Stmt) -> Stmt;
}

impl Precede for Stmt {
    fn precede_with(self, first: Stmt) -> Stmt {
        // Wrap in an always-true `if` so one Strategy item can carry two
        // statements.
        Stmt::If {
            cond: Expr::Num(1.0),
            then_body: vec![first, self],
            else_body: vec![],
            pos: pos(),
        }
    }
}

fn arb_program() -> impl Strategy<Value = Program> {
    let shadow_pi = prop_oneof![4 => Just(false), 1 => Just(true)];
    (prop::collection::vec(arb_stmt(), 1..10), shadow_pi).prop_map(|(body, shadow_pi)| {
        // Seed scalars and arrays so most reads succeed; `q` stays
        // undefined and the error leaves stay reachable.
        let mut full: Vec<Stmt> = SCALARS
            .iter()
            .enumerate()
            .map(|(i, v)| assign(v, Expr::Num(i as f64 + 1.0)))
            .collect();
        full.push(assign(
            "v",
            Expr::Call("zeros".to_string(), vec![Expr::Num(5.0)]),
        ));
        full.push(assign(
            "w",
            Expr::Call("fill".to_string(), vec![Expr::Num(3.0), Expr::Num(2.5)]),
        ));
        full.extend(body);
        Program {
            name: "Rand".to_string(),
            inputs: if shadow_pi {
                vec!["pi".to_string()]
            } else {
                vec![]
            },
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one property that matters: at every budget, both engines
    /// produce the same `Result<Outcome, RunError>` — ops byte-for-byte
    /// equal on success, identical error variant and payload on failure.
    #[test]
    fn vm_and_tree_walker_are_observationally_identical(p in arb_program()) {
        let compiled = compile(&p);
        let mut machine = vm::Vm::new();
        let inputs = inputs_of(&p);
        for max_steps in BUDGETS {
            let cfg = InterpConfig { max_steps, ..Default::default() };
            let want = interp::run_with(&p, &inputs, cfg);
            let got = machine.run(&compiled, &inputs, cfg);
            // Debug formatting lets NaN outputs compare equal while still
            // covering outputs, prints, ops, and error payloads exactly.
            prop_assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "engines diverged at max_steps={} on:\n{}",
                max_steps,
                banger_calc::pretty::print_program(&p)
            );
        }
    }

    /// Recompiling is deterministic: two compiles of the same program
    /// produce the same bytecode, so cached `Arc<CompiledProgram>`s are
    /// interchangeable with fresh compiles.
    #[test]
    fn compilation_is_deterministic(p in arb_program()) {
        let c1 = compile(&p);
        let c2 = compile(&p);
        prop_assert_eq!(c1.ops, c2.ops);
        prop_assert_eq!(c1.frame_size, c2.frame_size);
        prop_assert_eq!(c1.var_names, c2.var_names);
    }

    /// A reused frame never leaks state between runs: running the same
    /// program twice on one `Vm` gives identical outcomes.
    #[test]
    fn frame_reuse_is_invisible(p in arb_program()) {
        let compiled = compile(&p);
        let mut machine = vm::Vm::new();
        let inputs = inputs_of(&p);
        let cfg = InterpConfig::default();
        let first = machine.run(&compiled, &inputs, cfg);
        let second = machine.run(&compiled, &inputs, cfg);
        prop_assert_eq!(format!("{first:?}"), format!("{second:?}"));
    }
}

/// The LU kernels the benchmark fires, on both engines: the untiled
/// `DenseLU` of `examples/projects/dense_lu.bang` and the four tiled
/// kernels `optimize --expand fact:4` makes of it, at the default budget
/// and at eight consecutive budgets a little way into the sweep — where
/// nearly every tick belongs to a fused chain, so some of them stop the
/// run inside one.
#[test]
fn lu_kernels_agree_on_both_engines() {
    use banger_calc::ProgramLibrary;
    use banger_taskgraph::HierGraph;

    let n = 64;
    let mut lib = ProgramLibrary::new();
    lib.add(banger_opt::dense_lu_program("DenseLU", "a", "lu", n));
    let mut design = HierGraph::new("dense");
    let a = design.add_storage("a", (n * n) as f64);
    let fact = design.add_task_with_program("fact", 1000.0, "DenseLU");
    let lu = design.add_storage("lu", (n * n) as f64);
    design.add_flow(a, fact).unwrap();
    design.add_flow(fact, lu).unwrap();
    let dense = lib.get("DenseLU").unwrap().clone();
    banger_opt::expand_dense_lu(&mut design, "fact", &mut lib, 4).unwrap();

    let mut kernels = vec![(dense, n)];
    for kind in ["getrf", "trsmr", "trsmc", "gemm"] {
        let (_, p) = lib
            .iter()
            .find(|(name, _)| name.contains(&format!("_{kind}_")))
            .unwrap_or_else(|| panic!("the expansion makes a {kind} kernel"));
        kernels.push((p.clone(), n / 4));
    }
    for (p, side) in kernels {
        // Diagonally dominant, so no pivot is zero.
        let m: Vec<f64> = (0..side * side)
            .map(|k| {
                let (i, j) = (k / side, k % side);
                if i == j {
                    2.0 * side as f64 + i as f64
                } else {
                    1.0 / (1.0 + (i as f64 - j as f64).abs())
                }
            })
            .collect();
        let inputs: BTreeMap<String, Value> = p
            .inputs
            .iter()
            .map(|name| (name.clone(), Value::array(m.clone())))
            .collect();
        let compiled = compile(&p);
        let mut machine = vm::Vm::new();
        let full = interp::run_with(&p, &inputs, InterpConfig::default()).unwrap();
        let start = full.ops / 50;
        let budgets = (start..start + 8).chain([InterpConfig::default().max_steps]);
        for max_steps in budgets {
            let cfg = InterpConfig {
                max_steps,
                ..Default::default()
            };
            let want = interp::run_with(&p, &inputs, cfg);
            let got = machine.run(&compiled, &inputs, cfg);
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{} at max_steps={max_steps}",
                p.name
            );
        }
    }
}

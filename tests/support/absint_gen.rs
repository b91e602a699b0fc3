//! The adversarial program generator shared by `prop_absint` (the
//! differential soundness suite) and `golden_absint` (the pinned
//! analysis dump): seeded scalars and arrays, one never-assigned
//! variable (`q`), guaranteed error leaves (`wat(..)`, `sqrt(x, y)`),
//! out-of-range indexing, and loops.

use banger_calc::ast::{BinOp, Expr, Program, Stmt, UnOp};
use banger_calc::error::Pos;
use proptest::prelude::*;

const SCALARS: [&str; 4] = ["a", "b", "c", "d"];
const ARRAYS: [&str; 2] = ["v", "w"];

fn pos() -> Pos {
    Pos { line: 1, col: 1 }
}

/// Random expressions over seeded scalars, arrays, indexing, builtins,
/// and a sprinkling of guaranteed-error leaves (same grammar family as
/// `prop_vm`, plus domain-edge builtins the B042 detector watches).
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        6 => (0i32..100).prop_map(|v| Expr::Num(v as f64)),
        6 => (0usize..SCALARS.len()).prop_map(|i| Expr::Var(SCALARS[i].to_string())),
        2 => (0usize..ARRAYS.len()).prop_map(|i| Expr::Var(ARRAYS[i].to_string())),
        // A variable nothing ever assigns: B040 vs runtime Undefined.
        1 => Just(Expr::Var("q".to_string())),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            8 => (inner.clone(), inner.clone(), arb_binop()).prop_map(|(l, r, op)| {
                Expr::Bin(op, Box::new(l), Box::new(r))
            }),
            2 => inner.clone().prop_map(|e| Expr::Un(UnOp::Neg, Box::new(e))),
            2 => inner.clone().prop_map(|e| Expr::Un(UnOp::Not, Box::new(e))),
            // Indexing with arbitrary (possibly out-of-range) indices:
            // B041 vs runtime IndexOutOfRange.
            3 => ((0usize..ARRAYS.len()), inner.clone()).prop_map(|(i, e)| {
                Expr::Index(ARRAYS[i].to_string(), Box::new(e))
            }),
            2 => inner.clone().prop_map(|e| Expr::Call("abs".to_string(), vec![e])),
            2 => (inner.clone(), inner.clone())
                .prop_map(|(x, y)| Expr::Call("max".to_string(), vec![x, y])),
            // Domain-edge builtins: B042 must stay warning-severity
            // because the interpreter completes with NaN/inf.
            1 => inner.clone().prop_map(|e| Expr::Call("sqrt".to_string(), vec![e])),
            1 => inner.clone().prop_map(|e| Expr::Call("ln".to_string(), vec![e])),
            1 => (0usize..ARRAYS.len())
                .prop_map(|i| Expr::Call("len".to_string(), vec![Expr::Var(ARRAYS[i].into())])),
            1 => (0usize..ARRAYS.len())
                .prop_map(|i| Expr::Call("sum".to_string(), vec![Expr::Var(ARRAYS[i].into())])),
            // Guaranteed failures, fatal only if control flow reaches them.
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
    let forstmt = (arb_expr(), (0i32..6), arb_expr()).prop_map(|(from, n, e)| Stmt::For {
        var: "i".to_string(),
        from,
        to: Expr::Num(n as f64),
        body: vec![assign("c", e)],
        pos: pos(),
    });
    // `t := n; while t > 0 do t := t - 1; <stmt> end` — always terminates
    // (modulo errors in the body).
    let whilestmt = ((1i32..5), arb_expr()).prop_map(|(n, e)| {
        let dec = assign(
            "t",
            Expr::Bin(
                BinOp::Sub,
                Box::new(Expr::Var("t".into())),
                Box::new(Expr::Num(1.0)),
            ),
        );
        let w = Stmt::While {
            cond: Expr::Bin(
                BinOp::Gt,
                Box::new(Expr::Var("t".into())),
                Box::new(Expr::Num(0.0)),
            ),
            body: vec![dec, assign("d", e)],
            pos: pos(),
        };
        // Wrap in an always-true `if` so one Strategy item carries both
        // the counter seed and the loop.
        Stmt::If {
            cond: Expr::Num(1.0),
            then_body: vec![assign("t", Expr::Num(n as f64)), w],
            else_body: vec![],
            pos: pos(),
        }
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

pub fn arb_program() -> impl Strategy<Value = Program> {
    prop::collection::vec(arb_stmt(), 1..10).prop_map(|body| {
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
            inputs: vec![],
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

//! Property tests over the PITS calculator language: printer/parser
//! round-trips on randomly generated ASTs, interpreter numerics, and
//! executor/codegen agreement on random straight-line programs.

use banger_calc::ast::{BinOp, Expr, Program, Stmt, UnOp};
use banger_calc::error::Pos;
use banger_calc::{interp, parser, pretty, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

const VARS: [&str; 4] = ["a", "b", "c", "d"];

/// Random expression trees over variables `a..d` and safe builtins.
fn arb_expr() -> impl Strategy<Value = Expr> {
    // Literals are non-negative: the language has no negative literals
    // (negation is a unary operator), so `Num(-1)` would not round-trip
    // structurally even though it evaluates identically.
    let leaf = prop_oneof![
        (0i32..100).prop_map(|v| Expr::Num(v as f64)),
        (0usize..VARS.len()).prop_map(|i| Expr::Var(VARS[i].to_string())),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), arb_binop()).prop_map(|(l, r, op)| Expr::Bin(
                op,
                Box::new(l),
                Box::new(r)
            )),
            inner.clone().prop_map(|e| Expr::Un(UnOp::Neg, Box::new(e))),
            inner.clone().prop_map(|e| Expr::Un(UnOp::Not, Box::new(e))),
            inner
                .clone()
                .prop_map(|e| Expr::Call("abs".to_string(), vec![e])),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Call("max".to_string(), vec![a, b])),
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

/// Random straight-line statements assigning expressions to variables.
fn arb_stmt() -> impl Strategy<Value = Stmt> {
    let assign = ((0usize..VARS.len()), arb_expr()).prop_map(|(i, e)| Stmt::Assign {
        var: VARS[i].to_string(),
        expr: e,
        pos: Pos { line: 1, col: 1 },
    });
    let print = arb_expr().prop_map(|e| Stmt::Print {
        expr: e,
        pos: Pos { line: 1, col: 1 },
    });
    let ifstmt = (
        arb_expr(),
        (0usize..VARS.len()),
        arb_expr(),
        (0usize..VARS.len()),
        arb_expr(),
    )
        .prop_map(|(c, i1, e1, i2, e2)| Stmt::If {
            cond: c,
            then_body: vec![Stmt::Assign {
                var: VARS[i1].to_string(),
                expr: e1,
                pos: Pos { line: 1, col: 1 },
            }],
            else_body: vec![Stmt::Assign {
                var: VARS[i2].to_string(),
                expr: e2,
                pos: Pos { line: 1, col: 1 },
            }],
            pos: Pos { line: 1, col: 1 },
        });
    prop_oneof![4 => assign, 1 => print, 1 => ifstmt]
}

fn arb_program() -> impl Strategy<Value = Program> {
    prop::collection::vec(arb_stmt(), 1..8).prop_map(|body| {
        // Seed every variable so reads never hit "undefined".
        let mut full: Vec<Stmt> = VARS
            .iter()
            .enumerate()
            .map(|(i, v)| Stmt::Assign {
                var: v.to_string(),
                expr: Expr::Num(i as f64 + 1.0),
                pos: Pos { line: 1, col: 1 },
            })
            .collect();
        full.extend(body);
        Program {
            name: "Rand".to_string(),
            inputs: vec![],
            outputs: VARS.iter().map(|v| v.to_string()).collect(),
            locals: vec![],
            body: full,
            decl_pos: Default::default(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn expr_print_parse_round_trip(e in arb_expr()) {
        let printed = pretty::print_expr(&e);
        let parsed = parser::parse_expr(&printed)
            .unwrap_or_else(|err| panic!("{printed}: {err}"));
        prop_assert_eq!(parsed, e, "printed: {}", printed);
    }

    #[test]
    fn program_print_parse_round_trip(p in arb_program()) {
        let printed = pretty::print_program(&p);
        let parsed = parser::parse_program(&printed)
            .unwrap_or_else(|err| panic!("{printed}: {err}"));
        prop_assert_eq!(parsed, p);
    }

    #[test]
    fn interpreter_is_deterministic(p in arb_program()) {
        let r1 = interp::run(&p, &BTreeMap::new());
        let r2 = interp::run(&p, &BTreeMap::new());
        // Compare via Debug so NaN results (e.g. from 0/0) compare equal.
        prop_assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
    }

    #[test]
    fn printed_program_computes_identically(p in arb_program()) {
        // parse(print(p)) must not just be structurally equal — it must
        // *run* identically.
        let printed = pretty::print_program(&p);
        let reparsed = parser::parse_program(&printed).unwrap();
        let r1 = interp::run(&p, &BTreeMap::new());
        let r2 = interp::run(&reparsed, &BTreeMap::new());
        match (r1, r2) {
            (Ok(a), Ok(b)) => {
                for v in VARS {
                    let (x, y) = (&a.outputs[v], &b.outputs[v]);
                    match (x, y) {
                        (Value::Num(x), Value::Num(y)) => {
                            prop_assert!(
                                (x == y) || (x.is_nan() && y.is_nan()),
                                "{v}: {x} vs {y}"
                            );
                        }
                        _ => prop_assert_eq!(x, y),
                    }
                }
            }
            (a, b) => prop_assert_eq!(a, b),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn newton_raphson_matches_f64_sqrt(a in 1e-6f64..1e12) {
        let prog = parser::parse_program(banger::figures::SQUARE_ROOT_SRC).unwrap();
        let out = interp::run(
            &prog,
            &[("a".to_string(), Value::Num(a))].into_iter().collect(),
        )
        .unwrap();
        let x = out.outputs["x"].as_num("x").unwrap();
        let rel = (x - a.sqrt()).abs() / a.sqrt().max(1e-12);
        prop_assert!(rel < 1e-9, "sqrt({a}): {x} vs {}", a.sqrt());
    }

    #[test]
    fn sum_program_matches_iterator(v in prop::collection::vec(-1e6f64..1e6, 0..64)) {
        let prog = parser::parse_program(
            "task Sum in v out s begin s := sum(v) end",
        )
        .unwrap();
        let out = interp::run(
            &prog,
            &[("v".to_string(), Value::array(v.clone()))].into_iter().collect(),
        )
        .unwrap();
        let s = out.outputs["s"].as_num("s").unwrap();
        let want: f64 = v.iter().sum();
        prop_assert!((s - want).abs() <= 1e-6 * (1.0 + want.abs()));
    }

    #[test]
    fn static_cost_is_finite_and_positive(p in arb_program()) {
        let cost = banger_calc::absint::analyze(&p).cost.est;
        prop_assert!(cost.is_finite());
        prop_assert!(cost > 0.0);
    }
}

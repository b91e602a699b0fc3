//! Data-parallel program transformation — the paper's future-work claim
//! ("Banger can be extended to encompass fine-grained parallelism through
//! the use of machine-independent data-parallel constructs"), realised as
//! an automatic *reduction splitter*.
//!
//! [`parallelize_reduction`] recognises the canonical scientific reduction
//! shape:
//!
//! ```text
//! task T
//!   in <ins...>
//!   out r
//!   local i, ...
//! begin
//!   <prelude statements>            # may not read or write r
//!   r := <init>
//!   for i := <lo> to <hi> do        # bounds may not read r or i
//!     <body statements>             # may not read or write r
//!     r := r + <contribution>       # the contribution may not read r
//!   end
//!   <postlude statements>           # may read r (e.g. r := r * h), not i
//! end
//! ```
//!
//! Each condition is a predicate over [`Facts`] of a sub-slice of the body
//! (or [`Expr::mentions`] of one expression). A chunk owns a partial, not
//! `r`: the left operand of the closing `r := r + e` is the loop's only read
//! of the accumulator.
//!
//! A program of that shape is split into `k` *chunk* programs, each
//! reducing a contiguous sub-range into a partial, plus a *combine* program
//! that sums the partials, applies the postlude, and emits the original
//! output — exactly the structure a non-programmer would have to build by
//! hand (compare the `pi_quadrature` example).

use crate::ast::{BinOp, Expr, Facts, Program, Stmt};
use crate::error::Pos;
use std::collections::BTreeMap;
use std::fmt;

/// Why a program could not be parallelized.
#[derive(Debug, Clone, PartialEq)]
pub enum TransformError {
    /// `k` must be at least 2.
    BadChunkCount(usize),
    /// The program must have exactly one output variable.
    NotSingleOutput,
    /// No `r := init; for ... do ... r := r + e end` shape was found.
    NoReductionLoop,
    /// A prelude/body/postlude statement breaks the required independence
    /// (e.g. assigns the accumulator outside the reduction).
    UnsafeStatement(String),
    /// The loop bounds use the loop variable itself.
    LoopBoundsUseLoopVar,
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::BadChunkCount(k) => write!(f, "need at least 2 chunks, got {k}"),
            TransformError::NotSingleOutput => {
                write!(f, "reduction splitting needs exactly one output variable")
            }
            TransformError::NoReductionLoop => write!(
                f,
                "no `r := init; for i := a to b do r := r + e end` reduction found"
            ),
            TransformError::UnsafeStatement(s) => {
                write!(f, "statement prevents parallelization: {s}")
            }
            TransformError::LoopBoundsUseLoopVar => {
                write!(f, "loop bounds must not use the loop variable")
            }
        }
    }
}

impl std::error::Error for TransformError {}

/// The result of splitting a reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionSplit {
    /// One program per chunk; chunk `c` outputs `part{c}`.
    pub chunks: Vec<Program>,
    /// The combiner: inputs `part0..partK-1`, output = original output.
    pub combine: Program,
    /// The partial-variable names, in chunk order.
    pub partials: Vec<String>,
}

/// Where generated statements say they are.
const POS0: Pos = Pos { line: 1, col: 1 };

/// The recognised shape (see module docs), borrowed from the program.
struct Reduction<'a> {
    /// Index of `r := init` in the body; the loop is the next statement.
    at: usize,
    init: &'a Expr,
    loop_var: &'a str,
    lo: &'a Expr,
    hi: &'a Expr,
    /// The loop body before its closing `r := r + e`.
    before: &'a [Stmt],
    /// The `e` of the closing `r := r + e`, and that statement's position.
    contribution: &'a Expr,
    closing_pos: Pos,
}

/// Locates `r := init` immediately followed by the reduction For: its
/// variable is not `r`, it ends with `r := r + e` and does not otherwise
/// write `r`.
fn find_reduction<'a>(body: &'a [Stmt], r: &str) -> Option<Reduction<'a>> {
    body.windows(2).enumerate().find_map(|(at, pair)| {
        let [Stmt::Assign {
            var, expr: init, ..
        }, Stmt::For {
            var: loop_var,
            from,
            to,
            body,
            ..
        }] = pair
        else {
            return None;
        };
        let [before @ .., Stmt::Assign {
            var: acc,
            expr: Expr::Bin(BinOp::Add, lhs, e),
            pos,
        }] = &body[..]
        else {
            return None;
        };
        let shape = var == r
            && acc == r
            && matches!(&**lhs, Expr::Var(n) if n == r)
            && Facts::of(before).written(r).is_none()
            && loop_var != r;
        shape.then_some(Reduction {
            at,
            init,
            loop_var,
            lo: from,
            hi: to,
            before,
            contribution: e,
            closing_pos: *pos,
        })
    })
}

/// Splits a single-output reduction program into `k` chunks plus a
/// combiner. See module docs for the recognised shape.
///
/// ```
/// use banger_calc::{parser, transform};
/// let prog = parser::parse_program(
///     "task Sum in n out s local i begin \
///        s := 0 for i := 1 to n do s := s + i end \
///      end",
/// ).unwrap();
/// let split = transform::parallelize_reduction(&prog, 4).unwrap();
/// assert_eq!(split.chunks.len(), 4);
/// assert_eq!(split.combine.outputs, vec!["s"]);
/// ```
pub fn parallelize_reduction(prog: &Program, k: usize) -> Result<ReductionSplit, TransformError> {
    if k < 2 {
        return Err(TransformError::BadChunkCount(k));
    }
    if prog.outputs.len() != 1 {
        return Err(TransformError::NotSingleOutput);
    }
    let r = prog.outputs[0].as_str();
    let red = find_reduction(&prog.body, r).ok_or(TransformError::NoReductionLoop)?;
    let (loop_var, lo, hi) = (red.loop_var, red.lo, red.hi);

    if lo.mentions(loop_var) || hi.mentions(loop_var) {
        return Err(TransformError::LoopBoundsUseLoopVar);
    }

    let (prelude, postlude) = (&prog.body[..red.at], &prog.body[red.at + 2..]);

    // Prelude must not touch the accumulator: it runs in every chunk and
    // again in the combiner.
    let pre = Facts::of(prelude);
    if pre.written(r).is_some() || pre.reads.contains_key(r) {
        return Err(TransformError::UnsafeStatement(
            "prelude reads or writes the accumulator".into(),
        ));
    }
    // The chunks do not own the accumulator: the left operand of the
    // closing `r := r + e` is the only read of it the loop may make.
    if Facts::of(red.before).reads.contains_key(r)
        || [red.contribution, lo, hi].iter().any(|e| e.mentions(r))
    {
        return Err(TransformError::UnsafeStatement(
            "the loop reads the accumulator outside its closing `r := r + e`".into(),
        ));
    }
    // Postlude may read/write r but must not re-loop over the range
    // variable (it runs once, in the combiner).
    if Facts::of(postlude).reads.contains_key(loop_var) {
        return Err(TransformError::UnsafeStatement(
            "postlude uses the loop variable".into(),
        ));
    }

    // Range splitting: chunk c covers
    //   a_c = lo + floor(len * c / k),  b_c = lo + floor(len * (c+1) / k) - 1
    // where len = hi - lo + 1. Generated as PITS expressions so dynamic
    // bounds work.
    let bin = |op, l: Expr, rr: Expr| Expr::Bin(op, Box::new(l), Box::new(rr));
    let len_expr = bin(
        BinOp::Add,
        bin(BinOp::Sub, hi.clone(), lo.clone()),
        Expr::Num(1.0),
    );
    let bound = |c: usize| {
        // lo + floor(len * c / k)
        bin(
            BinOp::Add,
            lo.clone(),
            Expr::Call(
                "floor".into(),
                vec![bin(
                    BinOp::Div,
                    bin(BinOp::Mul, len_expr.clone(), Expr::Num(c as f64)),
                    Expr::Num(k as f64),
                )],
            ),
        )
    };

    let mut locals: Vec<String> = prog.locals.clone();
    if !locals.iter().any(|l| l == loop_var) {
        locals.push(loop_var.to_string());
    }
    let mut chunks = Vec::with_capacity(k);
    let mut partials = Vec::with_capacity(k);
    for c in 0..k {
        let part = format!("part{c}");
        let mut body = prelude.to_vec();
        body.push(Stmt::Assign {
            var: part.clone(),
            expr: Expr::Num(0.0),
            pos: POS0,
        });
        // The loop's closing accumulation moves onto the partial.
        let mut loop_stmts = red.before.to_vec();
        loop_stmts.push(Stmt::Assign {
            var: part.clone(),
            expr: bin(
                BinOp::Add,
                Expr::Var(part.clone()),
                red.contribution.clone(),
            ),
            pos: red.closing_pos,
        });
        body.push(Stmt::For {
            var: loop_var.to_string(),
            from: bound(c),
            to: bin(BinOp::Sub, bound(c + 1), Expr::Num(1.0)),
            body: loop_stmts,
            pos: POS0,
        });
        chunks.push(Program {
            name: format!("{}Chunk{c}", prog.name),
            inputs: prog.inputs.clone(),
            outputs: vec![part.clone()],
            locals: locals.clone(),
            body,
            decl_pos: Default::default(),
        });
        partials.push(part);
    }

    // Combiner: r := init + part0 + ... + partK-1, then the postlude.
    let mut sum = red.init.clone();
    for part in &partials {
        sum = bin(BinOp::Add, sum, Expr::Var(part.clone()));
    }
    let mut combine_body = prelude.to_vec();
    combine_body.push(Stmt::Assign {
        var: r.to_string(),
        expr: sum,
        pos: POS0,
    });
    combine_body.extend_from_slice(postlude);
    // The init expression and the postlude may reference inputs: keep
    // those the combiner body reads.
    let uses = Facts::of(&combine_body).reads;
    let kept = prog.inputs.iter().filter(|v| uses.contains_key(v.as_str()));
    let combine_inputs = partials.iter().chain(kept).cloned().collect();
    let combine = Program {
        name: format!("{}Combine", prog.name),
        inputs: combine_inputs,
        outputs: vec![r.to_string()],
        locals: prog.locals.clone(),
        body: combine_body,
        decl_pos: Default::default(),
    };

    Ok(ReductionSplit {
        chunks,
        combine,
        partials,
    })
}

fn rename(name: &str, map: &BTreeMap<String, String>) -> String {
    map.get(name).cloned().unwrap_or_else(|| name.to_string())
}

fn rename_expr(expr: &Expr, map: &BTreeMap<String, String>) -> Expr {
    match expr {
        Expr::Num(v) => Expr::Num(*v),
        Expr::Var(n) => Expr::Var(rename(n, map)),
        Expr::Index(n, i) => Expr::Index(rename(n, map), Box::new(rename_expr(i, map))),
        // Call names live in the builtin namespace, not the variable one.
        Expr::Call(f, args) => Expr::Call(
            f.clone(),
            args.iter().map(|a| rename_expr(a, map)).collect(),
        ),
        Expr::Bin(op, l, r) => Expr::Bin(
            *op,
            Box::new(rename_expr(l, map)),
            Box::new(rename_expr(r, map)),
        ),
        Expr::Un(op, inner) => Expr::Un(*op, Box::new(rename_expr(inner, map))),
    }
}

/// Renames variables in a statement list according to `map`; names not in
/// the map pass through unchanged.
pub fn rename_stmts(stmts: &[Stmt], map: &BTreeMap<String, String>) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Assign { var, expr, pos } => Stmt::Assign {
                var: rename(var, map),
                expr: rename_expr(expr, map),
                pos: *pos,
            },
            Stmt::AssignIndex {
                var,
                index,
                expr,
                pos,
            } => Stmt::AssignIndex {
                var: rename(var, map),
                index: rename_expr(index, map),
                expr: rename_expr(expr, map),
                pos: *pos,
            },
            Stmt::If {
                cond,
                then_body,
                else_body,
                pos,
            } => Stmt::If {
                cond: rename_expr(cond, map),
                then_body: rename_stmts(then_body, map),
                else_body: rename_stmts(else_body, map),
                pos: *pos,
            },
            Stmt::While { cond, body, pos } => Stmt::While {
                cond: rename_expr(cond, map),
                body: rename_stmts(body, map),
                pos: *pos,
            },
            Stmt::For {
                var,
                from,
                to,
                body,
                pos,
            } => Stmt::For {
                var: rename(var, map),
                from: rename_expr(from, map),
                to: rename_expr(to, map),
                body: rename_stmts(body, map),
                pos: *pos,
            },
            Stmt::Print { expr, pos } => Stmt::Print {
                expr: rename_expr(expr, map),
                pos: *pos,
            },
        })
        .collect()
}

/// Applies a variable renaming to an entire program — declarations and
/// body. Names absent from `map` are unchanged. The renaming is pure
/// (statement-for-statement), so the renamed program performs exactly the
/// same operation count on the same inputs (modulo the new names).
pub fn rename_vars(prog: &Program, map: &BTreeMap<String, String>) -> Program {
    Program {
        name: prog.name.clone(),
        inputs: prog.inputs.iter().map(|v| rename(v, map)).collect(),
        outputs: prog.outputs.iter().map(|v| rename(v, map)).collect(),
        locals: prog.locals.iter().map(|v| rename(v, map)).collect(),
        body: rename_stmts(&prog.body, map),
        decl_pos: prog
            .decl_pos
            .iter()
            .map(|(v, p)| (rename(v, map), *p))
            .collect(),
    }
}

/// Concatenates pre-renamed program bodies into one program with the given
/// interface. The caller is responsible for having renamed the parts so
/// that dataflow is by shared names (a producer's output variable and its
/// consumer's input variable unified to one name) and that no unintended
/// capture occurs — see `banger-opt`'s fusion pass for the planning side.
///
/// Ops preservation: the interpreter charges per executed statement (plus
/// expression costs) and nothing for input binding or output collection,
/// so the spliced program's operation count on equal values is exactly the
/// sum of the parts' counts.
pub fn splice_programs(
    name: impl Into<String>,
    parts: &[&Program],
    inputs: Vec<String>,
    outputs: Vec<String>,
) -> Program {
    let mut body = Vec::new();
    let mut declared: Vec<String> = Vec::new();
    for p in parts {
        body.extend_from_slice(&p.body);
        for v in p.inputs.iter().chain(&p.outputs).chain(&p.locals) {
            if !declared.contains(v) {
                declared.push(v.clone());
            }
        }
    }
    let locals: Vec<String> = declared
        .into_iter()
        .filter(|v| !inputs.contains(v) && !outputs.contains(v))
        .collect();
    Program {
        name: name.into(),
        inputs,
        outputs,
        locals,
        body,
        decl_pos: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run;
    use crate::parser::parse_program;
    use crate::value::Value;
    use std::collections::BTreeMap;

    const PI_SRC: &str = "\
task Pi
  in n
  out p
  local i, x, h
begin
  h := 1 / n
  p := 0
  for i := 1 to n do
    x := (i - 0.5) * h
    p := p + 4 / (1 + x * x)
  end
  p := p * h
end";

    fn inputs(pairs: &[(&str, Value)]) -> BTreeMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    /// Runs the split pipeline by hand: all chunks, then the combiner.
    fn run_split(split: &ReductionSplit, ins: &BTreeMap<String, Value>) -> Value {
        let mut combine_in = BTreeMap::new();
        for chunk in &split.chunks {
            let out = run(chunk, ins).unwrap();
            for (k, v) in out.outputs {
                combine_in.insert(k, v);
            }
        }
        for (k, v) in ins {
            combine_in.insert(k.clone(), v.clone());
        }
        let out = run(&split.combine, &combine_in).unwrap();
        out.outputs.values().next().unwrap().clone()
    }

    #[test]
    fn pi_quadrature_splits_correctly() {
        let prog = parse_program(PI_SRC).unwrap();
        for k in [2, 3, 4, 8] {
            let split = parallelize_reduction(&prog, k).unwrap();
            assert_eq!(split.chunks.len(), k);
            let ins = inputs(&[("n", Value::Num(1000.0))]);
            let serial = run(&prog, &ins).unwrap().outputs["p"].clone();
            let parallel = run_split(&split, &ins);
            let (s, p) = (serial.as_num("p").unwrap(), parallel.as_num("p").unwrap());
            assert!((s - p).abs() < 1e-9, "k={k}: {s} vs {p}");
            assert!((p - std::f64::consts::PI).abs() < 1e-4, "k={k}");
        }
    }

    #[test]
    fn chunks_cover_the_range_exactly_once() {
        // Sum of i over 1..=n must be n(n+1)/2 for awkward n/k splits.
        let prog = parse_program(
            "task S in n out s local i begin s := 0 for i := 1 to n do s := s + i end end",
        )
        .unwrap();
        for (n, k) in [(7usize, 3usize), (10, 4), (5, 5), (100, 7), (3, 2)] {
            let split = parallelize_reduction(&prog, k).unwrap();
            let ins = inputs(&[("n", Value::Num(n as f64))]);
            let got = run_split(&split, &ins).as_num("s").unwrap();
            let want = (n * (n + 1) / 2) as f64;
            assert_eq!(got, want, "n={n} k={k}");
        }
    }

    #[test]
    fn nonzero_init_preserved() {
        let prog = parse_program(
            "task S in n out s local i begin s := 100 for i := 1 to n do s := s + i end end",
        )
        .unwrap();
        let split = parallelize_reduction(&prog, 3).unwrap();
        let ins = inputs(&[("n", Value::Num(4.0))]);
        assert_eq!(run_split(&split, &ins).as_num("s").unwrap(), 110.0);
    }

    #[test]
    fn dynamic_bounds_work() {
        let prog = parse_program(
            "task S in a, b out s local i begin s := 0 for i := a to b do s := s + i * i end end",
        )
        .unwrap();
        let split = parallelize_reduction(&prog, 4).unwrap();
        let ins = inputs(&[("a", Value::Num(3.0)), ("b", Value::Num(11.0))]);
        let want: f64 = (3..=11).map(|i| (i * i) as f64).sum();
        assert_eq!(run_split(&split, &ins).as_num("s").unwrap(), want);
    }

    #[test]
    fn rejections() {
        // Two outputs.
        let p2 = parse_program("task T out a, b begin a := 1 b := 2 end").unwrap();
        assert_eq!(
            parallelize_reduction(&p2, 2),
            Err(TransformError::NotSingleOutput)
        );
        // No reduction loop.
        let p3 = parse_program("task T in a out r begin r := a * 2 end").unwrap();
        assert_eq!(
            parallelize_reduction(&p3, 2),
            Err(TransformError::NoReductionLoop)
        );
        // Loop that overwrites instead of accumulating.
        let p4 = parse_program(
            "task T in n out r local i begin r := 0 for i := 1 to n do r := i end end",
        )
        .unwrap();
        assert_eq!(
            parallelize_reduction(&p4, 2),
            Err(TransformError::NoReductionLoop)
        );
        // k too small.
        let p5 = parse_program(
            "task T in n out r local i begin r := 0 for i := 1 to n do r := r + i end end",
        )
        .unwrap();
        assert_eq!(
            parallelize_reduction(&p5, 1),
            Err(TransformError::BadChunkCount(1))
        );
    }

    #[test]
    fn prelude_using_accumulator_rejected() {
        let p = parse_program(
            "task T in n out r local i, q begin q := r r := 0 for i := 1 to n do r := r + i end end",
        )
        .unwrap();
        assert!(matches!(
            parallelize_reduction(&p, 2),
            Err(TransformError::UnsafeStatement(_))
        ));
    }

    #[test]
    fn loops_that_read_the_accumulator_are_not_reductions() {
        // Each computes something a sum of partials cannot: the loop reads
        // the accumulator in the contribution, in another statement, in a
        // bound. (The first yields 1024 for n = 10.)
        for body in [
            "s := 1 for i := 1 to n do s := s + s end",
            "s := 1 for i := 1 to n do t := s * 2 s := s + t end",
            "s := 1 for i := 1 to s + n do s := s + i end",
        ] {
            let src = format!("task T in n out s local i, t begin {body} end");
            let got = parallelize_reduction(&parse_program(&src).unwrap(), 2);
            assert!(
                matches!(got, Err(TransformError::UnsafeStatement(_))),
                "{body}: {got:?}"
            );
        }
    }

    #[test]
    fn chunk_programs_are_valid_pits() {
        // Round-trip every generated program through the pretty-printer
        // and parser.
        let prog = parse_program(PI_SRC).unwrap();
        let split = parallelize_reduction(&prog, 4).unwrap();
        for p in split.chunks.iter().chain([&split.combine]) {
            let printed = crate::pretty::print_program(p);
            let reparsed =
                parse_program(&printed).unwrap_or_else(|e| panic!("{}: {e}\n{printed}", p.name));
            assert_eq!(&reparsed, p);
        }
    }

    #[test]
    fn rename_vars_is_total_and_pure() {
        let prog = parse_program(
            "task T in a out b local i begin \
               b := 0 for i := 1 to a do b := b + i * i end \
               if b > 10 then b := b - a else b := b + a end \
             end",
        )
        .unwrap();
        let map: BTreeMap<String, String> = [("a", "x"), ("b", "y"), ("i", "k")]
            .into_iter()
            .map(|(f, t)| (f.to_string(), t.to_string()))
            .collect();
        let renamed = rename_vars(&prog, &map);
        assert_eq!(renamed.inputs, vec!["x"]);
        assert_eq!(renamed.outputs, vec!["y"]);
        assert_eq!(renamed.locals, vec!["k"]);
        let ins_a = inputs(&[("a", Value::Num(6.0))]);
        let ins_x = inputs(&[("x", Value::Num(6.0))]);
        let orig = run(&prog, &ins_a).unwrap();
        let new = run(&renamed, &ins_x).unwrap();
        assert_eq!(orig.outputs["b"], new.outputs["y"]);
        assert_eq!(orig.ops, new.ops, "renaming must not change the op count");
    }

    #[test]
    fn splice_ops_equal_sum_of_parts() {
        // producer: m := n * 2 (+ a loop); consumer reads m.
        let producer = parse_program(
            "task P in n out m local i begin m := 0 for i := 1 to n do m := m + 2 end end",
        )
        .unwrap();
        let consumer = parse_program("task C in m out r begin r := m + 1 end").unwrap();
        let fused = splice_programs(
            "F",
            &[&producer, &consumer],
            vec!["n".to_string()],
            vec!["r".to_string()],
        );
        assert_eq!(fused.inputs, vec!["n"]);
        assert_eq!(fused.outputs, vec!["r"]);
        assert!(fused.locals.contains(&"m".to_string()));
        assert!(fused.locals.contains(&"i".to_string()));
        let ins = inputs(&[("n", Value::Num(10.0))]);
        let p_out = run(&producer, &ins).unwrap();
        let c_out = run(&consumer, &inputs(&[("m", p_out.outputs["m"].clone())])).unwrap();
        let f_out = run(&fused, &ins).unwrap();
        assert_eq!(f_out.outputs["r"], c_out.outputs["r"]);
        assert_eq!(
            f_out.ops,
            p_out.ops + c_out.ops,
            "splice must preserve total ops exactly"
        );
    }

    #[test]
    fn spliced_program_round_trips_through_printer() {
        let producer = parse_program("task P in n out m begin m := n * 2 end").unwrap();
        let consumer = parse_program("task C in m out r begin r := m + 1 end").unwrap();
        let fused = splice_programs(
            "F",
            &[&producer, &consumer],
            vec!["n".to_string()],
            vec!["r".to_string()],
        );
        let printed = crate::pretty::print_program(&fused);
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(reparsed, fused);
    }
}

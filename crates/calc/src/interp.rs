//! Tree-walking interpreter for PITS programs — the engine behind
//! Banger's "trial run" button.
//!
//! A trial run supplies values for the task's `in` variables, executes the
//! body (with a step budget guarding against runaway loops), and returns
//! the `out` variables plus everything `print`ed and an operation count.
//! The operation count doubles as a measured task weight for the
//! scheduler, giving the instant feedback loop the paper emphasises.

use crate::ast::{BinOp, Expr, Program, Stmt, UnOp};
use crate::builtins;
use crate::error::RunError;
use crate::value::{to_index, Value};
use std::collections::BTreeMap;

/// Interpreter configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterpConfig {
    /// Maximum primitive steps before aborting with
    /// [`RunError::StepLimit`]. One step ≈ one statement or operator.
    pub max_steps: u64,
    /// Force the tree-walking reference interpreter instead of the
    /// compiled VM ([`crate::vm`]). Both engines produce identical
    /// [`Outcome`]s; the tree-walker is kept as the executable
    /// specification (and for debugging the VM itself). Selected by
    /// `banger trial --reference`.
    pub reference: bool,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig {
            max_steps: 10_000_000,
            reference: false,
        }
    }
}

/// The result of a trial run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Values of the task's `out` variables.
    pub outputs: BTreeMap<String, Value>,
    /// Lines produced by `print` statements, in order.
    pub prints: Vec<String>,
    /// Abstract operations executed — a measured task weight.
    pub ops: u64,
}

/// Runs `prog` with the given inputs under the default configuration.
pub fn run(prog: &Program, inputs: &BTreeMap<String, Value>) -> Result<Outcome, RunError> {
    run_with(prog, inputs, InterpConfig::default())
}

/// Runs `prog` with explicit configuration.
pub fn run_with(
    prog: &Program,
    inputs: &BTreeMap<String, Value>,
    config: InterpConfig,
) -> Result<Outcome, RunError> {
    let mut env: BTreeMap<String, Value> = BTreeMap::new();
    for (name, v) in builtins::CONSTANTS {
        env.insert(name.to_string(), Value::Num(v));
    }
    for name in &prog.inputs {
        let v = inputs
            .get(name)
            .ok_or_else(|| RunError::MissingInput(name.clone()))?;
        env.insert(name.clone(), v.clone());
    }
    let mut st = State {
        env,
        prints: Vec::new(),
        ops: 0,
        max_steps: config.max_steps,
    };
    st.exec_block(&prog.body)?;

    let mut outputs = BTreeMap::new();
    for name in &prog.outputs {
        let v = st
            .env
            .get(name)
            .ok_or_else(|| RunError::Undefined(name.clone()))?;
        outputs.insert(name.clone(), v.clone());
    }
    Ok(Outcome {
        outputs,
        prints: st.prints,
        ops: st.ops,
    })
}

/// Evaluates a bare expression against an environment — the calculator
/// panel's immediate mode ("some means of obtaining numerical results,
/// upon demand").
pub fn eval_expr(expr: &Expr, vars: &BTreeMap<String, Value>) -> Result<Value, RunError> {
    let mut env: BTreeMap<String, Value> = BTreeMap::new();
    for (name, v) in builtins::CONSTANTS {
        env.insert(name.to_string(), Value::Num(v));
    }
    env.extend(vars.clone());
    let mut st = State {
        env,
        prints: Vec::new(),
        ops: 0,
        max_steps: InterpConfig::default().max_steps,
    };
    st.eval(expr)
}

struct State {
    env: BTreeMap<String, Value>,
    prints: Vec<String>,
    ops: u64,
    max_steps: u64,
}

impl State {
    fn tick(&mut self, cost: u64) -> Result<(), RunError> {
        self.ops += cost;
        if self.ops > self.max_steps {
            Err(RunError::StepLimit(self.max_steps))
        } else {
            Ok(())
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt]) -> Result<(), RunError> {
        for s in stmts {
            self.exec(s)?;
        }
        Ok(())
    }

    fn exec(&mut self, stmt: &Stmt) -> Result<(), RunError> {
        self.tick(1)?;
        match stmt {
            Stmt::Assign { var, expr, .. } => {
                let v = self.eval(expr)?;
                self.env.insert(var.clone(), v);
            }
            Stmt::AssignIndex {
                var, index, expr, ..
            } => {
                let idxv = self.eval(index)?.as_num("array index")?;
                let val = self.eval(expr)?.as_num("array element")?;
                let arr = match self.env.get_mut(var) {
                    // CoW write gate: copy the buffer only if it is still
                    // shared with another binding (no tick either way).
                    Some(Value::Array(a)) => crate::value::make_mut_counted(a),
                    Some(Value::Num(_)) => return Err(RunError::NotAnArray(var.clone())),
                    None => return Err(RunError::Undefined(var.clone())),
                };
                let i = to_index(idxv, var, arr.len())?;
                arr[i] = val;
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                if self.eval(cond)?.truthy("if condition")? {
                    self.exec_block(then_body)?;
                } else {
                    self.exec_block(else_body)?;
                }
            }
            Stmt::While { cond, body, .. } => {
                while self.eval(cond)?.truthy("while condition")? {
                    self.exec_block(body)?;
                    self.tick(1)?;
                }
            }
            Stmt::For {
                var,
                from,
                to,
                body,
                ..
            } => {
                let from = self.eval(from)?.as_num("for start")?;
                let to = self.eval(to)?.as_num("for end")?;
                let mut i = from.round();
                let end = to.round();
                while i <= end {
                    self.env.insert(var.clone(), Value::Num(i));
                    self.exec_block(body)?;
                    self.tick(1)?;
                    i += 1.0;
                }
            }
            Stmt::Print { expr: e, .. } => {
                let v = self.eval(e)?;
                self.prints.push(v.to_string());
            }
        }
        Ok(())
    }

    fn eval(&mut self, expr: &Expr) -> Result<Value, RunError> {
        match expr {
            Expr::Num(v) => Ok(Value::Num(*v)),
            Expr::Var(name) => self
                .env
                .get(name)
                .cloned()
                .ok_or_else(|| RunError::Undefined(name.clone())),
            Expr::Index(name, idx) => {
                let idxv = self.eval(idx)?.as_num("array index")?;
                let arr = match self.env.get(name) {
                    Some(Value::Array(a)) => a,
                    Some(Value::Num(_)) => return Err(RunError::NotAnArray(name.clone())),
                    None => return Err(RunError::Undefined(name.clone())),
                };
                let i = to_index(idxv, name, arr.len())?;
                let v = arr[i];
                self.tick(1)?;
                Ok(Value::Num(v))
            }
            Expr::Call(name, args) => {
                let b = &builtins::BUILTINS[builtins::resolve(name, args.len())?];
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                self.tick(b.cost)?;
                b.call(&vals)
            }
            Expr::Bin(op, lhs, rhs) => {
                // Short-circuit logic first.
                match op {
                    BinOp::And => {
                        let l = self.eval(lhs)?.truthy("and operand")?;
                        self.tick(1)?;
                        if !l {
                            return Ok(Value::Num(0.0));
                        }
                        let r = self.eval(rhs)?.truthy("and operand")?;
                        return Ok(Value::Num(if r { 1.0 } else { 0.0 }));
                    }
                    BinOp::Or => {
                        let l = self.eval(lhs)?.truthy("or operand")?;
                        self.tick(1)?;
                        if l {
                            return Ok(Value::Num(1.0));
                        }
                        let r = self.eval(rhs)?.truthy("or operand")?;
                        return Ok(Value::Num(if r { 1.0 } else { 0.0 }));
                    }
                    _ => {}
                }
                let l = self.eval(lhs)?.as_num("left operand")?;
                let r = self.eval(rhs)?.as_num("right operand")?;
                self.tick(1)?;
                let v = match op {
                    BinOp::Add => l + r,
                    BinOp::Sub => l - r,
                    BinOp::Mul => l * r,
                    BinOp::Div => l / r, // IEEE semantics: x/0 = inf, like a calculator
                    BinOp::Mod => l.rem_euclid(r),
                    BinOp::Pow => l.powf(r),
                    BinOp::Eq => bool_num(l == r),
                    BinOp::Ne => bool_num(l != r),
                    BinOp::Lt => bool_num(l < r),
                    BinOp::Le => bool_num(l <= r),
                    BinOp::Gt => bool_num(l > r),
                    BinOp::Ge => bool_num(l >= r),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                };
                Ok(Value::Num(v))
            }
            Expr::Un(op, inner) => {
                let v = self.eval(inner)?;
                self.tick(1)?;
                match op {
                    UnOp::Neg => Ok(Value::Num(-v.as_num("negation operand")?)),
                    UnOp::Not => Ok(Value::Num(bool_num(!v.truthy("not operand")?))),
                }
            }
        }
    }
}

fn bool_num(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program};

    fn inputs(pairs: &[(&str, Value)]) -> BTreeMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    const SQRT_SRC: &str = "\
task SquareRoot
  in a
  out x
  local g, prev
begin
  g := a / 2
  prev := 0
  while abs(g - prev) > 1e-12 do
    prev := g
    g := (g + a / g) / 2
  end
  x := g
end";

    #[test]
    fn figure4_newton_raphson_sqrt() {
        let p = parse_program(SQRT_SRC).unwrap();
        for a in [2.0, 9.0, 100.0, 12345.678] {
            let out = run(&p, &inputs(&[("a", Value::Num(a))])).unwrap();
            let x = out.outputs["x"].as_num("x").unwrap();
            assert!((x - a.sqrt()).abs() < 1e-9, "sqrt({a}) = {x}");
            assert!(out.ops > 0);
        }
    }

    #[test]
    fn op_count_grows_with_work() {
        let p = parse_program(SQRT_SRC).unwrap();
        let cheap = run(&p, &inputs(&[("a", Value::Num(1.0))])).unwrap();
        let costly = run(&p, &inputs(&[("a", Value::Num(1e12))])).unwrap();
        assert!(costly.ops > cheap.ops, "{} !> {}", costly.ops, cheap.ops);
    }

    #[test]
    fn missing_input_error() {
        let p = parse_program(SQRT_SRC).unwrap();
        assert_eq!(
            run(&p, &BTreeMap::new()),
            Err(RunError::MissingInput("a".into()))
        );
    }

    #[test]
    fn unassigned_output_error() {
        let p = parse_program("task T in a out x begin a := a end").unwrap();
        assert_eq!(
            run(&p, &inputs(&[("a", Value::Num(1.0))])),
            Err(RunError::Undefined("x".into()))
        );
    }

    #[test]
    fn step_limit_stops_runaway_loop() {
        let p = parse_program("task T out x begin x := 0 while 1 do x := x + 1 end end").unwrap();
        let err = run_with(
            &p,
            &BTreeMap::new(),
            InterpConfig {
                max_steps: 1000,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, RunError::StepLimit(1000));
    }

    #[test]
    fn if_else_branches() {
        let p = parse_program("task T in a out s begin if a >= 0 then s := 1 else s := -1 end end")
            .unwrap();
        let pos = run(&p, &inputs(&[("a", Value::Num(3.0))])).unwrap();
        assert_eq!(pos.outputs["s"], Value::Num(1.0));
        let neg = run(&p, &inputs(&[("a", Value::Num(-3.0))])).unwrap();
        assert_eq!(neg.outputs["s"], Value::Num(-1.0));
    }

    #[test]
    fn for_loop_sums() {
        let p = parse_program(
            "task T in n out s local i begin s := 0 for i := 1 to n do s := s + i end end",
        )
        .unwrap();
        let out = run(&p, &inputs(&[("n", Value::Num(100.0))])).unwrap();
        assert_eq!(out.outputs["s"], Value::Num(5050.0));
    }

    #[test]
    fn for_loop_zero_iterations() {
        let p = parse_program(
            "task T out s local i begin s := 0 for i := 1 to 0 do s := s + 1 end end",
        )
        .unwrap();
        let out = run(&p, &BTreeMap::new()).unwrap();
        assert_eq!(out.outputs["s"], Value::Num(0.0));
    }

    #[test]
    fn arrays_roundtrip() {
        let p = parse_program(
            "task T in v out w local i, n begin \
             n := len(v) \
             w := zeros(n) \
             for i := 1 to n do w[i] := v[i] * 2 end \
             end",
        )
        .unwrap();
        let out = run(&p, &inputs(&[("v", Value::array(vec![1.0, 2.0, 3.0]))])).unwrap();
        assert_eq!(out.outputs["w"], Value::array(vec![2.0, 4.0, 6.0]));
    }

    #[test]
    fn array_errors() {
        let p = parse_program("task T in v out x begin x := v[5] end").unwrap();
        let err = run(&p, &inputs(&[("v", Value::array(vec![1.0]))])).unwrap_err();
        assert!(matches!(err, RunError::IndexOutOfRange { .. }));

        let p2 = parse_program("task T in v out x begin v[1] := 0 x := 0 end").unwrap();
        let err2 = run(&p2, &inputs(&[("v", Value::Num(3.0))])).unwrap_err();
        assert_eq!(err2, RunError::NotAnArray("v".into()));
    }

    #[test]
    fn prints_collected() {
        let p = parse_program("task T in a begin print a print a * 2 end").unwrap();
        let out = run(&p, &inputs(&[("a", Value::Num(5.0))])).unwrap();
        assert_eq!(out.prints, vec!["5", "10"]);
    }

    #[test]
    fn constants_available() {
        let e = parse_expr("2 * pi").unwrap();
        let v = eval_expr(&e, &BTreeMap::new()).unwrap();
        assert!((v.as_num("x").unwrap() - std::f64::consts::TAU).abs() < 1e-12);
    }

    #[test]
    fn immediate_mode_with_variables() {
        let e = parse_expr("sqrt(x ^ 2 + y ^ 2)").unwrap();
        let v = eval_expr(
            &e,
            &inputs(&[("x", Value::Num(3.0)), ("y", Value::Num(4.0))]),
        )
        .unwrap();
        assert_eq!(v, Value::Num(5.0));
    }

    #[test]
    fn short_circuit_avoids_errors() {
        // `0 and (1/0 = boom)` — RHS has an undefined var; must not be hit.
        let e = parse_expr("0 and nosuchvar").unwrap();
        assert_eq!(eval_expr(&e, &BTreeMap::new()).unwrap(), Value::Num(0.0));
        let e2 = parse_expr("1 or nosuchvar").unwrap();
        assert_eq!(eval_expr(&e2, &BTreeMap::new()).unwrap(), Value::Num(1.0));
    }

    #[test]
    fn division_by_zero_is_calculator_style() {
        let e = parse_expr("1 / 0").unwrap();
        let v = eval_expr(&e, &BTreeMap::new()).unwrap();
        assert!(v.as_num("x").unwrap().is_infinite());
    }

    #[test]
    fn modulo_is_euclidean() {
        let e = parse_expr("-7 % 3").unwrap();
        // rem_euclid of the *negated* 7: note `-7 % 3` parses as -(7) % 3
        // with unary minus binding tighter than %? No: unary < prod, so
        // it's (-7) % 3 = 2 under Euclidean semantics.
        assert_eq!(eval_expr(&e, &BTreeMap::new()).unwrap(), Value::Num(2.0));
    }

    #[test]
    fn comparison_returns_zero_one() {
        for (src, want) in [
            ("3 > 2", 1.0),
            ("2 > 3", 0.0),
            ("2 = 2", 1.0),
            ("2 <> 2", 0.0),
            ("not 0", 1.0),
            ("not 5", 0.0),
        ] {
            let e = parse_expr(src).unwrap();
            assert_eq!(
                eval_expr(&e, &BTreeMap::new()).unwrap(),
                Value::Num(want),
                "{src}"
            );
        }
    }

    #[test]
    fn undefined_variable_error() {
        let e = parse_expr("q + 1").unwrap();
        assert_eq!(
            eval_expr(&e, &BTreeMap::new()),
            Err(RunError::Undefined("q".into()))
        );
    }

    #[test]
    fn bad_arity_error() {
        let e = parse_expr("sqrt(1, 2)").unwrap();
        assert!(matches!(
            eval_expr(&e, &BTreeMap::new()),
            Err(RunError::BadArity { .. })
        ));
    }
}

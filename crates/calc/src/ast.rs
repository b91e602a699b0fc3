//! Abstract syntax of the PITS calculator language, and the one reading
//! of it that is not a translation.
//!
//! Translations exist once per target (`interp`, `compile`, `absint`'s
//! resolver, `pretty`, `transform::rename_*`, the generators' `emit_*`) and
//! each walks the tree its own way. *Questions* about a body — which
//! variables does it read, write, print? — are answered by two folds here,
//! [`Expr::each_var`] and [`Facts::of`]; lints, rewrite rules and legality
//! checks are predicates over those facts and match on no `Stmt` or `Expr`.

use crate::error::Pos;
use std::collections::BTreeMap;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `^` (right-associative power)
    Pow,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and` (short-circuit)
    And,
    /// `or` (short-circuit)
    Or,
}

impl BinOp {
    /// The operator's surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Pow => "^",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical `not`.
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Num(f64),
    /// Variable reference.
    Var(String),
    /// Array element `a[i]` (1-based, calculator style).
    Index(String, Box<Expr>),
    /// Function call.
    Call(String, Vec<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
}

impl Expr {
    /// Calls `f` with every variable the expression mentions, left to
    /// right: plain references and the array of an `a[i]` alike. Call names
    /// live in the builtin namespace and are not variables.
    pub fn each_var<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Expr::Num(_) => {}
            Expr::Var(v) => f(v),
            Expr::Index(v, idx) => {
                f(v);
                idx.each_var(f);
            }
            Expr::Call(_, args) => args.iter().for_each(|a| a.each_var(f)),
            Expr::Bin(_, a, b) => {
                a.each_var(f);
                b.each_var(f);
            }
            Expr::Un(_, a) => a.each_var(f),
        }
    }

    /// True when the expression mentions variable `v`.
    pub fn mentions(&self, v: &str) -> bool {
        let mut hit = false;
        self.each_var(&mut |name| hit |= name == v);
        hit
    }
}

/// Statements.
///
/// Equality is structural and ignores the diagnostic [`Pos`] fields, so
/// parser/pretty-printer round-trips compare equal.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `x := e`
    Assign {
        /// Target variable.
        var: String,
        /// Value.
        expr: Expr,
        /// Source position (for diagnostics).
        pos: Pos,
    },
    /// `x[i] := e`
    AssignIndex {
        /// Target array variable.
        var: String,
        /// 1-based element index.
        index: Expr,
        /// Value.
        expr: Expr,
        /// Source position.
        pos: Pos,
    },
    /// `if c then ... [else ...] end`
    If {
        /// Guard expression.
        cond: Expr,
        /// Then branch.
        then_body: Vec<Stmt>,
        /// Else branch (may be empty).
        else_body: Vec<Stmt>,
        /// Source position of the `if` keyword.
        pos: Pos,
    },
    /// `while c do ... end`
    While {
        /// Guard expression.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source position of the `while` keyword.
        pos: Pos,
    },
    /// `for v := a to b do ... end` (inclusive bounds, step 1)
    For {
        /// Loop variable.
        var: String,
        /// Start value.
        from: Expr,
        /// End value (inclusive).
        to: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source position of the `for` keyword.
        pos: Pos,
    },
    /// `print e` — the calculator's result display.
    Print {
        /// The displayed expression.
        expr: Expr,
        /// Source position of the `print` keyword.
        pos: Pos,
    },
}

impl PartialEq for Stmt {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                Stmt::Assign {
                    var: v1, expr: e1, ..
                },
                Stmt::Assign {
                    var: v2, expr: e2, ..
                },
            ) => v1 == v2 && e1 == e2,
            (
                Stmt::AssignIndex {
                    var: v1,
                    index: i1,
                    expr: e1,
                    ..
                },
                Stmt::AssignIndex {
                    var: v2,
                    index: i2,
                    expr: e2,
                    ..
                },
            ) => v1 == v2 && i1 == i2 && e1 == e2,
            (
                Stmt::If {
                    cond: c1,
                    then_body: t1,
                    else_body: e1,
                    ..
                },
                Stmt::If {
                    cond: c2,
                    then_body: t2,
                    else_body: e2,
                    ..
                },
            ) => c1 == c2 && t1 == t2 && e1 == e2,
            (
                Stmt::While {
                    cond: c1, body: b1, ..
                },
                Stmt::While {
                    cond: c2, body: b2, ..
                },
            ) => c1 == c2 && b1 == b2,
            (
                Stmt::For {
                    var: v1,
                    from: f1,
                    to: t1,
                    body: b1,
                    ..
                },
                Stmt::For {
                    var: v2,
                    from: f2,
                    to: t2,
                    body: b2,
                    ..
                },
            ) => v1 == v2 && f1 == f2 && t1 == t2 && b1 == b2,
            (Stmt::Print { expr: a, .. }, Stmt::Print { expr: b, .. }) => a == b,
            _ => false,
        }
    }
}

/// What a statement list does with variables, gathered in one pre-order
/// pass (a statement before its nested bodies, a then-branch before its
/// else-branch) and borrowed from the statements. Each name maps to the
/// position of the first statement that does it.
///
/// The three sets are kept apart because consumers disagree on the indexed
/// store `a[i] := e`, which writes one element and lets the rest of `a`
/// flow through: a read to the unused-input lint but not to the
/// dead-declaration trim, a write to the lints but no declaration to the
/// code generators. Each composes the predicate it needs.
#[derive(Debug, Default)]
pub struct Facts<'a> {
    /// Names mentioned in an expression: right-hand sides, indices, guards,
    /// loop bounds and `print` operands.
    pub reads: BTreeMap<&'a str, Pos>,
    /// Targets of `x := e` and of `for x := ...` headers.
    pub assigned: BTreeMap<&'a str, Pos>,
    /// Targets of `x[i] := e`.
    pub stored: BTreeMap<&'a str, Pos>,
    /// True when any statement is a `print`.
    pub prints: bool,
}

impl<'a> Facts<'a> {
    /// The facts of `stmts`, nested bodies included. A sub-slice of a body
    /// is a statement list like any other.
    pub fn of(stmts: &'a [Stmt]) -> Self {
        let mut facts = Facts::default();
        facts.gather(stmts);
        facts
    }

    /// First position at which `v` is written — assigned, bound by a `for`
    /// header or index-stored — if it is written at all.
    pub fn written(&self, v: &str) -> Option<Pos> {
        let firsts = [self.assigned.get(v), self.stored.get(v)];
        firsts.into_iter().flatten().copied().min()
    }

    fn read(&mut self, pos: Pos, expr: &'a Expr) {
        expr.each_var(&mut |v| {
            self.reads.entry(v).or_insert(pos);
        });
    }

    fn gather(&mut self, stmts: &'a [Stmt]) {
        for s in stmts {
            match s {
                Stmt::Assign { var, expr, pos } => {
                    self.read(*pos, expr);
                    self.assigned.entry(var).or_insert(*pos);
                }
                Stmt::AssignIndex {
                    var,
                    index,
                    expr,
                    pos,
                } => {
                    self.read(*pos, index);
                    self.read(*pos, expr);
                    self.stored.entry(var).or_insert(*pos);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    pos,
                } => {
                    self.read(*pos, cond);
                    self.gather(then_body);
                    self.gather(else_body);
                }
                Stmt::While { cond, body, pos } => {
                    self.read(*pos, cond);
                    self.gather(body);
                }
                Stmt::For {
                    var,
                    from,
                    to,
                    body,
                    pos,
                } => {
                    self.read(*pos, from);
                    self.read(*pos, to);
                    self.assigned.entry(var).or_insert(*pos);
                    self.gather(body);
                }
                Stmt::Print { expr, pos } => {
                    self.read(*pos, expr);
                    self.prints = true;
                }
            }
        }
    }
}

/// A complete PITS task program.
///
/// Equality is structural and ignores the diagnostic `decl_pos` spans, so
/// parser/pretty-printer round-trips compare equal.
#[derive(Debug, Clone)]
pub struct Program {
    /// Task name (`SquareRoot` in Figure 4).
    pub name: String,
    /// Input variables, supplied by arriving dataflow arcs.
    pub inputs: Vec<String>,
    /// Output variables, sent on departing arcs.
    pub outputs: Vec<String>,
    /// Local (scratch) variables.
    pub locals: Vec<String>,
    /// Statement list between `begin` and `end`.
    pub body: Vec<Stmt>,
    /// Source position of each `in`/`out`/`local` declaration, keyed by
    /// variable name. Empty for programs built programmatically; design
    /// lints use it to point diagnostics at the declaring line.
    pub decl_pos: std::collections::BTreeMap<String, Pos>,
}

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.inputs == other.inputs
            && self.outputs == other.outputs
            && self.locals == other.locals
            && self.body == other.body
    }
}

impl Program {
    /// True when `name` is declared `in`, `out` or `local`.
    pub fn declares(&self, name: &str) -> bool {
        self.inputs.iter().any(|v| v == name)
            || self.outputs.iter().any(|v| v == name)
            || self.locals.iter().any(|v| v == name)
    }

    /// The declared `(inputs, outputs)`, each in declaration order: what
    /// `banger_taskgraph::binding` resolves arc labels against.
    pub fn interface(&self) -> (&[String], &[String]) {
        (&self.inputs, &self.outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_cover_all_ops() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Mod,
            BinOp::Pow,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::And,
            BinOp::Or,
        ] {
            assert!(!op.symbol().is_empty());
        }
    }

    #[test]
    fn facts_keep_reads_assignments_and_stores_apart() {
        // One statement per line, so a position is (line, 1).
        let prog = crate::parser::parse_program(
            "task T in n, a out r begin\n\
             for i := 1 to n do\n\
             if a[i] > 0 then\n\
             r := r + a[i]\n\
             else\n\
             a[i] := 0\n\
             end\n\
             end\n\
             a := zeros(n)\n\
             while k < 2 do\n\
             print sqrt(k)\n\
             end\n\
             end",
        )
        .unwrap();
        fn names<'a>(m: &BTreeMap<&'a str, Pos>) -> Vec<&'a str> {
            m.keys().copied().collect()
        }
        let line = |line| Pos { line, col: 1 };
        let facts = Facts::of(&prog.body);
        // `sqrt` is a call name, not a variable; `i` is read as an index.
        assert_eq!(names(&facts.reads), ["a", "i", "k", "n", "r"]);
        assert_eq!(names(&facts.assigned), ["a", "i", "r"]);
        assert_eq!(names(&facts.stored), ["a"]);
        assert!(facts.prints);
        // First positions, in pre-order: the `for` header binds `i` and
        // reads `n`; the guard reads `a` before either branch does; the
        // store in the else-branch precedes the later `a := ...`.
        assert_eq!(facts.assigned["i"], line(2));
        assert_eq!(facts.reads["n"], line(2));
        assert_eq!(facts.reads["a"], line(3));
        assert_eq!(facts.stored["a"], line(6));
        assert_eq!(facts.assigned["a"], line(9));
        assert_eq!(facts.written("a"), Some(line(6)));
        assert_eq!(facts.written("r"), Some(line(4)));
        assert_eq!(facts.written("n"), None);

        // A sub-slice is a statement list like any other.
        let tail = Facts::of(&prog.body[1..]);
        assert_eq!(names(&tail.reads), ["k", "n"]);
        assert_eq!(tail.written("i"), None);
        assert!(!Facts::of(&prog.body[..2]).prints);
    }

    #[test]
    fn mentions_sees_indexed_arrays_and_nested_operands() {
        let e = crate::parser::parse_expr("max(v[i + 1], -x) and not y").unwrap();
        for v in ["v", "i", "x", "y"] {
            assert!(e.mentions(v), "{v}");
        }
        assert!(!e.mentions("max"));
    }

    #[test]
    fn declares_checks_all_sections() {
        let p = Program {
            name: "t".into(),
            inputs: vec!["a".into()],
            outputs: vec!["x".into()],
            locals: vec!["g".into()],
            body: vec![],
            decl_pos: Default::default(),
        };
        assert!(p.declares("a"));
        assert!(p.declares("x"));
        assert!(p.declares("g"));
        assert!(!p.declares("q"));
    }
}

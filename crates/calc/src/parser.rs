//! Recursive-descent parser for the PITS calculator language.
//!
//! Grammar (EBNF):
//!
//! ```text
//! program   = "task" IDENT { decl } "begin" stmts "end"
//! decl      = ("in" | "out" | "local") IDENT { "," IDENT }
//! stmts     = { stmt }
//! stmt      = IDENT ( ":=" expr | "[" expr "]" ":=" expr )
//!           | "if" expr "then" stmts [ "else" stmts ] "end"
//!           | "while" expr "do" stmts "end"
//!           | "for" IDENT ":=" expr "to" expr "do" stmts "end"
//!           | "print" expr
//! expr      = orterm   { "or" orterm }
//! orterm    = andterm  { "and" andterm }
//! andterm   = [ "not" ] cmp
//! cmp       = sum [ ("="|"<>"|"<"|"<="|">"|">=") sum ]
//! sum       = prod { ("+"|"-") prod }
//! prod      = unary { ("*"|"/"|"%") unary }
//! unary     = [ "-" ] power
//! power     = primary [ "^" unary ]          (right associative)
//! primary   = NUMBER | IDENT | IDENT "(" [ expr {"," expr} ] ")"
//!           | IDENT "[" expr "]" | "(" expr ")"
//! ```

use crate::ast::{BinOp, Expr, Program, Stmt, UnOp};
use crate::error::{ParseError, Pos};
use crate::token::{lex, Spanned, Tok};

/// Parses a complete `task ... begin ... end` program.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        i: 0,
        depth: 0,
        height: 0,
    };
    let prog = p.program()?;
    p.expect(Tok::Eof, "end of input")?;
    Ok(prog)
}

/// Parses a bare expression (used by the calculator panel's immediate
/// evaluation mode).
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        i: 0,
        depth: 0,
        height: 0,
    };
    let e = p.expr()?;
    p.expect(Tok::Eof, "end of input")?;
    Ok(e)
}

/// Maximum expression/statement nesting depth; deeper input is rejected
/// with a parse error instead of overflowing the stack (the recursive-
/// descent parser recurses once per nesting level).
const MAX_DEPTH: u32 = 200;

/// Maximum height of an expression tree, a chain's spine included:
/// `1 + 1 + … + 1` with this many terms is the highest accepted. The
/// parser reads a left-associative chain in a loop, but the compiler, the
/// analyses, the interpreter and the drop glue recurse once per level of
/// the tree it builds, on the caller's stack. A daemon client thread has
/// 2 MiB; there, in a debug build, `check`, `gantt` and `run` of such a
/// chain overflow at about 1,300 terms (and `trial --reference` at about
/// 320), in a release build at 8,000–10,000 (`trial --reference` 6,800).
pub const MAX_HEIGHT: u32 = 1000;

struct Parser {
    toks: Vec<Spanned>,
    i: usize,
    depth: u32,
    /// Height of the expression the last expression rule returned.
    height: u32,
}

impl Parser {
    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")))
        } else {
            Ok(())
        }
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// `node`, one level above the highest of its operands (`self.height`
    /// holds that height on entry); past [`MAX_HEIGHT`] an error at `at`,
    /// the position of the token that opened the node.
    fn node(&mut self, node: Expr, at: Pos) -> Result<Expr, ParseError> {
        self.height += 1;
        if self.height > MAX_HEIGHT {
            return Err(ParseError {
                pos: at,
                message: format!(
                    "expression deeper than {MAX_HEIGHT} levels; split it over several assignments"
                ),
            });
        }
        Ok(node)
    }

    /// `lhs op rhs`, where `lhs` is `lhs_height` high and `rhs` is the
    /// expression just parsed; `at` is the operator's position. A
    /// left-associative chain's spine grows here one link at a time.
    fn bin(
        &mut self,
        op: BinOp,
        lhs: Expr,
        lhs_height: u32,
        rhs: Expr,
        at: Pos,
    ) -> Result<Expr, ParseError> {
        self.height = self.height.max(lhs_height);
        self.node(Expr::Bin(op, Box::new(lhs), Box::new(rhs)), at)
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.i].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.i].pos
    }

    /// Steps past the current token; `Eof` is never stepped past.
    fn bump(&mut self) {
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
    }

    /// The current token's name, moved out of the token list, if it is an
    /// identifier; the parser never looks back at a token it has passed.
    fn eat_ident(&mut self) -> Option<String> {
        let Tok::Ident(name) = &mut self.toks[self.i].tok else {
            return None;
        };
        let name = std::mem::take(name);
        self.bump();
        Some(name)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.pos(),
            message: message.into(),
        }
    }

    fn expect(&mut self, want: Tok, what: &str) -> Result<(), ParseError> {
        if *self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        self.eat_ident()
            .ok_or_else(|| self.err(format!("expected {what}, found {:?}", self.peek())))
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        self.expect(Tok::Task, "`task`")?;
        let name = self.ident("task name")?;
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        let mut locals = Vec::new();
        let mut decl_pos = std::collections::BTreeMap::new();
        loop {
            let list = match self.peek() {
                Tok::In => &mut inputs,
                Tok::Out => &mut outputs,
                Tok::Local => &mut locals,
                _ => break,
            };
            self.bump();
            loop {
                let pos = self.pos();
                let v = self.ident("variable name")?;
                if list.contains(&v) {
                    return Err(self.err(format!("variable {v:?} declared twice")));
                }
                decl_pos.entry(v.clone()).or_insert(pos);
                list.push(v);
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        // A name must appear in only one section.
        for v in &inputs {
            if outputs.contains(v) || locals.contains(v) {
                return Err(self.err(format!("variable {v:?} declared in two sections")));
            }
        }
        for v in &outputs {
            if locals.contains(v) {
                return Err(self.err(format!("variable {v:?} declared in two sections")));
            }
        }
        self.expect(Tok::Begin, "`begin`")?;
        let body = self.stmts()?;
        self.expect(Tok::End, "`end`")?;
        Ok(Program {
            name,
            inputs,
            outputs,
            locals,
            body,
            decl_pos,
        })
    }

    /// Statements until a block terminator (`end` / `else` / EOF).
    fn stmts(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        loop {
            match self.peek() {
                Tok::End | Tok::Else | Tok::Eof => return Ok(out),
                _ => out.push(self.stmt()?),
            }
        }
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.enter()?;
        let r = self.stmt_inner();
        self.leave();
        r
    }

    fn stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos();
        if let Some(var) = self.eat_ident() {
            return match self.peek() {
                Tok::Assign => {
                    self.bump();
                    let expr = self.expr()?;
                    Ok(Stmt::Assign { var, expr, pos })
                }
                Tok::LBracket => {
                    self.bump();
                    let index = self.expr()?;
                    self.expect(Tok::RBracket, "`]`")?;
                    self.expect(Tok::Assign, "`:=`")?;
                    let expr = self.expr()?;
                    Ok(Stmt::AssignIndex {
                        var,
                        index,
                        expr,
                        pos,
                    })
                }
                _ => Err(self.err("expected `:=` or `[` after variable")),
            };
        }
        match self.peek() {
            Tok::If => {
                self.bump();
                let cond = self.expr()?;
                self.expect(Tok::Then, "`then`")?;
                let then_body = self.stmts()?;
                let else_body = if *self.peek() == Tok::Else {
                    self.bump();
                    self.stmts()?
                } else {
                    Vec::new()
                };
                self.expect(Tok::End, "`end`")?;
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    pos,
                })
            }
            Tok::While => {
                self.bump();
                let cond = self.expr()?;
                self.expect(Tok::Do, "`do`")?;
                let body = self.stmts()?;
                self.expect(Tok::End, "`end`")?;
                Ok(Stmt::While { cond, body, pos })
            }
            Tok::For => {
                self.bump();
                let var = self.ident("loop variable")?;
                self.expect(Tok::Assign, "`:=`")?;
                let from = self.expr()?;
                self.expect(Tok::To, "`to`")?;
                let to = self.expr()?;
                self.expect(Tok::Do, "`do`")?;
                let body = self.stmts()?;
                self.expect(Tok::End, "`end`")?;
                Ok(Stmt::For {
                    var,
                    from,
                    to,
                    body,
                    pos,
                })
            }
            Tok::Print => {
                self.bump();
                Ok(Stmt::Print {
                    expr: self.expr()?,
                    pos,
                })
            }
            other => Err(self.err(format!("expected a statement, found {other:?}"))),
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let r = self.expr_inner();
        self.leave();
        r
    }

    fn expr_inner(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.orterm()?;
        while *self.peek() == Tok::Or {
            let (at, lhs_height) = (self.pos(), self.height);
            self.bump();
            let rhs = self.orterm()?;
            lhs = self.bin(BinOp::Or, lhs, lhs_height, rhs, at)?;
        }
        Ok(lhs)
    }

    fn orterm(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.andterm()?;
        while *self.peek() == Tok::And {
            let (at, lhs_height) = (self.pos(), self.height);
            self.bump();
            let rhs = self.andterm()?;
            lhs = self.bin(BinOp::And, lhs, lhs_height, rhs, at)?;
        }
        Ok(lhs)
    }

    fn andterm(&mut self) -> Result<Expr, ParseError> {
        if *self.peek() == Tok::Not {
            let at = self.pos();
            self.enter()?; // `not not ...` chains recurse here
            self.bump();
            let inner = self.andterm();
            self.leave();
            return self.node(Expr::Un(UnOp::Not, Box::new(inner?)), at);
        }
        self.cmp()
    }

    fn cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.sum()?;
        let op = match self.peek() {
            Tok::Eq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        let (at, lhs_height) = (self.pos(), self.height);
        self.bump();
        let rhs = self.sum()?;
        self.bin(op, lhs, lhs_height, rhs, at)
    }

    fn sum(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.prod()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            let (at, lhs_height) = (self.pos(), self.height);
            self.bump();
            let rhs = self.prod()?;
            lhs = self.bin(op, lhs, lhs_height, rhs, at)?;
        }
    }

    fn prod(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Mod,
                _ => return Ok(lhs),
            };
            let (at, lhs_height) = (self.pos(), self.height);
            self.bump();
            let rhs = self.unary()?;
            lhs = self.bin(op, lhs, lhs_height, rhs, at)?;
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if *self.peek() == Tok::Minus {
            let at = self.pos();
            self.enter()?; // `- - - x` chains recurse here
            self.bump();
            let inner = self.unary();
            self.leave();
            return self.node(Expr::Un(UnOp::Neg, Box::new(inner?)), at);
        }
        self.power()
    }

    fn power(&mut self) -> Result<Expr, ParseError> {
        let base = self.primary()?;
        if *self.peek() == Tok::Caret {
            let (at, base_height) = (self.pos(), self.height);
            self.enter()?; // `2^2^2^...` chains recurse here
            self.bump();
            // right-associative: 2^3^2 = 2^(3^2)
            let exp = self.unary();
            self.leave();
            return self.bin(BinOp::Pow, base, base_height, exp?, at);
        }
        Ok(base)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let at = self.pos();
        if let Some(name) = self.eat_ident() {
            self.height = 0;
            return match self.peek() {
                Tok::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    let mut highest = 0;
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            highest = highest.max(self.height);
                            if *self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen, "`)`")?;
                    self.height = highest;
                    self.node(Expr::Call(name, args), at)
                }
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket, "`]`")?;
                    self.node(Expr::Index(name, Box::new(idx)), at)
                }
                _ => self.node(Expr::Var(name), at),
            };
        }
        match self.peek() {
            &Tok::Num(v) => {
                self.bump();
                self.height = 0;
                self.node(Expr::Num(v), at)
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(e)
            }
            other => Err(self.err(format!("expected an expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Expr, Stmt, UnOp};

    /// The paper's Figure 4 program.
    pub const SQRT_SRC: &str = "\
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
    fn parses_figure4_squareroot() {
        let p = parse_program(SQRT_SRC).unwrap();
        assert_eq!(p.name, "SquareRoot");
        assert_eq!(p.inputs, vec!["a"]);
        assert_eq!(p.outputs, vec!["x"]);
        assert_eq!(p.locals, vec!["g", "prev"]);
        assert_eq!(p.body.len(), 4);
        assert!(matches!(p.body[2], Stmt::While { .. }));
    }

    #[test]
    fn precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        assert_eq!(
            e,
            Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Num(1.0)),
                Box::new(Expr::Bin(
                    BinOp::Mul,
                    Box::new(Expr::Num(2.0)),
                    Box::new(Expr::Num(3.0))
                ))
            )
        );
    }

    #[test]
    fn power_right_associative() {
        let e = parse_expr("2 ^ 3 ^ 2").unwrap();
        // 2 ^ (3 ^ 2)
        match e {
            Expr::Bin(BinOp::Pow, lhs, rhs) => {
                assert_eq!(*lhs, Expr::Num(2.0));
                assert!(matches!(*rhs, Expr::Bin(BinOp::Pow, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unary_minus_binds_tighter_than_sub() {
        let e = parse_expr("-a - b").unwrap();
        match e {
            Expr::Bin(BinOp::Sub, lhs, _) => {
                assert!(matches!(*lhs, Expr::Un(UnOp::Neg, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn logic_precedence() {
        // or < and < not < cmp
        let e = parse_expr("not a = 1 and b or c").unwrap();
        assert!(matches!(e, Expr::Bin(BinOp::Or, _, _)));
    }

    #[test]
    fn calls_and_indexing() {
        let e = parse_expr("atan2(y, x) + v[i + 1]").unwrap();
        match e {
            Expr::Bin(BinOp::Add, lhs, rhs) => {
                assert!(matches!(*lhs, Expr::Call(ref n, ref a) if n == "atan2" && a.len() == 2));
                assert!(matches!(*rhs, Expr::Index(ref n, _) if n == "v"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_call() {
        let e = parse_expr("rand()").unwrap();
        assert!(matches!(e, Expr::Call(ref n, ref a) if n == "rand" && a.is_empty()));
    }

    #[test]
    fn if_else_and_for() {
        let src = "task T in a out b begin \
                   if a > 0 then b := 1 else b := 0 end \
                   for i := 1 to 10 do b := b + i end \
                   end";
        let p = parse_program(src).unwrap();
        assert_eq!(p.body.len(), 2);
        match &p.body[0] {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                assert_eq!(then_body.len(), 1);
                assert_eq!(else_body.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(p.body[1], Stmt::For { .. }));
    }

    #[test]
    fn indexed_assignment() {
        let src = "task T in a out v begin v := zeros(3) v[2] := a * 2 end";
        let p = parse_program(src).unwrap();
        assert!(matches!(p.body[1], Stmt::AssignIndex { .. }));
    }

    #[test]
    fn print_statement() {
        let p = parse_program("task T in a begin print a + 1 end").unwrap();
        assert!(matches!(p.body[0], Stmt::Print { .. }));
    }

    #[test]
    fn duplicate_declaration_rejected() {
        assert!(parse_program("task T in a, a begin end").is_err());
        assert!(parse_program("task T in a out a begin end").is_err());
        assert!(parse_program("task T out x local x begin end").is_err());
    }

    #[test]
    fn error_positions_and_messages() {
        let err = parse_program("task T in a begin a := end").unwrap_err();
        assert!(err.message.contains("expression"), "{err}");
        let err = parse_program("task begin end").unwrap_err();
        assert!(err.message.contains("task name"), "{err}");
        let err = parse_program("task T begin while 1 do end").unwrap_err();
        assert!(err.message.contains("`end`"), "{err}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_program("task T begin end extra").is_err());
        assert!(parse_expr("1 + 2 3").is_err());
    }

    #[test]
    fn nested_blocks() {
        let src = "task T in n out s local i, j begin \
                   s := 0 \
                   for i := 1 to n do \
                     for j := 1 to i do \
                       if j % 2 = 0 then s := s + j end \
                     end \
                   end \
                   end";
        let p = parse_program(src).unwrap();
        assert_eq!(p.body.len(), 2);
    }
}

#[cfg(test)]
mod depth_tests {
    use super::*;

    #[test]
    fn deep_parens_rejected_not_crashed() {
        let src = format!("{}1{}", "(".repeat(5000), ")".repeat(5000));
        let err = parse_expr(&src).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn deep_unary_chains_rejected() {
        let src = format!("{}x", "-".repeat(5000));
        assert!(parse_expr(&src).is_err());
        let src2 = format!("{}x", "not ".repeat(5000));
        assert!(parse_expr(&src2).is_err());
    }

    #[test]
    fn deep_nested_statements_rejected() {
        let mut body = String::new();
        for _ in 0..5000 {
            body.push_str("if 1 then ");
        }
        body.push_str("x := 1 ");
        for _ in 0..5000 {
            body.push_str("end ");
        }
        let src = format!("task T out x begin {body} end");
        assert!(parse_program(&src).is_err());
    }

    /// `1 + 1 + … + 1` with `terms` terms.
    fn chain(terms: usize) -> String {
        vec!["1"; terms].join(" + ")
    }

    #[test]
    fn a_chain_at_the_height_cap_parses_and_one_more_term_is_refused() {
        let cap = MAX_HEIGHT as usize;
        assert!(parse_expr(&chain(cap)).is_ok());
        let err = parse_expr(&chain(cap + 1)).unwrap_err();
        assert!(err.message.contains("deeper than 1000 levels"), "{err}");
        // At the operator that made the tree one level too high: the
        // `cap`-th `+`, after `cap` terms of "1 + ".
        assert_eq!(
            err.pos,
            Pos {
                line: 1,
                col: 4 * cap as u32 - 1
            }
        );
        let err = parse_expr(&chain(20_000)).unwrap_err();
        assert_eq!(
            err.pos,
            Pos {
                line: 1,
                col: 4 * cap as u32 - 1
            }
        );
    }

    #[test]
    fn the_height_counts_every_level_not_each_chain_alone() {
        // Two chains of 600, one inside the other: each under the cap,
        // the tree over it.
        let inner = format!("({})", chain(600));
        let src = format!("{inner} + {}", chain(599));
        let err = parse_expr(&src).unwrap_err();
        assert!(err.message.contains("deeper than"), "{err}");
        assert!(parse_expr(&format!("{inner} + {}", chain(300))).is_ok());
        // Unary operators, calls and indexing are levels too.
        let src = format!("abs({}) * -v[{}]", chain(999), chain(998));
        assert!(parse_expr(&src).is_err());
        assert!(parse_expr(&format!("abs({})", chain(999))).is_ok());
    }

    #[test]
    fn deep_power_chains_rejected() {
        let src = vec!["2"; 100_000].join("^");
        let err = parse_expr(&src).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert!(parse_expr(&vec!["2"; 100].join("^")).is_ok());
    }

    #[test]
    fn reasonable_nesting_accepted() {
        let src = format!("{}1 + 2{}", "(".repeat(100), ")".repeat(100));
        assert!(parse_expr(&src).is_ok());
    }
}

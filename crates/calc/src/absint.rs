//! Interval-domain abstract interpretation over PITS programs.
//!
//! One fixpoint walk produces two artifacts the design environment needs
//! *before* anybody presses "trial run":
//!
//! * **Safety findings** — reads of possibly-uninitialized variables,
//!   array indexes provably out of flowed bounds, definite IEEE domain
//!   errors (`sqrt` of a negative interval, division by a point zero),
//!   `while` loops with no decreasing variant, dead assignments and
//!   `out` variables left unwritten on some path. The analyze crate maps
//!   these onto the stable B04x diagnostic family.
//! * **A static cost interval** — [`StaticCost`] bounds the trial-run
//!   operation count ([`crate::interp::Outcome::ops`]) from below and
//!   above, using the *exact* tick model of the interpreter. Loops with
//!   inferable trip counts are either unrolled (point bounds within
//!   budget) or summarized with `trips × body` arithmetic; only genuinely
//!   unbounded loops fall back to [`LOOP_FACTOR`]. When
//!   `ops_lo == ops_hi` the estimate is `exact` and matches a clean trial
//!   run tick for tick.
//!
//! The domain is deliberately simple: every variable maps to an interval
//! of possible scalar values, an interval of possible array lengths, and
//! a definite-initialization flag (`No`/`Maybe`/`Yes`). Point intervals
//! degenerate to concrete execution (same f64 operations in the same
//! order as the tree-walker), which is what makes constant-bound kernels
//! analyze exactly.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{BinOp, Expr, Program, Stmt, UnOp};
use crate::builtins;
use crate::error::Pos;
use crate::value::Value;

/// Statement-visit budget for the analyzer: loop unrolling stops once the
/// walk has spent this many statement visits, falling back to the sound
/// summarized fixpoint.
pub const DEFAULT_BUDGET: u64 = 200_000;

/// Assumed trip count of loops whose bounds cannot be inferred
/// statically (`while` loops without a concrete model, `for` loops over
/// genuinely unknown ranges).
pub const LOOP_FACTOR: f64 = 10.0;

// ---------------------------------------------------------------------------
// Interval domain
// ---------------------------------------------------------------------------

/// A closed interval of f64 values, `lo <= hi`, never NaN.
///
/// `[-inf, inf]` is the top element ("any number"); NaN inputs widen to
/// top at construction so the invariant holds everywhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl Interval {
    /// The top element: any value.
    pub const TOP: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// Builds `[lo, hi]`, widening to top when the pair is NaN or inverted.
    pub fn new(lo: f64, hi: f64) -> Interval {
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval::TOP
        }
    }

    /// The singleton interval `[v, v]` (top when `v` is NaN).
    pub fn point(v: f64) -> Interval {
        Interval::new(v, v)
    }

    /// True when the interval is a single finite value.
    pub fn is_point(self) -> bool {
        self.lo == self.hi && self.lo.is_finite()
    }

    /// Least upper bound.
    pub fn join(self, other: Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Standard interval widening: bounds that grew jump to infinity.
    pub fn widen(self, newer: Interval) -> Interval {
        Interval::new(
            if newer.lo < self.lo {
                f64::NEG_INFINITY
            } else {
                self.lo
            },
            if newer.hi > self.hi {
                f64::INFINITY
            } else {
                self.hi
            },
        )
    }

    /// The interval after `f64::round` of every member (the interpreter's
    /// index / `for`-bound coercion).
    pub fn round(self) -> Interval {
        Interval::new(self.lo.round(), self.hi.round())
    }

    /// Truthiness under the calculator's "non-zero is true" rule:
    /// `Some(bool)` when every member agrees, `None` otherwise.
    pub fn truth(self) -> Option<bool> {
        if self.lo == 0.0 && self.hi == 0.0 {
            Some(false)
        } else if self.lo > 0.0 || self.hi < 0.0 {
            Some(true)
        } else {
            None
        }
    }

    /// True when `0` is a member.
    pub fn contains_zero(self) -> bool {
        self.lo <= 0.0 && 0.0 <= self.hi
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_point() {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// The concrete binary operation, bit-identical to the interpreter's.
fn concrete_bin(op: BinOp, l: f64, r: f64) -> f64 {
    let b = |c: bool| if c { 1.0 } else { 0.0 };
    match op {
        BinOp::Add => l + r,
        BinOp::Sub => l - r,
        BinOp::Mul => l * r,
        BinOp::Div => l / r,
        BinOp::Mod => l.rem_euclid(r),
        BinOp::Pow => l.powf(r),
        BinOp::Eq => b(l == r),
        BinOp::Ne => b(l != r),
        BinOp::Lt => b(l < r),
        BinOp::Le => b(l <= r),
        BinOp::Gt => b(l > r),
        BinOp::Ge => b(l >= r),
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops are handled by the walker"),
    }
}

/// Abstract transfer for a (non-short-circuit) binary operator.
fn abs_bin(op: BinOp, l: Interval, r: Interval) -> Interval {
    if l.is_point() && r.is_point() {
        return Interval::point(concrete_bin(op, l.lo, r.lo));
    }
    let four = |f: fn(f64, f64) -> f64| {
        let c = [f(l.lo, r.lo), f(l.lo, r.hi), f(l.hi, r.lo), f(l.hi, r.hi)];
        if c.iter().any(|v| v.is_nan()) {
            Interval::TOP
        } else {
            Interval::new(
                c.iter().copied().fold(f64::INFINITY, f64::min),
                c.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            )
        }
    };
    match op {
        BinOp::Add => Interval::new(l.lo + r.lo, l.hi + r.hi),
        BinOp::Sub => Interval::new(l.lo - r.hi, l.hi - r.lo),
        BinOp::Mul => four(|a, b| a * b),
        BinOp::Div => {
            if r.contains_zero() {
                Interval::TOP
            } else {
                four(|a, b| a / b)
            }
        }
        BinOp::Mod => {
            // rem_euclid lands in [0, |r|) for r != 0, NaN for r == 0.
            if r.contains_zero() {
                Interval::TOP
            } else {
                Interval::new(0.0, r.lo.abs().max(r.hi.abs()))
            }
        }
        BinOp::Pow => Interval::TOP,
        BinOp::Eq => {
            if l.hi < r.lo || l.lo > r.hi {
                Interval::point(0.0)
            } else {
                Interval::new(0.0, 1.0)
            }
        }
        BinOp::Ne => {
            if l.hi < r.lo || l.lo > r.hi {
                Interval::point(1.0)
            } else {
                Interval::new(0.0, 1.0)
            }
        }
        BinOp::Lt => cmp_interval(l.hi < r.lo, l.lo >= r.hi),
        BinOp::Le => cmp_interval(l.hi <= r.lo, l.lo > r.hi),
        BinOp::Gt => cmp_interval(l.lo > r.hi, l.hi <= r.lo),
        BinOp::Ge => cmp_interval(l.lo >= r.hi, l.hi < r.lo),
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops are handled by the walker"),
    }
}

fn cmp_interval(definitely: bool, definitely_not: bool) -> Interval {
    if definitely {
        Interval::point(1.0)
    } else if definitely_not {
        Interval::point(0.0)
    } else {
        Interval::new(0.0, 1.0)
    }
}

// ---------------------------------------------------------------------------
// Abstract values and environments
// ---------------------------------------------------------------------------

/// An abstract value: what we know about one variable's runtime value.
///
/// `num` is the range of possible *scalar* values (`None` = definitely an
/// array), `len` the range of possible *array lengths* (`None` =
/// definitely a scalar). Both `Some` means "could be either" — the
/// seeding for unknown inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsVal {
    /// Possible scalar value range; `None` when definitely an array.
    pub num: Option<Interval>,
    /// Possible array length range; `None` when definitely a scalar.
    pub len: Option<Interval>,
    /// True when `len` came from a design-level storage declaration
    /// rather than value flow — bounds findings against declared sizes
    /// are reported at warning severity.
    pub len_declared: bool,
}

impl AbsVal {
    /// A definite scalar with the given value range.
    pub fn scalar(i: Interval) -> AbsVal {
        AbsVal {
            num: Some(i),
            len: None,
            len_declared: false,
        }
    }

    /// A definite array with the given length range.
    pub fn array(len: Interval) -> AbsVal {
        AbsVal {
            num: None,
            len: Some(Interval::new(len.lo.max(0.0), len.hi)),
            len_declared: false,
        }
    }

    /// Completely unknown: any scalar or any array.
    pub fn any() -> AbsVal {
        AbsVal {
            num: Some(Interval::TOP),
            len: Some(Interval::new(0.0, f64::INFINITY)),
            len_declared: false,
        }
    }

    /// The bottom element (join identity; value of an unassigned name).
    pub fn bottom() -> AbsVal {
        AbsVal {
            num: None,
            len: None,
            len_declared: false,
        }
    }

    /// Abstracts a concrete runtime value.
    pub fn of_value(v: &Value) -> AbsVal {
        match v {
            Value::Num(n) => AbsVal::scalar(Interval::point(*n)),
            Value::Array(a) => AbsVal::array(Interval::point(a.len() as f64)),
        }
    }

    /// Least upper bound.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        AbsVal {
            num: opt_join(self.num, other.num, Interval::join),
            len: opt_join(self.len, other.len, Interval::join),
            len_declared: self.len_declared || other.len_declared,
        }
    }

    fn widen(&self, newer: &AbsVal) -> AbsVal {
        AbsVal {
            num: opt_join(self.num, newer.num, Interval::widen),
            len: opt_join(self.len, newer.len, Interval::widen),
            len_declared: self.len_declared || newer.len_declared,
        }
    }

    /// The scalar range, top when unknown or not a scalar.
    fn num_or_top(&self) -> Interval {
        self.num.unwrap_or(Interval::TOP)
    }
}

fn opt_join(
    a: Option<Interval>,
    b: Option<Interval>,
    f: fn(Interval, Interval) -> Interval,
) -> Option<Interval> {
    match (a, b) {
        (None, x) => x,
        (x, None) => x,
        (Some(x), Some(y)) => Some(f(x, y)),
    }
}

/// Definite-initialization lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Init {
    /// Unassigned on every path.
    No,
    /// Assigned on some paths only.
    Maybe,
    /// Assigned on every path.
    Yes,
}

impl Init {
    fn join(self, other: Init) -> Init {
        if self == other {
            self
        } else {
            Init::Maybe
        }
    }
}

/// Per-variable analysis state.
#[derive(Debug, Clone, PartialEq)]
pub struct VarState {
    /// What we know about the value.
    pub val: AbsVal,
    /// Whether the variable is definitely assigned.
    pub init: Init,
}

impl VarState {
    fn assigned(val: AbsVal) -> VarState {
        VarState {
            val,
            init: Init::Yes,
        }
    }
}

/// The abstract environment: variable name → state. Absent names are
/// unassigned (`Init::No`, bottom value).
pub type Env = BTreeMap<String, VarState>;

fn env_get<'e>(env: &'e Env, name: &str) -> Option<&'e VarState> {
    env.get(name)
}

fn join_env(a: &Env, b: &Env) -> Env {
    merge_env(a, b, false)
}

fn widen_env(older: &Env, newer: &Env) -> Env {
    merge_env(older, newer, true)
}

fn merge_env(a: &Env, b: &Env, widen: bool) -> Env {
    let mut out = Env::new();
    let keys: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    let bottom = VarState {
        val: AbsVal::bottom(),
        init: Init::No,
    };
    for k in keys {
        let va = a.get(k).unwrap_or(&bottom);
        let vb = b.get(k).unwrap_or(&bottom);
        let val = if widen {
            va.val.widen(&vb.val)
        } else {
            va.val.join(&vb.val)
        };
        out.insert(
            k.clone(),
            VarState {
                val,
                init: va.init.join(vb.init),
            },
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// What a finding is about.
#[derive(Debug, Clone, PartialEq)]
pub enum FindingKind {
    /// A variable is read before it is (definitely) assigned.
    UninitRead {
        /// The variable read.
        var: String,
    },
    /// An array index falls outside the known length range.
    IndexOut {
        /// The array variable.
        var: String,
        /// The (rounded) index range used.
        index: Interval,
        /// The known length range.
        len: Interval,
        /// True when the length came from a storage declaration.
        declared: bool,
    },
    /// Division by a definite zero.
    DivByZero,
    /// A builtin applied wholly outside its real domain.
    Domain {
        /// The builtin name (`sqrt`, `ln`, `log10`).
        func: String,
    },
    /// A `while` loop whose condition variables are never assigned in
    /// the body — no decreasing variant, step-limit risk.
    NoVariant {
        /// The condition's variables.
        vars: Vec<String>,
    },
    /// An assignment whose value is never read afterwards.
    DeadAssign {
        /// The assigned variable.
        var: String,
    },
    /// An `out` variable not written on some (or any) path.
    OutputUnset {
        /// The output variable.
        var: String,
    },
}

impl FindingKind {
    /// Short classification tag (stable across runs, used for dedup).
    pub fn tag(&self) -> &'static str {
        match self {
            FindingKind::UninitRead { .. } => "uninit-read",
            FindingKind::IndexOut { .. } => "index-out",
            FindingKind::DivByZero => "div-by-zero",
            FindingKind::Domain { .. } => "domain",
            FindingKind::NoVariant { .. } => "no-variant",
            FindingKind::DeadAssign { .. } => "dead-assign",
            FindingKind::OutputUnset { .. } => "output-unset",
        }
    }

    fn subject(&self) -> &str {
        match self {
            FindingKind::UninitRead { var }
            | FindingKind::IndexOut { var, .. }
            | FindingKind::DeadAssign { var }
            | FindingKind::OutputUnset { var } => var,
            FindingKind::Domain { func } => func,
            FindingKind::DivByZero | FindingKind::NoVariant { .. } => "",
        }
    }
}

/// One analysis finding; the analyze crate maps these onto B04x codes.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// What was found.
    pub kind: FindingKind,
    /// Source position, when the enclosing statement carries one.
    pub pos: Option<Pos>,
    /// True when the problem occurs on every run reaching this point
    /// (abstract state degenerate to concrete); false = "possibly".
    pub definite: bool,
}

// ---------------------------------------------------------------------------
// Cost
// ---------------------------------------------------------------------------

/// Static bounds on a program's trial-run operation count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticCost {
    /// Lower bound on `Outcome::ops` for any clean run.
    pub ops_lo: f64,
    /// Upper bound (`f64::INFINITY` for unbounded loops).
    pub ops_hi: f64,
    /// Point estimate (the scheduler weight; equals the bounds when
    /// `exact`, otherwise a heuristic blend using
    /// [`LOOP_FACTOR`] for unbounded loops).
    pub est: f64,
    /// True when `ops_lo == ops_hi` and finite: every clean run costs
    /// exactly this many operations.
    pub exact: bool,
}

/// Internal cost accumulator (a `StaticCost` without the `exact` cache).
#[derive(Debug, Clone, Copy)]
struct Cost {
    lo: f64,
    hi: f64,
    est: f64,
}

impl Cost {
    const ZERO: Cost = Cost {
        lo: 0.0,
        hi: 0.0,
        est: 0.0,
    };

    fn point(v: f64) -> Cost {
        Cost {
            lo: v,
            hi: v,
            est: v,
        }
    }

    fn add(self, o: Cost) -> Cost {
        Cost {
            lo: self.lo + o.lo,
            hi: self.hi + o.hi,
            est: self.est + o.est,
        }
    }

    fn join(self, o: Cost) -> Cost {
        Cost {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
            est: 0.5 * (self.est + o.est),
        }
    }
}

// ---------------------------------------------------------------------------
// Analysis driver
// ---------------------------------------------------------------------------

/// Options for [`analyze_with`].
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Abstract seeds for `in` variables (missing inputs seed to
    /// [`AbsVal::any`]). Seeding a singleton turns the analysis into
    /// concrete execution of everything that depends on it.
    pub inputs: BTreeMap<String, AbsVal>,
    /// Statement-visit budget bounding loop unrolling (default
    /// [`DEFAULT_BUDGET`]).
    pub budget: u64,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            inputs: BTreeMap::new(),
            budget: DEFAULT_BUDGET,
        }
    }
}

/// The result of analyzing one program.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Static operation-count bounds (the scheduler-facing weight).
    pub cost: StaticCost,
    /// Safety findings, deduplicated, in source order where positions
    /// are known.
    pub findings: Vec<Finding>,
}

/// Analyzes `prog` with unknown inputs and the default budget.
pub fn analyze(prog: &Program) -> Analysis {
    analyze_with(prog, &AnalysisOptions::default())
}

/// Analyzes `prog` under explicit options.
pub fn analyze_with(prog: &Program, opts: &AnalysisOptions) -> Analysis {
    let mut env = Env::new();
    for (name, v) in builtins::CONSTANTS {
        env.insert(
            name.to_string(),
            VarState::assigned(AbsVal::scalar(Interval::point(v))),
        );
    }
    for name in &prog.inputs {
        let val = opts.inputs.get(name).cloned().unwrap_or_else(AbsVal::any);
        env.insert(name.clone(), VarState::assigned(val));
    }
    let mut w = Walker {
        findings: Vec::new(),
        steps: 0,
        budget: opts.budget.max(1),
    };
    let mut ctx = Ctx {
        reached: true,
        report: true,
        pos: None,
    };
    let cost = w.exec_block(&prog.body, &mut env, &mut ctx);

    // `out` variables must be assigned on every path (B044 family).
    for out in &prog.outputs {
        let init = env_get(&env, out).map(|v| v.init).unwrap_or(Init::No);
        let pos = prog.decl_pos.get(out).copied();
        match init {
            Init::Yes => {}
            Init::Maybe => w.findings.push(Finding {
                kind: FindingKind::OutputUnset { var: out.clone() },
                pos,
                definite: false,
            }),
            // Never assigned at all is already an interface error (B013);
            // only flag it here when the body *does* mention the variable
            // but every mention sits on a dead or partial path.
            Init::No => {
                if syntactically_assigns(&prog.body, out) {
                    w.findings.push(Finding {
                        kind: FindingKind::OutputUnset { var: out.clone() },
                        pos,
                        definite: ctx.reached,
                    });
                }
            }
        }
    }

    // Dead-assignment pass (backward liveness; B044 family).
    let mut live: BTreeSet<String> = prog.outputs.iter().cloned().collect();
    w.live_block(&prog.body, &mut live, true);

    let findings = normalize(w.findings);
    let exact = cost.lo == cost.hi && cost.lo.is_finite();
    Analysis {
        cost: StaticCost {
            ops_lo: cost.lo,
            ops_hi: cost.hi,
            est: cost.est,
            exact,
        },
        findings,
    }
}

/// Deduplicates findings by (kind, subject, position), merging "possible"
/// repeats of one site into a single entry (definite wins; index/length
/// intervals join).
fn normalize(findings: Vec<Finding>) -> Vec<Finding> {
    // Site key: (kind tag, subject, source position).
    type SiteKey = (String, String, Option<(u32, u32)>);
    let mut out: Vec<Finding> = Vec::new();
    let mut index: BTreeMap<SiteKey, usize> = BTreeMap::new();
    for f in findings {
        let key = (
            f.kind.tag().to_string(),
            f.kind.subject().to_string(),
            f.pos.map(|p| (p.line, p.col)),
        );
        match index.get(&key) {
            Some(&i) => {
                let prev = &mut out[i];
                prev.definite |= f.definite;
                if let (
                    FindingKind::IndexOut {
                        index: pi,
                        len: pl,
                        declared: pd,
                        ..
                    },
                    FindingKind::IndexOut {
                        index: ni,
                        len: nl,
                        declared: nd,
                        ..
                    },
                ) = (&mut prev.kind, &f.kind)
                {
                    *pi = pi.join(*ni);
                    *pl = pl.join(*nl);
                    *pd |= *nd;
                }
            }
            None => {
                index.insert(key, out.len());
                out.push(f);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The walker
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Ctx {
    /// True while the abstract state is known to coincide with every
    /// concrete run reaching this point (no indeterminate branch taken,
    /// no summarized loop, no prior definite abort). Findings raised
    /// while `reached` are *definite*; otherwise "possible".
    reached: bool,
    /// False during non-final fixpoint rounds so repeated body walks do
    /// not duplicate findings.
    report: bool,
    /// Position of the innermost enclosing statement that carries one.
    pos: Option<Pos>,
}

struct Walker {
    findings: Vec<Finding>,
    steps: u64,
    budget: u64,
}

impl Walker {
    fn finding(&mut self, kind: FindingKind, ctx: &Ctx, definite_here: bool) {
        if ctx.report {
            self.findings.push(Finding {
                kind,
                pos: ctx.pos,
                definite: definite_here && ctx.reached,
            });
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt], env: &mut Env, ctx: &mut Ctx) -> Cost {
        let mut cost = Cost::ZERO;
        for s in stmts {
            cost = cost.add(self.exec_stmt(s, env, ctx));
        }
        cost
    }

    fn exec_stmt(&mut self, s: &Stmt, env: &mut Env, ctx: &mut Ctx) -> Cost {
        self.steps += 1;
        // Every statement entry ticks once in the interpreter.
        let mut cost = Cost::point(1.0);
        match s {
            Stmt::Assign { var, expr, pos } => {
                ctx.pos = Some(*pos);
                let (v, c) = self.eval(expr, env, ctx);
                cost = cost.add(c);
                env.insert(var.clone(), VarState::assigned(v));
            }
            Stmt::AssignIndex {
                var,
                index,
                expr,
                pos,
            } => {
                ctx.pos = Some(*pos);
                let (iv, ic) = self.eval(index, env, ctx);
                let (_, vc) = self.eval(expr, env, ctx);
                cost = cost.add(ic).add(vc);
                // The store itself never ticks; the interpreter then
                // requires the array to exist and the index in range.
                let arr = self.check_read(var, env, ctx);
                self.check_bounds(var, &iv, &arr, ctx);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                pos,
            } => {
                ctx.pos = Some(*pos);
                let (cv, cc) = self.eval(cond, env, ctx);
                cost = cost.add(cc);
                match cv.num_or_top().truth() {
                    Some(true) => cost = cost.add(self.exec_block(then_body, env, ctx)),
                    Some(false) => cost = cost.add(self.exec_block(else_body, env, ctx)),
                    None => {
                        let mut then_env = env.clone();
                        let mut tctx = Ctx {
                            reached: false,
                            ..*ctx
                        };
                        let tc = self.exec_block(then_body, &mut then_env, &mut tctx);
                        let mut ectx = Ctx {
                            reached: false,
                            ..*ctx
                        };
                        let ec = self.exec_block(else_body, env, &mut ectx);
                        *env = join_env(&then_env, env);
                        cost = cost.add(tc.join(ec));
                    }
                }
            }
            Stmt::While { cond, body, pos } => {
                ctx.pos = Some(*pos);
                let mut trial_env = env.clone();
                let mut trial_ctx = *ctx;
                let fsnap = self.findings.len();
                match self.concrete_while(cond, body, &mut trial_env, &mut trial_ctx) {
                    Some(c) => {
                        *env = trial_env;
                        *ctx = trial_ctx;
                        cost = cost.add(c);
                    }
                    None => {
                        self.findings.truncate(fsnap);
                        cost = cost.add(self.summarized_while(cond, body, env, ctx));
                    }
                }
            }
            Stmt::For {
                var,
                from,
                to,
                body,
                pos,
            } => {
                ctx.pos = Some(*pos);
                let (fv, fc) = self.eval(from, env, ctx);
                let (tv, tc) = self.eval(to, env, ctx);
                cost = cost.add(fc).add(tc);
                cost = cost.add(self.exec_for(var, &fv, &tv, body, env, ctx));
            }
            Stmt::Print { expr: e, pos } => {
                ctx.pos = Some(*pos);
                let (_, c) = self.eval(e, env, ctx);
                cost = cost.add(c);
            }
        }
        cost
    }

    /// The `for` loop after bound evaluation: unroll point bounds within
    /// budget, otherwise summarize with inferred trip-count arithmetic.
    fn exec_for(
        &mut self,
        var: &str,
        fv: &AbsVal,
        tv: &AbsVal,
        body: &[Stmt],
        env: &mut Env,
        ctx: &mut Ctx,
    ) -> Cost {
        let f = fv.num_or_top().round();
        let t = tv.num_or_top().round();
        let max_trips = (t.hi - f.lo + 1.0).max(0.0);
        let min_trips = (t.lo - f.hi + 1.0).max(0.0);
        // Set when the unroll proves the concrete loop never terminates
        // (the `i += 1.0` increment stalls): every run ends in StepLimit.
        let mut diverges = false;

        if f.is_point() && t.is_point() {
            let trips = max_trips;
            let per_iter = (count_stmts(body) + 1) as f64;
            if trips * per_iter <= (self.budget.saturating_sub(self.steps)) as f64 {
                // UNROLL: concrete iteration, exact cost, per-iteration
                // singleton loop variable (triangular nests stay exact).
                // Discarded like `concrete_while`'s trial when it cannot
                // finish: the summarized path re-derives findings.
                let pre_env = env.clone();
                let pre_ctx = *ctx;
                let fsnap = self.findings.len();
                let mut cost = Cost::ZERO;
                let mut i = f.lo;
                let mut finished = true;
                while i <= t.hi {
                    // The trip pre-check can under-count (nested loops grow
                    // inner bounds); re-check so unrolling never outruns the
                    // budget.
                    if self.steps > self.budget {
                        finished = false;
                        break;
                    }
                    env.insert(
                        var.to_string(),
                        VarState::assigned(AbsVal::scalar(Interval::point(i))),
                    );
                    cost = cost
                        .add(self.exec_block(body, env, ctx))
                        .add(Cost::point(1.0));
                    let next = i + 1.0;
                    if next == i {
                        // Past 2^53 the float step is a no-op: the
                        // interpreter re-runs this iteration until its
                        // step limit, so the loop definitely diverges.
                        finished = false;
                        diverges = true;
                        break;
                    }
                    i = next;
                }
                if finished {
                    return cost;
                }
                *env = pre_env;
                *ctx = pre_ctx;
                self.findings.truncate(fsnap);
            }
        }
        if max_trips == 0.0 {
            return Cost::ZERO; // never runs; loop variable stays unset
        }

        // SUMMARIZE: fixpoint over the body with the loop variable pinned
        // to its full range, then trip-count arithmetic. Point trip
        // counts with point body costs stay exact without unrolling.
        let pre = env.clone();
        let range = Interval::new(f.lo, t.hi);
        let body_cost = self.fix(body, env, ctx, Some((var, range)));
        if min_trips == 0.0 {
            *env = join_env(env, &pre);
        } else {
            // The loop definitely executes, so the loop variable and every
            // name assigned on all paths through the body are initialized
            // afterwards; `fix` joined with the pre-loop state and demoted
            // them to `Maybe`.
            let mut definite = must_assigned_vars(body);
            definite.insert(var.to_string());
            for v in definite {
                if let Some(vs) = env.get_mut(&v) {
                    vs.init = Init::Yes;
                }
            }
        }
        let trips_est = if max_trips.is_finite() {
            0.5 * (min_trips + max_trips)
        } else {
            min_trips.max(LOOP_FACTOR)
        };
        let mut cost = Cost {
            lo: min_trips * (body_cost.lo + 1.0),
            hi: max_trips * (body_cost.hi + 1.0),
            est: trips_est * (body_cost.est + 1.0),
        };
        if diverges {
            // No clean run exists: the cost is unbounded (never `exact`)
            // and nothing after the loop is concretely reached.
            cost.hi = f64::INFINITY;
            ctx.reached = false;
        }
        cost
    }

    /// Runs a `while` loop concretely while the condition stays
    /// determinate and the budget holds. Returns `None` (with `env`,
    /// `ctx` and findings to be discarded by the caller) when the loop
    /// must be summarized instead.
    fn concrete_while(
        &mut self,
        cond: &Expr,
        body: &[Stmt],
        env: &mut Env,
        ctx: &mut Ctx,
    ) -> Option<Cost> {
        let mut cost = Cost::ZERO;
        loop {
            self.steps += 1;
            if self.steps > self.budget {
                return None;
            }
            let (cv, cc) = self.eval(cond, env, ctx);
            cost = cost.add(cc);
            match cv.num_or_top().truth() {
                Some(false) => return Some(cost),
                Some(true) => {
                    if !ctx.reached {
                        // A definite abort inside the loop: the interval
                        // model may never terminate it. Summarize.
                        return None;
                    }
                    cost = cost.add(self.exec_block(body, env, ctx));
                    cost = cost.add(Cost::point(1.0));
                }
                None => return None,
            }
        }
    }

    /// Sound summary of a `while` loop: one reported condition
    /// evaluation, a widening fixpoint over the body, unbounded upper
    /// cost, `LOOP_FACTOR` point estimate.
    fn summarized_while(
        &mut self,
        cond: &Expr,
        body: &[Stmt],
        env: &mut Env,
        ctx: &mut Ctx,
    ) -> Cost {
        let cond_vars = expr_vars(cond);
        let body_assigns = assigned_vars(body);
        if cond_vars.iter().all(|v| !body_assigns.contains(v)) {
            // No condition variable is ever assigned in the body (this
            // includes constant guards like `while 1`): the interval
            // model has no decreasing variant at all.
            self.finding(
                FindingKind::NoVariant {
                    vars: cond_vars.into_iter().collect(),
                },
                ctx,
                false,
            );
        }

        let (cv, cc) = self.eval(cond, env, ctx);
        if cv.num_or_top().truth() == Some(false) {
            return cc; // loop never entered
        }
        let pre = env.clone();
        let body_cost = self.fix(body, env, ctx, None);
        *env = join_env(env, &pre);
        ctx.reached = false;
        Cost {
            lo: cc.lo,
            hi: f64::INFINITY,
            est: (LOOP_FACTOR + 1.0) * cc.est + LOOP_FACTOR * (body_cost.est + 1.0),
        }
    }

    /// Widening fixpoint over a loop body. Mutates `env` into a
    /// post-fixpoint (the loop invariant joined with the final reporting
    /// pass) and returns the body cost measured on the stabilized state.
    fn fix(
        &mut self,
        body: &[Stmt],
        env: &mut Env,
        ctx: &Ctx,
        loop_var: Option<(&str, Interval)>,
    ) -> Cost {
        let seed = |e: &mut Env| {
            if let Some((v, iv)) = loop_var {
                e.insert(v.to_string(), VarState::assigned(AbsVal::scalar(iv)));
            }
        };
        let mut cur = env.clone();
        let mut stable = false;
        for round in 0..12 {
            let mut trial = cur.clone();
            seed(&mut trial);
            let mut c = Ctx {
                reached: false,
                report: false,
                pos: ctx.pos,
            };
            let _ = self.exec_block(body, &mut trial, &mut c);
            let joined = join_env(&cur, &trial);
            if joined == cur {
                stable = true;
                break;
            }
            cur = if round == 0 {
                joined
            } else {
                widen_env(&cur, &joined)
            };
        }
        if !stable {
            // Provably post-fixpoint fallback: every body-assigned
            // variable goes fully unknown.
            for v in assigned_vars(body) {
                cur.insert(
                    v,
                    VarState {
                        val: AbsVal::any(),
                        init: Init::Maybe,
                    },
                );
            }
        }
        // One reporting pass over the stabilized state.
        let mut report_env = cur.clone();
        seed(&mut report_env);
        let mut c = Ctx {
            reached: false,
            report: ctx.report,
            pos: ctx.pos,
        };
        let body_cost = self.exec_block(body, &mut report_env, &mut c);
        *env = join_env(&cur, &report_env);
        body_cost
    }

    /// Checks a variable read for definite initialization, recording a
    /// finding when it may be unset. Returns the abstract value.
    fn check_read(&mut self, var: &str, env: &Env, ctx: &mut Ctx) -> AbsVal {
        match env_get(env, var) {
            Some(vs) => {
                match vs.init {
                    Init::Yes => {}
                    Init::Maybe => {
                        self.finding(FindingKind::UninitRead { var: var.into() }, ctx, false);
                    }
                    Init::No => {
                        self.finding(FindingKind::UninitRead { var: var.into() }, ctx, true);
                        ctx.reached = false;
                    }
                }
                vs.val.clone()
            }
            None => {
                self.finding(FindingKind::UninitRead { var: var.into() }, ctx, true);
                ctx.reached = false;
                AbsVal::any()
            }
        }
    }

    /// Bounds-checks an index against the array's known length range.
    fn check_bounds(&mut self, var: &str, index: &AbsVal, arr: &AbsVal, ctx: &mut Ctx) {
        let len = match arr.len {
            Some(l) => l,
            None => return, // definitely a scalar: NotAnArray, not B041
        };
        let idx = index.num_or_top().round();
        let definite = idx.hi < 1.0 || idx.lo > len.hi;
        // "Possibly out" measures against the *minimum* feasible length
        // (an index of 4 into len ∈ [3,5] can fail at runtime) — but only
        // when the length range carries real information; a fully unknown
        // length ([0, ∞], the unseeded-input default) would flag every
        // access.
        let informative = len.hi.is_finite() || len.lo > 0.0;
        let possible = idx.lo < 1.0 || (informative && idx.hi > len.lo);
        if !possible && !definite {
            return;
        }
        let declared = arr.len_declared;
        self.finding(
            FindingKind::IndexOut {
                var: var.into(),
                index: idx,
                len,
                declared,
            },
            ctx,
            definite && !declared,
        );
        if definite && !declared && ctx.reached {
            ctx.reached = false;
        }
    }

    fn eval(&mut self, expr: &Expr, env: &mut Env, ctx: &mut Ctx) -> (AbsVal, Cost) {
        match expr {
            Expr::Num(v) => (AbsVal::scalar(Interval::point(*v)), Cost::ZERO),
            Expr::Var(name) => (self.check_read(name, env, ctx), Cost::ZERO),
            Expr::Index(name, idx) => {
                let (iv, ic) = self.eval(idx, env, ctx);
                let arr = self.check_read(name, env, ctx);
                self.check_bounds(name, &iv, &arr, ctx);
                // Element values are not tracked; the read ticks once.
                (AbsVal::scalar(Interval::TOP), ic.add(Cost::point(1.0)))
            }
            Expr::Call(name, args) => self.eval_call(name, args, env, ctx),
            Expr::Bin(op, lhs, rhs) => match op {
                BinOp::And | BinOp::Or => self.eval_logic(*op, lhs, rhs, env, ctx),
                _ => {
                    let (lv, lc) = self.eval(lhs, env, ctx);
                    let (rv, rc) = self.eval(rhs, env, ctx);
                    let l = lv.num_or_top();
                    let r = rv.num_or_top();
                    if *op == BinOp::Div && r.lo == 0.0 && r.hi == 0.0 {
                        self.finding(FindingKind::DivByZero, ctx, true);
                    }
                    (
                        AbsVal::scalar(abs_bin(*op, l, r)),
                        lc.add(rc).add(Cost::point(1.0)),
                    )
                }
            },
            Expr::Un(op, inner) => {
                let (v, c) = self.eval(inner, env, ctx);
                let i = v.num_or_top();
                let out = match op {
                    UnOp::Neg => Interval::new(-i.hi, -i.lo),
                    UnOp::Not => match i.truth() {
                        Some(t) => Interval::point(if t { 0.0 } else { 1.0 }),
                        None => Interval::new(0.0, 1.0),
                    },
                };
                (AbsVal::scalar(out), c.add(Cost::point(1.0)))
            }
        }
    }

    /// `and` / `or` with the interpreter's short-circuit tick placement:
    /// left operand, one tick, then the right operand only when needed.
    fn eval_logic(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        env: &mut Env,
        ctx: &mut Ctx,
    ) -> (AbsVal, Cost) {
        let (lv, lc) = self.eval(lhs, env, ctx);
        let mut cost = lc.add(Cost::point(1.0));
        let lt = lv.num_or_top().truth();
        let short = match (op, lt) {
            (BinOp::And, Some(false)) => Some(0.0),
            (BinOp::Or, Some(true)) => Some(1.0),
            _ => None,
        };
        if let Some(v) = short {
            return (AbsVal::scalar(Interval::point(v)), cost);
        }
        if lt.is_some() {
            // Right side definitely evaluated.
            let (rv, rc) = self.eval(rhs, env, ctx);
            cost = cost.add(rc);
            let out = match rv.num_or_top().truth() {
                Some(t) => Interval::point(if t { 1.0 } else { 0.0 }),
                None => Interval::new(0.0, 1.0),
            };
            return (AbsVal::scalar(out), cost);
        }
        // May or may not evaluate the right side: its findings are only
        // "possible", its cost only contributes to the upper bound.
        let saved = ctx.reached;
        ctx.reached = false;
        let (_, rc) = self.eval(rhs, env, ctx);
        ctx.reached = saved;
        cost.hi += rc.hi;
        cost.est += 0.5 * rc.est;
        (AbsVal::scalar(Interval::new(0.0, 1.0)), cost)
    }

    fn eval_call(
        &mut self,
        name: &str,
        args: &[Expr],
        env: &mut Env,
        ctx: &mut Ctx,
    ) -> (AbsVal, Cost) {
        let b = match builtins::lookup(name) {
            Some(b) if args.len() == b.arity => b,
            // Unknown function / wrong arity: the interpreter aborts
            // before evaluating any argument.
            _ => {
                ctx.reached = false;
                return (AbsVal::any(), Cost::ZERO);
            }
        };
        let mut cost = Cost::ZERO;
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            let (v, c) = self.eval(a, env, ctx);
            cost = cost.add(c);
            vals.push(v);
        }
        cost = cost.add(Cost::point(b.cost as f64));

        // Definite IEEE domain escapes (still warnings: the calculator
        // completes with NaN/-inf, it does not abort).
        match name {
            "sqrt" => {
                if let Some(i) = vals[0].num {
                    if i.hi < 0.0 {
                        self.finding(FindingKind::Domain { func: name.into() }, ctx, true);
                    }
                }
            }
            "ln" | "log10" => {
                if let Some(i) = vals[0].num {
                    if i.hi <= 0.0 {
                        self.finding(FindingKind::Domain { func: name.into() }, ctx, true);
                    }
                }
            }
            _ => {}
        }

        (self.apply_builtin(name, &vals, ctx), cost)
    }

    /// Abstract builtin application. All-point scalar arguments take the
    /// concrete path through the real builtin implementation, so results
    /// are bit-identical to a trial run.
    fn apply_builtin(&mut self, name: &str, vals: &[AbsVal], ctx: &mut Ctx) -> AbsVal {
        let points: Option<Vec<Value>> = vals
            .iter()
            .map(|v| match (v.num, v.len) {
                (Some(i), None) if i.is_point() => Some(Value::Num(i.lo)),
                _ => None,
            })
            .collect();
        if let Some(args) = points {
            return match builtins::apply(name, &args) {
                Ok(v) => AbsVal::of_value(&v),
                Err(_) => {
                    // zeros(-1) and friends: a genuine runtime abort.
                    ctx.reached = false;
                    AbsVal::any()
                }
            };
        }
        let arg = |i: usize| vals.get(i).map(|v| v.num_or_top()).unwrap_or(Interval::TOP);
        let mono = |f: fn(f64) -> f64, i: Interval| AbsVal::scalar(Interval::new(f(i.lo), f(i.hi)));
        match name {
            "abs" => {
                let i = arg(0);
                AbsVal::scalar(if i.lo >= 0.0 {
                    i
                } else if i.hi <= 0.0 {
                    Interval::new(-i.hi, -i.lo)
                } else {
                    Interval::new(0.0, i.lo.abs().max(i.hi.abs()))
                })
            }
            "floor" => mono(f64::floor, arg(0)),
            "ceil" => mono(f64::ceil, arg(0)),
            "round" => mono(f64::round, arg(0)),
            "exp" => mono(f64::exp, arg(0)),
            "atan" => mono(f64::atan, arg(0)),
            "sqrt" => {
                let i = arg(0);
                if i.lo >= 0.0 {
                    mono(f64::sqrt, i)
                } else {
                    AbsVal::scalar(Interval::TOP)
                }
            }
            "ln" => {
                let i = arg(0);
                if i.lo > 0.0 {
                    mono(f64::ln, i)
                } else {
                    AbsVal::scalar(Interval::TOP)
                }
            }
            "log10" => {
                let i = arg(0);
                if i.lo > 0.0 {
                    mono(f64::log10, i)
                } else {
                    AbsVal::scalar(Interval::TOP)
                }
            }
            "sin" | "cos" => AbsVal::scalar(Interval::new(-1.0, 1.0)),
            "atan2" => AbsVal::scalar(Interval::new(-std::f64::consts::PI, std::f64::consts::PI)),
            "min" => {
                let (a, b) = (arg(0), arg(1));
                AbsVal::scalar(Interval::new(a.lo.min(b.lo), a.hi.min(b.hi)))
            }
            "max" => {
                let (a, b) = (arg(0), arg(1));
                AbsVal::scalar(Interval::new(a.lo.max(b.lo), a.hi.max(b.hi)))
            }
            "len" => {
                let l = vals
                    .first()
                    .and_then(|v| v.len)
                    .unwrap_or_else(|| Interval::new(0.0, f64::INFINITY));
                AbsVal::scalar(l)
            }
            "zeros" => AbsVal::array(arg(0).round()),
            "fill" => AbsVal::array(arg(0).round()),
            _ => AbsVal::scalar(Interval::TOP),
        }
    }

    // -- backward liveness (dead-assignment detection) ---------------------

    fn live_block(&mut self, stmts: &[Stmt], live: &mut BTreeSet<String>, report: bool) {
        for s in stmts.iter().rev() {
            self.live_stmt(s, live, report);
        }
    }

    fn live_stmt(&mut self, s: &Stmt, live: &mut BTreeSet<String>, report: bool) {
        match s {
            Stmt::Assign { var, expr, pos } => {
                if report && !live.contains(var) {
                    self.findings.push(Finding {
                        kind: FindingKind::DeadAssign { var: var.clone() },
                        pos: Some(*pos),
                        definite: false,
                    });
                }
                live.remove(var);
                collect_expr_vars(expr, live);
            }
            Stmt::AssignIndex {
                var, index, expr, ..
            } => {
                // Element stores are use + def: the rest of the array
                // survives, so the target is never considered dead.
                live.insert(var.clone());
                collect_expr_vars(index, live);
                collect_expr_vars(expr, live);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let mut then_live = live.clone();
                self.live_block(then_body, &mut then_live, report);
                self.live_block(else_body, live, report);
                live.extend(then_live);
                collect_expr_vars(cond, live);
            }
            Stmt::While { cond, body, .. } => {
                self.live_loop(body, live, report, cond, None);
            }
            Stmt::For {
                var,
                from,
                to,
                body,
                ..
            } => {
                self.live_loop(body, live, report, from, Some(to));
                // The loop variable is written by the loop itself and
                // stays readable after it; treat it as live-in so prior
                // assignments to it are (conservatively) kept.
                live.insert(var.clone());
            }
            Stmt::Print { expr: e, .. } => collect_expr_vars(e, live),
        }
    }

    /// Live-variable fixpoint for a loop body plus its guard expressions.
    fn live_loop(
        &mut self,
        body: &[Stmt],
        live: &mut BTreeSet<String>,
        report: bool,
        guard: &Expr,
        extra_guard: Option<&Expr>,
    ) {
        let mut cur = live.clone();
        collect_expr_vars(guard, &mut cur);
        if let Some(g) = extra_guard {
            collect_expr_vars(g, &mut cur);
        }
        loop {
            let mut trial = cur.clone();
            self.live_block(body, &mut trial, false);
            trial.extend(cur.iter().cloned());
            if trial == cur {
                break;
            }
            cur = trial;
        }
        let mut r = cur.clone();
        self.live_block(body, &mut r, report);
        *live = cur;
    }
}

// ---------------------------------------------------------------------------
// Syntactic helpers
// ---------------------------------------------------------------------------

fn count_stmts(stmts: &[Stmt]) -> u64 {
    stmts
        .iter()
        .map(|s| {
            1 + match s {
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => count_stmts(then_body) + count_stmts(else_body),
                Stmt::While { body, .. } | Stmt::For { body, .. } => count_stmts(body),
                _ => 0,
            }
        })
        .sum()
}

fn collect_expr_vars(e: &Expr, out: &mut BTreeSet<String>) {
    match e {
        Expr::Num(_) => {}
        Expr::Var(v) => {
            out.insert(v.clone());
        }
        Expr::Index(v, idx) => {
            out.insert(v.clone());
            collect_expr_vars(idx, out);
        }
        Expr::Call(_, args) => {
            for a in args {
                collect_expr_vars(a, out);
            }
        }
        Expr::Bin(_, l, r) => {
            collect_expr_vars(l, out);
            collect_expr_vars(r, out);
        }
        Expr::Un(_, inner) => collect_expr_vars(inner, out),
    }
}

fn expr_vars(e: &Expr) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    collect_expr_vars(e, &mut out);
    out
}

/// Variables assigned anywhere (syntactically) in a statement list.
fn assigned_vars(stmts: &[Stmt]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    collect_assigned(stmts, &mut out);
    out
}

fn collect_assigned(stmts: &[Stmt], out: &mut BTreeSet<String>) {
    for s in stmts {
        match s {
            Stmt::Assign { var, .. } | Stmt::AssignIndex { var, .. } => {
                out.insert(var.clone());
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_assigned(then_body, out);
                collect_assigned(else_body, out);
            }
            Stmt::While { body, .. } => collect_assigned(body, out),
            Stmt::For { var, body, .. } => {
                out.insert(var.clone());
                collect_assigned(body, out);
            }
            Stmt::Print { .. } => {}
        }
    }
}

fn syntactically_assigns(stmts: &[Stmt], var: &str) -> bool {
    assigned_vars(stmts).contains(var)
}

/// Variables assigned on *every* path through one execution of `stmts`
/// (branches intersect; loops may run zero times and element stores
/// require the array to already exist, so neither contributes). Used to
/// promote `Init` through loops that definitely execute.
fn must_assigned_vars(stmts: &[Stmt]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for s in stmts {
        match s {
            Stmt::Assign { var, .. } => {
                out.insert(var.clone());
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                let t = must_assigned_vars(then_body);
                let e = must_assigned_vars(else_body);
                out.extend(t.intersection(&e).cloned());
            }
            Stmt::AssignIndex { .. }
            | Stmt::While { .. }
            | Stmt::For { .. }
            | Stmt::Print { .. } => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp;
    use crate::parser::parse_program;

    fn findings_of(src: &str) -> Vec<Finding> {
        analyze(&parse_program(src).unwrap()).findings
    }

    fn has(findings: &[Finding], tag: &str, definite: bool) -> bool {
        findings
            .iter()
            .any(|f| f.kind.tag() == tag && f.definite == definite)
    }

    #[test]
    fn interval_basics() {
        assert_eq!(Interval::point(f64::NAN), Interval::TOP);
        assert_eq!(Interval::new(3.0, 1.0), Interval::TOP);
        assert!(Interval::point(2.0).is_point());
        assert!(!Interval::TOP.is_point());
        assert_eq!(
            Interval::new(1.0, 2.0).join(Interval::new(4.0, 5.0)),
            Interval::new(1.0, 5.0)
        );
        let w = Interval::new(0.0, 10.0).widen(Interval::new(0.0, 11.0));
        assert_eq!(w, Interval::new(0.0, f64::INFINITY));
        assert_eq!(Interval::point(0.0).truth(), Some(false));
        assert_eq!(Interval::new(1.0, 9.0).truth(), Some(true));
        assert_eq!(Interval::new(-1.0, 1.0).truth(), None);
    }

    #[test]
    fn abs_bin_points_match_interp() {
        for op in [BinOp::Add, BinOp::Mul, BinOp::Div, BinOp::Mod, BinOp::Pow] {
            let got = abs_bin(op, Interval::point(7.0), Interval::point(3.0));
            assert_eq!(got, Interval::point(concrete_bin(op, 7.0, 3.0)), "{op:?}");
        }
    }

    #[test]
    fn abs_bin_div_by_interval_containing_zero_is_top() {
        let d = abs_bin(BinOp::Div, Interval::point(1.0), Interval::new(-1.0, 1.0));
        assert_eq!(d, Interval::TOP);
    }

    #[test]
    fn uninit_read_definite_and_possible() {
        // q read with no assignment anywhere: definite.
        let f = findings_of("task T out x local q begin x := q + 1 end");
        assert!(has(&f, "uninit-read", true), "{f:?}");
        // assigned only on one branch of an unknown condition: possible.
        let f = findings_of(
            "task T in a out x local q begin \
             if a > 0 then q := 1 end x := q end",
        );
        assert!(has(&f, "uninit-read", false), "{f:?}");
        assert!(!has(&f, "uninit-read", true), "{f:?}");
        // assigned on both branches: clean.
        let f = findings_of(
            "task T in a out x local q begin \
             if a > 0 then q := 1 else q := 2 end x := q end",
        );
        assert!(!f.iter().any(|x| x.kind.tag() == "uninit-read"), "{f:?}");
    }

    #[test]
    fn dead_branch_reads_are_skipped() {
        // The `if 0` branch never runs; the interpreter never reads q.
        let f = findings_of("task T out x local q begin if 0 then x := q else x := 1 end end");
        assert!(!f.iter().any(|x| x.kind.tag() == "uninit-read"), "{f:?}");
    }

    #[test]
    fn index_out_definite_and_possible() {
        // Flowed length: w := zeros(3), index 5 definitely out.
        let f = findings_of("task T out x local w begin w := zeros(3) x := w[5] end");
        assert!(has(&f, "index-out", true), "{f:?}");
        // Index 0 is always out (1-based), even with unknown length.
        let f = findings_of("task T in v out x begin x := v[0] end");
        assert!(has(&f, "index-out", true), "{f:?}");
        // Possibly out: index ranges past the end.
        let f = findings_of(
            "task T out s local w, i begin \
             w := zeros(3) s := 0 for i := 1 to 4 do s := s + w[i] end end",
        );
        assert!(f.iter().any(|x| x.kind.tag() == "index-out"), "{f:?}");
        // In-bounds loop over a flowed length: clean.
        let f = findings_of(
            "task T out s local w, i begin \
             w := zeros(3) s := 0 for i := 1 to 3 do s := s + w[i] end end",
        );
        assert!(!f.iter().any(|x| x.kind.tag() == "index-out"), "{f:?}");
    }

    #[test]
    fn index_out_against_declared_length_is_not_definite() {
        let p = parse_program("task T in v out x begin x := v[9] end").unwrap();
        let mut opts = AnalysisOptions::default();
        let mut v = AbsVal::array(Interval::point(3.0));
        v.len_declared = true;
        opts.inputs.insert("v".into(), v);
        let a = analyze_with(&p, &opts);
        let f = &a.findings;
        assert!(has(f, "index-out", false), "{f:?}");
        assert!(!has(f, "index-out", true), "{f:?}");
    }

    #[test]
    fn division_by_definite_zero_flagged() {
        let f = findings_of("task T out x local z begin z := 0 x := 1 / z end");
        assert!(has(&f, "div-by-zero", true), "{f:?}");
        let f = findings_of("task T in a out x begin x := 1 / a end");
        assert!(!f.iter().any(|x| x.kind.tag() == "div-by-zero"), "{f:?}");
    }

    #[test]
    fn domain_errors_flagged() {
        let f = findings_of("task T out x begin x := sqrt(0 - 2) end");
        assert!(has(&f, "domain", true), "{f:?}");
        let f = findings_of("task T out x begin x := ln(0) end");
        assert!(has(&f, "domain", true), "{f:?}");
        let f = findings_of("task T in a out x begin x := sqrt(a) end");
        assert!(!f.iter().any(|x| x.kind.tag() == "domain"), "{f:?}");
    }

    #[test]
    fn while_without_variant_flagged() {
        let f = findings_of("task T in a out x begin x := 0 while a > 0 do x := x + 1 end end");
        assert!(has(&f, "no-variant", false), "{f:?}");
        // Decreasing variant present: no finding.
        let f = findings_of("task T in a out x begin x := a while x > 0 do x := x - 1 end end");
        assert!(!f.iter().any(|x| x.kind.tag() == "no-variant"), "{f:?}");
    }

    #[test]
    fn dead_assignment_flagged() {
        let f = findings_of("task T out x local t begin t := 41 t := 42 x := t end");
        assert!(has(&f, "dead-assign", false), "{f:?}");
        let f = findings_of("task T out x local t begin t := 41 x := t end");
        assert!(!f.iter().any(|x| x.kind.tag() == "dead-assign"), "{f:?}");
    }

    #[test]
    fn output_unset_on_some_path_flagged() {
        let f = findings_of("task T in a out x begin if a > 0 then x := 1 end end");
        assert!(has(&f, "output-unset", false), "{f:?}");
        // Assigned only under a constant-false guard: definite.
        let f = findings_of("task T out x begin if 0 then x := 1 end end");
        assert!(has(&f, "output-unset", true), "{f:?}");
        // Never assigned syntactically: left to the interface checks.
        let f = findings_of("task T in a out x begin a := a end");
        assert!(!f.iter().any(|x| x.kind.tag() == "output-unset"), "{f:?}");
    }

    #[test]
    fn summarized_point_trip_loop_stays_exact() {
        // Too many iterations to unroll, but the trip count and body
        // cost are points: the summary is still exact.
        let src = "task T out s local i begin \
                   s := 0 for i := 1 to 1000000 do s := s + 1 end end";
        let p = parse_program(src).unwrap();
        let a = analyze(&p);
        assert!(a.cost.exact, "{:?}", a.cost);
        let out = interp::run(&p, &Default::default()).unwrap();
        assert_eq!(out.ops as f64, a.cost.ops_lo);
    }

    #[test]
    fn pi_kernel_exact_with_seeded_input() {
        let src = "task Pi
  in n
  out p
  local h, x, i
begin
  h := 1 / n
  p := 0
  for i := 1 to n do
    x := (i - 0.5) * h
    p := p + 4 / (1 + x * x)
  end
  p := p * h
end";
        let p = parse_program(src).unwrap();
        let mut opts = AnalysisOptions::default();
        opts.inputs
            .insert("n".into(), AbsVal::scalar(Interval::point(1000.0)));
        let a = analyze_with(&p, &opts);
        assert!(a.cost.exact, "{:?}", a.cost);
        let out = interp::run(
            &p,
            &[("n".to_string(), Value::Num(1000.0))]
                .into_iter()
                .collect(),
        )
        .unwrap();
        assert_eq!(out.ops as f64, a.cost.ops_lo);
        // Without the seed the loop is unbounded above.
        let unseeded = analyze(&p);
        assert!(!unseeded.cost.exact);
        assert!(unseeded.cost.ops_lo <= out.ops as f64);
    }

    #[test]
    fn sqrt_fig4_exact_with_seeded_input() {
        let src = "task SquareRoot
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
        let p = parse_program(src).unwrap();
        let mut opts = AnalysisOptions::default();
        opts.inputs
            .insert("a".into(), AbsVal::scalar(Interval::point(2.0)));
        let a = analyze_with(&p, &opts);
        assert!(a.cost.exact, "{:?}", a.cost);
        let out = interp::run(
            &p,
            &[("a".to_string(), Value::Num(2.0))].into_iter().collect(),
        )
        .unwrap();
        assert_eq!(out.ops as f64, a.cost.ops_lo);
    }

    #[test]
    fn triangular_nest_unrolls_exactly() {
        let src = "task T out s local i, j begin \
                   s := 0 for i := 1 to 9 do for j := i to 9 do s := s + 1 end end end";
        let p = parse_program(src).unwrap();
        let a = analyze(&p);
        assert!(a.cost.exact, "{:?}", a.cost);
        let out = interp::run(&p, &Default::default()).unwrap();
        assert_eq!(out.ops as f64, a.cost.ops_lo);
    }

    #[test]
    fn short_circuit_skips_rhs_findings() {
        // `0 and q` never evaluates q; `1 or q` never evaluates q.
        let f = findings_of("task T out x local q begin x := 0 and q end");
        assert!(!f.iter().any(|x| x.kind.tag() == "uninit-read"), "{f:?}");
        let f = findings_of("task T out x local q begin x := 1 or q end");
        assert!(!f.iter().any(|x| x.kind.tag() == "uninit-read"), "{f:?}");
        // An unknown guard makes the read merely possible.
        let f = findings_of("task T in a out x local q begin x := a and q end");
        assert!(has(&f, "uninit-read", false), "{f:?}");
        assert!(!has(&f, "uninit-read", true), "{f:?}");
    }

    #[test]
    fn huge_point_bounds_terminate_without_exact_claim() {
        // At 1e16 the interpreter's `i += 1.0` is a float no-op, so the
        // concrete loop spins to its step limit. The analyzer's unroll
        // must detect the stall (not hang), report unbounded cost, and
        // treat everything after the loop as unreached.
        let src = "task T out s local i begin \
                   s := 0 for i := 1e16 to 1e16 do s := s + 1 end end";
        let p = parse_program(src).unwrap();
        let a = analyze(&p);
        assert!(!a.cost.exact, "{:?}", a.cost);
        assert!(a.cost.ops_hi.is_infinite(), "{:?}", a.cost);

        // Same stall mid-range: exact steps up to 2^53, then a no-op.
        let src = "task T out s local i begin \
                   s := 0 for i := 9007199254740991 to 9007199254740995 do \
                   s := s + 1 end end";
        let p = parse_program(src).unwrap();
        let a = analyze(&p);
        assert!(!a.cost.exact, "{:?}", a.cost);
        assert!(a.cost.ops_hi.is_infinite(), "{:?}", a.cost);
    }

    #[test]
    fn index_possibly_out_against_joined_lengths() {
        // len(w) ∈ [3, 5] after the join: index 4 can fail at runtime
        // (actual length 3), so it must be flagged as possibly out.
        let f = findings_of(
            "task T in a out x local w begin \
             if a > 0 then w := zeros(3) else w := zeros(5) end x := w[4] end",
        );
        assert!(has(&f, "index-out", false), "{f:?}");
        assert!(!has(&f, "index-out", true), "{f:?}");
        // A fully unknown input length stays quiet (no warning spam).
        let f = findings_of("task T in v out x begin x := v[4] end");
        assert!(!f.iter().any(|x| x.kind.tag() == "index-out"), "{f:?}");
    }

    #[test]
    fn condition_site_findings_carry_positions_and_stay_distinct() {
        // Two separate division-by-zero sites inside `if` conditions must
        // survive dedup as two located findings.
        let src = "task T in a out x local z begin z := 0 x := 0 \
                   if 1 / z > 0 then x := 1 end \
                   if 2 / z > 0 then x := 2 end end";
        let f = findings_of(src);
        let dz: Vec<_> = f.iter().filter(|x| x.kind.tag() == "div-by-zero").collect();
        assert_eq!(dz.len(), 2, "{f:?}");
        assert!(dz.iter().all(|x| x.pos.is_some()), "{f:?}");
    }

    #[test]
    fn must_run_summarized_loop_initializes_assignments() {
        // Too many trips to unroll, but the loop definitely executes:
        // names assigned on every path through the body (and the loop
        // variable) are definitely initialized afterwards.
        let f = findings_of(
            "task T out x local i begin \
             for i := 1 to 1000000 do x := i end end",
        );
        assert!(
            !f.iter()
                .any(|x| matches!(x.kind.tag(), "uninit-read" | "output-unset")),
            "{f:?}"
        );
        let f = findings_of(
            "task T out x local i, s begin \
             for i := 1 to 1000000 do s := 1 end x := s end",
        );
        assert!(!f.iter().any(|x| x.kind.tag() == "uninit-read"), "{f:?}");
        // A loop that may run zero times still demotes to Maybe.
        let f = findings_of(
            "task T in n out x local i begin \
             for i := 1 to n do x := i end end",
        );
        assert!(has(&f, "output-unset", false), "{f:?}");
    }

    #[test]
    fn findings_deduplicate_per_site() {
        // The same uninit read inside an unrolled loop reports once.
        let f = findings_of(
            "task T out s local i, q begin \
             s := 0 for i := 1 to 50 do s := s + q end end",
        );
        let n = f.iter().filter(|x| x.kind.tag() == "uninit-read").count();
        assert_eq!(n, 1, "{f:?}");
    }

    #[test]
    fn of_value_roundtrip() {
        assert_eq!(
            AbsVal::of_value(&Value::Num(3.0)),
            AbsVal::scalar(Interval::point(3.0))
        );
        assert_eq!(
            AbsVal::of_value(&Value::array(vec![1.0, 2.0])),
            AbsVal::array(Interval::point(2.0))
        );
    }

    // ---- static cost: the scheduler-facing weight estimate ----

    #[test]
    fn straight_line_cost() {
        let p = parse_program("task T in a out x begin x := a + 1 end").unwrap();
        // 1 stmt tick + 1 op
        assert_eq!(analyze(&p).cost.est, 2.0);
        assert!(analyze(&p).cost.exact);
    }

    #[test]
    fn builtin_costs_counted() {
        let p = parse_program("task T in a out x begin x := sqrt(a) end").unwrap();
        // stmt 1 + sqrt 6
        assert_eq!(analyze(&p).cost.est, 7.0);
        assert!(analyze(&p).cost.exact);
    }

    #[test]
    fn for_with_literal_bounds_is_exact() {
        let p = parse_program(
            "task T out s local i begin s := 0 for i := 1 to 100 do s := s + i end end",
        )
        .unwrap();
        // s := 0 -> 1; for stmt tick 1; 100 * (body 2 + iter tick 1) = 300
        let c = analyze(&p).cost;
        assert_eq!(c.est, 302.0);
        assert!(c.exact, "literal bounds must give exact cost: {c:?}");
        // ... and "exact" means it: matches a real trial run.
        let out = interp::run(&p, &Default::default()).unwrap();
        assert_eq!(out.ops as f64, c.est);
    }

    #[test]
    fn for_with_dynamic_bounds_uses_loop_factor() {
        let p = parse_program(
            "task T in n out s local i begin s := 0 for i := 1 to n do s := s + i end end",
        )
        .unwrap();
        // s := 0 -> 1; for stmt 1; LOOP_FACTOR * (body 2 + 1) = 30
        let c = analyze(&p).cost;
        assert_eq!(c.est, 2.0 + LOOP_FACTOR * 3.0);
        assert!(!c.exact);
        assert!(c.ops_hi.is_infinite());
    }

    #[test]
    fn for_with_affine_constant_bounds_is_exact() {
        // Non-literal bounds that are affine in enclosing constants used
        // to collapse to LOOP_FACTOR; trip-count inference handles them.
        let p = parse_program(
            "task T out s local i, n begin \
             n := 50 s := 0 for i := 1 to 2 * n + 1 do s := s + i end end",
        )
        .unwrap();
        let c = analyze(&p).cost;
        assert!(c.exact, "affine constant bounds must be exact: {c:?}");
        let out = interp::run(&p, &Default::default()).unwrap();
        assert_eq!(out.ops as f64, c.est);
    }

    #[test]
    fn while_uses_loop_factor() {
        let p = parse_program("task T in a out x begin x := a while x > 1 do x := x / 2 end end")
            .unwrap();
        // x := a -> 1; while stmt 1; (LF+1) cond evals (1 each) + LF * (body 2 + 1)
        let c = analyze(&p).cost;
        assert_eq!(c.est, 1.0 + 1.0 + (LOOP_FACTOR + 1.0) + LOOP_FACTOR * 3.0);
        assert!(!c.exact);
    }

    #[test]
    fn while_with_concrete_inputs_is_data_dependent() {
        // With no free inputs the Newton loop runs concretely in the
        // abstract domain and the count is exact.
        let p = parse_program(
            "task T out x local g begin \
             g := 32 while g > 1 do g := g / 2 end x := g end",
        )
        .unwrap();
        let c = analyze(&p).cost;
        assert!(c.exact, "concrete while must be exact: {c:?}");
        let out = interp::run(&p, &Default::default()).unwrap();
        assert_eq!(out.ops as f64, c.est);
    }

    #[test]
    fn if_averages_branches() {
        let p = parse_program("task T in a out x begin if a > 0 then x := 1 else x := 2 end end")
            .unwrap();
        // stmt 1 + cond 1 + join(1, 1) = 3 — and since both arms cost the
        // same, the bounds collapse and the estimate is exact.
        let c = analyze(&p).cost;
        assert_eq!(c.est, 3.0);
        assert!(c.exact);
    }

    #[test]
    fn bigger_programs_cost_more() {
        let small = parse_program("task T in a out x begin x := a end").unwrap();
        let large = parse_program(
            "task T in a out x local i begin x := a for i := 1 to 1000 do x := sqrt(x + i) end end",
        )
        .unwrap();
        assert!(analyze(&large).cost.est > 100.0 * analyze(&small).cost.est);
    }

    #[test]
    fn bounds_bracket_the_estimate() {
        let p = parse_program(
            "task T in n out s local i begin s := 0 for i := 1 to n do s := s + i end end",
        )
        .unwrap();
        let c = analyze(&p).cost;
        assert!(c.ops_lo <= c.est && c.est <= c.ops_hi);
    }
}

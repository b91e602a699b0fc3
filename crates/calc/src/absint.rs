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
//!
//! # Representation
//!
//! The walk never sees a name. [`analyze_with`] first resolves the
//! program against its [`SymbolTable`] — the numbering the bytecode
//! compiler uses — into a tree over slots with an expression arena, and
//! prices every expression's fixed ticks while it does. An environment is
//! then a flat vector of `Copy` states indexed by slot, an unassigned
//! name being the bottom state; a join is a linear scan, a snapshot (one
//! per loop entry, indeterminate branch and fixpoint) a `memcpy` into a
//! recycled buffer; liveness is a bitset over the same slots. Findings
//! are recorded as slots and turn into names once, after deduplication.
//! DESIGN.md §13 says why none of this can change a result.

use std::collections::BTreeMap;

use crate::ast::{BinOp, Expr, Program, Stmt, UnOp};
use crate::builtins;
use crate::error::Pos;
use crate::symbols::{Slot, SymbolTable};
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
    pub const fn bottom() -> AbsVal {
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
enum Init {
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

/// Per-variable analysis state. `Copy`: an environment is a flat vector
/// of these, snapshotted with `copy_from_slice`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct VarState {
    /// What we know about the value.
    val: AbsVal,
    /// Whether the variable is definitely assigned.
    init: Init,
}

impl VarState {
    /// The state of a name nothing has assigned: the bottom of both
    /// lattices, so it is the identity of [`VarState::join`]. `init` is
    /// `No` exactly when the state is this one.
    const UNSET: VarState = VarState {
        val: AbsVal::bottom(),
        init: Init::No,
    };

    fn assigned(val: AbsVal) -> VarState {
        VarState {
            val,
            init: Init::Yes,
        }
    }

    /// Least upper bound, `self` as the left operand (the order decides
    /// the sign of a joined zero bound, so every call site keeps it).
    fn join(self, other: VarState) -> VarState {
        VarState {
            val: self.val.join(&other.val),
            init: self.init.join(other.init),
        }
    }

    fn widen(self, newer: VarState) -> VarState {
        VarState {
            val: self.val.widen(&newer.val),
            init: self.init.join(newer.init),
        }
    }
}

/// The abstract environment: one [`VarState`] per [`Slot`] of the
/// program's symbol table. Its length never changes during a walk.
type Env = [VarState];

/// Spare buffers for the walker's snapshots. A loop nest takes a
/// snapshot per loop entry; handing the buffers back keeps the whole
/// analysis at a handful of allocations however many entries there are.
struct Pool<T> {
    free: Vec<Vec<T>>,
}

impl<T: Copy> Pool<T> {
    fn new() -> Self {
        Pool { free: Vec::new() }
    }

    /// A buffer holding a copy of `src`.
    fn copy_of(&mut self, src: &[T]) -> Vec<T> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(src);
        buf
    }

    fn recycle(&mut self, buf: Vec<T>) {
        self.free.push(buf);
    }
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
// Resolved program
// ---------------------------------------------------------------------------

/// Index into [`Resolved::exprs`].
type ExprId = u32;

/// An expression with every name resolved to its slot and every call to
/// its builtin. Children are arena indices, so the node is `Copy`.
#[derive(Debug, Clone, Copy)]
enum RExpr {
    Num(f64),
    Var(Slot),
    Index(Slot, ExprId),
    /// `func` indexes [`builtins::BUILTINS`]; `None` for an unknown name
    /// or a wrong argument count (the interpreter aborts before touching
    /// an argument). The arguments are `args[first..first + argc]`.
    Call {
        func: Option<u16>,
        first: u32,
        argc: u32,
    },
    Bin(BinOp, ExprId, ExprId),
    Un(UnOp, ExprId),
}

/// A statement over slots. Loops carry what the walker asks about their
/// bodies' syntax — assigned sets, visit counts — computed once.
#[derive(Debug)]
enum RStmt {
    Assign {
        var: Slot,
        expr: ExprId,
        pos: Pos,
    },
    AssignIndex {
        var: Slot,
        index: ExprId,
        expr: ExprId,
        pos: Pos,
    },
    If {
        cond: ExprId,
        then_body: Vec<RStmt>,
        else_body: Vec<RStmt>,
        pos: Pos,
    },
    While(WhileLoop),
    For(ForLoop),
    Print {
        expr: ExprId,
        pos: Pos,
    },
}

#[derive(Debug)]
struct WhileLoop {
    cond: ExprId,
    body: Vec<RStmt>,
    pos: Pos,
    /// Slots assigned anywhere in the body, sorted.
    assigned: Vec<Slot>,
    /// The condition's variables, in name order, when the body assigns
    /// none of them: the loop has no decreasing variant.
    stuck_on: Option<Vec<Slot>>,
}

#[derive(Debug)]
struct ForLoop {
    var: Slot,
    from: ExprId,
    to: ExprId,
    body: Vec<RStmt>,
    pos: Pos,
    /// Statement visits of one iteration (body statements + 1).
    visits: u64,
    /// Slots assigned anywhere in the body, sorted.
    assigned: Vec<Slot>,
    /// `var` plus the slots assigned on *every* path through one
    /// iteration (branches intersect; loops may run zero times and
    /// element stores need the array to exist, so neither counts).
    must: Vec<Slot>,
}

/// A program lowered for analysis: names are resolved once per
/// [`analyze_with`] call, here, and never looked up again.
struct Resolved<'a> {
    syms: SymbolTable<'a>,
    exprs: Vec<RExpr>,
    /// Per expression, parallel to `exprs`: the operations the
    /// interpreter ticks evaluating it, as far as they are fixed by its
    /// shape — everything except the right operands of `and`/`or`, which
    /// may be skipped (see [`Walker::eval_logic`]).
    ticks: Vec<f64>,
    args: Vec<ExprId>,
    body: Vec<RStmt>,
    /// Slots the body assigns anywhere, sorted.
    assigned: Vec<Slot>,
    inputs: Vec<Slot>,
    outputs: Vec<Slot>,
}

impl<'a> Resolved<'a> {
    fn of(prog: &'a Program) -> Self {
        let mut r = Resolver {
            syms: SymbolTable::for_program(prog),
            exprs: Vec::new(),
            ticks: Vec::new(),
            args: Vec::new(),
        };
        let mut assigned = Vec::new();
        let body = r.block(&prog.body, &mut assigned);
        sort_dedup(&mut assigned);
        let inputs = prog.inputs.iter().map(|n| r.syms.intern(n)).collect();
        let outputs = prog.outputs.iter().map(|n| r.syms.intern(n)).collect();
        Resolved {
            syms: r.syms,
            exprs: r.exprs,
            ticks: r.ticks,
            args: r.args,
            body,
            assigned,
            inputs,
            outputs,
        }
    }

    fn name(&self, slot: Slot) -> String {
        self.syms.name(slot).to_string()
    }

    /// Sets the bit of every variable `e` mentions.
    fn mark_vars(&self, e: ExprId, bits: &mut [u64]) {
        for_each_var(&self.exprs, &self.args, e, &mut |v| set_bit(bits, v));
    }
}

/// Calls `f` with every variable the expression mentions, first mention
/// first — the arguments of calls that cannot be resolved included.
fn for_each_var(exprs: &[RExpr], args: &[ExprId], e: ExprId, f: &mut impl FnMut(Slot)) {
    match exprs[e as usize] {
        RExpr::Num(_) => {}
        RExpr::Var(v) => f(v),
        RExpr::Index(v, idx) => {
            f(v);
            for_each_var(exprs, args, idx, f);
        }
        RExpr::Call { first, argc, .. } => {
            for &a in &args[first as usize..(first + argc) as usize] {
                for_each_var(exprs, args, a, f);
            }
        }
        RExpr::Bin(_, l, r) => {
            for_each_var(exprs, args, l, f);
            for_each_var(exprs, args, r, f);
        }
        RExpr::Un(_, inner) => for_each_var(exprs, args, inner, f),
    }
}

fn sort_dedup(slots: &mut Vec<Slot>) {
    slots.sort_unstable();
    slots.dedup();
}

/// The lowering pass. Names are interned in the bytecode compiler's
/// order (target before operands, left before right), so a program
/// numbers its variables the same way in both.
struct Resolver<'a> {
    syms: SymbolTable<'a>,
    exprs: Vec<RExpr>,
    ticks: Vec<f64>,
    args: Vec<ExprId>,
}

impl<'a> Resolver<'a> {
    /// Appends a node whose children are already in the arena, pricing
    /// it with the interpreter's tick model: an element read, an
    /// operator and a call tick once (a call, its builtin's cost) on top
    /// of their operands; a call that cannot be resolved aborts before
    /// evaluating anything.
    fn push(&mut self, e: RExpr) -> ExprId {
        let of = |id: ExprId| self.ticks[id as usize];
        let ticks = match e {
            RExpr::Num(_) | RExpr::Var(_) | RExpr::Call { func: None, .. } => 0.0,
            RExpr::Index(_, idx) => of(idx) + 1.0,
            RExpr::Call {
                func: Some(f),
                first,
                argc,
            } => {
                let args = &self.args[first as usize..(first + argc) as usize];
                args.iter().map(|&a| of(a)).sum::<f64>()
                    + builtins::BUILTINS[f as usize].cost as f64
            }
            RExpr::Bin(BinOp::And | BinOp::Or, lhs, _) => of(lhs) + 1.0,
            RExpr::Bin(_, lhs, rhs) => of(lhs) + of(rhs) + 1.0,
            RExpr::Un(_, inner) => of(inner) + 1.0,
        };
        self.exprs.push(e);
        self.ticks.push(ticks);
        (self.exprs.len() - 1) as ExprId
    }

    fn expr(&mut self, e: &'a Expr) -> ExprId {
        let node = match e {
            Expr::Num(v) => RExpr::Num(*v),
            Expr::Var(name) => RExpr::Var(self.syms.intern(name)),
            Expr::Index(name, idx) => {
                let var = self.syms.intern(name);
                RExpr::Index(var, self.expr(idx))
            }
            Expr::Call(name, args) => {
                let func = builtins::index_of(name)
                    .filter(|&i| builtins::BUILTINS[i].arity == args.len())
                    .map(|i| i as u16);
                let ids: Vec<ExprId> = args.iter().map(|a| self.expr(a)).collect();
                let first = self.args.len() as u32;
                self.args.extend_from_slice(&ids);
                RExpr::Call {
                    func,
                    first,
                    argc: ids.len() as u32,
                }
            }
            Expr::Bin(op, lhs, rhs) => {
                let l = self.expr(lhs);
                RExpr::Bin(*op, l, self.expr(rhs))
            }
            Expr::Un(op, inner) => RExpr::Un(*op, self.expr(inner)),
        };
        self.push(node)
    }

    /// Lowers a statement list, appending every slot it assigns
    /// (syntactically, anywhere) to `assigned`.
    fn block(&mut self, stmts: &'a [Stmt], assigned: &mut Vec<Slot>) -> Vec<RStmt> {
        stmts.iter().map(|s| self.stmt(s, assigned)).collect()
    }

    fn stmt(&mut self, s: &'a Stmt, assigned: &mut Vec<Slot>) -> RStmt {
        match s {
            Stmt::Assign { var, expr, pos } => {
                let var = self.syms.intern(var);
                assigned.push(var);
                RStmt::Assign {
                    var,
                    expr: self.expr(expr),
                    pos: *pos,
                }
            }
            Stmt::AssignIndex {
                var,
                index,
                expr,
                pos,
            } => {
                let var = self.syms.intern(var);
                assigned.push(var);
                let index = self.expr(index);
                RStmt::AssignIndex {
                    var,
                    index,
                    expr: self.expr(expr),
                    pos: *pos,
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                pos,
            } => {
                let cond = self.expr(cond);
                let then_body = self.block(then_body, assigned);
                RStmt::If {
                    cond,
                    then_body,
                    else_body: self.block(else_body, assigned),
                    pos: *pos,
                }
            }
            Stmt::While { cond, body, pos } => {
                let cond = self.expr(cond);
                let mut inner = Vec::new();
                let body = self.block(body, &mut inner);
                sort_dedup(&mut inner);
                let mut cond_vars = Vec::new();
                for_each_var(&self.exprs, &self.args, cond, &mut |v| cond_vars.push(v));
                let stuck_on = cond_vars
                    .iter()
                    .all(|v| inner.binary_search(v).is_err())
                    .then(|| {
                        cond_vars.sort_unstable_by_key(|&v| self.syms.name(v));
                        cond_vars.dedup();
                        cond_vars
                    });
                assigned.extend_from_slice(&inner);
                RStmt::While(WhileLoop {
                    cond,
                    body,
                    pos: *pos,
                    assigned: inner,
                    stuck_on,
                })
            }
            Stmt::For {
                var,
                from,
                to,
                body,
                pos,
            } => {
                let var = self.syms.intern(var);
                let from = self.expr(from);
                let to = self.expr(to);
                let mut inner = Vec::new();
                let body = self.block(body, &mut inner);
                sort_dedup(&mut inner);
                let mut must = must_assigned(&body);
                must.push(var);
                sort_dedup(&mut must);
                assigned.push(var);
                assigned.extend_from_slice(&inner);
                RStmt::For(ForLoop {
                    var,
                    from,
                    to,
                    visits: count_stmts(&body) + 1,
                    body,
                    pos: *pos,
                    assigned: inner,
                    must,
                })
            }
            Stmt::Print { expr, pos } => RStmt::Print {
                expr: self.expr(expr),
                pos: *pos,
            },
        }
    }
}

fn count_stmts(stmts: &[RStmt]) -> u64 {
    stmts
        .iter()
        .map(|s| {
            1 + match s {
                RStmt::If {
                    then_body,
                    else_body,
                    ..
                } => count_stmts(then_body) + count_stmts(else_body),
                RStmt::While(WhileLoop { body, .. }) | RStmt::For(ForLoop { body, .. }) => {
                    count_stmts(body)
                }
                _ => 0,
            }
        })
        .sum()
}

/// Slots assigned on every path through one execution of `stmts`,
/// sorted (see [`ForLoop::must`]).
fn must_assigned(stmts: &[RStmt]) -> Vec<Slot> {
    let mut out = Vec::new();
    for s in stmts {
        match s {
            RStmt::Assign { var, .. } => out.push(*var),
            RStmt::If {
                then_body,
                else_body,
                ..
            } => {
                let t = must_assigned(then_body);
                let e = must_assigned(else_body);
                out.extend(t.iter().filter(|v| e.binary_search(v).is_ok()));
            }
            RStmt::AssignIndex { .. } | RStmt::While(_) | RStmt::For(_) | RStmt::Print { .. } => {}
        }
    }
    sort_dedup(&mut out);
    out
}

// -- bitsets over slots (the liveness pass) ----------------------------------

fn set_bit(bits: &mut [u64], slot: Slot) {
    bits[slot as usize / 64] |= 1 << (slot % 64);
}

fn clear_bit(bits: &mut [u64], slot: Slot) {
    bits[slot as usize / 64] &= !(1 << (slot % 64));
}

fn has_bit(bits: &[u64], slot: Slot) -> bool {
    bits[slot as usize / 64] & (1 << (slot % 64)) != 0
}

fn union_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
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

impl AnalysisOptions {
    /// Default options with each named input seeded as an array of that
    /// declared length — how a design's storage sizes reach the analysis.
    pub fn with_declared_lengths<'a>(lengths: impl IntoIterator<Item = (&'a str, f64)>) -> Self {
        let mut opts = AnalysisOptions::default();
        for (name, len) in lengths {
            let mut v = AbsVal::array(Interval::point(len));
            v.len_declared = true;
            opts.inputs.insert(name.to_string(), v);
        }
        opts
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
    let code = Resolved::of(prog);
    let mut env = vec![VarState::UNSET; code.syms.len()];
    // Constants first (`SymbolTable::for_program` numbers them from 0),
    // then inputs: an input named `pi` shadows it.
    for (slot, (_, v)) in builtins::CONSTANTS.iter().enumerate() {
        env[slot] = VarState::assigned(AbsVal::scalar(Interval::point(*v)));
    }
    for (name, &slot) in prog.inputs.iter().zip(&code.inputs) {
        let val = opts.inputs.get(name).copied().unwrap_or_else(AbsVal::any);
        env[slot as usize] = VarState::assigned(val);
    }
    let mut w = Walker {
        code: &code,
        findings: Vec::new(),
        steps: 0,
        budget: opts.budget.max(1),
        envs: Pool::new(),
        sets: Pool::new(),
        rhs_cost: Cost::ZERO,
        vals: Vec::new(),
        points: Vec::new(),
    };
    let mut ctx = Ctx {
        reached: true,
        report: true,
        pos: None,
    };
    let cost = w.exec_block(&code.body, &mut env, &mut ctx);

    // `out` variables must be assigned on every path (B044 family).
    for (out, &slot) in prog.outputs.iter().zip(&code.outputs) {
        let pos = prog.decl_pos.get(out).copied();
        let definite = match env[slot as usize].init {
            Init::Yes => continue,
            Init::Maybe => false,
            // Never assigned at all is already an interface error (B013);
            // only flag it here when the body *does* mention the variable
            // but every mention sits on a dead or partial path.
            Init::No if code.assigned.binary_search(&slot).is_ok() => ctx.reached,
            Init::No => continue,
        };
        w.findings.push(RawFinding {
            kind: RawKind::OutputUnset(slot),
            pos,
            definite,
        });
    }

    // Dead-assignment pass (backward liveness; B044 family).
    let mut live = vec![0u64; code.syms.len().div_ceil(64)];
    for &slot in &code.outputs {
        set_bit(&mut live, slot);
    }
    w.live_block(&code.body, &mut live, true);

    let findings = normalize(&w.findings)
        .into_iter()
        .map(|f| f.publish(&code))
        .collect();
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

/// A finding as the walker records it: slots and builtin indices, no
/// allocation. Only the findings that survive [`normalize`] are turned
/// into public [`Finding`]s with names.
#[derive(Debug, Clone, Copy)]
struct RawFinding<'p> {
    kind: RawKind<'p>,
    pos: Option<Pos>,
    definite: bool,
}

#[derive(Debug, Clone, Copy)]
enum RawKind<'p> {
    UninitRead(Slot),
    IndexOut {
        var: Slot,
        index: Interval,
        len: Interval,
        declared: bool,
    },
    DivByZero,
    /// Index into [`builtins::BUILTINS`].
    Domain(u16),
    /// The loop's [`WhileLoop::stuck_on`].
    NoVariant(&'p [Slot]),
    DeadAssign(Slot),
    OutputUnset(Slot),
}

impl RawFinding<'_> {
    /// (kind, subject): with the position, the dedup site. Slots and
    /// builtin indices map one-to-one onto names, so the pair identifies
    /// what (kind tag, subject name) would, without the strings.
    fn site(&self) -> (u8, u32) {
        match self.kind {
            RawKind::UninitRead(v) => (0, v),
            RawKind::IndexOut { var, .. } => (1, var),
            RawKind::DivByZero => (2, 0),
            RawKind::Domain(f) => (3, f as u32),
            RawKind::NoVariant(_) => (4, 0),
            RawKind::DeadAssign(v) => (5, v),
            RawKind::OutputUnset(v) => (6, v),
        }
    }

    fn publish(self, code: &Resolved) -> Finding {
        let kind = match self.kind {
            RawKind::UninitRead(v) => FindingKind::UninitRead { var: code.name(v) },
            RawKind::IndexOut {
                var,
                index,
                len,
                declared,
            } => FindingKind::IndexOut {
                var: code.name(var),
                index,
                len,
                declared,
            },
            RawKind::DivByZero => FindingKind::DivByZero,
            RawKind::Domain(f) => FindingKind::Domain {
                func: builtins::BUILTINS[f as usize].name.to_string(),
            },
            RawKind::NoVariant(vars) => FindingKind::NoVariant {
                vars: vars.iter().map(|&v| code.name(v)).collect(),
            },
            RawKind::DeadAssign(v) => FindingKind::DeadAssign { var: code.name(v) },
            RawKind::OutputUnset(v) => FindingKind::OutputUnset { var: code.name(v) },
        };
        Finding {
            kind,
            pos: self.pos,
            definite: self.definite,
        }
    }
}

/// Deduplicates findings by (kind, subject, position), merging "possible"
/// repeats of one site into a single entry (definite wins; index/length
/// intervals join).
fn normalize<'p>(findings: &[RawFinding<'p>]) -> Vec<RawFinding<'p>> {
    type SiteKey = (u8, u32, Option<(u32, u32)>);
    let mut out: Vec<RawFinding> = Vec::new();
    let mut index: BTreeMap<SiteKey, usize> = BTreeMap::new();
    for f in findings {
        let (tag, subject) = f.site();
        let key = (tag, subject, f.pos.map(|p| (p.line, p.col)));
        match index.get(&key) {
            Some(&i) => {
                let prev = &mut out[i];
                prev.definite |= f.definite;
                if let (
                    RawKind::IndexOut {
                        index: pi,
                        len: pl,
                        declared: pd,
                        ..
                    },
                    RawKind::IndexOut {
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
                out.push(*f);
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

/// The state an abandoned trial goes back to (see
/// [`Walker::begin_trial`]).
struct Trial {
    env: Vec<VarState>,
    ctx: Ctx,
    findings: usize,
}

struct Walker<'p> {
    code: &'p Resolved<'p>,
    findings: Vec<RawFinding<'p>>,
    steps: u64,
    budget: u64,
    /// Environment snapshots (one per loop entry, indeterminate branch
    /// and fixpoint) and live sets, recycled.
    envs: Pool<VarState>,
    sets: Pool<u64>,
    /// What the right operands of `and`/`or` have cost so far in the
    /// statement expression being evaluated; zero between statements.
    rhs_cost: Cost,
    /// Argument values of the calls being evaluated, innermost on top.
    vals: Vec<AbsVal>,
    /// Scratch for the concrete arguments of an all-points call.
    points: Vec<Value>,
}

impl<'p> Walker<'p> {
    fn finding(&mut self, kind: RawKind<'p>, ctx: &Ctx, definite_here: bool) {
        if ctx.report {
            self.findings.push(RawFinding {
                kind,
                pos: ctx.pos,
                definite: definite_here && ctx.reached,
            });
        }
    }

    /// Starts a trial — a concrete run of a loop, in place, that may have
    /// to be abandoned for the summarized path.
    fn begin_trial(&mut self, env: &Env, ctx: &Ctx) -> Trial {
        Trial {
            env: self.envs.copy_of(env),
            ctx: *ctx,
            findings: self.findings.len(),
        }
    }

    /// Ends a trial: kept as it stands, or abandoned — environment and
    /// context put back, the findings it recorded dropped (the summary
    /// re-derives them). `steps` is never put back: budget spent is spent.
    fn end_trial(&mut self, trial: Trial, keep: bool, env: &mut Env, ctx: &mut Ctx) {
        if !keep {
            env.copy_from_slice(&trial.env);
            *ctx = trial.ctx;
            self.findings.truncate(trial.findings);
        }
        self.envs.recycle(trial.env);
    }

    fn exec_block(&mut self, stmts: &'p [RStmt], env: &mut Env, ctx: &mut Ctx) -> Cost {
        let mut cost = Cost::ZERO;
        for s in stmts {
            cost = cost.add(self.exec_stmt(s, env, ctx));
        }
        cost
    }

    fn exec_stmt(&mut self, s: &'p RStmt, env: &mut Env, ctx: &mut Ctx) -> Cost {
        self.steps += 1;
        // Every statement entry ticks once in the interpreter.
        let mut cost = Cost::point(1.0);
        match s {
            RStmt::Assign { var, expr, pos } => {
                ctx.pos = Some(*pos);
                let (v, c) = self.eval_root(*expr, env, ctx);
                cost = cost.add(c);
                env[*var as usize] = VarState::assigned(v);
            }
            RStmt::AssignIndex {
                var,
                index,
                expr,
                pos,
            } => {
                ctx.pos = Some(*pos);
                let (iv, ic) = self.eval_root(*index, env, ctx);
                let (_, vc) = self.eval_root(*expr, env, ctx);
                cost = cost.add(ic).add(vc);
                // The store itself never ticks; the interpreter then
                // requires the array to exist and the index in range.
                let arr = self.check_read(*var, env, ctx);
                self.check_bounds(*var, iv.num_or_top(), &arr, ctx);
            }
            RStmt::If {
                cond,
                then_body,
                else_body,
                pos,
            } => {
                ctx.pos = Some(*pos);
                let (cv, cc) = self.eval_root(*cond, env, ctx);
                cost = cost.add(cc);
                match cv.num_or_top().truth() {
                    Some(true) => cost = cost.add(self.exec_block(then_body, env, ctx)),
                    Some(false) => cost = cost.add(self.exec_block(else_body, env, ctx)),
                    None => {
                        let mut then_env = self.envs.copy_of(env);
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
                        for (e, t) in env.iter_mut().zip(&then_env) {
                            *e = t.join(*e);
                        }
                        self.envs.recycle(then_env);
                        cost = cost.add(tc.join(ec));
                    }
                }
            }
            RStmt::While(l) => {
                ctx.pos = Some(l.pos);
                let trial = self.begin_trial(env, ctx);
                let concrete = self.concrete_while(l.cond, &l.body, env, ctx);
                self.end_trial(trial, concrete.is_some(), env, ctx);
                cost = cost.add(match concrete {
                    Some(c) => c,
                    None => self.summarized_while(l, env, ctx),
                });
            }
            RStmt::For(l) => {
                ctx.pos = Some(l.pos);
                let (fv, fc) = self.eval_root(l.from, env, ctx);
                let (tv, tc) = self.eval_root(l.to, env, ctx);
                cost = cost.add(fc).add(tc);
                cost = cost.add(self.exec_for(l, &fv, &tv, env, ctx));
            }
            RStmt::Print { expr: e, pos } => {
                ctx.pos = Some(*pos);
                let (_, c) = self.eval_root(*e, env, ctx);
                cost = cost.add(c);
            }
        }
        cost
    }

    /// The `for` loop after bound evaluation: unroll point bounds within
    /// budget, otherwise summarize with inferred trip-count arithmetic.
    fn exec_for(
        &mut self,
        l: &'p ForLoop,
        fv: &AbsVal,
        tv: &AbsVal,
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
            let per_iter = l.visits as f64;
            if trips * per_iter <= (self.budget.saturating_sub(self.steps)) as f64 {
                // UNROLL: concrete iteration, exact cost, per-iteration
                // singleton loop variable (triangular nests stay exact).
                // Discarded like `concrete_while`'s trial when it cannot
                // finish: the summarized path re-derives findings.
                let trial = self.begin_trial(env, ctx);
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
                    env[l.var as usize] = VarState::assigned(AbsVal::scalar(Interval::point(i)));
                    cost = cost
                        .add(self.exec_block(&l.body, env, ctx))
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
                self.end_trial(trial, finished, env, ctx);
                if finished {
                    return cost;
                }
            }
        }
        if max_trips == 0.0 {
            return Cost::ZERO; // never runs; loop variable stays unset
        }

        // SUMMARIZE: fixpoint over the body with the loop variable pinned
        // to its full range, then trip-count arithmetic. Point trip
        // counts with point body costs stay exact without unrolling.
        let pre = self.envs.copy_of(env);
        let range = Interval::new(f.lo, t.hi);
        let body_cost = self.fix(&l.body, &l.assigned, env, ctx, Some((l.var, range)));
        if min_trips == 0.0 {
            for (e, p) in env.iter_mut().zip(&pre) {
                *e = e.join(*p);
            }
        } else {
            // The loop definitely executes, so the loop variable and every
            // name assigned on all paths through the body are initialized
            // afterwards; `fix` joined with the pre-loop state and demoted
            // them to `Maybe`.
            for &v in &l.must {
                let vs = &mut env[v as usize];
                if vs.init != Init::No {
                    vs.init = Init::Yes;
                }
            }
        }
        self.envs.recycle(pre);
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
    /// `ctx` and findings to be put back by the caller) when the loop
    /// must be summarized instead.
    fn concrete_while(
        &mut self,
        cond: ExprId,
        body: &'p [RStmt],
        env: &mut Env,
        ctx: &mut Ctx,
    ) -> Option<Cost> {
        let mut cost = Cost::ZERO;
        loop {
            self.steps += 1;
            if self.steps > self.budget {
                return None;
            }
            let (cv, cc) = self.eval_root(cond, env, ctx);
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
    fn summarized_while(&mut self, l: &'p WhileLoop, env: &mut Env, ctx: &mut Ctx) -> Cost {
        if let Some(vars) = &l.stuck_on {
            // No condition variable is ever assigned in the body (this
            // includes constant guards like `while 1`): the interval
            // model has no decreasing variant at all.
            self.finding(RawKind::NoVariant(vars), ctx, false);
        }

        let (cv, cc) = self.eval_root(l.cond, env, ctx);
        if cv.num_or_top().truth() == Some(false) {
            return cc; // loop never entered
        }
        let pre = self.envs.copy_of(env);
        let body_cost = self.fix(&l.body, &l.assigned, env, ctx, None);
        for (e, p) in env.iter_mut().zip(&pre) {
            *e = e.join(*p);
        }
        self.envs.recycle(pre);
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
    /// `assigned` is the body's syntactic assignment set.
    fn fix(
        &mut self,
        body: &'p [RStmt],
        assigned: &[Slot],
        env: &mut Env,
        ctx: &Ctx,
        loop_var: Option<(Slot, Interval)>,
    ) -> Cost {
        let seed = |e: &mut Env| {
            if let Some((v, iv)) = loop_var {
                e[v as usize] = VarState::assigned(AbsVal::scalar(iv));
            }
        };
        let mut cur = self.envs.copy_of(env);
        let mut trial = self.envs.copy_of(env);
        let mut stable = false;
        for round in 0..12 {
            trial.copy_from_slice(&cur);
            seed(&mut trial);
            let mut c = Ctx {
                reached: false,
                report: false,
                pos: ctx.pos,
            };
            let _ = self.exec_block(body, &mut trial, &mut c);
            // `trial` becomes `cur ⊔ trial`.
            for (t, c) in trial.iter_mut().zip(&cur) {
                *t = c.join(*t);
            }
            if trial == cur {
                stable = true;
                break;
            }
            if round == 0 {
                std::mem::swap(&mut cur, &mut trial);
            } else {
                for (c, j) in cur.iter_mut().zip(&trial) {
                    *c = c.widen(*j);
                }
            }
        }
        if !stable {
            // Provably post-fixpoint fallback: every body-assigned
            // variable goes fully unknown.
            for &v in assigned {
                cur[v as usize] = VarState {
                    val: AbsVal::any(),
                    init: Init::Maybe,
                };
            }
        }
        // One reporting pass over the stabilized state.
        trial.copy_from_slice(&cur);
        seed(&mut trial);
        let mut c = Ctx {
            reached: false,
            report: ctx.report,
            pos: ctx.pos,
        };
        let body_cost = self.exec_block(body, &mut trial, &mut c);
        for ((e, c), r) in env.iter_mut().zip(&cur).zip(&trial) {
            *e = c.join(*r);
        }
        self.envs.recycle(cur);
        self.envs.recycle(trial);
        body_cost
    }

    /// Checks a variable read for definite initialization, recording a
    /// finding when it may be unset. Returns the abstract value.
    fn check_read(&mut self, var: Slot, env: &Env, ctx: &mut Ctx) -> AbsVal {
        let vs = env[var as usize];
        match vs.init {
            Init::Yes => vs.val,
            Init::Maybe => {
                self.finding(RawKind::UninitRead(var), ctx, false);
                vs.val
            }
            Init::No => {
                self.finding(RawKind::UninitRead(var), ctx, true);
                ctx.reached = false;
                AbsVal::any()
            }
        }
    }

    /// Bounds-checks an index against the array's known length range.
    fn check_bounds(&mut self, var: Slot, index: Interval, arr: &AbsVal, ctx: &mut Ctx) {
        let len = match arr.len {
            Some(l) => l,
            None => return, // definitely a scalar: NotAnArray, not B041
        };
        let idx = index.round();
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
            RawKind::IndexOut {
                var,
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

    /// Evaluates a statement's expression: its abstract value and what
    /// the interpreter ticks for it. The static part of the ticks was
    /// summed when the program was resolved ([`Resolved::ticks`]); only
    /// the right operands of `and`/`or` are priced during the walk.
    fn eval_root(&mut self, expr: ExprId, env: &Env, ctx: &mut Ctx) -> (AbsVal, Cost) {
        let v = self.eval(expr, env, ctx);
        let rhs = std::mem::replace(&mut self.rhs_cost, Cost::ZERO);
        (v, Cost::point(self.code.ticks[expr as usize]).add(rhs))
    }

    fn eval(&mut self, expr: ExprId, env: &Env, ctx: &mut Ctx) -> AbsVal {
        match self.code.exprs[expr as usize] {
            RExpr::Var(var) => self.check_read(var, env, ctx),
            RExpr::Call { func, first, argc } => self.eval_call(func, first, argc, env, ctx),
            _ => AbsVal::scalar(self.eval_num(expr, env, ctx)),
        }
    }

    /// [`eval`](Self::eval) where only the scalar range is wanted (an
    /// operand, an index, a bound): top when the value is not a scalar.
    fn eval_num(&mut self, expr: ExprId, env: &Env, ctx: &mut Ctx) -> Interval {
        match self.code.exprs[expr as usize] {
            RExpr::Num(v) => Interval::point(v),
            RExpr::Var(var) => self.check_read(var, env, ctx).num_or_top(),
            RExpr::Index(var, idx) => {
                let iv = self.eval_num(idx, env, ctx);
                let arr = self.check_read(var, env, ctx);
                self.check_bounds(var, iv, &arr, ctx);
                // Element values are not tracked.
                Interval::TOP
            }
            RExpr::Call { func, first, argc } => {
                self.eval_call(func, first, argc, env, ctx).num_or_top()
            }
            RExpr::Bin(op @ (BinOp::And | BinOp::Or), lhs, rhs) => {
                self.eval_logic(op, lhs, rhs, env, ctx)
            }
            RExpr::Bin(op, lhs, rhs) => {
                let l = self.eval_num(lhs, env, ctx);
                let r = self.eval_num(rhs, env, ctx);
                if op == BinOp::Div && r.lo == 0.0 && r.hi == 0.0 {
                    self.finding(RawKind::DivByZero, ctx, true);
                }
                abs_bin(op, l, r)
            }
            RExpr::Un(op, inner) => {
                let i = self.eval_num(inner, env, ctx);
                match op {
                    UnOp::Neg => Interval::new(-i.hi, -i.lo),
                    UnOp::Not => match i.truth() {
                        Some(t) => Interval::point(if t { 0.0 } else { 1.0 }),
                        None => Interval::new(0.0, 1.0),
                    },
                }
            }
        }
    }

    /// `and` / `or` with the interpreter's short-circuit tick placement:
    /// left operand, one tick (both static), then the right operand only
    /// when needed — priced here, into `rhs_cost`.
    fn eval_logic(
        &mut self,
        op: BinOp,
        lhs: ExprId,
        rhs: ExprId,
        env: &Env,
        ctx: &mut Ctx,
    ) -> Interval {
        let lt = self.eval_num(lhs, env, ctx).truth();
        match (op, lt) {
            (BinOp::And, Some(false)) => return Interval::point(0.0),
            (BinOp::Or, Some(true)) => return Interval::point(1.0),
            _ => {}
        }
        // The right operand's own cost: its static ticks plus whatever
        // nested right operands add while it is evaluated.
        let outer = std::mem::replace(&mut self.rhs_cost, Cost::ZERO);
        let saved = ctx.reached;
        if lt.is_none() {
            // May or may not be evaluated: its findings are only
            // "possible", its cost only contributes to the upper bound.
            ctx.reached = false;
        }
        let rt = self.eval_num(rhs, env, ctx).truth();
        let rc = Cost::point(self.code.ticks[rhs as usize]).add(self.rhs_cost);
        self.rhs_cost = outer;
        if lt.is_none() {
            ctx.reached = saved;
            self.rhs_cost.hi += rc.hi;
            self.rhs_cost.est += 0.5 * rc.est;
            return Interval::new(0.0, 1.0);
        }
        // Right side definitely evaluated.
        self.rhs_cost = self.rhs_cost.add(rc);
        match rt {
            Some(t) => Interval::point(if t { 1.0 } else { 0.0 }),
            None => Interval::new(0.0, 1.0),
        }
    }

    fn eval_call(
        &mut self,
        func: Option<u16>,
        first: u32,
        argc: u32,
        env: &Env,
        ctx: &mut Ctx,
    ) -> AbsVal {
        let Some(func) = func else {
            // Unknown function / wrong arity: the interpreter aborts
            // before evaluating any argument.
            ctx.reached = false;
            return AbsVal::any();
        };
        let b = &builtins::BUILTINS[func as usize];
        let mark = self.vals.len();
        for i in first..first + argc {
            let v = self.eval(self.code.args[i as usize], env, ctx);
            self.vals.push(v);
        }

        // Definite IEEE domain escapes (still warnings: the calculator
        // completes with NaN/-inf, it does not abort).
        let outside = match (b.name, self.vals[mark..].first().and_then(|v| v.num)) {
            ("sqrt", Some(i)) => i.hi < 0.0,
            ("ln" | "log10", Some(i)) => i.hi <= 0.0,
            _ => false,
        };
        if outside {
            self.finding(RawKind::Domain(func), ctx, true);
        }

        let out = apply_builtin(b, &self.vals[mark..], &mut self.points, ctx);
        self.vals.truncate(mark);
        out
    }

    // -- backward liveness (dead-assignment detection) ---------------------

    fn live_block(&mut self, stmts: &'p [RStmt], live: &mut [u64], report: bool) {
        for s in stmts.iter().rev() {
            self.live_stmt(s, live, report);
        }
    }

    fn live_stmt(&mut self, s: &'p RStmt, live: &mut [u64], report: bool) {
        let code = self.code;
        match s {
            RStmt::Assign { var, expr, pos } => {
                if report && !has_bit(live, *var) {
                    self.findings.push(RawFinding {
                        kind: RawKind::DeadAssign(*var),
                        pos: Some(*pos),
                        definite: false,
                    });
                }
                clear_bit(live, *var);
                code.mark_vars(*expr, live);
            }
            RStmt::AssignIndex {
                var, index, expr, ..
            } => {
                // Element stores are use + def: the rest of the array
                // survives, so the target is never considered dead.
                set_bit(live, *var);
                code.mark_vars(*index, live);
                code.mark_vars(*expr, live);
            }
            RStmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let mut then_live = self.sets.copy_of(live);
                self.live_block(then_body, &mut then_live, report);
                self.live_block(else_body, live, report);
                union_into(live, &then_live);
                self.sets.recycle(then_live);
                code.mark_vars(*cond, live);
            }
            RStmt::While(l) => {
                self.live_loop(&l.body, live, report, &[l.cond]);
            }
            RStmt::For(l) => {
                self.live_loop(&l.body, live, report, &[l.from, l.to]);
                // The loop variable is written by the loop itself and
                // stays readable after it; treat it as live-in so prior
                // assignments to it are (conservatively) kept.
                set_bit(live, l.var);
            }
            RStmt::Print { expr: e, .. } => code.mark_vars(*e, live),
        }
    }

    /// Live-variable fixpoint for a loop body plus its guard expressions.
    fn live_loop(&mut self, body: &'p [RStmt], live: &mut [u64], report: bool, guards: &[ExprId]) {
        for &g in guards {
            self.code.mark_vars(g, live);
        }
        // `live` is the fixpoint candidate; `trial` one more body pass.
        let mut trial = self.sets.copy_of(live);
        loop {
            self.live_block(body, &mut trial, false);
            union_into(&mut trial, live);
            if trial == *live {
                break;
            }
            live.copy_from_slice(&trial);
        }
        if report {
            self.live_block(body, &mut trial, true);
        }
        self.sets.recycle(trial);
    }
}

/// Abstract builtin application. All-point scalar arguments take the
/// concrete path through the real builtin implementation, so results
/// are bit-identical to a trial run, but for `zeros` and `fill`, whose
/// size is checked and never allocated. `points` is scratch for that call.
fn apply_builtin(
    b: &builtins::Builtin,
    vals: &[AbsVal],
    points: &mut Vec<Value>,
    ctx: &mut Ctx,
) -> AbsVal {
    points.clear();
    points.extend(vals.iter().map_while(|v| match (v.num, v.len) {
        (Some(i), None) if i.is_point() => Some(Value::Num(i.lo)),
        _ => None,
    }));
    if points.len() == vals.len() {
        // Every argument here is a scalar, so only a size can fail.
        let out = match b.name {
            "zeros" | "fill" => {
                builtins::size_arg(points, b.name).map(|n| AbsVal::array(Interval::point(n as f64)))
            }
            _ => (b.func)(points).map(|v| AbsVal::of_value(&v)),
        };
        return out.unwrap_or_else(|_| {
            // zeros(-1) and friends: a genuine runtime abort.
            ctx.reached = false;
            AbsVal::any()
        });
    }
    let arg = |i: usize| vals.get(i).map(|v| v.num_or_top()).unwrap_or(Interval::TOP);
    let mono = |f: fn(f64) -> f64, i: Interval| AbsVal::scalar(Interval::new(f(i.lo), f(i.hi)));
    match b.name {
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
    fn slots_are_the_bytecode_compilers() {
        // One numbering for the VM's frame and the analyzer's
        // environment: constants, declarations, then first sight.
        for src in [
            "task T in a out x local g begin g := a / 2 x := g * pi + undeclared end",
            "task T in pi, v out s local i begin s := 0 \
             for i := 1 to len(v) do s := s + v[i] * k end while s > m do s := s - 1 end end",
        ] {
            let p = parse_program(src).unwrap();
            let names: Vec<String> = Resolved::of(&p)
                .syms
                .names()
                .iter()
                .map(|n| n.to_string())
                .collect();
            assert_eq!(names, crate::compile(&p).var_names, "{src}");
        }
    }

    // ---- snapshot / restore paths ----
    //
    // Each abandoned trial below runs a few concrete iterations first,
    // counting them in a variable and reading the never-assigned `q`
    // (a *definite* finding while the trial lasts). The summary that
    // replaces the trial must start from the pre-loop state: the counter
    // restarts at its pre-loop point, so the index `w[counter + 1]`
    // after the loop ranges from exactly 1; and the trial's findings are
    // gone, so `q` is reported once, as merely possible.

    fn budgeted(src: &str, budget: u64) -> Analysis {
        let opts = AnalysisOptions {
            budget,
            ..AnalysisOptions::default()
        };
        analyze_with(&parse_program(src).unwrap(), &opts)
    }

    /// The one `index-out` finding's index range.
    fn index_range(a: &Analysis) -> Interval {
        let hits: Vec<_> = a
            .findings
            .iter()
            .filter_map(|f| match &f.kind {
                FindingKind::IndexOut { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        assert_eq!(hits.len(), 1, "{:?}", a.findings);
        hits[0]
    }

    fn assert_trial_was_discarded(a: &Analysis) {
        assert_eq!(index_range(a), Interval::new(1.0, f64::INFINITY));
        let q: Vec<_> = a
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::UninitRead { var: "q".into() })
            .collect();
        assert_eq!(q.len(), 1, "{:?}", a.findings);
        assert!(!q[0].definite, "{:?}", a.findings);
        assert!(!a.cost.exact, "{:?}", a.cost);
    }

    #[test]
    fn unroll_abandoned_on_budget_restores_the_pre_loop_state() {
        // The outer pre-check passes (40 trips x 3 visits), the inner
        // trip counts grow with i * i, and the budget runs out mid-way.
        let src = "task T out x, y local s, t, i, j, w, q begin w := zeros(3) s := 0 \
                   for i := 1 to 40 do for j := 1 to i * i do s := s + 1 t := q end end \
                   x := w[s + 1] y := 1 / 0 end";
        let full = budgeted(src, DEFAULT_BUDGET);
        assert!(full.cost.exact, "{:?}", full.cost);
        assert_eq!(index_range(&full), Interval::point(22141.0));
        assert!(
            has(&full.findings, "uninit-read", true),
            "{:?}",
            full.findings
        );

        let cut = budgeted(src, 300);
        assert_trial_was_discarded(&cut);
        // ... and the walk context with it: the trial stopped being
        // "reached" at its first read of `q`, the summary is not, so the
        // division after the loop is definite again.
        assert!(
            has(&cut.findings, "div-by-zero", true),
            "{:?}",
            cut.findings
        );
        // The summary still brackets the exact count.
        assert!(cut.cost.ops_lo <= full.cost.est && full.cost.est <= cut.cost.ops_hi);
    }

    #[test]
    fn diverging_for_restores_the_pre_loop_state() {
        // Two exact steps up to 2^53, then `i + 1 == i`: the unroll is
        // abandoned and the loop summarized as never terminating.
        let src = "task T out x local s, t, i, w, q begin w := zeros(3) s := 0 \
                   for i := 9007199254740991 to 9007199254740995 do s := s + 1 t := q end \
                   x := w[s + 1] end";
        let a = budgeted(src, DEFAULT_BUDGET);
        assert_trial_was_discarded(&a);
        assert!(a.cost.ops_hi.is_infinite(), "{:?}", a.cost);
    }

    #[test]
    fn concrete_while_falls_back_to_the_summary_from_the_pre_loop_state() {
        // Indeterminate condition: four concrete rounds, then `g := a`.
        let turns_unknown = "task T in a out x local g, n, t, w, q begin w := zeros(3) \
             g := 64 n := 0 while g > 1 do g := g / 2 n := n + 1 \
             if n > 3 then g := a else t := q end end x := w[n + 1] end";
        assert_trial_was_discarded(&budgeted(turns_unknown, DEFAULT_BUDGET));

        // Budget: a countdown is concrete (and exact) with room,
        // summarized without. Only the summary can see `n > 1000`.
        let countdown = "task T out x local g, n, t, w, q begin w := zeros(3) \
             g := 64 n := 0 while g > 0 do g := g - 1 n := n + 1 \
             if n > 1000 then t := q end end x := w[n + 1] end";
        let full = budgeted(countdown, DEFAULT_BUDGET);
        assert!(full.cost.exact, "{:?}", full.cost);
        assert_eq!(index_range(&full), Interval::point(65.0));
        assert_trial_was_discarded(&budgeted(countdown, 100));

        // A definite abort inside the body (`t := q` on the first round)
        // ends the trial at the next condition check.
        let aborts = "task T out x local g, n, t, w, q begin w := zeros(3) \
             g := 4 n := 0 while g > 0 do g := g - 1 n := n + 1 t := q end \
             x := w[n + 1] end";
        assert_trial_was_discarded(&budgeted(aborts, DEFAULT_BUDGET));
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

    /// `zeros` and `fill` of a point size give the length the real
    /// builtin's array has, and abort (`reached` false) where it fails,
    /// without allocating the array; `1e9` is the largest size either
    /// accepts.
    #[test]
    fn a_point_sized_array_is_its_length_not_its_buffer() {
        let abstractly = |name: &str, args: &[f64]| {
            let b = builtins::lookup(name).unwrap();
            let vals: Vec<AbsVal> = args
                .iter()
                .map(|&a| AbsVal::scalar(Interval::point(a)))
                .collect();
            let mut ctx = Ctx {
                reached: true,
                report: true,
                pos: None,
            };
            let out = apply_builtin(b, &vals, &mut Vec::new(), &mut ctx);
            ctx.reached.then_some(out)
        };
        for size in [-1.0, 0.0, 2.4, 2.5, 1e6, f64::NAN] {
            for (name, args) in [("zeros", vec![size]), ("fill", vec![size, 7.0])] {
                let real = builtins::apply(
                    name,
                    &args.iter().map(|&a| Value::Num(a)).collect::<Vec<_>>(),
                );
                // A NaN is no point of the domain (`Interval::point` makes
                // it top), so its size stays the abstract `0..∞`.
                let want = match real {
                    Ok(v) => Some(AbsVal::of_value(&v)),
                    Err(_) if size.is_nan() => {
                        Some(AbsVal::array(Interval::new(0.0, f64::INFINITY)))
                    }
                    Err(_) => None,
                };
                assert_eq!(abstractly(name, &args), want, "{name}({size})");
            }
        }
        for name in ["zeros", "fill"] {
            let args = |size| {
                if name == "fill" {
                    vec![size, 7.0]
                } else {
                    vec![size]
                }
            };
            assert_eq!(
                abstractly(name, &args(1e9)),
                Some(AbsVal::array(Interval::point(1e9)))
            );
            assert_eq!(abstractly(name, &args(1e9 + 1.0)), None, "{name}(1e9 + 1)");
        }
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

//! Bytecode compiler: lowers a PITS [`Program`] AST to the flat register
//! form executed by [`crate::vm`].
//!
//! The tree-walking interpreter ([`crate::interp`]) re-traverses the AST
//! and performs a `String`-keyed map lookup per variable reference — per
//! statement, per loop iteration, per task copy. This pass does all name
//! resolution **once**: every variable (inputs, outputs, locals, the
//! preloaded constants `pi`/`e`, and even undeclared names, which must
//! still fail with the same `Undefined` error at the same moment) becomes
//! a dense frame slot; every builtin call is pre-resolved to a direct
//! function index; every literal is frozen into its op. What remains at
//! run time is a `Vec<Op>` walked by a program counter over a reusable
//! register frame — no maps, no strings, no per-step allocation.
//!
//! ## The ops-as-weight invariant
//!
//! `Outcome::ops` is not just profiling: it is the *measured task weight*
//! the scheduler consumes. The compiler therefore performs **no**
//! transformation that would change the op count or its sequencing — no
//! arithmetic constant folding, no dead-branch elimination. Each emitted
//! op ticks exactly where and how much the tree-walker ticks, so
//! `StepLimit` fires at the identical budget and measured weights are
//! byte-for-byte equal whichever engine ran the task
//! (`tests/prop_vm.rs` proves this differentially).
//!
//! Semantic corner cases preserved bit-for-bit:
//!
//! * unknown functions and wrong arities are compiled to [`Op::Fail`]
//!   *at the call site*, so a call in a never-taken branch stays
//!   harmless, exactly like the late-failing tree-walker;
//! * the constants `pi`/`e` are ordinary pre-initialised slots, so a
//!   program that assigns over them sees its own value afterwards;
//! * sub-expression results always land in fresh scratch registers — a
//!   destination variable is written exactly once, at expression
//!   completion, so `x := a and x` reads the *old* `x`.

use crate::ast::{BinOp, Expr, Program, Stmt, UnOp};
use crate::builtins;
use crate::error::RunError;
use crate::symbols::SymbolTable;
use std::collections::BTreeMap;
use std::fmt;

/// A frame-slot / register index.
pub type Reg = u32;

/// Static `what`-context strings, matching the tree-walker's diagnostics.
pub(crate) mod ctx {
    pub const IF_COND: &str = "if condition";
    pub const WHILE_COND: &str = "while condition";
    pub const AND_OPERAND: &str = "and operand";
    pub const OR_OPERAND: &str = "or operand";
    pub const NOT_OPERAND: &str = "not operand";
    pub const NEG_OPERAND: &str = "negation operand";
    pub const LEFT_OPERAND: &str = "left operand";
    pub const RIGHT_OPERAND: &str = "right operand";
    pub const ARRAY_INDEX: &str = "array index";
    pub const ARRAY_ELEMENT: &str = "array element";
    pub const FOR_START: &str = "for start";
    pub const FOR_END: &str = "for end";
}

/// One bytecode instruction. Registers index the VM frame; the low
/// `n_vars` registers are named variables, then the literal pool, then
/// scratch. (`dst`/`src`/`lhs`/`rhs` fields are registers; `target`
/// fields are op indices.)
///
/// Every op that *reads* a register first checks that it was assigned
/// and fails with `Undefined` like the tree-walker's variable read. For
/// scratch and literal-pool registers the check never fires (scratch is
/// written before it is read by construction; the pool is preloaded), so
/// the compiler may pass a named variable's slot *directly* as an
/// operand — fusing what would otherwise be a `LoadVar` into the
/// consuming op — without changing observable behaviour. The exception
/// is a clean chain (`ChainSpec::clean`), whose operands the compiler
/// proved to be assigned scalars.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum Op {
    /// `ops += n`, erroring with `StepLimit` past the budget (statement
    /// and loop-iteration ticks).
    Tick(u64),
    /// `r[dst] = Num(val)` — a frozen literal.
    Const { dst: Reg, val: f64 },
    /// `r[dst] = r[slot].clone()`, `Undefined` if the variable slot was
    /// never assigned.
    LoadVar { dst: Reg, slot: Reg },
    /// `r[dst] = Num(r[slot][r[idx]])` — array element read; checks the
    /// index (initialisation + scalar), then the array, and ticks 1
    /// *after* the bounds-checked read, like the tree-walker.
    IndexGet { dst: Reg, slot: Reg, idx: Reg },
    /// `r[slot][r[idx]] = r[val]` — in-place array element write; checks
    /// the index, then the element value, then the array — the
    /// tree-walker's `AssignIndex` order.
    IndexSet { slot: Reg, idx: Reg, val: Reg },
    /// Scalar binary operation: checks left then right operand
    /// (initialisation + scalar), ticks 1, computes.
    BinNum {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
    },
    /// Unary negation: checks initialisation, ticks 1, then type-checks.
    Neg { dst: Reg, src: Reg },
    /// Logical not: checks initialisation, ticks 1, then type-checks.
    Not { dst: Reg, src: Reg },
    /// Pre-resolved builtin call over `argc` consecutive registers
    /// starting at `first`; ticks the builtin's cost, then applies.
    Call {
        /// Index into [`builtins::BUILTINS`].
        builtin: u16,
        dst: Reg,
        first: Reg,
        argc: u16,
    },
    /// Unconditional jump to an op index.
    Jump(u32),
    /// Truthiness-checked conditional jump (if / while guards).
    JumpIfFalse {
        cond: Reg,
        target: u32,
        what: &'static str,
    },
    /// `and`/`or` left-hand side: truthiness-check `src` (with the
    /// operand's context string), tick 1, and on short-circuit write the
    /// decided `0`/`1` into `dst` and jump to `target`.
    ShortCircuit {
        src: Reg,
        dst: Reg,
        target: u32,
        is_and: bool,
    },
    /// `and`/`or` right-hand side: truthiness-check `src` and write the
    /// resulting `0`/`1` into `dst` (no tick — the tree-walker ticks only
    /// once per logic operator, on the left-hand side).
    BoolCast { src: Reg, dst: Reg, is_and: bool },
    /// Assert `r[src]` is initialised (`Undefined`) and a scalar
    /// (`NotAScalar(what)`) — placed where the tree-walker reads and
    /// `as_num`s one sub-expression *before* evaluating the next.
    CheckNum { src: Reg, what: &'static str },
    /// Like [`Op::CheckNum`] but also rounds in place (for-loop bounds).
    CheckNumRound { src: Reg, what: &'static str },
    /// Push `r[src]`'s display form onto the print log.
    Print { src: Reg },
    /// Raise a compile-time-frozen runtime error (unknown function, bad
    /// arity) — executed only if control actually reaches the call site.
    Fail(u32),
    /// One to three chained scalar binary operations in one dispatch:
    /// the compiler's emission for nested scalar expressions like the
    /// affine index `(i - 1) * n + j`, and for a statement's `Tick` plus
    /// the lone `BinNum` after it. Produced only by the peephole fuser
    /// (`fuse`) where each intermediate was a single-use scratch
    /// register; the chain replays the original [`Op::Tick`] and
    /// [`Op::BinNum`]s' checks and ticks in their exact order, so
    /// errors, `StepLimit` budgets, and measured weights are unchanged —
    /// only the dispatch count drops.
    BinChain { chain: ChainSpec, dst: Reg },
    /// A 1–3-op scalar chain feeding an [`Op::IndexGet`]'s index:
    /// `r[dst] = Num(r[slot][chain])`.
    IdxGetChain {
        chain: ChainSpec,
        slot: Reg,
        dst: Reg,
    },
    /// A 1–3-op scalar chain feeding an [`Op::IndexSet`]'s *value*:
    /// `r[slot][r[idx]] = chain`.
    IdxSetChain {
        chain: ChainSpec,
        slot: Reg,
        idx: Reg,
    },
    /// The clean chain `((r[x] - k) * n) + r[y]` with the literals `k`
    /// and `n` frozen into the op: `r[dst] = Num(..)`. Written only by
    /// `specialise_affine` in place of such an [`Op::BinChain`]; it
    /// ticks `stmt_tick + 3` with one budget compare and evaluates the
    /// chain's operations in its order.
    BinAffine {
        dst: Reg,
        x: Reg,
        y: Reg,
        k: f64,
        n: f64,
        stmt_tick: u8,
    },
    /// [`Op::BinAffine`] feeding an element read, in place of such an
    /// [`Op::IdxGetChain`]: `r[dst] = Num(r[slot][((r[x] - k) * n) +
    /// r[y]])`, with the read's checks and its tick after them.
    IdxGetAffine {
        dst: Reg,
        slot: Reg,
        x: Reg,
        y: Reg,
        k: f64,
        n: f64,
        stmt_tick: u8,
    },
    /// For-loop entry: `if r[i] <= r[end] { r[var] = r[i] } else { jump
    /// target }` over the VM-owned (already rounded) counter and bound —
    /// the tree-walker's first `while i <= end` test and its publication
    /// of the counter into the named loop variable.
    ForTestCopy {
        i: Reg,
        end: Reg,
        var: Reg,
        target: u32,
    },
    /// Rotated for-loop back edge: the per-iteration tick, `r[i] += 1`,
    /// and `if r[i] <= r[end] { r[var] = r[i]; jump body }` in one
    /// dispatch; falls through when the loop is done.
    ForLoop {
        i: Reg,
        end: Reg,
        var: Reg,
        body: u32,
    },
}

// `ChainSpec`'s fold and fact fields live in its padding, and the affine
// ops' two immediates fit beside four registers: no op grew.
const _: () = assert!(std::mem::size_of::<Op>() == 40);

/// A left-to-right chain of 1–3 scalar binary operations whose
/// intermediates were single-use scratch registers before fusion:
/// `t1 = r[a] op1 r[b]`, then (if `len >= 2`) `t2 = t1 op2 r[c]` — or
/// `r[c] op2 t1` when `swap2` — then (if `len == 3`) the same with
/// `op3`/`d`/`swap3`. Stages past `len` hold don't-care filler. The VM
/// evaluates a chain with exactly the checks and ticks of the original
/// `BinNum` sequence; a chained intermediate itself needs no checks (it
/// is a number the VM just produced), matching how the original read of
/// an always-initialised scratch slot could not fail.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)]
pub struct ChainSpec {
    pub len: u8,
    pub op1: BinOp,
    pub a: Reg,
    pub b: Reg,
    pub op2: BinOp,
    pub c: Reg,
    pub swap2: bool,
    pub op3: BinOp,
    pub d: Reg,
    pub swap3: bool,
    /// The statement `Tick` folded in front of the chain (0 or 1),
    /// ticked before any check.
    pub stmt_tick: u8,
    /// Every operand (and an [`Op::IdxSetChain`]'s index) is certainly
    /// an initialised scalar whenever the op runs — proved by
    /// `mark_clean_chains`. The VM then skips every check and ticks
    /// the whole chain with one budget compare: with no check left that
    /// could fail, `StepLimit` is the only error the chain can raise, so
    /// it fires at the same budget.
    pub clean: bool,
}

impl ChainSpec {
    /// The operand registers the chain reads, in evaluation order.
    pub(crate) fn operands(&self) -> impl Iterator<Item = Reg> {
        [self.a, self.b, self.c, self.d]
            .into_iter()
            .take(self.len as usize + 1)
    }

    /// Ticks the chain replays: the folded statement tick plus one per
    /// operation.
    pub(crate) fn ticks(&self) -> u64 {
        u64::from(self.stmt_tick) + u64::from(self.len)
    }
}

/// A compiled PITS program: flat ops plus the frame layout metadata the
/// VM needs to wire inputs, outputs and diagnostics.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Task name (diagnostics).
    pub name: String,
    /// The instruction stream.
    pub ops: Vec<Op>,
    /// Total frame size: named variables then scratch registers.
    pub frame_size: usize,
    /// Slots `0..n_vars` are named variables.
    pub n_vars: usize,
    /// Slot index -> variable name (errors name the variable).
    pub var_names: Vec<String>,
    /// `(slot, name-index)` of each declared input, in declaration order.
    pub input_slots: Vec<Reg>,
    /// Slot of each declared output, in declaration order.
    pub output_slots: Vec<Reg>,
    /// Pre-initialised constant slots (`pi`, `e`) in insertion order;
    /// inputs may overwrite them afterwards, mirroring the tree-walker's
    /// environment set-up order.
    pub const_slots: Vec<(Reg, f64)>,
    /// The literal pool: deduplicated numeric literals preloaded (and
    /// marked initialised) into the slots between the named variables
    /// and the scratch registers, so ops reference literals without a
    /// `Const` dispatch. The program never writes these slots.
    pub lit_slots: Vec<(Reg, f64)>,
    /// Frozen runtime errors referenced by [`Op::Fail`].
    pub fails: Vec<RunError>,
}

/// Compiles a program. Never fails: names that cannot be resolved become
/// run-time errors at the same execution points as the tree-walker's.
pub fn compile(prog: &Program) -> CompiledProgram {
    // Constants first, then declared variables, mirroring the
    // interpreter's environment construction order.
    let mut c = Compiler::new(SymbolTable::for_program(prog));
    let const_slots: Vec<(Reg, f64)> = builtins::CONSTANTS
        .iter()
        .map(|&(name, v)| (c.slot(name), v))
        .collect();
    let input_slots: Vec<Reg> = prog.inputs.iter().map(|n| c.slot(n)).collect();
    c.block(&prog.body);
    c.ops = fuse(drop_dead_checks(std::mem::take(&mut c.ops)));
    let output_slots: Vec<Reg> = prog.outputs.iter().map(|n| c.slot(n)).collect();

    let n_vars = c.syms.len();
    // Literal-pool slots live right above the named variables; their
    // final indices are known now that interning is done.
    let lit_slots: Vec<(Reg, f64)> = c
        .lits
        .iter()
        .enumerate()
        .map(|(k, &v)| ((n_vars + k) as Reg, v))
        .collect();
    let mut compiled = CompiledProgram {
        name: prog.name.clone(),
        ops: c.ops,
        frame_size: n_vars + lit_slots.len() + c.max_temps,
        n_vars,
        var_names: c.syms.names().iter().map(|n| n.to_string()).collect(),
        input_slots,
        output_slots,
        const_slots,
        lit_slots,
        fails: c.fails,
    }
    .seal();
    mark_clean_chains(&mut compiled);
    specialise_affine(&mut compiled);
    compiled
}

/// An expression whose value already sits in a register (named variable
/// or literal) — no code needed, checks done by the consuming op.
fn is_simple(e: &Expr) -> bool {
    matches!(e, Expr::Num(_) | Expr::Var(_))
}

/// During compilation, literal-pool registers count up from `LIT_BASE`
/// and scratch registers down from `u32::MAX`; [`CompiledProgram::seal`]
/// remaps both into the dense frame once the named-variable count is
/// final. `TEMP_SPLIT` divides the two provisional regions.
const LIT_BASE: Reg = 0x8000_0000;
const TEMP_SPLIT: Reg = 0xC000_0000;

struct Compiler<'a> {
    ops: Vec<Op>,
    /// The program's names; shared numbering with the abstract
    /// interpreter (see [`crate::symbols`]).
    syms: SymbolTable<'a>,
    lits: Vec<f64>,
    lit_map: BTreeMap<u64, Reg>,
    fails: Vec<RunError>,
    /// Scratch registers in use (relative to the variable block).
    live_temps: usize,
    max_temps: usize,
}

impl<'a> Compiler<'a> {
    fn new(syms: SymbolTable<'a>) -> Self {
        Compiler {
            ops: Vec::new(),
            syms,
            lits: Vec::new(),
            lit_map: BTreeMap::new(),
            fails: Vec::new(),
            live_temps: 0,
            max_temps: 0,
        }
    }

    /// Slot of a named variable, interning on first sight.
    fn slot(&mut self, name: &'a str) -> Reg {
        self.syms.intern(name)
    }

    /// Allocates a scratch register above every named variable and every
    /// currently-live temp. Declarations are interned before `block`
    /// runs, but an undeclared name can still appear mid-body, so
    /// `n_vars` is known only at the end. Temps therefore count from the
    /// end: register `u32::MAX - k` is temp `k`, remapped when the op
    /// stream is sealed ([`CompiledProgram::seal`]).
    fn temp(&mut self) -> Reg {
        let t = self.live_temps;
        self.live_temps += 1;
        self.max_temps = self.max_temps.max(self.live_temps);
        u32::MAX - t as Reg
    }

    fn release_to(&mut self, mark: usize) {
        self.live_temps = mark;
    }

    /// Literal-pool register for `v`, deduplicated by bit pattern.
    fn lit(&mut self, v: f64) -> Reg {
        let bits = v.to_bits();
        if let Some(&r) = self.lit_map.get(&bits) {
            return r;
        }
        let r = LIT_BASE + self.lits.len() as Reg;
        self.lits.push(v);
        self.lit_map.insert(bits, r);
        r
    }

    /// A register that already holds the expression's value without any
    /// code being emitted: a named variable's slot or a literal-pool
    /// slot. The consuming op performs the tree-walker's read checks
    /// (initialisation, type) itself, in evaluation order, so passing
    /// the slot directly is observationally identical to a `LoadVar`
    /// into scratch — minus one dispatch. `None` means the expression
    /// needs code; compile it into a scratch register instead.
    fn operand(&mut self, e: &'a Expr) -> Option<Reg> {
        match e {
            Expr::Num(v) => Some(self.lit(*v)),
            Expr::Var(name) => Some(self.slot(name)),
            _ => None,
        }
    }

    /// `operand` or compile-into-fresh-scratch, whichever applies.
    fn operand_or_temp(&mut self, e: &'a Expr) -> Reg {
        match self.operand(e) {
            Some(r) => r,
            None => {
                let t = self.temp();
                self.expr(e, t);
                t
            }
        }
    }

    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::Jump(t)
            | Op::JumpIfFalse { target: t, .. }
            | Op::ShortCircuit { target: t, .. }
            | Op::ForTestCopy { target: t, .. } => *t = target,
            other => unreachable!("patching non-jump op {other:?}"),
        }
    }

    fn fail(&mut self, e: RunError) {
        let i = self.fails.len() as u32;
        self.fails.push(e);
        self.emit(Op::Fail(i));
    }

    fn block(&mut self, stmts: &'a [Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, stmt: &'a Stmt) {
        self.emit(Op::Tick(1));
        match stmt {
            Stmt::Assign { var, expr, .. } => {
                let dst = self.slot(var);
                let mark = self.live_temps;
                self.expr(expr, dst);
                self.release_to(mark);
            }
            Stmt::AssignIndex {
                var, index, expr, ..
            } => {
                let slot = self.slot(var);
                let mark = self.live_temps;
                let ti = self.operand_or_temp(index);
                // The tree-walker `as_num`s the index before evaluating
                // the element value; when the value emits code, an
                // explicit check keeps that order. (`IndexSet` itself
                // re-checks index then value, which covers the rest.)
                if !is_simple(expr) {
                    self.emit(Op::CheckNum {
                        src: ti,
                        what: ctx::ARRAY_INDEX,
                    });
                }
                let tv = self.operand_or_temp(expr);
                self.emit(Op::IndexSet {
                    slot,
                    idx: ti,
                    val: tv,
                });
                self.release_to(mark);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let mark = self.live_temps;
                let tc = self.operand_or_temp(cond);
                self.release_to(mark);
                let br = self.emit(Op::JumpIfFalse {
                    cond: tc,
                    target: 0,
                    what: ctx::IF_COND,
                });
                self.block(then_body);
                let out = self.emit(Op::Jump(0));
                let else_at = self.here();
                self.patch(br, else_at);
                self.block(else_body);
                let end = self.here();
                self.patch(out, end);
            }
            Stmt::While { cond, body, .. } => {
                let head = self.here();
                let mark = self.live_temps;
                let tc = self.operand_or_temp(cond);
                self.release_to(mark);
                let exit = self.emit(Op::JumpIfFalse {
                    cond: tc,
                    target: 0,
                    what: ctx::WHILE_COND,
                });
                self.block(body);
                self.emit(Op::Tick(1));
                self.emit(Op::Jump(head));
                let end = self.here();
                self.patch(exit, end);
            }
            Stmt::For {
                var,
                from,
                to,
                body,
                ..
            } => {
                let var_slot = self.slot(var);
                let mark = self.live_temps;
                // Counter and bound stay live across the body.
                let ti = self.temp();
                self.expr(from, ti);
                self.emit(Op::CheckNumRound {
                    src: ti,
                    what: ctx::FOR_START,
                });
                let tend = self.temp();
                self.expr(to, tend);
                self.emit(Op::CheckNumRound {
                    src: tend,
                    what: ctx::FOR_END,
                });
                // Rotated: the entry test runs once, and the back edge
                // ticks, steps, re-tests and publishes the counter itself.
                let test = self.emit(Op::ForTestCopy {
                    i: ti,
                    end: tend,
                    var: var_slot,
                    target: 0,
                });
                let body_at = self.here();
                self.block(body);
                self.emit(Op::ForLoop {
                    i: ti,
                    end: tend,
                    var: var_slot,
                    body: body_at,
                });
                let end = self.here();
                self.patch(test, end);
                self.release_to(mark);
            }
            Stmt::Print { expr: e, .. } => {
                let mark = self.live_temps;
                let t = self.operand_or_temp(e);
                self.emit(Op::Print { src: t });
                self.release_to(mark);
            }
        }
    }

    /// Compiles `expr` so that its value lands in `dst` as the single,
    /// final write; all intermediates go to fresh scratch registers.
    fn expr(&mut self, expr: &'a Expr, dst: Reg) {
        match expr {
            Expr::Num(v) => {
                self.emit(Op::Const { dst, val: *v });
            }
            Expr::Var(name) => {
                let slot = self.slot(name);
                self.emit(Op::LoadVar { dst, slot });
            }
            Expr::Index(name, idx) => {
                let slot = self.slot(name);
                let mark = self.live_temps;
                let ti = self.operand_or_temp(idx);
                self.emit(Op::IndexGet { dst, slot, idx: ti });
                self.release_to(mark);
            }
            Expr::Call(name, args) => {
                match builtins::resolve(name, args.len()) {
                    // The tree-walker fails before evaluating any
                    // argument; so do we.
                    Err(e) => self.fail(e),
                    Ok(i) => {
                        let mark = self.live_temps;
                        // Argument registers must be consecutive:
                        // reserve them first, then fill each (nested
                        // scratch goes above the reservation).
                        let regs: Vec<Reg> = args.iter().map(|_| self.temp()).collect();
                        for (a, &r) in args.iter().zip(&regs) {
                            let m = self.live_temps;
                            self.expr(a, r);
                            self.release_to(m);
                        }
                        self.emit(Op::Call {
                            builtin: i as u16,
                            dst,
                            first: *regs.first().unwrap_or(&(u32::MAX - mark as Reg)),
                            argc: args.len() as u16,
                        });
                        self.release_to(mark);
                    }
                }
            }
            Expr::Bin(op @ (BinOp::And | BinOp::Or), lhs, rhs) => {
                let is_and = matches!(op, BinOp::And);
                let mark = self.live_temps;
                let tl = self.operand_or_temp(lhs);
                let sc = self.emit(Op::ShortCircuit {
                    src: tl,
                    dst,
                    target: 0,
                    is_and,
                });
                self.release_to(mark);
                let tr = self.operand_or_temp(rhs);
                self.emit(Op::BoolCast {
                    src: tr,
                    dst,
                    is_and,
                });
                self.release_to(mark);
                let end = self.here();
                self.patch(sc, end);
            }
            Expr::Bin(op, lhs, rhs) => {
                let mark = self.live_temps;
                let tl = self.operand_or_temp(lhs);
                // The tree-walker converts the left operand to a number
                // *before* evaluating the right one, so a non-scalar left
                // must win over any error hiding in the right. When the
                // right side emits no code, `BinNum`'s own left-then-
                // right check sequence already preserves that order.
                if !is_simple(rhs) {
                    self.emit(Op::CheckNum {
                        src: tl,
                        what: ctx::LEFT_OPERAND,
                    });
                }
                let tr = self.operand_or_temp(rhs);
                self.emit(Op::BinNum {
                    op: *op,
                    dst,
                    lhs: tl,
                    rhs: tr,
                });
                self.release_to(mark);
            }
            Expr::Un(op, inner) => {
                let mark = self.live_temps;
                let t = self.operand_or_temp(inner);
                match op {
                    UnOp::Neg => self.emit(Op::Neg { dst, src: t }),
                    UnOp::Not => self.emit(Op::Not { dst, src: t }),
                };
                self.release_to(mark);
            }
        }
    }
}

/// The link between two adjacent `BinNum`s: the first's destination
/// feeds exactly one operand of the second. Returns the second op's
/// *other* operand and whether the chained value sits on the right
/// (`swap = true` means the chained intermediate is the RIGHT operand:
/// `other op chained`).
fn chain_link(t: Reg, lhs: Reg, rhs: Reg) -> Option<(Reg, bool)> {
    match (lhs == t, rhs == t) {
        (true, false) => Some((rhs, false)),
        (false, true) => Some((lhs, true)),
        _ => None,
    }
}

/// Which op indices are jump targets. Interior ops of a fused group
/// must not be targets (control may only *fall* into positions 2..n of
/// a group); group heads may be.
fn jump_targets(ops: &[Op]) -> Vec<bool> {
    let mut is_target = vec![false; ops.len() + 1];
    for op in ops {
        match op {
            Op::Jump(t)
            | Op::JumpIfFalse { target: t, .. }
            | Op::ShortCircuit { target: t, .. }
            | Op::ForTestCopy { target: t, .. }
            | Op::ForLoop { body: t, .. } => is_target[*t as usize] = true,
            _ => {}
        }
    }
    is_target
}

/// Rewrites every jump target through `map` (old op index -> new op
/// index) after a peephole pass dropped or merged ops.
fn remap_targets(ops: &mut [Op], map: &[u32]) {
    for op in ops {
        match op {
            Op::Jump(t)
            | Op::JumpIfFalse { target: t, .. }
            | Op::ShortCircuit { target: t, .. }
            | Op::ForTestCopy { target: t, .. }
            | Op::ForLoop { body: t, .. } => *t = map[*t as usize],
            _ => {}
        }
    }
}

/// True when `op` writes `reg` with a value that is certainly a scalar
/// number — the producers after which a [`Op::CheckNum`] on that
/// register can never fire.
fn writes_scalar(op: &Op, reg: Reg) -> bool {
    match *op {
        Op::BinNum { dst, .. }
        | Op::IndexGet { dst, .. }
        | Op::Const { dst, .. }
        | Op::Neg { dst, .. }
        | Op::Not { dst, .. } => dst == reg,
        _ => false,
    }
}

/// Peephole pass 1: drop `CheckNum`s that can never fire. The compiler
/// emits `CheckNum` to preserve the tree-walker's evaluation order
/// ("convert this operand to a number *before* evaluating the next
/// sub-expression"); when the checked register was just written by an
/// op that always produces a scalar, the check is unobservable — it
/// ticks nothing and cannot fail — so dropping it changes no program's
/// outcome, error, or measured weight. Kept when the `CheckNum` is a
/// jump target (control could arrive without the producer running).
fn drop_dead_checks(ops: Vec<Op>) -> Vec<Op> {
    let n = ops.len();
    let is_target = jump_targets(&ops);
    let mut out: Vec<Op> = Vec::with_capacity(n);
    let mut map = vec![0u32; n + 1];
    for (i, op) in ops.into_iter().enumerate() {
        map[i] = out.len() as u32;
        if let Op::CheckNum { src, .. } = op {
            if !is_target[i] && out.last().is_some_and(|prev| writes_scalar(prev, src)) {
                continue;
            }
        }
        out.push(op);
    }
    map[n] = out.len() as u32;
    remap_targets(&mut out, &map);
    out
}

/// Peephole pass 2: superinstruction fuser, run on the finished op
/// stream before [`CompiledProgram::seal`] (scratch registers are still
/// identifiable as `>= TEMP_SPLIT`). Fusions performed:
///
/// * `BinNum` chains of length 2–3 where each intermediate is a scratch
///   register written once and consumed by the very next op — the
///   compiler's emission for nested scalar expressions like the affine
///   index `(i - 1) * n + j` — become [`Op::BinChain`]. Scratch
///   single-use holds by construction: every multi-read scratch
///   lifetime (loop counters, bounds, call-argument blocks) is consumed
///   by a non-`BinNum` op, so it can never match the pattern.
/// * A chain (length 1–3) whose final scratch feeds the very next
///   `IndexGet`'s index, or the very next `IndexSet`'s element value,
///   fuses into [`Op::IdxGetChain`] / [`Op::IdxSetChain`] — the
///   dominant array-sweep shape (`M[(i-1)*n+j]`).
/// * A statement's `Tick(1)` right before a chain folds into it
///   (`ChainSpec::stmt_tick`); a lone `BinNum` after a tick becomes a
///   one-stage [`Op::BinChain`].
///
/// Registers already consumed into a chain must not reappear as later
/// operands of the same fused group (the fused form never writes them,
/// so a re-read would see a stale value); the scan checks this and
/// refuses such fusions. Each fused op replays its constituents' checks
/// and ticks in the identical order, preserving the ops-as-weight
/// invariant bit-for-bit.
fn fuse(ops: Vec<Op>) -> Vec<Op> {
    let n = ops.len();
    let is_target = jump_targets(&ops);
    let temp = |r: Reg| r >= TEMP_SPLIT;

    let mut out: Vec<Op> = Vec::with_capacity(n);
    let mut map = vec![0u32; n + 1];
    let mut i = 0usize;
    while i < n {
        map[i] = out.len() as u32;

        // Scalar chains, longest first, then their array consumers; a
        // statement tick just before the chain folds into it.
        let folds = matches!(ops[i], Op::Tick(1))
            && i + 1 < n
            && !is_target[i + 1]
            && matches!(ops[i + 1], Op::BinNum { .. });
        let start = i + usize::from(folds);
        if let Op::BinNum {
            op: op1,
            dst,
            lhs: a,
            rhs: b,
        } = ops[start]
        {
            let mut chain = ChainSpec {
                len: 1,
                op1,
                a,
                b,
                op2: op1,
                c: a,
                swap2: false,
                op3: op1,
                d: a,
                swap3: false,
                stmt_tick: u8::from(folds),
                clean: false,
            };
            // `last` holds the chain value so far; `interm` are the
            // scratch registers already folded away (never written by
            // the fused form, so later stages must not read them).
            let mut last = dst;
            let mut interm: Vec<Reg> = Vec::new();
            let mut len = 1usize;
            while len < 3 {
                let k = start + len;
                if k >= n || is_target[k] || !temp(last) {
                    break;
                }
                let Op::BinNum { op, dst, lhs, rhs } = ops[k] else {
                    break;
                };
                let Some((other, swap)) = chain_link(last, lhs, rhs) else {
                    break;
                };
                if interm.contains(&other) {
                    break;
                }
                if len == 1 {
                    chain.op2 = op;
                    chain.c = other;
                    chain.swap2 = swap;
                } else {
                    chain.op3 = op;
                    chain.d = other;
                    chain.swap3 = swap;
                }
                interm.push(last);
                last = dst;
                len += 1;
                chain.len = len as u8;
            }

            // An IndexGet/IndexSet consuming the chain's scratch?
            let k = start + len;
            let consumer = if k < n && !is_target[k] && temp(last) {
                match ops[k] {
                    Op::IndexGet { dst, slot, idx }
                        if idx == last && slot != last && !interm.contains(&slot) =>
                    {
                        Some(Op::IdxGetChain { chain, slot, dst })
                    }
                    Op::IndexSet { slot, idx, val }
                        if val == last
                            && idx != last
                            && slot != last
                            && !interm.contains(&idx)
                            && !interm.contains(&slot) =>
                    {
                        Some(Op::IdxSetChain { chain, slot, idx })
                    }
                    _ => None,
                }
            } else {
                None
            };

            if let Some(op) = consumer {
                out.push(op);
                let fused = out.len() as u32 - 1;
                map[i..=k].fill(fused);
                i = k + 1;
                continue;
            }
            if len >= 2 || folds {
                out.push(Op::BinChain { chain, dst: last });
                let fused = out.len() as u32 - 1;
                map[i..k].fill(fused);
                i = k;
                continue;
            }
        }

        out.push(ops[i].clone());
        i += 1;
    }
    map[n] = out.len() as u32;
    remap_targets(&mut out, &map);
    out
}

/// Marks every fused chain whose operands are certainly initialised
/// scalars whenever it runs (`ChainSpec::clean`).
///
/// A forward must-analysis over the sealed op stream: the fact set is a
/// bitset over the frame's registers, and a register is in it when every
/// path to this point leaves a scalar there — a literal, the preloaded
/// constant `pi`/`e` no input replaced, a value an op produces as a
/// number (arithmetic, an element read, a loop counter), or a register
/// an op already read as a scalar without failing. A `LoadVar` copies
/// its source's fact and a builtin call forgets its destination (some
/// builtins return arrays). A state is kept only at jump targets, where
/// paths meet (intersection). A target starts at "everything" and
/// shrinks; passes repeat until no back edge removes a fact a pass used,
/// which for most programs is after the first. Code no path reaches
/// keeps whatever it is given — it never runs.
fn mark_clean_chains(prog: &mut CompiledProgram) {
    let is_chain = |op: &Op| {
        matches!(
            op,
            Op::BinChain { .. } | Op::IdxGetChain { .. } | Op::IdxSetChain { .. }
        )
    };
    if !prog.ops.iter().any(is_chain) {
        return;
    }
    let mut entry = Bits(vec![0; prog.frame_size.div_ceil(64)]);
    for &(r, _) in &prog.lit_slots {
        entry.set(r);
    }
    for &(r, _) in &prog.const_slots {
        if !prog.input_slots.contains(&r) {
            entry.set(r);
        }
    }
    let mut at = States::new(&prog.ops, entry.0.len());
    let mut cur = Bits(entry.0.clone());
    loop {
        let mut changed = false;
        cur.0.copy_from_slice(&entry.0);
        // False after an op control cannot fall out of.
        let mut live = true;
        for k in 0..prog.ops.len() {
            // At a jump target, meet its state (or take it, where control
            // does not fall in) and keep the result as the state: a back
            // edge then asks for another pass only if it removes a fact
            // this pass used.
            if let Some(state) = at.state_mut(k) {
                if live {
                    cur.meet(state);
                    state.copy_from_slice(&cur.0);
                } else {
                    cur.0.copy_from_slice(state);
                }
                live = true;
            }
            if !live {
                continue;
            }
            match &mut prog.ops[k] {
                Op::Tick(_) | Op::Print { .. } => {}
                Op::Const { dst, .. } => cur.set(*dst),
                Op::LoadVar { dst, slot } => {
                    if cur.has(*slot) {
                        cur.set(*dst)
                    } else {
                        cur.clear(*dst)
                    }
                }
                Op::Call { dst, .. } => cur.clear(*dst),
                Op::IndexGet { dst, idx, .. } => {
                    cur.set(*idx);
                    cur.set(*dst);
                }
                Op::IndexSet { idx, val, .. } => {
                    cur.set(*idx);
                    cur.set(*val);
                }
                Op::BinNum { dst, lhs, rhs, .. } => {
                    cur.set(*lhs);
                    cur.set(*rhs);
                    cur.set(*dst);
                }
                Op::Neg { dst, src } | Op::Not { dst, src } | Op::BoolCast { dst, src, .. } => {
                    cur.set(*src);
                    cur.set(*dst);
                }
                Op::CheckNum { src, .. } | Op::CheckNumRound { src, .. } => cur.set(*src),
                Op::Jump(t) => {
                    changed |= at.flow(k, *t, &cur, None);
                    live = false;
                }
                Op::JumpIfFalse { cond, target, .. } => {
                    cur.set(*cond);
                    changed |= at.flow(k, *target, &cur, None);
                }
                Op::ShortCircuit {
                    src, dst, target, ..
                } => {
                    cur.set(*src);
                    changed |= at.flow(k, *target, &cur, Some(*dst));
                }
                Op::ForTestCopy {
                    i,
                    end,
                    var,
                    target,
                } => {
                    changed |= at.flow(k, *target, &cur, None);
                    cur.set(*i);
                    cur.set(*end);
                    cur.set(*var);
                }
                Op::ForLoop { i, var, body, .. } => {
                    cur.set(*i);
                    changed |= at.flow(k, *body, &cur, Some(*var));
                }
                Op::Fail(_) => live = false,
                Op::BinChain { chain, dst } | Op::IdxGetChain { chain, dst, .. } => {
                    chain.clean = chain.operands().all(|r| cur.has(r));
                    chain.operands().for_each(|r| cur.set(r));
                    cur.set(*dst);
                }
                Op::IdxSetChain { chain, idx, .. } => {
                    chain.clean = chain.operands().all(|r| cur.has(r)) && cur.has(*idx);
                    chain.operands().for_each(|r| cur.set(r));
                    cur.set(*idx);
                }
                Op::BinAffine { .. } | Op::IdxGetAffine { .. } => {
                    unreachable!("specialise_affine runs after this analysis")
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// Rewrites every clean three-stage chain `((x - k) * n) + y` whose `k`
/// and `n` are literal-pool registers into [`Op::BinAffine`] or, when it
/// indexes an element read, [`Op::IdxGetAffine`] — the row-major index
/// of a matrix sweep. The program never writes a pool register, so its
/// value can be frozen into the op; `pi` and `e` can be reassigned and
/// stay registers. A stage with the chained value on the right is not
/// this shape.
fn specialise_affine(prog: &mut CompiledProgram) {
    let n_vars = prog.n_vars;
    let lits = &prog.lit_slots;
    let lit = |r: Reg| lits.get((r as usize).checked_sub(n_vars)?).map(|&(_, v)| v);
    let row_major = (3, BinOp::Sub, BinOp::Mul, BinOp::Add, false, false);
    for op in &mut prog.ops {
        let (ch, slot, dst) = match *op {
            Op::BinChain { chain, dst } => (chain, None, dst),
            Op::IdxGetChain { chain, slot, dst } => (chain, Some(slot), dst),
            _ => continue,
        };
        if !ch.clean || (ch.len, ch.op1, ch.op2, ch.op3, ch.swap2, ch.swap3) != row_major {
            continue;
        }
        let (Some(k), Some(n)) = (lit(ch.b), lit(ch.c)) else {
            continue;
        };
        let (x, y, stmt_tick) = (ch.a, ch.d, ch.stmt_tick);
        *op = match slot {
            None => Op::BinAffine {
                dst,
                x,
                y,
                k,
                n,
                stmt_tick,
            },
            Some(slot) => Op::IdxGetAffine {
                dst,
                slot,
                x,
                y,
                k,
                n,
                stmt_tick,
            },
        };
    }
}

/// A set of registers, one bit each.
struct Bits(Vec<u64>);

impl Bits {
    fn set(&mut self, r: Reg) {
        self.0[r as usize / 64] |= 1 << (r % 64);
    }

    fn clear(&mut self, r: Reg) {
        self.0[r as usize / 64] &= !(1 << (r % 64));
    }

    fn has(&self, r: Reg) -> bool {
        self.0[r as usize / 64] & (1 << (r % 64)) != 0
    }

    fn meet(&mut self, other: &[u64]) {
        for (w, o) in self.0.iter_mut().zip(other) {
            *w &= o;
        }
    }
}

/// The fact sets of `mark_clean_chains` at the jump targets, in one
/// flat buffer: the meet of every state a jump has carried there.
struct States {
    /// Op index -> first word of its state, `usize::MAX` if no jump
    /// lands there.
    first: Vec<usize>,
    words: usize,
    bits: Vec<u64>,
}

impl States {
    fn new(ops: &[Op], words: usize) -> States {
        let mut next = 0;
        let first: Vec<usize> = jump_targets(ops)
            .into_iter()
            .map(|t| {
                if t {
                    next += words;
                    next - words
                } else {
                    usize::MAX
                }
            })
            .collect();
        States {
            first,
            words,
            bits: vec![!0; next],
        }
    }

    /// The state at op `k`, if a jump lands there.
    fn state_mut(&mut self, k: usize) -> Option<&mut [u64]> {
        let s = self.first[k];
        (s != usize::MAX).then(|| &mut self.bits[s..s + self.words])
    }

    /// Meets `from` plus `extra` (a register only the jump writes) into
    /// the state at `target`, for the jump at op `at`. True when that
    /// removed a fact at or before `at`: a later target is met further
    /// on in the same pass, so only a back edge asks for another.
    fn flow(&mut self, at: usize, target: u32, from: &Bits, extra: Option<Reg>) -> bool {
        let s = self.first[target as usize];
        let mut changed = false;
        for (w, (into, &f)) in self.bits[s..s + self.words]
            .iter_mut()
            .zip(&from.0)
            .enumerate()
        {
            let f = match extra {
                Some(r) if r as usize / 64 == w => f | 1 << (r % 64),
                _ => f,
            };
            changed |= *into & !f != 0;
            *into &= f;
        }
        changed && target as usize <= at
    }
}

impl CompiledProgram {
    /// Declared input names in `input_slots` (declaration) order — the
    /// positional contract of [`crate::vm::Vm::run_dense`].
    pub fn input_names(&self) -> impl Iterator<Item = &str> {
        self.input_slots
            .iter()
            .map(move |&s| self.var_names[s as usize].as_str())
    }

    /// Declared output names in `output_slots` (declaration) order — the
    /// positional layout of `DenseOutcome::outputs`.
    pub fn output_names(&self) -> impl Iterator<Item = &str> {
        self.output_slots
            .iter()
            .map(move |&s| self.var_names[s as usize].as_str())
    }

    /// Remaps the compiler's provisional registers into the dense frame:
    /// literal-pool register `LIT_BASE + k` becomes `n_vars + k`, and
    /// end-counted temp `u32::MAX - k` becomes `n_vars + n_lits + k`.
    /// Called once by [`compile`].
    fn seal(mut self) -> CompiledProgram {
        let n = self.n_vars as Reg;
        let nl = self.lit_slots.len() as Reg;
        let fix = |r: &mut Reg| {
            if *r >= TEMP_SPLIT {
                *r = n + nl + (u32::MAX - *r);
            } else if *r >= LIT_BASE {
                *r = n + (*r - LIT_BASE);
            }
        };
        for op in &mut self.ops {
            match op {
                Op::Const { dst, .. } => fix(dst),
                Op::LoadVar { dst, .. } => fix(dst),
                Op::IndexGet { dst, idx, .. } => {
                    fix(dst);
                    fix(idx);
                }
                Op::IndexSet { idx, val, .. } => {
                    fix(idx);
                    fix(val);
                }
                Op::BinNum { dst, lhs, rhs, .. } => {
                    fix(dst);
                    fix(lhs);
                    fix(rhs);
                }
                Op::Neg { dst, src } | Op::Not { dst, src } => {
                    fix(dst);
                    fix(src);
                }
                Op::Call { dst, first, .. } => {
                    fix(dst);
                    fix(first);
                }
                Op::JumpIfFalse { cond, .. } => fix(cond),
                Op::ShortCircuit { src, dst, .. } => {
                    fix(src);
                    fix(dst);
                }
                Op::BoolCast { src, dst, .. } => {
                    fix(src);
                    fix(dst);
                }
                Op::CheckNum { src, .. } | Op::CheckNumRound { src, .. } => fix(src),
                Op::ForTestCopy { i, end, var, .. } | Op::ForLoop { i, end, var, .. } => {
                    fix(i);
                    fix(end);
                    fix(var);
                }
                Op::BinChain { chain, dst } => {
                    fix(&mut chain.a);
                    fix(&mut chain.b);
                    fix(&mut chain.c);
                    fix(&mut chain.d);
                    fix(dst);
                }
                Op::IdxGetChain { chain, slot, dst } => {
                    fix(&mut chain.a);
                    fix(&mut chain.b);
                    fix(&mut chain.c);
                    fix(&mut chain.d);
                    fix(slot);
                    fix(dst);
                }
                Op::IdxSetChain { chain, slot, idx } => {
                    fix(&mut chain.a);
                    fix(&mut chain.b);
                    fix(&mut chain.c);
                    fix(&mut chain.d);
                    fix(slot);
                    fix(idx);
                }
                Op::BinAffine { .. } | Op::IdxGetAffine { .. } => {
                    unreachable!("specialise_affine runs after sealing")
                }
                Op::Print { src } => fix(src),
                Op::Tick(_) | Op::Jump(_) | Op::Fail(_) => {}
            }
        }
        self
    }
}

impl fmt::Display for CompiledProgram {
    /// One op per line: its index, then what it does, with variables by
    /// name, literals by value and scratch registers as `%k`. A chain
    /// the compiler proved clean ends in `(clean)`; `tick 1;` in front
    /// of a chain is a statement tick folded into it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n_lits = self.lit_slots.len();
        let reg = |r: Reg| {
            let r = r as usize;
            if r < self.n_vars {
                self.var_names[r].clone()
            } else if r < self.n_vars + n_lits {
                self.lit_slots[r - self.n_vars].1.to_string()
            } else {
                format!("%{}", r - self.n_vars - n_lits)
            }
        };
        let expr = |ch: &ChainSpec| {
            let mut e = format!("{} {} {}", reg(ch.a), ch.op1.symbol(), reg(ch.b));
            let stages = [(ch.op2, ch.c, ch.swap2), (ch.op3, ch.d, ch.swap3)];
            for (op, o, swap) in stages.into_iter().take(ch.len as usize - 1) {
                e = if swap {
                    format!("{} {} ({e})", reg(o), op.symbol())
                } else {
                    format!("({e}) {} {}", op.symbol(), reg(o))
                };
            }
            e
        };
        let tick = |ch: &ChainSpec| if ch.stmt_tick > 0 { "tick 1; " } else { "" };
        let clean = |ch: &ChainSpec| if ch.clean { "  (clean)" } else { "" };
        // An affine op reads as the clean chain it replaced.
        let affine = |x: Reg, y: Reg, k: f64, n: f64, stmt_tick: u8| {
            let tick = if stmt_tick > 0 { "tick 1; " } else { "" };
            (tick, format!("(({} - {k}) * {n}) + {}", reg(x), reg(y)))
        };
        writeln!(
            f,
            "task {}: {} ops, frame {} ({} variables, {} literals)",
            self.name,
            self.ops.len(),
            self.frame_size,
            self.n_vars,
            n_lits
        )?;
        for (k, op) in self.ops.iter().enumerate() {
            let text = match *op {
                Op::Tick(n) => format!("tick {n}"),
                Op::Const { dst, val } => format!("{} := {val}", reg(dst)),
                Op::LoadVar { dst, slot } => format!("{} := {}", reg(dst), reg(slot)),
                Op::IndexGet { dst, slot, idx } => {
                    format!("{} := {}[{}]", reg(dst), reg(slot), reg(idx))
                }
                Op::IndexSet { slot, idx, val } => {
                    format!("{}[{}] := {}", reg(slot), reg(idx), reg(val))
                }
                Op::BinNum { op, dst, lhs, rhs } => {
                    format!("{} := {} {} {}", reg(dst), reg(lhs), op.symbol(), reg(rhs))
                }
                Op::Neg { dst, src } => format!("{} := -{}", reg(dst), reg(src)),
                Op::Not { dst, src } => format!("{} := not {}", reg(dst), reg(src)),
                Op::Call {
                    builtin,
                    dst,
                    first,
                    argc,
                } => {
                    let args: Vec<String> = (first..first + Reg::from(argc)).map(reg).collect();
                    let name = builtins::BUILTINS[builtin as usize].name;
                    format!("{} := {name}({})", reg(dst), args.join(", "))
                }
                Op::Jump(t) => format!("jump {t}"),
                Op::JumpIfFalse { cond, target, .. } => {
                    format!("unless {} jump {target}", reg(cond))
                }
                Op::ShortCircuit {
                    src,
                    dst,
                    target,
                    is_and,
                } => {
                    let op = if is_and { "and" } else { "or" };
                    format!(
                        "{} := {} {op} …, jump {target} if decided",
                        reg(dst),
                        reg(src)
                    )
                }
                Op::BoolCast { src, dst, .. } => format!("{} := bool {}", reg(dst), reg(src)),
                Op::CheckNum { src, what } => format!("check {} ({what})", reg(src)),
                Op::CheckNumRound { src, what } => format!("round {} ({what})", reg(src)),
                Op::Print { src } => format!("print {}", reg(src)),
                Op::Fail(e) => format!("fail: {}", self.fails[e as usize]),
                Op::BinChain { ref chain, dst } => format!(
                    "{}{} := {}{}",
                    tick(chain),
                    reg(dst),
                    expr(chain),
                    clean(chain)
                ),
                Op::IdxGetChain {
                    ref chain,
                    slot,
                    dst,
                } => format!(
                    "{}{} := {}[{}]{}",
                    tick(chain),
                    reg(dst),
                    reg(slot),
                    expr(chain),
                    clean(chain)
                ),
                Op::IdxSetChain {
                    ref chain,
                    slot,
                    idx,
                } => format!(
                    "{}{}[{}] := {}{}",
                    tick(chain),
                    reg(slot),
                    reg(idx),
                    expr(chain),
                    clean(chain)
                ),
                Op::BinAffine {
                    dst,
                    x,
                    y,
                    k,
                    n,
                    stmt_tick,
                } => {
                    let (tick, e) = affine(x, y, k, n, stmt_tick);
                    format!("{tick}{} := {e}  (clean)", reg(dst))
                }
                Op::IdxGetAffine {
                    dst,
                    slot,
                    x,
                    y,
                    k,
                    n,
                    stmt_tick,
                } => {
                    let (tick, e) = affine(x, y, k, n, stmt_tick);
                    format!("{tick}{} := {}[{e}]  (clean)", reg(dst), reg(slot))
                }
                Op::ForTestCopy {
                    i,
                    end,
                    var,
                    target,
                } => format!(
                    "if {i} <= {end}: {} := {i} else jump {target}",
                    reg(var),
                    i = reg(i),
                    end = reg(end)
                ),
                Op::ForLoop { i, end, var, body } => format!(
                    "tick 1; {i} += 1; if {i} <= {end}: {} := {i}, jump {body}",
                    reg(var),
                    i = reg(i),
                    end = reg(end)
                ),
            };
            writeln!(f, "{k:>4}  {text}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn slots_are_dense_and_start_with_constants() {
        let p = parse_program("task T in a out x local g begin x := a + g end").unwrap();
        let c = compile(&p);
        assert_eq!(c.var_names[0], "pi");
        assert_eq!(c.var_names[1], "e");
        assert_eq!(c.var_names[2], "a");
        assert_eq!(c.var_names[3], "x");
        assert_eq!(c.var_names[4], "g");
        assert_eq!(c.n_vars, 5);
        assert_eq!(c.input_slots, vec![2]);
        assert_eq!(c.output_slots, vec![3]);
        assert_eq!(c.const_slots.len(), 2);
    }

    #[test]
    fn undeclared_names_get_slots_too() {
        let p = parse_program("task T out x begin x := mystery end").unwrap();
        let c = compile(&p);
        assert!(c.var_names.iter().any(|n| n == "mystery"));
    }

    #[test]
    fn unknown_function_compiles_to_fail() {
        let p = parse_program("task T out x begin x := wat(1) end").unwrap();
        let c = compile(&p);
        assert!(c.ops.iter().any(|o| matches!(o, Op::Fail(_))));
        assert_eq!(c.fails, vec![RunError::UnknownFunction("wat".into())]);
    }

    #[test]
    fn bad_arity_compiles_to_fail() {
        let p = parse_program("task T out x begin x := sqrt(1, 2) end").unwrap();
        let c = compile(&p);
        assert!(matches!(c.fails[0], RunError::BadArity { .. }));
    }

    #[test]
    fn call_is_preresolved() {
        let p = parse_program("task T in a out x begin x := sqrt(a) end").unwrap();
        let c = compile(&p);
        let call = c
            .ops
            .iter()
            .find_map(|o| match o {
                Op::Call { builtin, .. } => Some(*builtin as usize),
                _ => None,
            })
            .expect("a Call op");
        assert_eq!(crate::builtins::BUILTINS[call].name, "sqrt");
    }

    #[test]
    fn simple_operands_fuse_into_one_op() {
        // `x := a + 1` needs no LoadVar/Const: one chain reading the
        // variable slot and the literal pool directly, with the
        // statement tick folded in. `a` is an input, so the chain must
        // check it.
        let p = parse_program("task T in a out x begin x := a + 1 end").unwrap();
        let c = compile(&p);
        assert_eq!(c.ops.len(), 1, "{:?}", c.ops);
        let Op::BinChain { chain, .. } = c.ops[0] else {
            panic!("{c}");
        };
        assert_eq!((chain.len, chain.stmt_tick, chain.clean), (1, 1, false));
    }

    /// The `clean` flags of the program's chains, in op order.
    fn clean_flags(src: &str) -> Vec<bool> {
        compile(&parse_program(src).unwrap())
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::BinChain { chain, .. }
                | Op::IdxGetChain { chain, .. }
                | Op::IdxSetChain { chain, .. } => Some(chain.clean),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_fact_the_loop_body_kills_is_not_used_on_the_next_iteration() {
        // `c` is a scalar when the loop starts, but the body makes it an
        // array before the second iteration reads it again; `i` is
        // published afresh by every back edge, so the body cannot
        // unmake it.
        let src = "task T in v out x local c, i begin c := 1 x := 0 \
                   for i := 1 to 3 do x := c + i c := v i := v end end";
        assert_eq!(clean_flags(src), [false]);
        let src = "task T in v out x local c, i begin c := 1 x := 0 \
                   for i := 1 to 3 do x := c + i i := v end end";
        assert_eq!(clean_flags(src), [true]);
        // An input, a builtin's result, and `pi` shadowed by an input are
        // not known to be scalars; a literal, a checked operand and `e`
        // are.
        let src = "task T in a, pi out x local n begin n := len(a) \
                   x := a + 1 x := n + 1 x := pi + 1 x := a + e end";
        assert_eq!(clean_flags(src), [false, false, false, true]);
    }

    /// The tiled LU's update kernel, as `optimize --expand` writes it
    /// for 16 x 16 tiles.
    const GEMM: &str = "task K_gemm_e in l, u, z0 out z1 local t, r, c begin
  z1 := z0
  for t := 1 to 16 do
    for r := 1 to 16 do
      for c := 1 to 16 do
        z1[(r - 1) * 16 + c] := z1[(r - 1) * 16 + c] - l[(r - 1) * 16 + t] * u[(t - 1) * 16 + c]
      end end end end";

    #[test]
    fn the_gemm_inner_loop_is_six_clean_dispatches() {
        let c = compile(&parse_program(GEMM).unwrap());
        let text = c.to_string();
        let (inner, back) = c
            .ops
            .iter()
            .enumerate()
            .find_map(|(k, op)| match *op {
                Op::ForLoop { var, body, .. } if c.var_names[var as usize] == "c" => {
                    Some((body as usize, k))
                }
                _ => None,
            })
            .expect("the inner loop's back edge");
        assert_eq!(
            kinds(&c.ops[inner..=back]),
            [
                "BinAffine",
                "IdxGetAffine",
                "IdxGetAffine",
                "IdxGetAffine",
                "IdxSetChain",
                "ForLoop"
            ],
            "{text}"
        );
        // The affine ops print as the chains they replaced.
        let lines: Vec<&str> = text
            .lines()
            .skip(1 + inner)
            .take(back + 1 - inner)
            .collect();
        assert_eq!(
            lines.join("\n"),
            [
                "  20  tick 1; %6 := ((r - 1) * 16) + c  (clean)",
                "  21  %8 := z1[((r - 1) * 16) + c]  (clean)",
                "  22  %10 := l[((r - 1) * 16) + t]  (clean)",
                "  23  %11 := u[((t - 1) * 16) + c]  (clean)",
                "  24  z1[%6] := %8 - (%10 * %11)  (clean)",
                "  25  tick 1; %4 += 1; if %4 <= %5: c := %4, jump 20",
            ]
            .join("\n"),
            "{text}"
        );
    }

    /// The kind of each op, by its variant name.
    fn kinds(ops: &[Op]) -> Vec<String> {
        let kind = |op: &Op| {
            let text = format!("{op:?}");
            text.chars().take_while(char::is_ascii_alphabetic).collect()
        };
        ops.iter().map(kind).collect()
    }

    /// The kinds of the element read in `x := v[{index}]` inside two
    /// loops over `i` and `j`, with `i` an input or a loop counter.
    fn index_read_kind(index: &str, i_is_input: bool) -> String {
        let (input, i_loop, end) = if i_is_input {
            (", i", "", "")
        } else {
            ("", "for i := 1 to 2 do", "end")
        };
        let src = format!(
            "task T in v{input} out x local j begin {i_loop} for j := 1 to 3 do \
             x := v[{index}] end {end} end"
        );
        let c = compile(&parse_program(&src).unwrap());
        let reads: Vec<String> = kinds(&c.ops)
            .into_iter()
            .filter(|k| k.starts_with("IdxGet"))
            .collect();
        assert_eq!(reads.len(), 1, "{c}");
        let clean = c.ops.iter().any(|op| match op {
            Op::IdxGetChain { chain, .. } => chain.clean,
            _ => false,
        });
        format!("{}{}", reads[0], if clean { " (clean)" } else { "" })
    }

    #[test]
    fn only_the_clean_literal_row_major_index_is_one_op() {
        assert_eq!(index_read_kind("(i - 1) * 3 + j", false), "IdxGetAffine");
        // An input `i` is not known to be a scalar.
        assert_eq!(index_read_kind("(i - 1) * 3 + j", true), "IdxGetChain");
        // The chained value on the right of the product.
        assert_eq!(
            index_read_kind("3 * (i - 1) + j", false),
            "IdxGetChain (clean)"
        );
        // `pi` can be reassigned, so it is not frozen into the op.
        assert_eq!(
            index_read_kind("(i - pi) * 3 + j", false),
            "IdxGetChain (clean)"
        );
        // The same shape as a value: the written index.
        let c = compile(
            &parse_program(
                "task T in v out w local i begin w := v \
                 for i := 1 to 2 do w[(i - 1) * 3 + 1] := 0 + i end end",
            )
            .unwrap(),
        );
        assert!(kinds(&c.ops).contains(&"BinAffine".to_string()), "{c}");
    }

    #[test]
    fn literal_pool_is_deduplicated() {
        let p = parse_program("task T out x begin x := 2 + 2 x := 2 * 2 end").unwrap();
        let c = compile(&p);
        assert_eq!(
            c.lit_slots.iter().filter(|(_, v)| *v == 2.0).count(),
            1,
            "{:?}",
            c.lit_slots
        );
        // Pool slots sit between named variables and scratch.
        for &(slot, _) in &c.lit_slots {
            assert!((slot as usize) >= c.n_vars);
            assert!((slot as usize) < c.frame_size);
        }
    }

    #[test]
    fn registers_fit_frame() {
        let p = parse_program(
            "task T in a out x begin \
             x := ((a + 1) * (a + 2) + (a + 3) * (a + 4)) / (a + max(a, 2 * a)) end",
        )
        .unwrap();
        let c = compile(&p);
        for op in &c.ops {
            for r in regs_of(op) {
                assert!(
                    (r as usize) < c.frame_size,
                    "register {r} out of frame {} in {op:?}",
                    c.frame_size
                );
            }
        }
    }

    fn regs_of(op: &Op) -> Vec<Reg> {
        match *op {
            Op::Const { dst, .. } => vec![dst],
            Op::LoadVar { dst, slot } => vec![dst, slot],
            Op::IndexGet { dst, slot, idx } => vec![dst, slot, idx],
            Op::IndexSet { slot, idx, val } => vec![slot, idx, val],
            Op::BinNum { dst, lhs, rhs, .. } => vec![dst, lhs, rhs],
            Op::Neg { dst, src } | Op::Not { dst, src } => vec![dst, src],
            Op::Call {
                dst, first, argc, ..
            } => {
                let mut v = vec![dst];
                for k in 0..argc as u32 {
                    v.push(first + k);
                }
                v
            }
            Op::JumpIfFalse { cond, .. } => vec![cond],
            Op::ShortCircuit { src, dst, .. } => vec![src, dst],
            Op::BoolCast { src, dst, .. } => vec![src, dst],
            Op::CheckNum { src, .. } | Op::CheckNumRound { src, .. } => vec![src],
            Op::ForTestCopy { i, end, var, .. } | Op::ForLoop { i, end, var, .. } => {
                vec![i, end, var]
            }
            Op::BinChain { chain, dst } => vec![chain.a, chain.b, chain.c, chain.d, dst],
            Op::IdxGetChain { chain, slot, dst } => {
                vec![chain.a, chain.b, chain.c, chain.d, slot, dst]
            }
            Op::IdxSetChain { chain, slot, idx } => {
                vec![chain.a, chain.b, chain.c, chain.d, slot, idx]
            }
            Op::BinAffine { dst, x, y, .. } => vec![dst, x, y],
            Op::IdxGetAffine {
                dst, slot, x, y, ..
            } => vec![dst, slot, x, y],
            Op::Print { src } => vec![src],
            Op::Tick(_) | Op::Jump(_) | Op::Fail(_) => vec![],
        }
    }
}

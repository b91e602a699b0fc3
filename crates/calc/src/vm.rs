//! Register VM for compiled PITS programs.
//!
//! Executes the flat op stream produced by [`crate::compile`] over a
//! reusable frame. Variable references are plain vector indexing (the
//! compiler resolved every name to a dense slot), builtin calls are
//! direct function-pointer invocations, and the frame and the print log
//! live inside a [`Vm`] that worker threads keep across task executions
//! — so the steady-state hot loop performs no allocation beyond what the
//! program's own values require.
//!
//! A frame register (`Slot`) is in one of three states: never
//! assigned, holding a value (a scalar, or an array shared
//! copy-on-write), or holding an array the frame alone owns. The first
//! element write to an array register takes its buffer out of the `Arc`
//! — the buffer itself when no one else holds it, else one copy, counted
//! in [`crate::value::cow`] exactly as `Arc::make_mut` would have copied
//! — and every later write to it is a plain store with no atomic
//! operation. Reading the register as a whole (`LoadVar`, `print`, an
//! output) moves the buffer back into an `Arc`, so sharing, and the copy
//! count, are what they would be with a write gate on every element; a
//! run drops the buffers it still owns.
//!
//! Chains the compiler proved clean (`ChainSpec::clean`: every operand
//! an initialised scalar) read their operands unchecked and tick once,
//! with one budget compare; the rest replay each constituent's checks
//! and ticks. A `for` loop is rotated: `ForTestCopy` tests once on
//! entry, and the back edge `ForLoop` ticks, steps, re-tests and
//! publishes the counter in one dispatch. The clean row-major index
//! `((x - k) * n) + y`, with `k` and `n` literals, is one op
//! (`BinAffine`, `IdxGetAffine`) with `k` and `n` frozen into it.
//!
//! A scalar write stores the number in place when the register already
//! holds one: no `Slot` is built and nothing is dropped.
//!
//! The observable contract is *identical* to the tree-walker
//! ([`crate::interp`]): same `Outcome` (outputs, prints, and — crucially
//! for the scheduler, which consumes `ops` as a measured task weight —
//! the same op count), same errors, and `StepLimit` at the same budget.
//! `tests/prop_vm.rs` enforces this differentially over generated
//! programs.

use crate::ast::BinOp;
use crate::builtins;
use crate::compile::{compile, ctx, ChainSpec, CompiledProgram, Op, Reg};
use crate::error::RunError;
use crate::interp::{InterpConfig, Outcome};
use crate::value::{checked_offset, unwrap_counted, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The result of a dense-port run ([`Vm::run_dense`]): outputs in
/// `CompiledProgram::output_slots` order instead of a name-keyed map, so
/// the executor can route values by integer index without touching
/// strings. `ops` is the same measured weight an [`Outcome`] carries.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseOutcome {
    /// Output values, positionally aligned with `prog.output_slots`.
    pub outputs: Vec<Value>,
    /// Lines produced by `print` statements, in order.
    pub prints: Vec<String>,
    /// Abstract operations executed — a measured task weight.
    pub ops: u64,
}

/// A chain stage: the chained value `v` on the left, or on the right
/// when `swap`.
macro_rules! stage {
    ($op:expr, $v:expr, $o:expr, $swap:expr) => {
        if $swap {
            apply_bin($op, $o, $v)
        } else {
            apply_bin($op, $v, $o)
        }
    };
}

/// A frame register, in one of three states: never assigned, holding a
/// value (a scalar, or an array shared copy-on-write), or holding an
/// array the frame alone owns.
#[derive(Debug, Default)]
enum Slot {
    /// Never assigned: reading it is `Undefined`.
    #[default]
    Unset,
    /// A scalar value.
    Num(f64),
    /// An array value, shared copy-on-write.
    Shared(Arc<Vec<f64>>),
    /// An array only this frame holds, since an element write.
    Owned(Vec<f64>),
}

impl Slot {
    fn from_value(v: Value) -> Slot {
        match v {
            Value::Num(x) => Slot::Num(x),
            Value::Array(a) => Slot::Shared(a),
        }
    }

    /// The value of an assigned register that holds no owned array
    /// (scratch registers never do).
    fn value(&self) -> Value {
        match self {
            Slot::Num(x) => Value::Num(*x),
            Slot::Shared(a) => Value::Array(Arc::clone(a)),
            Slot::Unset | Slot::Owned(_) => unreachable!("a call argument is an assigned scratch"),
        }
    }

    /// Register `r` read as a whole value (`LoadVar`, `print`, an
    /// output): `Undefined` if never assigned; an owned buffer moves
    /// back into an `Arc` first, so the value handed out shares it.
    fn share(&mut self, prog: &CompiledProgram, r: Reg) -> Result<Value, RunError> {
        if let Slot::Owned(buf) = self {
            *self = Slot::Shared(Arc::new(std::mem::take(buf)));
        }
        match self {
            Slot::Num(x) => Ok(Value::Num(*x)),
            Slot::Shared(a) => Ok(Value::Array(Arc::clone(a))),
            Slot::Unset => Err(undefined(prog, r)),
            Slot::Owned(_) => unreachable!("moved into an Arc above"),
        }
    }

    /// Register `r` read as a scalar: `Undefined`, then
    /// `NotAScalar(what)` — the tree-walker's variable read and
    /// `as_num`. Scratch and literal-pool registers are always assigned
    /// when read, which is what lets the compiler pass named slots
    /// directly as operands.
    #[inline(always)]
    fn num(&self, prog: &CompiledProgram, r: Reg, what: &str) -> Result<f64, RunError> {
        match *self {
            Slot::Num(x) => Ok(x),
            Slot::Unset => Err(undefined(prog, r)),
            Slot::Shared(_) | Slot::Owned(_) => Err(not_a_scalar(what)),
        }
    }

    /// `Undefined` if register `r` was never assigned.
    #[inline(always)]
    fn defined(&self, prog: &CompiledProgram, r: Reg) -> Result<(), RunError> {
        match self {
            Slot::Unset => Err(undefined(prog, r)),
            _ => Ok(()),
        }
    }

    /// Element `raw` of the array in variable `slot`, for a read:
    /// `Undefined`, `NotAnArray`, then `IndexOutOfRange`.
    #[inline(always)]
    fn element(&self, prog: &CompiledProgram, slot: Reg, raw: f64) -> Result<f64, RunError> {
        let a: &[f64] = match self {
            Slot::Owned(buf) => buf,
            Slot::Shared(a) => a,
            Slot::Num(_) => return Err(not_an_array(prog, slot)),
            Slot::Unset => return Err(undefined(prog, slot)),
        };
        match checked_offset(raw, a.len()) {
            Ok(i) => Ok(a[i]),
            Err(index) => Err(out_of_range(prog, slot, index, a.len())),
        }
    }

    /// Element `raw` of the array in variable `slot`, for a write, with
    /// the checks of [`Slot::element`]. The first write takes the buffer
    /// out of its `Arc` ([`Slot::own`]); later ones find it owned.
    #[inline(always)]
    fn element_mut(
        &mut self,
        prog: &CompiledProgram,
        slot: Reg,
        raw: f64,
    ) -> Result<&mut f64, RunError> {
        if !matches!(self, Slot::Owned(_)) {
            self.own(prog, slot, raw)?;
        }
        let Slot::Owned(buf) = self else {
            unreachable!("owned above")
        };
        match checked_offset(raw, buf.len()) {
            Ok(i) => Ok(&mut buf[i]),
            Err(index) => Err(out_of_range(prog, slot, index, buf.len())),
        }
    }

    /// The first write to an array register: its checks, then the buffer
    /// out of the `Arc` — itself if unshared, else one counted copy.
    /// Nothing is taken when a check fails, as `Arc::make_mut` after the
    /// index check took nothing.
    #[inline(never)]
    fn own(&mut self, prog: &CompiledProgram, slot: Reg, raw: f64) -> Result<(), RunError> {
        self.element(prog, slot, raw)?;
        if let Slot::Shared(a) = std::mem::take(self) {
            *self = Slot::Owned(unwrap_counted(a));
        }
        Ok(())
    }
}

/// A reusable execution frame. Cheap to create; cheaper to keep.
#[derive(Debug, Default)]
pub struct Vm {
    regs: Vec<Slot>,
    /// A builtin call's arguments, as the values it takes.
    args: Vec<Value>,
}

impl Vm {
    /// A VM with an empty frame (grown on first run).
    pub fn new() -> Self {
        Vm::default()
    }

    /// Resets the frame and preloads constants and the literal pool.
    /// `clear` + `resize` keeps the allocation across runs; it drops
    /// whatever the last run left, owned buffers included.
    fn reset(&mut self, prog: &CompiledProgram) {
        self.regs.clear();
        self.regs.resize_with(prog.frame_size, Slot::default);
        for &(slot, v) in &prog.const_slots {
            self.regs[slot as usize] = Slot::Num(v);
        }
        // The literal pool: read-only slots ops reference directly.
        for &(slot, v) in &prog.lit_slots {
            self.regs[slot as usize] = Slot::Num(v);
        }
    }

    /// Runs a compiled program. The frame is recycled between calls.
    pub fn run(
        &mut self,
        prog: &CompiledProgram,
        inputs: &BTreeMap<String, Value>,
        config: InterpConfig,
    ) -> Result<Outcome, RunError> {
        self.reset(prog);
        for &slot in &prog.input_slots {
            let name = &prog.var_names[slot as usize];
            let v = inputs
                .get(name)
                .ok_or_else(|| RunError::MissingInput(name.clone()))?;
            self.regs[slot as usize] = Slot::from_value(v.clone());
        }

        let mut prints = Vec::new();
        let outcome = self
            .dispatch(prog, config.max_steps, &mut prints)
            .and_then(|ops| {
                let mut outputs = BTreeMap::new();
                for &slot in &prog.output_slots {
                    let name = prog.var_names[slot as usize].clone();
                    outputs.insert(name, self.regs[slot as usize].share(prog, slot)?);
                }
                Ok(Outcome {
                    outputs,
                    prints,
                    ops,
                })
            });
        self.disown();
        outcome
    }

    /// Runs a compiled program with positionally-bound inputs: `inputs[i]`
    /// feeds `prog.input_slots[i]` (the executor's dense-port fast path —
    /// no name lookups, every bind an `Arc` bump). Observable semantics —
    /// outputs, prints, ops, errors, `StepLimit` budget — are identical
    /// to [`Vm::run`] with the equivalent name-keyed map.
    pub fn run_dense(
        &mut self,
        prog: &CompiledProgram,
        inputs: &[Value],
        config: InterpConfig,
    ) -> Result<DenseOutcome, RunError> {
        debug_assert_eq!(inputs.len(), prog.input_slots.len());
        self.reset(prog);
        for (&slot, v) in prog.input_slots.iter().zip(inputs) {
            self.regs[slot as usize] = Slot::from_value(v.clone());
        }

        let mut prints = Vec::new();
        let outcome = self
            .dispatch(prog, config.max_steps, &mut prints)
            .and_then(|ops| {
                let outputs = prog
                    .output_slots
                    .iter()
                    .map(|&slot| self.regs[slot as usize].share(prog, slot))
                    .collect::<Result<_, _>>()?;
                Ok(DenseOutcome {
                    outputs,
                    prints,
                    ops,
                })
            });
        self.disown();
        outcome
    }

    /// Drops the owned buffers a run leaves (its outputs were moved back
    /// into `Arc`s), so a kept frame holds no array of its own.
    fn disown(&mut self) {
        for r in &mut self.regs {
            if let Slot::Owned(_) = r {
                *r = Slot::Unset;
            }
        }
    }

    /// The dispatch loop. Returns the op count (the measured weight).
    fn dispatch(
        &mut self,
        prog: &CompiledProgram,
        max_steps: u64,
        prints: &mut Vec<String>,
    ) -> Result<u64, RunError> {
        let code = &prog.ops[..];
        let regs = &mut self.regs[..];
        let mut pc = 0usize;
        let mut ops: u64 = 0;

        macro_rules! tick {
            ($n:expr) => {{
                ops += $n;
                if ops > max_steps {
                    return Err(RunError::StepLimit(max_steps));
                }
            }};
        }
        macro_rules! put {
            ($dst:expr, $v:expr) => {
                regs[$dst as usize] = $v
            };
        }
        // Writes a scalar: in place when the register already holds one,
        // so the common write has no drop glue and builds no `Slot`.
        macro_rules! num {
            ($dst:expr, $v:expr) => {{
                let v = $v;
                match &mut regs[$dst as usize] {
                    Slot::Num(x) => *x = v,
                    s => *s = Slot::Num(v),
                }
            }};
        }
        // Reads a register the compiler proved holds a scalar: a loop
        // counter or bound after `CheckNumRound`, or an operand of a
        // clean chain.
        macro_rules! scalar {
            ($r:expr) => {
                match regs[$r as usize] {
                    Slot::Num(v) => v,
                    _ => unreachable!("a proved scalar register holds no scalar"),
                }
            };
        }
        // Evaluates a fused 1–3-op scalar chain (`ChainSpec`). A clean
        // chain ticks once for all its stages and reads its operands
        // unchecked; any other goes through `checked_chain`.
        macro_rules! chain {
            ($ch:expr) => {{
                let ch = $ch;
                if ch.clean {
                    tick!(ch.ticks());
                    let mut v = apply_bin(ch.op1, scalar!(ch.a), scalar!(ch.b));
                    if ch.len >= 2 {
                        v = stage!(ch.op2, v, scalar!(ch.c), ch.swap2);
                    }
                    if ch.len >= 3 {
                        v = stage!(ch.op3, v, scalar!(ch.d), ch.swap3);
                    }
                    v
                } else {
                    let v = checked_chain(regs, prog, ch, ops, max_steps)?;
                    ops += ch.ticks();
                    v
                }
            }};
        }

        // The clean chain `((x - k) * n) + y` with `k` and `n` frozen:
        // its ticks with one budget compare, then the chain's IEEE
        // operations in the chain's order.
        macro_rules! affine {
            ($stmt_tick:expr, $x:expr, $y:expr, $k:expr, $n:expr) => {{
                tick!(u64::from($stmt_tick) + 3);
                (scalar!($x) - $k) * $n + scalar!($y)
            }};
        }

        while pc < code.len() {
            match code[pc] {
                Op::Tick(n) => tick!(n),
                Op::Const { dst, val } => num!(dst, val),
                Op::LoadVar { dst, slot } => {
                    let v = regs[slot as usize].share(prog, slot)?;
                    put!(dst, Slot::from_value(v));
                }
                Op::IndexGet { dst, slot, idx } => {
                    let raw = regs[idx as usize].num(prog, idx, ctx::ARRAY_INDEX)?;
                    let v = regs[slot as usize].element(prog, slot, raw)?;
                    tick!(1);
                    num!(dst, v);
                }
                Op::IndexSet { slot, idx, val } => {
                    let raw = regs[idx as usize].num(prog, idx, ctx::ARRAY_INDEX)?;
                    let v = regs[val as usize].num(prog, val, ctx::ARRAY_ELEMENT)?;
                    *regs[slot as usize].element_mut(prog, slot, raw)? = v;
                }
                Op::BinNum { op, dst, lhs, rhs } => {
                    let l = regs[lhs as usize].num(prog, lhs, ctx::LEFT_OPERAND)?;
                    let r = regs[rhs as usize].num(prog, rhs, ctx::RIGHT_OPERAND)?;
                    tick!(1);
                    num!(dst, apply_bin(op, l, r));
                }
                // The fused chains replay their constituent `BinNum`s'
                // check/tick/compute sequences exactly; intermediates
                // live in a local instead of scratch registers. A
                // chained intermediate needs no checks (it is a number
                // the VM just produced), matching how the original read
                // of an always-initialised scratch slot could not fail.
                Op::BinChain { ref chain, dst } => {
                    let v = chain!(chain);
                    num!(dst, v);
                }
                Op::IdxGetChain {
                    ref chain,
                    slot,
                    dst,
                } => {
                    // The chain computes the index; then exactly the
                    // `IndexGet` sequence (its index checks are the
                    // trivially-passing scratch reads).
                    let raw = chain!(chain);
                    let v = regs[slot as usize].element(prog, slot, raw)?;
                    tick!(1);
                    num!(dst, v);
                }
                Op::IdxSetChain {
                    ref chain,
                    slot,
                    idx,
                } => {
                    // The chain computes the element *value* (it ran
                    // before the `IndexSet` in the unfused stream); the
                    // index check below is the real one.
                    let v = chain!(chain);
                    let raw = if chain.clean {
                        scalar!(idx)
                    } else {
                        regs[idx as usize].num(prog, idx, ctx::ARRAY_INDEX)?
                    };
                    *regs[slot as usize].element_mut(prog, slot, raw)? = v;
                }
                Op::BinAffine {
                    dst,
                    x,
                    y,
                    k,
                    n,
                    stmt_tick,
                } => num!(dst, affine!(stmt_tick, x, y, k, n)),
                Op::IdxGetAffine {
                    dst,
                    slot,
                    x,
                    y,
                    k,
                    n,
                    stmt_tick,
                } => {
                    let raw = affine!(stmt_tick, x, y, k, n);
                    let v = regs[slot as usize].element(prog, slot, raw)?;
                    tick!(1);
                    num!(dst, v);
                }
                Op::Neg { dst, src } => {
                    regs[src as usize].defined(prog, src)?;
                    tick!(1);
                    let v = regs[src as usize].num(prog, src, ctx::NEG_OPERAND)?;
                    num!(dst, -v);
                }
                Op::Not { dst, src } => {
                    regs[src as usize].defined(prog, src)?;
                    tick!(1);
                    let v = regs[src as usize].num(prog, src, ctx::NOT_OPERAND)?;
                    num!(dst, bool_num(v == 0.0));
                }
                Op::Call {
                    builtin,
                    dst,
                    first,
                    argc,
                } => {
                    let b = &builtins::BUILTINS[builtin as usize];
                    tick!(b.cost);
                    let first = first as usize;
                    let args = &regs[first..first + argc as usize];
                    self.args.extend(args.iter().map(Slot::value));
                    let v = (b.func)(&self.args);
                    self.args.clear();
                    put!(dst, Slot::from_value(v?));
                }
                Op::Jump(target) => {
                    pc = target as usize;
                    continue;
                }
                Op::JumpIfFalse { cond, target, what } => {
                    if regs[cond as usize].num(prog, cond, what)? == 0.0 {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::ShortCircuit {
                    src,
                    dst,
                    target,
                    is_and,
                } => {
                    let what = if is_and {
                        ctx::AND_OPERAND
                    } else {
                        ctx::OR_OPERAND
                    };
                    let l = regs[src as usize].num(prog, src, what)? != 0.0;
                    tick!(1);
                    if l != is_and {
                        // `and` with false lhs, or `or` with true lhs:
                        // the result is decided.
                        num!(dst, bool_num(l));
                        pc = target as usize;
                        continue;
                    }
                }
                Op::BoolCast { src, dst, is_and } => {
                    let what = if is_and {
                        ctx::AND_OPERAND
                    } else {
                        ctx::OR_OPERAND
                    };
                    let r = regs[src as usize].num(prog, src, what)? != 0.0;
                    num!(dst, bool_num(r));
                }
                Op::CheckNum { src, what } => {
                    regs[src as usize].num(prog, src, what)?;
                }
                Op::CheckNumRound { src, what } => {
                    let v = regs[src as usize].num(prog, src, what)?;
                    num!(src, v.round());
                }
                // `<=`, not `!(>)`: a NaN bound or start runs no
                // iteration, as in the tree-walker's `while i <= end`.
                Op::ForTestCopy {
                    i,
                    end,
                    var,
                    target,
                } => {
                    let v = scalar!(i);
                    if v <= scalar!(end) {
                        num!(var, v);
                    } else {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::ForLoop { i, end, var, body } => {
                    tick!(1);
                    let v = scalar!(i) + 1.0;
                    num!(i, v);
                    if v <= scalar!(end) {
                        num!(var, v);
                        pc = body as usize;
                        continue;
                    }
                }
                Op::Print { src } => {
                    let v = regs[src as usize].share(prog, src)?;
                    prints.push(v.to_string());
                }
                Op::Fail(i) => return Err(prog.fails[i as usize].clone()),
            }
            pc += 1;
        }
        Ok(ops)
    }
}

/// A chain not proved clean: each constituent's checks and ticks in
/// order, the non-chained operand of each stage keeping its original
/// left/right error context (`swap` = the chained value was the
/// right-hand operand, so the register operand is the left). `ops`
/// is the count before the chain; on success the chain has ticked
/// `ch.ticks()`.
#[inline(never)]
fn checked_chain(
    regs: &[Slot],
    prog: &CompiledProgram,
    ch: &ChainSpec,
    mut ops: u64,
    max_steps: u64,
) -> Result<f64, RunError> {
    let mut tick = |n: u64| {
        ops += n;
        if ops > max_steps {
            return Err(RunError::StepLimit(max_steps));
        }
        Ok(())
    };
    tick(u64::from(ch.stmt_tick))?;
    let l = regs[ch.a as usize].num(prog, ch.a, ctx::LEFT_OPERAND)?;
    let r = regs[ch.b as usize].num(prog, ch.b, ctx::RIGHT_OPERAND)?;
    tick(1)?;
    let mut v = apply_bin(ch.op1, l, r);
    let stages = [(ch.op2, ch.c, ch.swap2), (ch.op3, ch.d, ch.swap3)];
    for (op, other, swap) in stages.into_iter().take(ch.len as usize - 1) {
        let what = if swap {
            ctx::LEFT_OPERAND
        } else {
            ctx::RIGHT_OPERAND
        };
        let o = regs[other as usize].num(prog, other, what)?;
        tick(1)?;
        v = stage!(op, v, o, swap);
    }
    Ok(v)
}

/// `Undefined`, naming the variable (scratch and pool registers never
/// raise it).
#[cold]
fn undefined(prog: &CompiledProgram, r: Reg) -> RunError {
    RunError::Undefined(prog.var_names.get(r as usize).cloned().unwrap_or_default())
}

#[cold]
fn not_a_scalar(what: &str) -> RunError {
    RunError::NotAScalar(what.to_string())
}

#[cold]
fn not_an_array(prog: &CompiledProgram, slot: Reg) -> RunError {
    RunError::NotAnArray(prog.var_names[slot as usize].clone())
}

#[cold]
fn out_of_range(prog: &CompiledProgram, slot: Reg, index: i64, len: usize) -> RunError {
    RunError::IndexOutOfRange {
        var: prog.var_names[slot as usize].clone(),
        index,
        len,
    }
}

fn bool_num(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// Scalar arithmetic shared by [`Op::BinNum`] and the fused chain ops.
#[inline(always)]
fn apply_bin(op: BinOp, l: f64, r: f64) -> f64 {
    match op {
        BinOp::Add => l + r,
        BinOp::Sub => l - r,
        BinOp::Mul => l * r,
        BinOp::Div => l / r, // IEEE semantics, like the tree-walker
        BinOp::Mod => l.rem_euclid(r),
        BinOp::Pow => l.powf(r),
        BinOp::Eq => bool_num(l == r),
        BinOp::Ne => bool_num(l != r),
        BinOp::Lt => bool_num(l < r),
        BinOp::Le => bool_num(l <= r),
        BinOp::Gt => bool_num(l > r),
        BinOp::Ge => bool_num(l >= r),
        BinOp::And | BinOp::Or => unreachable!("compiled to ShortCircuit"),
    }
}

/// One-shot convenience: runs an already-compiled program on a fresh
/// frame. Prefer keeping a [`Vm`] when running many tasks.
pub fn run_compiled(
    prog: &CompiledProgram,
    inputs: &BTreeMap<String, Value>,
    config: InterpConfig,
) -> Result<Outcome, RunError> {
    Vm::new().run(prog, inputs, config)
}

/// One-shot convenience: compiles and runs in one go (tests, REPL).
pub fn compile_and_run(
    prog: &crate::ast::Program,
    inputs: &BTreeMap<String, Value>,
    config: InterpConfig,
) -> Result<Outcome, RunError> {
    run_compiled(&compile(prog), inputs, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp;
    use crate::parser::parse_program;

    fn inputs(pairs: &[(&str, Value)]) -> BTreeMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    /// Asserts VM and tree-walker agree exactly on a program + inputs,
    /// at the default budget and at a few tiny ones (StepLimit parity).
    fn assert_parity(src: &str, ins: &BTreeMap<String, Value>) {
        let p = parse_program(src).unwrap();
        let c = compile(&p);
        let mut vm = Vm::new();
        for max_steps in [3, 17, 64, 1_000, InterpConfig::default().max_steps] {
            let cfg = InterpConfig {
                max_steps,
                ..Default::default()
            };
            let want = interp::run_with(&p, ins, cfg);
            let got = vm.run(&c, ins, cfg);
            assert_eq!(got, want, "divergence at max_steps={max_steps} for:\n{src}");
        }
    }

    /// [`assert_parity`] at every budget from 1 up to the first that the
    /// run does not exhaust: the op total of a run that ends, or the ops
    /// a failing run ticked before its error.
    fn assert_parity_at_every_budget(src: &str, ins: &BTreeMap<String, Value>) {
        let p = parse_program(src).unwrap();
        let c = compile(&p);
        let mut vm = Vm::new();
        for max_steps in 1..100_000 {
            let cfg = InterpConfig {
                max_steps,
                ..Default::default()
            };
            let want = interp::run_with(&p, ins, cfg);
            let got = vm.run(&c, ins, cfg);
            assert_eq!(got, want, "divergence at max_steps={max_steps} for:\n{src}");
            if want != Err(RunError::StepLimit(max_steps)) {
                return;
            }
        }
        panic!("no budget up to 100,000 lets this run end:\n{src}");
    }

    /// Reads and writes a 2 x 3 matrix through `(i - 1) * 3 + j`, then
    /// runs `tail`.
    fn affine_src(rows: &str, cols: &str, tail: &str) -> String {
        format!(
            "task T in v out w, s local i, j, h begin w := v s := 0 \
             for i := 1 to {rows} do for j := {cols} do \
             w[(i - 1) * 3 + j] := w[(i - 1) * 3 + j] * 2 + i \
             s := s + v[(i - 1) * 3 + j] end end {tail} end"
        )
    }

    #[test]
    fn the_affine_ops_match_the_tree_walker_at_every_budget() {
        let v = inputs(&[("v", Value::array(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))]);
        let rounding = "i := 2 j := 1.4 s := s + w[(i - 1) * 3 + j] \
                        j := 2.5 s := s + w[(i - 1) * 3 + j]";
        for (rows, cols, tail) in [
            ("2", "1 to 3", ""),
            // Index 0, then one past the end (7 of 6).
            ("2", "0 to 3", ""),
            ("2", "1 to 4", ""),
            // A NaN bound runs no iteration; a NaN index is index 0.
            ("0 / 0", "1 to 3", ""),
            ("2", "1 to 3", "h := 0 / 0 s := s + w[(h - 1) * 3 + 1]"),
            // 4.4 and 5.5 round to elements 4 and 6.
            ("2", "1 to 3", rounding),
        ] {
            let src = affine_src(rows, cols, tail);
            let c = compile(&parse_program(&src).unwrap());
            let has = |kind: fn(&Op) -> bool| c.ops.iter().any(kind);
            assert!(has(|op| matches!(op, Op::BinAffine { .. })), "{c}");
            assert!(has(|op| matches!(op, Op::IdxGetAffine { .. })), "{c}");
            assert_parity_at_every_budget(&src, &v);
        }
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
    fn figure4_sqrt_matches_interp() {
        for a in [2.0, 9.0, 100.0, 12345.678] {
            assert_parity(SQRT_SRC, &inputs(&[("a", Value::Num(a))]));
        }
    }

    #[test]
    fn sqrt_value_is_right() {
        let p = parse_program(SQRT_SRC).unwrap();
        let c = compile(&p);
        let out = run_compiled(
            &c,
            &inputs(&[("a", Value::Num(2.0))]),
            InterpConfig::default(),
        )
        .unwrap();
        let x = out.outputs["x"].as_num("x").unwrap();
        assert!((x - 2.0_f64.sqrt()).abs() < 1e-9);
        assert!(out.ops > 0);
    }

    #[test]
    fn missing_input_matches() {
        assert_parity(SQRT_SRC, &BTreeMap::new());
    }

    #[test]
    fn unassigned_output_matches() {
        assert_parity(
            "task T in a out x begin a := a end",
            &inputs(&[("a", Value::Num(1.0))]),
        );
    }

    #[test]
    fn runaway_loop_hits_step_limit() {
        let p = parse_program("task T out x begin x := 0 while 1 do x := x + 1 end end").unwrap();
        let c = compile(&p);
        let cfg = InterpConfig {
            max_steps: 1000,
            ..Default::default()
        };
        assert_eq!(
            run_compiled(&c, &BTreeMap::new(), cfg),
            Err(RunError::StepLimit(1000))
        );
    }

    #[test]
    fn if_else_for_while_parity() {
        for src in [
            "task T in a out s begin if a >= 0 then s := 1 else s := -1 end end",
            "task T in n out s local i begin s := 0 for i := 1 to n do s := s + i end end",
            "task T out s local i begin s := 0 for i := 1 to 0 do s := s + 1 end end",
            "task T in n out s local i begin s := 0 i := 0 \
             while i < n do i := i + 1 s := s + i * i end end",
        ] {
            for v in [-3.0, 0.0, 3.0, 100.0] {
                assert_parity(src, &inputs(&[("a", Value::Num(v)), ("n", Value::Num(v))]));
            }
        }
    }

    #[test]
    fn arrays_parity() {
        let src = "task T in v out w local i, n begin \
                   n := len(v) \
                   w := zeros(n) \
                   for i := 1 to n do w[i] := v[i] * 2 end \
                   end";
        assert_parity(src, &inputs(&[("v", Value::array(vec![1.0, 2.0, 3.0]))]));
        assert_parity(src, &inputs(&[("v", Value::array(vec![]))]));
        assert_parity(src, &inputs(&[("v", Value::Num(7.0))]));
    }

    #[test]
    fn array_error_parity() {
        assert_parity(
            "task T in v out x begin x := v[5] end",
            &inputs(&[("v", Value::array(vec![1.0]))]),
        );
        assert_parity(
            "task T in v out x begin v[1] := 0 x := 0 end",
            &inputs(&[("v", Value::Num(3.0))]),
        );
    }

    #[test]
    fn prints_parity() {
        assert_parity(
            "task T in a begin print a print a * 2 print zeros(2) end",
            &inputs(&[("a", Value::Num(5.0))]),
        );
    }

    #[test]
    fn short_circuit_parity() {
        // RHS names an undefined variable; short-circuit must skip it.
        assert_parity(
            "task T in a out x begin \
             if a = 0 and nosuch then x := 1 else x := 2 end end",
            &inputs(&[("a", Value::Num(1.0))]),
        );
        assert_parity(
            "task T in a out x begin \
             if a = 1 or nosuch then x := 1 else x := 2 end end",
            &inputs(&[("a", Value::Num(1.0))]),
        );
    }

    #[test]
    fn self_referential_logic_reads_old_value() {
        // `x := a and x` — the destination must not be clobbered before
        // the right-hand side reads it.
        assert_parity(
            "task T in a out x begin x := 1 x := a and x end",
            &inputs(&[("a", Value::Num(1.0))]),
        );
        assert_parity(
            "task T in a out x begin x := 0 x := a or x end",
            &inputs(&[("a", Value::Num(0.0))]),
        );
    }

    #[test]
    fn constants_preloaded_and_overwritable() {
        assert_parity("task T out x begin x := 2 * pi + e end", &BTreeMap::new());
        assert_parity("task T out x begin pi := 3 x := pi end", &BTreeMap::new());
    }

    #[test]
    fn dead_branch_unknown_function_is_harmless() {
        assert_parity(
            "task T in a out x begin \
             if a > 0 then x := 1 else x := wat(1) end end",
            &inputs(&[("a", Value::Num(1.0))]),
        );
        assert_parity(
            "task T in a out x begin \
             if a > 0 then x := 1 else x := wat(1) end end",
            &inputs(&[("a", Value::Num(-1.0))]),
        );
        assert_parity(
            "task T in a out x begin \
             if a > 0 then x := 1 else x := sqrt(1, 2) end end",
            &inputs(&[("a", Value::Num(-1.0))]),
        );
    }

    #[test]
    fn error_ordering_matches_interp() {
        // Left operand must be rejected before the (undefined) right
        // operand is evaluated.
        assert_parity(
            "task T in v out x begin x := v + nosuch end",
            &inputs(&[("v", Value::array(vec![1.0]))]),
        );
        // Unary: tick happens before the type check.
        assert_parity(
            "task T in v out x begin x := -v end",
            &inputs(&[("v", Value::array(vec![1.0]))]),
        );
        assert_parity(
            "task T in v out x begin x := not v end",
            &inputs(&[("v", Value::array(vec![1.0]))]),
        );
    }

    #[test]
    fn loops_that_unmake_a_scalar_parity() {
        // The body turns `c`, then the counter, into arrays after a chain
        // read them; the next iteration must fail as the tree-walker does.
        let v = Value::array(vec![1.0, 2.0]);
        assert_parity(
            "task T in v out x local c, i begin c := 1 x := 0 \
             for i := 1 to 3 do x := c + i c := v end end",
            &inputs(&[("v", v.clone())]),
        );
        assert_parity(
            "task T in v out x local i begin x := 0 \
             for i := 1 to 3 do x := x + i i := v x := x + i end end",
            &inputs(&[("v", v.clone())]),
        );
        // NaN and infinite bounds: no iteration, or the budget stops it.
        for bound in ["0 / 0", "1 / 0", "-1 / 0"] {
            assert_parity(
                &format!(
                    "task T out x local i begin x := 0 for i := {bound} to 3 do x := x + i end end"
                ),
                &BTreeMap::new(),
            );
            assert_parity(
                &format!(
                    "task T out x local i begin x := 0 for i := 1 to {bound} do x := x + i end end"
                ),
                &BTreeMap::new(),
            );
        }
    }

    #[test]
    fn negative_modulo_parity() {
        assert_parity("task T out x begin x := -7 % 3 end", &BTreeMap::new());
    }

    #[test]
    fn frame_reuse_across_programs() {
        let mut vm = Vm::new();
        let p1 = compile(&parse_program("task A in a out x begin x := a + 1 end").unwrap());
        let p2 = compile(
            &parse_program(
                "task B in a out x local b, c, d begin \
                 b := a c := b d := c x := d end",
            )
            .unwrap(),
        );
        for _ in 0..3 {
            let o1 = vm
                .run(
                    &p1,
                    &inputs(&[("a", Value::Num(1.0))]),
                    InterpConfig::default(),
                )
                .unwrap();
            assert_eq!(o1.outputs["x"], Value::Num(2.0));
            let o2 = vm
                .run(
                    &p2,
                    &inputs(&[("a", Value::Num(9.0))]),
                    InterpConfig::default(),
                )
                .unwrap();
            assert_eq!(o2.outputs["x"], Value::Num(9.0));
        }
    }

    #[test]
    fn stale_frame_does_not_leak_definitions() {
        // Run a program that defines `g`, then one that reads `g`
        // undefined — the recycled frame must not resurrect it.
        let mut vm = Vm::new();
        let def = compile(&parse_program("task A out g begin g := 5 end").unwrap());
        vm.run(&def, &BTreeMap::new(), InterpConfig::default())
            .unwrap();
        let read = compile(&parse_program("task B out x begin x := g end").unwrap());
        assert_eq!(
            vm.run(&read, &BTreeMap::new(), InterpConfig::default()),
            Err(RunError::Undefined("g".into()))
        );
    }

    #[test]
    fn run_dense_matches_run() {
        let src = "task T in a, v out x, w local i, n begin \
                   n := len(v) \
                   w := zeros(n) \
                   for i := 1 to n do w[i] := v[i] * a end \
                   x := sum(w) \
                   end";
        let p = parse_program(src).unwrap();
        let c = compile(&p);
        let mut vm = Vm::new();
        let named = inputs(&[
            ("a", Value::Num(3.0)),
            ("v", Value::array(vec![1.0, 2.0, 3.0])),
        ]);
        let want = vm.run(&c, &named, InterpConfig::default()).unwrap();
        // Positional binding follows input_slots order.
        let dense: Vec<Value> = c
            .input_slots
            .iter()
            .map(|&s| named[&c.var_names[s as usize]].clone())
            .collect();
        let got = vm.run_dense(&c, &dense, InterpConfig::default()).unwrap();
        assert_eq!(got.ops, want.ops);
        assert_eq!(got.prints, want.prints);
        for (i, &slot) in c.output_slots.iter().enumerate() {
            assert_eq!(got.outputs[i], want.outputs[&c.var_names[slot as usize]]);
        }
    }

    #[test]
    fn input_binding_is_zero_copy() {
        let src = "task T in v out x begin x := v[1] end";
        let c = compile(&parse_program(src).unwrap());
        let big = Value::array(vec![1.0; 4096]);
        let mut vm = Vm::new();
        let got = vm
            .run_dense(&c, std::slice::from_ref(&big), InterpConfig::default())
            .unwrap();
        assert_eq!(got.outputs[0], Value::Num(1.0));
        // The task only read `v`; its binding must still share the caller's
        // buffer (run_dense holds the frame, so check against regs via a
        // fresh clone of the input).
        assert!(big.shares_buffer(&big.clone()));
    }

    #[test]
    fn cow_write_does_not_tick_and_does_not_alias() {
        // Pass the same array twice; the task writes one copy. The write
        // must not leak into the other binding, and ops must be identical
        // to passing two independent deep copies.
        let src = "task T in v, w out x, y begin v[1] := 9 x := v[1] y := w[1] end";
        let c = compile(&parse_program(src).unwrap());
        let shared = Value::array(vec![1.0, 2.0]);
        let mut vm = Vm::new();
        let aliased = vm
            .run_dense(
                &c,
                &[shared.clone(), shared.clone()],
                InterpConfig::default(),
            )
            .unwrap();
        let separate = vm
            .run_dense(
                &c,
                &[Value::array(vec![1.0, 2.0]), Value::array(vec![1.0, 2.0])],
                InterpConfig::default(),
            )
            .unwrap();
        assert_eq!(aliased, separate, "CoW must be observationally invisible");
        assert_eq!(aliased.outputs[0], Value::Num(9.0));
        assert_eq!(aliased.outputs[1], Value::Num(1.0));
        assert_eq!(shared.as_array("v").unwrap(), &[1.0, 2.0]);
    }

    /// Whether the frame holds an array of its own.
    fn owns_a_buffer(vm: &Vm) -> bool {
        vm.regs.iter().any(|r| matches!(r, Slot::Owned(_)))
    }

    #[test]
    fn a_run_leaves_no_owned_buffer() {
        // `w` is written in place, then read whole once by `print` and
        // once as the output; `t` is written last and never read whole.
        let src = "task T in n out w local t begin \
                   w := zeros(n) w[1] := 5 print w w[2] := 6 \
                   t := zeros(n) t[1] := 7 end";
        let c = compile(&parse_program(src).unwrap());
        let mut vm = Vm::new();
        let (copies, _) = crate::value::cow::counters();
        let out = vm
            .run(
                &c,
                &inputs(&[("n", Value::Num(3.0))]),
                InterpConfig::default(),
            )
            .unwrap();
        assert_eq!(out.outputs["w"], Value::array(vec![5.0, 6.0, 0.0]));
        assert_eq!(out.prints, ["[5, 0, 0]"]);
        assert!(!owns_a_buffer(&vm));
        assert_eq!(crate::value::cow::counters().0, copies, "no write copied");
        // A run that fails after a write leaves none either.
        let failing = compile(
            &parse_program("task T in n begin t := zeros(n) t[1] := 1 t[9] := 2 end").unwrap(),
        );
        assert!(vm
            .run(
                &failing,
                &inputs(&[("n", Value::Num(3.0))]),
                InterpConfig::default()
            )
            .is_err());
        assert!(!owns_a_buffer(&vm));
    }

    #[test]
    fn ops_equal_interp_on_figure4_exactly() {
        let p = parse_program(SQRT_SRC).unwrap();
        let c = compile(&p);
        let ins = inputs(&[("a", Value::Num(12345.678))]);
        let want = interp::run(&p, &ins).unwrap();
        let got = run_compiled(&c, &ins, InterpConfig::default()).unwrap();
        assert_eq!(got.ops, want.ops, "scheduler weights must be identical");
    }
}

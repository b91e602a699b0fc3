//! Runtime values of the PITS language: scalars and flat numeric arrays.
//!
//! Arrays let PITS tasks pass vectors and (row-major, manually indexed)
//! matrices along dataflow arcs — the LU example ships whole columns this
//! way. Indexing is 1-based, matching calculator and Fortran conventions
//! familiar to the paper's scientific audience.
//!
//! ## Copy-on-write arrays
//!
//! `Value::Array` holds its buffer behind an [`Arc`]: cloning a value —
//! publishing a task's outputs, fanning an array out to N consumer
//! edges, binding a VM input register, `M := A` inside a task body — is
//! a reference-count bump, never an O(len) copy. The buffer is copied
//! *only* when a write (`M[i] := x`) hits a shared value: through
//! `Arc::make_mut` in the tree-walker and [`Value::as_array_mut`], and
//! in the VM when its first write to a register takes the buffer out of
//! the `Arc` to own it (`unwrap_counted`); a value holding the sole
//! reference mutates in place. Observable semantics are identical to a
//! deep-copying representation: mutation through one binding is never
//! visible through another, and — because the interpreter's op counter
//! ticks on *operations*, never on value movement — a CoW copy does not
//! tick, so measured task weights (`Outcome::ops`) are byte-for-byte
//! unchanged (see DESIGN.md §10 and `tests/prop_cow.rs`).

use crate::error::RunError;
use std::fmt;
use std::sync::Arc;

/// Thread-local copy-on-write counters.
///
/// Every CoW write gate notes a copy here when — and only when — the
/// write actually duplicated a shared buffer: the two `Arc::make_mut`
/// sites (interpreter `AssignIndex` and [`Value::as_array_mut`]) and the
/// VM's first write to an array register (`unwrap_counted`, which
/// copies exactly when `make_mut` would). The counters are cumulative per thread; the traced
/// executor reads deltas around each task body to attribute copies to
/// tasks. Counting never touches `Outcome` — measured weights stay
/// byte-identical whether anyone reads these or not.
pub mod cow {
    use std::cell::Cell;

    thread_local! {
        static COPIES: Cell<u64> = const { Cell::new(0) };
        static ELEMS: Cell<u64> = const { Cell::new(0) };
    }

    /// Cumulative `(buffer copies, f64 elements copied)` on the calling
    /// thread since it started.
    pub fn counters() -> (u64, u64) {
        (COPIES.with(Cell::get), ELEMS.with(Cell::get))
    }

    pub(crate) fn note(elems: usize) {
        COPIES.with(|c| c.set(c.get() + 1));
        ELEMS.with(|c| c.set(c.get() + elems as u64));
    }
}

/// The shared write gate: clones the buffer iff it is aliased (exactly
/// `Arc::make_mut`), recording the copy in [`cow`] when one happens.
pub(crate) fn make_mut_counted(a: &mut Arc<Vec<f64>>) -> &mut Vec<f64> {
    if Arc::strong_count(a) > 1 {
        cow::note(a.len());
    }
    Arc::make_mut(a)
}

/// Takes an array buffer out of its `Arc`: the buffer itself when this
/// was the only reference, else one copy, counted exactly as
/// [`make_mut_counted`] counts it.
pub(crate) fn unwrap_counted(a: Arc<Vec<f64>>) -> Vec<f64> {
    Arc::try_unwrap(a).unwrap_or_else(|shared| {
        cow::note(shared.len());
        shared.as_ref().clone()
    })
}

/// A PITS runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A scalar.
    Num(f64),
    /// A flat numeric array (1-based indexing at the language level),
    /// shared copy-on-write: `clone` bumps a refcount, writes copy only
    /// when the buffer is aliased.
    Array(Arc<Vec<f64>>),
}

impl Value {
    /// Wraps a buffer as an array value (the only allocation an array
    /// value ever needs; every subsequent clone is a refcount bump).
    pub fn array(v: Vec<f64>) -> Self {
        Value::Array(Arc::new(v))
    }

    /// The scalar inside, or an error naming `what` for diagnostics.
    pub fn as_num(&self, what: &str) -> Result<f64, RunError> {
        match self {
            Value::Num(v) => Ok(*v),
            Value::Array(_) => Err(RunError::NotAScalar(what.to_string())),
        }
    }

    /// The array inside, or an error naming `what`.
    pub fn as_array(&self, what: &str) -> Result<&[f64], RunError> {
        match self {
            Value::Array(v) => Ok(v),
            Value::Num(_) => Err(RunError::NotAnArray(what.to_string())),
        }
    }

    /// Mutable access to the array buffer, copying it first iff it is
    /// shared with another binding (`Arc::make_mut`). This is the single
    /// write gate that keeps aliased values semantically independent; the
    /// copy, when it happens, does **not** tick the op counter.
    pub fn as_array_mut(&mut self, what: &str) -> Result<&mut Vec<f64>, RunError> {
        match self {
            Value::Array(v) => Ok(make_mut_counted(v)),
            Value::Num(_) => Err(RunError::NotAnArray(what.to_string())),
        }
    }

    /// True when `self` and `other` are arrays sharing one buffer — a
    /// zero-copy witness for tests and benchmarks (scalars, and arrays
    /// that have diverged through copy-on-write, return false).
    pub fn shares_buffer(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Array(a), Value::Array(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Truthiness: a scalar is true iff non-zero; arrays are not booleans.
    pub fn truthy(&self, what: &str) -> Result<bool, RunError> {
        Ok(self.as_num(what)? != 0.0)
    }

    /// Abstract size in "data units" — 1 for a scalar, `len` for an array.
    /// Used to estimate communication volumes from trial runs.
    pub fn volume(&self) -> f64 {
        match self {
            Value::Num(_) => 1.0,
            Value::Array(v) => v.len() as f64,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(v) => write!(f, "{v}"),
            Value::Array(vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::array(v)
    }
}

/// Converts a calculator index expression result to a 1-based array
/// offset, checking range.
pub fn to_index(raw: f64, var: &str, len: usize) -> Result<usize, RunError> {
    checked_offset(raw, len).map_err(|index| RunError::IndexOutOfRange {
        var: var.to_string(),
        index,
        len,
    })
}

/// [`to_index`] without the name: the offset, or the rounded index that
/// is out of range. An index is nearly always a whole number, and then
/// `raw as i64` is exact and equals `raw.round() as i64`; only a
/// fraction (or NaN, an infinity, a value past `i64`) pays for the
/// rounding, which has no single instruction on the baseline x86-64.
#[inline]
pub(crate) fn checked_offset(raw: f64, len: usize) -> Result<usize, i64> {
    let whole = raw as i64;
    let idx = if whole as f64 == raw {
        whole
    } else {
        raw.round() as i64
    };
    if idx < 1 || idx as usize > len {
        return Err(idx);
    }
    Ok(idx as usize - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_accessors() {
        let v = Value::Num(2.5);
        assert_eq!(v.as_num("x").unwrap(), 2.5);
        assert!(v.as_array("x").is_err());
        assert!(v.truthy("x").unwrap());
        assert!(!Value::Num(0.0).truthy("x").unwrap());
        assert_eq!(v.volume(), 1.0);
    }

    #[test]
    fn array_accessors() {
        let v = Value::array(vec![1.0, 2.0]);
        assert_eq!(v.as_array("v").unwrap(), &[1.0, 2.0]);
        assert!(v.as_num("v").is_err());
        assert!(v.truthy("v").is_err());
        assert_eq!(v.volume(), 2.0);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Num(3.0).to_string(), "3");
        assert_eq!(Value::array(vec![1.0, 2.5]).to_string(), "[1, 2.5]");
    }

    #[test]
    fn clone_is_shared_until_written() {
        let a = Value::array(vec![1.0, 2.0, 3.0]);
        let mut b = a.clone();
        assert!(a.shares_buffer(&b), "clone must not copy the buffer");
        b.as_array_mut("b").unwrap()[0] = 9.0;
        assert!(!a.shares_buffer(&b), "write must unshare");
        assert_eq!(a.as_array("a").unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(b.as_array("b").unwrap(), &[9.0, 2.0, 3.0]);
    }

    #[test]
    fn sole_owner_mutates_in_place() {
        let mut a = Value::array(vec![1.0, 2.0]);
        let before = match &a {
            Value::Array(v) => Arc::as_ptr(v),
            _ => unreachable!(),
        };
        a.as_array_mut("a").unwrap()[1] = 7.0;
        let after = match &a {
            Value::Array(v) => Arc::as_ptr(v),
            _ => unreachable!(),
        };
        assert_eq!(before, after, "unshared write must not reallocate");
        assert_eq!(a.as_array("a").unwrap(), &[1.0, 7.0]);
    }

    #[test]
    fn as_array_mut_rejects_scalars() {
        let mut v = Value::Num(1.0);
        assert_eq!(
            v.as_array_mut("v"),
            Err(RunError::NotAnArray("v".to_string()))
        );
        assert!(!Value::Num(1.0).shares_buffer(&Value::Num(1.0)));
    }

    #[test]
    fn index_conversion() {
        assert_eq!(to_index(1.0, "v", 3).unwrap(), 0);
        assert_eq!(to_index(3.0, "v", 3).unwrap(), 2);
        assert_eq!(to_index(2.4, "v", 3).unwrap(), 1); // rounds
        assert!(to_index(0.0, "v", 3).is_err());
        assert!(to_index(4.0, "v", 3).is_err());
        assert!(to_index(-1.0, "v", 3).is_err());
    }

    #[test]
    fn exact_indices_equal_rounded_ones() {
        let len = usize::MAX;
        let fail = |raw: f64| match to_index(raw, "v", 3) {
            Err(RunError::IndexOutOfRange { index, .. }) => index,
            other => panic!("{raw}: {other:?}"),
        };
        for raw in [
            1.0,
            2.5,
            3.5,
            1e15 + 0.5,
            4503599627370497.0,
            9.223372036854776e18,
            1e300,
        ] {
            assert_eq!(
                to_index(raw, "v", len).unwrap(),
                raw.round() as i64 as usize - 1
            );
        }
        for raw in [
            0.0,
            -0.0,
            0.4,
            -0.5,
            -2.5,
            -9.223372036854776e18,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1e300,
            9.3e18,
        ] {
            assert_eq!(fail(raw), raw.round() as i64, "{raw}");
        }
    }
}

//! The calculator's scientific function buttons and constants.
//!
//! The paper's calculator metaphor promises "scientific and engineering
//! functions, constants, and formulas"; this module is that button panel.
//! Each builtin is one row of [`BUILTINS`], the only place its meaning is
//! written: its name, its operation-count cost (trial runs turn op counts
//! into task weights for the scheduler) and its [`Shape`], which holds the
//! concrete function together with what the abstract interpreter may
//! assume of it: domain, range, monotonicity, result length. The VM, the
//! tree-walker and `absint` all apply a row through [`Builtin::call`]; the
//! VM reaches it by the index [`resolve`] froze into its code.

use crate::error::RunError;
use crate::value::Value;
use std::f64::consts::PI;

/// Description of one builtin function.
pub struct Builtin {
    /// Surface name (the button label).
    pub name: &'static str,
    /// Cost in abstract operations, charged per call.
    pub cost: u64,
    /// What the builtin computes, and what the analysis knows of it.
    pub shape: Shape,
}

/// What a builtin computes, and what the abstract interpreter may assume
/// of it. A scalar shape carries its function; `absint` matches every
/// variant, so a row cannot reach the analysis without a transfer.
#[derive(Clone, Copy)]
pub enum Shape {
    /// `f` is monotone, rising or falling, on its closed domain
    /// `[lo, hi]`, and yields NaN or −∞ wholly outside it.
    Monotone(fn(f64) -> f64, f64, f64),
    /// Every value of `f` lies in `[lo, hi]`; the whole line is an
    /// explicit "not tracked".
    Range(fn(f64) -> f64, f64, f64),
    /// [`Shape::Range`] of a function of two arguments.
    Range2(fn(f64, f64) -> f64, f64, f64),
    /// `abs`: falls to 0, then rises.
    Abs,
    /// `min`/`max`: rising in both arguments.
    MinMax(fn(f64, f64) -> f64),
    /// `pow`: values not tracked; NaN for a negative finite base and a
    /// non-integer exponent.
    Pow,
    /// The length of an array.
    Len,
    /// A reduction of an array whose value is not tracked.
    Fold(fn(&[f64]) -> f64),
    /// The dot product of two arrays of one length; value not tracked.
    Dot,
    /// `zeros(n)`: an array of `n` zeros.
    Zeros,
    /// `fill(n, x)`: an array of `n` copies of `x`.
    Fill,
}

impl Shape {
    /// The number of arguments a call must pass, exactly.
    pub fn arity(self) -> usize {
        match self {
            Shape::Monotone(..) | Shape::Range(..) | Shape::Abs => 1,
            Shape::Len | Shape::Fold(_) | Shape::Zeros => 1,
            Shape::Range2(..) | Shape::MinMax(_) | Shape::Pow => 2,
            Shape::Dot | Shape::Fill => 2,
        }
    }
}

/// Constants preloaded into every PITS environment.
pub const CONSTANTS: [(&str, f64); 2] = [("pi", PI), ("e", std::f64::consts::E)];

/// Scalar argument `i`, or a `NotAScalar` error naming it; the message is
/// only built on the error path so the success path stays allocation-free.
fn num_arg(args: &[Value], i: usize, name: &str) -> Result<f64, RunError> {
    match &args[i] {
        Value::Num(v) => Ok(*v),
        Value::Array(_) => Err(RunError::NotAScalar(format!(
            "argument {} of {name}()",
            i + 1
        ))),
    }
}

/// Array argument `i`, or the usual `NotAnArray` error.
fn arr_arg<'a>(args: &'a [Value], i: usize, name: &str) -> Result<&'a [f64], RunError> {
    match &args[i] {
        Value::Array(v) => Ok(v),
        Value::Num(_) => Err(RunError::NotAnArray(format!(
            "argument {} of {name}()",
            i + 1
        ))),
    }
}

/// The element count `zeros`/`fill` were asked for, rounded like every
/// index; `BadSize` outside `0..=1e9` (NaN included).
pub(crate) fn size_arg(args: &[Value], name: &str) -> Result<usize, RunError> {
    let n = num_arg(args, 0, name)?.round();
    if !(0.0..=1e9).contains(&n) {
        return Err(RunError::BadSize {
            name: name.to_string(),
            size: n,
        });
    }
    Ok(n as usize)
}

impl Builtin {
    /// Applies the builtin to exactly `shape.arity()` arguments. A wrong
    /// kind of argument is named with the row's name (`argument 1 of
    /// sqrt()`).
    pub fn call(&self, args: &[Value]) -> Result<Value, RunError> {
        let num = |i| num_arg(args, i, self.name);
        let arr = |i| arr_arg(args, i, self.name);
        Ok(Value::Num(match self.shape {
            Shape::Monotone(f, ..) | Shape::Range(f, ..) => f(num(0)?),
            Shape::Range2(f, ..) | Shape::MinMax(f) => f(num(0)?, num(1)?),
            Shape::Abs => num(0)?.abs(),
            Shape::Pow => num(0)?.powf(num(1)?),
            Shape::Len => arr(0)?.len() as f64,
            Shape::Fold(f) => f(arr(0)?),
            Shape::Dot => {
                let (a, b) = (arr(0)?, arr(1)?);
                if a.len() != b.len() {
                    return Err(RunError::UnequalLengths {
                        name: self.name.to_string(),
                        lens: (a.len(), b.len()),
                    });
                }
                a.iter().zip(b).map(|(x, y)| x * y).sum()
            }
            Shape::Zeros => return Ok(Value::array(vec![0.0; size_arg(args, self.name)?])),
            Shape::Fill => {
                let n = size_arg(args, self.name)?;
                return Ok(Value::array(vec![num(1)?; n]));
            }
        }))
    }
}

/// The whole line: a [`Shape::Monotone`] defined everywhere, or a
/// [`Shape::Range`] that tracks nothing.
const ALL: f64 = f64::INFINITY;

/// The least positive `f64`: `ln`'s and `log10`'s domain starts here, so
/// 0 (where they yield −∞) lies outside it.
const LEAST_POSITIVE: f64 = f64::from_bits(1);

/// The builtin table (kept sorted by name for binary search).
pub const BUILTINS: &[Builtin] = &[
    Builtin {
        name: "abs",
        cost: 1,
        shape: Shape::Abs,
    },
    Builtin {
        name: "acos",
        cost: 8,
        shape: Shape::Monotone(f64::acos, -1.0, 1.0),
    },
    Builtin {
        name: "amax",
        cost: 4,
        shape: Shape::Fold(|v| v.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
    },
    Builtin {
        name: "amin",
        cost: 4,
        shape: Shape::Fold(|v| v.iter().copied().fold(f64::INFINITY, f64::min)),
    },
    Builtin {
        name: "asin",
        cost: 8,
        shape: Shape::Monotone(f64::asin, -1.0, 1.0),
    },
    Builtin {
        name: "atan",
        cost: 8,
        shape: Shape::Monotone(f64::atan, -ALL, ALL),
    },
    Builtin {
        name: "atan2",
        cost: 10,
        shape: Shape::Range2(f64::atan2, -PI, PI),
    },
    Builtin {
        name: "ceil",
        cost: 1,
        shape: Shape::Monotone(f64::ceil, -ALL, ALL),
    },
    Builtin {
        name: "cos",
        cost: 8,
        shape: Shape::Range(f64::cos, -1.0, 1.0),
    },
    Builtin {
        name: "dot",
        cost: 8,
        shape: Shape::Dot,
    },
    Builtin {
        name: "exp",
        cost: 8,
        shape: Shape::Monotone(f64::exp, -ALL, ALL),
    },
    Builtin {
        name: "fill",
        cost: 4,
        shape: Shape::Fill,
    },
    Builtin {
        name: "floor",
        cost: 1,
        shape: Shape::Monotone(f64::floor, -ALL, ALL),
    },
    Builtin {
        name: "len",
        cost: 1,
        shape: Shape::Len,
    },
    Builtin {
        name: "ln",
        cost: 8,
        shape: Shape::Monotone(f64::ln, LEAST_POSITIVE, ALL),
    },
    Builtin {
        name: "log10",
        cost: 8,
        shape: Shape::Monotone(f64::log10, LEAST_POSITIVE, ALL),
    },
    Builtin {
        name: "max",
        cost: 1,
        shape: Shape::MinMax(f64::max),
    },
    Builtin {
        name: "min",
        cost: 1,
        shape: Shape::MinMax(f64::min),
    },
    Builtin {
        name: "pow",
        cost: 10,
        shape: Shape::Pow,
    },
    Builtin {
        name: "round",
        cost: 1,
        shape: Shape::Monotone(f64::round, -ALL, ALL),
    },
    Builtin {
        name: "sin",
        cost: 8,
        shape: Shape::Range(f64::sin, -1.0, 1.0),
    },
    Builtin {
        name: "sqrt",
        cost: 6,
        shape: Shape::Monotone(f64::sqrt, 0.0, ALL),
    },
    Builtin {
        name: "sum",
        cost: 4,
        shape: Shape::Fold(|v| v.iter().sum()),
    },
    Builtin {
        name: "tan",
        cost: 8,
        shape: Shape::Range(f64::tan, -ALL, ALL),
    },
    Builtin {
        name: "zeros",
        cost: 2,
        shape: Shape::Zeros,
    },
];

/// Looks up a builtin by name.
pub fn lookup(name: &str) -> Option<&'static Builtin> {
    index_of(name).map(|i| &BUILTINS[i])
}

fn index_of(name: &str) -> Option<usize> {
    BUILTINS.binary_search_by(|b| b.name.cmp(name)).ok()
}

/// Resolves a call of `name` with `argc` arguments to its row's index,
/// the "direct function index" the bytecode compiler freezes into
/// `Op::Call`: `UnknownFunction` when no row has the name, `BadArity`
/// when the row takes another number of arguments.
pub fn resolve(name: &str, argc: usize) -> Result<usize, RunError> {
    let i = index_of(name).ok_or_else(|| RunError::UnknownFunction(name.to_string()))?;
    let expected = BUILTINS[i].shape.arity();
    if argc != expected {
        return Err(RunError::BadArity {
            name: name.to_string(),
            expected,
            got: argc,
        });
    }
    Ok(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(name: &str, args: &[Value]) -> Result<Value, RunError> {
        lookup(name).unwrap().call(args)
    }

    #[test]
    fn table_is_sorted_for_binary_search() {
        for w in BUILTINS.windows(2) {
            assert!(w[0].name < w[1].name, "{} >= {}", w[0].name, w[1].name);
        }
    }

    #[test]
    fn lookup_finds_everything() {
        for (i, b) in BUILTINS.iter().enumerate() {
            let found = lookup(b.name).unwrap();
            assert_eq!(found.name, b.name);
            assert_eq!(resolve(b.name, b.shape.arity()), Ok(i));
        }
        assert!(lookup("nope").is_none());
        assert_eq!(
            resolve("nope", 1),
            Err(RunError::UnknownFunction("nope".to_string()))
        );
        assert_eq!(
            resolve("atan2", 1),
            Err(RunError::BadArity {
                name: "atan2".to_string(),
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn scalar_functions() {
        let n = |v: f64| Value::Num(v);
        assert_eq!(apply("abs", &[n(-3.0)]).unwrap(), n(3.0));
        assert_eq!(apply("sqrt", &[n(9.0)]).unwrap(), n(3.0));
        assert_eq!(apply("max", &[n(2.0), n(5.0)]).unwrap(), n(5.0));
        assert_eq!(apply("min", &[n(2.0), n(5.0)]).unwrap(), n(2.0));
        assert_eq!(apply("pow", &[n(2.0), n(10.0)]).unwrap(), n(1024.0));
        assert_eq!(apply("floor", &[n(2.7)]).unwrap(), n(2.0));
        assert_eq!(apply("ceil", &[n(2.2)]).unwrap(), n(3.0));
        assert_eq!(apply("round", &[n(2.5)]).unwrap(), n(3.0));
        if let Value::Num(v) = apply("atan2", &[n(1.0), n(1.0)]).unwrap() {
            assert!((v - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
        } else {
            panic!();
        }
    }

    #[test]
    fn array_functions() {
        let a = Value::array(vec![1.0, 2.0, 3.0]);
        assert_eq!(
            apply("len", std::slice::from_ref(&a)).unwrap(),
            Value::Num(3.0)
        );
        assert_eq!(
            apply("sum", std::slice::from_ref(&a)).unwrap(),
            Value::Num(6.0)
        );
        assert_eq!(
            apply("amin", std::slice::from_ref(&a)).unwrap(),
            Value::Num(1.0)
        );
        assert_eq!(
            apply("amax", std::slice::from_ref(&a)).unwrap(),
            Value::Num(3.0)
        );
        assert_eq!(
            apply("dot", &[a.clone(), a.clone()]).unwrap(),
            Value::Num(14.0)
        );
        assert_eq!(
            apply("zeros", &[Value::Num(2.0)]).unwrap(),
            Value::array(vec![0.0, 0.0])
        );
        assert_eq!(
            apply("fill", &[Value::Num(2.0), Value::Num(7.0)]).unwrap(),
            Value::array(vec![7.0, 7.0])
        );
    }

    #[test]
    fn type_errors() {
        let a = Value::array(vec![1.0]);
        assert!(apply("sqrt", std::slice::from_ref(&a)).is_err());
        assert!(apply("len", &[Value::Num(1.0)]).is_err());
        assert!(apply("dot", &[a, Value::array(vec![1.0, 2.0])]).is_err());
        assert!(apply("zeros", &[Value::Num(-1.0)]).is_err());
    }

    #[test]
    fn type_error_messages_name_the_argument() {
        let a = Value::array(vec![1.0]);
        let err = apply("sqrt", std::slice::from_ref(&a)).unwrap_err();
        assert_eq!(
            err,
            RunError::NotAScalar("argument 1 of sqrt()".to_string())
        );
        let err2 = apply("len", &[Value::Num(1.0)]).unwrap_err();
        assert_eq!(
            err2,
            RunError::NotAnArray("argument 1 of len()".to_string())
        );
        let three = Value::array(vec![0.0; 3]);
        let err3 = apply("dot", &[three, Value::array(vec![0.0; 2])]).unwrap_err();
        assert_eq!(
            err3.to_string(),
            "dot() needs two arrays of one length, got 3 and 2"
        );
    }

    #[test]
    fn bad_sizes_say_what_is_wrong() {
        // Its own variant: `NotAScalar` would render a message about a
        // range with "must be a scalar" on the end.
        let err = apply("zeros", &[Value::Num(1e11)]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "zeros() size must be in 0..=1e9, got 100000000000"
        );
        let err = apply("fill", &[Value::Num(-2.4), Value::Num(7.0)]).unwrap_err();
        assert_eq!(err.to_string(), "fill() size must be in 0..=1e9, got -2");
        let err = apply("zeros", &[Value::Num(f64::NAN)]).unwrap_err();
        assert_eq!(err.to_string(), "zeros() size must be in 0..=1e9, got NaN");
        // An array where the size goes is still a type error.
        let err = apply("zeros", &[Value::array(vec![1.0])]).unwrap_err();
        assert_eq!(err.to_string(), "argument 1 of zeros() must be a scalar");
    }

    #[test]
    fn constants_present() {
        assert_eq!(CONSTANTS[0].0, "pi");
        assert_eq!(CONSTANTS[0].1, std::f64::consts::PI);
        assert_eq!(CONSTANTS[1].0, "e");
    }
}

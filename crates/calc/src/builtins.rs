//! The calculator's scientific function buttons and constants.
//!
//! The paper's calculator metaphor promises "scientific and engineering
//! functions, constants, and formulas"; this module is that button panel.
//! Every builtin carries an operation-count cost so trial runs can
//! estimate task weights for the scheduler, and a direct function pointer
//! so the bytecode VM can dispatch a pre-resolved call without a name
//! lookup.

use crate::error::RunError;
use crate::value::Value;

/// The implementation of one builtin: takes the (arity-checked) argument
/// slice, returns the result value.
pub type BuiltinFn = fn(&[Value]) -> Result<Value, RunError>;

/// Description of one builtin function.
pub struct Builtin {
    /// Surface name (the button label).
    pub name: &'static str,
    /// Number of arguments (`usize::MAX` marks "any array" single-arg
    /// functions, but all current builtins use fixed arities).
    pub arity: usize,
    /// Cost in abstract operations, charged per call by the interpreter.
    pub cost: u64,
    /// The implementation, called with exactly `arity` arguments.
    pub func: BuiltinFn,
}

/// Constants preloaded into every PITS environment.
pub const CONSTANTS: [(&str, f64); 2] = [("pi", std::f64::consts::PI), ("e", std::f64::consts::E)];

/// Scalar argument `i`, or the same `NotAScalar` error `apply` has always
/// produced; the message is only built on the error path so the success
/// path stays allocation-free.
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

macro_rules! scalar1 {
    ($fname:ident, $name:literal, $body:expr) => {
        fn $fname(args: &[Value]) -> Result<Value, RunError> {
            let x = num_arg(args, 0, $name)?;
            #[allow(clippy::redundant_closure_call)]
            Ok(Value::Num(($body)(x)))
        }
    };
}

macro_rules! scalar2 {
    ($fname:ident, $name:literal, $body:expr) => {
        fn $fname(args: &[Value]) -> Result<Value, RunError> {
            let x = num_arg(args, 0, $name)?;
            let y = num_arg(args, 1, $name)?;
            #[allow(clippy::redundant_closure_call)]
            Ok(Value::Num(($body)(x, y)))
        }
    };
}

scalar1!(b_abs, "abs", |x: f64| x.abs());
scalar1!(b_acos, "acos", |x: f64| x.acos());
scalar1!(b_asin, "asin", |x: f64| x.asin());
scalar1!(b_atan, "atan", |x: f64| x.atan());
scalar1!(b_ceil, "ceil", |x: f64| x.ceil());
scalar1!(b_cos, "cos", |x: f64| x.cos());
scalar1!(b_exp, "exp", |x: f64| x.exp());
scalar1!(b_floor, "floor", |x: f64| x.floor());
scalar1!(b_ln, "ln", |x: f64| x.ln());
scalar1!(b_log10, "log10", |x: f64| x.log10());
scalar1!(b_round, "round", |x: f64| x.round());
scalar1!(b_sin, "sin", |x: f64| x.sin());
scalar1!(b_sqrt, "sqrt", |x: f64| x.sqrt());
scalar1!(b_tan, "tan", |x: f64| x.tan());
scalar2!(b_atan2, "atan2", |x: f64, y: f64| x.atan2(y));
scalar2!(b_max, "max", |x: f64, y: f64| x.max(y));
scalar2!(b_min, "min", |x: f64, y: f64| x.min(y));
scalar2!(b_pow, "pow", |x: f64, y: f64| x.powf(y));

fn b_len(args: &[Value]) -> Result<Value, RunError> {
    Ok(Value::Num(arr_arg(args, 0, "len")?.len() as f64))
}

fn b_sum(args: &[Value]) -> Result<Value, RunError> {
    Ok(Value::Num(arr_arg(args, 0, "sum")?.iter().sum()))
}

fn b_amin(args: &[Value]) -> Result<Value, RunError> {
    Ok(Value::Num(
        arr_arg(args, 0, "amin")?
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
    ))
}

fn b_amax(args: &[Value]) -> Result<Value, RunError> {
    Ok(Value::Num(
        arr_arg(args, 0, "amax")?
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max),
    ))
}

fn b_dot(args: &[Value]) -> Result<Value, RunError> {
    let (a, b) = (arr_arg(args, 0, "dot")?, arr_arg(args, 1, "dot")?);
    if a.len() != b.len() {
        return Err(RunError::BadArity {
            name: "dot".into(),
            expected: a.len(),
            got: b.len(),
        });
    }
    Ok(Value::Num(a.iter().zip(b).map(|(x, y)| x * y).sum()))
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

fn b_zeros(args: &[Value]) -> Result<Value, RunError> {
    Ok(Value::array(vec![0.0; size_arg(args, "zeros")?]))
}

fn b_fill(args: &[Value]) -> Result<Value, RunError> {
    let n = size_arg(args, "fill")?;
    Ok(Value::array(vec![num_arg(args, 1, "fill")?; n]))
}

/// The builtin table (kept sorted by name for binary search).
pub const BUILTINS: &[Builtin] = &[
    Builtin {
        name: "abs",
        arity: 1,
        cost: 1,
        func: b_abs,
    },
    Builtin {
        name: "acos",
        arity: 1,
        cost: 8,
        func: b_acos,
    },
    Builtin {
        name: "amax",
        arity: 1,
        cost: 4,
        func: b_amax,
    },
    Builtin {
        name: "amin",
        arity: 1,
        cost: 4,
        func: b_amin,
    },
    Builtin {
        name: "asin",
        arity: 1,
        cost: 8,
        func: b_asin,
    },
    Builtin {
        name: "atan",
        arity: 1,
        cost: 8,
        func: b_atan,
    },
    Builtin {
        name: "atan2",
        arity: 2,
        cost: 10,
        func: b_atan2,
    },
    Builtin {
        name: "ceil",
        arity: 1,
        cost: 1,
        func: b_ceil,
    },
    Builtin {
        name: "cos",
        arity: 1,
        cost: 8,
        func: b_cos,
    },
    Builtin {
        name: "dot",
        arity: 2,
        cost: 8,
        func: b_dot,
    },
    Builtin {
        name: "exp",
        arity: 1,
        cost: 8,
        func: b_exp,
    },
    Builtin {
        name: "fill",
        arity: 2,
        cost: 4,
        func: b_fill,
    },
    Builtin {
        name: "floor",
        arity: 1,
        cost: 1,
        func: b_floor,
    },
    Builtin {
        name: "len",
        arity: 1,
        cost: 1,
        func: b_len,
    },
    Builtin {
        name: "ln",
        arity: 1,
        cost: 8,
        func: b_ln,
    },
    Builtin {
        name: "log10",
        arity: 1,
        cost: 8,
        func: b_log10,
    },
    Builtin {
        name: "max",
        arity: 2,
        cost: 1,
        func: b_max,
    },
    Builtin {
        name: "min",
        arity: 2,
        cost: 1,
        func: b_min,
    },
    Builtin {
        name: "pow",
        arity: 2,
        cost: 10,
        func: b_pow,
    },
    Builtin {
        name: "round",
        arity: 1,
        cost: 1,
        func: b_round,
    },
    Builtin {
        name: "sin",
        arity: 1,
        cost: 8,
        func: b_sin,
    },
    Builtin {
        name: "sqrt",
        arity: 1,
        cost: 6,
        func: b_sqrt,
    },
    Builtin {
        name: "sum",
        arity: 1,
        cost: 4,
        func: b_sum,
    },
    Builtin {
        name: "tan",
        arity: 1,
        cost: 8,
        func: b_tan,
    },
    Builtin {
        name: "zeros",
        arity: 1,
        cost: 2,
        func: b_zeros,
    },
];

/// Looks up a builtin by name.
pub fn lookup(name: &str) -> Option<&'static Builtin> {
    index_of(name).map(|i| &BUILTINS[i])
}

/// Table index of a builtin — the "direct function index" the bytecode
/// compiler freezes into `Op::Call` so the VM never re-resolves names.
pub fn index_of(name: &str) -> Option<usize> {
    BUILTINS.binary_search_by(|b| b.name.cmp(name)).ok()
}

/// Applies a builtin by name. `args` length is pre-checked against the
/// arity by the interpreter.
pub fn apply(name: &str, args: &[Value]) -> Result<Value, RunError> {
    match lookup(name) {
        Some(b) => (b.func)(args),
        None => Err(RunError::UnknownFunction(name.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(index_of(b.name), Some(i));
        }
        assert!(lookup("nope").is_none());
        assert!(index_of("nope").is_none());
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
        assert!(apply("nosuch", &[]).is_err());
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

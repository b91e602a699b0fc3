//! Error types for the PITS calculator language.

use std::fmt;

/// A source position (1-based line and column), carried by every
/// compile-time diagnostic so the calculator panel can highlight it.
/// Positions order as the text reads: by line, then by column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Compile-time errors: lexing and parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Where the problem was found.
    pub pos: Pos,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Runtime errors raised by the interpreter.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A variable was read before being assigned.
    Undefined(String),
    /// A variable declared `in` was not supplied by the caller.
    MissingInput(String),
    /// Indexing a scalar, or calling array builtins on scalars.
    NotAnArray(String),
    /// Array index out of range.
    IndexOutOfRange {
        /// Variable being indexed.
        var: String,
        /// The (rounded) index used.
        index: i64,
        /// The array length.
        len: usize,
    },
    /// Wrong number of arguments to a builtin.
    BadArity {
        /// Builtin name.
        name: String,
        /// Arguments expected.
        expected: usize,
        /// Arguments given.
        got: usize,
    },
    /// Call of a name that is not a builtin function.
    UnknownFunction(String),
    /// The step budget was exhausted (runaway loop protection for
    /// Banger's "trial run" feature).
    StepLimit(u64),
    /// An array was used where a scalar is required (e.g. `while` guard).
    NotAScalar(String),
    /// `zeros(n)` / `fill(n, v)` asked for an array of a size outside
    /// `0..=1e9` (negative, NaN, or more elements than one task may hold).
    BadSize {
        /// Builtin name.
        name: String,
        /// The (rounded) size requested.
        size: f64,
    },
    /// `dot(a, b)` of two arrays of different lengths.
    UnequalLengths {
        /// Builtin name.
        name: String,
        /// The lengths of the first and the second argument.
        lens: (usize, usize),
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Undefined(v) => write!(f, "variable {v:?} used before assignment"),
            RunError::MissingInput(v) => write!(f, "input variable {v:?} was not supplied"),
            RunError::NotAnArray(v) => write!(f, "{v:?} is not an array"),
            RunError::IndexOutOfRange { var, index, len } => {
                write!(f, "index {index} out of range for {var:?} (length {len})")
            }
            RunError::BadArity {
                name,
                expected,
                got,
            } => write!(f, "{name}() expects {expected} argument(s), got {got}"),
            RunError::UnknownFunction(n) => write!(f, "unknown function {n:?}"),
            RunError::StepLimit(n) => write!(f, "step limit of {n} exceeded (runaway loop?)"),
            RunError::NotAScalar(what) => write!(f, "{what} must be a scalar"),
            RunError::BadSize { name, size } => {
                write!(f, "{name}() size must be in 0..=1e9, got {size}")
            }
            RunError::UnequalLengths { name, lens: (a, b) } => {
                write!(
                    f,
                    "{name}() needs two arrays of one length, got {a} and {b}"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let p = ParseError {
            pos: Pos { line: 3, col: 7 },
            message: "expected `:=`".into(),
        };
        assert_eq!(p.to_string(), "parse error at 3:7: expected `:=`");
        assert!(RunError::Undefined("x".into())
            .to_string()
            .contains("\"x\""));
        assert!(RunError::StepLimit(10).to_string().contains("10"));
        assert!(RunError::BadArity {
            name: "atan2".into(),
            expected: 2,
            got: 1
        }
        .to_string()
        .contains("expects 2"));
    }
}

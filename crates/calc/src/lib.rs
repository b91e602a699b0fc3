#![warn(missing_docs)]

//! # banger-calc — the PITS calculator language
//!
//! The paper's third principle: *for scientific programmers, an acceptable
//! programming metaphor is a simulated pocket calculator containing simple
//! programming constructs, scientific and engineering functions, constants
//! and formulas, and some means of obtaining numerical results, upon
//! demand.* This crate is that calculator, headless:
//!
//! * [`token`] / [`parser`] / [`ast`] — the "simplified programming
//!   language" of Figure 4's lower window; [`ast`] also holds the one
//!   reading of a body that is not a translation — [`ast::Facts`], the
//!   variables a statement list reads, assigns, index-stores and prints —
//!   which every lint, rewrite rule and legality check outside this crate
//!   is a predicate over;
//! * [`interp`] — trial runs of single tasks with inputs, outputs, prints
//!   and an operation count (a measured task weight for the scheduler);
//! * [`builtins`] — the scientific function and constant buttons;
//! * [`absint`] — interval-domain abstract interpretation: value-range
//!   safety findings and static operation-count bounds (the weight
//!   estimate of a task nobody has trial-run yet);
//! * [`pretty`] — canonical program text (round-trips with the parser);
//! * [`transform`] — program rewrites: the reduction splitter (legality
//!   stated over [`ast::Facts`]), variable renaming and body splicing;
//! * [`symbols`] — the name → dense-slot table the bytecode compiler and
//!   the abstract interpreter share;
//! * [`panel`] — the calculator panel itself: button presses, immediate
//!   `=` evaluation, `STO` registers, and task recording;
//! * [`library`] — a named collection of programs attached to a design's
//!   task nodes.
//!
//! ## Example: the paper's Figure 4 task
//!
//! ```
//! use banger_calc::{interp, parser, Value};
//!
//! let prog = parser::parse_program(
//!     "task SquareRoot
//!        in a
//!        out x
//!        local g, prev
//!      begin
//!        g := a / 2
//!        prev := 0
//!        while abs(g - prev) > 1e-12 do
//!          prev := g
//!          g := (g + a / g) / 2
//!        end
//!        x := g
//!      end",
//! )
//! .unwrap();
//! let out = interp::run(
//!     &prog,
//!     &[("a".to_string(), Value::Num(2.0))].into_iter().collect(),
//! )
//! .unwrap();
//! let x = out.outputs["x"].as_num("x").unwrap();
//! assert!((x - 2.0_f64.sqrt()).abs() < 1e-9);
//! ```

pub mod absint;
pub mod ast;
pub mod builtins;
pub mod compile;
pub mod error;
pub mod interp;
pub mod library;
pub mod panel;
pub mod parser;
pub mod pretty;
pub mod symbols;
pub mod token;
pub mod transform;
pub mod value;
pub mod vm;

pub use absint::{analyze, analyze_with, AbsVal, Analysis, AnalysisOptions, StaticCost};
pub use ast::Program;
pub use compile::{compile, CompiledProgram, Op};
pub use error::{ParseError, Pos, RunError};
pub use interp::{run, run_with, InterpConfig, Outcome};
pub use library::{ProgramLibrary, SeededFindings};
pub use panel::{Button, Panel, PanelError};
pub use parser::{parse_expr, parse_program};
pub use transform::{parallelize_reduction, ReductionSplit, TransformError};
pub use value::Value;
pub use vm::{run_compiled, Vm};

#![warn(missing_docs)]

//! # banger-codegen — automatic code generation
//!
//! The paper closes with: *"Banger does not currently support automatic
//! code generation. A number of program generators for a variety of
//! systems are under development."* This crate implements that future
//! work:
//!
//! * [`rustgen`] — emits a **self-contained Rust program** (no external
//!   crates): one OS thread per schedule processor, `std::sync::mpsc`
//!   channels for every dataflow arc, and each PITS task body translated
//!   into Rust over a tiny embedded `Value` runtime. The output compiles
//!   with a bare `rustc` and prints the design's output ports.
//! * [`cgen`] — emits an **MPI-style C program** (rank-per-processor
//!   `switch`, `MPI_Send`/`MPI_Recv` pairs per arc) for the
//!   message-passing machines the paper targeted.
//!
//! Both generators consume a flattened design, its program library, the
//! schedule that maps tasks to processors, and concrete input-port values.

pub mod cgen;
pub mod rustgen;

pub use cgen::generate_c;
pub use rustgen::generate_rust;

use banger_calc::ast::{Facts, Program};
use banger_calc::{ProgramLibrary, Value};
use banger_sched::Schedule;
use banger_taskgraph::binding::{BindError, Bindings};
use banger_taskgraph::hierarchy::Flattened;
use banger_taskgraph::TaskId;
use std::collections::BTreeMap;
use std::fmt;

/// Errors from code generation.
#[derive(Debug, Clone, PartialEq)]
pub enum CodegenError {
    /// A task has no program attached.
    NoProgram(String),
    /// A program name is missing from the library.
    UnknownProgram(String),
    /// A producing task does not declare the output an arc or an output
    /// port carries.
    MissingArcValue {
        /// Producer task name.
        producer: String,
        /// Arc label / variable.
        var: String,
    },
    /// The schedule does not place a task.
    Unscheduled(String),
    /// A declared input is bound by neither an arc nor a supplied value.
    MissingInput {
        /// The variable.
        var: String,
        /// The first task that reads it.
        task: String,
    },
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::NoProgram(t) => write!(f, "task {t:?} has no program"),
            CodegenError::UnknownProgram(p) => write!(f, "program {p:?} not in library"),
            CodegenError::MissingArcValue { producer, var } => write!(
                f,
                "task {producer:?} does not produce output {var:?} required by an arc"
            ),
            CodegenError::Unscheduled(t) => write!(f, "task {t:?} is not scheduled"),
            CodegenError::MissingInput { var, task } => write!(
                f,
                "task {task:?}: input {var:?} has no producer and no supplied value"
            ),
        }
    }
}

impl std::error::Error for CodegenError {}

/// What both generators establish before they emit anything.
pub(crate) struct Plan<'a> {
    /// Which arc or supplied value feeds which declared input, and which
    /// output each arc and port carries.
    pub bindings: Bindings,
    /// Each task's program, in task order.
    pub of_task: Vec<&'a Program>,
    /// The same programs once each, by name.
    pub progs: BTreeMap<&'a str, &'a Program>,
    /// Primary placements per processor, in predicted start order (ties by
    /// task id); non-primary copies are dropped.
    pub per_proc: BTreeMap<u32, Vec<(f64, TaskId)>>,
}

/// Checks the preconditions both generators share — the design resolves
/// under the binding rule exactly as it must for the executor to run it,
/// every external input has a value, every task has a primary placement —
/// and groups the placements per processor.
pub(crate) fn plan<'a>(
    design: &Flattened,
    lib: &'a ProgramLibrary,
    schedule: &Schedule,
    inputs: &BTreeMap<String, Value>,
) -> Result<Plan<'a>, CodegenError> {
    let g = &design.graph;
    let bindings = Bindings::resolve(design, |name| lib.interface(name));
    bindings.check().map_err(|e| match e {
        BindError::NoProgram(task) => CodegenError::NoProgram(task.clone()),
        BindError::UnknownProgram(name) => CodegenError::UnknownProgram(name.clone()),
        BindError::MissingOutput { producer, var } => CodegenError::MissingArcValue {
            producer: producer.clone(),
            var: var.clone(),
        },
    })?;
    if let Some(slot) = bindings
        .externals()
        .iter()
        .find(|slot| !inputs.contains_key(&slot.var))
    {
        return Err(CodegenError::MissingInput {
            var: slot.var.clone(),
            task: g.task(slot.first_reader).name.clone(),
        });
    }
    let mut of_task = Vec::with_capacity(g.task_count());
    let mut per_proc: BTreeMap<u32, Vec<(f64, TaskId)>> = BTreeMap::new();
    for (t, task) in g.tasks() {
        let prog = task.program.as_deref().and_then(|name| lib.get(name));
        of_task.push(prog.expect("Bindings::check passed"));
        let p = schedule
            .primary(t)
            .ok_or_else(|| CodegenError::Unscheduled(task.name.clone()))?;
        per_proc.entry(p.proc.0).or_default().push((p.start, t));
    }
    for q in per_proc.values_mut() {
        q.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }
    let progs = of_task.iter().map(|p| (p.name.as_str(), *p)).collect();
    Ok(Plan {
        bindings,
        of_task,
        progs,
        per_proc,
    })
}

/// The variables a generated task function declares and zero-initialises:
/// the outputs, the declared locals, then the implicit locals — names the
/// body assigns (by `:=` or a `for` header) without declaring, which the
/// interpreter treats as locals — in name order.
pub(crate) fn zeroed_vars(prog: &Program) -> Vec<&str> {
    let assigned = Facts::of(&prog.body).assigned.into_keys();
    let declared = prog.outputs.iter().chain(&prog.locals).map(String::as_str);
    declared
        .chain(assigned.filter(|v| !prog.declares(v)))
        .collect()
}

/// Indents the line about to be written: four spaces a level, both targets.
pub(crate) fn indent(w: &mut String, depth: usize) {
    for _ in 0..depth {
        w.push_str("    ");
    }
}

/// Renders a [`Value`] as a Rust literal over the generated runtime.
pub(crate) fn rust_value_literal(v: &Value) -> String {
    match v {
        Value::Num(n) => format!("Value::Num({n:?}f64)"),
        Value::Array(a) => {
            let items: Vec<String> = a.iter().map(|x| format!("{x:?}f64")).collect();
            format!("Value::Array(vec![{}])", items.join(", "))
        }
    }
}

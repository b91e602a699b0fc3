//! A named collection of PITS programs — the bridge between a design's
//! task nodes (which carry a `program` name) and the executable routines
//! behind them.
//!
//! Every program is compiled to bytecode ([`crate::compile`]) exactly
//! once, when it enters the library; the `Arc<CompiledProgram>` handed
//! out by [`ProgramLibrary::get_compiled`] is shared by the exec
//! runner's worker threads, trial runs, and benchmarks, so no caller
//! ever recompiles (or re-walks the AST of) a task body per invocation.

use crate::absint::{self, StaticCost};
use crate::ast::Program;
use crate::compile::{compile, CompiledProgram};
use crate::error::ParseError;
use crate::parser::parse_program;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A library of PITS programs keyed by name.
#[derive(Debug, Clone, Default)]
pub struct ProgramLibrary {
    programs: BTreeMap<String, Entry>,
}

#[derive(Debug, Clone)]
struct Entry {
    source: Arc<Program>,
    compiled: Arc<CompiledProgram>,
    /// The program's static cost, analyzed on first request. The entry
    /// is replaced as a whole when the program is, so it cannot go stale.
    cost: OnceLock<StaticCost>,
}

impl ProgramLibrary {
    /// An empty library.
    pub fn new() -> Self {
        ProgramLibrary::default()
    }

    /// Parses `src` and registers the program under its own task name.
    /// Returns the name. Re-registering a name replaces the old program
    /// (the panel's "edit task" flow) and its compiled form.
    pub fn add_source(&mut self, src: &str) -> Result<String, ParseError> {
        let prog = parse_program(src)?;
        Ok(self.add(prog))
    }

    /// Registers an already-parsed program, compiling it eagerly
    /// (compilation never fails — unresolvable names become runtime
    /// errors at the same execution points the tree-walker raises them).
    pub fn add(&mut self, prog: Program) -> String {
        let name = prog.name.clone();
        let compiled = Arc::new(compile(&prog));
        self.programs.insert(
            name.clone(),
            Entry {
                source: Arc::new(prog),
                compiled,
                cost: OnceLock::new(),
            },
        );
        name
    }

    /// Looks a program up by name.
    pub fn get(&self, name: &str) -> Option<&Program> {
        self.programs.get(name).map(|e| e.source.as_ref())
    }

    /// The shared handle to a named program's AST. Lets long-lived
    /// runtimes (the executor's persistent [`Session`]s) own their
    /// routing tables without borrowing the library or cloning ASTs.
    ///
    /// [`Session`]: https://docs.rs/banger-exec
    pub fn get_shared(&self, name: &str) -> Option<Arc<Program>> {
        self.programs.get(name).map(|e| Arc::clone(&e.source))
    }

    /// The compile-once bytecode form of a named program. Cloning the
    /// `Arc` is how worker threads share it without re-compilation.
    pub fn get_compiled(&self, name: &str) -> Option<Arc<CompiledProgram>> {
        self.programs.get(name).map(|e| Arc::clone(&e.compiled))
    }

    /// Number of programs.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// Iterates over `(name, program)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Program)> {
        self.programs.iter().map(|(n, e)| (n, e.source.as_ref()))
    }

    /// Static weight estimate for a named program: the point estimate
    /// of [`static_cost`](Self::static_cost). `None` when the name is
    /// unknown.
    pub fn estimate_weight(&self, name: &str) -> Option<f64> {
        self.static_cost(name).map(|c| c.est)
    }

    /// Full static cost bounds for a named program: lower/upper bounds on
    /// a clean trial run's operation count plus the point estimate (see
    /// [`crate::absint`]). `None` when the name is unknown.
    ///
    /// The analysis runs once per registered program, however many tasks
    /// share it: a tiled expansion weighs hundreds of tasks with a
    /// handful of kernels.
    pub fn static_cost(&self, name: &str) -> Option<StaticCost> {
        self.programs
            .get(name)
            .map(|e| *e.cost.get_or_init(|| absint::analyze(&e.source).cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_and_estimate() {
        let mut lib = ProgramLibrary::new();
        assert!(lib.is_empty());
        let name = lib
            .add_source("task Double in a out b begin b := a * 2 end")
            .unwrap();
        assert_eq!(name, "Double");
        assert_eq!(lib.len(), 1);
        assert!(lib.get("Double").is_some());
        assert!(lib.get("Nope").is_none());
        assert_eq!(lib.estimate_weight("Double"), Some(2.0));
        assert_eq!(lib.estimate_weight("Nope"), None);
        let sc = lib.static_cost("Double").unwrap();
        assert!(sc.exact);
        assert_eq!(sc.ops_lo, 2.0);
        assert!(lib.static_cost("Nope").is_none());
    }

    #[test]
    fn replace_on_same_name() {
        let mut lib = ProgramLibrary::new();
        lib.add_source("task T in a out b begin b := a end")
            .unwrap();
        lib.add_source("task T in a out b begin b := a * 3 end")
            .unwrap();
        assert_eq!(lib.len(), 1);
        let p = lib.get("T").unwrap();
        assert_eq!(p.body.len(), 1);
    }

    #[test]
    fn static_cost_follows_a_replaced_program() {
        let mut lib = ProgramLibrary::new();
        lib.add_source("task T in a out b begin b := a end")
            .unwrap();
        assert_eq!(lib.estimate_weight("T"), Some(1.0));
        assert_eq!(lib.estimate_weight("T"), Some(1.0), "memoized");
        // A clone taken now carries the memo; the edit below must not
        // reach it, nor the memo survive the edit.
        let before = lib.clone();
        lib.add_source("task T in a out b begin b := a * 3 + 1 end")
            .unwrap();
        assert_eq!(lib.estimate_weight("T"), Some(3.0));
        assert_eq!(before.estimate_weight("T"), Some(1.0));
    }

    #[test]
    fn parse_errors_propagate() {
        let mut lib = ProgramLibrary::new();
        assert!(lib.add_source("task ???").is_err());
        assert!(lib.is_empty());
    }

    #[test]
    fn iteration_in_name_order() {
        let mut lib = ProgramLibrary::new();
        lib.add_source("task B out x begin x := 1 end").unwrap();
        lib.add_source("task A out x begin x := 1 end").unwrap();
        let names: Vec<&String> = lib.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["A", "B"]);
    }

    #[test]
    fn compiled_form_is_cached_and_replaced() {
        let mut lib = ProgramLibrary::new();
        lib.add_source("task T in a out b begin b := a end")
            .unwrap();
        let c1 = lib.get_compiled("T").unwrap();
        let c1_again = lib.get_compiled("T").unwrap();
        assert!(Arc::ptr_eq(&c1, &c1_again), "same Arc on repeated lookup");
        lib.add_source("task T in a out b begin b := a * 3 end")
            .unwrap();
        let c2 = lib.get_compiled("T").unwrap();
        assert!(!Arc::ptr_eq(&c1, &c2), "re-registering recompiles");
        assert!(lib.get_compiled("Nope").is_none());
    }

    #[test]
    fn compiled_form_runs() {
        use crate::value::Value;
        let mut lib = ProgramLibrary::new();
        lib.add_source("task Double in a out b begin b := a * 2 end")
            .unwrap();
        let c = lib.get_compiled("Double").unwrap();
        let out = crate::vm::run_compiled(
            &c,
            &[("a".to_string(), Value::Num(21.0))].into_iter().collect(),
            crate::interp::InterpConfig::default(),
        )
        .unwrap();
        assert_eq!(out.outputs["b"], Value::Num(42.0));
    }
}

//! A named collection of PITS programs — the bridge between a design's
//! task nodes (which carry a `program` name) and the executable routines
//! behind them.
//!
//! Every program is compiled to bytecode ([`crate::compile`]) exactly
//! once, when it enters the library; the `Arc<CompiledProgram>` handed
//! out by [`ProgramLibrary::get_compiled`] is shared by the exec
//! runner's worker threads, trial runs, and benchmarks, so no caller
//! ever recompiles (or re-walks the AST of) a task body per invocation.
//!
//! An entry is everything derived from one program text — AST, bytecode,
//! static cost, seeded analyses — and is immutable: editing a program
//! replaces its entry. That makes the entry the unit of reuse between two
//! libraries: [`ProgramLibrary::add_source_from`] takes the entry of a
//! donor library whose text is byte-identical instead of parsing and
//! compiling again. Positions in the AST are program-relative, so where
//! the text sat in its document is not part of what the entry was
//! computed from.

use crate::absint::{self, AnalysisOptions, Finding, StaticCost};
use crate::ast::Program;
use crate::compile::{compile, CompiledProgram};
use crate::error::ParseError;
use crate::parser::parse_program;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A library of PITS programs keyed by name. Cloning shares the entries.
#[derive(Debug, Clone, Default)]
pub struct ProgramLibrary {
    programs: BTreeMap<String, Arc<Entry>>,
}

#[derive(Debug)]
struct Entry {
    /// The source the program was parsed from; `None` for a program
    /// registered as an AST ([`ProgramLibrary::add`]), which no text can
    /// match.
    text: Option<Box<str>>,
    source: Arc<Program>,
    compiled: Arc<CompiledProgram>,
    /// The program's static cost, analyzed on first request.
    cost: OnceLock<StaticCost>,
    /// Findings of the seeded analyses the last
    /// [`ProgramLibrary::seeded_findings`] call asked for.
    seeded: Mutex<Seeded>,
}

/// Findings by seeding, sorted by it; a slice of exact size, because
/// every resident program holds one.
type Seeded = Box<[(SeedKey, Arc<[Finding]>)]>;

/// One seeding of a program's inputs, as the analysis reads it: `(index
/// into Program::inputs, declared length as f64 bits)` for each seeded
/// input, in input order.
type SeedKey = Box<[(u32, u64)]>;

/// The programs of a library by the exact source text each was parsed
/// from: what [`ProgramLibrary::add_source_from`] reuses. Lookup compares
/// the bytes of the text, never a hash of them.
#[derive(Debug, Default)]
pub struct TextIndex<'a> {
    by_text: BTreeMap<&'a str, &'a Arc<Entry>>,
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
        self.add_source_from(src, &TextIndex::default())
    }

    /// [`add_source`](Self::add_source), except that a program `donor`
    /// holds under exactly the text `src` is shared with it — AST,
    /// bytecode, and the analyses memoized so far — instead of being
    /// parsed and compiled again.
    pub fn add_source_from(
        &mut self,
        src: &str,
        donor: &TextIndex<'_>,
    ) -> Result<String, ParseError> {
        let entry = match donor.by_text.get(src) {
            Some(&entry) => Arc::clone(entry),
            None => Arc::new(Entry::new(parse_program(src)?, Some(src.into()))),
        };
        let name = entry.source.name.clone();
        self.programs.insert(name.clone(), entry);
        Ok(name)
    }

    /// This library's programs by source text, for a later library to
    /// take unchanged programs from.
    pub fn by_text(&self) -> TextIndex<'_> {
        let by_text = self
            .programs
            .values()
            .filter_map(|e| Some((e.text.as_deref()?, e)))
            .collect();
        TextIndex { by_text }
    }

    /// Registers an already-parsed program, compiling it eagerly
    /// (compilation never fails — unresolvable names become runtime
    /// errors at the same execution points the tree-walker raises them).
    pub fn add(&mut self, prog: Program) -> String {
        let name = prog.name.clone();
        self.programs
            .insert(name.clone(), Arc::new(Entry::new(prog, None)));
        name
    }

    /// Looks a program up by name.
    pub fn get(&self, name: &str) -> Option<&Program> {
        self.programs.get(name).map(|e| e.source.as_ref())
    }

    /// A named program's [`Program::interface`].
    pub fn interface(&self, name: &str) -> Option<(&[String], &[String])> {
        self.get(name).map(Program::interface)
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

    /// The findings of [`absint::analyze_with`] on a named program under
    /// each of `seedings`, in that order; a seeding is the declared array
    /// lengths of some of the program's inputs
    /// ([`AnalysisOptions::with_declared_lengths`]). `None` when the name
    /// is unknown.
    ///
    /// An analysis is a function of the program and the seeding alone, so
    /// the entry keeps the findings under the seeding and a later call —
    /// from this library or one that shares the entry — runs only the
    /// analyses it is first to ask for. The entry keeps exactly what the
    /// last call asked for, so it never holds more seedings than one
    /// design uses.
    pub fn seeded_findings(
        &self,
        name: &str,
        seedings: &[Vec<(&str, f64)>],
    ) -> Option<Vec<Arc<[Finding]>>> {
        let e = self.programs.get(name)?;
        let held = std::mem::take(&mut *e.seeded());
        let mut asked: Vec<(SeedKey, Arc<[Finding]>)> = Vec::new();
        let findings = seedings
            .iter()
            .map(|lengths| {
                let key = e.seed_key(lengths);
                let at = |memo: &[(SeedKey, _)]| memo.binary_search_by(|(k, _)| k.cmp(&key));
                match at(&asked) {
                    Ok(i) => Arc::clone(&asked[i].1),
                    Err(i) => {
                        let found = match at(&held) {
                            Ok(j) => Arc::clone(&held[j].1),
                            Err(_) => e.analyze_seeded(&key),
                        };
                        asked.insert(i, (key, Arc::clone(&found)));
                        found
                    }
                }
            })
            .collect();
        *e.seeded() = asked.into();
        Some(findings)
    }
}

impl Entry {
    fn new(prog: Program, text: Option<Box<str>>) -> Self {
        Entry {
            text,
            compiled: Arc::new(compile(&prog)),
            source: Arc::new(prog),
            cost: OnceLock::new(),
            seeded: Mutex::default(),
        }
    }

    fn seeded(&self) -> std::sync::MutexGuard<'_, Seeded> {
        self.seeded
            .lock()
            .expect("the seeded-analysis memo is never held across a call that can panic")
    }

    /// What the analysis reads of `lengths`: only `in` names are looked
    /// up, and of a name given twice the later length stands (the options
    /// hold a map).
    fn seed_key(&self, lengths: &[(&str, f64)]) -> SeedKey {
        let seeded = |input: &String| lengths.iter().rev().find(|(name, _)| name == input);
        (0u32..)
            .zip(&self.source.inputs)
            .filter_map(|(i, input)| Some((i, seeded(input)?.1.to_bits())))
            .collect()
    }

    fn analyze_seeded(&self, key: &SeedKey) -> Arc<[Finding]> {
        let lengths = key.iter().map(|&(i, bits)| {
            (
                self.source.inputs[i as usize].as_str(),
                f64::from_bits(bits),
            )
        });
        let opts = AnalysisOptions::with_declared_lengths(lengths);
        absint::analyze_with(&self.source, &opts).findings.into()
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

    const INDEXER: &str = "task T in v, w out x begin x := v[9] + w[2] end";

    #[test]
    fn identical_text_is_shared_with_the_donor_and_nothing_else_is() {
        let double = "task Double in a out b begin b := a * 2 end";
        let mut old = ProgramLibrary::new();
        old.add_source(INDEXER).unwrap();
        old.add_source(double).unwrap();
        old.add(parse_program("task Ast out x begin x := 1 end").unwrap());
        old.estimate_weight("T");

        let donor = old.by_text();
        let mut new = ProgramLibrary::new();
        new.add_source_from(INDEXER, &donor).unwrap();
        // One more space is another text; so is the text of a program
        // that entered the donor as an AST.
        new.add_source_from(&double.replace("a * 2", "a *  2"), &donor)
            .unwrap();
        new.add_source_from("task Ast out x begin x := 1 end", &donor)
            .unwrap();
        let shared = |name: &str| {
            let (o, n) = (
                old.get_compiled(name).unwrap(),
                new.get_compiled(name).unwrap(),
            );
            assert_eq!(
                Arc::ptr_eq(&o, &n),
                Arc::ptr_eq(
                    &old.get_shared(name).unwrap(),
                    &new.get_shared(name).unwrap()
                )
            );
            Arc::ptr_eq(&o, &n)
        };
        assert!(shared("T"));
        assert!(!shared("Double"));
        assert!(!shared("Ast"));
        assert_eq!(new.get("Double"), old.get("Double"), "positions included");
        // A text the donor does not hold goes to the parser, errors and all.
        assert!(new.add_source_from("task ???", &donor).is_err());
    }

    #[test]
    fn seeded_findings_are_those_of_a_fresh_analysis() {
        let mut lib = ProgramLibrary::new();
        lib.add_source(INDEXER).unwrap();
        let seedings = [
            vec![("v", 3.0), ("w", 2.0)],
            vec![],
            vec![("v", 12.0)],
            // Only `in` names count, and of a name given twice the later.
            vec![("v", 12.0), ("v", 3.0), ("w", 2.0), ("x", 1.0)],
        ];
        let first = lib.seeded_findings("T", &seedings).unwrap();
        for (lengths, found) in seedings.iter().zip(&first) {
            let opts = AnalysisOptions::with_declared_lengths(lengths.iter().copied());
            let fresh = absint::analyze_with(lib.get("T").unwrap(), &opts).findings;
            assert_eq!(found[..], fresh[..], "{lengths:?}");
        }
        assert!(!first[0].is_empty() && first[2].is_empty(), "{first:?}");
        assert!(
            Arc::ptr_eq(&first[0], &first[3]),
            "one analysis, asked twice"
        );
        assert!(lib.seeded_findings("Nope", &seedings).is_none());

        // A library that shares the entry shares the memo, and the memo
        // holds what was asked last: no more.
        let mut next = ProgramLibrary::new();
        next.add_source_from(INDEXER, &lib.by_text()).unwrap();
        let again = next.seeded_findings("T", &seedings[..1]).unwrap();
        assert!(Arc::ptr_eq(&again[0], &first[0]));
        assert_eq!(lib.programs["T"].seeded().len(), 1);
        let recomputed = lib.seeded_findings("T", &seedings[2..3]).unwrap();
        assert!(!Arc::ptr_eq(&recomputed[0], &first[2]));
        assert_eq!(recomputed[0][..], first[2][..]);
    }

    #[test]
    fn a_thousand_saves_leave_the_memo_at_one_designs_seedings() {
        // A save is a new library built with the last as its donor, and a
        // design that asks for its seedings. Two storage sizes alternate.
        let mut lib = ProgramLibrary::new();
        lib.add_source(INDEXER).unwrap();
        for save in 0..1000 {
            let mut next = ProgramLibrary::new();
            next.add_source_from(INDEXER, &lib.by_text()).unwrap();
            let v = if save % 2 == 0 { 3.0 } else { 12.0 };
            let asked = [vec![("v", v), ("w", 2.0)], vec![("v", v)]];
            next.seeded_findings("T", &asked).unwrap();
            assert_eq!(
                next.programs["T"].seeded().len(),
                asked.len(),
                "save {save}"
            );
            lib = next;
        }
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

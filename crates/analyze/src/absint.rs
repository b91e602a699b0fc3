//! The B04x pass: abstract interpretation of task program bodies.
//!
//! This is a thin design-level layer over the interval-domain abstract
//! interpreter in [`banger_calc::absint`]. It decides *what each task's
//! inputs look like* (storage classes with finite declared sizes seed
//! array lengths; everything else is unknown), runs the analysis once per
//! distinct `(program, seeding)` pair, and maps the engine's findings
//! onto stable diagnostics:
//!
//! | code | finding | severity |
//! |------|---------|----------|
//! | B040 | read of an uninitialized variable | error when definite, warning when possible |
//! | B041 | array index out of bounds | error when definite against flowed bounds, warning otherwise |
//! | B042 | definite division by zero / domain escape | warning (IEEE-complete) |
//! | B043 | `while` with no decreasing variant | warning |
//! | B044 | dead assignment / `out` unset on some path | error when the output is definitely unset, warning otherwise |
//!
//! The severity policy is deliberately sound against trial runs: a B04x
//! *error* means a clean run of that program (under the seeded shapes)
//! is impossible, which is what lets `Project::diagnose()` gate on it —
//! and what `tests/prop_absint.rs` checks differentially.

use crate::diag::{Code, Diagnostic, Location};
use banger_calc::absint::{analyze_with, AnalysisOptions, Finding, FindingKind};
use banger_calc::{Program, ProgramLibrary};
use banger_taskgraph::hierarchy::Expanded;
use std::collections::{BTreeMap, BTreeSet};

/// Diagnostics for one program analyzed in isolation (all inputs
/// unknown). This is the engine behind the design-level pass and the
/// entry point used by the differential property suite.
pub fn program_diagnostics(prog: &Program) -> Vec<Diagnostic> {
    let analysis = analyze_with(prog, &AnalysisOptions::default());
    analysis
        .findings
        .iter()
        .map(|f| to_diagnostic(&prog.name, f))
        .collect()
}

/// The design-level B04x pass: analyzes every program referenced by a
/// task in the flattened view, seeding array lengths from storage
/// declarations where the design pins them down. The library memoizes the
/// findings per program, so the seedings go to it a program at a time;
/// diagnostics are sorted afterwards, and those of one program keep their
/// task order.
pub fn body_safety(view: &Expanded, library: &ProgramLibrary, diags: &mut Vec<Diagnostic>) {
    let mut asked: BTreeMap<&str, Vec<Seeding>> = BTreeMap::new();
    for (pname, _, seeding) in seedings(view, library) {
        asked.entry(pname).or_default().push(seeding);
    }
    for (pname, seedings) in asked {
        for findings in library
            .seeded_findings(pname, &seedings)
            .unwrap_or_default()
        {
            diags.extend(findings.iter().map(|f| to_diagnostic(pname, f)));
        }
    }
}

/// The analyses [`body_safety`] runs on a design: one `(program name,
/// program, options)` triple per distinct `(program, seed signature)`
/// pair, in task order. Storage classes with a finite integral declared
/// size seed the array length of the reader's input of the same name;
/// every other input stays unknown.
pub fn seeded_analyses<'a>(
    view: &'a Expanded,
    library: &'a ProgramLibrary,
) -> Vec<(&'a str, &'a Program, AnalysisOptions)> {
    seedings(view, library)
        .into_iter()
        .map(|(pname, prog, seeding)| {
            let opts = AnalysisOptions::with_declared_lengths(seeding);
            (pname, prog, opts)
        })
        .collect()
}

/// The declared lengths one analysis is seeded with: `(input name,
/// storage size)`, sorted.
type Seeding<'a> = Vec<(&'a str, f64)>;

fn seedings<'a>(
    view: &'a Expanded,
    library: &'a ProgramLibrary,
) -> Vec<(&'a str, &'a Program, Seeding<'a>)> {
    // Storage base name -> declared size, for classes whose size is a
    // meaningful array length (finite, integral, >= 1).
    let mut declared: BTreeMap<&str, f64> = BTreeMap::new();
    for sc in &view.classes {
        if sc.size.is_finite() && sc.size >= 1.0 && sc.size.fract() == 0.0 {
            declared.insert(sc.base.as_str(), sc.size);
        }
    }
    // Which storage classes each task reads (to seed its inputs), each
    // once: the walk lists a reader per routed arc.
    let mut feeds: Vec<Vec<usize>> = vec![Vec::new(); view.tasks.len()];
    for (ci, sc) in view.classes.iter().enumerate() {
        for &r in &sc.readers {
            if feeds[r].last() != Some(&ci) {
                feeds[r].push(ci);
            }
        }
    }

    // One analysis per distinct (program, seed signature). The keys
    // borrow from the view: the 586-task tiled LU asks for 209 analyses,
    // and the other tasks cost one set lookup, not a handful of Strings.
    let mut done: BTreeSet<(&str, Vec<(&str, u64)>)> = BTreeSet::new();
    let mut out = Vec::new();
    for (t, task) in view.tasks.iter().enumerate() {
        let Some(pname) = task.program.as_deref() else {
            continue;
        };
        let Some(prog) = library.get(pname) else {
            continue; // B010 already reported by the interface pass
        };
        // Sizes are keyed by bit pattern: exact, and `Ord`.
        let mut signature: Vec<(&str, u64)> = feeds[t]
            .iter()
            .map(|&ci| view.classes[ci].base.as_str())
            .filter(|base| prog.inputs.iter().any(|v| v == base))
            .filter_map(|base| declared.get(base).map(|size| (base, size.to_bits())))
            .collect();
        signature.sort();
        let key = (pname, signature);
        if done.contains(&key) {
            continue;
        }
        let seeding = key
            .1
            .iter()
            .map(|&(base, size)| (base, f64::from_bits(size)));
        out.push((pname, prog, seeding.collect()));
        done.insert(key);
    }
    out
}

fn to_diagnostic(pname: &str, f: &Finding) -> Diagnostic {
    let loc = Location::program(pname.to_string(), f.pos);
    let qualifier = if f.definite { "definitely" } else { "possibly" };
    match &f.kind {
        FindingKind::UninitRead { var } => {
            let msg = format!("program `{pname}` reads `{var}` which is {qualifier} unassigned");
            let d = if f.definite {
                Diagnostic::error(Code::B040, loc, msg)
            } else {
                Diagnostic::warning(Code::B040, loc, msg)
            };
            d.with_help(format!(
                "assign `{var}` on every path before this read (or declare it `in` \
                 and feed it with an arc)"
            ))
        }
        FindingKind::IndexOut {
            var,
            index,
            len,
            declared,
        } => {
            let source = if *declared { "declared" } else { "inferred" };
            let msg = format!(
                "index {index} into `{var}` is {qualifier} outside its {source} \
                 length {len} (arrays are 1-based)"
            );
            let d = if f.definite {
                Diagnostic::error(Code::B041, loc, msg)
            } else {
                Diagnostic::warning(Code::B041, loc, msg)
            };
            d.with_help(format!(
                "keep the index within 1..=len({var}), or size the array to match"
            ))
        }
        FindingKind::DivByZero => Diagnostic::warning(
            Code::B042,
            loc,
            format!("program `{pname}` divides by a value that is always zero"),
        )
        .with_help(
            "the calculator completes with IEEE infinity, which is rarely intended; \
             guard the divisor",
        ),
        FindingKind::Domain { func } => Diagnostic::warning(
            Code::B042,
            loc,
            format!("`{func}` is always applied outside its domain in program `{pname}`"),
        )
        .with_help(
            "the result is IEEE NaN/-inf, which silently poisons downstream \
             arithmetic; guard the argument",
        ),
        FindingKind::NoVariant { vars } => {
            let what = if vars.is_empty() {
                "its condition is constant".to_string()
            } else {
                format!(
                    "none of its condition variables ({}) is assigned in the body",
                    vars.iter()
                        .map(|v| format!("`{v}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            Diagnostic::warning(
                Code::B043,
                loc,
                format!("a `while` loop in program `{pname}` has no decreasing variant: {what}"),
            )
            .with_help(
                "the loop can only stop via the step limit; make the body change \
                 a condition variable",
            )
        }
        FindingKind::DeadAssign { var } => Diagnostic::warning(
            Code::B044,
            loc,
            format!(
                "assignment to `{var}` in program `{pname}` is dead: the value is \
                 never read"
            ),
        )
        .with_help("delete the assignment, or use the value"),
        FindingKind::OutputUnset { var } => {
            let msg = format!(
                "`out {var}` of program `{pname}` is {qualifier} unassigned at the \
                 end of the body"
            );
            let d = if f.definite {
                Diagnostic::error(Code::B044, loc, msg)
            } else {
                Diagnostic::warning(Code::B044, loc, msg)
            };
            d.with_help(format!("assign `{var}` on every path through the body"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use banger_calc::parse_program;

    fn diags_of(src: &str) -> Vec<Diagnostic> {
        program_diagnostics(&parse_program(src).unwrap())
    }

    fn find(diags: &[Diagnostic], code: Code) -> Vec<&Diagnostic> {
        diags.iter().filter(|d| d.code == code).collect()
    }

    #[test]
    fn b040_definite_is_error_possible_is_warning() {
        let d = diags_of("task T out x local q begin x := q + 1 end");
        let hits = find(&d, Code::B040);
        assert_eq!(hits.len(), 1, "{d:?}");
        assert_eq!(hits[0].severity, Severity::Error);
        assert!(
            hits[0].message.contains("definitely"),
            "{}",
            hits[0].message
        );

        let d = diags_of("task T in a out x local q begin if a > 0 then q := 1 end x := q end");
        let hits = find(&d, Code::B040);
        assert_eq!(hits.len(), 1, "{d:?}");
        assert_eq!(hits[0].severity, Severity::Warning);
    }

    #[test]
    fn b041_definite_is_error() {
        let d = diags_of("task T out x local w begin w := zeros(3) x := w[5] end");
        let hits = find(&d, Code::B041);
        assert_eq!(hits.len(), 1, "{d:?}");
        assert_eq!(hits[0].severity, Severity::Error);
        assert!(hits[0].location.span.is_some(), "{:?}", hits[0]);
    }

    #[test]
    fn b042_is_always_warning() {
        let d = diags_of("task T out x local z begin z := 0 x := 1 / z end");
        let hits = find(&d, Code::B042);
        assert_eq!(hits.len(), 1, "{d:?}");
        assert_eq!(hits[0].severity, Severity::Warning);

        let d = diags_of("task T out x begin x := sqrt(0 - 4) end");
        let hits = find(&d, Code::B042);
        assert_eq!(hits.len(), 1, "{d:?}");
        assert_eq!(hits[0].severity, Severity::Warning);
        assert!(hits[0].message.contains("sqrt"), "{}", hits[0].message);
    }

    #[test]
    fn b043_flags_variantless_while() {
        let d = diags_of("task T in a out x begin x := 0 while a > 0 do x := x + 1 end end");
        let hits = find(&d, Code::B043);
        assert_eq!(hits.len(), 1, "{d:?}");
        assert_eq!(hits[0].severity, Severity::Warning);
        assert!(hits[0].message.contains("`a`"), "{}", hits[0].message);
    }

    #[test]
    fn b044_dead_assign_and_unset_output() {
        let d = diags_of("task T out x local t begin t := 1 t := 2 x := t end");
        let hits = find(&d, Code::B044);
        assert_eq!(hits.len(), 1, "{d:?}");
        assert_eq!(hits[0].severity, Severity::Warning);
        assert!(hits[0].message.contains("dead"), "{}", hits[0].message);

        let d = diags_of("task T in a out x begin if a > 0 then x := 1 end end");
        let hits = find(&d, Code::B044);
        assert_eq!(hits.len(), 1, "{d:?}");
        assert_eq!(hits[0].severity, Severity::Warning);
        assert!(hits[0].message.contains("out x") || hits[0].message.contains("`x`"));
    }

    #[test]
    fn clean_program_produces_nothing() {
        let d = diags_of("task T in a out x local g begin g := a / 2 x := g * g end");
        assert!(d.is_empty(), "{d:?}");
    }
}

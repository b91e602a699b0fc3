//! Property tests for the static-analysis engine (`banger-analyze`):
//! lint never panics and is deterministic on random hierarchical graphs,
//! it refuses exactly the designs a strict flatten refuses, and the
//! schedulable seed designs (LU) produce zero error-severity diagnostics.

#[path = "support/designs.rs"]
mod designs;

use banger::lu::lu_program_library;
use banger_analyze::{diagnose, Code, Severity};
use banger_calc::ProgramLibrary;
use banger_taskgraph::generators;
use designs::{grouped_design, random_design, varied_design};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lint engine must never panic, whatever the design looks like,
    /// and must return the same findings for the same inputs. And because
    /// the scheduler graph and the analyzer read one hierarchy walk, they
    /// agree on what is wrong: a strict flatten fails exactly when the
    /// analyzer names a binding problem, a cycle or a bad weight, and when
    /// it succeeds its tasks are the walk's, in `TaskId` order.
    #[test]
    fn lint_is_total_and_deterministic(
        seed in 0u64..1_000_000,
        n in 2usize..12,
        varied in any::<bool>(),
    ) {
        let g = if varied { varied_design(seed, n) } else { random_design(seed, n) };
        let lib = ProgramLibrary::new();
        let diags = diagnose(&g, &lib);
        prop_assert_eq!(&diags, &diagnose(&g, &lib));

        let refused = diags.iter().any(|d| match d.code {
            Code::B020 | Code::B021 | Code::B030 => true,
            Code::B032 => d.severity == Severity::Error,
            _ => false,
        });
        match g.flatten() {
            Err(e) => prop_assert!(refused, "flatten says {}, lint only {:?}", e, diags),
            Ok(f) => {
                prop_assert!(!refused, "flatten succeeded against {:?}", diags);
                let walked: Vec<String> = g.expand().tasks.into_iter().map(|t| t.name).collect();
                let flat: Vec<String> = f.graph.tasks().map(|(_, t)| t.name.clone()).collect();
                prop_assert_eq!(walked, flat);
            }
        }
    }

    /// Clean two-level compound designs stay clean: no error-severity
    /// findings on the grouped shapes the flatten property tests use.
    #[test]
    fn grouped_designs_have_no_errors(groups in 1usize..5, chain_len in 1usize..4) {
        let diags = diagnose(&grouped_design(groups, chain_len, 1.0), &ProgramLibrary::new());
        prop_assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "unexpected errors: {:?}",
            diags
        );
    }

    /// The LU seed design (with its real program library) is schedulable
    /// and must lint with zero error-severity diagnostics at every size.
    #[test]
    fn lu_seed_design_has_no_errors(n in 2usize..9) {
        let design = generators::lu_hierarchical(n);
        let lib = lu_program_library(n);
        let diags = diagnose(&design, &lib);
        prop_assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "LU-{n} produced errors: {:?}",
            diags
        );
    }
}

/// Diagnostics must also be stable across the hierarchical seed designs
/// (not just flat random ones): run twice and compare.
#[test]
fn lu_diagnostics_are_deterministic() {
    for n in [2, 4, 6] {
        let design = generators::lu_hierarchical(n);
        let lib = lu_program_library(n);
        assert_eq!(diagnose(&design, &lib), diagnose(&design, &lib));
    }
}

//! Differential soundness suite for the abstract interpreter: on
//! generated programs, any execution that completes cleanly under the
//! reference interpreter must be *predicted possible* by the static
//! analysis — no error-severity B04x diagnostic may fire, the measured
//! operation count must lie within the inferred `[ops_lo, ops_hi]`
//! bounds, and an `exact` claim must match the trial count to the tick.
//!
//! The generator (`support/absint_gen.rs`) is the same adversarial shape
//! as `prop_vm`: programs that *fail* at runtime are exactly the ones the
//! analysis is allowed to flag as errors, so the property filters on a
//! clean run first. Warnings are always allowed: the analyzer may be
//! unsure, never wrong.

#[path = "support/absint_gen.rs"]
mod absint_gen;

use absint_gen::arb_program;
use banger_analyze::{program_diagnostics, Severity};
use banger_calc::{absint, interp, InterpConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Soundness: a clean run refutes every *definite* static claim. If
    /// the reference interpreter completes within budget, the analysis
    /// must not have reported an error-severity diagnostic, the measured
    /// ops must lie within the static bounds, and `exact` bounds must hit
    /// the count exactly.
    #[test]
    fn clean_runs_refute_static_errors_and_land_in_bounds(p in arb_program()) {
        let inputs = BTreeMap::new();
        let cfg = InterpConfig::default();
        if let Ok(outcome) = interp::run_with(&p, &inputs, cfg) {
            let diags = program_diagnostics(&p);
            let errors: Vec<_> = diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            prop_assert!(
                errors.is_empty(),
                "clean run but static errors {errors:?} on:\n{}",
                banger_calc::pretty::print_program(&p)
            );
            let cost = absint::analyze(&p).cost;
            let ops = outcome.ops as f64;
            prop_assert!(
                cost.ops_lo <= ops && (cost.ops_hi.is_infinite() || ops <= cost.ops_hi),
                "measured {ops} outside [{}, {}] on:\n{}",
                cost.ops_lo,
                cost.ops_hi,
                banger_calc::pretty::print_program(&p)
            );
            if cost.exact {
                prop_assert_eq!(
                    ops,
                    cost.ops_lo,
                    "exact claim missed the trial count on:\n{}",
                    banger_calc::pretty::print_program(&p)
                );
            }
        }
    }

    /// The analysis is deterministic: findings and cost are identical
    /// across repeated runs, so cached diagnostics never go stale against
    /// a re-analysis of the same program.
    #[test]
    fn analysis_is_deterministic(p in arb_program()) {
        let a1 = absint::analyze(&p);
        let a2 = absint::analyze(&p);
        prop_assert_eq!(format!("{:?}", a1.findings), format!("{:?}", a2.findings));
        prop_assert_eq!(format!("{:?}", a1.cost), format!("{:?}", a2.cost));
    }
}

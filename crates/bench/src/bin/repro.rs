//! `repro` — regenerates every figure and experiment of the paper.
//!
//! ```text
//! cargo run -p banger-bench --bin repro            # everything
//! cargo run -p banger-bench --bin repro -- fig3    # one artifact
//! ```
//!
//! Artifacts: `fig1 fig2 fig3 fig4 sched-compare predicted-vs-achieved
//! speedup ablations codegen animate lu-e2e`.

use banger::figures;
use banger_bench as xb;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");
    let mut ran = false;

    let mut section = |name: &str, body: &dyn Fn() -> String| {
        if want(name) {
            ran = true;
            println!(
                "=== {name} {}",
                "=".repeat(60usize.saturating_sub(name.len()))
            );
            println!("{}", body());
        }
    };

    section("fig1", &figures::figure1);
    section("fig2", &figures::figure2);
    section("fig3", &figures::figure3);
    section("fig4", &figures::figure4);
    section("sched-compare", &xb::sched_compare_table);
    section("predicted-vs-achieved", &xb::predicted_vs_achieved_table);
    section("speedup", &xb::speedup_sweep);
    section("ablations", &|| {
        format!(
            "{}\n{}\n{}",
            xb::ablation_comm(),
            xb::ablation_duplication(),
            xb::ablation_grain()
        )
    });
    section("codegen", &xb::codegen_report);
    section("animate", &|| {
        let g = banger_taskgraph::generators::gauss_elimination(6, 3.0, 2.0);
        let m = banger_machine::Machine::new(
            banger_machine::Topology::hypercube(2),
            xb::suite_params(),
        );
        let s = banger_sched::mh::mh(&g, &m);
        let r = banger_sim::simulate(&g, &m, &s).expect("simulates");
        banger::animate::animate(
            &g,
            m.processors(),
            &r,
            banger::animate::AnimateOptions::default(),
        )
    });
    section("lu-e2e", &|| {
        (2..=6)
            .map(figures::lu_end_to_end)
            .collect::<Vec<_>>()
            .join("\n")
    });

    if !ran {
        eprintln!(
            "unknown artifact {:?}; known: fig1 fig2 fig3 fig4 sched-compare \
             predicted-vs-achieved speedup ablations codegen animate lu-e2e all",
            args
        );
        std::process::exit(2);
    }
}

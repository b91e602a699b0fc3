//! R4 integration test: generated Rust programs compile with a bare
//! `rustc` and compute the same answers as the in-process executor.

use banger::figures;
use banger::lu::{lu_inputs, solve_reference, test_system};
use banger_machine::{Machine, MachineParams, Topology};
use std::path::PathBuf;
use std::process::Command;

fn compile_and_run(source: &str, tag: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    let src_path = dir.join(format!("{tag}.rs"));
    let bin_path = dir.join(format!("{tag}.bin"));
    std::fs::write(&src_path, source).unwrap();
    let status = Command::new("rustc")
        .arg("-O")
        .arg("--edition=2021")
        .arg("-o")
        .arg(&bin_path)
        .arg(&src_path)
        .output()
        .expect("rustc runs");
    assert!(
        status.status.success(),
        "generated {tag} failed to compile:\n{}",
        String::from_utf8_lossy(&status.stderr)
    );
    let out = Command::new(&bin_path).output().expect("binary runs");
    assert!(out.status.success(), "{tag} exited nonzero");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Parses `output x = [a, b, c]` lines from generated-program stdout.
fn parse_array_output(stdout: &str, var: &str) -> Vec<f64> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with(&format!("output {var} =")))
        .unwrap_or_else(|| panic!("no output line for {var} in:\n{stdout}"));
    let inner = line
        .split_once('[')
        .expect("array form")
        .1
        .trim_end_matches(']');
    inner
        .split(',')
        .map(|s| s.trim().parse().expect("number"))
        .collect()
}

#[test]
fn generated_lu_program_matches_reference() {
    let n = 3;
    let m = Machine::new(Topology::hypercube(2), figures::figure3_params());
    let p = figures::lu_project(n, m);
    let schedule = p.schedule("MH").unwrap();
    let (a, b) = test_system(n);
    let source = p.generate_rust(&schedule, &lu_inputs(&a, &b)).unwrap();

    let stdout = compile_and_run(&source, "lu3_mh");
    let got = parse_array_output(&stdout, "x");
    let want = solve_reference(&a, &b);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert!((g - w).abs() < 1e-9, "{got:?} vs {want:?}");
    }
}

#[test]
fn generated_program_follows_different_schedules() {
    // Same design, two schedules (serial vs MH): both generated programs
    // must compute the same answer.
    let n = 3;
    let (a, b) = test_system(n);
    let want = solve_reference(&a, &b);
    for (tag, heuristic, topo) in [
        ("lu3_serial", "serial", Topology::single()),
        ("lu3_etf", "ETF", Topology::fully_connected(4)),
    ] {
        let m = Machine::new(topo, MachineParams::default());
        let p = figures::lu_project(n, m);
        let schedule = p.schedule(heuristic).unwrap();
        let source = p.generate_rust(&schedule, &lu_inputs(&a, &b)).unwrap();
        let stdout = compile_and_run(&source, tag);
        let got = parse_array_output(&stdout, "x");
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "{tag}: {got:?} vs {want:?}");
        }
    }
}

#[test]
fn generated_program_with_control_flow_tasks() {
    // Exercise while/if/for translation through a design whose task uses
    // Newton-Raphson (the Figure 4 program) inside the dataflow.
    let mut design = banger_taskgraph::HierGraph::new("roots");
    let sa = design.add_storage("a", 1.0);
    let t1 = design.add_task_with_program("root", 20.0, "SquareRoot");
    let t2 = design.add_task_with_program("scale", 5.0, "Scale");
    let sx = design.add_storage("y", 1.0);
    design.add_flow(sa, t1).unwrap();
    design.add_arc(t1, t2, "x", 1.0).unwrap();
    design.add_flow(t2, sx).unwrap();

    let mut project = banger::project::Project::new("roots", design);
    project
        .library_mut()
        .add_source(figures::SQUARE_ROOT_SRC)
        .unwrap();
    project
        .library_mut()
        .add_source("task Scale in x out y begin if x > 1 then y := x * 10 else y := x end end")
        .unwrap();
    project.set_machine(Machine::new(
        Topology::fully_connected(2),
        MachineParams::default(),
    ));
    let schedule = project.schedule("ETF").unwrap();
    let inputs: std::collections::BTreeMap<String, banger_calc::Value> =
        [("a".to_string(), banger_calc::Value::Num(2.0))]
            .into_iter()
            .collect();
    let source = project.generate_rust(&schedule, &inputs).unwrap();
    let stdout = compile_and_run(&source, "roots_cf");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("output y ="))
        .expect("y printed");
    let y: f64 = line.rsplit('=').next().unwrap().trim().parse().unwrap();
    assert!((y - 10.0 * 2.0_f64.sqrt()).abs() < 1e-9, "{stdout}");
}

#[test]
fn generated_c_is_structurally_complete() {
    // We do not require an MPI toolchain in CI; instead verify the C
    // output is complete: every cross-processor arc has exactly one
    // matching Send/Recv pair with the same tag.
    let n = 4;
    let m = Machine::new(Topology::hypercube(2), figures::figure3_params());
    let p = figures::lu_project(n, m);
    let schedule = p.schedule("MH").unwrap();
    let (a, b) = test_system(n);
    let source = p.generate_c(&schedule, &lu_inputs(&a, &b)).unwrap();

    let sends: Vec<&str> = source.lines().filter(|l| l.contains("MPI_Send")).collect();
    let recvs: Vec<&str> = source.lines().filter(|l| l.contains("MPI_Recv")).collect();
    assert_eq!(sends.len(), recvs.len(), "unbalanced send/recv");
    // Tags must pair up.
    let tag_of = |l: &str| -> u32 {
        l.split("/*tag*/")
            .nth(1)
            .unwrap()
            .trim()
            .split(',')
            .next()
            .unwrap()
            .trim()
            .parse()
            .unwrap()
    };
    let mut send_tags: Vec<u32> = sends.iter().map(|l| tag_of(l)).collect();
    let mut recv_tags: Vec<u32> = recvs.iter().map(|l| tag_of(l)).collect();
    send_tags.sort_unstable();
    recv_tags.sort_unstable();
    assert_eq!(send_tags, recv_tags);
    // Balanced braces (catches broken emission).
    let opens = source.matches('{').count();
    let closes = source.matches('}').count();
    assert_eq!(opens, closes);
}

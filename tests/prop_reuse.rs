//! Incremental equals from-scratch, as a property.
//!
//! A daemon entry rebuilt after an edit takes every program whose text
//! did not change from the snapshot it replaces — AST, bytecode, static
//! cost and the seeded analyses memoized with it. Whatever it takes, it
//! must answer as a process that never saw the earlier versions: seeded
//! edit sessions (`support/edits.rs`) over the three runnable bundled
//! projects and a small tiled-LU document go through one long-lived
//! `ProjectStore` and, save by save, through a fresh one, and `check`
//! (text and json), `gantt -H ETF`, `run` and `show` must agree on
//! `output`, `notes`, `error` and `exit`.
#![cfg(unix)]

#[path = "support/edits.rs"]
mod edits;

use banger::serve::{ops::handle, ProjectStore, Request, Response};
use banger::{parse_project, print_project};
use banger_calc::Value;
use edits::{Edit, Rng, EDITS};
use std::collections::BTreeMap;
use std::path::PathBuf;

const SEEDS: u64 = 4;
const SAVES: usize = 40;

fn bundled(name: &str) -> String {
    std::fs::read_to_string(format!("examples/projects/{name}.bang")).expect("a bundled project")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("banger-reuse-{}-{name}.bang", std::process::id()))
}

fn array(values: impl IntoIterator<Item = f64>) -> Value {
    Value::array(values.into_iter().collect())
}

/// The five requests a save is followed by.
fn requests(path: &str, inputs: &BTreeMap<String, Value>) -> Vec<Request> {
    let mut json = Request::for_path("check", path);
    json.format = "json".into();
    let mut gantt = Request::for_path("gantt", path);
    gantt.heuristic = "ETF".into();
    let mut run = Request::for_path("run", path);
    run.inputs = inputs.clone();
    vec![
        Request::for_path("check", path),
        json,
        gantt,
        run,
        Request::for_path("show", path),
    ]
}

/// What the front end prints and exits with. The wall clock at the end of
/// a run's notes is the one thing two correct answers differ in.
fn said(resp: Response) -> (String, String, String, i32) {
    let notes = match resp.notes.split_once(", wall ") {
        Some((stable, _)) => stable.to_string(),
        None => resp.notes,
    };
    (resp.output, notes, resp.error, resp.exit)
}

/// One edit session per seed: every save answered by the long-lived store
/// as by a fresh one.
fn edit_sessions(name: &str, base: &str, inputs: &[(&str, Value)]) {
    let inputs: BTreeMap<String, Value> = inputs
        .iter()
        .map(|(n, v)| (n.to_string(), v.clone()))
        .collect();
    let path = temp_path(name);
    let requests = requests(path.to_str().unwrap(), &inputs);
    for seed in 0..SEEDS {
        let mut rng = Rng::new(seed);
        let long_lived = ProjectStore::new();
        // Every save so far: its text, the edit that made it, and whether
        // `check` found it clean.
        let mut history: Vec<(String, Option<Edit>, bool)> = vec![(base.to_string(), None, true)];
        for save in 0..SAVES {
            let (current, last, clean) = &history[history.len() - 1];
            let (text, edit) = if *last == Some(Edit::SyntaxError) {
                // The fix: the text the typo was made in.
                (history[history.len() - 2].0.clone(), None)
            } else if !clean && rng.below(2) == 0 {
                // Undo: back to the last version that checked clean, so a
                // session does not spend its saves on one broken design.
                let undone = history
                    .iter()
                    .rev()
                    .find(|h| h.2)
                    .expect("the base is clean");
                (undone.0.clone(), None)
            } else if rng.below(8) == 0 {
                // The file restored to any earlier version.
                (history[rng.below(history.len())].0.clone(), None)
            } else {
                let edit = EDITS[rng.below(EDITS.len())];
                match edits::apply(edit, current, &mut rng) {
                    Some(text) => (text, Some(edit)),
                    None => continue,
                }
            };
            std::fs::write(&path, &text).unwrap();
            let fresh = ProjectStore::new();
            let mut clean = true;
            for req in &requests {
                let answer = said(handle(&long_lived, req));
                assert_eq!(
                    answer,
                    said(handle(&fresh, req)),
                    "{name}, seed {seed}, save {save} ({edit:?}): {} {}\n{text}",
                    req.cmd,
                    req.format,
                );
                clean &= req.cmd != "check" || answer.3 == 0;
            }
            history.push((text, edit, clean));
        }
        let stats = long_lived.stats();
        assert!(
            stats.programs_reused > stats.programs_parsed,
            "{name}, seed {seed}: the sessions are about reuse: {stats:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn heat_probe_sessions() {
    let inputs = [("left", Value::Num(100.0)), ("right", Value::Num(0.0))];
    edit_sessions("heat_probe", &bundled("heat_probe"), &inputs);
}

#[test]
fn lu3_sessions() {
    let a = [5.0, 1.5, 2.0, 1.75, 5.0, 1.5, 1.25, 1.75, 5.0];
    let inputs = [("A", array(a)), ("b", array([1.0, 2.0, 3.0]))];
    edit_sessions("lu3", &bundled("lu3"), &inputs);
}

#[test]
fn matmul_sessions() {
    let identity = (0..36).map(|i| if i % 7 == 0 { 1.0 } else { 0.0 });
    let inputs = [
        ("A", array(identity)),
        ("B", array((1..=36).map(f64::from))),
    ];
    edit_sessions("matmul", &bundled("matmul"), &inputs);
}

/// The bundled dense LU at 8x8, its one task expanded into 2x2 tiles: a
/// document whose programs are shared by several tasks under different
/// storage sizes, so one program holds several seeded analyses.
#[test]
fn tiled_lu_sessions() {
    let dense = bundled("dense_lu")
        .replace("4096", "64")
        .replace("64 do", "8 do")
        .replace("* 64 +", "* 8 +")
        .replace("to 63", "to 7");
    let mut project = parse_project(&dense).unwrap();
    project.expand_task("fact", 2).unwrap();
    let tiled = print_project(&project);
    assert!(parse_project(&tiled).unwrap().library().len() > 3);
    // Diagonally dominant, so the factorization divides by no zero.
    let a = (0..64).map(|i| {
        if i % 9 == 0 {
            16.0
        } else {
            1.0 + (i % 5) as f64 / 4.0
        }
    });
    edit_sessions("tiled_lu", &tiled, &[("a", array(a))]);
}

/// The soundness case for the analysis memo: a storage size is the only
/// thing that changes, so the program is reused and its findings must not
/// be. `v[3]` is inside a declared length of 4 and outside one of 2.
#[test]
fn a_finding_follows_the_storage_size_under_an_unchanged_program() {
    let doc = |size: usize| {
        format!(
            "project pick\nmachine single\n  speed 1\n  process-startup 0\n  msg-startup 0\n  \
             rate 1\nend\ndesign\n  storage v {size}\n  task t 1 prog Pick\n  storage x 1\n  \
             arc v -> t\n  arc t -> x\nend\n\nbegin-program\ntask Pick\n  in v\n  out x\n\
             begin\n  x := v[3]\nend\nend-program\n"
        )
    };
    let path = temp_path("b041");
    let check = Request::for_path("check", path.to_str().unwrap());
    let long_lived = ProjectStore::new();
    for save in 0..6 {
        let size = if save % 2 == 0 { 2 } else { 4 };
        std::fs::write(&path, doc(size)).unwrap();
        let resp = said(handle(&long_lived, &check));
        assert_eq!(
            resp,
            said(handle(&ProjectStore::new(), &check)),
            "save {save}"
        );
        assert_eq!(
            resp.0.contains("B041"),
            size == 2,
            "save {save}: {}",
            resp.0
        );
    }
    let stats = long_lived.stats();
    assert_eq!((stats.programs_parsed, stats.programs_reused), (1, 5));
    std::fs::remove_file(&path).ok();
}

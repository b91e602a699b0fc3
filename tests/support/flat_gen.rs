//! The seeded flat-design generator shared by `prop_fuse` (the
//! optimizer's differential suite) and `golden_bindings` (the pinned
//! arc → variable resolution): layered tasks over scalar programs with
//! dead labels, shadowed duplicate arcs and unused declarations — every
//! shape the binding rule has a case for.

use std::collections::BTreeMap;

use banger_calc::{ProgramLibrary, Value};
use banger_taskgraph::hierarchy::{ExternalPort, Flattened};
use banger_taskgraph::{TaskGraph, TaskId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random layered flat design: every task computes a scalar from a mix
/// of external inputs and upstream outputs, with occasional prints,
/// loops, dead arcs, shadowed duplicate arcs and unused declarations.
pub fn random_flat(seed: u64) -> (Flattened, ProgramLibrary, BTreeMap<String, Value>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers = rng.gen_range(1usize..=4);
    let width = rng.gen_range(1usize..=4);

    let mut g = TaskGraph::new("rand");
    let mut lib = ProgramLibrary::new();
    let mut externals: BTreeMap<String, Value> = BTreeMap::new();
    let mut ext_readers: BTreeMap<String, Vec<TaskId>> = BTreeMap::new();
    // (producer, var) pairs available to later layers.
    let mut produced: Vec<(TaskId, String)> = Vec::new();
    let mut consumed: Vec<String> = Vec::new();
    let mut idx = 0usize;

    for _ in 0..layers {
        let prev = produced.clone();
        for _ in 0..width {
            let out_var = format!("t{idx}_o");
            let t = g.add_task(format!("t{idx}"), rng.gen_range(1.0f64..20.0));

            // Pick 1..=3 distinct inputs: upstream vars or externals.
            let mut ins: Vec<(String, Option<TaskId>)> = Vec::new();
            for _ in 0..rng.gen_range(1usize..=3) {
                if !prev.is_empty() && rng.gen_bool(0.6) {
                    let (p, var) = prev[rng.gen_range(0..prev.len())].clone();
                    if !ins.iter().any(|(v, _)| *v == var) {
                        ins.push((var, Some(p)));
                    }
                } else {
                    let ev = format!("x{}", rng.gen_range(0usize..5));
                    if !ins.iter().any(|(v, _)| *v == ev) {
                        externals
                            .entry(ev.clone())
                            .or_insert_with(|| Value::Num(rng.gen_range(1.0f64..9.0)));
                        ins.push((ev, None));
                    }
                }
            }
            // Sometimes declare an input no statement will reference
            // (DCE should trim it and drop its arc/port).
            let unused = rng.gen_bool(0.3).then(|| {
                if !prev.is_empty() && rng.gen_bool(0.5) {
                    let (p, var) = prev[rng.gen_range(0..prev.len())].clone();
                    if ins.iter().any(|(v, _)| *v == var) {
                        None
                    } else {
                        Some((var, Some(p)))
                    }
                } else {
                    let ev = "xu".to_string();
                    if ins.iter().any(|(v, _)| *v == ev) {
                        None
                    } else {
                        externals.entry(ev.clone()).or_insert(Value::Num(4.25));
                        Some((ev, None))
                    }
                }
            });
            let unused = unused.flatten();

            // Program body: a referenced mix of the live inputs.
            let mut decls: Vec<&str> = ins.iter().map(|(v, _)| v.as_str()).collect();
            if let Some((v, _)) = &unused {
                decls.push(v.as_str());
            }
            let mut src = format!(
                "task T{idx}\n  in {}\n  out {out_var}\n  local s, i\nbegin\n",
                decls.join(", ")
            );
            src.push_str(&format!("  s := {}\n", ins[0].0));
            for (v, _) in ins.iter().skip(1) {
                src.push_str(&format!("  s := s * 3 + {v}\n"));
            }
            if rng.gen_bool(0.4) {
                let k = rng.gen_range(2usize..=5);
                src.push_str(&format!(
                    "  for i := 1 to {k} do\n    s := s + i * {}\n  end\n",
                    ins[0].0
                ));
            }
            if rng.gen_bool(0.2) {
                src.push_str("  print s\n");
            }
            src.push_str(&format!("  {out_var} := s\nend\n"));
            let name = lib.add_source(&src).expect("generated program parses");
            g.set_program(t, name).unwrap();

            // Arcs for internally fed inputs (including the unused one).
            for (v, p) in ins.iter().chain(unused.iter()) {
                match p {
                    Some(p) => {
                        g.add_edge(*p, t, rng.gen_range(1.0f64..9.0), v.clone())
                            .unwrap();
                    }
                    None => ext_readers.entry(v.clone()).or_default().push(t),
                }
            }
            // Dead arc: a label the program never declares.
            if !prev.is_empty() && rng.gen_bool(0.3) {
                let (p, _) = prev[rng.gen_range(0..prev.len())];
                g.add_edge(p, t, 1.0, format!("junk{idx}")).unwrap();
            }
            // Shadowed duplicate of an internally fed input, from some
            // other upstream task (the graph rejects exact duplicates).
            // The router never reads it: the first arc with the label wins.
            if rng.gen_bool(0.3) {
                if let Some((v, Some(p))) = ins.iter().find(|(_, p)| p.is_some()) {
                    if let Some((q, _)) = prev.iter().find(|(q, _)| q != p) {
                        g.add_edge(*q, t, 1.0, v.clone()).unwrap();
                    }
                }
            }
            for (v, _) in &ins {
                consumed.push(v.clone());
            }
            produced.push((t, out_var));
            idx += 1;
        }
    }

    let inputs = ext_readers
        .into_iter()
        .map(|(var, tasks)| ExternalPort { var, tasks })
        .collect();
    // Every never-consumed product is an observed output, so the
    // differential check sees every live task's value.
    let outputs = produced
        .iter()
        .filter(|(_, v)| !consumed.contains(v))
        .map(|(t, v)| ExternalPort {
            var: v.clone(),
            tasks: vec![*t],
        })
        .collect();
    (
        Flattened {
            graph: std::sync::Arc::new(g),
            inputs,
            outputs,
        },
        lib,
        externals,
    )
}

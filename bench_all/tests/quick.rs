//! `--quick` runs the code a full run runs: every workload both ways, in
//! processes of their own, each ending in a result line that names
//! exactly the metrics `BENCHMARK.json` lists.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::process::Command;
use std::time::{Duration, Instant};

fn names(manifest: &Json, key: &str) -> Vec<String> {
    let Some(Json::Arr(items)) = manifest.get(key) else {
        panic!("BENCHMARK.json has no {key} list")
    };
    items
        .iter()
        .map(|item| match item.get("name") {
            Some(Json::Str(name)) => name.clone(),
            other => panic!("an entry of {key} has no name: {other:?}"),
        })
        .collect()
}

#[test]
fn quick_run_of_every_workload_is_correct_and_complete() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let manifest = json::parse(&manifest).expect("BENCHMARK.json is JSON");
    let started = Instant::now();
    for workload in names(&manifest, "workloads") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_bench_all"))
                .args(["--workload", &workload, "--quick", "--trace", trace])
                .output()
                .expect("start bench_all");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{workload} --trace {trace}: {stdout}");
            let last = stdout.trim_end().rsplit('\n').next().expect("a last line");
            let r = json::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"));
            assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{stdout}");
            assert_eq!(r.get("failed"), Some(&Json::Num(0.0)));
            assert!(
                r.get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            let Some(Json::Obj(metrics)) = r.get("metrics") else {
                panic!("no metrics: {stdout}")
            };
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, names(&manifest, key), "{workload} --trace {trace}");
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "quick is quick"
    );
}

//! The benchmark's contract, read from the one place it is written:
//! `BENCHMARK.json` at the root of the repository, compiled in. The
//! workloads, the end-to-end metrics with their bounds and the per-layer
//! metrics a run prints are the ones that file lists.

use crate::json::{self, Json};
use crate::spans::Spans;
use crate::stats;
use std::collections::BTreeMap;
use std::sync::OnceLock;

pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: String,
    pub unit: String,
}

pub struct Manifest {
    /// How long one full run measures, in seconds.
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<EndToEnd>,
    /// A workload reports 0 for a layer it does not enter: that zero is
    /// the bypass the workload was built for. README.md says which
    /// end-to-end metric each should move, and where.
    pub per_layer: Vec<PerLayer>,
}

pub fn manifest() -> &'static Manifest {
    static MANIFEST: OnceLock<Manifest> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        read(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json as checked in")
    })
}

fn read(text: &str) -> Result<Manifest, String> {
    let doc = json::parse(text)?;
    let list = |key: &str| match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("no {key} list")),
    };
    let string = |item: &Json, key: &str| match item.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(format!("an entry without {key}")),
    };
    let number = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("no number {key}"))
    };
    Ok(Manifest {
        run_seconds: number(&doc, "run_seconds")? as u64,
        workloads: list("workloads")?
            .iter()
            .map(|w| string(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(EndToEnd {
                    name: string(m, "name")?,
                    unit: string(m, "unit")?,
                    bound: number(m, "bound")?,
                })
            })
            .collect::<Result<_, String>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(|m| {
                Ok(PerLayer {
                    name: string(m, "name")?,
                    unit: string(m, "unit")?,
                })
            })
            .collect::<Result<_, String>>()?,
    })
}

impl Manifest {
    /// The layers whose share of the traced op time is reported: the
    /// `share.<layer>` metrics.
    pub fn share_layers(&self) -> impl Iterator<Item = &str> {
        self.per_layer
            .iter()
            .filter_map(|m| m.name.strip_prefix("share."))
    }
}

/// The per-layer values of one traced run. Every name is one the
/// manifest lists; what a workload does not set stays 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(
            manifest()
                .per_layer
                .iter()
                .map(|m| (m.name.as_str(), 0.0))
                .collect(),
        )
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }

    /// Sets `metric` to the median duration of the spans called `span`,
    /// in milliseconds times `scale`; returns that median in
    /// milliseconds. Leaves 0 when there is no such span.
    pub fn median_of(&mut self, spans: &Spans, metric: &str, span: &str, scale: f64) -> f64 {
        let mut d = spans.durations_ms(span);
        if d.is_empty() {
            return 0.0;
        }
        let ms = stats::median(&mut d);
        self.set(metric, ms * scale);
        ms
    }

    /// Every per-layer metric with its value, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static PerLayer, f64)> + '_ {
        manifest()
            .per_layer
            .iter()
            .map(|m| (m, self.0[m.name.as_str()]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_names_what_the_harness_implements() {
        let m = manifest();
        assert_eq!(
            m.workloads,
            [
                "daemon_warm",
                "daemon_edit",
                "pipeline_large",
                "sched_scale",
                "exec_heavy"
            ]
        );
        let gated: Vec<&str> = m.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(gated, ["op_p50_ms", "ops_per_s", "setup_s", "peak_rss_mb"]);
        assert!(m
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!((1..=60).contains(&m.run_seconds));
        assert!(m.per_layer.len() <= 128);
        let mut names: Vec<&str> = m.per_layer.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), m.per_layer.len(), "a name is used twice");
        let shares: Vec<&str> = m.share_layers().collect();
        assert!(shares.contains(&"serve") && shares.contains(&"harness"));
    }

    #[test]
    fn reader_says_what_a_manifest_lacks() {
        let err = |text| read(text).err().expect("an incomplete manifest is refused");
        assert!(err("{}").contains("run_seconds"));
        let no_bound = r#"{"run_seconds": 1, "workloads": [],
            "end_to_end": [{"name": "x", "unit": "s"}], "per_layer": []}"#;
        assert!(err(no_bound).contains("bound"));
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn layers_refuse_an_unlisted_name() {
        Layers::new().set("sched.made_up", 1.0);
    }
}

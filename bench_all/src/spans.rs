//! Spans around the calls into each layer, recorded by the harness.
//!
//! A span is `{name, start, end, parent, op}`. The name's part before the
//! first `.` is the layer (`sched.ETF` belongs to `sched`). Spans are held
//! in memory and written out once, in Chrome-trace form, when the run
//! ends. With the recorder off — every end-to-end run — `enter` and
//! `exit` are one branch each and the ops run the same code.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The op this span belongs to; `None` for a layer probe.
    pub op: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Spans entered from now on belong to op `op`.
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op: self.op,
        });
        // Read the clock last, so the bookkeeping above lands in the
        // parent's self time and not in this span.
        let now = self.epoch.elapsed().as_nanos() as u64;
        let span = self.spans.last_mut().expect("just pushed");
        span.start_ns = now;
        span.end_ns = now;
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = now;
    }

    /// A leaf span around `f`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with a span still open");
        self.spans.clear();
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in milliseconds, of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of each span: its duration minus the part of that
    /// interval its direct children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Self time summed by layer over the spans that belong to an op, in
    /// nanoseconds. The sum over all layers is the traced op time.
    ///
    /// A request to the daemon is one opaque `serve` span from outside.
    /// Spans under a `shadow` span replay, after the op, what that
    /// request did below `serve`; their time is credited to their own
    /// layers and taken out of `serve`, as if they had been its children.
    pub fn op_self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let under_shadow = |mut i: usize| loop {
            match self.spans[i].parent {
                Some(p) if self.spans[p].name == "shadow" => return true,
                Some(p) => i = p,
                None => return false,
            }
        };
        let mut by_layer = BTreeMap::new();
        let mut replayed = 0;
        for (i, (span, own)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            if span.op.is_none() || span.name == "shadow" {
                continue;
            }
            *by_layer.entry(layer_of(span.name)).or_insert(0) += own;
            if under_shadow(i) {
                replayed += own;
            }
        }
        if replayed > 0 {
            let serve = by_layer.entry("serve").or_insert(0);
            *serve = serve.saturating_sub(replayed);
        }
        by_layer
    }

    /// The spans as a Chrome-trace document (`chrome://tracing`,
    /// Perfetto): complete events, microsecond timestamps.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {}, \"op\": {}}}}}",
                s.name,
                layer_of(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64),
                s.op.map_or(-1, |o| o as i64),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: Some(0),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("document.parse", 10, 40, Some(0)),
            span("calc.parse_program", 15, 25, Some(1)),
            span("sched.ETF", 50, 90, Some(0)),
        ];
        // op: 100 - 30 - 40; parse: 30 - 10; a grandchild is taken from
        // its parent only.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_sums_to_the_op_time() {
        let mut s = Spans::new(true);
        s.set_op(Some(7));
        s.enter("op");
        s.time("document.parse", || std::hint::black_box(1 + 1));
        s.enter("sched.ETF");
        s.time("sched.inner", || ());
        s.exit();
        s.exit();
        s.set_op(None);
        s.time("machine.build", || ());

        let all = s.all();
        assert_eq!(all.len(), 5);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(all[4].parent, None);
        assert_eq!(all[4].op, None);
        assert!(all.iter().take(4).all(|x| x.op == Some(7)));

        let by_layer = s.op_self_time_by_layer();
        assert!(!by_layer.contains_key("machine"), "probes are not op time");
        assert_eq!(by_layer.values().sum::<u64>(), all[0].dur_ns());
        assert_eq!(layer_of("sched.ETF"), "sched");

        let chrome = s.chrome_json();
        let doc = crate::json::parse(&chrome).expect("chrome trace is JSON");
        match doc.get("traceEvents") {
            Some(crate::json::Json::Arr(events)) => assert_eq!(events.len(), 5),
            other => panic!("no traceEvents array: {other:?}"),
        }
    }

    #[test]
    fn shadow_spans_are_credited_to_their_layers_and_taken_out_of_serve() {
        let mut s = Spans::new(true);
        s.spans = vec![
            span("harness.op", 0, 100, None),
            span("serve.request", 0, 100, Some(0)),
            span("shadow", 100, 190, None),
            span("document.parse", 100, 130, Some(2)),
            span("analyze.diagnose", 130, 170, Some(2)),
        ];
        let by_layer = s.op_self_time_by_layer();
        assert_eq!(by_layer["document"], 30);
        assert_eq!(by_layer["analyze"], 40);
        assert_eq!(by_layer["serve"], 30);
        assert_eq!(
            by_layer.values().sum::<u64>(),
            100,
            "the op time, not op plus replay"
        );
    }

    #[test]
    fn recorder_that_is_off_records_nothing() {
        let mut s = Spans::new(false);
        s.enter("op");
        assert_eq!(s.time("x.y", || 5), 5);
        s.exit();
        assert!(s.all().is_empty());
    }
}

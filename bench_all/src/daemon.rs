//! The two workloads on a live `banger serve` daemon over a Unix socket:
//! `daemon_warm` reads resident entries, `daemon_edit` rewrites project
//! files and has every cache rebuilt.

use crate::host;
use crate::inputs::{self, Bundled, Rng, PROJECTS};
use crate::metrics::Layers;
use crate::spans::Spans;
use crate::stats;
use crate::workload::{self, add_count, expect_eq, Counts, Ctx, Inputs, OpOutcome, Workload};
use banger::serve::{
    content_hash, ops, CacheStats, Client, ProjectStore, Request, Response, Server,
};
use banger::{analyze, parse_project, print_project};
use banger_exec::{ExecOptions, ExecReport, Session};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// What a request must answer.
#[derive(Clone)]
struct Want {
    output: String,
    exit: i32,
}

/// `check`, `gantt -H ETF` and `run` of one project text, as the CLI
/// prints them, from a fresh `Project` that no daemon has seen.
struct Expected {
    check: Want,
    gantt: Want,
    run: Option<Want>,
}

fn run_stdout(report: &ExecReport) -> String {
    let mut out = String::new();
    for (task, line) in &report.prints {
        out.push_str(&format!("[{task}] {line}\n"));
    }
    for (var, value) in &report.outputs {
        out.push_str(&format!("{var} = {value}\n"));
    }
    out
}

fn local_expected(text: &str, inputs: Option<&Inputs>) -> Expected {
    let mut p = parse_project(text).expect("an input document parses");
    let diags = p.diagnose().to_vec();
    let check = Want {
        output: format!("{}\n", analyze::render_report(&diags)),
        exit: i32::from(analyze::has_errors(&diags)),
    };
    let s = p.schedule("ETF").expect("ETF schedules a clean design");
    let chart = p.gantt(&s).expect("the schedule renders");
    let graph = p.flatten().expect("flattens").graph.clone();
    let machine = p
        .machine()
        .expect("an input document names a machine")
        .clone();
    let gantt = Want {
        output: format!(
            "{chart}\nmakespan {:.3}, speedup {:.2}x, efficiency {:.0}%, {} of {} processors used\n",
            s.makespan(),
            s.speedup(&graph, &machine),
            100.0 * s.efficiency(&graph, &machine),
            s.processors_used(),
            machine.processors()
        ),
        exit: 0,
    };
    let run = inputs.map(|i| Want {
        output: run_stdout(&p.run(i).expect("a clean design runs")),
        exit: 0,
    });
    Expected { check, gantt, run }
}

fn golden(p: &Bundled) -> Expected {
    let exit = inputs::expected(&format!("{}.check_exit", p.name)) as i32;
    let want = |output: &str, exit| Want {
        output: output.to_string(),
        exit,
    };
    Expected {
        check: want(p.check, exit),
        gantt: want(p.gantt, 0),
        run: Some(want(p.run, 0)),
    }
}

fn request(cmd: &str, path: &str, inputs: Option<&Inputs>) -> Request {
    let mut r = Request::for_path(cmd, path);
    r.heuristic = "ETF".into();
    if let Some(i) = inputs {
        r.inputs = i.clone();
    }
    r
}

fn verify(what: &str, resp: &Result<Response, String>, want: &Want) -> Result<(), String> {
    let resp = resp.as_ref().map_err(|e| format!("{what}: {e}"))?;
    if !resp.ok {
        return Err(format!("{what}: refused: {}", resp.error));
    }
    expect_eq(&format!("{what} exit code"), resp.exit, want.exit)?;
    expect_eq(
        &format!("{what} output"),
        resp.output.as_str(),
        want.output.as_str(),
    )
}

/// A daemon on a socket in the set-up's directory, one client connected,
/// both on one CPU (`host::pin_to_current_cpu`).
struct Live {
    client: Client,
    store: Arc<ProjectStore>,
    thread: JoinHandle<std::io::Result<()>>,
    last: CacheStats,
}

impl Live {
    fn start(dir: &Path) -> Live {
        host::pin_to_current_cpu();
        let socket = host::short_path(&dir.join("d.sock"));
        let server = Server::bind(&socket).expect("bind the daemon's socket");
        let store = server.store();
        let thread = std::thread::spawn(move || server.serve());
        let client = Client::connect(&socket).expect("connect to the daemon");
        let last = store.stats();
        Live {
            client,
            store,
            thread,
            last,
        }
    }

    /// Cache counters since the last call, as exact counts.
    fn count_into(&mut self, counts: &mut Counts) {
        let now = self.store.stats();
        counts.insert("serve.hits", (now.hits - self.last.hits) as f64);
        counts.insert("serve.misses", (now.misses - self.last.misses) as f64);
        counts.insert("serve.rebuilds", (now.rebuilds - self.last.rebuilds) as f64);
        counts.insert("serve.panics", (now.panics - self.last.panics) as f64);
        self.last = now;
    }

    fn stop(mut self) {
        self.client
            .request(&Request::new("shutdown"))
            .expect("the daemon acknowledges shutdown");
        drop(self.client);
        self.thread
            .join()
            .expect("the daemon thread ends")
            .expect("the daemon stops cleanly");
    }
}

fn write_projects(dir: &Path) -> Vec<String> {
    PROJECTS
        .iter()
        .map(|p| {
            let path = dir.join(format!("{}.bang", p.name));
            std::fs::write(&path, p.text).expect("write a project file");
            path.to_str().expect("a UTF-8 path").to_string()
        })
        .collect()
}

/// Probes both daemon workloads share: the socket, the codec, reading
/// and hashing `file`, building a machine.
fn common_probes(
    live: &mut Live,
    file: &str,
    sample: (&Request, &Want),
    spans: &mut Spans,
    layers: &mut Layers,
) {
    layers.median_of(spans, "serve.request_us", "serve.request", 1e3);
    let ping = Request::new("ping");
    for _ in 0..2000 {
        spans.time("serve.socket_rtt", || {
            live.client.request(&ping).expect("ping")
        });
    }
    layers.median_of(spans, "serve.socket_rtt_us", "serve.socket_rtt", 1e3);

    let response = Response::success(sample.1.output.clone()).cached(true);
    for _ in 0..1000 {
        spans.time("serve.codec", || {
            black_box(Request::from_json(&sample.0.to_json()).expect("a request reads back"));
            black_box(Response::from_json(&response.to_json()).expect("a response reads back"));
        });
    }
    layers.median_of(spans, "serve.codec_us", "serve.codec", 1e3);

    let mut bytes = 0;
    for _ in 0..200 {
        spans.enter("serve.read_hash");
        let text = std::fs::read_to_string(file).expect("read the project file");
        bytes = text.len();
        spans.time("serve.hash", || black_box(content_hash(text.as_bytes())));
        spans.exit();
    }
    layers.median_of(spans, "serve.read_hash_us", "serve.read_hash", 1e3);
    let hash_ms = stats::median(&mut spans.durations_ms("serve.hash"));
    layers.set("serve.hash_mb_per_s", bytes as f64 / 1e6 / (hash_ms / 1e3));

    workload::machine_probe(2, spans, layers);
}

/// Projects whose `run` is small enough to sit in a request mix. The
/// frozen `dense_lu` takes 7 ms to run and 60 ms to diagnose: in either
/// daemon workload it would be the whole op.
const RUNNABLE: [usize; 3] = [inputs::HEAT_PROBE, inputs::LU3, inputs::MATMUL];

// ---------------------------------------------------------------- warm

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Cached,
    Run(usize),
    Large,
}

struct WarmRequest {
    request: Request,
    want: Want,
    class: Class,
}

/// `daemon_warm`. The op is one client session of [`SESSION`] requests on
/// resident entries: 14 cached verbs (`check`, `schedule`, `gantt -H
/// ETF`) on the five bundled projects, 4 `run`s on a warm session, 2
/// cached verbs on the 415 KB tiled LU document, where reading and
/// rehashing the file dominates; which requests, and in which order,
/// comes from the seed.
///
/// One request is not the op because its median is the 30 µs socket
/// round trip, and on a virtual machine that is the hypervisor's wake-up
/// latency: it moved between 31 and 100 µs from one minute to the next
/// on one build. A session of fixed composition weighs the classes as
/// the mix does (the round trips are a fifth of it), and every op costs
/// the same, so its median is steady. The single request is
/// `serve.request_us`, per layer.
pub struct DaemonWarm {
    live: Live,
    requests: Vec<WarmRequest>,
    /// `sessions[k]`: indices into `requests`.
    sessions: Vec<[u16; SESSION]>,
    large: String,
    /// Local warm sessions that replay `run` requests in a traced pass.
    shadow: Vec<(usize, Session, Inputs)>,
    counts: Counts,
}

const SESSION: usize = 20;
const SESSION_RUNS: usize = 4;
const SESSION_LARGE: usize = 2;
const SESSIONS: usize = 512;

impl DaemonWarm {
    pub fn setup(ctx: &Ctx) -> Self {
        let paths = write_projects(&ctx.dir);
        let mut requests = Vec::new();
        for (i, p) in PROJECTS.iter().enumerate() {
            let want = golden(p);
            requests.push(WarmRequest {
                request: request("check", &paths[i], None),
                want: want.check,
                class: Class::Cached,
            });
            if i == inputs::RACY {
                continue;
            }
            for verb in ["schedule", "gantt"] {
                requests.push(WarmRequest {
                    request: request(verb, &paths[i], None),
                    want: want.gantt.clone(),
                    class: Class::Cached,
                });
            }
            if RUNNABLE.contains(&i) {
                requests.push(WarmRequest {
                    request: request("run", &paths[i], Some(&p.inputs())),
                    want: want.run.expect("a runnable project has a golden run"),
                    class: Class::Run(i),
                });
            }
        }

        let mut tiled = parse_project(PROJECTS[inputs::DENSE_LU].text).expect("dense_lu parses");
        tiled.expand_task("fact", 16).expect("dense_lu expands");
        let text = print_project(&tiled);
        let large = ctx.dir.join("tiled_lu.bang");
        std::fs::write(&large, &text).expect("write the tiled LU document");
        let large = large.to_str().expect("a UTF-8 path").to_string();
        let want = local_expected(&text, None);
        for (verb, want) in [
            ("check", &want.check),
            ("schedule", &want.gantt),
            ("gantt", &want.gantt),
        ] {
            requests.push(WarmRequest {
                request: request(verb, &large, None),
                want: want.clone(),
                class: Class::Large,
            });
        }

        let of_class = |f: fn(Class) -> bool| -> Vec<u16> {
            (0..requests.len() as u16)
                .filter(|&i| f(requests[i as usize].class))
                .collect()
        };
        let cached = of_class(|c| c == Class::Cached);
        let run = of_class(|c| matches!(c, Class::Run(_)));
        let big = of_class(|c| c == Class::Large);
        let mut rng = Rng::new(ctx.seed);
        let sessions = (0..SESSIONS)
            .map(|_| {
                let mut session = [0; SESSION];
                for (k, slot) in session.iter_mut().enumerate() {
                    let pool = match k {
                        k if k < SESSION_LARGE => &big,
                        k if k < SESSION_LARGE + SESSION_RUNS => &run,
                        _ => &cached,
                    };
                    *slot = pool[rng.below(pool.len() as u64) as usize];
                }
                // Fisher–Yates: the classes come in seeded order.
                for k in (1..SESSION).rev() {
                    session.swap(k, rng.below(k as u64 + 1) as usize);
                }
                session
            })
            .collect();

        let mut me = DaemonWarm {
            live: Live::start(&ctx.dir),
            requests,
            sessions,
            large,
            shadow: Vec::new(),
            counts: Counts::new(),
        };
        // Make every entry resident: each distinct request once. A wrong
        // answer here will be wrong in the measured ops too, and is
        // counted there.
        for r in &me.requests {
            me.live
                .client
                .request(&r.request)
                .expect("the daemon answers on its socket");
        }
        me
    }

    fn shadow_session(&mut self, project: usize) -> &mut (usize, Session, Inputs) {
        if !self.shadow.iter().any(|(p, _, _)| *p == project) {
            let mut p = parse_project(PROJECTS[project].text).expect("parses");
            let session = p.session(&ExecOptions::default()).expect("binds");
            self.shadow
                .push((project, session, PROJECTS[project].inputs()));
        }
        self.shadow
            .iter_mut()
            .find(|(p, _, _)| *p == project)
            .expect("pushed above")
    }
}

impl Workload for DaemonWarm {
    fn warmup_ops(&self) -> u64 {
        100
    }

    fn traced_ops_per_second(&self) -> f64 {
        50.0
    }

    fn op(&mut self, i: u64, spans: &mut Spans) -> OpOutcome {
        let session = self.sessions[i as usize % SESSIONS];
        let mut responses = Vec::with_capacity(SESSION);
        spans.enter("harness.op");
        let started = Instant::now();
        for &r in &session {
            let request = &self.requests[r as usize].request;
            responses.push(spans.time("serve.request", || self.live.client.request(request)));
        }
        let ns = started.elapsed().as_nanos() as u64;
        spans.exit();

        let mut verdict = Ok(());
        for (&r, resp) in session.iter().zip(&responses) {
            let r = &self.requests[r as usize];
            verdict = verdict.and_then(|()| verify(&r.request.cmd, resp, &r.want));
            add_count(
                &mut self.counts,
                "serve.response_bytes",
                r.want.output.len() as f64,
            );
        }

        // What of those requests was the executor's: the same firings on
        // local warm sessions.
        if spans.is_on() {
            spans.enter("shadow");
            for &r in &session {
                if let Class::Run(project) = self.requests[r as usize].class {
                    let (_, warm, inputs) = self.shadow_session(project);
                    let report = spans.time("exec.small_fire", || {
                        warm.run(inputs).expect("shadow firing")
                    });
                    add_count(&mut self.counts, "calc.vm_ops", report.total_ops() as f64);
                }
            }
            spans.exit();
        }
        OpOutcome {
            ns,
            error: verdict.err(),
        }
    }

    fn take_counts(&mut self) -> Counts {
        self.live.count_into(&mut self.counts);
        std::mem::take(&mut self.counts)
    }

    fn probes(&mut self, spans: &mut Spans, layers: &mut Layers) {
        let sample = &self.requests[1];
        common_probes(
            &mut self.live,
            &self.large,
            (&sample.request, &sample.want),
            spans,
            layers,
        );

        // The dispatcher without socket or codec: the mix replayed on a
        // private store.
        let store = ProjectStore::new();
        for r in &self.requests {
            assert!(
                ops::handle(&store, &r.request).ok,
                "the private store answers"
            );
        }
        for &m in self.sessions.iter().flatten().take(3000) {
            let r = &self.requests[m as usize];
            let span = match r.class {
                Class::Cached => "serve.dispatch_warm",
                Class::Run(_) => "serve.dispatch_warm_run",
                Class::Large => "serve.dispatch_warm_large",
            };
            spans.time(span, || black_box(ops::handle(&store, &r.request)));
        }
        layers.median_of(spans, "serve.dispatch_warm_us", "serve.dispatch_warm", 1e3);
        layers.median_of(
            spans,
            "serve.dispatch_warm_run_us",
            "serve.dispatch_warm_run",
            1e3,
        );
        layers.median_of(
            spans,
            "serve.dispatch_warm_large_us",
            "serve.dispatch_warm_large",
            1e3,
        );

        // A warm firing of lu3 alone: the floor under every `run`.
        let (_, session, inputs) = self.shadow_session(inputs::LU3);
        let mut tasks = 0;
        for _ in 0..500 {
            tasks = spans.time("exec.lu3_fire", || {
                session.run(inputs).expect("lu3 fires").runs.len()
            });
        }
        let fire_ms = stats::median(&mut spans.durations_ms("exec.lu3_fire"));
        layers.set("exec.small_fire_us", fire_ms * 1e3);
        layers.set("exec.small_ns_per_task", fire_ms * 1e6 / tasks as f64);
        layers.set("exec.tasks", tasks as f64);
        layers.set("exec.workers", session.workers() as f64);

        let matmul = &PROJECTS[inputs::MATMUL];
        workload::vm_probe(
            &workload::program_sources(matmul.text)[1],
            &matmul.inputs(),
            spans,
            layers,
        );
    }

    fn finish(self: Box<Self>) {
        self.live.stop();
    }
}

// ---------------------------------------------------------------- edit

struct Variant {
    text: String,
    want: Expected,
}

/// `daemon_edit`. The op is the user's loop after an edit, once on each
/// of three projects: the harness rewrites the three files with their
/// next variants (untimed), then asks `check`, `gantt -H ETF` and `run`
/// of each. Every request of the op meets a changed file or a cache the
/// change emptied, so each cache level is rebuilt exactly once per
/// project and op. One op covers all three projects because they cost
/// differently: taken one at a time they would make three latency
/// classes with the median on a boundary.
pub struct DaemonEdit {
    live: Live,
    paths: Vec<String>,
    /// `variants[j][k]`: edit `k` of project `RUNNABLE[j]`; edit 0 puts
    /// the frozen text back, and is held to the golden outputs.
    variants: Vec<Vec<Variant>>,
    inputs: Vec<Inputs>,
    /// `check`, `gantt -H ETF` and `run` of each project, in op order.
    requests: Vec<[Request; 3]>,
    /// The edit now on disk.
    written: Option<usize>,
    counts: Counts,
}

const VARIANTS: usize = 16;

impl DaemonEdit {
    pub fn setup(ctx: &Ctx) -> Self {
        let paths = write_projects(&ctx.dir);
        let mut rng = Rng::new(ctx.seed);
        let inputs: Vec<Inputs> = RUNNABLE.iter().map(|&p| PROJECTS[p].inputs()).collect();
        let variants = RUNNABLE
            .iter()
            .zip(&inputs)
            .map(|(&p, inputs)| {
                let base = Variant {
                    text: PROJECTS[p].text.to_string(),
                    want: golden(&PROJECTS[p]),
                };
                let edits = (1..VARIANTS).map(|k| {
                    let text = PROJECTS[p].variant(k, &mut rng);
                    let want = local_expected(&text, Some(inputs));
                    Variant { text, want }
                });
                std::iter::once(base).chain(edits).collect()
            })
            .collect();
        let requests = RUNNABLE
            .iter()
            .zip(&inputs)
            .map(|(&p, inputs)| {
                [
                    request("check", &paths[p], None),
                    request("gantt", &paths[p], None),
                    request("run", &paths[p], Some(inputs)),
                ]
            })
            .collect();
        DaemonEdit {
            live: Live::start(&ctx.dir),
            paths,
            variants,
            inputs,
            requests,
            written: None,
            counts: Counts::new(),
        }
    }

    /// The edit's pipeline again, on a fresh local `Project`, one span a
    /// layer: what the three requests spent below `serve`.
    fn shadow(counts: &mut Counts, text: &str, inputs: &Inputs, spans: &mut Spans) {
        let mut p = spans
            .time("document.parse", || parse_project(text))
            .expect("a variant parses");
        let (tasks, arcs) = spans.time("taskgraph.flatten", || {
            let f = p.flatten().expect("a variant flattens");
            (f.graph.task_count(), f.graph.edge_count())
        });
        let diagnostics = spans.time("analyze.diagnose", || p.diagnose().len());
        let s = spans
            .time("sched.ETF", || p.schedule("ETF"))
            .expect("a variant schedules");
        let chart = spans
            .time("gantt.render", || p.gantt(&s))
            .expect("a variant renders");
        let report = spans
            .time("exec.cold_run", || p.run(inputs))
            .expect("a variant runs");
        let mut add = |name, v: f64| add_count(counts, name, v);
        add("taskgraph.tasks", tasks as f64);
        add("taskgraph.arcs", arcs as f64);
        add("analyze.diagnostics", diagnostics as f64);
        add("sched.arrival_probes", s.stats().arrival_probes as f64);
        add("sched.slot_searches", s.stats().slot_searches as f64);
        add("sched.makespan", s.makespan());
        add("sched.tasks", tasks as f64);
        add("sched.placements", s.placements().len() as f64);
        add("gantt.bytes", chart.len() as f64);
        add("calc.vm_ops", report.total_ops() as f64);
        add("document.bytes", text.len() as f64);
    }
}

impl Workload for DaemonEdit {
    fn warmup_ops(&self) -> u64 {
        20
    }

    fn traced_ops_per_second(&self) -> f64 {
        20.0
    }

    fn op(&mut self, i: u64, spans: &mut Spans) -> OpOutcome {
        // Edit `i mod 16`, so a pass of ops is the same pass every time.
        // An op must meet changed files, so no pass may end on edit 0,
        // where the next begins: the warm-up is 20 ops and a traced pass
        // 20 a second, both multiples of 4, never 1 more than one of 16.
        let k = i as usize % VARIANTS;
        assert_ne!(
            self.written,
            Some(k),
            "op {i} would rewrite the files with the bytes they hold"
        );
        self.written = Some(k);
        for (j, &p) in RUNNABLE.iter().enumerate() {
            std::fs::write(&self.paths[p], &self.variants[j][k].text)
                .expect("rewrite a project file");
        }

        let mut responses = Vec::with_capacity(3 * RUNNABLE.len());
        spans.enter("harness.op");
        let started = Instant::now();
        for r in self.requests.iter().flatten() {
            responses.push(spans.time("serve.request", || self.live.client.request(r)));
        }
        let ns = started.elapsed().as_nanos() as u64;
        spans.exit();

        let mut verdict = Ok(());
        for (j, three) in responses.chunks(3).enumerate() {
            let want = &self.variants[j][k].want;
            let run = want.run.as_ref().expect("variants are run");
            for (verb, resp, want) in [
                ("check", &three[0], &want.check),
                ("gantt", &three[1], &want.gantt),
                ("run", &three[2], run),
            ] {
                verdict = verdict.and_then(|()| {
                    verify(
                        &format!("{} {verb}", PROJECTS[RUNNABLE[j]].name),
                        resp,
                        want,
                    )
                });
                add_count(
                    &mut self.counts,
                    "serve.response_bytes",
                    want.output.len() as f64,
                );
            }
        }

        if spans.is_on() {
            spans.enter("shadow");
            for (variants, inputs) in self.variants.iter().zip(&self.inputs) {
                Self::shadow(&mut self.counts, &variants[k].text, inputs, spans);
            }
            spans.exit();
        }
        OpOutcome {
            ns,
            error: verdict.err(),
        }
    }

    fn take_counts(&mut self) -> Counts {
        self.live.count_into(&mut self.counts);
        std::mem::take(&mut self.counts)
    }

    fn probes(&mut self, spans: &mut Spans, layers: &mut Layers) {
        let parse_ms = layers.median_of(spans, "document.parse_ms", "document.parse", 1.0);
        let bytes: usize = RUNNABLE.iter().map(|&p| PROJECTS[p].text.len()).sum();
        layers.set(
            "document.parse_mb_per_s",
            bytes as f64 / RUNNABLE.len() as f64 / 1e6 / (parse_ms / 1e3),
        );
        layers.median_of(spans, "taskgraph.flatten_ms", "taskgraph.flatten", 1.0);
        layers.median_of(spans, "analyze.diagnose_ms", "analyze.diagnose", 1.0);
        layers.median_of(spans, "sched.schedule_ms", "sched.ETF", 1.0);
        layers.median_of(spans, "gantt.render_us", "gantt.render", 1e3);
        layers.median_of(spans, "exec.cold_execute_ms", "exec.cold_run", 1.0);

        // lu3's `gantt`: RUNNABLE[1], request 1.
        let sample = self.requests[1][1].clone();
        let want = golden(&PROJECTS[inputs::LU3]).gantt;
        let file = self.paths[inputs::HEAT_PROBE].clone();
        common_probes(&mut self.live, &file, (&sample, &want), spans, layers);

        // The dispatcher without socket or codec: edits replayed on a
        // private store, one span for the three requests of a project.
        let store = ProjectStore::new();
        for k in 0..VARIANTS {
            for (j, &p) in RUNNABLE.iter().enumerate() {
                std::fs::write(&self.paths[p], &self.variants[j][k].text)
                    .expect("rewrite a project file");
                spans.time("serve.dispatch_cold", || {
                    for r in &self.requests[j] {
                        assert!(ops::handle(&store, r).ok, "the private store answers");
                    }
                });
            }
        }
        layers.median_of(spans, "serve.dispatch_cold_us", "serve.dispatch_cold", 1e3);
        self.written = Some(VARIANTS - 1);

        let all: String = RUNNABLE.iter().map(|&p| PROJECTS[p].text).collect();
        workload::calc_probes(&all, spans, layers);
        let matmul = &PROJECTS[inputs::MATMUL];
        workload::vm_probe(
            &workload::program_sources(matmul.text)[1],
            &matmul.inputs(),
            spans,
            layers,
        );
    }

    fn finish(self: Box<Self>) {
        self.live.stop();
    }
}

/// The golden files of the bundled projects, from this build's
/// daemon-free pipeline: `(file name, content)`, and the `expected.txt`
/// lines that go with them.
#[cfg(test)]
pub fn golden_outputs() -> (Vec<(std::path::PathBuf, String)>, String) {
    let mut files = Vec::new();
    let mut numbers = String::new();
    for p in &PROJECTS {
        let mut project = parse_project(p.text).expect("parses");
        let diags = project.diagnose().to_vec();
        let refused = analyze::has_errors(&diags);
        let (check, gantt, run) = if refused {
            (
                format!("{}\n", analyze::render_report(&diags)),
                String::new(),
                String::new(),
            )
        } else {
            let e = local_expected(p.text, Some(&p.inputs()));
            (e.check.output, e.gantt.output, e.run.expect("run").output)
        };
        for (verb, text) in [("check", check), ("gantt", gantt), ("run", run)] {
            files.push((
                std::path::PathBuf::from(format!("{}.{verb}.out", p.name)),
                text,
            ));
        }
        numbers.push_str(&format!("{}.check_exit {}\n", p.name, i32::from(refused)));
    }
    (files, numbers)
}

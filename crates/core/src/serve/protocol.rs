//! Wire protocol: length-prefixed JSON frames, and the request /
//! response schemas.
//!
//! ## Framing
//!
//! One frame = a big-endian `u32` payload length followed by that many
//! bytes of UTF-8 JSON. Frames above [`MAX_FRAME`] are rejected (a
//! corrupted length prefix must not make the server allocate gigabytes).
//! A clean EOF *between* frames is a normal connection close. JSON nested
//! deeper than [`json::MAX_DEPTH`] is a `bad request`, not a stack
//! overflow. Both ends read through a per-connection buffer and
//! [`read_frame`] asks for the whole length prefix at once, so a frame
//! that fits the buffer is one `read`; a frame is written with one
//! `write_all`.
//!
//! ## Encoding
//!
//! [`Request::to_json`] and [`Response::to_json`] write straight into one
//! `String`, with no intermediate [`Json`] tree. `from_json` visits the
//! top-level members through [`json::parse_object`], keeps the first
//! value of each key it knows, moves strings out of the parse, and only
//! then validates: a syntax error anywhere beats any field error, a
//! duplicated key counts once, unknown keys are ignored, and a top level
//! that is not an object reads as an empty one.
//!
//! ## Requests
//!
//! A [`Request`] is one `banger` invocation with its arguments parsed:
//! the verb, the project path, and one typed field per option. It is
//! the only thing that crosses from a front end into
//! [`ops::handle`](super::ops::handle), whether the front end calls the
//! handler in its own process or sends the request to a daemon. `cmd`,
//! `heuristic` and `format` are always written; every other field only
//! when set.
//!
//! ```json
//! {"cmd": "schedule", "path": "/abs/proj.bang", "heuristic": "ETF", "format": "text"}
//! {"cmd": "run", "path": "/abs/proj.bang", ..., "inputs": {"a": 2.5, "v": [1, 2, 3]}}
//! {"cmd": "run", "path": "/abs/proj.bang", ..., "repeat": 200}
//! {"cmd": "run", "path": "/abs/proj.bang", ..., "out": "t.json"}
//! {"cmd": "check", "path": "/abs/proj.bang", ..., "format": "json", "weights": true}
//! {"cmd": "optimize", "path": "/abs/proj.bang", ..., "fuse": true, "expand": "fact:8", "out": "-"}
//! {"cmd": "verify", "path": "/abs/proj.bang", ..., "schedule": "<schedule text>"}
//! {"cmd": "trial", "path": "/abs/proj.bang", ..., "args": ["Init"], "reference": true}
//! {"cmd": "ping"}   {"cmd": "stats"}   {"cmd": "evict", "path": "..."}   {"cmd": "shutdown"}
//! ```
//!
//! The handler opens exactly one file, the project at `path`; a front
//! end therefore sends an absolute `path`, reads what else the verb
//! takes from disk itself (`verify -s` travels as `schedule` text), and
//! names in `out` where the verb's file product is to go.
//!
//! Fault-injection hooks (testing only): `"inject_panic": "<task>"` on a
//! `run` forwards to [`ExecOptions::inject_panic`](banger_exec::ExecOptions)
//! (an *attributed executor error*, not a handler crash), while
//! `"inject_handler_panic": true` on any command panics inside the
//! request handler itself — the daemon must survive it.
//!
//! ## Responses
//!
//! ```json
//! {"ok": true, "cached": true, "exit": 0, "output": "...", "notes": "...", "error": ""}
//! {"ok": true, ..., "files": {"out/gantt.svg": "<svg ...", "out/speedup.svg": "..."}}
//! {"ok": false, "exit": 1, "error": "...", ...}
//! ```
//!
//! A front end prints `output` on stdout, `notes` and then `error` on
//! stderr, writes each entry of `files` (written only when there are
//! any) under its name, and exits with `exit`. `output` is the
//! deterministic part; `notes` carries the design's warning diagnostics
//! and the extras that vary from run to run (wall-clock timings,
//! optimizer statistics, drift tables). `cached` reports whether the
//! request was served from a warm cache entry without recomputation.

use banger_calc::Value;
use banger_taskgraph::json::{self, Json};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};

/// Upper bound on one frame's payload, in bytes.
pub const MAX_FRAME: usize = 64 << 20;

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    // One write, so a peer never wakes on a bare length prefix.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean EOF at a frame boundary —
/// before the first byte of a length prefix; EOF anywhere later (inside
/// the prefix included) and oversized lengths are errors. The whole
/// prefix is asked for in one `read`, so through a [`BufReader`] a frame
/// smaller than its buffer costs one system call.
///
/// [`BufReader`]: std::io::BufReader
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let got = loop {
        match r.read(&mut len) {
            Ok(0) => return Ok(None),
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };
    r.read_exact(&mut len[got..])?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

/// One request to the handler. Unknown JSON fields are ignored so old
/// daemons tolerate newer clients.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The verb: any `banger` subcommand that takes a project, or one of
    /// `ping`, `stats`, `evict`, `shutdown`.
    pub cmd: String,
    /// Project file path (canonicalized by the store); absent for verbs
    /// that address the daemon itself.
    pub path: Option<String>,
    /// `-H`: scheduling heuristic (default `MH`).
    pub heuristic: String,
    /// `check --format`: `text` (default) or `json`.
    pub format: String,
    /// `-i var=value`: external input values.
    pub inputs: BTreeMap<String, Value>,
    /// `optimize --fuse`: also fuse grain-packed clusters.
    pub fuse: bool,
    /// Positional operands after the path: `trial <program>`,
    /// `codegen <lang>`, `parallelize <task> <chunks>`.
    pub args: Vec<String>,
    /// `check --weights`: append the per-task weight report.
    pub weights: bool,
    /// `run`/`gantt --optimize`, `graph --optimized`: rewrite the design
    /// (dead arcs + fusion) before the verb's own work.
    pub optimize: bool,
    /// `trial --reference`: use the tree-walking interpreter.
    pub reference: bool,
    /// `graph --dot`: print Graphviz DOT instead of statistics.
    pub dot: bool,
    /// `run --repeat`: fire this many times through one warm session.
    pub repeat: Option<u32>,
    /// `recommend -p`: processor budget.
    pub procs: Option<u32>,
    /// `speedup -t`: comma-separated topology specs.
    pub topologies: Option<String>,
    /// `optimize --expand`: `task:tiles`.
    pub expand: Option<String>,
    /// `verify -s`: the saved schedule's text (the front end read it).
    pub schedule: Option<String>,
    /// Where the front end will put the verb's file product: `svg -o`
    /// (a directory), `save-schedule -o`, `optimize --emit` (`-` means
    /// stdout) and `run --trace`, which it also selects. The handler
    /// only names the returned [`Response::files`] after it.
    pub out: Option<String>,
    /// Testing: forward to the executor's per-task panic injection.
    pub inject_panic: Option<String>,
    /// Testing: panic inside the request handler itself.
    pub inject_handler_panic: bool,
}

impl Request {
    /// A request with defaults for everything but the verb.
    pub fn new(cmd: impl Into<String>) -> Self {
        Request {
            cmd: cmd.into(),
            path: None,
            heuristic: "MH".to_string(),
            format: "text".to_string(),
            inputs: BTreeMap::new(),
            fuse: false,
            args: Vec::new(),
            weights: false,
            optimize: false,
            reference: false,
            dot: false,
            repeat: None,
            procs: None,
            topologies: None,
            expand: None,
            schedule: None,
            out: None,
            inject_panic: None,
            inject_handler_panic: false,
        }
    }

    /// A request addressing a project file.
    pub fn for_path(cmd: impl Into<String>, path: impl Into<String>) -> Self {
        let mut r = Request::new(cmd);
        r.path = Some(path.into());
        r
    }

    /// Renders the request as one JSON object, in one pass: fields in
    /// [`REQUEST_KEYS`] order, each unset optional one left out.
    pub fn to_json(&self) -> String {
        // Room for the keys and punctuation, the text fields unescaped and
        // 24 bytes a number: enough for a request that escapes little.
        let texts = [&self.cmd, &self.heuristic, &self.format]
            .into_iter()
            .chain(self.args.iter())
            .chain(
                [
                    &self.path,
                    &self.inject_panic,
                    &self.topologies,
                    &self.expand,
                    &self.schedule,
                    &self.out,
                ]
                .into_iter()
                .flatten(),
            )
            .map(String::len)
            .sum::<usize>();
        let values = self
            .inputs
            .iter()
            .map(|(name, v)| match v {
                Value::Num(_) => name.len() + 24,
                Value::Array(vs) => name.len() + 24 * vs.len(),
            })
            .sum::<usize>();
        let mut out = String::with_capacity(256 + texts + values);
        out.push_str("{\"cmd\":");
        json::escape_into(&self.cmd, &mut out);
        let text = |out: &mut String, k: &str, v: &Option<String>| {
            if let Some(v) = v {
                key(out, k);
                json::escape_into(v, out);
            }
        };
        let flag = |out: &mut String, k: &str, v: bool| {
            if v {
                key(out, k);
                out.push_str("true");
            }
        };
        let count = |out: &mut String, k: &str, v: Option<u32>| {
            if let Some(n) = v {
                key(out, k);
                json::number_into(f64::from(n), out);
            }
        };
        text(&mut out, "path", &self.path);
        key(&mut out, "heuristic");
        json::escape_into(&self.heuristic, &mut out);
        key(&mut out, "format");
        json::escape_into(&self.format, &mut out);
        if !self.inputs.is_empty() {
            key(&mut out, "inputs");
            out.push('{');
            for (i, (name, v)) in self.inputs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::escape_into(name, &mut out);
                out.push(':');
                match v {
                    Value::Num(n) => json::number_into(*n, &mut out),
                    Value::Array(vs) => {
                        out.push('[');
                        for (j, x) in vs.iter().enumerate() {
                            if j > 0 {
                                out.push(',');
                            }
                            json::number_into(*x, &mut out);
                        }
                        out.push(']');
                    }
                }
            }
            out.push('}');
        }
        flag(&mut out, "fuse", self.fuse);
        text(&mut out, "inject_panic", &self.inject_panic);
        flag(&mut out, "inject_handler_panic", self.inject_handler_panic);
        if !self.args.is_empty() {
            key(&mut out, "args");
            out.push('[');
            for (i, arg) in self.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::escape_into(arg, &mut out);
            }
            out.push(']');
        }
        flag(&mut out, "weights", self.weights);
        flag(&mut out, "optimize", self.optimize);
        flag(&mut out, "reference", self.reference);
        flag(&mut out, "dot", self.dot);
        count(&mut out, "repeat", self.repeat);
        count(&mut out, "procs", self.procs);
        text(&mut out, "topologies", &self.topologies);
        text(&mut out, "expand", &self.expand);
        text(&mut out, "schedule", &self.schedule);
        text(&mut out, "out", &self.out);
        out.push('}');
        out
    }

    /// Parses a request from JSON text. The first occurrence of a key
    /// counts and unknown keys are ignored; the whole text must be JSON
    /// before any field is judged.
    pub fn from_json(text: &str) -> Result<Request, String> {
        let [cmd, path, heuristic, format, inputs, fuse, inject_panic, inject_handler_panic, args, weights, optimize, reference, dot, repeat, procs, topologies, expand, schedule, out] =
            first_members(text, REQUEST_KEYS)?;
        let text = |v: Option<Json>| match v {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        };
        let flag = |v: Option<Json>| matches!(v, Some(Json::Bool(true)));
        let count = |name: &str, v: Option<Json>| match v {
            None => Ok(None),
            Some(n) => n
                .as_num()
                .filter(|n| n.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(n))
                .map(|n| Some(n as u32))
                .ok_or(format!("{name:?} must be a whole number")),
        };
        let mut req = Request::new(text(cmd).ok_or("request needs a \"cmd\" string")?);
        req.path = text(path);
        if let Some(h) = text(heuristic) {
            req.heuristic = h;
        }
        if let Some(f) = text(format) {
            req.format = f;
        }
        if let Some(Json::Obj(fields)) = inputs {
            for (name, val) in fields {
                let val = json_to_value(&val).map_err(|e| format!("bad input {name:?}: {e}"))?;
                req.inputs.insert(name, val);
            }
        }
        if let Some(Json::Arr(items)) = args {
            for arg in items {
                let Json::Str(arg) = arg else {
                    return Err("\"args\" must be strings".into());
                };
                req.args.push(arg);
            }
        }
        req.fuse = flag(fuse);
        req.weights = flag(weights);
        req.optimize = flag(optimize);
        req.reference = flag(reference);
        req.dot = flag(dot);
        req.repeat = count("repeat", repeat)?;
        req.procs = count("procs", procs)?;
        req.topologies = text(topologies);
        req.expand = text(expand);
        req.schedule = text(schedule);
        req.out = text(out);
        req.inject_panic = text(inject_panic);
        req.inject_handler_panic = flag(inject_handler_panic);
        Ok(req)
    }
}

/// A request's keys, in the order [`Request::to_json`] writes them.
const REQUEST_KEYS: [&str; 19] = [
    "cmd",
    "path",
    "heuristic",
    "format",
    "inputs",
    "fuse",
    "inject_panic",
    "inject_handler_panic",
    "args",
    "weights",
    "optimize",
    "reference",
    "dot",
    "repeat",
    "procs",
    "topologies",
    "expand",
    "schedule",
    "out",
];

/// A response's keys, in the order [`Response::to_json`] writes them.
const RESPONSE_KEYS: [&str; 7] = ["ok", "cached", "exit", "output", "notes", "error", "files"];

/// The first value of each of `keys` in the top-level object of `text`,
/// moved out of the parse; nothing for a top level that is not an object.
fn first_members<const N: usize>(text: &str, keys: [&str; N]) -> Result<[Option<Json>; N], String> {
    let mut slots = [const { None }; N];
    json::parse_object(text, |key, value| {
        if let Some(k) = keys.iter().position(|k| *k == key) {
            slots[k].get_or_insert(value);
        }
    })?;
    Ok(slots)
}

/// Appends `,"k":` — every key the protocol writes is a plain word.
fn key(out: &mut String, k: &str) {
    out.push_str(",\"");
    out.push_str(k);
    out.push_str("\":");
}

fn json_to_value(v: &Json) -> Result<Value, String> {
    match v {
        Json::Num(n) => Ok(Value::Num(*n)),
        Json::Arr(items) => {
            let mut vals = Vec::with_capacity(items.len());
            for item in items {
                vals.push(item.as_num().ok_or("array elements must be numbers")?);
            }
            Ok(Value::array(vals))
        }
        _ => Err("inputs must be numbers or arrays of numbers".into()),
    }
}

/// One response from the handler.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Whether the request succeeded operationally. `check` on a design
    /// with error-severity findings is still `ok: true` (the check *ran*)
    /// with `exit: 1`, matching the CLI's exit-code contract.
    pub ok: bool,
    /// Served from a warm cache entry without recomputation.
    pub cached: bool,
    /// The front end's exit code (0 success, 1 failure or diagnostics
    /// errors).
    pub exit: i32,
    /// Deterministic stdout payload.
    pub output: String,
    /// Stderr extras: the design's warnings, timings, optimizer stats.
    pub notes: String,
    /// Failure description when `ok` is false.
    pub error: String,
    /// File products as `(name, content)`, for the front end to write:
    /// the handler itself writes nothing.
    pub files: Vec<(String, String)>,
}

impl Response {
    /// A successful response with the given stdout payload.
    pub fn success(output: impl Into<String>) -> Self {
        Response {
            ok: true,
            cached: false,
            exit: 0,
            output: output.into(),
            notes: String::new(),
            error: String::new(),
            files: Vec::new(),
        }
    }

    /// A failed response with the given error description.
    pub fn failure(error: impl Into<String>) -> Self {
        Response {
            ok: false,
            exit: 1,
            error: error.into(),
            ..Response::success("")
        }
    }

    /// Marks the response as served from a warm cache.
    pub fn cached(mut self, cached: bool) -> Self {
        self.cached = cached;
        self
    }

    /// Sets the front end's exit code.
    pub fn with_exit(mut self, exit: i32) -> Self {
        self.exit = exit;
        self
    }

    /// Appends a line (or block) of stderr notes.
    pub fn with_notes(mut self, notes: impl AsRef<str>) -> Self {
        if !self.notes.is_empty() && !notes.as_ref().is_empty() {
            self.notes.push('\n');
        }
        self.notes.push_str(notes.as_ref());
        self
    }

    /// Adds a file product for the front end to write.
    pub fn with_file(mut self, name: impl Into<String>, content: impl Into<String>) -> Self {
        self.files.push((name.into(), content.into()));
        self
    }

    /// Renders the response as one JSON object, in one pass.
    pub fn to_json(&self) -> String {
        let files = self
            .files
            .iter()
            .map(|(name, content)| name.len() + content.len() + 8)
            .sum::<usize>();
        let mut out = String::with_capacity(
            64 + self.output.len() + self.notes.len() + self.error.len() + files,
        );
        out.push_str(if self.ok {
            "{\"ok\":true"
        } else {
            "{\"ok\":false"
        });
        key(&mut out, "cached");
        out.push_str(if self.cached { "true" } else { "false" });
        key(&mut out, "exit");
        json::number_into(f64::from(self.exit), &mut out);
        for (k, v) in [
            ("output", &self.output),
            ("notes", &self.notes),
            ("error", &self.error),
        ] {
            key(&mut out, k);
            json::escape_into(v, &mut out);
        }
        if !self.files.is_empty() {
            key(&mut out, "files");
            out.push('{');
            for (i, (name, content)) in self.files.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::escape_into(name, &mut out);
                out.push(':');
                json::escape_into(content, &mut out);
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Parses a response from JSON text.
    pub fn from_json(text: &str) -> Result<Response, String> {
        let [ok, cached, exit, output, notes, error, files] = first_members(text, RESPONSE_KEYS)?;
        let text = |v: Option<Json>| match v {
            Some(Json::Str(s)) => s,
            _ => String::new(),
        };
        let mut file_list = Vec::new();
        if let Some(Json::Obj(pairs)) = files {
            for (name, content) in pairs {
                let Json::Str(content) = content else {
                    return Err("\"files\" must hold strings".into());
                };
                file_list.push((name, content));
            }
        }
        Ok(Response {
            ok: ok
                .as_ref()
                .and_then(Json::as_bool)
                .ok_or("response needs an \"ok\" bool")?,
            cached: cached.as_ref().and_then(Json::as_bool).unwrap_or(false),
            exit: exit.as_ref().and_then(Json::as_num).unwrap_or(0.0) as i32,
            output: text(output),
            notes: text(notes),
            error: text(error),
            files: file_list,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let mut req = Request::for_path("run", "/tmp/x.bang");
        req.heuristic = "ETF".into();
        req.inputs.insert("a".into(), Value::Num(2.5));
        req.inputs
            .insert("v".into(), Value::array(vec![1.0, 2.0, 3.0]));
        req.inject_panic = Some("w3".into());
        req.args = vec!["Init".into(), "4".into()];
        req.weights = true;
        req.repeat = Some(3);
        req.procs = Some(8);
        req.schedule = Some("schedule MH\n".into());
        req.out = Some("out dir/t.json".into());
        let back = Request::from_json(&req.to_json()).unwrap();
        assert_eq!(req, back);
        // Unset fields are not written: the frame of a plain request is
        // what it was before those fields existed.
        assert_eq!(
            Request::for_path("check", "/p.bang").to_json(),
            "{\"cmd\":\"check\",\"path\":\"/p.bang\",\"heuristic\":\"MH\",\"format\":\"text\"}"
        );
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::success("line1\nline2 \"quoted\"\n")
            .cached(true)
            .with_exit(1)
            .with_notes("(3 task runs)");
        let back = Response::from_json(&resp.to_json()).unwrap();
        assert_eq!(resp, back);
        assert!(!resp.to_json().contains("files"));
        let filed = resp.with_file("d/gantt.svg", "<svg/>\n");
        assert_eq!(filed, Response::from_json(&filed.to_json()).unwrap());
        let fail = Response::failure("boom: \\path\\");
        assert_eq!(fail, Response::from_json(&fail.to_json()).unwrap());
    }

    #[test]
    fn bad_requests_are_rejected() {
        assert!(Request::from_json("{}").is_err());
        assert!(Request::from_json("not json").is_err());
        assert!(Request::from_json("{\"cmd\": 7}").is_err());
        assert!(Request::from_json("{\"cmd\": \"run\", \"inputs\": {\"a\": \"str\"}}").is_err());
        assert!(Request::from_json("{\"cmd\": \"run\", \"repeat\": -1}").is_err());
        assert!(Request::from_json("{\"cmd\": \"run\", \"repeat\": 1.5}").is_err());
        assert!(Request::from_json("{\"cmd\": \"trial\", \"args\": [7]}").is_err());
    }

    #[test]
    fn frame_round_trip_and_guards() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"cmd\":\"ping\"}").unwrap();
        write_frame(&mut buf, b"second").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(&b"{\"cmd\":\"ping\"}"[..])
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"second"[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");

        // Oversized length prefix is rejected without allocating.
        let huge = (MAX_FRAME as u32 + 1).to_be_bytes();
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());

        // EOF mid-frame is an error, not a clean close.
        let mut partial = Vec::new();
        write_frame(&mut partial, b"hello").unwrap();
        partial.truncate(partial.len() - 2);
        let mut r = &partial[..];
        assert!(read_frame(&mut r).is_err());

        // So is EOF inside the length prefix: only EOF before its first
        // byte is a frame boundary, however the prefix trickles in.
        for cut in 1..4 {
            let mut r = &partial[..cut];
            let err = read_frame(&mut r).expect_err("a truncated prefix is not a clean close");
            assert_eq!(
                err.kind(),
                io::ErrorKind::UnexpectedEof,
                "{cut}-byte prefix"
            );
            let err = read_frame(&mut Reads::new(&partial[..cut], 1))
                .expect_err("a truncated prefix is not a clean close");
            assert_eq!(
                err.kind(),
                io::ErrorKind::UnexpectedEof,
                "{cut} bytes, one a call"
            );
        }
    }

    /// A reader over a byte slice that hands out at most `step` bytes per
    /// `read` and counts the calls.
    struct Reads<'a> {
        rest: &'a [u8],
        step: usize,
        calls: usize,
    }

    impl<'a> Reads<'a> {
        fn new(rest: &'a [u8], step: usize) -> Self {
            Reads {
                rest,
                step,
                calls: 0,
            }
        }
    }

    impl Read for Reads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.step).min(self.rest.len());
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    #[test]
    fn short_reads_still_make_whole_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"cmd\":\"ping\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Reads::new(&buf, 1);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(&b"{\"cmd\":\"ping\"}"[..])
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn a_buffered_frame_costs_one_read() {
        let mut buf = Vec::new();
        for payload in [&b"first"[..], b"second", b"third"] {
            write_frame(&mut buf, payload).unwrap();
        }
        // Unbuffered, the prefix is one `read` and the payload another.
        let mut r = Reads::new(&buf, usize::MAX);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"first"[..]));
        assert_eq!(r.calls, 2);
        // Through a buffer, one `read` fills it with all three frames.
        let mut r = io::BufReader::new(Reads::new(&buf, usize::MAX));
        for payload in [&b"first"[..], b"second", b"third"] {
            assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(payload));
        }
        assert_eq!(r.get_ref().calls, 1);
    }
}

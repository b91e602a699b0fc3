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
//! top-level members through [`json::parse_object`] and moves strings out
//! of the parse; a syntax error anywhere beats any member's error, and the
//! first of duplicated members counts.
//!
//! ## Requests
//!
//! A [`Request`] is one `banger` invocation with its arguments parsed:
//! the verb, the project path, and one typed field per option. It is
//! the only thing that crosses from a front end into
//! [`ops::handle`], whether the front end calls the handler in its own
//! process or sends the request to a daemon. The wire carries what the
//! command line does, by the same table, [`ops::OPTIONS`]: `cmd`, the
//! `path` of a verb that takes one, and the keys of the verb's options —
//! a word (`heuristic`, `format`) always, anything else when set. A
//! request naming no verb, a member its verb does not take or a value of
//! the wrong kind is refused in the command line's words.
//!
//! ```json
//! {"cmd": "gantt", "path": "/abs/proj.bang", "heuristic": "ETF"}
//! {"cmd": "run", "path": "/abs/proj.bang", "heuristic": "MH", "inputs": {"a": 2.5, "v": [1, 2, 3]}, "repeat": 200}
//! {"cmd": "check", "path": "/abs/proj.bang", "format": "json", "weights": true}
//! {"cmd": "trial", "path": "/abs/proj.bang", "args": ["Init"], "reference": true}
//! {"cmd": "ping"}   {"cmd": "evict", "path": "/abs/proj.bang"}
//! ```
//!
//! The handler opens exactly one file, the project at `path`; a front
//! end therefore sends an absolute `path`, reads what else the verb
//! takes from disk itself (`verify -s` travels as `schedule` text), and
//! names in `out` where the verb's file product is to go.
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

use super::ops::{self, Kind, Verb};
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

/// One request to the handler: the verb, its project path, and one field
/// per option of [`ops::OPTIONS`]. A handler reads
/// only the fields of its verb's options, and the wire carries only
/// those.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Request {
    /// The verb: the name of a row of [`ops::VERBS`].
    pub cmd: String,
    /// The project file, absolute; absent for a verb on the daemon itself.
    pub path: Option<String>,
    /// `-H`: scheduling heuristic (default `MH`).
    pub heuristic: String,
    /// `check --format`: `text` (default) or `json`.
    pub format: String,
    /// `-i var=value`: external input values.
    pub inputs: BTreeMap<String, Value>,
    /// `optimize --fuse`: also fuse grain-packed clusters.
    pub fuse: bool,
    /// The operands after the path: `trial <program>`, `codegen <lang>`,
    /// `parallelize <task> <chunks>`.
    pub args: Vec<String>,
    /// `check --weights`: append the per-task weight report.
    pub weights: bool,
    /// `--optimize`, `graph --optimized`: rewrite the design (dead arcs +
    /// fusion) before the verb's own work.
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
}

impl Request {
    /// A request with defaults for everything but the verb.
    pub fn new(cmd: impl Into<String>) -> Self {
        Request {
            cmd: cmd.into(),
            heuristic: "MH".to_string(),
            format: "text".to_string(),
            ..Request::default()
        }
    }

    /// A request addressing a project file.
    pub fn for_path(cmd: impl Into<String>, path: impl Into<String>) -> Self {
        let mut r = Request::new(cmd);
        r.path = Some(path.into());
        r
    }

    /// Renders the request as one JSON object, in one pass: `cmd`, the
    /// path, then the fields of the verb's options in table order — a
    /// word always, anything else when set. A field the verb does not
    /// take is left out, whatever it holds.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"cmd\":");
        json::escape_into(&self.cmd, &mut out);
        let verb = ops::verb(&self.cmd);
        if let Some(path) = self
            .path
            .as_ref()
            .filter(|_| verb.is_some_and(Verb::takes_path))
        {
            key(&mut out, "path");
            json::escape_into(path, &mut out);
        }
        for opt in ops::options(&self.cmd) {
            // The key goes first and comes off again if the field is unset.
            let start = out.len();
            key(&mut out, opt.key);
            let set = match opt.kind {
                Kind::Word(get, _) => {
                    json::escape_into(get(self), &mut out);
                    true
                }
                Kind::Text(get, _) | Kind::File(get, _) => get(self)
                    .as_ref()
                    .map(|text| json::escape_into(text, &mut out))
                    .is_some(),
                Kind::Flag(get, _) => {
                    out.push_str("true");
                    *get(self)
                }
                Kind::Count(get, _) => get(self)
                    .map(|n| json::number_into(f64::from(n), &mut out))
                    .is_some(),
                Kind::Inputs(get, _) => {
                    list_into(&mut out, "{}", get(self), |out, (name, v)| {
                        json::escape_into(name, out);
                        out.push(':');
                        match v {
                            Value::Num(n) => json::number_into(*n, out),
                            Value::Array(xs) => {
                                list_into(out, "[]", xs.iter(), |out, x| json::number_into(*x, out))
                            }
                        }
                    });
                    !get(self).is_empty()
                }
                Kind::Args(get, _) => {
                    list_into(&mut out, "[]", get(self), |out, arg| {
                        json::escape_into(arg, out)
                    });
                    !get(self).is_empty()
                }
            };
            if !set {
                out.truncate(start);
            }
        }
        out.push('}');
        out
    }

    /// Parses a request from JSON text: the whole text must be JSON
    /// before any member is judged, then `cmd` must name a verb, and each
    /// other member must be one the verb takes, holding a value of its
    /// kind. The first of duplicated members counts.
    pub fn from_json(text: &str) -> Result<Request, String> {
        let mut members = Vec::new();
        json::parse_object(text, |k, v| members.push((k, v)))?;
        let cmd = match members.iter().find(|(k, _)| k == "cmd") {
            Some((_, Json::Str(cmd))) => cmd.clone(),
            _ => return Err("request needs a \"cmd\" string".into()),
        };
        let verb = ops::verb(&cmd).ok_or_else(|| ops::unknown_verb(&cmd))?;
        let mut req = Request::new(cmd);
        let mut seen = vec!["cmd"];
        for (k, v) in members {
            if seen.contains(&&*k) {
                continue;
            }
            let opt = ops::options(verb.name()).find(|opt| opt.key == k);
            let (k, kind) = match opt {
                Some(opt) => (opt.key, Some(opt.kind)),
                None if k == "path" && verb.takes_path() => ("path", None),
                None => return Err(ops::does_not_take(verb.name(), &k)),
            };
            seen.push(k);
            let string = |v| match v {
                Json::Str(s) => Ok(s),
                _ => Err(format!("{k:?} must be a string")),
            };
            match kind {
                None => req.path = Some(string(v)?),
                Some(Kind::Word(_, set)) => *set(&mut req) = string(v)?,
                Some(Kind::Text(_, set) | Kind::File(_, set)) => *set(&mut req) = Some(string(v)?),
                Some(Kind::Flag(_, set)) => {
                    *set(&mut req) = v.as_bool().ok_or(format!("{k:?} must be true or false"))?
                }
                Some(Kind::Count(_, set)) => {
                    let n = v
                        .as_num()
                        .filter(|n| n.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(n))
                        .ok_or(format!("{k:?} must be a whole number"))?;
                    *set(&mut req) = Some(n as u32);
                }
                Some(Kind::Inputs(_, set)) => {
                    let Json::Obj(fields) = v else {
                        return Err(format!("{k:?} must be an object"));
                    };
                    for (name, val) in fields {
                        let val =
                            json_to_value(&val).map_err(|e| format!("bad input {name:?}: {e}"))?;
                        set(&mut req).insert(name, val);
                    }
                }
                Some(Kind::Args(_, set)) => {
                    let args = match v {
                        Json::Arr(items) => items.into_iter().map(|arg| string(arg).ok()).collect(),
                        _ => None,
                    };
                    *set(&mut req) = args.ok_or(format!("{k:?} must be strings"))?;
                }
            }
        }
        Ok(req)
    }
}

/// Appends `items` between the two characters of `brackets`, separated
/// by commas, each as `item` writes it.
fn list_into<T>(
    out: &mut String,
    brackets: &str,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push_str(close);
}

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
            list_into(&mut out, "{}", &self.files, |out, (name, content)| {
                json::escape_into(name, out);
                out.push(':');
                json::escape_into(content, out);
            });
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
        req.repeat = Some(3);
        req.optimize = true;
        req.out = Some("out dir/t.json".into());
        let back = Request::from_json(&req.to_json()).unwrap();
        assert_eq!(req, back);
        // Unset fields are not written, nor the fields of other verbs'
        // options: `check` takes no heuristic.
        let mut check = Request::for_path("check", "/p.bang");
        check.heuristic = "ETF".into();
        assert_eq!(
            check.to_json(),
            "{\"cmd\":\"check\",\"path\":\"/p.bang\",\"format\":\"text\"}"
        );
    }

    /// No verb takes two options that share a key: `to_json` would write
    /// it twice.
    #[test]
    fn no_verb_takes_a_key_twice() {
        for verb in ops::VERBS {
            let mut keys: Vec<&str> = ops::options(verb.name()).map(|opt| opt.key).collect();
            let all = keys.len();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), all, "{}", verb.name());
        }
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
        let refused = |text: &str, why: &str| {
            assert_eq!(Request::from_json(text), Err(why.to_string()), "{text}");
        };
        refused("{}", "request needs a \"cmd\" string");
        assert!(Request::from_json("not json").is_err());
        refused("{\"cmd\": 7}", "request needs a \"cmd\" string");
        refused(
            "{\"cmd\": \"nonsense\"}",
            "unknown subcommand \"nonsense\" (run `banger help` for the list)",
        );
        refused(
            "{\"cmd\": \"run\", \"inputs\": {\"a\": \"str\"}}",
            "bad input \"a\": inputs must be numbers or arrays of numbers",
        );
        refused(
            "{\"cmd\": \"run\", \"inputs\": [1]}",
            "\"inputs\" must be an object",
        );
        refused(
            "{\"cmd\": \"run\", \"repeat\": -1}",
            "\"repeat\" must be a whole number",
        );
        refused(
            "{\"cmd\": \"run\", \"repeat\": 1.5}",
            "\"repeat\" must be a whole number",
        );
        refused(
            "{\"cmd\": \"trial\", \"args\": [7]}",
            "\"args\" must be strings",
        );
        refused(
            "{\"cmd\": \"trial\", \"args\": \"x\"}",
            "\"args\" must be strings",
        );
        refused(
            "{\"cmd\": \"check\", \"fuse\": true}",
            "check does not take \"fuse\"",
        );
        refused(
            "{\"cmd\": \"ping\", \"path\": \"/p\"}",
            "ping does not take \"path\"",
        );
        // The syntax error anywhere beats any member's, and the first of
        // duplicated members counts.
        assert!(Request::from_json("{\"cmd\": \"ping\", \"path\": 1,}")
            .unwrap_err()
            .contains("offset"));
        let dup = Request::from_json("{\"cmd\":\"run\",\"repeat\":2,\"repeat\":\"x\"}");
        assert_eq!(dup.map(|r| r.repeat), Ok(Some(2)));
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

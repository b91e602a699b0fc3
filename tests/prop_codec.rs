//! The byte-level codec against the char-level one it replaced.
//!
//! `support/json_oracle.rs` keeps the former `json::parse`, `escape_into`
//! and `Response` `to_json`/`from_json` verbatim, and the former
//! `Request::from_json`. Seeded responses with files and `Json` trees
//! (strings full of quotes, backslashes, control, non-ASCII and astral
//! characters) must encode to the same bytes and decode to the same
//! values. Corrupted texts — truncations, byte flips, duplicated keys,
//! Unicode whitespace between tokens, `\u` escapes with lone surrogates,
//! non-object top levels, numbers like `1e400` and `-` — must give the
//! same result and byte-identical error texts, through `json::parse`,
//! `json::parse_object` and the response decoder.
//!
//! Requests are strict where the old decoder read every field on every
//! verb and ignored the rest: a seeded request holds only its verb's
//! fields, reads back as itself through both decoders, and a member its
//! verb does not take is refused with the CLI's wording. On any text the
//! request decoder gives the old syntax error, and whatever it accepts
//! the old decoder reads alike.
//!
//! The other intended difference is the nesting cap (`json::MAX_DEPTH`),
//! which nothing here comes near; `json.rs`'s unit tests pin it.

#[path = "support/json_oracle.rs"]
mod oracle;

use banger::serve::ops::{self, Kind, VERBS};
use banger::serve::{Request, Response};
use banger_calc::Value;
use banger_taskgraph::json::{self, Json};

const SEEDS: u64 = 1000;

/// xorshift64, as `support/designs.rs` has it.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// What a string may hold: the characters an escaper must treat, the
/// ones it must leave alone, and whitespace the parser skips outside
/// strings.
const CHARS: &str = "aZ0 /{}[]:,\"\\\0\u{1}\u{8}\t\n\u{b}\u{c}\r\u{1f}\u{7f}\u{85}\u{a0}éß中\u{2028}\u{3000}\u{fffd}😀\u{10ffff}";

fn string(rng: &mut Rng) -> String {
    let chars: Vec<char> = CHARS.chars().collect();
    let len = rng.below(12);
    (0..len).map(|_| rng.pick(&chars)).collect()
}

fn number(rng: &mut Rng) -> f64 {
    match rng.below(4) {
        0 => rng.pick(&[
            0.0,
            -0.0,
            1.5,
            -2.0,
            3e-4,
            1e300,
            -1e-300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]),
        1 => f64::from_bits(rng.next()),
        2 => rng.below(1000) as f64,
        _ => (rng.next() as i64 as f64) / 1024.0,
    }
}

fn some<T>(rng: &mut Rng, make: impl FnOnce(&mut Rng) -> T) -> Option<T> {
    rng.chance(2).then(|| make(rng))
}

/// A finite number: a non-finite one is written as `null`, which no
/// decoder reads back as a number.
fn finite(rng: &mut Rng) -> f64 {
    loop {
        let x = number(rng);
        if x.is_finite() {
            return x;
        }
    }
}

/// A request of a seeded verb, with seeded values in that verb's fields
/// only: the option table says which and of what kind.
fn request(rng: &mut Rng) -> Request {
    let verb = &VERBS[rng.below(VERBS.len())];
    let mut req = Request::new(verb.name());
    if verb.takes_path() {
        req.path = some(rng, string);
    }
    for opt in ops::options(verb.name()) {
        match opt.kind {
            Kind::Word(_, set) => {
                if rng.chance(2) {
                    *set(&mut req) = string(rng);
                }
            }
            Kind::Text(_, set) | Kind::File(_, set) => *set(&mut req) = some(rng, string),
            Kind::Flag(_, set) => *set(&mut req) = rng.chance(2),
            Kind::Count(_, set) => {
                let any = rng.next() as u32;
                *set(&mut req) = some(rng, |rng| rng.pick(&[0, 1, 200, u32::MAX, any]));
            }
            Kind::Inputs(_, set) => {
                for _ in 0..rng.below(4) {
                    let value = if rng.chance(2) {
                        Value::Num(finite(rng))
                    } else {
                        let len = rng.below(4);
                        Value::array((0..len).map(|_| finite(rng)).collect())
                    };
                    set(&mut req).insert(string(rng), value);
                }
            }
            Kind::Args(_, set) => *set(&mut req) = (0..rng.below(4)).map(|_| string(rng)).collect(),
        }
    }
    req
}

/// Every key some request may carry, and two that none may.
fn every_key() -> impl Iterator<Item = &'static str> {
    let options = ops::OPTIONS.iter().map(|opt| opt.key);
    options.chain(["path", "inject_panic", "inject_handler_panic", "zzz"])
}

/// Whether the verb `cmd` takes the member `key`.
fn takes(cmd: &str, key: &str) -> bool {
    let path = key == "path" && ops::verb(cmd).is_some_and(ops::Verb::takes_path);
    path || ops::options(cmd).any(|opt| opt.key == key)
}

fn response(rng: &mut Rng) -> Response {
    let any = rng.next() as i32;
    let mut resp = Response::success(string(rng))
        .cached(rng.chance(2))
        .with_exit(rng.pick(&[0, 1, 2, -1, i32::MIN, i32::MAX, any]))
        .with_notes(string(rng));
    resp.ok = rng.chance(2);
    resp.error = string(rng);
    for _ in 0..rng.below(4) {
        resp.files.push((string(rng), string(rng)));
    }
    resp
}

fn value(rng: &mut Rng, depth: usize) -> Json {
    match rng.below(if depth == 0 { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(2)),
        2 => Json::Num(number(rng)),
        3 => Json::Str(string(rng)),
        4 => Json::Arr((0..rng.below(4)).map(|_| value(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (string(rng), value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A member to splice into an object: a key either decoder reads, or an
/// unknown one, with any kind of value.
fn member(rng: &mut Rng) -> String {
    let key = rng.pick(&[
        "cmd", "path", "inputs", "args", "repeat", "procs", "fuse", "out", "ok", "cached", "exit",
        "output", "files", "error", "zzz",
    ]);
    format!("\"{key}\":{}", oracle::render(&value(rng, 2)))
}

/// Texts a well-formed `text` turns into by one corruption each.
fn corruptions(rng: &mut Rng, text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let at = |rng: &mut Rng| rng.below(chars.len() + 1);
    let splice = |at: usize, piece: &str| {
        let mut s: String = chars[..at].iter().collect();
        s.push_str(piece);
        s.extend(&chars[at..]);
        s
    };
    let mut out = Vec::new();
    // Truncations.
    out.push(chars[..at(rng)].iter().collect());
    out.push(chars[..chars.len().saturating_sub(1)].iter().collect());
    // Byte flips that leave the text UTF-8.
    for _ in 0..3 {
        let mut bytes = text.as_bytes().to_vec();
        if bytes.is_empty() {
            break;
        }
        let k = rng.below(bytes.len());
        bytes[k] = if rng.chance(2) {
            rng.pick(b"\"\\{}[]:, 0-e.+tnu\x01")
        } else {
            rng.next() as u8
        };
        if let Ok(s) = String::from_utf8(bytes) {
            out.push(s);
        }
    }
    // A duplicated or foreign member, first or last.
    if text.starts_with('{') && text.ends_with('}') && text.len() > 2 {
        out.push(format!("{{{},{}", member(rng), &text[1..]));
        out.push(format!("{},{}}}", &text[..text.len() - 1], member(rng)));
    }
    // Whitespace — or a look-alike that is not — anywhere.
    let space = rng.pick(&[
        " ", "\t", "\n", "\r", "\u{b}", "\u{c}", "\u{85}", "\u{a0}", "\u{1680}", "\u{2028}",
        "\u{3000}", "\u{200b}", "\u{1c}", "\u{feff}",
    ]);
    out.push(splice(at(rng), space));
    // A `\u` escape, well-formed or not.
    let escape = rng.pick(&[
        "\\u0041",
        "\\u00e9",
        "\\ud800",
        "\\udfff",
        "\\u+041",
        "\\u12",
        "\\uZZZZ",
        "\\u0000",
        "\\uD83D\\uDE00",
        "\\x",
        "\\",
    ]);
    out.push(splice(at(rng), escape));
    out
}

/// Non-object top levels and odd numbers, each checked as is.
const ODD_TEXTS: &[&str] = &[
    "",
    "   ",
    "\u{3000}",
    "null",
    "true",
    "false",
    "tru",
    "nul",
    "[1,2]",
    "[]",
    "[,1]",
    "[1,]",
    "\"cmd\"",
    "1e400",
    "-1e400",
    "-",
    "+1",
    ".5",
    "1.",
    "--1",
    "1e",
    "0x10",
    "é",
    "{",
    "}",
    "{}",
    "{1:2}",
    "{\"a\" 1}",
    "{\"a\":1,}",
    "{\"a\":1 \"b\":2}",
    "{[1]:2}",
    "{\"cmd\":\"run\"} x",
    "{\"cmd\":\"run\",\"repeat\":1e400}",
    "{\"cmd\":\"run\",\"repeat\":-0}",
    "{\"cmd\":\"run\",\"procs\":4294967296}",
    "{\"cmd\":\"run\",\"inputs\":{\"a\":1,\"a\":\"x\"}}",
    "{\"cmd\":\"run\",\"inputs\":{\"a\":\"x\",\"a\":1}}",
    "{\"ok\":true,\"files\":{\"a\":1},\"ok\":7}",
    "{\"ok\":1,\"files\":{\"a\":1}}",
    "{\"ok\":true,\"exit\":1e400}",
    "{\"ok\":true,\"exit\":-1e400,\"exit\":2}",
    "{\"cmd\":7,\"cmd\":\"run\"}",
    "{\"cmd\":\"run\",\"cmd\":7,\"repeat\":1.5}",
    "{\"repeat\":1.5}",
];

/// Both codecs read `text` alike: `json::parse`, the member visitor and
/// the response decoder, down to the error text; the request decoder
/// gives the old syntax error, and reads what it accepts as the old one
/// did.
fn same_reading(text: &str) {
    let old = oracle::parse(text);
    assert_eq!(json::parse(text), old, "json::parse {text:?}");
    let mut members = Vec::new();
    let visited = json::parse_object(text, |k, v| members.push((k.into_owned(), v)));
    let want = old.map(|v| match v {
        Json::Obj(pairs) => pairs,
        _ => Vec::new(),
    });
    assert_eq!(
        visited.map(|()| members),
        want,
        "json::parse_object {text:?}"
    );
    let strict = Request::from_json(text);
    if json::parse(text).is_err() || strict.is_ok() {
        assert_eq!(
            strict,
            oracle::request_from_json(text),
            "Request::from_json {text:?}"
        );
    }
    assert_eq!(
        Response::from_json(text),
        oracle::response_from_json(text),
        "Response::from_json {text:?}"
    );
}

#[test]
fn requests_encode_and_decode_as_before() {
    for seed in 0..SEEDS {
        let mut rng = Rng::new(seed);
        let req = request(&mut rng);
        let text = req.to_json();
        assert_eq!(Request::from_json(&text).as_ref(), Ok(&req), "seed {seed}");
        assert_eq!(
            oracle::request_from_json(&text),
            Ok(req.clone()),
            "seed {seed}"
        );
        same_reading(&text);
        for bad in corruptions(&mut rng, &text) {
            same_reading(&bad);
        }
        // A member the verb does not take, first or last, is refused.
        let foreign: Vec<&str> = every_key().filter(|k| !takes(&req.cmd, k)).collect();
        let key = rng.pick(&foreign);
        let member = format!("\"{key}\":{}", oracle::render(&value(&mut rng, 2)));
        let spliced = if rng.chance(2) {
            format!("{{{member},{}", &text[1..])
        } else {
            format!("{},{member}}}", &text[..text.len() - 1])
        };
        let refusal = ops::does_not_take(&req.cmd, key);
        assert_eq!(Request::from_json(&spliced), Err(refusal), "{spliced}");
        // The fields of other verbs' options are not written.
        let mut stray = req.clone();
        if !takes(&req.cmd, "path") {
            stray.path = Some("/p.bang".into());
        }
        if !takes(&req.cmd, "fuse") {
            stray.fuse = true;
        }
        if !takes(&req.cmd, "format") {
            stray.format = "json".into();
        }
        assert_eq!(Request::from_json(&stray.to_json()), Ok(req), "seed {seed}");
    }
}

#[test]
fn responses_encode_and_decode_as_before() {
    for seed in 0..SEEDS {
        let mut rng = Rng::new(seed ^ 0x5eed);
        let resp = response(&mut rng);
        let text = resp.to_json();
        assert_eq!(text, oracle::response_to_json(&resp), "seed {seed}");
        assert_eq!(
            Response::from_json(&text).as_ref(),
            Ok(&resp),
            "seed {seed}"
        );
        same_reading(&text);
        for bad in corruptions(&mut rng, &text) {
            same_reading(&bad);
        }
    }
}

#[test]
fn json_values_render_and_parse_as_before() {
    for seed in 0..SEEDS {
        let mut rng = Rng::new(seed ^ 0x15011);
        let v = value(&mut rng, 4);
        let text = v.render();
        assert_eq!(text, oracle::render(&v), "seed {seed}");
        if let Json::Str(s) = &v {
            assert_eq!(json::quote(s), oracle::quote(s));
        }
        same_reading(&text);
        for bad in corruptions(&mut rng, &text) {
            same_reading(&bad);
        }
    }
}

#[test]
fn odd_texts_read_as_before() {
    for text in ODD_TEXTS {
        same_reading(text);
    }
}

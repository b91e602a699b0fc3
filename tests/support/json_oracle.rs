//! The serve codec as it was before it worked on bytes: the recursive
//! `char` parser, the char-at-a-time escaper, and `Response` encoding
//! through a `Json` tree. Kept verbatim as the oracle `prop_codec`
//! compares the byte-level codec with, text for text and error for
//! error. It has no nesting cap: keep its inputs shallow.
//!
//! Of the request half only the old decoder is left, without the two
//! fault-injection fields that no longer exist. It read every field on
//! every verb and ignored what it did not know; the strict decoder must
//! read whatever it accepts the way this one does.

use banger::serve::{Request, Response};
use banger_calc::Value;
use banger_taskgraph::json::Json;
use std::fmt::Write as _;

/// The old `Json::render`.
pub fn render(v: &Json) -> String {
    let mut out = String::new();
    render_into(v, &mut out);
    out
}

fn render_into(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            if n.is_finite() {
                let _ = write!(out, "{n}");
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => escape_into(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(v, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(k, out);
                out.push(':');
                render_into(v, out);
            }
            out.push('}');
        }
    }
}

/// Appends `s` to `out` as a JSON string literal: surrounding quotes,
/// with quotes, backslashes and control characters escaped.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a JSON string literal (see [`escape_into`]).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(s, &mut out);
    out
}

/// Parses one JSON value; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    let v = value_at(&chars, &mut i)?;
    skip_ws(&chars, &mut i);
    if i != chars.len() {
        return Err(format!("trailing garbage at offset {i}"));
    }
    Ok(v)
}

fn skip_ws(c: &[char], i: &mut usize) {
    while *i < c.len() && c[*i].is_whitespace() {
        *i += 1;
    }
}

fn value_at(c: &[char], i: &mut usize) -> Result<Json, String> {
    skip_ws(c, i);
    match c.get(*i) {
        Some('[') => {
            *i += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(c, i);
                if c.get(*i) == Some(&']') {
                    *i += 1;
                    return Ok(Json::Arr(items));
                }
                if !items.is_empty() {
                    if c.get(*i) != Some(&',') {
                        return Err(format!("expected , at offset {i}"));
                    }
                    *i += 1;
                }
                items.push(value_at(c, i)?);
            }
        }
        Some('{') => {
            *i += 1;
            let mut pairs = Vec::new();
            loop {
                skip_ws(c, i);
                if c.get(*i) == Some(&'}') {
                    *i += 1;
                    return Ok(Json::Obj(pairs));
                }
                if !pairs.is_empty() {
                    if c.get(*i) != Some(&',') {
                        return Err(format!("expected , at offset {i}"));
                    }
                    *i += 1;
                    skip_ws(c, i);
                }
                let Json::Str(key) = value_at(c, i)? else {
                    return Err(format!("expected string key at offset {i}"));
                };
                skip_ws(c, i);
                if c.get(*i) != Some(&':') {
                    return Err(format!("expected : at offset {i}"));
                }
                *i += 1;
                pairs.push((key, value_at(c, i)?));
            }
        }
        Some('"') => {
            *i += 1;
            let mut s = String::new();
            loop {
                match c.get(*i) {
                    None => return Err("unterminated string".into()),
                    Some('"') => {
                        *i += 1;
                        return Ok(Json::Str(s));
                    }
                    Some('\\') => {
                        *i += 1;
                        match c.get(*i) {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('/') => s.push('/'),
                            Some('n') => s.push('\n'),
                            Some('r') => s.push('\r'),
                            Some('t') => s.push('\t'),
                            Some('b') => s.push('\u{8}'),
                            Some('f') => s.push('\u{c}'),
                            Some('u') => {
                                if *i + 4 >= c.len() {
                                    return Err("truncated \\u escape".into());
                                }
                                let hex: String = c[*i + 1..*i + 5].iter().collect();
                                let n = u32::from_str_radix(&hex, 16).map_err(|e| e.to_string())?;
                                s.push(char::from_u32(n).ok_or("bad \\u codepoint")?);
                                *i += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *i += 1;
                    }
                    Some(&ch) => {
                        s.push(ch);
                        *i += 1;
                    }
                }
            }
        }
        Some('t') if c[*i..].starts_with(&['t', 'r', 'u', 'e']) => {
            *i += 4;
            Ok(Json::Bool(true))
        }
        Some('f') if c[*i..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
            *i += 5;
            Ok(Json::Bool(false))
        }
        Some('n') if c[*i..].starts_with(&['n', 'u', 'l', 'l']) => {
            *i += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *i;
            while *i < c.len() && (c[*i].is_ascii_digit() || "+-.eE".contains(c[*i])) {
                *i += 1;
            }
            let s: String = c[start..*i].iter().collect();
            s.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {s:?} at offset {start}"))
        }
        None => Err("empty input".into()),
    }
}

/// The former `Request::from_json`.
pub fn request_from_json(text: &str) -> Result<Request, String> {
    let v = parse(text)?;
    let text = |key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
    let flag = |key: &str| v.get(key).and_then(Json::as_bool).unwrap_or(false);
    let count = |key: &str| match v.get(key) {
        None => Ok(None),
        Some(n) => n
            .as_num()
            .filter(|n| n.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(n))
            .map(|n| Some(n as u32))
            .ok_or(format!("{key:?} must be a whole number")),
    };
    let mut req = Request::new(text("cmd").ok_or("request needs a \"cmd\" string")?);
    req.path = text("path");
    if let Some(h) = text("heuristic") {
        req.heuristic = h;
    }
    if let Some(f) = text("format") {
        req.format = f;
    }
    if let Some(Json::Obj(fields)) = v.get("inputs") {
        for (name, val) in fields {
            req.inputs.insert(
                name.clone(),
                json_to_value(val).map_err(|e| format!("bad input {name:?}: {e}"))?,
            );
        }
    }
    for arg in v.get("args").and_then(Json::as_arr).unwrap_or_default() {
        req.args
            .push(arg.as_str().ok_or("\"args\" must be strings")?.to_string());
    }
    req.fuse = flag("fuse");
    req.weights = flag("weights");
    req.optimize = flag("optimize");
    req.reference = flag("reference");
    req.dot = flag("dot");
    req.repeat = count("repeat")?;
    req.procs = count("procs")?;
    req.topologies = text("topologies");
    req.expand = text("expand");
    req.schedule = text("schedule");
    req.out = text("out");
    Ok(req)
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

/// The former `Response::to_json`.
pub fn response_to_json(resp: &Response) -> String {
    let mut pairs = vec![
        ("ok".to_string(), Json::Bool(resp.ok)),
        ("cached".to_string(), Json::Bool(resp.cached)),
        ("exit".to_string(), Json::Num(f64::from(resp.exit))),
        ("output".to_string(), Json::Str(resp.output.clone())),
        ("notes".to_string(), Json::Str(resp.notes.clone())),
        ("error".to_string(), Json::Str(resp.error.clone())),
    ];
    if !resp.files.is_empty() {
        let files = resp
            .files
            .iter()
            .map(|(name, content)| (name.clone(), Json::Str(content.clone())))
            .collect();
        pairs.push(("files".to_string(), Json::Obj(files)));
    }
    render(&Json::Obj(pairs))
}

/// The former `Response::from_json`.
pub fn response_from_json(text: &str) -> Result<Response, String> {
    let v = parse(text)?;
    let text = |key: &str| {
        v.get(key)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let mut files = Vec::new();
    if let Some(Json::Obj(pairs)) = v.get("files") {
        for (name, content) in pairs {
            let content = content.as_str().ok_or("\"files\" must hold strings")?;
            files.push((name.clone(), content.to_string()));
        }
    }
    Ok(Response {
        ok: v
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or("response needs an \"ok\" bool")?,
        cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
        exit: v.get("exit").and_then(Json::as_num).unwrap_or(0.0) as i32,
        output: text("output"),
        notes: text("notes"),
        error: text("error"),
        files,
    })
}

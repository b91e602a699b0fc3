//! The workspace's one JSON value, parser and writer.
//!
//! The workspace is deliberately serde-free. Everything that writes JSON
//! (`check --format json`, the weight report, Chrome trace files, the
//! serve protocol) escapes strings through [`escape_into`] / [`quote`],
//! and everything that reads it (the protocol, the tests) goes through
//! [`parse`], or [`parse_object`] — a visitor over the members of the
//! top-level object, which borrows keys without escapes and moves values,
//! so a decoder builds no tree it then copies out of. Only what those
//! need: no comments, no trailing commas, numbers as `f64`.
//!
//! Both directions work on the bytes of a `&str`. A string literal's
//! escape-free runs are copied as whole slices, and the next byte that
//! ends one is found eight bytes at a time. Offsets in error texts count
//! chars, and only an error pays to count them. Between tokens the parser
//! skips what `char::is_whitespace` admits, non-ASCII included. Arrays and
//! objects nest at most [`MAX_DEPTH`] deep, so no text can overflow the
//! stack of the thread that parses it.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep insertion order (the protocol
/// never relies on it, but rendering stays stable for tests).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers included).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON text. Non-finite numbers render
    /// as `null` (JSON has no inf/NaN).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => number_into(*n, out),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
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
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` to `out` as a JSON string literal: surrounding quotes,
/// with quotes, backslashes and control characters escaped. The runs
/// between the bytes that need an escape are copied as whole slices.
pub fn escape_into(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    loop {
        // `special` is ASCII or the end, so a char boundary either way.
        let special = find_special(bytes, run, true);
        out.push_str(&s[run..special]);
        let Some(&b) = bytes.get(special) else { break };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = special + 1;
    }
    out.push('"');
}

/// The index of the first byte of `bytes` at or after `from` that is `"`
/// or `\`, or with `controls` also below 0x20; `bytes.len()` if none is.
/// Eight bytes are tested at a time while none of them is.
fn find_special(bytes: &[u8], from: usize, controls: bool) -> usize {
    const ONES: u64 = u64::from_ne_bytes([1; 8]);
    const HIGHS: u64 = ONES << 7;
    // Whether some byte of `w` is below `n` (exact for n <= 0x80).
    let below = |w: u64, n: u8| w.wrapping_sub(ONES * u64::from(n)) & !w & HIGHS != 0;
    let special = |b: u8| b == b'"' || b == b'\\' || (controls && b < 0x20);
    let mut i = from;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let w = u64::from_ne_bytes(chunk.try_into().expect("eight bytes"));
        if below(w ^ (ONES * u64::from(b'"')), 1)
            || below(w ^ (ONES * u64::from(b'\\')), 1)
            || (controls && below(w, 0x20))
        {
            break;
        }
        i += 8;
    }
    bytes[i..]
        .iter()
        .position(|&b| special(b))
        .map_or(bytes.len(), |k| i + k)
}

/// `s` as a JSON string literal (see [`escape_into`]).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(s, &mut out);
    out
}

/// Appends `n` as a JSON number; a non-finite one as `null` (JSON has no
/// inf/NaN).
pub fn number_into(n: f64, out: &mut String) {
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

/// Deepest nesting of arrays and objects the parser accepts. The serve
/// protocol nests three deep; the cap keeps a hostile text from
/// overflowing the stack of the thread that parses it.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON value; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.finish()?;
    Ok(v)
}

/// Parses one JSON text and hands each member of its top-level object to
/// `member`, in text order, duplicates included. A key without escapes
/// is borrowed from `text`; values are moved. A top level that is not an
/// object is parsed and checked all the same, and visits nothing. The
/// whole text is checked: a syntax error after a visited member is still
/// the result.
pub fn parse_object<'a>(
    text: &'a str,
    mut member: impl FnMut(Cow<'a, str>, Json),
) -> Result<(), String> {
    let mut p = Parser::new(text);
    p.skip_ws();
    if p.peek() == Some(b'{') {
        p.object(&mut member)?;
    } else {
        p.value()?;
    }
    p.finish()
}

/// A recursive-descent parser over the bytes of a `&str`. `pos` is a
/// byte offset and always a char boundary; error texts count chars, and
/// only an error pays to count them.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// "`what` at offset N", N the char offset of byte offset `pos`.
    fn error_at(&self, what: &str, pos: usize) -> String {
        format!("{what} at offset {}", self.text[..pos].chars().count())
    }

    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    /// Skips what `char::is_whitespace` admits, non-ASCII included.
    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            let c = if b.is_ascii() {
                b as char
            } else {
                self.rest().chars().next().expect("pos is inside the text")
            };
            if !c.is_whitespace() {
                return;
            }
            self.pos += c.len_utf8();
        }
    }

    fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.error_at("trailing garbage", self.pos));
        }
        Ok(())
    }

    fn expect_comma(&mut self) -> Result<(), String> {
        if self.peek() != Some(b',') {
            return Err(self.error_at("expected ,", self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    /// Steps over the `[` or `{` at `pos`, one level deeper.
    fn open(&mut self) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(self.error_at(&format!("nesting deeper than {MAX_DEPTH}"), self.pos));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// Steps over the `]` or `}` at `pos`.
    fn close(&mut self) {
        self.depth -= 1;
        self.pos += 1;
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let rest = self.rest().as_bytes();
        match rest.first() {
            Some(b'[') => {
                self.open()?;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.close();
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() {
                        self.expect_comma()?;
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.object(&mut |k: Cow<str>, v| pairs.push((k.into_owned(), v)))?;
                Ok(Json::Obj(pairs))
            }
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') if rest.starts_with(b"true") => {
                self.pos += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if rest.starts_with(b"false") => {
                self.pos += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if rest.starts_with(b"null") => {
                self.pos += 4;
                Ok(Json::Null)
            }
            Some(_) => self.number(),
            None => Err("empty input".into()),
        }
    }

    /// The object at `pos`, one `member` call per key/value pair.
    fn object(&mut self, member: &mut impl FnMut(Cow<'a, str>, Json)) -> Result<(), String> {
        self.open()?;
        let mut first = true;
        loop {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.close();
                return Ok(());
            }
            if !first {
                self.expect_comma()?;
            }
            first = false;
            let key = self.key()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.error_at("expected :", self.pos));
            }
            self.pos += 1;
            let value = self.value()?;
            member(key, value);
        }
    }

    /// A member's key. Any value may stand there and is parsed in full —
    /// its own errors come first — before a non-string is refused.
    fn key(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        if self.peek() == Some(b'"') {
            return self.string();
        }
        self.value()?;
        Err(self.error_at("expected string key", self.pos))
    }

    /// The string literal at `pos`: borrowed when it has no escapes,
    /// otherwise built from the escape-free runs between them.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let text = self.text;
        self.pos += 1;
        let mut run = self.pos;
        let mut built: Option<String> = None;
        loop {
            self.pos = find_special(text.as_bytes(), self.pos, false);
            if self.pos == text.len() {
                return Err("unterminated string".into());
            }
            let tail = &text[run..self.pos];
            self.pos += 1;
            if text.as_bytes()[self.pos - 1] == b'"' {
                return Ok(match built {
                    None => Cow::Borrowed(tail),
                    Some(mut s) => {
                        s.push_str(tail);
                        Cow::Owned(s)
                    }
                });
            }
            let s = built.get_or_insert_with(|| String::with_capacity(tail.len() + 16));
            s.push_str(tail);
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    // The four chars after `u`, whatever they are.
                    let after = &text[self.pos + 1..];
                    let Some((k3, c3)) = after.char_indices().nth(3) else {
                        return Err("truncated \\u escape".into());
                    };
                    let hex = &after[..k3 + c3.len_utf8()];
                    let n = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                    self.pos += hex.len();
                    char::from_u32(n).ok_or("bad \\u codepoint")?
                }
                _ => return Err(format!("bad escape {:?}", self.rest().chars().next())),
            };
            s.push(c);
            self.pos += 1;
            run = self.pos;
        }
    }

    /// The longest run of `0-9+-.eE` at `pos`, as `f64` reads it.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let len = self
            .rest()
            .bytes()
            .take_while(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
            .count();
        self.pos += len;
        let s = &self.text[start..self.pos];
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error_at(&format!("bad number {s:?}"), start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Json::Obj(vec![
            ("cmd".into(), Json::Str("run".into())),
            (
                "inputs".into(),
                Json::Obj(vec![
                    ("a".into(), Json::Num(1.5)),
                    (
                        "v".into(),
                        Json::Arr(vec![Json::Num(1.0), Json::Num(-2.0), Json::Num(3e-4)]),
                    ),
                ]),
            ),
            ("flag".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn escapes_control_characters_and_quotes() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".into());
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
        assert!(text.contains("\\u0001"), "{text}");
        assert_eq!(quote("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nested(MAX_DEPTH + 1)),
            Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {MAX_DEPTH}"
            ))
        );
        // Objects count alike, and the offset is in chars.
        let objects = |depth: usize| format!("{}1{}", "{\"é\":".repeat(depth), "}".repeat(depth));
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&objects(MAX_DEPTH + 1)),
            Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                5 * MAX_DEPTH
            ))
        );
        assert!(parse_object(&objects(MAX_DEPTH + 1), |_, _| {}).is_err());
        // Depth, not count: a closed array gives its level back.
        let siblings = format!("[{}]", vec![nested(MAX_DEPTH - 1); 3].join(","));
        assert!(parse(&siblings).is_ok());
    }

    #[test]
    fn offsets_count_chars_and_whitespace_is_unicode() {
        assert_eq!(
            parse("\u{3000}[1,\u{2028}2]\u{85}"),
            Ok(Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]))
        );
        assert_eq!(parse("[\"é\" 1]"), Err("expected , at offset 5".into()));
        assert_eq!(
            parse("{1:2}"),
            Err("expected string key at offset 2".into())
        );
        assert_eq!(parse("\"\\u12\""), Err("truncated \\u escape".into()));
        assert_eq!(parse("\"\\ud800\""), Err("bad \\u codepoint".into()));
        assert_eq!(parse("\"\\u+041\""), Ok(Json::Str("A".into())));
        assert_eq!(parse("\"\\x\""), Err("bad escape Some('x')".into()));
        assert_eq!(parse("\"ab\\"), Err("bad escape None".into()));
        assert_eq!(parse("é -"), Err("bad number \"\" at offset 0".into()));
        assert_eq!(parse("1e400"), Ok(Json::Num(f64::INFINITY)));
    }

    #[test]
    fn parse_object_visits_members_in_order_and_borrows_plain_keys() {
        let text = r#" {"a": [1], "b\u0021": "x", "a": null} "#;
        let mut seen = Vec::new();
        parse_object(text, |k, v| {
            seen.push((matches!(k, Cow::Borrowed(_)), k.into_owned(), v))
        })
        .unwrap();
        assert_eq!(
            seen,
            vec![
                (true, "a".to_string(), Json::Arr(vec![Json::Num(1.0)])),
                (false, "b!".to_string(), Json::Str("x".into())),
                (true, "a".to_string(), Json::Null),
            ]
        );
        let mut visited = 0;
        assert_eq!(parse_object("[1, 2]", |_, _| visited += 1), Ok(()));
        assert_eq!(visited, 0, "a non-object top level visits nothing");
        assert_eq!(
            parse_object(r#"{"a": 1} x"#, |_, _| {}),
            Err("trailing garbage at offset 9".into())
        );
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }
}

//! The harness's own JSON writer and reader.
//!
//! Everything the benchmark writes is made of metric names
//! (`[A-Za-z0-9_.-]`), one-line descriptions and numbers, so the writer
//! escapes nothing: it refuses a string that would need escaping. The
//! reader exists for the suite modes, which read back the result line of
//! the child process each workload runs in. Neither touches
//! `banger::serve::json`, so that module can change or go without
//! breaking the frozen benchmark.

/// A JSON value. Objects keep insertion order, so output repeats exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Renders on one line. Numbers print with every digit `f64` needs
    /// to read back exactly; a whole number prints without a fraction.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                assert!(n.is_finite(), "a metric value must be a finite number");
                out.push_str(&format!("{n}"));
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    assert!(
        !s.chars().any(|c| c == '"' || c == '\\' || c.is_control()),
        "the harness writes no string that needs escaping: {s:?}"
    );
    out.push('"');
    out.push_str(s);
    out.push('"');
}

/// Parses what [`Json::render`] writes (and `null`-free JSON without
/// string escapes in general).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.at))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.at).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => {
                self.at += 1;
                let mut pairs = Vec::new();
                if self.peek() == Some(b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    let key = self.string()?;
                    self.eat(b':')?;
                    pairs.push((key, self.value()?));
                    if self.peek() == Some(b',') {
                        self.at += 1;
                    } else {
                        self.eat(b'}')?;
                        return Ok(Json::Obj(pairs));
                    }
                }
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.peek() == Some(b',') {
                        self.at += 1;
                    } else {
                        self.eat(b']')?;
                        return Ok(Json::Arr(items));
                    }
                }
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' | b'f' => {
                for (word, v) in [("true", true), ("false", false)] {
                    if self.bytes[self.at..].starts_with(word.as_bytes()) {
                        self.at += word.len();
                        return Ok(Json::Bool(v));
                    }
                }
                Err(format!("bad literal at offset {}", self.at))
            }
            _ => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.at;
        while let Some(&b) = self.bytes.get(self.at) {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&self.bytes[start..self.at])
                        .map_err(|_| "string is not UTF-8".to_string())?;
                    self.at += 1;
                    return Ok(s.to_string());
                }
                b'\\' => return Err("string escapes are not supported".into()),
                _ => self.at += 1,
            }
        }
        Err("unterminated string".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_keeps_every_digit_and_the_key_order() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            (
                "metrics",
                Json::obj([
                    (
                        "op_p50_ms",
                        Json::obj([
                            ("value", Json::Num(0.061_234_567_890_123)),
                            ("unit", Json::str("ms")),
                        ]),
                    ),
                    ("tiny", Json::Num(1.5e-9)),
                    ("neg", Json::Num(-3.25)),
                ]),
            ),
            (
                "list",
                Json::Arr(vec![Json::Num(1.0), Json::str("a b"), Json::Arr(vec![])]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = v.render();
        assert!(
            text.starts_with("{\"correct\": true, \"attempted\": 1000, "),
            "{text}"
        );
        assert!(!text.contains('\n'));
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn reader_rejects_what_the_writer_never_writes() {
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("\"a\\n\"").is_err());
        assert!(parse("[1, ").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    #[should_panic(expected = "needs escaping")]
    fn writer_refuses_a_string_it_would_have_to_escape() {
        Json::str("say \"hi\"").render();
    }
}

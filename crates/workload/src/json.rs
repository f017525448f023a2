//! Minimal std-only JSON value and reader.
//!
//! Exists so JSON this repository writes — `BENCHMARK.json`, the
//! benchmark's span dumps — can be read back in tests without pulling
//! serde into a container that pins its dependency set. Covers exactly
//! that JSON: objects with string keys, arrays, finite numbers, strings
//! without exotic escapes, booleans and null. Input is untrusted: a
//! malformed document is a [`ParseError`], and nesting is capped at
//! [`MAX_DEPTH`] so a hostile one cannot exhaust the stack.

use std::fmt;

/// A parsed JSON value. Object keys keep their source order (artifact
/// diffs stay stable).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64` — artifact magnitudes are all safe).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (`None` on non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True when this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Deepest array/object nesting [`parse`] accepts. The reader recurses once
/// per level; nothing this tree emits nests deeper than a handful.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected, nesting beyond [`MAX_DEPTH`] rejected).
pub fn parse(src: &str) -> Result<Json, ParseError> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after document"));
    }
    Ok(value)
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err(at: usize, msg: &str) -> ParseError {
    ParseError {
        at,
        msg: msg.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(*pos, &format!("expected `{lit}`")))
    }
}

/// `depth` is the number of arrays/objects open around this value.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(err(*pos, "nesting too deep")),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(_) => Err(err(*pos, "unexpected character")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    _ => return Err(err(*pos, "unsupported escape")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 passes through byte-wise; artifacts
                // are ASCII in practice, but don't mangle anything.
                let start = *pos;
                let width = utf8_width(c);
                *pos += width;
                match std::str::from_utf8(&bytes[start..(start + width).min(bytes.len())]) {
                    Ok(s) => out.push_str(s),
                    Err(_) => return Err(err(start, "invalid UTF-8 in string")),
                }
            }
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "bad number"))?;
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Json::Num(n)),
        _ => Err(err(start, "bad number")),
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    *pos += 1; // [
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]`")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    *pos += 1; // {
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected object key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected `:`"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(err(*pos, "expected `,` or `}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_artifact_shapes() {
        let doc = parse(
            r#"{"bench": "workload", "pr": 7, "ok": true, "none": null,
                "xs": [1, -2.5, 3e2], "nested": {"p99_us": 12.75}}"#,
        )
        .expect("parse");
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("workload"));
        assert_eq!(doc.get("pr").and_then(Json::as_f64), Some(7.0));
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert!(doc.get("none").is_some_and(Json::is_null));
        let xs = doc.get("xs").and_then(Json::as_arr).expect("xs");
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2].as_f64(), Some(300.0));
        assert_eq!(
            doc.get("nested")
                .and_then(|n| n.get("p99_us"))
                .and_then(Json::as_f64),
            Some(12.75)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} extra",
            "nul",
            "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input: {bad:?}");
        }
    }

    #[test]
    fn string_escapes_are_decoded() {
        let doc = parse(r#"{"s": "line\n\"quoted\"\tand \\ slash"}"#).expect("parse");
        assert_eq!(
            doc.get("s").and_then(Json::as_str),
            Some("line\n\"quoted\"\tand \\ slash")
        );
    }

    #[test]
    fn parses_the_benchmark_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let workloads = doc.get("workloads").and_then(Json::as_arr).expect("array");
        assert!(workloads
            .iter()
            .any(|w| w.get("name").and_then(Json::as_str) == Some("sim_paper")));
    }

    /// `open` repeated `depth` times around a `1`, closed again.
    fn nested(open: &[&str], close: &[&str], depth: usize) -> String {
        let opens: String = (0..depth).map(|i| open[i % open.len()]).collect();
        let closes: String = (0..depth).rev().map(|i| close[i % close.len()]).collect();
        format!("{opens}1{closes}")
    }

    #[test]
    fn nesting_is_accepted_up_to_the_cap_and_refused_past_it() {
        let shapes: [(&[&str], &[&str]); 3] = [
            (&["["], &["]"]),
            (&["{\"a\":"], &["}"]),
            (&["[", "{\"a\":"], &["]", "}"]),
        ];
        for (open, close) in shapes {
            assert!(parse(&nested(open, close, MAX_DEPTH)).is_ok(), "{open:?}");
            let e = parse(&nested(open, close, MAX_DEPTH + 1)).expect_err("past the cap");
            assert_eq!(e.msg, "nesting too deep", "{open:?}");
        }
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
    }
}

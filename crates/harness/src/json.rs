//! A tiny JSON writer and parser — enough for the campaign cache, the
//! reports and the observability exports without pulling in serde.
//!
//! The writer builds objects/arrays of scalars and nested values; [`parse`]
//! is a strict recursive-descent reader that turns a document back into a
//! [`Json`] tree (the campaign runner and report generator consume their
//! own cached artifacts through it, and the report writers and tests use it
//! to assert that emitted files are well-formed). Numbers round-trip
//! exactly: the writer's `{n}` form is Rust's shortest-roundtrip `f64`
//! display, so `parse(render(x)) == x` for every finite value.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. It recurses once per
/// level, so without a limit a hostile document (a megabyte of `[`) would
/// overflow the thread's stack and abort the process; past this depth it
/// returns an error instead.
pub const MAX_DEPTH: usize = 128;

/// A JSON value assembled programmatically.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds/overwrites a field on an object (no-op on other variants).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        if let Json::Obj(fields) = self {
            match fields.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value.into(),
                None => fields.push((key.to_owned(), value.into())),
            }
        }
        self
    }

    /// Builder-style [`Json::set`].
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.set(key, value);
        self
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on one line with no whitespace: the NDJSON form used by
    /// the campaign daemon's streaming responses, where each event must be
    /// exactly one `\n`-terminated line. Values and key order are identical
    /// to [`Json::render`] — only the layout differs — so
    /// `parse(render_compact(x)) == parse(render(x))`.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// The value of `key` on an object (`None` for other variants or a
    /// missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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

    /// The boolean value, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_) => self.write(out, 0),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 9e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// Parses one well-formed JSON document into a [`Json`] tree. Object keys
/// keep their document order, so `parse(x.render()).render() == x.render()`.
///
/// # Errors
///
/// Returns a description (with byte offset) of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = read_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

/// Refuses an array or object opening at `pos` when `depth` arrays and
/// objects are already open around it and that is [`MAX_DEPTH`] or more.
fn check_depth(b: &[u8], pos: usize, depth: usize) -> Result<(), String> {
    if depth >= MAX_DEPTH && matches!(b.get(pos), Some(b'[' | b'{')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    Ok(())
}

/// Reads the value at `pos`, which sits inside `depth` open arrays and
/// objects.
fn read_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    check_depth(b, *pos, depth)?;
    match b.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            let mut fields = Vec::new();
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = read_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}", pos = *pos));
                }
                *pos += 1;
                skip_ws(b, pos);
                fields.push((key, read_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            let mut items = Vec::new();
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                skip_ws(b, pos);
                items.push(read_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => read_string(b, pos).map(Json::Str),
        Some(b't') => parse_literal(b, pos, b"true").map(|()| Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, b"false").map(|()| Json::Bool(false)),
        Some(b'n') => parse_literal(b, pos, b"null").map(|()| Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            parse_number(b, pos)?;
            let span = std::str::from_utf8(&b[start..*pos])
                .map_err(|_| format!("bad number at byte {start}"))?;
            span.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number at byte {start}"))
        }
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}", pos = *pos)),
    }
}

fn read_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    let start = *pos;
    parse_string(b, pos)?;
    // The validated span (minus the quotes) is UTF-8 by construction —
    // `b` came from a &str — so only escapes need decoding.
    let raw = std::str::from_utf8(&b[start + 1..*pos - 1])
        .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?;
    if !raw.contains('\\') {
        return Ok(raw.to_owned());
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('/') => out.push('/'),
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let cp = u32::from_str_radix(&hex, 16)
                    .map_err(|_| format!("bad \\u escape in string at byte {start}"))?;
                let decoded = if (0xd800..0xdc00).contains(&cp) {
                    // High surrogate: require a trailing low surrogate.
                    let mut rest = chars.clone();
                    let pair: String = rest.by_ref().take(6).collect();
                    let low = pair
                        .strip_prefix("\\u")
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .filter(|lo| (0xdc00..0xe000).contains(lo));
                    match low {
                        Some(lo) => {
                            chars = rest;
                            0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00)
                        }
                        None => {
                            return Err(format!("unpaired surrogate in string at byte {start}"))
                        }
                    }
                } else {
                    cp
                };
                out.push(
                    char::from_u32(decoded)
                        .ok_or_else(|| format!("bad \\u escape in string at byte {start}"))?,
                );
            }
            _ => return Err(format!("bad escape in string at byte {start}")),
        }
    }
    Ok(out)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        if b.len() < *pos + 5
                            || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at byte {pos}", pos = *pos));
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_owned())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_parses() {
        let j = Json::object()
            .with("name", "bench \"x\"\n")
            .with("iters", 100u64)
            .with("median_ns", 12.5)
            .with("ok", true)
            .with(
                "nested",
                Json::object().with("empty_arr", Json::Arr(vec![])),
            )
            .with(
                "values",
                Json::Arr(vec![Json::Num(1.0), Json::Null, Json::Str("s".into())]),
            );
        let text = j.render();
        parse(&text).expect("writer must emit valid JSON");
        assert!(text.contains("\"median_ns\": 12.5"));
        assert!(text.contains("\\\"x\\\""));
    }

    #[test]
    fn compact_render_is_one_line_and_parse_equivalent() {
        let j = Json::object()
            .with("name", "bench \"x\"\n")
            .with("iters", 100u64)
            .with("median_ns", 12.5)
            .with("empty", Json::object())
            .with(
                "values",
                Json::Arr(vec![Json::Num(1.0), Json::Null, Json::Str("s".into())]),
            );
        let compact = j.render_compact();
        assert!(!compact.contains('\n'), "one line, no trailing newline");
        assert!(compact.contains("\"iters\":100"));
        assert_eq!(parse(&compact).expect("compact parses"), j);
        assert_eq!(
            parse(&compact).expect("compact"),
            parse(&j.render()).expect("pretty"),
            "layouts parse to the same tree"
        );
    }

    #[test]
    fn set_overwrites_existing_key() {
        let mut j = Json::object().with("a", 1u64);
        j.set("a", 2u64);
        assert_eq!(j, Json::object().with("a", 2u64));
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(3.0).render(), "3\n");
        assert_eq!(Json::Num(3.25).render(), "3.25\n");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
    }

    #[test]
    fn parse_accepts_standard_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            r#"{"a": [1, 2, {"b": "c"}], "d": null}"#,
            "  [true, false]  ",
            r#""é\n""#,
        ] {
            parse(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let j = Json::object()
            .with("name", "bench \"x\"\n\t\\")
            .with("iters", 100u64)
            .with("median_ns", 12.5)
            .with("tiny", 1.0000000000000002e-3)
            .with("neg", -7i64)
            .with("ok", true)
            .with("missing", Json::Null)
            .with(
                "nested",
                Json::object().with("empty_arr", Json::Arr(vec![])),
            )
            .with(
                "values",
                Json::Arr(vec![Json::Num(1.0), Json::Null, Json::Str("s".into())]),
            );
        let text = j.render();
        let parsed = parse(&text).expect("writer output parses");
        assert_eq!(parsed, j, "tree round-trips");
        assert_eq!(parsed.render(), text, "bytes round-trip");
    }

    #[test]
    fn parse_decodes_escapes_and_surrogates() {
        let parsed = parse(r#""a\u0041\u00e9\ud83d\ude00\u000a""#).expect("escapes");
        assert_eq!(parsed.as_str(), Some("aAé😀\n"));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired surrogate rejected");
    }

    #[test]
    fn accessors_select_by_variant() {
        let j = parse(r#"{"n": 2.5, "s": "x", "a": [1], "b": false}"#).expect("parses");
        assert_eq!(j.get("n").and_then(Json::as_f64), Some(2.5));
        assert_eq!(j.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(
            j.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(j.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(j.get("zzz"), None);
        assert_eq!(j.get("n").and_then(Json::as_str), None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "01x",
            "\"unterminated",
            "{} extra",
            "1.e5",
            "\"bad\\q\"",
            "\"\\u12\"",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed: {bad}");
        }
    }

    #[test]
    fn nesting_is_bounded_in_parse() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let deepest = nested(MAX_DEPTH);
        parse(&deepest).expect("MAX_DEPTH levels parse");
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        for bad in [nested(MAX_DEPTH + 1), objects, "[".repeat(1 << 20)] {
            let e = parse(&bad).expect_err("too deep for parse");
            assert!(e.contains("nesting deeper than 128"), "{e}");
        }
        // A megabyte of `[` on a thread with a small stack returns an error
        // instead of overflowing the stack.
        let small_stack = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(|| parse(&"[".repeat(1 << 20)).is_err())
            .expect("spawn");
        assert!(small_stack.join().expect("no stack overflow"));
    }
}

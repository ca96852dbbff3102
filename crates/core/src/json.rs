//! A minimal JSON value with a canonical writer and a strict parser.
//!
//! The harness needs to round-trip [`crate::harness::RunSpec`]s and
//! [`crate::harness::CaseReport`]s through text — for the on-disk report
//! cache, for `--json-stream` lines, and for shipping spec lists to remote
//! shards — without pulling a serialization framework into the build. The
//! value model is deliberately small: every quantity the harness stores is
//! an integer, a string, a bool, or a composite of those, so floats are
//! rejected outright and the writer has exactly one encoding per value
//! (field order is preserved, strings are minimally escaped). That makes
//! "byte-identical" a meaningful contract: equal values produce equal
//! bytes.

use std::fmt;

/// A parsed or buildable JSON value (no floats — see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (wide enough for `u64` and `u128` nanosecond spans).
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is the canonical order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// `Int` from any unsigned quantity the harness stores.
    #[must_use]
    pub fn u64(v: u64) -> Json {
        Json::Int(i128::from(v))
    }

    /// `Int` from a signed quantity.
    #[must_use]
    pub fn i64(v: i64) -> Json {
        Json::Int(i128::from(v))
    }

    /// `Str` from anything stringy.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// `value` or `null`.
    #[must_use]
    pub fn opt(v: Option<Json>) -> Json {
        v.unwrap_or(Json::Null)
    }

    /// Looks up a field of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The field, or an error naming it (for decoder use).
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// This value as a `u64`.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::Int(i) => u64::try_from(*i).map_err(|_| format!("{i} out of u64 range")),
            other => Err(format!("expected integer, got {other}")),
        }
    }

    /// This value as an `i64`.
    pub fn as_i64(&self) -> Result<i64, String> {
        match self {
            Json::Int(i) => i64::try_from(*i).map_err(|_| format!("{i} out of i64 range")),
            other => Err(format!("expected integer, got {other}")),
        }
    }

    /// This value as a `u128`.
    pub fn as_u128(&self) -> Result<u128, String> {
        match self {
            Json::Int(i) => u128::try_from(*i).map_err(|_| format!("{i} out of u128 range")),
            other => Err(format!("expected integer, got {other}")),
        }
    }

    /// This value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, String> {
        usize::try_from(self.as_u64()?).map_err(|e| e.to_string())
    }

    /// This value as a bool.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {other}")),
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other}")),
        }
    }

    /// `None` for `null`, otherwise `Some(map(self))`.
    pub fn as_opt<T>(
        &self,
        map: impl FnOnce(&Json) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self {
            Json::Null => Ok(None),
            other => map(other).map(Some),
        }
    }
}

/// Escapes `s` into `out` as a JSON string literal body.
pub fn escape_into(s: &str, out: &mut String) {
    use fmt::Write as _;
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
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Str(s) => {
                let mut body = String::with_capacity(s.len());
                escape_into(s, &mut body);
                write!(f, "\"{body}\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut key = String::with_capacity(k.len());
                    escape_into(k, &mut key);
                    write!(f, "\"{key}\":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so an unbounded line of `[` would overflow the stack; every
/// document this crate writes nests at most 5 deep.
const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document (trailing whitespace allowed, floats,
/// nesting deeper than [`MAX_DEPTH`] and any trailing garbage rejected).
///
/// # Errors
///
/// Returns a message describing the first syntax problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at offset {pos}", b as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at offset {pos}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
                }
            }
        }
        Some(b'-' | b'0'..=b'9') => parse_int(bytes, pos),
        Some(other) => Err(format!(
            "unexpected byte `{}` at offset {pos}",
            *other as char
        )),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_int(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if matches!(bytes.get(*pos), Some(b'.' | b'e' | b'E')) {
        return Err(format!("floats are not supported (offset {start})"));
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ascii");
    text.parse::<i128>()
        .map(Json::Int)
        .map_err(|e| format!("bad integer `{text}`: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so byte
                // boundaries are trustworthy).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// 64-bit FNV-1a over `bytes` — the stable content hash used for cache
/// keys (Rust's `DefaultHasher` is explicitly unstable across releases, so
/// an on-disk cache cannot use it).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_composites() {
        let v = Json::obj(vec![
            ("name", Json::str("a\"b\\c\nd\ttab")),
            ("n", Json::Int(-42)),
            ("big", Json::u64(u64::MAX)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            (
                "list",
                Json::Arr(vec![Json::Int(1), Json::str("x"), Json::Null]),
            ),
            ("empty_obj", Json::Obj(vec![])),
            ("empty_arr", Json::Arr(vec![])),
        ]);
        let text = v.to_string();
        let back = parse(&text).expect("parses");
        assert_eq!(back, v);
        // Canonical: re-encoding is byte-identical.
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn rejects_floats_and_garbage() {
        assert!(parse("1.5").is_err());
        assert!(parse("1e3").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("\"unterminated").is_err());
        // Nesting is capped, not left to overflow the stack.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse(&format!("{}1{}", "{\"a\":".repeat(65), "}".repeat(65))).is_err());
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse("\"a\\u0041\\n\\t\\\\ λ\"").expect("parses");
        assert_eq!(v, Json::str("aA\n\t\\ λ"));
    }

    #[test]
    fn fnv_is_stable() {
        // Known FNV-1a vectors; the cache key format depends on these.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
    }
}

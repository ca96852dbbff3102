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

    /// Appends the canonical encoding of `self` to `out`: the one encoder
    /// every report line, cache entry and spec line goes through
    /// ([`fmt::Display`] delegates here). Strings are escaped by
    /// [`escape_into`] and integers written digit by digit, so the only
    /// allocation is `out`'s own growth.
    pub fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write_int(*i, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// The starting size of a buffer that will hold one encoded line (the
/// [`fmt::Display`] buffer, a cache identity). Spec and report lines run
/// from about 150 to 600 bytes, so one allocation holds most of them where
/// growing from empty would reallocate six or seven times.
pub(crate) const LINE_CAPACITY: usize = 512;

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::with_capacity(LINE_CAPACITY);
        self.write_into(&mut text);
        f.write_str(&text)
    }
}

/// Appends `s` to `out` as a quoted JSON string literal.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// Escapes `s` into `out` as a JSON string literal body: `"`, `\` and the
/// control characters are escaped (`\n`, `\r` and `\t` by name, the rest as
/// `\u00xx`), everything else is copied. Every byte that needs escaping is
/// ASCII, so the bytes between two of them are whole UTF-8 sequences and
/// go across in one copy.
pub fn escape_into(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut copied = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let named = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[copied..i]);
        if named.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(named);
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
}

/// Appends the decimal digits of `v` to `out`. Digits are produced in
/// `u64` arithmetic once the magnitude fits, so only the rare value past
/// `u64::MAX` pays for 128-bit division.
fn write_int(v: i128, out: &mut String) {
    if v < 0 {
        out.push('-');
    }
    // u128::MAX, the largest magnitude, has 39 digits.
    let mut digits = [0u8; 39];
    let mut at = digits.len();
    let mut wide = v.unsigned_abs();
    while wide > u128::from(u64::MAX) {
        at -= 1;
        digits[at] = b'0' + (wide % 10) as u8;
        wide /= 10;
    }
    let mut n = wide as u64;
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ascii digits"));
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so an unbounded line of `[` would overflow the stack; every
/// document this crate writes nests at most 5 deep.
const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document (trailing whitespace allowed, floats,
/// nesting deeper than [`MAX_DEPTH`] and any trailing garbage rejected).
/// Linear in the length of `text`.
///
/// # Errors
///
/// Returns a message describing the first syntax problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut pos = 0;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
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

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at offset {pos}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
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
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, pos, depth + 1)?;
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

/// Parses the string literal at `pos`. The bytes between two delimiters
/// (`"` or `\`) go across in one copy: both delimiters are ASCII, so the
/// run is whole UTF-8 sequences of `text`, which is already valid.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let start = *pos;
        let run = bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        out.push_str(&text[start..start + run]);
        *pos = start + run + 1;
        if bytes[start + run] == b'"' {
            return Ok(out);
        }
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
    fn escapes_match_the_pinned_vectors() {
        // The bytes the writer has always produced: `\n`, `\r` and `\t` by
        // name, every other control character as lowercase `\u00xx`, DEL
        // and non-ASCII text copied as they are.
        let controls: String = (0u8..0x20).map(char::from).collect();
        let v = Json::obj(vec![
            ("s", Json::str(format!("{controls}\"\\/\u{7f}λ€😀"))),
            ("a", Json::str("\u{8}")),
            ("b", Json::str("\u{1f}")),
            ("c", Json::str("\n")),
            ("min", Json::Int(i128::MIN)),
            ("max", Json::Int(i128::MAX)),
            ("u", Json::u64(u64::MAX)),
        ]);
        let pinned = concat!(
            r#"{"s":"\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b"#,
            r#"\u000c\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017"#,
            r#"\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f\"\\/"#,
            "\u{7f}λ€😀",
            r#"","a":"\u0008","b":"\u001f","c":"\n","#,
            r#""min":-170141183460469231731687303715884105728,"#,
            r#""max":170141183460469231731687303715884105727,"u":18446744073709551615}"#,
        );
        assert_eq!(v.to_string(), pinned);
        let mut body = String::new();
        escape_into("\u{8}\u{1f}\n", &mut body);
        assert_eq!(body, r"\u0008\u001f\n");
    }

    /// Random trees over the whole value model: strings drawn from every
    /// control character, the two escaped printables, `/`, DEL and
    /// multi-byte UTF-8; integers from the extremes and from random bits.
    struct Trees;

    impl Trees {
        fn string(rng: &mut proptest::TestRng) -> String {
            const POOL: &[char] = &[
                '"', '\\', '/', '\u{7f}', 'a', 'Z', ' ', 'λ', '€', '😀', '\u{ffff}',
            ];
            let len = rng.next_u64() % 12;
            (0..len)
                .map(|_| {
                    let pick = rng.next_u64();
                    if pick.is_multiple_of(2) {
                        char::from((pick >> 8) as u8 % 0x20)
                    } else {
                        POOL[(pick >> 8) as usize % POOL.len()]
                    }
                })
                .collect()
        }

        fn int(rng: &mut proptest::TestRng) -> i128 {
            const EDGES: &[i128] = &[
                i128::MIN,
                i128::MAX,
                u64::MAX as i128,
                i64::MIN as i128,
                -1,
                0,
                9,
                10,
            ];
            let pick = rng.next_u64();
            match pick % 3 {
                0 => EDGES[(pick >> 8) as usize % EDGES.len()],
                1 => i128::from(rng.next_u64() as i64),
                _ => (i128::from(rng.next_u64()) << 64 | i128::from(rng.next_u64())) >> (pick % 64),
            }
        }

        fn tree(rng: &mut proptest::TestRng, depth: u32) -> Json {
            let kinds = if depth == 0 { 4 } else { 6 };
            match rng.next_u64() % kinds {
                0 => Json::Null,
                1 => Json::Bool(rng.next_u64().is_multiple_of(2)),
                2 => Json::Int(Trees::int(rng)),
                3 => Json::Str(Trees::string(rng)),
                4 => Json::Arr(
                    (0..rng.next_u64() % 4)
                        .map(|_| Trees::tree(rng, depth - 1))
                        .collect(),
                ),
                _ => Json::Obj(
                    (0..rng.next_u64() % 4)
                        .map(|_| (Trees::string(rng), Trees::tree(rng, depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    impl proptest::Strategy for Trees {
        type Value = Json;
        fn generate(&self, rng: &mut proptest::TestRng) -> Json {
            Trees::tree(rng, 4)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]
        #[test]
        fn random_trees_round_trip_byte_identically(v in Trees) {
            let text = v.to_string();
            let mut written = String::new();
            v.write_into(&mut written);
            proptest::prop_assert_eq!(&written, &text);
            let back = parse(&text).map_err(proptest::TestCaseError::fail)?;
            proptest::prop_assert_eq!(&back, &v);
            proptest::prop_assert_eq!(back.to_string(), text);
        }
    }

    #[test]
    fn a_4_mib_string_parses_in_linear_time() {
        // Runs of plain text between escapes and multi-byte characters,
        // 4 MiB in all: the old per-character re-validation of the rest of
        // the line would have walked about 8 TB.
        let chunk = format!("{}\\n\\\"λ€", "x".repeat(1000));
        let body = chunk.repeat((4 << 20) / chunk.len());
        let line = format!("{{\"console\":\"{body}\",\"n\":1}}");
        let started = std::time::Instant::now();
        let v = parse(&line).expect("parses");
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "parsing {} bytes took {elapsed:?}",
            line.len()
        );
        assert_eq!(v.to_string(), line);
    }

    #[test]
    fn fnv_is_stable() {
        // Known FNV-1a vectors; the cache key format depends on these.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
    }
}

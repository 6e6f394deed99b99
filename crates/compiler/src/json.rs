//! A minimal hand-rolled JSON reader (resilience layer, DESIGN.md §11).
//!
//! The workspace emits all of its reports with hand-formatted JSON; the
//! checkpoint/resume machinery is the first consumer that must *read* some
//! of it back, and `ccomp-o serve` decodes its request frames with it. This
//! is a small recursive-descent parser over the subset the reports use —
//! objects, arrays, strings (every JSON escape, UTF-16 surrogate pairs
//! included), integers, floats, booleans, null — linear in the input.
//! Numbers are kept as their raw source text and parsed on demand
//! ([`Json::as_u64`] / [`Json::as_i64`]), so 64-bit counters round-trip
//! exactly (an `f64` intermediate would corrupt values above 2^53).
//!
//! No serde, no dependencies — the workspace stays offline by design.

/// A parsed JSON value. Object member order is preserved (the reports are
/// emitted with deterministic member order, and checkpoints byte-compare).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as raw source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source member order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number parsed as `u64`, when this is an unsigned integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `i64`, when this is an integer.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, when this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, when this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
/// A human-readable message with the byte offset of the failure.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut pos = 0usize;
    let value = parse_value(src, &mut pos)?;
    skip_ws(src.as_bytes(), &mut pos);
    if pos != src.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at byte {}",
            char::from(ch),
            *pos
        ))
    }
}

fn parse_value(src: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = src.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(src, pos),
        Some(b'[') => parse_array(src, pos),
        Some(b'"') => parse_string(src, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected `{word}` at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(format!("expected a number at byte {start}"));
    }
    let raw = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("invalid UTF-8 in number at byte {start}"))?;
    // Validate by parsing as f64 (accepts every JSON number form).
    raw.parse::<f64>()
        .map_err(|_| format!("malformed number `{raw}` at byte {start}"))?;
    Ok(Json::Num(raw.to_string()))
}

/// Decode a string in one pass: each run up to the next `"` or `\` is
/// copied as one slice of `src`. Both ends of a run sit on ASCII bytes,
/// hence on char boundaries.
fn parse_string(src: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = src.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| "unterminated string".to_string())?;
        out.push_str(&src[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b't') => out.push('\t'),
            Some(b'r') => out.push('\r'),
            Some(b'b') => out.push('\u{0008}'),
            Some(b'f') => out.push('\u{000C}'),
            Some(b'u') => {
                let mut code = hex4(bytes, *pos + 1)
                    .ok_or_else(|| format!("invalid \\u escape at byte {}", *pos))?;
                *pos += 4;
                // A high surrogate followed by `\u` and a low one is a
                // UTF-16 pair (how JSON writes a non-BMP character); an
                // unpaired surrogate decodes to U+FFFD.
                if (0xD800..0xDC00).contains(&code) && bytes[*pos + 1..].starts_with(b"\\u") {
                    if let Some(lo @ 0xDC00..=0xDFFF) = hex4(bytes, *pos + 3) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                        *pos += 6;
                    }
                }
                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
            }
            _ => return Err(format!("invalid escape at byte {}", *pos)),
        }
        *pos += 1;
    }
}

/// The four ASCII hex digits of a `\u` escape starting at byte `at`.
fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    bytes.get(at..at + 4)?.iter().try_fold(0, |code, &b| {
        char::from(b).to_digit(16).map(|d| code * 16 + d)
    })
}

fn parse_array(src: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = src.as_bytes();
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(src, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(src: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = src.as_bytes();
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(src, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(src, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

/// JSON string escaping, the exact inverse of what [`parse`] unescapes
/// (one escaper for the workspace, kept in `compcerto_core`).
pub use compcerto_core::json::escape;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use compcerto_core::rng::SplitMix64;

    /// Seeded codec inputs: printable-ASCII runs of random length mixed
    /// with every character `escape` rewrites and with multibyte ones;
    /// every other string starts and ends with a multibyte character.
    pub(crate) fn seeded_strings() -> Vec<String> {
        const MIXED: [char; 10] = [
            '"', '\\', '\n', '\t', '\r', '\u{1}', '\u{1f}', 'é', '€', '😀',
        ];
        const WIDE: [char; 3] = ['é', '€', '😀'];
        let mut rng = SplitMix64::new(0x6a73_6f6e);
        (0..256)
            .map(|n| {
                let mut s = String::new();
                let ends = n % 2 == 0;
                if ends {
                    s.push(WIDE[rng.range_usize(0, WIDE.len())]);
                }
                for _ in 0..rng.range_usize(0, 12) {
                    for _ in 0..rng.range_usize(0, 40) {
                        s.push(char::from(rng.range_usize(0x20, 0x7f) as u8));
                    }
                    s.push(MIXED[rng.range_usize(0, MIXED.len())]);
                }
                if ends {
                    s.push(WIDE[rng.range_usize(0, WIDE.len())]);
                }
                s
            })
            .collect()
    }

    /// The char-at-a-time definition `escape` must keep matching.
    fn escape_reference(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    #[test]
    fn escape_matches_its_reference_and_parse_inverts_it() {
        for s in seeded_strings() {
            let escaped = escape(&s);
            assert_eq!(escaped, escape_reference(&s), "escape of {s:?}");
            assert_eq!(
                parse(&format!("\"{escaped}\"")),
                Ok(Json::Str(s.clone())),
                "round trip of {s:?}"
            );
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 1 MiB: each 64-byte chunk is 60 ASCII bytes, a 2-byte character
        // and one escape. A decoder that re-validates the rest of the
        // input per character takes tens of seconds here.
        let chunk = format!("{}é\\n", "a".repeat(60));
        let doc = format!("\"{}\"", chunk.repeat(1 << 14));
        let start = std::time::Instant::now();
        let parsed = parse(&doc);
        let took = start.elapsed();
        let want = format!("{}é\n", "a".repeat(60)).repeat(1 << 14);
        assert_eq!(parsed, Ok(Json::Str(want)));
        assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
    }

    #[test]
    fn unicode_escapes_decode_surrogate_pairs() {
        let s = |src: &str| parse(src).map(|j| j.as_str().map(str::to_string));
        assert_eq!(s(r#""\ud83d\ude00""#), Ok(Some("😀".into())));
        assert_eq!(s(r#""a\uD83D\uDE00b""#), Ok(Some("a😀b".into())));
        assert_eq!(s(r#""\u00e9\u00E9""#), Ok(Some("éé".into())));
        // Unpaired halves keep decoding to U+FFFD.
        assert_eq!(s(r#""\ud83dx""#), Ok(Some("\u{FFFD}x".into())));
        assert_eq!(s(r#""\ud83d""#), Ok(Some("\u{FFFD}".into())));
        assert_eq!(s(r#""\ud83d\u0041""#), Ok(Some("\u{FFFD}A".into())));
        assert_eq!(s(r#""\ud83d\ud83d""#), Ok(Some("\u{FFFD}\u{FFFD}".into())));
        assert_eq!(s(r#""\ude00""#), Ok(Some("\u{FFFD}".into())));
        assert_eq!(s(r#""\ude00\ud83d""#), Ok(Some("\u{FFFD}\u{FFFD}".into())));
    }

    #[test]
    fn unicode_escapes_need_four_hex_digits() {
        for bad in [
            r#""\u+041""#,
            r#""\u 041""#,
            r#""\u12""#,
            r#""\u00é""#,
            r#""\ud83d\u+e00""#,
        ] {
            assert!(parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null"), Ok(Json::Null));
        assert_eq!(parse("true"), Ok(Json::Bool(true)));
        assert_eq!(parse(" false "), Ok(Json::Bool(false)));
        assert_eq!(parse("42").and_then(|j| j.as_u64().ok_or_else(String::new)), Ok(42));
        assert_eq!(
            parse("-7").and_then(|j| j.as_i64().ok_or_else(String::new)),
            Ok(-7)
        );
        assert_eq!(parse("\"hi\\n\\\"there\\\"\""), Ok(Json::Str("hi\n\"there\"".into())));
    }

    #[test]
    fn u64_counters_round_trip_exactly() {
        let big = u64::MAX - 3;
        let j = parse(&big.to_string()).expect("parses");
        assert_eq!(j.as_u64(), Some(big));
    }

    #[test]
    fn parses_nested_structures() {
        let src = r#"{"schema":"compcerto-ckpt/1","n":3,"rows":[{"k":"a","v":1},{"k":"b","v":2}],"ok":true}"#;
        let j = parse(src).expect("parses");
        assert_eq!(j.get("schema").and_then(Json::as_str), Some("compcerto-ckpt/1"));
        assert_eq!(j.get("n").and_then(Json::as_u64), Some(3));
        let rows = j.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("k").and_then(Json::as_str), Some("b"));
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn control_escapes_round_trip() {
        let j = parse("\"a\\u0007b\"").expect("parses");
        assert_eq!(j.as_str(), Some("a\u{7}b"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }
}

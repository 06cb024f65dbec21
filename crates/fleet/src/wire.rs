//! A minimal JSON reader for every Quanto wire format.
//!
//! The work-queue protocol ([`crate::dist`]), the on-disk cache
//! ([`crate::cache`]) and the `quanto-serve` client protocol all speak
//! single-line JSON documents that this workspace also *writes* (see
//! `docs/PROTOCOL.md` for the contracts), so the reader only has to cover
//! the subset the writers emit:
//! objects, arrays, strings (with the standard escapes), unsigned decimal
//! integers, booleans and `null`.  Floats never appear on the wire — every
//! `f64` travels as its IEEE-754 bit pattern in a `u64`, because digests
//! fold those exact bits and a decimal round-trip could perturb them.
//!
//! Anything outside that subset — signed numbers, fractions, exponents,
//! trailing garbage, truncated input, arrays and objects nested deeper than
//! [`MAX_DEPTH`] — is a parse failure, which callers treat as "corrupt": a
//! cache miss, or a dead shard connection.  Never a panic, and never a
//! silently-wrong value.

use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`Value::parse`] accepts.
/// The writers nest at most five levels (a cache entry's record); the cap
/// keeps a hostile line of brackets from recursing the reader off its
/// stack.
pub const MAX_DEPTH: usize = 64;

/// One parsed JSON value from the wire subset.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned decimal integer (the only number form the writers emit).
    UInt(u64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses one complete document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Option<Value> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return None;
        }
        Some(value)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// This value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `get(key)` then [`Value::as_u64`].
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// `get(key)` then [`Value::as_str`].
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// `get(key)`, where `null` (or absence is NOT forgiven — the field must
    /// be present) maps to `None` inside `Some`: `Some(None)` for an
    /// explicit `null`, `Some(Some(n))` for a number, `None` for anything
    /// else or a missing field.
    pub fn get_opt_u64(&self, key: &str) -> Option<Option<u64>> {
        match self.get(key)? {
            Value::Null => Some(None),
            Value::UInt(n) => Some(Some(*n)),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => *pos += 1,
            _ => break,
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Option<()> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Some(())
    } else {
        None
    }
}

/// Parses the value at `pos`, which sits inside `depth` open arrays and
/// objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Value> {
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'{' | b'[' if depth == MAX_DEPTH => None,
        b'{' => parse_obj(bytes, pos, depth + 1),
        b'[' => parse_arr(bytes, pos, depth + 1),
        b'"' => Some(Value::Str(parse_string(bytes, pos)?)),
        b'0'..=b'9' => parse_uint(bytes, pos),
        b't' => parse_lit(bytes, pos, b"true", Value::Bool(true)),
        b'f' => parse_lit(bytes, pos, b"false", Value::Bool(false)),
        b'n' => parse_lit(bytes, pos, b"null", Value::Null),
        _ => None,
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &[u8], value: Value) -> Option<Value> {
    if bytes.len() - *pos >= lit.len() && &bytes[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Some(value)
    } else {
        None
    }
}

fn parse_uint(bytes: &[u8], pos: &mut usize) -> Option<Value> {
    let start = *pos;
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    // A fraction or exponent would silently truncate; the writers never
    // emit them, so their appearance means corruption.
    if matches!(bytes.get(*pos), Some(b'.' | b'e' | b'E')) {
        return None;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()?
        .parse::<u64>()
        .ok()
        .map(Value::UInt)
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Copy the run up to the next quote, backslash or control
                // byte in one go.  All three are ASCII, which never occurs
                // inside a multi-byte UTF-8 sequence, so the run ends on a
                // scalar boundary and is validated exactly once.
                let start = *pos;
                while let Some(&b) = bytes.get(*pos) {
                    if b == b'"' || b == b'\\' || b < 0x20 {
                        break;
                    }
                    *pos += 1;
                }
                if *pos == start {
                    return None; // an unescaped control character
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).ok()?);
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Value> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Value::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Value> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Value::Obj(fields));
            }
            _ => return None,
        }
    }
}

/// Appends `value` as a JSON string literal (quotes included) to `out`.
pub fn push_json_str(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_writer_subset() {
        let v = Value::parse(
            "{\"t\":\"job\",\"n\":18446744073709551615,\"ok\":true,\"none\":null,\
             \"arr\":[1,2,3],\"s\":\"a\\nb\\\"c\\u0041\"}",
        )
        .expect("parses");
        assert_eq!(v.get_str("t"), Some("job"));
        assert_eq!(v.get_u64("n"), Some(u64::MAX));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("none"), Some(&Value::Null));
        assert_eq!(v.get_opt_u64("none"), Some(None));
        assert_eq!(v.get_opt_u64("n"), Some(Some(u64::MAX)));
        assert_eq!(
            v.get("arr").and_then(Value::as_arr).map(|a| a.len()),
            Some(3)
        );
        assert_eq!(v.get_str("s"), Some("a\nb\"cA"));
    }

    #[test]
    fn corruption_is_a_parse_failure_not_a_panic() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,2",
            "\"unterminated",
            "{\"a\":1} trailing",
            "{\"a\":-1}",
            "{\"a\":1.5}",
            "{\"a\":1e9}",
            "{\"a\":18446744073709551616}",
            "nullish",
            "{\"a\"\u{0}:1}",
        ] {
            assert_eq!(Value::parse(bad), None, "{bad:?} must fail to parse");
        }
    }

    /// Nesting is capped: a line of a million `[` is a parse failure, not
    /// a stack overflow, while the deepest nesting the cap admits parses.
    #[test]
    fn deep_nesting_is_a_parse_failure_not_a_stack_overflow() {
        assert_eq!(Value::parse(&"[".repeat(1_000_000)), None);
        assert_eq!(Value::parse(&"{\"a\":".repeat(1_000_000)), None);
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Value::parse(&nested(MAX_DEPTH)).is_some());
        assert_eq!(Value::parse(&nested(MAX_DEPTH + 1)), None);
    }

    /// String parsing is linear: a multi-megabyte literal (a submitted grid
    /// travels as one) round-trips in well under the bound even unoptimized.
    #[test]
    fn multi_megabyte_string_round_trips_in_linear_time() {
        let text: String = "grid line \"q\" ü 漢 🎉\n\t"
            .chars()
            .cycle()
            .take(4_000_000)
            .collect();
        let mut out = String::new();
        push_json_str(&mut out, &text);
        let started = std::time::Instant::now();
        let parsed = Value::parse(&out).expect("long literal parses");
        let elapsed = started.elapsed();
        assert_eq!(parsed.as_str(), Some(text.as_str()));
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "parsing {} bytes took {elapsed:?}",
            out.len()
        );
    }

    #[test]
    fn escape_writer_matches_reader() {
        let mut out = String::new();
        push_json_str(&mut out, "line1\nline2\t\"q\" \\ \u{1}");
        let parsed = Value::parse(&out).expect("escaped string parses");
        assert_eq!(parsed.as_str(), Some("line1\nline2\t\"q\" \\ \u{1}"));
    }
}

//! A minimal JSON value type, parser, and writer.
//!
//! The workspace is dependency-free by policy, so the server carries its
//! own ~200-line JSON implementation instead of `serde`. It supports the
//! full JSON grammar (objects, arrays, strings with escapes including
//! `\uXXXX` surrogate pairs, numbers, booleans, null) with two deliberate
//! simplifications: numbers are always `f64` (every id and count this API
//! exchanges fits exactly), and object keys keep insertion order in a
//! `Vec` instead of a map (payloads are tiny; linear lookup wins).

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep their textual order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write!(f, "\"{}\"", escape(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Escapes a string for embedding between JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Recursion guard: JSON nested deeper than this is rejected instead of
/// overflowing the stack on hostile input.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("JSON nested too deeply".into());
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected {:?} at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                self.expect_byte(b'\\')?;
                                self.expect_byte(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // go. Both are ASCII, so they never fall inside a
                    // multi-byte character and the run ends on a boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "invalid \\u escape")?;
        let v = u32::from_str_radix(text, 16).map_err(|_| "invalid \\u escape")?;
        self.pos += 4;
        Ok(v)
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_and_roundtrips() {
        let text =
            r#"{"path":"APVC","source":"a b","k":10,"flags":[true,null],"nested":{"x":1.5}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("path").unwrap().as_str(), Some("APVC"));
        assert_eq!(v.get("k").unwrap().as_u64(), Some(10));
        assert_eq!(v.get("flags").unwrap().as_array().unwrap().len(), 2);
        let again = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Json::parse(r#""a\"b\\c\ndAé😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé😀"));
        let again = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "tru", "\"", "{\"a\" 1}", "1 2", "{]"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn values_inside_64_containers_parse_and_65_are_rejected() {
        let nested = |n: usize| "[{\"k\":".repeat(n / 2) + &"[".repeat(n % 2) + "0";
        let closed = |n: usize| nested(n) + &"]".repeat(n % 2) + &"}]".repeat(n / 2);
        assert!(Json::parse(&closed(MAX_DEPTH)).is_ok());
        assert_eq!(
            Json::parse(&closed(MAX_DEPTH + 1)),
            Err("JSON nested too deeply".to_string())
        );
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Just under the server's body cap: re-validating the rest of the
        // input for every character takes tens of seconds here.
        let s = "a".repeat(crate::MAX_BODY_BYTES - 16) + "é";
        let body = format!("{{\"path\":\"{s}\"}}");
        let t = std::time::Instant::now();
        let v = Json::parse(&body).unwrap();
        let elapsed = t.elapsed();
        assert_eq!(v.get("path").and_then(Json::as_str), Some(s.as_str()));
        assert!(elapsed.as_secs_f64() < 1.0, "{elapsed:?}");
    }

    /// Hostile-input alphabet: JSON punctuation, escape starts, digits and
    /// multi-byte characters.
    const HOSTILE: &[char] = &[
        '{', '}', '[', ']', '"', ',', ':', '\\', 'u', '0', '1', '9', 'e', '-', '.', ' ', 'é', '😀',
        '\u{1}', 'n', 't', 'D', '8',
    ];

    /// Characters string values are drawn from: every escape `escape`
    /// writes, plus multi-byte and non-BMP characters.
    const STRING_CHARS: &[char] = &[
        'a', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '中', '😀',
    ];

    fn text_from(ix: &[usize], alphabet: &[char]) -> String {
        ix.iter().map(|&i| alphabet[i % alphabet.len()]).collect()
    }

    /// Decodes a stream of draws into a JSON value nested at most `depth`
    /// deep.
    fn value_from(draws: &mut std::slice::Iter<'_, u32>, depth: usize) -> Json {
        let Some(&d) = draws.next() else {
            return Json::Null;
        };
        let len = (d >> 8) as usize % 4;
        match d % if depth == 0 { 5 } else { 7 } {
            0 => Json::Null,
            1 => Json::Bool(d & 0x100 != 0),
            2 => Json::Num((d >> 3) as f64 / [1.0, 8.0, -3.0, 1e-7][len]),
            3 | 4 => {
                let ix: Vec<usize> = draws.take(len * 2).map(|&x| x as usize).collect();
                Json::Str(text_from(&ix, STRING_CHARS))
            }
            5 => Json::Arr((0..len).map(|_| value_from(draws, depth - 1)).collect()),
            _ => Json::Obj(
                (0..len)
                    .map(|i| (format!("k{i}\"é"), value_from(draws, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn hostile_text_never_panics(
            ix in collection::vec(0..HOSTILE.len(), 0..48),
        ) {
            let _ = Json::parse(&text_from(&ix, HOSTILE));
        }

        #[test]
        fn written_values_parse_back(draws in collection::vec(any::<u32>(), 1..64)) {
            let v = value_from(&mut draws.iter(), 4);
            prop_assert_eq!(Json::parse(&v.to_string()), Ok(v));
        }

        #[test]
        fn unicode_escapes_decode_surrogate_pairs(
            ix in collection::vec(0..STRING_CHARS.len(), 0..16),
        ) {
            // Every UTF-16 unit as `\uXXXX`: non-BMP characters arrive as
            // surrogate pairs.
            let s = text_from(&ix, STRING_CHARS);
            let escaped: String = s.encode_utf16().map(|u| format!("\\u{u:04X}")).collect();
            prop_assert_eq!(Json::parse(&format!("\"{escaped}\"")), Ok(Json::Str(s)));
        }
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
    }
}

//! A minimal JSON reader for the wire protocol.
//!
//! The vendored `serde_json` stand-in only *writes* JSON, so the daemon
//! carries its own reader. It is deliberately strict and small: UTF-8
//! input, no trailing garbage, recursion depth capped (hostile clients
//! send `[[[[…`), numbers as `f64`, `\uXXXX` escapes supported (surrogate
//! pairs included). Everything the protocol needs and nothing more.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth accepted from the network.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object field lookup; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The full field map of an object (the fleet scraper walks every
    /// numeric field of a shard's `metrics` reply); `None` on non-objects.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Serialize back to compact JSON. Deterministic: object keys are
    /// already sorted (`BTreeMap`), numbers print shortest round-trip,
    /// non-finite numbers (never produced by [`parse`]) render `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) if n.is_finite() => out.push_str(&format!("{n}")),
            Value::Number(_) => out.push_str("null"),
            Value::String(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Value::Array(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Object(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Why parsing failed (offset + reason).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub reason: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parse one complete JSON value; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Length of the plain run at the head of `bytes`: the bytes before the
/// first `"`, `\` or control byte, or all of them. The string reader
/// and [`crate::protocol::fast_scan`] share this one scan.
pub(crate) fn plain_run(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(bytes.len())
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, reason: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, reason: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            // One copy per plain run; its ends are ASCII, so the slice
            // falls on char boundaries.
            let start = self.pos;
            self.pos += plain_run(&self.bytes[start..]);
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u', "expected low surrogate")?;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("bad low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(cp)
                                } else {
                                    return Err(self.err("lone surrogate"));
                                }
                            } else if (0xdc00..0xe000).contains(&hi) {
                                return Err(self.err("lone surrogate"));
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("bad codepoint"))?);
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(_) => return Err(self.err("control char in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("bad \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a' + 10),
                b'A'..=b'F' => u32::from(b - b'A' + 10),
                _ => return Err(self.err("bad \\u escape")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("bad number"))
    }
}

/// Escape `s` as the contents of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shaped_requests() {
        let v = parse(
            r#"{"op":"classify","id":"r1","cert":"TUlJ","chain":["QQ=="],"deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("classify"));
        assert_eq!(v.get("deadline_ms").unwrap().as_f64(), Some(250.0));
        assert_eq!(v.get("chain").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(parse("not json").is_err());
        assert!(parse(r#"{"op":"#).is_err());
        assert!(parse(r#"{"a":1} trailing"#).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn depth_bomb_is_rejected_not_overflowed() {
        let bomb = "[".repeat(10_000);
        assert_eq!(parse(&bomb).unwrap_err().reason, "nesting too deep");
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\ndA😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{41}\u{1f600}"));
        assert_eq!(escape("a\"b\\c\nd"), r#"a\"b\\c\nd"#);
    }

    #[test]
    fn scalars() {
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("-2.5e2").unwrap(), Value::Number(-250.0));
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
    }

    #[test]
    fn render_round_trips_compact_json() {
        let text = r#"{"a":[1,2.5,null,true],"b":{"nested":"q\"uote"},"z":-3}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.render(), text);
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    /// The string reader before it copied plain runs whole: one UTF-8
    /// scalar at a time, kept as the reference the run-copying reader
    /// must agree with.
    impl Parser<'_> {
        fn reference_string(&mut self) -> Result<String, ParseError> {
            self.expect(b'"', "expected '\"'")?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'b' => out.push('\u{0008}'),
                            b'f' => out.push('\u{000c}'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hi = self.hex4()?;
                                let c = if (0xd800..0xdc00).contains(&hi) {
                                    // Surrogate pair: require the low half.
                                    if self.peek() == Some(b'\\') {
                                        self.pos += 1;
                                        self.expect(b'u', "expected low surrogate")?;
                                        let lo = self.hex4()?;
                                        if !(0xdc00..0xe000).contains(&lo) {
                                            return Err(self.err("bad low surrogate"));
                                        }
                                        let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                        char::from_u32(cp)
                                    } else {
                                        return Err(self.err("lone surrogate"));
                                    }
                                } else if (0xdc00..0xe000).contains(&hi) {
                                    return Err(self.err("lone surrogate"));
                                } else {
                                    char::from_u32(hi)
                                };
                                out.push(c.ok_or_else(|| self.err("bad codepoint"))?);
                            }
                            _ => return Err(self.err("bad escape")),
                        }
                    }
                    Some(c) if c < 0x20 => return Err(self.err("control char in string")),
                    Some(_) => {
                        // Copy one whole UTF-8 scalar (input is a &str, so
                        // boundaries are valid).
                        let start = self.pos;
                        let mut end = start + 1;
                        while end < self.bytes.len() && (self.bytes[end] & 0xc0) == 0x80 {
                            end += 1;
                        }
                        out.push_str(std::str::from_utf8(&self.bytes[start..end]).unwrap());
                        self.pos = end;
                    }
                }
            }
        }
    }

    use proptest::prelude::*;

    /// Strings mixing ASCII runs (quotes and backslashes included),
    /// control characters and multi-byte UTF-8.
    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof!["[ -~]{1,48}", "[\u{0}-\u{1f}]{1,2}", "[é中😀\u{7f}]{1,3}"],
            0..6,
        )
        .prop_map(|parts| parts.concat())
    }

    fn leaf() -> impl Strategy<Value = Value> {
        prop_oneof![
            text().prop_map(Value::String),
            (-1_000_000i64..1_000_000).prop_map(|n| Value::Number(n as f64 / 8.0)),
            any::<bool>().prop_map(Value::Bool),
            Just(Value::Null),
        ]
    }

    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            leaf(),
            proptest::collection::vec(leaf(), 0..4).prop_map(Value::Array),
            proptest::collection::vec((text(), proptest::collection::vec(leaf(), 0..3)), 0..4)
                .prop_map(|fields| Value::Object(
                    fields
                        .into_iter()
                        .map(|(k, items)| (k, Value::Array(items)))
                        .collect()
                )),
        ]
    }

    /// String literal bodies as a client might send them: plain runs,
    /// every escape (good, bad, truncated and surrogate halves), raw
    /// control bytes, multi-byte UTF-8 and stray quotes.
    fn literal() -> impl Strategy<Value = String> {
        let escape = prop_oneof![
            Just("\\\""),
            Just("\\\\"),
            Just("\\/"),
            Just("\\b\\f\\n\\r\\t"),
            Just("\\u00e9"),
            Just("\\u4E2d"),
            Just("\\ud83d\\ude00"),
            Just("\\ud83d"),
            Just("\\ud83dx"),
            Just("\\ud83d\\u0041"),
            Just("\\ude00"),
            Just("\\u12g4"),
            Just("\\x"),
            Just("\\"),
        ];
        proptest::collection::vec(
            prop_oneof![
                "[ !#-[]{1,48}",
                "[^-~]{1,48}",
                escape.prop_map(str::to_string),
                "[\u{0}-\u{1f}]",
                "[é中😀]{1,2}",
                Just("\"".to_string()),
            ],
            0..8,
        )
        .prop_map(|parts| format!("\"{}", parts.concat()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn rendered_values_parse_back(v in value()) {
            prop_assert_eq!(parse(&v.render()), Ok(v));
        }

        #[test]
        fn run_copying_reader_matches_the_per_char_reader(text in literal()) {
            let mut runs = Parser::new(&text);
            let mut chars = Parser::new(&text);
            prop_assert_eq!(
                (runs.string(), runs.pos),
                (chars.reference_string(), chars.pos),
                "{:?}",
                text
            );
        }
    }
}

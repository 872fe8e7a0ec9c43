//! A JSON value model with a depth-limited recursive-descent parser, a
//! serializer, and a JSON-path subset.
//!
//! This is the workspace's one JSON parser and string escaper: the SQL
//! `JSON_*` built-ins, the trace-export check and `soft_obs::json`'s record
//! reader (journals, bundle and repository files) all use it. Strings are
//! read as RFC 8259 requires, as MySQL and PostgreSQL read them: a raw
//! control character is an error, a `\u` escape takes exactly four hex
//! digits, and a surrogate pair decodes to one scalar while a lone
//! surrogate is an error.
//!
//! PostgreSQL's CVE-2015-5289 — a stack overflow from `REPEAT('[', 1000)::json`
//! because `parse_array` recursed once per `[` — is the canonical nested-
//! function bug in the paper. This parser reproduces that code path: it is
//! recursive, and the recursion guard is an explicit, configurable limit so a
//! dialect can model the unguarded (buggy) behaviour as a detectable fault.

use std::fmt;
use std::fmt::Write as _;

/// Errors from JSON parsing and path evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Malformed JSON text.
    Syntax {
        /// What went wrong.
        message: String,
        /// Byte offset into the input.
        offset: usize,
    },
    /// Nesting exceeded the configured recursion limit.
    TooDeep {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// A JSON path string was malformed.
    BadPath(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { message, offset } => {
                write!(f, "invalid JSON at byte {offset}: {message}")
            }
            JsonError::TooDeep { limit } => {
                write!(f, "JSON nesting exceeds depth limit {limit}")
            }
            JsonError::BadPath(p) => write!(f, "invalid JSON path: {p}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
///
/// Numbers are stored as their source text to preserve arbitrary digit
/// counts, which matters for boundary-value analysis (e.g. MDEV-8407's
/// 48-digit decimal flowing through `COLUMN_JSON`).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal text.
    Number(String),
    /// A string (already unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; key order is preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The JSON type name, as `JSON_TYPE` would report it.
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "NULL",
            JsonValue::Bool(_) => "BOOLEAN",
            JsonValue::Number(n) => {
                if n.contains('.') || n.contains('e') || n.contains('E') {
                    "DOUBLE"
                } else {
                    "INTEGER"
                }
            }
            JsonValue::String(_) => "STRING",
            JsonValue::Array(_) => "ARRAY",
            JsonValue::Object(_) => "OBJECT",
        }
    }

    /// Maximum nesting depth of this value (scalar = 1).
    pub fn depth(&self) -> usize {
        match self {
            JsonValue::Array(items) => 1 + items.iter().map(JsonValue::depth).max().unwrap_or(0),
            JsonValue::Object(fields) => {
                1 + fields.iter().map(|(_, v)| v.depth()).max().unwrap_or(0)
            }
            _ => 1,
        }
    }

    /// Number of elements for arrays/objects, 1 for scalars (MySQL
    /// `JSON_LENGTH` semantics).
    pub fn length(&self) -> usize {
        match self {
            JsonValue::Array(items) => items.len(),
            JsonValue::Object(fields) => fields.len(),
            _ => 1,
        }
    }

    /// Looks up an object key.
    pub fn get_key(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Looks up an array index.
    pub fn get_index(&self, idx: usize) -> Option<&JsonValue> {
        match self {
            JsonValue::Array(items) => items.get(idx),
            _ => None,
        }
    }

    /// Evaluates a parsed path against this value, stopping at the first
    /// leg the value lacks.
    pub fn eval_path(&self, path: &JsonPath<'_>) -> Option<&JsonValue> {
        let mut cur = self;
        for leg in path.legs() {
            cur = match leg {
                PathLeg::Key(k) => cur.get_key(k)?,
                PathLeg::Index(i) => cur.get_index(i)?,
            };
        }
        Some(cur)
    }

    /// The length in bytes of [`JsonValue::to_json_string`], counted
    /// without building the text.
    pub fn serialized_len(&self) -> usize {
        match self {
            JsonValue::Null | JsonValue::Bool(true) => 4,
            JsonValue::Bool(false) => 5,
            JsonValue::Number(n) => n.len(),
            JsonValue::String(s) => escaped_len(s),
            JsonValue::Array(items) => {
                2 + items.len().saturating_sub(1)
                    + items.iter().map(JsonValue::serialized_len).sum::<usize>()
            }
            JsonValue::Object(fields) => {
                2 + fields.len().saturating_sub(1)
                    + fields
                        .iter()
                        .map(|(k, v)| escaped_len(k) + 1 + v.serialized_len())
                        .sum::<usize>()
            }
        }
    }

    /// Serialises to compact JSON text.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(n) => out.push_str(n),
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

/// How many bytes [`write_escaped`] adds to each byte beyond the byte
/// itself: 1 for a two-byte escape, 5 for a `\u00XX` one. The bytes of a
/// multi-byte character are all at least 0x80 and add nothing.
const ESCAPE_EXTRA: [u8; 256] = {
    let mut extra = [0u8; 256];
    let mut b = 0;
    while b < 0x20 {
        extra[b] = 5;
        b += 1;
    }
    extra[b'"' as usize] = 1;
    extra[b'\\' as usize] = 1;
    extra[b'\n' as usize] = 1;
    extra[b'\r' as usize] = 1;
    extra[b'\t' as usize] = 1;
    extra
};

/// The length of `s` as [`write_escaped`] writes it, quotes included.
fn escaped_len(s: &str) -> usize {
    2 + s.len()
        + s.bytes()
            .map(|b| ESCAPE_EXTRA[b as usize] as usize)
            .sum::<usize>()
}

/// Appends `s` to `out` as a JSON string literal, quotes included: `"`,
/// `\\`, `\n`, `\r` and `\t` as two-byte escapes, every other control
/// character as `\u00XX`, everything else as it is. The workspace's one JSON
/// string escaper.
pub fn write_escaped(out: &mut String, s: &str) {
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

/// Default recursion limit, matching PostgreSQL's post-CVE-2015-5289 guard.
pub const DEFAULT_MAX_DEPTH: usize = 64;

/// Parses JSON text with the default depth limit.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    parse_with_depth(text, DEFAULT_MAX_DEPTH)
}

/// Parses JSON text, failing with [`JsonError::TooDeep`] past `max_depth`.
pub fn parse_with_depth(text: &str, max_depth: usize) -> Result<JsonValue, JsonError> {
    let mut p = Parser { text, pos: 0, max_depth };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Quick validity check (as `JSON_VALID` would perform).
pub fn is_valid(text: &str) -> bool {
    parse(text).is_ok()
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    max_depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError::Syntax { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth >= self.max_depth {
            return Err(JsonError::TooDeep { limit: self.max_depth });
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.keyword("null", JsonValue::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn keyword(&mut self, kw: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err("invalid keyword"))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return Err(self.err("invalid number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("invalid number fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("invalid number exponent"));
            }
        }
        let text =
            self.text.get(start..self.pos).ok_or_else(|| self.err("invalid utf-8 in number"))?;
        Ok(JsonValue::Number(text.to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.pos += 1;
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
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                // RFC 8259: a control character inside a string must be
                // escaped; MySQL and PostgreSQL reject a raw one too.
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar: decode only the next
                    // character, so a string parses in linear time.
                    let rest = self.text.get(self.pos..).ok_or_else(|| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("unterminated"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Decodes the `\u` escape whose `u` is at `pos`, leaving `pos` after
    /// it: a BMP scalar, or a high surrogate joined with the low surrogate
    /// escape that must follow it. A lone surrogate is an error, as RFC 8259
    /// text must encode Unicode scalars.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let start = self.pos - 1;
        let lone = || JsonError::Syntax {
            message: "lone surrogate in \\u escape".into(),
            offset: start,
        };
        let code = match self.hex4()? {
            high @ 0xd800..=0xdbff => {
                if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                    return Err(lone());
                }
                self.pos += 1;
                match self.hex4()? {
                    low @ 0xdc00..=0xdfff => 0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00),
                    _ => return Err(lone()),
                }
            }
            0xdc00..=0xdfff => return Err(lone()),
            code => code,
        };
        char::from_u32(code).ok_or_else(lone)
    }

    /// Reads the four hex digits after the `u` at `pos`, leaving `pos` after
    /// them. Exactly four ASCII hex digits: no sign, no fewer.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .text
            .as_bytes()
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &d in digits {
            let digit = char::from(d).to_digit(16).ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + digit;
        }
        self.pos += 5;
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            let v = self.value(depth + 1)?;
            items.push(v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.pos += 1; // consume '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// One leg of a JSON path, borrowed from the path's text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathLeg<'a> {
    /// `.key` member access.
    Key(&'a str),
    /// `[n]` array element access.
    Index(usize),
}

/// A validated JSON path in the MySQL `$`-rooted dialect, e.g. `$.a[2].b`.
///
/// Pattern 3.1 hands functions paths such as `REPEAT('$.a', 100000)`:
/// 100,000 legs in 300 KB of text. [`JsonPath::parse`] therefore only
/// validates, in one pass and without allocating, and keeps the text; the
/// legs are read from it lazily ([`JsonPath::legs`]), so a walk that stops
/// at the first leg the document lacks never reads the rest of the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonPath<'a> {
    /// The legs' text: the trimmed path after its `$`.
    legs: &'a str,
}

impl<'a> JsonPath<'a> {
    /// Validates a `$`-rooted path such as `$[2][1]` or `$.key.sub[0]`.
    pub fn parse(text: &'a str) -> Result<JsonPath<'a>, JsonError> {
        let bad = || JsonError::BadPath(text.to_string());
        let legs = text.trim().strip_prefix('$').ok_or_else(bad)?;
        let mut rest = legs;
        while !rest.is_empty() {
            match next_leg(rest) {
                Some((_, tail)) => rest = tail,
                None => return Err(bad()),
            }
        }
        Ok(JsonPath { legs })
    }

    /// The access legs, left to right.
    pub fn legs(&self) -> Legs<'a> {
        Legs { rest: self.legs }
    }
}

/// The legs of a [`JsonPath`], read from its text one at a time.
#[derive(Debug, Clone)]
pub struct Legs<'a> {
    rest: &'a str,
}

impl Legs<'_> {
    /// True when no leg is left.
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }
}

impl<'a> Iterator for Legs<'a> {
    type Item = PathLeg<'a>;

    fn next(&mut self) -> Option<PathLeg<'a>> {
        // The path was validated, so every leg parses until the text ends.
        let (leg, tail) = next_leg(self.rest)?;
        self.rest = tail;
        Some(leg)
    }
}

/// Reads the leg at the start of `rest`: the leg and the text after it, or
/// `None` when `rest` is empty or its first leg is malformed.
fn next_leg(rest: &str) -> Option<(PathLeg<'_>, &str)> {
    let bytes = rest.as_bytes();
    match *bytes.first()? {
        b'.' => {
            let end = bytes[1..]
                .iter()
                .position(|&b| b == b'.' || b == b'[')
                .map_or(bytes.len(), |i| i + 1);
            // Both ends sit on ASCII bytes, so the key is valid UTF-8.
            (end > 1).then(|| (PathLeg::Key(&rest[1..end]), &rest[end..]))
        }
        b'[' => {
            let close = bytes.iter().position(|&b| b == b']')?;
            let idx = rest[1..close].trim().parse::<usize>().ok()?;
            Some((PathLeg::Index(idx), &rest[close + 1..]))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Number("42".into()));
        assert_eq!(parse("-1.5e3").unwrap(), JsonValue::Number("-1.5e3".into()));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::String("hi".into()));
    }

    #[test]
    fn parse_structures() {
        let v = parse(r#"{"key": [1, 2, {"x": null}]}"#).unwrap();
        assert_eq!(v.type_name(), "OBJECT");
        // MySQL JSON_DEPTH semantics: scalars are depth 1, so
        // object -> array -> object -> null is depth 4.
        assert_eq!(v.depth(), 4);
        assert_eq!(v.get_key("key").unwrap().length(), 3);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 1 MiB of string content, multi-byte characters included. Decoding
        // each character by re-validating the rest of the input made a
        // 300 KB string take 1.7 s in a release build.
        let text = format!("\"{}\"", "abcé".repeat(1 << 18));
        let start = std::time::Instant::now();
        match parse(&text) {
            Ok(JsonValue::String(s)) => assert_eq!(s.len(), text.len() - 2),
            other => panic!("unexpected {other:?}"),
        }
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_secs(2), "a 1 MiB JSON string took {took:?}");
    }

    #[test]
    fn parse_rejects_malformed() {
        for s in ["", "{", "[1,", "{\"a\"}", "tru", "1.2.3", "\"\\q\"", "[1] x", "nul"] {
            assert!(parse(s).is_err(), "{s:?} should fail");
        }
    }

    #[test]
    fn depth_limit_models_cve_2015_5289() {
        // REPEAT('[', 1000)::json -- the guarded parser must reject, not crash.
        let deep = "[".repeat(1000);
        match parse(&deep) {
            Err(JsonError::TooDeep { limit }) => assert_eq!(limit, DEFAULT_MAX_DEPTH),
            other => panic!("expected TooDeep, got {other:?}"),
        }
        // A document exactly at the limit parses (if well-formed).
        let ok = format!("{}1{}", "[".repeat(63), "]".repeat(63));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""a\nb\t\"c\" A""#).unwrap();
        assert_eq!(v, JsonValue::String("a\nb\t\"c\" A".into()));
    }

    #[test]
    fn strings_are_rfc_8259_strict() {
        // A surrogate pair is one scalar, not two U+FFFD.
        assert_eq!(parse(r#""\ud83e\udd80""#).unwrap(), JsonValue::String("🦀".into()));
        assert_eq!(parse(r#""\u00e9\u0041""#).unwrap(), JsonValue::String("éA".into()));
        for (bad, offset, message) in [
            ("\"a\u{1}b\"", 2, "raw control character in string"),
            ("[\"\t\"]", 2, "raw control character in string"),
            (r#""\ud83e""#, 1, "lone surrogate in \\u escape"),
            (r#""\ud83e x""#, 1, "lone surrogate in \\u escape"),
            (r#""\ud83e\u0041""#, 1, "lone surrogate in \\u escape"),
            (r#""\udd80""#, 1, "lone surrogate in \\u escape"),
            (r#""\u+abc""#, 2, "invalid \\u escape"),
            (r#""\u00g0""#, 2, "invalid \\u escape"),
            (r#""\u00""#, 2, "truncated \\u escape"),
            (r#""\ud83e\u12"#, 8, "truncated \\u escape"),
        ] {
            let want = JsonError::Syntax { message: message.into(), offset };
            assert_eq!(parse(bad), Err(want), "{bad:?}");
        }
    }

    #[test]
    fn serialisation_roundtrip() {
        for s in [
            r#"{"a":[1,2,3],"b":"x"}"#,
            r#"[true,false,null]"#,
            r#""line\nbreak""#,
            "123456789012345678901234567890123456789012346789",
        ] {
            let v = parse(s).unwrap();
            let out = v.to_json_string();
            assert_eq!(parse(&out).unwrap(), v, "roundtrip of {s}");
        }
    }

    #[test]
    fn json_path() {
        fn legs(p: &str) -> Vec<PathLeg<'_>> {
            JsonPath::parse(p).unwrap().legs().collect()
        }
        assert_eq!(legs("$[2][1]"), vec![PathLeg::Index(2), PathLeg::Index(1)]);
        assert_eq!(
            legs("$.a.b[0]"),
            vec![PathLeg::Key("a"), PathLeg::Key("b"), PathLeg::Index(0)]
        );
        assert!(JsonPath::parse("a.b").is_err());
        assert!(JsonPath::parse("$[x]").is_err());
        assert!(JsonPath::parse("$.").is_err());
    }

    #[test]
    fn path_evaluation() {
        let v = parse(r#"{"a":[10,[20,30]]}"#).unwrap();
        let p = JsonPath::parse("$.a[1][0]").unwrap();
        assert_eq!(v.eval_path(&p), Some(&JsonValue::Number("20".into())));
        let missing = JsonPath::parse("$.a[9]").unwrap();
        assert_eq!(v.eval_path(&missing), None);
    }

    fn random_json(rng: &mut soft_rng::Rng, depth: usize) -> JsonValue {
        const TEXTS: [&str; 8] = ["", "a", "\"", "\\", "\n\r\t", "\u{1}\u{1f}", "é日😀", " x "];
        let text = |rng: &mut soft_rng::Rng| {
            (*rng.choose(&TEXTS).expect("texts")).repeat(rng.gen_range(0..3usize))
        };
        match rng.gen_range(0..if depth == 0 { 5 } else { 7 }) {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(rng.gen_bool(0.5)),
            2 => JsonValue::Number(rng.gen_range(-1000..1000i64).to_string()),
            3 | 4 => JsonValue::String(text(rng)),
            5 => JsonValue::Array(
                (0..rng.gen_range(0..4usize))
                    .map(|_| random_json(rng, depth - 1))
                    .collect(),
            ),
            _ => JsonValue::Object(
                (0..rng.gen_range(0..4usize))
                    .map(|_| (text(rng), random_json(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn serialized_len_counts_the_serialisation() {
        let mut rng = soft_rng::Rng::seed_from_u64(0x4a53_4f4e);
        for _ in 0..5000 {
            let v = random_json(&mut rng, 3);
            assert_eq!(v.serialized_len(), v.to_json_string().len(), "{v:?}");
        }
        // Every byte value a string can hold.
        let all: String = (0..=0x7f_u8)
            .map(char::from)
            .chain(['é', '\u{ffff}'])
            .collect();
        let v = JsonValue::Object(vec![(all.clone(), JsonValue::String(all))]);
        assert_eq!(v.serialized_len(), v.to_json_string().len());
    }

    #[test]
    fn number_preserves_digits() {
        let fifty = "9".repeat(50);
        let v = parse(&fifty).unwrap();
        assert_eq!(v, JsonValue::Number(fifty.clone()));
        assert_eq!(v.to_json_string(), fifty);
    }
}

//! The flat JSON records of the JSONL journal, bundle `meta.json`,
//! repository `entry.json`/`repo.json` and the live plane's JSON payloads.
//!
//! A record is one line holding one object whose values are strings, `i64`
//! integers or null. This module writes its fields and reads it back; the
//! JSON itself, string escapes included, is `soft_types::json`'s, the
//! workspace's one JSON parser and escaper.
//!
//! The reader backs user-supplied files (`repro trace <path>`, forensics
//! `meta.json`, a seed repository), so it fails closed: what is not a flat
//! record (nesting, arrays, booleans, fractions and exponents, integers past
//! `i64`, a repeated key, trailing bytes) and what is not RFC 8259 JSON
//! (truncated or invalid escapes, raw control characters, lone surrogates)
//! is an error naming the record's source, with the byte offset of a syntax
//! error — never a panic, never a silent accept.

use soft_types::json::{self, JsonValue};
use std::fmt;
use std::fmt::Write as _;

/// Renders one `"key": value` pair for a string value.
pub fn str_field(key: &str, value: &str) -> String {
    let mut out = field(key);
    json::write_escaped(&mut out, value);
    out
}

/// Renders one `"key": value` pair for an integer value.
pub fn num_field(key: &str, value: i64) -> String {
    let mut out = field(key);
    let _ = write!(out, "{value}");
    out
}

/// Renders one `"key": null` pair.
pub fn null_field(key: &str) -> String {
    let mut out = field(key);
    out.push_str("null");
    out
}

/// `"key": `, the start of every field.
fn field(key: &str) -> String {
    let mut out = String::with_capacity(key.len() + 24);
    json::write_escaped(&mut out, key);
    out.push_str(": ");
    out
}

/// One flat record read back: its fields and where it came from.
///
/// Every error, [`Record::parse`]'s and the required getters', starts with
/// the record's source (`line 3: ...`, `<path>: ...`), so a caller reports
/// it as it is.
#[derive(Debug)]
pub struct Record {
    source: String,
    /// Sorted by key, no key twice.
    fields: Vec<(String, JsonValue)>,
}

impl Record {
    /// Parses `text` with `soft_types::json::parse` and requires a flat
    /// record: a top-level object whose values are strings, integers that
    /// fit an `i64`, or null, with no key repeated. `source` names the text
    /// in errors.
    pub fn parse(text: &str, source: impl fmt::Display) -> Result<Record, String> {
        let source = source.to_string();
        let value = soft_types::json::parse(text).map_err(|e| format!("{source}: {e}"))?;
        let JsonValue::Object(mut fields) = value else {
            return Err(format!("{source}: expected a JSON object, got {}", value.type_name()));
        };
        let flat = |value: &JsonValue| match value {
            JsonValue::String(_) | JsonValue::Null => true,
            JsonValue::Number(n) => n.parse::<i64>().is_ok(),
            _ => false,
        };
        if let Some((key, _)) = fields.iter().find(|(_, value)| !flat(value)) {
            return Err(format!("{source}: {key:?} is not a string, an i64 integer or null"));
        }
        fields.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        if let Some(pair) = fields.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(format!("{source}: duplicate key {:?}", pair[0].0));
        }
        Ok(Record { source, fields })
    }

    fn get(&self, key: &str) -> Option<&JsonValue> {
        let i = self.fields.binary_search_by(|(k, _)| k.as_str().cmp(key)).ok()?;
        Some(&self.fields[i].1)
    }

    /// The string at `key`, if `key` holds one.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The integer at `key`, if `key` holds one.
    pub fn int(&self, key: &str) -> Option<i64> {
        match self.get(key)? {
            JsonValue::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The integer at `key`, if `key` holds one that fits a `usize`.
    pub fn usize(&self, key: &str) -> Option<usize> {
        self.int(key).and_then(|n| usize::try_from(n).ok())
    }

    /// The string at `key`, or an error naming `key`.
    pub fn string(&self, key: &str) -> Result<String, String> {
        self.str(key).map(str::to_string).ok_or_else(|| self.missing("string", key))
    }

    /// The integer at `key`, or an error naming `key`.
    pub fn integer(&self, key: &str) -> Result<i64, String> {
        self.int(key).ok_or_else(|| self.missing("integer", key))
    }

    /// The non-negative integer at `key`, or an error naming `key`.
    pub fn count(&self, key: &str) -> Result<usize, String> {
        self.usize(key).ok_or_else(|| self.missing("count", key))
    }

    /// The string at `key` read by `from_label`, or an error naming `key`
    /// when it is absent or not a label `from_label` knows.
    pub fn label<T>(&self, key: &str, from_label: fn(&str) -> Option<T>) -> Result<T, String> {
        self.str(key).and_then(from_label).ok_or_else(|| self.missing("label", key))
    }

    /// The error for a required `key` that is absent (`missing`) or holds
    /// a value that is not a `what` (`invalid`).
    fn missing(&self, what: &str, key: &str) -> String {
        let problem = if self.get(key).is_some() { "invalid" } else { "missing" };
        format!("{}: {problem} {what} {key:?}", self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Record, String> {
        Record::parse(line, "line 1")
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}é—🦀";
        let line = format!("{{{}}}", str_field("k", nasty));
        assert_eq!(parse(&line).expect("parses").str("k"), Some(nasty));
    }

    #[test]
    fn parses_flat_objects_with_mixed_values() {
        let rec = parse(r#"{"type": "stmt", "index": 42, "fault": null, "neg": -7}"#)
            .expect("parses");
        assert_eq!(rec.str("type"), Some("stmt"));
        assert_eq!(rec.int("index"), Some(42));
        assert_eq!(rec.get("fault"), Some(&JsonValue::Null));
        assert_eq!(rec.int("neg"), Some(-7));
        assert_eq!(rec.usize("neg"), None);
        assert_eq!(rec.count("index"), Ok(42));
        assert_eq!(rec.string("index"), Err("line 1: invalid string \"index\"".into()));
        assert_eq!(rec.count("neg"), Err("line 1: invalid count \"neg\"".into()));
        assert_eq!(rec.integer("gone"), Err("line 1: missing integer \"gone\"".into()));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "{",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "{\"a\": [1]}",
            "{\"a\": {\"b\": 1}}",
            "{\"a\": 1.5}",
            "{\"a\": 1e3}",
            "{\"a\": 9223372036854775808}",
            "{\"a\": true}",
            "[1]",
            "\"a\"",
            "not json",
            "{\"a\": nul}",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.starts_with("line 1: "), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn rejects_truncated_escapes_with_offsets() {
        for bad in [
            "{\"a\": \"\\u00\"}",   // 2 hex digits then the closing quote
            "{\"a\": \"\\u\"}",     // no hex digits at all
            "{\"a\": \"\\u00",      // line ends inside the escape
            "{\"a\": \"\\q\"}",     // unknown escape letter
            "{\"a\": \"\\uzzzz\"}", // non-hex digits
            "{\"a\": \"\\u+abc\"}", // a sign is not a hex digit
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.contains("escape"), "{bad:?} -> {err}");
        }
        // The offset points into the line, after the source's prefix.
        let err = parse("{\"a\": \"\\u00\"}").expect_err("truncated");
        assert_eq!(err, "line 1: invalid JSON at byte 8: invalid \\u escape");
    }

    #[test]
    fn rejects_raw_control_characters() {
        let err = parse("{\"a\": \"x\u{1}y\"}").expect_err("raw control char");
        assert_eq!(err, "line 1: invalid JSON at byte 8: raw control character in string");
        // The escaped form of the same payload is fine.
        let ok = format!("{{{}}}", str_field("a", "x\u{1}y"));
        assert_eq!(parse(&ok).expect("parses").str("a"), Some("x\u{1}y"));
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = parse(r#"{"a": 1, "b": 2, "a": 3}"#).expect_err("dup key");
        assert_eq!(err, "line 1: duplicate key \"a\"");
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_errors() {
        let rec = parse(r#"{"crab": "\ud83e\udd80"}"#).expect("pair decodes");
        assert_eq!(rec.str("crab"), Some("🦀"));
        for bad in [
            r#"{"a": "\ud83e"}"#,        // lone high surrogate
            r#"{"a": "\ud83e x"}"#,      // high surrogate, then plain text
            r#"{"a": "\udd80"}"#,        // lone low surrogate
            r#"{"a": "\ud83e\u0041"}"#,  // high surrogate + non-surrogate
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.contains("surrogate"), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn accepts_the_remaining_rfc_escapes() {
        let rec = parse(r#"{"a": "\/\b\f"}"#).expect("parses");
        assert_eq!(rec.str("a"), Some("/\u{8}\u{c}"));
    }

    #[test]
    fn null_field_renders_and_parses() {
        let line = format!("{{{}}}", null_field("gone"));
        let rec = parse(&line).expect("parses");
        assert_eq!(rec.get("gone"), Some(&JsonValue::Null));
        assert_eq!(rec.str("gone"), None);
    }

    #[test]
    fn empty_object_parses() {
        assert!(parse("{}").expect("parses").fields.is_empty());
    }
}

//! The SQL value model shared by the parser, engine, dialects and tools.

use crate::datetime::{Date, DateTime, Interval, Time};
use crate::decimal::Decimal;
use crate::geometry::Geometry;
use crate::json::JsonValue;
use crate::xml::XmlDocument;
use std::cmp::Ordering;
use std::fmt;

/// The engine's data types.
///
/// Container types (`Array`, `Map`, `Row`) are dynamically element-typed,
/// which mirrors how the studied DBMSs behave at the SQL-function boundary —
/// it is exactly the "internal data type instance" layer the paper's casting
/// bugs (§5.2) corrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// The type of `NULL` before coercion.
    Null,
    /// Boolean.
    Boolean,
    /// 64-bit signed integer.
    Integer,
    /// Arbitrary-precision decimal.
    Decimal,
    /// IEEE-754 double.
    Float,
    /// Character string.
    Text,
    /// Byte string.
    Binary,
    /// Calendar date.
    Date,
    /// Time of day.
    Time,
    /// Date and time.
    DateTime,
    /// Mixed-unit interval.
    Interval,
    /// JSON document.
    Json,
    /// XML fragment.
    Xml,
    /// Geometry.
    Geometry,
    /// Array of values.
    Array,
    /// Key/value map.
    Map,
    /// Row (tuple) of values.
    Row,
    /// The `*` pseudo-value (Pattern 1.1's asterisk boundary literal).
    Star,
}

impl DataType {
    /// All concrete types a generator may cast to (excludes `Null`/`Star`).
    pub const CASTABLE: [DataType; 15] = [
        DataType::Boolean,
        DataType::Integer,
        DataType::Decimal,
        DataType::Float,
        DataType::Text,
        DataType::Binary,
        DataType::Date,
        DataType::Time,
        DataType::DateTime,
        DataType::Interval,
        DataType::Json,
        DataType::Xml,
        DataType::Geometry,
        DataType::Array,
        DataType::Map,
    ];

    /// The SQL spelling used in `CAST(x AS ...)`.
    pub fn sql_name(&self) -> &'static str {
        match self {
            DataType::Null => "NULL",
            DataType::Boolean => "BOOLEAN",
            DataType::Integer => "INTEGER",
            DataType::Decimal => "DECIMAL",
            DataType::Float => "DOUBLE",
            DataType::Text => "TEXT",
            DataType::Binary => "BINARY",
            DataType::Date => "DATE",
            DataType::Time => "TIME",
            DataType::DateTime => "DATETIME",
            DataType::Interval => "INTERVAL",
            DataType::Json => "JSON",
            DataType::Xml => "XML",
            DataType::Geometry => "GEOMETRY",
            DataType::Array => "ARRAY",
            DataType::Map => "MAP",
            DataType::Row => "ROW",
            DataType::Star => "STAR",
        }
    }

    /// Parses a SQL type name (as appearing in `CAST` / column definitions).
    pub fn parse_sql_name(s: &str) -> Option<DataType> {
        Some(match s.to_ascii_uppercase().as_str() {
            "BOOLEAN" | "BOOL" => DataType::Boolean,
            "INTEGER" | "INT" | "BIGINT" | "SMALLINT" | "TINYINT" | "SIGNED" | "UNSIGNED" => {
                DataType::Integer
            }
            "DECIMAL" | "NUMERIC" | "DEC" => DataType::Decimal,
            "DOUBLE" | "FLOAT" | "REAL" => DataType::Float,
            "TEXT" | "VARCHAR" | "CHAR" | "STRING" | "CLOB" => DataType::Text,
            "BINARY" | "VARBINARY" | "BLOB" | "BYTEA" => DataType::Binary,
            "DATE" => DataType::Date,
            "TIME" => DataType::Time,
            "DATETIME" | "TIMESTAMP" => DataType::DateTime,
            "INTERVAL" => DataType::Interval,
            "JSON" | "JSONB" => DataType::Json,
            "XML" => DataType::Xml,
            "GEOMETRY" => DataType::Geometry,
            "ARRAY" => DataType::Array,
            "MAP" => DataType::Map,
            "ROW" => DataType::Row,
            _ => return None,
        })
    }

    /// True for the numeric family.
    pub fn is_numeric(&self) -> bool {
        matches!(self, DataType::Integer | DataType::Decimal | DataType::Float)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A runtime SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Boolean(bool),
    /// 64-bit integer.
    Integer(i64),
    /// Arbitrary-precision decimal.
    Decimal(Decimal),
    /// Double.
    Float(f64),
    /// Character string.
    Text(String),
    /// Byte string.
    Binary(Vec<u8>),
    /// Date.
    Date(Date),
    /// Time of day.
    Time(Time),
    /// Date and time.
    DateTime(DateTime),
    /// Interval.
    Interval(Interval),
    /// JSON document.
    Json(JsonValue),
    /// XML fragment.
    Xml(XmlDocument),
    /// Geometry.
    Geometry(Geometry),
    /// Array.
    Array(Vec<Value>),
    /// Ordered key/value map.
    Map(Vec<(Value, Value)>),
    /// Row (tuple).
    Row(Vec<Value>),
    /// The `*` pseudo-value passed as a bare function argument.
    Star,
}

/// Error for comparisons that are undefined between the operand types
/// (e.g. ROW vs ROW in contexts that require scalars — MDEV-14596's trigger).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompareError {
    /// Left operand type.
    pub left: DataType,
    /// Right operand type.
    pub right: DataType,
}

impl fmt::Display for CompareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot compare {} with {}", self.left, self.right)
    }
}

impl std::error::Error for CompareError {}

impl Value {
    /// The value's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Boolean(_) => DataType::Boolean,
            Value::Integer(_) => DataType::Integer,
            Value::Decimal(_) => DataType::Decimal,
            Value::Float(_) => DataType::Float,
            Value::Text(_) => DataType::Text,
            Value::Binary(_) => DataType::Binary,
            Value::Date(_) => DataType::Date,
            Value::Time(_) => DataType::Time,
            Value::DateTime(_) => DataType::DateTime,
            Value::Interval(_) => DataType::Interval,
            Value::Json(_) => DataType::Json,
            Value::Xml(_) => DataType::Xml,
            Value::Geometry(_) => DataType::Geometry,
            Value::Array(_) => DataType::Array,
            Value::Map(_) => DataType::Map,
            Value::Row(_) => DataType::Row,
            Value::Star => DataType::Star,
        }
    }

    /// True iff the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL three-valued truthiness: NULL is unknown (`None`), numbers are
    /// true when non-zero, strings when they parse to a non-zero number
    /// (MySQL semantics).
    pub fn truthiness(&self) -> Option<bool> {
        match self {
            Value::Null => None,
            Value::Boolean(b) => Some(*b),
            Value::Integer(i) => Some(*i != 0),
            Value::Decimal(d) => Some(!d.is_zero()),
            Value::Float(f) => Some(*f != 0.0),
            Value::Text(s) => {
                let n: f64 = parse_numeric_prefix(s);
                Some(n != 0.0)
            }
            _ => Some(true),
        }
    }

    /// Numeric view of the value, if it is in the numeric family.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Integer(i) => Some(*i as f64),
            Value::Decimal(d) => Some(d.to_f64()),
            Value::Float(f) => Some(*f),
            Value::Boolean(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// SQL comparison. `Ok(None)` means unknown (a NULL operand);
    /// `Err` means the types are not comparable.
    pub fn sql_cmp(&self, other: &Value) -> Result<Option<Ordering>, CompareError> {
        use Value::*;
        let incomparable = || CompareError { left: self.data_type(), right: other.data_type() };
        if self.is_null() || other.is_null() {
            return Ok(None);
        }
        // Numeric family compares across representations.
        if self.data_type().is_numeric() && other.data_type().is_numeric() {
            match (self, other) {
                (Integer(a), Integer(b)) => return Ok(Some(a.cmp(b))),
                (Decimal(a), Decimal(b)) => return Ok(Some(a.cmp(b))),
                _ => {
                    let a = self.as_f64().expect("numeric");
                    let b = other.as_f64().expect("numeric");
                    return Ok(a.partial_cmp(&b));
                }
            }
        }
        match (self, other) {
            (Boolean(a), Boolean(b)) => Ok(Some(a.cmp(b))),
            (Text(a), Text(b)) => Ok(Some(a.cmp(b))),
            (Binary(a), Binary(b)) => Ok(Some(a.cmp(b))),
            (Date(a), Date(b)) => Ok(Some(a.cmp(b))),
            (Time(a), Time(b)) => Ok(Some(a.cmp(b))),
            (DateTime(a), DateTime(b)) => Ok(Some(a.cmp(b))),
            // Mixed text/number: compare numerically (MySQL coercion).
            (Text(s), b) if b.data_type().is_numeric() => {
                Ok(parse_numeric_prefix(s).partial_cmp(&b.as_f64().expect("numeric")))
            }
            (a, Text(s)) if a.data_type().is_numeric() => {
                Ok(a.as_f64().expect("numeric").partial_cmp(&parse_numeric_prefix(s)))
            }
            (Array(a), Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.sql_cmp(y)? {
                        Some(Ordering::Equal) => continue,
                        other => return Ok(other),
                    }
                }
                Ok(Some(a.len().cmp(&b.len())))
            }
            _ => Err(incomparable()),
        }
    }

    /// A canonical textual key for grouping / DISTINCT.
    ///
    /// Distinct values must map to distinct keys within a type; NULLs group
    /// together (SQL GROUP BY semantics).
    pub fn group_key(&self) -> String {
        match self {
            Value::Null => "\u{0}N".to_string(),
            Value::Float(f) => format!("f{f}"),
            Value::Decimal(d) => format!("d{d}"),
            v => format!("{}|{}", v.data_type().sql_name(), v.render()),
        }
    }

    /// Renders the value the way a client would see it in a result set.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Boolean(true) => "1".to_string(),
            Value::Boolean(false) => "0".to_string(),
            Value::Integer(i) => i.to_string(),
            Value::Decimal(d) => d.to_string(),
            Value::Float(f) => {
                if f.is_nan() {
                    "NaN".to_string()
                } else if f.is_infinite() {
                    if *f > 0.0 { "Infinity".to_string() } else { "-Infinity".to_string() }
                } else {
                    format!("{f}")
                }
            }
            Value::Text(s) => s.clone(),
            Value::Binary(b) => {
                let mut out = String::with_capacity(2 + b.len() * 2);
                out.push_str("0x");
                crate::hex::push_upper(&mut out, b);
                out
            }
            Value::Date(d) => d.to_string(),
            Value::Time(t) => t.to_string(),
            Value::DateTime(dt) => dt.to_string(),
            Value::Interval(iv) => iv.to_string(),
            Value::Json(j) => j.to_json_string(),
            Value::Xml(x) => x.to_xml_string(),
            Value::Geometry(g) => g.to_string(),
            Value::Array(items) => {
                let inner: Vec<String> = items.iter().map(Value::render).collect();
                format!("[{}]", inner.join(", "))
            }
            Value::Map(entries) => {
                let inner: Vec<String> =
                    entries.iter().map(|(k, v)| format!("{}: {}", k.render(), v.render())).collect();
                format!("{{{}}}", inner.join(", "))
            }
            Value::Row(items) => {
                let inner: Vec<String> = items.iter().map(Value::render).collect();
                format!("({})", inner.join(", "))
            }
            Value::Star => "*".to_string(),
        }
    }

    /// Renders the value as a SQL literal expression that would evaluate
    /// back to it — used by the generators when transplanting values.
    pub fn sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Boolean(true) => "TRUE".to_string(),
            Value::Boolean(false) => "FALSE".to_string(),
            Value::Integer(i) => i.to_string(),
            Value::Decimal(d) => d.to_string(),
            Value::Float(f) => format!("{f:?}"),
            Value::Text(s) => quote_sql_string(s),
            Value::Binary(b) => {
                let mut out = String::with_capacity(3 + b.len() * 2);
                out.push_str("x'");
                crate::hex::push_upper(&mut out, b);
                out.push('\'');
                out
            }
            Value::Date(d) => format!("DATE '{d}'"),
            Value::Time(t) => format!("TIME '{t}'"),
            Value::DateTime(dt) => format!("TIMESTAMP '{dt}'"),
            Value::Interval(iv) => format!("INTERVAL {} DAY", iv.days),
            Value::Json(j) => quote_sql_string(&j.to_json_string()),
            Value::Xml(x) => quote_sql_string(&x.to_xml_string()),
            Value::Geometry(g) => format!("ST_GEOMFROMTEXT({})", quote_sql_string(&g.to_string())),
            Value::Array(items) => {
                let inner: Vec<String> = items.iter().map(Value::sql_literal).collect();
                format!("[{}]", inner.join(", "))
            }
            Value::Map(entries) => {
                let inner: Vec<String> = entries
                    .iter()
                    .flat_map(|(k, v)| [k.sql_literal(), v.sql_literal()])
                    .collect();
                format!("MAP({})", inner.join(", "))
            }
            Value::Row(items) => {
                let inner: Vec<String> = items.iter().map(Value::sql_literal).collect();
                format!("ROW({})", inner.join(", "))
            }
            Value::Star => "*".to_string(),
        }
    }

    /// An estimate of the value's in-memory footprint in bytes, used by the
    /// engine's resource-limit accounting (the source of the paper's 7
    /// REPEAT-related false positives).
    pub fn size_estimate(&self) -> usize {
        match self {
            Value::Text(s) => s.len() + 24,
            Value::Binary(b) => b.len() + 24,
            Value::Json(j) => j.serialized_len() + 24,
            Value::Xml(x) => x.serialized_len() + 24,
            Value::Array(items) => 24 + items.iter().map(Value::size_estimate).sum::<usize>(),
            Value::Map(entries) => {
                24 + entries
                    .iter()
                    .map(|(k, v)| k.size_estimate() + v.size_estimate())
                    .sum::<usize>()
            }
            Value::Row(items) => 24 + items.iter().map(Value::size_estimate).sum::<usize>(),
            Value::Geometry(g) => 24 + g.num_points() * 16,
            _ => 24,
        }
    }
}

/// Quotes a string as a single-quoted SQL literal, doubling embedded quotes.
pub fn quote_sql_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('\'');
    for c in s.chars() {
        if c == '\'' {
            out.push('\'');
        }
        out.push(c);
    }
    out.push('\'');
    out
}

/// MySQL-style lenient numeric coercion: parses the longest numeric prefix,
/// yielding 0.0 when there is none.
pub fn parse_numeric_prefix(s: &str) -> f64 {
    let s = s.trim_start();
    let bytes = s.as_bytes();
    let mut end = 0;
    if matches!(bytes.first(), Some(b'-' | b'+')) {
        end = 1;
    }
    let mut seen_digit = false;
    let mut seen_dot = false;
    let mut seen_exp = false;
    while end < bytes.len() {
        match bytes[end] {
            b'0'..=b'9' => {
                seen_digit = true;
                end += 1;
            }
            b'.' if !seen_dot && !seen_exp => {
                seen_dot = true;
                end += 1;
            }
            b'e' | b'E' if seen_digit && !seen_exp => {
                // Only accept the exponent if digits follow.
                let mut j = end + 1;
                if matches!(bytes.get(j), Some(b'-' | b'+')) {
                    j += 1;
                }
                if matches!(bytes.get(j), Some(b'0'..=b'9')) {
                    seen_exp = true;
                    end = j;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    if !seen_digit {
        return 0.0;
    }
    s[..end].parse().unwrap_or(0.0)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dec(s: &str) -> Value {
        Value::Decimal(s.parse().unwrap())
    }

    #[test]
    fn type_tags() {
        assert_eq!(Value::Null.data_type(), DataType::Null);
        assert_eq!(Value::Integer(5).data_type(), DataType::Integer);
        assert_eq!(Value::Star.data_type(), DataType::Star);
    }

    #[test]
    fn truthiness_rules() {
        assert_eq!(Value::Null.truthiness(), None);
        assert_eq!(Value::Integer(0).truthiness(), Some(false));
        assert_eq!(Value::Text("1abc".into()).truthiness(), Some(true));
        assert_eq!(Value::Text("abc".into()).truthiness(), Some(false));
        assert_eq!(dec("0.00").truthiness(), Some(false));
    }

    #[test]
    fn cross_type_numeric_compare() {
        let i = Value::Integer(2);
        let d = dec("2.0");
        let f = Value::Float(2.5);
        assert_eq!(i.sql_cmp(&d).unwrap(), Some(Ordering::Equal));
        assert_eq!(i.sql_cmp(&f).unwrap(), Some(Ordering::Less));
        assert_eq!(Value::Text("3".into()).sql_cmp(&i).unwrap(), Some(Ordering::Greater));
    }

    #[test]
    fn null_compares_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Integer(1)).unwrap(), None);
        assert_eq!(Value::Integer(1).sql_cmp(&Value::Null).unwrap(), None);
    }

    #[test]
    fn row_comparison_is_a_type_error() {
        let r1 = Value::Row(vec![Value::Integer(1), Value::Integer(1)]);
        let r2 = Value::Row(vec![Value::Integer(1), Value::Integer(2)]);
        // The MDEV-14596 boundary: rows are not comparable here.
        assert!(r1.sql_cmp(&r2).is_err());
    }

    #[test]
    fn array_comparison_is_elementwise() {
        let a = Value::Array(vec![Value::Integer(1), Value::Integer(2)]);
        let b = Value::Array(vec![Value::Integer(1), Value::Integer(3)]);
        assert_eq!(a.sql_cmp(&b).unwrap(), Some(Ordering::Less));
        let shorter = Value::Array(vec![Value::Integer(1)]);
        assert_eq!(shorter.sql_cmp(&a).unwrap(), Some(Ordering::Less));
    }

    #[test]
    fn rendering() {
        assert_eq!(Value::Null.render(), "NULL");
        assert_eq!(Value::Boolean(true).render(), "1");
        assert_eq!(Value::Binary(vec![0xde, 0xad]).render(), "0xDEAD");
        assert_eq!(
            Value::Array(vec![Value::Integer(1), Value::Null]).render(),
            "[1, NULL]"
        );
    }

    #[test]
    fn sql_literals_quote_properly() {
        assert_eq!(Value::Text("it's".into()).sql_literal(), "'it''s'");
        assert_eq!(Value::Null.sql_literal(), "NULL");
        assert_eq!(Value::Binary(vec![1, 255]).sql_literal(), "x'01FF'");
        assert_eq!(
            Value::Row(vec![Value::Integer(1), Value::Integer(2)]).sql_literal(),
            "ROW(1, 2)"
        );
    }

    #[test]
    fn numeric_prefix_parsing() {
        assert_eq!(parse_numeric_prefix("123abc"), 123.0);
        assert_eq!(parse_numeric_prefix("-1.5x"), -1.5);
        assert_eq!(parse_numeric_prefix("abc"), 0.0);
        assert_eq!(parse_numeric_prefix("1e3z"), 1000.0);
        assert_eq!(parse_numeric_prefix("1e"), 1.0);
        assert_eq!(parse_numeric_prefix(""), 0.0);
    }

    #[test]
    fn group_keys_distinguish_values_and_merge_nulls() {
        assert_eq!(Value::Null.group_key(), Value::Null.group_key());
        assert_ne!(Value::Integer(1).group_key(), Value::Integer(2).group_key());
        assert_ne!(Value::Integer(1).group_key(), Value::Text("1".into()).group_key());
    }

    #[test]
    fn size_estimates_scale_with_payload() {
        let small = Value::Text("a".into());
        let big = Value::Text("a".repeat(10_000));
        assert!(big.size_estimate() > small.size_estimate() + 9_000);
    }
}

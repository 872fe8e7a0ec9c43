//! The type-casting engine.
//!
//! §5.2 of the paper attributes 23.3 % of studied bugs to boundary results of
//! type castings — values that survive a flawed conversion as "broken internal
//! instances". This module is the reproduction's conversion layer: a single
//! [`cast`] entry point with explicit/implicit modes and per-dialect
//! strictness, so both PostgreSQL-like strictness (rejecting most implicit
//! conversions — the reason the paper found only one PostgreSQL bug) and
//! MySQL-like leniency are expressible.

use crate::datetime::{Date, DateTime, Interval, Time};
use crate::decimal::Decimal;
use crate::geometry::Geometry;
use crate::json;
use crate::value::{parse_numeric_prefix, DataType, Value};
use crate::xml::XmlDocument;
use std::fmt;

/// Whether a cast was written by the user (`CAST`, `::`) or synthesised by
/// the engine (argument coercion, `UNION` column alignment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastMode {
    /// User-written cast.
    Explicit,
    /// Engine-inserted coercion.
    Implicit,
}

/// How permissive implicit conversions are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastStrictness {
    /// PostgreSQL-like: implicit casts only within a family (numeric↔numeric,
    /// anything→text is still explicit-only).
    Strict,
    /// MySQL-like: strings coerce to numbers by prefix, numbers stringify,
    /// almost everything converts with best effort.
    Lenient,
}

/// Limits applied during conversion.
#[derive(Debug, Clone, Copy)]
pub struct CastLimits {
    /// Maximum decimal digits (conversion overflow boundary).
    pub max_decimal_digits: usize,
    /// Maximum JSON/XML nesting accepted when parsing from text.
    pub max_nesting_depth: usize,
}

impl Default for CastLimits {
    fn default() -> Self {
        CastLimits { max_decimal_digits: crate::decimal::MAX_DIGITS, max_nesting_depth: 64 }
    }
}

/// A failed conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct CastError {
    /// Source type.
    pub from: DataType,
    /// Target type.
    pub to: DataType,
    /// Human-readable reason.
    pub reason: String,
}

impl CastError {
    fn new(from: DataType, to: DataType, reason: impl Into<String>) -> CastError {
        CastError { from, to, reason: reason.into() }
    }
}

impl fmt::Display for CastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot cast {} to {}: {}", self.from, self.to, self.reason)
    }
}

impl std::error::Error for CastError {}

/// True when `from` may be *implicitly* converted to `to` under the given
/// strictness. Explicit casts are allowed for every pair [`cast`] implements.
pub fn implicit_castable(from: DataType, to: DataType, strictness: CastStrictness) -> bool {
    use DataType::*;
    if from == to || from == Null {
        return true;
    }
    match strictness {
        CastStrictness::Strict => matches!(
            (from, to),
            (Integer, Decimal)
                | (Integer, Float)
                | (Decimal, Float)
                | (Boolean, Integer)
                | (Date, DateTime)
                | (Text, Json) // PG treats unknown-typed literals as castable
                | (Text, Binary) // binary-compatible reinterpretation
        ),
        CastStrictness::Lenient => {
            // MySQL-style: nearly everything scalar interconverts.
            !matches!(from, Row | Star) && !matches!(to, Row | Star)
        }
    }
}

/// Converts `value` to type `to`.
///
/// Implicit casts additionally require [`implicit_castable`] to hold; this is
/// the hook dialect strictness plugs into. NULL casts to NULL of any type.
pub fn cast(
    value: &Value,
    to: DataType,
    mode: CastMode,
    strictness: CastStrictness,
    limits: &CastLimits,
) -> Result<Value, CastError> {
    let from = value.data_type();
    if from == to {
        return Ok(value.clone());
    }
    if value.is_null() {
        return Ok(Value::Null);
    }
    if mode == CastMode::Implicit && !implicit_castable(from, to, strictness) {
        return Err(CastError::new(from, to, "no implicit conversion"));
    }
    let lenient = strictness == CastStrictness::Lenient;
    let err = |reason: &str| CastError::new(from, to, reason);
    match to {
        DataType::Boolean => match value.truthiness() {
            Some(b) => Ok(Value::Boolean(b)),
            None => Ok(Value::Null),
        },
        DataType::Integer => to_integer(value, lenient).map_err(|r| err(&r)),
        DataType::Decimal => to_decimal(value, lenient, limits).map_err(|r| err(&r)),
        DataType::Float => to_float(value, lenient).map_err(|r| err(&r)),
        DataType::Text => Ok(Value::Text(value.render())),
        DataType::Binary => match value {
            Value::Text(s) => Ok(Value::Binary(s.as_bytes().to_vec())),
            Value::Integer(i) => Ok(Value::Binary(i.to_be_bytes().to_vec())),
            Value::Geometry(g) => Ok(Value::Binary(g.to_binary())),
            _ => {
                if lenient {
                    Ok(Value::Binary(value.render().into_bytes()))
                } else {
                    Err(err("only text/integer/geometry convert to binary"))
                }
            }
        },
        DataType::Date => match value {
            Value::Text(s) => Date::parse_text(s)
                .map(Value::Date)
                .map_err(|e| CastError::new(from, to, e.message())),
            Value::DateTime(dt) => Ok(Value::Date(dt.date)),
            Value::Integer(i) => {
                // YYYYMMDD numeric form, as MySQL accepts.
                let v = *i;
                if !(101..=99991231).contains(&v) {
                    return Err(err("integer out of date range"));
                }
                let y = (v / 10000) as i32;
                let m = ((v / 100) % 100) as u8;
                let d = (v % 100) as u8;
                Date::new(y, m, d).map(Value::Date).map_err(|e| err(&e.to_string()))
            }
            _ => Err(err("unsupported source for DATE")),
        },
        DataType::Time => match value {
            Value::Text(s) => Time::parse_text(s)
                .map(Value::Time)
                .map_err(|e| CastError::new(from, to, e.message())),
            Value::DateTime(dt) => Ok(Value::Time(dt.time)),
            _ => Err(err("unsupported source for TIME")),
        },
        DataType::DateTime => match value {
            Value::Text(s) => DateTime::parse_text(s)
                .map(Value::DateTime)
                .map_err(|e| CastError::new(from, to, e.message())),
            Value::Date(d) => {
                Ok(Value::DateTime(DateTime::new(*d, crate::datetime::Time::MIDNIGHT)))
            }
            _ => Err(err("unsupported source for DATETIME")),
        },
        DataType::Interval => match value {
            Value::Integer(i) => Ok(Value::Interval(Interval::days(*i))),
            _ => Err(err("unsupported source for INTERVAL")),
        },
        DataType::Json => match value {
            Value::Text(s) => json::parse_with_depth(s, limits.max_nesting_depth)
                .map(Value::Json)
                .map_err(|e| err(&e.to_string())),
            Value::Integer(i) => Ok(Value::Json(json::JsonValue::Number(i.to_string()))),
            Value::Decimal(d) => Ok(Value::Json(json::JsonValue::Number(d.to_string()))),
            Value::Float(f) => Ok(Value::Json(json::JsonValue::Number(format!("{f}")))),
            Value::Boolean(b) => Ok(Value::Json(json::JsonValue::Bool(*b))),
            Value::Array(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    match cast(item, DataType::Json, mode, strictness, limits)? {
                        Value::Json(j) => out.push(j),
                        Value::Null => out.push(json::JsonValue::Null),
                        _ => return Err(err("array element not convertible to JSON")),
                    }
                }
                Ok(Value::Json(json::JsonValue::Array(out)))
            }
            Value::Map(entries) => {
                let mut out = Vec::with_capacity(entries.len());
                for (k, v) in entries {
                    let key = match k {
                        Value::Text(s) => s.clone(),
                        other => other.render(),
                    };
                    match cast(v, DataType::Json, mode, strictness, limits)? {
                        Value::Json(j) => out.push((key, j)),
                        Value::Null => out.push((key, json::JsonValue::Null)),
                        _ => return Err(err("map value not convertible to JSON")),
                    }
                }
                Ok(Value::Json(json::JsonValue::Object(out)))
            }
            _ => Err(err("unsupported source for JSON")),
        },
        DataType::Xml => match value {
            Value::Text(s) => XmlDocument::parse_with_depth(s, limits.max_nesting_depth)
                .map(Value::Xml)
                .map_err(|e| err(&e.to_string())),
            _ => Err(err("unsupported source for XML")),
        },
        DataType::Geometry => match value {
            Value::Text(s) => {
                Geometry::parse_wkt(s).map(Value::Geometry).map_err(|e| err(&e.to_string()))
            }
            Value::Binary(b) => {
                Geometry::from_binary(b).map(Value::Geometry).map_err(|e| err(&e.to_string()))
            }
            _ => Err(err("unsupported source for GEOMETRY")),
        },
        DataType::Array => match value {
            Value::Json(json::JsonValue::Array(items)) => {
                Ok(Value::Array(items.iter().map(json_to_value).collect()))
            }
            v => Ok(Value::Array(vec![v.clone()])),
        },
        DataType::Map => match value {
            Value::Json(json::JsonValue::Object(fields)) => Ok(Value::Map(
                fields
                    .iter()
                    .map(|(k, v)| (Value::Text(k.clone()), json_to_value(v)))
                    .collect(),
            )),
            _ => Err(err("unsupported source for MAP")),
        },
        DataType::Row | DataType::Star | DataType::Null => {
            Err(err("not a cast target"))
        }
    }
}

/// Converts a JSON scalar/tree into the closest SQL value.
pub fn json_to_value(j: &json::JsonValue) -> Value {
    match j {
        json::JsonValue::Null => Value::Null,
        json::JsonValue::Bool(b) => Value::Boolean(*b),
        json::JsonValue::Number(n) => match n.parse::<i64>() {
            Ok(i) => Value::Integer(i),
            Err(_) => match n.parse::<Decimal>() {
                Ok(d) => Value::Decimal(d),
                Err(_) => Value::Float(n.parse().unwrap_or(0.0)),
            },
        },
        json::JsonValue::String(s) => Value::Text(s.clone()),
        json::JsonValue::Array(items) => Value::Array(items.iter().map(json_to_value).collect()),
        json::JsonValue::Object(fields) => Value::Map(
            fields
                .iter()
                .map(|(k, v)| (Value::Text(k.clone()), json_to_value(v)))
                .collect(),
        ),
    }
}

fn to_integer(value: &Value, lenient: bool) -> Result<Value, String> {
    match value {
        Value::Boolean(b) => Ok(Value::Integer(if *b { 1 } else { 0 })),
        Value::Integer(i) => Ok(Value::Integer(*i)),
        Value::Decimal(d) => d.to_i64().map(Value::Integer).map_err(|e| e.to_string()),
        Value::Float(f) => {
            if f.is_finite() && (i64::MIN as f64..=i64::MAX as f64).contains(f) {
                Ok(Value::Integer(f.trunc() as i64))
            } else {
                Err("float out of integer range".to_string())
            }
        }
        Value::Text(s) => {
            if lenient {
                Ok(Value::Integer(parse_numeric_prefix(s).trunc() as i64))
            } else {
                s.trim().parse::<i64>().map(Value::Integer).map_err(|e| e.to_string())
            }
        }
        Value::Date(d) => Ok(Value::Integer(
            d.year() as i64 * 10000 + d.month() as i64 * 100 + d.day() as i64,
        )),
        Value::Json(json::JsonValue::Number(n)) => {
            n.parse::<i64>().map(Value::Integer).map_err(|e| e.to_string())
        }
        _ => Err("unsupported source for INTEGER".to_string()),
    }
}

fn to_decimal(value: &Value, lenient: bool, limits: &CastLimits) -> Result<Value, String> {
    let d = match value {
        Value::Boolean(b) => Decimal::from_i64(if *b { 1 } else { 0 }),
        Value::Integer(i) => Decimal::from_i64(*i),
        Value::Decimal(d) => d.clone(),
        Value::Float(f) => Decimal::from_f64(*f).map_err(|e| e.to_string())?,
        Value::Text(s) => {
            if lenient {
                // Parse the longest numeric prefix as a decimal.
                match s.trim().parse::<Decimal>() {
                    Ok(d) => d,
                    Err(_) => Decimal::from_f64(parse_numeric_prefix(s))
                        .map_err(|e| e.to_string())?,
                }
            } else {
                s.trim().parse::<Decimal>().map_err(|e| e.to_string())?
            }
        }
        Value::Json(json::JsonValue::Number(n)) => n.parse().map_err(|_| "bad number")?,
        _ => return Err("unsupported source for DECIMAL".to_string()),
    };
    if d.total_digits() > limits.max_decimal_digits {
        return Err(format!(
            "decimal would need {} digits (limit {})",
            d.total_digits(),
            limits.max_decimal_digits
        ));
    }
    Ok(Value::Decimal(d))
}

fn to_float(value: &Value, lenient: bool) -> Result<Value, String> {
    match value {
        Value::Boolean(b) => Ok(Value::Float(if *b { 1.0 } else { 0.0 })),
        Value::Integer(i) => Ok(Value::Float(*i as f64)),
        Value::Decimal(d) => Ok(Value::Float(d.to_f64())),
        Value::Float(f) => Ok(Value::Float(*f)),
        Value::Text(s) => {
            if lenient {
                Ok(Value::Float(parse_numeric_prefix(s)))
            } else {
                s.trim().parse::<f64>().map(Value::Float).map_err(|e| e.to_string())
            }
        }
        Value::Json(json::JsonValue::Number(n)) => {
            n.parse().map(Value::Float).map_err(|_| "bad number".to_string())
        }
        _ => Err("unsupported source for DOUBLE".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: &CastLimits = &CastLimits { max_decimal_digits: 81, max_nesting_depth: 64 };

    fn exp(v: &Value, to: DataType) -> Result<Value, CastError> {
        cast(v, to, CastMode::Explicit, CastStrictness::Lenient, L)
    }

    fn imp_strict(v: &Value, to: DataType) -> Result<Value, CastError> {
        cast(v, to, CastMode::Implicit, CastStrictness::Strict, L)
    }

    #[test]
    fn null_casts_to_null() {
        for t in DataType::CASTABLE {
            assert_eq!(exp(&Value::Null, t).unwrap(), Value::Null, "NULL -> {t}");
        }
    }

    #[test]
    fn numeric_conversions() {
        assert_eq!(exp(&Value::Text("42".into()), DataType::Integer).unwrap(), Value::Integer(42));
        assert_eq!(
            exp(&Value::Float(1.9), DataType::Integer).unwrap(),
            Value::Integer(1)
        );
        assert_eq!(
            exp(&Value::Integer(3), DataType::Decimal).unwrap().render(),
            "3"
        );
    }

    #[test]
    fn lenient_text_to_number_uses_prefix() {
        assert_eq!(
            exp(&Value::Text("12abc".into()), DataType::Integer).unwrap(),
            Value::Integer(12)
        );
        assert_eq!(exp(&Value::Text("abc".into()), DataType::Integer).unwrap(), Value::Integer(0));
    }

    #[test]
    fn strict_rejects_implicit_cross_family() {
        assert!(imp_strict(&Value::Text("1".into()), DataType::Integer).is_err());
        assert!(imp_strict(&Value::Integer(1), DataType::Float).is_ok());
        assert!(imp_strict(&Value::Integer(1), DataType::Decimal).is_ok());
    }

    #[test]
    fn text_json_roundtrip() {
        let v = exp(&Value::Text("{\"a\": [1,2]}".into()), DataType::Json).unwrap();
        assert_eq!(v.render(), "{\"a\":[1,2]}");
        assert!(exp(&Value::Text("{bad".into()), DataType::Json).is_err());
    }

    #[test]
    fn deep_json_respects_depth_limit() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let e = exp(&Value::Text(deep), DataType::Json).unwrap_err();
        assert!(e.reason.contains("depth"), "{e}");
    }

    #[test]
    fn date_conversions() {
        assert_eq!(
            exp(&Value::Text("2024-01-02".into()), DataType::Date).unwrap().render(),
            "2024-01-02"
        );
        assert_eq!(exp(&Value::Integer(20240102), DataType::Date).unwrap().render(), "2024-01-02");
        assert!(exp(&Value::Integer(20241402), DataType::Date).is_err());
    }

    #[test]
    fn geometry_from_binary_validates() {
        let geo = Geometry::parse_wkt("POINT(1 2)").unwrap();
        let bin = Value::Binary(geo.to_binary());
        assert_eq!(exp(&bin, DataType::Geometry).unwrap(), Value::Geometry(geo));
        // A 4-byte INET blob is rejected (post-fix Listing 11 behaviour).
        let blob = Value::Binary(vec![0xff; 4]);
        assert!(exp(&blob, DataType::Geometry).is_err());
    }

    #[test]
    fn decimal_digit_limit_applies() {
        let limits = CastLimits { max_decimal_digits: 10, max_nesting_depth: 64 };
        let long = Value::Text("123456789012345".into());
        let e = cast(&long, DataType::Decimal, CastMode::Explicit, CastStrictness::Lenient, &limits)
            .unwrap_err();
        assert!(e.reason.contains("digits"));
    }

    #[test]
    fn json_object_to_map() {
        let j = exp(&Value::Text("{\"k\": 1}".into()), DataType::Json).unwrap();
        let m = exp(&j, DataType::Map).unwrap();
        assert_eq!(m.render(), "{k: 1}");
    }

    #[test]
    fn star_is_not_castable() {
        assert!(exp(&Value::Star, DataType::Integer).is_err());
    }

    #[test]
    fn mdev_11030_shape_null_to_unsigned_is_null() {
        // CONVERT(NULL, UNSIGNED) must be NULL, not a broken zero.
        assert_eq!(exp(&Value::Null, DataType::Integer).unwrap(), Value::Null);
    }
}

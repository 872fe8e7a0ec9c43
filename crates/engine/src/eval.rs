//! Provenance-carrying evaluated values.
//!
//! §5 of the paper divides boundary arguments by *where the value came from*:
//! literal values, type-casting results, or nested-function returns. The
//! evaluator therefore tags every value with its [`Provenance`], and the
//! fault corpus triggers on (value, provenance) pairs — which is exactly why
//! the P2.x/P3.x patterns can reach faults that random literals cannot.

use soft_types::value::{DataType, Value};

/// Where an evaluated value came from.
#[derive(Debug, Clone, PartialEq)]
pub enum Provenance {
    /// A literal written in the statement.
    Literal,
    /// A table column.
    Column,
    /// The `*` pseudo-argument.
    Star,
    /// A cast applied to an inner value.
    Cast {
        /// The type the operand had before the cast.
        from: DataType,
        /// True for user-written `CAST`/`::`; false for engine coercions
        /// (argument coercion, `UNION` column alignment).
        explicit: bool,
        /// Provenance of the operand.
        inner: Box<Provenance>,
    },
    /// The return value of a scalar function.
    FunctionReturn {
        /// Canonical (lowercase) function name.
        name: String,
    },
    /// The result of an aggregate.
    AggregateReturn {
        /// Canonical (lowercase) function name.
        name: String,
    },
    /// A scalar subquery result.
    Subquery {
        /// Provenance of the projected cell (if derivable).
        inner: Box<Provenance>,
    },
    /// An operator (`+`, `||`, `CASE`, ...) combined other values.
    Operator,
    /// A constructed row/array/map literal.
    Constructor,
}

impl Provenance {
    /// True if the value passed through any cast (explicit or implicit),
    /// looking through subquery wrappers.
    pub fn via_cast(&self, explicit_only: Option<bool>) -> bool {
        match self {
            Provenance::Cast { explicit, .. } => match explicit_only {
                None => true,
                Some(want) => *explicit == want,
            },
            Provenance::Subquery { inner } => inner.via_cast(explicit_only),
            _ => false,
        }
    }

    /// The source type of the outermost cast, if any.
    pub fn cast_source(&self) -> Option<DataType> {
        match self {
            Provenance::Cast { from, .. } => Some(*from),
            Provenance::Subquery { inner } => inner.cast_source(),
            _ => None,
        }
    }

    /// True if the value is (possibly through casts/subqueries) the return
    /// of a function; `name` filters to a specific function when given.
    pub fn from_function(&self, name: Option<&str>) -> bool {
        match self {
            Provenance::FunctionReturn { name: n } | Provenance::AggregateReturn { name: n } => {
                name.map_or(true, |want| n.eq_ignore_ascii_case(want))
            }
            Provenance::Cast { inner, .. } | Provenance::Subquery { inner } => {
                inner.from_function(name)
            }
            _ => false,
        }
    }

    /// True if this value is a plain literal (no cast, no function).
    pub fn is_literal(&self) -> bool {
        matches!(self, Provenance::Literal | Provenance::Star)
    }

    /// True if the value came out of a subquery.
    pub fn via_subquery(&self) -> bool {
        matches!(self, Provenance::Subquery { .. })
    }
}

/// A value plus its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluated {
    /// The value.
    pub value: Value,
    /// Where it came from.
    pub provenance: Provenance,
}

impl Evaluated {
    /// A literal-provenance value.
    pub fn literal(value: Value) -> Evaluated {
        Evaluated { value, provenance: Provenance::Literal }
    }

    /// A column-provenance value.
    pub fn column(value: Value) -> Evaluated {
        Evaluated { value, provenance: Provenance::Column }
    }

    /// A function-return value.
    pub fn function_return(value: Value, name: &str) -> Evaluated {
        Evaluated {
            value,
            provenance: Provenance::FunctionReturn { name: name.to_ascii_lowercase() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cast_matching_looks_through_subquery() {
        let p = Provenance::Subquery {
            inner: Box::new(Provenance::Cast {
                from: DataType::Null,
                explicit: false,
                inner: Box::new(Provenance::Literal),
            }),
        };
        assert!(p.via_cast(None));
        assert!(p.via_cast(Some(false)));
        assert!(!p.via_cast(Some(true)));
        assert_eq!(p.cast_source(), Some(DataType::Null));
    }

    #[test]
    fn function_matching_is_name_insensitive() {
        let p = Provenance::FunctionReturn { name: "inet6_aton".into() };
        assert!(p.from_function(None));
        assert!(p.from_function(Some("INET6_ATON")));
        assert!(!p.from_function(Some("repeat")));
    }

    #[test]
    fn function_through_cast() {
        let p = Provenance::Cast {
            from: DataType::Binary,
            explicit: false,
            inner: Box::new(Provenance::FunctionReturn { name: "inet6_aton".into() }),
        };
        assert!(p.from_function(Some("inet6_aton")));
    }

    #[test]
    fn literal_classification() {
        assert!(Provenance::Literal.is_literal());
        assert!(Provenance::Star.is_literal());
        assert!(!Provenance::Operator.is_literal());
    }
}

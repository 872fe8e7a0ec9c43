//! Provenance-carrying evaluated values.
//!
//! §5 of the paper divides boundary arguments by *where the value came from*:
//! literal values, type-casting results, or nested-function returns. The
//! evaluator therefore tags every value with its [`Provenance`], and the
//! fault corpus triggers on (value, provenance) pairs — which is exactly why
//! the P2.x/P3.x patterns can reach faults that random literals cannot.
//!
//! The tag is flat. The fault predicates ([`crate::fault::ProvPred`]), the
//! per-call coverage features and `COERCIBILITY` read three facts of a
//! value's history, so the tag holds exactly those: the outermost step (a
//! literal or `*`, or a scalar subquery), the outermost cast seen through
//! subqueries, and the function the value came from through casts and
//! subqueries. Tagging a call, cast or subquery result copies the tag; it
//! allocates nothing.

use soft_types::value::Value;

/// The outermost step that produced a value, as far as the provenance
/// predicates tell steps apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// A literal written in the statement, or the `*` pseudo-argument.
    Literal,
    /// A scalar subquery's result.
    Subquery,
    /// A column, a cast, a function return, an operator or a constructor.
    Other,
}

/// Where an evaluated value came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    step: Step,
    /// The outermost cast, seen through subqueries: `true` for user-written
    /// `CAST`/`::`, `false` for engine coercions (argument coercion,
    /// `UNION` column alignment).
    cast: Option<bool>,
    /// The canonical name of the function (scalar or aggregate) whose
    /// return this is, seen through casts and subqueries.
    function: Option<&'static str>,
}

impl Provenance {
    /// A literal written in the statement, or the `*` pseudo-argument.
    pub const LITERAL: Provenance = Provenance { step: Step::Literal, cast: None, function: None };

    /// A table column, an operator's result (`+`, `||`, `CASE`, ...) or a
    /// constructed row/array: none of the three facts holds.
    pub const OTHER: Provenance = Provenance { step: Step::Other, cast: None, function: None };

    /// The return value of the scalar or aggregate function `name`.
    pub fn function_return(name: &'static str) -> Provenance {
        Provenance { step: Step::Other, cast: None, function: Some(name) }
    }

    /// The provenance of this value after a cast; `explicit` for
    /// user-written `CAST`/`::`.
    pub fn cast(self, explicit: bool) -> Provenance {
        Provenance { step: Step::Other, cast: Some(explicit), ..self }
    }

    /// The provenance of this value as a scalar subquery's result.
    pub fn subquery(self) -> Provenance {
        Provenance { step: Step::Subquery, ..self }
    }

    /// True if the value passed through any cast (explicit or implicit),
    /// looking through subquery wrappers; `explicit_only` filters to one
    /// kind of cast when given.
    pub fn via_cast(&self, explicit_only: Option<bool>) -> bool {
        match self.cast {
            Some(explicit) => explicit_only.map_or(true, |want| explicit == want),
            None => false,
        }
    }

    /// True if the value is (possibly through casts/subqueries) the return
    /// of a function; `name` filters to a specific function when given.
    pub fn from_function(&self, name: Option<&str>) -> bool {
        match self.function {
            Some(f) => name.map_or(true, |want| f.eq_ignore_ascii_case(want)),
            None => false,
        }
    }

    /// True if this value is a plain literal (no cast, no function).
    pub fn is_literal(&self) -> bool {
        self.step == Step::Literal
    }

    /// True if the value came out of a subquery.
    pub fn via_subquery(&self) -> bool {
        self.step == Step::Subquery
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
        Evaluated { value, provenance: Provenance::LITERAL }
    }

    /// A column-provenance value.
    pub fn column(value: Value) -> Evaluated {
        Evaluated { value, provenance: Provenance::OTHER }
    }

    /// A function-return value.
    pub fn function_return(value: Value, name: &'static str) -> Evaluated {
        Evaluated { value, provenance: Provenance::function_return(name) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ProvPred;
    use soft_rng::Rng;
    use soft_types::value::DataType;

    /// The recursive provenance chain the flat tag replaced: one node per
    /// step, each cast and subquery owning its operand's chain. Kept as the
    /// reference the flat tag must agree with.
    #[derive(Debug, Clone)]
    enum Chain {
        Literal,
        Column,
        Star,
        Cast { _from: DataType, explicit: bool, inner: Box<Chain> },
        FunctionReturn { name: String },
        AggregateReturn { name: String },
        Subquery { inner: Box<Chain> },
        Operator,
        Constructor,
    }

    impl Chain {
        fn via_cast(&self, explicit_only: Option<bool>) -> bool {
            match self {
                Chain::Cast { explicit, .. } => match explicit_only {
                    None => true,
                    Some(want) => *explicit == want,
                },
                Chain::Subquery { inner } => inner.via_cast(explicit_only),
                _ => false,
            }
        }

        fn returned_by(&self, name: Option<&str>) -> bool {
            match self {
                Chain::FunctionReturn { name: n } | Chain::AggregateReturn { name: n } => {
                    name.map_or(true, |want| n.eq_ignore_ascii_case(want))
                }
                Chain::Cast { inner, .. } | Chain::Subquery { inner } => {
                    inner.returned_by(name)
                }
                _ => false,
            }
        }

        fn is_literal(&self) -> bool {
            matches!(self, Chain::Literal | Chain::Star)
        }

        fn via_subquery(&self) -> bool {
            matches!(self, Chain::Subquery { .. })
        }
    }

    const NAMES: &[&str] = &["inet6_aton", "repeat", "sum", "concat"];

    /// A random chain of up to `depth` steps, built twice: as the recursive
    /// reference and as the flat tag, with the constructors the executor
    /// uses for each step.
    fn chain(rng: &mut Rng, depth: usize) -> (Chain, Provenance) {
        let leaf = depth == 0 || rng.gen_bool(0.3);
        if leaf {
            return match rng.gen_range(0..7usize) {
                0 => (Chain::Literal, Provenance::LITERAL),
                1 => (Chain::Star, Provenance::LITERAL),
                2 => (Chain::Column, Provenance::OTHER),
                3 => (Chain::Operator, Provenance::OTHER),
                4 => (Chain::Constructor, Provenance::OTHER),
                5 => {
                    let name = *rng.choose(NAMES).expect("names");
                    (Chain::FunctionReturn { name: name.into() }, Provenance::function_return(name))
                }
                _ => {
                    let name = *rng.choose(NAMES).expect("names");
                    (Chain::AggregateReturn { name: name.into() }, Provenance::function_return(name))
                }
            };
        }
        let (inner, flat) = chain(rng, depth - 1);
        if rng.gen_bool(0.5) {
            let explicit = rng.gen_bool(0.5);
            let from = *rng.choose(&[DataType::Null, DataType::Text, DataType::Integer]).expect("types");
            (
                Chain::Cast { _from: from, explicit, inner: Box::new(inner) },
                flat.cast(explicit),
            )
        } else {
            (Chain::Subquery { inner: Box::new(inner) }, flat.subquery())
        }
    }

    #[test]
    fn flat_tag_answers_every_query_like_the_recursive_chain() {
        let mut preds = vec![
            ProvPred::FromAnyFunction,
            ProvPred::ViaExplicitCast,
            ProvPred::ViaImplicitCast,
            ProvPred::ViaAnyCast,
            ProvPred::ViaSubquery,
            ProvPred::IsLiteral,
            ProvPred::FromFunction("unknown".into()),
        ];
        for name in NAMES {
            preds.push(ProvPred::FromFunction(name.to_string()));
            preds.push(ProvPred::FromFunction(name.to_ascii_uppercase()));
        }
        let mut rng = Rng::seed_from_u64(0x5eed_c4a1);
        for _ in 0..5_000 {
            let (reference, flat) = chain(&mut rng, 6);
            let e = Evaluated { value: Value::Integer(1), provenance: flat };
            for pred in &preds {
                let want = match pred {
                    ProvPred::FromAnyFunction => reference.returned_by(None),
                    ProvPred::FromFunction(name) => reference.returned_by(Some(name)),
                    ProvPred::ViaExplicitCast => reference.via_cast(Some(true)),
                    ProvPred::ViaImplicitCast => reference.via_cast(Some(false)),
                    ProvPred::ViaAnyCast => reference.via_cast(None),
                    ProvPred::ViaSubquery => reference.via_subquery(),
                    ProvPred::IsLiteral => reference.is_literal(),
                };
                assert_eq!(pred.matches(&e), want, "{pred:?} on {reference:?}");
            }
            // `Exec::record_call` and `COERCIBILITY` read these directly.
            assert_eq!(flat.from_function(None), reference.returned_by(None), "{reference:?}");
            assert_eq!(flat.via_cast(None), reference.via_cast(None), "{reference:?}");
            assert_eq!(flat.is_literal(), reference.is_literal(), "{reference:?}");
        }
    }

    #[test]
    fn cast_matching_looks_through_subquery() {
        let p = Provenance::LITERAL.cast(false).subquery();
        assert!(p.via_cast(None));
        assert!(p.via_cast(Some(false)));
        assert!(!p.via_cast(Some(true)));
        assert!(p.via_subquery());
        assert!(!p.is_literal());
    }

    #[test]
    fn function_matching_is_name_insensitive() {
        let p = Provenance::function_return("inet6_aton");
        assert!(p.from_function(None));
        assert!(p.from_function(Some("INET6_ATON")));
        assert!(!p.from_function(Some("repeat")));
    }

    #[test]
    fn function_through_cast() {
        let p = Provenance::function_return("inet6_aton").cast(false);
        assert!(p.from_function(Some("inet6_aton")));
        assert!(p.via_cast(Some(false)));
    }

    #[test]
    fn literal_classification() {
        assert!(Provenance::LITERAL.is_literal());
        assert!(!Provenance::OTHER.is_literal());
        assert!(!Provenance::LITERAL.cast(true).is_literal());
    }
}

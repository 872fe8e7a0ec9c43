//! The fault-injection model.
//!
//! The paper found 132 real memory-safety bugs in seven DBMSs (Table 4).
//! Those DBMSs are not part of this reproduction, so each bug is modelled as
//! a [`FaultSpec`]: a predicate over the (value, provenance) pairs reaching a
//! fault site — a function invocation, a cast, or the parser. When the
//! predicate matches, the engine reports a [`CrashReport`] with the same
//! classification the paper's sanitizer reports carried.
//!
//! Faults are *data* (the corpus lives in `soft-dialects`); this module is
//! the predicate language and the matcher.

use crate::error::{CrashKind, CrashReport, Stage};
use crate::eval::Evaluated;
use soft_types::boundary;
use soft_types::category::FunctionCategory;
use soft_types::value::{DataType, Value};
use std::fmt;

/// The ten boundary-value-generation patterns of §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PatternId {
    /// Boundary literal pool (±0.99999, ±99999, '', NULL, *).
    P1_1,
    /// Boundary literal as a function argument.
    P1_2,
    /// Digit-run insertion inside a literal.
    P1_3,
    /// Character repetition inside a literal.
    P1_4,
    /// Explicit cast of an argument.
    P2_1,
    /// Implicit cast via `UNION`.
    P2_2,
    /// Cross-function argument transplant.
    P2_3,
    /// `REPEAT`-constructed extreme argument.
    P3_1,
    /// Wrapping an argument in another function.
    P3_2,
    /// Replacing an argument with another function's return.
    P3_3,
}

impl PatternId {
    /// All ten patterns in paper order.
    pub const ALL: [PatternId; 10] = [
        PatternId::P1_1,
        PatternId::P1_2,
        PatternId::P1_3,
        PatternId::P1_4,
        PatternId::P2_1,
        PatternId::P2_2,
        PatternId::P2_3,
        PatternId::P3_1,
        PatternId::P3_2,
        PatternId::P3_3,
    ];

    /// The paper's label, e.g. `P1.2`.
    pub fn label(&self) -> &'static str {
        match self {
            PatternId::P1_1 => "P1.1",
            PatternId::P1_2 => "P1.2",
            PatternId::P1_3 => "P1.3",
            PatternId::P1_4 => "P1.4",
            PatternId::P2_1 => "P2.1",
            PatternId::P2_2 => "P2.2",
            PatternId::P2_3 => "P2.3",
            PatternId::P3_1 => "P3.1",
            PatternId::P3_2 => "P3.2",
            PatternId::P3_3 => "P3.3",
        }
    }

    /// Parses a paper label (`P1.2`) back into the pattern — the inverse of
    /// [`PatternId::label`], used by the telemetry journal reader.
    pub fn from_label(label: &str) -> Option<PatternId> {
        PatternId::ALL.into_iter().find(|p| p.label() == label)
    }

    /// The pattern group (1 = literals, 2 = castings, 3 = nested functions).
    pub fn group(&self) -> u8 {
        match self {
            PatternId::P1_1 | PatternId::P1_2 | PatternId::P1_3 | PatternId::P1_4 => 1,
            PatternId::P2_1 | PatternId::P2_2 | PatternId::P2_3 => 2,
            PatternId::P3_1 | PatternId::P3_2 | PatternId::P3_3 => 3,
        }
    }
}

impl fmt::Display for PatternId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A predicate over a single argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ValuePred {
    /// SQL NULL.
    IsNull,
    /// The `*` pseudo-argument.
    IsStar,
    /// `''` (or empty binary).
    IsEmptyString,
    /// The value has this type.
    TypeIs(DataType),
    /// Numeric with at least this many significant digits.
    DigitsAtLeast(usize),
    /// String (or binary) at least this long.
    LenAtLeast(usize),
    /// String starting with a short prefix repeated at least this many times.
    RepeatRunAtLeast(usize),
    /// JSON/XML/container nested at least this deep.
    NestingAtLeast(usize),
    /// Negative number.
    IsNegative,
    /// Numeric zero.
    IsZero,
    /// Integer with magnitude at least this large.
    IntAbsAtLeast(u64),
    /// Integer exactly equal to this value.
    IntEquals(i64),
    /// Text that looks like structured data (JSON/XML/WKT/date/address).
    StructuredText,
    /// Any of the inner predicates.
    AnyOf(Vec<ValuePred>),
    /// All of the inner predicates (on the same value).
    AllOf(Vec<ValuePred>),
}

impl ValuePred {
    /// Evaluates the predicate against a value.
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            ValuePred::IsNull => v.is_null(),
            ValuePred::IsStar => matches!(v, Value::Star),
            ValuePred::IsEmptyString => {
                matches!(v, Value::Text(s) if s.is_empty())
                    || matches!(v, Value::Binary(b) if b.is_empty())
            }
            ValuePred::TypeIs(t) => v.data_type() == *t,
            ValuePred::DigitsAtLeast(n) => match v {
                Value::Integer(i) => i.unsigned_abs().to_string().len() >= *n,
                Value::Decimal(d) => d.total_digits() >= *n,
                Value::Text(s) => boundary::has_digits_at_least(s, *n),
                _ => false,
            },
            ValuePred::LenAtLeast(n) => match v {
                Value::Text(s) => s.len() >= *n,
                Value::Binary(b) => b.len() >= *n,
                _ => false,
            },
            ValuePred::RepeatRunAtLeast(n) => match v {
                Value::Text(s) => boundary::repeated_prefix_run_capped(s, *n) >= *n,
                // Arrays with a long leading run of equal elements are the
                // container analogue of a repeated prefix (P1.4 on array
                // literals).
                Value::Array(items) => {
                    let Some(first) = items.first() else { return false };
                    let key = first.group_key();
                    items.iter().take_while(|i| i.group_key() == key).count() >= *n
                }
                _ => false,
            },
            ValuePred::NestingAtLeast(n) => match v {
                Value::Json(j) => j.depth() >= *n,
                Value::Xml(x) => x.roots.iter().map(|r| r.depth()).max().unwrap_or(0) >= *n,
                Value::Text(s) => boundary::repeated_prefix_run_capped(s, *n) >= *n,
                Value::Array(_) => container_depth(v) >= *n,
                _ => false,
            },
            ValuePred::IsNegative => match v {
                Value::Integer(i) => *i < 0,
                Value::Decimal(d) => d.is_negative(),
                Value::Float(f) => *f < 0.0,
                _ => false,
            },
            ValuePred::IsZero => match v {
                Value::Integer(i) => *i == 0,
                Value::Decimal(d) => d.is_zero(),
                Value::Float(f) => *f == 0.0,
                _ => false,
            },
            ValuePred::IntAbsAtLeast(n) => match v {
                Value::Integer(i) => i.unsigned_abs() >= *n,
                Value::Decimal(d) => d.abs().to_i64().map(|x| x.unsigned_abs() >= *n).unwrap_or(true),
                Value::Float(f) => f.abs() >= *n as f64,
                _ => false,
            },
            ValuePred::IntEquals(n) => matches!(v, Value::Integer(i) if i == n),
            ValuePred::StructuredText => {
                matches!(v, Value::Text(s) if boundary::looks_structured(s))
            }
            ValuePred::AnyOf(preds) => preds.iter().any(|p| p.matches(v)),
            ValuePred::AllOf(preds) => preds.iter().all(|p| p.matches(v)),
        }
    }
}

fn container_depth(v: &Value) -> usize {
    match v {
        Value::Array(items) | Value::Row(items) => {
            1 + items.iter().map(container_depth).max().unwrap_or(0)
        }
        _ => 0,
    }
}

/// A predicate over an argument's provenance.
#[derive(Debug, Clone, PartialEq)]
pub enum ProvPred {
    /// Came (possibly through casts/subqueries) from any function return.
    FromAnyFunction,
    /// Came from this specific function's return.
    FromFunction(String),
    /// Passed through an explicit (user-written) cast.
    ViaExplicitCast,
    /// Passed through an implicit (engine-inserted) cast — `UNION`
    /// alignment or argument coercion.
    ViaImplicitCast,
    /// Passed through any cast.
    ViaAnyCast,
    /// Came out of a scalar subquery.
    ViaSubquery,
    /// Is a plain literal.
    IsLiteral,
}

impl ProvPred {
    /// Evaluates the predicate against an argument's provenance.
    pub fn matches(&self, e: &Evaluated) -> bool {
        match self {
            ProvPred::FromAnyFunction => e.provenance.from_function(None),
            ProvPred::FromFunction(name) => e.provenance.from_function(Some(name)),
            ProvPred::ViaExplicitCast => e.provenance.via_cast(Some(true)),
            ProvPred::ViaImplicitCast => e.provenance.via_cast(Some(false)),
            ProvPred::ViaAnyCast => e.provenance.via_cast(None),
            ProvPred::ViaSubquery => e.provenance.via_subquery(),
            ProvPred::IsLiteral => e.provenance.is_literal(),
        }
    }
}

/// A trigger condition for a fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Some argument (or the `index`-th) satisfies the value predicate.
    Arg {
        /// Specific argument position, or any when `None`.
        index: Option<usize>,
        /// The value predicate.
        pred: ValuePred,
    },
    /// Some argument (or the `index`-th) satisfies the provenance predicate.
    ArgProv {
        /// Specific argument position, or any when `None`.
        index: Option<usize>,
        /// The provenance predicate.
        pred: ProvPred,
    },
    /// The call has exactly this many arguments.
    ArgCount(usize),
    /// The call has at least this many arguments.
    ArgCountAtLeast(usize),
    /// All sub-triggers match.
    And(Vec<Trigger>),
    /// Any sub-trigger matches.
    Or(Vec<Trigger>),
    /// The sub-trigger does not match.
    Not(Box<Trigger>),
    /// Always fires when the site is reached.
    Always,
}

impl Trigger {
    /// Evaluates the trigger against a call's arguments.
    pub fn matches(&self, args: &[Evaluated]) -> bool {
        match self {
            Trigger::Arg { index, pred } => match index {
                Some(i) => args.get(*i).is_some_and(|a| pred.matches(&a.value)),
                None => args.iter().any(|a| pred.matches(&a.value)),
            },
            Trigger::ArgProv { index, pred } => match index {
                Some(i) => args.get(*i).is_some_and(|a| pred.matches(a)),
                None => args.iter().any(|a| pred.matches(a)),
            },
            Trigger::ArgCount(n) => args.len() == *n,
            Trigger::ArgCountAtLeast(n) => args.len() >= *n,
            Trigger::And(ts) => ts.iter().all(|t| t.matches(args)),
            Trigger::Or(ts) => ts.iter().any(|t| t.matches(args)),
            Trigger::Not(t) => !t.matches(args),
            Trigger::Always => true,
        }
    }
}

/// Where a fault is attached.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSite {
    /// A function invocation (canonical lowercase name).
    Function(String),
    /// A cast producing the given target type.
    Cast {
        /// The cast target.
        to: DataType,
        /// Restrict to implicit casts only.
        implicit_only: bool,
    },
}

/// One injected fault — the reproduction of one Table 4 bug.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Stable identifier, e.g. `mysql-aggregate-npd-1`.
    pub id: String,
    /// Where the fault sits.
    pub site: FaultSite,
    /// Crash classification (Table 4's "Bug Type").
    pub kind: CrashKind,
    /// Stage the crash is reported in.
    pub stage: Stage,
    /// Trigger condition.
    pub trigger: Trigger,
    /// Function category (Table 4's "Function Type").
    pub category: FunctionCategory,
    /// The pattern the paper credits with finding this bug.
    pub pattern: PatternId,
    /// Whether the paper reports the bug as fixed.
    pub fixed: bool,
    /// Short description.
    pub description: String,
}

impl FaultSpec {
    /// Builds the crash report this fault produces.
    pub fn crash(&self, function: Option<&str>) -> CrashReport {
        CrashReport {
            fault_id: self.id.clone(),
            kind: self.kind,
            stage: self.stage,
            function: function.map(str::to_string),
            message: self.description.clone(),
        }
    }
}

/// How a logic quirk corrupts a function's return value.
///
/// Quirks are the wrong-*result* analogue of [`FaultSpec`]s: instead of
/// crashing the engine, a matching quirk silently alters the value a
/// function returns — the bug class the campaign's logic-bug oracles
/// (multi-form execution, PQS pivot, cross-dialect differential) exist to
/// catch. Effects must be deterministic pure functions of the input value.
#[derive(Debug, Clone, PartialEq)]
pub enum QuirkEffect {
    /// The function returns SQL NULL instead of its real result.
    NullResult,
    /// The function's result, rendered to text, gains this suffix (text
    /// results are mutated in place; other types are re-rendered as text).
    TextSuffix(String),
}

/// One injected wrong-result bug: a predicate over a function call's
/// arguments plus the corruption applied to the return value when it
/// matches. Like [`FaultSpec`]s, quirks are *data* — the corpus lives in
/// `soft-dialects`.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicQuirkSpec {
    /// Stable identifier, e.g. `clickhouse-logic-tostring-1`.
    pub id: String,
    /// Canonical (lowercase) name of the function the quirk sits in.
    pub function: String,
    /// Trigger condition over the call's evaluated arguments.
    pub trigger: Trigger,
    /// The corruption applied to the return value.
    pub effect: QuirkEffect,
    /// Short description.
    pub description: String,
}

impl LogicQuirkSpec {
    /// Applies the quirk's effect to a function's return value.
    pub fn apply(&self, value: Value) -> Value {
        match &self.effect {
            QuirkEffect::NullResult => Value::Null,
            QuirkEffect::TextSuffix(suffix) => match value {
                Value::Text(mut s) => {
                    s.push_str(suffix);
                    Value::Text(s)
                }
                other => Value::Text(format!("{}{}", other.render(), suffix)),
            },
        }
    }
}

/// The set of faults active in an engine instance, indexed for the two
/// fault sites checked on hot paths.
#[derive(Debug, Clone, Default)]
pub struct FaultSet {
    specs: Vec<FaultSpec>,
    /// Function-site spec indices keyed by function name, in spec order —
    /// the per-call check is one map lookup (usually a miss) instead of a
    /// scan over every spec.
    by_function: std::collections::HashMap<String, Vec<u32>>,
    /// Wrong-result quirks, checked on the scalar-function return path.
    quirks: Vec<LogicQuirkSpec>,
}

impl FaultSet {
    /// Builds a fault set.
    pub fn new(specs: Vec<FaultSpec>) -> FaultSet {
        FaultSet::with_quirks(specs, Vec::new())
    }

    /// Builds a fault set with wrong-result quirks attached.
    pub fn with_quirks(specs: Vec<FaultSpec>, quirks: Vec<LogicQuirkSpec>) -> FaultSet {
        let mut by_function: std::collections::HashMap<String, Vec<u32>> =
            std::collections::HashMap::new();
        for (i, s) in specs.iter().enumerate() {
            if let FaultSite::Function(f) = &s.site {
                by_function.entry(f.clone()).or_default().push(i as u32);
            }
        }
        FaultSet { specs, by_function, quirks }
    }

    /// All specs.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when no faults are loaded.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Checks function-site faults for a call; returns the first match (in
    /// spec order, exactly as the pre-index linear scan did).
    pub fn check_function(&self, name: &str, args: &[Evaluated]) -> Option<&FaultSpec> {
        let candidates = self.by_function.get(name)?;
        candidates.iter().map(|&i| &self.specs[i as usize]).find(|s| s.trigger.matches(args))
    }

    /// All wrong-result quirks.
    pub fn quirks(&self) -> &[LogicQuirkSpec] {
        &self.quirks
    }

    /// Checks wrong-result quirks for a scalar call's return path; returns
    /// the first match in corpus order. `name` is the canonical function
    /// name, exactly as passed to [`FaultSet::check_function`].
    pub fn check_quirk(&self, name: &str, args: &[Evaluated]) -> Option<&LogicQuirkSpec> {
        if self.quirks.is_empty() {
            return None;
        }
        self.quirks.iter().find(|q| q.function == name && q.trigger.matches(args))
    }

    /// Checks cast-site faults; `value` is the *pre-cast* operand.
    pub fn check_cast(
        &self,
        to: DataType,
        implicit: bool,
        operand: &Evaluated,
    ) -> Option<&FaultSpec> {
        self.specs.iter().find(|s| match &s.site {
            FaultSite::Cast { to: t, implicit_only } => {
                *t == to
                    && (!*implicit_only || implicit)
                    && s.trigger.matches(std::slice::from_ref(operand))
            }
            _ => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Provenance;
    use soft_types::decimal::Decimal;

    fn lit(v: Value) -> Evaluated {
        Evaluated::literal(v)
    }

    #[test]
    fn pattern_groups() {
        assert_eq!(PatternId::P1_3.group(), 1);
        assert_eq!(PatternId::P2_2.group(), 2);
        assert_eq!(PatternId::P3_1.group(), 3);
        assert_eq!(PatternId::P1_2.label(), "P1.2");
    }

    #[test]
    fn value_predicates() {
        assert!(ValuePred::IsNull.matches(&Value::Null));
        assert!(ValuePred::IsStar.matches(&Value::Star));
        assert!(ValuePred::IsEmptyString.matches(&Value::Text(String::new())));
        let d: Decimal = "9".repeat(64).parse().unwrap();
        assert!(ValuePred::DigitsAtLeast(60).matches(&Value::Decimal(d)));
        assert!(!ValuePred::DigitsAtLeast(60).matches(&Value::Integer(5)));
        assert!(ValuePred::RepeatRunAtLeast(50).matches(&Value::Text("[1,".repeat(100))));
        assert!(ValuePred::IntAbsAtLeast(1000).matches(&Value::Integer(-2000)));
    }

    #[test]
    fn provenance_predicates() {
        let from_fn = Evaluated::function_return(Value::Binary(vec![0xff; 4]), "INET6_ATON");
        assert!(ProvPred::FromAnyFunction.matches(&from_fn));
        assert!(ProvPred::FromFunction("inet6_aton".into()).matches(&from_fn));
        assert!(!ProvPred::IsLiteral.matches(&from_fn));
        let via_cast = Evaluated {
            value: Value::Integer(1),
            provenance: Provenance::LITERAL.cast(true),
        };
        assert!(ProvPred::ViaExplicitCast.matches(&via_cast));
        assert!(!ProvPred::ViaImplicitCast.matches(&via_cast));
    }

    #[test]
    fn trigger_composition() {
        let t = Trigger::And(vec![
            Trigger::ArgCount(2),
            Trigger::Arg { index: Some(1), pred: ValuePred::IsStar },
        ]);
        assert!(t.matches(&[lit(Value::Integer(1)), lit(Value::Star)]));
        assert!(!t.matches(&[lit(Value::Star)]));
        assert!(!t.matches(&[lit(Value::Integer(1)), lit(Value::Integer(2))]));
    }

    #[test]
    fn fault_set_function_lookup() {
        let spec = FaultSpec {
            id: "test-avg".into(),
            site: FaultSite::Function("avg".into()),
            kind: CrashKind::GlobalBufferOverflow,
            stage: Stage::Execution,
            trigger: Trigger::Arg { index: None, pred: ValuePred::DigitsAtLeast(60) },
            category: FunctionCategory::Aggregate,
            pattern: PatternId::P1_2,
            fixed: false,
            description: "oversized decimal".into(),
        };
        let set = FaultSet::new(vec![spec]);
        let big: Decimal = format!("1.{}", "9".repeat(65)).parse().unwrap();
        assert!(set.check_function("avg", &[lit(Value::Decimal(big.clone()))]).is_some());
        assert!(set.check_function("sum", &[lit(Value::Decimal(big))]).is_none());
        assert!(set.check_function("avg", &[lit(Value::Integer(1))]).is_none());
    }

    #[test]
    fn quirk_lookup_and_effects() {
        let quirk = LogicQuirkSpec {
            id: "test-quirk".into(),
            function: "tostring".into(),
            trigger: Trigger::And(vec![
                Trigger::ArgCount(1),
                Trigger::Arg { index: Some(0), pred: ValuePred::IntEquals(42) },
            ]),
            effect: QuirkEffect::TextSuffix(".0".into()),
            description: "wrong text rendering".into(),
        };
        let set = FaultSet::with_quirks(Vec::new(), vec![quirk]);
        assert_eq!(set.quirks().len(), 1);
        let hit = set.check_quirk("tostring", &[lit(Value::Integer(42))]);
        assert!(hit.is_some());
        assert_eq!(
            hit.unwrap().apply(Value::Text("42".into())),
            Value::Text("42.0".into())
        );
        assert!(set.check_quirk("tostring", &[lit(Value::Integer(41))]).is_none());
        assert!(set.check_quirk("upper", &[lit(Value::Integer(42))]).is_none());
        let null_quirk = LogicQuirkSpec {
            id: "test-null".into(),
            function: "abs".into(),
            trigger: Trigger::Always,
            effect: QuirkEffect::NullResult,
            description: "always null".into(),
        };
        assert_eq!(null_quirk.apply(Value::Integer(7)), Value::Null);
    }

    #[test]
    fn fault_set_cast_lookup() {
        let spec = FaultSpec {
            id: "test-cast".into(),
            site: FaultSite::Cast { to: DataType::Json, implicit_only: false },
            kind: CrashKind::StackOverflow,
            stage: Stage::Execution,
            trigger: Trigger::Arg { index: None, pred: ValuePred::RepeatRunAtLeast(500) },
            category: FunctionCategory::Json,
            pattern: PatternId::P3_1,
            fixed: true,
            description: "deep json".into(),
        };
        let set = FaultSet::new(vec![spec]);
        let deep = lit(Value::Text("[".repeat(1000)));
        assert!(set.check_cast(DataType::Json, false, &deep).is_some());
        assert!(set.check_cast(DataType::Xml, false, &deep).is_none());
        let shallow = lit(Value::Text("[1]".into()));
        assert!(set.check_cast(DataType::Json, false, &shallow).is_none());
    }
}

//! The fault corpus: the 132 bugs of the paper's Table 4, transcribed row by
//! row and realised as trigger predicates over the dialects' function
//! registries.
//!
//! Every fault carries the Table 4 row it reproduces (dialect, function
//! type, crash kind, discovering pattern, fixed status) plus a generated
//! **witness**: one concrete SQL statement, built with exactly the credited
//! pattern's template, that fires the fault. The corpus tests assert that
//! (a) per-row counts match Table 4, (b) each witness crashes with its own
//! fault id, and (c) the dialect's seed corpus and synthesised documentation
//! run crash-free (the bugs were *unknown* — vendor examples did not trigger
//! them).

use crate::docs;
use crate::profile::DialectId;
use soft_engine::fault::{
    FaultSite, FaultSpec, LogicQuirkSpec, PatternId, ProvPred, QuirkEffect, Trigger, ValuePred,
};
use soft_engine::registry::FunctionRegistry;
use soft_engine::{CrashKind, Stage};
use soft_types::category::FunctionCategory as C;
use soft_types::value::DataType;

/// One injected fault plus its generated witness statement.
#[derive(Debug, Clone)]
pub struct CorpusFault {
    /// The engine-level fault specification.
    pub spec: FaultSpec,
    /// A SQL statement, built with the credited pattern, that triggers it.
    pub witness: String,
}

/// One row of Table 4.
struct RowSpec {
    category: C,
    /// (crash kind, how many), in row order.
    kinds: &'static [(CrashKind, u8)],
    /// (pattern, how many), in row order.
    patterns: &'static [(PatternId, u8)],
    /// How many of the row's bugs the paper reports fixed.
    fixed: u8,
}

use CrashKind::*;
use PatternId::*;

const fn row(
    category: C,
    kinds: &'static [(CrashKind, u8)],
    patterns: &'static [(PatternId, u8)],
    fixed: u8,
) -> RowSpec {
    RowSpec { category, kinds, patterns, fixed }
}

fn table4_rows(id: DialectId) -> Vec<RowSpec> {
    match id {
        DialectId::Postgres => vec![
            // aggregate (1): HBOF; P2.3; 1 fixed.
            row(C::Aggregate, &[(HeapBufferOverflow, 1)], &[(P2_3, 1)], 1),
        ],
        DialectId::Mysql => vec![
            row(
                C::Aggregate,
                &[(NullPointerDereference, 4), (SegmentationViolation, 1), (GlobalBufferOverflow, 1)],
                &[(P3_3, 4), (P2_1, 1), (P1_3, 1)],
                0,
            ),
            row(C::Date, &[(SegmentationViolation, 1)], &[(P3_3, 1)], 0),
            row(C::Spatial, &[(UseAfterFree, 1)], &[(P3_3, 1)], 0),
            row(C::String, &[(HeapBufferOverflow, 2)], &[(P3_2, 1), (P3_3, 1)], 0),
            row(
                C::System,
                &[(NullPointerDereference, 4), (HeapBufferOverflow, 1)],
                &[(P3_2, 1), (P3_3, 4)],
                1,
            ),
            row(C::Xml, &[(UseAfterFree, 1)], &[(P3_2, 1)], 0),
        ],
        DialectId::Mariadb => vec![
            row(
                C::Aggregate,
                &[(NullPointerDereference, 1), (SegmentationViolation, 2), (StackOverflow, 1)],
                &[(P1_2, 3), (P2_2, 1)],
                0,
            ),
            row(C::Condition, &[(NullPointerDereference, 1)], &[(P2_2, 1)], 0),
            row(
                C::Date,
                &[(NullPointerDereference, 2), (GlobalBufferOverflow, 1)],
                &[(P1_2, 1), (P2_3, 1), (P3_3, 1)],
                0,
            ),
            row(
                C::Json,
                &[
                    (NullPointerDereference, 2),
                    (SegmentationViolation, 1),
                    (AssertionFailure, 1),
                    (GlobalBufferOverflow, 2),
                ],
                &[(P1_4, 2), (P2_3, 1), (P3_1, 2), (P3_3, 1)],
                0,
            ),
            row(C::Sequence, &[(NullPointerDereference, 1)], &[(P3_3, 1)], 0),
            row(
                C::Spatial,
                &[(NullPointerDereference, 3), (SegmentationViolation, 1), (StackOverflow, 1)],
                &[(P3_2, 1), (P3_3, 4)],
                3,
            ),
            row(
                C::String,
                &[(NullPointerDereference, 2), (HeapBufferOverflow, 1), (StackOverflow, 1)],
                &[(P1_2, 2), (P3_1, 1), (P3_3, 1)],
                1,
            ),
        ],
        DialectId::Clickhouse => vec![
            row(C::Aggregate, &[(NullPointerDereference, 1)], &[(P1_2, 1)], 1),
            row(C::Array, &[(NullPointerDereference, 1)], &[(P2_3, 1)], 1),
            row(C::Date, &[(NullPointerDereference, 1)], &[(P1_2, 1)], 1),
            row(
                C::String,
                &[(NullPointerDereference, 1), (SegmentationViolation, 2)],
                &[(P1_2, 1), (P2_3, 1), (P3_1, 1)],
                3,
            ),
        ],
        DialectId::Monetdb => vec![
            row(
                C::Aggregate,
                &[(NullPointerDereference, 6), (SegmentationViolation, 1)],
                &[(P1_2, 1), (P2_1, 1), (P2_2, 2), (P2_3, 2), (P3_3, 1)],
                7,
            ),
            row(
                C::Condition,
                &[(NullPointerDereference, 2), (SegmentationViolation, 1)],
                &[(P2_2, 1), (P3_2, 1), (P3_3, 1)],
                3,
            ),
            row(C::Math, &[(NullPointerDereference, 1)], &[(P2_2, 1)], 1),
            row(
                C::String,
                &[(NullPointerDereference, 5), (HeapBufferOverflow, 1)],
                &[(P1_2, 1), (P1_3, 1), (P1_4, 1), (P2_3, 3)],
                6,
            ),
            row(
                C::System,
                &[(SegmentationViolation, 1), (DivideByZero, 1)],
                &[(P1_2, 1), (P2_3, 1)],
                2,
            ),
        ],
        DialectId::Duckdb => vec![
            row(
                C::Array,
                &[(AssertionFailure, 5), (HeapBufferOverflow, 3), (StackOverflow, 1)],
                &[(P1_2, 7), (P1_4, 1), (P2_2, 1)],
                9,
            ),
            row(C::Date, &[(StackOverflow, 1)], &[(P3_1, 1)], 1),
            row(
                C::Map,
                &[(AssertionFailure, 1), (HeapBufferOverflow, 2)],
                &[(P1_2, 2), (P2_1, 1)],
                3,
            ),
            row(C::Json, &[(AssertionFailure, 1)], &[(P1_2, 1)], 1),
            row(
                C::Math,
                &[(AssertionFailure, 1), (HeapBufferOverflow, 1)],
                &[(P1_2, 1), (P2_1, 1)],
                2,
            ),
            row(
                C::String,
                &[(AssertionFailure, 2), (SegmentationViolation, 2)],
                &[(P1_2, 1), (P1_3, 1), (P3_1, 1), (P3_3, 1)],
                4,
            ),
            row(C::System, &[(AssertionFailure, 1)], &[(P2_1, 1)], 1),
        ],
        DialectId::Virtuoso => vec![
            row(
                C::Aggregate,
                &[(NullPointerDereference, 4), (SegmentationViolation, 1)],
                &[(P1_2, 1), (P3_2, 1), (P3_3, 3)],
                5,
            ),
            row(C::Casting, &[(AssertionFailure, 2)], &[(P1_2, 2)], 2),
            row(
                C::Condition,
                &[(NullPointerDereference, 2), (SegmentationViolation, 1)],
                &[(P3_3, 3)],
                3,
            ),
            row(
                C::Math,
                &[(NullPointerDereference, 3), (SegmentationViolation, 1), (DivideByZero, 1)],
                &[(P1_2, 2), (P2_1, 1), (P2_2, 1), (P2_3, 1)],
                5,
            ),
            row(
                C::Spatial,
                &[(NullPointerDereference, 1), (SegmentationViolation, 1)],
                &[(P1_2, 1), (P2_1, 1)],
                2,
            ),
            row(
                C::String,
                &[
                    (NullPointerDereference, 2),
                    (SegmentationViolation, 6),
                    (StackOverflow, 1),
                    (UseAfterFree, 1),
                ],
                &[(P1_2, 5), (P2_3, 1), (P3_1, 3), (P3_2, 1)],
                10,
            ),
            row(C::Xml, &[(NullPointerDereference, 3)], &[(P1_2, 3)], 3),
            row(
                C::System,
                &[(NullPointerDereference, 8), (SegmentationViolation, 6), (HeapBufferOverflow, 1)],
                &[(P1_2, 11), (P3_1, 3), (P3_3, 1)],
                15,
            ),
        ],
    }
}

/// Row-category → registry categories considered when picking functions.
fn registry_categories(cat: C) -> &'static [C] {
    match cat {
        C::System => &[C::System, C::Control, C::Comparison],
        other => std::slice::from_ref(match other {
            C::String => &C::String,
            C::Aggregate => &C::Aggregate,
            C::Math => &C::Math,
            C::Date => &C::Date,
            C::Json => &C::Json,
            C::Xml => &C::Xml,
            C::Spatial => &C::Spatial,
            C::Condition => &C::Condition,
            C::Casting => &C::Casting,
            C::Sequence => &C::Sequence,
            C::Array => &C::Array,
            C::Map => &C::Map,
            _ => &C::System,
        }),
    }
}

/// P3.3 donor functions, in preference order.
const DONORS: &[&str] = &[
    "inet6_aton",
    "hex",
    "json_array",
    "point",
    "md5",
    "uuid",
    "space",
    "now",
    "from_base64",
    "curdate",
    "soundex",
    "json_object",
];

/// (function, donor) pairs that already occur in docs/seeds and therefore
/// must not be used as P3.3 triggers.
const DONOR_EXCLUSIONS: &[(&str, &str)] = &[
    ("inet6_ntoa", "inet6_aton"),
    ("st_geomfromwkb", "st_aswkb"),
    ("column_json", "column_create"),
    ("column_get", "column_create"),
    ("linestring", "point"),
    ("lower", "hex"),
];

/// Functions whose examples contain NULL arguments (no IsNull triggers).
const NULL_EXAMPLE_FNS: &[&str] = &["ifnull", "nvl", "coalesce", "decode"];

/// Functions that receive function-returned text in docs/seeds (no plain
/// FromAnyFunction-text triggers).
const FN_TEXT_EXCLUSIONS: &[&str] = &["lower", "upper", "length"];

/// Categories whose example arguments are structured text (dates, JSON,
/// XML, WKT, addresses) — excluded from StructuredText triggers.
fn structured_example_category(cat: C) -> bool {
    matches!(cat, C::Date | C::Json | C::Xml | C::Spatial)
}

/// Functions with structured-text examples outside those categories.
const STRUCTURED_EXAMPLE_FNS: &[&str] = &[
    "inet_aton", "inet6_aton", "is_ipv4", "is_ipv6", "timestampdiff", "contains",
];

/// A trigger template: how a pattern's faults are realised.
struct Template {
    trigger: Trigger,
    /// Renders a witness argument (what replaces the function's first
    /// argument), given the original example argument text.
    witness_arg: Box<dyn Fn(&str) -> String>,
    /// Extra eligibility check for the chosen function.
    eligible: Box<dyn Fn(&soft_engine::registry::FunctionDef) -> bool>,
}

fn any_arg(pred: ValuePred) -> Trigger {
    Trigger::Arg { index: None, pred }
}

fn template_for(pattern: PatternId, rotation: usize, donors: &[&'static str]) -> Template {
    match pattern {
        P1_1 | P1_2 => {
            // Boundary literal pool substitutions.
            type Variant = (&'static str, Trigger, fn(&str) -> String);
            let variants: [Variant; 6] = [
                ("star", any_arg(ValuePred::IsStar), |_| "*".into()),
                ("empty", any_arg(ValuePred::IsEmptyString), |_| "''".into()),
                (
                    "long-digits",
                    any_arg(ValuePred::AllOf(vec![
                        ValuePred::AnyOf(vec![
                            ValuePred::TypeIs(DataType::Decimal),
                            ValuePred::TypeIs(DataType::Integer),
                        ]),
                        ValuePred::DigitsAtLeast(40),
                    ])),
                    |_| "9".repeat(45),
                ),
                ("null", any_arg(ValuePred::IsNull), |_| "NULL".into()),
                (
                    "neg-long",
                    any_arg(ValuePred::AllOf(vec![
                        ValuePred::IsNegative,
                        ValuePred::DigitsAtLeast(10),
                    ])),
                    |_| format!("-{}", "9".repeat(20)),
                ),
                ("huge-int", any_arg(ValuePred::IntAbsAtLeast(10_000_000_000)), |_| {
                    "99999999999".into()
                }),
            ];
            let (name, trigger, w) = &variants[rotation % variants.len()];
            let needs_no_null = *name == "null";
            let w = *w;
            // P1.2 is about boundary *literals*: a NULL or empty string that
            // arrives as another function's return is P3.x territory.
            let trigger = Trigger::And(vec![
                trigger.clone(),
                Trigger::Not(Box::new(Trigger::ArgProv {
                    index: None,
                    pred: ProvPred::FromAnyFunction,
                })),
            ]);
            Template {
                trigger,
                witness_arg: Box::new(w),
                eligible: Box::new(move |def| {
                    !(needs_no_null && NULL_EXAMPLE_FNS.contains(&def.name))
                }),
            }
        }
        P1_3 => Template {
            // A digit run inserted into a literal (not a nested-function
            // result — that is P3.1's territory).
            trigger: Trigger::And(vec![
                any_arg(ValuePred::DigitsAtLeast(60)),
                Trigger::Not(Box::new(Trigger::ArgProv {
                    index: None,
                    pred: ProvPred::FromAnyFunction,
                })),
            ]),
            witness_arg: Box::new(|orig| {
                if orig.starts_with('\'') {
                    format!("'x{}x'", "9".repeat(64))
                } else {
                    format!("1.{}", "9".repeat(64))
                }
            }),
            eligible: Box::new(|_| true),
        },
        P1_4 => Template {
            // A character repeated in place (literal provenance only).
            trigger: Trigger::And(vec![
                any_arg(ValuePred::RepeatRunAtLeast(10)),
                Trigger::Not(Box::new(Trigger::ArgProv {
                    index: None,
                    pred: ProvPred::FromAnyFunction,
                })),
            ]),
            witness_arg: Box::new(|orig| {
                if orig.starts_with('[') {
                    format!("[{}]", vec!["7"; 24].join(", "))
                } else {
                    format!("'{}'", "{".repeat(24))
                }
            }),
            // P1.4 mutates string or array literals in place, so the
            // example's first argument must be one.
            eligible: Box::new(|def| {
                let example = docs::example_for(def.name, def);
                let inner = &example[example.find('(').map(|i| i + 1).unwrap_or(0)
                    ..example.len().saturating_sub(1)];
                let first = split_args(inner).first().copied().unwrap_or("");
                first.starts_with('\'') || first.starts_with('[')
            }),
        },
        P2_1 => {
            let types = [DataType::Decimal, DataType::Integer, DataType::Float, DataType::Text];
            let ty = types[rotation % types.len()];
            Template {
                trigger: Trigger::And(vec![
                    Trigger::ArgProv { index: None, pred: ProvPred::ViaExplicitCast },
                    any_arg(ValuePred::TypeIs(ty)),
                ]),
                witness_arg: Box::new(move |orig| format!("CAST({orig} AS {})", ty.sql_name())),
                // The witness's explicit cast must succeed even under strict
                // casting, so require a plain literal first example argument
                // (and a numeric one for numeric targets).
                eligible: Box::new(move |def| {
                    let example = docs::example_for(def.name, def);
                    let inner = &example[example.find('(').map(|i| i + 1).unwrap_or(0)
                        ..example.len().saturating_sub(1)];
                    let first = split_args(inner).first().copied().unwrap_or("");
                    let b = first.as_bytes();
                    let is_number = !b.is_empty()
                        && (b[0].is_ascii_digit() || b[0] == b'-' || b[0] == b'.');
                    let is_string = b.first() == Some(&b'\'');
                    if ty.is_numeric() {
                        is_number
                    } else {
                        is_number || is_string
                    }
                }),
            }
        }
        P2_2 => Template {
            trigger: Trigger::ArgProv { index: None, pred: ProvPred::ViaImplicitCast },
            // `1e200` exceeds the decimal digit cap and lands as a float, so
            // the UNION target is FLOAT and the (integer/decimal) original
            // value is implicitly coerced — a conversion that even strict
            // dialects permit.
            witness_arg: Box::new(|orig| {
                format!("(SELECT {orig} UNION ALL SELECT 1e200 LIMIT 1)")
            }),
            // The coercion only touches the original value when it is a
            // non-float numeric, so restrict to numeric-example functions.
            eligible: Box::new(|def| {
                matches!(
                    def.category,
                    C::Math | C::Aggregate | C::Condition | C::Array | C::Control
                )
            }),
        },
        P2_3 => {
            let variants = rotation % 3;
            match variants {
                0 => Template {
                    trigger: Trigger::And(vec![
                        any_arg(ValuePred::StructuredText),
                        Trigger::Not(Box::new(Trigger::ArgProv {
                            index: None,
                            pred: ProvPred::FromAnyFunction,
                        })),
                    ]),
                    witness_arg: Box::new(|_| "'POINT(1 2)'".into()),
                    eligible: Box::new(|def| {
                        !structured_example_category(def.category)
                            && !STRUCTURED_EXAMPLE_FNS.contains(&def.name)
                    }),
                },
                1 => Template {
                    trigger: Trigger::And(vec![
                        any_arg(ValuePred::TypeIs(DataType::Binary)),
                        Trigger::Not(Box::new(Trigger::ArgProv {
                            index: None,
                            pred: ProvPred::FromAnyFunction,
                        })),
                    ]),
                    witness_arg: Box::new(|_| "x'01020304'".into()),
                    eligible: Box::new(|def| {
                        !matches!(def.name, "inet6_ntoa" | "st_geomfromwkb" | "column_json"
                            | "column_get" | "unhex" | "from_base64" | "hex")
                    }),
                },
                _ => Template {
                    trigger: any_arg(ValuePred::TypeIs(DataType::Interval)),
                    witness_arg: Box::new(|_| "INTERVAL 10 DAY".into()),
                    eligible: Box::new(|def| !matches!(def.name, "date_add" | "date_sub")),
                },
            }
        }
        P3_1 => Template {
            trigger: Trigger::And(vec![
                Trigger::ArgProv { index: None, pred: ProvPred::FromFunction("repeat".into()) },
                any_arg(ValuePred::LenAtLeast(256)),
            ]),
            witness_arg: Box::new(|_| "REPEAT('[1,', 200)".into()),
            eligible: Box::new(|_| true),
        },
        P3_2 => Template {
            trigger: Trigger::And(vec![
                Trigger::ArgProv { index: None, pred: ProvPred::FromAnyFunction },
                Trigger::Not(Box::new(Trigger::ArgProv {
                    index: None,
                    pred: ProvPred::FromFunction("repeat".into()),
                })),
                any_arg(ValuePred::TypeIs(DataType::Text)),
            ]),
            // Keep the wrapper well-typed even under strict casting: only
            // wrap the original argument when it is already a string.
            witness_arg: Box::new(|orig| {
                if orig.starts_with('\'') {
                    format!("TRIM({orig})")
                } else {
                    "TRIM('ab')".to_string()
                }
            }),
            eligible: Box::new(|def| !FN_TEXT_EXCLUSIONS.contains(&def.name)),
        },
        P3_3 => {
            let donor = donors[rotation % donors.len()];
            Template {
                trigger: Trigger::ArgProv {
                    index: None,
                    pred: ProvPred::FromFunction(donor.into()),
                },
                witness_arg: Box::new(move |_| donor_call(donor)),
                eligible: Box::new(move |def| {
                    !DONOR_EXCLUSIONS.contains(&(def.name, donor)) && def.name != donor
                }),
            }
        }
    }
}

/// A canonical call for a P3.3 donor.
fn donor_call(donor: &str) -> String {
    match donor {
        "inet6_aton" => "INET6_ATON('10.0.0.1')".into(),
        "hex" => "HEX(255)".into(),
        "json_array" => "JSON_ARRAY(1, 'two')".into(),
        "point" => "POINT(1.5, 2.5)".into(),
        "md5" => "MD5('abc')".into(),
        "uuid" => "UUID()".into(),
        "space" => "SPACE(3)".into(),
        "now" => "NOW()".into(),
        "from_base64" => "FROM_BASE64('YWJj')".into(),
        "curdate" => "CURDATE()".into(),
        "soundex" => "SOUNDEX('Robert')".into(),
        "json_object" => "JSON_OBJECT('a', 1)".into(),
        other => format!("{}()", other.to_uppercase()),
    }
}


/// Hand-pinned exemplar faults: the paper's case-study listings name the
/// exact function and PoC, so the corpus places those bugs on those
/// functions instead of letting the generic builder choose. Each entry maps
/// (dialect, row category, crash kind, pattern) to (id suffix, function,
/// trigger, witness).
#[allow(clippy::type_complexity)]
fn pinned_exemplars(
    id: DialectId,
) -> Vec<((C, CrashKind, PatternId), (&'static str, &'static str, Trigger, &'static str))> {
    let not_from_fn = || {
        Trigger::Not(Box::new(Trigger::ArgProv {
            index: None,
            pred: ProvPred::FromAnyFunction,
        }))
    };
    match id {
        DialectId::Clickhouse => vec![(
            (C::String, NullPointerDereference, P1_2),
            (
                "listing1",
                "todecimalstring",
                Trigger::And(vec![any_arg(ValuePred::IsStar), not_from_fn()]),
                "SELECT toDecimalString('110'::Decimal256(45), *)",
            ),
        )],
        DialectId::Mysql => vec![(
            (C::Aggregate, GlobalBufferOverflow, P1_3),
            (
                "listing6",
                "avg",
                Trigger::And(vec![any_arg(ValuePred::DigitsAtLeast(60)), not_from_fn()]),
                "SELECT AVG(1.2999999999999999999999999999999999999999999999999999999999999999)",
            ),
        )],
        DialectId::Virtuoso => vec![(
            (C::String, SegmentationViolation, P1_2),
            (
                "listing7",
                "contains",
                Trigger::And(vec![any_arg(ValuePred::IsStar), not_from_fn()]),
                "SELECT CONTAINS('x', 'x', *)",
            ),
        )],
        DialectId::Postgres => vec![(
            (C::Aggregate, HeapBufferOverflow, P2_3),
            (
                "listing8",
                "jsonb_object_agg",
                Trigger::And(vec![
                    Trigger::Arg { index: Some(0), pred: ValuePred::TypeIs(DataType::Text) },
                    Trigger::ArgProv { index: Some(0), pred: ProvPred::IsLiteral },
                    Trigger::Arg {
                        index: Some(1),
                        pred: ValuePred::AllOf(vec![
                            ValuePred::TypeIs(DataType::Text),
                            ValuePred::LenAtLeast(3),
                        ]),
                    },
                ]),
                "SELECT JSONB_OBJECT_AGG(DISTINCT 'a', 'abc')",
            ),
        )],
        DialectId::Mariadb => vec![
            (
                (C::Json, GlobalBufferOverflow, P3_1),
                (
                    "listing10",
                    "json_length",
                    Trigger::And(vec![
                        Trigger::ArgProv {
                            index: None,
                            pred: ProvPred::FromFunction("repeat".into()),
                        },
                        any_arg(ValuePred::LenAtLeast(256)),
                    ]),
                    "SELECT JSON_LENGTH(REPEAT('[1,', 100), '$[2][1]')",
                ),
            ),
            (
                (C::Spatial, SegmentationViolation, P3_3),
                (
                    "listing11",
                    "boundary",
                    Trigger::ArgProv {
                        index: None,
                        pred: ProvPred::FromFunction("inet6_aton".into()),
                    },
                    "SELECT ST_ASTEXT(BOUNDARY(INET6_ATON('255.255.255.255')))",
                ),
            ),
        ],
        _ => vec![],
    }
}

/// Builds the Table-4 fault corpus for a dialect against its registry.
pub fn build_corpus(id: DialectId, registry: &FunctionRegistry) -> Vec<CorpusFault> {
    let mut out = Vec::new();
    let mut used: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut rotation_by_pattern: std::collections::HashMap<PatternId, usize> =
        std::collections::HashMap::new();
    // Donor functions must exist in this dialect's catalog.
    let donors: Vec<&'static str> = DONORS
        .iter()
        .copied()
        .filter(|d| registry.resolve(d).is_some())
        .collect();
    assert!(!donors.is_empty(), "{id:?}: no P3.3 donor functions available");
    let mut pins = pinned_exemplars(id);
    for (row_idx, row) in table4_rows(id).into_iter().enumerate() {
        // Expand the kind and pattern multiplicity lists.
        let kinds: Vec<CrashKind> = row
            .kinds
            .iter()
            .flat_map(|(k, n)| std::iter::repeat(*k).take(*n as usize))
            .collect();
        let patterns: Vec<PatternId> = row
            .patterns
            .iter()
            .flat_map(|(p, n)| std::iter::repeat(*p).take(*n as usize))
            .collect();
        assert_eq!(
            kinds.len(),
            patterns.len(),
            "{id:?} row {row_idx} ({}) kind/pattern multiplicity mismatch",
            row.category
        );
        // Candidate functions of this row's category, name-sorted for
        // determinism.
        let cats = registry_categories(row.category);
        let mut candidates: Vec<&soft_engine::registry::FunctionDef> = registry
            .defs()
            .iter()
            .filter(|d| cats.contains(&d.category))
            .filter(|d| registry.resolve(d.name).is_some())
            // Need at least one example argument to mutate.
            .filter(|d| !docs::example_for(d.name, d).ends_with("()"))
            .collect();
        candidates.sort_by_key(|d| d.name);
        assert!(
            !candidates.is_empty(),
            "{id:?}: no registered functions for category {}",
            row.category
        );
        for (i, (kind, pattern)) in kinds.into_iter().zip(patterns).enumerate() {
            // A pinned exemplar consumes this (category, kind, pattern) slot.
            if let Some(pos) = pins
                .iter()
                .position(|(key, _)| *key == (row.category, kind, pattern))
            {
                let (_, (suffix, function, trigger, witness)) = pins.remove(pos);
                assert!(
                    registry.resolve(function).is_some(),
                    "{id:?}: pinned function {function} missing from catalog"
                );
                out.push(CorpusFault {
                    spec: FaultSpec {
                        id: format!(
                            "{}-{}-{}-{}-{}",
                            id.key(),
                            row.category.label(),
                            kind.abbrev().to_lowercase(),
                            suffix,
                            out.len()
                        ),
                        site: FaultSite::Function(function.to_string()),
                        kind,
                        stage: Stage::Execution,
                        trigger,
                        category: row.category,
                        pattern,
                        fixed: i < row.fixed as usize,
                        description: format!(
                            "{} in {function} (paper case study {suffix})",
                            kind.abbrev()
                        ),
                    },
                    witness: witness.to_string(),
                });
                continue;
            }
            // Advance the global per-pattern rotation for diversity.
            let rot = rotation_by_pattern.entry(pattern).or_insert(0);
            let mut chosen = None;
            // Try rotations until an eligible (function, template) pair is
            // found that is not yet used.
            'search: for attempt in 0..(candidates.len() * 8).max(8) {
                let template =
                    template_for(pattern, *rot + attempt / candidates.len(), &donors);
                for k in 0..candidates.len() {
                    let def = candidates[(i + k + attempt) % candidates.len()];
                    let key = format!("{}:{}:{}", def.name, pattern.label(), *rot + attempt);
                    if used.contains(&key) || !(template.eligible)(def) {
                        continue;
                    }
                    used.insert(key);
                    chosen = Some((def, template));
                    break 'search;
                }
            }
            let (def, template) = chosen.unwrap_or_else(|| {
                panic!(
                    "{id:?}: could not place a {} fault in category {}",
                    pattern.label(),
                    row.category
                )
            });
            *rot += 1;
            let fault_id = format!(
                "{}-{}-{}-{}-{}",
                id.key(),
                row.category.label(),
                kind.abbrev().to_lowercase(),
                pattern.label().replace('.', "_").to_lowercase(),
                out.len()
            );
            // Stage distribution: the credited pattern's group maps to the
            // stage distribution of Finding 1 (most crashes in execution).
            let stage = match pattern {
                P2_2 => Stage::Optimization,
                _ => Stage::Execution,
            };
            let witness = witness_sql(registry, def, &template);
            out.push(CorpusFault {
                spec: FaultSpec {
                    id: fault_id,
                    site: FaultSite::Function(def.name.to_string()),
                    kind,
                    stage,
                    trigger: template.trigger.clone(),
                    category: row.category,
                    pattern,
                    fixed: i < row.fixed as usize,
                    description: format!(
                        "{} in {} when handling a {} boundary argument",
                        kind.abbrev(),
                        def.name,
                        pattern.label()
                    ),
                },
                witness,
            });
        }
    }
    out
}

/// The wrong-result quirk corpus for a dialect: injected logic bugs that
/// silently corrupt a function's return value instead of crashing. The
/// triggers are deliberately ultra-narrow (one literal argument value) so
/// the crash-path corpus, seeds, and coverage surfaces are untouched — the
/// quirks exist for the campaign's logic-bug oracles to catch, and for the
/// oracle goldens to pin.
pub fn logic_quirks(id: DialectId) -> Vec<LogicQuirkSpec> {
    match id {
        DialectId::Clickhouse => vec![LogicQuirkSpec {
            id: "clickhouse-logic-tostring-1".into(),
            function: "tostring".into(),
            trigger: Trigger::And(vec![
                Trigger::ArgCount(1),
                Trigger::Arg { index: Some(0), pred: ValuePred::IntEquals(42) },
                Trigger::ArgProv { index: Some(0), pred: ProvPred::IsLiteral },
            ]),
            effect: QuirkEffect::TextSuffix(".0".into()),
            description: "toString renders an integer literal with a spurious \
                          decimal suffix"
                .into(),
        }],
        _ => vec![],
    }
}

/// Builds a witness statement: the function's doc example with its first
/// argument replaced by the template's boundary construction.
fn witness_sql(
    registry: &FunctionRegistry,
    def: &soft_engine::registry::FunctionDef,
    template: &Template,
) -> String {
    let example = docs::example_for(def.name, def);
    // Split example into name + args text; rebuild with arg0 replaced.
    let open = example.find('(').expect("example has parens");
    let name = &example[..open];
    let inner = &example[open + 1..example.len() - 1];
    let args: Vec<&str> = split_args(inner);
    let first = args.first().copied().unwrap_or("1");
    let new_first = (template.witness_arg)(first);
    let mut new_args = vec![new_first];
    new_args.extend(args.iter().skip(1).map(|s| s.to_string()));
    let _ = registry;
    format!("SELECT {}({})", name, new_args.join(", "))
}

/// Splits a comma-separated argument list, respecting quotes, parens and
/// brackets.
fn split_args(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut start = 0usize;
    let bytes = s.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'\'' => in_str = !in_str,
            b'(' | b'[' if !in_str => depth += 1,
            b')' | b']' if !in_str => depth -= 1,
            b',' if !in_str && depth == 0 => {
                out.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = s[start..].trim();
    if !last.is_empty() {
        out.push(last);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DialectProfile;
    use soft_engine::ExecOutcome;

    #[test]
    fn per_dialect_counts_match_table4() {
        let expect = [
            (DialectId::Postgres, 1),
            (DialectId::Mysql, 16),
            (DialectId::Mariadb, 24),
            (DialectId::Clickhouse, 6),
            (DialectId::Monetdb, 19),
            (DialectId::Duckdb, 21),
            (DialectId::Virtuoso, 45),
        ];
        let mut total = 0;
        for (id, n) in expect {
            let p = DialectProfile::build(id);
            assert_eq!(p.faults.len(), n, "{id:?}");
            total += p.faults.len();
        }
        assert_eq!(total, 132);
    }

    #[test]
    fn pattern_group_totals_match_paper() {
        // §7.3: 56 bugs from literal patterns, 28 from casting, 48 from
        // nested functions.
        let mut by_group = [0usize; 4];
        for id in DialectId::ALL {
            for f in &DialectProfile::build(id).faults {
                by_group[f.spec.pattern.group() as usize] += 1;
            }
        }
        assert_eq!(by_group[1], 56, "P1.x");
        assert_eq!(by_group[2], 28, "P2.x");
        assert_eq!(by_group[3], 48, "P3.x");
    }

    #[test]
    fn crash_kind_totals_match_table4_rows() {
        // Row-level transcription gives 61/29/13/4/3/6/2/14 (the paper's
        // prose says 12 HBOF and 7 SO — a ±1 discrepancy inside Table 4
        // itself; we follow the rows). See EXPERIMENTS.md.
        let mut counts = std::collections::HashMap::new();
        for id in DialectId::ALL {
            for f in &DialectProfile::build(id).faults {
                *counts.entry(f.spec.kind).or_insert(0usize) += 1;
            }
        }
        assert_eq!(counts[&CrashKind::NullPointerDereference], 61);
        assert_eq!(counts[&CrashKind::SegmentationViolation], 29);
        assert_eq!(counts[&CrashKind::HeapBufferOverflow], 13);
        assert_eq!(counts[&CrashKind::GlobalBufferOverflow], 4);
        assert_eq!(counts[&CrashKind::UseAfterFree], 3);
        assert_eq!(counts[&CrashKind::StackOverflow], 6);
        assert_eq!(counts[&CrashKind::DivideByZero], 2);
        assert_eq!(counts[&CrashKind::AssertionFailure], 14);
    }

    #[test]
    fn fixed_count_matches_paper() {
        let fixed: usize = DialectId::ALL
            .iter()
            .flat_map(|id| DialectProfile::build(*id).faults)
            .filter(|f| f.spec.fixed)
            .count();
        assert_eq!(fixed, 97);
    }

    #[test]
    fn every_witness_fires_its_own_fault() {
        for id in DialectId::ALL {
            let p = DialectProfile::build(id);
            for fault in &p.faults {
                let mut engine = p.engine();
                match engine.execute(&fault.witness) {
                    ExecOutcome::Crash(c) => {
                        assert_eq!(
                            c.fault_id, fault.spec.id,
                            "{id:?}: witness {} fired the wrong fault",
                            fault.witness
                        );
                    }
                    other => panic!(
                        "{id:?}: witness `{}` for {} did not crash: {other:?}",
                        fault.witness, fault.spec.id
                    ),
                }
            }
        }
    }

    #[test]
    fn seeds_and_docs_run_crash_free_on_faulty_engines() {
        for id in DialectId::ALL {
            let p = DialectProfile::build(id);
            let mut engine = p.engine();
            for sql in &p.seed_corpus {
                let out = engine.execute(sql);
                assert!(!out.is_crash(), "{id:?}: seed `{sql}` crashed: {out:?}");
            }
            for d in &p.documentation {
                let out = engine.execute(&format!("SELECT {}", d.example));
                assert!(
                    !out.is_crash(),
                    "{id:?}: doc example `{}` crashed: {out:?}",
                    d.example
                );
            }
        }
    }

    #[test]
    fn fault_ids_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for id in DialectId::ALL {
            for f in DialectProfile::build(id).faults {
                assert!(seen.insert(f.spec.id.clone()), "duplicate id {}", f.spec.id);
            }
        }
    }

    #[test]
    fn split_args_respects_nesting() {
        assert_eq!(split_args("1, 'a,b', f(2, 3), [4, 5]"), vec!["1", "'a,b'", "f(2, 3)", "[4, 5]"]);
        assert_eq!(split_args(""), Vec::<&str>::new());
    }
}

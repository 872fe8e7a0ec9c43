//! The 318-bug dataset.
//!
//! The paper publishes the study as aggregate statistics, not raw records.
//! The dataset here is therefore constructed deterministically to satisfy
//! **every published marginal simultaneously** (Table 1, Table 2, Figure 1,
//! Findings 1–4, the §5 root-cause split and the §6 literal sub-split), with
//! the paper's concretely described bugs attached as named exemplars.
//! Synthetic records are flagged `synthetic: true` and referenced `SYN-*`.

use crate::model::*;
use soft_types::category::FunctionCategory as C;

/// Deterministic splitmix64, used for the marginal-preserving shuffles.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Deterministic Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Expands a `(value, count)` table into a flat multiset.
fn expand<T: Clone>(pairs: &[(T, usize)]) -> Vec<T> {
    pairs
        .iter()
        .flat_map(|(v, n)| std::iter::repeat(v.clone()).take(*n))
        .collect()
}

/// Figure 1 occurrence / unique-function targets per category.
///
/// The paper states string = 117 occurrences / 57 unique and aggregate = 91
/// occurrences in prose; the remaining per-category values are inferred from
/// the figure (flagged as inferred in EXPERIMENTS.md). Totals: 508
/// occurrences (Finding 2).
pub const FIGURE1_TARGETS: &[(C, usize, usize)] = &[
    (C::String, 117, 57),
    (C::Aggregate, 91, 18),
    (C::Date, 52, 20),
    (C::Math, 45, 15),
    (C::Json, 38, 15),
    (C::System, 35, 14),
    (C::Condition, 30, 9),
    (C::Spatial, 28, 12),
    (C::Casting, 25, 8),
    (C::Xml, 12, 5),
    (C::Comparison, 10, 4),
    (C::Control, 10, 3),
    (C::Array, 8, 4),
    (C::Sequence, 5, 3),
    (C::Map, 2, 1),
];

/// Builds the full dataset (318 records).
pub fn studied_bugs() -> Vec<StudiedBug> {
    // Per-bug attribute multisets, each shuffled with its own seed so the
    // joint distribution is a deterministic product of the marginals.
    let mut expr_counts = expand(&[(1usize, 191), (2, 87), (3, 23), (4, 11), (5, 6)]);
    shuffle(&mut expr_counts, 0xE1);
    let mut stages = expand(&[
        (Some(OccurrenceStage::Execution), 161),
        (Some(OccurrenceStage::Optimization), 45),
        (Some(OccurrenceStage::Parsing), 24),
        (None, 318 - 230),
    ]);
    shuffle(&mut stages, 0xE2);
    let mut prereqs = expand(&[
        (Prerequisite::TableWithData, 151),
        (Prerequisite::NoTable, 132),
        (Prerequisite::EmptyTable, 35),
    ]);
    shuffle(&mut prereqs, 0xE3);
    let mut causes = expand(&[
        (RootCause::BoundaryLiteral(LiteralKind::ExtremeNumeric), 32),
        (RootCause::BoundaryLiteral(LiteralKind::EmptyOrNull), 21),
        (RootCause::BoundaryLiteral(LiteralKind::CraftedFormat), 41),
        (RootCause::BoundaryCast, 74),
        (RootCause::NestedFunction, 110),
        (RootCause::Configuration, 8),
        (RootCause::TableDefinition, 24),
        (RootCause::SyntaxStructure, 8),
    ]);
    shuffle(&mut causes, 0xE4);
    // The 508 function occurrences as category tokens.
    let mut category_tokens: Vec<C> = FIGURE1_TARGETS
        .iter()
        .flat_map(|(c, occ, _)| std::iter::repeat(*c).take(*occ))
        .collect();
    debug_assert_eq!(category_tokens.len(), 508);
    shuffle(&mut category_tokens, 0xE5);
    // Unique-name pools: the first `unique` occurrences of a category get
    // fresh names; later occurrences reuse the pool cyclically.
    let mut name_counters: std::collections::HashMap<C, usize> = Default::default();
    let unique_target: std::collections::HashMap<C, usize> =
        FIGURE1_TARGETS.iter().map(|(c, _, u)| (*c, *u)).collect();
    let mut next_token = 0usize;
    let mut take_occurrence = |tokens: &[C], counters: &mut std::collections::HashMap<C, usize>| {
        let c = tokens[next_token];
        next_token += 1;
        let seen = counters.entry(c).or_insert(0);
        let uniq = unique_target[&c];
        let ordinal = if *seen < uniq { *seen } else { *seen % uniq };
        *seen += 1;
        FunctionOccurrence { category: c, name: format!("{}_fn{:02}", c.label(), ordinal) }
    };

    let mut out = Vec::with_capacity(318);
    for id in 0..318u32 {
        let dbms = if id < 39 {
            StudiedDbms::Postgres
        } else if id < 49 {
            StudiedDbms::Mysql
        } else {
            StudiedDbms::Mariadb
        };
        let n = expr_counts[id as usize];
        let functions: Vec<FunctionOccurrence> =
            (0..n).map(|_| take_occurrence(&category_tokens, &mut name_counters)).collect();
        out.push(StudiedBug {
            id,
            dbms,
            reference: format!("SYN-{id:03}"),
            stage: stages[id as usize],
            functions,
            prerequisite: prereqs[id as usize],
            root_cause: causes[id as usize],
            poc: None,
            synthetic: true,
        });
    }
    attach_exemplars(&mut out);
    out
}

/// A real bug from the paper, matched onto the first synthetic record with
/// compatible attributes and decorated with its reference and PoC.
struct Exemplar {
    reference: &'static str,
    dbms: StudiedDbms,
    root_cause: RootCause,
    poc: &'static str,
    /// Categories that should appear among the record's occurrences (the
    /// matcher relabels the record's occurrence list).
    categories: &'static [C],
}

const EXEMPLARS: &[Exemplar] = &[
    Exemplar {
        reference: "CVE-2016-0773",
        dbms: StudiedDbms::Postgres,
        root_cause: RootCause::BoundaryLiteral(LiteralKind::ExtremeNumeric),
        poc: "SELECT 'x' LIKE 'a'", // placeholder shape; the CVE is a regex bound
        categories: &[C::String],
    },
    Exemplar {
        reference: "CVE-2015-5289",
        dbms: StudiedDbms::Postgres,
        root_cause: RootCause::NestedFunction,
        poc: "SELECT REPEAT('[', 1000)::json",
        categories: &[C::String],
    },
    Exemplar {
        reference: "MDEV-23415",
        dbms: StudiedDbms::Mariadb,
        root_cause: RootCause::BoundaryLiteral(LiteralKind::ExtremeNumeric),
        poc: "SELECT FORMAT('0', 50, 'de_DE')",
        categories: &[C::String],
    },
    Exemplar {
        reference: "MDEV-8407",
        dbms: StudiedDbms::Mariadb,
        root_cause: RootCause::BoundaryCast,
        poc: "SELECT COLUMN_JSON(COLUMN_CREATE('x', 123456789012345678901234567890123456789012346789))",
        categories: &[C::Json, C::Json],
    },
    Exemplar {
        reference: "MDEV-11030",
        dbms: StudiedDbms::Mariadb,
        root_cause: RootCause::BoundaryCast,
        poc: "SELECT * FROM (SELECT IFNULL(CONVERT(NULL, UNSIGNED), NULL)) sq",
        categories: &[C::Condition],
    },
    Exemplar {
        reference: "MDEV-14596",
        dbms: StudiedDbms::Mariadb,
        root_cause: RootCause::NestedFunction,
        poc: "SELECT INTERVAL(ROW(1,1), ROW(1,2))",
        categories: &[C::Condition],
    },
];

fn attach_exemplars(bugs: &mut [StudiedBug]) {
    for ex in EXEMPLARS {
        let mut want: Vec<C> = ex.categories.to_vec();
        want.sort();
        let cats_of = |b: &StudiedBug| {
            let mut have: Vec<C> = b.functions.iter().map(|f| f.category).collect();
            have.sort();
            have
        };
        let base_match = |b: &StudiedBug| {
            b.synthetic
                && b.dbms == ex.dbms
                && b.root_cause == ex.root_cause
                && b.functions.len() == ex.categories.len()
        };
        // Preferred: a record that already carries the right categories.
        let exact = bugs.iter().position(|b| base_match(b) && cats_of(b) == want);
        let idx = match exact {
            Some(i) => Some(i),
            None => {
                // Fallback: take any attribute-matching record and swap its
                // occurrence list with another equal-arity record that has
                // the right categories — global Figure 1 totals are
                // preserved by the swap.
                let a = bugs.iter().position(base_match);
                let b_idx = bugs.iter().position(|b| {
                    b.synthetic && b.functions.len() == ex.categories.len() && cats_of(b) == want
                });
                match (a, b_idx) {
                    (Some(a), Some(bi)) if a != bi => {
                        let tmp = bugs[a].functions.clone();
                        bugs[a].functions = bugs[bi].functions.clone();
                        bugs[bi].functions = tmp;
                        Some(a)
                    }
                    // Last resort: decorate without relabelling categories.
                    (Some(a), _) => Some(a),
                    _ => None,
                }
            }
        };
        if let Some(i) = idx {
            bugs[i].reference = ex.reference.to_string();
            bugs[i].poc = Some(ex.poc.to_string());
            bugs[i].synthetic = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_has_318_records() {
        assert_eq!(studied_bugs().len(), 318);
    }

    #[test]
    fn dataset_is_deterministic() {
        let a = studied_bugs();
        let b = studied_bugs();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.reference, y.reference);
            assert_eq!(x.root_cause, y.root_cause);
            assert_eq!(x.expr_count(), y.expr_count());
        }
    }

    #[test]
    fn exemplars_are_attached() {
        let bugs = studied_bugs();
        let named: Vec<&str> = bugs
            .iter()
            .filter(|b| !b.synthetic)
            .map(|b| b.reference.as_str())
            .collect();
        for ex in ["MDEV-8407", "MDEV-14596", "CVE-2015-5289", "MDEV-23415"] {
            assert!(named.contains(&ex), "{ex} not attached: {named:?}");
        }
    }

    #[test]
    fn figure1_targets_sum_to_508() {
        let occ: usize = FIGURE1_TARGETS.iter().map(|(_, o, _)| o).sum();
        assert_eq!(occ, 508);
        for (c, occ, uniq) in FIGURE1_TARGETS {
            assert!(occ >= uniq, "{c}: occurrences < unique");
        }
    }
}

#[cfg(test)]
mod joint_tests {
    use super::*;
    use crate::model::{RootCause, StudiedDbms};

    #[test]
    fn joint_distribution_is_not_degenerate() {
        // The shuffles must decorrelate attributes: MariaDB (the bulk of the
        // data) should exhibit every root cause, and every expression-count
        // bucket should contain bugs from MariaDB.
        let bugs = studied_bugs();
        let mariadb: Vec<_> =
            bugs.iter().filter(|b| b.dbms == StudiedDbms::Mariadb).collect();
        let causes: std::collections::HashSet<std::mem::Discriminant<RootCause>> =
            mariadb.iter().map(|b| std::mem::discriminant(&b.root_cause)).collect();
        assert!(causes.len() >= 5, "MariaDB shows only {} root causes", causes.len());
        for n in 1..=5usize {
            assert!(
                mariadb.iter().any(|b| b.expr_count() == n),
                "no MariaDB bug with {n} expressions"
            );
        }
        // PostgreSQL (39 records) should still show the three boundary
        // causes.
        let pg_boundary = bugs
            .iter()
            .filter(|b| b.dbms == StudiedDbms::Postgres && b.root_cause.is_boundary())
            .count();
        assert!(pg_boundary >= 25, "{pg_boundary}");
    }
}

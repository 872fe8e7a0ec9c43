//! Wrong-result (logic-bug) oracles — the detection plane for bugs that do
//! not crash.
//!
//! The crash plane catches any statement whose injected fault fires; these
//! oracles catch the quieter failure mode the paper's §6 calls *wrong
//! results*: the statement completes, but the answer is wrong. Three
//! families run here, all pure functions of `(template engine, statement)`
//! so campaign results stay byte-identical across worker counts:
//!
//! * **Multi-form execution** ([`multi_form_check`]) — executes one
//!   statement as parsed and as a literal-unfolded variant that rewrites
//!   `f(42)` to `f(42 + 0)`, and flags any divergence in outcome or result.
//!   Folding a literal through an operator flips its provenance, so quirks
//!   gated on [`soft_engine::ProvPred::IsLiteral`] stop firing and betray
//!   themselves.
//! * **PQS-style pivot probes** ([`pivot_check`]) — picks a *pivot* row
//!   from the shared seed tables and synthesises a boundary-function
//!   predicate that provably selects it; a result set missing the pivot is
//!   a containment violation (the pivot construction of Rigger & Su's
//!   Pivoted Query Synthesis, adapted to the fixed seed catalog).
//! * **Cross-dialect differential** ([`differential_check`]) — runs the
//!   portable shared queries on the campaign's (armed) engine and on every
//!   *fault-free* peer dialect, flagging result divergences not covered by
//!   the [`KNOWN_DIVERGENCES`] allowlist.
//!
//! Division of labour with the crash plane is strict: if any form, probe,
//! or peer crashes, the oracle returns nothing — the crash pipeline already
//! owns that statement.

use crate::collect;
use soft_dialects::{seeds, DialectId, DialectProfile};
use soft_engine::{Engine, ExecOutcome, SqlError};
use soft_parser::ast::{BinaryOp, Expr, Literal, Statement};
use soft_parser::visit;
use soft_types::value::Value;

/// Which oracle family raised a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OracleKind {
    /// PQS-style pivot containment probe.
    Pivot,
    /// Multi-form (as-parsed / literal-unfolded) execution.
    MultiForm,
    /// Cross-dialect differential against fault-free peers.
    Differential,
}

impl OracleKind {
    /// Stable label used in reports, journals and forensics bundles.
    pub fn label(&self) -> &'static str {
        match self {
            OracleKind::Pivot => "pivot",
            OracleKind::MultiForm => "multi-form",
            OracleKind::Differential => "differential",
        }
    }

    /// The inverse of [`OracleKind::label`] — forensics bundles round-trip
    /// through it.
    pub fn from_label(label: &str) -> Option<OracleKind> {
        match label {
            "pivot" => Some(OracleKind::Pivot),
            "multi-form" => Some(OracleKind::MultiForm),
            "differential" => Some(OracleKind::Differential),
            _ => None,
        }
    }
}

/// One wrong-result verdict: which oracle fired and the disagreeing
/// expected/actual signatures, both rendered for humans and for the
/// forensics bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicBug {
    /// The oracle family that raised this finding.
    pub oracle: OracleKind,
    /// What the reference form / pivot / peer produced.
    pub expected: String,
    /// What the engine under test produced instead.
    pub actual: String,
}

/// Campaign-level oracle switch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OracleConfig {
    /// No wrong-result detection (the crash plane still runs).
    #[default]
    Off,
    /// Wrong-result detection: the multi-form oracle on every planned
    /// statement, the pivot probes and the differential suite once per
    /// campaign.
    On,
}

impl OracleConfig {
    /// All three families armed.
    pub fn on() -> OracleConfig {
        OracleConfig::On
    }

    /// Whether the oracles run.
    pub fn is_on(&self) -> bool {
        matches!(self, OracleConfig::On)
    }
}

/// A comparable signature of one execution outcome. `None` means the
/// outcome was a crash — the crash plane owns it, the oracles stand down.
fn signature(outcome: &ExecOutcome) -> Option<String> {
    match outcome {
        ExecOutcome::Rows(rs) => {
            let rows: Vec<String> = rs
                .rows
                .iter()
                .map(|row| {
                    row.iter().map(|v| v.render()).collect::<Vec<_>>().join(", ")
                })
                .collect();
            Some(format!("rows: {}", rows.join("; ")))
        }
        ExecOutcome::Ok(_) => Some("ok".to_string()),
        // All resource kills are one class, and all ordinary errors are one
        // class: their *messages* may mention the literal spelling the
        // unfolding changed.
        ExecOutcome::Error(SqlError::ResourceLimit(_)) => Some("resource-limit".to_string()),
        ExecOutcome::Error(_) => Some("error".to_string()),
        ExecOutcome::Crash(_) => None,
    }
}

/// Runs one statement through its equivalent forms and reports the first
/// divergence. `template` is the campaign's prepared template engine (seed
/// tables loaded, no statements from other cases executed); every form runs
/// on a private clone, so the check is free of cross-case state.
///
/// Form A (the reference) executes `stmt` as parsed. Form C executes its
/// literal-unfolded rewrite, `f(42 + 0)` in place of `f(42)` — same value,
/// different provenance. A statement with nothing to unfold, or one calling
/// a function whose documented result depends on provenance (MySQL's
/// `COERCIBILITY`), has no form C, and the check returns `None` without
/// executing anything. Either form crashing returns `None`.
///
/// `_sql` is unused: the benchmark's serial replay passes the statement's
/// text, and the parameter goes when that replay does.
pub fn multi_form_check(template: &Engine, _sql: &str, stmt: &Statement) -> Option<LogicBug> {
    let unfolded = unfolded_form(stmt)?;
    let mut engine = template.clone();
    let prepared = engine.prepare_parsed(stmt.clone());
    let reference = engine.execute_prepared(&prepared);
    compare_unfolded(template, unfolded, &reference)
}

/// [`multi_form_check`] with form A's outcome supplied by the caller, so
/// form A is not executed a second time. (Skipping form A's clone saves
/// little: a clone copies only session state and shares the template's
/// backend.) The campaign shard passes its own outcome for every
/// statement with a shape key ([`soft_engine::Engine::shape_key`]):
/// shape-keyed statements read neither tables nor mutable session state,
/// so the outcome the shard engine produced is exactly what a private
/// template clone would produce — the purity contract [`multi_form_check`]
/// establishes by cloning. `_sql` is unused, as there.
pub fn multi_form_check_with(
    template: &Engine,
    _sql: &str,
    stmt: &Statement,
    reference: &ExecOutcome,
) -> Option<LogicBug> {
    compare_unfolded(template, unfolded_form(stmt)?, reference)
}

/// Executes form C on a template clone and compares it with form A's
/// outcome.
///
/// Rows whose values are strictly equal ([`rows_strictly_equal`]) render
/// equally, so they are judged equal without rendering: a Pattern 3.1
/// statement returns a 100–500 KB text that both forms would otherwise
/// render only to compare. Everything else is compared by [`signature`],
/// which alone builds a [`LogicBug`].
fn compare_unfolded(
    template: &Engine,
    unfolded: Statement,
    reference: &ExecOutcome,
) -> Option<LogicBug> {
    if matches!(reference, ExecOutcome::Crash(_)) {
        return None;
    }
    let outcome = execute_unfolded(template, unfolded);
    if rows_strictly_equal(reference, &outcome) {
        return None;
    }
    compare_signatures(reference, &outcome)
}

/// Executes form C on a private template clone.
fn execute_unfolded(template: &Engine, unfolded: Statement) -> ExecOutcome {
    let mut engine = template.clone();
    let prepared = engine.prepare_parsed(unfolded);
    engine.execute_prepared(&prepared)
}

/// The verdict on two outcomes by their rendered signatures.
fn compare_signatures(reference: &ExecOutcome, outcome: &ExecOutcome) -> Option<LogicBug> {
    let expected = signature(reference)?;
    let actual = signature(outcome)?;
    (actual != expected).then_some(LogicBug { oracle: OracleKind::MultiForm, expected, actual })
}

/// True when both outcomes are rows of the same shape whose values are
/// pairwise [`strictly_equal`].
fn rows_strictly_equal(a: &ExecOutcome, b: &ExecOutcome) -> bool {
    let (ExecOutcome::Rows(a), ExecOutcome::Rows(b)) = (a, b) else {
        return false;
    };
    a.rows.len() == b.rows.len()
        && a.rows
            .iter()
            .zip(&b.rows)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(v, w)| strictly_equal(v, w)))
}

/// Equality that implies equal rendering: same variant, and `Text` and
/// `Binary` equal by bytes, `Integer` and `Boolean` by value, `Float` by
/// bits and `Json` by structure. Every other value is unequal here and
/// goes to the rendered comparison: a `Decimal`'s `==` is numeric (`1.0`
/// equals `1.00`), and `0.0` equals `-0.0` as a float.
fn strictly_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Text(x), Value::Text(y)) => x == y,
        (Value::Binary(x), Value::Binary(y)) => x == y,
        (Value::Integer(x), Value::Integer(y)) => x == y,
        (Value::Boolean(x), Value::Boolean(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Json(x), Value::Json(y)) => x == y,
        _ => false,
    }
}

/// [`multi_form_check_with`] with every verdict rendered by [`signature`]:
/// the reference the [`rows_strictly_equal`] shortcut is tested against.
#[cfg(test)]
pub(crate) fn multi_form_check_rendered(
    template: &Engine,
    stmt: &Statement,
    reference: &ExecOutcome,
) -> Option<LogicBug> {
    let unfolded = unfolded_form(stmt)?;
    signature(reference)?;
    compare_signatures(reference, &execute_unfolded(template, unfolded))
}

/// The fault id and credited function for a multi-form finding on `stmt`:
/// `logic-multiform-<function>` for the statement's first function call
/// (the boundary argument under test), `logic-multiform-expr` otherwise.
pub fn multi_form_fault_id(stmt: &Statement) -> (String, Option<String>) {
    match visit::collect_function_exprs(stmt).first() {
        Some(fx) => {
            let name = fx.name.to_ascii_lowercase();
            (format!("logic-multiform-{name}"), Some(name))
        }
        None => ("logic-multiform-expr".to_string(), None),
    }
}

/// Functions whose *documented* semantics depend on argument provenance —
/// MySQL's `COERCIBILITY` reports 4 for a literal and 2 for an expression,
/// by design. Unfolding a literal through an operator legitimately changes
/// their result, so the literal-unfolded form is skipped for statements
/// that call one.
const PROVENANCE_SENSITIVE: &[&str] = &["coercibility"];

/// Form C of `stmt`: its literal-unfolded rewrite, or `None` when nothing
/// unfolds or the statement calls a function the rewrite would
/// legitimately perturb (see [`PROVENANCE_SENSITIVE`]).
fn unfolded_form(stmt: &Statement) -> Option<Statement> {
    let mut sensitive = false;
    visit::for_each_function_name(stmt, |name| {
        if PROVENANCE_SENSITIVE.iter().any(|f| name.eq_ignore_ascii_case(f)) {
            sensitive = true;
        }
    });
    if sensitive {
        return None;
    }
    unfold_literals(stmt)
}

/// Rewrites literal arguments of function calls into equivalent operator
/// forms: `42` becomes `42 + 0`, `'x'` becomes `'x' || ''`. Returns `None`
/// when the statement has nothing to unfold. Numbers only unfold when they
/// parse as an `i64` comfortably below the overflow boundary — the corpus
/// deliberately feeds `9e999`-style extremes whose `+ 0` would *legitimately*
/// change the outcome, and a legitimate change is not a bug.
fn unfold_literals(stmt: &Statement) -> Option<Statement> {
    let mut unfolded = stmt.clone();
    let mut changed = false;
    visit::visit_exprs_mut(&mut unfolded, &mut |expr| {
        if let Expr::Function(fx) = expr {
            for arg in &mut fx.args {
                match arg {
                    Expr::Literal(Literal::Number(n))
                        if n.parse::<i64>()
                            .ok()
                            .and_then(i64::checked_abs)
                            .is_some_and(|v| v < i64::MAX / 2) =>
                    {
                        let lit = std::mem::replace(arg, Expr::null());
                        *arg = Expr::Binary {
                            left: Box::new(lit),
                            op: BinaryOp::Add,
                            right: Box::new(Expr::number("0")),
                        };
                        changed = true;
                    }
                    Expr::Literal(Literal::String(_)) => {
                        let lit = std::mem::replace(arg, Expr::null());
                        *arg = Expr::Binary {
                            left: Box::new(lit),
                            op: BinaryOp::Concat,
                            right: Box::new(Expr::string("")),
                        };
                        changed = true;
                    }
                    _ => {}
                }
            }
        }
    });
    changed.then_some(unfolded)
}

/// One pivot probe: a query over a shared seed table whose predicate is
/// built from boundary functions and *must* select the pivot row.
struct PivotProbe {
    /// The seed table the pivot row lives in.
    table: &'static str,
    /// The probe query. Every predicate conjunct provably holds for the
    /// pivot row given the seed data in [`seeds::SHARED_PREP`].
    sql: &'static str,
    /// The pivot row's first column, as [`soft_types::value::Value::render`]
    /// prints it.
    pivot: &'static str,
}

/// The probe set. Pivots are fixed rows of the shared seed tables, so the
/// probes hold on every dialect that can execute them; a dialect missing
/// one of the functions reports an ordinary error and the probe is skipped
/// (capability gap, not a wrong result).
const PIVOT_PROBES: &[PivotProbe] = &[
    PivotProbe {
        table: "t1",
        // Pivot (1, 'alpha', 1.5): LENGTH('alpha') = 5 and ABS(1 - 1) = 0.
        sql: "SELECT a, b, c FROM t1 WHERE LENGTH(b) = 5 AND ABS(a - 1) = 0",
        pivot: "1",
    },
    PivotProbe {
        table: "t2",
        // Pivot ('y', 30): UPPER('y') = 'Y' and ABS(30 - 30) = 0.
        sql: "SELECT k, v FROM t2 WHERE UPPER(k) = 'Y' AND ABS(v - 30) = 0",
        pivot: "y",
    },
    PivotProbe {
        table: "t3",
        // Pivot ('2024-01-15', …): LENGTH = 10, SUBSTR(d, 6, 2) = '01'.
        sql: "SELECT d, j FROM t3 WHERE LENGTH(d) = 10 AND SUBSTR(d, 6, 2) = '01'",
        pivot: "2024-01-15",
    },
];

/// Runs the pivot probes against a clone of the campaign's template engine
/// and reports every probe whose result set omits its pivot row. Returns
/// `(fault id, verdict, probe sql)` triples, in fixed probe order.
pub fn pivot_check(template: &Engine) -> Vec<(String, LogicBug, String)> {
    let mut out = Vec::new();
    for probe in PIVOT_PROBES {
        let mut engine = template.clone();
        let rs = match engine.execute(probe.sql) {
            ExecOutcome::Rows(rs) => rs,
            // Error: the dialect lacks a probe function — a capability
            // gap, not a wrong result. Crash: the crash plane owns it.
            _ => continue,
        };
        let present = rs
            .rows
            .iter()
            .any(|row| row.first().is_some_and(|v| v.render() == probe.pivot));
        if !present {
            let rendered: Vec<String> = rs
                .rows
                .iter()
                .map(|row| {
                    row.iter().map(|v| v.render()).collect::<Vec<_>>().join(", ")
                })
                .collect();
            out.push((
                format!("logic-pivot-{}", probe.table),
                LogicBug {
                    oracle: OracleKind::Pivot,
                    expected: format!(
                        "a row of {} with first column {}",
                        probe.table, probe.pivot
                    ),
                    actual: format!("rows: {}", rendered.join("; ")),
                },
                probe.sql.to_string(),
            ));
        }
    }
    out
}

/// One allowlisted divergence: (dialect under test, peer dialect, index
/// into [`seeds::SHARED_QUERIES`]). Divergences listed here are understood
/// dialect differences, not bugs, and the differential oracle skips them.
pub type KnownDivergence = (DialectId, DialectId, usize);

/// The shipped allowlist. Empty today: the fault-free builds of all seven
/// dialects agree on every shared query both can run (pinned by
/// `tests/differential.rs`), so any divergence the campaign sees is the
/// armed engine's quirk corpus showing through — exactly what the oracle
/// hunts.
pub const KNOWN_DIVERGENCES: &[KnownDivergence] = &[];

/// Cross-dialect differential with the shipped [`KNOWN_DIVERGENCES`].
pub fn differential_check(profile: &DialectProfile) -> Vec<(String, LogicBug, String)> {
    differential_check_with_allowlist(profile, KNOWN_DIVERGENCES)
}

/// Runs every shared query on `profile`'s *armed* engine and on the
/// fault-free build of every peer dialect, reporting each non-allowlisted
/// divergence as `(fault id, verdict, query sql)`. Queries the armed
/// engine crashes on (or either side cannot run) are skipped — the crash
/// plane and the capability matrix own those. Deterministic: peers iterate
/// in [`DialectId::ALL`] order, queries in corpus order.
pub fn differential_check_with_allowlist(
    profile: &DialectProfile,
    allowlist: &[KnownDivergence],
) -> Vec<(String, LogicBug, String)> {
    let mut ours = collect::prepared_template(profile.engine());
    let mine: Vec<Option<String>> = seeds::SHARED_QUERIES
        .iter()
        .map(|sql| match ours.execute(sql) {
            ExecOutcome::Rows(rs) => signature(&ExecOutcome::Rows(rs)),
            // Only row-producing runs participate: errors are capability
            // gaps and crashes belong to the crash plane.
            _ => None,
        })
        .collect();

    let mut out = Vec::new();
    for peer_id in DialectId::ALL {
        if peer_id == profile.id {
            continue;
        }
        let peer_profile = DialectProfile::build(peer_id);
        let mut peer = collect::prepared_template(peer_profile.engine_without_faults());
        for (qi, sql) in seeds::SHARED_QUERIES.iter().enumerate() {
            if allowlist.contains(&(profile.id, peer_id, qi)) {
                continue;
            }
            let Some(mine) = mine[qi].as_ref() else { continue };
            let theirs = match peer.execute(sql) {
                ExecOutcome::Rows(rs) => match signature(&ExecOutcome::Rows(rs)) {
                    Some(s) => s,
                    None => continue,
                },
                _ => continue,
            };
            if *mine != theirs {
                out.push((
                    format!("logic-diff-{}-q{qi}", peer_id.key()),
                    LogicBug {
                        oracle: OracleKind::Differential,
                        expected: format!("{}: {theirs}", peer_id.name()),
                        actual: format!("{}: {mine}", profile.id.name()),
                    },
                    sql.to_string(),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use soft_engine::{LogicQuirkSpec, QuirkEffect, Trigger, ValuePred};

    fn profile(id: DialectId) -> DialectProfile {
        DialectProfile::build(id)
    }

    fn template(p: &DialectProfile) -> Engine {
        collect::prepared_template(p.engine())
    }

    #[test]
    fn oracle_kind_labels_round_trip() {
        for k in [OracleKind::Pivot, OracleKind::MultiForm, OracleKind::Differential] {
            assert_eq!(OracleKind::from_label(k.label()), Some(k));
        }
        assert_eq!(OracleKind::from_label("psychic"), None);
    }

    #[test]
    fn multi_form_flags_the_clickhouse_tostring_quirk() {
        // The shipped ClickHouse quirk makes toString(42) return "42.0",
        // but only when the argument is a bare literal. Unfolding 42 into
        // 42 + 0 keeps the value and flips the provenance, so form C
        // disagrees with the reference — the exact multi-form signal.
        let p = profile(DialectId::Clickhouse);
        let t = template(&p);
        let sql = "SELECT toString(42)";
        let stmt = soft_parser::parse_statement(sql).expect("parse");
        let bug = multi_form_check(&t, sql, &stmt).expect("quirk must be flagged");
        assert_eq!(bug.oracle, OracleKind::MultiForm);
        assert!(bug.expected.contains("42.0"), "{bug:?}");
        assert!(bug.actual.contains("42"), "{bug:?}");
        assert_eq!(
            multi_form_fault_id(&stmt),
            ("logic-multiform-tostring".to_string(), Some("tostring".to_string()))
        );
    }

    #[test]
    fn multi_form_is_quiet_on_honest_statements() {
        let p = profile(DialectId::Postgres);
        let t = template(&p);
        for sql in [
            "SELECT UPPER(b), LENGTH(b) FROM t1",
            "SELECT ABS(-17), LENGTH('soft')",
            "SELECT SUBSTR('boundary', 1, 5)",
            "SELECT 1 + 1",
        ] {
            let stmt = soft_parser::parse_statement(sql).expect("parse");
            assert_eq!(multi_form_check(&t, sql, &stmt), None, "false positive on {sql}");
        }
    }

    #[test]
    fn multi_form_is_quiet_past_the_statement_length_gate() {
        // The engine's 1 MiB statement-length gate guards SQL text, not
        // parsed statements, so neither form sees it: both count the
        // literal's 1,048,586 bytes and agree.
        let p = profile(DialectId::Postgres);
        let t = template(&p);
        let sql = format!("SELECT LENGTH('{}')", "x".repeat((1 << 20) + 10));
        let stmt = soft_parser::parse_statement(&sql).expect("parse");
        assert_eq!(multi_form_check(&t, &sql, &stmt), None);
    }

    #[test]
    fn only_strictly_equal_rows_skip_rendering() {
        let rows = |vals: Vec<Value>| {
            ExecOutcome::Rows(soft_engine::ResultSet {
                columns: vec![],
                rows: vec![vals],
            })
        };
        let dec = |s: &str| Value::Decimal(s.parse().expect("decimal"));
        let equal = [
            (
                Value::Text("x".repeat(300_000)),
                Value::Text("x".repeat(300_000)),
            ),
            (Value::Float(1.5), Value::Float(1.5)),
            (Value::Null, Value::Null),
            (
                Value::Json(soft_types::json::parse("[1,{\"a\":2}]").expect("json")),
                Value::Json(soft_types::json::parse("[1, {\"a\": 2}]").expect("json")),
            ),
        ];
        for (a, b) in equal {
            assert!(
                rows_strictly_equal(&rows(vec![a.clone()]), &rows(vec![b.clone()])),
                "{a:?}"
            );
            assert_eq!(a.render(), b.render());
        }
        // Equal under `==` but not strictly: these take the rendering path,
        // which tells `0` from `-0` and `1.0` from `1.00`.
        for (a, b) in [
            (Value::Float(0.0), Value::Float(-0.0)),
            (dec("1.0"), dec("1.00")),
        ] {
            assert_eq!(a, b);
            let (ra, rb) = (rows(vec![a.clone()]), rows(vec![b.clone()]));
            assert!(!rows_strictly_equal(&ra, &rb), "{a:?} vs {b:?}");
            assert!(compare_signatures(&ra, &rb).is_some(), "{a:?} vs {b:?}");
        }
        // A different shape is never strictly equal.
        let two = ExecOutcome::Rows(soft_engine::ResultSet {
            columns: vec![],
            rows: vec![vec![Value::Integer(1)], vec![Value::Integer(1)]],
        });
        assert!(!rows_strictly_equal(&rows(vec![Value::Integer(1)]), &two));
        assert!(!rows_strictly_equal(
            &rows(vec![Value::Integer(1)]),
            &rows(vec![Value::Boolean(true)])
        ));
    }

    #[test]
    fn provenance_sensitive_functions_are_not_unfolded() {
        // COERCIBILITY legitimately reports 4 for a literal and 2 for an
        // expression — the unfolded form would diverge by design, so the
        // oracle must stand down instead of raising a false positive.
        let p = profile(DialectId::Mysql);
        let t = template(&p);
        let sql = "SELECT COERCIBILITY('x')";
        let stmt = soft_parser::parse_statement(sql).expect("parse");
        assert_eq!(multi_form_check(&t, sql, &stmt), None);
    }

    #[test]
    fn unfolding_skips_overflow_prone_numbers() {
        let stmt =
            soft_parser::parse_statement("SELECT ABS(9223372036854775807), LENGTH('x')")
                .expect("parse");
        let unfolded = unfold_literals(&stmt).expect("the string still unfolds");
        let rendered = unfolded.to_string();
        assert!(rendered.contains("9223372036854775807"), "{rendered}");
        assert!(!rendered.contains("9223372036854775807 + 0"), "{rendered}");
        assert!(rendered.contains("'x' || ''"), "{rendered}");
    }

    #[test]
    fn pivot_probes_hold_on_every_dialect() {
        for id in DialectId::ALL {
            let p = profile(id);
            let hits = pivot_check(&template(&p));
            assert!(hits.is_empty(), "{id}: {hits:?}");
        }
    }

    #[test]
    fn pivot_catches_a_planted_length_quirk() {
        // Plant a quirk that makes LENGTH of any ≥5-char argument return
        // NULL: the t1 probe's predicate no longer selects the pivot row
        // (1, 'alpha', 1.5), so the oracle must flag it.
        let mut p = profile(DialectId::Postgres);
        p.logic_quirks.push(LogicQuirkSpec {
            id: "planted-length-null".to_string(),
            function: "length".to_string(),
            trigger: Trigger::Arg { index: Some(0), pred: ValuePred::LenAtLeast(5) },
            effect: QuirkEffect::NullResult,
            description: "planted: LENGTH of long text yields NULL".to_string(),
        });
        let hits = pivot_check(&template(&p));
        assert!(
            hits.iter().any(|(id, bug, _)| id == "logic-pivot-t1"
                && bug.oracle == OracleKind::Pivot
                && bug.expected.contains("first column 1")),
            "{hits:?}"
        );
    }

    #[test]
    fn differential_is_quiet_on_a_stock_profile() {
        let p = profile(DialectId::Duckdb);
        assert_eq!(differential_check(&p), vec![]);
    }

    #[test]
    fn differential_catches_a_planted_upper_quirk_and_honours_the_allowlist() {
        // Plant a wrong-result quirk on UPPER (exercised by shared query
        // q0); every fault-free peer disagrees with the armed engine.
        let mut p = profile(DialectId::Mysql);
        p.logic_quirks.push(LogicQuirkSpec {
            id: "planted-upper-suffix".to_string(),
            function: "upper".to_string(),
            trigger: Trigger::Always,
            effect: QuirkEffect::TextSuffix("!".to_string()),
            description: "planted: UPPER appends '!'".to_string(),
        });
        let hits = differential_check(&p);
        assert!(!hits.is_empty());
        assert!(
            hits.iter().all(|(id, bug, sql)| {
                id.ends_with("-q0")
                    && bug.oracle == OracleKind::Differential
                    && sql.contains("UPPER")
            }),
            "{hits:?}"
        );

        // Allowlisting the (dialect, peer, query) triples silences it.
        let allow: Vec<KnownDivergence> = DialectId::ALL
            .into_iter()
            .filter(|&peer| peer != p.id)
            .map(|peer| (p.id, peer, 0))
            .collect();
        assert_eq!(differential_check_with_allowlist(&p, &allow), vec![]);
    }
}

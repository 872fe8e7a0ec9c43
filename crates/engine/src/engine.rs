//! The engine facade: configuration plus the public execution entry points.
//!
//! Statements can be executed in one shot ([`Engine::execute`]) or split
//! into [`Engine::prepare`] + [`Engine::execute_prepared`], the prepared-
//! statement discipline real DBMSs use to amortise frontend cost: parsing
//! happens once, and every execution walks the owned AST. Each function
//! call resolves its name at the call through the registry, whose
//! case-folding lookup allocates nothing. That is the engine's one
//! execution path; [`Engine::shape_key`] tells which prepared statements
//! are state-independent.

use std::sync::Arc;

use crate::catalog::Catalog;
use crate::coverage::Coverage;
use crate::error::{CrashReport, EngineError, ExecOutcome, SqlError};
use crate::executor::Exec;
use crate::fault::FaultSet;
use crate::functions;
use crate::registry::{FunctionRegistry, Limits, SessionState};
use crate::shape::ShapeKey;
use soft_parser::ast::Statement;
use soft_types::cast::CastStrictness;

/// Engine configuration — the knobs a dialect profile sets.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Display name (usually the dialect name).
    pub name: String,
    /// Implicit-cast strictness (PostgreSQL-like strict vs MySQL-like
    /// lenient; §7.3 explains why strictness suppresses boundary bugs).
    pub strictness: CastStrictness,
    /// Resource limits.
    pub limits: Limits,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            name: "soft-engine".into(),
            strictness: CastStrictness::Lenient,
            limits: Limits::default(),
        }
    }
}

/// The group size below which the campaign benchmark's replay executes
/// statements one by one. Kept for that replay (ROADMAP, item 1).
pub const MIN_BATCH_GROUP: usize = 3;

/// The arena argument of [`Engine::execute_batch_in`]; it holds nothing.
/// Kept for the campaign benchmark's replay (ROADMAP, item 1).
#[derive(Debug, Default)]
pub struct BatchArena;

impl BatchArena {
    /// A new (empty) arena.
    pub fn new() -> Self {
        BatchArena
    }
}

/// A statement prepared for execution: parsed once, then executable any
/// number of times with [`Engine::execute_prepared`]. Function names
/// resolve at each call through the registry's allocation-free lookup.
/// Produced by [`Engine::prepare`]; executable on the preparing engine or
/// any engine that shares its backend — the engine itself or any clone of
/// it (shard engines execute statements prepared by their template).
#[derive(Debug, Clone)]
pub struct Prepared {
    pub(crate) stmt: Statement,
}

impl Prepared {
    /// The parsed statement.
    pub fn statement(&self) -> &Statement {
        &self.stmt
    }
}

/// The in-memory SQL engine.
///
/// # Examples
///
/// ```
/// use soft_engine::Engine;
///
/// let mut e = Engine::with_default_functions(Default::default());
/// let out = e.execute("SELECT UPPER('abc')");
/// match out {
///     soft_engine::ExecOutcome::Rows(rs) => {
///         assert_eq!(rs.rows[0][0].render(), "ABC");
///     }
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
///
/// Cloning copies only the session (catalog, session state, coverage, crash
/// log); the clone shares the configuration, registry and fault set with
/// the original.
#[derive(Debug, Clone)]
pub struct Engine {
    backend: Arc<Backend>,
    catalog: Catalog,
    coverage: Coverage,
    session: SessionState,
    crash_log: Vec<CrashReport>,
}

/// The half of an [`Engine`] that statements never mutate, built once and
/// shared by every clone.
#[derive(Debug)]
struct Backend {
    config: EngineConfig,
    registry: FunctionRegistry,
    faults: FaultSet,
}

impl Engine {
    /// Builds an engine from explicit parts (how dialect profiles create
    /// their targets).
    pub fn new(config: EngineConfig, registry: FunctionRegistry, faults: FaultSet) -> Engine {
        Engine {
            backend: Arc::new(Backend { config, registry, faults }),
            catalog: Catalog::new(),
            coverage: Coverage::new(),
            session: SessionState::default(),
            crash_log: Vec::new(),
        }
    }

    /// Builds a fault-free engine with the full builtin library and common
    /// aliases — the "reference" configuration.
    pub fn with_default_functions(config: EngineConfig) -> Engine {
        let mut registry = FunctionRegistry::new();
        functions::install_all(&mut registry);
        functions::install_common_aliases(&mut registry);
        Engine::new(config, registry, FaultSet::default())
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.backend.config
    }

    /// The function registry.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.backend.registry
    }

    /// The active fault set.
    pub fn faults(&self) -> &FaultSet {
        &self.backend.faults
    }

    /// Accumulated coverage of the SQL-function component.
    pub fn coverage(&self) -> &Coverage {
        &self.coverage
    }

    /// Crashes observed so far (every `ExecOutcome::Crash` is also logged).
    pub fn crash_log(&self) -> &[CrashReport] {
        &self.crash_log
    }

    /// The catalog (for tests and tools that prepare data directly).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Resets per-database state (tables, sequences, session) but keeps
    /// coverage and the crash log — the paper's workflow: the DBMS restarts
    /// after a crash, the measurement continues.
    pub fn reset_database(&mut self) {
        self.catalog.reset();
        self.session = SessionState::default();
    }

    /// Restores per-database state (catalog + session) from a snapshot
    /// engine, keeping this engine's coverage and crash log. With a
    /// snapshot that already has its preparation statements replayed, this
    /// is the O(clone) equivalent of [`Engine::reset_database`] followed by
    /// re-executing the preparation script — preparation is deterministic
    /// and coverage is set-based, so the observable campaign state is
    /// identical either way.
    pub fn restore_database(&mut self, snapshot: &Engine) {
        self.catalog = snapshot.catalog.clone();
        self.session = snapshot.session.clone();
    }

    /// Prepares one SQL statement: the length gate and the parse — stage 1
    /// of the pipeline. The returned [`Prepared`] can be executed
    /// repeatedly via [`Engine::execute_prepared`] without touching the
    /// lexer again.
    ///
    /// Errors are exactly the outcomes [`Engine::execute`] would report
    /// before reaching the executor: `ResourceLimit` for over-long
    /// statements, `Parse` for lex/parse failures.
    pub fn prepare(&self, sql: &str) -> Result<Prepared, SqlError> {
        let max_bytes = self.backend.config.limits.max_statement_bytes;
        if sql.len() > max_bytes {
            return Err(SqlError::ResourceLimit(format!(
                "statement longer than {max_bytes} bytes"
            )));
        }
        // Stage 1: parsing.
        let stmt = soft_parser::parse_statement(sql)
            .map_err(|e| SqlError::Parse(e.to_string()))?;
        Ok(self.prepare_parsed(stmt))
    }

    /// Prepares an already-parsed statement (no length gate, no parse) —
    /// the entry point for callers that own an AST, like the PoC minimiser,
    /// which mutates statement trees directly and should not pay a render →
    /// re-lex round trip per reduction step.
    pub fn prepare_parsed(&self, stmt: Statement) -> Prepared {
        Prepared { stmt }
    }

    /// Executes a prepared statement — stages 2-3 of the pipeline: the
    /// executor folds optimization (constant handling, union alignment)
    /// into evaluation; fault specs carry the stage their original bug
    /// crashed in. Function names resolve at each call through the
    /// registry's allocation-free lookup.
    pub fn execute_prepared(&mut self, prepared: &Prepared) -> ExecOutcome {
        match self.exec().exec_statement(&prepared.stmt) {
            Ok(outcome) => outcome,
            Err(EngineError::Sql(e)) => ExecOutcome::Error(e),
            Err(EngineError::Crash(c)) => {
                self.crash_log.push(c.clone());
                ExecOutcome::Crash(c)
            }
        }
    }

    /// The structural shape key of a prepared statement, or `None` when it
    /// may depend on engine state (it reads rows, calls volatile or unknown
    /// functions, aggregates, …). A keyed statement executes alike on every
    /// clone of one template, which is the multi-form oracle's outcome-reuse
    /// predicate.
    pub fn shape_key(&self, prepared: &Prepared) -> Option<ShapeKey> {
        crate::shape::shape_key(&self.backend.registry, &prepared.stmt)
    }

    /// Executes `members` one after another with [`Engine::execute_prepared`].
    /// Kept for the campaign benchmark's replay (ROADMAP, item 1).
    pub fn execute_batch_in(
        &mut self,
        members: &[&Prepared],
        _arena: &mut BatchArena,
    ) -> Option<Vec<ExecOutcome>> {
        Some(members.iter().map(|p| self.execute_prepared(p)).collect())
    }

    /// The executor for one statement: the shared backend read-only, the
    /// session mutably.
    fn exec(&mut self) -> Exec<'_> {
        let backend = &*self.backend;
        Exec {
            registry: &backend.registry,
            faults: &backend.faults,
            coverage: &mut self.coverage,
            catalog: &mut self.catalog,
            session: &mut self.session,
            strictness: backend.config.strictness,
            limits: backend.config.limits,
            memory_used: 0,
            subquery_depth: 0,
        }
    }

    /// Executes one SQL statement: [`Engine::prepare`] composed with
    /// [`Engine::execute_prepared`], with prepare-stage failures surfaced
    /// as the same [`ExecOutcome::Error`]s the pre-split engine reported.
    pub fn execute(&mut self, sql: &str) -> ExecOutcome {
        match self.prepare(sql) {
            Ok(prepared) => self.execute_prepared(&prepared),
            Err(e) => ExecOutcome::Error(e),
        }
    }

    /// Executes a `;`-separated script, stopping at the first crash.
    pub fn execute_script(&mut self, sql: &str) -> Vec<ExecOutcome> {
        let stmts = match soft_parser::parse_script(sql) {
            Ok(s) => s,
            Err(e) => return vec![ExecOutcome::Error(SqlError::Parse(e.to_string()))],
        };
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            let o = self.execute(&stmt.to_string());
            let is_crash = o.is_crash();
            out.push(o);
            if is_crash {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExecOutcome;
    use soft_types::value::Value;

    fn engine() -> Engine {
        Engine::with_default_functions(EngineConfig::default())
    }

    fn scalar(e: &mut Engine, sql: &str) -> Value {
        match e.execute(sql) {
            ExecOutcome::Rows(rs) => rs
                .scalar()
                .unwrap_or_else(|| panic!("{sql}: not a scalar result: {rs:?}"))
                .clone(),
            other => panic!("{sql}: unexpected outcome {other:?}"),
        }
    }

    fn expect_error(e: &mut Engine, sql: &str) -> SqlError {
        match e.execute(sql) {
            ExecOutcome::Error(err) => err,
            other => panic!("{sql}: expected error, got {other:?}"),
        }
    }

    #[test]
    fn literals_and_arithmetic() {
        let mut e = engine();
        assert_eq!(scalar(&mut e, "SELECT 1 + 2 * 3"), Value::Integer(7));
        assert_eq!(scalar(&mut e, "SELECT 5 / 2").render(), "2.5000");
        assert_eq!(scalar(&mut e, "SELECT 1 / 0"), Value::Null);
        assert_eq!(scalar(&mut e, "SELECT -0.99999").render(), "-0.99999");
        assert_eq!(scalar(&mut e, "SELECT 'a' || 'b'").render(), "ab");
    }

    #[test]
    fn big_integer_promotes_to_decimal() {
        let mut e = engine();
        let v = scalar(&mut e, "SELECT 9223372036854775807 + 1");
        assert_eq!(v.render(), "9223372036854775808");
        assert!(matches!(v, Value::Decimal(_)));
    }

    #[test]
    fn string_functions_via_sql() {
        let mut e = engine();
        assert_eq!(scalar(&mut e, "SELECT UPPER('abc')").render(), "ABC");
        assert_eq!(scalar(&mut e, "SELECT REPEAT('ab', 3)").render(), "ababab");
        assert_eq!(scalar(&mut e, "SELECT SUBSTR('hello', 2, 3)").render(), "ell");
        assert_eq!(scalar(&mut e, "SELECT LENGTH('')"), Value::Integer(0));
        assert_eq!(scalar(&mut e, "SELECT CONCAT('a', NULL, 'b')"), Value::Null);
    }

    #[test]
    fn tables_and_aggregates() {
        let mut e = engine();
        assert!(matches!(
            e.execute("CREATE TABLE t (a INTEGER, b TEXT)"),
            ExecOutcome::Ok(_)
        ));
        assert!(matches!(
            e.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (2, 'z')"),
            ExecOutcome::Ok(_)
        ));
        assert_eq!(scalar(&mut e, "SELECT COUNT(*) FROM t"), Value::Integer(3));
        assert_eq!(scalar(&mut e, "SELECT SUM(a) FROM t").render(), "5");
        assert_eq!(scalar(&mut e, "SELECT COUNT(DISTINCT a) FROM t"), Value::Integer(2));
        assert_eq!(scalar(&mut e, "SELECT AVG(a) FROM t").render(), "1.6667");
        match e.execute("SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a") {
            ExecOutcome::Rows(rs) => {
                assert_eq!(rs.rows.len(), 2);
                assert_eq!(rs.rows[0][0], Value::Integer(1));
                assert_eq!(rs.rows[0][1], Value::Integer(1));
                assert_eq!(rs.rows[1][1], Value::Integer(2));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            scalar(&mut e, "SELECT COUNT(*) FROM t WHERE a > 1"),
            Value::Integer(2)
        );
    }

    #[test]
    fn group_by_having() {
        let mut e = engine();
        e.execute("CREATE TABLE g (k INTEGER, v INTEGER)");
        e.execute("INSERT INTO g VALUES (1, 10), (1, 20), (2, 5)");
        match e.execute("SELECT k FROM g GROUP BY k HAVING SUM(v) > 10") {
            ExecOutcome::Rows(rs) => {
                assert_eq!(rs.rows, vec![vec![Value::Integer(1)]]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_table_aggregates() {
        let mut e = engine();
        e.execute("CREATE TABLE empty_t (a INTEGER)");
        assert_eq!(scalar(&mut e, "SELECT COUNT(a) FROM empty_t"), Value::Integer(0));
        assert_eq!(scalar(&mut e, "SELECT SUM(a) FROM empty_t"), Value::Null);
        assert_eq!(scalar(&mut e, "SELECT MAX(a) FROM empty_t"), Value::Null);
    }

    #[test]
    fn union_aligns_types() {
        let mut e = engine();
        match e.execute("SELECT 1 UNION SELECT 'x'") {
            ExecOutcome::Rows(rs) => {
                assert_eq!(rs.rows.len(), 2);
                assert!(matches!(rs.rows[0][0], Value::Text(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
        match e.execute("SELECT 1 UNION SELECT 1") {
            ExecOutcome::Rows(rs) => assert_eq!(rs.rows.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        match e.execute("SELECT 1 UNION ALL SELECT 1") {
            ExecOutcome::Rows(rs) => assert_eq!(rs.rows.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn subqueries() {
        let mut e = engine();
        assert_eq!(scalar(&mut e, "SELECT (SELECT 42)"), Value::Integer(42));
        assert_eq!(
            scalar(&mut e, "SELECT 1 + (SELECT 2 UNION SELECT 2)"),
            Value::Integer(3)
        );
        e.execute("CREATE TABLE s (a INTEGER)");
        assert_eq!(scalar(&mut e, "SELECT (SELECT MAX(a) FROM s)"), Value::Null);
        assert_eq!(scalar(&mut e, "SELECT EXISTS (SELECT 1)").render(), "1");
        let err = expect_error(&mut e, "SELECT (SELECT 1 UNION SELECT 2)");
        assert!(matches!(err, SqlError::Semantic(_)), "{err}");
    }

    #[test]
    fn from_subquery() {
        let mut e = engine();
        assert_eq!(
            scalar(&mut e, "SELECT x + 1 FROM (SELECT 41 AS x) sub"),
            Value::Integer(42)
        );
        // The MDEV-11030 PoC shape runs cleanly on the guarded engine.
        assert_eq!(
            scalar(&mut e, "SELECT * FROM (SELECT IFNULL(CONVERT(NULL, UNSIGNED), NULL)) sq"),
            Value::Null
        );
    }

    #[test]
    fn casts_both_syntaxes() {
        let mut e = engine();
        assert_eq!(scalar(&mut e, "SELECT CAST('12' AS INTEGER)"), Value::Integer(12));
        assert_eq!(scalar(&mut e, "SELECT '12'::INTEGER"), Value::Integer(12));
        assert_eq!(scalar(&mut e, "SELECT CAST(NULL AS UNSIGNED)"), Value::Null);
        assert_eq!(scalar(&mut e, "SELECT '110'::Decimal256(45)").render(), "110");
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut e = engine();
        assert!(matches!(expect_error(&mut e, "SELECT"), SqlError::Parse(_)));
        assert!(matches!(expect_error(&mut e, "SELECT unknown_col"), SqlError::Semantic(_)));
        assert!(matches!(expect_error(&mut e, "SELECT NO_SUCH_FN(1)"), SqlError::Semantic(_)));
        assert!(matches!(expect_error(&mut e, "SELECT UPPER()"), SqlError::Semantic(_)));
        assert!(matches!(
            expect_error(&mut e, "SELECT * FROM missing"),
            SqlError::Semantic(_)
        ));
        assert!(matches!(
            expect_error(&mut e, "SELECT SUM(a)"),
            SqlError::Semantic(_)
        ));
    }

    #[test]
    fn repeat_resource_limit_is_the_fp_class() {
        let mut e = engine();
        let err = expect_error(&mut e, "SELECT REPEAT('a', 9999999999)");
        assert!(matches!(err, SqlError::ResourceLimit(_)), "{err}");
        // Not recorded as a crash.
        assert!(e.crash_log().is_empty());
    }

    #[test]
    fn coverage_accumulates() {
        let mut e = engine();
        e.execute("SELECT UPPER('a')");
        let after_one = e.coverage().branches_covered();
        assert!(e.coverage().functions_triggered() >= 1);
        e.execute("SELECT UPPER(NULL)");
        assert!(
            e.coverage().branches_covered() > after_one,
            "a NULL boundary argument must cover new branches"
        );
    }

    #[test]
    fn order_by_and_limit() {
        let mut e = engine();
        e.execute("CREATE TABLE o (a INTEGER)");
        e.execute("INSERT INTO o VALUES (3), (1), (2)");
        match e.execute("SELECT a FROM o ORDER BY a DESC LIMIT 2") {
            ExecOutcome::Rows(rs) => {
                assert_eq!(rs.rows, vec![vec![Value::Integer(3)], vec![Value::Integer(2)]]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match e.execute("SELECT a FROM o ORDER BY 1") {
            ExecOutcome::Rows(rs) => assert_eq!(rs.rows[0][0], Value::Integer(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn case_and_logic() {
        let mut e = engine();
        assert_eq!(
            scalar(&mut e, "SELECT CASE WHEN 1 = 1 THEN 'y' ELSE 'n' END").render(),
            "y"
        );
        assert_eq!(scalar(&mut e, "SELECT CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END").render(), "b");
        assert_eq!(scalar(&mut e, "SELECT NULL AND TRUE"), Value::Null);
        assert_eq!(scalar(&mut e, "SELECT NULL OR TRUE").render(), "1");
        assert_eq!(scalar(&mut e, "SELECT 1 BETWEEN 0 AND 2").render(), "1");
        assert_eq!(scalar(&mut e, "SELECT 3 IN (1, 2)").render(), "0");
        assert_eq!(scalar(&mut e, "SELECT 3 IN (1, NULL)"), Value::Null);
        assert_eq!(scalar(&mut e, "SELECT 'abc' LIKE 'a%'").render(), "1");
        assert_eq!(scalar(&mut e, "SELECT 'abc' LIKE 'a_c'").render(), "1");
    }

    #[test]
    fn paper_pocs_run_clean_on_guarded_engine() {
        // On the fault-free reference engine every paper PoC must complete
        // without a crash outcome (errors are fine — crashes are not).
        let mut e = engine();
        for sql in [
            "SELECT toDecimalString('110'::Decimal256(45), 2)",
            "SELECT FORMAT('0', 50, 'de_DE')",
            "SELECT COLUMN_JSON(COLUMN_CREATE('x', 123456789012345678901234567890123456789012346789))",
            "SELECT * FROM (SELECT IFNULL(CONVERT(NULL, UNSIGNED), NULL)) sq",
            "SELECT REPEAT('[', 1000)::json",
            "SELECT INTERVAL(ROW(1,1), ROW(1,2))",
            "SELECT AVG(1.299999999999999999999999999999999999999999999999999999999999999999)",
            "SELECT CONTAINS('x', 'x', *)",
            "SELECT JSONB_OBJECT_AGG(DISTINCT 'a', 'abc')",
            "SELECT JSON_LENGTH(REPEAT('[1,', 100), '$[2][1]')",
            "SELECT ST_ASTEXT(BOUNDARY(INET6_ATON('255.255.255.255')))",
            "SELECT UpdateXML('<a><c></c></a>', '/a/c[1]', '<c><b></b></c>')",
        ] {
            let out = e.execute(sql);
            assert!(!out.is_crash(), "{sql}: guarded engine crashed: {out:?}");
        }
    }

    #[test]
    fn aggregate_without_rows_or_from() {
        let mut e = engine();
        assert_eq!(scalar(&mut e, "SELECT COUNT(*)"), Value::Integer(1));
        let v = scalar(
            &mut e,
            "SELECT AVG(1.299999999999999999999999999999999999999999999999999999999999999999)",
        );
        assert!(matches!(v, Value::Decimal(_) | Value::Float(_)));
    }

    #[test]
    fn json_chain() {
        let mut e = engine();
        assert_eq!(scalar(&mut e, "SELECT JSON_LENGTH('[1,2,3]')"), Value::Integer(3));
        assert_eq!(
            scalar(&mut e, "SELECT JSON_LENGTH('{\"a\":1}', '$.a')"),
            Value::Integer(1)
        );
        assert_eq!(scalar(&mut e, "SELECT JSON_VALID('{bad')").render(), "0");
    }

    #[test]
    fn spatial_chain_listing11_guarded() {
        let mut e = engine();
        // INET blob into a geometry function: type error, not a crash.
        let err = expect_error(
            &mut e,
            "SELECT ST_ASTEXT(BOUNDARY(INET6_ATON('255.255.255.255')))",
        );
        assert!(matches!(err, SqlError::TypeError(_)), "{err}");
    }

    #[test]
    fn strict_engine_rejects_implicit_coercion() {
        let mut e = Engine::with_default_functions(EngineConfig {
            name: "pg-like".into(),
            strictness: CastStrictness::Strict,
            limits: Limits::default(),
        });
        // Strict dialects reject UPPER(123): no implicit int → text cast.
        let err = expect_error(&mut e, "SELECT UPPER(123)");
        assert!(matches!(err, SqlError::TypeError(_)), "{err}");
        // Explicit cast is fine.
        assert_eq!(scalar(&mut e, "SELECT UPPER(CAST(123 AS TEXT))").render(), "123");
    }

    #[test]
    fn script_execution() {
        let mut e = engine();
        let outs = e.execute_script(
            "CREATE TABLE s1 (a INT); INSERT INTO s1 VALUES (5); SELECT a FROM s1;",
        );
        assert_eq!(outs.len(), 3);
        assert!(matches!(outs[2], ExecOutcome::Rows(_)));
    }

    #[test]
    fn prepared_execution_matches_one_shot_execution() {
        for sql in [
            "SELECT UPPER('abc')",
            "SELECT uPpEr(LOWER('AbC'))",
            "SELECT REPEAT('a', 9999999999)",
            "SELECT NO_SUCH_FN(1)",
            "SELECT 1 +",
            "SELECT (SELECT MAX(x) FROM (SELECT 1 AS x) s)",
        ] {
            let mut one_shot = engine();
            let mut split = engine();
            let expected = one_shot.execute(sql);
            let got = match split.prepare(sql) {
                Ok(p) => split.execute_prepared(&p),
                Err(e) => ExecOutcome::Error(e),
            };
            assert_eq!(got, expected, "{sql}: prepared path diverged");
        }
    }

    #[test]
    fn prepared_statements_are_reusable() {
        let mut e = engine();
        let p = e.prepare("SELECT LENGTH('abcd')").expect("parses");
        for _ in 0..3 {
            match e.execute_prepared(&p) {
                ExecOutcome::Rows(rs) => assert_eq!(rs.scalar(), Some(&Value::Integer(4))),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn prepare_reports_the_pre_executor_outcomes() {
        let e = engine();
        assert!(matches!(e.prepare("SELECT"), Err(SqlError::Parse(_))));
        let long = format!("SELECT '{}'", "a".repeat(2 << 20));
        assert!(matches!(e.prepare(&long), Err(SqlError::ResourceLimit(_))));
    }

    #[test]
    fn restore_database_equals_reset_plus_prep_replay() {
        let prep = [
            "CREATE TABLE snap (a INTEGER)",
            "INSERT INTO snap VALUES (1), (2)",
        ];
        let mut template = engine();
        for sql in prep {
            let _ = template.execute(sql);
        }
        // Path A: the old recovery — reset, then replay preparation.
        let mut a = template.clone();
        let _ = a.execute("CREATE TABLE scratch (x INTEGER)");
        let _ = a.execute("SELECT UPPER('boundary')");
        a.reset_database();
        for sql in prep {
            let _ = a.execute(sql);
        }
        // Path B: snapshot restore from the prepared template.
        let mut b = template.clone();
        let _ = b.execute("CREATE TABLE scratch (x INTEGER)");
        let _ = b.execute("SELECT UPPER('boundary')");
        b.restore_database(&template);
        // Same catalog state (scratch gone, snap back), same coverage.
        assert!(a.catalog_mut().table("scratch").is_none());
        assert!(b.catalog_mut().table("scratch").is_none());
        assert_eq!(a.execute("SELECT COUNT(*) FROM snap"), b.execute("SELECT COUNT(*) FROM snap"));
        assert_eq!(a.coverage().branches_covered(), b.coverage().branches_covered());
        assert_eq!(a.coverage().functions_triggered(), b.coverage().functions_triggered());
    }

    #[test]
    fn clones_share_the_backend_and_isolate_the_session() {
        use crate::error::{CrashKind, Stage};
        use crate::fault::{FaultSite, FaultSpec, PatternId, Trigger, ValuePred};
        use soft_types::category::FunctionCategory;

        let mut registry = FunctionRegistry::new();
        functions::install_all(&mut registry);
        functions::install_common_aliases(&mut registry);
        let spec = FaultSpec {
            id: "clone-test-abs".into(),
            site: FaultSite::Function("abs".into()),
            kind: CrashKind::SegmentationViolation,
            stage: Stage::Execution,
            trigger: Trigger::Arg { index: Some(0), pred: ValuePred::IntEquals(42) },
            category: FunctionCategory::Math,
            pattern: PatternId::P1_1,
            fixed: false,
            description: "test fault".into(),
        };
        let mut template =
            Engine::new(EngineConfig::default(), registry, FaultSet::new(vec![spec]));
        let _ = template.execute("CREATE TABLE seed (a INTEGER)");
        let _ = template.execute("SELECT LOWER('A')");
        let functions_before = template.coverage().functions_triggered();
        let branches_before = template.coverage().branches_covered();

        let mut clone = template.clone();
        // The backend is shared, not copied.
        assert!(std::ptr::eq(clone.config(), template.config()));
        assert!(std::ptr::eq(clone.registry(), template.registry()));
        assert!(std::ptr::eq(clone.faults(), template.faults()));

        // The session is the clone's own.
        assert!(matches!(
            clone.execute("CREATE TABLE scratch (x INTEGER)"),
            ExecOutcome::Ok(_)
        ));
        assert!(matches!(
            clone.execute("INSERT INTO seed VALUES (1)"),
            ExecOutcome::Ok(_)
        ));
        let _ = clone.execute("SELECT UPPER(NULL)");
        assert!(clone.execute("SELECT ABS(42)").is_crash());
        assert_eq!(clone.crash_log().len(), 1);
        assert!(clone.coverage().functions_triggered() > functions_before);
        assert!(clone.coverage().branches_covered() > branches_before);

        assert!(template.catalog_mut().table("scratch").is_none());
        assert_eq!(template.coverage().functions_triggered(), functions_before);
        assert_eq!(template.coverage().branches_covered(), branches_before);
        assert!(template.crash_log().is_empty());
        assert_eq!(
            scalar(&mut template, "SELECT COUNT(*) FROM seed"),
            Value::Integer(0)
        );
    }

    #[test]
    fn reset_database_keeps_coverage() {
        let mut e = engine();
        e.execute("CREATE TABLE r1 (a INT)");
        e.execute("SELECT UPPER('x')");
        let cov = e.coverage().branches_covered();
        e.reset_database();
        assert!(e.catalog_mut().table("r1").is_none());
        assert_eq!(e.coverage().branches_covered(), cov);
    }
}

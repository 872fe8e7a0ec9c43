//! SQL semantics battery: the relational behaviour baseline fuzzers depend
//! on (grouping, distinct, union, subqueries, ordering, three-valued logic).

use soft_engine::{Engine, ExecOutcome, SqlError};
use soft_types::value::Value;

fn engine() -> Engine {
    let mut e = Engine::with_default_functions(Default::default());
    e.execute("CREATE TABLE emp (dept TEXT, name TEXT, salary INTEGER)");
    e.execute(
        "INSERT INTO emp VALUES \
         ('eng', 'ada', 120), ('eng', 'bob', 100), ('ops', 'cy', 90), \
         ('ops', 'dee', 90), ('hr', 'eve', NULL)",
    );
    e
}

fn rows(e: &mut Engine, sql: &str) -> Vec<Vec<String>> {
    match e.execute(sql) {
        ExecOutcome::Rows(rs) => rs
            .rows
            .iter()
            .map(|r| r.iter().map(Value::render).collect())
            .collect(),
        other => panic!("{sql}: {other:?}"),
    }
}

#[test]
fn group_by_partitions_and_orders() {
    let mut e = engine();
    let got = rows(
        &mut e,
        "SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept ORDER BY dept",
    );
    assert_eq!(
        got,
        vec![
            vec!["eng".to_string(), "2".into(), "220".into()],
            vec!["hr".into(), "1".into(), "NULL".into()],
            vec!["ops".into(), "2".into(), "180".into()],
        ]
    );
}

#[test]
fn having_filters_groups_not_rows() {
    let mut e = engine();
    let got = rows(
        &mut e,
        "SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 1 ORDER BY dept",
    );
    assert_eq!(got, vec![vec!["eng".to_string()], vec!["ops".into()]]);
}

#[test]
fn distinct_semantics() {
    let mut e = engine();
    assert_eq!(rows(&mut e, "SELECT DISTINCT dept FROM emp").len(), 3);
    assert_eq!(rows(&mut e, "SELECT DISTINCT salary FROM emp").len(), 4); // 120,100,90,NULL
    assert_eq!(
        rows(&mut e, "SELECT COUNT(DISTINCT salary) FROM emp"),
        vec![vec!["3".to_string()]] // NULLs don't count
    );
}

#[test]
fn where_three_valued_logic_excludes_unknown() {
    let mut e = engine();
    // eve's NULL salary is neither > 95 nor <= 95.
    let above = rows(&mut e, "SELECT name FROM emp WHERE salary > 95");
    let below = rows(&mut e, "SELECT name FROM emp WHERE NOT (salary > 95)");
    assert_eq!(above.len() + below.len(), 4);
    let isnull = rows(&mut e, "SELECT name FROM emp WHERE (salary > 95) IS NULL");
    assert_eq!(isnull, vec![vec!["eve".to_string()]]);
}

#[test]
fn order_by_places_nulls_first_and_respects_desc() {
    let mut e = engine();
    let asc = rows(&mut e, "SELECT salary FROM emp ORDER BY salary");
    assert_eq!(asc[0][0], "NULL");
    assert_eq!(asc.last().expect("rows")[0], "120");
    let desc = rows(&mut e, "SELECT salary FROM emp ORDER BY salary DESC");
    assert_eq!(desc[0][0], "120");
}

#[test]
fn union_dedups_and_union_all_keeps() {
    let mut e = engine();
    assert_eq!(
        rows(&mut e, "SELECT dept FROM emp UNION SELECT dept FROM emp").len(),
        3
    );
    assert_eq!(
        rows(&mut e, "SELECT dept FROM emp UNION ALL SELECT dept FROM emp").len(),
        10
    );
}

#[test]
fn scalar_and_exists_subqueries() {
    let mut e = engine();
    assert_eq!(
        rows(&mut e, "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)"),
        vec![vec!["ada".to_string()]]
    );
    assert_eq!(
        rows(&mut e, "SELECT EXISTS (SELECT 1 FROM emp WHERE dept = 'hr')"),
        vec![vec!["1".to_string()]]
    );
    assert_eq!(
        rows(&mut e, "SELECT EXISTS (SELECT 1 FROM emp WHERE dept = 'legal')"),
        vec![vec!["0".to_string()]]
    );
}

#[test]
fn from_subquery_composes() {
    let mut e = engine();
    let got = rows(
        &mut e,
        "SELECT dept, total FROM \
         (SELECT dept, SUM(salary) AS total FROM emp GROUP BY dept) sums \
         WHERE total > 100 ORDER BY total DESC",
    );
    assert_eq!(
        got,
        vec![vec!["eng".to_string(), "220".into()], vec!["ops".into(), "180".into()]]
    );
}

#[test]
fn qualified_and_aliased_columns() {
    let mut e = engine();
    assert_eq!(
        rows(&mut e, "SELECT emp.name FROM emp WHERE emp.dept = 'hr'"),
        vec![vec!["eve".to_string()]]
    );
    assert_eq!(
        rows(&mut e, "SELECT e.name FROM emp AS e WHERE e.dept = 'hr'"),
        vec![vec!["eve".to_string()]]
    );
    assert_eq!(
        rows(&mut e, "SELECT salary AS pay FROM emp ORDER BY pay DESC LIMIT 1"),
        vec![vec!["120".to_string()]]
    );
}

#[test]
fn insert_type_checking_and_constraints() {
    let mut e = engine();
    e.execute("CREATE TABLE strictcol (n INTEGER NOT NULL)");
    assert!(matches!(
        e.execute("INSERT INTO strictcol VALUES (NULL)"),
        ExecOutcome::Error(SqlError::Semantic(_))
    ));
    assert!(matches!(
        e.execute("INSERT INTO strictcol VALUES (1, 2)"),
        ExecOutcome::Error(SqlError::Semantic(_))
    ));
    assert!(matches!(
        e.execute("INSERT INTO strictcol (missing) VALUES (1)"),
        ExecOutcome::Error(SqlError::Semantic(_))
    ));
    // Values are coerced to the column type on insert.
    e.execute("INSERT INTO strictcol VALUES ('7')");
    assert_eq!(rows(&mut e, "SELECT n FROM strictcol"), vec![vec!["7".to_string()]]);
}

#[test]
fn aggregates_mixed_with_scalars_in_projection() {
    let mut e = engine();
    let got = rows(
        &mut e,
        "SELECT UPPER(dept), MAX(salary) FROM emp GROUP BY dept ORDER BY 2 DESC",
    );
    assert_eq!(got[0], vec!["ENG".to_string(), "120".into()]);
}

#[test]
fn group_by_expression_keys() {
    let mut e = engine();
    let got = rows(
        &mut e,
        "SELECT LENGTH(dept), COUNT(*) FROM emp GROUP BY LENGTH(dept) ORDER BY 1",
    );
    // 'hr' (2), 'eng'/'ops' (3).
    assert_eq!(
        got,
        vec![vec!["2".to_string(), "1".into()], vec!["3".into(), "4".into()]]
    );
}

#[test]
fn limit_zero_and_overshoot() {
    let mut e = engine();
    assert!(rows(&mut e, "SELECT name FROM emp LIMIT 0").is_empty());
    assert_eq!(rows(&mut e, "SELECT name FROM emp LIMIT 999").len(), 5);
}

#[test]
fn case_insensitive_identifiers_and_keywords() {
    let mut e = engine();
    assert_eq!(
        rows(&mut e, "select NAME from EMP where DEPT = 'hr'"),
        vec![vec!["eve".to_string()]]
    );
}

#[test]
fn select_star_expansion() {
    let mut e = engine();
    let got = rows(&mut e, "SELECT * FROM emp WHERE name = 'ada'");
    assert_eq!(got, vec![vec!["eng".to_string(), "ada".into(), "120".into()]]);
    assert!(matches!(
        e.execute("SELECT *"),
        ExecOutcome::Error(SqlError::Semantic(_))
    ));
}

/// A numeric literal stays an exact decimal only within the decimal digit
/// cap, its scale counted: `1e-40` is the 40-digit decimal, while an
/// exponent form past the cap is a double, as a digit string past it
/// already was. An uncapped scale renders one digit per unit of exponent,
/// so a large enough exponent exhausts memory and aborts the process.
#[test]
fn exponent_literals_past_the_digit_cap_are_doubles() {
    let mut e = engine();
    let tiny = format!("0.{}1", "0".repeat(39));
    assert_eq!(rows(&mut e, "SELECT 1e-40"), vec![vec![tiny]]);
    assert!(matches!(
        e.execute("SELECT 1e-40"),
        ExecOutcome::Rows(rs) if matches!(rs.rows[0][0], Value::Decimal(_))
    ));
    for sql in ["SELECT 1e-100000", "SELECT 771e-100000"] {
        match e.execute(sql) {
            ExecOutcome::Rows(rs) => {
                assert!(matches!(rs.rows[0][0], Value::Float(_)), "{sql}: {:?}", rs.rows[0][0])
            }
            other => panic!("{sql}: {other:?}"),
        }
    }
    let len = rows(&mut e, "SELECT LENGTH(CAST(1e-100000 AS CHAR))");
    assert_eq!(len, vec![vec!["1".to_string()]]);
}

/// A positive exponent is counted against the digit cap before any zero is
/// appended: `1e40000000000000000` is a double without allocating its
/// digits, and a zero mantissa stays zero whatever its exponent.
#[test]
fn positive_exponent_literals_are_bounded() {
    let mut e = engine();
    match e.execute("SELECT 1e40000000000000000") {
        ExecOutcome::Rows(rs) => assert!(matches!(rs.rows[0][0], Value::Float(_)), "{rs:?}"),
        other => panic!("{other:?}"),
    }
    assert_eq!(rows(&mut e, "SELECT 0e300000"), vec![vec!["0".to_string()]]);
}

/// A unary chain is charged to the parser's depth budget, so a deep one is
/// a parse error instead of a tree that overflows a thread's stack when it
/// is evaluated. The test runs on 2 MiB, the spawned-thread default and a
/// quarter of what campaign workers get (`WORKER_STACK_BYTES`).
#[test]
fn deep_unary_chains_are_parse_errors() {
    let sql = format!("SELECT {}1", "NOT ".repeat(3_000));
    let outcome = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || engine().execute(&sql))
        .expect("spawn")
        .join()
        .expect("the statement runs to an outcome");
    assert!(matches!(outcome, ExecOutcome::Error(SqlError::Parse(_))), "{outcome:?}");
}

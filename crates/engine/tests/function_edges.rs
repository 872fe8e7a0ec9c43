//! Edge-case battery over the built-in function library: every test drives
//! a boundary condition of the kind §5 of the paper is about, and asserts
//! the *guarded* behaviour — a value, a NULL, or an error, never a panic or
//! a crash outcome on the fault-free engine.

use soft_engine::{Engine, EngineConfig, ExecOutcome, Limits, SqlError};

fn engine() -> Engine {
    Engine::with_default_functions(Default::default())
}

fn scalar(e: &mut Engine, sql: &str) -> String {
    match e.execute(sql) {
        ExecOutcome::Rows(rs) => rs
            .scalar()
            .unwrap_or_else(|| panic!("{sql}: not scalar"))
            .render(),
        other => panic!("{sql}: unexpected {other:?}"),
    }
}

fn error(e: &mut Engine, sql: &str) -> SqlError {
    match e.execute(sql) {
        ExecOutcome::Error(err) => err,
        other => panic!("{sql}: expected error, got {other:?}"),
    }
}

#[test]
fn null_propagation_is_uniform() {
    // Every unary scalar function must map NULL to NULL (or a defined
    // constant like QUOTE's 'NULL'), never panic.
    let mut e = engine();
    for f in [
        "UPPER", "LOWER", "LENGTH", "REVERSE", "TRIM", "HEX", "ASCII", "SOUNDEX", "ABS", "CEIL",
        "FLOOR", "SQRT", "EXP", "SIGN", "YEAR", "MONTH", "DAY", "LAST_DAY", "JSON_VALID",
        "JSON_DEPTH", "ST_ASTEXT", "INET_ATON", "INET6_ATON", "TO_BASE64", "MD5", "SPACE",
        "ARRAY_LENGTH", "CARDINALITY",
    ] {
        let out = e.execute(&format!("SELECT {f}(NULL)"));
        match out {
            ExecOutcome::Rows(rs) => {
                let v = rs.scalar().expect("scalar").render();
                assert!(
                    v == "NULL" || f == "QUOTE",
                    "{f}(NULL) = {v}, expected NULL"
                );
            }
            other => panic!("{f}(NULL): {other:?}"),
        }
    }
}

#[test]
fn empty_string_boundaries() {
    // The P1.1 `''` boundary across categories.
    let mut e = engine();
    assert_eq!(scalar(&mut e, "SELECT LENGTH('')"), "0");
    assert_eq!(scalar(&mut e, "SELECT ASCII('')"), "0");
    assert_eq!(scalar(&mut e, "SELECT REVERSE('')"), "");
    assert_eq!(scalar(&mut e, "SELECT UPPER('')"), "");
    assert_eq!(scalar(&mut e, "SELECT SOUNDEX('')"), "");
    assert_eq!(scalar(&mut e, "SELECT REPEAT('', 1000)"), "");
    assert_eq!(scalar(&mut e, "SELECT TRIM('')"), "");
    assert_eq!(scalar(&mut e, "SELECT HEX('')"), "");
    assert_eq!(scalar(&mut e, "SELECT JSON_VALID('')"), "0");
    assert!(matches!(error(&mut e, "SELECT YEAR('')"), SqlError::TypeError(_)));
    assert!(matches!(
        error(&mut e, "SELECT ST_GEOMFROMTEXT('')"),
        SqlError::Runtime(_)
    ));
}

#[test]
fn star_arguments_are_rejected_by_guards() {
    // `*` reaching a guarded implementation is a type error (the unguarded
    // behaviour lives only in the fault corpus).
    let mut e = engine();
    for sql in [
        "SELECT UPPER(*)",
        "SELECT ABS(*)",
        "SELECT CONTAINS('x', 'x', *)",
        "SELECT toDecimalString(1.5, *)",
        "SELECT JSON_VALID(*)",
    ] {
        assert!(
            matches!(error(&mut e, sql), SqlError::TypeError(_)),
            "{sql} should be a type error"
        );
    }
    // But COUNT(*) is the defined exception.
    assert_eq!(scalar(&mut e, "SELECT COUNT(*)"), "1");
}

#[test]
fn extreme_numeric_boundaries() {
    let mut e = engine();
    // i64 edges.
    assert_eq!(
        scalar(&mut e, "SELECT ABS(-9223372036854775807)"),
        "9223372036854775807"
    );
    // `-9223372036854775808` does not fit i64 as a bare literal, so it
    // arrives as a decimal and ABS succeeds on the wider representation.
    assert_eq!(
        scalar(&mut e, "SELECT ABS(-9223372036854775808)"),
        "9223372036854775808"
    );
    // i64::MIN cannot round-trip through the integer coercion (the literal
    // parses as a decimal whose magnitude exceeds i64::MAX), so the guarded
    // DIV reports a type error rather than overflowing.
    assert!(matches!(
        error(&mut e, "SELECT DIV(-9223372036854775808, -1)"),
        SqlError::TypeError(_) | SqlError::Runtime(_)
    ));
    // 45-digit literals survive as decimals.
    let big = "9".repeat(45);
    assert_eq!(scalar(&mut e, &format!("SELECT ABS(-{big})")), big);
    // Beyond the 81-digit decimal cap the literal degrades to a float, not
    // an error (matching MySQL's overflow-to-double).
    let over = "9".repeat(100);
    let v = scalar(&mut e, &format!("SELECT {over} * 0"));
    assert_eq!(v, "0");
    // Round-trip of the paper's 48-digit MDEV-8407 value.
    let mdev = "123456789012345678901234567890123456789012346789";
    assert_eq!(scalar(&mut e, &format!("SELECT {mdev}")), mdev);
}

#[test]
fn deep_nesting_boundaries() {
    let mut e = engine();
    // JSON at and beyond the depth guard.
    let ok = format!("SELECT JSON_DEPTH('{}1{}')", "[".repeat(63), "]".repeat(63));
    assert_eq!(scalar(&mut e, &ok), "64");
    let deep = format!("SELECT JSON_DEPTH('{}')", "[".repeat(200));
    assert!(matches!(error(&mut e, &deep), SqlError::TypeError(_)));
    // XML depth guard.
    let xml_deep = format!(
        "SELECT XML_VALID('{}x{}')",
        "<a>".repeat(100),
        "</a>".repeat(100)
    );
    assert_eq!(scalar(&mut e, &xml_deep), "0");
    // Parser expression-depth guard.
    let paren_bomb = format!("SELECT {}1{}", "(".repeat(1000), ")".repeat(1000));
    assert!(matches!(error(&mut e, &paren_bomb), SqlError::Parse(_)));
}

#[test]
fn substr_index_boundaries() {
    let mut e = engine();
    for (sql, want) in [
        ("SELECT SUBSTR('abc', 1, 0)", ""),
        ("SELECT SUBSTR('abc', 1, -5)", ""),
        ("SELECT SUBSTR('abc', 99)", ""),
        ("SELECT SUBSTR('abc', -99)", ""),
        ("SELECT SUBSTR('abc', -1)", "c"),
        ("SELECT LEFT('abc', 0)", ""),
        ("SELECT LEFT('abc', -1)", ""),
        ("SELECT LEFT('abc', 99)", "abc"),
        ("SELECT RIGHT('abc', 99)", "abc"),
        ("SELECT INSERT('abc', 0, 1, 'X')", "abc"),
        ("SELECT INSERT('abc', 99, 1, 'X')", "abc"),
        ("SELECT ELT(0, 'a')", "NULL"),
        ("SELECT ELT(99, 'a')", "NULL"),
        ("SELECT LOCATE('a', 'banana', 0)", "0"),
        ("SELECT LOCATE('a', 'banana', 99)", "0"),
    ] {
        assert_eq!(scalar(&mut e, sql), want, "{sql}");
    }
}

#[test]
fn pad_and_repeat_boundaries() {
    let mut e = engine();
    assert_eq!(scalar(&mut e, "SELECT LPAD('abc', 2, '*')"), "ab");
    assert_eq!(scalar(&mut e, "SELECT LPAD('abc', 0, '*')"), "");
    assert_eq!(scalar(&mut e, "SELECT LPAD('abc', -1, '*')"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT LPAD('abc', 5, '')"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT REPEAT('x', 0)"), "");
    assert_eq!(scalar(&mut e, "SELECT REPEAT('x', -5)"), "");
    // Exceeding the repetition limit is a resource error.
    assert!(matches!(
        error(&mut e, "SELECT REPEAT('x', 99999999999)"),
        SqlError::ResourceLimit(_)
    ));
    assert!(matches!(
        error(&mut e, "SELECT SPACE(99999999999)"),
        SqlError::ResourceLimit(_)
    ));
    // SPACE charges the memory budget before it builds, as REPEAT does.
    let limits = Limits { max_memory_bytes: 1000, ..Limits::default() };
    let mut tight = Engine::with_default_functions(EngineConfig { limits, ..Default::default() });
    assert!(matches!(error(&mut tight, "SELECT SPACE(5000)"), SqlError::ResourceLimit(_)));
    assert_eq!(scalar(&mut tight, "SELECT LENGTH(SPACE(500))"), "500");
}

#[test]
fn date_boundaries() {
    let mut e = engine();
    // Calendar edges.
    assert_eq!(scalar(&mut e, "SELECT LAST_DAY('2024-02-01')"), "2024-02-29");
    assert_eq!(scalar(&mut e, "SELECT LAST_DAY('2023-02-01')"), "2023-02-28");
    assert_eq!(scalar(&mut e, "SELECT LAST_DAY('1900-02-01')"), "1900-02-28");
    assert_eq!(scalar(&mut e, "SELECT LAST_DAY('2000-02-01')"), "2000-02-29");
    // Date range edges: additions past the supported range are NULL.
    assert_eq!(
        scalar(&mut e, "SELECT DATE_ADD('9999-12-31', INTERVAL 1 DAY)"),
        "NULL"
    );
    assert_eq!(
        scalar(&mut e, "SELECT DATE_SUB('0001-01-01', INTERVAL 1 DAY)"),
        "NULL"
    );
    // Out-of-range components.
    assert_eq!(scalar(&mut e, "SELECT MAKEDATE(2024, 0)"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT MAKEDATE(99999, 1)"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT MAKETIME(25, 0, 0)"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT SEC_TO_TIME(-1)"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT SEC_TO_TIME(86400)"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT PERIOD_ADD(202413, 1)"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT FROM_DAYS(0)"), "NULL");
    // Format-string edge cases.
    assert_eq!(
        scalar(&mut e, "SELECT DATE_FORMAT('2024-01-02', '%%Y')"),
        "%Y"
    );
    assert_eq!(scalar(&mut e, "SELECT STR_TO_DATE('xx', '%Y')"), "NULL");
}

#[test]
fn json_path_boundaries() {
    let mut e = engine();
    // The Listing 10 path beyond the document: NULL, not a crash.
    assert_eq!(
        scalar(&mut e, "SELECT JSON_LENGTH('[1, 2]', '$[2][1]')"),
        "NULL"
    );
    assert_eq!(scalar(&mut e, "SELECT JSON_EXTRACT('[1]', '$[99]')"), "NULL");
    // Malformed paths are runtime errors.
    assert!(matches!(
        error(&mut e, "SELECT JSON_LENGTH('[1]', 'nope')"),
        SqlError::Runtime(_)
    ));
    assert!(matches!(
        error(&mut e, "SELECT JSON_LENGTH('[1]', '$[')"),
        SqlError::Runtime(_)
    ));
    // Odd arity of pair-wise builders.
    assert!(matches!(
        error(&mut e, "SELECT JSON_OBJECT('k')"),
        SqlError::Runtime(_)
    ));
    assert!(matches!(
        error(&mut e, "SELECT COLUMN_CREATE('k')"),
        SqlError::Semantic(_) | SqlError::Runtime(_)
    ));
    // NULL keys are rejected.
    assert!(matches!(
        error(&mut e, "SELECT JSON_OBJECT(NULL, 1)"),
        SqlError::Runtime(_)
    ));
}

#[test]
fn json_string_boundaries() {
    // RFC 8259 strings, as MySQL and PostgreSQL read them: a raw control
    // character, a lone surrogate and a `\u` escape without four hex digits
    // are invalid; a surrogate pair is one scalar.
    let mut e = engine();
    for invalid in [
        r#"SELECT JSON_VALID(CONCAT('"a', CHAR(1), 'b"'))"#,
        r#"SELECT JSON_VALID('"\\ud83e"')"#,
        r#"SELECT JSON_VALID('"\\udd80"')"#,
        r#"SELECT JSON_VALID('"\\u+abc"')"#,
    ] {
        assert_eq!(scalar(&mut e, invalid), "0", "{invalid}");
    }
    assert_eq!(scalar(&mut e, r#"SELECT JSON_VALID('"\\ud83e\\udd80"')"#), "1");
    assert_eq!(scalar(&mut e, r#"SELECT JSON_UNQUOTE('"\\ud83e\\udd80"')"#), "🦀");
    assert_eq!(scalar(&mut e, r#"SELECT LENGTH(JSON_UNQUOTE('"\\ud83e\\udd80"'))"#), "4");
}

#[test]
fn geometry_boundaries() {
    let mut e = engine();
    // Degenerate geometries.
    assert_eq!(
        scalar(&mut e, "SELECT ST_ASTEXT(BOUNDARY(POINT(1, 1)))"),
        "GEOMETRYCOLLECTION EMPTY"
    );
    assert_eq!(scalar(&mut e, "SELECT ST_LENGTH(POINT(1, 1))"), "0");
    assert_eq!(scalar(&mut e, "SELECT ST_AREA(ST_GEOMFROMTEXT('LINESTRING(0 0,1 1)'))"), "0");
    // Non-geometry binary is rejected at the cast.
    assert!(matches!(
        error(&mut e, "SELECT ST_ASTEXT(INET6_ATON('::1'))"),
        SqlError::TypeError(_)
    ));
    assert!(matches!(
        error(&mut e, "SELECT ST_GEOMFROMWKB(x'FFFFFFFF')"),
        SqlError::Runtime(_) | SqlError::TypeError(_)
    ));
    // BOUNDARY of a collection is undefined.
    assert!(matches!(
        error(
            &mut e,
            "SELECT BOUNDARY(ST_GEOMFROMTEXT('GEOMETRYCOLLECTION(POINT(1 1))'))"
        ),
        SqlError::Runtime(_)
    ));
}

#[test]
fn inet_boundaries() {
    let mut e = engine();
    assert_eq!(scalar(&mut e, "SELECT INET_ATON('255.255.255.255')"), "4294967295");
    assert_eq!(scalar(&mut e, "SELECT INET_ATON('256.0.0.1')"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT INET_NTOA(-1)"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT INET_NTOA(4294967296)"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT INET6_ATON(':::')"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT INET6_NTOA(x'0102')"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT IS_IPV6('::')"), "1");
}

#[test]
fn aggregate_boundaries() {
    let mut e = engine();
    e.execute("CREATE TABLE agg (v INTEGER)");
    // All-NULL column.
    e.execute("INSERT INTO agg VALUES (NULL), (NULL)");
    assert_eq!(scalar(&mut e, "SELECT SUM(v) FROM agg"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT AVG(v) FROM agg"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT COUNT(v) FROM agg"), "0");
    assert_eq!(scalar(&mut e, "SELECT GROUP_CONCAT(v) FROM agg"), "NULL");
    // The 64-digit AVG literal (Listing 6's shape) stays exact.
    let lit = format!("1.{}", "2".repeat(63));
    let avg = scalar(&mut e, &format!("SELECT AVG({lit})"));
    assert!(avg.starts_with("1.2222"), "{avg}");
    // DISTINCT-with-text aggregate (Listing 8's shape).
    assert_eq!(
        scalar(&mut e, "SELECT JSON_OBJECTAGG(DISTINCT 'a', 'abc')"),
        "{\"a\":\"abc\"}"
    );
    // Aggregates of aggregates are rejected.
    assert!(matches!(
        error(&mut e, "SELECT SUM(COUNT(v)) FROM agg"),
        SqlError::Semantic(_)
    ));
}

#[test]
fn casting_boundaries() {
    let mut e = engine();
    assert_eq!(scalar(&mut e, "SELECT CAST('' AS INTEGER)"), "0");
    assert_eq!(scalar(&mut e, "SELECT CAST('-' AS INTEGER)"), "0");
    assert_eq!(scalar(&mut e, "SELECT CAST('  7  ' AS INTEGER)"), "7");
    assert_eq!(scalar(&mut e, "SELECT CAST(TRUE AS INTEGER)"), "1");
    assert_eq!(scalar(&mut e, "SELECT CAST(20240229 AS DATE)"), "2024-02-29");
    assert!(matches!(
        error(&mut e, "SELECT CAST(20230229 AS DATE)"),
        SqlError::TypeError(_)
    ));
    assert_eq!(scalar(&mut e, "SELECT toDecimalString(0, 0)"), "0");
    assert!(matches!(
        error(&mut e, "SELECT toDecimalString(1.5, -1)"),
        SqlError::Runtime(_)
    ));
    assert!(matches!(
        error(&mut e, "SELECT toDecimalString(1.5, 999999)"),
        SqlError::Runtime(_)
    ));
}

#[test]
fn division_and_domain_boundaries() {
    let mut e = engine();
    assert_eq!(scalar(&mut e, "SELECT 1 / 0"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT 1.5 / 0.0"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT MOD(5, 0)"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT 5 % 0"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT LOG(1, 10)"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT LOG(-2, 10)"), "NULL");
    assert_eq!(scalar(&mut e, "SELECT ASIN(2)"), "NULL");
    assert!(matches!(error(&mut e, "SELECT FACTORIAL(21)"), SqlError::Runtime(_)));
    assert!(matches!(error(&mut e, "SELECT FACTORIAL(-1)"), SqlError::Runtime(_)));
    assert!(matches!(error(&mut e, "SELECT POW(10, 10000)"), SqlError::Runtime(_)));
}

#[test]
fn row_type_boundaries() {
    // MDEV-14596's class: ROW values reaching scalar contexts.
    let mut e = engine();
    assert!(matches!(
        error(&mut e, "SELECT INTERVAL(ROW(1,1), ROW(1,2))"),
        SqlError::TypeError(_)
    ));
    assert!(matches!(
        error(&mut e, "SELECT ROW(1,2) = ROW(1,2)"),
        SqlError::TypeError(_)
    ));
    assert!(matches!(
        error(&mut e, "SELECT GREATEST(ROW(1,1), ROW(1,2))"),
        SqlError::TypeError(_)
    ));
    assert_eq!(scalar(&mut e, "SELECT TYPEOF(ROW(1, 2))"), "ROW");
}

#[test]
fn sequence_boundaries() {
    let mut e = engine();
    assert!(matches!(
        error(&mut e, "SELECT CURRVAL('never_used')"),
        SqlError::Runtime(_)
    ));
    assert_eq!(scalar(&mut e, "SELECT NEXTVAL('s')"), "1");
    assert_eq!(scalar(&mut e, "SELECT SETVAL('s', -5)"), "-5");
    assert_eq!(scalar(&mut e, "SELECT NEXTVAL('s')"), "-4");
}

#[test]
fn union_type_alignment_edges() {
    let mut e = engine();
    // Numeric widening keeps values comparable.
    match e.execute("SELECT 1 UNION ALL SELECT 2.5 ORDER BY 1") {
        ExecOutcome::Rows(rs) => {
            assert_eq!(rs.rows.len(), 2);
        }
        other => panic!("{other:?}"),
    }
    // NULL-only branches adopt the other side's type.
    match e.execute("SELECT NULL UNION ALL SELECT 7") {
        ExecOutcome::Rows(rs) => {
            assert_eq!(rs.rows[1][0].render(), "7");
        }
        other => panic!("{other:?}"),
    }
    // Column-count mismatch is a semantic error.
    assert!(matches!(
        error(&mut e, "SELECT 1, 2 UNION SELECT 3"),
        SqlError::Semantic(_)
    ));
}

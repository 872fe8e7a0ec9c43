//! The ten boundary-value-generation patterns (§6) as statement
//! transformations.
//!
//! Each generator takes a seed statement, locates its function expressions,
//! and produces mutated statements per the pattern's template. Following
//! Finding 3, mutations that would nest more than two function expressions
//! are discarded.

use crate::pool;
use soft_engine::PatternId;
use soft_parser::ast::{Expr, FunctionExpr, Literal, SelectBody, SelectItem, SelectStmt, Statement, TypeName};
use soft_parser::visit;

/// One generated test case.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedCase {
    /// The statement text to execute.
    pub sql: String,
    /// The pattern that generated it.
    pub pattern: PatternId,
}

/// Shared generation context built from the collection step.
#[derive(Debug, Clone)]
pub struct GenCtx {
    /// The P1.1 boundary literal pool.
    pub pool: Vec<Expr>,
    /// Collected function expressions (P3.3 donors).
    pub donor_exprs: Vec<FunctionExpr>,
    /// Distinct arguments of collected expressions (P2.3 donors), most
    /// interesting first.
    pub donor_args: Vec<Expr>,
    /// Unary collected functions usable as P3.2 wrappers.
    pub wrappers: Vec<String>,
    /// Cast target types for P2.1.
    pub cast_types: Vec<TypeName>,
}

impl GenCtx {
    /// Builds the context from a collection.
    pub fn new(collection: &crate::collect::Collection) -> GenCtx {
        // One donor expression per distinct function name: for P3.3 the
        // donor's *identity* matters, not its argument variations, and
        // deduplication lets the rotation cover the whole catalog.
        let mut donor_exprs: Vec<FunctionExpr> = Vec::new();
        let mut donor_names = std::collections::HashSet::new();
        for fx in &collection.expressions {
            if donor_names.insert(fx.name.to_ascii_lowercase()) {
                donor_exprs.push(fx.clone());
            }
        }
        let mut donor_args: Vec<Expr> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for fx in &collection.expressions {
            for a in &fx.args {
                // Nested calls are P3.3's donors; P2.3 transplants values.
                if matches!(a, Expr::Function(_)) {
                    continue;
                }
                let key = a.to_string();
                if seen.insert(key) {
                    donor_args.push(a.clone());
                }
            }
        }
        donor_args.sort_by_key(|e| std::cmp::Reverse(interest(e)));
        let cast_types = [
            "DECIMAL", "INTEGER", "DOUBLE", "TEXT", "BINARY", "JSON", "XML", "GEOMETRY", "DATE",
        ]
        .iter()
        .map(|t| TypeName::simple(t))
        .collect();
        GenCtx {
            pool: pool::boundary_literals(),
            donor_exprs,
            donor_args,
            wrappers: collection.wrappers.clone(),
            cast_types,
        }
    }
}

/// How likely an expression is to be a boundary value for *another*
/// function: structured text, typed/constructed values, long digit strings.
fn interest(e: &Expr) -> u32 {
    match e {
        Expr::Literal(Literal::String(s)) => {
            if soft_types::boundary::looks_structured(s) {
                9
            } else if s.chars().filter(char::is_ascii_digit).count() > 6 {
                7
            } else {
                1
            }
        }
        Expr::Literal(Literal::HexBlob(_)) => 8,
        Expr::IntervalLiteral { .. } => 8,
        Expr::ArrayLiteral(_) | Expr::Row(_) => 6,
        Expr::Cast { .. } => 6,
        Expr::Literal(Literal::Number(n)) => {
            if n.len() > 6 {
                5
            } else {
                1
            }
        }
        Expr::Function(_) => 3,
        _ => 0,
    }
}

/// Applies `edit` in place to the `fn_idx`-th function expression of a
/// clone of `stmt`. `None` when the call does not exist, `edit` declines
/// (returns false), or the result would nest more than two function
/// expressions (Finding 3).
fn mutate_call(
    stmt: &Statement,
    fn_idx: usize,
    edit: impl FnOnce(&mut FunctionExpr) -> bool,
) -> Option<Statement> {
    let mut s = stmt.clone();
    let applied = visit::edit_function_expr(&mut s, fn_idx, |e| match e {
        Expr::Function(f) => edit(f),
        _ => false,
    });
    (applied == Some(true) && visit::max_function_nesting(&s) <= 2).then_some(s)
}

/// Replaces argument `arg_idx` of the `fn_idx`-th function expression with
/// `build(original argument)`, moving the original instead of copying it.
fn mutate_arg(
    stmt: &Statement,
    fn_idx: usize,
    arg_idx: usize,
    build: impl FnOnce(Expr) -> Expr,
) -> Option<Statement> {
    mutate_call(stmt, fn_idx, |f| match f.args.get_mut(arg_idx) {
        Some(arg) => {
            *arg = build(std::mem::replace(arg, Expr::Star));
            true
        }
        None => false,
    })
}

/// Enumerates (function index, argument index) pairs of a statement.
/// Zero-argument calls contribute none: the engine rejects arity
/// mismatches before the function sees an added argument.
fn call_sites(stmt: &Statement) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut fi = 0;
    visit::visit_exprs(stmt, &mut |e| {
        if let Expr::Function(fx) = e {
            out.extend((0..fx.args.len()).map(|ai| (fi, ai)));
            fi += 1;
        }
    });
    out
}

/// Applies one pattern to one seed, appending up to `cap` cases.
///
/// `salt` rotates the starting position inside the donor/wrapper pools so
/// that, across many seeds, the whole pool is exercised even under tight
/// per-seed caps. A pattern whose pool is empty generates nothing.
pub fn apply_salted(
    pattern: PatternId,
    seed: &Statement,
    ctx: &GenCtx,
    cap: usize,
    salt: usize,
    out: &mut Vec<GeneratedCase>,
) {
    let start = out.len();
    // Each candidate is rendered once, and that one string serves both as
    // the case and, for the patterns whose edit can leave the statement as
    // it was, for the comparison with the seed (rendered once per call).
    let seed_sql = matches!(
        pattern,
        PatternId::P1_1 | PatternId::P1_3 | PatternId::P1_4 | PatternId::P2_3 | PatternId::P3_3
    )
    .then(|| seed.to_string());
    // Appends the candidate unless it renders as the seed; true once the
    // cap is reached.
    let mut push = |stmt: Statement| {
        let sql = stmt.to_string();
        if seed_sql.as_ref() == Some(&sql) {
            return false;
        }
        out.push(GeneratedCase { sql, pattern });
        out.len() - start >= cap
    };
    match pattern {
        PatternId::P1_1 => {
            // Direct boundary probing: the pool value *is* the argument
            // vector. Every argument of a collected call is replaced by the
            // same boundary literal at once — the paper's "simple boundary
            // argument" in its purest form, distinct from P1.2's one-
            // argument-at-a-time substitution.
            'outer: for fi in 0..visit::count_function_exprs(seed) {
                for b in &ctx.pool {
                    let mutated = mutate_call(seed, fi, |f| {
                        f.args.fill(b.clone());
                        !f.args.is_empty()
                    });
                    if mutated.is_some_and(&mut push) {
                        break 'outer;
                    }
                }
            }
        }
        PatternId::P1_2 => {
            'outer: for (fi, ai) in call_sites(seed) {
                for b in &ctx.pool {
                    if mutate_arg(seed, fi, ai, |_| b.clone()).is_some_and(&mut push) {
                        break 'outer;
                    }
                }
            }
        }
        PatternId::P1_3 => {
            // Insert digit runs into literals (strings *and* numbers — the
            // Listing 6 AVG case is a long numeric literal).
            'outer: for (fi, ai) in call_sites(seed) {
                for run in [5usize, 25, 64] {
                    let digits = "9".repeat(run);
                    let mutated = mutate_arg(seed, fi, ai, |orig| match orig {
                        Expr::Literal(Literal::String(mut s)) => {
                            s.insert_str(s.len() / 2, &digits);
                            Expr::Literal(Literal::String(s))
                        }
                        Expr::Literal(Literal::Number(n)) => {
                            if n.contains('.') {
                                Expr::number(&format!("{n}{digits}"))
                            } else {
                                Expr::number(&format!("{n}.{digits}"))
                            }
                        }
                        other => other,
                    });
                    if mutated.is_some_and(&mut push) {
                        break 'outer;
                    }
                }
            }
        }
        PatternId::P1_4 => {
            // Duplicate a character of a string literal in place.
            'outer: for (fi, ai) in call_sites(seed) {
                for times in [8usize, 16, 64] {
                    let mutated = mutate_arg(seed, fi, ai, |orig| match orig {
                        Expr::Literal(Literal::String(s)) if !s.is_empty() => {
                            let first = s.chars().next().expect("non-empty");
                            let mut t = String::with_capacity(s.len() + times);
                            for _ in 0..times {
                                t.push(first);
                            }
                            t.push_str(&s);
                            Expr::Literal(Literal::String(t))
                        }
                        // The container analogue: duplicate the leading
                        // element in place.
                        Expr::ArrayLiteral(items) if !items.is_empty() => {
                            let mut grown = Vec::with_capacity(items.len() + times);
                            for _ in 0..times {
                                grown.push(items[0].clone());
                            }
                            grown.extend(items);
                            Expr::ArrayLiteral(grown)
                        }
                        other => other,
                    });
                    if mutated.is_some_and(&mut push) {
                        break 'outer;
                    }
                }
            }
        }
        PatternId::P2_1 => {
            'outer: for (fi, ai) in call_sites(seed) {
                for ty in &ctx.cast_types {
                    let mutated = mutate_arg(seed, fi, ai, |orig| Expr::Cast {
                        expr: Box::new(orig),
                        type_name: ty.clone(),
                        postgres_style: false,
                    });
                    if mutated.is_some_and(&mut push) {
                        break 'outer;
                    }
                }
            }
        }
        PatternId::P2_2 => {
            // f(c) -> f((SELECT c UNION ALL SELECT v LIMIT 1)): the UNION
            // aligns c to the wider type, creating an implicit cast.
            let partners: [Expr; 3] =
                [Expr::string("zz"), Expr::number("1e200"), Expr::ArrayLiteral(vec![])];
            'outer: for (fi, ai) in call_sites(seed) {
                for v in &partners {
                    let mutated = mutate_arg(seed, fi, ai, |orig| union_subquery(orig, v.clone()));
                    if mutated.is_some_and(&mut push) {
                        break 'outer;
                    }
                }
            }
        }
        PatternId::P2_3 => {
            let n = ctx.donor_args.len();
            // Always try the high-interest head (structured text, blobs,
            // intervals come first), then a salt-rotated sample of the rest.
            'outer: for (fi, ai) in call_sites(seed) {
                for k in 0..n.min(64) {
                    let idx = if k < 24 { k } else { (salt + k) % n };
                    let donor = &ctx.donor_args[idx];
                    if mutate_arg(seed, fi, ai, |_| donor.clone()).is_some_and(&mut push) {
                        break 'outer;
                    }
                }
            }
        }
        PatternId::P3_1 => {
            'outer: for (fi, ai) in call_sites(seed) {
                for count in pool::repetition_counts() {
                    for default_prefix in ["[", "[1,", "{\"a\":"] {
                        let mutated = mutate_arg(seed, fi, ai, |orig| {
                            let prefix = match orig {
                                Expr::Literal(Literal::String(s)) if !s.is_empty() => {
                                    s.chars().take(3).collect::<String>()
                                }
                                _ => default_prefix.to_string(),
                            };
                            Expr::func(
                                "REPEAT",
                                vec![Expr::string(&prefix), Expr::number(&count.to_string())],
                            )
                        });
                        if mutated.is_some_and(&mut push) {
                            break 'outer;
                        }
                    }
                }
            }
        }
        PatternId::P3_2 => {
            let n = ctx.wrappers.len();
            'outer: for (fi, ai) in call_sites(seed) {
                for k in 0..n.min(16) {
                    let wrapper = &ctx.wrappers[(salt + k) % n];
                    let mutated = mutate_arg(seed, fi, ai, |orig| Expr::func(wrapper, vec![orig]));
                    if mutated.is_some_and(&mut push) {
                        break 'outer;
                    }
                }
            }
        }
        PatternId::P3_3 => {
            let n = ctx.donor_exprs.len();
            'outer: for (fi, ai) in call_sites(seed) {
                for k in 0..n.min(320) {
                    let donor = &ctx.donor_exprs[(salt + k) % n];
                    let mutated = mutate_arg(seed, fi, ai, |_| Expr::Function(donor.clone()));
                    if mutated.is_some_and(&mut push) {
                        break 'outer;
                    }
                }
            }
        }
    }
}

/// [`apply_salted`] with salt 0.
pub fn apply(
    pattern: PatternId,
    seed: &Statement,
    ctx: &GenCtx,
    cap: usize,
    out: &mut Vec<GeneratedCase>,
) {
    apply_salted(pattern, seed, ctx, cap, 0, out);
}

/// Builds `(SELECT c UNION ALL SELECT v LIMIT 1)`.
fn union_subquery(c: Expr, v: Expr) -> Expr {
    let query = |e: Expr| {
        SelectBody::Query(Box::new(soft_parser::ast::Query {
            distinct: false,
            items: vec![SelectItem::Expr { expr: e, alias: None }],
            from: None,
            where_clause: None,
            group_by: vec![],
            having: None,
        }))
    };
    Expr::Subquery(Box::new(SelectStmt {
        body: SelectBody::Union {
            left: Box::new(query(c)),
            right: Box::new(query(v)),
            all: true,
        },
        order_by: vec![],
        limit: Some(1),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soft_parser::parse_statement;

    fn ctx() -> GenCtx {
        let profile = soft_dialects::DialectProfile::build(soft_dialects::DialectId::Mariadb);
        GenCtx::new(&crate::collect::collect(&profile))
    }

    fn seed(sql: &str) -> Statement {
        parse_statement(sql).unwrap()
    }

    fn gen(pattern: PatternId, sql: &str) -> Vec<String> {
        let mut out = Vec::new();
        apply(pattern, &seed(sql), &ctx(), 1000, &mut out);
        out.iter().map(|c| c.sql.clone()).collect()
    }

    #[test]
    fn p1_1_probes_whole_argument_vectors() {
        let cases = gen(PatternId::P1_1, "SELECT f('abc', 1)");
        // One case per pool literal: both arguments replaced at once.
        assert_eq!(cases.len(), pool::boundary_literals().len());
        assert!(cases.contains(&"SELECT f(NULL, NULL)".to_string()));
        assert!(cases.contains(&"SELECT f('', '')".to_string()));
        // P1.2's partial substitutions must NOT appear.
        assert!(!cases.contains(&"SELECT f(NULL, 1)".to_string()));
    }

    #[test]
    fn p1_2_substitutes_pool_literals() {
        let cases = gen(PatternId::P1_2, "SELECT f('abc', 1)");
        // Two argument positions × pool size.
        assert_eq!(cases.len(), 2 * pool::boundary_literals().len());
        assert!(cases.contains(&"SELECT f(NULL, 1)".to_string()));
        assert!(cases.contains(&"SELECT f(*, 1)".to_string()));
        assert!(cases.contains(&"SELECT f('abc', '')".to_string()));
        assert!(cases.iter().any(|c| c.contains(&"9".repeat(45))));
    }

    #[test]
    fn p1_3_inserts_digit_runs() {
        let cases = gen(PatternId::P1_3, "SELECT AVG(1.2)");
        assert!(cases.iter().any(|c| c.contains(&format!("1.2{}", "9".repeat(64)))));
        let str_cases = gen(PatternId::P1_3, "SELECT f('ab')");
        assert!(str_cases.iter().any(|c| c.contains("99999")));
    }

    #[test]
    fn p1_4_duplicates_characters() {
        let cases = gen(PatternId::P1_4, "SELECT JSON_VALID('{\"key\": 0}')");
        assert!(cases.iter().any(|c| c.contains(&"{".repeat(9))), "{cases:?}");
    }

    #[test]
    fn p2_1_wraps_in_casts() {
        let cases = gen(PatternId::P2_1, "SELECT f(1)");
        assert!(cases.contains(&"SELECT f(CAST(1 AS JSON))".to_string()));
        assert!(cases.contains(&"SELECT f(CAST(1 AS GEOMETRY))".to_string()));
    }

    #[test]
    fn p2_2_builds_union_subqueries() {
        let cases = gen(PatternId::P2_2, "SELECT f(7)");
        assert!(cases
            .contains(&"SELECT f((SELECT 7 UNION ALL SELECT 'zz' LIMIT 1))".to_string()));
    }

    #[test]
    fn p2_3_transplants_donor_args() {
        let cases = gen(PatternId::P2_3, "SELECT ABS(1)");
        assert!(!cases.is_empty());
        // Donor args come from the collection, most interesting first.
        assert!(cases.iter().any(|c| c != "SELECT ABS(1)"));
    }

    #[test]
    fn p3_1_builds_repeat_calls() {
        let cases = gen(PatternId::P3_1, "SELECT JSON_LENGTH('[1]')");
        assert!(cases.iter().any(|c| c.contains("REPEAT('[1]'")
            || c.contains("REPEAT('[1,'")
            || c.contains("REPEAT('[1")));
    }

    #[test]
    fn p3_2_wraps_arguments() {
        let cases = gen(PatternId::P3_2, "SELECT f('x')");
        assert!(!cases.is_empty());
        for c in &cases {
            let stmt = parse_statement(c).unwrap();
            assert!(soft_parser::visit::max_function_nesting(&stmt) <= 2);
        }
    }

    #[test]
    fn p3_3_replaces_with_donor_calls() {
        let cases = gen(PatternId::P3_3, "SELECT f(1)");
        assert!(!cases.is_empty());
        for c in &cases {
            let stmt = parse_statement(c).unwrap();
            assert!(soft_parser::visit::max_function_nesting(&stmt) <= 2, "{c}");
        }
    }

    #[test]
    fn empty_pools_generate_nothing() {
        // The pools are public fields, so a caller can empty them; the
        // patterns that draw from them must then generate nothing rather
        // than index an empty pool.
        let mut empty = ctx();
        empty.donor_args.clear();
        empty.wrappers.clear();
        empty.donor_exprs.clear();
        for pattern in [PatternId::P2_3, PatternId::P3_2, PatternId::P3_3] {
            let mut out = Vec::new();
            apply_salted(pattern, &seed("SELECT f('abc', 1)"), &empty, 1000, 7, &mut out);
            assert!(out.is_empty(), "{pattern}: {out:?}");
        }
    }

    #[test]
    fn nesting_cap_blocks_triple_nesting() {
        // A seed that already has two nested functions cannot be wrapped
        // further.
        let cases = gen(PatternId::P3_2, "SELECT f(g('x'))");
        for c in &cases {
            let stmt = parse_statement(c).unwrap();
            assert!(soft_parser::visit::max_function_nesting(&stmt) <= 2, "{c}");
        }
    }

    #[test]
    fn all_generated_cases_reparse() {
        for pattern in PatternId::ALL {
            for sql in ["SELECT f('abc', 1)", "SELECT JSON_LENGTH('[1]', '$.a')"] {
                for case in gen(pattern, sql) {
                    parse_statement(&case)
                        .unwrap_or_else(|e| panic!("{pattern}: {case}: {e}"));
                }
            }
        }
    }

    #[test]
    fn caps_are_respected() {
        let mut out = Vec::new();
        apply(PatternId::P1_2, &seed("SELECT f('a', 'b', 'c')"), &ctx(), 5, &mut out);
        assert_eq!(out.len(), 5);
    }
}

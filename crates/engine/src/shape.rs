//! Shape keys: the multi-form oracle's state-independence predicate.
//!
//! A statement has a [`ShapeKey`] when it is a `SELECT` of pure expressions:
//! no source rows, no subqueries, no aggregates, and no volatile or unknown
//! functions. Such a statement reads no table, sequence or session state, so
//! its outcome is a pure function of the engine backend and the statement:
//! every clone of one template executes it alike, whatever the clone ran
//! before. That is what lets a campaign shard's outcome of a shape-keyed
//! statement stand in for the oracle's reference form, which would otherwise
//! re-execute the statement on a fresh template clone (`run_shard` in
//! `soft-core`'s campaign gates that reuse on `shape_key(p).is_some()`).
//!
//! The key itself is a structural hash of the statement with its literals
//! left out, so statements that differ only in their boundary literals share
//! a key. The campaign benchmark groups statements by it.

use crate::executor::contains_aggregate_err;
use crate::registry::FunctionRegistry;
use soft_parser::ast::{Expr, Query, SelectBody, SelectItem, Statement};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Functions whose results depend on or mutate session state. A statement
/// calling any of these has no shape key.
const VOLATILE: &[&str] =
    &["rand", "uuid", "last_insert_id", "nextval", "currval", "lastval", "setval"];

/// A structural fingerprint of a state-independent statement.
///
/// Two statements with equal keys have (modulo hash collision) the same AST
/// shape — same operators, same function spellings up to case, same arities —
/// and differ only in literal values. Statements without a key (columns,
/// subqueries, aggregates, volatile or unknown functions, non-SELECT, …) may
/// read or write engine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeKey(u64);

/// Computes the shape key of a prepared statement, or `None` when the
/// statement may depend on engine state.
pub(crate) fn shape_key(registry: &FunctionRegistry, stmt: &Statement) -> Option<ShapeKey> {
    let q = keyed_query(registry, stmt)?;
    let mut h = DefaultHasher::new();
    q.items.len().hash(&mut h);
    for item in &q.items {
        if let SelectItem::Expr { expr, .. } = item {
            hash_expr(expr, &mut h);
        }
    }
    Some(ShapeKey(h.finish()))
}

/// The single scalar `Query` of a keyed statement: a `SELECT` of pure
/// expressions with no source rows and no row-set machinery.
fn keyed_query<'s>(registry: &FunctionRegistry, stmt: &'s Statement) -> Option<&'s Query> {
    let Statement::Select(s) = stmt else { return None };
    if !s.order_by.is_empty() || s.limit.is_some() {
        return None;
    }
    let SelectBody::Query(q) = &s.body else { return None };
    if q.distinct
        || q.from.is_some()
        || q.where_clause.is_some()
        || !q.group_by.is_empty()
        || q.having.is_some()
        || q.items.is_empty()
    {
        return None;
    }
    for item in &q.items {
        let SelectItem::Expr { expr, .. } = item else { return None };
        if contains_aggregate_err(registry, expr) || !keyed_expr(registry, expr) {
            return None;
        }
    }
    Some(q)
}

/// Expression-level check: no row/catalog references, no subqueries, every
/// function resolvable, scalar and non-volatile.
fn keyed_expr(registry: &FunctionRegistry, e: &Expr) -> bool {
    match e {
        Expr::Literal(_) | Expr::Star => true,
        Expr::Column(_) | Expr::Subquery(_) | Expr::Exists(_) => false,
        Expr::Function(fx) => {
            let Some(def) = registry.resolve(&fx.name) else {
                // Unknown functions error before argument evaluation with a
                // message quoting the as-written spelling; they stay unkeyed.
                return false;
            };
            if def.is_aggregate() || VOLATILE.contains(&def.name) {
                return false;
            }
            fx.args.iter().all(|a| keyed_expr(registry, a))
        }
        Expr::Cast { expr, .. } | Expr::Unary { expr, .. } => keyed_expr(registry, expr),
        Expr::Binary { left, right, .. } => {
            keyed_expr(registry, left) && keyed_expr(registry, right)
        }
        Expr::IsNull { expr, .. } => keyed_expr(registry, expr),
        Expr::InList { expr, list, .. } => {
            keyed_expr(registry, expr) && list.iter().all(|a| keyed_expr(registry, a))
        }
        Expr::Between { expr, low, high, .. } => {
            keyed_expr(registry, expr) && keyed_expr(registry, low) && keyed_expr(registry, high)
        }
        Expr::Case { operand, branches, else_expr } => {
            operand.as_deref().map_or(true, |o| keyed_expr(registry, o))
                && branches
                    .iter()
                    .all(|(w, t)| keyed_expr(registry, w) && keyed_expr(registry, t))
                && else_expr.as_deref().map_or(true, |x| keyed_expr(registry, x))
        }
        Expr::Row(items) | Expr::ArrayLiteral(items) => {
            items.iter().all(|a| keyed_expr(registry, a))
        }
        Expr::IntervalLiteral { quantity, .. } => keyed_expr(registry, quantity),
    }
}

fn hash_lower(s: &str, h: &mut DefaultHasher) {
    for b in s.bytes() {
        b.to_ascii_lowercase().hash(h);
    }
    0xffu8.hash(h);
}

/// Hashes the structural shape of an expression: node tags, operator
/// discriminants, case-folded function names, arities and type names —
/// everything except the literal values themselves.
fn hash_expr(e: &Expr, h: &mut DefaultHasher) {
    match e {
        // Literal kinds are deliberately excluded too: statements that
        // differ only in their literals share a key.
        Expr::Literal(_) => 1u8.hash(h),
        Expr::Star => 2u8.hash(h),
        Expr::Function(fx) => {
            3u8.hash(h);
            hash_lower(&fx.name, h);
            fx.distinct.hash(h);
            fx.args.len().hash(h);
            for a in &fx.args {
                hash_expr(a, h);
            }
        }
        Expr::Cast { expr, type_name, .. } => {
            4u8.hash(h);
            type_name.hash(h);
            hash_expr(expr, h);
        }
        Expr::Unary { op, expr } => {
            5u8.hash(h);
            std::mem::discriminant(op).hash(h);
            hash_expr(expr, h);
        }
        Expr::Binary { left, op, right } => {
            6u8.hash(h);
            std::mem::discriminant(op).hash(h);
            hash_expr(left, h);
            hash_expr(right, h);
        }
        Expr::IsNull { expr, negated } => {
            7u8.hash(h);
            negated.hash(h);
            hash_expr(expr, h);
        }
        Expr::InList { expr, list, negated } => {
            8u8.hash(h);
            negated.hash(h);
            list.len().hash(h);
            hash_expr(expr, h);
            for a in list {
                hash_expr(a, h);
            }
        }
        Expr::Between { expr, low, high, negated } => {
            9u8.hash(h);
            negated.hash(h);
            hash_expr(expr, h);
            hash_expr(low, h);
            hash_expr(high, h);
        }
        Expr::Case { operand, branches, else_expr } => {
            10u8.hash(h);
            operand.is_some().hash(h);
            branches.len().hash(h);
            else_expr.is_some().hash(h);
            if let Some(o) = operand {
                hash_expr(o, h);
            }
            for (w, t) in branches {
                hash_expr(w, h);
                hash_expr(t, h);
            }
            if let Some(x) = else_expr {
                hash_expr(x, h);
            }
        }
        Expr::Row(items) => {
            11u8.hash(h);
            items.len().hash(h);
            for a in items {
                hash_expr(a, h);
            }
        }
        Expr::ArrayLiteral(items) => {
            12u8.hash(h);
            items.len().hash(h);
            for a in items {
                hash_expr(a, h);
            }
        }
        Expr::IntervalLiteral { quantity, unit } => {
            13u8.hash(h);
            unit.hash(h);
            hash_expr(quantity, h);
        }
        // Unkeyed shapes never reach the hash, but keep them distinct
        // anyway so the function is total.
        Expr::Column(name) => {
            14u8.hash(h);
            hash_lower(name, h);
        }
        Expr::Subquery(_) => 15u8.hash(h),
        Expr::Exists(_) => 16u8.hash(h),
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{Engine, EngineConfig};

    fn plain() -> Engine {
        Engine::with_default_functions(EngineConfig::default())
    }

    #[test]
    fn volatile_and_row_reading_statements_have_no_shape_key() {
        let e = plain();
        for sql in [
            "SELECT RAND()",
            "SELECT x FROM t",
            "SELECT (SELECT 1)",
            "SELECT COUNT(*)",
            "SELECT 1 ORDER BY 1",
            "SELECT 1 LIMIT 1",
            "SELECT DISTINCT 1",
        ] {
            let p = e.prepare(sql).expect("prepare");
            assert_eq!(e.shape_key(&p), None, "{sql} must have no shape key");
        }
    }

    #[test]
    fn shape_keys_fold_case_and_split_on_structure() {
        let e = plain();
        let key = |sql: &str| e.shape_key(&e.prepare(sql).unwrap());
        let a = key("SELECT UPPER('a')");
        assert!(a.is_some());
        assert_eq!(a, key("SELECT upper('completely different literal')"));
        assert_ne!(a, key("SELECT LOWER('a')"));
        assert_ne!(a, key("SELECT UPPER(LOWER('a'))"), "nesting changes the shape");
    }
}

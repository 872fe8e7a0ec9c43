//! AST visitors and rewriting utilities.
//!
//! SOFT's pattern engine works by locating function expressions inside
//! statements and splicing mutated replacements back in (§7.1, "Pattern-Based
//! Generation"). These helpers provide that machinery: immutable walks for
//! collection and statistics, and mutable walks for in-place rewriting.

use crate::ast::*;

/// Calls `f` on every expression in the statement, pre-order.
pub fn visit_exprs<'a>(stmt: &'a Statement, f: &mut impl FnMut(&'a Expr)) {
    match stmt {
        Statement::Select(s) => visit_select(s, f),
        Statement::Insert(i) => {
            for row in &i.rows {
                for e in row {
                    visit_expr(e, f);
                }
            }
        }
        Statement::CreateTable(_) | Statement::DropTable { .. } => {}
    }
}

fn visit_select<'a>(stmt: &'a SelectStmt, f: &mut impl FnMut(&'a Expr)) {
    visit_body(&stmt.body, f);
    for o in &stmt.order_by {
        visit_expr(&o.expr, f);
    }
}

fn visit_body<'a>(body: &'a SelectBody, f: &mut impl FnMut(&'a Expr)) {
    match body {
        SelectBody::Query(q) => visit_query(q, f),
        SelectBody::Union { left, right, .. } => {
            visit_body(left, f);
            visit_body(right, f);
        }
    }
}

fn visit_query<'a>(q: &'a Query, f: &mut impl FnMut(&'a Expr)) {
    for item in &q.items {
        if let SelectItem::Expr { expr, .. } = item {
            visit_expr(expr, f);
        }
    }
    if let Some(TableRef::Subquery { query, .. }) = &q.from {
        visit_select(query, f);
    }
    if let Some(w) = &q.where_clause {
        visit_expr(w, f);
    }
    for g in &q.group_by {
        visit_expr(g, f);
    }
    if let Some(h) = &q.having {
        visit_expr(h, f);
    }
}

/// Calls `f` on `expr` and all sub-expressions, pre-order.
pub fn visit_expr<'a>(expr: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(expr);
    match expr {
        Expr::Function(fx) => {
            for a in &fx.args {
                visit_expr(a, f);
            }
        }
        Expr::Cast { expr, .. } => visit_expr(expr, f),
        Expr::Case { operand, branches, else_expr } => {
            if let Some(op) = operand {
                visit_expr(op, f);
            }
            for (w, t) in branches {
                visit_expr(w, f);
                visit_expr(t, f);
            }
            if let Some(e) = else_expr {
                visit_expr(e, f);
            }
        }
        Expr::Unary { expr, .. } => visit_expr(expr, f),
        Expr::Binary { left, right, .. } => {
            visit_expr(left, f);
            visit_expr(right, f);
        }
        Expr::IsNull { expr, .. } => visit_expr(expr, f),
        Expr::InList { expr, list, .. } => {
            visit_expr(expr, f);
            for e in list {
                visit_expr(e, f);
            }
        }
        Expr::Between { expr, low, high, .. } => {
            visit_expr(expr, f);
            visit_expr(low, f);
            visit_expr(high, f);
        }
        Expr::Row(items) | Expr::ArrayLiteral(items) => {
            for e in items {
                visit_expr(e, f);
            }
        }
        Expr::Subquery(q) | Expr::Exists(q) => visit_select(q, f),
        Expr::IntervalLiteral { quantity, .. } => visit_expr(quantity, f),
        Expr::Literal(_) | Expr::Column(_) | Expr::Star => {}
    }
}

/// Calls `f` on every expression in the statement, mutably, pre-order.
/// `f` may replace the node wholesale.
pub fn visit_exprs_mut(stmt: &mut Statement, f: &mut impl FnMut(&mut Expr)) {
    match stmt {
        Statement::Select(s) => visit_select_mut(s, f),
        Statement::Insert(i) => {
            for row in &mut i.rows {
                for e in row {
                    visit_expr_mut(e, f);
                }
            }
        }
        Statement::CreateTable(_) | Statement::DropTable { .. } => {}
    }
}

fn visit_select_mut(stmt: &mut SelectStmt, f: &mut impl FnMut(&mut Expr)) {
    visit_body_mut(&mut stmt.body, f);
    for o in &mut stmt.order_by {
        visit_expr_mut(&mut o.expr, f);
    }
}

fn visit_body_mut(body: &mut SelectBody, f: &mut impl FnMut(&mut Expr)) {
    match body {
        SelectBody::Query(q) => visit_query_mut(q, f),
        SelectBody::Union { left, right, .. } => {
            visit_body_mut(left, f);
            visit_body_mut(right, f);
        }
    }
}

fn visit_query_mut(q: &mut Query, f: &mut impl FnMut(&mut Expr)) {
    for item in &mut q.items {
        if let SelectItem::Expr { expr, .. } = item {
            visit_expr_mut(expr, f);
        }
    }
    if let Some(TableRef::Subquery { query, .. }) = &mut q.from {
        visit_select_mut(query, f);
    }
    if let Some(w) = &mut q.where_clause {
        visit_expr_mut(w, f);
    }
    for g in &mut q.group_by {
        visit_expr_mut(g, f);
    }
    if let Some(h) = &mut q.having {
        visit_expr_mut(h, f);
    }
}

/// Calls `f` on `expr` and all sub-expressions, mutably, pre-order.
pub fn visit_expr_mut(expr: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    f(expr);
    match expr {
        Expr::Function(fx) => {
            for a in &mut fx.args {
                visit_expr_mut(a, f);
            }
        }
        Expr::Cast { expr, .. } => visit_expr_mut(expr, f),
        Expr::Case { operand, branches, else_expr } => {
            if let Some(op) = operand {
                visit_expr_mut(op, f);
            }
            for (w, t) in branches {
                visit_expr_mut(w, f);
                visit_expr_mut(t, f);
            }
            if let Some(e) = else_expr {
                visit_expr_mut(e, f);
            }
        }
        Expr::Unary { expr, .. } => visit_expr_mut(expr, f),
        Expr::Binary { left, right, .. } => {
            visit_expr_mut(left, f);
            visit_expr_mut(right, f);
        }
        Expr::IsNull { expr, .. } => visit_expr_mut(expr, f),
        Expr::InList { expr, list, .. } => {
            visit_expr_mut(expr, f);
            for e in list {
                visit_expr_mut(e, f);
            }
        }
        Expr::Between { expr, low, high, .. } => {
            visit_expr_mut(expr, f);
            visit_expr_mut(low, f);
            visit_expr_mut(high, f);
        }
        Expr::Row(items) | Expr::ArrayLiteral(items) => {
            for e in items {
                visit_expr_mut(e, f);
            }
        }
        Expr::Subquery(q) | Expr::Exists(q) => visit_select_mut(q, f),
        Expr::IntervalLiteral { quantity, .. } => visit_expr_mut(quantity, f),
        Expr::Literal(_) | Expr::Column(_) | Expr::Star => {}
    }
}

/// Collects clones of every function expression in the statement.
pub fn collect_function_exprs(stmt: &Statement) -> Vec<FunctionExpr> {
    let mut out = Vec::new();
    visit_exprs(stmt, &mut |e| {
        if let Expr::Function(fx) = e {
            out.push(fx.clone());
        }
    });
    out
}

/// Calls `f` with the as-written name of every function expression in the
/// statement (including inside subqueries), in visit order. Unlike
/// [`collect_function_exprs`] this clones nothing, so a caller can scan a
/// statement's function names without copying argument trees.
pub fn for_each_function_name(stmt: &Statement, mut f: impl FnMut(&str)) {
    visit_exprs(stmt, &mut |e| {
        if let Expr::Function(fx) = e {
            f(&fx.name);
        }
    });
}

/// Counts function expressions in the statement (the Table 2 metric).
pub fn count_function_exprs(stmt: &Statement) -> usize {
    let mut n = 0;
    visit_exprs(stmt, &mut |e| {
        if matches!(e, Expr::Function(_)) {
            n += 1;
        }
    });
    n
}

/// Maximum function-nesting depth of the statement (a bare call is 1,
/// `f(g(x))` is 2). Finding 3's "no more than two function expressions"
/// cap is enforced by the generator with this metric.
pub fn max_function_nesting(stmt: &Statement) -> usize {
    fn depth(expr: &Expr) -> usize {
        let inner = |items: &[Expr]| items.iter().map(depth).max().unwrap_or(0);
        match expr {
            Expr::Function(fx) => 1 + inner(&fx.args),
            Expr::Cast { expr, .. } | Expr::Unary { expr, .. } => depth(expr),
            Expr::Binary { left, right, .. } => depth(left).max(depth(right)),
            Expr::IsNull { expr, .. } => depth(expr),
            Expr::InList { expr, list, .. } => depth(expr).max(inner(list)),
            Expr::Between { expr, low, high, .. } => {
                depth(expr).max(depth(low)).max(depth(high))
            }
            Expr::Row(items) | Expr::ArrayLiteral(items) => inner(items),
            Expr::Case { operand, branches, else_expr } => {
                let mut d = operand.as_deref().map(depth).unwrap_or(0);
                for (w, t) in branches {
                    d = d.max(depth(w)).max(depth(t));
                }
                if let Some(e) = else_expr {
                    d = d.max(depth(e));
                }
                d
            }
            Expr::Subquery(q) | Expr::Exists(q) => {
                let mut d = 0;
                let mut stmt_depth = 0;
                crate::visit::visit_select(q, &mut |e| {
                    if matches!(e, Expr::Function(_)) {
                        // Rough: recompute on the subtree.
                        stmt_depth = stmt_depth.max(depth(e));
                    }
                });
                d = d.max(stmt_depth);
                d
            }
            Expr::IntervalLiteral { quantity, .. } => depth(quantity),
            Expr::Literal(_) | Expr::Column(_) | Expr::Star => 0,
        }
    }
    let mut best = 0;
    match stmt {
        Statement::Select(s) => {
            visit_select(s, &mut |e| {
                // Only measure from the top of each expression tree; pre-order
                // visits every node so taking the max over all is correct.
                best = best.max(depth(e));
            });
        }
        _ => {
            visit_exprs(stmt, &mut |e| {
                best = best.max(depth(e));
            });
        }
    }
    best
}

/// Edits the `index`-th function expression (pre-order) in place: calls
/// `f` on the `Expr::Function` node itself, so it can rewrite arguments
/// without copying the call, or replace the node wholesale. Returns `f`'s
/// result, or `None` (leaving the statement untouched) when the statement
/// has no such function expression.
pub fn edit_function_expr<R>(
    stmt: &mut Statement,
    index: usize,
    f: impl FnOnce(&mut Expr) -> R,
) -> Option<R> {
    let mut seen = 0usize;
    let mut f = Some(f);
    let mut result = None;
    visit_exprs_mut(stmt, &mut |e| {
        if matches!(e, Expr::Function(_)) {
            if seen == index {
                result = f.take().map(|f| f(e));
            }
            seen += 1;
        }
    });
    result
}

/// Replaces the `index`-th function expression (pre-order) with the result
/// of `f(original)`. Returns true if the index existed.
pub fn replace_function_expr(
    stmt: &mut Statement,
    index: usize,
    f: impl FnOnce(&FunctionExpr) -> Expr,
) -> bool {
    edit_function_expr(stmt, index, |e| {
        if let Expr::Function(fx) = e {
            *e = f(fx);
        }
    })
    .is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    #[test]
    fn collect_functions() {
        let stmt =
            parse_statement("SELECT JSON_LENGTH(REPEAT('[1,', 100), '$[2][1]')").unwrap();
        let fns = collect_function_exprs(&stmt);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "JSON_LENGTH");
        assert_eq!(fns[1].name, "REPEAT");
    }

    #[test]
    fn count_functions_in_clauses() {
        let stmt = parse_statement(
            "SELECT f(a) FROM t WHERE g(b) > 0 GROUP BY h(c) HAVING COUNT(*) > i(1) ORDER BY j(d)",
        )
        .unwrap();
        assert_eq!(count_function_exprs(&stmt), 6);
    }

    #[test]
    fn nesting_depth() {
        let one = parse_statement("SELECT f(1)").unwrap();
        assert_eq!(max_function_nesting(&one), 1);
        let two = parse_statement("SELECT f(g(1))").unwrap();
        assert_eq!(max_function_nesting(&two), 2);
        let three = parse_statement("SELECT f(g(h(1)))").unwrap();
        assert_eq!(max_function_nesting(&three), 3);
        let sibling = parse_statement("SELECT f(g(1), h(2))").unwrap();
        assert_eq!(max_function_nesting(&sibling), 2);
        let none = parse_statement("SELECT 1 + 2").unwrap();
        assert_eq!(max_function_nesting(&none), 0);
    }

    #[test]
    fn replace_by_index() {
        let mut stmt = parse_statement("SELECT f(1), g(2)").unwrap();
        let ok = replace_function_expr(&mut stmt, 1, |orig| {
            assert_eq!(orig.name, "g");
            Expr::func("WRAPPED", vec![Expr::Function(orig.clone())])
        });
        assert!(ok);
        assert_eq!(stmt.to_string(), "SELECT f(1), WRAPPED(g(2))");
        // Out-of-range index leaves the statement untouched.
        let before = stmt.to_string();
        assert!(!replace_function_expr(&mut stmt, 9, |o| Expr::Function(o.clone())));
        assert_eq!(stmt.to_string(), before);
    }

    #[test]
    fn edit_in_place_by_index() {
        let mut stmt = parse_statement("SELECT f(1, 2), g(h(3))").unwrap();
        let arity = edit_function_expr(&mut stmt, 2, |e| match e {
            Expr::Function(fx) => {
                fx.args[0] = Expr::string("x");
                fx.args.len()
            }
            _ => unreachable!("the editor only visits function expressions"),
        });
        assert_eq!(arity, Some(1));
        assert_eq!(stmt.to_string(), "SELECT f(1, 2), g(h('x'))");
        // Out-of-range index: no call, statement untouched.
        assert_eq!(edit_function_expr(&mut stmt, 3, |_| ()), None);
        assert_eq!(stmt.to_string(), "SELECT f(1, 2), g(h('x'))");
    }

    #[test]
    fn functions_inside_subqueries_are_visited() {
        let stmt =
            parse_statement("SELECT * FROM (SELECT IFNULL(CONVERT(NULL, UNSIGNED), NULL)) sq")
                .unwrap();
        let fns = collect_function_exprs(&stmt);
        // CONVERT parses as a cast, so only IFNULL is a function expression.
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "IFNULL");
    }
}

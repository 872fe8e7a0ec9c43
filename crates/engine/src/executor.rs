//! Statement execution: the parse → optimize → execute pipeline over the
//! in-memory catalog, with provenance-carrying expression evaluation,
//! aggregate machinery, UNION type alignment, coverage recording and fault
//! checking.
//!
//! A built-in call does each of its steps once: its name resolves at the
//! call through the registry's allocation-free lookup, its arguments are
//! evaluated and recorded as coverage, its fault predicates are checked,
//! and its body runs, coercing each argument through the registry's one
//! coercion function (`registry::coerce`). The result carries a flat,
//! `Copy` provenance tag naming the function.

use crate::catalog::{Catalog, Column};
use crate::coverage::{self, Coverage, Feature};
use crate::error::{EngineError, ResultSet, SqlError};
use crate::eval::{Evaluated, Provenance};
use crate::fault::FaultSet;
use crate::regex::Regex;
use crate::registry::{
    perform_cast, FnCtx, FunctionImpl, FunctionRegistry, Limits, SessionState,
};
use soft_parser::ast::*;
use soft_types::boundary;
use soft_types::cast::CastStrictness;
use soft_types::decimal::Decimal;
use soft_types::value::{DataType, Value};
use std::collections::HashMap;

/// Maximum nesting of scalar subqueries.
const MAX_SUBQUERY_DEPTH: usize = 16;

/// Column-name bindings plus the materialised source rows of a FROM clause.
type BoundRows = (Vec<(String, usize)>, Vec<Vec<Evaluated>>);

/// The executor borrows the engine's parts for one statement.
pub(crate) struct Exec<'e> {
    pub registry: &'e FunctionRegistry,
    pub faults: &'e FaultSet,
    pub coverage: &'e mut Coverage,
    pub catalog: &'e mut Catalog,
    pub session: &'e mut SessionState,
    pub strictness: CastStrictness,
    pub limits: Limits,
    pub memory_used: usize,
    pub subquery_depth: usize,
}

/// A row-evaluation context: column bindings plus optional group rows for
/// aggregate evaluation.
#[derive(Clone, Copy)]
pub(crate) struct RowCtx<'r> {
    /// Binding names, lowercase, aligned with row positions. Qualified
    /// aliases (`t.c`) are included as extra entries.
    columns: &'r [(String, usize)],
    /// The current row (None while evaluating against "no row", e.g. an
    /// empty aggregate group).
    row: Option<&'r [Evaluated]>,
    /// Source rows of the current group, when aggregates are in scope.
    group: Option<&'r [Vec<Evaluated>]>,
}

impl<'r> RowCtx<'r> {
    pub(crate) const EMPTY: RowCtx<'static> =
        RowCtx { columns: &[], row: None, group: None };
}

impl<'e> Exec<'e> {
    fn sem<T>(&self, msg: impl Into<String>) -> Result<T, EngineError> {
        Err(EngineError::Sql(SqlError::Semantic(msg.into())))
    }

    pub fn exec_statement(&mut self, stmt: &Statement) -> Result<crate::error::ExecOutcome, EngineError> {
        match stmt {
            Statement::Select(s) => {
                let (columns, rows) = self.exec_select(s)?;
                let rows = rows
                    .into_iter()
                    .map(|r| r.into_iter().map(|e| e.value).collect())
                    .collect();
                Ok(crate::error::ExecOutcome::Rows(ResultSet { columns, rows }))
            }
            Statement::CreateTable(ct) => {
                let mut columns = Vec::with_capacity(ct.columns.len());
                for c in &ct.columns {
                    let dt = resolve_type_name(&c.type_name).ok_or_else(|| {
                        EngineError::Sql(SqlError::Semantic(format!(
                            "unknown column type {}",
                            c.type_name
                        )))
                    })?;
                    columns.push(Column {
                        name: c.name.to_ascii_lowercase(),
                        data_type: dt,
                        not_null: c.not_null,
                    });
                }
                self.catalog.create_table(&ct.name, columns, ct.if_not_exists)?;
                Ok(crate::error::ExecOutcome::Ok(format!("CREATE TABLE {}", ct.name)))
            }
            Statement::Insert(ins) => self.exec_insert(ins),
            Statement::DropTable { name, if_exists } => {
                self.catalog.drop_table(name, *if_exists)?;
                Ok(crate::error::ExecOutcome::Ok(format!("DROP TABLE {name}")))
            }
        }
    }

    fn exec_insert(&mut self, ins: &Insert) -> Result<crate::error::ExecOutcome, EngineError> {
        let (col_indices, col_types, ncols) = {
            let table = self
                .catalog
                .table(&ins.table)
                .ok_or_else(|| SqlError::Semantic(format!("unknown table {}", ins.table)))?;
            let ncols = table.columns.len();
            let indices: Vec<usize> = if ins.columns.is_empty() {
                (0..ncols).collect()
            } else {
                let mut v = Vec::with_capacity(ins.columns.len());
                for c in &ins.columns {
                    match table.column_index(c) {
                        Some(i) => v.push(i),
                        None => {
                            return self.sem(format!("unknown column {c} in {}", ins.table))
                        }
                    }
                }
                v
            };
            let types: Vec<(DataType, bool)> =
                table.columns.iter().map(|c| (c.data_type, c.not_null)).collect();
            (indices, types, ncols)
        };
        let mut stored_rows = Vec::with_capacity(ins.rows.len());
        for row in &ins.rows {
            if row.len() != col_indices.len() {
                return self.sem(format!(
                    "INSERT row has {} values for {} columns",
                    row.len(),
                    col_indices.len()
                ));
            }
            let mut stored: Vec<Value> = vec![Value::Null; ncols];
            for (expr, &idx) in row.iter().zip(&col_indices) {
                let v = self.eval(expr, RowCtx::EMPTY)?;
                let (ty, not_null) = col_types[idx];
                let cast = self.cast(&v, ty, false)?;
                if not_null && cast.value.is_null() {
                    return Err(EngineError::Sql(SqlError::Semantic(
                        "NULL value in NOT NULL column".into(),
                    )));
                }
                stored[idx] = cast.value;
            }
            stored_rows.push(stored);
        }
        let n = stored_rows.len();
        let table = self
            .catalog
            .table_mut(&ins.table)
            .expect("existence checked above");
        table.rows.extend(stored_rows);
        if table.rows.len() > self.limits.max_rows {
            return Err(EngineError::Sql(SqlError::ResourceLimit(format!(
                "table {} exceeds {} rows",
                ins.table, self.limits.max_rows
            ))));
        }
        self.session.last_insert_id += n as i64;
        Ok(crate::error::ExecOutcome::Ok(format!("INSERT {n}")))
    }

    pub(crate) fn cast_limits(&self) -> soft_types::cast::CastLimits {
        soft_types::cast::CastLimits {
            max_decimal_digits: self.limits.max_decimal_digits,
            max_nesting_depth: self.limits.max_nesting_depth,
        }
    }

    /// Executes a full select; returns output column names and rows.
    pub fn exec_select(
        &mut self,
        stmt: &SelectStmt,
    ) -> Result<(Vec<String>, Vec<Vec<Evaluated>>), EngineError> {
        let (columns, mut rows) = self.exec_body(&stmt.body)?;
        if !stmt.order_by.is_empty() {
            self.order_rows(&columns, &mut rows, &stmt.order_by)?;
        }
        if let Some(limit) = stmt.limit {
            rows.truncate(limit as usize);
        }
        if rows.len() > self.limits.max_rows {
            return Err(EngineError::Sql(SqlError::ResourceLimit(format!(
                "result exceeds {} rows",
                self.limits.max_rows
            ))));
        }
        Ok((columns, rows))
    }

    fn order_rows(
        &mut self,
        columns: &[String],
        rows: &mut [Vec<Evaluated>],
        order_by: &[OrderItem],
    ) -> Result<(), EngineError> {
        // Precompute sort keys per row.
        let bindings: Vec<(String, usize)> = columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.to_ascii_lowercase(), i))
            .collect();
        let mut keyed: Vec<(Vec<Evaluated>, Vec<Evaluated>)> = Vec::with_capacity(rows.len());
        for row in rows.iter() {
            let mut keys = Vec::with_capacity(order_by.len());
            for item in order_by {
                // Positional ORDER BY: an integer literal indexes output
                // columns.
                if let Expr::Literal(Literal::Number(n)) = &item.expr {
                    if let Ok(ix) = n.parse::<usize>() {
                        if ix >= 1 && ix <= row.len() {
                            keys.push(row[ix - 1].clone());
                            continue;
                        }
                    }
                }
                let ctx = RowCtx { columns: &bindings, row: Some(row), group: None };
                keys.push(self.eval(&item.expr, ctx)?);
            }
            keyed.push((keys, row.to_vec()));
        }
        keyed.sort_by(|(ka, _), (kb, _)| {
            for (i, item) in order_by.iter().enumerate() {
                let ord = match ka[i].value.sql_cmp(&kb[i].value) {
                    Ok(Some(o)) => o,
                    // NULLs first; incomparables treated as equal.
                    Ok(None) => match (ka[i].value.is_null(), kb[i].value.is_null()) {
                        (true, false) => std::cmp::Ordering::Less,
                        (false, true) => std::cmp::Ordering::Greater,
                        _ => std::cmp::Ordering::Equal,
                    },
                    Err(_) => std::cmp::Ordering::Equal,
                };
                let ord = if item.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        for (slot, (_, row)) in rows.iter_mut().zip(keyed) {
            *slot = row;
        }
        Ok(())
    }

    fn exec_body(
        &mut self,
        body: &SelectBody,
    ) -> Result<(Vec<String>, Vec<Vec<Evaluated>>), EngineError> {
        match body {
            SelectBody::Query(q) => self.exec_query(q),
            SelectBody::Union { left, right, all } => {
                let (lcols, lrows) = self.exec_body(left)?;
                let (rcols, rrows) = self.exec_body(right)?;
                if lcols.len() != rcols.len() {
                    return self.sem(format!(
                        "UNION branches have {} and {} columns",
                        lcols.len(),
                        rcols.len()
                    ));
                }
                // Determine the common type per column and align both sides
                // with implicit casts — the P2.2 implicit-casting site.
                let ncols = lcols.len();
                let mut target: Vec<DataType> = vec![DataType::Null; ncols];
                for row in lrows.iter().chain(rrows.iter()) {
                    for (i, cell) in row.iter().enumerate() {
                        target[i] = union_type(target[i], cell.value.data_type());
                    }
                }
                let mut out = Vec::with_capacity(lrows.len() + rrows.len());
                for row in lrows.into_iter().chain(rrows) {
                    let mut aligned = Vec::with_capacity(ncols);
                    for (i, cell) in row.into_iter().enumerate() {
                        if target[i] == DataType::Null
                            || cell.value.is_null()
                            || cell.value.data_type() == target[i]
                        {
                            aligned.push(cell);
                        } else {
                            aligned.push(self.cast(&cell, target[i], false)?);
                        }
                    }
                    out.push(aligned);
                }
                if !all {
                    out = dedup_rows(out);
                }
                Ok((lcols, out))
            }
        }
    }

    fn exec_query(
        &mut self,
        q: &Query,
    ) -> Result<(Vec<String>, Vec<Vec<Evaluated>>), EngineError> {
        // Resolve the source.
        let (bindings, source_rows) = self.resolve_from(q)?;
        // WHERE filter.
        if let Some(w) = &q.where_clause {
            if contains_aggregate_err(self.registry, w) {
                return self.sem("aggregates are not allowed in WHERE");
            }
        }
        let mut filtered = Vec::with_capacity(source_rows.len());
        for row in source_rows {
            let keep = match &q.where_clause {
                None => true,
                Some(w) => {
                    let ctx = RowCtx { columns: &bindings, row: Some(&row), group: None };
                    let v = self.eval(w, ctx)?;
                    v.value.truthiness() == Some(true)
                }
            };
            if keep {
                filtered.push(row);
            }
        }
        let has_aggregate = q.items.iter().any(|it| match it {
            SelectItem::Expr { expr, .. } => contains_aggregate_err(self.registry, expr),
            SelectItem::Wildcard => false,
        }) || q
            .having
            .as_ref()
            .is_some_and(|h| contains_aggregate_err(self.registry, h))
            || !q.group_by.is_empty();
        let (columns, rows) = if has_aggregate {
            self.exec_aggregate_query(q, &bindings, filtered)?
        } else {
            self.exec_scalar_query(q, &bindings, filtered)?
        };
        let rows = if q.distinct { dedup_rows(rows) } else { rows };
        Ok((columns, rows))
    }

    fn resolve_from(
        &mut self,
        q: &Query,
    ) -> Result<BoundRows, EngineError> {
        match &q.from {
            None => Ok((Vec::new(), vec![Vec::new()])),
            Some(TableRef::Named { name, alias }) => {
                let table = match self.catalog.table(name) {
                    Some(t) => t,
                    None => return self.sem(format!("unknown table {name}")),
                };
                let mut bindings = Vec::new();
                for (i, c) in table.columns.iter().enumerate() {
                    bindings.push((c.name.clone(), i));
                    bindings.push((format!("{}.{}", name.to_ascii_lowercase(), c.name), i));
                    if let Some(a) = alias {
                        bindings.push((format!("{}.{}", a.to_ascii_lowercase(), c.name), i));
                    }
                }
                let rows: Vec<Vec<Evaluated>> = table
                    .rows
                    .iter()
                    .map(|r| r.iter().map(|v| Evaluated::column(v.clone())).collect())
                    .collect();
                Ok((bindings, rows))
            }
            Some(TableRef::Subquery { query, alias }) => {
                let (cols, rows) = self.exec_select(query)?;
                let mut bindings = Vec::new();
                for (i, c) in cols.iter().enumerate() {
                    let lower = c.to_ascii_lowercase();
                    bindings.push((lower.clone(), i));
                    if let Some(a) = alias {
                        bindings.push((format!("{}.{}", a.to_ascii_lowercase(), lower), i));
                    }
                }
                Ok((bindings, rows))
            }
        }
    }

    pub(crate) fn output_name(item: &SelectItem, index: usize) -> String {
        match item {
            SelectItem::Wildcard => format!("col{index}"),
            SelectItem::Expr { alias: Some(a), .. } => a.clone(),
            SelectItem::Expr { expr, .. } => match expr {
                Expr::Column(c) => c.clone(),
                other => other.to_string(),
            },
        }
    }

    fn exec_scalar_query(
        &mut self,
        q: &Query,
        bindings: &[(String, usize)],
        rows: Vec<Vec<Evaluated>>,
    ) -> Result<(Vec<String>, Vec<Vec<Evaluated>>), EngineError> {
        // Output column names.
        let mut columns = Vec::new();
        let source_width = bindings.iter().map(|(_, i)| i + 1).max().unwrap_or(0);
        for (i, item) in q.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    if q.from.is_none() {
                        return self.sem("SELECT * requires a FROM clause");
                    }
                    let mut seen = vec![false; source_width];
                    for (name, idx) in bindings {
                        if !name.contains('.') && !seen[*idx] {
                            seen[*idx] = true;
                            columns.push(name.clone());
                        }
                    }
                }
                _ => columns.push(Self::output_name(item, i)),
            }
        }
        let mut out = Vec::with_capacity(rows.len());
        for row in &rows {
            let ctx = RowCtx { columns: bindings, row: Some(row), group: None };
            let mut out_row = Vec::with_capacity(columns.len());
            for item in &q.items {
                match item {
                    SelectItem::Wildcard => {
                        let mut seen = vec![false; source_width];
                        for (name, idx) in bindings {
                            if !name.contains('.') && !seen[*idx] {
                                seen[*idx] = true;
                                out_row.push(row[*idx].clone());
                            }
                        }
                    }
                    SelectItem::Expr { expr, .. } => out_row.push(self.eval(expr, ctx)?),
                }
            }
            out.push(out_row);
            if out.len() > self.limits.max_rows {
                return Err(EngineError::Sql(SqlError::ResourceLimit(format!(
                    "result exceeds {} rows",
                    self.limits.max_rows
                ))));
            }
        }
        Ok((columns, out))
    }

    fn exec_aggregate_query(
        &mut self,
        q: &Query,
        bindings: &[(String, usize)],
        rows: Vec<Vec<Evaluated>>,
    ) -> Result<(Vec<String>, Vec<Vec<Evaluated>>), EngineError> {
        // Partition into groups.
        let mut group_order: Vec<String> = Vec::new();
        let mut groups: HashMap<String, Vec<Vec<Evaluated>>> = HashMap::new();
        if q.group_by.is_empty() {
            group_order.push(String::new());
            groups.insert(String::new(), rows);
        } else {
            for row in rows {
                let ctx = RowCtx { columns: bindings, row: Some(&row), group: None };
                let mut key = String::new();
                for g in &q.group_by {
                    let v = self.eval(g, ctx)?;
                    key.push_str(&v.value.group_key());
                    key.push('\u{1}');
                }
                if !groups.contains_key(&key) {
                    group_order.push(key.clone());
                }
                groups.entry(key).or_default().push(row);
            }
        }
        let columns: Vec<String> = q
            .items
            .iter()
            .enumerate()
            .map(|(i, it)| Self::output_name(it, i))
            .collect();
        let mut out = Vec::with_capacity(group_order.len());
        for key in group_order {
            let grows = groups.remove(&key).unwrap_or_default();
            let first = grows.first().cloned();
            let ctx = RowCtx {
                columns: bindings,
                row: first.as_deref(),
                group: Some(&grows),
            };
            if let Some(h) = &q.having {
                let hv = self.eval(h, ctx)?;
                if hv.value.truthiness() != Some(true) {
                    continue;
                }
            }
            let mut out_row = Vec::with_capacity(columns.len());
            for item in &q.items {
                match item {
                    SelectItem::Wildcard => {
                        return self.sem("SELECT * cannot be combined with aggregation")
                    }
                    SelectItem::Expr { expr, .. } => out_row.push(self.eval(expr, ctx)?),
                }
            }
            out.push(out_row);
        }
        Ok((columns, out))
    }

    // ---- expression evaluation ----

    pub(crate) fn eval(&mut self, expr: &Expr, ctx: RowCtx<'_>) -> Result<Evaluated, EngineError> {
        match expr {
            Expr::Literal(l) => Ok(self.eval_literal(l)),
            Expr::Star => Ok(Evaluated { value: Value::Star, provenance: Provenance::LITERAL }),
            Expr::Column(name) => self.eval_column(name, ctx),
            Expr::Function(fx) => self.eval_function(fx, ctx),
            Expr::Cast { expr, type_name, .. } => {
                let inner = self.eval(expr, ctx)?;
                let Some(ty) = resolve_type_name(type_name) else {
                    return self.sem(format!("unknown type {type_name}"));
                };
                self.cast(&inner, ty, true)
            }
            Expr::Unary { op, expr } => self.eval_unary(*op, expr, ctx),
            Expr::Binary { left, op, right } => self.eval_binary(left, *op, right, ctx),
            Expr::IsNull { expr, negated } => {
                let v = self.eval(expr, ctx)?;
                Ok(Evaluated {
                    value: is_null_result(&v.value, *negated),
                    provenance: Provenance::OTHER,
                })
            }
            Expr::InList { expr, list, negated } => {
                let target = self.eval(expr, ctx)?;
                let mut saw_null = target.value.is_null();
                let mut found = false;
                for item in list {
                    let v = self.eval(item, ctx)?;
                    match target.value.sql_cmp(&v.value) {
                        Ok(Some(std::cmp::Ordering::Equal)) => {
                            found = true;
                            break;
                        }
                        Ok(None) => saw_null = true,
                        _ => {}
                    }
                }
                let value = if found {
                    Value::Boolean(!*negated)
                } else if saw_null {
                    Value::Null
                } else {
                    Value::Boolean(*negated)
                };
                Ok(Evaluated { value, provenance: Provenance::OTHER })
            }
            Expr::Between { expr, low, high, negated } => {
                let v = self.eval(expr, ctx)?;
                let lo = self.eval(low, ctx)?;
                let hi = self.eval(high, ctx)?;
                let value = between_result(&v.value, &lo.value, &hi.value, *negated);
                Ok(Evaluated { value, provenance: Provenance::OTHER })
            }
            Expr::Case { operand, branches, else_expr } => {
                let op_v = match operand {
                    Some(o) => Some(self.eval(o, ctx)?),
                    None => None,
                };
                for (when, then) in branches {
                    let w = self.eval(when, ctx)?;
                    let hit = match &op_v {
                        Some(o) => {
                            o.value.sql_cmp(&w.value).unwrap_or(None)
                                == Some(std::cmp::Ordering::Equal)
                        }
                        None => w.value.truthiness() == Some(true),
                    };
                    if hit {
                        return self.eval(then, ctx);
                    }
                }
                match else_expr {
                    Some(e) => self.eval(e, ctx),
                    None => Ok(Evaluated {
                        value: Value::Null,
                        provenance: Provenance::OTHER,
                    }),
                }
            }
            Expr::Row(items) => {
                let mut vals = Vec::with_capacity(items.len());
                for i in items {
                    vals.push(self.eval(i, ctx)?.value);
                }
                Ok(Evaluated { value: Value::Row(vals), provenance: Provenance::OTHER })
            }
            Expr::ArrayLiteral(items) => {
                let mut vals = Vec::with_capacity(items.len());
                for i in items {
                    vals.push(self.eval(i, ctx)?.value);
                }
                Ok(Evaluated {
                    value: Value::Array(vals),
                    provenance: Provenance::OTHER,
                })
            }
            Expr::Subquery(q) => {
                if self.subquery_depth >= MAX_SUBQUERY_DEPTH {
                    return self.sem("subqueries nested too deeply");
                }
                self.subquery_depth += 1;
                let result = self.exec_select(q);
                self.subquery_depth -= 1;
                let (_, rows) = result?;
                match rows.len() {
                    0 => Ok(Evaluated {
                        value: Value::Null,
                        provenance: Provenance::LITERAL.subquery(),
                    }),
                    1 => {
                        let row = &rows[0];
                        if row.len() != 1 {
                            return self.sem("scalar subquery must return one column");
                        }
                        Ok(Evaluated {
                            value: row[0].value.clone(),
                            provenance: row[0].provenance.subquery(),
                        })
                    }
                    _ => self.sem("scalar subquery returned more than one row"),
                }
            }
            Expr::Exists(q) => {
                if self.subquery_depth >= MAX_SUBQUERY_DEPTH {
                    return self.sem("subqueries nested too deeply");
                }
                self.subquery_depth += 1;
                let result = self.exec_select(q);
                self.subquery_depth -= 1;
                let (_, rows) = result?;
                Ok(Evaluated {
                    value: Value::Boolean(!rows.is_empty()),
                    provenance: Provenance::OTHER,
                })
            }
            Expr::IntervalLiteral { quantity, unit } => {
                let qv = self.eval(quantity, ctx)?;
                if qv.value.is_null() {
                    return Ok(Evaluated { value: Value::Null, provenance: Provenance::OTHER });
                }
                let n = self.cast(&qv, DataType::Integer, false)?;
                let Value::Integer(n) = n.value else {
                    return self.sem("INTERVAL quantity must be an integer");
                };
                match soft_types::datetime::Interval::parse(n, unit) {
                    Ok(iv) => Ok(Evaluated {
                        value: Value::Interval(iv),
                        provenance: Provenance::LITERAL,
                    }),
                    Err(e) => Err(EngineError::Sql(SqlError::Semantic(e.to_string()))),
                }
            }
        }
    }

    fn eval_literal(&mut self, l: &Literal) -> Evaluated {
        Evaluated { value: literal_value(l), provenance: Provenance::LITERAL }
    }

    fn eval_column(&mut self, name: &str, ctx: RowCtx<'_>) -> Result<Evaluated, EngineError> {
        // Binding names are stored ASCII-lowercased, so a case-insensitive
        // compare is equivalent to folding `name` — without the per-lookup
        // String the fold used to allocate.
        match ctx.columns.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)) {
            Some((_, idx)) => match ctx.row {
                Some(row) => Ok(row
                    .get(*idx)
                    .cloned()
                    .unwrap_or(Evaluated::column(Value::Null))),
                // Empty group: every column reads as NULL.
                None => Ok(Evaluated::column(Value::Null)),
            },
            None => self.sem(format!("unknown column {name}")),
        }
    }

    fn eval_unary(
        &mut self,
        op: UnaryOp,
        expr: &Expr,
        ctx: RowCtx<'_>,
    ) -> Result<Evaluated, EngineError> {
        let inner = self.eval(expr, ctx)?;
        Ok(unary_op_result(op, inner))
    }

    fn eval_binary(
        &mut self,
        left: &Expr,
        op: BinaryOp,
        right: &Expr,
        ctx: RowCtx<'_>,
    ) -> Result<Evaluated, EngineError> {
        // Short-circuit three-valued AND/OR.
        if op == BinaryOp::And || op == BinaryOp::Or {
            let l = self.eval(left, ctx)?.value.truthiness();
            if op == BinaryOp::And && l == Some(false) {
                return Ok(Evaluated {
                    value: Value::Boolean(false),
                    provenance: Provenance::OTHER,
                });
            }
            if op == BinaryOp::Or && l == Some(true) {
                return Ok(Evaluated {
                    value: Value::Boolean(true),
                    provenance: Provenance::OTHER,
                });
            }
            let r = self.eval(right, ctx)?.value.truthiness();
            let value = match (op, l, r) {
                (BinaryOp::And, Some(a), Some(b)) => Value::Boolean(a && b),
                (BinaryOp::Or, Some(a), Some(b)) => Value::Boolean(a || b),
                (BinaryOp::And, _, Some(false)) => Value::Boolean(false),
                (BinaryOp::Or, _, Some(true)) => Value::Boolean(true),
                _ => Value::Null,
            };
            return Ok(Evaluated { value, provenance: Provenance::OTHER });
        }
        let l = self.eval(left, ctx)?;
        let r = self.eval(right, ctx)?;
        let value = self.binary_op_value(op, &l.value, &r.value)?;
        Ok(Evaluated { value, provenance: Provenance::OTHER })
    }

    /// Combines two already-evaluated operand values for every binary
    /// operator except the short-circuiting AND/OR.
    pub(crate) fn binary_op_value(
        &mut self,
        op: BinaryOp,
        l: &Value,
        r: &Value,
    ) -> Result<Value, EngineError> {
        match op {
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Rem => {
                self.arith(op, l, r)
            }
            BinaryOp::Concat => Ok(match (l, r) {
                (Value::Null, _) | (_, Value::Null) => Value::Null,
                (a, b) => Value::Text(format!("{}{}", a.render(), b.render())),
            }),
            BinaryOp::Like => self.like(l, r),
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => {
                let ord = l
                    .sql_cmp(r)
                    .map_err(|e| EngineError::Sql(SqlError::TypeError(e.to_string())))?;
                Ok(match ord {
                    None => Value::Null,
                    Some(o) => {
                        use std::cmp::Ordering::*;
                        let b = match op {
                            BinaryOp::Eq => o == Equal,
                            BinaryOp::NotEq => o != Equal,
                            BinaryOp::Lt => o == Less,
                            BinaryOp::LtEq => o != Greater,
                            BinaryOp::Gt => o == Greater,
                            BinaryOp::GtEq => o != Less,
                            _ => unreachable!("comparison ops only"),
                        };
                        Value::Boolean(b)
                    }
                })
            }
            BinaryOp::And | BinaryOp::Or => unreachable!("AND/OR short-circuit separately"),
        }
    }

    fn arith(&mut self, op: BinaryOp, l: &Value, r: &Value) -> Result<Value, EngineError> {
        if l.is_null() || r.is_null() {
            return Ok(Value::Null);
        }
        if matches!(l, Value::Star) || matches!(r, Value::Star) {
            return Err(EngineError::Sql(SqlError::TypeError(
                "'*' is not a valid operand".into(),
            )));
        }
        // Date/time arithmetic with intervals.
        if let (Value::Date(_) | Value::DateTime(_), Value::Interval(iv)) = (l, r) {
            let dt = match l {
                Value::Date(d) => {
                    soft_types::datetime::DateTime::new(*d, soft_types::datetime::Time::MIDNIGHT)
                }
                Value::DateTime(dt) => *dt,
                _ => unreachable!("matched above"),
            };
            let iv = if op == BinaryOp::Sub { iv.neg() } else { *iv };
            if op != BinaryOp::Add && op != BinaryOp::Sub {
                return Err(EngineError::Sql(SqlError::TypeError(
                    "only +/- between temporal and interval".into(),
                )));
            }
            return match dt.add_interval(&iv) {
                Ok(out) => Ok(Value::DateTime(out)),
                Err(_) => Ok(Value::Null),
            };
        }
        // Integer fast path.
        if let (Value::Integer(a), Value::Integer(b)) = (l, r) {
            match op {
                BinaryOp::Add => {
                    if let Some(v) = a.checked_add(*b) {
                        return Ok(Value::Integer(v));
                    }
                }
                BinaryOp::Sub => {
                    if let Some(v) = a.checked_sub(*b) {
                        return Ok(Value::Integer(v));
                    }
                }
                BinaryOp::Mul => {
                    if let Some(v) = a.checked_mul(*b) {
                        return Ok(Value::Integer(v));
                    }
                }
                BinaryOp::Rem => {
                    if *b == 0 {
                        return Ok(Value::Null);
                    }
                    return Ok(Value::Integer(a.wrapping_rem(*b)));
                }
                _ => {}
            }
        }
        // Float path when floats are involved or coercion is needed.
        let use_float = matches!(l, Value::Float(_))
            || matches!(r, Value::Float(_))
            || !matches!(l, Value::Integer(_) | Value::Decimal(_))
            || !matches!(r, Value::Integer(_) | Value::Decimal(_));
        if use_float {
            let a = l
                .as_f64()
                .unwrap_or_else(|| soft_types::value::parse_numeric_prefix(&l.render()));
            let b = r
                .as_f64()
                .unwrap_or_else(|| soft_types::value::parse_numeric_prefix(&r.render()));
            let v = match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                BinaryOp::Div => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a / b
                }
                BinaryOp::Rem => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a % b
                }
                _ => unreachable!("arith ops only"),
            };
            return Ok(Value::Float(v));
        }
        // Exact decimal path (covers int overflow promotion too).
        let to_dec = |v: &Value| -> Decimal {
            match v {
                Value::Integer(i) => Decimal::from_i64(*i),
                Value::Decimal(d) => d.clone(),
                _ => unreachable!("numeric checked above"),
            }
        };
        let a = to_dec(l);
        let b = to_dec(r);
        let result = match op {
            BinaryOp::Add => a.checked_add(&b),
            BinaryOp::Sub => a.checked_sub(&b),
            BinaryOp::Mul => a.checked_mul(&b),
            BinaryOp::Div => {
                if b.is_zero() {
                    return Ok(Value::Null);
                }
                a.checked_div(&b)
            }
            BinaryOp::Rem => {
                if b.is_zero() {
                    return Ok(Value::Null);
                }
                a.checked_rem(&b)
            }
            _ => unreachable!("arith ops only"),
        };
        match result {
            Ok(d) => Ok(Value::Decimal(d)),
            Err(e) => Err(EngineError::Sql(SqlError::Runtime(e.to_string()))),
        }
    }

    fn like(&mut self, l: &Value, r: &Value) -> Result<Value, EngineError> {
        if l.is_null() || r.is_null() {
            return Ok(Value::Null);
        }
        let s = l.render();
        let pattern = r.render();
        // Translate the LIKE pattern to a regex.
        let mut rx = String::from("^");
        for c in pattern.chars() {
            match c {
                '%' => rx.push_str(".*"),
                '_' => rx.push('.'),
                c if "\\.+*?()|[]{}^$".contains(c) => {
                    rx.push('\\');
                    rx.push(c);
                }
                c => rx.push(c),
            }
        }
        rx.push('$');
        let re = Regex::compile(&rx)
            .map_err(|e| EngineError::Sql(SqlError::Runtime(format!("bad LIKE pattern: {e}"))))?;
        match re.is_match(&s) {
            Ok(b) => Ok(Value::Boolean(b)),
            Err(e) => Err(EngineError::Sql(SqlError::Runtime(format!(
                "LIKE evaluation failed: {e}"
            )))),
        }
    }

    fn eval_function(
        &mut self,
        fx: &FunctionExpr,
        ctx: RowCtx<'_>,
    ) -> Result<Evaluated, EngineError> {
        // The name resolves at the call: the registry folds case in a stack
        // buffer and allocates nothing. `called` is the registry's stored
        // lowercase key for the spelling, what coverage records as called.
        // Copying the registry reference out of `self` keeps the `&'e`
        // borrows from pinning `self`.
        let registry = self.registry;
        let Some((called, def)) = registry.resolve_entry(&fx.name) else {
            return self.sem(format!("unknown function {}", fx.name));
        };
        let canonical = def.name;
        // Arity check (COUNT(*) arrives as one Star argument).
        let argc = fx.args.len();
        if argc < def.min_args || def.max_args.is_some_and(|m| argc > m) {
            return self.sem(format!(
                "{} expects {}..{} arguments, got {argc}",
                canonical,
                def.min_args,
                def.max_args.map(|m| m.to_string()).unwrap_or_else(|| "∞".into())
            ));
        }
        if fx.distinct && !def.is_aggregate() {
            return self.sem(format!("DISTINCT is only valid in aggregates, not {canonical}"));
        }
        match def.implementation {
            FunctionImpl::Scalar(imp) => {
                let mut args = Vec::with_capacity(argc);
                for a in &fx.args {
                    args.push(self.eval(a, ctx)?);
                }
                self.record_call(canonical, &args);
                self.check_faults(called, canonical, std::slice::from_ref(&args))?;
                let value = self.run_body(called, canonical, |fn_ctx| imp(fn_ctx, &args))?;
                // Wrong-result quirks corrupt the return value *after* the
                // real implementation ran — the crash plane above is
                // untouched, and the logic-bug oracles are what notice the
                // corruption.
                let value = match self.faults.check_quirk(canonical, &args) {
                    Some(quirk) => quirk.apply(value),
                    None => value,
                };
                Ok(Evaluated { value, provenance: Provenance::function_return(canonical) })
            }
            FunctionImpl::Aggregate(imp) => {
                let Some(group) = ctx.group else {
                    return self.sem(format!("aggregate {canonical} is not allowed here"));
                };
                // Evaluate the argument expressions once per group row.
                let mut per_row: Vec<Vec<Evaluated>> = Vec::with_capacity(group.len());
                for row in group {
                    let row_ctx =
                        RowCtx { columns: ctx.columns, row: Some(row), group: None };
                    let mut args = Vec::with_capacity(argc);
                    for a in &fx.args {
                        if contains_aggregate_err(self.registry, a) {
                            return self.sem("aggregates cannot be nested");
                        }
                        args.push(self.eval(a, row_ctx)?);
                    }
                    per_row.push(args);
                }
                // Empty group with literal args: evaluate once against no
                // row so faults/coverage still see the argument shapes.
                if per_row.is_empty() {
                    let mut args = Vec::with_capacity(argc);
                    let no_row = RowCtx { columns: ctx.columns, row: None, group: None };
                    for a in &fx.args {
                        args.push(self.eval(a, no_row)?);
                    }
                    self.record_call(canonical, &args);
                    self.check_faults(called, canonical, std::slice::from_ref(&args))?;
                } else {
                    for args in per_row.iter().take(8) {
                        self.record_call(canonical, args);
                    }
                    self.check_faults(called, canonical, &per_row)?;
                }
                let value = self
                    .run_body(called, canonical, |fn_ctx| imp(fn_ctx, &per_row, fx.distinct))?;
                Ok(Evaluated { value, provenance: Provenance::function_return(canonical) })
            }
        }
    }

    pub(crate) fn record_call(&mut self, canonical: &str, args: &[Evaluated]) {
        let function = coverage::name_id(canonical);
        let cov = &mut *self.coverage;
        cov.record_feature(function, Feature::Arity(args.len().min(8) as u8));
        for (i, a) in (0u8..4).zip(args) {
            cov.record_feature(function, Feature::ArgType(i, a.value.data_type()));
            let mut bits = boundary::class_bits(&a.value);
            while bits != 0 {
                cov.record_feature(function, Feature::ArgClass(i, bits.trailing_zeros() as u8));
                bits &= bits - 1;
            }
            // Provenance features: nested-function and cast-fed arguments
            // exercise different code paths.
            if a.provenance.from_function(None) {
                cov.record_feature(function, Feature::ArgFromFn(i));
            }
            if a.provenance.via_cast(None) {
                cov.record_feature(function, Feature::ArgViaCast(i));
            }
        }
    }

    /// Checks the function-site faults against each evaluated argument
    /// list (one per call, or one per group row for an aggregate). A fault
    /// that fires means the function was reached: it counts as triggered.
    fn check_faults(
        &mut self,
        called: &str,
        canonical: &'static str,
        calls: &[Vec<Evaluated>],
    ) -> Result<(), EngineError> {
        for args in calls {
            if let Some(fault) = self.faults.check_function(canonical, args) {
                self.coverage.record_function(called);
                return Err(EngineError::Crash(fault.crash(Some(canonical))));
            }
        }
        Ok(())
    }

    /// Runs a built-in's body with the per-call context. Table 5
    /// semantics: a function is *triggered* when its body actually
    /// executed — an argument-coercion (type) failure means the call never
    /// entered the function's own logic.
    fn run_body(
        &mut self,
        called: &str,
        canonical: &'static str,
        body: impl FnOnce(&mut FnCtx<'_>) -> Result<Value, EngineError>,
    ) -> Result<Value, EngineError> {
        let result = body(&mut FnCtx {
            name: canonical,
            strictness: self.strictness,
            limits: &self.limits,
            coverage: self.coverage,
            faults: self.faults,
            session: self.session,
            memory_used: &mut self.memory_used,
        });
        if !matches!(result, Err(EngineError::Sql(SqlError::TypeError(_)))) {
            self.coverage.record_function(called);
        }
        result
    }

    /// Casts through the engine's one cast site ([`perform_cast`]).
    fn cast(
        &mut self,
        operand: &Evaluated,
        to: DataType,
        explicit: bool,
    ) -> Result<Evaluated, EngineError> {
        let limits = self.cast_limits();
        perform_cast(operand, to, explicit, self.strictness, &limits, self.coverage, self.faults)
    }
}

/// Unary-operator semantics over an already-evaluated operand.
pub(crate) fn unary_op_result(op: UnaryOp, inner: Evaluated) -> Evaluated {
    match op {
        UnaryOp::Plus => inner,
        UnaryOp::Neg => {
            let keep_literal = inner.provenance.is_literal();
            let value = match inner.value {
                Value::Null => Value::Null,
                Value::Integer(i) => match i.checked_neg() {
                    Some(v) => Value::Integer(v),
                    None => Value::Decimal(Decimal::from_i128(-(i as i128))),
                },
                Value::Decimal(d) => Value::Decimal(d.neg()),
                Value::Float(f) => Value::Float(-f),
                other => {
                    let f = soft_types::value::parse_numeric_prefix(&other.render());
                    Value::Float(-f)
                }
            };
            Evaluated {
                value,
                // A negated literal is still a boundary *literal*
                // (P1.1's -0.99999 must count as literal provenance).
                provenance: if keep_literal {
                    Provenance::LITERAL
                } else {
                    Provenance::OTHER
                },
            }
        }
        UnaryOp::Not => {
            let value = match inner.value.truthiness() {
                None => Value::Null,
                Some(b) => Value::Boolean(!b),
            };
            Evaluated { value, provenance: Provenance::OTHER }
        }
    }
}

/// The engine value of a literal as written.
pub(crate) fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Null => Value::Null,
        Literal::Boolean(b) => Value::Boolean(*b),
        Literal::String(s) => Value::Text(s.clone()),
        Literal::HexBlob(b) => Value::Binary(b.clone()),
        Literal::Number(raw) => number_literal_value(raw),
    }
}

/// `IS [NOT] NULL` semantics.
pub(crate) fn is_null_result(v: &Value, negated: bool) -> Value {
    Value::Boolean(v.is_null() != negated)
}

/// `BETWEEN` semantics over already-evaluated operand values.
pub(crate) fn between_result(v: &Value, lo: &Value, hi: &Value, negated: bool) -> Value {
    let ge = v.sql_cmp(lo).unwrap_or(None);
    let le = v.sql_cmp(hi).unwrap_or(None);
    match (ge, le) {
        (Some(a), Some(b)) => {
            let inside = a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater;
            Value::Boolean(inside != negated)
        }
        _ => Value::Null,
    }
}

/// Parses a numeric literal, preferring exact representations:
/// integer → decimal → float (for digit counts beyond the decimal cap).
///
/// The cap counts stored digits, scale included, so an exponent form such
/// as `1e-400000000` (one digit, scale 400,000,000) is a double too — the
/// limit the cast path enforces, applied where the literal becomes a value.
pub fn number_literal_value(raw: &str) -> Value {
    let plain_int = !raw.contains('.') && !raw.contains('e') && !raw.contains('E');
    if plain_int {
        if let Ok(i) = raw.parse::<i64>() {
            return Value::Integer(i);
        }
    }
    match raw.parse::<Decimal>() {
        Ok(d) if d.total_digits() <= soft_types::decimal::MAX_DIGITS => Value::Decimal(d),
        // Beyond MAX_DIGITS the studied DBMSs fall back to doubles.
        _ => Value::Float(soft_types::value::parse_numeric_prefix(raw)),
    }
}

/// AST-level aggregate detection. Does not recurse into subqueries, which
/// establish their own aggregate scope (`WHERE x = (SELECT MAX(..) ..)` is
/// legal).
pub(crate) fn contains_aggregate_err(registry: &FunctionRegistry, expr: &Expr) -> bool {
    fn walk(registry: &FunctionRegistry, e: &Expr) -> bool {
        match e {
            Expr::Function(fx) => {
                if registry.resolve(&fx.name).is_some_and(|d| d.is_aggregate()) {
                    return true;
                }
                fx.args.iter().any(|a| walk(registry, a))
            }
            Expr::Subquery(_) | Expr::Exists(_) => false,
            Expr::Cast { expr, .. } | Expr::Unary { expr, .. } => walk(registry, expr),
            Expr::Binary { left, right, .. } => walk(registry, left) || walk(registry, right),
            Expr::IsNull { expr, .. } => walk(registry, expr),
            Expr::InList { expr, list, .. } => {
                walk(registry, expr) || list.iter().any(|a| walk(registry, a))
            }
            Expr::Between { expr, low, high, .. } => {
                walk(registry, expr) || walk(registry, low) || walk(registry, high)
            }
            Expr::Row(items) | Expr::ArrayLiteral(items) => {
                items.iter().any(|a| walk(registry, a))
            }
            Expr::Case { operand, branches, else_expr } => {
                operand.as_deref().is_some_and(|o| walk(registry, o))
                    || branches
                        .iter()
                        .any(|(w, t)| walk(registry, w) || walk(registry, t))
                    || else_expr.as_deref().is_some_and(|x| walk(registry, x))
            }
            Expr::IntervalLiteral { quantity, .. } => walk(registry, quantity),
            Expr::Literal(_) | Expr::Column(_) | Expr::Star => false,
        }
    }
    walk(registry, expr)
}

/// Resolves a written type name (possibly parameterised or dialect-flavoured
/// like `Decimal256(45)`) to an engine type.
pub fn resolve_type_name(t: &TypeName) -> Option<DataType> {
    if let Some(dt) = DataType::parse_sql_name(&t.name) {
        return Some(dt);
    }
    let lower = t.name.to_ascii_lowercase();
    if lower.starts_with("decimal") || lower.starts_with("numeric") || lower.starts_with("dec") {
        return Some(DataType::Decimal);
    }
    if lower.starts_with("int") || lower.starts_with("uint") || lower.starts_with("bigint") {
        return Some(DataType::Integer);
    }
    if lower.starts_with("float") || lower.starts_with("double") {
        return Some(DataType::Float);
    }
    if lower.starts_with("varchar") || lower.starts_with("char") || lower.starts_with("string") {
        return Some(DataType::Text);
    }
    if lower.starts_with("datetime") || lower.starts_with("timestamp") {
        return Some(DataType::DateTime);
    }
    if lower.starts_with("varbinary") || lower.starts_with("binary") || lower.starts_with("blob")
    {
        return Some(DataType::Binary);
    }
    None
}

/// Common UNION column-type unification: pick the "wider" representation.
fn union_type(a: DataType, b: DataType) -> DataType {
    use DataType::*;
    if a == Null {
        return b;
    }
    if b == Null || a == b {
        return a;
    }
    let rank = |t: DataType| match t {
        Boolean => 1,
        Integer => 2,
        Decimal => 3,
        Float => 4,
        _ => 9,
    };
    if a.is_numeric() && b.is_numeric() || a == Boolean || b == Boolean {
        return if rank(a) >= rank(b) { a } else { b };
    }
    // Mixed non-numeric types settle on text.
    Text
}

fn dedup_rows(rows: Vec<Vec<Evaluated>>) -> Vec<Vec<Evaluated>> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let key: String =
            row.iter().map(|e| e.value.group_key()).collect::<Vec<_>>().join("\u{1}");
        if seen.insert(key) {
            out.push(row);
        }
    }
    out
}

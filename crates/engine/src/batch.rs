//! Columnar batch execution: same-shape statements evaluated together.
//!
//! Campaign corpora are embarrassingly batchable — thousands of generated
//! statements share a handful of AST shapes and differ only in their boundary
//! literals. This module exploits that: statements are grouped by a
//! structural [`ShapeKey`], each group's literals are bound into
//! [`soft_types::column::ColumnVec`] argument columns, and the group is
//! evaluated node-by-node over whole columns instead of statement-by-
//! statement over single values.
//!
//! The contract is *exact scalar equivalence*: for every group member the
//! demultiplexed [`ExecOutcome`] — class, values, error message, crash
//! report — and every coverage/fault side effect is identical to what
//! [`crate::Engine::execute_prepared`] produces for that member alone. The
//! batch path is a throughput optimisation, never a semantics change; where
//! vectorisation cannot preserve semantics (volatile functions, columns,
//! subqueries, short-circuit operators at the node level) the statement or
//! node falls back to the scalar evaluator.
//!
//! How exactness is kept:
//!
//! - **Masking.** Serial execution aborts a statement at its first error.
//!   The batch keeps a per-row status; once a row errors, every later node
//!   skips it, so no extra coverage or faults are recorded for that row.
//! - **Node order.** Nodes are laid out in the serial evaluator's order
//!   (arguments left-to-right, depth-first, select items in sequence), so
//!   "first error wins" picks the same error the serial walk would.
//! - **Structural verification.** Groups are formed by a hash key; binding
//!   re-walks every member against the representative's plan and bails out
//!   (scalar fallback) on any mismatch, so a hash collision costs
//!   performance, never correctness.
//! - **Per-row state.** Function memory accounting and fallback-node
//!   evaluation thread each row's own `memory_used` through the shared
//!   executor, exactly as a fresh `Exec` per statement would.

use crate::engine::Prepared;
use crate::error::{EngineError, ExecOutcome, ResultSet, SqlError};
use crate::eval::{Evaluated, Provenance};
use crate::executor::{
    between_result, contains_aggregate_err, is_null_result, literal_value, resolve_type_name,
    unary_op_result, Exec, RowCtx,
};
use crate::registry::{perform_cast, FnCtx, FunctionImpl, FunctionRegistry};
use soft_parser::ast::{
    BinaryOp, Expr, Query, SelectBody, SelectItem, Statement, TypeName, UnaryOp,
};
use soft_types::boundary;
use soft_types::column::{ColumnArena, ColumnVec};
use soft_types::value::{DataType, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Functions whose results depend on or mutate session state. Batching
/// reorders evaluation across a shard window, so statements calling any of
/// these stay on the scalar path.
const VOLATILE: &[&str] =
    &["rand", "uuid", "last_insert_id", "nextval", "currval", "lastval", "setval"];

/// Smallest group size worth batching. Compiling and binding a plan costs a
/// few hundred nanoseconds per group regardless of member count; measured on
/// the bench corpora, groups of two lose more to that fixed cost than two
/// rows of columnar execution recover (0.96x vs serial), while groups of
/// five or more win 1.3x and up. Callers route smaller groups to the scalar
/// path — a pure policy choice: [`Engine::execute_batch_in`] itself stays
/// exact at any size.
///
/// [`Engine::execute_batch_in`]: crate::Engine::execute_batch_in
pub const MIN_BATCH_GROUP: usize = 3;

/// A structural fingerprint of a batchable statement.
///
/// Two statements with equal keys have (modulo hash collision, which binding
/// detects) the same AST shape — same operators, same function spellings
/// up to case, same arities — and differ only in literal values, so they can
/// share one compiled batch plan. `None`-keyed statements (columns,
/// subqueries, aggregates, volatile functions, non-SELECT, …) always take
/// the scalar path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeKey(u64);

/// Computes the shape key of a prepared statement, or `None` when the
/// statement is not batchable.
pub(crate) fn shape_key(registry: &FunctionRegistry, stmt: &Statement) -> Option<ShapeKey> {
    let q = batchable_query(registry, stmt)?;
    let mut h = DefaultHasher::new();
    q.items.len().hash(&mut h);
    for item in &q.items {
        if let SelectItem::Expr { expr, .. } = item {
            hash_expr(expr, &mut h);
        }
    }
    Some(ShapeKey(h.finish()))
}

/// The single scalar `Query` of a batchable statement: a `SELECT` of pure
/// expressions with no source rows and no row-set machinery.
fn batchable_query<'s>(registry: &FunctionRegistry, stmt: &'s Statement) -> Option<&'s Query> {
    let q = query_of(stmt)?;
    for item in &q.items {
        let SelectItem::Expr { expr, .. } = item else { return None };
        if contains_aggregate_err(registry, expr) || !batchable_expr(registry, expr) {
            return None;
        }
    }
    Some(q)
}

/// The clause-level shape of a batchable statement, without the recursive
/// expression walk — what member binding needs: `batchable_query` minus
/// [`batchable_expr`]/aggregate validation, which `bind` re-establishes
/// against the compiled plan.
fn query_of(stmt: &Statement) -> Option<&Query> {
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
    Some(q)
}

/// Expression-level batchability: no row/catalog references, no subqueries,
/// every function resolvable, scalar and non-volatile.
fn batchable_expr(registry: &FunctionRegistry, e: &Expr) -> bool {
    match e {
        Expr::Literal(_) | Expr::Star => true,
        Expr::Column(_) | Expr::Subquery(_) | Expr::Exists(_) => false,
        Expr::Function(fx) => {
            let Some(def) = registry.resolve(&fx.name) else {
                // Unknown functions error before argument evaluation with a
                // message quoting the as-written spelling; cheapest to leave
                // them on the scalar path than to model that in a column.
                return false;
            };
            if def.is_aggregate() || VOLATILE.contains(&def.name) {
                return false;
            }
            fx.args.iter().all(|a| batchable_expr(registry, a))
        }
        Expr::Cast { expr, .. } | Expr::Unary { expr, .. } => batchable_expr(registry, expr),
        Expr::Binary { left, right, .. } => {
            batchable_expr(registry, left) && batchable_expr(registry, right)
        }
        Expr::IsNull { expr, .. } => batchable_expr(registry, expr),
        Expr::InList { expr, list, .. } => {
            batchable_expr(registry, expr) && list.iter().all(|a| batchable_expr(registry, a))
        }
        Expr::Between { expr, low, high, .. } => {
            batchable_expr(registry, expr)
                && batchable_expr(registry, low)
                && batchable_expr(registry, high)
        }
        Expr::Case { operand, branches, else_expr } => {
            operand.as_deref().map_or(true, |o| batchable_expr(registry, o))
                && branches
                    .iter()
                    .all(|(w, t)| batchable_expr(registry, w) && batchable_expr(registry, t))
                && else_expr.as_deref().map_or(true, |x| batchable_expr(registry, x))
        }
        Expr::Row(items) | Expr::ArrayLiteral(items) => {
            items.iter().all(|a| batchable_expr(registry, a))
        }
        Expr::IntervalLiteral { quantity, .. } => batchable_expr(registry, quantity),
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
        // Literal *kinds* are deliberately excluded: slots that mix e.g.
        // numbers and strings across members simply land in a Mixed column.
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
        // Non-batchable shapes never reach the hash, but keep them distinct
        // anyway so the function is total.
        Expr::Column(name) => {
            14u8.hash(h);
            hash_lower(name, h);
        }
        Expr::Subquery(_) => 15u8.hash(h),
        Expr::Exists(_) => 16u8.hash(h),
    }
}

/// Reusable scratch for the batch executor. One arena lives per shard (or
/// bench loop) so steady-state batches recycle every column, argument buffer
/// and index buffer instead of allocating per group.
#[derive(Default)]
pub struct BatchArena {
    cols: ColumnArena,
    args: Vec<Evaluated>,
    kids: Vec<usize>,
    srcs: Vec<Src>,
    status: Vec<Option<EngineError>>,
    mems: Vec<usize>,
}

impl BatchArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Where a node's per-row inputs come from during execution.
#[derive(Clone, Copy)]
enum Src {
    /// Child is `*`: the argument slot is pre-filled once, never reloaded.
    Star,
    /// Child has a shared column: load the value, provenance is pre-set.
    Shared,
    /// Child stores whole `Evaluated`s: move the row's value out.
    PerRow,
    /// Child never produces output (constant error); all rows are masked
    /// before this parent runs, so the slot is never read.
    Masked,
}

/// One step of a compiled batch plan, in serial evaluation order.
struct Node<'p> {
    kind: NodeKind<'p>,
    out: NodeOut,
}

enum NodeKind<'p> {
    /// A literal slot; binding pushes each member's value into `out`.
    Lit,
    /// Bare `*` (reaches functions as `Value::Star`).
    Star,
    /// Unary `+`: forwards its child untouched, exactly like the serial
    /// evaluator.
    Alias { child: usize },
    /// A structural error raised before argument evaluation (bad arity,
    /// scalar DISTINCT). `name`/`argc`/`distinct` re-verify members.
    ConstError { err: SqlError, name: &'p str, argc: usize, distinct: bool },
    /// A scalar function call.
    Func {
        children: Vec<usize>,
        /// As-written spelling (for bind verification).
        name: &'p str,
        distinct: bool,
        /// Interned lowercase spelling, what `record_function` sees.
        called: String,
        canonical: &'static str,
        imp: fn(&mut FnCtx<'_>, &[Evaluated]) -> Result<Value, EngineError>,
        /// Prefetched: any crash fault / quirk targets `canonical`.
        has_faults: bool,
        has_quirks: bool,
        /// Distinct argument signatures already fed to `record_call` — the
        /// per-call coverage features are a pure function of this key, so
        /// repeats are skipped. A linear scan over `Copy` keys beats a
        /// hash set at campaign group sizes (a handful of members, fewer
        /// distinct signatures).
        memo: Vec<CallKey>,
        /// `record_function` fired at least once (set-based, so once is
        /// exactly as observable as once-per-row).
        recorded: bool,
    },
    /// `CAST(child AS ty)`. The unknown-type error is pre-formatted; per
    /// serial semantics it is raised *after* the operand evaluates.
    Cast { child: usize, ty: Result<DataType, SqlError>, type_name: &'p TypeName },
    /// Unary `-` / `NOT`.
    Unary { child: usize, op: UnaryOp },
    /// Any binary operator except `AND`/`OR` (which short-circuit and so
    /// run as fallback nodes).
    Binary { left: usize, right: usize, op: BinaryOp },
    IsNull { child: usize, negated: bool },
    Between { expr: usize, low: usize, high: usize, negated: bool },
    RowCtor { children: Vec<usize> },
    ArrayCtor { children: Vec<usize> },
    /// Control-flow subtrees (`AND`/`OR`/`CASE`/`IN`/`INTERVAL`): each
    /// member's own expression is evaluated by the serial evaluator with
    /// that row's memory state — exact by construction.
    Fallback { members: Vec<&'p Expr> },
}

enum NodeOut {
    /// No output storage (`Star`, `Alias`, `ConstError`).
    None,
    /// A typed column plus one provenance shared by every row.
    Shared { col: ColumnVec, prov: Provenance },
    /// Whole per-row `Evaluated`s (casts, fallbacks: provenance varies).
    PerRow(Vec<Option<Evaluated>>),
}

/// The argument-signature key that determines every feature `record_call`
/// would emit: arity plus, for the first four arguments, data type, boundary
/// classes and provenance flags. Everything is packed into `Copy` scalars —
/// boundary classes as the [`boundary::class_bits`] bitmask — so building
/// and hashing a key on the per-row hot path allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct CallKey {
    arity: usize,
    args: [Option<ArgKey>; 4],
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct ArgKey {
    ty: DataType,
    class_bits: u32,
    from_fn: bool,
    via_cast: bool,
}

fn call_key(args: &[Evaluated]) -> CallKey {
    let mut keyed: [Option<ArgKey>; 4] = [None, None, None, None];
    for (i, a) in args.iter().enumerate().take(4) {
        keyed[i] = Some(ArgKey {
            ty: a.value.data_type(),
            class_bits: boundary::class_bits(&a.value),
            from_fn: a.provenance.from_function(None),
            via_cast: a.provenance.via_cast(None),
        });
    }
    CallKey { arity: args.len(), args: keyed }
}

/// Executes a group of same-shape prepared statements as one batch.
///
/// Returns `None` (with no side effects) when the group is not batchable —
/// the caller falls back to per-statement execution. On `Some`, the
/// outcomes are exactly what `execute_prepared` would have produced for
/// each member, in member order.
pub(crate) fn execute_batch(
    exec: &mut Exec<'_>,
    members: &[&Prepared],
    arena: &mut BatchArena,
) -> Option<Vec<ExecOutcome>> {
    let mut nodes: Vec<Node> = Vec::new();
    let result = run_batch(exec, members, arena, &mut nodes);
    // Columns go back to the pool on every exit path, including bind
    // failures.
    for node in nodes {
        if let NodeOut::Shared { col, .. } = node.out {
            arena.cols.put_column(col);
        }
    }
    result
}

fn run_batch<'p>(
    exec: &mut Exec<'_>,
    members: &[&'p Prepared],
    arena: &mut BatchArena,
    nodes: &mut Vec<Node<'p>>,
) -> Option<Vec<ExecOutcome>> {
    let n = members.len();
    if n == 0 {
        return Some(Vec::new());
    }
    if exec.limits.max_rows < 1 {
        // The scalar path would report a resource limit for the single
        // output row; not worth modelling here.
        return None;
    }
    let BatchArena { cols, args, kids, srcs, status, mems } = arena;

    // Compile the representative's items into a plan. The representative is
    // validated in full (every expression batchable); other members are only
    // clause-checked here because `bind` re-verifies their structure against
    // the compiled plan node for node — the one plan shape binding cannot
    // see through is a `Fallback` subtree, and that arm re-checks
    // batchability itself.
    let rep_q = batchable_query(exec.registry, &members[0].stmt)?;
    let mut roots = Vec::with_capacity(rep_q.items.len());
    for item in &rep_q.items {
        let SelectItem::Expr { expr, .. } = item else { return None };
        roots.push(compile(exec, nodes, cols, expr)?);
    }
    // Output column names come from the representative. For unaliased
    // expressions the serial path renders each member's own text; nothing
    // downstream (signatures, reports, journals) reads column names of
    // generated statements, so one rendering per group is safe — see
    // ARCHITECTURE.md.
    let columns: Vec<String> = rep_q
        .items
        .iter()
        .enumerate()
        .map(|(i, item)| Exec::output_name(item, i))
        .collect();

    // Bind every member against the plan, filling literal columns and
    // fallback member lists. Any structural mismatch aborts the batch.
    for m in members {
        let mq = query_of(&m.stmt)?;
        if mq.items.len() != roots.len() {
            return None;
        }
        for (&root, item) in roots.iter().zip(&mq.items) {
            let SelectItem::Expr { expr, .. } = item else { return None };
            bind(exec.registry, nodes, root, expr)?;
        }
    }

    // Execute. From here on nothing can fail structurally: every row either
    // completes or carries its own serial-equivalent error.
    status.clear();
    status.resize_with(n, || None);
    mems.clear();
    mems.resize(n, 0);
    for node in nodes.iter_mut() {
        if let NodeOut::PerRow(v) = &mut node.out {
            v.clear();
            v.resize_with(n, || None);
        }
    }

    for i in 0..nodes.len() {
        let (prev, rest) = nodes.split_at_mut(i);
        let Node { kind, out } = &mut rest[0];
        match kind {
            NodeKind::Lit | NodeKind::Star | NodeKind::Alias { .. } => {}
            NodeKind::ConstError { err, .. } => {
                for s in status.iter_mut() {
                    if s.is_none() {
                        *s = Some(EngineError::Sql(err.clone()));
                    }
                }
            }
            NodeKind::Fallback { members } => {
                let NodeOut::PerRow(outv) = out else { unreachable!("fallback stores per-row") };
                for (r, slot) in outv.iter_mut().enumerate() {
                    if status[r].is_some() {
                        continue;
                    }
                    exec.memory_used = mems[r];
                    match exec.eval(members[r], RowCtx::EMPTY) {
                        Ok(ev) => *slot = Some(ev),
                        Err(e) => status[r] = Some(e),
                    }
                    mems[r] = exec.memory_used;
                }
            }
            NodeKind::Cast { child, ty, .. } => {
                prep_children(prev, std::slice::from_ref(child), kids, srcs, args);
                let NodeOut::PerRow(outv) = out else { unreachable!("cast stores per-row") };
                for (r, slot) in outv.iter_mut().enumerate() {
                    if status[r].is_some() {
                        continue;
                    }
                    load_row(prev, kids, srcs, r, args);
                    // Serial order: operand first, then the type check.
                    let ty = match ty {
                        Ok(t) => *t,
                        Err(e) => {
                            status[r] = Some(EngineError::Sql(e.clone()));
                            continue;
                        }
                    };
                    match perform_cast(
                        &args[0],
                        ty,
                        true,
                        exec.strictness,
                        &exec.cast_limits(),
                        exec.coverage,
                        exec.faults,
                    ) {
                        Ok(ev) => *slot = Some(ev),
                        Err(e) => status[r] = Some(e),
                    }
                }
            }
            NodeKind::Func {
                children,
                called,
                canonical,
                imp,
                has_faults,
                has_quirks,
                memo,
                recorded,
                ..
            } => {
                prep_children(prev, children, kids, srcs, args);
                let k = children.len();
                let NodeOut::Shared { col, .. } = out else { unreachable!("func output column") };
                for r in 0..n {
                    if status[r].is_some() {
                        col.push(&Value::Null);
                        continue;
                    }
                    load_row(prev, kids, srcs, r, args);
                    let call_args = &args[..k];
                    let key = call_key(call_args);
                    if !memo.contains(&key) {
                        memo.push(key);
                        exec.record_call(canonical, call_args);
                    }
                    if *has_faults {
                        if let Some(fault) = exec.faults.check_function(canonical, call_args) {
                            if !*recorded {
                                exec.coverage.record_function(called);
                                *recorded = true;
                            }
                            status[r] = Some(EngineError::Crash(fault.crash(Some(canonical))));
                            col.push(&Value::Null);
                            continue;
                        }
                    }
                    let mut mem = mems[r];
                    let mut fn_ctx = FnCtx {
                        name: canonical,
                        strictness: exec.strictness,
                        limits: &exec.limits,
                        coverage: exec.coverage,
                        faults: exec.faults,
                        session: exec.session,
                        memory_used: &mut mem,
                    };
                    let result = imp(&mut fn_ctx, call_args);
                    mems[r] = mem;
                    // Table 5 semantics, identical to `invoke_scalar`: a
                    // coercion failure means the body never ran.
                    match &result {
                        Err(EngineError::Sql(SqlError::TypeError(_))) => {}
                        _ => {
                            if !*recorded {
                                exec.coverage.record_function(called);
                                *recorded = true;
                            }
                        }
                    }
                    match result {
                        Ok(value) => {
                            let value = if *has_quirks {
                                match exec.faults.check_quirk(canonical, call_args) {
                                    Some(quirk) => quirk.apply(value),
                                    None => value,
                                }
                            } else {
                                value
                            };
                            col.push_owned(value);
                        }
                        Err(e) => {
                            status[r] = Some(e);
                            col.push(&Value::Null);
                        }
                    }
                }
            }
            NodeKind::Unary { child, op } => {
                prep_children(prev, std::slice::from_ref(child), kids, srcs, args);
                let op = *op;
                per_row_or_shared(out, status, |r| {
                    load_row(prev, kids, srcs, r, args);
                    let inner = std::mem::replace(&mut args[0], Evaluated::literal(Value::Null));
                    unary_op_result(op, inner)
                });
            }
            NodeKind::Binary { left, right, op } => {
                let pair = [*left, *right];
                prep_children(prev, &pair, kids, srcs, args);
                let op = *op;
                let NodeOut::Shared { col, .. } = out else { unreachable!("binary output column") };
                for (r, st) in status.iter_mut().enumerate() {
                    if st.is_some() {
                        col.push(&Value::Null);
                        continue;
                    }
                    load_row(prev, kids, srcs, r, args);
                    match exec.binary_op_value(op, &args[0].value, &args[1].value) {
                        Ok(v) => col.push_owned(v),
                        Err(e) => {
                            *st = Some(e);
                            col.push(&Value::Null);
                        }
                    }
                }
            }
            NodeKind::IsNull { child, negated } => {
                prep_children(prev, std::slice::from_ref(child), kids, srcs, args);
                let negated = *negated;
                let NodeOut::Shared { col, .. } = out else { unreachable!("isnull output column") };
                for (r, st) in status.iter().enumerate() {
                    if st.is_some() {
                        col.push(&Value::Null);
                        continue;
                    }
                    load_row(prev, kids, srcs, r, args);
                    col.push_owned(is_null_result(&args[0].value, negated));
                }
            }
            NodeKind::Between { expr, low, high, negated } => {
                let trio = [*expr, *low, *high];
                prep_children(prev, &trio, kids, srcs, args);
                let negated = *negated;
                let NodeOut::Shared { col, .. } = out else { unreachable!("between output column") };
                for (r, st) in status.iter().enumerate() {
                    if st.is_some() {
                        col.push(&Value::Null);
                        continue;
                    }
                    load_row(prev, kids, srcs, r, args);
                    col.push_owned(between_result(
                        &args[0].value,
                        &args[1].value,
                        &args[2].value,
                        negated,
                    ));
                }
            }
            ctor @ (NodeKind::RowCtor { .. } | NodeKind::ArrayCtor { .. }) => {
                let is_row = matches!(ctor, NodeKind::RowCtor { .. });
                let (NodeKind::RowCtor { children } | NodeKind::ArrayCtor { children }) = ctor
                else {
                    unreachable!()
                };
                prep_children(prev, children, kids, srcs, args);
                let k = children.len();
                let NodeOut::Shared { col, .. } = out else { unreachable!("ctor output column") };
                for (r, st) in status.iter().enumerate() {
                    if st.is_some() {
                        col.push(&Value::Null);
                        continue;
                    }
                    load_row(prev, kids, srcs, r, args);
                    let vals: Vec<Value> = args[..k]
                        .iter_mut()
                        .map(|a| std::mem::replace(&mut a.value, Value::Null))
                        .collect();
                    col.push_owned(if is_row { Value::Row(vals) } else { Value::Array(vals) });
                }
            }
        }
    }

    // Demultiplex to per-statement outcomes.
    let mut outcomes = Vec::with_capacity(n);
    for (r, s) in status.iter_mut().enumerate() {
        match s.take() {
            Some(EngineError::Sql(e)) => outcomes.push(ExecOutcome::Error(e)),
            Some(EngineError::Crash(c)) => outcomes.push(ExecOutcome::Crash(c)),
            None => {
                let mut row = Vec::with_capacity(roots.len());
                for &root in &roots {
                    let idx = resolve_alias(nodes, root);
                    let value = match &mut nodes[idx] {
                        Node { kind: NodeKind::Star, .. } => Value::Star,
                        Node { out: NodeOut::Shared { col, .. }, .. } => col.take_at(r),
                        Node { out: NodeOut::PerRow(v), .. } => {
                            v[r].take().map(|e| e.value).unwrap_or(Value::Null)
                        }
                        _ => unreachable!("root node without output"),
                    };
                    row.push(value);
                }
                outcomes
                    .push(ExecOutcome::Rows(ResultSet { columns: columns.clone(), rows: vec![row] }));
            }
        }
    }
    Some(outcomes)
}

/// Compiles one expression subtree into `nodes`, returning its node index.
/// Children are pushed before parents, arguments left to right, so a linear
/// walk over `nodes` evaluates in exactly the serial order.
fn compile<'p>(
    exec: &Exec<'_>,
    nodes: &mut Vec<Node<'p>>,
    cols: &mut ColumnArena,
    e: &'p Expr,
) -> Option<usize> {
    let node = match e {
        Expr::Literal(_) => Node {
            kind: NodeKind::Lit,
            out: NodeOut::Shared { col: cols.take_column(), prov: Provenance::Literal },
        },
        Expr::Star => Node { kind: NodeKind::Star, out: NodeOut::None },
        Expr::Column(_) | Expr::Subquery(_) | Expr::Exists(_) => return None,
        Expr::Function(fx) => {
            let (called, def) =
                match exec.dispatch.iter().find(|en| &*en.spelling == fx.name.as_str()) {
                    Some(en) => (en.lower.to_string(), exec.registry.def_at(en.index as usize)),
                    None => match exec.registry.resolve_entry(&fx.name) {
                        Some((key, _, def)) => (key.to_string(), def),
                        None => return None,
                    },
                };
            let canonical = def.name;
            let argc = fx.args.len();
            if argc < def.min_args || def.max_args.is_some_and(|m| argc > m) {
                // Raised before argument evaluation, so children are not
                // compiled — matching the serial walk, which records nothing
                // for the arguments of an arity error.
                let err = SqlError::Semantic(format!(
                    "{} expects {}..{} arguments, got {argc}",
                    canonical,
                    def.min_args,
                    def.max_args.map(|m| m.to_string()).unwrap_or_else(|| "∞".into())
                ));
                Node {
                    kind: NodeKind::ConstError {
                        err,
                        name: &fx.name,
                        argc,
                        distinct: fx.distinct,
                    },
                    out: NodeOut::None,
                }
            } else if fx.distinct {
                // Aggregates were already rejected by the batchability gate,
                // so DISTINCT here is always the scalar-DISTINCT error.
                let err = SqlError::Semantic(format!(
                    "DISTINCT is only valid in aggregates, not {canonical}"
                ));
                Node {
                    kind: NodeKind::ConstError {
                        err,
                        name: &fx.name,
                        argc,
                        distinct: fx.distinct,
                    },
                    out: NodeOut::None,
                }
            } else {
                let FunctionImpl::Scalar(imp) = &def.implementation else { return None };
                let imp = *imp;
                let mut children = Vec::with_capacity(argc);
                for a in &fx.args {
                    children.push(compile(exec, nodes, cols, a)?);
                }
                Node {
                    kind: NodeKind::Func {
                        children,
                        name: &fx.name,
                        distinct: fx.distinct,
                        called,
                        canonical,
                        imp,
                        has_faults: exec.faults.has_function_faults(canonical),
                        has_quirks: exec.faults.has_quirks_for(canonical),
                        memo: Vec::new(),
                        recorded: false,
                    },
                    out: NodeOut::Shared {
                        col: out_col(cols),
                        prov: Provenance::FunctionReturn { name: canonical.to_string() },
                    },
                }
            }
        }
        Expr::Cast { expr, type_name, .. } => {
            let child = compile(exec, nodes, cols, expr)?;
            let ty = resolve_type_name(type_name)
                .ok_or_else(|| SqlError::Semantic(format!("unknown type {type_name}")));
            Node { kind: NodeKind::Cast { child, ty, type_name }, out: NodeOut::PerRow(Vec::new()) }
        }
        Expr::Unary { op: UnaryOp::Plus, expr } => {
            let child = compile(exec, nodes, cols, expr)?;
            Node { kind: NodeKind::Alias { child }, out: NodeOut::None }
        }
        Expr::Unary { op, expr } => {
            let child = compile(exec, nodes, cols, expr)?;
            let out = match shared_prov(nodes, child) {
                // The result provenance of `-x`/`NOT x` is a pure function
                // of the operand's provenance; when that is row-invariant
                // the output can live in a typed column.
                Some(prov) => {
                    let prov = match op {
                        UnaryOp::Neg if prov.is_literal() => Provenance::Literal,
                        _ => Provenance::Operator,
                    };
                    NodeOut::Shared { col: out_col(cols), prov }
                }
                None => NodeOut::PerRow(Vec::new()),
            };
            Node { kind: NodeKind::Unary { child, op: *op }, out }
        }
        Expr::Binary { left, op, right }
            if !matches!(op, BinaryOp::And | BinaryOp::Or) =>
        {
            let l = compile(exec, nodes, cols, left)?;
            let r = compile(exec, nodes, cols, right)?;
            Node {
                kind: NodeKind::Binary { left: l, right: r, op: *op },
                out: NodeOut::Shared { col: out_col(cols), prov: operator_prov(*op) },
            }
        }
        Expr::IsNull { expr, negated } => {
            let child = compile(exec, nodes, cols, expr)?;
            Node {
                kind: NodeKind::IsNull { child, negated: *negated },
                out: NodeOut::Shared { col: out_col(cols), prov: Provenance::Operator },
            }
        }
        Expr::Between { expr, low, high, negated } => {
            let e = compile(exec, nodes, cols, expr)?;
            let lo = compile(exec, nodes, cols, low)?;
            let hi = compile(exec, nodes, cols, high)?;
            Node {
                kind: NodeKind::Between { expr: e, low: lo, high: hi, negated: *negated },
                out: NodeOut::Shared { col: out_col(cols), prov: Provenance::Operator },
            }
        }
        Expr::Row(items) => {
            let mut children = Vec::with_capacity(items.len());
            for a in items {
                children.push(compile(exec, nodes, cols, a)?);
            }
            Node {
                kind: NodeKind::RowCtor { children },
                out: NodeOut::Shared { col: out_col(cols), prov: Provenance::Constructor },
            }
        }
        Expr::ArrayLiteral(items) => {
            let mut children = Vec::with_capacity(items.len());
            for a in items {
                children.push(compile(exec, nodes, cols, a)?);
            }
            Node {
                kind: NodeKind::ArrayCtor { children },
                out: NodeOut::Shared { col: out_col(cols), prov: Provenance::Constructor },
            }
        }
        // Short-circuit / control-flow shapes: per-row serial evaluation.
        Expr::Binary { .. }
        | Expr::InList { .. }
        | Expr::Case { .. }
        | Expr::IntervalLiteral { .. } => {
            Node { kind: NodeKind::Fallback { members: Vec::new() }, out: NodeOut::PerRow(Vec::new()) }
        }
    };
    nodes.push(node);
    Some(nodes.len() - 1)
}

/// Binary results are operator provenance in the serial evaluator,
/// independent of operands.
fn operator_prov(_op: BinaryOp) -> Provenance {
    Provenance::Operator
}

/// An *output* column: `Mixed`-backed so owned results are moved in by
/// `push_owned` and moved back out by `take_at`/`take_into`. Literal input
/// columns stay typed (they are filled by copying from the AST anyway);
/// output values are produced owned and consumed exactly once, and for
/// boundary-length strings the typed heap's copy-in/allocate-out round trip
/// costs more than the evaluation it stores.
fn out_col(cols: &mut ColumnArena) -> ColumnVec {
    let mut col = cols.take_column();
    col.make_mixed();
    col
}

/// Follows `Alias` (unary `+`) chains to the producing node.
fn resolve_alias(nodes: &[Node<'_>], mut i: usize) -> usize {
    while let NodeKind::Alias { child } = &nodes[i].kind {
        i = *child;
    }
    i
}

/// The row-invariant provenance of a node's output, if it has one.
fn shared_prov(nodes: &[Node<'_>], i: usize) -> Option<Provenance> {
    let i = resolve_alias(nodes, i);
    match &nodes[i].kind {
        NodeKind::Star => Some(Provenance::Star),
        _ => match &nodes[i].out {
            NodeOut::Shared { prov, .. } => Some(prov.clone()),
            _ => None,
        },
    }
}

/// Binds one member expression against the compiled plan node, verifying
/// structure in lockstep and appending per-member data (literal values,
/// fallback expressions). `None` means the member does not actually match
/// the representative's shape (hash collision) — the whole batch aborts.
///
/// Children always precede their parent in `nodes` (postorder compilation),
/// so splitting the slice at `idx` lets the recursion borrow the child
/// region while the parent node is held — no child-index buffers, no
/// allocation per member.
fn bind<'p>(
    registry: &FunctionRegistry,
    nodes: &mut [Node<'p>],
    idx: usize,
    e: &'p Expr,
) -> Option<()> {
    let (prev, rest) = nodes.split_at_mut(idx);
    let node = &mut rest[0];
    match (&mut node.kind, e) {
        (NodeKind::Lit, Expr::Literal(l)) => {
            let v = literal_value(l);
            if let NodeOut::Shared { col, .. } = &mut node.out {
                col.push_owned(v);
            }
            Some(())
        }
        (NodeKind::Star, Expr::Star) => Some(()),
        (NodeKind::Alias { child }, Expr::Unary { op: UnaryOp::Plus, expr }) => {
            bind(registry, prev, *child, expr)
        }
        (NodeKind::ConstError { name, argc, distinct, .. }, Expr::Function(fx)) => {
            // The error message depends only on the canonical name and the
            // shape fields checked here, so equal shapes yield byte-equal
            // errors.
            if !fx.name.eq_ignore_ascii_case(name)
                || fx.args.len() != *argc
                || fx.distinct != *distinct
            {
                return None;
            }
            Some(())
        }
        (NodeKind::Func { children, name, distinct, .. }, Expr::Function(fx)) => {
            if !fx.name.eq_ignore_ascii_case(name)
                || fx.distinct != *distinct
                || fx.args.len() != children.len()
            {
                return None;
            }
            for (&c, a) in children.iter().zip(&fx.args) {
                bind(registry, prev, c, a)?;
            }
            Some(())
        }
        (NodeKind::Cast { child, type_name, .. }, Expr::Cast { expr, type_name: tn, .. }) => {
            if tn != *type_name {
                return None;
            }
            bind(registry, prev, *child, expr)
        }
        (NodeKind::Unary { child, op }, Expr::Unary { op: o, expr }) => {
            if o != op {
                return None;
            }
            bind(registry, prev, *child, expr)
        }
        (NodeKind::Binary { left, right, op }, Expr::Binary { left: l, op: o, right: r }) => {
            if o != op {
                return None;
            }
            bind(registry, prev, *left, l)?;
            bind(registry, prev, *right, r)
        }
        (NodeKind::IsNull { child, negated }, Expr::IsNull { expr, negated: ng }) => {
            if ng != negated {
                return None;
            }
            bind(registry, prev, *child, expr)
        }
        (
            NodeKind::Between { expr: xe, low, high, negated },
            Expr::Between { expr, low: lo, high: hi, negated: ng },
        ) => {
            if ng != negated {
                return None;
            }
            bind(registry, prev, *xe, expr)?;
            bind(registry, prev, *low, lo)?;
            bind(registry, prev, *high, hi)
        }
        (NodeKind::RowCtor { children }, Expr::Row(items))
        | (NodeKind::ArrayCtor { children }, Expr::ArrayLiteral(items)) => {
            if items.len() != children.len() {
                return None;
            }
            for (&c, a) in children.iter().zip(items) {
                bind(registry, prev, c, a)?;
            }
            Some(())
        }
        (NodeKind::Fallback { members }, e) => {
            // Whole-subtree fallback: the member's own expression runs
            // through the serial evaluator. Binding cannot see through the
            // subtree structurally, so re-check batchability here — a shape
            // hash collision must never smuggle a volatile call or column
            // reference into a batch.
            if !batchable_expr(registry, e) {
                return None;
            }
            members.push(e);
            Some(())
        }
        _ => None,
    }
}

/// Resolves a node's children once per node: alias chains are followed, each
/// child's source kind is classified, and row-invariant argument slots
/// (provenance, `*`) are pre-filled so the row loop only moves values.
fn prep_children(
    prev: &[Node<'_>],
    children: &[usize],
    kids: &mut Vec<usize>,
    srcs: &mut Vec<Src>,
    args: &mut Vec<Evaluated>,
) {
    kids.clear();
    srcs.clear();
    if args.len() < children.len() {
        args.resize_with(children.len(), || Evaluated::literal(Value::Null));
    }
    for (j, &c) in children.iter().enumerate() {
        let c = resolve_alias(prev, c);
        kids.push(c);
        match &prev[c].kind {
            NodeKind::Star => {
                args[j] = Evaluated { value: Value::Star, provenance: Provenance::Star };
                srcs.push(Src::Star);
            }
            _ => match &prev[c].out {
                NodeOut::Shared { prov, .. } => {
                    args[j].provenance = prov.clone();
                    srcs.push(Src::Shared);
                }
                NodeOut::PerRow(_) => srcs.push(Src::PerRow),
                NodeOut::None => srcs.push(Src::Masked),
            },
        }
    }
}

/// Loads row `r`'s argument values into the scratch slots prepared by
/// [`prep_children`].
fn load_row(
    prev: &mut [Node<'_>],
    kids: &[usize],
    srcs: &[Src],
    r: usize,
    args: &mut [Evaluated],
) {
    for (j, (&c, src)) in kids.iter().zip(srcs).enumerate() {
        match src {
            Src::Star | Src::Masked => {}
            Src::Shared => {
                if let NodeOut::Shared { col, .. } = &mut prev[c].out {
                    col.take_into(r, &mut args[j].value);
                }
            }
            Src::PerRow => {
                if let NodeOut::PerRow(v) = &mut prev[c].out {
                    if let Some(ev) = v[r].take() {
                        args[j] = ev;
                    }
                }
            }
        }
    }
}

/// Runs an infallible per-row computation, routing the result to the node's
/// output storage (shared column when the node's provenance is
/// row-invariant, per-row slots otherwise). Rows already carrying an error
/// are skipped with a placeholder push so column offsets stay aligned.
fn per_row_or_shared(
    out: &mut NodeOut,
    status: &mut [Option<EngineError>],
    mut f: impl FnMut(usize) -> Evaluated,
) {
    match out {
        NodeOut::Shared { col, .. } => {
            for (r, s) in status.iter_mut().enumerate() {
                if s.is_some() {
                    col.push(&Value::Null);
                    continue;
                }
                col.push_owned(f(r).value);
            }
        }
        NodeOut::PerRow(v) => {
            for (r, (slot, s)) in v.iter_mut().zip(status.iter_mut()).enumerate() {
                if s.is_some() {
                    continue;
                }
                *slot = Some(f(r));
            }
        }
        NodeOut::None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::error::{CrashKind, Stage};
    use crate::fault::{FaultSet, FaultSite, FaultSpec, PatternId, Trigger, ValuePred};
    use crate::functions;
    use soft_types::category::FunctionCategory;

    fn plain() -> Engine {
        Engine::with_default_functions(EngineConfig::default())
    }

    fn faulted() -> Engine {
        let mut registry = FunctionRegistry::new();
        functions::install_all(&mut registry);
        functions::install_common_aliases(&mut registry);
        let spec = FaultSpec {
            id: "batch-test-abs".into(),
            site: FaultSite::Function("abs".into()),
            kind: CrashKind::SegmentationViolation,
            stage: Stage::Execution,
            trigger: Trigger::Arg { index: Some(0), pred: ValuePred::IntEquals(42) },
            category: FunctionCategory::Math,
            pattern: PatternId::P1_1,
            fixed: false,
            description: "test fault".into(),
        };
        Engine::new(EngineConfig::default(), registry, FaultSet::new(vec![spec]))
    }

    /// Column names of unaliased items are rendered from the group
    /// representative; everything else must match byte for byte.
    fn strip_columns(o: ExecOutcome) -> ExecOutcome {
        match o {
            ExecOutcome::Rows(mut rs) => {
                rs.columns.clear();
                ExecOutcome::Rows(rs)
            }
            other => other,
        }
    }

    fn assert_equiv_with(mk: impl Fn() -> Engine, sqls: &[&str]) {
        let mut serial = mk();
        let mut batch = mk();
        let prepared: Vec<Prepared> =
            sqls.iter().map(|s| batch.prepare(s).expect("prepare")).collect();
        let key = batch.shape_key(&prepared[0]).expect("first statement batchable");
        for (p, s) in prepared.iter().zip(sqls) {
            assert_eq!(batch.shape_key(p), Some(key), "shape of {s}");
        }
        let refs: Vec<&Prepared> = prepared.iter().collect();
        let got = batch.execute_batch(&refs).expect("group executes as a batch");
        let want: Vec<ExecOutcome> =
            prepared.iter().map(|p| serial.execute_prepared(p)).collect();
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                strip_columns(g.clone()),
                strip_columns(w.clone()),
                "member {i}: {}",
                sqls[i]
            );
        }
        assert_eq!(
            batch.coverage().function_names(),
            serial.coverage().function_names(),
            "triggered functions diverge"
        );
        assert_eq!(
            batch.coverage().branches_covered(),
            serial.coverage().branches_covered(),
            "covered branches diverge"
        );
        assert_eq!(batch.crash_log().len(), serial.crash_log().len());
    }

    fn assert_equiv(sqls: &[&str]) {
        assert_equiv_with(plain, sqls);
    }

    #[test]
    fn function_group_matches_serial() {
        assert_equiv(&["SELECT UPPER('a')", "SELECT UPPER('xyz')", "SELECT upper(NULL)"]);
    }

    #[test]
    fn nested_arithmetic_matches_serial() {
        assert_equiv(&[
            "SELECT ABS(1 - 2) + LENGTH('ab')",
            "SELECT ABS(0 - 9223372036854775807) + LENGTH('')",
            "SELECT ABS(0 - 0) + LENGTH('xx')",
        ]);
        // Negation is its own shape node (`-x` is Unary, not part of the
        // literal): a uniformly negated group must also match serial,
        // including the i64::MIN overflow-to-decimal path.
        assert_equiv(&[
            "SELECT ABS(-1)",
            "SELECT ABS(-9223372036854775808)",
            "SELECT ABS(-0.5)",
        ]);
    }

    #[test]
    fn heterogeneous_literal_slots_match_serial() {
        // The same slot holds numbers, text and NULL across members — the
        // column promotes to Mixed, values must survive untouched.
        assert_equiv(&["SELECT COALESCE(1, 'x')", "SELECT COALESCE('y', 2)", "SELECT COALESCE(NULL, NULL)"]);
    }

    #[test]
    fn cast_and_between_match_serial() {
        assert_equiv(&[
            "SELECT CAST('1' AS INTEGER) BETWEEN 0 AND 2",
            "SELECT CAST('abc' AS INTEGER) BETWEEN 1 AND 1",
            "SELECT CAST('-5' AS INTEGER) BETWEEN 9 AND 10",
        ]);
    }

    #[test]
    fn fallback_subtrees_match_serial() {
        assert_equiv(&[
            "SELECT CASE WHEN 1 = 1 THEN 'a' ELSE 'b' END",
            "SELECT CASE WHEN 0 = 1 THEN 'c' ELSE 'd' END",
        ]);
        assert_equiv(&["SELECT 1 IN (1, 2, NULL)", "SELECT 5 IN (9, 8, NULL)"]);
    }

    #[test]
    fn error_members_match_serial() {
        // A mid-group error must mask only its own row.
        assert_equiv(&[
            "SELECT 1 / 1",
            "SELECT 1 / 0",
            "SELECT 4 / 2",
        ]);
    }

    #[test]
    fn crash_mid_batch_attributes_to_the_right_member() {
        assert_equiv_with(faulted, &["SELECT ABS(1)", "SELECT ABS(42)", "SELECT ABS(3)"]);
        // And explicitly: the crash lands on index 1 only.
        let mut e = faulted();
        let prepared: Vec<Prepared> = ["SELECT ABS(1)", "SELECT ABS(42)", "SELECT ABS(3)"]
            .iter()
            .map(|s| e.prepare(s).unwrap())
            .collect();
        let refs: Vec<&Prepared> = prepared.iter().collect();
        let got = e.execute_batch(&refs).unwrap();
        assert!(matches!(got[0], ExecOutcome::Rows(_)));
        match &got[1] {
            ExecOutcome::Crash(c) => assert_eq!(c.fault_id, "batch-test-abs"),
            other => panic!("expected crash, got {other:?}"),
        }
        assert!(matches!(got[2], ExecOutcome::Rows(_)));
        assert_eq!(e.crash_log().len(), 1);
    }

    #[test]
    fn singleton_group_matches_serial() {
        assert_equiv(&["SELECT CONCAT('a', 'b', 3)"]);
    }

    #[test]
    fn volatile_and_row_reading_statements_are_not_batchable() {
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
            assert_eq!(e.shape_key(&p), None, "{sql} must not be batchable");
        }
    }

    #[test]
    fn shape_keys_fold_case_and_split_on_structure() {
        let e = plain();
        let a = e.prepare("SELECT UPPER('a')").unwrap();
        let b = e.prepare("SELECT upper('completely different literal')").unwrap();
        let c = e.prepare("SELECT LOWER('a')").unwrap();
        assert_eq!(e.shape_key(&a), e.shape_key(&b));
        assert_ne!(e.shape_key(&a), e.shape_key(&c));
    }

    #[test]
    fn bind_rejects_structural_mismatch() {
        // Members of *different* shapes handed to one batch: the lockstep
        // verification must refuse rather than misbind (this simulates a
        // shape-key collision).
        let mut e = plain();
        let a = e.prepare("SELECT UPPER('a')").unwrap();
        let b = e.prepare("SELECT LOWER('b')").unwrap();
        assert_eq!(e.execute_batch(&[&a, &b]), None);
    }

    #[test]
    fn empty_group_is_empty() {
        let mut e = plain();
        assert_eq!(e.execute_batch(&[]), Some(Vec::new()));
    }

    #[test]
    fn arity_error_group_matches_serial() {
        assert_equiv(&["SELECT UPPER('a', 'b')", "SELECT UPPER('c', 'd')"]);
    }
}

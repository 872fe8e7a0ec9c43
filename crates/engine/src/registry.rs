//! The function registry and the per-call execution context.

use crate::coverage::Coverage;
use crate::error::{EngineError, SqlError};
use crate::eval::{Evaluated, Provenance};
use crate::fault::FaultSet;
use soft_types::cast::{cast, CastLimits, CastMode, CastStrictness};
use soft_types::category::FunctionCategory;
use soft_types::datetime::{Date, DateTime, Interval, Time};
use soft_types::decimal::Decimal;
use soft_types::geometry::Geometry;
use soft_types::json::JsonValue;
use soft_types::value::{DataType, Value};
use soft_types::xml::XmlDocument;
use std::collections::BTreeMap;
use std::collections::HashMap;

/// A scalar function implementation.
pub type ScalarImpl = fn(&mut FnCtx<'_>, &[Evaluated]) -> Result<Value, EngineError>;

/// An aggregate implementation: receives per-row evaluated argument vectors.
pub type AggregateImpl =
    fn(&mut FnCtx<'_>, &[Vec<Evaluated>], bool) -> Result<Value, EngineError>;

/// The implementation of a built-in.
#[derive(Clone, Copy)]
pub enum FunctionImpl {
    /// Row-at-a-time scalar.
    Scalar(ScalarImpl),
    /// Group-at-a-time aggregate.
    Aggregate(AggregateImpl),
}

impl std::fmt::Debug for FunctionImpl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FunctionImpl::Scalar(_) => write!(f, "Scalar(..)"),
            FunctionImpl::Aggregate(_) => write!(f, "Aggregate(..)"),
        }
    }
}

/// A registered built-in function.
#[derive(Debug, Clone)]
pub struct FunctionDef {
    /// Canonical lowercase name.
    pub name: &'static str,
    /// Category (Figure 1 taxonomy).
    pub category: FunctionCategory,
    /// Minimum argument count.
    pub min_args: usize,
    /// Maximum argument count (`None` = variadic).
    pub max_args: Option<usize>,
    /// The implementation.
    pub implementation: FunctionImpl,
}

impl FunctionDef {
    /// True for aggregates.
    pub fn is_aggregate(&self) -> bool {
        matches!(self.implementation, FunctionImpl::Aggregate(_))
    }
}

/// The set of functions a dialect exposes. Aliases let a dialect expose the
/// same implementation under several spellings (`UPPER`/`UCASE`, ClickHouse
/// camelCase, ...), which is also how the per-dialect function counts of
/// Table 5 arise.
#[derive(Debug, Clone, Default)]
pub struct FunctionRegistry {
    defs: Vec<FunctionDef>,
    by_name: HashMap<String, usize>,
}

impl FunctionRegistry {
    /// Creates an empty registry.
    pub fn new() -> FunctionRegistry {
        FunctionRegistry::default()
    }

    /// Registers a definition under its canonical name.
    ///
    /// # Panics
    ///
    /// Panics if the canonical name is already taken — duplicate
    /// registration is a programming error in a dialect definition.
    pub fn register(&mut self, def: FunctionDef) {
        let key = def.name.to_ascii_lowercase();
        assert!(
            !self.by_name.contains_key(&key),
            "duplicate function registration: {key}"
        );
        self.defs.push(def);
        self.by_name.insert(key, self.defs.len() - 1);
    }

    /// Registers an alias for an existing canonical name. Unknown canonical
    /// names are ignored (a dialect may alias a function it did not adopt).
    pub fn alias(&mut self, alias: &str, canonical: &str) {
        let alias_key = alias.to_ascii_lowercase();
        if self.by_name.contains_key(&alias_key) {
            return;
        }
        if let Some(&idx) = self.by_name.get(&canonical.to_ascii_lowercase()) {
            self.by_name.insert(alias_key, idx);
        }
    }

    /// Resolves a (case-insensitive) name to its definition.
    pub fn resolve(&self, name: &str) -> Option<&FunctionDef> {
        self.resolve_entry(name).map(|(_, _, def)| def)
    }

    /// Resolves a (case-insensitive) name to its interned registry entry:
    /// the map's stored lowercase key, the definition's index (stable for
    /// the registry's lifetime — registration is append-only), and the
    /// definition itself.
    ///
    /// The case fold happens in a stack buffer, so the lookup allocates
    /// nothing for names up to 64 bytes (every builtin and alias is far
    /// shorter); the returned `&str` is the registry's own key, which lets
    /// callers keep an interned lowercase spelling without re-folding.
    pub fn resolve_entry(&self, name: &str) -> Option<(&str, usize, &FunctionDef)> {
        let mut buf = [0u8; 64];
        if name.len() <= buf.len() {
            let folded = &mut buf[..name.len()];
            folded.copy_from_slice(name.as_bytes());
            folded.make_ascii_lowercase();
            // ASCII folding rewrites only bytes < 0x80, so the buffer is
            // still the valid UTF-8 of the lowercased name.
            let key = std::str::from_utf8(folded).expect("ascii fold preserves utf-8");
            self.entry_for_key(key)
        } else {
            self.entry_for_key(&name.to_ascii_lowercase())
        }
    }

    fn entry_for_key(&self, key: &str) -> Option<(&str, usize, &FunctionDef)> {
        let (stored, &idx) = self.by_name.get_key_value(key)?;
        Some((stored.as_str(), idx, &self.defs[idx]))
    }

    /// The definition at a [`FunctionRegistry::resolve_entry`] index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` did not come from this registry's `resolve_entry`.
    pub fn def_at(&self, idx: usize) -> &FunctionDef {
        &self.defs[idx]
    }

    /// Removes a name (canonical or alias) from the registry, so dialects
    /// can opt out of functions.
    pub fn remove(&mut self, name: &str) {
        self.by_name.remove(&name.to_ascii_lowercase());
    }

    /// All resolvable names (canonical + aliases), sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.by_name.keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of resolvable names.
    pub fn name_count(&self) -> usize {
        self.by_name.len()
    }

    /// All definitions (deduplicated, canonical order).
    pub fn defs(&self) -> &[FunctionDef] {
        &self.defs
    }
}

/// Engine resource limits.
///
/// `max_repeat_count` is the knob behind the paper's seven false positives:
/// `REPEAT('a', 9999999999)` is killed with a resource-limit *error*, not a
/// crash.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum statement length in bytes.
    pub max_statement_bytes: usize,
    /// Per-statement memory budget (estimated) in bytes.
    pub max_memory_bytes: usize,
    /// Largest accepted repetition count for `REPEAT`/`SPACE`/`LPAD`-style
    /// expansion.
    pub max_repeat_count: i64,
    /// Maximum rows a statement may produce.
    pub max_rows: usize,
    /// Maximum decimal digits (see [`soft_types::decimal::MAX_DIGITS`]).
    pub max_decimal_digits: usize,
    /// Maximum JSON/XML nesting accepted by parsers.
    pub max_nesting_depth: usize,
    /// Digit count beyond which number formatting switches to scientific
    /// notation (MariaDB's `String::set_real` uses 31 — the MDEV-23415
    /// boundary).
    pub scientific_threshold: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_statement_bytes: 1 << 20,
            max_memory_bytes: 64 << 20,
            max_repeat_count: 1_000_000,
            max_rows: 100_000,
            max_decimal_digits: soft_types::decimal::MAX_DIGITS,
            max_nesting_depth: 64,
            scientific_threshold: 31,
        }
    }
}

/// Deterministic per-connection session state.
#[derive(Debug, Clone)]
pub struct SessionState {
    /// LCG state for `RAND()`.
    pub rand_state: u64,
    /// Counter backing `UUID()`.
    pub uuid_counter: u64,
    /// `LAST_INSERT_ID()`.
    pub last_insert_id: i64,
    /// Sequences (`NEXTVAL` family).
    pub sequences: BTreeMap<String, i64>,
    /// The fixed "current" timestamp (reproducibility: no wall clock).
    pub now: DateTime,
}

impl Default for SessionState {
    fn default() -> Self {
        SessionState {
            rand_state: 0x5DEECE66D,
            uuid_counter: 0,
            last_insert_id: 0,
            sequences: BTreeMap::new(),
            now: DateTime::new(
                Date::new(2025, 3, 30).expect("valid fixed date"),
                Time::new(12, 0, 0, 0).expect("valid fixed time"),
            ),
        }
    }
}

impl SessionState {
    /// Next deterministic pseudo-random f64 in [0, 1).
    pub fn next_rand(&mut self) -> f64 {
        // A 64-bit LCG (Knuth's MMIX constants).
        self.rand_state = self
            .rand_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.rand_state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The per-call execution context handed to built-in implementations.
pub struct FnCtx<'a> {
    /// Canonical name of the function being executed.
    pub name: &'a str,
    /// Dialect casting strictness.
    pub strictness: CastStrictness,
    /// Engine limits.
    pub limits: &'a Limits,
    /// Coverage accumulator.
    pub coverage: &'a mut Coverage,
    /// Active fault set (cast-site faults are reachable from inside
    /// function implementations through [`FnCtx::cast`]).
    pub faults: &'a FaultSet,
    /// Session state.
    pub session: &'a mut SessionState,
    /// Memory accounting for this statement.
    pub memory_used: &'a mut usize,
}

impl<'a> FnCtx<'a> {
    /// Records an explicit decision-point branch.
    pub fn branch(&mut self, site: &str) {
        self.coverage.record_branch(self.name, site);
    }

    /// Cast limits derived from the engine limits.
    pub fn cast_limits(&self) -> CastLimits {
        CastLimits {
            max_decimal_digits: self.limits.max_decimal_digits,
            max_nesting_depth: self.limits.max_nesting_depth,
        }
    }

    /// Performs a cast through the engine's cast site (coverage + faults).
    pub fn cast(
        &mut self,
        operand: &Evaluated,
        to: DataType,
        explicit: bool,
    ) -> Result<Evaluated, EngineError> {
        perform_cast(
            operand,
            to,
            explicit,
            self.strictness,
            &self.cast_limits(),
            self.coverage,
            self.faults,
        )
    }

    /// Charges a produced value against the statement memory budget.
    pub fn charge(&mut self, v: &Value) -> Result<(), EngineError> {
        *self.memory_used += v.size_estimate();
        if *self.memory_used > self.limits.max_memory_bytes {
            return Err(EngineError::Sql(SqlError::ResourceLimit(format!(
                "statement memory budget ({} bytes) exceeded",
                self.limits.max_memory_bytes
            ))));
        }
        Ok(())
    }

    /// Validates a repetition count against the resource limit, returning it
    /// as usize. Negative counts yield 0 (MySQL semantics).
    pub fn repeat_count(&mut self, n: i64) -> Result<usize, EngineError> {
        if n > self.limits.max_repeat_count {
            return Err(EngineError::Sql(SqlError::ResourceLimit(format!(
                "repetition count {n} exceeds limit {}",
                self.limits.max_repeat_count
            ))));
        }
        Ok(n.max(0) as usize)
    }
}

/// The engine's single cast chokepoint: every conversion — user-written or
/// engine-inserted — flows through here, so cast-site faults and coverage
/// see all of them.
pub fn perform_cast(
    operand: &Evaluated,
    to: DataType,
    explicit: bool,
    strictness: CastStrictness,
    limits: &CastLimits,
    coverage: &mut Coverage,
    faults: &FaultSet,
) -> Result<Evaluated, EngineError> {
    let from = operand.value.data_type();
    coverage.record_feature("cast", &format!("{from}->{to}"));
    if let Some(fault) = faults.check_cast(to, !explicit, operand) {
        return Err(EngineError::Crash(fault.crash(None)));
    }
    let mode = if explicit { CastMode::Explicit } else { CastMode::Implicit };
    let value = cast(&operand.value, to, mode, strictness, limits)
        .map_err(|e| EngineError::Sql(SqlError::TypeError(e.to_string())))?;
    Ok(Evaluated {
        value,
        provenance: Provenance::Cast {
            from,
            explicit,
            inner: Box::new(operand.provenance.clone()),
        },
    })
}

// ---- argument coercion helpers used by every builtin ----

fn arg(args: &[Evaluated], i: usize) -> Result<&Evaluated, EngineError> {
    args.get(i).ok_or_else(|| {
        EngineError::Sql(SqlError::Semantic(format!("missing argument {i}")))
    })
}

fn reject_star(ctx: &FnCtx<'_>, e: &Evaluated) -> Result<(), EngineError> {
    if matches!(e.value, Value::Star) {
        return Err(EngineError::Sql(SqlError::TypeError(format!(
            "'*' is not a valid argument to {}",
            ctx.name
        ))));
    }
    Ok(())
}

/// Coerces argument `i` to text; NULL propagates as `None`.
pub fn want_text(
    ctx: &mut FnCtx<'_>,
    args: &[Evaluated],
    i: usize,
) -> Result<Option<String>, EngineError> {
    let e = arg(args, i)?;
    reject_star(ctx, e)?;
    if e.value.is_null() {
        return Ok(None);
    }
    match ctx.cast(e, DataType::Text, false)?.value {
        Value::Text(s) => Ok(Some(s)),
        Value::Null => Ok(None),
        other => Err(EngineError::Sql(SqlError::TypeError(format!(
            "expected text, got {}",
            other.data_type()
        )))),
    }
}

/// Coerces argument `i` to an integer; NULL propagates as `None`.
pub fn want_int(
    ctx: &mut FnCtx<'_>,
    args: &[Evaluated],
    i: usize,
) -> Result<Option<i64>, EngineError> {
    let e = arg(args, i)?;
    reject_star(ctx, e)?;
    if e.value.is_null() {
        return Ok(None);
    }
    match ctx.cast(e, DataType::Integer, false)?.value {
        Value::Integer(v) => Ok(Some(v)),
        Value::Null => Ok(None),
        other => Err(EngineError::Sql(SqlError::TypeError(format!(
            "expected integer, got {}",
            other.data_type()
        )))),
    }
}

/// Coerces argument `i` to a float; NULL propagates as `None`.
pub fn want_f64(
    ctx: &mut FnCtx<'_>,
    args: &[Evaluated],
    i: usize,
) -> Result<Option<f64>, EngineError> {
    let e = arg(args, i)?;
    reject_star(ctx, e)?;
    if e.value.is_null() {
        return Ok(None);
    }
    match ctx.cast(e, DataType::Float, false)?.value {
        Value::Float(v) => Ok(Some(v)),
        Value::Null => Ok(None),
        other => Err(EngineError::Sql(SqlError::TypeError(format!(
            "expected double, got {}",
            other.data_type()
        )))),
    }
}

/// Coerces argument `i` to a decimal; NULL propagates as `None`.
pub fn want_decimal(
    ctx: &mut FnCtx<'_>,
    args: &[Evaluated],
    i: usize,
) -> Result<Option<Decimal>, EngineError> {
    let e = arg(args, i)?;
    reject_star(ctx, e)?;
    if e.value.is_null() {
        return Ok(None);
    }
    match ctx.cast(e, DataType::Decimal, false)?.value {
        Value::Decimal(d) => Ok(Some(d)),
        Value::Null => Ok(None),
        other => Err(EngineError::Sql(SqlError::TypeError(format!(
            "expected decimal, got {}",
            other.data_type()
        )))),
    }
}

/// Coerces argument `i` to JSON; NULL propagates as `None`.
pub fn want_json(
    ctx: &mut FnCtx<'_>,
    args: &[Evaluated],
    i: usize,
) -> Result<Option<JsonValue>, EngineError> {
    let e = arg(args, i)?;
    reject_star(ctx, e)?;
    if e.value.is_null() {
        return Ok(None);
    }
    match ctx.cast(e, DataType::Json, false)?.value {
        Value::Json(j) => Ok(Some(j)),
        Value::Null => Ok(None),
        other => Err(EngineError::Sql(SqlError::TypeError(format!(
            "expected JSON, got {}",
            other.data_type()
        )))),
    }
}

/// Coerces argument `i` to XML; NULL propagates as `None`.
pub fn want_xml(
    ctx: &mut FnCtx<'_>,
    args: &[Evaluated],
    i: usize,
) -> Result<Option<XmlDocument>, EngineError> {
    let e = arg(args, i)?;
    reject_star(ctx, e)?;
    if e.value.is_null() {
        return Ok(None);
    }
    match ctx.cast(e, DataType::Xml, false)?.value {
        Value::Xml(x) => Ok(Some(x)),
        Value::Null => Ok(None),
        other => Err(EngineError::Sql(SqlError::TypeError(format!(
            "expected XML, got {}",
            other.data_type()
        )))),
    }
}

/// Coerces argument `i` to a geometry; NULL propagates as `None`.
pub fn want_geometry(
    ctx: &mut FnCtx<'_>,
    args: &[Evaluated],
    i: usize,
) -> Result<Option<Geometry>, EngineError> {
    let e = arg(args, i)?;
    reject_star(ctx, e)?;
    if e.value.is_null() {
        return Ok(None);
    }
    match ctx.cast(e, DataType::Geometry, false)?.value {
        Value::Geometry(g) => Ok(Some(g)),
        Value::Null => Ok(None),
        other => Err(EngineError::Sql(SqlError::TypeError(format!(
            "expected geometry, got {}",
            other.data_type()
        )))),
    }
}

/// Coerces argument `i` to binary; NULL propagates as `None`.
pub fn want_binary(
    ctx: &mut FnCtx<'_>,
    args: &[Evaluated],
    i: usize,
) -> Result<Option<Vec<u8>>, EngineError> {
    let e = arg(args, i)?;
    reject_star(ctx, e)?;
    if e.value.is_null() {
        return Ok(None);
    }
    match ctx.cast(e, DataType::Binary, false)?.value {
        Value::Binary(b) => Ok(Some(b)),
        Value::Null => Ok(None),
        other => Err(EngineError::Sql(SqlError::TypeError(format!(
            "expected binary, got {}",
            other.data_type()
        )))),
    }
}

/// Coerces argument `i` to a datetime; NULL propagates as `None`.
pub fn want_datetime(
    ctx: &mut FnCtx<'_>,
    args: &[Evaluated],
    i: usize,
) -> Result<Option<DateTime>, EngineError> {
    let e = arg(args, i)?;
    reject_star(ctx, e)?;
    if e.value.is_null() {
        return Ok(None);
    }
    match &e.value {
        Value::Date(d) => return Ok(Some(DateTime::new(*d, Time::MIDNIGHT))),
        Value::DateTime(dt) => return Ok(Some(*dt)),
        _ => {}
    }
    match ctx.cast(e, DataType::DateTime, false)?.value {
        Value::DateTime(dt) => Ok(Some(dt)),
        Value::Null => Ok(None),
        other => Err(EngineError::Sql(SqlError::TypeError(format!(
            "expected datetime, got {}",
            other.data_type()
        )))),
    }
}

/// Extracts argument `i` as an interval (integers become day intervals).
pub fn want_interval(
    ctx: &mut FnCtx<'_>,
    args: &[Evaluated],
    i: usize,
) -> Result<Option<Interval>, EngineError> {
    let e = arg(args, i)?;
    reject_star(ctx, e)?;
    match &e.value {
        Value::Null => Ok(None),
        Value::Interval(iv) => Ok(Some(*iv)),
        Value::Integer(n) => Ok(Some(Interval::days(*n))),
        _ => match want_int(ctx, args, i)? {
            Some(n) => Ok(Some(Interval::days(n))),
            None => Ok(None),
        },
    }
}

/// A shorthand for `Err(Runtime(..))`.
pub fn runtime_err<T>(msg: impl Into<String>) -> Result<T, EngineError> {
    Err(EngineError::Sql(SqlError::Runtime(msg.into())))
}

/// A shorthand for `Err(TypeError(..))`.
pub fn type_err<T>(msg: impl Into<String>) -> Result<T, EngineError> {
    Err(EngineError::Sql(SqlError::TypeError(msg.into())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_scalar(_: &mut FnCtx<'_>, _: &[Evaluated]) -> Result<Value, EngineError> {
        Ok(Value::Null)
    }

    fn def(name: &'static str) -> FunctionDef {
        FunctionDef {
            name,
            category: FunctionCategory::String,
            min_args: 1,
            max_args: Some(1),
            implementation: FunctionImpl::Scalar(dummy_scalar),
        }
    }

    #[test]
    fn registry_resolution_and_aliases() {
        let mut r = FunctionRegistry::new();
        r.register(def("upper"));
        r.alias("ucase", "upper");
        r.alias("ghost", "missing"); // silently ignored
        assert!(r.resolve("UPPER").is_some());
        assert!(r.resolve("Ucase").is_some());
        assert!(r.resolve("ghost").is_none());
        assert_eq!(r.name_count(), 2);
    }

    #[test]
    fn resolve_entry_interns_the_stored_key() {
        let mut r = FunctionRegistry::new();
        r.register(def("upper"));
        r.alias("ucase", "upper");
        let (key, idx, d) = r.resolve_entry("UpPeR").expect("resolves");
        assert_eq!(key, "upper");
        assert_eq!(d.name, "upper");
        assert!(std::ptr::eq(d, r.def_at(idx)));
        // Aliases intern their own lowercase spelling but share the index.
        let (alias_key, alias_idx, _) = r.resolve_entry("UCase").expect("resolves");
        assert_eq!(alias_key, "ucase");
        assert_eq!(alias_idx, idx);
        // Names beyond the stack buffer take the heap fallback path.
        let long = "X".repeat(200);
        assert!(r.resolve_entry(&long).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate function registration")]
    fn duplicate_registration_panics() {
        let mut r = FunctionRegistry::new();
        r.register(def("f"));
        r.register(def("f"));
    }

    #[test]
    fn removal() {
        let mut r = FunctionRegistry::new();
        r.register(def("f"));
        r.alias("g", "f");
        r.remove("f");
        assert!(r.resolve("f").is_none());
        assert!(r.resolve("g").is_some());
    }

    #[test]
    fn session_rand_is_deterministic() {
        let mut a = SessionState::default();
        let mut b = SessionState::default();
        let xs: Vec<f64> = (0..5).map(|_| a.next_rand()).collect();
        let ys: Vec<f64> = (0..5).map(|_| b.next_rand()).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
        assert_ne!(xs[0], xs[1]);
    }

    fn mk_ctx<'a>(
        cov: &'a mut Coverage,
        faults: &'a FaultSet,
        session: &'a mut SessionState,
        limits: &'a Limits,
        mem: &'a mut usize,
    ) -> FnCtx<'a> {
        FnCtx {
            name: "test",
            strictness: CastStrictness::Lenient,
            limits,
            coverage: cov,
            faults,
            session,
            memory_used: mem,
        }
    }

    #[test]
    fn want_helpers_coerce_and_propagate_null() {
        let mut cov = Coverage::new();
        let faults = FaultSet::default();
        let mut session = SessionState::default();
        let limits = Limits::default();
        let mut mem = 0usize;
        let mut ctx = mk_ctx(&mut cov, &faults, &mut session, &limits, &mut mem);
        let args = vec![
            Evaluated::literal(Value::Text("42".into())),
            Evaluated::literal(Value::Null),
            Evaluated::literal(Value::Star),
        ];
        assert_eq!(want_int(&mut ctx, &args, 0).unwrap(), Some(42));
        assert_eq!(want_int(&mut ctx, &args, 1).unwrap(), None);
        assert!(want_int(&mut ctx, &args, 2).is_err());
        assert_eq!(want_text(&mut ctx, &args, 0).unwrap(), Some("42".into()));
    }

    #[test]
    fn repeat_count_limit_is_resource_error() {
        let mut cov = Coverage::new();
        let faults = FaultSet::default();
        let mut session = SessionState::default();
        let limits = Limits::default();
        let mut mem = 0usize;
        let mut ctx = mk_ctx(&mut cov, &faults, &mut session, &limits, &mut mem);
        assert_eq!(ctx.repeat_count(-5).unwrap(), 0);
        assert_eq!(ctx.repeat_count(10).unwrap(), 10);
        match ctx.repeat_count(9_999_999_999) {
            Err(EngineError::Sql(SqlError::ResourceLimit(_))) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn memory_budget() {
        let mut cov = Coverage::new();
        let faults = FaultSet::default();
        let mut session = SessionState::default();
        let limits = Limits { max_memory_bytes: 1000, ..Limits::default() };
        let mut mem = 0usize;
        let mut ctx = mk_ctx(&mut cov, &faults, &mut session, &limits, &mut mem);
        let big = Value::Text("a".repeat(2000));
        match ctx.charge(&big) {
            Err(EngineError::Sql(SqlError::ResourceLimit(_))) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}

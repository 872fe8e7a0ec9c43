//! The built-in SQL function library.
//!
//! Roughly 190 canonical implementations across the paper's categories.
//! Dialects pick a subset and layer aliases on top (`soft-dialects`).

pub mod aggregate;
pub mod casting;
pub mod condition;
pub mod container;
pub mod datetime;
pub mod json_fns;
pub mod math;
pub mod spatial;
pub mod string;
pub mod system;
pub mod xml_fns;

use crate::registry::FunctionRegistry;

/// Registers every built-in under its canonical name.
pub fn install_all(r: &mut FunctionRegistry) {
    string::install(r);
    math::install(r);
    condition::install(r);
    system::install(r);
    datetime::install(r);
    json_fns::install(r);
    xml_fns::install(r);
    spatial::install(r);
    container::install(r);
    casting::install(r);
    aggregate::install(r);
}

/// Adds the widely shared alias spellings (MySQL-style synonyms).
pub fn install_common_aliases(r: &mut FunctionRegistry) {
    r.alias("ucase", "upper");
    r.alias("lcase", "lower");
    r.alias("character_length", "char_length");
    r.alias("substring", "substr");
    r.alias("mid", "substr");
    r.alias("power", "pow");
    r.alias("ceiling", "ceil");
    r.alias("current_date", "curdate");
    r.alias("current_time", "curtime");
    r.alias("current_timestamp", "now");
    r.alias("localtime", "now");
    r.alias("localtimestamp", "now");
    r.alias("adddate", "date_add");
    r.alias("subdate", "date_sub");
    r.alias("dayofmonth", "day");
    r.alias("schema", "database");
    r.alias("geomfromtext", "st_geomfromtext");
    r.alias("astext", "st_astext");
    r.alias("aswkb", "st_aswkb");
    r.alias("geomfromwkb", "st_geomfromwkb");
    r.alias("numpoints", "st_numpoints");
    r.alias("glength", "st_length");
    r.alias("area", "st_area");
    r.alias("envelope", "st_envelope");
    r.alias("st_boundary", "boundary");
    r.alias("dimension", "st_dimension");
    r.alias("json_merge_preserve", "json_merge");
    r.alias("len", "length");
    r.alias("list_contains", "array_contains");
    r.alias("list_slice", "array_slice");
    r.alias("regexp_matches", "regexp_like");
    r.alias("rlike", "regexp_like");
}

/// Runs built-ins outside an engine, for differential tests that hold a
/// kernel to its earlier implementation.
#[cfg(test)]
pub(crate) mod testkit {
    use crate::coverage::Coverage;
    use crate::error::EngineError;
    use crate::eval::Evaluated;
    use crate::fault::FaultSet;
    use crate::registry::{FnCtx, Limits, ScalarImpl, SessionState};
    use soft_types::cast::CastStrictness;
    use soft_types::value::Value;

    /// Everything a call leaves behind that the engine can observe.
    #[derive(Debug, PartialEq)]
    pub struct Call {
        pub result: Result<Value, EngineError>,
        pub branches: Vec<u64>,
        pub memory_used: usize,
    }

    /// Calls `f` on literal arguments under `limits`, as `name`.
    pub fn call(name: &'static str, f: ScalarImpl, args: &[Value], limits: &Limits) -> Call {
        let mut coverage = Coverage::new();
        let faults = FaultSet::default();
        let mut session = SessionState::default();
        let mut memory_used = 0;
        let args: Vec<Evaluated> = args.iter().cloned().map(Evaluated::literal).collect();
        let mut ctx = FnCtx {
            name,
            strictness: CastStrictness::Lenient,
            limits,
            coverage: &mut coverage,
            faults: &faults,
            session: &mut session,
            memory_used: &mut memory_used,
        };
        let result = f(&mut ctx, &args);
        Call { result, branches: coverage.branch_ids(), memory_used }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_library_size() {
        let mut r = FunctionRegistry::new();
        install_all(&mut r);
        let canonical = r.defs().len();
        assert!(
            canonical >= 180,
            "expected at least 180 canonical builtins, found {canonical}"
        );
        install_common_aliases(&mut r);
        assert!(r.name_count() > canonical);
    }

    #[test]
    fn every_category_is_represented() {
        use soft_types::category::FunctionCategory as C;
        let mut r = FunctionRegistry::new();
        install_all(&mut r);
        for cat in [
            C::String,
            C::Aggregate,
            C::Math,
            C::Date,
            C::Json,
            C::Xml,
            C::Spatial,
            C::Condition,
            C::Casting,
            C::System,
            C::Sequence,
            C::Array,
            C::Map,
            C::Comparison,
            C::Control,
        ] {
            assert!(
                r.defs().iter().any(|d| d.category == cat),
                "no builtin registered for category {cat}"
            );
        }
    }

    #[test]
    fn arity_bounds_are_sane() {
        let mut r = FunctionRegistry::new();
        install_all(&mut r);
        for d in r.defs() {
            if let Some(max) = d.max_args {
                assert!(d.min_args <= max, "{}: min {} > max {max}", d.name, d.min_args);
            }
        }
    }
}

//! Function Expression Collection (§7.1 step 1).
//!
//! SOFT "initially acquires initial function expressions by scanning the
//! documentation and regression test suite of the DBMS": here, a dialect
//! profile's synthesised documentation plus its seed corpus. Collection
//! yields (a) preparation statements (DDL/DML to replay before testing),
//! (b) seed statements containing function expressions, and (c) the
//! de-duplicated set of collected function expressions that feed the
//! cross-function patterns (P2.3, P3.2, P3.3).

use soft_dialects::{seeds, DialectProfile};
use soft_engine::Engine;
use soft_parser::ast::{FunctionExpr, Statement};
use soft_parser::visit;
use std::collections::HashSet;

/// The result of the collection step.
#[derive(Debug, Clone, Default)]
pub struct Collection {
    /// DDL/DML statements the seeds depend on (Finding 4's prerequisites).
    pub preparation: Vec<Statement>,
    /// Statements containing at least one function expression.
    pub seeds: Vec<Statement>,
    /// All distinct collected function expressions.
    pub expressions: Vec<FunctionExpr>,
    /// Names of collected unary-call functions (used as P3.2 wrappers).
    pub wrappers: Vec<String>,
}

/// The state every campaign statement, PoC replay and oracle query runs
/// against: `engine` with the preparation statements replayed. Every
/// dialect's collection yields the shared preparation suite
/// ([`seeds::SHARED_PREP`]) as its [`Collection::preparation`] (a test
/// below pins that), so the template is built without running collection.
pub fn prepared_template(mut engine: Engine) -> Engine {
    for sql in seeds::SHARED_PREP {
        let _ = engine.execute(sql);
    }
    engine
}

/// Runs collection against a dialect profile.
pub fn collect(profile: &DialectProfile) -> Collection {
    let mut out = Collection::default();
    let mut seen_exprs: HashSet<String> = HashSet::new();
    let mut seen_seeds: HashSet<String> = HashSet::new();
    let mut push_seed = |stmt: Statement, out: &mut Collection| {
        let rendered = stmt.to_string();
        if !seen_seeds.insert(rendered) {
            return;
        }
        for fx in visit::collect_function_exprs(&stmt) {
            let key = fx.to_string();
            if seen_exprs.insert(key) {
                if fx.args.len() == 1 {
                    let lname = fx.name.to_ascii_lowercase();
                    if !out.wrappers.contains(&lname) {
                        out.wrappers.push(lname);
                    }
                }
                out.expressions.push(fx);
            }
        }
        out.seeds.push(stmt);
    };
    // Documentation examples become `SELECT <example>` seeds.
    for doc in &profile.documentation {
        if let Ok(stmt) = soft_parser::parse_statement(&format!("SELECT {}", doc.example)) {
            push_seed(stmt, &mut out);
        }
    }
    // Test-suite queries: DDL/DML is preparation, the rest are seeds when
    // they contain function expressions.
    for sql in &profile.seed_corpus {
        let Ok(stmt) = soft_parser::parse_statement(sql) else { continue };
        match &stmt {
            Statement::CreateTable(_) | Statement::Insert(_) | Statement::DropTable { .. } => {
                out.preparation.push(stmt);
            }
            Statement::Select(_) => {
                if visit::count_function_exprs(&stmt) > 0 {
                    push_seed(stmt, &mut out);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use soft_dialects::DialectId;

    #[test]
    fn collection_gathers_docs_and_suite() {
        let profile = DialectProfile::build(DialectId::Mariadb);
        let c = collect(&profile);
        assert!(!c.preparation.is_empty(), "prep statements expected");
        // Every documented function should contribute a seed.
        assert!(c.seeds.len() >= profile.documentation.len() / 2);
        assert!(c.expressions.len() >= 100, "got {}", c.expressions.len());
        assert!(c.wrappers.len() >= 20);
    }

    #[test]
    fn every_dialect_prepares_the_shared_suite() {
        let shared: Vec<Statement> = seeds::SHARED_PREP
            .iter()
            .map(|sql| soft_parser::parse_statement(sql).expect("shared prep parses"))
            .collect();
        for id in DialectId::ALL {
            let c = collect(&DialectProfile::build(id));
            assert_eq!(c.preparation, shared, "{id:?}");
        }
    }

    #[test]
    fn expressions_are_deduplicated() {
        let profile = DialectProfile::build(DialectId::Monetdb);
        let c = collect(&profile);
        let mut keys: Vec<String> = c.expressions.iter().map(|e| e.to_string()).collect();
        keys.sort();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len());
    }

    #[test]
    fn wrappers_are_unary() {
        let profile = DialectProfile::build(DialectId::Mysql);
        let c = collect(&profile);
        for w in &c.wrappers {
            assert!(profile.registry.resolve(w).is_some(), "{w} not in registry");
        }
    }
}

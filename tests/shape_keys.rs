//! Shape keys are sound under any engine state.
//!
//! The multi-form oracle reuses a campaign shard's outcome of a shape-keyed
//! statement as its reference form, which it would otherwise execute on a
//! fresh template clone. The shard's engine has run earlier statements of
//! its shard, so that reuse rests on one property: a shape-keyed statement
//! reads no table, sequence or session state, and executes alike on every
//! clone of the template. This suite checks it for every shape-keyed
//! statement among each dialect's seeds, generated cases and fault
//! witnesses, against a fresh clone, a clone whose session and catalog were
//! perturbed, and a clone whose database was reset.

use soft_repro::dialects::{DialectId, DialectProfile};
use soft_repro::engine::{Engine, ExecOutcome, PatternId};
use soft_repro::soft::collect::{self, Collection};
use soft_repro::soft::patterns::{self, GenCtx};
use std::collections::HashSet;

/// Cases generated per (pattern, seed).
const PER_SEED_CAP: usize = 4;

/// A template clone after statements that write every piece of state a
/// statement can read: the `RAND()` state, the `UUID()` counter, a
/// sequence, `LAST_INSERT_ID()` and a table. Each volatile function is
/// called under every spelling the dialect resolves to it, and each piece
/// is read back to show that the clone really differs from the template.
fn perturbed(template: &Engine) -> Engine {
    let dialect = &template.config().name;
    let mut writes = vec![
        "CREATE TABLE soft_perturb (a INTEGER, b TEXT)".to_string(),
        "INSERT INTO soft_perturb VALUES (1, 'x'), (2, NULL)".to_string(),
    ];
    let mut reads = vec!["SELECT COUNT(*) FROM soft_perturb".to_string()];
    let registry = template.registry();
    for name in registry.names() {
        let (write, read) = match registry.resolve(&name).map(|def| def.name) {
            Some("rand") => ("7", Some("")),
            Some("uuid") => ("", Some("")),
            Some("nextval") => ("'soft_seq'", Some("'soft_seq'")),
            Some("setval") => ("'soft_seq', 41", None),
            Some("last_insert_id") => ("9", Some("")),
            _ => continue,
        };
        writes.push(format!("SELECT {name}({write})"));
        reads.extend(read.map(|args| format!("SELECT {name}({args})")));
    }
    let mut engine = template.clone();
    for sql in &writes {
        let outcome = engine.execute(sql);
        assert!(
            matches!(outcome, ExecOutcome::Ok(_) | ExecOutcome::Rows(_)),
            "{dialect}: perturbing with `{sql}` failed: {outcome:?}"
        );
    }
    assert!(reads.len() >= 4, "{dialect}: too few pieces of state perturbed: {reads:?}");
    for sql in &reads {
        assert_ne!(
            engine.clone().execute(sql),
            template.clone().execute(sql),
            "{dialect}: `{sql}` does not see the perturbation"
        );
    }
    engine
}

/// Every distinct statement text the dialect's campaign can meet: seeds,
/// pattern cases at `PER_SEED_CAP` and fault witnesses.
fn statements(profile: &DialectProfile, collection: &Collection) -> Vec<String> {
    let ctx = GenCtx::new(collection);
    let mut sqls: Vec<String> = collection.seeds.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    for pattern in PatternId::ALL {
        for (si, seed) in collection.seeds.iter().enumerate() {
            patterns::apply_salted(pattern, seed, &ctx, PER_SEED_CAP, si, &mut buf);
            sqls.extend(buf.drain(..).map(|case| case.sql));
        }
    }
    sqls.extend(profile.faults.iter().map(|f| f.witness.clone()));
    let mut seen = HashSet::new();
    sqls.retain(|sql| seen.insert(sql.clone()));
    sqls
}

#[test]
fn shape_keyed_statements_execute_alike_in_any_engine_state() {
    let mut crashes = 0usize;
    for id in DialectId::ALL {
        let profile = DialectProfile::build(id);
        let collection = collect::collect(&profile);
        let mut template = profile.engine();
        for stmt in &collection.preparation {
            let _ = template.execute(&stmt.to_string());
        }
        let perturbed = perturbed(&template);
        let mut reset = template.clone();
        reset.reset_database();

        let mut keyed = 0usize;
        for sql in statements(&profile, &collection) {
            let Ok(p) = template.prepare(&sql) else { continue };
            if template.shape_key(&p).is_none() {
                continue;
            }
            keyed += 1;
            let fresh = template.clone().execute_prepared(&p);
            crashes += usize::from(fresh.is_crash());
            for (state, engine) in [("perturbed", &perturbed), ("reset", &reset)] {
                let outcome = engine.clone().execute_prepared(&p);
                assert_eq!(outcome, fresh, "{}: `{sql}` differs on the {state} clone", id.name());
            }
        }
        assert!(keyed > 100, "{}: only {keyed} shape-keyed statements", id.name());
    }
    assert!(crashes > 0, "no shape-keyed statement crashed");
}

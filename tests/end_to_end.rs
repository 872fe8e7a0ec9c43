//! End-to-end integration: the full SOFT pipeline across every crate.

use soft_repro::dialects::{DialectId, DialectProfile};
use soft_repro::engine::ExecOutcome;
use soft_repro::soft::campaign::{run_soft_parallel, CampaignConfig};

#[test]
fn soft_finds_real_corpus_bugs_with_valid_pocs() {
    // Moderate budget on a small target so the test stays fast.
    let profile = DialectProfile::build(DialectId::Monetdb);
    let report = run_soft_parallel(
        &profile,
        &CampaignConfig { max_statements: 30_000, per_seed_cap: 48, ..CampaignConfig::default() },
        1,
    );
    assert!(
        report.findings.len() >= 8,
        "expected a good share of MonetDB's 19 bugs, found {}",
        report.findings.len()
    );
    // Every finding's PoC must independently re-trigger exactly its fault
    // on a fresh engine (after the campaign's own prep is replayed).
    for f in &report.findings {
        let mut engine = profile.engine();
        for prep in soft_repro::dialects::seeds::SHARED_PREP {
            let _ = engine.execute(prep);
        }
        match engine.execute(&f.poc) {
            ExecOutcome::Crash(c) => {
                assert_eq!(c.fault_id, f.fault_id, "PoC {} re-fired a different fault", f.poc)
            }
            other => panic!("PoC {} did not reproduce: {other:?}", f.poc),
        }
    }
}

#[test]
fn findings_metadata_is_consistent_with_the_corpus() {
    let profile = DialectProfile::build(DialectId::Clickhouse);
    let report = run_soft_parallel(
        &profile,
        &CampaignConfig { max_statements: 40_000, per_seed_cap: 48, ..CampaignConfig::default() },
        1,
    );
    for f in &report.findings {
        let spec = profile
            .faults
            .iter()
            .find(|c| c.spec.id == f.fault_id)
            .map(|c| &c.spec)
            .expect("finding refers to a corpus fault");
        assert_eq!(f.kind.crash(), Some(spec.kind));
        assert_eq!(f.credited_pattern, spec.pattern);
        assert_eq!(f.category, spec.category);
        assert_eq!(f.fixed, spec.fixed);
    }
}

#[test]
fn fixed_engine_survives_every_found_poc() {
    // The differential check: the same PoCs must not crash the fault-free
    // ("patched") build.
    let profile = DialectProfile::build(DialectId::Duckdb);
    let report = run_soft_parallel(
        &profile,
        &CampaignConfig { max_statements: 25_000, per_seed_cap: 32, ..CampaignConfig::default() },
        1,
    );
    let mut patched = profile.engine_without_faults();
    for prep in soft_repro::dialects::seeds::SHARED_PREP {
        let _ = patched.execute(prep);
    }
    for f in &report.findings {
        let out = patched.execute(&f.poc);
        assert!(!out.is_crash(), "patched engine crashed on {}", f.poc);
    }
}

#[test]
fn crash_signature_deduplication_works() {
    // Running the same witness twice yields one crash log entry per run but
    // campaigns deduplicate by fault id.
    let profile = DialectProfile::build(DialectId::Postgres);
    let witness = &profile.faults[0].witness;
    let mut engine = profile.engine();
    let a = engine.execute(witness);
    let b = engine.execute(witness);
    assert!(a.is_crash() && b.is_crash());
    assert_eq!(engine.crash_log().len(), 2);
    assert_eq!(engine.crash_log()[0].fault_id, engine.crash_log()[1].fault_id);
}

#[test]
fn false_positive_class_stays_out_of_findings() {
    // REPEAT('a', 9999999999) must be a resource-limit error everywhere,
    // never a bug finding (the paper's 7 FPs).
    for id in DialectId::ALL {
        let profile = DialectProfile::build(id);
        let mut engine = profile.engine();
        let out = engine.execute("SELECT REPEAT('a', 9999999999)");
        match out {
            ExecOutcome::Error(soft_repro::engine::SqlError::ResourceLimit(_)) => {}
            other => panic!("{id:?}: unexpected {other:?}"),
        }
    }
}

#[test]
fn whole_corpus_is_discoverable_by_witnesses() {
    // The reachability property behind the 132/132 headline: every fault has
    // a pattern-shaped witness that fires it.
    let mut total = 0;
    for id in DialectId::ALL {
        let profile = DialectProfile::build(id);
        for fault in &profile.faults {
            let mut engine = profile.engine();
            let out = engine.execute(&fault.witness);
            assert!(out.is_crash(), "{}: witness failed", fault.spec.id);
            total += 1;
        }
    }
    assert_eq!(total, 132);
}

#[test]
fn campaign_pocs_minimize_and_still_reproduce() {
    use soft_repro::soft::minimize::minimize;
    let profile = DialectProfile::build(DialectId::Clickhouse);
    let report = run_soft_parallel(
        &profile,
        &CampaignConfig { max_statements: 30_000, per_seed_cap: 32, ..CampaignConfig::default() },
        1,
    );
    assert!(!report.findings.is_empty());
    for f in &report.findings {
        let minimized = minimize(&f.poc, || {
            let mut e = profile.engine();
            for prep in soft_repro::dialects::seeds::SHARED_PREP {
                let _ = e.execute(prep);
            }
            e
        });
        assert!(minimized.len() <= f.poc.len());
        let mut e = profile.engine();
        for prep in soft_repro::dialects::seeds::SHARED_PREP {
            let _ = e.execute(prep);
        }
        match e.execute(&minimized) {
            ExecOutcome::Crash(c) => assert_eq!(c.fault_id, f.fault_id, "{minimized}"),
            other => panic!("{minimized}: {other:?}"),
        }
    }
}

/// Replays a fixed statement list as an external (baseline) generator.
struct Replay(std::vec::IntoIter<String>);

impl soft_repro::soft::StatementGenerator for Replay {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn next_statement(&mut self) -> Option<String> {
        self.0.next()
    }
}

#[test]
fn baseline_findings_credit_the_corpus_pattern() {
    // Tables 5/6 read only finding counts, so this pins the fields of a
    // baseline finding: an external generator carries no pattern or seed
    // provenance, so every fault is credited to — and recorded as found
    // by — its corpus pattern, at the index of the statement that fired it.
    use soft_repro::soft::run_generator;
    for id in DialectId::ALL {
        let profile = DialectProfile::build(id);
        for fault in &profile.faults {
            let statements = vec!["SELECT 1".to_string(), fault.witness.clone()];
            let report = run_generator(&profile, &mut Replay(statements.into_iter()), 10);
            assert_eq!(report.findings.len(), 1, "{}: witness did not fire", fault.spec.id);
            let f = &report.findings[0];
            assert_eq!(f.fault_id, fault.spec.id);
            assert_eq!(f.credited_pattern, fault.spec.pattern, "{}", fault.spec.id);
            assert_eq!(f.found_by_pattern, fault.spec.pattern, "{}", fault.spec.id);
            assert_eq!(f.fixed, fault.spec.fixed, "{}", fault.spec.id);
            assert_eq!(f.seed_function, None, "{}", fault.spec.id);
            assert_eq!(f.statements_until_found, 2, "{}", fault.spec.id);
            assert_eq!(f.poc, fault.witness);
        }
    }
}

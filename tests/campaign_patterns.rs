//! Regression tests for the campaign's pattern coverage and determinism.
//!
//! The seed of this repo silently ran nine of the ten patterns: `P1_1` was
//! missing from the campaign's `PATTERN_ORDER`, so a default campaign never
//! generated a single whole-vector boundary probe and the ablation's "P1"
//! arm quietly meant "P1 minus P1.1". These tests pin the fix.

use soft_repro::dialects::{DialectId, DialectProfile};
use soft_repro::engine::fault::PatternId;
use soft_repro::soft::campaign::{run_soft_parallel, CampaignConfig};

fn config() -> CampaignConfig {
    // Small statement budget: generation (what these tests observe) runs on
    // demand, and the round-robin draws from every active pattern long
    // before 4,000 statements, so each pattern reports a non-zero count.
    CampaignConfig { max_statements: 4_000, per_seed_cap: 8, ..CampaignConfig::default() }
}

/// A default campaign generates cases for all ten patterns — no pattern is
/// silently dropped on the way from `PatternId::ALL` to the round-robin.
#[test]
fn default_campaign_generates_cases_for_all_ten_patterns() {
    let profile = DialectProfile::build(DialectId::Postgres);
    let report = run_soft_parallel(&profile, &config(), 1);

    let reported: Vec<PatternId> =
        report.generated_per_pattern.iter().map(|&(p, _)| p).collect();
    for pattern in PatternId::ALL {
        assert!(
            reported.contains(&pattern),
            "pattern {} missing from generated_per_pattern: {reported:?}",
            pattern.label()
        );
    }
    assert_eq!(report.generated_per_pattern.len(), PatternId::ALL.len());

    for &(pattern, count) in &report.generated_per_pattern {
        assert!(count > 0, "pattern {} generated zero cases", pattern.label());
    }
}

/// The restriction knob still works: a restricted campaign reports exactly
/// the requested patterns, in `PATTERN_ORDER` order.
#[test]
fn restricted_campaign_reports_only_requested_patterns() {
    let profile = DialectProfile::build(DialectId::Postgres);
    let cfg = CampaignConfig {
        patterns: Some(vec![PatternId::P1_1, PatternId::P2_2]),
        ..config()
    };
    let report = run_soft_parallel(&profile, &cfg, 1);
    let reported: Vec<PatternId> =
        report.generated_per_pattern.iter().map(|&(p, _)| p).collect();
    assert_eq!(reported, vec![PatternId::P1_1, PatternId::P2_2]);
}

/// Two campaigns with the same configuration produce identical reports —
/// the whole `CampaignReport`, not just summary counters. This is the
/// hermetic-build guarantee: no RNG, clock, or map-iteration order leaks
/// into campaign results.
#[test]
fn same_seed_campaigns_produce_identical_reports() {
    for id in [DialectId::Postgres, DialectId::Monetdb] {
        let profile = DialectProfile::build(id);
        let a = run_soft_parallel(&profile, &config(), 1);
        let b = run_soft_parallel(&profile, &config(), 1);
        assert_eq!(a, b, "campaign against {} is not deterministic", id.name());
    }
}

/// The sharded runner's core contract: the worker count is invisible in the
/// report. Every worker count — including a prime one that leaves a ragged
/// final shard and more workers than shards — produces a report equal to the
/// one-worker baseline, for the full `CampaignReport` (findings order,
/// per-shard stats, coverage, counters).
#[test]
fn worker_count_never_changes_the_report() {
    for id in [DialectId::Postgres, DialectId::Monetdb] {
        let profile = DialectProfile::build(id);
        let serial = run_soft_parallel(&profile, &config(), 1);
        assert!(
            serial.shards.len() > 1,
            "budget too small to exercise the shard merge on {}",
            id.name()
        );
        for workers in [1usize, 2, 4, 7] {
            let parallel = run_soft_parallel(&profile, &config(), workers);
            assert_eq!(
                serial,
                parallel,
                "{} workers diverged from serial on {}",
                workers,
                id.name()
            );
        }
    }
}

/// The campaign executes prepared ASTs, but its findings report rendered
/// SQL strings — replaying each reported PoC through the plain string path
/// on a fresh engine must reproduce exactly the reported fault, so the
/// prepared pipeline can never drift from the SQL it reports.
#[test]
fn reported_pocs_reproduce_their_faults_via_the_string_path() {
    use soft_repro::engine::ExecOutcome;
    let profile = DialectProfile::build(DialectId::Clickhouse);
    let cfg = CampaignConfig {
        max_statements: 60_000,
        per_seed_cap: 48,
        ..CampaignConfig::default()
    };
    let report = run_soft_parallel(&profile, &cfg, 1);
    assert!(!report.findings.is_empty(), "need findings to replay");
    let collection = soft_repro::soft::collect::collect(&profile);
    for finding in &report.findings {
        let mut engine = profile.engine();
        for stmt in &collection.preparation {
            let _ = engine.execute(&stmt.to_string());
        }
        match engine.execute(&finding.poc) {
            ExecOutcome::Crash(c) => assert_eq!(
                c.fault_id, finding.fault_id,
                "PoC `{}` replayed to a different fault",
                finding.poc
            ),
            other => panic!("PoC `{}` no longer crashes: {other:?}", finding.poc),
        }
    }
}

/// Shard stats in the report tile the statement stream exactly: offsets are
/// contiguous, lengths sum to `statements_executed`, and per-shard crash
/// counters sum to at least the number of unique findings.
#[test]
fn shard_stats_are_a_partition_of_the_campaign() {
    let profile = DialectProfile::build(DialectId::Monetdb);
    let report = run_soft_parallel(&profile, &config(), 1);
    let mut next_offset = 0usize;
    let mut statements = 0usize;
    let mut crashes = 0usize;
    for (i, shard) in report.shards.iter().enumerate() {
        assert_eq!(shard.shard, i);
        assert_eq!(shard.start_offset, next_offset);
        next_offset += shard.statements;
        statements += shard.statements;
        crashes += shard.crashes;
    }
    assert_eq!(statements, report.statements_executed);
    assert!(crashes >= report.findings.len());
}

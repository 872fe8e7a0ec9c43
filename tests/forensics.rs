//! Integration test for crash-forensics bundles: a full campaign's findings
//! are bundled to disk, read back, and every PoC is replayed against a
//! freshly built profile — the triage contract end to end.

use soft_repro::dialects::{DialectId, DialectProfile};
use soft_repro::obs::Bundle;
use soft_repro::soft::campaign::{run_soft_parallel, CampaignConfig};
use soft_repro::soft::forensics::{replay_all, replay_bundle, write_campaign_bundles};
use std::path::PathBuf;

fn temp_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("soft-forensics-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Campaign → bundles → read back → replay, over every finding of a
/// realistic ClickHouse run. Each bundle must carry its full provenance,
/// its minimized PoC must still fire the recorded fault, and the directory
/// listing must round-trip losslessly.
#[test]
fn every_campaign_finding_bundles_and_replays() {
    let profile = DialectProfile::build(DialectId::Clickhouse);
    let cfg = CampaignConfig {
        max_statements: 60_000,
        per_seed_cap: 48,
        ..CampaignConfig::default()
    };
    let report = run_soft_parallel(&profile, &cfg, 1);
    assert!(!report.findings.is_empty(), "campaign must find bugs to bundle");

    let root = temp_root("roundtrip");
    let dirs = write_campaign_bundles(&profile, &report, &root).expect("bundles written");
    assert_eq!(dirs.len(), report.findings.len());
    for dir in &dirs {
        for file in ["meta.json", "poc.sql", "original.sql"] {
            assert!(dir.join(file).is_file(), "missing {file} in {}", dir.display());
        }
    }

    // Read back: one bundle per finding, sorted by fault id, all fields
    // populated from the finding's provenance.
    let bundles = Bundle::read_all(&root).expect("findings root reads back");
    assert_eq!(bundles.len(), report.findings.len());
    assert!(bundles.windows(2).all(|w| w[0].fault_id < w[1].fault_id));
    for bundle in &bundles {
        let finding = report
            .findings
            .iter()
            .find(|f| f.fault_id == bundle.fault_id)
            .expect("bundle corresponds to a finding");
        assert_eq!(bundle.dialect, "ClickHouse");
        assert_eq!(bundle.kind, finding.kind.abbrev());
        assert_eq!(bundle.stage, finding.stage.to_string());
        assert_eq!(bundle.original, finding.poc);
        assert_eq!(bundle.statements_until_found, finding.statements_until_found);
        assert!(bundle.poc.len() <= bundle.original.len(), "minimization grew the PoC");
        assert!(
            bundle.bucket.starts_with("clickhouse/"),
            "bucket key must lead with the dialect key: {}",
            bundle.bucket
        );
        assert!(
            bundle.replay.contains(&bundle.dir_name()),
            "replay command must point at the bundle directory"
        );
        // The contract itself: the minimized PoC still fires this fault.
        replay_bundle(bundle).unwrap_or_else(|e| panic!("replay failed: {e}"));
    }

    // The batch replay API agrees.
    assert_eq!(replay_all(&bundles), Ok(bundles.len()));

    // Tampering is detected: breaking one PoC fails the batch.
    let victim = &dirs[0];
    std::fs::write(victim.join("poc.sql"), "SELECT 1\n").expect("tamper");
    let tampered = Bundle::read_all(&root).expect("tampered root reads back");
    let failures = replay_all(&tampered).expect_err("tampered bundle must fail replay");
    assert_eq!(failures.len(), 1);
    assert!(failures[0].contains("no longer crashes"), "{failures:?}");

    std::fs::remove_dir_all(&root).expect("cleanup");
}

/// Wrong-result findings ride the same triage pipeline: an oracles-on
/// campaign's logic findings bundle to disk with their oracle provenance
/// (family label, expected/actual verdict), their PoCs minimize under the
/// oracle's verdict, and `replay_all` re-judges them through the recorded
/// oracle family alongside the crash bundles.
#[test]
fn logic_findings_bundle_with_oracle_provenance_and_replay() {
    use soft_repro::soft::OracleConfig;

    let profile = DialectProfile::build(DialectId::Clickhouse);
    let cfg = CampaignConfig {
        max_statements: 3_000,
        per_seed_cap: 4,
        oracles: OracleConfig::on(),
        ..CampaignConfig::default()
    };
    let report = run_soft_parallel(&profile, &cfg, 1);
    assert!(report.logic_count() > 0, "the shipped ClickHouse quirk must be flagged");

    let root = temp_root("logic");
    write_campaign_bundles(&profile, &report, &root).expect("bundles written");
    let bundles = Bundle::read_all(&root).expect("findings root reads back");
    assert_eq!(bundles.len(), report.findings.len());

    let logic: Vec<_> = bundles.iter().filter(|b| b.kind == "LOGIC").collect();
    assert_eq!(logic.len(), report.logic_count());
    for bundle in &logic {
        assert!(
            bundle.oracle.is_some() && bundle.expected.is_some() && bundle.actual.is_some(),
            "{}: logic bundle lost its oracle provenance",
            bundle.fault_id
        );
        assert_ne!(bundle.expected, bundle.actual, "{}: vacuous verdict", bundle.fault_id);
    }
    // Crash bundles never grow the oracle fields.
    for bundle in bundles.iter().filter(|b| b.kind != "LOGIC") {
        assert!(bundle.oracle.is_none(), "{}: crash bundle grew a verdict", bundle.fault_id);
    }

    // One batch replay covers both planes.
    assert_eq!(replay_all(&bundles), Ok(bundles.len()));
    std::fs::remove_dir_all(&root).expect("cleanup");
}

/// Bundles work across dialects: a second target's findings replay too,
/// and its bundles never collide with another dialect's directory names.
#[test]
fn bundles_replay_for_a_second_dialect() {
    let profile = DialectProfile::build(DialectId::Monetdb);
    let cfg = CampaignConfig {
        max_statements: 60_000,
        per_seed_cap: 48,
        ..CampaignConfig::default()
    };
    let report = run_soft_parallel(&profile, &cfg, 1);
    assert!(!report.findings.is_empty(), "campaign must find bugs to bundle");
    let root = temp_root("monetdb");
    write_campaign_bundles(&profile, &report, &root).expect("bundles written");
    let bundles = Bundle::read_all(&root).expect("reads back");
    assert_eq!(replay_all(&bundles), Ok(report.findings.len()));
    for bundle in bundles {
        assert_eq!(bundle.dialect, "MonetDB");
        assert!(bundle.bucket.starts_with("monetdb/"));
    }
    std::fs::remove_dir_all(&root).expect("cleanup");
}

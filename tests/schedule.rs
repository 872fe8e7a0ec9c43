//! Integration tests for the feedback scheduler (`soft_core::schedule` +
//! the campaign's epoch loop).
//!
//! The scheduler is plan-then-execute: every epoch's budget reallocation is
//! computed from the *merged, deterministic* telemetry of the epochs before
//! it, and the resulting statement stream is a pure function of the
//! configuration. These tests pin the consequences:
//!
//! 1. a scheduled campaign — telemetry and oracles armed — produces a
//!    byte-identical [`CampaignReport`] at 1, 2, 4, and 7 workers;
//! 2. scheduling decisions are invariant to whether user telemetry is on
//!    (the events the shards record for the scheduler never leak);
//! 3. the journaled epoch records are well-formed and round-trip through
//!    the JSONL trace format.

use soft_repro::dialects::{DialectId, DialectProfile};
use soft_repro::obs::TraceFile;
use soft_repro::soft::campaign::{run_soft_parallel, CampaignConfig};
use soft_repro::soft::{
    OracleConfig, ScheduleConfig, ScheduleOptions, TelemetryConfig, TelemetryOptions,
};

fn scheduled_config(budget: usize) -> CampaignConfig {
    CampaignConfig {
        max_statements: budget,
        per_seed_cap: 8,
        telemetry: TelemetryConfig::On(TelemetryOptions {
            snapshot_interval: budget / 8,
            journal_path: None,
        }),
        oracles: OracleConfig::on(),
        schedule: ScheduleConfig::On(ScheduleOptions { epochs: 4 }),
        ..CampaignConfig::default()
    }
}

/// The adaptive stream stays a pure function of the configuration: with the
/// scheduler, the oracles, and telemetry all armed, the whole report —
/// journal, yields, curves, and epoch records included in the equality — is
/// byte-identical at every worker count.
#[test]
fn scheduled_report_is_byte_identical_across_worker_counts() {
    let profile = DialectProfile::build(DialectId::Clickhouse);
    let cfg = scheduled_config(3_000);
    let serial = run_soft_parallel(&profile, &cfg, 1);
    let tel = serial.telemetry.as_ref().expect("telemetry was on");
    assert!(!tel.epochs.is_empty(), "scheduled campaign must journal its epochs");
    assert_eq!(tel.journal.events.len(), serial.statements_executed);
    assert!(!serial.findings.is_empty(), "budget 3000 finds ClickHouse bugs");

    for workers in [2usize, 4, 7] {
        let parallel = run_soft_parallel(&profile, &cfg, workers);
        assert_eq!(
            parallel, serial,
            "worker count {workers} leaked into the scheduled report"
        );
    }
}

/// Scheduling inputs are event-derived, so the user's telemetry setting
/// cannot change what gets planned: a telemetry-off scheduled run equals
/// the telemetry-on run with its telemetry stripped.
#[test]
fn scheduling_is_invariant_to_batch_and_telemetry() {
    let profile = DialectProfile::build(DialectId::Monetdb);
    let cfg = scheduled_config(2_000);
    let reference = run_soft_parallel(&profile, &cfg, 2);
    let dark = run_soft_parallel(
        &profile,
        &CampaignConfig { telemetry: TelemetryConfig::Off, ..cfg.clone() },
        2,
    );
    let mut stripped = reference.clone();
    stripped.telemetry = None;
    assert_eq!(dark, stripped, "the internal scoring observer leaked into the report");
}

/// Epoch records are well-formed — sequential epochs, increasing start
/// statements, per-arm executed counts reconciling with the journal — and
/// survive the JSONL trace round-trip byte for byte.
#[test]
fn epoch_records_are_wellformed_and_round_trip() {
    let profile = DialectProfile::build(DialectId::Clickhouse);
    let cfg = scheduled_config(3_000);
    let report = run_soft_parallel(&profile, &cfg, 2);
    let tel = report.telemetry.as_ref().expect("telemetry was on");

    let mut last_start = 0usize;
    for (i, e) in tel.epochs.iter().enumerate() {
        assert_eq!(e.epoch, i, "epochs are sequential");
        assert!(e.start_statement > last_start, "epoch starts advance");
        last_start = e.start_statement;
        assert!(e.budget > 0, "recorded epochs carry budget");
        for a in &e.allocations {
            assert!(a.executed <= e.budget, "an arm cannot exceed the epoch budget");
        }
    }
    // Per-arm executed counts cover exactly the pattern-generated
    // statements (seed replays belong to no arm).
    let executed: usize =
        tel.epochs.iter().flat_map(|e| &e.allocations).map(|a| a.executed).sum();
    let seed_replays = tel.journal.events.iter().filter(|e| e.pattern.is_none()).count();
    assert_eq!(executed + seed_replays, report.statements_executed);

    // The JSONL journal round-trips the epoch records exactly.
    let trace = tel.to_trace(Some(profile.id.name()), report.statements_executed);
    let parsed = TraceFile::parse(&trace.to_jsonl()).expect("journal parses");
    assert_eq!(parsed.epochs, tel.epochs);
}

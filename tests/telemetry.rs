//! Integration tests for the campaign observability layer (`soft-obs`).
//!
//! Two guarantees are pinned here, on top of the unit tests inside the
//! crates:
//!
//! 1. **Telemetry determinism** — with the ledger on, a parallel run is
//!    byte-identical to the serial run at every worker count: the whole
//!    [`CampaignReport`] compares equal (its `PartialEq` deliberately
//!    includes the journal, the yield metrics, and the growth curves), and
//!    the journal matches event for event. Checked on two dialects.
//! 2. **Golden trace rendering** — `repro trace` over a small fixed
//!    campaign's journal renders exactly the expected report, so the
//!    offline analyzer and the live campaign can never drift apart.

use soft_repro::dialects::{DialectId, DialectProfile};
use soft_repro::obs::{LiveMetrics, TraceFile, WatchdogConfig};
use soft_repro::soft::campaign::{
    run_soft_parallel, run_soft_parallel_live, CampaignConfig, LivePlane,
};
use soft_repro::soft::{TelemetryConfig, TelemetryOptions};
use std::sync::Arc;

fn telemetry_config(budget: usize) -> CampaignConfig {
    CampaignConfig {
        max_statements: budget,
        per_seed_cap: 8,
        telemetry: TelemetryConfig::On(TelemetryOptions {
            snapshot_interval: budget / 8,
            journal_path: None,
        }),
        ..CampaignConfig::default()
    }
}

/// The telemetry-on report — journal, yields, and curves included in the
/// equality — is identical for 1, 2, 4, and 7 workers, on two dialects.
#[test]
fn telemetry_is_byte_identical_across_worker_counts() {
    for dialect in [DialectId::Postgres, DialectId::Monetdb] {
        let profile = DialectProfile::build(dialect);
        let cfg = telemetry_config(4_000);
        let serial = run_soft_parallel(&profile, &cfg, 1);
        let telemetry = serial.telemetry.as_ref().expect("telemetry was on");
        assert_eq!(telemetry.journal.events.len(), serial.statements_executed);

        for workers in [2usize, 4, 7] {
            let parallel = run_soft_parallel(&profile, &cfg, workers);
            // Event-for-event journal equality first, for a sharper failure
            // than the whole-report assert below.
            let par_telemetry = parallel.telemetry.as_ref().expect("telemetry was on");
            for (serial_event, parallel_event) in
                telemetry.journal.events.iter().zip(&par_telemetry.journal.events)
            {
                assert_eq!(
                    serial_event, parallel_event,
                    "{} at {workers} workers diverged at statement {}",
                    dialect.name(),
                    serial_event.index
                );
            }
            assert_eq!(
                serial,
                parallel,
                "{} telemetry report diverged at {workers} workers",
                dialect.name()
            );
        }
    }
}

/// The live plane is a pure observer: with live metrics *and* the shard
/// watchdog attached, the report is still byte-identical to the plain
/// serial run at 1, 2, 4, and 7 workers — and the live registry's final
/// counters agree with the report's deterministic tallies every time.
#[test]
fn live_plane_and_watchdog_preserve_byte_identical_reports() {
    let profile = DialectProfile::build(DialectId::Postgres);
    let cfg = telemetry_config(4_000);
    let reference = run_soft_parallel(&profile, &cfg, 1);
    for workers in [1usize, 2, 4, 7] {
        let metrics = Arc::new(LiveMetrics::new());
        let plane = LivePlane {
            metrics: Some(Arc::clone(&metrics)),
            watchdog: Some(WatchdogConfig::default()),
            spans: false,
        };
        let run = run_soft_parallel_live(&profile, &cfg, workers, &plane);
        assert_eq!(
            reference, run.report,
            "live plane leaked into the report at {workers} workers"
        );
        let watchdog = run.watchdog.expect("watchdog was configured");
        assert!(
            watchdog.stalls.is_empty(),
            "deterministic in-process shards cannot stall: {:?}",
            watchdog.stalls
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.statements as usize, run.report.statements_executed);
        assert_eq!(snap.unique_faults as usize, run.report.findings.len());
        assert_eq!(snap.shards_done as usize, run.report.shards.len());
    }
}

/// The flight recorder is a pure observer even with everything else
/// armed: oracles, telemetry, the epoch scheduler, live metrics, the
/// watchdog, and spans all on, the report is byte-identical
/// to the bare serial run at 1, 2, 4, and 7 workers — and every armed run
/// yields a non-empty span trace whose Chrome export is valid
/// trace-event JSON.
#[test]
fn flight_recorder_preserves_byte_identical_reports() {
    use soft_repro::soft::{OracleConfig, ScheduleConfig, ScheduleOptions};
    let profile = DialectProfile::build(DialectId::Monetdb);
    let cfg = CampaignConfig {
        oracles: OracleConfig::on(),
        schedule: ScheduleConfig::On(ScheduleOptions { epochs: 4 }),
        ..telemetry_config(4_000)
    };
    let reference = run_soft_parallel(&profile, &cfg, 1);
    for workers in [1usize, 2, 4, 7] {
        let plane = LivePlane {
            metrics: Some(Arc::new(LiveMetrics::new())),
            watchdog: Some(WatchdogConfig::default()),
            spans: true,
        };
        let run = run_soft_parallel_live(&profile, &cfg, workers, &plane);
        assert_eq!(
            reference, run.report,
            "flight recorder leaked into the report at {workers} workers"
        );
        let spans = run.spans.as_ref().expect("spans were armed");
        assert!(!spans.spans.is_empty(), "armed recorder produced no spans");
        // Worker w's shards record on tracks >= 1; track 0 is the campaign
        // thread. Every record must cite a known track.
        assert!(spans.spans.iter().any(|s| s.name == "campaign"), "campaign span missing");
        assert!(spans.spans.iter().any(|s| s.name == "shard"), "shard spans missing");
        assert!(spans.spans.iter().any(|s| s.name == "epoch"), "epoch spans missing");
        let json = spans.to_chrome_json("test");
        let events = soft_repro::obs::span::validate_json(&json)
            .expect("chrome export is valid trace-event JSON");
        assert!(events > spans.spans.len(), "metadata events missing from the export");
    }
}

/// The flight recorder's stage spans are genuinely disjoint under
/// prepared execution: one parse span per shard (its prepare loop, run by
/// the shard itself), one execute span per statement (`execute_prepared`
/// only), one minimize span per unique finding and one generate span for
/// the campaign's planning — exactly, at every worker count, since every
/// statement is prepared exactly once, whichever worker runs its shard.
#[test]
fn stage_latencies_are_disjoint_and_fully_sampled() {
    let profile = DialectProfile::build(DialectId::Monetdb);
    let cfg = telemetry_config(4_000);
    let plane = LivePlane { spans: true, ..LivePlane::default() };
    for workers in [1usize, 4] {
        let run = run_soft_parallel_live(&profile, &cfg, workers, &plane);
        let spans = run.spans.as_ref().expect("spans were armed");
        let count = |name: &str| spans.spans.iter().filter(|s| s.name == name).count();
        let report = &run.report;
        assert_eq!(count("execute"), report.statements_executed);
        assert_eq!(count("parse"), report.shards.len());
        assert_eq!(count("minimize"), report.findings.len());
        assert_eq!(count("generate"), 1);
    }
}

/// Telemetry never perturbs the campaign: stripping the ledger off a
/// telemetry-on report recovers the Off-mode report exactly.
#[test]
fn telemetry_does_not_perturb_the_campaign() {
    let profile = DialectProfile::build(DialectId::Monetdb);
    let off_cfg = CampaignConfig {
        max_statements: 4_000,
        per_seed_cap: 8,
        ..CampaignConfig::default()
    };
    let off = run_soft_parallel(&profile, &off_cfg, 4);
    let mut on = run_soft_parallel(&profile, &telemetry_config(4_000), 4);
    on.telemetry = None;
    assert_eq!(off, on);
}

/// Golden `repro trace` output over a small fixed campaign: the JSONL
/// journal round-trips, and the analyzer renders the same surfaces the
/// live campaign printed. Pinned values come from the deterministic
/// DuckDB run at this exact budget; any planner / generator / telemetry
/// change that moves them is a semantic change and must be reviewed.
#[test]
fn trace_rendering_is_golden() {
    let profile = DialectProfile::build(DialectId::Duckdb);
    let budget = 2_000;
    let report = run_soft_parallel(&profile, &telemetry_config(budget), 3);
    let telemetry = report.telemetry.as_ref().expect("telemetry was on");

    // The journal survives the JSONL round trip byte for byte.
    let trace = telemetry.to_trace(Some(DialectId::Duckdb.name()), report.statements_executed);
    let jsonl = trace.to_jsonl();
    let reparsed = TraceFile::parse(&jsonl).expect("own journal parses");
    assert_eq!(trace, reparsed);
    assert_eq!(jsonl, reparsed.to_jsonl());

    // The analyzer's report over the reparsed journal.
    let rendered = soft_bench::render_trace(&reparsed);

    // Header: every statement journalled, outcome classes partition them.
    let first = rendered.lines().next().expect("non-empty report");
    assert_eq!(
        first,
        format!(
            "journal: DuckDB — {} events, {} unique faults",
            report.statements_executed,
            report.findings.len()
        )
    );
    let outcomes = rendered.lines().nth(1).expect("outcome line");
    assert!(outcomes.starts_with("outcomes: ok="), "got {outcomes:?}");
    let total: usize = outcomes
        .split_whitespace()
        .skip(1)
        .map(|kv| kv.split('=').nth(1).expect("k=v").parse::<usize>().expect("count"))
        .sum();
    assert_eq!(total, report.statements_executed);

    // The offline tables and curves are the live campaign's, verbatim.
    assert!(rendered.contains(telemetry.yields.render_pattern_table().as_str()));
    assert!(rendered.contains(telemetry.yields.render_category_table().as_str()));
    assert!(rendered.ends_with(telemetry.curves.render().as_str()));

    // And the run itself is reproducible: the golden anchor is the whole
    // rendered report being stable across a rerun at a different worker
    // count (full byte equality, not just the spot checks above).
    let rerun = run_soft_parallel(&profile, &telemetry_config(budget), 5);
    let rerun_trace = rerun
        .telemetry
        .as_ref()
        .expect("telemetry was on")
        .to_trace(Some(DialectId::Duckdb.name()), rerun.statements_executed);
    assert_eq!(soft_bench::render_trace(&rerun_trace), rendered);
}

/// Golden CSV export (`repro trace --csv`): over the same small DuckDB
/// journal, the four CSV files carry exactly the journal's yield tables and
/// growth curves, with stable headers — and the whole export is
/// byte-identical across worker counts, like every other telemetry surface.
#[test]
fn trace_csv_export_is_golden() {
    let profile = DialectProfile::build(DialectId::Duckdb);
    let budget = 2_000;
    let report = run_soft_parallel(&profile, &telemetry_config(budget), 3);
    let telemetry = report.telemetry.as_ref().expect("telemetry was on");
    let trace = telemetry.to_trace(Some(DialectId::Duckdb.name()), report.statements_executed);

    let files = soft_bench::trace_csv_exports(&trace);
    let names: Vec<&str> = files.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        ["pattern_yields.csv", "category_yields.csv", "coverage_curve.csv", "bug_curve.csv"]
    );
    let by_name = |name: &str| -> &str {
        &files.iter().find(|(n, _)| *n == name).expect("file present").1
    };

    // pattern_yields: header + one row per pattern in the yield ledger,
    // and the executed column reconciles with the journal.
    let patterns = by_name("pattern_yields.csv");
    let mut lines = patterns.lines();
    assert_eq!(
        lines.next(),
        Some("pattern,generated,executed,crashes,errors,resource_limits,logic_bugs,unique_bugs")
    );
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), telemetry.yields.per_pattern.len());
    let executed: usize = rows
        .iter()
        .map(|r| r.split(',').nth(2).expect("executed column").parse::<usize>().expect("count"))
        .sum();
    let seed_replays = telemetry.journal.events.iter().filter(|e| e.pattern.is_none()).count();
    assert_eq!(executed + seed_replays, report.statements_executed);

    // category_yields resolves (the header names DuckDB).
    let categories = by_name("category_yields.csv");
    assert!(categories.starts_with("category,executed,crashes,errors,logic_bugs,unique_bugs\n"));
    assert_eq!(categories.lines().count(), telemetry.yields.per_category.len() + 1);

    // Curves: one row per point, matching the telemetry surfaces exactly.
    let coverage = by_name("coverage_curve.csv");
    assert!(coverage.starts_with("statements,functions,branches\n"));
    assert_eq!(coverage.lines().count(), telemetry.curves.coverage.len() + 1);
    for (line, p) in coverage.lines().skip(1).zip(&telemetry.curves.coverage) {
        assert_eq!(line, format!("{},{},{}", p.statements, p.functions, p.branches));
    }
    let bugs = by_name("bug_curve.csv");
    assert!(bugs.starts_with("statements,unique_bugs,fault_id\n"));
    assert_eq!(bugs.lines().count(), report.findings.len() + 1);
    for (line, f) in bugs.lines().skip(1).zip(&report.findings) {
        assert!(line.ends_with(&f.fault_id), "curve order must be discovery order: {line}");
    }

    // Byte-identical across worker counts, like the rendered report.
    let rerun = run_soft_parallel(&profile, &telemetry_config(budget), 6);
    let rerun_trace = rerun
        .telemetry
        .as_ref()
        .expect("telemetry was on")
        .to_trace(Some(DialectId::Duckdb.name()), rerun.statements_executed);
    assert_eq!(soft_bench::trace_csv_exports(&rerun_trace), files);

    // And the writer puts the same bytes on disk.
    let dir = std::env::temp_dir().join(format!("soft-trace-csv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let written = soft_bench::write_trace_csv(&trace, &dir).expect("csv written");
    assert_eq!(written.len(), files.len());
    for (path, (name, contents)) in written.iter().zip(&files) {
        assert_eq!(path.file_name().and_then(|n| n.to_str()), Some(*name));
        assert_eq!(&std::fs::read_to_string(path).expect("readable"), contents);
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// RFC 4180 hardening (`repro trace --csv`): a field carrying a bare
/// carriage return must be quoted exactly like one carrying a line feed —
/// an unquoted CR splits the record in most readers. Pinned byte for byte
/// on a synthetic journal whose fault id packs every metacharacter.
#[test]
fn csv_export_quotes_adversarial_fields() {
    use soft_repro::obs::{OutcomeClass, StatementEvent, TraceFile};

    let hostile = "npd\rupper,\"arg\"\nboundary";
    let mut trace = TraceFile::default();
    trace.journal.events.push(StatementEvent {
        index: 1,
        shard: 0,
        seed: Some(0),
        pattern: None,
        function: Some("upper".into()),
        outcome: OutcomeClass::Crash,
        fault_id: Some(hostile.into()),
    });

    let files = soft_bench::trace_csv_exports(&trace);
    let bugs = &files.iter().find(|(n, _)| *n == "bug_curve.csv").expect("bug curve").1;
    let expected = format!(
        "statements,unique_bugs,fault_id\n1,1,\"{}\"\n",
        hostile.replace('"', "\"\"")
    );
    assert_eq!(bugs, &expected, "CR/comma/quote/LF must all force a quoted field");
    // Three physical LFs in total: the header terminator, the embedded LF
    // (kept inside the quotes), and the row terminator. The CR never gains
    // an unquoted sibling.
    assert_eq!(bugs.matches('\n').count(), 3);
}

/// The wrong-result oracles preserve telemetry determinism end to end: with
/// `--oracles` armed the whole report — journal (including the synthetic
/// trailing oracle shard), yields, curves — is byte-identical at every
/// worker count, and the offline CSV export carries the logic findings.
#[test]
fn oracle_telemetry_is_byte_identical_across_worker_counts() {
    use soft_repro::soft::OracleConfig;

    let profile = DialectProfile::build(DialectId::Clickhouse);
    let cfg = CampaignConfig {
        oracles: OracleConfig::on(),
        ..telemetry_config(3_000)
    };
    let serial = run_soft_parallel(&profile, &cfg, 1);
    assert!(serial.logic_count() > 0, "the shipped ClickHouse quirk must be flagged");
    for workers in [2usize, 4, 7] {
        let parallel = run_soft_parallel(&profile, &cfg, workers);
        assert_eq!(serial, parallel, "oracle telemetry diverged at {workers} workers");
    }

    // The journal records the logic plane and the offline analyzer sees it.
    let telemetry = serial.telemetry.as_ref().expect("telemetry was on");
    let trace = telemetry.to_trace(Some(DialectId::Clickhouse.name()), serial.statements_executed);
    let files = soft_bench::trace_csv_exports(&trace);
    let bugs = &files.iter().find(|(n, _)| *n == "bug_curve.csv").expect("bug curve").1;
    assert!(
        bugs.lines().skip(1).any(|r| r.split(',').nth(2).is_some_and(|f| f.starts_with("logic-"))),
        "the bug growth curve must carry the logic findings: {bugs}"
    );
}

//! Integration tests for the live observability plane: the `/metrics`
//! exposition server scraped *while a campaign is running*, and the final
//! live counters reconciled against the deterministic report.

use soft_repro::dialects::{DialectId, DialectProfile};
use soft_repro::obs::json::Record;
use soft_repro::obs::{LiveMetrics, MetricsServer, WatchdogConfig};
use soft_repro::soft::campaign::{run_soft_parallel_live, CampaignConfig, LivePlane};
use soft_repro::soft::CampaignReport;
use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;

/// A minimal HTTP/1.1 GET over a std TcpStream: returns (status line, body).
fn http_get(addr: &std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.lines().next().unwrap_or_default().to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Parses the Prometheus text format into `name{labels} -> value`,
/// validating the `# HELP` / `# TYPE` structure on the way: every sample
/// must belong to a declared metric family.
fn parse_prometheus(body: &str) -> HashMap<String, f64> {
    let mut declared: Vec<String> = Vec::new();
    let mut samples = HashMap::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("metric name after # TYPE").to_string();
            let kind = parts.next().expect("metric kind after name");
            assert!(
                matches!(kind, "counter" | "gauge"),
                "unexpected metric kind {kind:?} in {line:?}"
            );
            declared.push(name);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (key, value) = line.rsplit_once(' ').expect("sample is `name value`");
        let family = key.split('{').next().expect("metric family");
        assert!(
            declared.iter().any(|d| d == family),
            "sample {key:?} has no # TYPE declaration"
        );
        samples.insert(key.to_string(), value.parse::<f64>().expect("numeric sample"));
    }
    samples
}

/// Scrapes `/metrics` repeatedly while a campaign runs, then reconciles the
/// final scrape against the deterministic report: statements, outcome
/// classes, unique faults, and shard completion must all agree exactly once
/// the run is over.
#[test]
fn metrics_endpoint_serves_a_running_campaign_and_reconciles_at_the_end() {
    let metrics = Arc::new(LiveMetrics::new());
    let mut server =
        MetricsServer::bind("127.0.0.1:0", Arc::clone(&metrics)).expect("bind on a free port");
    let addr = server.local_addr();

    let profile = DialectProfile::build(DialectId::Clickhouse);
    let cfg = CampaignConfig {
        max_statements: 20_000,
        per_seed_cap: 32,
        ..CampaignConfig::default()
    };
    let plane = LivePlane {
        metrics: Some(Arc::clone(&metrics)),
        watchdog: Some(WatchdogConfig::default()),
        spans: false,
    };

    let run = std::thread::scope(|scope| {
        let campaign = scope.spawn(|| run_soft_parallel_live(&profile, &cfg, 4, &plane));
        // Scrape live until the campaign thread finishes. Every mid-flight
        // scrape must be well-formed and internally consistent, even though
        // its counts are racing the workers.
        let mut scrapes = 0usize;
        while !campaign.is_finished() {
            let (status, body) = http_get(&addr, "/metrics");
            assert_eq!(status, "HTTP/1.1 200 OK");
            let samples = parse_prometheus(&body);
            let statements = samples["soft_statements_total"];
            let planned = samples["soft_statements_planned"];
            assert!(
                planned == 0.0 || statements <= planned,
                "executed {statements} past the planned {planned}"
            );
            scrapes += 1;
        }
        assert!(scrapes > 0, "campaign finished before a single scrape");
        campaign.join().expect("campaign thread")
    });

    // The final scrape agrees with the deterministic report exactly.
    let (status, body) = http_get(&addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let report = &run.report;
    assert_final_scrape_reconciles(&parse_prometheus(&body), report, 4);

    // The other two endpoints serve the same registry.
    let (status, body) = http_get(&addr, "/status");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let snapshot = Record::parse(body.trim(), "/status").expect("valid status JSON");
    assert_eq!(
        snapshot.int("statements"),
        Some(report.statements_executed as i64)
    );
    assert_eq!(snapshot.int("unique_faults"), Some(report.findings.len() as i64));
    assert_eq!(snapshot.str("dialect"), Some("ClickHouse"));

    let (status, curve) = http_get(&addr, "/curve");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let bug_lines = curve.lines().filter(|l| l.contains("\"bug\"")).count();
    assert_eq!(bug_lines, report.findings.len());
    for line in curve.lines() {
        Record::parse(line, "/curve").expect("valid curve JSONL line");
    }

    // Unknown paths 404; non-GET methods 405.
    let (status, _) = http_get(&addr, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    server.shutdown();
}

/// The end-of-run reconciliation: once the campaign is over, the final
/// scrape agrees with the deterministic report exactly — statements and
/// shards, planned and done, outcome classes, unique faults.
fn assert_final_scrape_reconciles(
    samples: &HashMap<String, f64>,
    report: &CampaignReport,
    workers: usize,
) {
    assert_eq!(samples["soft_statements_total"], report.statements_executed as f64);
    assert_eq!(samples["soft_statements_planned"], report.statements_executed as f64);
    assert_eq!(samples["soft_unique_faults_total"], report.findings.len() as f64);
    assert_eq!(samples["soft_shards_total"], report.shards.len() as f64);
    assert_eq!(samples["soft_shards_done"], report.shards.len() as f64);
    assert_eq!(samples["soft_workers"], workers as f64);
    assert_eq!(samples[r#"soft_outcomes_total{class="error"}"#], report.errors as f64);
    assert_eq!(
        samples[r#"soft_outcomes_total{class="resource-limit"}"#],
        report.false_positives as f64
    );
    // The four outcome classes partition the statement stream.
    let outcome_sum: f64 = samples
        .iter()
        .filter(|(k, _)| k.starts_with("soft_outcomes_total{"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(outcome_sum, report.statements_executed as f64);
    // Per-pattern executed counters partition it too (slot "seed" included).
    let pattern_sum: f64 = samples
        .iter()
        .filter(|(k, _)| k.starts_with("soft_pattern_statements_total{"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(pattern_sum, report.statements_executed as f64);
    // Every shard heartbeat reports done (state gauge = 2).
    for shard in 0..report.shards.len() {
        assert_eq!(samples[&format!("soft_shard_state{{shard=\"{shard}\"}}")], 2.0);
    }
    // ... and there is no other shard series: heartbeat slots past the
    // shards cut are headroom, not shards pending forever.
    let series = samples.keys().filter(|k| k.starts_with("soft_shard_state{")).count();
    assert_eq!(series, report.shards.len(), "shard series for shards that never ran");
}

/// Each executed statement is classified once, and that one class feeds
/// the shard's counters, the journal and the live registry. On all seven
/// dialects with oracles, telemetry and a live registry armed, and once
/// under the scheduler, each shard's journal events per class equal its
/// `ShardStats` counters, and the final live outcome counters equal the
/// report's sums for all five classes.
#[test]
fn one_classification_feeds_the_journal_shard_stats_and_live_counters() {
    use soft_repro::obs::OutcomeClass;
    use soft_repro::soft::{OracleConfig, ScheduleConfig, ScheduleOptions, TelemetryConfig};
    let armed = CampaignConfig {
        max_statements: 2_000,
        per_seed_cap: 8,
        telemetry: TelemetryConfig::with_interval(500),
        oracles: OracleConfig::on(),
        ..CampaignConfig::default()
    };
    let scheduled = CampaignConfig {
        schedule: ScheduleConfig::On(ScheduleOptions { epochs: 4 }),
        ..armed.clone()
    };
    let runs = DialectId::ALL
        .into_iter()
        .map(|d| (d, armed.clone()))
        .chain([(DialectId::Clickhouse, scheduled)]);
    for (dialect, cfg) in runs {
        let profile = DialectProfile::build(dialect);
        let metrics = Arc::new(LiveMetrics::new());
        let plane =
            LivePlane { metrics: Some(Arc::clone(&metrics)), watchdog: None, spans: false };
        let report = run_soft_parallel_live(&profile, &cfg, 2, &plane).report;
        let name = dialect.name();
        let events = &report.telemetry.as_ref().expect("telemetry was on").journal.events;
        let mut sums = [0usize; OutcomeClass::ALL.len()];
        for s in &report.shards {
            let ok = s.statements - s.errors - s.false_positives - s.crashes - s.logic_bugs;
            for (class, n) in [
                (OutcomeClass::Ok, ok),
                (OutcomeClass::Error, s.errors),
                (OutcomeClass::ResourceLimit, s.false_positives),
                (OutcomeClass::Crash, s.crashes),
                (OutcomeClass::LogicBug, s.logic_bugs),
            ] {
                let journaled =
                    events.iter().filter(|e| e.shard == s.shard && e.outcome == class).count();
                assert_eq!(journaled, n, "{name} shard {}: {} events", s.shard, class.label());
                sums[class as usize] += n;
            }
        }
        // The campaign-level oracle hits sit past the executed shards: the
        // journal's synthetic trailing shard, not executed statements.
        assert!(events
            .iter()
            .filter(|e| e.shard >= report.shards.len())
            .all(|e| e.outcome == OutcomeClass::LogicBug));
        assert_eq!(sums[OutcomeClass::Error as usize], report.errors, "{name}");
        assert_eq!(sums[OutcomeClass::ResourceLimit as usize], report.false_positives, "{name}");
        assert_eq!(sums.iter().sum::<usize>(), report.statements_executed, "{name}");
        let samples = parse_prometheus(&metrics.snapshot().render_prometheus());
        for class in OutcomeClass::ALL {
            let live = samples[&format!("soft_outcomes_total{{class=\"{}\"}}", class.label())];
            assert_eq!(live, sums[class as usize] as f64, "{name}: live {}", class.label());
        }
        assert_final_scrape_reconciles(&samples, &report, 2);
    }
}

/// The plan gauges reconcile whichever driver planned the stream: under
/// the epoch scheduler, whose heartbeat slots are only an upper bound on
/// the shards, and for a scheduled plan that runs dry long before its
/// budget. `/status`, the `--progress` ticker and the dashboard read the
/// same gauges.
#[test]
fn plan_gauges_reconcile_under_the_scheduler_and_short_plans() {
    use soft_repro::engine::fault::PatternId;
    use soft_repro::soft::{ScheduleConfig, ScheduleOptions};
    let profile = DialectProfile::build(DialectId::Clickhouse);
    let scheduled = CampaignConfig {
        max_statements: 3_000,
        per_seed_cap: 8,
        schedule: ScheduleConfig::On(ScheduleOptions { epochs: 4 }),
        ..CampaignConfig::default()
    };
    let short = CampaignConfig {
        max_statements: 200_000,
        patterns: Some(vec![PatternId::P1_3]),
        ..scheduled.clone()
    };
    for cfg in [scheduled, short] {
        let metrics = Arc::new(LiveMetrics::new());
        let plane =
            LivePlane { metrics: Some(Arc::clone(&metrics)), watchdog: None, spans: false };
        let report = run_soft_parallel_live(&profile, &cfg, 2, &plane).report;
        let samples = parse_prometheus(&metrics.snapshot().render_prometheus());
        assert_final_scrape_reconciles(&samples, &report, 2);
        // The P1.3-only plan really does run dry before its budget.
        assert!(cfg.patterns.is_none() || report.statements_executed < cfg.max_statements);
    }
}

/// Decodes an HTTP/1.1 chunked transfer-encoded body.
fn decode_chunked(mut body: &str) -> String {
    let mut out = String::new();
    while let Some((size_line, rest)) = body.split_once("\r\n") {
        let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
        if size == 0 {
            break;
        }
        out.push_str(&rest[..size]);
        body = rest[size..].strip_prefix("\r\n").expect("chunk trailer CRLF");
    }
    out
}

/// The `/events` stream consumed *concurrently* with a scheduled campaign
/// reconciles against the final deterministic report: every finding event
/// matches a report finding (and vice versa), every shard reports done,
/// one epoch event per recorded reallocation, and the stream terminates
/// with exactly one `done` record once the campaign finishes.
#[test]
fn events_stream_reconciles_against_the_final_report() {
    use soft_repro::soft::{
        OracleConfig, ScheduleConfig, ScheduleOptions, TelemetryConfig, TelemetryOptions,
    };
    let metrics = Arc::new(LiveMetrics::new());
    let mut server =
        MetricsServer::bind("127.0.0.1:0", Arc::clone(&metrics)).expect("bind on a free port");
    let addr = server.local_addr();

    let profile = DialectProfile::build(DialectId::Clickhouse);
    let cfg = CampaignConfig {
        max_statements: 8_000,
        per_seed_cap: 16,
        telemetry: TelemetryConfig::On(TelemetryOptions {
            snapshot_interval: 1_000,
            journal_path: None,
        }),
        oracles: OracleConfig::on(),
        schedule: ScheduleConfig::On(ScheduleOptions { epochs: 4 }),
        ..CampaignConfig::default()
    };
    let plane = LivePlane {
        metrics: Some(Arc::clone(&metrics)),
        watchdog: Some(WatchdogConfig::default()),
        spans: true,
    };

    // The consumer connects while the campaign runs; the chunked stream
    // only terminates once the campaign thread records `done`.
    let (run, raw) = std::thread::scope(|scope| {
        let campaign = scope.spawn(|| run_soft_parallel_live(&profile, &cfg, 4, &plane));
        let consumer = scope.spawn(move || http_get(&addr, "/events"));
        let run = campaign.join().expect("campaign thread");
        let (status, body) = consumer.join().expect("events consumer");
        assert_eq!(status, "HTTP/1.1 200 OK");
        (run, body)
    });

    let body = decode_chunked(&raw);
    let report = &run.report;
    let mut finding_faults = Vec::new();
    let mut shards_done = 0usize;
    let mut epochs = 0usize;
    let mut done_records = 0usize;
    for line in body.lines() {
        let event = Record::parse(line, "/events").expect("valid event JSON");
        match event.str("type").expect("event type") {
            "finding" => finding_faults.push(event.string("fault").expect("fault")),
            "shard" if event.str("state") == Some("done") => shards_done += 1,
            "epoch" => epochs += 1,
            "done" => {
                done_records += 1;
                assert_eq!(event.int("statements"), Some(report.statements_executed as i64));
                assert_eq!(event.int("unique"), Some(report.findings.len() as i64));
            }
            _ => {}
        }
    }
    finding_faults.sort();
    let mut report_faults: Vec<String> =
        report.findings.iter().map(|f| f.fault_id.clone()).collect();
    report_faults.sort();
    assert_eq!(finding_faults, report_faults, "finding events diverge from the report");
    assert_eq!(shards_done, report.shards.len(), "not every shard reported done");
    let telemetry = report.telemetry.as_ref().expect("telemetry was on");
    assert_eq!(epochs, telemetry.epochs.len(), "one epoch event per reallocation");
    assert_eq!(done_records, 1, "exactly one done record terminates the stream");
    assert!(body.trim_end().lines().last().expect("nonempty stream").contains("\"done\""));
    server.shutdown();
}

/// The server binds, serves concurrent scrapers, shuts down idempotently,
/// and a second registry can immediately reuse the port story (bind on 0).
#[test]
fn server_shutdown_is_clean_and_scrapes_are_concurrent() {
    let metrics = Arc::new(LiveMetrics::new());
    metrics.begin_campaign("DuckDB", 2, 2);
    let mut server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&metrics)).expect("bind");
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let (status, body) = http_get(&addr, "/metrics");
                    assert_eq!(status, "HTTP/1.1 200 OK");
                    assert!(body.contains("soft_statements_total"));
                })
            })
            .collect();
        for h in handles {
            h.join().expect("scraper");
        }
    });
    server.shutdown();
    server.shutdown(); // idempotent
    assert!(
        TcpStream::connect(addr).is_err()
            || http_get_after_shutdown(&addr),
        "server still answering after shutdown"
    );
}

/// After shutdown the listener is gone: either the connection is refused or
/// nothing answers. (A race with the OS re-queueing the last poke
/// connection is tolerated as long as no HTTP response comes back.)
fn http_get_after_shutdown(addr: &std::net::SocketAddr) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else { return true };
    let _ = write!(stream, "GET /metrics HTTP/1.1\r\n\r\n");
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(500)));
    let mut buf = String::new();
    match stream.read_to_string(&mut buf) {
        Ok(0) => true,
        Ok(_) => buf.is_empty(),
        Err(_) => true,
    }
}

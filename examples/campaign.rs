//! The full Table 4 campaign: run SOFT against all seven simulated DBMSs
//! and print the per-row results next to the paper's ground truth, then a
//! telemetry-instrumented rerun of one target showing the yield tables and
//! growth curves (see `docs/EXPERIMENTS.md`, "Telemetry knobs").
//!
//! ```sh
//! cargo run --release --example campaign [budget]
//! ```

use soft_repro::dialects::{DialectId, DialectProfile};
use soft_repro::soft::campaign::{
    default_workers, run_soft_parallel, run_soft_parallel_live, CampaignConfig, LivePlane,
};
use soft_repro::soft::report::render_table4;
use soft_repro::soft::{StageLatency, TelemetryConfig, TelemetryOptions};

fn main() {
    let budget: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000);
    println!("running SOFT with a {budget}-statement budget per target\n");
    let mut reports = Vec::new();
    let mut found = 0usize;
    let mut expected = 0usize;
    for id in DialectId::ALL {
        let profile = DialectProfile::build(id);
        let t0 = std::time::Instant::now();
        let report = run_soft_parallel(
            &profile,
            &CampaignConfig { max_statements: budget, per_seed_cap: 64, ..CampaignConfig::default() },
            default_workers(),
        );
        println!(
            "{:<12} {:>3}/{:<3} bugs  ({} statements, {} fps, {:.1?})",
            id.name(),
            report.findings.len(),
            profile.faults.len(),
            report.statements_executed,
            report.false_positives,
            t0.elapsed()
        );
        found += report.findings.len();
        expected += profile.faults.len();
        reports.push(report);
    }
    println!("\n{}", render_table4(&reports));
    println!("grand total: {found}/{expected} (paper: 132 confirmed, 97 fixed)");

    // Telemetry demonstration: rerun one target with the observability
    // ledger and the flight recorder on. The report stays byte-identical to
    // an Off-mode run (the journal, yields, and curves are derived, not
    // steering), and the wall-clock stage latencies, a view of the spans,
    // live outside the report's equality.
    let demo_budget = (budget / 10).clamp(2_000, 20_000);
    println!("\ntelemetry demo: ClickHouse, {demo_budget}-statement budget\n");
    let profile = DialectProfile::build(DialectId::Clickhouse);
    let cfg = CampaignConfig {
        max_statements: demo_budget,
        per_seed_cap: 64,
        telemetry: TelemetryConfig::On(TelemetryOptions {
            snapshot_interval: demo_budget / 10,
            journal_path: None,
        }),
        ..CampaignConfig::default()
    };
    let plane = LivePlane { spans: true, ..LivePlane::default() };
    let run = run_soft_parallel_live(&profile, &cfg, default_workers(), &plane);
    let telemetry = run.report.telemetry.as_ref().expect("telemetry was on");
    println!("{}", telemetry.yields.render_pattern_table());
    println!("{}", telemetry.curves.render());
    if let Some(spans) = &run.spans {
        println!("{}", StageLatency::from_spans(spans).render());
    }
}

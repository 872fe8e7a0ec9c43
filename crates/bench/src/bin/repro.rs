//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage: `repro <artifact> [--budget N]` where artifact is one of
//! `table1 table2 table3 figure1 findings rootcauses table4 figure2
//! table5 table6 bugs24h cases all`, plus the campaign/triage commands:
//!
//! * `repro campaign <dialect> [--budget N] [--workers N] [--journal PATH]
//!   [--metrics-addr ADDR] [--progress] [--findings DIR] [--oracles]
//!   [--spans DIR] [--stall-ms N]` runs one telemetry-on campaign,
//!   optionally exposing live Prometheus metrics plus the operator
//!   dashboard and `/events` stream over HTTP, ticking a TTY progress line,
//!   writing the JSONL event journal, emitting crash-forensics bundles,
//!   (with `--oracles`) arming the wrong-result oracles — multi-form,
//!   pivot, differential — (with `--spans`) arming the flight recorder and
//!   exporting its Chrome trace-event JSON, and (with `--stall-ms`) tuning
//!   the shard watchdog's stall threshold;
//! * `repro trace <journal.jsonl> [--csv DIR] [--chrome OUT.json]`
//!   analyzes a journal offline: outcome classes, top-yield
//!   pattern/category tables, the §7.5-style growth curves — with `--csv`,
//!   the same data as CSV files, and with `--chrome`, the journal as a
//!   logical Chrome trace-event file for Perfetto. Damaged lines are
//!   skipped and counted on stderr; only an entirely unparseable journal
//!   is an error;
//! * `repro compare <a.jsonl> <b.jsonl> [--csv DIR]` diffs two campaign
//!   journals — new/lost unique bugs, per-pattern and per-category yield
//!   deltas, coverage deltas, and the discovery-latency histogram shift —
//!   exiting `5` when campaign B lost bugs campaign A found (the CI
//!   regression gate);
//! * `repro bundle <dialect> [--budget N] [--out DIR]` runs a campaign and
//!   writes one forensics bundle per unique finding;
//! * `repro replay <path>` replays a bundle directory (or every bundle
//!   under a findings root) and checks each PoC still fires its fault;
//! * `repro repo <init|ingest|stats|export>` manages a persistent seed
//!   repository: distilled findings (PoCs + boundary literals) that later
//!   campaigns consume via `repro campaign --repo DIR`;
//! * `repro help` prints the full command reference
//!   ([`soft_bench::cli::render_help`] — the same table the documentation
//!   sync test walks).
//!
//! The campaign scheduler: `--schedule` (or `--epochs N`) replaces the
//! static round-robin planner with the epoch-based bandit of
//! `soft_core::schedule` — plan-then-execute, so reports stay
//! byte-identical at any worker count.
//!
//! Exit codes (the campaign contract, see EXPERIMENTS.md): `0` success /
//! no findings, `2` usage error (a malformed numeric flag value included),
//! `3` the campaign confirmed at least one crash finding, `4` it confirmed
//! wrong-result (logic) findings only — crashes take precedence;
//! `repro replay` exits `1` when a bundle fails to replay, and
//! `repro compare` exits `5` when campaign B lost unique bugs campaign A
//! found.

use soft_bench::compare::{compare_traces, render_compare, write_compare_csv};
use soft_bench::comparison::{render_metric, run_comparison, Tool, COMPARED_DIALECTS};
use soft_bench::trace::{dialect_by_name, render_trace, write_trace_csv};
use soft_core::campaign::{
    default_workers, run_soft_parallel, run_soft_parallel_live, CampaignConfig, LivePlane,
};
use soft_core::report::render_table4;
use soft_core::{
    OracleConfig, ScheduleConfig, ScheduleOptions, SeedRepository, TelemetryConfig,
    TelemetryOptions,
};
use soft_dialects::{all_cases, CaseKind, DialectId, DialectProfile};
use soft_obs::{Bundle, LiveMetrics, MetricsServer, TraceFile, WatchdogConfig};
use soft_study::{analysis, studied_bugs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let artifact = args.first().map(String::as_str).unwrap_or("all");
    let budget = numeric_flag(&args, "--budget", "usage: repro <artifact> [--budget N]")
        .unwrap_or(60_000);
    match artifact {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(),
        "figure1" => figure1(),
        "findings" => findings(),
        "rootcauses" => rootcauses(),
        "table4" => table4(budget.max(150_000)),
        "figure2" => figure2(budget.max(150_000)),
        "table5" | "table6" => tables56(budget),
        "bugs24h" => bugs24h(budget / 3),
        "cases" => cases(),
        "ablation" => ablation(budget / 2),
        "campaign" => campaign(&args, budget),
        "trace" => trace(&args),
        "compare" => compare(&args),
        "bundle" => bundle(&args, budget),
        "replay" => replay(&args),
        "repo" => repo_cmd(&args),
        "help" | "--help" | "-h" => print!("{}", soft_bench::render_help()),
        "all" => {
            table1();
            table2();
            table3();
            figure1();
            findings();
            rootcauses();
            cases();
            tables56(budget);
            bugs24h(budget / 3);
            ablation(budget / 2);
            table4(budget.max(150_000));
            figure2(budget.max(150_000));
        }
        other => {
            eprintln!("unknown artifact {other:?}");
            eprintln!(
                "artifacts: table1 table2 table3 figure1 findings rootcauses table4 \
                 figure2 table5 table6 bugs24h cases ablation campaign trace compare \
                 bundle replay repo help all"
            );
            eprintln!("see `repro help` for the full reference");
            std::process::exit(2);
        }
    }
}

/// Parses `--flag VALUE` from the argument list.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1))
}

/// Parses a numeric `--flag N` ([`soft_bench::cli::parse_flag`]); a missing
/// or malformed value prints `usage` and exits `2`.
fn numeric_flag<T: std::str::FromStr>(args: &[String], flag: &str, usage: &str) -> Option<T> {
    soft_bench::cli::parse_flag(args, flag).unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!("{usage}");
        eprintln!("see `repro help` for the full reference");
        std::process::exit(2)
    })
}

/// The `repro campaign` usage line.
const CAMPAIGN_USAGE: &str = "usage: repro campaign <dialect> [--budget N] [--workers N] \
    [--journal PATH] [--metrics-addr ADDR] [--progress] [--findings DIR] [--oracles] \
    [--schedule] [--epochs N] [--repo DIR] [--spans DIR] [--stall-ms N]";

/// `repro campaign <dialect>` — one telemetry-on campaign with the journal
/// and yield surfaces printed, optionally persisted as JSONL, optionally
/// observed live over HTTP (`--metrics-addr`) and on the TTY
/// (`--progress`), optionally bundled for triage (`--findings`), optionally
/// armed with the wrong-result oracles (`--oracles`).
///
/// Exits `3` when the campaign confirms at least one crash finding and `4`
/// when it confirms wrong-result findings only — crashes take precedence —
/// so scripted sweeps can distinguish "ran clean" from "found bugs" and
/// tell the two planes apart.
fn campaign(args: &[String], budget: usize) {
    let Some(id) = args.get(1).and_then(|n| dialect_by_name(n)) else {
        eprintln!("{CAMPAIGN_USAGE}");
        eprintln!(
            "dialects: {}",
            DialectId::ALL.map(|d| d.name()).join(" ")
        );
        std::process::exit(2);
    };
    let workers = numeric_flag(args, "--workers", CAMPAIGN_USAGE).unwrap_or_else(default_workers);
    let journal_path = flag_value(args, "--journal").map(std::path::PathBuf::from);
    let metrics_addr = flag_value(args, "--metrics-addr").cloned();
    let progress = args.iter().any(|a| a == "--progress");
    let findings_dir = flag_value(args, "--findings").map(std::path::PathBuf::from);
    let oracles = args.iter().any(|a| a == "--oracles");
    let epochs: Option<usize> = numeric_flag(args, "--epochs", CAMPAIGN_USAGE);
    let schedule = if args.iter().any(|a| a == "--schedule") || epochs.is_some() {
        let mut opts = ScheduleOptions::default();
        if let Some(n) = epochs {
            opts.epochs = n.max(1);
        }
        ScheduleConfig::On(opts)
    } else {
        ScheduleConfig::Off
    };
    let repository = flag_value(args, "--repo").map(std::path::PathBuf::from);
    let spans_dir = flag_value(args, "--spans").map(std::path::PathBuf::from);
    let stall_ms: Option<u64> = numeric_flag(args, "--stall-ms", CAMPAIGN_USAGE);
    hr(&format!("Telemetry campaign — {}", id.name()));
    let snapshot_interval = (budget / 20).clamp(100, 10_000);
    let cfg = CampaignConfig {
        max_statements: budget,
        per_seed_cap: 64,
        telemetry: TelemetryConfig::On(TelemetryOptions {
            snapshot_interval,
            journal_path: journal_path.clone(),
        }),
        oracles: if oracles { OracleConfig::on() } else { OracleConfig::Off },
        schedule,
        repository,
        ..CampaignConfig::default()
    };
    let profile = DialectProfile::build(id);

    // The live plane: one shared registry feeds the HTTP exposition server,
    // the progress ticker, and the shard watchdog.
    let metrics = Arc::new(LiveMetrics::new());
    let server = metrics_addr.as_deref().map(|addr| {
        match MetricsServer::bind(addr, Arc::clone(&metrics)) {
            Ok(s) => {
                println!(
                    "metrics: http://{}/metrics (also /, /status, /curve, /events)",
                    s.local_addr()
                );
                s
            }
            Err(e) => {
                eprintln!("cannot bind metrics server on {addr}: {e}");
                std::process::exit(2);
            }
        }
    });
    let watchdog = WatchdogConfig {
        stall_after: std::time::Duration::from_millis(
            stall_ms.unwrap_or(WatchdogConfig::default().stall_after.as_millis() as u64),
        ),
        ..WatchdogConfig::default()
    };
    let plane = LivePlane {
        metrics: Some(Arc::clone(&metrics)),
        watchdog: Some(watchdog),
        spans: spans_dir.is_some(),
    };
    let run = {
        let ticker_stop = Arc::new(AtomicBool::new(false));
        let ticker = progress.then(|| {
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&ticker_stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    eprint!("\r{}", metrics.snapshot().render_progress_line());
                    std::thread::sleep(std::time::Duration::from_millis(250));
                }
                eprintln!("\r{}", metrics.snapshot().render_progress_line());
            })
        });
        let run = run_soft_parallel_live(&profile, &cfg, workers, &plane);
        ticker_stop.store(true, Ordering::Release);
        if let Some(t) = ticker {
            let _ = t.join();
        }
        run
    };
    drop(server);
    let report = &run.report;
    println!(
        "{}: {} statements, {} workers, {:.0} statements/sec, {} bugs, {} errors, {} fps\n",
        id.name(),
        report.statements_executed,
        run.workers,
        run.statements_per_sec(),
        report.findings.len(),
        report.errors,
        report.false_positives
    );
    if let Some(w) = &run.watchdog {
        println!("{}", w.render_summary());
    }
    // The flight recorder: write the merged span trace as Chrome
    // trace-event JSON (open in Perfetto / chrome://tracing).
    if let (Some(dir), Some(spans)) = (&spans_dir, &run.spans) {
        let json = spans.to_chrome_json(&format!("soft-repro {}", id.name()));
        soft_obs::span::validate_json(&json).expect("span export is valid trace-event JSON");
        let path = dir.join(format!("{}_trace.json", id.name().to_lowercase()));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
            eprintln!("cannot write span trace {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("spans: {} ({} spans)", path.display(), spans.spans.len());
    }
    let telemetry = report.telemetry.as_ref().expect("telemetry was on");
    println!("{}", telemetry.yields.render_pattern_table());
    println!("{}", telemetry.yields.render_category_table());
    println!("{}", telemetry.curves.render());
    if !telemetry.epochs.is_empty() {
        println!("{}", soft_bench::trace::render_epochs(&telemetry.epochs));
    }
    // The stage table is computed from the flight recorder's spans.
    if let Some(spans) = &run.spans {
        println!("{}", spans.render_stage_table());
    }
    if let Some(path) = &journal_path {
        println!("journal: {} ({} events)", path.display(), telemetry.journal.events.len());
    }
    if let Some(dir) = &findings_dir {
        match soft_core::write_campaign_bundles(&profile, report, dir) {
            Ok(dirs) => println!("findings: {} bundle(s) under {}", dirs.len(), dir.display()),
            Err(e) => {
                eprintln!("cannot write findings under {}: {e}", dir.display());
                std::process::exit(2);
            }
        }
    }
    // Crash findings take precedence over wrong-result findings: a run that
    // confirmed both exits 3, a logic-only run exits 4, a clean run exits 0.
    if report.crash_count() > 0 {
        std::process::exit(3);
    }
    if report.logic_count() > 0 {
        std::process::exit(4);
    }
}

/// Reads and leniently parses one journal: damaged lines are skipped and
/// counted on stderr; only an unreadable file or an entirely unparseable
/// journal exits `2`.
fn read_journal(path: &str) -> TraceFile {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match TraceFile::parse_lenient(&text) {
        Ok((trace, skipped)) => {
            if skipped > 0 {
                eprintln!("{path}: skipped {skipped} malformed line(s)");
            }
            trace
        }
        Err(e) => {
            eprintln!("malformed journal {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// `repro trace <journal.jsonl>` — offline journal analysis, optionally
/// exporting the tables and curves as CSV (`--csv DIR`) and the journal's
/// logical timeline as a Chrome trace-event file (`--chrome OUT.json`).
fn trace(args: &[String]) {
    let Some(path) = args.get(1).filter(|p| !p.starts_with("--")) else {
        eprintln!("usage: repro trace <journal.jsonl> [--csv DIR] [--chrome OUT.json]");
        std::process::exit(2);
    };
    let trace = read_journal(path);
    print!("{}", render_trace(&trace));
    if let Some(dir) = flag_value(args, "--csv").map(std::path::PathBuf::from) {
        match write_trace_csv(&trace, &dir) {
            Ok(written) => {
                for p in written {
                    println!("csv: {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("cannot write CSV under {}: {e}", dir.display());
                std::process::exit(2);
            }
        }
    }
    if let Some(out) = flag_value(args, "--chrome") {
        let spans = soft_obs::span::journal_trace(&trace);
        let dialect = trace.dialect.as_deref().unwrap_or("journal");
        let json = spans.to_chrome_json(&format!("soft-repro {dialect}"));
        soft_obs::span::validate_json(&json).expect("span export is valid trace-event JSON");
        if let Err(e) = std::fs::write(out, json) {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(2);
        }
        println!("chrome trace: {out} ({} spans)", spans.spans.len());
    }
}

/// `repro compare <a.jsonl> <b.jsonl>` — diffs two campaign journals:
/// new/lost unique bugs, yield and coverage deltas, and the
/// discovery-latency shift. Exits `5` when campaign B lost bugs campaign A
/// found — the CI regression gate.
fn compare(args: &[String]) {
    let mut paths = args.iter().skip(1).filter(|p| !p.starts_with("--"));
    let (Some(path_a), Some(path_b)) = (paths.next(), paths.next()) else {
        eprintln!("usage: repro compare <a.jsonl> <b.jsonl> [--csv DIR]");
        std::process::exit(2);
    };
    let a = read_journal(path_a);
    let b = read_journal(path_b);
    let report = compare_traces(&a, &b);
    print!("{}", render_compare(&report));
    if let Some(dir) = flag_value(args, "--csv").map(std::path::PathBuf::from) {
        match write_compare_csv(&report, &dir) {
            Ok(written) => {
                for p in written {
                    println!("csv: {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("cannot write CSV under {}: {e}", dir.display());
                std::process::exit(2);
            }
        }
    }
    if !report.lost_bugs.is_empty() {
        eprintln!("REGRESSION: campaign B lost {} unique bug(s)", report.lost_bugs.len());
        std::process::exit(5);
    }
}

/// `repro bundle <dialect> [--budget N] [--out DIR]` — runs a campaign and
/// writes one crash-forensics bundle per unique finding. Exits `0` even
/// when findings exist: producing bundles is this command's purpose.
fn bundle(args: &[String], budget: usize) {
    let Some(id) = args.get(1).and_then(|n| dialect_by_name(n)) else {
        eprintln!("usage: repro bundle <dialect> [--budget N] [--out DIR]");
        eprintln!("dialects: {}", DialectId::ALL.map(|d| d.name()).join(" "));
        std::process::exit(2);
    };
    let out = flag_value(args, "--out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("findings"));
    hr(&format!("Forensics bundles — {}", id.name()));
    let profile = DialectProfile::build(id);
    let cfg =
        CampaignConfig { max_statements: budget, per_seed_cap: 64, ..CampaignConfig::default() };
    let report = run_soft_parallel(&profile, &cfg, default_workers());
    println!(
        "{}: {} statements, {} unique finding(s)",
        id.name(),
        report.statements_executed,
        report.findings.len()
    );
    match soft_core::write_campaign_bundles(&profile, &report, &out) {
        Ok(dirs) => {
            for dir in &dirs {
                let bundle = Bundle::read(dir).expect("just-written bundle reads back");
                println!("  {}", bundle.render_summary());
                println!("    -> {}", dir.display());
            }
            println!("{} bundle(s) under {}", dirs.len(), out.display());
        }
        Err(e) => {
            eprintln!("cannot write bundles under {}: {e}", out.display());
            std::process::exit(2);
        }
    }
}

/// `repro replay <path>` — replays one bundle directory, or every bundle
/// under a findings root. Exits `1` when any PoC fails to reproduce its
/// recorded fault, and `2` when a bundle cannot be read or the root holds
/// none.
fn replay(args: &[String]) {
    let Some(path) = args.get(1) else {
        eprintln!("usage: repro replay <bundle-dir | findings-root>");
        std::process::exit(2);
    };
    let path = std::path::Path::new(path);
    if path.join("meta.json").is_file() {
        let bundle = match Bundle::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read bundle {}: {e}", path.display());
                std::process::exit(2);
            }
        };
        match soft_core::replay_bundle(&bundle) {
            Ok(()) => println!("replayed: {}", bundle.render_summary()),
            Err(e) => {
                eprintln!("replay FAILED: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let bundles = match Bundle::read_all(path) {
            Ok(b) if b.is_empty() => {
                eprintln!(
                    "no bundles under {} (no subdirectory holds a meta.json)",
                    path.display()
                );
                std::process::exit(2);
            }
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read bundles under {}: {e}", path.display());
                std::process::exit(2);
            }
        };
        match soft_core::replay_all(&bundles) {
            Ok(n) => println!("replayed {n} bundle(s) under {}", path.display()),
            Err(failures) => {
                for f in &failures {
                    eprintln!("replay FAILED: {f}");
                }
                std::process::exit(1);
            }
        }
    }
}

/// `repro repo <init|ingest|stats|export>` — the persistent seed
/// repository: one campaign's distilled findings (minimized PoCs plus the
/// boundary literals inside them) stored as plain files, consumed by later
/// campaigns via `repro campaign --repo DIR`. Exits `2` on any usage or
/// I/O error; every subcommand is idempotent.
fn repo_cmd(args: &[String]) {
    fn repo_usage() -> ! {
        eprintln!("usage: repro repo <subcommand>");
        eprintln!("  repro repo init <dir>");
        eprintln!("  repro repo ingest <dir> <findings-root>");
        eprintln!("  repro repo stats <dir>");
        eprintln!("  repro repo export <dir> [--dialect NAME]");
        std::process::exit(2);
    }
    fn load_or_exit(dir: &std::path::Path) -> SeedRepository {
        match SeedRepository::load(dir) {
            Ok(repo) => repo,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
    let Some(sub) = args.get(1).map(String::as_str) else { repo_usage() };
    let Some(dir) = args.get(2).map(std::path::Path::new) else { repo_usage() };
    match sub {
        "init" => match SeedRepository::init(dir) {
            Ok(repo) => println!(
                "repository at {} ({} entries)",
                repo.root().display(),
                repo.entries().len()
            ),
            Err(e) => {
                eprintln!("cannot init repository: {e}");
                std::process::exit(2);
            }
        },
        "ingest" => {
            let Some(root) = args.get(3) else { repo_usage() };
            let bundles = match Bundle::read_all(std::path::Path::new(root)) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot read findings under {root}: {e}");
                    std::process::exit(2);
                }
            };
            let mut repo = load_or_exit(dir);
            match repo.ingest(&bundles) {
                Ok(stats) => println!(
                    "ingested {} bundle(s): {} added, {} updated ({} entries total)",
                    bundles.len(),
                    stats.added,
                    stats.updated,
                    repo.entries().len()
                ),
                Err(e) => {
                    eprintln!("ingest failed: {e}");
                    std::process::exit(2);
                }
            }
        }
        "stats" => print!("{}", load_or_exit(dir).stats().render()),
        "export" => {
            let dialect = flag_value(args, "--dialect").map(String::as_str);
            print!("{}", load_or_exit(dir).export(dialect));
        }
        _ => repo_usage(),
    }
}

fn hr(title: &str) {
    println!("\n================ {title} ================");
}

fn table1() {
    hr("Table 1 — studied bugs per DBMS");
    let bugs = studied_bugs();
    println!("{:<12} {:>8} {:>8}", "DBMS", "measured", "paper");
    for ((dbms, n), (pname, pn)) in
        analysis::table1(&bugs).iter().zip(analysis::paper::TABLE1)
    {
        println!("{:<12} {:>8} {:>8}", dbms.name(), n, pn);
        assert_eq!(dbms.name(), pname);
    }
    println!("{:<12} {:>8} {:>8}", "Total", bugs.len(), analysis::paper::TOTAL_BUGS);
}

fn table2() {
    hr("Table 2 — function expressions per bug-inducing statement");
    let hist = analysis::table2(&studied_bugs());
    println!("{:<24} {:>5} {:>5} {:>5} {:>5} {:>5}", "occurrences", 1, 2, 3, 4, ">=5");
    print!("{:<24}", "measured statements");
    for v in hist {
        print!(" {v:>5}");
    }
    println!();
    print!("{:<24}", "paper");
    for v in analysis::paper::TABLE2 {
        print!(" {v:>5}");
    }
    println!();
}

fn table3() {
    hr("Table 3 — literal examples generated by Patterns 1.3 / 1.4");
    // Demonstrate the two patterns on the paper's example literals.
    use soft_core::patterns::{apply, GenCtx};
    use soft_engine::PatternId;
    let profile = DialectProfile::build(DialectId::Mariadb);
    let ctx = GenCtx::new(&soft_core::collect::collect(&profile));
    for (seed, pattern) in [
        ("SELECT FLOOR(0)", PatternId::P1_3),
        ("SELECT JSON_VALID('{\"key\": 0}')", PatternId::P1_3),
        ("SELECT JSON_VALID('{\"key\": 0}')", PatternId::P1_4),
        ("SELECT FORMAT('0', 50, 'de_DE')", PatternId::P1_3),
    ] {
        let stmt = soft_parser::parse_statement(seed).expect("valid seed");
        let mut cases = Vec::new();
        apply(pattern, &stmt, &ctx, 3, &mut cases);
        println!("{seed}  --{}-->", pattern.label());
        for c in cases.iter().take(2) {
            let display = if c.sql.len() > 100 {
                format!("{}...", &c.sql[..100])
            } else {
                c.sql.clone()
            };
            println!("    {display}");
        }
    }
}

fn figure1() {
    hr("Figure 1 — occurrences and unique functions per category");
    let fig = analysis::figure1(&studied_bugs());
    println!("{:<12} {:>12} {:>10}", "category", "occurrences", "unique");
    for (cat, occ, uniq) in &fig {
        println!("{:<12} {:>12} {:>10}", cat.label(), occ, uniq);
    }
    println!(
        "paper anchors: string {}/{} (measured {}/{}), aggregate {} (measured {})",
        analysis::paper::STRING_OCCURRENCES,
        analysis::paper::STRING_UNIQUE,
        fig[0].1,
        fig[0].2,
        analysis::paper::AGGREGATE_OCCURRENCES,
        fig[1].1
    );
}

fn findings() {
    hr("Findings 1-4");
    let bugs = studied_bugs();
    let f1 = analysis::finding1(&bugs);
    println!(
        "Finding 1: {}/{} execution, {} optimization, {} parsing (paper: 161/230, 45, 24)",
        f1.execution, f1.with_backtrace, f1.optimization, f1.parsing
    );
    println!(
        "Finding 2: {} total occurrences (paper: {})",
        analysis::total_occurrences(&bugs),
        analysis::paper::TOTAL_OCCURRENCES
    );
    println!(
        "Finding 3: {}/318 bugs with <=2 function expressions (paper: 278, 87.5%)",
        analysis::finding3(&bugs)
    );
    let f4 = analysis::finding4(&bugs);
    println!(
        "Finding 4: {} table+data, {} no table, {} empty table (paper: 151/132/35)",
        f4[0].1, f4[1].1, f4[2].1
    );
}

fn rootcauses() {
    hr("Section 5 — root causes");
    let rc = analysis::root_causes(&studied_bugs());
    println!(
        "boundary literals {} (extreme {}, empty/NULL {}, crafted {})",
        rc.literal, rc.literal_extreme, rc.literal_empty_null, rc.literal_crafted
    );
    println!("boundary castings  {}", rc.casting);
    println!("nested functions   {}", rc.nested);
    println!(
        "other: config {}, table defs {}, syntax {}",
        rc.configuration, rc.table_definition, rc.syntax
    );
    println!(
        "boundary share: {}/318 = {:.1}% (paper: 278/318 = 87.4%)",
        rc.boundary_total(),
        100.0 * rc.boundary_total() as f64 / 318.0
    );
}

fn table4(budget: usize) {
    hr("Table 4 — SOFT campaign against all seven targets");
    println!("(statement budget {budget} per target — the two-week analogue)\n");
    let mut reports = Vec::new();
    let mut groups = [0usize; 3];
    let cfg =
        CampaignConfig { max_statements: budget, per_seed_cap: 64, ..CampaignConfig::default() };
    for id in DialectId::ALL {
        let profile = DialectProfile::build(id);
        let run = run_soft_parallel_live(&profile, &cfg, default_workers(), &LivePlane::default());
        println!(
            "{:<12} {} workers, {:.0} statements/sec over {} shards",
            id.name(),
            run.workers,
            run.statements_per_sec(),
            run.report.shards.len()
        );
        let report = run.report;
        let g = report.by_found_group();
        for i in 0..3 {
            groups[i] += g[i];
        }
        println!(
            "{:<12} {:>3}/{} bugs found, {} false positives, {} statements",
            id.name(),
            report.findings.len(),
            profile.faults.len(),
            report.false_positives,
            report.statements_executed
        );
        reports.push(report);
    }
    println!();
    println!("{}", render_table4(&reports));
    let total: usize = reports.iter().map(|r| r.findings.len()).sum();
    println!(
        "found-by pattern groups: P1.x {} / P2.x {} / P3.x {} (paper: 56/28/48)",
        groups[0], groups[1], groups[2]
    );
    println!("total: {total}/132 (paper: 132, of which 97 fixed)");
    let mut kind_counts = std::collections::BTreeMap::new();
    for r in &reports {
        for (k, n) in r.by_kind() {
            *kind_counts.entry(k.abbrev()).or_insert(0usize) += n;
        }
    }
    println!("by kind: {kind_counts:?}");
    println!("(paper 7.3: 61 NPD, 29 SEGV, 12-13 HBOF, 4 GBOF, 3 UAF, 6-7 SO, 2 DBZ, 14 AF)");
}

fn figure2(budget: usize) {
    hr("Figure 2 — developer feedback (status ledger substitute)");
    println!(
        "Figure 2 is a screenshot of human communication and is not\n\
         reproducible; the corresponding machine-checkable artifact is the\n\
         per-bug confirmed/fixed ledger:\n"
    );
    for id in DialectId::ALL {
        let profile = DialectProfile::build(id);
        let report = run_soft_parallel(
            &profile,
            &CampaignConfig { max_statements: budget, per_seed_cap: 64, ..CampaignConfig::default() },
            default_workers(),
        );
        println!(
            "{:<12} {} confirmed, {} fixed",
            id.name(),
            report.findings.len(),
            report.fixed_count()
        );
    }
}

fn tables56(budget: usize) {
    hr("Tables 5 & 6 — tool comparison");
    println!("(statement budget {budget} per tool per target — the 24 h analogue)\n");
    let results = run_comparison(budget);
    println!(
        "{}",
        render_metric(&results, |r| r.functions, "Table 5 — triggered built-in functions")
    );
    println!(
        "{}",
        render_metric(
            &results,
            |r| r.branches,
            "Table 6 — covered branches of the SQL function components"
        )
    );
    let violations = soft_bench::check_shape(&results);
    if violations.is_empty() {
        println!("shape check: all of the paper's qualitative claims hold");
    } else {
        println!("shape check violations: {violations:?}");
    }
}

fn bugs24h(budget: usize) {
    hr("Section 7.5 — unique bugs in the time-boxed run");
    println!("(statement budget {budget} per tool per target)\n");
    let results = run_comparison(budget);
    println!("{}", render_metric(&results, |r| r.bugs, "Unique SQL function bugs"));
    let soft_total: usize = results
        .iter()
        .filter(|r| r.tool == Tool::Soft && COMPARED_DIALECTS.contains(&r.dialect))
        .map(|r| r.bugs)
        .sum();
    let baseline_total: usize =
        results.iter().filter(|r| r.tool != Tool::Soft).map(|r| r.bugs).sum();
    println!(
        "SOFT: {soft_total} unique bugs (paper: 22 in 24 h); baselines: {baseline_total} (paper: 0)"
    );
}

fn cases() {
    hr("Case studies — Listings 1, 3-11");
    for case in all_cases() {
        println!("\n{} — {}", case.listing, case.reference);
        println!("  paper PoC: {}", case.paper_poc);
        match case.kind {
            CaseKind::Studied => {
                let mut e = soft_engine::Engine::with_default_functions(Default::default());
                let out = e.execute(case.paper_poc);
                println!("  guarded engine outcome: {}", summarize(&out));
            }
            CaseKind::Found { dialect, .. } => {
                let (fault_id, witness) = soft_dialects::cases::resolve_found_case(&case)
                    .expect("corpus fault exists");
                let profile = DialectProfile::build(dialect);
                let mut engine = profile.engine();
                let out = engine.execute(&witness);
                println!("  corpus fault: {fault_id}");
                println!("  witness: {witness}");
                println!("  faulty engine outcome: {}", summarize(&out));
            }
        }
    }
}

fn ablation(budget: usize) {
    hr("Ablation — bugs reachable per pattern group");
    println!("(statement budget {budget} per target per arm)\n");
    let results = soft_bench::run_ablation(budget);
    println!("{}", soft_bench::render_ablation(&results));
    println!(
        "The groups partition the corpus: literal patterns cannot construct\n\
         cast or nested-function provenance, and vice versa — the taxonomy\n\
         of section 5 made operational."
    );
}

fn summarize(out: &soft_engine::ExecOutcome) -> String {
    match out {
        soft_engine::ExecOutcome::Rows(rs) => match rs.scalar() {
            Some(v) => format!("rows (scalar = {})", v.render()),
            None => format!("rows ({}x{})", rs.rows.len(), rs.columns.len()),
        },
        soft_engine::ExecOutcome::Ok(m) => format!("ok ({m})"),
        soft_engine::ExecOutcome::Error(e) => format!("error ({e})"),
        soft_engine::ExecOutcome::Crash(c) => format!("CRASH ({c})"),
    }
}

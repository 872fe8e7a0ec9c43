//! The campaign benchmark.
//!
//! ```text
//! perfbench --workload <table4|oracles|schedule|smoke> --seed <n> --seconds <s> --trace <0|1>
//! perfbench record
//! ```
//!
//! With `--trace 0` it runs the workload's campaigns as `repro campaign`
//! does, with two workers and tracing off, for about `--seconds`, and prints
//! the end-to-end metrics. With `--trace 1` it runs one untraced iteration,
//! a telemetry-off pair, and the traced replay, and prints the per-layer
//! metrics. Either way the last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`.
//!
//! `record` prints the fingerprint of every campaign a seed or a test can
//! select, the contents of `fingerprints.txt`.

mod fingerprint;
mod measure;
mod replay;
mod workload;

use measure::{Tally, Timed};
use replay::{Counters, Fidelity, Tracer};
use soft_core::{CampaignConfig, TelemetryConfig};
use soft_dialects::DialectProfile;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Workload, VARIANTS, WORKERS, WORKLOADS};

/// The end-to-end metrics and their units, as BENCHMARK.json lists them.
const END_TO_END: [(&str, &str); 4] = [
    ("stmts_per_s", "1/s"),
    ("campaign_s", "s"),
    ("bugs_per_min", "1/min"),
    ("setup_s", "s"),
];

/// The per-layer metrics and their units, as BENCHMARK.json lists them.
const PER_LAYER: [(&str, &str); 24] = [
    ("dialects.build_ms", "ms"),
    ("collect.ms", "ms"),
    ("patterns.generate_ms", "ms"),
    ("patterns.cases", "count"),
    ("patterns.used_ratio", "ratio"),
    ("parser.parse_us", "us"),
    ("engine.prepare_us", "us"),
    ("engine.execute_us", "us"),
    ("engine.batch_share", "ratio"),
    ("engine.batch_us", "us"),
    ("engine.restore_us", "us"),
    ("engine.crashes", "count"),
    ("engine.clone_us", "us"),
    ("engine.string_exec_us", "us"),
    ("oracle.multi_form_us", "us"),
    ("oracle.logic_hits", "count"),
    ("oracle.pivot_ms", "ms"),
    ("oracle.differential_ms", "ms"),
    ("minimize.finding_ms", "ms"),
    ("campaign.busy_ratio", "ratio"),
    ("campaign.shards", "count"),
    ("campaign.peak_rss_mb", "MB"),
    ("schedule.epochs", "count"),
    ("obs.telemetry_share", "ratio"),
];

/// Where the traced run writes its Chrome trace-event files.
fn traces_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces")
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("record") {
        return record();
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload.seeded(args.seed);
    println!(
        "workload {} (seed {}): {} campaigns of {} statements, {WORKERS} workers",
        w.name,
        args.seed,
        w.dialects.len(),
        w.budget
    );
    let mut tally = Tally::default();
    let metrics = if args.trace {
        match per_layer(&w, &mut tally) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        end_to_end(&w, args.seconds, &mut tally)
    };
    println!("{}", result_line(&tally, &metrics));
    ExitCode::SUCCESS
}

/// Runs the untraced iterations and returns the end-to-end metrics, in
/// [`END_TO_END`] order. `peak_rss_mb` is printed as a line, and as
/// missing, not 0, without `/proc`; it is not a result metric, because the
/// amount of freed memory glibc keeps mapped makes it spread by more than
/// any useful bound between runs of the same code.
fn end_to_end(w: &Workload, seconds: f64, tally: &mut Tally) -> Vec<(&'static str, f64)> {
    let m = measure::end_to_end(w, seconds, tally);
    println!("{} iterations", m.iterations);
    let values = [m.stmts_per_s, m.campaign_s, m.bugs_per_min, m.setup_s];
    let mut out = Vec::new();
    for ((name, unit), v) in END_TO_END.iter().zip(values) {
        println!("{name} {v:.4} {unit}");
        out.push((*name, v));
    }
    match m.peak_rss_mb {
        Some(v) => println!("peak_rss_mb {v:.4} MB"),
        None => println!("peak_rss_mb missing MB"),
    }
    println!(
        "campaigns_failed {:.4} share ({} of {})",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    out
}

/// The traced run: one untraced iteration (busy ratio, shards, epochs, and
/// the reports replay fidelity compares with), a telemetry-off run of each
/// campaign, and the traced replay of each static-planner campaign.
/// Returns the per-layer metrics in [`PER_LAYER`] order.
fn per_layer(w: &Workload, tally: &mut Tally) -> Result<Vec<(&'static str, f64)>, String> {
    let profiles: Vec<DialectProfile> = w
        .dialects
        .iter()
        .map(|&d| DialectProfile::build(d))
        .collect();
    let rss_reset = measure::reset_peak_rss();
    let it = measure::iteration(w, &profiles, tally);
    let peak_rss_mb = measure::peak_rss_mb()
        .filter(|_| rss_reset)
        .unwrap_or(f64::NAN);
    let shard_ns: u128 = it
        .runs
        .iter()
        .flat_map(|t| &t.run.shard_timings)
        .map(|s| s.nanos)
        .sum();
    let wall_ns: u128 = it.runs.iter().map(|t| t.run.wall_nanos).sum();
    let busy_ratio = shard_ns as f64 / (WORKERS as f64 * wall_ns.max(1) as f64);
    let shards: usize = it.runs.iter().map(|t| t.run.report.shards.len()).sum();
    let epochs: usize = it
        .runs
        .iter()
        .filter_map(|t| t.run.report.telemetry.as_ref())
        .map(|tel| tel.epochs.len())
        .sum();

    // The paired telemetry-off runs, each right after its CLI-config twin.
    let off = CampaignConfig {
        telemetry: TelemetryConfig::Off,
        ..w.config()
    };
    let (mut on_s, mut off_s) = (0.0, 0.0);
    for timed in &it.runs {
        let profile = profiles.iter().find(|p| p.id == timed.run.report.dialect);
        let profile = profile.expect("every run has its profile");
        if let Some(o) = tally.count(measure::campaign(w, profile, &off, WORKERS)) {
            on_s += timed.wall.as_secs_f64();
            off_s += o.wall.as_secs_f64();
        }
    }
    let telemetry_share = if on_s > 0.0 {
        (on_s - off_s) / on_s
    } else {
        0.0
    };

    // The replayed campaigns and the untraced reports they must reproduce.
    let sw = w.static_planner();
    let references: Vec<Timed> = if w.schedule {
        let cfg = sw.config();
        profiles
            .iter()
            .filter_map(|p| tally.count(measure::campaign(&sw, p, &cfg, WORKERS)))
            .collect()
    } else {
        it.runs
    };
    let dir = traces_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut t = Tracer::default();
    let mut c = Counters::default();
    for &d in sw.dialects {
        let replayed = replay::replay(&sw, d, &mut t, &mut c, &dir)?;
        let expected = references.iter().find(|r| r.run.report.dialect == d);
        let result = match expected.map(|r| Fidelity::of(&r.run.report)) {
            Some(e) if e == replayed => Ok(()),
            Some(e) => Err(format!(
                "{} {}: replay diverged from the untraced campaign:\n  untraced {e:?}\n  replayed {replayed:?}",
                sw.name,
                d.name()
            )),
            None => Err(format!("{} {}: no untraced report to compare", sw.name, d.name())),
        };
        tally.count(result);
    }
    println!("traces: {}", dir.display());

    let ms = |name: &str| t.total_ns(name) as f64 / 1e6;
    let values = [
        ms("dialects.build"),
        ms("collect"),
        ms("patterns.ctx") + ms("patterns.apply"),
        c.cases as f64,
        c.planned as f64 / c.cases.max(1) as f64,
        t.mean_ns("parser.parse") / 1e3,
        t.mean_ns("engine.prepare") / 1e3,
        t.mean_ns("engine.execute") / 1e3,
        c.batched as f64 / c.executed.max(1) as f64,
        t.total_ns("engine.batch") as f64 / 1e3 / c.batched.max(1) as f64,
        t.mean_ns("engine.restore") / 1e3,
        c.crashes as f64,
        t.mean_ns("engine.clone") / 1e3,
        t.mean_ns("engine.string_exec") / 1e3,
        t.mean_ns("oracle.multi_form") / 1e3,
        c.logic_hits as f64,
        t.mean_ns("oracle.pivot") / 1e6,
        t.mean_ns("oracle.differential") / 1e6,
        t.mean_ns("minimize.finding") / 1e6,
        busy_ratio,
        shards as f64,
        peak_rss_mb,
        epochs as f64,
        telemetry_share,
    ];
    let metrics: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .zip(values)
        .collect();
    for ((name, unit), (_, v)) in PER_LAYER.iter().zip(&metrics) {
        println!("{name} {v:.4} {unit}");
    }
    Ok(metrics)
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// with its value and unit. Non-finite values are left out.
fn result_line(tally: &Tally, metrics: &[(&'static str, f64)]) -> String {
    let unit = |name: &str| {
        END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| *u)
    };
    let body: Vec<String> = metrics
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                unit(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// Prints the fingerprint of every campaign a seed or a test can select.
fn record() -> ExitCode {
    for base in WORKLOADS {
        let budgets = (0..VARIANTS)
            .map(|s| base.seeded(s))
            .chain([base.reduced()]);
        for w in budgets {
            let cfg = w.config();
            for &d in w.dialects {
                let profile = DialectProfile::build(d);
                let run = soft_core::run_soft_parallel_live(
                    &profile,
                    &cfg,
                    WORKERS,
                    &workload::live_plane(),
                );
                println!(
                    "{}",
                    fingerprint::Fingerprint::of(&run.report).line(w.name, d, w.budget)
                );
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the benchmark prints appears in BENCHMARK.json with the
    /// same unit, and the result line carries each with its unit.
    #[test]
    fn metric_names_and_units_match_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let metrics: Vec<(&'static str, f64)> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|&(n, _)| (n, 1.5))
            .collect();
        let line = result_line(
            &Tally {
                attempted: 3,
                failed: 0,
            },
            &metrics,
        );
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let printed = format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}");
            assert!(line.contains(&printed), "{line} lacks {printed}");
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
    }

    /// A reduced workload prints every end-to-end and per-layer metric.
    #[test]
    fn reduced_runs_print_every_metric() {
        let w = Workload::by_name("oracles")
            .expect("oracles exists")
            .reduced();
        let mut tally = Tally::default();
        let e2e = end_to_end(&w, 0.1, &mut tally);
        let names: Vec<&str> = e2e.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n));
        assert!(e2e.iter().all(|&(_, v)| v > 0.0), "{e2e:?}");
        let layers = per_layer(&w, &mut tally).expect("traced run");
        assert_eq!(
            layers.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            PER_LAYER.map(|(n, _)| n)
        );
        assert_eq!(tally.failed, 0);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok =
            parse_args(&args("--workload smoke --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            (ok.workload.name, ok.seed, ok.seconds, ok.trace),
            ("smoke", 7, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 10 --trace 0",
            "--workload smoke --seed -1 --seconds 10 --trace 0",
            "--workload smoke --seed 1 --seconds 0 --trace 0",
            "--workload smoke --seed 1 --seconds 10 --trace 2",
            "--workload smoke --seed 1 --seconds 10",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted {bad}");
        }
    }
}

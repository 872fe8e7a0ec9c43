//! The untraced runs: set-up timing, campaigns as `repro campaign` runs
//! them, and the end-to-end metrics.

use crate::fingerprint;
use crate::workload::{live_plane, Workload, WORKERS};
use soft_core::{run_soft_parallel_live, CampaignConfig, CampaignRun};
use soft_dialects::DialectProfile;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-up repetitions before each iteration; `setup_s` is the median of
/// all of them. The host's speed drifts over seconds, so the repetitions
/// are spread over the whole run rather than taken in one burst.
const SETUP_REPEATS: usize = 21;

/// Campaigns attempted and failed, for the result line.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Campaigns started.
    pub attempted: usize,
    /// Campaigns that panicked or failed a correctness check.
    pub failed: usize,
}

impl Tally {
    /// Counts one campaign, passing its result through.
    pub fn count<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: campaign failed: {e}");
                None
            }
        }
    }
}

/// One finished campaign and its wall time, measured around the call.
pub struct Timed {
    /// The campaign's run.
    pub run: CampaignRun,
    /// Wall time of the call.
    pub wall: Duration,
}

/// Runs one campaign with a fresh live plane, under `catch_unwind`, and
/// checks its report against the committed fingerprint of `check_as`.
pub fn campaign(
    check_as: &Workload,
    profile: &DialectProfile,
    cfg: &CampaignConfig,
    workers: usize,
) -> Result<Timed, String> {
    let who = format!(
        "{} {} at {}",
        check_as.name,
        profile.id.name(),
        cfg.max_statements
    );
    let t = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        run_soft_parallel_live(profile, cfg, workers, &live_plane())
    }))
    .map_err(|panic| format!("{who} panicked: {}", panic_message(panic.as_ref())))?;
    let wall = t.elapsed();
    fingerprint::check(check_as.name, profile.id, check_as.budget, &run.report)
        .map_err(|e| format!("{who}: {e}"))?;
    Ok(Timed { run, wall })
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// One pass over the workload's campaigns.
pub struct Iteration {
    /// The campaigns that passed, in dialect order.
    pub runs: Vec<Timed>,
}

impl Iteration {
    /// Wall time of the passing campaigns.
    pub fn wall(&self) -> Duration {
        self.runs.iter().map(|t| t.wall).sum()
    }

    /// Statements the passing campaigns executed.
    pub fn statements(&self) -> usize {
        self.runs
            .iter()
            .map(|t| t.run.report.statements_executed)
            .sum()
    }

    /// Unique findings of the passing campaigns.
    pub fn findings(&self) -> usize {
        self.runs.iter().map(|t| t.run.report.findings.len()).sum()
    }
}

/// Runs every campaign of the workload once, with [`WORKERS`] workers.
pub fn iteration(w: &Workload, profiles: &[DialectProfile], tally: &mut Tally) -> Iteration {
    let cfg = w.config();
    let runs = profiles
        .iter()
        .filter_map(|p| tally.count(campaign(w, p, &cfg, WORKERS)))
        .collect();
    Iteration { runs }
}

/// Builds the workload's dialect profiles [`SETUP_REPEATS`] times,
/// appending each set-up time in seconds to `times`, and returns the last
/// set.
pub fn setup(w: &Workload, times: &mut Vec<f64>) -> Vec<DialectProfile> {
    let mut profiles = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        profiles = w
            .dialects
            .iter()
            .map(|&d| DialectProfile::build(d))
            .collect();
        times.push(t.elapsed().as_secs_f64());
    }
    profiles
}

/// The end-to-end metrics of one run, before formatting.
pub struct EndToEnd {
    /// Statements of one iteration divided by `campaign_s`.
    pub stmts_per_s: f64,
    /// Mean wall time of one iteration, in seconds. The mean, because the
    /// host switches between a fast and a slow speed every few seconds,
    /// and a median of a few iterations jumps between the two.
    pub campaign_s: f64,
    /// Unique findings of one iteration per minute of `campaign_s`.
    pub bugs_per_min: f64,
    /// Median over iterations of the process's peak resident set during
    /// the iteration, in MB; `None` without `/proc`.
    pub peak_rss_mb: Option<f64>,
    /// Median set-up time in seconds.
    pub setup_s: f64,
    /// Iterations measured.
    pub iterations: usize,
}

/// Runs whole iterations for about `seconds`: another iteration starts only
/// while the time used plus the last iteration's wall time fits. Set-up
/// repetitions and a reset of the peak-RSS mark precede every iteration.
pub fn end_to_end(w: &Workload, seconds: f64, tally: &mut Tally) -> EndToEnd {
    let start = Instant::now();
    let mut setup_times = Vec::new();
    let mut rss = Vec::new();
    let mut walls = Vec::new();
    let (mut statements, mut findings) = (0, 0);
    loop {
        let profiles = setup(w, &mut setup_times);
        let rss_reset = reset_peak_rss();
        let it = iteration(w, &profiles, tally);
        rss.extend(peak_rss_mb().filter(|_| rss_reset));
        let per_campaign: Vec<String> = it
            .runs
            .iter()
            .map(|t| format!("{:.3}", t.wall.as_secs_f64()))
            .collect();
        eprintln!(
            "iteration {}: {}",
            walls.len() + 1,
            per_campaign.join(" + ")
        );
        if it.runs.len() == profiles.len() {
            walls.push(it.wall().as_secs_f64());
            // Deterministic: equal in every passing iteration.
            (statements, findings) = (it.statements(), it.findings());
        }
        let used = start.elapsed().as_secs_f64();
        if it.runs.is_empty() || used + it.wall().as_secs_f64() > seconds {
            break;
        }
    }
    let campaign_s = walls.iter().sum::<f64>() / walls.len() as f64;
    EndToEnd {
        stmts_per_s: statements as f64 / campaign_s,
        campaign_s,
        bugs_per_min: findings as f64 * 60.0 / campaign_s,
        peak_rss_mb: (!rss.is_empty()).then(|| median(&mut rss)),
        setup_s: median(&mut setup_times),
        iterations: walls.len(),
    }
}

/// The median; `NaN` for no samples.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Resets the process's peak resident set to its current one (Linux's
/// `clear_refs` code 5); false where that is unavailable.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set (`VmHWM`) in MB, or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn peak_rss_is_positive_where_proc_exists() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }
}

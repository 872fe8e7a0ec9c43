//! The four benchmark workloads and the campaign configuration they run.
//!
//! Every campaign runs the `CampaignConfig` and live plane that
//! `repro campaign <dialect> --budget N` builds: per-seed cap 64, telemetry
//! on with a snapshot every budget/20 statements, batching on, a metrics
//! registry and the shard watchdog attached, and no HTTP server, spans or
//! journal file.

use soft_core::{
    CampaignConfig, LivePlane, OracleConfig, ScheduleConfig, TelemetryConfig, TelemetryOptions,
};
use soft_dialects::DialectId;
use soft_obs::{LiveMetrics, WatchdogConfig};
use std::sync::Arc;

/// Worker threads of every untraced campaign.
pub const WORKERS: usize = 2;

/// How many budget variants a workload seed selects from. Every variant has
/// committed fingerprints, so the correctness check covers every seed.
pub const VARIANTS: u64 = 4;

/// Epochs of the `schedule` workload (the scheduler's default).
const EPOCHS: usize = 8;

/// The paper's Table 4 corpora.
const TABLE4_DIALECTS: &[DialectId] = &[
    DialectId::Clickhouse,
    DialectId::Monetdb,
    DialectId::Mariadb,
];

/// One workload: a set of campaigns, one per dialect, all with one
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// One campaign per dialect, in this order.
    pub dialects: &'static [DialectId],
    /// Statements per campaign.
    pub budget: usize,
    /// Whether the campaigns run with `--oracles`.
    pub oracles: bool,
    /// Whether the campaigns run with `--schedule`.
    pub schedule: bool,
}

/// The benchmark's workloads. BENCHMARK.json gives the reason for each.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "table4",
        dialects: TABLE4_DIALECTS,
        budget: 60_000,
        oracles: false,
        schedule: false,
    },
    Workload {
        name: "oracles",
        dialects: TABLE4_DIALECTS,
        budget: 20_000,
        oracles: true,
        schedule: false,
    },
    Workload {
        name: "schedule",
        dialects: TABLE4_DIALECTS,
        budget: 60_000,
        oracles: false,
        schedule: true,
    },
    Workload {
        name: "smoke",
        dialects: &DialectId::ALL,
        budget: 3_000,
        oracles: false,
        schedule: false,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The workload as a seed selects it: seed `s` adds
    /// `(s mod VARIANTS) * budget / 200` statements to every campaign, so
    /// different seeds give the program different inputs while the work per
    /// campaign stays within 1.5%.
    pub fn seeded(self, seed: u64) -> Workload {
        let variant = (seed % VARIANTS) as usize;
        Workload {
            budget: self.budget + variant * self.budget / 200,
            ..self
        }
    }

    /// The workload at a twentieth of its budget, for the tests.
    pub fn reduced(self) -> Workload {
        Workload {
            budget: self.budget / 20,
            ..self
        }
    }

    /// The static-planner counterpart: the same campaigns without
    /// `--schedule`. The traced replay runs these.
    pub fn static_planner(self) -> Workload {
        Workload {
            name: if self.schedule { "table4" } else { self.name },
            schedule: false,
            ..self
        }
    }

    /// The configuration `repro campaign` builds for this workload's flags
    /// and budget.
    pub fn config(&self) -> CampaignConfig {
        CampaignConfig {
            max_statements: self.budget,
            per_seed_cap: 64,
            telemetry: TelemetryConfig::On(TelemetryOptions {
                snapshot_interval: self.snapshot_interval(),
                journal_path: None,
            }),
            oracles: if self.oracles {
                OracleConfig::on()
            } else {
                OracleConfig::Off
            },
            batch: true,
            schedule: if self.schedule {
                ScheduleConfig::with_epochs(EPOCHS)
            } else {
                ScheduleConfig::Off
            },
            repository: None,
            ..CampaignConfig::default()
        }
    }

    /// The telemetry snapshot interval `repro campaign` derives from the
    /// budget.
    pub fn snapshot_interval(&self) -> usize {
        (self.budget / 20).clamp(100, 10_000)
    }
}

/// A fresh live plane as `repro campaign` attaches it: a metrics registry
/// and the default shard watchdog, with spans off.
pub fn live_plane() -> LivePlane {
    LivePlane {
        metrics: Some(Arc::new(LiveMetrics::new())),
        watchdog: Some(WatchdogConfig::default()),
        spans: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_cycle_through_the_budget_variants() {
        let w = Workload::by_name("table4").expect("table4 exists");
        let budgets: Vec<usize> = (0..6).map(|s| w.seeded(s).budget).collect();
        assert_eq!(budgets, [60_000, 60_300, 60_600, 60_900, 60_000, 60_300]);
        assert_eq!(w.seeded(u64::MAX).budget, 60_900);
    }

    #[test]
    fn schedule_replays_as_table4() {
        let s = Workload::by_name("schedule")
            .expect("schedule exists")
            .seeded(2);
        let t = Workload::by_name("table4")
            .expect("table4 exists")
            .seeded(2);
        assert_eq!(s.static_planner(), t);
        assert!(s.config().schedule.is_on());
        assert!(!t.config().schedule.is_on());
    }
}

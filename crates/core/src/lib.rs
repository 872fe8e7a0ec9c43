//! SOFT — the pattern-based SQL function bug detector of the paper,
//! reimplemented.
//!
//! The pipeline follows §7.1: **collection** (documentation + test suite →
//! seed function expressions), **pattern-based generation** (the ten
//! boundary-value-generation patterns of §6 applied to the seeds, capped at
//! two nested function expressions per Finding 3), and **bug detection**
//! (execute, watch for crash outcomes, deduplicate by crash signature,
//! restart the target after each crash).
//!
//! Two campaign-steering layers sit on top of the pipeline: [`schedule`]
//! (the epoch-based bandit that reallocates the statement budget across
//! (pattern × seed-category) arms from the deterministic telemetry of prior
//! epochs) and [`repo`] (the persistent seed repository that feeds one
//! campaign's distilled findings — PoCs and boundary literals — into the
//! next, across dialects).
//!
//! # Examples
//!
//! ```no_run
//! use soft_core::campaign::{run_soft_parallel, CampaignConfig};
//! use soft_dialects::{DialectId, DialectProfile};
//!
//! let profile = DialectProfile::build(DialectId::Clickhouse);
//! let report = run_soft_parallel(&profile, &CampaignConfig::default(), 1);
//! println!("{} bugs found", report.findings.len());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod campaign;
pub mod collect;
pub mod extend;
pub mod forensics;
pub mod minimize;
pub mod oracle;
pub mod patterns;
pub mod pool;
pub mod repo;
pub mod report;
pub mod schedule;

pub use campaign::{
    default_workers, run_generator, run_soft_parallel, run_soft_parallel_live, CampaignConfig,
    CampaignRun, LivePlane, ShardTiming, StatementGenerator,
};
pub use forensics::{bundle_finding, replay_all, replay_bundle, write_campaign_bundles};
pub use oracle::{LogicBug, OracleConfig, OracleKind};
pub use patterns::{GenCtx, GeneratedCase};
pub use repo::{IngestStats, RepoEntry, RepoStats, SeedRepository};
pub use report::{render_table4, BugFinding, CampaignReport, FindingKind, ShardStats};
pub use schedule::{ArmId, ArmReward, Bandit, ScheduleConfig, ScheduleOptions};
// The telemetry vocabulary, re-exported so campaign callers need not name
// `soft-obs` directly.
pub use soft_obs::{CampaignTelemetry, StageLatency, TelemetryConfig, TelemetryOptions};

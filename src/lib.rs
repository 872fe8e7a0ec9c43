//! # soft-repro
//!
//! A reproduction of *Understanding and Detecting SQL Function Bugs: Using
//! Simple Boundary Arguments to Trigger Hundreds of DBMS Bugs* (EuroSys '25).
//!
//! The workspace implements, from scratch:
//!
//! * [`engine`] — an in-memory SQL engine (parser, three-stage pipeline,
//!   ~190 built-in functions, coverage instrumentation, crash model);
//! * [`dialects`] — seven simulated DBMS targets carrying the paper's
//!   Table 4 as a 132-fault corpus;
//! * [`soft`] — the SOFT tool itself: collection, the ten boundary-value
//!   generation patterns, and the campaign runner;
//! * [`baselines`] — SQLsmith/SQLancer/SQUIRREL-lite for the comparison;
//! * [`study`] — the 318-bug characteristic study with its analyses;
//! * [`obs`] — campaign observability: the statement-level event journal,
//!   per-pattern yield metrics, and coverage-growth curves (all merged
//!   deterministically, so telemetry never perturbs campaign results);
//! * [`rng`] — the workspace's only randomness source (xoshiro256**) plus
//!   the in-tree property-testing harness, keeping the build std-only.
//!
//! # Examples
//!
//! ```
//! use soft_repro::dialects::{DialectId, DialectProfile};
//! use soft_repro::soft::campaign::{run_soft_parallel, CampaignConfig};
//!
//! // Hunt for the six ClickHouse bugs of Table 4 with a small budget.
//! let profile = DialectProfile::build(DialectId::Clickhouse);
//! let report = run_soft_parallel(
//!     &profile,
//!     &CampaignConfig { max_statements: 20_000, per_seed_cap: 32, ..CampaignConfig::default() },
//!     1,
//! );
//! assert!(!report.findings.is_empty());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use soft_baselines as baselines;
pub use soft_core as soft;
pub use soft_dialects as dialects;
pub use soft_engine as engine;
pub use soft_obs as obs;
pub use soft_parser as parser;
pub use soft_rng as rng;
pub use soft_study as study;
pub use soft_types as types;

//! Campaign observability (`soft-obs`).
//!
//! The paper's evaluation needs *visibility into the campaign*: Table 4's
//! per-category yields, Table 6's coverage comparison, and the §7.5
//! unique-bugs-over-time curves all presuppose knowing, per statement, which
//! pattern fired, what the outcome was, and how coverage grew. This crate is
//! that layer for the reproduction's campaign runner:
//!
//! * [`event`] — the statement-level [`StatementEvent`]: seed id, pattern
//!   id, target function, outcome class, fault id, and a monotonic global
//!   statement index;
//! * [`journal`] — per-shard event buffers merged deterministically into
//!   global statement order, plus the JSONL sink and its reader;
//! * [`metrics`] — per-pattern and per-function-category
//!   generated/executed/crashing yield counters;
//! * [`latency`] — fixed-bucket wall-clock histograms per pipeline stage
//!   (generate, parse, execute, minimize), a view of the flight recorder's
//!   spans;
//! * [`curve`] — coverage-vs-statements and unique-bugs-vs-statements
//!   growth series (the §7.5 analogue);
//! * [`telemetry`] — the [`TelemetryConfig`] campaign knob, what each
//!   shard records for the journal ([`ShardTelemetry`]), and the
//!   deterministic shard merge;
//! * [`schedule`] — the feedback scheduler's deterministic epoch
//!   reallocation records ([`EpochRealloc`]), journaled beside the events;
//! * [`json`] — the hand-rolled std-only JSON helpers behind the JSONL
//!   sink (the same idiom as `soft-bench`'s `BENCH_*.json` writer).
//!
//! On top of the deterministic plane sits the **live plane** — wall-clock
//! observability that workers feed wait-free while the campaign runs and
//! that never participates in report equality:
//!
//! * [`live`] — the lock-free [`LiveMetrics`] registry (atomic counters per
//!   pattern / outcome class / shard) and its snapshot renderers
//!   (Prometheus text, flat JSON status, JSONL curves, TTY progress line);
//! * [`http`] — a std-only HTTP/1.1 exposition server ([`MetricsServer`])
//!   serving `/metrics`, `/status`, and `/curve` from the registry;
//! * [`watchdog`] — a polling observer over the registry's per-shard
//!   heartbeats that reports stalled and slow shards ([`WatchdogReport`]);
//! * [`forensics`] — per-unique-fault triage [`Bundle`]s
//!   (`findings/<fault-id>/` with PoC, provenance, and replay command);
//! * [`span`] — the flight recorder: hierarchical wall-clock spans
//!   (campaign → epoch → shard → statement stage) recorded
//!   into per-worker buffers, merged into a [`SpanTrace`] on `CampaignRun`,
//!   and exported as Chrome trace-event JSON for Perfetto.
//!
//! # Determinism
//!
//! The deterministic plane is a pure function of the campaign
//! configuration: events are recorded against the *planned* statement
//! stream (whose shard decomposition never depends on the worker count)
//! and merged by global statement index, so a telemetry-on parallel run
//! produces the same journal, yields, and curves event-for-event as the
//! serial reference. Telemetry reads no clock. Wall-clock stage timings
//! come only from the flight recorder's spans, and the stage histograms
//! ([`StageLatency`]) are a view of them, kept off the report so reports
//! stay byte-comparable.
//!
//! # Examples
//!
//! ```
//! use soft_obs::{Journal, OutcomeClass, StatementEvent};
//!
//! let shard0 = vec![StatementEvent::seed(1, 0, 0, Some("floor".into()))];
//! let mut crash = StatementEvent::seed(2, 0, 1, Some("substr".into()));
//! crash.outcome = OutcomeClass::Crash;
//! crash.fault_id = Some("demo-001".into());
//! let journal = Journal::merge_shards(vec![vec![crash], shard0]);
//! assert_eq!(journal.events[0].index, 1);
//! assert_eq!(journal.unique_faults(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod curve;
pub mod event;
pub mod forensics;
pub mod http;
pub mod journal;
pub mod json;
pub mod latency;
pub mod live;
pub mod metrics;
pub mod schedule;
pub mod span;
pub mod telemetry;
pub mod watchdog;

pub use curve::{BugPoint, CoveragePoint, GrowthCurves};
pub use event::{OutcomeClass, StatementEvent};
pub use forensics::Bundle;
pub use http::MetricsServer;
pub use journal::{Journal, TraceFile};
pub use latency::{LatencyHistogram, StageLatency};
pub use live::{LiveMetrics, LiveSnapshot};
pub use metrics::{CategoryYield, PatternYield, YieldMetrics};
pub use schedule::{ArmAlloc, EpochRealloc};
pub use span::{SpanRecord, SpanSink, SpanTrace};
pub use telemetry::{
    CampaignTelemetry, ShardTelemetry, TelemetryConfig, TelemetryOptions,
};
pub use watchdog::{WatchdogConfig, WatchdogReport};

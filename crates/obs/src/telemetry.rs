//! The campaign telemetry knob, what each shard records for the journal,
//! and the deterministic shard merge.
//!
//! # Why the merged telemetry is deterministic
//!
//! Every event is stamped with its *planned* global statement index at
//! recording time — shards know their `start_offset` in the planned stream,
//! which depends only on the campaign configuration. The merge then sorts
//! by that index, unions coverage snapshots in shard order, and folds the
//! ordered event stream into yields and curves. No wall clock, worker id,
//! or completion order participates: the campaign's wall-clock stage
//! timings are flight-recorder spans, which never pass through here.

use crate::curve::{CoveragePoint, GrowthCurves};
use crate::event::StatementEvent;
use crate::journal::{Journal, TraceFile};
use crate::metrics::YieldMetrics;
use crate::schedule::EpochRealloc;
use soft_engine::{Coverage, PatternId};
use soft_types::category::FunctionCategory;
use std::path::PathBuf;

/// The campaign's telemetry knob.
///
/// `Off` is the default and costs one branch per executed statement — no
/// allocation, no buffers. Telemetry reads no clock either way.
#[derive(Debug, Clone, Default)]
pub enum TelemetryConfig {
    /// No telemetry (the default).
    #[default]
    Off,
    /// Record the event journal, yields and curves.
    On(TelemetryOptions),
}

impl TelemetryConfig {
    /// Telemetry on with default options.
    pub fn on() -> TelemetryConfig {
        TelemetryConfig::On(TelemetryOptions::default())
    }

    /// Telemetry on with a specific coverage-snapshot interval.
    pub fn with_interval(snapshot_interval: usize) -> TelemetryConfig {
        TelemetryConfig::On(TelemetryOptions { snapshot_interval, ..TelemetryOptions::default() })
    }

    /// The options, when telemetry is on.
    pub fn options(&self) -> Option<&TelemetryOptions> {
        match self {
            TelemetryConfig::Off => None,
            TelemetryConfig::On(opts) => Some(opts),
        }
    }

    /// True when telemetry is enabled.
    pub fn is_on(&self) -> bool {
        self.options().is_some()
    }
}

/// Options for a telemetry-on campaign.
#[derive(Debug, Clone)]
pub struct TelemetryOptions {
    /// Take a coverage snapshot every this many statements (global index).
    /// The interval is part of the campaign semantics: two runs compare
    /// equal only under the same interval.
    pub snapshot_interval: usize,
    /// When set, the merged journal is written to this path as JSONL for
    /// `repro trace`.
    pub journal_path: Option<PathBuf>,
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        TelemetryOptions { snapshot_interval: 1_000, journal_path: None }
    }
}

/// Everything one shard records; produced by the campaign runner's shard
/// loop and consumed by [`merge_shards`].
#[derive(Debug, Clone)]
pub struct ShardTelemetry {
    /// Shard index (global statement order).
    pub shard: usize,
    /// The shard's event buffer, in local execution order.
    pub events: Vec<StatementEvent>,
    /// Coverage snapshots as `(global statement count, coverage)` pairs.
    pub snapshots: Vec<(usize, Coverage)>,
    /// The shard engine's coverage after its last statement.
    pub final_coverage: Coverage,
}

/// The deterministic telemetry of one campaign — part of the campaign
/// report's `PartialEq` surface, so the byte-identical-for-any-worker-count
/// guarantee extends to the journal, yields, and curves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignTelemetry {
    /// The globally ordered event journal.
    pub journal: Journal,
    /// Per-pattern and per-category yield counters.
    pub yields: YieldMetrics,
    /// Coverage-growth and unique-bug-growth series.
    pub curves: GrowthCurves,
    /// Per-pattern counts of the cases the planner drew, planned or
    /// skipped as duplicates (duplicated from the report's
    /// `generated_per_pattern` so a journal file is self-contained).
    pub generated: Vec<(PatternId, usize)>,
    /// The snapshot interval the curves were sampled at.
    pub snapshot_interval: usize,
    /// The feedback scheduler's epoch reallocations, in epoch order. Empty
    /// for statically scheduled campaigns. Inside the equality surface:
    /// scheduling decisions must be identical at any worker count.
    pub epochs: Vec<EpochRealloc>,
}

impl CampaignTelemetry {
    /// Packages the telemetry as a [`TraceFile`] for the JSONL sink.
    pub fn to_trace(&self, dialect: Option<&str>, statements: usize) -> TraceFile {
        TraceFile {
            dialect: dialect.map(str::to_string),
            statements: Some(statements),
            snapshot_interval: Some(self.snapshot_interval),
            generated: self.generated.clone(),
            journal: self.journal.clone(),
            coverage: self.curves.coverage.clone(),
            epochs: self.epochs.clone(),
        }
    }
}

/// Merges per-shard telemetry deterministically.
///
/// * events: concatenated and sorted by planned global index;
/// * coverage curve: shards walked in shard order, each snapshot unioned
///   with the running coverage of all *previous* shards — exactly the
///   coverage a serial run would have accumulated at that statement count;
/// * bug curve and yields: folds over the ordered journal.
pub fn merge_shards(
    mut shards: Vec<ShardTelemetry>,
    generated: &[(PatternId, usize)],
    snapshot_interval: usize,
    resolve: impl Fn(&str) -> Option<FunctionCategory>,
) -> CampaignTelemetry {
    shards.sort_by_key(|s| s.shard);

    let mut coverage_curve: Vec<CoveragePoint> = Vec::new();
    let mut running = Coverage::new();
    let mut buffers: Vec<Vec<StatementEvent>> = Vec::with_capacity(shards.len());
    for shard in shards {
        for (statements, snap) in &shard.snapshots {
            let mut union = running.clone();
            union.merge(snap);
            coverage_curve.push(CoveragePoint {
                statements: *statements,
                functions: union.functions_triggered(),
                branches: union.branches_covered(),
            });
        }
        running.merge(&shard.final_coverage);
        buffers.push(shard.events);
    }

    let journal = Journal::merge_shards(buffers);
    let yields = YieldMetrics::from_events(&journal.events, generated, resolve);
    let bugs = GrowthCurves::bugs_from_events(&journal.events);
    CampaignTelemetry {
        journal,
        yields,
        curves: GrowthCurves { coverage: coverage_curve, bugs },
        generated: generated.to_vec(),
        snapshot_interval,
        // The runner stamps scheduler epochs after the merge; a shard has
        // no say in budget reallocation.
        epochs: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OutcomeClass;

    fn shard(index: usize, start: usize, fns: &[&str]) -> ShardTelemetry {
        let mut cov = Coverage::new();
        let mut events = Vec::new();
        for (i, f) in fns.iter().enumerate() {
            cov.record_function(f);
            cov.record_branch(f, "site");
            events.push(StatementEvent::seed(start + i + 1, index, i, Some((*f).into())));
        }
        ShardTelemetry {
            shard: index,
            events,
            snapshots: vec![(start + fns.len(), cov.clone())],
            final_coverage: cov,
        }
    }

    #[test]
    fn merge_is_order_independent_and_unions_coverage() {
        let a = shard(0, 0, &["floor", "substr"]);
        let b = shard(1, 2, &["substr", "repeat"]);
        let fwd = merge_shards(vec![a.clone(), b.clone()], &[], 2, |_| None);
        let rev = merge_shards(vec![b, a], &[], 2, |_| None);
        assert_eq!(fwd, rev, "shard submission order leaked into telemetry");

        let indices: Vec<usize> = fwd.journal.events.iter().map(|e| e.index).collect();
        assert_eq!(indices, vec![1, 2, 3, 4]);
        // Snapshot 1: {floor, substr}; snapshot 2 unions shard 0's final
        // coverage with shard 1's snapshot: {floor, substr, repeat}.
        assert_eq!(fwd.curves.coverage[0].functions, 2);
        assert_eq!(fwd.curves.coverage[1].functions, 3);
        assert!(fwd.curves.coverage[1].branches >= fwd.curves.coverage[0].branches);
    }

    #[test]
    fn crash_events_flow_into_curves_and_yields() {
        let mut s = shard(0, 0, &["substr"]);
        s.events[0].outcome = OutcomeClass::Crash;
        s.events[0].fault_id = Some("f-1".into());
        s.events[0].pattern = Some(PatternId::P1_2);
        let t = merge_shards(vec![s], &[(PatternId::P1_2, 5)], 100, |_| {
            Some(FunctionCategory::String)
        });
        assert_eq!(t.curves.bugs.len(), 1);
        assert_eq!(t.yields.per_pattern[&PatternId::P1_2].unique_bugs, 1);
        assert_eq!(t.yields.per_category[&FunctionCategory::String].crashes, 1);
        let trace = t.to_trace(Some("MonetDB"), 1);
        let parsed = TraceFile::parse(&trace.to_jsonl()).expect("round trip");
        assert_eq!(parsed.journal, t.journal);
    }

    #[test]
    fn config_knob_defaults_off() {
        assert!(!TelemetryConfig::default().is_on());
        assert!(TelemetryConfig::on().is_on());
        assert_eq!(
            TelemetryConfig::with_interval(50).options().expect("on").snapshot_interval,
            50
        );
    }
}

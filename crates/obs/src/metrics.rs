//! Per-pattern and per-function-category yield metrics.
//!
//! Table 4 credits each bug to a pattern and a function category; these
//! counters generalize that to *every* executed statement, so a campaign can
//! answer "which pattern is earning its budget share" without re-running.
//! Everything here is a pure fold over the deterministic event journal, so
//! the metrics participate in the campaign report's equality.

use crate::event::{OutcomeClass, StatementEvent};
use soft_engine::PatternId;
use soft_types::category::FunctionCategory;
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

/// Yield counters for one generation pattern.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatternYield {
    /// Cases the planner drew from the pattern's queues: the ones it
    /// planned plus the ones it skipped as duplicates. Cases generated
    /// ahead of the planner are not counted.
    pub generated: usize,
    /// Statements of this pattern the campaign actually executed.
    pub executed: usize,
    /// Executed statements that crashed (including repeat faults).
    pub crashes: usize,
    /// Executed statements that raised ordinary SQL errors.
    pub errors: usize,
    /// Executed statements killed by resource limits (false positives).
    pub resource_limits: usize,
    /// Executed statements flagged wrong-result by a logic-bug oracle.
    pub logic_bugs: usize,
    /// Unique faults first triggered by this pattern (global dedup order),
    /// crash and logic-bug faults alike.
    pub unique_bugs: usize,
}

/// Yield counters for one function category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategoryYield {
    /// Statements targeting this category the campaign executed.
    pub executed: usize,
    /// Executed statements that crashed (including repeat faults).
    pub crashes: usize,
    /// Executed statements that raised ordinary SQL errors.
    pub errors: usize,
    /// Executed statements flagged wrong-result by a logic-bug oracle.
    pub logic_bugs: usize,
    /// Unique faults first triggered in this category (crash or logic-bug).
    pub unique_bugs: usize,
}

/// The full yield ledger: per-pattern and per-category counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct YieldMetrics {
    /// Counters per pattern (`None`-pattern seed replays are excluded).
    pub per_pattern: BTreeMap<PatternId, PatternYield>,
    /// Counters per function category, for events whose target function
    /// resolved to a known built-in.
    pub per_category: BTreeMap<FunctionCategory, CategoryYield>,
}

impl YieldMetrics {
    /// Folds a globally ordered event stream into yield counters.
    ///
    /// `generated` is the campaign's per-pattern count of cases the planner
    /// drew, planned or skipped as duplicates
    /// (`CampaignReport::generated_per_pattern`); `resolve` maps a function
    /// name to its category (usually `FunctionRegistry::resolve` composed
    /// with `|d| d.category`) and may return `None` for unknown names.
    pub fn from_events(
        events: &[StatementEvent],
        generated: &[(PatternId, usize)],
        resolve: impl Fn(&str) -> Option<FunctionCategory>,
    ) -> YieldMetrics {
        let mut out = YieldMetrics::default();
        for &(pattern, n) in generated {
            out.per_pattern.entry(pattern).or_default().generated = n;
        }
        let mut seen_faults: HashSet<&str> = HashSet::new();
        for e in events {
            let is_bug =
                matches!(e.outcome, OutcomeClass::Crash | OutcomeClass::LogicBug);
            let unique_bug = is_bug
                && e.fault_id.as_deref().is_some_and(|f| seen_faults.insert(f));
            if let Some(pattern) = e.pattern {
                let y = out.per_pattern.entry(pattern).or_default();
                y.executed += 1;
                match e.outcome {
                    OutcomeClass::Crash => y.crashes += 1,
                    OutcomeClass::Error => y.errors += 1,
                    OutcomeClass::ResourceLimit => y.resource_limits += 1,
                    OutcomeClass::LogicBug => y.logic_bugs += 1,
                    OutcomeClass::Ok => {}
                }
                if unique_bug {
                    y.unique_bugs += 1;
                }
            }
            if let Some(cat) = e.function.as_deref().and_then(&resolve) {
                let c = out.per_category.entry(cat).or_default();
                c.executed += 1;
                match e.outcome {
                    OutcomeClass::Crash => c.crashes += 1,
                    OutcomeClass::Error => c.errors += 1,
                    OutcomeClass::LogicBug => c.logic_bugs += 1,
                    _ => {}
                }
                if unique_bug {
                    c.unique_bugs += 1;
                }
            }
        }
        out
    }

    /// Renders the per-pattern table, highest-yield first (unique bugs,
    /// then crashes, then pattern order — a deterministic total order).
    pub fn render_pattern_table(&self) -> String {
        let mut rows: Vec<(&PatternId, &PatternYield)> = self.per_pattern.iter().collect();
        rows.sort_by(|(pa, a), (pb, b)| {
            (b.unique_bugs, b.crashes, *pa).cmp(&(a.unique_bugs, a.crashes, *pb))
        });
        let mut out = format!(
            "{:<8} {:>10} {:>10} {:>8} {:>8} {:>8} {:>7} {:>7}\n",
            "pattern", "generated", "executed", "crashes", "errors", "rlimit", "logic", "bugs"
        );
        for (p, y) in rows {
            let _ = writeln!(
                out,
                "{:<8} {:>10} {:>10} {:>8} {:>8} {:>8} {:>7} {:>7}",
                p.label(),
                y.generated,
                y.executed,
                y.crashes,
                y.errors,
                y.resource_limits,
                y.logic_bugs,
                y.unique_bugs
            );
        }
        out
    }

    /// Renders the per-category table, highest-yield first.
    pub fn render_category_table(&self) -> String {
        let mut rows: Vec<(&FunctionCategory, &CategoryYield)> = self.per_category.iter().collect();
        rows.sort_by(|(ca, a), (cb, b)| {
            (b.unique_bugs, b.crashes, *ca).cmp(&(a.unique_bugs, a.crashes, *cb))
        });
        let mut out = format!(
            "{:<12} {:>10} {:>8} {:>8} {:>7} {:>7}\n",
            "category", "executed", "crashes", "errors", "logic", "bugs"
        );
        for (c, y) in rows {
            let _ = writeln!(
                out,
                "{:<12} {:>10} {:>8} {:>8} {:>7} {:>7}",
                c.label(),
                y.executed,
                y.crashes,
                y.errors,
                y.logic_bugs,
                y.unique_bugs
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(
        index: usize,
        pattern: Option<PatternId>,
        function: &str,
        outcome: OutcomeClass,
        fault: Option<&str>,
    ) -> StatementEvent {
        StatementEvent {
            index,
            shard: 0,
            seed: Some(0),
            pattern,
            function: Some(function.into()),
            outcome,
            fault_id: fault.map(Into::into),
        }
    }

    fn resolve(name: &str) -> Option<FunctionCategory> {
        match name {
            "substr" => Some(FunctionCategory::String),
            "floor" => Some(FunctionCategory::Math),
            _ => None,
        }
    }

    #[test]
    fn folds_events_into_both_ledgers() {
        let events = vec![
            event(1, None, "substr", OutcomeClass::Ok, None),
            event(2, Some(PatternId::P1_2), "substr", OutcomeClass::Crash, Some("f-a")),
            event(3, Some(PatternId::P1_2), "substr", OutcomeClass::Crash, Some("f-a")),
            event(4, Some(PatternId::P3_3), "floor", OutcomeClass::Error, None),
            event(5, Some(PatternId::P3_3), "mystery", OutcomeClass::ResourceLimit, None),
        ];
        let m = YieldMetrics::from_events(&events, &[(PatternId::P1_2, 40)], resolve);

        let p12 = m.per_pattern[&PatternId::P1_2];
        assert_eq!(
            (p12.generated, p12.executed, p12.crashes, p12.unique_bugs),
            (40, 2, 2, 1)
        );
        let p33 = m.per_pattern[&PatternId::P3_3];
        assert_eq!((p33.executed, p33.errors, p33.resource_limits), (2, 1, 1));

        // Seed replays count toward categories but not patterns.
        let string = m.per_category[&FunctionCategory::String];
        assert_eq!((string.executed, string.crashes, string.unique_bugs), (3, 2, 1));
        let math = m.per_category[&FunctionCategory::Math];
        assert_eq!((math.executed, math.errors), (1, 1));
        // Unresolvable functions are skipped.
        assert_eq!(m.per_category.len(), 2);
    }

    #[test]
    fn logic_bug_events_count_toward_unique_bugs() {
        let events = vec![
            event(1, Some(PatternId::P1_2), "substr", OutcomeClass::LogicBug, Some("lg-1")),
            event(2, Some(PatternId::P1_2), "substr", OutcomeClass::LogicBug, Some("lg-1")),
            event(3, Some(PatternId::P1_2), "substr", OutcomeClass::Crash, Some("f-a")),
        ];
        let m = YieldMetrics::from_events(&events, &[], resolve);
        let p12 = m.per_pattern[&PatternId::P1_2];
        assert_eq!((p12.logic_bugs, p12.crashes, p12.unique_bugs), (2, 1, 2));
        let string = m.per_category[&FunctionCategory::String];
        assert_eq!((string.logic_bugs, string.unique_bugs), (2, 2));
        let table = m.render_pattern_table();
        assert!(table.contains("logic"), "{table}");
    }

    #[test]
    fn tables_rank_highest_yield_first() {
        let events = vec![
            event(1, Some(PatternId::P1_1), "floor", OutcomeClass::Ok, None),
            event(2, Some(PatternId::P3_3), "substr", OutcomeClass::Crash, Some("f-a")),
        ];
        let m = YieldMetrics::from_events(&events, &[], resolve);
        let table = m.render_pattern_table();
        let p33_pos = table.find("P3.3").expect("row present");
        let p11_pos = table.find("P1.1").expect("row present");
        assert!(p33_pos < p11_pos, "bug-yielding pattern should rank first:\n{table}");
        assert!(m.render_category_table().contains("string"));
    }
}

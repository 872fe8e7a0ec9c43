//! Campaign findings and reports (the data behind Table 4 and §7.3).

use crate::oracle::LogicBug;
use soft_dialects::DialectId;
use soft_engine::{CrashKind, PatternId, Stage};
use soft_types::category::FunctionCategory;
use std::collections::BTreeMap;

/// What kind of bug a finding is: a crash (the paper's Table 4 classes) or
/// a wrong result raised by one of the logic-bug oracles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingKind {
    /// The statement crashed the engine; carries the Table 4 class.
    Crash(CrashKind),
    /// The statement completed with a wrong result; carries the oracle's
    /// verdict.
    Logic(LogicBug),
}

impl FindingKind {
    /// Short label for tables and forensics bundles: the crash kind's
    /// abbreviation, or `"LOGIC"` for wrong-result findings.
    pub fn abbrev(&self) -> &'static str {
        match self {
            FindingKind::Crash(k) => k.abbrev(),
            FindingKind::Logic(_) => "LOGIC",
        }
    }

    /// The crash classification, when this is a crash.
    pub fn crash(&self) -> Option<CrashKind> {
        match self {
            FindingKind::Crash(k) => Some(*k),
            FindingKind::Logic(_) => None,
        }
    }

    /// The oracle verdict, when this is a wrong result.
    pub fn logic(&self) -> Option<&LogicBug> {
        match self {
            FindingKind::Crash(_) => None,
            FindingKind::Logic(bug) => Some(bug),
        }
    }
}

/// One discovered bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugFinding {
    /// The fault's stable id (dedup key).
    pub fault_id: String,
    /// Target it was found in.
    pub dialect: DialectId,
    /// Crash classification, or the logic-bug oracle's verdict.
    pub kind: FindingKind,
    /// Stage of the crash.
    pub stage: Stage,
    /// Function category (Table 4's "Function Type").
    pub category: FunctionCategory,
    /// The pattern the corpus credits (Table 4 ground truth).
    pub credited_pattern: PatternId,
    /// The pattern whose generated statement actually triggered it first.
    pub found_by_pattern: PatternId,
    /// Function the crash occurred in.
    pub function: Option<String>,
    /// Root function of the seed the triggering statement derives from
    /// (forensics provenance; `None` for external generators). Interned —
    /// the campaign shares one allocation per seed across findings and
    /// journal events.
    pub seed_function: Option<std::sync::Arc<str>>,
    /// The triggering statement.
    pub poc: String,
    /// How many statements had been executed when it fired.
    pub statements_until_found: usize,
    /// Whether the paper reports the bug fixed.
    pub fixed: bool,
}

/// Deterministic per-shard execution counters from the sharded campaign
/// runner. These are part of the report's `PartialEq` surface: the shard
/// decomposition depends only on the configuration, never on the worker
/// count, so equal configurations yield equal shard stats. Wall-clock
/// telemetry (statements/sec) lives in
/// [`ShardTiming`](crate::campaign::ShardTiming) instead, outside the
/// comparable report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index, in global statement order.
    pub shard: usize,
    /// Global statement offset where the shard begins (0-based).
    pub start_offset: usize,
    /// Statements the shard executed (its budget consumed).
    pub statements: usize,
    /// Crash outcomes observed (including repeats of already-found faults).
    pub crashes: usize,
    /// Ordinary SQL errors observed.
    pub errors: usize,
    /// Resource-limit kills observed.
    pub false_positives: usize,
    /// Statements the logic-bug oracles flagged as wrong results
    /// (including repeats of already-found faults). Zero when the campaign
    /// runs with oracles off.
    pub logic_bugs: usize,
}

/// The result of one campaign against one target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Target tested.
    pub dialect: DialectId,
    /// Statements executed (the budget actually spent).
    pub statements_executed: usize,
    /// Unique bugs found, in discovery order.
    pub findings: Vec<BugFinding>,
    /// Resource-limit kills (the paper's false-positive class).
    pub false_positives: usize,
    /// Ordinary SQL errors observed.
    pub errors: usize,
    /// Distinct built-in functions triggered (Table 5 metric).
    pub functions_triggered: usize,
    /// Branches covered in the function component (Table 6 metric).
    pub branches_covered: usize,
    /// Cases the planner drew from each pattern's queues, in application
    /// order: the cases it planned plus those it skipped as duplicates of
    /// statements already planned. Cases generated ahead of the planner are
    /// not counted, so the count is the same at any worker count. Empty for
    /// non-pattern generators ([`run_generator`] runs). Guards against a
    /// pattern silently dropping out of the campaign.
    ///
    /// [`run_generator`]: crate::campaign::run_generator
    pub generated_per_pattern: Vec<(PatternId, usize)>,
    /// Per-shard execution counters, in shard order — empty for unsharded
    /// [`run_generator`] runs.
    ///
    /// [`run_generator`]: crate::campaign::run_generator
    pub shards: Vec<ShardStats>,
    /// Deterministic campaign telemetry (event journal, yield metrics,
    /// growth curves) when [`CampaignConfig::telemetry`] is on. Inside the
    /// `PartialEq` surface on purpose: the worker-count-invariance guarantee
    /// extends to the journal, event for event. Wall-clock telemetry (stage
    /// latency histograms, shard timings) lives on
    /// [`CampaignRun`](crate::campaign::CampaignRun) instead.
    ///
    /// [`CampaignConfig::telemetry`]: crate::campaign::CampaignConfig
    pub telemetry: Option<soft_obs::CampaignTelemetry>,
}

impl CampaignReport {
    /// Crash findings per crash kind, Table 4 legend order. Wrong-result
    /// findings have no crash kind and are counted by [`logic_count`]
    /// instead.
    ///
    /// [`logic_count`]: CampaignReport::logic_count
    pub fn by_kind(&self) -> Vec<(CrashKind, usize)> {
        CrashKind::ALL
            .iter()
            .map(|k| (*k, self.findings.iter().filter(|f| f.kind.crash() == Some(*k)).count()))
            .filter(|(_, n)| *n > 0)
            .collect()
    }

    /// Number of crash findings.
    pub fn crash_count(&self) -> usize {
        self.findings.iter().filter(|f| f.kind.crash().is_some()).count()
    }

    /// Number of wrong-result (logic-bug) findings.
    pub fn logic_count(&self) -> usize {
        self.findings.iter().filter(|f| f.kind.logic().is_some()).count()
    }

    /// Findings per credited pattern.
    pub fn by_pattern(&self) -> Vec<(PatternId, usize)> {
        PatternId::ALL
            .iter()
            .map(|p| (*p, self.findings.iter().filter(|f| f.credited_pattern == *p).count()))
            .filter(|(_, n)| *n > 0)
            .collect()
    }

    /// Findings per pattern *group* (1 = literals, 2 = castings,
    /// 3 = nested), using the discovering pattern.
    pub fn by_found_group(&self) -> [usize; 3] {
        let mut out = [0usize; 3];
        for f in &self.findings {
            out[f.found_by_pattern.group() as usize - 1] += 1;
        }
        out
    }

    /// Findings grouped per category, as Table 4 rows.
    ///
    /// Ordering audit (deterministic by construction, pinned by the
    /// `ordering_is_pinned` test): rows come out of a `BTreeMap` keyed by
    /// [`FunctionCategory`] (ascending `Ord`), and the kind / pattern
    /// breakdown strings are joined from `BTreeMap`s too, so the output is
    /// a pure function of the finding *set* — the order findings were
    /// recorded in never leaks into the table. `by_kind` / `by_pattern`
    /// likewise walk the fixed `::ALL` arrays, not the findings.
    pub fn table4_rows(&self) -> Vec<(FunctionCategory, usize, String, String)> {
        let mut rows: BTreeMap<FunctionCategory, Vec<&BugFinding>> = BTreeMap::new();
        for f in &self.findings {
            rows.entry(f.category).or_default().push(f);
        }
        rows.into_iter()
            .map(|(cat, fs)| {
                let mut kinds: BTreeMap<&'static str, usize> = BTreeMap::new();
                let mut pats: BTreeMap<&'static str, usize> = BTreeMap::new();
                for f in &fs {
                    *kinds.entry(f.kind.abbrev()).or_insert(0) += 1;
                    *pats.entry(f.credited_pattern.label()).or_insert(0) += 1;
                }
                let kind_s = kinds
                    .iter()
                    .map(|(k, n)| format!("{k}({n})"))
                    .collect::<Vec<_>>()
                    .join(", ");
                let pat_s = pats
                    .iter()
                    .map(|(p, n)| format!("{p}({n})"))
                    .collect::<Vec<_>>()
                    .join(", ");
                (cat, fs.len(), kind_s, pat_s)
            })
            .collect()
    }

    /// Number of findings marked fixed.
    pub fn fixed_count(&self) -> usize {
        self.findings.iter().filter(|f| f.fixed).count()
    }
}

/// Renders a set of per-dialect reports as a Table 4-style text table.
pub fn render_table4(reports: &[CampaignReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:<14} {:<6} {:<34} {:<34} {}\n",
        "DBMS", "Function Type", "Bugs", "Bug Types", "Patterns", "Status"
    ));
    let mut total = 0usize;
    let mut total_fixed = 0usize;
    for r in reports {
        for (cat, n, kinds, pats) in r.table4_rows() {
            let fixed = r
                .findings
                .iter()
                .filter(|f| f.category == cat && f.fixed)
                .count();
            out.push_str(&format!(
                "{:<12} {:<14} {:<6} {:<34} {:<34} {} confirmed, {} fixed\n",
                r.dialect.name(),
                cat.label(),
                n,
                kinds,
                pats,
                n,
                fixed
            ));
        }
        total += r.findings.len();
        total_fixed += r.fixed_count();
    }
    out.push_str(&format!(
        "TOTAL: {total} bugs, {total_fixed} fixed\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(kind: CrashKind, pattern: PatternId, cat: FunctionCategory) -> BugFinding {
        BugFinding {
            fault_id: format!("{}-{}", kind.abbrev(), pattern.label()),
            dialect: DialectId::Mysql,
            kind: FindingKind::Crash(kind),
            stage: Stage::Execution,
            category: cat,
            credited_pattern: pattern,
            found_by_pattern: pattern,
            function: Some("f".into()),
            seed_function: Some("f".into()),
            poc: "SELECT f(NULL)".into(),
            statements_until_found: 10,
            fixed: true,
        }
    }

    fn report() -> CampaignReport {
        CampaignReport {
            dialect: DialectId::Mysql,
            statements_executed: 100,
            findings: vec![
                finding(CrashKind::NullPointerDereference, PatternId::P1_2, FunctionCategory::String),
                finding(CrashKind::NullPointerDereference, PatternId::P3_3, FunctionCategory::String),
                finding(CrashKind::StackOverflow, PatternId::P2_1, FunctionCategory::Json),
            ],
            false_positives: 2,
            errors: 5,
            functions_triggered: 40,
            branches_covered: 900,
            generated_per_pattern: vec![(PatternId::P1_1, 10), (PatternId::P1_2, 40)],
            shards: vec![ShardStats {
                shard: 0,
                start_offset: 0,
                statements: 100,
                crashes: 3,
                errors: 5,
                false_positives: 2,
                logic_bugs: 0,
            }],
            telemetry: None,
        }
    }

    #[test]
    fn aggregations() {
        let r = report();
        assert_eq!(r.by_kind(), vec![
            (CrashKind::NullPointerDereference, 2),
            (CrashKind::StackOverflow, 1)
        ]);
        assert_eq!(r.by_found_group(), [1, 1, 1]);
        assert_eq!(r.fixed_count(), 3);
        let rows = r.table4_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1 + rows[1].1, 3);
    }

    /// Pins the ordering audit of [`CampaignReport::table4_rows`]: every
    /// rendered surface must be a pure function of the finding *set*, so
    /// reversing the order findings were recorded in changes nothing, and
    /// the row / legend orders follow the fixed `Ord` / `::ALL` orders.
    #[test]
    fn ordering_is_pinned() {
        let forward = report();
        let mut reversed = report();
        reversed.findings.reverse();
        assert_eq!(forward.table4_rows(), reversed.table4_rows());
        assert_eq!(forward.by_kind(), reversed.by_kind());
        assert_eq!(forward.by_pattern(), reversed.by_pattern());
        assert_eq!(render_table4(std::slice::from_ref(&forward)), render_table4(&[reversed]));

        // Rows ascend in category order; breakdowns ascend alphabetically.
        let rows = forward.table4_rows();
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(rows[0].0, FunctionCategory::String);
        assert_eq!(rows[0].3, "P1.2(1), P3.3(1)");
        // by_pattern follows PatternId::ALL order, not discovery order.
        assert_eq!(
            forward.by_pattern(),
            vec![(PatternId::P1_2, 1), (PatternId::P2_1, 1), (PatternId::P3_3, 1)]
        );
    }

    #[test]
    fn logic_findings_count_separately_from_crashes() {
        use crate::oracle::OracleKind;
        let mut r = report();
        let mut f = finding(CrashKind::StackOverflow, PatternId::P1_1, FunctionCategory::Math);
        f.fault_id = "logic-multiform-tostring".into();
        f.kind = FindingKind::Logic(LogicBug {
            oracle: OracleKind::MultiForm,
            expected: "rows: 42".into(),
            actual: "rows: 42.0".into(),
        });
        r.findings.push(f);
        assert_eq!(r.crash_count(), 3);
        assert_eq!(r.logic_count(), 1);
        // by_kind only counts crashes; the logic finding shows up in the
        // rendered table under its own LOGIC label.
        assert_eq!(r.by_kind().iter().map(|(_, n)| n).sum::<usize>(), 3);
        assert!(render_table4(&[r]).contains("LOGIC(1)"));
    }

    #[test]
    fn table4_rendering_mentions_everything() {
        let text = render_table4(&[report()]);
        assert!(text.contains("MySQL"));
        assert!(text.contains("NPD(2)"));
        assert!(text.contains("P1.2(1)"));
        assert!(text.contains("TOTAL: 3 bugs, 3 fixed"));
    }
}

//! Pattern-group ablation: how many of the 132 bugs each pattern family can
//! reach on its own.
//!
//! The paper's root-cause taxonomy predicts a sharp partition: literal-
//! pattern bugs (56) should be unreachable by casting/nesting patterns and
//! vice versa, because the fault triggers are predicates over argument
//! *provenance*. This experiment runs SOFT restricted to one pattern group
//! at a time and measures the split — the ablation justifying why all ten
//! patterns are needed.

use soft_core::campaign::{default_workers, run_soft_parallel, CampaignConfig};
use soft_dialects::{DialectId, DialectProfile};
use soft_engine::PatternId;

/// One ablation configuration.
#[derive(Debug, Clone)]
pub struct AblationArm {
    /// Label shown in the report.
    pub label: &'static str,
    /// Patterns enabled.
    pub patterns: Vec<PatternId>,
}

/// The standard arms: each group alone, cumulative prefixes, and all.
pub fn standard_arms() -> Vec<AblationArm> {
    use PatternId::*;
    let p1 = vec![P1_1, P1_2, P1_3, P1_4];
    let p2 = vec![P2_1, P2_2, P2_3];
    let p3 = vec![P3_1, P3_2, P3_3];
    vec![
        AblationArm { label: "P1.x only", patterns: p1.clone() },
        AblationArm { label: "P2.x only", patterns: p2.clone() },
        AblationArm { label: "P3.x only", patterns: p3.clone() },
        AblationArm {
            label: "P1.x + P2.x",
            patterns: p1.iter().chain(&p2).copied().collect(),
        },
        AblationArm {
            label: "all patterns",
            patterns: p1.iter().chain(&p2).chain(&p3).copied().collect(),
        },
    ]
}

/// The result of one (arm, aggregate-over-dialects) run.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Arm label.
    pub label: &'static str,
    /// Total bugs found across all seven targets.
    pub bugs_total: usize,
    /// Bugs found whose *credited* pattern group is 1 / 2 / 3.
    pub by_credited_group: [usize; 3],
}

/// Runs the ablation at the given per-target budget.
pub fn run_ablation(budget: usize) -> Vec<AblationResult> {
    standard_arms()
        .into_iter()
        .map(|arm| {
            let mut bugs_total = 0usize;
            let mut by_group = [0usize; 3];
            for id in DialectId::ALL {
                let profile = DialectProfile::build(id);
                let report = run_soft_parallel(
                    &profile,
                    &CampaignConfig {
                        max_statements: budget,
                        per_seed_cap: 64,
                        patterns: Some(arm.patterns.clone()),
                        ..CampaignConfig::default()
                    },
                    default_workers(),
                );
                bugs_total += report.findings.len();
                for f in &report.findings {
                    by_group[f.credited_pattern.group() as usize - 1] += 1;
                }
            }
            AblationResult { label: arm.label, bugs_total, by_credited_group: by_group }
        })
        .collect()
}

/// Renders the ablation as a text table.
pub fn render_ablation(results: &[AblationResult]) -> String {
    let mut out = String::from(
        "arm            bugs   of-P1.x-bugs  of-P2.x-bugs  of-P3.x-bugs   (corpus: 56/28/48)\n",
    );
    for r in results {
        out.push_str(&format!(
            "{:<14} {:>4}   {:>12}  {:>12}  {:>12}\n",
            r.label, r.bugs_total, r.by_credited_group[0], r.by_credited_group[1], r.by_credited_group[2]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use soft_core::campaign::run_soft_parallel;

    #[test]
    fn pattern_groups_partition_the_corpus() {
        // A fast single-dialect version of the ablation: on Virtuoso (the
        // biggest corpus), P1-only finds no P3-credited bugs and P3-only
        // finds no P1-credited bugs.
        use PatternId::*;
        let profile = DialectProfile::build(DialectId::Virtuoso);
        let budget = 25_000;
        let run = |patterns: Vec<PatternId>| {
            run_soft_parallel(
                &profile,
                &CampaignConfig {
                    max_statements: budget,
                    per_seed_cap: 48,
                    patterns: Some(patterns),
                    ..CampaignConfig::default()
                },
                1,
            )
        };
        let p1 = run(vec![P1_1, P1_2, P1_3, P1_4]);
        assert!(!p1.findings.is_empty(), "P1 arm should find literal bugs");
        for f in &p1.findings {
            assert_eq!(
                f.credited_pattern.group(),
                1,
                "P1-only arm found a non-literal bug: {} via {}",
                f.fault_id,
                f.poc
            );
        }
        let p3 = run(vec![P3_1, P3_2, P3_3]);
        assert!(!p3.findings.is_empty(), "P3 arm should find nesting bugs");
        for f in &p3.findings {
            assert_eq!(
                f.credited_pattern.group(),
                3,
                "P3-only arm found a non-nesting bug: {} via {}",
                f.fault_id,
                f.poc
            );
        }
    }
}

//! Crash-forensics bundling and replay — the rich-typed side of
//! [`soft_obs::forensics`].
//!
//! `soft-obs` sits below `soft-core` in the crate graph, so its
//! [`Bundle`] is stringly typed. This module owns the conversion from a
//! campaign's [`BugFinding`]s (with their enum-typed kind / stage / pattern
//! provenance) into bundles — minimizing each PoC on the way, the way the
//! paper's §7.4 listings are minimized before reporting — and the inverse
//! direction: replaying a bundle's PoC against a freshly built profile and
//! checking it still fires the recorded fault.

use crate::collect;
use crate::minimize::minimize_finding;
use crate::oracle::{self, OracleKind};
use crate::report::{BugFinding, CampaignReport};
use soft_dialects::{DialectId, DialectProfile};
use soft_engine::{Engine, ExecOutcome};
use soft_obs::forensics::bucket_key;
use soft_obs::Bundle;
use std::path::{Path, PathBuf};

/// Converts one campaign finding into a forensics [`Bundle`]: the finding's
/// provenance flattened to its stable labels, the PoC minimized against
/// `template` (the profile's engine from [`collect::prepared_template`]),
/// and a copy-pasteable replay command pointing into `findings_root`.
pub fn bundle_finding(
    profile: &DialectProfile,
    template: &Engine,
    finding: &BugFinding,
    findings_root: &str,
) -> Bundle {
    let poc = minimize_finding(finding, || template.clone());
    let verdict = finding.kind.logic();
    let mut bundle = Bundle {
        fault_id: finding.fault_id.clone(),
        dialect: profile.id.name().to_string(),
        kind: finding.kind.abbrev().to_string(),
        stage: finding.stage.to_string(),
        category: finding.category.label().to_string(),
        credited_pattern: finding.credited_pattern.label().to_string(),
        found_by_pattern: finding.found_by_pattern.label().to_string(),
        function: finding.function.clone(),
        seed_function: finding.seed_function.as_deref().map(str::to_string),
        bucket: bucket_key(
            profile.id.key(),
            &finding.stage.to_string(),
            finding.kind.abbrev(),
            finding.function.as_deref(),
        ),
        statements_until_found: finding.statements_until_found,
        fixed: finding.fixed,
        oracle: verdict.map(|b| b.oracle.label().to_string()),
        expected: verdict.map(|b| b.expected.clone()),
        actual: verdict.map(|b| b.actual.clone()),
        replay: String::new(),
        poc,
        original: finding.poc.clone(),
    };
    bundle.replay = format!("repro replay {}/{}", findings_root, bundle.dir_name());
    bundle
}

/// Writes one bundle per unique finding of a campaign report under `root`,
/// in discovery order. Returns the bundle directories.
pub fn write_campaign_bundles(
    profile: &DialectProfile,
    report: &CampaignReport,
    root: &Path,
) -> std::io::Result<Vec<PathBuf>> {
    let root_label = root.display().to_string();
    let template = collect::prepared_template(profile.engine());
    report
        .findings
        .iter()
        .map(|f| bundle_finding(profile, &template, f, &root_label).write(root))
        .collect()
}

/// Replays a bundle's minimized PoC against a freshly built profile (with
/// preparation replayed, exactly like a campaign shard) and checks the
/// recorded verdict still holds: crash bundles must crash with the recorded
/// fault id, logic bundles must still be flagged by the recorded oracle.
/// This is the triage contract: a bundle that fails replay is stale or
/// corrupted.
pub fn replay_bundle(bundle: &Bundle) -> Result<(), String> {
    let id = DialectId::from_name(&bundle.dialect)
        .ok_or_else(|| format!("{}: unknown dialect {:?}", bundle.fault_id, bundle.dialect))?;
    let profile = DialectProfile::build(id);
    if bundle.kind == "LOGIC" {
        return replay_logic(&profile, bundle);
    }
    let mut engine = collect::prepared_template(profile.engine());
    match engine.execute(&bundle.poc) {
        ExecOutcome::Crash(c) if c.fault_id == bundle.fault_id => Ok(()),
        ExecOutcome::Crash(c) => Err(format!(
            "{}: PoC crashed with a different fault: {}",
            bundle.fault_id, c.fault_id
        )),
        _ => Err(format!("{}: PoC no longer crashes", bundle.fault_id)),
    }
}

/// Replays a wrong-result bundle through the oracle family its `oracle`
/// label names and checks the finding still reproduces. A multi-form PoC is
/// parsed and its statement judged, as the campaign judged it.
fn replay_logic(profile: &DialectProfile, bundle: &Bundle) -> Result<(), String> {
    let oracle_label = bundle.oracle.as_deref().unwrap_or("");
    let kind = OracleKind::from_label(oracle_label).ok_or_else(|| {
        format!("{}: unknown oracle {oracle_label:?}", bundle.fault_id)
    })?;
    let template = collect::prepared_template(profile.engine());
    match kind {
        OracleKind::MultiForm => {
            let stmt = soft_parser::parse_statement(&bundle.poc)
                .map_err(|e| format!("{}: PoC no longer parses: {e}", bundle.fault_id))?;
            match oracle::multi_form_check(&template, &bundle.poc, &stmt) {
                Some(_) => Ok(()),
                None => Err(format!(
                    "{}: the multi-form oracle no longer flags the PoC",
                    bundle.fault_id
                )),
            }
        }
        OracleKind::Pivot => {
            let hit = oracle::pivot_check(&template)
                .iter()
                .any(|(fault, _, _)| *fault == bundle.fault_id);
            if hit {
                Ok(())
            } else {
                Err(format!("{}: the pivot probe no longer fails", bundle.fault_id))
            }
        }
        OracleKind::Differential => {
            let hit = oracle::differential_check(profile)
                .iter()
                .any(|(fault, _, _)| *fault == bundle.fault_id);
            if hit {
                Ok(())
            } else {
                Err(format!(
                    "{}: the differential divergence no longer reproduces",
                    bundle.fault_id
                ))
            }
        }
    }
}

/// Replays each bundle, collecting failures. `Ok(n)` = all `n` bundles
/// replayed. Reading them ([`Bundle::read_all`]) is the caller's step, so a
/// bundle that cannot be read is not mistaken for one that no longer fires.
pub fn replay_all(bundles: &[Bundle]) -> Result<usize, Vec<String>> {
    let failures: Vec<String> =
        bundles.iter().filter_map(|b| replay_bundle(b).err()).collect();
    if failures.is_empty() {
        Ok(bundles.len())
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_soft_parallel, CampaignConfig};
    use crate::report::FindingKind;

    fn small_report(profile: &DialectProfile) -> CampaignReport {
        let cfg = CampaignConfig {
            max_statements: 30_000,
            per_seed_cap: 32,
            ..CampaignConfig::default()
        };
        run_soft_parallel(profile, &cfg, 1)
    }

    #[test]
    fn findings_bundle_and_replay() {
        let profile = DialectProfile::build(DialectId::Clickhouse);
        let report = small_report(&profile);
        assert!(!report.findings.is_empty(), "need at least one finding to bundle");
        let finding = &report.findings[0];
        let template = collect::prepared_template(profile.engine());
        let bundle = bundle_finding(&profile, &template, finding, "findings");
        assert_eq!(bundle.fault_id, finding.fault_id);
        assert_eq!(bundle.dialect, "ClickHouse");
        assert!(bundle.poc.len() <= bundle.original.len(), "minimization grew the PoC");
        assert!(bundle.replay.starts_with("repro replay findings/"));
        assert_eq!(
            bundle.bucket,
            bucket_key(
                "clickhouse",
                &finding.stage.to_string(),
                finding.kind.abbrev(),
                finding.function.as_deref()
            )
        );
        replay_bundle(&bundle).expect("minimized PoC must still fire the fault");
    }

    #[test]
    fn logic_bundles_carry_the_verdict_and_replay_through_the_oracle() {
        use soft_engine::{PatternId, Stage};
        use soft_types::category::FunctionCategory;

        let profile = DialectProfile::build(DialectId::Clickhouse);
        let template = collect::prepared_template(profile.engine());
        let poc = "SELECT toString(42), 'decoy' LIMIT 3";
        let stmt = soft_parser::parse_statement(poc).expect("parse");
        let bug = oracle::multi_form_check(&template, poc, &stmt)
            .expect("the shipped quirk must be flagged");
        let finding = BugFinding {
            fault_id: "logic-multiform-tostring".into(),
            dialect: profile.id,
            kind: FindingKind::Logic(bug),
            stage: Stage::Execution,
            category: FunctionCategory::Casting,
            credited_pattern: PatternId::P1_2,
            found_by_pattern: PatternId::P1_2,
            function: Some("tostring".into()),
            seed_function: None,
            poc: poc.into(),
            statements_until_found: 1,
            fixed: false,
        };
        let bundle = bundle_finding(&profile, &template, &finding, "findings");
        assert_eq!(bundle.kind, "LOGIC");
        assert_eq!(bundle.oracle.as_deref(), Some("multi-form"));
        assert!(bundle.expected.is_some() && bundle.actual.is_some());
        assert!(!bundle.poc.contains("decoy"), "logic PoC was not minimised: {}", bundle.poc);
        replay_bundle(&bundle).expect("minimised logic PoC must still trip the oracle");

        let mut tampered = bundle;
        tampered.poc = "SELECT 1".into();
        assert!(replay_bundle(&tampered).is_err(), "honest PoC must fail logic replay");
    }

    #[test]
    fn replay_rejects_a_tampered_bundle() {
        let profile = DialectProfile::build(DialectId::Clickhouse);
        let report = small_report(&profile);
        let template = collect::prepared_template(profile.engine());
        let mut bundle = bundle_finding(&profile, &template, &report.findings[0], "findings");
        bundle.poc = "SELECT 1".into();
        assert!(replay_bundle(&bundle).is_err(), "harmless PoC must fail replay");
        let mut wrong_dialect =
            bundle_finding(&profile, &template, &report.findings[0], "findings");
        wrong_dialect.dialect = "NoSuchDB".into();
        assert!(replay_bundle(&wrong_dialect).is_err());
    }
}

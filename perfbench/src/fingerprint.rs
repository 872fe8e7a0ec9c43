//! The correctness check: a fingerprint of every campaign report, compared
//! with the fingerprints committed in `fingerprints.txt`.
//!
//! A fingerprint covers the statement, error, resource-limit, crash and
//! logic counts, the ordered unique fault ids, the functions triggered and
//! the branches covered. One line per (workload, dialect, budget); the
//! committed file holds every budget a seed can select plus the reduced
//! budgets the tests run. `perfbench record` regenerates it.

use soft_core::CampaignReport;
use soft_dialects::DialectId;

/// The committed fingerprints.
const COMMITTED: &str = include_str!("../fingerprints.txt");

/// The comparable summary of one campaign report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    statements: usize,
    errors: usize,
    resource_limits: usize,
    crashes: usize,
    logic: usize,
    faults: usize,
    fault_hash: u64,
    functions: usize,
    branches: usize,
}

impl Fingerprint {
    /// The fingerprint of `report`.
    pub fn of(report: &CampaignReport) -> Fingerprint {
        Fingerprint {
            statements: report.statements_executed,
            errors: report.errors,
            resource_limits: report.false_positives,
            crashes: report.shards.iter().map(|s| s.crashes).sum(),
            logic: report.shards.iter().map(|s| s.logic_bugs).sum(),
            faults: report.findings.len(),
            fault_hash: hash_ids(report.findings.iter().map(|f| f.fault_id.as_str())),
            functions: report.functions_triggered,
            branches: report.branches_covered,
        }
    }

    /// The fingerprint's line in `fingerprints.txt`.
    pub fn line(&self, workload: &str, dialect: DialectId, budget: usize) -> String {
        format!(
            "{} statements={} errors={} resource_limits={} crashes={} logic={} \
             faults={}:{:016x} functions={} branches={}",
            key(workload, dialect, budget),
            self.statements,
            self.errors,
            self.resource_limits,
            self.crashes,
            self.logic,
            self.faults,
            self.fault_hash,
            self.functions,
            self.branches
        )
    }
}

/// FNV-1a over the ids in order, each terminated by a newline.
pub fn hash_ids<'a>(ids: impl Iterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for id in ids {
        for b in id.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn key(workload: &str, dialect: DialectId, budget: usize) -> String {
    format!("{workload} {} {budget}", dialect.name())
}

/// Compares `report` with the committed fingerprint of its campaign.
pub fn check(
    workload: &str,
    dialect: DialectId,
    budget: usize,
    report: &CampaignReport,
) -> Result<(), String> {
    let prefix = format!("{} ", key(workload, dialect, budget));
    let Some(expected) = COMMITTED.lines().find(|l| l.starts_with(&prefix)) else {
        return Err(format!(
            "no committed fingerprint for `{}`",
            prefix.trim_end()
        ));
    };
    let actual = Fingerprint::of(report).line(workload, dialect, budget);
    if actual == expected {
        Ok(())
    } else {
        Err(format!(
            "fingerprint mismatch:\n  expected {expected}\n  actual   {actual}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{live_plane, Workload, WORKERS, WORKLOADS};
    use soft_core::run_soft_parallel_live;
    use soft_dialects::DialectProfile;

    #[test]
    fn hash_depends_on_order_and_boundaries() {
        let ab = hash_ids(["a", "b"].into_iter());
        assert_ne!(ab, hash_ids(["b", "a"].into_iter()));
        assert_ne!(ab, hash_ids(["ab"].into_iter()));
        assert_eq!(ab, hash_ids(["a", "b"].into_iter()));
    }

    #[test]
    fn every_seed_variant_has_a_committed_fingerprint() {
        for w in WORKLOADS {
            for seed in 0..crate::workload::VARIANTS {
                let w = w.seeded(seed);
                for &d in w.dialects {
                    let prefix = format!("{} ", key(w.name, d, w.budget));
                    assert!(
                        COMMITTED.lines().any(|l| l.starts_with(&prefix)),
                        "missing fingerprint {prefix}"
                    );
                }
            }
        }
    }

    /// Reduced-budget campaigns match their committed fingerprints, and
    /// one worker and two workers give equal reports.
    #[test]
    fn reduced_campaigns_match_fingerprints_at_one_and_two_workers() {
        for w in WORKLOADS.map(Workload::reduced) {
            for &d in w.dialects {
                let profile = DialectProfile::build(d);
                let cfg = w.config();
                let one = run_soft_parallel_live(&profile, &cfg, 1, &live_plane()).report;
                let two = run_soft_parallel_live(&profile, &cfg, WORKERS, &live_plane()).report;
                assert_eq!(
                    one,
                    two,
                    "{} {}: worker count changed the report",
                    w.name,
                    d.name()
                );
                if let Err(e) = check(w.name, d, w.budget, &two) {
                    panic!("{} {}: {e}", w.name, d.name());
                }
            }
        }
    }
}

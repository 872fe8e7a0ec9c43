//! Epoch-reallocation telemetry for the feedback-driven scheduler.
//!
//! `soft_core::schedule` splits a campaign's statement budget into epochs
//! and reallocates each epoch's share across (pattern × seed-function
//! category) arms from the merged telemetry of the epochs before it. The
//! records here are the deterministic trace of those decisions: one
//! [`EpochRealloc`] per executed epoch, carrying every arm's planned quota,
//! the statements actually planned for it, and the bandit score the quota
//! was derived from.
//!
//! The records live *inside* [`crate::CampaignTelemetry`]'s equality
//! surface — scheduling is plan-then-execute, so two runs of the same
//! configuration must produce identical reallocations at any worker count,
//! and the determinism tests compare them field for field. Scores are
//! stored as scaled integers (`score_milli`, thousandths) so the records
//! stay `Eq` without putting floats inside report equality.
//!
//! In the JSONL journal each allocation is one flat `"epoch"` record:
//!
//! ```text
//! {"type": "epoch", "epoch": 1, "start": 501, "budget": 500,
//!  "pattern": "P1.1", "category": "String", "planned": 63,
//!  "executed": 63, "score_milli": 1840}
//! ```
//!
//! Pre-scheduler readers ignore unknown record types, so journals with
//! epoch records stay readable by older tooling and vice versa.

use crate::json::{self, Record};
use soft_engine::PatternId;
use soft_types::category::FunctionCategory;

/// One arm's share of one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArmAlloc {
    /// The arm's generation pattern.
    pub pattern: PatternId,
    /// The arm's seed-function category.
    pub category: FunctionCategory,
    /// Statements the scheduler allocated to the arm for this epoch.
    pub planned: usize,
    /// Statements actually planned from the arm's queue (less than
    /// `planned` when the queue ran dry, more when spill from dried arms
    /// was redistributed to it).
    pub executed: usize,
    /// The UCB score the allocation was derived from, in thousandths —
    /// integer so the record is `Eq` and byte-stable in the journal.
    pub score_milli: i64,
}

/// The scheduler's decision record for one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRealloc {
    /// Epoch number, starting at 0.
    pub epoch: usize,
    /// 1-based global index of the epoch's first statement.
    pub start_statement: usize,
    /// Statements the epoch actually planned (its slice of the budget,
    /// shrunk when every arm ran dry).
    pub budget: usize,
    /// Per-arm quotas, in stable arm order (pattern order, then category).
    pub allocations: Vec<ArmAlloc>,
}

impl EpochRealloc {
    /// Renders the epoch as JSONL lines (one per allocation, with trailing
    /// newlines).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for a in &self.allocations {
            out.push_str(&format!(
                "{{{}, {}, {}, {}, {}, {}, {}, {}, {}}}\n",
                json::str_field("type", "epoch"),
                json::num_field("epoch", self.epoch as i64),
                json::num_field("start", self.start_statement as i64),
                json::num_field("budget", self.budget as i64),
                json::str_field("pattern", a.pattern.label()),
                json::str_field("category", a.category.label()),
                json::num_field("planned", a.planned as i64),
                json::num_field("executed", a.executed as i64),
                json::num_field("score_milli", a.score_milli),
            ));
        }
        out
    }

    /// Parses one `"epoch"` journal record into its `(epoch header, arm
    /// allocation)` pair. The caller groups consecutive records by epoch
    /// number (see `TraceFile::parse`).
    pub fn parse_record(rec: &Record) -> Result<(EpochRealloc, ArmAlloc), String> {
        let header = EpochRealloc {
            epoch: rec.count("epoch")?,
            start_statement: rec.count("start")?,
            budget: rec.count("budget")?,
            allocations: Vec::new(),
        };
        let alloc = ArmAlloc {
            pattern: rec.label("pattern", PatternId::from_label)?,
            category: rec.label("category", FunctionCategory::from_label)?,
            planned: rec.count("planned")?,
            executed: rec.count("executed")?,
            score_milli: rec.integer("score_milli")?,
        };
        Ok((header, alloc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EpochRealloc {
        EpochRealloc {
            epoch: 2,
            start_statement: 1001,
            budget: 500,
            allocations: vec![
                ArmAlloc {
                    pattern: PatternId::P1_1,
                    category: FunctionCategory::String,
                    planned: 300,
                    executed: 298,
                    score_milli: 1840,
                },
                ArmAlloc {
                    pattern: PatternId::P2_1,
                    category: FunctionCategory::Math,
                    planned: 200,
                    executed: 202,
                    score_milli: -12,
                },
            ],
        }
    }

    #[test]
    fn jsonl_lines_round_trip() {
        let e = sample();
        let text = e.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let mut rebuilt: Option<EpochRealloc> = None;
        for (i, line) in text.lines().enumerate() {
            let rec = Record::parse(line, format_args!("line {}", i + 1)).expect("flat json");
            assert_eq!(rec.str("type"), Some("epoch"));
            let (header, alloc) = EpochRealloc::parse_record(&rec).expect("parses");
            let e = rebuilt.get_or_insert(header);
            e.allocations.push(alloc);
        }
        assert_eq!(rebuilt.expect("one epoch"), e);
    }

    #[test]
    fn negative_scores_survive() {
        let e = sample();
        let line = e.to_jsonl().lines().nth(1).expect("two lines").to_string();
        let rec = Record::parse(&line, "line 2").expect("parses");
        let (_, alloc) = EpochRealloc::parse_record(&rec).expect("parses");
        assert_eq!(alloc.score_milli, -12);
    }

    #[test]
    fn malformed_records_name_the_line() {
        let rec = Record::parse(r#"{"type": "epoch", "epoch": 0}"#, "line 7").expect("parses");
        let err = EpochRealloc::parse_record(&rec).expect_err("incomplete");
        assert_eq!(err, "line 7: missing count \"start\"");
        let line = sample().to_jsonl().lines().next().expect("a line").replace(
            &format!("\"{}\"", PatternId::P1_1.label()),
            "\"P9.9\"",
        );
        let rec = Record::parse(&line, "line 7").expect("parses");
        let err = EpochRealloc::parse_record(&rec).expect_err("unknown pattern");
        assert_eq!(err, "line 7: invalid label \"pattern\"");
    }
}

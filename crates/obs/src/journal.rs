//! The statement-level event journal and its JSONL sink.
//!
//! Shards buffer events privately; [`Journal::merge_shards`] concatenates
//! the buffers and sorts by the global statement index, which is assigned
//! at *planning* time — so the merged journal is identical for any worker
//! count, event for event. The JSONL form is one flat object per line:
//!
//! ```text
//! {"type": "campaign", "dialect": "MonetDB", "statements": 1000, ...}
//! {"type": "generated", "pattern": "P1.1", "cases": 64}
//! {"type": "stmt", "index": 1, "shard": 0, "seed": 0, ...}
//! {"type": "coverage", "statements": 500, "functions": 120, "branches": 900}
//! ```
//!
//! A `generated` record's `cases` counts what the planner drew from that
//! pattern's queues: the cases it planned plus those it skipped as
//! duplicates. Cases generated ahead of the planner are not counted.

use crate::curve::CoveragePoint;
use crate::event::{OutcomeClass, StatementEvent};
use crate::json::{self, Record};
use crate::schedule::EpochRealloc;
use soft_engine::PatternId;
use std::fmt::Write as _;

/// A globally ordered event journal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Journal {
    /// Events in global statement order (strictly increasing `index`).
    pub events: Vec<StatementEvent>,
}

impl Journal {
    /// Merges per-shard event buffers into global statement order.
    ///
    /// The merge is a sort on the planned statement index — completion order
    /// and scheduling never leak in. Panics (debug assertion) if two events
    /// claim the same index, which would mean the planner handed the same
    /// statement to two shards.
    pub fn merge_shards(shards: Vec<Vec<StatementEvent>>) -> Journal {
        let mut events: Vec<StatementEvent> = shards.into_iter().flatten().collect();
        events.sort_by_key(|e| e.index);
        debug_assert!(
            events.windows(2).all(|w| w[0].index < w[1].index),
            "duplicate statement index in journal"
        );
        Journal { events }
    }

    /// Number of distinct fault ids among crash and logic-bug events.
    pub fn unique_faults(&self) -> usize {
        let mut faults: Vec<&str> =
            self.events.iter().filter_map(|e| e.fault_id.as_deref()).collect();
        faults.sort_unstable();
        faults.dedup();
        faults.len()
    }

    /// Outcome-class counts, in [`OutcomeClass::ALL`] order.
    pub fn outcome_counts(&self) -> [(OutcomeClass, usize); 5] {
        OutcomeClass::ALL
            .map(|class| (class, self.events.iter().filter(|e| e.outcome == class).count()))
    }

    /// Renders one event as a JSONL line (without trailing newline).
    pub fn event_line(e: &StatementEvent) -> String {
        let mut fields = vec![
            json::str_field("type", "stmt"),
            json::num_field("index", e.index as i64),
            json::num_field("shard", e.shard as i64),
        ];
        match e.seed {
            Some(s) => fields.push(json::num_field("seed", s as i64)),
            None => fields.push(json::null_field("seed")),
        }
        match e.pattern {
            Some(p) => fields.push(json::str_field("pattern", p.label())),
            None => fields.push(json::null_field("pattern")),
        }
        match &e.function {
            Some(f) => fields.push(json::str_field("function", f)),
            None => fields.push(json::null_field("function")),
        }
        fields.push(json::str_field("outcome", e.outcome.label()));
        match &e.fault_id {
            Some(f) => fields.push(json::str_field("fault", f)),
            None => fields.push(json::null_field("fault")),
        }
        format!("{{{}}}", fields.join(", "))
    }
}

/// A parsed journal file: the campaign header plus all record streams.
///
/// This is what `repro trace` operates on; it carries enough to rebuild the
/// yield tables and both growth curves without re-running the campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceFile {
    /// Dialect name from the campaign header (e.g. `MonetDB`).
    pub dialect: Option<String>,
    /// Total statements the campaign executed, from the header.
    pub statements: Option<usize>,
    /// Coverage snapshot interval, from the header.
    pub snapshot_interval: Option<usize>,
    /// Per-pattern counts of the cases the planner drew, planned or
    /// skipped as duplicates (`generated` records).
    pub generated: Vec<(PatternId, usize)>,
    /// The event journal, in global statement order.
    pub journal: Journal,
    /// Coverage snapshots, in statement order.
    pub coverage: Vec<CoveragePoint>,
    /// Scheduler epoch reallocations, in epoch order (empty for statically
    /// scheduled campaigns and for journals written before the scheduler).
    pub epochs: Vec<EpochRealloc>,
}

impl TraceFile {
    /// Parses a JSONL journal document. Unknown record types are ignored
    /// (forward compatibility); malformed lines are errors.
    pub fn parse(text: &str) -> Result<TraceFile, String> {
        Self::parse_inner(text, false).map(|(trace, _)| trace)
    }

    /// Like [`TraceFile::parse`], but *lenient*: malformed lines are
    /// skipped and counted instead of failing the whole document. Returns
    /// the trace plus the number of lines skipped; errs only when the
    /// journal is entirely unparseable (at least one non-empty line and
    /// not a single one parsed). Meant for operating on partial or damaged
    /// journals — e.g. one truncated by a killed campaign — where strict
    /// parsing would reject everything because of one bad tail line.
    pub fn parse_lenient(text: &str) -> Result<(TraceFile, usize), String> {
        Self::parse_inner(text, true)
    }

    fn parse_inner(text: &str, lenient: bool) -> Result<(TraceFile, usize), String> {
        let mut out = TraceFile::default();
        let mut events = Vec::new();
        let mut skipped = 0usize;
        let mut parsed = 0usize;
        let mut first_err: Option<String> = None;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec = match Record::parse(line, format_args!("line {}", lineno + 1)) {
                Ok(rec) => rec,
                Err(e) if lenient => {
                    skipped += 1;
                    first_err.get_or_insert(e);
                    continue;
                }
                Err(e) => return Err(e),
            };
            let record = (|| -> Result<(), String> {
                match rec.str("type").unwrap_or("") {
                    "campaign" => {
                        out.dialect = rec.str("dialect").map(str::to_string);
                        out.statements = rec.usize("statements");
                        out.snapshot_interval = rec.usize("snapshot_interval");
                    }
                    "generated" => out
                        .generated
                        .push((rec.label("pattern", PatternId::from_label)?, rec.count("cases")?)),
                    "stmt" => events.push(parse_event(&rec)?),
                    "epoch" => {
                        let (header, alloc) = EpochRealloc::parse_record(&rec)?;
                        match out.epochs.last_mut() {
                            Some(last) if last.epoch == header.epoch => {
                                last.allocations.push(alloc)
                            }
                            _ => {
                                let mut epoch = header;
                                epoch.allocations.push(alloc);
                                out.epochs.push(epoch);
                            }
                        }
                    }
                    "coverage" => out.coverage.push(CoveragePoint {
                        statements: rec.count("statements")?,
                        functions: rec.usize("functions").unwrap_or(0),
                        branches: rec.usize("branches").unwrap_or(0),
                    }),
                    _ => {}
                }
                Ok(())
            })();
            match record {
                Ok(()) => parsed += 1,
                Err(e) if lenient => {
                    skipped += 1;
                    first_err.get_or_insert(e);
                }
                Err(e) => return Err(e),
            }
        }
        if lenient && parsed == 0 && skipped > 0 {
            return Err(first_err.unwrap_or_else(|| "no parseable lines".into()));
        }
        events.sort_by_key(|e: &StatementEvent| e.index);
        out.journal = Journal { events };
        Ok((out, skipped))
    }

    /// Serialises the trace back to its JSONL form.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut header = vec![json::str_field("type", "campaign")];
        if let Some(d) = &self.dialect {
            header.push(json::str_field("dialect", d));
        }
        if let Some(n) = self.statements {
            header.push(json::num_field("statements", n as i64));
        }
        if let Some(n) = self.snapshot_interval {
            header.push(json::num_field("snapshot_interval", n as i64));
        }
        header.push(json::num_field("events", self.journal.events.len() as i64));
        let _ = writeln!(out, "{{{}}}", header.join(", "));
        for &(pattern, cases) in &self.generated {
            let _ = writeln!(
                out,
                "{{{}, {}, {}}}",
                json::str_field("type", "generated"),
                json::str_field("pattern", pattern.label()),
                json::num_field("cases", cases as i64)
            );
        }
        for e in &self.journal.events {
            out.push_str(&Journal::event_line(e));
            out.push('\n');
        }
        for p in &self.coverage {
            let _ = writeln!(
                out,
                "{{{}, {}, {}, {}}}",
                json::str_field("type", "coverage"),
                json::num_field("statements", p.statements as i64),
                json::num_field("functions", p.functions as i64),
                json::num_field("branches", p.branches as i64)
            );
        }
        for e in &self.epochs {
            out.push_str(&e.to_jsonl());
        }
        out
    }
}

fn parse_event(rec: &Record) -> Result<StatementEvent, String> {
    Ok(StatementEvent {
        index: rec.count("index")?,
        shard: rec.usize("shard").unwrap_or(0),
        seed: rec.usize("seed"),
        pattern: rec.str("pattern").and_then(PatternId::from_label),
        function: rec.str("function").map(Into::into),
        outcome: rec.label("outcome", OutcomeClass::from_label)?,
        fault_id: rec.str("fault").map(Into::into),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> TraceFile {
        let mut crash = StatementEvent::seed(3, 1, 4, Some("substr".into()));
        crash.pattern = Some(PatternId::P2_1);
        crash.outcome = OutcomeClass::Crash;
        crash.fault_id = Some("demo-001".into());
        TraceFile {
            dialect: Some("MonetDB".into()),
            statements: Some(3),
            snapshot_interval: Some(2),
            generated: vec![(PatternId::P1_1, 12), (PatternId::P2_1, 9)],
            journal: Journal::merge_shards(vec![
                vec![crash],
                vec![
                    StatementEvent::seed(1, 0, 0, Some("floor".into())),
                    StatementEvent::seed(2, 0, 1, None),
                ],
            ]),
            coverage: vec![CoveragePoint { statements: 2, functions: 5, branches: 40 }],
            epochs: vec![
                EpochRealloc {
                    epoch: 0,
                    start_statement: 1,
                    budget: 2,
                    allocations: vec![crate::schedule::ArmAlloc {
                        pattern: PatternId::P1_1,
                        category: soft_types::category::FunctionCategory::String,
                        planned: 2,
                        executed: 2,
                        score_milli: 0,
                    }],
                },
                EpochRealloc {
                    epoch: 1,
                    start_statement: 3,
                    budget: 1,
                    allocations: vec![crate::schedule::ArmAlloc {
                        pattern: PatternId::P2_1,
                        category: soft_types::category::FunctionCategory::Math,
                        planned: 1,
                        executed: 1,
                        score_milli: 1500,
                    }],
                },
            ],
        }
    }

    #[test]
    fn merge_orders_events_globally() {
        let t = sample_trace();
        let indices: Vec<usize> = t.journal.events.iter().map(|e| e.index).collect();
        assert_eq!(indices, vec![1, 2, 3]);
        assert_eq!(t.journal.unique_faults(), 1);
        let counts = t.journal.outcome_counts();
        assert_eq!(counts[0], (OutcomeClass::Ok, 2));
        assert_eq!(counts[3], (OutcomeClass::Crash, 1));
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let t = sample_trace();
        let text = t.to_jsonl();
        let parsed = TraceFile::parse(&text).expect("parses");
        assert_eq!(parsed, t);
        // And the serialised form is stable (byte-identical re-render).
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn unknown_record_types_are_ignored() {
        let text = "{\"type\": \"future-record\", \"x\": 1}\n";
        let parsed = TraceFile::parse(text).expect("parses");
        assert!(parsed.journal.events.is_empty());
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let err = TraceFile::parse("{\"type\": \"stmt\"}\n").expect_err("missing index");
        assert!(err.contains("line 1"), "{err}");
        let err = TraceFile::parse("not json\n").expect_err("bad line");
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn lenient_parse_skips_and_counts_damaged_lines() {
        // A good journal with two damaged lines spliced in (one bad JSON,
        // one semantically broken record): strict parse rejects the file,
        // lenient parse recovers everything else and counts the skips.
        let good = sample_trace().to_jsonl();
        let mut text = String::new();
        for (i, line) in good.lines().enumerate() {
            text.push_str(line);
            text.push('\n');
            if i == 0 {
                text.push_str("truncated {\"type\": \"stm\n");
                text.push_str("{\"type\": \"stmt\", \"outcome\": \"ok\"}\n");
            }
        }
        assert!(TraceFile::parse(&text).is_err());
        let (trace, skipped) = TraceFile::parse_lenient(&text).expect("recovers");
        assert_eq!(skipped, 2);
        assert_eq!(trace, sample_trace());
        // A fully clean journal skips nothing...
        let (trace, skipped) = TraceFile::parse_lenient(&good).expect("clean");
        assert_eq!(skipped, 0);
        assert_eq!(trace, sample_trace());
        // ...an empty one is fine (nothing to skip)...
        assert_eq!(TraceFile::parse_lenient("").expect("empty").1, 0);
        // ...but a journal with no parseable line at all is still an error.
        let err = TraceFile::parse_lenient("garbage\nmore garbage\n").expect_err("all bad");
        assert!(err.contains("line 1"), "{err}");
    }
}

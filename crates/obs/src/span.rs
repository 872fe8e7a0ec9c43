//! Span tracing — the campaign **flight recorder**.
//!
//! Spans are the campaign's one wall-clock stage timer and its only timing
//! record. They answer "what was each worker doing *when*", and the stage
//! table ([`SpanTrace::render_stage_table`]), computed from them, answers
//! "how long did stage X take *in aggregate*". A span is one named
//! interval on one track: track 0 is the campaign itself (planning, epochs,
//! campaign-level oracles, minimisation), track `s + 1` is shard `s` (the
//! whole shard, the parse of its range, and the per-statement
//! execute/oracle stages).
//!
//! # Recording discipline
//!
//! Spans are recorded into **per-shard buffers owned by the executing
//! worker** ([`SpanSink`]) — plain `Vec` pushes, lock-free by ownership,
//! exactly the idiom the telemetry event buffers use. The buffers ride back
//! on each shard's outcome and are merged at the join into one
//! [`SpanTrace`], which lives on `CampaignRun` — the wall-clock side of the
//! two-plane design — and never inside `CampaignReport` equality: arming
//! spans cannot change a report byte.
//!
//! # Export
//!
//! [`SpanTrace::to_chrome_json`] renders the Chrome trace-event format
//! (JSON array of `ph: "X"` duration events plus `ph: "M"` thread-name
//! metadata), which loads directly in Perfetto or `chrome://tracing`.
//! Timestamps are microseconds since campaign start. [`validate_json`]
//! reads the export back with the workspace's nested JSON parser
//! ([`soft_types::json`]; the flat [`crate::json`] reader cannot parse it).
//!
//! Journals carry no wall-clock, so [`journal_trace`] builds a *logical*
//! trace from a parsed [`TraceFile`]: one microsecond per planned statement
//! index, tracks per shard, findings and epoch reallocations as marker
//! spans on the campaign track. It makes `repro trace --chrome` work on any
//! journal, including ones recorded before spans existed.

use crate::journal::TraceFile;
use crate::json::str_field;
use soft_types::json::JsonValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The track id of campaign-level spans (planning, epochs, merge-side
/// stages). Shard `s` records on track `s + 1`.
pub const CAMPAIGN_TRACK: u64 = 0;

/// One recorded interval: a name, a track, and a `[start, start + dur)`
/// window in nanoseconds since the campaign clock origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage name (`campaign`, `epoch`, `shard`, `generate`, `parse`,
    /// `execute`, `oracle`, `minimize`, …). Static so the hot path
    /// never allocates for the common case.
    pub name: &'static str,
    /// Track the span renders on: [`CAMPAIGN_TRACK`] or `shard + 1`.
    pub track: u64,
    /// Nanoseconds since the campaign clock origin.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Optional free-form annotation (exported as `args.detail`). `None` on
    /// the per-statement hot path; populated for rare spans (shards,
    /// epochs, findings) where one allocation is noise.
    pub detail: Option<String>,
}

/// A per-worker span buffer: owned exclusively by one thread while it
/// records, so every operation is a plain push — no locks, no atomics.
#[derive(Debug)]
pub struct SpanSink {
    origin: Instant,
    track: u64,
    spans: Vec<SpanRecord>,
}

impl SpanSink {
    /// A sink recording onto `track`, timing against `origin` (the campaign
    /// start instant — every sink of a run must share it so the merged
    /// trace has one time base).
    pub fn new(origin: Instant, track: u64) -> SpanSink {
        SpanSink { origin, track, spans: Vec::new() }
    }

    /// Nanoseconds since the shared origin — the start-of-span timestamp.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span that started at `start_ns` (from [`SpanSink::now_ns`])
    /// and ends now.
    pub fn record_since(&mut self, name: &'static str, start_ns: u64, detail: Option<String>) {
        let end = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            track: self.track,
            start_ns,
            dur_ns: end.saturating_sub(start_ns),
            detail,
        });
    }

    /// Consumes the sink, yielding its buffer for the merge.
    pub fn into_spans(self) -> Vec<SpanRecord> {
        self.spans
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// The merged flight-recorder trace of one campaign run. Lives on
/// `CampaignRun`, outside report equality — wall-clock varies run to run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTrace {
    /// All spans, ordered by `(start_ns, track)`.
    pub spans: Vec<SpanRecord>,
}

impl SpanTrace {
    /// Merges per-worker buffers into one trace ordered by start time
    /// (ties broken by track so the merge is deterministic for a fixed set
    /// of spans).
    pub fn merge(buffers: Vec<Vec<SpanRecord>>) -> SpanTrace {
        let mut spans: Vec<SpanRecord> = buffers.into_iter().flatten().collect();
        spans.sort_by(|a, b| {
            (a.start_ns, a.track, a.name).cmp(&(b.start_ns, b.track, b.name))
        });
        SpanTrace { spans }
    }

    /// Number of spans in the trace.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Renders the Chrome trace-event JSON array: thread-name metadata for
    /// every used track, then one `ph: "X"` complete event per span, with
    /// microsecond timestamps. The output loads in Perfetto and
    /// `chrome://tracing` as-is.
    pub fn to_chrome_json(&self, process_name: &str) -> String {
        let mut tracks: Vec<u64> = self.spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        let mut rows: Vec<String> = Vec::with_capacity(self.spans.len() + tracks.len() + 1);
        rows.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
             \"args\": {{{}}}}}",
            str_field("name", process_name)
        ));
        for &t in &tracks {
            rows.push(format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {t}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                track_label(t)
            ));
        }
        for s in &self.spans {
            let mut row = format!(
                "{{{}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}",
                str_field("name", s.name),
                s.track,
                micros(s.start_ns),
                micros(s.dur_ns.max(1)),
            );
            if let Some(d) = &s.detail {
                let _ = write!(row, ", \"args\": {{{}}}", str_field("detail", d));
            }
            row.push('}');
            rows.push(row);
        }
        format!("[\n{}\n]\n", rows.join(",\n"))
    }

    /// The stage table: one row per span name, alphabetical, with the
    /// name's span count, total and mean duration, and its exact p50 and
    /// p99 by nearest rank (the q-quantile is the duration at rank ⌈q·n⌉
    /// of the name's n sorted durations).
    pub fn render_stage_table(&self) -> String {
        let mut by_name: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            by_name.entry(s.name).or_default().push(s.dur_ns);
        }
        let mut out = format!(
            "{:<10} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
            "stage", "count", "total", "mean", "p50", "p99"
        );
        for (name, mut durations) in by_name {
            durations.sort_unstable();
            let total: u64 = durations.iter().sum();
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>12} {:>12} {:>12} {:>12}",
                name,
                durations.len(),
                fmt_ns(total as f64),
                fmt_ns(total as f64 / durations.len() as f64),
                fmt_ns(nearest_rank(&durations, 50) as f64),
                fmt_ns(nearest_rank(&durations, 99) as f64),
            );
        }
        out
    }
}

/// The `pct`-th percentile of `sorted` (ascending, non-empty) by nearest
/// rank: the value at rank ⌈pct·n / 100⌉, counting from 1.
fn nearest_rank(sorted: &[u64], pct: usize) -> u64 {
    sorted[(pct * sorted.len()).div_ceil(100).max(1) - 1]
}

/// A duration in nanoseconds, in the largest unit that keeps it at or
/// above 1.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// The display name of a track.
fn track_label(track: u64) -> String {
    if track == CAMPAIGN_TRACK {
        "campaign".to_string()
    } else {
        format!("shard {}", track - 1)
    }
}

/// Nanoseconds as a microsecond decimal (`12.345`), the trace-event unit.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Builds a *logical* trace from a parsed journal: one microsecond per
/// planned statement index, one span per statement on its shard's track
/// (named by generation pattern, `seed` for phase-1 replays), plus marker
/// spans on the campaign track for findings and epoch reallocations.
/// Journals carry no wall-clock, so this is the honest rendering: the
/// x-axis is statement order, not time.
pub fn journal_trace(trace: &TraceFile) -> SpanTrace {
    let mut spans: Vec<SpanRecord> = Vec::with_capacity(trace.journal.events.len() + 8);
    for e in &trace.journal.events {
        let name = e.pattern.map(|p| p.label()).unwrap_or("seed");
        let mut detail = String::from(e.outcome.label());
        if let Some(f) = &e.function {
            let _ = write!(detail, ", {f}");
        }
        if let Some(f) = &e.fault_id {
            let _ = write!(detail, ", {f}");
        }
        spans.push(SpanRecord {
            name,
            track: e.shard as u64 + 1,
            start_ns: e.index as u64 * 1000,
            dur_ns: 1000,
            detail: Some(detail),
        });
        if let Some(fault) = &e.fault_id {
            spans.push(SpanRecord {
                name: "finding",
                track: CAMPAIGN_TRACK,
                start_ns: e.index as u64 * 1000,
                dur_ns: 1000,
                detail: Some(fault.to_string()),
            });
        }
    }
    for ep in &trace.epochs {
        spans.push(SpanRecord {
            name: "epoch",
            track: CAMPAIGN_TRACK,
            start_ns: ep.start_statement as u64 * 1000,
            dur_ns: (ep.budget.max(1)) as u64 * 1000,
            detail: Some(format!("epoch {}: budget {}", ep.epoch, ep.budget)),
        });
    }
    SpanTrace::merge(vec![spans])
}

/// Parses a Chrome trace-event export with the workspace's JSON parser
/// ([`soft_types::json`]) and returns the number of events: the length of
/// the top-level array Perfetto expects. Syntax errors carry a byte offset.
/// The check is syntax plus that one shape (no schema validation): its job
/// is "Perfetto will not reject this file as malformed JSON".
pub fn validate_json(text: &str) -> Result<usize, String> {
    match soft_types::json::parse(text).map_err(|e| e.to_string())? {
        JsonValue::Array(events) => Ok(events.len()),
        _ => Err("expected a top-level array".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sink_records_on_its_track_with_a_shared_origin() {
        let origin = Instant::now();
        let mut sink = SpanSink::new(origin, 3);
        let start = sink.now_ns();
        std::thread::sleep(Duration::from_millis(2));
        sink.record_since("execute", start, None);
        sink.record_since("shard", 0, Some("4 statements".into()));
        assert_eq!(sink.len(), 2);
        assert!(!sink.is_empty());
        let spans = sink.into_spans();
        assert_eq!(spans[0].name, "execute");
        assert_eq!(spans[0].track, 3);
        assert!(spans[0].dur_ns >= 1_000_000, "slept 2ms: {}", spans[0].dur_ns);
        assert_eq!((spans[1].start_ns, spans[1].detail.as_deref()), (0, Some("4 statements")));
        assert!(spans[1].dur_ns >= spans[0].dur_ns, "a span from the origin covers the rest");
    }

    #[test]
    fn merge_orders_by_start_time_across_buffers() {
        let a = vec![SpanRecord { name: "shard", track: 2, start_ns: 50, dur_ns: 5, detail: None }];
        let b = vec![
            SpanRecord { name: "campaign", track: 0, start_ns: 0, dur_ns: 100, detail: None },
            SpanRecord { name: "shard", track: 1, start_ns: 70, dur_ns: 5, detail: None },
        ];
        let trace = SpanTrace::merge(vec![a, b]);
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["campaign", "shard", "shard"]);
        assert_eq!(trace.spans[1].track, 2);
        assert_eq!(trace.len(), 3);
    }

    #[test]
    fn chrome_export_is_valid_trace_event_json() {
        let trace = SpanTrace::merge(vec![vec![
            SpanRecord { name: "campaign", track: 0, start_ns: 0, dur_ns: 2_500, detail: None },
            SpanRecord {
                name: "execute",
                track: 1,
                start_ns: 1_234,
                dur_ns: 567,
                detail: Some("needs \"escaping\"\n".into()),
            },
        ]]);
        let json = trace.to_chrome_json("soft-repro campaign");
        // The export parses as nested JSON: metadata rows (process name +
        // two thread names) plus one event per span.
        let rows = validate_json(&json).expect("valid JSON");
        assert_eq!(rows, 3 + trace.len());
        assert!(json.contains("\"ph\": \"X\""), "{json}");
        assert!(json.contains("\"ph\": \"M\""), "{json}");
        assert!(json.contains("\"ts\": 1.234"), "{json}");
        assert!(json.contains("\"name\": \"shard 0\""), "{json}");
        assert!(json.contains("needs \\\"escaping\\\"\\n"), "{json}");
    }

    /// The stage table's row for `name`, split into its count, total,
    /// mean, p50 and p99 cells (each duration is a value and a unit).
    fn stage_row(trace: &SpanTrace, name: &str) -> Vec<String> {
        let table = trace.render_stage_table();
        let row = table
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("no {name} row in:\n{table}"));
        let cells: Vec<&str> = row.split_whitespace().skip(1).collect();
        let mut out = vec![cells[0].to_string()];
        out.extend(cells[1..].chunks(2).map(|c| c.join(" ")));
        out
    }

    #[test]
    fn stage_table_has_one_row_per_name_with_count_and_total() {
        let span = |name, dur_ns| SpanRecord { name, track: 1, start_ns: 0, dur_ns, detail: None };
        let trace = SpanTrace::merge(vec![vec![
            span("execute", 1_000_000),
            span("execute", 3_000_000),
            span("shard", 3_000_000),
        ]]);
        let table = trace.render_stage_table();
        assert_eq!(table.lines().count(), 3, "a header and one row per name:\n{table}");
        assert!(table.starts_with("stage "), "{table}");
        assert_eq!(stage_row(&trace, "execute")[..3], ["2", "4.00 ms", "2.00 ms"]);
        assert_eq!(stage_row(&trace, "shard")[..2], ["1", "3.00 ms"]);
    }

    /// The table's quantiles are the recorded durations themselves: a lone
    /// span prints its own duration as mean, p50 and p99, for 100 spans p50
    /// and p99 are the 50th and 99th smallest, and for 3 spans the 2nd and
    /// 3rd (nearest rank ⌈q·n⌉, rounding up).
    #[test]
    fn stage_table_quantiles_are_exact_nearest_ranks() {
        let generate = SpanRecord {
            name: "generate",
            track: CAMPAIGN_TRACK,
            start_ns: 0,
            dur_ns: 174_103_382,
            detail: None,
        };
        let trace = SpanTrace::merge(vec![vec![generate]]);
        assert_eq!(
            stage_row(&trace, "generate"),
            ["1", "174.10 ms", "174.10 ms", "174.10 ms", "174.10 ms"]
        );

        // Durations 3, 10, …, 696 ns (the k-th smallest is 7k − 4), recorded
        // out of order on two tracks.
        let executes: Vec<SpanRecord> = (0..100u64)
            .map(|i| (i * 37) % 100)
            .map(|k| SpanRecord {
                name: "execute",
                track: 1 + k % 2,
                start_ns: 1_000 * ((k * 13) % 100),
                dur_ns: 7 * k + 3,
                detail: None,
            })
            .collect();
        let trace = SpanTrace::merge(vec![executes]);
        let row = stage_row(&trace, "execute");
        assert_eq!(row[0], "100");
        assert_eq!(row[3..], ["346 ns", "689 ns"], "p50 = 7·50 − 4, p99 = 7·99 − 4");

        let parses = [30, 10, 20].map(|dur_ns| SpanRecord {
            name: "parse",
            track: 1,
            start_ns: dur_ns,
            dur_ns,
            detail: None,
        });
        let trace = SpanTrace::merge(vec![parses.to_vec()]);
        assert_eq!(stage_row(&trace, "parse")[3..], ["20 ns", "30 ns"], "ranks ⌈1.5⌉ and ⌈2.97⌉");
    }

    /// The export says what was recorded: read back with the workspace's
    /// JSON parser, every escape class in a detail or the process name
    /// survives, and each duration event names its span's stage and track.
    #[test]
    fn chrome_export_round_trips_every_escape_class() {
        let nasty = "quote \" backslash \\ newline \n return \r tab \t \u{1} é 𝄞";
        let spans: Vec<SpanRecord> = [("campaign", 0), ("execute", 1), ("oracle", 2)]
            .iter()
            .enumerate()
            .map(|(i, &(name, track))| SpanRecord {
                name,
                track,
                start_ns: 1_000 * i as u64,
                dur_ns: 500,
                detail: Some(format!("{nasty} #{i}")),
            })
            .collect();
        let trace = SpanTrace::merge(vec![spans]);
        let process = format!("soft-repro {nasty}");
        let json = trace.to_chrome_json(&process);
        let parsed = soft_types::json::parse(&json).expect("export parses");
        let JsonValue::Array(events) = parsed else { panic!("export is not an array") };
        // The parser tolerates raw control characters inside strings and
        // the trace-event format does not: every one must be escaped, so
        // the only raw newlines are the one-event-per-line separators.
        assert!(json.chars().all(|c| c >= ' ' || c == '\n'), "raw control character:\n{json}");
        assert_eq!(json.lines().count(), events.len() + 2, "raw newline in a string:\n{json}");
        fn text(v: Option<&JsonValue>) -> &str {
            match v {
                Some(JsonValue::String(s)) => s,
                other => panic!("expected a string, got {other:?}"),
            }
        }
        fn args(e: &JsonValue) -> &JsonValue {
            e.get_key("args").expect("event has args")
        }
        assert_eq!(text(args(&events[0]).get_key("name")), process);
        let durations: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get_key("ph") == Some(&JsonValue::String("X".into())))
            .collect();
        assert_eq!(durations.len(), trace.len());
        for (event, span) in durations.iter().zip(&trace.spans) {
            assert_eq!(text(event.get_key("name")), span.name);
            assert_eq!(event.get_key("tid"), Some(&JsonValue::Number(span.track.to_string())));
            assert_eq!(Some(text(args(event).get_key("detail"))), span.detail.as_deref());
        }
    }

    #[test]
    fn journal_trace_maps_statements_findings_and_epochs() {
        let jsonl = "\
{\"type\": \"campaign\", \"dialect\": \"MonetDB\", \"statements\": 3, \"events\": 3}\n\
{\"type\": \"stmt\", \"index\": 1, \"shard\": 0, \"seed\": 0, \"pattern\": null, \
\"function\": \"floor\", \"outcome\": \"ok\", \"fault\": null}\n\
{\"type\": \"stmt\", \"index\": 2, \"shard\": 0, \"seed\": 1, \"pattern\": \"P2.1\", \
\"function\": \"substr\", \"outcome\": \"crash\", \"fault\": \"demo-001\"}\n\
{\"type\": \"stmt\", \"index\": 3, \"shard\": 1, \"seed\": 2, \"pattern\": \"P1.1\", \
\"function\": null, \"outcome\": \"error\", \"fault\": null}\n\
{\"type\": \"epoch\", \"epoch\": 0, \"start\": 1, \"budget\": 3, \
\"pattern\": \"P1.1\", \"category\": \"string\", \"planned\": 3, \"executed\": 3, \
\"score_milli\": 0}\n";
        let parsed = TraceFile::parse(jsonl).expect("journal parses");
        let trace = journal_trace(&parsed);
        // 3 statements + 1 finding marker + 1 epoch span.
        assert_eq!(trace.len(), 5);
        let finding = trace.spans.iter().find(|s| s.name == "finding").expect("marker");
        assert_eq!(finding.track, CAMPAIGN_TRACK);
        assert_eq!(finding.start_ns, 2_000);
        assert_eq!(finding.detail.as_deref(), Some("demo-001"));
        let epoch = trace.spans.iter().find(|s| s.name == "epoch").expect("epoch span");
        assert_eq!(epoch.dur_ns, 3_000);
        let seed = trace.spans.iter().find(|s| s.name == "seed").expect("seed span");
        assert_eq!(seed.track, 1);
        // And the logical trace exports cleanly.
        validate_json(&trace.to_chrome_json("journal")).expect("valid chrome JSON");
    }

    #[test]
    fn validator_accepts_nested_and_rejects_malformed() {
        assert_eq!(validate_json("[]"), Ok(0));
        assert_eq!(validate_json("[{\"a\": [1, 2.5, -3e2]}, \"s\", true, null]"), Ok(4));
        assert_eq!(validate_json(" [ {\"k\": {\"n\": {}}} ] "), Ok(1));
        for bad in [
            "",
            "{}",
            "[",
            "[1,]",
            "[{\"a\" 1}]",
            "[\"unterminated]",
            "[1] trailing",
            "[01e]",
            "[{\"a\": }]",
            "[\"bad \\x escape\"]",
        ] {
            assert!(validate_json(bad).is_err(), "accepted {bad:?}");
        }
    }
}

//! Span tracing — the campaign **flight recorder**.
//!
//! Spans are the campaign's one wall-clock stage timer. They answer "what
//! was each worker doing *when*", and the per-stage latency table
//! ([`crate::latency::StageLatency::from_spans`]) is a view of them that
//! answers "how long did stage X take *in aggregate*". A span is one named
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
//! Timestamps are microseconds since campaign start. The workspace is
//! hermetic, so [`validate_json`] provides a std-only syntax check over the
//! nested output (the flat [`crate::json`] reader cannot parse it).
//!
//! Journals carry no wall-clock, so [`journal_trace`] builds a *logical*
//! trace from a parsed [`TraceFile`]: one microsecond per planned statement
//! index, tracks per shard, findings and epoch reallocations as marker
//! spans on the campaign track. It makes `repro trace --chrome` work on any
//! journal, including ones recorded before spans existed.

use crate::journal::TraceFile;
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
             \"args\": {{\"name\": \"{}\"}}}}",
            crate::json::escape(process_name)
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
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {}, \"dur\": {}",
                crate::json::escape(s.name),
                s.track,
                micros(s.start_ns),
                micros(s.dur_ns.max(1)),
            );
            if let Some(d) = &s.detail {
                let _ = write!(row, ", \"args\": {{\"detail\": \"{}\"}}", crate::json::escape(d));
            }
            row.push('}');
            rows.push(row);
        }
        format!("[\n{}\n]\n", rows.join(",\n"))
    }

    /// One-line per-stage summary (span count and total duration per name,
    /// alphabetical) for CLI output.
    pub fn render_summary(&self) -> String {
        let mut by_name: BTreeMap<&str, (usize, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.dur_ns;
        }
        let parts: Vec<String> = by_name
            .iter()
            .map(|(name, (n, ns))| format!("{name} x{n} ({:.1}ms)", *ns as f64 / 1e6))
            .collect();
        format!("spans: {}", parts.join(", "))
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

/// A std-only syntax validator for *nested* JSON (objects, arrays, strings,
/// numbers, literals) — the flat [`crate::json`] reader deliberately rejects
/// nesting, and the trace-event format needs it. Returns the number of
/// top-level array elements; errors carry a byte offset. This is a syntax
/// check only (no duplicate-key or schema validation): its job is "Perfetto
/// will not reject this file as malformed JSON".
pub fn validate_json(text: &str) -> Result<usize, String> {
    let mut p = Validator { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    if p.peek() != Some(b'[') {
        return Err(format!("byte {}: expected top-level array", p.pos));
    }
    p.pos += 1;
    let mut count = 0usize;
    p.skip_ws();
    if p.peek() == Some(b']') {
        p.pos += 1;
    } else {
        loop {
            p.value()?;
            count += 1;
            p.skip_ws();
            match p.peek() {
                Some(b',') => {
                    p.pos += 1;
                    p.skip_ws();
                }
                Some(b']') => {
                    p.pos += 1;
                    break;
                }
                _ => return Err(format!("byte {}: expected ',' or ']'", p.pos)),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("byte {}: trailing content after array", p.pos));
    }
    Ok(count)
}

struct Validator<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Validator<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("byte {}: expected a JSON value", self.pos)),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.pos += 1; // '{'
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("byte {}: expected ':'", self.pos));
            }
            self.pos += 1;
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("byte {}: expected ',' or '}}'", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.pos += 1; // '['
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("byte {}: expected ',' or ']'", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        if self.peek() != Some(b'"') {
            return Err(format!("byte {}: expected a string", self.pos));
        }
        self.pos += 1;
        while let Some(c) = self.peek() {
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(());
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len()
                                || !self.bytes[self.pos + 1..self.pos + 5]
                                    .iter()
                                    .all(u8::is_ascii_hexdigit)
                            {
                                return Err(format!("byte {}: bad \\u escape", self.pos));
                            }
                            self.pos += 5;
                        }
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1
                        }
                        _ => return Err(format!("byte {}: bad escape", self.pos)),
                    }
                }
                _ => self.pos += 1,
            }
        }
        Err(format!("byte {}: unterminated string", self.pos))
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("byte {}: expected `{word}`", self.pos))
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(format!("byte {start}: bad number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(format!("byte {}: bad fraction", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(format!("byte {}: bad exponent", self.pos));
            }
        }
        Ok(())
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

    #[test]
    fn summary_aggregates_per_stage() {
        let trace = SpanTrace::merge(vec![vec![
            SpanRecord { name: "execute", track: 1, start_ns: 0, dur_ns: 1_000_000, detail: None },
            SpanRecord { name: "execute", track: 1, start_ns: 5, dur_ns: 1_000_000, detail: None },
            SpanRecord { name: "shard", track: 1, start_ns: 0, dur_ns: 3_000_000, detail: None },
        ]]);
        let s = trace.render_summary();
        assert!(s.contains("execute x2 (2.0ms)"), "{s}");
        assert!(s.contains("shard x1 (3.0ms)"), "{s}");
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

//! The live metrics registry — the campaign's *wall-clock* observability
//! plane.
//!
//! Everything in `soft-obs` up to PR 3 is post-hoc: yields, curves, and the
//! journal only exist after the shard merge. This module is the opposite
//! surface: a lock-free registry of atomic counters and gauges that shard
//! workers update **wait-free on the hot path** (one `fetch_add` per counter,
//! one `store` per heartbeat field) and that observers — the HTTP exposition
//! server ([`crate::http`]), the `--progress` TTY ticker, and the shard
//! watchdog ([`crate::watchdog`]) — read concurrently without stopping the
//! campaign.
//!
//! # The live plane never touches the deterministic plane
//!
//! The registry is deliberately *outside* `CampaignReport` and its
//! `PartialEq`: live counts are sampled mid-flight (a scrape can observe any
//! interleaving of shard progress) and the unique-fault discovery order
//! depends on scheduling. The campaign runner only ever *writes* into the
//! registry; no campaign decision reads it back, so the
//! byte-identical-for-any-worker-count invariant is untouched. The two slow
//! paths — global unique-fault dedup and the coverage curve — take a `Mutex`,
//! but only on a shard's first sighting of a fault or a shard completion
//! respectively, never per statement.

use crate::event::OutcomeClass;
use crate::json::{num_field, str_field};
use soft_engine::{Coverage, PatternId};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Number of per-pattern counter slots: the ten patterns plus slot 0 for
/// phase-1 seed replays (events with no pattern).
const PATTERN_SLOTS: usize = PatternId::ALL.len() + 1;

/// A shard's lifecycle state, stored in [`ShardBeat::state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Not yet claimed by a worker.
    Pending,
    /// Claimed and executing.
    Running,
    /// Finished.
    Done,
}

impl ShardState {
    fn from_u64(v: u64) -> ShardState {
        match v {
            1 => ShardState::Running,
            2 => ShardState::Done,
            _ => ShardState::Pending,
        }
    }
}

/// One shard's heartbeat slot: the watchdog's view of shard liveness.
///
/// The executing worker owns the slot exclusively while the shard runs, so
/// every write is a plain atomic store — wait-free by construction.
#[derive(Debug, Default)]
pub struct ShardBeat {
    /// 0 = pending, 1 = running, 2 = done.
    state: AtomicU64,
    /// Last *global* (1-based) statement index the shard executed.
    last_index: AtomicU64,
    /// Milliseconds since campaign start at the last heartbeat.
    last_beat_ms: AtomicU64,
    /// Statements the shard has executed so far.
    statements: AtomicU64,
}

impl ShardBeat {
    /// The shard's lifecycle state.
    pub fn state(&self) -> ShardState {
        ShardState::from_u64(self.state.load(Ordering::Acquire))
    }

    /// Last global statement index the shard reported.
    pub fn last_index(&self) -> u64 {
        self.last_index.load(Ordering::Relaxed)
    }

    /// Milliseconds since campaign start at the last heartbeat.
    pub fn last_beat_ms(&self) -> u64 {
        self.last_beat_ms.load(Ordering::Relaxed)
    }

    /// Statements executed by the shard so far.
    pub fn statements(&self) -> u64 {
        self.statements.load(Ordering::Relaxed)
    }
}

/// Per-pattern live counters (slot 0 = seed replays).
#[derive(Debug, Default)]
struct PatternCell {
    executed: AtomicU64,
    crashes: AtomicU64,
    errors: AtomicU64,
    resource_limits: AtomicU64,
    logic_bugs: AtomicU64,
}

/// One point of the live unique-bug curve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveBugPoint {
    /// Statements executed (global counter) when the fault was first seen.
    /// Sampled mid-flight, so this is approximate under parallelism — the
    /// deterministic discovery index lives in the campaign report.
    pub statements: u64,
    /// Unique faults seen so far, including this one.
    pub unique: u64,
    /// The fault id.
    pub fault_id: String,
}

/// One point of the live coverage curve, appended on each shard completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveCoveragePoint {
    /// Statements executed (global counter) at the merge.
    pub statements: u64,
    /// Distinct functions triggered by all completed shards so far.
    pub functions: u64,
    /// Distinct branches covered by all completed shards so far.
    pub branches: u64,
}

/// The lock-free live metrics registry for one campaign run.
///
/// Create one per campaign ([`LiveMetrics::new`]), hand an `Arc` of it to
/// the exposition server / ticker, and pass it to the campaign runner; the
/// runner calls [`begin_campaign`](LiveMetrics::begin_campaign) before the
/// first shard, adds each stretch of the plan through
/// [`plan_shards`](LiveMetrics::plan_shards) as it cuts it into shards, and
/// updates the registry as shards execute.
#[derive(Debug)]
pub struct LiveMetrics {
    started: Instant,
    dialect: Mutex<String>,
    planned_statements: AtomicU64,
    statements: AtomicU64,
    outcomes: [AtomicU64; OutcomeClass::ALL.len()],
    per_pattern: [PatternCell; PATTERN_SLOTS],
    unique_faults: AtomicU64,
    shards_total: AtomicU64,
    shards_done: AtomicU64,
    workers: AtomicU64,
    /// Heartbeat slots, allocated once per campaign by `begin_campaign`.
    /// Workers clone the `Arc` once per *shard* (a read lock), then update
    /// their slot wait-free per statement.
    beats: RwLock<Arc<Vec<ShardBeat>>>,
    /// Global unique-fault dedup set — locked only on crash events.
    seen_faults: Mutex<HashSet<String>>,
    /// Live growth curves — locked on fault discovery / shard completion.
    bug_curve: Mutex<Vec<LiveBugPoint>>,
    coverage_curve: Mutex<Vec<LiveCoveragePoint>>,
    /// Union of completed shards' coverage — locked once per shard.
    coverage: Mutex<Coverage>,
    /// The append-only live event log behind the `/events` stream: one
    /// pre-rendered flat-JSON line per rare event (shard lifecycle, unique
    /// finding, epoch reallocation, watchdog stall, campaign completion).
    /// Locked only on those events, never per statement.
    events: Mutex<Vec<Arc<str>>>,
    /// Raised by [`LiveMetrics::finish_campaign`]; tells `/events` consumers
    /// the log is complete and the stream can terminate.
    events_done: AtomicBool,
}

impl Default for LiveMetrics {
    fn default() -> Self {
        LiveMetrics::new()
    }
}

/// Maps a pattern to its counter slot (0 = seed replay).
fn pattern_slot(pattern: Option<PatternId>) -> usize {
    match pattern {
        None => 0,
        Some(p) => 1 + PatternId::ALL.iter().position(|&q| q == p).unwrap_or(0),
    }
}

/// The label of a counter slot.
fn slot_label(slot: usize) -> &'static str {
    if slot == 0 {
        "seed"
    } else {
        PatternId::ALL[slot - 1].label()
    }
}

impl LiveMetrics {
    /// A fresh, empty registry. The campaign clock starts now.
    pub fn new() -> LiveMetrics {
        LiveMetrics {
            started: Instant::now(),
            dialect: Mutex::new(String::new()),
            planned_statements: AtomicU64::new(0),
            statements: AtomicU64::new(0),
            outcomes: Default::default(),
            per_pattern: Default::default(),
            unique_faults: AtomicU64::new(0),
            shards_total: AtomicU64::new(0),
            shards_done: AtomicU64::new(0),
            workers: AtomicU64::new(0),
            beats: RwLock::new(Arc::new(Vec::new())),
            seen_faults: Mutex::new(HashSet::new()),
            bug_curve: Mutex::new(Vec::new()),
            coverage_curve: Mutex::new(Vec::new()),
            coverage: Mutex::new(Coverage::new()),
            events: Mutex::new(Vec::new()),
            events_done: AtomicBool::new(false),
        }
    }

    /// Milliseconds since the registry was created.
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Publishes the dialect and worker count, allocates `shard_slots`
    /// heartbeat slots (at least as many as the campaign will run shards)
    /// and zeroes the plan gauges. Called once by the runner before any
    /// shard executes; the gauges then grow through
    /// [`plan_shards`](LiveMetrics::plan_shards), and a snapshot shows only
    /// the slots of shards cut so far.
    pub fn begin_campaign(&self, dialect: &str, shard_slots: usize, workers: usize) {
        *self.dialect.lock().expect("dialect poisoned") = dialect.to_string();
        self.planned_statements.store(0, Ordering::Relaxed);
        self.shards_total.store(0, Ordering::Relaxed);
        self.workers.store(workers as u64, Ordering::Relaxed);
        let mut slots = Vec::with_capacity(shard_slots);
        slots.resize_with(shard_slots, ShardBeat::default);
        *self.beats.write().expect("beats poisoned") = Arc::new(slots);
    }

    /// Adds `statements` planned statements, cut into `shards` shards, to
    /// the plan gauges. The runner calls it as it cuts each stretch of the
    /// plan into shards, before they execute, so the executed counters
    /// never pass the gauges and end equal to them.
    pub fn plan_shards(&self, statements: usize, shards: usize) {
        self.planned_statements.fetch_add(statements as u64, Ordering::Relaxed);
        self.shards_total.fetch_add(shards as u64, Ordering::Relaxed);
    }

    /// The heartbeat slot table. Workers call this once per shard; the
    /// watchdog calls it once per poll.
    pub fn beats(&self) -> Arc<Vec<ShardBeat>> {
        Arc::clone(&self.beats.read().expect("beats poisoned"))
    }

    /// Appends one pre-rendered line to the live event log.
    fn push_event(&self, line: String) {
        self.events.lock().expect("events poisoned").push(Arc::from(line.as_str()));
    }

    /// The event log from sequence number `from` onward, plus whether the
    /// log is complete ([`LiveMetrics::finish_campaign`] was called). The
    /// done flag is read *before* the log is locked, so `done == true`
    /// guarantees the returned slice reaches the final event — `/events`
    /// streamers can terminate without a second look.
    pub fn events_since(&self, from: usize) -> (Vec<Arc<str>>, bool) {
        let done = self.events_done.load(Ordering::Acquire);
        let events = self.events.lock().expect("events poisoned");
        let lines = events[from.min(events.len())..].to_vec();
        (lines, done)
    }

    /// Marks the event log complete: appends the `done` summary event, then
    /// raises the flag `/events` streamers terminate on. Called once by the
    /// campaign runner after the merge.
    pub fn finish_campaign(&self) {
        let line = format!(
            "{{{}, {}, {}, {}}}",
            str_field("type", "done"),
            num_field("statements", self.statements.load(Ordering::Relaxed) as i64),
            num_field("unique", self.unique_faults.load(Ordering::Relaxed) as i64),
            num_field("ms", self.elapsed_ms() as i64)
        );
        self.push_event(line);
        self.events_done.store(true, Ordering::Release);
    }

    /// Records one epoch reallocation of the feedback scheduler into the
    /// event log (the deterministic record lives in the journal; this is
    /// the live mirror).
    pub fn record_epoch(&self, epoch: usize, start_statement: usize, budget: usize) {
        let line = format!(
            "{{{}, {}, {}, {}, {}}}",
            str_field("type", "epoch"),
            num_field("epoch", epoch as i64),
            num_field("start_statement", start_statement as i64),
            num_field("budget", budget as i64),
            num_field("ms", self.elapsed_ms() as i64)
        );
        self.push_event(line);
    }

    /// Records a watchdog stall observation into the event log.
    pub fn record_stall(&self, shard: usize, last_index: u64, stalled_ms: u64) {
        let line = format!(
            "{{{}, {}, {}, {}, {}}}",
            str_field("type", "stall"),
            num_field("shard", shard as i64),
            num_field("last_index", last_index as i64),
            num_field("stalled_ms", stalled_ms as i64),
            num_field("ms", self.elapsed_ms() as i64)
        );
        self.push_event(line);
    }

    /// Marks a shard claimed by a worker.
    pub fn shard_started(&self, beat: &ShardBeat, shard: usize) {
        beat.last_beat_ms.store(self.elapsed_ms(), Ordering::Relaxed);
        beat.state.store(1, Ordering::Release);
        let line = format!(
            "{{{}, {}, {}, {}}}",
            str_field("type", "shard"),
            num_field("shard", shard as i64),
            str_field("state", "running"),
            num_field("ms", self.elapsed_ms() as i64)
        );
        self.push_event(line);
    }

    /// Records one executed statement — the wait-free hot path: five
    /// `fetch_add`s and three `store`s, no locks, no allocation.
    pub fn record_statement(
        &self,
        beat: &ShardBeat,
        global_index: usize,
        pattern: Option<PatternId>,
        class: OutcomeClass,
    ) {
        self.statements.fetch_add(1, Ordering::Relaxed);
        self.outcomes[class as usize].fetch_add(1, Ordering::Relaxed);
        let cell = &self.per_pattern[pattern_slot(pattern)];
        cell.executed.fetch_add(1, Ordering::Relaxed);
        match class {
            OutcomeClass::Crash => cell.crashes.fetch_add(1, Ordering::Relaxed),
            OutcomeClass::Error => cell.errors.fetch_add(1, Ordering::Relaxed),
            OutcomeClass::ResourceLimit => cell.resource_limits.fetch_add(1, Ordering::Relaxed),
            OutcomeClass::LogicBug => cell.logic_bugs.fetch_add(1, Ordering::Relaxed),
            OutcomeClass::Ok => 0,
        };
        beat.last_index.store(global_index as u64, Ordering::Relaxed);
        beat.statements.fetch_add(1, Ordering::Relaxed);
        beat.last_beat_ms.store(self.elapsed_ms(), Ordering::Relaxed);
    }

    /// Records a finding of any kind (a crash or a wrong-result verdict)
    /// whose fault id the reporting shard has not seen before. Takes the
    /// global dedup lock (first sightings are rare: the shard-local dedup
    /// already filtered repeats); appends a live bug-curve point when the
    /// fault is globally new. Returns whether it was.
    pub fn record_unique_candidate(&self, fault_id: &str) -> bool {
        let mut seen = self.seen_faults.lock().expect("faults poisoned");
        if !seen.insert(fault_id.to_string()) {
            return false;
        }
        let unique = seen.len() as u64;
        drop(seen);
        self.unique_faults.store(unique, Ordering::Relaxed);
        let statements = self.statements.load(Ordering::Relaxed);
        self.bug_curve.lock().expect("bug curve poisoned").push(LiveBugPoint {
            statements,
            unique,
            fault_id: fault_id.to_string(),
        });
        let line = format!(
            "{{{}, {}, {}, {}, {}}}",
            str_field("type", "finding"),
            str_field("fault", fault_id),
            num_field("unique", unique as i64),
            num_field("statements", statements as i64),
            num_field("ms", self.elapsed_ms() as i64)
        );
        self.push_event(line);
        true
    }

    /// Marks a shard finished, merging its coverage into the live union and
    /// appending a live coverage-curve point. One lock per *shard*, never
    /// per statement.
    pub fn shard_finished(&self, beat: &ShardBeat, shard: usize, shard_coverage: &Coverage) {
        beat.state.store(2, Ordering::Release);
        self.shards_done.fetch_add(1, Ordering::Relaxed);
        let mut coverage = self.coverage.lock().expect("coverage poisoned");
        coverage.merge(shard_coverage);
        let point = LiveCoveragePoint {
            statements: self.statements.load(Ordering::Relaxed),
            functions: coverage.functions_triggered() as u64,
            branches: coverage.branches_covered() as u64,
        };
        drop(coverage);
        self.coverage_curve.lock().expect("coverage curve poisoned").push(point);
        let line = format!(
            "{{{}, {}, {}, {}, {}}}",
            str_field("type", "shard"),
            num_field("shard", shard as i64),
            str_field("state", "done"),
            num_field("statements", beat.statements() as i64),
            num_field("ms", self.elapsed_ms() as i64)
        );
        self.push_event(line);
    }

    /// A consistent-enough point-in-time copy of every surface, for the
    /// exposition server and the TTY ticker. ("Consistent enough": counters
    /// are read individually, so a scrape racing the campaign can be off by
    /// in-flight statements — that is inherent to live metrics and why the
    /// registry stays outside report equality.)
    pub fn snapshot(&self) -> LiveSnapshot {
        let beats = self.beats();
        let shards_total = self.shards_total.load(Ordering::Relaxed);
        let elapsed_ms = self.elapsed_ms();
        let statements = self.statements.load(Ordering::Relaxed);
        let per_pattern = (0..PATTERN_SLOTS)
            .map(|i| {
                let c = &self.per_pattern[i];
                PatternSnapshot {
                    label: slot_label(i),
                    executed: c.executed.load(Ordering::Relaxed),
                    crashes: c.crashes.load(Ordering::Relaxed),
                    errors: c.errors.load(Ordering::Relaxed),
                    resource_limits: c.resource_limits.load(Ordering::Relaxed),
                    logic_bugs: c.logic_bugs.load(Ordering::Relaxed),
                }
            })
            .collect();
        LiveSnapshot {
            dialect: self.dialect.lock().expect("dialect poisoned").clone(),
            elapsed_ms,
            planned_statements: self.planned_statements.load(Ordering::Relaxed),
            statements,
            outcomes: OutcomeClass::ALL
                .map(|c| (c, self.outcomes[c as usize].load(Ordering::Relaxed))),
            per_pattern,
            unique_faults: self.unique_faults.load(Ordering::Relaxed),
            shards_total,
            shards_done: self.shards_done.load(Ordering::Relaxed),
            workers: self.workers.load(Ordering::Relaxed),
            statements_per_sec: if elapsed_ms == 0 {
                0.0
            } else {
                statements as f64 * 1000.0 / elapsed_ms as f64
            },
            // Slots past the shards cut so far are only the heartbeat
            // table's headroom (the scheduler sizes it by an upper bound).
            shards: beats
                .iter()
                .take(shards_total as usize)
                .map(|b| ShardSnapshot {
                    state: b.state(),
                    last_index: b.last_index(),
                    last_beat_ms: b.last_beat_ms(),
                    statements: b.statements(),
                })
                .collect(),
            bug_curve: self.bug_curve.lock().expect("bug curve poisoned").clone(),
            coverage_curve: self.coverage_curve.lock().expect("coverage curve poisoned").clone(),
        }
    }
}

/// Point-in-time copy of one pattern slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternSnapshot {
    /// `seed` for phase-1 replays, otherwise the pattern label.
    pub label: &'static str,
    /// Statements executed.
    pub executed: u64,
    /// Crash outcomes (including repeats).
    pub crashes: u64,
    /// Ordinary SQL errors.
    pub errors: u64,
    /// Resource-limit kills.
    pub resource_limits: u64,
    /// Wrong-result verdicts from the logic-bug oracles.
    pub logic_bugs: u64,
}

/// Point-in-time copy of one shard heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Lifecycle state.
    pub state: ShardState,
    /// Last global statement index reported.
    pub last_index: u64,
    /// Milliseconds since campaign start at the last heartbeat.
    pub last_beat_ms: u64,
    /// Statements the shard executed so far.
    pub statements: u64,
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone)]
pub struct LiveSnapshot {
    /// Dialect under test (empty before `begin_campaign`).
    pub dialect: String,
    /// Milliseconds since the registry was created.
    pub elapsed_ms: u64,
    /// Statements planned so far: grows as the runner cuts the plan into
    /// shards and ends equal to the statements executed.
    pub planned_statements: u64,
    /// Statements executed so far.
    pub statements: u64,
    /// Per-outcome-class counters, in [`OutcomeClass::ALL`] order.
    pub outcomes: [(OutcomeClass, u64); OutcomeClass::ALL.len()],
    /// Per-pattern counters (slot 0 = seed replays).
    pub per_pattern: Vec<PatternSnapshot>,
    /// Unique fault ids seen so far.
    pub unique_faults: u64,
    /// Shards cut so far (ends equal to the shards executed).
    pub shards_total: u64,
    /// Shards finished.
    pub shards_done: u64,
    /// Worker threads executing the campaign.
    pub workers: u64,
    /// Overall execution rate so far.
    pub statements_per_sec: f64,
    /// Per-shard heartbeat snapshots of the shards cut so far, in shard
    /// order.
    pub shards: Vec<ShardSnapshot>,
    /// Live unique-bug curve (approximate statement counts).
    pub bug_curve: Vec<LiveBugPoint>,
    /// Live coverage curve, one point per completed shard.
    pub coverage_curve: Vec<LiveCoveragePoint>,
}

impl LiveSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4) — the `/metrics` payload. The full name inventory is
    /// documented in EXPERIMENTS.md.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, help: &str, value: f64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter(
            "soft_statements_total",
            "Statements executed so far.",
            self.statements as f64,
        );
        counter(
            "soft_unique_faults_total",
            "Distinct fault ids observed so far.",
            self.unique_faults as f64,
        );
        let _ = writeln!(out, "# HELP soft_outcomes_total Statements per outcome class.");
        let _ = writeln!(out, "# TYPE soft_outcomes_total counter");
        for (class, n) in self.outcomes {
            let _ = writeln!(out, "soft_outcomes_total{{class=\"{}\"}} {n}", class.label());
        }
        let _ = writeln!(
            out,
            "# HELP soft_pattern_statements_total Statements executed per generation pattern."
        );
        let _ = writeln!(out, "# TYPE soft_pattern_statements_total counter");
        for p in &self.per_pattern {
            let _ = writeln!(
                out,
                "soft_pattern_statements_total{{pattern=\"{}\"}} {}",
                p.label, p.executed
            );
        }
        let _ = writeln!(
            out,
            "# HELP soft_pattern_crashes_total Crash outcomes per generation pattern."
        );
        let _ = writeln!(out, "# TYPE soft_pattern_crashes_total counter");
        for p in &self.per_pattern {
            let _ = writeln!(
                out,
                "soft_pattern_crashes_total{{pattern=\"{}\"}} {}",
                p.label, p.crashes
            );
        }
        let mut gauge = |name: &str, help: &str, value: f64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        gauge(
            "soft_statements_planned",
            "Statements planned so far (cut into shards).",
            self.planned_statements as f64,
        );
        gauge("soft_shards_total", "Shards cut so far.", self.shards_total as f64);
        gauge("soft_shards_done", "Shards finished.", self.shards_done as f64);
        gauge("soft_workers", "Worker threads executing the campaign.", self.workers as f64);
        gauge(
            "soft_statements_per_sec",
            "Overall execution rate since campaign start.",
            self.statements_per_sec,
        );
        gauge(
            "soft_elapsed_seconds",
            "Seconds since the campaign registry was created.",
            self.elapsed_ms as f64 / 1000.0,
        );
        let _ = writeln!(
            out,
            "# HELP soft_shard_last_index Last global statement index per shard."
        );
        let _ = writeln!(out, "# TYPE soft_shard_last_index gauge");
        for (i, s) in self.shards.iter().enumerate() {
            let _ = writeln!(out, "soft_shard_last_index{{shard=\"{i}\"}} {}", s.last_index);
        }
        let _ = writeln!(
            out,
            "# HELP soft_shard_state Shard lifecycle (0 pending, 1 running, 2 done)."
        );
        let _ = writeln!(out, "# TYPE soft_shard_state gauge");
        for (i, s) in self.shards.iter().enumerate() {
            let state = match s.state {
                ShardState::Pending => 0,
                ShardState::Running => 1,
                ShardState::Done => 2,
            };
            let _ = writeln!(out, "soft_shard_state{{shard=\"{i}\"}} {state}");
        }
        out
    }

    /// Renders the snapshot as one flat JSON object — the `/status` payload.
    /// Flat on purpose: it parses with the same [`crate::json`] reader the
    /// journal uses.
    pub fn render_status_json(&self) -> String {
        use crate::json::{num_field, str_field};
        let mut fields = vec![
            str_field("dialect", &self.dialect),
            num_field("elapsed_ms", self.elapsed_ms as i64),
            num_field("planned", self.planned_statements as i64),
            num_field("statements", self.statements as i64),
        ];
        for (class, n) in self.outcomes {
            fields.push(num_field(class.label(), n as i64));
        }
        fields.push(num_field("unique_faults", self.unique_faults as i64));
        fields.push(num_field("shards_total", self.shards_total as i64));
        fields.push(num_field("shards_done", self.shards_done as i64));
        fields.push(num_field("workers", self.workers as i64));
        fields.push(num_field("statements_per_sec", self.statements_per_sec as i64));
        format!("{{{}}}\n", fields.join(", "))
    }

    /// Renders the live growth curves as JSONL — the `/curve` payload, in
    /// the same record idiom as the campaign journal.
    pub fn render_curve_jsonl(&self) -> String {
        use crate::json::{num_field, str_field};
        let mut out = String::new();
        for b in &self.bug_curve {
            let _ = writeln!(
                out,
                "{{{}, {}, {}, {}}}",
                str_field("type", "bug"),
                num_field("statements", b.statements as i64),
                num_field("unique", b.unique as i64),
                str_field("fault", &b.fault_id)
            );
        }
        for c in &self.coverage_curve {
            let _ = writeln!(
                out,
                "{{{}, {}, {}, {}}}",
                str_field("type", "coverage"),
                num_field("statements", c.statements as i64),
                num_field("functions", c.functions as i64),
                num_field("branches", c.branches as i64)
            );
        }
        out
    }

    /// Renders the one-line `--progress` ticker.
    pub fn render_progress_line(&self) -> String {
        let pct = if self.planned_statements == 0 {
            0.0
        } else {
            100.0 * self.statements as f64 / self.planned_statements as f64
        };
        format!(
            "{} {}/{} statements ({pct:.0}%), {} bugs, {} errors, {} rlimit, \
             shards {}/{}, {:.0} st/s",
            if self.dialect.is_empty() { "campaign" } else { &self.dialect },
            self.statements,
            self.planned_statements,
            self.unique_faults,
            self.outcomes[OutcomeClass::Error as usize].1,
            self.outcomes[OutcomeClass::ResourceLimit as usize].1,
            self.shards_done,
            self.shards_total,
            self.statements_per_sec,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with_activity() -> LiveMetrics {
        let m = LiveMetrics::new();
        m.begin_campaign("MonetDB", 2, 3);
        m.plan_shards(100, 2);
        let beats = m.beats();
        m.shard_started(&beats[0], 0);
        m.record_statement(&beats[0], 1, None, OutcomeClass::Ok);
        m.record_statement(&beats[0], 2, Some(PatternId::P1_2), OutcomeClass::Crash);
        m.record_statement(&beats[0], 3, Some(PatternId::P3_3), OutcomeClass::Error);
        assert!(m.record_unique_candidate("f-1"));
        assert!(!m.record_unique_candidate("f-1"));
        let mut cov = Coverage::new();
        cov.record_function("substr");
        cov.record_branch("substr", "site");
        m.shard_finished(&beats[0], 0, &cov);
        m
    }

    #[test]
    fn event_log_streams_flat_json_and_terminates() {
        let m = registry_with_activity();
        let (lines, done) = m.events_since(0);
        assert!(!done, "log must stay open until finish_campaign");
        let types: Vec<String> = lines
            .iter()
            .map(|l| {
                let obj = crate::json::parse_object(l).expect("flat json event");
                obj["type"].as_str().expect("type").to_string()
            })
            .collect();
        assert_eq!(types, vec!["shard", "finding", "shard"]);
        let finding = crate::json::parse_object(&lines[1]).expect("finding");
        assert_eq!(finding["fault"].as_str(), Some("f-1"));
        assert_eq!(finding["unique"].as_num(), Some(1));

        m.record_epoch(1, 65, 1000);
        m.record_stall(0, 3, 6000);
        m.finish_campaign();
        let (rest, done) = m.events_since(lines.len());
        assert!(done, "finish_campaign closes the log");
        let rest_types: Vec<&str> = rest
            .iter()
            .map(|l| match l {
                l if l.contains("\"epoch\"") => "epoch",
                l if l.contains("\"stall\"") => "stall",
                _ => "done",
            })
            .collect();
        assert_eq!(rest_types, vec!["epoch", "stall", "done"]);
        let done_line = crate::json::parse_object(&rest[2]).expect("done event");
        assert_eq!(done_line["type"].as_str(), Some("done"));
        assert_eq!(done_line["statements"].as_num(), Some(3));
        assert_eq!(done_line["unique"].as_num(), Some(1));
        // Reads past the end are empty, not a panic.
        assert!(m.events_since(999).0.is_empty());
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = registry_with_activity();
        let s = m.snapshot();
        assert_eq!(s.dialect, "MonetDB");
        assert_eq!(s.statements, 3);
        assert_eq!(s.planned_statements, 100);
        assert_eq!(s.outcomes[OutcomeClass::Ok as usize].1, 1);
        assert_eq!(s.outcomes[OutcomeClass::Crash as usize].1, 1);
        assert_eq!(s.outcomes[OutcomeClass::Error as usize].1, 1);
        assert_eq!(s.unique_faults, 1);
        assert_eq!(s.shards_done, 1);
        assert_eq!(s.shards_total, 2);
        assert_eq!(s.workers, 3);
        let seed = &s.per_pattern[0];
        assert_eq!((seed.label, seed.executed), ("seed", 1));
        let p12 = s.per_pattern.iter().find(|p| p.label == "P1.2").expect("slot");
        assert_eq!((p12.executed, p12.crashes), (1, 1));
        assert_eq!(s.shards[0].state, ShardState::Done);
        assert_eq!(s.shards[0].last_index, 3);
        assert_eq!(s.shards[0].statements, 3);
        assert_eq!(s.shards[1].state, ShardState::Pending);
        assert_eq!(s.bug_curve.len(), 1);
        assert_eq!(s.coverage_curve.len(), 1);
        assert_eq!(s.coverage_curve[0].functions, 1);
    }

    #[test]
    fn prometheus_rendering_has_the_documented_names() {
        let s = registry_with_activity().snapshot();
        let text = s.render_prometheus();
        for name in [
            "soft_statements_total 3",
            "soft_unique_faults_total 1",
            "soft_outcomes_total{class=\"crash\"} 1",
            "soft_pattern_statements_total{pattern=\"P1.2\"} 1",
            "soft_pattern_crashes_total{pattern=\"P1.2\"} 1",
            "soft_statements_planned 100",
            "soft_shards_total 2",
            "soft_shards_done 1",
            "soft_workers 3",
            "soft_shard_last_index{shard=\"0\"} 3",
            "soft_shard_state{shard=\"0\"} 2",
            "soft_shard_state{shard=\"1\"} 0",
        ] {
            assert!(text.contains(name), "missing {name:?} in:\n{text}");
        }
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "bad line {line:?}");
        }
    }

    #[test]
    fn status_json_is_flat_parseable() {
        let s = registry_with_activity().snapshot();
        let obj = crate::json::parse_object(s.render_status_json().trim()).expect("flat json");
        assert_eq!(obj["dialect"].as_str(), Some("MonetDB"));
        assert_eq!(obj["statements"].as_num(), Some(3));
        assert_eq!(obj["unique_faults"].as_num(), Some(1));
        assert_eq!(obj["crash"].as_num(), Some(1));
    }

    #[test]
    fn curve_jsonl_parses_line_by_line() {
        let s = registry_with_activity().snapshot();
        let text = s.render_curve_jsonl();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let bug = crate::json::parse_object(lines[0]).expect("bug line");
        assert_eq!(bug["type"].as_str(), Some("bug"));
        assert_eq!(bug["fault"].as_str(), Some("f-1"));
        let cov = crate::json::parse_object(lines[1]).expect("coverage line");
        assert_eq!(cov["type"].as_str(), Some("coverage"));
        assert_eq!(cov["functions"].as_num(), Some(1));
    }

    #[test]
    fn progress_line_mentions_the_essentials() {
        let s = registry_with_activity().snapshot();
        let line = s.render_progress_line();
        assert!(line.contains("MonetDB"), "{line}");
        assert!(line.contains("3/100 statements"), "{line}");
        assert!(line.contains("1 bugs"), "{line}");
        assert!(line.contains("shards 1/2"), "{line}");
    }
}

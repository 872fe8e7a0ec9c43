//! The traced run: an outside-in replay of each static-planner campaign.
//!
//! The replay calls the layers' public functions in the order a campaign
//! does — profile build, collection, pattern generation, planning, the
//! serial prepare pass, shard execution with batching and crash restores,
//! the oracles, and minimisation of every finding — serially, with a span
//! around every call. Spans are recorded with [`SpanSink`], one track per
//! shard, exported per campaign as Chrome trace-event JSON under
//! `perfbench/traces/` and checked with [`validate_json`].
//!
//! The planner and the shard loop below mirror the campaign's private ones.
//! Replay fidelity guards the mirror: the replay's statement, crash, error
//! and resource-limit counts and its ordered crash-fault ids must equal the
//! untraced report's.
//!
//! Two probes keep every layer measured on every workload. Every
//! [`PROBE_STRIDE`]-th planned statement is also run through the string
//! path on a fresh template clone, which is the oracle's form B. On
//! workloads without `--oracles`, the same statements get a multi-form
//! check and each campaign one pivot and one differential check, so the
//! oracle figures there are what turning oracles on would cost.

use crate::workload::Workload;
use soft_core::{collect, minimize, oracle, patterns, CampaignReport, GenCtx, GeneratedCase};
use soft_dialects::{DialectId, DialectProfile};
use soft_engine::{
    BatchArena, Engine, ExecOutcome, PatternId, Prepared, ShapeKey, SqlError, MIN_BATCH_GROUP,
};
use soft_obs::span::{validate_json, SpanRecord, SpanSink, SpanTrace, CAMPAIGN_TRACK};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One planned statement in this many also takes the string-path probe.
pub const PROBE_STRIDE: usize = 32;

/// What replay fidelity compares.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Fidelity {
    /// Statements executed.
    pub statements: usize,
    /// Crash outcomes, repeats included.
    pub crashes: usize,
    /// Ordinary SQL errors.
    pub errors: usize,
    /// Resource-limit outcomes.
    pub resource_limits: usize,
    /// Unique crash-fault ids in discovery order.
    pub crash_ids: Vec<String>,
}

impl Fidelity {
    /// The same figures, read from an untraced report.
    pub fn of(report: &CampaignReport) -> Fidelity {
        Fidelity {
            statements: report.statements_executed,
            crashes: report.shards.iter().map(|s| s.crashes).sum(),
            errors: report.errors,
            resource_limits: report.false_positives,
            crash_ids: report
                .findings
                .iter()
                .filter(|f| f.kind.crash().is_some())
                .map(|f| f.fault_id.clone())
                .collect(),
        }
    }
}

/// Work counts the replay observes, summed over campaigns.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Cases the patterns generated.
    pub cases: usize,
    /// Statements the planner kept.
    pub planned: usize,
    /// Statements executed, batched or not.
    pub executed: usize,
    /// Statements executed inside a batch.
    pub batched: usize,
    /// Crash outcomes, repeats included.
    pub crashes: usize,
    /// Statements the multi-form oracle flagged.
    pub logic_hits: usize,
}

/// Span recording across campaigns: the current track's sink, the finished
/// buffers of the current campaign, and per-name totals of every campaign
/// finished so far.
pub struct Tracer {
    origin: Instant,
    sink: SpanSink,
    buffers: Vec<Vec<SpanRecord>>,
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        let origin = Instant::now();
        Tracer {
            origin,
            sink: SpanSink::new(origin, CAMPAIGN_TRACK),
            buffers: Vec::new(),
            totals: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn on_track(&mut self, track: u64) {
        let done = std::mem::replace(&mut self.sink, SpanSink::new(self.origin, track));
        self.buffers.push(done.into_spans());
    }

    fn now(&self) -> u64 {
        self.sink.now_ns()
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.sink.now_ns();
        let out = f();
        self.sink.record_since(name, start, None);
        out
    }

    /// Ends the current campaign: exports its spans as Chrome trace-event
    /// JSON, validates the export, writes it to `path`, and adds the spans
    /// to the totals.
    fn finish_campaign(&mut self, title: &str, path: &Path) -> Result<(), String> {
        self.on_track(CAMPAIGN_TRACK);
        let trace = SpanTrace::merge(std::mem::take(&mut self.buffers));
        let json = trace.to_chrome_json(title);
        validate_json(&json).map_err(|e| format!("{title}: invalid span export: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        for s in &trace.spans {
            let t = self.totals.entry(s.name).or_default();
            t.0 += 1;
            t.1 += s.dur_ns;
        }
        self.origin = Instant::now();
        self.sink = SpanSink::new(self.origin, CAMPAIGN_TRACK);
        Ok(())
    }

    /// Spans named `name` in finished campaigns.
    pub fn count(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.0)
    }

    /// Total duration of the spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.1)
    }

    /// Mean duration of the spans named `name`, in nanoseconds (0 without
    /// spans).
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total_ns(name) as f64 / n as f64,
        }
    }
}

/// One unique finding of the replay, kept for minimisation.
struct Finding {
    fault_id: String,
    poc: String,
    logic: bool,
}

/// Replays the static-planner campaign of `w` on `dialect`, writing its
/// trace under `dir`. `w` must not schedule.
pub fn replay(
    w: &Workload,
    dialect: DialectId,
    t: &mut Tracer,
    c: &mut Counters,
    dir: &Path,
) -> Result<Fidelity, String> {
    assert!(!w.schedule, "the replay mirrors the static planner only");
    let cfg = w.config();
    let campaign_start = t.now();
    let profile = t.span("dialects.build", || DialectProfile::build(dialect));
    let collection = t.span("collect", || collect::collect(&profile));
    let ctx = t.span("patterns.ctx", || GenCtx::new(&collection));
    let per_pattern: Vec<Vec<(GeneratedCase, usize)>> = PatternId::ALL
        .iter()
        .map(|&pattern| {
            // The campaign's wider caps for the cross-function patterns.
            let cap = match pattern {
                PatternId::P3_3 => cfg.per_seed_cap.max(640),
                PatternId::P2_3 => cfg.per_seed_cap.max(128),
                _ => cfg.per_seed_cap,
            };
            let mut tagged = Vec::new();
            let mut buf = Vec::new();
            for (si, seed) in collection.seeds.iter().enumerate() {
                t.span("patterns.apply", || {
                    patterns::apply_salted(pattern, seed, &ctx, cap, si, &mut buf)
                });
                tagged.extend(buf.drain(..).map(|case| (case, si)));
            }
            tagged
        })
        .collect();
    c.cases += per_pattern.iter().map(Vec::len).sum::<usize>();
    let seeds: Vec<String> = collection.seeds.iter().map(|s| s.to_string()).collect();
    let plan = t.span("plan", || plan(&seeds, &per_pattern, cfg.max_statements));
    c.planned += plan.len();
    let template = t.span("template", || {
        let mut engine = profile.engine();
        for stmt in &collection.preparation {
            let _ = engine.execute(&stmt.to_string());
        }
        engine
    });

    // The serial prepare pass. The separate parse measures the parser on
    // its own; the campaign parses once, inside `Engine::prepare`.
    let mut prepared: Vec<Result<Prepared, SqlError>> = Vec::with_capacity(plan.len());
    let mut shapes: Vec<Option<ShapeKey>> = Vec::with_capacity(plan.len());
    for sql in &plan {
        let _ = black_box(t.span("parser.parse", || soft_parser::parse_statement(sql)));
        let p = t.span("engine.prepare", || template.prepare(sql));
        shapes.push(t.span("engine.shape_key", || {
            p.as_ref().ok().and_then(|p| template.shape_key(p))
        }));
        prepared.push(p);
    }

    let mut fidelity = Fidelity {
        statements: plan.len(),
        ..Fidelity::default()
    };
    let mut found: HashSet<String> = HashSet::new();
    let mut findings: Vec<Finding> = Vec::new();
    let shard_size = cfg.shard_statements.max(1);
    let interval = w.snapshot_interval();
    for (shard, start) in (0..plan.len()).step_by(shard_size).enumerate() {
        let len = shard_size.min(plan.len() - start);
        t.on_track(shard as u64 + 1);
        let shard_start = t.now();
        let mut engine = t.span("engine.clone", || template.clone());
        let mut arena = BatchArena::new();
        let mut pre: Vec<Option<ExecOutcome>> = std::iter::repeat_with(|| None).take(len).collect();
        let mut window_end = 0usize;
        let mut shard_found: HashSet<String> = HashSet::new();
        let mut shard_findings: Vec<Finding> = Vec::new();
        for i in 0..len {
            let g = start + i;
            if i >= window_end {
                // Batch windows end at telemetry snapshot indices, as in
                // the campaign.
                window_end = ((g / interval + 1) * interval - start).min(len);
                let window = start + i..start + window_end;
                let pre = &mut pre[i..];
                c.batched +=
                    batch_window(t, &mut engine, &mut arena, &prepared, &shapes, window, pre);
            }
            let batched = pre[i].take();
            let from_batch = batched.is_some();
            let outcome = match batched {
                Some(outcome) => outcome,
                None => t.span("engine.execute", || match &prepared[g] {
                    Ok(p) => engine.execute_prepared(p),
                    Err(e) => ExecOutcome::Error(e.clone()),
                }),
            };
            c.executed += 1;
            if g % PROBE_STRIDE == 0 {
                probe(t, &template, &plan[g], &prepared[g], !w.oracles);
            }
            let logic = match (&outcome, &prepared[g]) {
                (ExecOutcome::Crash(_), _) | (_, Err(_)) => None,
                (_, Ok(_)) if !w.oracles => None,
                (_, Ok(p)) => t
                    .span("oracle.multi_form", || {
                        if from_batch {
                            oracle::multi_form_check_with(
                                &template,
                                &plan[g],
                                p.statement(),
                                &outcome,
                            )
                        } else {
                            oracle::multi_form_check(&template, &plan[g], p.statement())
                        }
                    })
                    .map(|_| oracle::multi_form_fault_id(p.statement()).0),
            };
            if let Some(fault_id) = logic {
                c.logic_hits += 1;
                if shard_found.insert(fault_id.clone()) {
                    shard_findings.push(Finding {
                        fault_id,
                        poc: plan[g].clone(),
                        logic: true,
                    });
                }
                continue;
            }
            match outcome {
                ExecOutcome::Crash(crash) => {
                    fidelity.crashes += 1;
                    if shard_found.insert(crash.fault_id.clone()) {
                        shard_findings.push(Finding {
                            fault_id: crash.fault_id,
                            poc: plan[g].clone(),
                            logic: false,
                        });
                    }
                    t.span("engine.restore", || engine.restore_database(&template));
                }
                ExecOutcome::Error(SqlError::ResourceLimit(_)) => fidelity.resource_limits += 1,
                ExecOutcome::Error(_) => fidelity.errors += 1,
                ExecOutcome::Rows(_) | ExecOutcome::Ok(_) => {}
            }
        }
        t.sink
            .record_since("shard", shard_start, Some(format!("{len} statements")));
        for f in shard_findings {
            if found.insert(f.fault_id.clone()) {
                findings.push(f);
            }
        }
    }
    c.crashes += fidelity.crashes;

    t.on_track(CAMPAIGN_TRACK);
    black_box(t.span("oracle.pivot", || oracle::pivot_check(&template)));
    black_box(t.span("oracle.differential", || {
        oracle::differential_check(&profile)
    }));
    // Telemetry-on campaigns minimise every crash and multi-form finding.
    for f in &findings {
        black_box(t.span("minimize.finding", || {
            if f.logic {
                minimize::minimize_logic(&f.poc, || template.clone())
            } else {
                minimize::minimize(&f.poc, || template.clone())
            }
        }));
    }
    t.sink.record_since(
        "campaign",
        campaign_start,
        Some(format!("{} statements", plan.len())),
    );
    fidelity.crash_ids = findings
        .into_iter()
        .filter(|f| !f.logic)
        .map(|f| f.fault_id)
        .collect();

    let path = dir.join(format!("{}_{}.json", w.name, dialect.key()));
    t.finish_campaign(&format!("perfbench {} {}", w.name, dialect.name()), &path)?;
    Ok(fidelity)
}

/// The static planner: the seeds, then a round-robin over the patterns'
/// cases, deduplicated and cut at the budget.
fn plan(
    seeds: &[String],
    per_pattern: &[Vec<(GeneratedCase, usize)>],
    budget: usize,
) -> Vec<String> {
    let mut plan: Vec<String> = Vec::new();
    let mut seen: HashSet<&str> = HashSet::new();
    for sql in seeds {
        if plan.len() >= budget {
            break;
        }
        if seen.insert(sql) {
            plan.push(sql.clone());
        }
    }
    let mut cursors = vec![0usize; per_pattern.len()];
    'outer: loop {
        let mut progressed = false;
        for (cases, cursor) in per_pattern.iter().zip(&mut cursors) {
            if plan.len() >= budget {
                break 'outer;
            }
            while let Some((case, _)) = cases.get(*cursor) {
                *cursor += 1;
                if seen.insert(&case.sql) {
                    plan.push(case.sql.clone());
                    progressed = true;
                    break;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    plan
}

/// Batch-executes the same-shape groups of `window` that are large enough,
/// storing each member's outcome at its offset from the window start in
/// `pre`. Returns how many statements ran in a batch.
fn batch_window(
    t: &mut Tracer,
    engine: &mut Engine,
    arena: &mut BatchArena,
    prepared: &[Result<Prepared, SqlError>],
    shapes: &[Option<ShapeKey>],
    window: std::ops::Range<usize>,
    pre: &mut [Option<ExecOutcome>],
) -> usize {
    let base = window.start;
    let mut batched = 0;
    let mut order: Vec<ShapeKey> = Vec::new();
    let mut groups: HashMap<ShapeKey, Vec<usize>> = HashMap::new();
    for i in window {
        let (Some(key), Ok(_)) = (shapes[i], &prepared[i]) else {
            continue;
        };
        let members = groups.entry(key).or_default();
        if members.is_empty() {
            order.push(key);
        }
        members.push(i);
    }
    for key in order {
        let idxs = &groups[&key];
        if idxs.len() < MIN_BATCH_GROUP {
            continue;
        }
        let members: Vec<&Prepared> = idxs
            .iter()
            .filter_map(|&i| prepared[i].as_ref().ok())
            .collect();
        let Some(outcomes) = t.span("engine.batch", || engine.execute_batch_in(&members, arena))
        else {
            continue;
        };
        batched += idxs.len();
        for (&i, outcome) in idxs.iter().zip(outcomes) {
            pre[i - base] = Some(outcome);
        }
    }
    batched
}

/// The string-path probe: a fresh template clone executes the statement's
/// text, as the oracle's form B does; with `oracle` set, the statement also
/// gets a multi-form check.
fn probe(
    t: &mut Tracer,
    template: &Engine,
    sql: &str,
    prepared: &Result<Prepared, SqlError>,
    oracle: bool,
) {
    let mut engine = t.span("engine.clone", || template.clone());
    black_box(t.span("engine.string_exec", || engine.execute(sql)));
    if let (true, Ok(p)) = (oracle, prepared) {
        black_box(t.span("oracle.multi_form", || {
            oracle::multi_form_check(template, sql, p.statement())
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{campaign, Tally};
    use crate::workload::{WORKERS, WORKLOADS};

    /// The replay of every reduced static workload reproduces the untraced
    /// campaign.
    #[test]
    fn replay_matches_the_untraced_campaigns() {
        let dir = crate::traces_dir().join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut t = Tracer::default();
        let mut c = Counters::default();
        for w in WORKLOADS.map(|w| w.reduced().static_planner()) {
            for &d in w.dialects {
                let profile = DialectProfile::build(d);
                let mut tally = Tally::default();
                let untraced = tally
                    .count(campaign(&w, &profile, &w.config(), WORKERS))
                    .expect("untraced campaign passes");
                let replayed = replay(&w, d, &mut t, &mut c, &dir).expect("replay runs");
                assert_eq!(
                    replayed,
                    Fidelity::of(&untraced.run.report),
                    "{} {}",
                    w.name,
                    d.name()
                );
            }
        }
        assert!(t.count("engine.string_exec") > 0 && t.count("oracle.pivot") > 0);
        assert!(c.batched > 0 && c.batched < c.executed);
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
    }
}

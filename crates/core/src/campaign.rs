//! The SOFT campaign runner (§7.1 step 3, "SQL Function Bug Detection").
//!
//! The runner replays a target's preparation statements, executes the
//! collected seeds, then streams pattern-generated statements into the
//! engine under a statement budget — the reproduction's deterministic
//! substitute for the paper's wall-clock budgets. Crashes are deduplicated
//! by fault id; after each crash the database is "restarted" by snapshot
//! restore ([`soft_engine::Engine::restore_database`]) from the prepared
//! template engine — state-identical to the reset-and-replay-preparation
//! loop the paper's harness performs on its DBMS containers, without
//! re-executing the preparation statements.
//!
//! # Prepared execution
//!
//! Every planned statement is parsed **exactly once**, by the shard that
//! executes it: before running its range, a shard compiles each statement
//! against the shared template ([`soft_engine::Engine::prepare`]) and
//! then executes the owned ASTs via
//! [`soft_engine::Engine::execute_prepared`]. Preparation is a pure
//! function of (template, SQL), so the prepared stream is the same whichever
//! worker prepares it, and it costs no serial pass before the shards
//! start. The rendered SQL string is kept only for findings/PoCs and the
//! event journal. Preparation also resolves every function name to its
//! registry entry, so per-call dispatch inside the executor does zero heap
//! allocation.
//!
//! Execution has one path: the shard executes each prepared statement once,
//! in plan order, with [`soft_engine::Engine::execute_prepared`], and
//! classifies the outcome before it runs the next one. With the oracles
//! armed, the outcome of a shape-keyed statement
//! ([`soft_engine::Engine::shape_key`]: no rows read, no volatile calls)
//! doubles as the multi-form oracle's reference form, because such a
//! statement reads neither tables nor session state.
//!
//! # Parallel execution
//!
//! The paper drives seven DBMSs concurrently on a 128-core testbed (§7.1);
//! this runner exploits the same hardware through **seed sharding**. The
//! campaign first *plans* the exact statement stream a serial run would
//! execute (seeds, then the round-robin of pattern-generated cases, globally
//! deduplicated and truncated at the budget), then partitions that stream
//! into fixed-size shards. Every shard executes against a private [`Engine`]
//! cloned from a prepared template, and a deterministic merge combines the
//! shard results: findings are deduplicated by fault id in global statement
//! order, counters are summed, and coverage sets are unioned.
//!
//! Because the shard decomposition depends only on the configuration — never
//! on the worker count — [`run_soft_parallel`] produces a byte-identical
//! [`CampaignReport`] for any number of workers; one worker (the serial
//! reference) is simply the same plan executed inline. Parallelism changes
//! wall-clock time, nothing else.
//!
//! # One planner, two drivers
//!
//! The static driver and the feedback scheduler
//! ([`CampaignConfig::schedule`]) share one seed phase, one case generator,
//! one round-robin interleave (`plan_round_robin`) and one cut → execute
//! step, whose shards prepare what they run. The static driver plans once:
//! one queue per active pattern, unbounded quotas, the budget as target.
//! The scheduler plans per epoch: one queue per (pattern × seed-category)
//! arm, the bandit's quotas. The drivers stay separate because only the
//! scheduler records epoch reallocations and scores arms from the shards'
//! journal events, and only the static driver knows its exact shard count
//! up front.
//!
//! # Generation on demand
//!
//! SOFT applies its patterns to the collected seeds (§7.1 step 2), but a
//! budgeted campaign runs only a prefix of what the patterns can produce.
//! The generator therefore works in (pattern, 16-seed chunk) items and
//! generates a pattern's next chunks only when the interleave reads past
//! the cases that exist: the first read generates chunk 0 of every active
//! pattern in one wave, and a pattern that runs dry gets its next
//! `workers` chunks in one wave. A queue is its chunks concatenated in
//! seed order, so every prefix the interleave reads equals the prefix of
//! the fully generated queue, and the planned stream is the same at any
//! worker count. The scheduler's bandit caps each quota by an arm's
//! remaining cases, so it generates every chunk in one wave before its
//! first epoch. Either way the report's per-pattern count
//! ([`CampaignReport::generated_per_pattern`]) is what the planner drew
//! from each pattern's queues, planned or skipped as a duplicate — never
//! what was generated ahead of it, which follows the wave size and with
//! it the worker count.
//!
//! # The live plane
//!
//! [`run_soft_parallel_live`] additionally feeds a [`LivePlane`]: a
//! lock-free [`LiveMetrics`] registry that workers update wait-free per
//! statement (scraped by `soft_obs::http::MetricsServer` and the
//! `--progress` ticker) and an optional shard watchdog thread that polls
//! per-shard heartbeats for stalls. Both are strictly *observers* — the
//! campaign never reads them back, so the byte-identical guarantee is
//! untouched; their outputs land on [`CampaignRun`], next to the other
//! wall-clock surfaces, never inside [`CampaignReport`] equality.
//!
//! The flight recorder ([`LivePlane::spans`]) is the third observer on the
//! same plane: each shard records hierarchical wall-clock spans (shard,
//! parse, and an execute and oracle span per statement) into a buffer it
//! owns exclusively, the campaign thread records the planning stages
//! (generate, epoch, oracle, minimize, campaign), and the join merges
//! everything into a [`SpanTrace`] on [`CampaignRun::spans`] — exportable
//! as Chrome trace-event JSON for Perfetto. Spans are the campaign's only
//! wall-clock stage timer: the stage-latency table
//! ([`soft_obs::StageLatency::from_spans`]) is a view of them. Spans are
//! wall-clock and therefore live outside report equality, like every other
//! surface here.
//!
//! # One recorder per track
//!
//! Each shard, and the campaign thread, records through one `Recorder`.
//! It classifies each executed statement once, and that one class feeds
//! the shard's [`ShardStats`] counters, the journal event and its coverage
//! snapshot, the live registry and the finding dedup. The recorder also
//! owns the track's span sink.

use crate::collect::{self, Collection};
use crate::oracle::{self, LogicBug, OracleConfig, OracleKind};
use crate::patterns::{self, GenCtx, GeneratedCase};
use crate::report::{BugFinding, CampaignReport, FindingKind, ShardStats};
use crate::schedule::{ArmId, ArmReward, Bandit, ScheduleConfig, ScheduleOptions};
use soft_dialects::DialectProfile;
use soft_engine::{
    Coverage, CrashReport, Engine, ExecOutcome, FaultSpec, PatternId, Prepared, SqlError, Stage,
};
use soft_obs::live::ShardBeat;
use soft_obs::span::CAMPAIGN_TRACK;
use soft_obs::{
    ArmAlloc, EpochRealloc, LiveMetrics, OutcomeClass, ShardTelemetry, SpanRecord, SpanSink,
    SpanTrace, StatementEvent, TelemetryConfig, WatchdogConfig, WatchdogReport,
};
use soft_parser::ast::Statement;
use soft_types::category::FunctionCategory;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Statement budget (the 24-hour analogue).
    pub max_statements: usize,
    /// Cases generated per (pattern, seed) pair.
    pub per_seed_cap: usize,
    /// Restrict generation to these patterns (None = all ten) — the
    /// ablation knob.
    pub patterns: Option<Vec<PatternId>>,
    /// Per-shard statement budget: the planned statement stream is cut into
    /// contiguous shards of this many statements, each executed on a private
    /// engine. The shard size *is* part of the campaign's semantics (shard
    /// boundaries reset session state), so two runs compare equal only under
    /// the same `shard_statements`; the worker count is not.
    pub shard_statements: usize,
    /// Observability knob (default [`TelemetryConfig::Off`], which costs one
    /// branch per statement). When on, the run records the statement-level
    /// event journal, yield metrics and coverage-growth curves (all
    /// deterministic, inside [`CampaignReport::telemetry`]). Wall-clock
    /// stage latencies come from the flight recorder
    /// ([`LivePlane::spans`]) instead. The snapshot interval is part of the
    /// campaign semantics; the journal path is not (it only adds a sink).
    pub telemetry: TelemetryConfig,
    /// Wrong-result detection knob (default [`OracleConfig::Off`]). When on,
    /// the multi-form oracle compares every planned statement that has
    /// literals to unfold with its literal-unfolded form, and the pivot /
    /// differential oracles run once after the planned stream as a
    /// synthetic trailing shard. All oracle checks are pure functions of
    /// the prepared template and the statement, so the
    /// worker-count-invariance guarantee holds with oracles on.
    pub oracles: OracleConfig,
    /// Has no effect: every shard executes its statements one by one with
    /// [`soft_engine::Engine::execute_prepared`], and the campaign never
    /// reads this field. It stays (default `true`) only because the
    /// campaign benchmark's workload configuration (`perfbench/`) still
    /// sets it.
    pub batch: bool,
    /// Budget scheduling knob (default [`ScheduleConfig::Off`], the static
    /// round-robin planner). When on, the statement budget is split into
    /// epochs and a UCB bandit reallocates each epoch's share across
    /// (pattern × seed-category) arms from the merged telemetry of prior
    /// epochs — plan-then-execute, so the stream stays a pure function of
    /// the configuration and reports remain byte-identical at any worker
    /// count. The epoch decisions land in
    /// [`soft_obs::CampaignTelemetry::epochs`] when telemetry is on.
    pub schedule: ScheduleConfig,
    /// A persistent seed repository to consume (default `None`). When set,
    /// same-dialect PoCs join the phase-1 seed corpus (regression
    /// tripwires) and every entry's boundary literals — cross-dialect —
    /// extend the P1.1 generation pool. An unreadable repository is
    /// reported on stderr and skipped; the campaign still runs.
    pub repository: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            max_statements: 200_000,
            per_seed_cap: 64,
            patterns: None,
            shard_statements: 256,
            telemetry: TelemetryConfig::Off,
            oracles: OracleConfig::Off,
            batch: true,
            schedule: ScheduleConfig::Off,
            repository: None,
        }
    }
}

/// The machine's available parallelism (1 when it cannot be queried).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The pattern application order; interleaved round-robin at execution.
/// Must list all ten patterns — the default campaign claims to apply every
/// pattern, and `PatternId::ALL`-based regression tests hold it to that.
const PATTERN_ORDER: [PatternId; 10] = [
    PatternId::P1_1,
    PatternId::P1_2,
    PatternId::P1_3,
    PatternId::P1_4,
    PatternId::P2_1,
    PatternId::P2_2,
    PatternId::P2_3,
    PatternId::P3_1,
    PatternId::P3_2,
    PatternId::P3_3,
];

/// One statement of the planned campaign stream.
#[derive(Debug, Clone)]
struct PlannedCase {
    sql: String,
    /// `None` for phase-1 seed statements.
    pattern: Option<PatternId>,
    /// Index of the seed the statement derives from (telemetry provenance).
    seed: usize,
}

/// One pattern's (or one scheduler arm's) generated cases in generation
/// order, each tagged with the index of the seed it derives from.
type Queue = Vec<(GeneratedCase, usize)>;

/// The planned campaign: the exact statement stream plus the provenance
/// tables telemetry needs. Building it involves no engine; each shard
/// prepares its own range of the stream against the template when it runs.
struct Plan {
    cases: Vec<PlannedCase>,
    /// Cases the planner drew from each active pattern's queues, planned
    /// or skipped as duplicates; set when planning is over.
    generated_per_pattern: Vec<(PatternId, usize)>,
    /// Root function of each seed statement (the first collected function
    /// expression), indexed by seed id — the journal's "target function"
    /// for non-crashing statements and the scheduler's arm attribution.
    /// Interned once so the per-event journal clones an `Arc`, not a
    /// `String`.
    seed_functions: Vec<Option<Arc<str>>>,
    /// The executed frontier: every case before it has been cut into a
    /// shard and run.
    executed: usize,
    /// Shards cut so far — also the next shard's global index.
    shards: usize,
}

impl Plan {
    /// Where the case at plan position `i` surfaced a finding.
    fn found_at(&self, i: usize) -> Found {
        let case = &self.cases[i];
        Found {
            poc: case.sql.clone(),
            pattern: case.pattern,
            seed_function: self.seed_functions.get(case.seed).cloned().flatten(),
            index: i + 1,
        }
    }
}

/// Fault-id → (interned id, corpus spec), built once per campaign so the
/// per-crash ground-truth lookup is O(1) instead of a linear scan over the
/// fault corpus, and so crash telemetry reuses one interned id per fault
/// instead of cloning the `String` per event.
type FaultIndex<'p> = HashMap<&'p str, (Arc<str>, &'p FaultSpec)>;

fn build_fault_index(profile: &DialectProfile) -> FaultIndex<'_> {
    profile
        .faults
        .iter()
        .map(|f| (f.spec.id.as_str(), (Arc::from(f.spec.id.as_str()), &f.spec)))
        .collect()
}

/// Where a finding surfaced: the provenance both finding constructors
/// stamp onto a [`BugFinding`].
struct Found {
    /// The triggering statement.
    poc: String,
    /// The pattern credited with generating it (`None` = P1.2, the
    /// attribution of seed replays and campaign-level oracle probes).
    pattern: Option<PatternId>,
    /// Root function of the seed it derives from.
    seed_function: Option<Arc<str>>,
    /// Its 1-based global statement index.
    index: usize,
}

/// The one crash-finding constructor. Category, credited pattern and fix
/// status are the fault corpus's ground truth (`System`, P1.2 and unfixed
/// for a fault outside the corpus).
fn crash_finding(
    profile: &DialectProfile,
    fault_index: &FaultIndex<'_>,
    crash: &CrashReport,
    at: Found,
) -> BugFinding {
    let spec = fault_index.get(crash.fault_id.as_str()).map(|&(_, s)| s);
    BugFinding {
        fault_id: crash.fault_id.clone(),
        dialect: profile.id,
        kind: FindingKind::Crash(crash.kind),
        stage: crash.stage,
        category: spec.map_or(FunctionCategory::System, |s| s.category),
        credited_pattern: spec.map_or(PatternId::P1_2, |s| s.pattern),
        found_by_pattern: at.pattern.unwrap_or(PatternId::P1_2),
        function: crash.function.clone(),
        seed_function: at.seed_function,
        poc: at.poc,
        statements_until_found: at.index,
        fixed: spec.is_some_and(|s| s.fixed),
    }
}

/// The one wrong-result-finding constructor: the flagged function's
/// category (`System` when it has none), and the generating pattern both
/// credited and recorded as the finder.
fn logic_finding(
    profile: &DialectProfile,
    fault_id: String,
    bug: LogicBug,
    function: Option<String>,
    at: Found,
) -> BugFinding {
    let pattern = at.pattern.unwrap_or(PatternId::P1_2);
    BugFinding {
        fault_id,
        dialect: profile.id,
        kind: FindingKind::Logic(bug),
        stage: Stage::Execution,
        category: function
            .as_deref()
            .and_then(|f| profile.registry.resolve(f).map(|d| d.category))
            .unwrap_or(FunctionCategory::System),
        credited_pattern: pattern,
        found_by_pattern: pattern,
        function,
        seed_function: at.seed_function,
        poc: at.poc,
        statements_until_found: at.index,
        fixed: false,
    }
}

/// Per-shard wall-clock observability (not part of the deterministic
/// report — see [`ShardStats`] for the merged, comparable counters).
#[derive(Debug, Clone)]
pub struct ShardTiming {
    /// Shard index (global statement order).
    pub shard: usize,
    /// Statements the shard executed.
    pub statements: usize,
    /// Wall-clock nanoseconds the shard took.
    pub nanos: u128,
}

impl ShardTiming {
    /// The shard's execution rate.
    pub fn statements_per_sec(&self) -> f64 {
        if self.nanos == 0 {
            return 0.0;
        }
        self.statements as f64 / (self.nanos as f64 / 1e9)
    }
}

/// A campaign result with its wall-clock telemetry: the deterministic
/// [`CampaignReport`] plus per-shard timings, which *do* vary run to run and
/// are therefore kept out of the report's `PartialEq` surface.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The deterministic campaign report (identical for any worker count).
    pub report: CampaignReport,
    /// Worker threads actually used.
    pub workers: usize,
    /// End-to-end wall-clock nanoseconds (collection + generation +
    /// execution + merge).
    pub wall_nanos: u128,
    /// Per-shard timings, in shard order.
    pub shard_timings: Vec<ShardTiming>,
    /// What the shard watchdog observed (stalled/slow shards), when
    /// [`LivePlane::watchdog`] was configured. Wall-clock, so it lives on
    /// the run, outside report equality.
    pub watchdog: Option<WatchdogReport>,
    /// The flight-recorder trace (hierarchical wall-clock spans, merged
    /// from the per-shard buffers), when [`LivePlane::spans`] was armed —
    /// the campaign's stage timings; [`soft_obs::StageLatency::from_spans`]
    /// tabulates them. Wall-clock, so it lives on the run, outside report
    /// equality.
    pub spans: Option<SpanTrace>,
}

/// The campaign's live observability hookup: which wall-clock observers to
/// feed while shards execute. The default plane is fully off and costs one
/// `Option` check per statement.
///
/// Everything here is write-only from the campaign's perspective: live
/// counters and heartbeats never influence planning, scheduling, or the
/// merge, so any plane configuration produces the same [`CampaignReport`].
#[derive(Debug, Clone, Default)]
pub struct LivePlane {
    /// The shared live metrics registry to feed (the same `Arc` the HTTP
    /// exposition server / progress ticker reads). `None` = no live
    /// counters.
    pub metrics: Option<Arc<LiveMetrics>>,
    /// Run a shard watchdog thread with this configuration. When set
    /// without `metrics`, a private registry is created so heartbeats still
    /// flow.
    pub watchdog: Option<WatchdogConfig>,
    /// Arm the flight recorder: every shard records wall-clock spans into
    /// a buffer it owns exclusively (no locks, no cross-thread traffic),
    /// merged at the join into [`CampaignRun::spans`]. Armed spans also
    /// time the minimisation of every unique finding, which runs for its
    /// `minimize` spans only.
    pub spans: bool,
}

impl CampaignRun {
    /// Overall throughput in statements per second.
    pub fn statements_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.report.statements_executed as f64 / (self.wall_nanos as f64 / 1e9)
    }
}

/// Everything a shard produces; merged deterministically afterwards.
struct ShardOutcome {
    stats: ShardStats,
    findings: Vec<BugFinding>,
    coverage: Coverage,
    nanos: u128,
    telemetry: Option<ShardTelemetry>,
    spans: Vec<SpanRecord>,
}

/// Runs a campaign with `n_workers` threads. The report is byte-identical
/// for every worker count — parallelism must not change results, only
/// wall-clock; one worker is the serial reference.
pub fn run_soft_parallel(
    profile: &DialectProfile,
    config: &CampaignConfig,
    n_workers: usize,
) -> CampaignReport {
    run_soft_parallel_live(profile, config, n_workers, &LivePlane::default()).report
}

/// [`run_soft_parallel`] returning the whole [`CampaignRun`] — per-shard
/// timings and the flight-recorder trace beside the report — with the live
/// observability plane attached: workers feed `live.metrics` wait-free per
/// statement, and `live.watchdog` (when set) runs a heartbeat-polling
/// thread whose report lands on [`CampaignRun::watchdog`]. The live plane
/// never changes the report.
pub fn run_soft_parallel_live(
    profile: &DialectProfile,
    config: &CampaignConfig,
    n_workers: usize,
    live: &LivePlane,
) -> CampaignRun {
    let t0 = Instant::now();
    let telemetry_opts = config.telemetry.options();
    let schedule = config.schedule.options();
    let mut collection = collect::collect(profile);

    // The persistent repository (when configured): same-dialect PoCs join
    // the phase-1 seed corpus as regression tripwires, and every entry's
    // boundary literals — whatever dialect surfaced them — widen the
    // generation pool. Both extensions happen before planning, so the
    // stream stays a pure function of (profile, config, repository).
    let repo = config.repository.as_ref().and_then(|root| {
        match crate::repo::SeedRepository::load(root) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("soft-core: ignoring repository {}: {e}", root.display());
                None
            }
        }
    });
    if let Some(repo) = &repo {
        repo.extend_seeds(profile.id.name(), &mut collection);
    }
    let mut ctx = GenCtx::new(&collection);
    if let Some(repo) = &repo {
        repo.extend_pool(&mut ctx);
    }
    let prep: Vec<String> = collection.preparation.iter().map(|s| s.to_string()).collect();

    // The shard template: a fresh engine with preparation replayed. Cloning
    // it (or restoring from it after a crash) is exactly the state the
    // serial runner used to re-create by replaying preparation.
    let mut template = profile.engine();
    for sql in &prep {
        let _ = template.execute(sql);
    }

    // Resolve the live registry: the caller's, or a private one when only
    // the watchdog is configured (heartbeats still need somewhere to live).
    let metrics: Option<Arc<LiveMetrics>> = live
        .metrics
        .clone()
        .or_else(|| live.watchdog.map(|_| Arc::new(LiveMetrics::new())));

    let campaign = Campaign {
        profile,
        fault_index: build_fault_index(profile),
        template,
        // The scheduler scores arms from the shards' journal events, so
        // shards record them when either reads them; the merge drops them
        // when telemetry is off.
        journal: telemetry_opts.is_some() || schedule.is_some(),
        snapshot_interval: telemetry_opts.map(|o| o.snapshot_interval.max(1)),
        oracles: config.oracles.is_on(),
        live: metrics.as_deref(),
        shard_size: config.shard_statements.max(1),
        span_origin: live.spans.then_some(t0),
        workers: n_workers.max(1),
    };
    // The campaign thread's recorder: planning stages, epochs, the
    // campaign-level oracles and minimisation, on track 0.
    let mut rec = Recorder::new(&campaign, CAMPAIGN_TRACK);

    // One scope hosts the watchdog and (via `execute_tail`) the shard
    // workers. The shard work finishes first; only then is the stop flag
    // raised and the watchdog unparked and joined — so the watchdog
    // observes the whole campaign, the scope cannot deadlock on it, and the
    // join does not wait out the watchdog's poll interval.
    let stop = AtomicBool::new(false);
    let stop_ref = &stop;
    let (plan, outcomes, epochs, watchdog_report) = std::thread::scope(|scope| {
        let watchdog_handle = live.watchdog.map(|cfg| {
            let registry = Arc::clone(metrics.as_ref().expect("watchdog implies a registry"));
            scope.spawn(move || soft_obs::watchdog::run(&registry, stop_ref, cfg))
        });
        let (plan, outcomes, epochs) = match schedule {
            // The static driver: one plan, one shard decomposition — the
            // reference semantics.
            None => {
                let mut plan =
                    plan_static(&collection, &ctx, config, campaign.workers, &mut rec.spans);
                if let Some(m) = campaign.live {
                    let shards = plan.cases.len().div_ceil(campaign.shard_size);
                    m.begin_campaign(profile.id.name(), shards, campaign.workers);
                }
                let outcomes = campaign.execute_tail(&mut plan);
                (plan, outcomes, Vec::new())
            }
            // The feedback scheduler: plan-then-execute per epoch, budget
            // reallocated from the deterministic telemetry of prior epochs.
            Some(sched) => {
                campaign.run_scheduled(&collection, &ctx, config, sched, &mut rec.spans)
            }
        };
        stop.store(true, Ordering::Release);
        let wd = watchdog_handle.map(|h| {
            // The watchdog parks between polls: wake it to see the flag.
            h.thread().unpark();
            h.join().expect("watchdog thread panicked")
        });
        (plan, outcomes, epochs, wd)
    });
    let statements: usize = outcomes.iter().map(|o| o.stats.statements).sum();
    let template = &campaign.template;

    // Campaign-level oracles: the pivot probes and the cross-dialect
    // differential suite run once, after the planned stream, and their
    // events land in a synthetic trailing shard, one past the last executed
    // one, so the journal stays globally ordered. Everything here is a pure
    // function of (profile, template), so the report stays byte-identical
    // across worker counts.
    rec.stats.shard = plan.shards;
    if campaign.oracles {
        let start = rec.spans.now();
        let mut hits = oracle::pivot_check(template);
        hits.extend(oracle::differential_check(profile));
        rec.spans.close("oracle", start, Some("pivot + differential".into()));
        for (k, (fault_id, bug, poc)) in hits.into_iter().enumerate() {
            rec.oracle_hit(statements + k + 1, fault_id, bug, poc);
        }
    }

    // Deterministic merge, in shard order (`execute_tail` returns shards in
    // order, whatever order they completed in): findings deduplicated by
    // fault id in global statement order, the campaign-level oracle hits
    // last; counters summed; coverage unioned.
    let mut found: HashSet<String> = HashSet::new();
    let mut findings: Vec<BugFinding> = Vec::new();
    let mut coverage = Coverage::new();
    let mut stats: Vec<ShardStats> = Vec::with_capacity(outcomes.len());
    let mut timings: Vec<ShardTiming> = Vec::with_capacity(outcomes.len());
    let mut shard_telemetry: Vec<ShardTelemetry> = Vec::new();
    let mut span_buffers: Vec<Vec<SpanRecord>> = Vec::new();
    for outcome in outcomes {
        findings.extend(outcome.findings.into_iter().filter(|f| found.insert(f.fault_id.clone())));
        coverage.merge(&outcome.coverage);
        timings.push(ShardTiming {
            shard: outcome.stats.shard,
            statements: outcome.stats.statements,
            nanos: outcome.nanos,
        });
        stats.push(outcome.stats);
        shard_telemetry.extend(outcome.telemetry);
        span_buffers.push(outcome.spans);
    }
    findings.extend(rec.findings.drain(..).filter(|f| found.insert(f.fault_id.clone())));
    shard_telemetry.extend(rec.telemetry(Coverage::new()));

    // Telemetry merge: the journal, yields and curves, into the report.
    let telemetry = telemetry_opts.map(|opts| {
        let registry = template.registry();
        let mut merged = soft_obs::telemetry::merge_shards(
            shard_telemetry,
            &plan.generated_per_pattern,
            opts.snapshot_interval.max(1),
            |name| registry.resolve(name).map(|d| d.category),
        );
        // Stamp the scheduler's epoch decisions into the deterministic
        // surface: they are identical at any worker count, so they sit
        // inside report equality like everything else merged here.
        merged.epochs = epochs;
        if let Some(path) = &opts.journal_path {
            let trace = merged.to_trace(Some(profile.id.name()), statements);
            if let Err(e) = std::fs::write(path, trace.to_jsonl()) {
                eprintln!("soft-obs: could not write journal {}: {e}", path.display());
            }
        }
        merged
    });

    // The minimize stage, timed over the unique findings (the PoCs the
    // paper's harness would report) only when spans are armed: the
    // reductions are discarded, so their spans are the pass's only output,
    // and the reducer only reads cloned engines. Crash PoCs reduce under
    // the crash signature, multi-form PoCs under the oracle verdict;
    // pivot/differential PoCs are fixed probe queries — already minimal,
    // but still one span each so the stage keeps one sample per finding.
    if rec.spans.is_some() {
        for f in &findings {
            let start = rec.spans.now();
            match &f.kind {
                FindingKind::Crash(_) => {
                    let _ = crate::minimize::minimize(&f.poc, || template.clone());
                }
                FindingKind::Logic(b) if b.oracle == OracleKind::MultiForm => {
                    let _ = crate::minimize::minimize_logic(&f.poc, || template.clone());
                }
                FindingKind::Logic(_) => {}
            }
            rec.spans.close("minimize", start, Some(f.fault_id.clone()));
        }
    }

    let report = CampaignReport {
        dialect: profile.id,
        statements_executed: statements,
        findings,
        false_positives: stats.iter().map(|s| s.false_positives).sum(),
        errors: stats.iter().map(|s| s.errors).sum(),
        functions_triggered: coverage.functions_triggered(),
        branches_covered: coverage.branches_covered(),
        generated_per_pattern: plan.generated_per_pattern,
        shards: stats,
        telemetry,
    };
    // The slow-shard skew signal comes from the deterministic join's own
    // timing rows, not from heartbeat sampling.
    let watchdog = watchdog_report.map(|mut w| {
        let rows: Vec<(usize, usize, u128)> =
            timings.iter().map(|t| (t.shard, t.statements, t.nanos)).collect();
        w.slow_shards = soft_obs::watchdog::classify_slow_shards(&rows);
        w
    });
    // Close the root span and merge all buffers into the flight trace.
    rec.spans.close("campaign", Some(0), Some(format!("{statements} statements")));
    let spans = rec.spans.map(|sink| {
        span_buffers.push(sink.into_spans());
        SpanTrace::merge(span_buffers)
    });
    // Terminate the live event stream: `/events` consumers see a final
    // `done` record and the chunked response closes.
    if let Some(m) = campaign.live {
        m.finish_campaign();
    }
    CampaignRun {
        report,
        workers: campaign.workers,
        wall_nanos: t0.elapsed().as_nanos(),
        shard_timings: timings,
        watchdog,
        spans,
    }
}

/// The arguments that stay the same for a whole campaign, shared by both
/// drivers, the cut → execute step and every shard.
struct Campaign<'a> {
    profile: &'a DialectProfile,
    fault_index: FaultIndex<'a>,
    /// The prepared template every shard clones and restores from.
    template: Engine,
    /// Whether the recorders keep journal events: telemetry or the
    /// scheduler reads them.
    journal: bool,
    /// Take a coverage snapshot every this many statements (telemetry on).
    snapshot_interval: Option<usize>,
    /// Whether the wrong-result oracles are armed.
    oracles: bool,
    live: Option<&'a LiveMetrics>,
    /// Statements per shard ([`CampaignConfig::shard_statements`], at
    /// least 1).
    shard_size: usize,
    /// The flight recorder's time origin, when spans are armed.
    span_origin: Option<Instant>,
    workers: usize,
}

impl Campaign<'_> {
    /// The one cut → execute step. Cuts the plan's unexecuted tail into
    /// shards numbered on from the shards already cut, adds them to the
    /// live plan gauges, and executes them; each shard prepares its own
    /// range (see [`Campaign::run_shard`]).
    fn execute_tail(&self, plan: &mut Plan) -> Vec<ShardOutcome> {
        let len = plan.cases.len();
        let shards: Vec<(usize, usize, usize)> = (plan.executed..len)
            .step_by(self.shard_size)
            .enumerate()
            .map(|(i, start)| (plan.shards + i, start, self.shard_size.min(len - start)))
            .collect();
        if let Some(m) = self.live {
            m.plan_shards(len - plan.executed, shards.len());
        }
        plan.executed = len;
        plan.shards += shards.len();
        // Work-stealing completion order never leaks: `par_map` returns the
        // outcomes in shard order.
        par_map(shards.len(), self.workers, |i| {
            let (index, start, len) = shards[i];
            self.run_shard(plan, start..start + len, index)
        })
    }

    /// The feedback scheduler (plan-then-execute). The statement budget is
    /// split into `sched.epochs` epochs; each epoch is *planned* from
    /// per-arm quotas the bandit computed out of the merged, deterministic
    /// telemetry of the epochs before it, then prepared and executed on
    /// shards that continue the campaign's global numbering. An arm is a
    /// (pattern × seed-function-category) pair.
    ///
    /// Every scheduling input is event-derived and therefore a pure
    /// function of (profile, config, repository): identical at any worker
    /// count, and whether or not user telemetry is enabled (when it is not,
    /// the shards still record events for scoring and the merge discards
    /// them). The adaptive stream — and with it the report — stays
    /// byte-identical however the campaign is parallelised.
    fn run_scheduled(
        &self,
        collection: &Collection,
        ctx: &GenCtx,
        config: &CampaignConfig,
        sched: &ScheduleOptions,
        spans: &mut Option<SpanSink>,
    ) -> (Plan, Vec<ShardOutcome>, Vec<EpochRealloc>) {
        let gen_start = spans.now();
        let (mut plan, mut seen, mut generator) =
            Generator::seed_and_generate(collection, ctx, config, self.workers);
        // Arm attribution: the category of each seed's root function (the
        // registry's view), `System` when the seed has no resolvable function.
        let seed_categories: Vec<FunctionCategory> = plan
            .seed_functions
            .iter()
            .map(|f| {
                f.as_deref()
                    .and_then(|name| self.profile.registry.resolve(name).map(|d| d.category))
                    .unwrap_or(FunctionCategory::System)
            })
            .collect();
        // The bandit caps each quota by the arm's remaining cases, so the
        // scheduler generates everything up front, in one wave.
        let arms = generator.regroup(&seed_categories);
        spans.close("generate", gen_start, Some(format!("{} cases", generator.generated())));
        let arm_of: HashMap<(PatternId, FunctionCategory), usize> = arms
            .iter()
            .enumerate()
            .map(|(a, arm)| ((arm.pattern, arm.category), a))
            .collect();

        let budget = config.max_statements;
        let n_epochs = sched.epochs.max(1);
        if let Some(m) = self.live {
            // Heartbeat slots need an upper bound before execution: each
            // epoch adds at most one partial shard beyond `len / shard_size`.
            // The plan gauges grow as each epoch's shards are cut.
            let slots = budget / self.shard_size + n_epochs + 1;
            m.begin_campaign(self.profile.id.name(), slots, self.workers);
        }

        let mut bandit = Bandit::new(arms.len());
        let mut cursors = vec![0usize; arms.len()];
        let mut outcomes: Vec<ShardOutcome> = Vec::new();
        let mut epochs_out: Vec<EpochRealloc> = Vec::new();
        let mut seen_faults: HashSet<Arc<str>> = HashSet::new();
        let mut seen_functions: HashSet<Arc<str>> = HashSet::new();

        for epoch in 0..n_epochs {
            let epoch_span_start = spans.now();
            // Epoch k owns the budget slice up to `budget * (k+1) / n`;
            // planning shortfalls (deduplication, dry queues) roll into the
            // next epoch.
            let target = budget * (epoch + 1) / n_epochs;
            let epoch_start = plan.cases.len();
            let epoch_budget = target.saturating_sub(epoch_start);
            let available: Vec<usize> =
                cursors.iter().zip(&generator.queues).map(|(&c, q)| q.len() - c).collect();
            if available.iter().all(|&n| n == 0) {
                break;
            }
            if epoch_budget == 0 {
                continue;
            }

            let scores = bandit.scores_milli();
            let quotas = bandit.allocate(epoch_budget, &available);
            // Plan the epoch: round-robin across arms up to each arm's quota
            // (duplicates advance the cursor without consuming quota, the
            // static planner's rule), then a spill pass tops the epoch up
            // from any arm with cases left so a starved quota cannot shrink
            // the campaign.
            let mut planned = vec![0usize; arms.len()];
            plan_round_robin(
                &mut plan.cases,
                &mut seen,
                &mut generator,
                &mut cursors,
                &mut planned,
                &quotas,
                target,
            );
            if plan.cases.len() < target {
                let spill = vec![usize::MAX; arms.len()];
                plan_round_robin(
                    &mut plan.cases,
                    &mut seen,
                    &mut generator,
                    &mut cursors,
                    &mut planned,
                    &spill,
                    target,
                );
            }

            // Execute everything planned but not yet run — the epoch's
            // quota, plus the seed corpus in epoch 0.
            let epoch_outcomes = self.execute_tail(&mut plan);

            // Score the epoch from its merged events and let the bandit
            // observe before the next epoch is planned.
            let rewards = fold_rewards(
                &epoch_outcomes,
                &arm_of,
                &seed_categories,
                arms.len(),
                &mut seen_faults,
                &mut seen_functions,
            );
            bandit.observe(&rewards);

            let start_statement = outcomes
                .last()
                .map(|o| o.stats.start_offset + o.stats.statements + 1)
                .unwrap_or(1);
            if let Some(m) = self.live {
                m.record_epoch(epoch, start_statement, epoch_budget);
            }
            let detail = format!("epoch {epoch}: budget {epoch_budget}");
            spans.close("epoch", epoch_span_start, Some(detail));
            epochs_out.push(EpochRealloc {
                epoch,
                start_statement,
                budget: epoch_budget,
                allocations: arms
                    .iter()
                    .enumerate()
                    .map(|(a, arm)| ArmAlloc {
                        pattern: arm.pattern,
                        category: arm.category,
                        planned: quotas[a],
                        executed: planned[a],
                        score_milli: scores[a],
                    })
                    .collect(),
            });
            outcomes.extend(epoch_outcomes);
            if plan.cases.len() >= budget {
                break;
            }
        }
        // Flush anything planned but never executed — possible when the
        // budget is smaller than the seed corpus or every queue went dry
        // before an epoch got to run.
        if plan.executed < plan.cases.len() {
            outcomes.extend(self.execute_tail(&mut plan));
        }
        generator.close(&cursors, &mut plan);
        (plan, outcomes, epochs_out)
    }
}

/// The static planner: the seed phase, then one round-robin pass over one
/// queue per active pattern, with unbounded quotas and the budget as the
/// target — the exact statement stream a serial run executes. The pass
/// pulls cases from the generator as it reaches them, so generation stops
/// at the planner's frontier. Pure: no engine involved, and every queue
/// prefix the pass reads is the same at any worker count, so the stream is
/// identical however it is generated or sharded.
fn plan_static(
    collection: &Collection,
    ctx: &GenCtx,
    config: &CampaignConfig,
    workers: usize,
    spans: &mut Option<SpanSink>,
) -> Plan {
    let gen_start = spans.now();
    let (mut plan, mut seen, mut generator) =
        Generator::seed_and_generate(collection, ctx, config, workers);
    let n = generator.queues.len();
    let mut cursors = vec![0; n];
    plan_round_robin(
        &mut plan.cases,
        &mut seen,
        &mut generator,
        &mut cursors,
        &mut vec![0; n],
        &vec![usize::MAX; n],
        config.max_statements,
    );
    spans.close("generate", gen_start, Some(format!("{} cases", generator.generated())));
    generator.close(&cursors, &mut plan);
    plan
}

/// The one planning interleave: round-robin across queues, pushing each
/// queue's next not-yet-planned case until the queue reaches its quota,
/// every queue is dry, or the plan reaches `target`. Duplicates advance the
/// cursor without consuming quota, so a quota buys `quota` *distinct*
/// statements when the queue has them. Pure: no engine, no clock, no
/// worker count — the generator hands out the same case at a given queue
/// position whenever and however it generates it.
fn plan_round_robin(
    cases: &mut Vec<PlannedCase>,
    seen: &mut HashSet<String>,
    generator: &mut Generator<'_>,
    cursors: &mut [usize],
    planned: &mut [usize],
    quotas: &[usize],
    target: usize,
) {
    'outer: loop {
        let mut progressed = false;
        for a in 0..cursors.len() {
            if cases.len() >= target {
                break 'outer;
            }
            if planned[a] >= quotas[a] {
                continue;
            }
            while let Some((case, seed)) = generator.case(a, cursors[a]) {
                cursors[a] += 1;
                if seen.insert(case.sql.clone()) {
                    cases.push(PlannedCase {
                        sql: case.sql.clone(),
                        pattern: Some(case.pattern),
                        seed: *seed,
                    });
                    planned[a] += 1;
                    progressed = true;
                    break;
                }
            }
        }
        if !progressed {
            break;
        }
    }
}

/// Folds one epoch's shard telemetry into per-arm rewards. Events are
/// walked in global statement order (shards sorted, indices monotonic), so
/// "first sighting" credit for faults and target functions is deterministic;
/// seed replays and oracle events carry no pattern and update the seen-sets
/// without crediting an arm.
fn fold_rewards(
    outcomes: &[ShardOutcome],
    arm_of: &HashMap<(PatternId, FunctionCategory), usize>,
    seed_categories: &[FunctionCategory],
    n_arms: usize,
    seen_faults: &mut HashSet<Arc<str>>,
    seen_functions: &mut HashSet<Arc<str>>,
) -> Vec<ArmReward> {
    let mut rewards = vec![ArmReward::default(); n_arms];
    let mut events: Vec<&StatementEvent> = outcomes
        .iter()
        .filter_map(|o| o.telemetry.as_ref())
        .flat_map(|t| t.events.iter())
        .collect();
    events.sort_by_key(|e| e.index);
    for e in events {
        let new_fault =
            e.fault_id.as_ref().is_some_and(|id| seen_faults.insert(Arc::clone(id)));
        let new_function =
            e.function.as_ref().is_some_and(|f| seen_functions.insert(Arc::clone(f)));
        let Some(&a) = e.pattern.and_then(|p| {
            let category = e
                .seed
                .and_then(|s| seed_categories.get(s).copied())
                .unwrap_or(FunctionCategory::System);
            arm_of.get(&(p, category))
        }) else {
            continue;
        };
        let r = &mut rewards[a];
        r.executed += 1;
        match e.outcome {
            OutcomeClass::Crash => r.crashes += 1,
            OutcomeClass::LogicBug => r.logic_bugs += 1,
            OutcomeClass::Error => r.errors += 1,
            OutcomeClass::Ok | OutcomeClass::ResourceLimit => {}
        }
        if new_fault {
            r.unique_bugs += 1;
        }
        if new_function {
            r.new_functions += 1;
        }
    }
    rewards
}

/// Executes one prepared plan entry: the prepared AST when preparation
/// succeeded, else its pre-execution error replayed as the outcome — the
/// exact classification the string path produced for the same statement.
fn execute_planned(engine: &mut Engine, prepared: &Result<Prepared, SqlError>) -> ExecOutcome {
    match prepared {
        Ok(p) => engine.execute_prepared(p),
        Err(e) => ExecOutcome::Error(e.clone()),
    }
}

/// Seeds per generation work item. Items are (pattern, seed chunk) pairs,
/// so a pattern that dominates generation (P3.3 holds most of the cases)
/// spreads over every worker instead of running alone on one, and the
/// planner can stop generating a pattern at any chunk boundary.
const GENERATE_CHUNK: usize = 16;

/// The campaign's one case generator: one queue per active pattern, each
/// case tagged with the index of the seed it derives from, generated on
/// demand. A queue is the concatenation of its pattern's seed chunks in
/// seed order, and a chunk's cases are a pure function of (pattern, seeds,
/// pool, cap), so the case at a queue position is the same whenever it is
/// generated, in whatever wave, at any worker count. What it generates
/// ahead of the planner's demand is never reported.
struct Generator<'a> {
    seeds: &'a [Statement],
    ctx: &'a GenCtx,
    per_seed_cap: usize,
    workers: usize,
    /// The active patterns, in [`PATTERN_ORDER`].
    active: Vec<PatternId>,
    /// The queues the planner reads: one per active pattern, or one per
    /// scheduler arm after [`Generator::regroup`].
    queues: Vec<Queue>,
    /// Each queue's pattern, as its position in `active`.
    pattern_of: Vec<usize>,
    /// Each queue's next unopened seed chunk.
    next_chunk: Vec<usize>,
}

impl<'a> Generator<'a> {
    /// The seed phase both drivers open with. Returns a plan holding the
    /// phase-1 seed statements (deduplicated and truncated at the budget;
    /// they prime coverage and take no arm quota), the set of statements
    /// planned so far, and the generator of everything after them: one
    /// queue per active pattern in [`PATTERN_ORDER`], nothing generated yet.
    fn seed_and_generate(
        collection: &'a Collection,
        ctx: &'a GenCtx,
        config: &CampaignConfig,
        workers: usize,
    ) -> (Plan, HashSet<String>, Self) {
        let active: Vec<PatternId> = match &config.patterns {
            None => PATTERN_ORDER.to_vec(),
            Some(ps) => PATTERN_ORDER.iter().copied().filter(|p| ps.contains(p)).collect(),
        };
        let n = active.len();
        let generator = Generator {
            seeds: &collection.seeds,
            ctx,
            per_seed_cap: config.per_seed_cap,
            workers: workers.max(1),
            active,
            queues: vec![Vec::new(); n],
            pattern_of: (0..n).collect(),
            next_chunk: vec![0; n],
        };
        let mut plan = Plan {
            cases: Vec::new(),
            generated_per_pattern: Vec::new(),
            seed_functions: collection
                .seeds
                .iter()
                .map(|s| {
                    let roots = soft_parser::visit::collect_function_exprs(s);
                    roots.first().map(|f| Arc::from(f.name.as_str()))
                })
                .collect(),
            executed: 0,
            shards: 0,
        };
        let mut seen: HashSet<String> = HashSet::new();
        for (si, stmt) in collection.seeds.iter().enumerate() {
            if plan.cases.len() >= config.max_statements {
                break;
            }
            let sql = stmt.to_string();
            if seen.insert(sql.clone()) {
                plan.cases.push(PlannedCase { sql, pattern: None, seed: si });
            }
        }
        (plan, seen, generator)
    }

    fn chunks(&self) -> usize {
        self.seeds.len().div_ceil(GENERATE_CHUNK)
    }

    /// Case `i` of queue `a`, `None` once the queue is exhausted. When `i`
    /// runs past the cases that exist, generates more in one wave: the
    /// first request opens chunk 0 of every queue, a later one the next
    /// `workers` chunks of queue `a`, until case `i` exists or the queue's
    /// seeds run out.
    fn case(&mut self, a: usize, i: usize) -> Option<&(GeneratedCase, usize)> {
        while i >= self.queues[a].len() && self.next_chunk[a] < self.chunks() {
            let items: Vec<(usize, usize)> = if self.next_chunk.iter().all(|&c| c == 0) {
                (0..self.queues.len()).map(|q| (q, 0)).collect()
            } else {
                let first = self.next_chunk[a];
                (first..self.chunks()).take(self.workers).map(|c| (a, c)).collect()
            };
            self.open(&items);
        }
        self.queues[a].get(i)
    }

    /// Generates every unopened chunk of every queue in one wave.
    fn drain(&mut self) {
        let items: Vec<(usize, usize)> = (0..self.queues.len())
            .flat_map(|q| (self.next_chunk[q]..self.chunks()).map(move |c| (q, c)))
            .collect();
        self.open(&items);
    }

    /// Generates the (queue, seed chunk) `items` on worker threads and
    /// appends each chunk to its queue. The items of one queue must be its
    /// next chunks in order; `par_map` returns them in that order.
    fn open(&mut self, items: &[(usize, usize)]) {
        let parts = par_map(items.len(), self.workers, |k| {
            let (q, chunk) = items[k];
            let pattern = self.active[self.pattern_of[q]];
            // The cross-function patterns need wider per-seed budgets: their
            // search space is (seed × donor), not (seed × pool).
            let cap = match pattern {
                PatternId::P3_3 => self.per_seed_cap.max(640),
                PatternId::P2_3 => self.per_seed_cap.max(128),
                _ => self.per_seed_cap,
            };
            let first = chunk * GENERATE_CHUNK;
            let mut tagged: Queue = Vec::new();
            let mut buf: Vec<GeneratedCase> = Vec::new();
            for (si, seed) in self.seeds.iter().enumerate().skip(first).take(GENERATE_CHUNK) {
                patterns::apply_salted(pattern, seed, self.ctx, cap, si, &mut buf);
                tagged.extend(buf.drain(..).map(|case| (case, si)));
            }
            tagged
        });
        for (&(q, chunk), part) in items.iter().zip(parts) {
            self.queues[q].extend(part);
            self.next_chunk[q] = chunk + 1;
        }
    }

    /// Cases generated so far, over every queue.
    fn generated(&self) -> usize {
        self.queues.iter().map(Vec::len).sum()
    }

    /// The scheduler's arm partition: drains every pattern's queue, then
    /// regroups the cases into one queue per (pattern, category of the
    /// seed's root function) arm. Arms are ordered by (pattern position,
    /// category), which refines the static planner's pattern order, and
    /// each arm's queue keeps generation order. Returns the arms in queue
    /// order.
    fn regroup(&mut self, seed_categories: &[FunctionCategory]) -> Vec<ArmId> {
        self.drain();
        let mut by_arm: BTreeMap<(usize, FunctionCategory), Queue> = BTreeMap::new();
        for (q, cases) in std::mem::take(&mut self.queues).into_iter().enumerate() {
            let pi = self.pattern_of[q];
            for (case, seed) in cases {
                let category =
                    seed_categories.get(seed).copied().unwrap_or(FunctionCategory::System);
                by_arm.entry((pi, category)).or_default().push((case, seed));
            }
        }
        let arms = by_arm
            .keys()
            .map(|&(pi, category)| ArmId { pattern: self.active[pi], category })
            .collect();
        self.pattern_of = by_arm.keys().map(|&(pi, _)| pi).collect();
        self.next_chunk = vec![self.chunks(); by_arm.len()];
        self.queues = by_arm.into_values().collect();
        arms
    }

    /// Closes generation into the plan once planning is over: the cases
    /// the planner drew from each active pattern's queues (`cursors`, the
    /// queues' cursors: planned plus skipped duplicates, never what was
    /// generated ahead of them).
    fn close(self, cursors: &[usize], plan: &mut Plan) {
        let mut drawn = vec![0usize; self.active.len()];
        for (&pi, &cursor) in self.pattern_of.iter().zip(cursors) {
            drawn[pi] += cursor;
        }
        plan.generated_per_pattern = self.active.into_iter().zip(drawn).collect();
    }
}

/// Maps `f` over `0..n` on up to `workers` threads, which take indices from
/// a shared cursor as they free up, and returns the results in index order
/// — so the output never depends on the worker count or completion order.
/// One worker (or one item) runs inline.
fn par_map<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                done.lock().expect("a worker panicked holding the results").push((i, out));
            });
        }
    });
    let mut done = done.into_inner().expect("a worker panicked holding the results");
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// A track's flight-recorder sink, `None` when spans are off. Spans are the
/// campaign's one wall-clock stage timer, and both operations are no-ops
/// when spans are off.
trait Spans {
    /// The span clock, when spans are armed: the start [`Spans::close`]
    /// takes.
    fn now(&self) -> Option<u64>;
    /// Records the span `name` from `start` to now.
    fn close(&mut self, name: &'static str, start: Option<u64>, detail: Option<String>);
}

impl Spans for Option<SpanSink> {
    fn now(&self) -> Option<u64> {
        self.as_ref().map(SpanSink::now_ns)
    }

    fn close(&mut self, name: &'static str, start: Option<u64>, detail: Option<String>) {
        if let (Some(sink), Some(start)) = (self.as_mut(), start) {
            sink.record_since(name, start, detail);
        }
    }
}

/// One track's recorder: shard `s` records on track `s + 1`, the campaign
/// thread on [`CAMPAIGN_TRACK`]. It classifies each executed statement
/// once and feeds that class to the shard's counters, the live registry,
/// the finding dedup and the journal, and it owns the track's span sink.
/// Each recorder belongs to one thread, so recording takes no lock beyond
/// the live registry's on a first sighting.
struct Recorder<'a> {
    campaign: &'a Campaign<'a>,
    /// The track's counters. `shard` is the shard the events belong to:
    /// for the campaign thread, the synthetic trailing shard of the
    /// campaign-level oracle hits.
    stats: ShardStats,
    /// Fault ids this track has surfaced, and the first finding of each.
    found: HashSet<String>,
    findings: Vec<BugFinding>,
    /// Journal events, kept when [`Campaign::journal`] is set.
    events: Vec<StatementEvent>,
    /// Coverage snapshots as `(global statement count, coverage)` pairs.
    snapshots: Vec<(usize, Coverage)>,
    /// The live registry's heartbeat slots (shard tracks only).
    beats: Option<Arc<Vec<ShardBeat>>>,
    spans: Option<SpanSink>,
}

impl<'a> Recorder<'a> {
    /// A recorder for `track`. A shard's recorder claims the shard's
    /// heartbeat slot.
    fn new(campaign: &'a Campaign<'a>, track: u64) -> Self {
        let shard = (track as usize).saturating_sub(1);
        let beats = campaign.live.filter(|_| track != CAMPAIGN_TRACK).map(|m| {
            // This worker owns heartbeat slot `shard` exclusively while the
            // shard runs, so every update is wait-free.
            let beats = m.beats();
            m.shard_started(&beats[shard], shard);
            beats
        });
        Recorder {
            campaign,
            stats: ShardStats { shard, ..ShardStats::default() },
            found: HashSet::new(),
            findings: Vec::new(),
            events: Vec::new(),
            snapshots: Vec::new(),
            beats,
            spans: campaign.span_origin.map(|origin| SpanSink::new(origin, track)),
        }
    }

    /// Records the statement at plan position `i`, which `engine` just
    /// executed. `logic` is the multi-form oracle's verdict; it overrides
    /// the surface outcome, the same precedence the merge applies.
    fn statement(
        &mut self,
        engine: &Engine,
        plan: &Plan,
        i: usize,
        outcome: &ExecOutcome,
        logic: Option<((String, Option<String>), LogicBug)>,
    ) {
        let campaign = self.campaign;
        let case = &plan.cases[i];
        let class = if logic.is_some() { OutcomeClass::LogicBug } else { OutcomeClass::of(outcome) };
        let stats = &mut self.stats;
        match class {
            OutcomeClass::Ok => {}
            OutcomeClass::Error => stats.errors += 1,
            OutcomeClass::ResourceLimit => stats.false_positives += 1,
            OutcomeClass::Crash => stats.crashes += 1,
            OutcomeClass::LogicBug => stats.logic_bugs += 1,
        }
        if let (Some(m), Some(beats)) = (campaign.live, &self.beats) {
            m.record_statement(&beats[stats.shard], i + 1, case.pattern, class);
        }
        let fault_id = match (&logic, outcome) {
            (Some(((id, function), bug)), _) => {
                self.finding(id, || {
                    let at = plan.found_at(i);
                    logic_finding(campaign.profile, id.clone(), bug.clone(), function.clone(), at)
                });
                Some(id.as_str())
            }
            (None, ExecOutcome::Crash(c)) => {
                self.finding(&c.fault_id, || {
                    crash_finding(campaign.profile, &campaign.fault_index, c, plan.found_at(i))
                });
                Some(c.fault_id.as_str())
            }
            (None, _) => None,
        };
        if !campaign.journal {
            return;
        }
        let function = match outcome {
            ExecOutcome::Crash(c) if c.function.is_some() => c.function.as_deref().map(Arc::from),
            _ => plan.seed_functions.get(case.seed).cloned().flatten(),
        };
        self.events.push(StatementEvent {
            index: i + 1,
            shard: self.stats.shard,
            seed: Some(case.seed),
            pattern: case.pattern,
            function,
            outcome: class,
            // Corpus faults reuse their interned id.
            fault_id: fault_id.map(|id| {
                campaign.fault_index.get(id).map_or_else(|| Arc::from(id), |(a, _)| Arc::clone(a))
            }),
        });
        if campaign.snapshot_interval.is_some_and(|every| (i + 1) % every == 0) {
            self.snapshots.push((i + 1, engine.coverage().clone()));
        }
    }

    /// Records a campaign-level oracle hit at global statement `index`: a
    /// logic-bug event on the track's shard, and its finding.
    fn oracle_hit(&mut self, index: usize, fault_id: String, bug: LogicBug, poc: String) {
        if self.campaign.journal {
            self.events.push(StatementEvent {
                index,
                shard: self.stats.shard,
                seed: None,
                pattern: None,
                function: None,
                outcome: OutcomeClass::LogicBug,
                fault_id: Some(Arc::from(fault_id.as_str())),
            });
        }
        let profile = self.campaign.profile;
        self.finding(&fault_id.clone(), || {
            let at = Found { poc, pattern: None, seed_function: None, index };
            logic_finding(profile, fault_id, bug, None, at)
        });
    }

    /// The finding dedup: the first sighting of `fault_id` on this track
    /// keeps its finding and is reported to the live registry.
    fn finding(&mut self, fault_id: &str, build: impl FnOnce() -> BugFinding) {
        if self.found.insert(fault_id.to_string()) {
            if let Some(m) = self.campaign.live {
                m.record_unique_candidate(fault_id);
            }
            self.findings.push(build());
        }
    }

    /// The track's journal share, when journal events are kept.
    fn telemetry(&mut self, final_coverage: Coverage) -> Option<ShardTelemetry> {
        self.campaign.journal.then(|| ShardTelemetry {
            shard: self.stats.shard,
            events: std::mem::take(&mut self.events),
            snapshots: std::mem::take(&mut self.snapshots),
            final_coverage,
        })
    }

    /// Closes a shard's recorder into the shard's outcome: `engine` ran the
    /// plan's `range` in `nanos`.
    fn finish(mut self, engine: &Engine, range: std::ops::Range<usize>, nanos: u128) -> ShardOutcome {
        let shard = self.stats.shard;
        if let (Some(m), Some(beats)) = (self.campaign.live, &self.beats) {
            m.shard_finished(&beats[shard], shard, engine.coverage());
        }
        ShardOutcome {
            telemetry: self.telemetry(engine.coverage().clone()),
            stats: ShardStats { start_offset: range.start, statements: range.len(), ..self.stats },
            findings: self.findings,
            coverage: engine.coverage().clone(),
            nanos,
            spans: self.spans.map(SpanSink::into_spans).unwrap_or_default(),
        }
    }
}

impl Campaign<'_> {
    /// Prepares and executes one shard of the planned stream on a private
    /// engine cloned from the template. Pure function of (profile, template,
    /// shard range): no state is shared with other shards.
    ///
    /// Each statement is prepared once, up front, against the shared
    /// template — the campaign's one parse of it. Preparation reads only
    /// the template's immutable backend (limits and function registry), so
    /// it equals what a serial pass would produce, whichever worker runs
    /// the shard.
    ///
    /// Every statement is then executed once, in plan order, by
    /// [`Engine::execute_prepared`] on the shard's engine — in its own
    /// `execute` span — checked by the multi-form oracle, handed to the
    /// shard's [`Recorder`], and followed by a restore after a crash.
    fn run_shard(&self, plan: &Plan, range: std::ops::Range<usize>, shard: usize) -> ShardOutcome {
        let t0 = Instant::now();
        let mut rec = Recorder::new(self, shard as u64 + 1);
        let shard_start = rec.spans.now();
        let cases = &plan.cases[range.clone()];
        // The prepare loop, in one `parse` span per shard.
        let parse_start = rec.spans.now();
        let prepared: Vec<Result<Prepared, SqlError>> =
            cases.iter().map(|case| self.template.prepare(&case.sql)).collect();
        rec.spans.close("parse", parse_start, None);
        let mut engine = self.template.clone();
        for (i, (case, prepared)) in range.clone().zip(cases.iter().zip(&prepared)) {
            let start = rec.spans.now();
            let outcome = execute_planned(&mut engine, prepared);
            rec.spans.close("execute", start, None);
            // The multi-form oracle inspects every statement the crash plane
            // passed on. It executes the statement's forms on private clones
            // of the *template* (never this shard's engine), so the verdict is
            // a pure function of (template, statement) — shard state and worker
            // count cannot change it. A shape-keyed statement reads neither
            // tables nor session state, so its outcome here *is* what a
            // template clone produces, and it stands in for the oracle's
            // reference form instead of executing that form again.
            let logic = match (&outcome, self.oracles) {
                (ExecOutcome::Crash(_), _) | (_, false) => None,
                (_, true) => prepared.as_ref().ok().and_then(|p| {
                    let start = rec.spans.now();
                    let bug = if self.template.shape_key(p).is_some() {
                        oracle::multi_form_check_with(
                            &self.template,
                            &case.sql,
                            p.statement(),
                            &outcome,
                        )
                    } else {
                        oracle::multi_form_check(&self.template, &case.sql, p.statement())
                    };
                    rec.spans.close("oracle", start, None);
                    bug.map(|bug| (oracle::multi_form_fault_id(p.statement()), bug))
                }),
            };
            rec.statement(&engine, plan, i, &outcome, logic);
            if let ExecOutcome::Crash(_) = outcome {
                // "Restart" the DBMS: snapshot-restore from the prepared
                // template — state-identical to reset + preparation replay,
                // without re-executing the preparation statements.
                engine.restore_database(&self.template);
            }
        }
        rec.spans.close("shard", shard_start, Some(format!("{} statements", cases.len())));
        rec.finish(&engine, range, t0.elapsed().as_nanos())
    }
}

/// Anything that can stream test statements at a target — the interface the
/// baseline tools implement for the Tables 5/6 comparison.
pub trait StatementGenerator {
    /// Tool name (for report labels).
    fn name(&self) -> &'static str;
    /// Produces the next statement, or `None` when the tool is exhausted.
    fn next_statement(&mut self) -> Option<String>;
}

/// Runs any statement generator against a profile under a budget,
/// measuring the same campaign metrics as [`run_soft_parallel`].
pub fn run_generator(
    profile: &DialectProfile,
    generator: &mut dyn StatementGenerator,
    max_statements: usize,
) -> CampaignReport {
    let fault_index = build_fault_index(profile);
    let mut engine = profile.engine();
    let mut statements = 0usize;
    let mut false_positives = 0usize;
    let mut errors = 0usize;
    let mut found: HashSet<String> = HashSet::new();
    let mut findings: Vec<BugFinding> = Vec::new();
    while statements < max_statements {
        let Some(sql) = generator.next_statement() else { break };
        statements += 1;
        // Same prepared discipline as the campaign shards: parse once, then
        // execute the AST (external generators stream, so prepare and
        // execute are back to back here).
        let prepared = engine.prepare(&sql);
        match execute_planned(&mut engine, &prepared) {
            ExecOutcome::Crash(c) => {
                if found.insert(c.fault_id.clone()) {
                    // External generators carry no pattern or seed
                    // provenance: the corpus's own pattern is credited as
                    // the finder.
                    let pattern = fault_index.get(c.fault_id.as_str()).map(|&(_, s)| s.pattern);
                    let at =
                        Found { poc: sql.clone(), pattern, seed_function: None, index: statements };
                    findings.push(crash_finding(profile, &fault_index, &c, at));
                }
                engine.reset_database();
            }
            ExecOutcome::Error(SqlError::ResourceLimit(_)) => false_positives += 1,
            ExecOutcome::Error(_) => errors += 1,
            _ => {}
        }
    }
    CampaignReport {
        dialect: profile.id,
        statements_executed: statements,
        findings,
        false_positives,
        errors,
        functions_triggered: engine.coverage().functions_triggered(),
        branches_covered: engine.coverage().branches_covered(),
        // External generators are not pattern-based.
        generated_per_pattern: Vec::new(),
        // ... and they stream into a single engine, unsharded.
        shards: Vec::new(),
        // ... and they carry no plan provenance, so no journal either.
        telemetry: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soft_dialects::DialectId;

    /// FNV-1a over a SQL stream, each statement newline-terminated.
    fn sql_stream_hash<'a>(stream: impl IntoIterator<Item = &'a String>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for sql in stream {
            for b in sql.bytes().chain(std::iter::once(b'\n')) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Every queue of a drained generator, at `workers` workers.
    fn drained(
        collection: &Collection,
        ctx: &GenCtx,
        config: &CampaignConfig,
        workers: usize,
    ) -> Vec<Queue> {
        let (_, _, mut generator) = Generator::seed_and_generate(collection, ctx, config, workers);
        generator.drain();
        generator.queues
    }

    /// Generation is pinned byte for byte: every pattern's queue matches the
    /// case count and SQL-stream hash recorded from the serial
    /// one-pattern-per-worker generator this one replaced, and the
    /// (pattern, seed chunk) split yields the same queues at any worker
    /// count — for a single-pattern config too.
    #[test]
    fn generation_is_pinned_and_worker_invariant() {
        const PINNED: [(DialectId, [(usize, u64); 10]); 2] = [
            (
                DialectId::Clickhouse,
                [
                    (12_019, 0x06ca_e48e_af6f_1301),
                    (16_694, 0xceb7_b04d_3d04_e596),
                    (1_776, 0xcf3c_471f_ad93_1789),
                    (1_212, 0x6d26_2bac_1dc8_0bde),
                    (6_264, 0xe46b_3d4c_44a0_be96),
                    (2_088, 0x1819_6fb1_252c_58e4),
                    (40_736, 0xcf6f_3e19_d5bf_563b),
                    (6_075, 0xab13_23b9_d5e6_45f7),
                    (10_496, 0x6742_76f4_a407_f965),
                    (195_466, 0xa8ea_1040_c9fb_fa63),
                ],
            ),
            (
                DialectId::Mariadb,
                [
                    (7_744, 0x55e1_a036_6752_c111),
                    (10_846, 0xe3d7_6de6_e292_096a),
                    (1_179, 0x066d_27c7_f491_15b3),
                    (741, 0x3bcf_6a97_64ea_7fa6),
                    (4_149, 0xdb64_2558_cedb_7ac9),
                    (1_383, 0x79b0_7be0_6f3f_fd0f),
                    (26_151, 0xb2c2_0ab6_def6_b6a6),
                    (3_969, 0x47ea_6cd0_a252_ca0b),
                    (6_784, 0xd1b8_03a7_e920_b129),
                    (107_692, 0x0105_5185_b619_757f),
                ],
            ),
        ];
        let cfg = CampaignConfig::default();
        let single = CampaignConfig { patterns: Some(vec![PatternId::P3_3]), ..cfg.clone() };
        for (id, pinned) in PINNED {
            let profile = DialectProfile::build(id);
            let collection = collect::collect(&profile);
            let ctx = GenCtx::new(&collection);
            let serial = drained(&collection, &ctx, &cfg, 1);
            let expected = PATTERN_ORDER.iter().zip(&serial).zip(pinned);
            for ((pattern, queue), (cases, hash)) in expected {
                assert_eq!(queue.len(), cases, "{id:?} {pattern}: case count moved");
                let stream = queue.iter().map(|(case, _)| &case.sql);
                assert_eq!(sql_stream_hash(stream), hash, "{id:?} {pattern}: SQL stream moved");
            }
            let parallel = drained(&collection, &ctx, &cfg, 3);
            assert!(serial == parallel, "{id:?}: worker count changed the queues");
            let one = drained(&collection, &ctx, &single, 1);
            let three = drained(&collection, &ctx, &single, 3);
            assert!(one == three, "{id:?}: worker count changed the P3.3-only queue");
            assert!(one[..] == serial[9..], "{id:?}: the P3.3-only queue differs from P3.3's");
        }
    }

    /// On-demand generation leaves the static plan byte-identical: at
    /// default caps, `plan_static`'s SQL stream matches the length and
    /// FNV-1a hash recorded from the eager generator it replaced, at 1 and
    /// 3 workers, and so do the reported per-pattern counts. A smaller
    /// budget plans a prefix of a larger one's stream, which the compare
    /// smoke in `scripts/verify.sh` relies on, and a budget the seed phase
    /// fills generates nothing.
    #[test]
    fn on_demand_plans_are_pinned_and_worker_invariant() {
        const PINNED: [(DialectId, usize, u64); 4] = [
            (DialectId::Clickhouse, 3_000, 0x6743_0b4d_6157_cbd6),
            (DialectId::Clickhouse, 60_000, 0x3e67_edba_ec34_a344),
            (DialectId::Mariadb, 3_000, 0xd8de_b532_bf53_ec14),
            (DialectId::Mariadb, 60_000, 0x0c03_303d_cc5d_2547),
        ];
        for (id, budget, hash) in PINNED {
            let profile = DialectProfile::build(id);
            let collection = collect::collect(&profile);
            let ctx = GenCtx::new(&collection);
            let cfg = CampaignConfig { max_statements: budget, ..CampaignConfig::default() };
            let one = plan_static(&collection, &ctx, &cfg, 1, &mut None);
            let three = plan_static(&collection, &ctx, &cfg, 3, &mut None);
            for plan in [&one, &three] {
                let stream = plan.cases.iter().map(|case| &case.sql);
                assert_eq!(plan.cases.len(), budget, "{id:?} at {budget}: plan length moved");
                assert_eq!(sql_stream_hash(stream), hash, "{id:?} at {budget}: stream moved");
            }
            assert_eq!(
                one.generated_per_pattern, three.generated_per_pattern,
                "{id:?} at {budget}: worker count changed the drawn counts"
            );
            if budget == 3_000 {
                let half = CampaignConfig { max_statements: budget / 2, ..cfg.clone() };
                let prefix = plan_static(&collection, &ctx, &half, 3, &mut None);
                let head = one.cases[..budget / 2].iter().map(|c| &c.sql);
                assert!(prefix.cases.iter().map(|c| &c.sql).eq(head), "{id:?}: not a prefix");
                let seeds_only = CampaignConfig { max_statements: 10, ..cfg };
                let mut spans = Some(SpanSink::new(Instant::now(), CAMPAIGN_TRACK));
                let plan = plan_static(&collection, &ctx, &seeds_only, 3, &mut spans);
                assert!(plan.cases.iter().all(|c| c.pattern.is_none()));
                let generate = spans.map(SpanSink::into_spans).unwrap_or_default();
                assert_eq!(generate[0].detail.as_deref(), Some("0 cases"), "{id:?}: generated");
            }
        }
    }

    #[test]
    fn small_budget_campaign_is_deterministic() {
        let profile = DialectProfile::build(DialectId::Clickhouse);
        let cfg = CampaignConfig {
            max_statements: 3_000,
            per_seed_cap: 8,
            ..CampaignConfig::default()
        };
        let a = run_soft_parallel(&profile, &cfg, 1);
        let b = run_soft_parallel(&profile, &cfg, 1);
        assert_eq!(a.statements_executed, b.statements_executed);
        assert_eq!(
            a.findings.iter().map(|f| &f.fault_id).collect::<Vec<_>>(),
            b.findings.iter().map(|f| &f.fault_id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn campaign_finds_bugs_in_clickhouse() {
        let profile = DialectProfile::build(DialectId::Clickhouse);
        let cfg = CampaignConfig {
            max_statements: 60_000,
            per_seed_cap: 48,
            ..CampaignConfig::default()
        };
        let report = run_soft_parallel(&profile, &cfg, 1);
        assert!(
            !report.findings.is_empty(),
            "SOFT should find at least one of the 6 ClickHouse bugs"
        );
        // Findings carry unique fault ids.
        let ids: HashSet<&String> = report.findings.iter().map(|f| &f.fault_id).collect();
        assert_eq!(ids.len(), report.findings.len());
        // Coverage was recorded.
        assert!(report.functions_triggered > 100);
        assert!(report.branches_covered > 500);
    }

    #[test]
    fn budget_is_respected() {
        let profile = DialectProfile::build(DialectId::Monetdb);
        let cfg = CampaignConfig {
            max_statements: 500,
            per_seed_cap: 4,
            ..CampaignConfig::default()
        };
        let report = run_soft_parallel(&profile, &cfg, 1);
        assert!(report.statements_executed <= 500);
    }

    #[test]
    fn shard_stats_partition_the_stream() {
        let profile = DialectProfile::build(DialectId::Monetdb);
        let cfg = CampaignConfig {
            max_statements: 1_000,
            per_seed_cap: 4,
            shard_statements: 128,
            ..CampaignConfig::default()
        };
        let report = run_soft_parallel(&profile, &cfg, 1);
        assert!(!report.shards.is_empty());
        // Shards tile the stream: contiguous offsets, summed statements.
        let mut expect_offset = 0usize;
        for (i, s) in report.shards.iter().enumerate() {
            assert_eq!(s.shard, i);
            assert_eq!(s.start_offset, expect_offset);
            assert!(s.statements <= 128);
            expect_offset += s.statements;
        }
        assert_eq!(expect_offset, report.statements_executed);
        // Per-shard counters sum to the report totals.
        assert_eq!(
            report.shards.iter().map(|s| s.errors).sum::<usize>(),
            report.errors
        );
        assert_eq!(
            report.shards.iter().map(|s| s.false_positives).sum::<usize>(),
            report.false_positives
        );
    }

    #[test]
    fn telemetry_matches_the_off_run_and_journals_every_statement() {
        let profile = DialectProfile::build(DialectId::Clickhouse);
        let cfg = CampaignConfig {
            max_statements: 2_000,
            per_seed_cap: 8,
            ..CampaignConfig::default()
        };
        let tcfg =
            CampaignConfig { telemetry: TelemetryConfig::with_interval(500), ..cfg.clone() };
        let off = run_soft_parallel(&profile, &cfg, 1);
        let run = run_soft_parallel_live(&profile, &tcfg, 2, &LivePlane::default());
        let on = run.report;
        let tel = on.telemetry.as_ref().expect("telemetry recorded");

        // One event per executed statement, indices 1..=n in order.
        assert_eq!(tel.journal.events.len(), on.statements_executed);
        assert!(tel.journal.events.iter().enumerate().all(|(i, e)| e.index == i + 1));

        // Observation never changes results: stripping the telemetry field
        // yields exactly the telemetry-off report.
        let mut stripped = on.clone();
        stripped.telemetry = None;
        assert_eq!(stripped, off, "telemetry changed campaign results");

        // The bug curve replays the findings merge: same faults, same
        // discovery indices, same order.
        assert_eq!(tel.curves.bugs.len(), on.findings.len());
        for (b, f) in tel.curves.bugs.iter().zip(&on.findings) {
            assert_eq!(b.fault_id, f.fault_id);
            assert_eq!(b.statements, f.statements_until_found);
        }

        // Coverage snapshots land on interval multiples and grow.
        assert!(!tel.curves.coverage.is_empty());
        for p in &tel.curves.coverage {
            assert_eq!(p.statements % 500, 0);
        }
        assert!(tel
            .curves
            .coverage
            .windows(2)
            .all(|w| w[0].branches <= w[1].branches && w[0].statements < w[1].statements));

        // Wall-clock stage histograms come from the flight recorder, never
        // from telemetry: this run armed no spans, so it timed nothing. A
        // spans-armed rerun has one execute sample per statement, one parse
        // sample per shard, one minimize sample per unique finding and one
        // generate sample, and leaves the report as it was.
        assert!(run.spans.is_none(), "telemetry alone recorded spans");
        let plane = LivePlane { spans: true, ..LivePlane::default() };
        let armed = run_soft_parallel_live(&profile, &tcfg, 2, &plane);
        assert_eq!(armed.report, on, "spans changed the telemetry report");
        let latency = soft_obs::StageLatency::from_spans(&armed.spans.expect("spans armed"));
        assert_eq!(latency.execute.samples() as usize, on.statements_executed);
        assert_eq!(latency.parse.samples() as usize, on.shards.len());
        assert_eq!(latency.minimize.samples() as usize, on.findings.len());
        assert_eq!(latency.generate.samples(), 1);

        // Yields reconcile with the report's counters.
        let executed: usize =
            tel.yields.per_pattern.values().map(|y| y.executed).sum();
        let seed_replays = tel.journal.events.iter().filter(|e| e.pattern.is_none()).count();
        assert_eq!(executed + seed_replays, on.statements_executed);
        let unique: usize = tel.yields.per_pattern.values().map(|y| y.unique_bugs).sum();
        assert_eq!(unique, on.findings.len());
    }

    #[test]
    fn prepared_path_matches_the_string_path_reference() {
        // The pre-split execution semantics, replayed verbatim: render each
        // planned case to SQL, execute the string, and on a crash reset the
        // database and re-execute the preparation statements. The prepared
        // pipeline (parse-once plan, AST execution, snapshot restore) must
        // be byte-identical to it.
        let profile = DialectProfile::build(DialectId::Clickhouse);
        let cfg = CampaignConfig {
            max_statements: 2_000,
            per_seed_cap: 8,
            ..CampaignConfig::default()
        };
        let report = run_soft_parallel(&profile, &cfg, 1);

        let collection = collect::collect(&profile);
        let ctx = GenCtx::new(&collection);
        let prep: Vec<String> =
            collection.preparation.iter().map(|s| s.to_string()).collect();
        let plan = plan_static(&collection, &ctx, &cfg, 1, &mut None);
        let mut template = profile.engine();
        for sql in &prep {
            let _ = template.execute(sql);
        }

        let shard_size = cfg.shard_statements.max(1);
        let mut merged: Vec<(String, usize)> = Vec::new();
        let mut global_found: HashSet<String> = HashSet::new();
        let mut coverage = Coverage::new();
        let (mut statements, mut fp, mut errs) = (0usize, 0usize, 0usize);
        for (si, chunk) in plan.cases.chunks(shard_size).enumerate() {
            let start_offset = si * shard_size;
            let mut engine = template.clone();
            let mut found: HashSet<String> = HashSet::new();
            let mut shard_findings: Vec<(String, usize)> = Vec::new();
            for (i, case) in chunk.iter().enumerate() {
                statements += 1;
                match engine.execute(&case.sql) {
                    ExecOutcome::Crash(c) => {
                        if found.insert(c.fault_id.clone()) {
                            shard_findings.push((c.fault_id, start_offset + i + 1));
                        }
                        engine.reset_database();
                        for sql in &prep {
                            let _ = engine.execute(sql);
                        }
                    }
                    ExecOutcome::Error(SqlError::ResourceLimit(_)) => fp += 1,
                    ExecOutcome::Error(_) => errs += 1,
                    ExecOutcome::Rows(_) | ExecOutcome::Ok(_) => {}
                }
            }
            coverage.merge(engine.coverage());
            for f in shard_findings {
                if global_found.insert(f.0.clone()) {
                    merged.push(f);
                }
            }
        }

        assert_eq!(statements, report.statements_executed);
        assert_eq!(fp, report.false_positives);
        assert_eq!(errs, report.errors);
        assert_eq!(coverage.functions_triggered(), report.functions_triggered);
        assert_eq!(coverage.branches_covered(), report.branches_covered);
        assert_eq!(merged.len(), report.findings.len());
        for ((id, at), f) in merged.iter().zip(&report.findings) {
            assert_eq!(id, &f.fault_id);
            assert_eq!(*at, f.statements_until_found);
        }
    }

    /// The multi-form oracle's outcome reuse gives the fresh-clone verdict:
    /// walking each dialect's static plan shard by shard as `run_shard`
    /// does (restoring after crashes), every non-crashing shape-keyed
    /// statement's shard outcome, used as form A, yields exactly the verdict
    /// of form A re-executed on a template clone.
    #[test]
    fn oracle_outcome_reuse_matches_the_fresh_clone_reference() {
        let cfg = CampaignConfig {
            max_statements: 1_000,
            per_seed_cap: 8,
            ..CampaignConfig::default()
        };
        let mut flagged: Vec<(DialectId, String)> = Vec::new();
        for id in DialectId::ALL {
            let profile = DialectProfile::build(id);
            let collection = collect::collect(&profile);
            let plan = plan_static(&collection, &GenCtx::new(&collection), &cfg, 1, &mut None);
            let mut template = profile.engine();
            for stmt in &collection.preparation {
                let _ = template.execute(&stmt.to_string());
            }
            let mut reused = 0usize;
            for shard in plan.cases.chunks(cfg.shard_statements) {
                let mut engine = template.clone();
                for case in shard {
                    let Ok(p) = template.prepare(&case.sql) else { continue };
                    let outcome = engine.execute_prepared(&p);
                    if let ExecOutcome::Crash(_) = outcome {
                        engine.restore_database(&template);
                    } else if template.shape_key(&p).is_some() {
                        reused += 1;
                        let (sql, stmt) = (case.sql.as_str(), p.statement());
                        let verdict = oracle::multi_form_check_with(&template, sql, stmt, &outcome);
                        let fresh = oracle::multi_form_check(&template, sql, stmt);
                        assert_eq!(verdict, fresh, "{id:?}: outcome reuse diverged on {sql}");
                        if verdict.is_some() {
                            flagged.push((id, case.sql.clone()));
                        }
                    }
                }
            }
            assert!(reused > 0, "{id:?}: the plan has no shape-keyed statement");
        }
        assert!(
            flagged.contains(&(DialectId::Clickhouse, "SELECT toString(42)".to_string())),
            "the toString(42) quirk must be flagged through the reused outcome: {flagged:?}"
        );
    }

    #[test]
    fn parallel_equals_serial_and_reports_timings() {
        let profile = DialectProfile::build(DialectId::Clickhouse);
        let cfg = CampaignConfig {
            max_statements: 2_000,
            per_seed_cap: 8,
            ..CampaignConfig::default()
        };
        let serial = run_soft_parallel(&profile, &cfg, 1);
        let run = run_soft_parallel_live(&profile, &cfg, 3, &LivePlane::default());
        assert_eq!(serial, run.report, "worker count leaked into the report");
        assert_eq!(run.workers, 3);
        assert_eq!(run.shard_timings.len(), run.report.shards.len());
        assert!(run.statements_per_sec() > 0.0);
        for (t, s) in run.shard_timings.iter().zip(&run.report.shards) {
            assert_eq!(t.shard, s.shard);
            assert_eq!(t.statements, s.statements);
        }
    }

    #[test]
    fn oracles_flag_wrong_results_and_keep_worker_invariance() {
        // The ClickHouse seed corpus replays `SELECT toString(42)` in phase
        // 1 at any budget, and the shipped provenance quirk makes it return
        // "42.0" — the multi-form oracle must flag it, end to end.
        let profile = DialectProfile::build(DialectId::Clickhouse);
        let cfg = CampaignConfig {
            max_statements: 3_000,
            per_seed_cap: 4,
            telemetry: TelemetryConfig::with_interval(500),
            oracles: OracleConfig::on(),
            ..CampaignConfig::default()
        };
        let serial = run_soft_parallel(&profile, &cfg, 1);
        let logic: Vec<&BugFinding> =
            serial.findings.iter().filter(|f| f.kind.logic().is_some()).collect();
        assert!(
            logic.iter().any(|f| f.fault_id == "logic-multiform-tostring"),
            "seeded toString(42) must trip the multi-form oracle; findings: {:?}",
            serial.findings.iter().map(|f| &f.fault_id).collect::<Vec<_>>()
        );
        for f in &logic {
            let bug = f.kind.logic().expect("logic finding");
            assert!(!bug.expected.is_empty() && !bug.actual.is_empty());
            assert_ne!(bug.expected, bug.actual);
        }
        // Shard counters and the journal both carry the wrong-result class.
        assert!(serial.shards.iter().map(|s| s.logic_bugs).sum::<usize>() > 0);
        let tel = serial.telemetry.as_ref().expect("telemetry on");
        assert!(tel
            .journal
            .events
            .iter()
            .any(|e| e.outcome == OutcomeClass::LogicBug
                && e.fault_id.as_deref() == Some("logic-multiform-tostring")));
        // The unique-bug curve steps on logic findings like crash findings.
        assert!(tel.curves.bugs.iter().any(|b| b.fault_id == "logic-multiform-tostring"));

        // Oracles are pure functions of (template, statement): the report —
        // telemetry included — stays byte-identical across worker counts.
        for workers in [2, 4, 7] {
            assert_eq!(
                run_soft_parallel(&profile, &cfg, workers),
                serial,
                "worker count leaked into the oracle-armed report"
            );
        }
    }

    #[test]
    fn oracles_off_is_the_default_and_changes_nothing() {
        let profile = DialectProfile::build(DialectId::Clickhouse);
        let cfg = CampaignConfig {
            max_statements: 1_000,
            per_seed_cap: 8,
            ..CampaignConfig::default()
        };
        assert!(!cfg.oracles.is_on());
        let report = run_soft_parallel(&profile, &cfg, 1);
        assert!(report.findings.iter().all(|f| f.kind.crash().is_some()));
        assert!(report.shards.iter().all(|s| s.logic_bugs == 0));
    }
}

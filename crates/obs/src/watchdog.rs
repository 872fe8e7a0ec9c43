//! The shard watchdog: a background observer that polls the live heartbeat
//! table and flags shards that have stopped making progress.
//!
//! This is the first robustness hook toward timeout/degradation handling
//! (ROADMAP): today's engines are in-process and deterministic, so a stall
//! can only come from scheduling starvation, but the campaign loop for a
//! real DBMS target will inherit this exact surface — a worker stuck on a
//! hung statement shows up as a heartbeat that stops advancing.
//!
//! The watchdog is strictly read-only over [`LiveMetrics`]: it never
//! influences shard execution or the merged report, so the
//! byte-identical-for-any-worker-count invariant is untouched. Its findings
//! land in a [`WatchdogReport`] carried on `CampaignRun` *next to* (not
//! inside) `CampaignReport` equality, alongside the wall-clock shard
//! timings.
//!
//! Between polls the watchdog thread parks until the next poll is due. The
//! campaign runner raises the stop flag and then unparks the thread, so
//! the watchdog returns as soon as the last shard is done instead of
//! holding the campaign until its current wait runs out.

use crate::live::{LiveMetrics, ShardState};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Watchdog tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// How often the heartbeat table is polled.
    pub poll_interval: Duration,
    /// A running shard whose heartbeat has not advanced for this long is
    /// reported as stalled.
    pub stall_after: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            poll_interval: Duration::from_millis(250),
            stall_after: Duration::from_secs(5),
        }
    }
}

/// One stalled-shard observation (the worst one per shard is kept).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallEvent {
    /// The stalled shard.
    pub shard: usize,
    /// Last global statement index the shard had reported.
    pub last_index: u64,
    /// How long the heartbeat had been silent when observed, in ms.
    pub stalled_ms: u64,
}

/// What the watchdog saw over the campaign, reported into `CampaignRun`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Heartbeat polls performed.
    pub polls: u64,
    /// Shards observed stalled (worst observation per shard, shard order).
    pub stalls: Vec<StallEvent>,
    /// Shards whose wall-clock runtime exceeded twice the median shard
    /// runtime — the "slow shard" skew signal. Filled in at the join from
    /// the deterministic shard timings, not from heartbeats.
    pub slow_shards: Vec<SlowShard>,
}

/// A shard that took disproportionately long relative to its siblings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowShard {
    /// The shard.
    pub shard: usize,
    /// Its wall-clock runtime in nanoseconds.
    pub nanos: u128,
    /// The median shard runtime it is compared against.
    pub median_nanos: u128,
}

impl WatchdogReport {
    /// True when the watchdog saw neither stalls nor slow shards.
    pub fn all_clear(&self) -> bool {
        self.stalls.is_empty() && self.slow_shards.is_empty()
    }

    /// One-line summary for CLI output.
    pub fn render_summary(&self) -> String {
        if self.all_clear() {
            format!("watchdog: all clear ({} polls)", self.polls)
        } else {
            format!(
                "watchdog: {} stalled shard(s), {} slow shard(s) over {} polls",
                self.stalls.len(),
                self.slow_shards.len(),
                self.polls
            )
        }
    }
}

/// Classifies slow shards from `(shard, statements, nanos)` timing rows: a
/// shard is slow when it ran more than twice the median shard runtime.
/// Plain tuples keep `soft-obs` independent of `soft-core`'s types.
pub fn classify_slow_shards(timings: &[(usize, usize, u128)]) -> Vec<SlowShard> {
    if timings.len() < 2 {
        return Vec::new();
    }
    let mut runtimes: Vec<u128> = timings.iter().map(|&(_, _, nanos)| nanos).collect();
    runtimes.sort_unstable();
    let median_nanos = runtimes[runtimes.len() / 2];
    if median_nanos == 0 {
        return Vec::new();
    }
    timings
        .iter()
        .filter(|&&(_, _, nanos)| nanos > median_nanos.saturating_mul(2))
        .map(|&(shard, _, nanos)| SlowShard { shard, nanos, median_nanos })
        .collect()
}

/// Runs the watchdog loop until `stop` is raised: polls the heartbeat table
/// every `cfg.poll_interval`, recording the worst stall observed per shard.
/// Designed to run on its own thread inside the campaign's scope; returns
/// the report for the runner to attach to `CampaignRun`. Between polls the
/// thread parks, so whoever raises `stop` should then unpark it
/// ([`std::thread::Thread::unpark`]); without the unpark, `run` still
/// returns, at the next poll deadline.
pub fn run(metrics: &LiveMetrics, stop: &AtomicBool, cfg: WatchdogConfig) -> WatchdogReport {
    let mut worst: BTreeMap<usize, StallEvent> = BTreeMap::new();
    let mut polls = 0u64;
    let stall_ms = cfg.stall_after.as_millis() as u64;
    let mut next_poll = Instant::now() + cfg.poll_interval;
    while !stop.load(Ordering::Acquire) {
        // Park until the poll is due. An unpark (shutdown) or a spurious
        // wakeup lands back here, re-checking the flag and the deadline.
        let now = Instant::now();
        if now < next_poll {
            std::thread::park_timeout(next_poll - now);
            continue;
        }
        next_poll = now + cfg.poll_interval;
        polls += 1;
        let now_ms = metrics.elapsed_ms();
        for (shard, beat) in metrics.beats().iter().enumerate() {
            if beat.state() != ShardState::Running {
                continue;
            }
            let silent_ms = now_ms.saturating_sub(beat.last_beat_ms());
            if silent_ms < stall_ms {
                continue;
            }
            let event = StallEvent { shard, last_index: beat.last_index(), stalled_ms: silent_ms };
            match worst.entry(shard) {
                std::collections::btree_map::Entry::Occupied(mut worst) => {
                    if event.stalled_ms > worst.get().stalled_ms {
                        *worst.get_mut() = event;
                    }
                }
                std::collections::btree_map::Entry::Vacant(slot) => {
                    // First stall observation for this shard: mirror it into
                    // the live event log so `/events` consumers see it as it
                    // happens (the report keeps the worst observation).
                    metrics.record_stall(shard, event.last_index, event.stalled_ms);
                    slot.insert(event);
                }
            }
        }
    }
    WatchdogReport { polls, stalls: worst.into_values().collect(), slow_shards: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn classifies_slow_shards_against_the_median() {
        // Median of [10, 10, 10, 50] (sorted, index 2) is 10; only the
        // 50ns shard exceeds 2x.
        let slow = classify_slow_shards(&[(0, 5, 10), (1, 5, 10), (2, 5, 10), (3, 5, 50)]);
        assert_eq!(slow, vec![SlowShard { shard: 3, nanos: 50, median_nanos: 10 }]);
        // Uniform timings: nothing is slow.
        assert!(classify_slow_shards(&[(0, 5, 10), (1, 5, 11)]).is_empty());
        // Single shard: no siblings to compare against.
        assert!(classify_slow_shards(&[(0, 5, 999)]).is_empty());
        // Zero-duration medians (coarse clocks) must not divide into chaos.
        assert!(classify_slow_shards(&[(0, 5, 0), (1, 5, 0), (2, 5, 7)]).is_empty());
    }

    #[test]
    fn detects_a_silent_running_shard() {
        let metrics = Arc::new(LiveMetrics::new());
        metrics.begin_campaign("DuckDB", 2, 2);
        let beats = metrics.beats();
        // Shard 0 starts and heartbeats once, then goes silent; shard 1
        // never starts (pending shards are not stalls).
        metrics.shard_started(&beats[0], 0);
        metrics.record_statement(
            &beats[0],
            7,
            None,
            crate::event::OutcomeClass::Ok,
        );
        let stop = Arc::new(AtomicBool::new(false));
        let cfg = WatchdogConfig {
            poll_interval: Duration::from_millis(10),
            stall_after: Duration::from_millis(30),
        };
        let report = std::thread::scope(|scope| {
            let handle = {
                let metrics = Arc::clone(&metrics);
                let stop = Arc::clone(&stop);
                scope.spawn(move || run(&metrics, &stop, cfg))
            };
            std::thread::sleep(Duration::from_millis(120));
            stop.store(true, Ordering::Release);
            handle.join().expect("watchdog thread")
        });
        assert!(report.polls > 0);
        assert_eq!(report.stalls.len(), 1, "stalls: {:?}", report.stalls);
        assert_eq!(report.stalls[0].shard, 0);
        assert_eq!(report.stalls[0].last_index, 7);
        assert!(report.stalls[0].stalled_ms >= 30);
        assert!(!report.all_clear());
        // The first stall observation is mirrored into the live event log.
        let (events, _) = metrics.events_since(0);
        assert!(
            events.iter().any(|l| l.contains("\"type\": \"stall\"")),
            "stall event missing from live log: {events:?}"
        );
    }

    /// Shutdown does not wait out the poll interval: with a minute between
    /// polls, raising `stop` and unparking the thread returns at once.
    #[test]
    fn stop_and_unpark_return_before_the_next_poll() {
        let metrics = LiveMetrics::new();
        metrics.begin_campaign("DuckDB", 1, 1);
        let stop = AtomicBool::new(false);
        let cfg = WatchdogConfig {
            poll_interval: Duration::from_secs(60),
            stall_after: Duration::from_secs(60),
        };
        let (report, waited) = std::thread::scope(|scope| {
            let watchdog = scope.spawn(|| run(&metrics, &stop, cfg));
            // Give the watchdog time to park, so the unpark wakes a parked
            // thread; a stop raised before it parks passes too.
            std::thread::sleep(Duration::from_millis(50));
            let stopped = Instant::now();
            stop.store(true, Ordering::Release);
            watchdog.thread().unpark();
            let report = watchdog.join().expect("watchdog thread");
            (report, stopped.elapsed())
        });
        assert!(waited < Duration::from_secs(1), "shutdown waited {waited:?}");
        assert_eq!(report.polls, 0);
    }

    #[test]
    fn a_live_shard_is_not_a_stall() {
        let metrics = Arc::new(LiveMetrics::new());
        metrics.begin_campaign("DuckDB", 1, 1);
        let stop = Arc::new(AtomicBool::new(false));
        let cfg = WatchdogConfig {
            poll_interval: Duration::from_millis(10),
            stall_after: Duration::from_millis(60),
        };
        let report = std::thread::scope(|scope| {
            let watchdog = {
                let metrics = Arc::clone(&metrics);
                let stop = Arc::clone(&stop);
                scope.spawn(move || run(&metrics, &stop, cfg))
            };
            // Keep the heartbeat fresh for ~100ms.
            let beats = metrics.beats();
            metrics.shard_started(&beats[0], 0);
            for i in 1..=10 {
                metrics.record_statement(&beats[0], i, None, crate::event::OutcomeClass::Ok);
                std::thread::sleep(Duration::from_millis(10));
            }
            metrics.shard_finished(&beats[0], 0, &soft_engine::Coverage::new());
            stop.store(true, Ordering::Release);
            watchdog.join().expect("watchdog thread")
        });
        assert!(report.stalls.is_empty(), "stalls: {:?}", report.stalls);
        assert_eq!(report.render_summary(), format!("watchdog: all clear ({} polls)", report.polls));
    }
}

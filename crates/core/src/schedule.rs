//! Feedback-driven budget scheduling: an epoch-based UCB bandit over
//! (pattern × seed-function-category) arms.
//!
//! The paper's yield tables show boundary-argument productivity is wildly
//! uneven across patterns and function categories, yet the static planner
//! spends budget round-robin. This module closes the loop the way SQLaser's
//! clause-guided scheduling and BugForge's repository-driven testing do
//! (PAPERS.md): split the statement budget into fixed epochs, score each
//! arm by its crash/logic/unique-bug yield in the epochs executed so far,
//! and reallocate the next epoch's budget toward productive arms — UCB-style
//! exploration plus a floor so no arm ever starves.
//!
//! # Determinism
//!
//! The bandit never sees a clock, a worker id, or engine-internal coverage
//! counters. Its only inputs are the deterministic merged statement events
//! of prior epochs (sorted by planned global index), so the resulting
//! allocation — and therefore the entire statement stream — is a pure
//! function of (seed, config). The campaign runner executes each epoch with
//! the same plan-then-execute shard machinery as a static campaign, which
//! is what keeps reports byte-identical at any worker count with the
//! scheduler armed.
//!
//! Rewards are intentionally *event-derived* rather than coverage-derived:
//! the merged statement events are identical under any telemetry
//! configuration (the shards record them for the scheduler when the user's
//! telemetry is off, and the merge drops them), while per-statement
//! coverage deltas are not part of that deterministic record.

use soft_engine::PatternId;
use soft_types::category::FunctionCategory;

/// The campaign's scheduling knob.
///
/// `Off` (the default) keeps the static round-robin planner: the whole
/// budget is planned in one pass, exactly as before the scheduler existed.
#[derive(Debug, Clone, Default)]
pub enum ScheduleConfig {
    /// Static round-robin planning (the default).
    #[default]
    Off,
    /// Feedback-driven epoch scheduling.
    On(ScheduleOptions),
}

impl ScheduleConfig {
    /// Adaptive scheduling with default options.
    pub fn on() -> ScheduleConfig {
        ScheduleConfig::On(ScheduleOptions::default())
    }

    /// Adaptive scheduling with a specific epoch count.
    pub fn with_epochs(epochs: usize) -> ScheduleConfig {
        ScheduleConfig::On(ScheduleOptions { epochs })
    }

    /// The options, when scheduling is on.
    pub fn options(&self) -> Option<&ScheduleOptions> {
        match self {
            ScheduleConfig::Off => None,
            ScheduleConfig::On(opts) => Some(opts),
        }
    }

    /// True when adaptive scheduling is enabled.
    pub fn is_on(&self) -> bool {
        self.options().is_some()
    }
}

/// Options for an adaptively scheduled campaign.
#[derive(Debug, Clone)]
pub struct ScheduleOptions {
    /// Number of epochs the statement budget is split into. Epoch 0 is
    /// always uniform (there is no telemetry to learn from yet).
    pub epochs: usize,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions { epochs: 8 }
    }
}

/// UCB exploration constant `c`, in thousandths (500 ⇒ c = 0.5).
const EXPLORATION_MILLI: u64 = 500;

/// Budget fraction distributed uniformly across live arms before
/// score-proportional allocation, in thousandths (250 ⇒ every live arm is
/// guaranteed at least 25% of its equal share — the no-starvation floor).
const FLOOR_MILLI: u64 = 250;

/// Per-epoch decay applied to accumulated rewards and pull counts, in
/// thousandths (500 ⇒ an epoch-old observation weighs half). Biases scores
/// toward *recent* yield.
const DECAY_MILLI: u64 = 500;

/// A scheduling arm: one generation pattern crossed with the function
/// category of the seed the generated statement mutates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArmId {
    /// The generation pattern.
    pub pattern: PatternId,
    /// The seed root function's category.
    pub category: FunctionCategory,
}

/// One arm's observed outcomes over one epoch, folded from the epoch's
/// merged statement events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArmReward {
    /// Statements executed for the arm.
    pub executed: usize,
    /// Crash outcomes.
    pub crashes: usize,
    /// Wrong-result (logic-bug) outcomes.
    pub logic_bugs: usize,
    /// Error outcomes — weak evidence the arm reaches argument validation.
    pub errors: usize,
    /// First-ever-seen fault ids (the quantity campaigns maximise).
    pub unique_bugs: usize,
    /// First-ever-seen target functions — an event-derived stand-in for
    /// coverage growth.
    pub new_functions: usize,
}

impl ArmReward {
    /// The reward value in thousandths: unique bugs dominate, repeat
    /// crashes/logic hits and newly reached functions matter, errors are a
    /// weak tiebreak.
    fn value_milli(&self) -> f64 {
        1000.0 * self.unique_bugs as f64
            + 50.0 * (self.crashes + self.logic_bugs) as f64
            + 20.0 * self.new_functions as f64
            + 1.0 * self.errors as f64
    }
}

/// The UCB bandit state across epochs.
#[derive(Debug, Clone)]
pub struct Bandit {
    /// Decayed accumulated reward per arm, in thousandths.
    reward_milli: Vec<f64>,
    /// Decayed accumulated statement count per arm.
    pulls: Vec<f64>,
    /// Number of epochs observed.
    observed_epochs: usize,
}

impl Bandit {
    /// A fresh bandit over `arms` arms.
    pub fn new(arms: usize) -> Bandit {
        Bandit {
            reward_milli: vec![0.0; arms],
            pulls: vec![0.0; arms],
            observed_epochs: 0,
        }
    }

    /// Folds one epoch's per-arm rewards in, decaying older observations
    /// first. `rewards` must be aligned with the arm order given to
    /// [`Bandit::new`].
    pub fn observe(&mut self, rewards: &[ArmReward]) {
        assert_eq!(rewards.len(), self.reward_milli.len(), "arm count mismatch");
        let decay = DECAY_MILLI as f64 / 1000.0;
        for ((reward, pulls), r) in self.reward_milli.iter_mut().zip(&mut self.pulls).zip(rewards) {
            *reward *= decay;
            *pulls *= decay;
            *reward += r.value_milli();
            *pulls += r.executed as f64;
        }
        self.observed_epochs += 1;
    }

    /// UCB score per arm: decayed mean reward per statement plus the
    /// exploration bonus `c·sqrt(ln N / n)`. Zero for every arm before the
    /// first observation (epoch 0 is uniform by construction).
    fn scores(&self) -> Vec<f64> {
        if self.observed_epochs == 0 {
            return vec![0.0; self.pulls.len()];
        }
        let total: f64 = self.pulls.iter().sum::<f64>().max(1.0);
        let c = EXPLORATION_MILLI as f64 / 1000.0;
        self.pulls
            .iter()
            .zip(&self.reward_milli)
            .map(|(&n, &r)| {
                let n = n.max(1.0);
                r / n / 1000.0 + c * (total.ln().max(0.0) / n).sqrt()
            })
            .collect()
    }

    /// The scores as scaled integers for the journal's epoch records.
    pub fn scores_milli(&self) -> Vec<i64> {
        self.scores().iter().map(|s| (s * 1000.0).round() as i64).collect()
    }

    /// Splits `budget` statements across arms: a uniform floor over every
    /// live arm (one with `available > 0`), then score-proportional
    /// largest-remainder apportionment of the rest, capped by availability.
    /// The result sums to `min(budget, Σ available)`.
    pub fn allocate(&self, budget: usize, available: &[usize]) -> Vec<usize> {
        assert_eq!(available.len(), self.pulls.len(), "arm count mismatch");
        let mut alloc = vec![0usize; available.len()];
        let live = available.iter().filter(|&&n| n > 0).count();
        if live == 0 || budget == 0 {
            return alloc;
        }
        let floor = budget * FLOOR_MILLI as usize / 1000 / live;
        let mut spent = 0;
        for (a, &avail) in available.iter().enumerate() {
            if avail > 0 {
                alloc[a] = floor.min(avail);
                spent += alloc[a];
            }
        }
        let scores = self.scores();
        let weights: Vec<f64> = scores.iter().map(|s| s.max(0.0)).collect();
        let caps: Vec<usize> =
            available.iter().zip(&alloc).map(|(&av, &al)| av - al).collect();
        let rest = apportion(budget.saturating_sub(spent), &weights, &caps);
        for (a, r) in rest.into_iter().enumerate() {
            alloc[a] += r;
        }
        alloc
    }
}

/// Deterministic capped largest-remainder apportionment: splits `total`
/// across arms proportionally to `weights`, never exceeding `caps`,
/// redistributing capped-off share to the arms still open. All-zero weights
/// degrade to uniform. Ties in remainders break by arm index.
fn apportion(total: usize, weights: &[f64], caps: &[usize]) -> Vec<usize> {
    let mut alloc = vec![0usize; weights.len()];
    let mut remaining = total.min(caps.iter().sum());
    while remaining > 0 {
        let open: Vec<usize> =
            (0..caps.len()).filter(|&a| alloc[a] < caps[a]).collect();
        if open.is_empty() {
            break;
        }
        let sum: f64 = open.iter().map(|&a| weights[a]).sum();
        let w = |a: usize| if sum > 0.0 { weights[a] / sum } else { 1.0 / open.len() as f64 };

        let mut granted = 0usize;
        let mut fractions: Vec<(usize, f64)> = Vec::with_capacity(open.len());
        for &a in &open {
            let ideal = remaining as f64 * w(a);
            let base = (ideal.floor() as usize).min(caps[a] - alloc[a]);
            alloc[a] += base;
            granted += base;
            if alloc[a] < caps[a] {
                fractions.push((a, ideal - ideal.floor()));
            }
        }
        // Leftover from flooring goes to the largest remainders, arm index
        // breaking ties.
        fractions.sort_by(|(ia, fa), (ib, fb)| {
            fb.partial_cmp(fa).unwrap_or(std::cmp::Ordering::Equal).then(ia.cmp(ib))
        });
        let mut leftover = remaining - granted.min(remaining);
        for (a, _) in fractions {
            if leftover == 0 {
                break;
            }
            if alloc[a] < caps[a] {
                alloc[a] += 1;
                granted += 1;
                leftover -= 1;
            }
        }
        let progressed = granted.min(remaining);
        remaining -= progressed;
        if progressed == 0 {
            // Every open arm rounded to zero (tiny remainder, many arms):
            // hand out one statement each in arm order.
            for a in open {
                if remaining == 0 {
                    break;
                }
                if alloc[a] < caps[a] {
                    alloc[a] += 1;
                    remaining -= 1;
                }
            }
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reward(executed: usize, unique: usize) -> ArmReward {
        ArmReward { executed, unique_bugs: unique, ..ArmReward::default() }
    }

    #[test]
    fn epoch_zero_is_uniform() {
        let b = Bandit::new(4);
        let alloc = b.allocate(100, &[100, 100, 100, 100]);
        assert_eq!(alloc, vec![25, 25, 25, 25]);
        assert!(b.scores_milli().iter().all(|&s| s == 0));
    }

    #[test]
    fn productive_arms_attract_budget_but_no_live_arm_starves() {
        let mut b = Bandit::new(3);
        b.observe(&[reward(100, 8), reward(100, 0), reward(100, 0)]);
        let alloc = b.allocate(1000, &[1000, 1000, 1000]);
        assert_eq!(alloc.iter().sum::<usize>(), 1000);
        assert!(alloc[0] > alloc[1], "winner did not attract budget: {alloc:?}");
        // FLOOR_MILLI = 250 over 3 live arms ⇒ every arm gets ≥ 83.
        let floor = 1000 * 250 / 1000 / 3;
        assert!(alloc.iter().all(|&a| a >= floor), "an arm starved: {alloc:?}");
    }

    #[test]
    fn allocation_respects_availability_and_spills() {
        let mut b = Bandit::new(3);
        b.observe(&[reward(100, 8), reward(100, 0), reward(100, 0)]);
        let alloc = b.allocate(1000, &[50, 1000, 0]);
        assert_eq!(alloc[0], 50, "cap exceeded: {alloc:?}");
        assert_eq!(alloc[2], 0, "dry arm allocated: {alloc:?}");
        assert_eq!(alloc.iter().sum::<usize>(), 1000, "spill lost budget: {alloc:?}");
    }

    #[test]
    fn allocation_is_deterministic() {
        let mut b = Bandit::new(5);
        b.observe(&[reward(50, 1), reward(50, 1), reward(50, 0), reward(50, 2), reward(50, 0)]);
        let avail = [40, 500, 500, 500, 3];
        assert_eq!(b.allocate(777, &avail), b.allocate(777, &avail));
        assert_eq!(b.scores_milli(), b.scores_milli());
    }

    #[test]
    fn decay_prefers_recent_yield() {
        let mut recent = Bandit::new(2);
        // Arm 0 was productive long ago; arm 1 is productive now.
        recent.observe(&[reward(100, 5), reward(100, 0)]);
        recent.observe(&[reward(100, 0), reward(100, 0)]);
        recent.observe(&[reward(100, 0), reward(100, 4)]);
        let scores = recent.scores_milli();
        assert!(scores[1] > scores[0], "decay did not bias to recent: {scores:?}");
    }

    #[test]
    fn apportion_handles_zero_weights_and_tiny_totals() {
        assert_eq!(apportion(3, &[0.0, 0.0], &[10, 10]), vec![2, 1]);
        assert_eq!(apportion(0, &[1.0], &[10]), vec![0]);
        assert_eq!(apportion(10, &[1.0, 1.0], &[2, 3]), vec![2, 3]);
    }

    #[test]
    fn config_knob_defaults_off() {
        assert!(!ScheduleConfig::default().is_on());
        assert!(ScheduleConfig::on().is_on());
        assert_eq!(ScheduleConfig::with_epochs(4).options().expect("on").epochs, 4);
    }
}

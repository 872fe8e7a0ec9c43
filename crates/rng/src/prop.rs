//! A deterministic, dependency-free property-testing harness.
//!
//! The workspace's property tests (`tests/property.rs` at the root) used to
//! run under `proptest`; this module replaces it so the test suite builds
//! offline. The harness keeps the three behaviours the tests relied on:
//!
//! 1. **Seeded case generation** — every case is generated from an [`Rng`]
//!    derived from `(suite seed, case index)`, so a failure report names a
//!    single `u64` that reproduces it (`SOFT_PROP_SEED` overrides the suite
//!    seed, `SOFT_PROP_CASES` the case count).
//! 2. **Shrink on failure** — a failing value is reduced through a
//!    test-supplied candidate function until no smaller candidate fails,
//!    bounded by a step budget.
//! 3. **Regression replay** — recorded failure values (the
//!    `tests/property.proptest-regressions` ledger) run *before* any fresh
//!    case, via [`Check::regressions`].
//!
//! # Examples
//!
//! ```
//! use soft_rng::prop::Check;
//!
//! Check::new("addition_commutes")
//!     .cases(64)
//!     .run(
//!         |rng| (rng.gen_range(-100..100i64), rng.gen_range(-100..100i64)),
//!         |&(a, b)| {
//!             if a + b == b + a { Ok(()) } else { Err("not commutative".into()) }
//!         },
//!     );
//! ```

use crate::{splitmix64, Rng};
use std::fmt::Debug;

/// Default number of generated cases per property.
pub const DEFAULT_CASES: u32 = 256;
/// Default shrink-step budget per failure.
pub const DEFAULT_SHRINK_STEPS: u32 = 2_000;
/// Default suite seed (any fixed value works; this one spells "soft").
pub const DEFAULT_SEED: u64 = 0x50F7_50F7_50F7_50F7;

/// A shrinker: maps a failing value to strictly "smaller" candidates.
type Shrinker<T> = Box<dyn Fn(&T) -> Vec<T>>;

/// One property check: configuration plus the run entry points.
pub struct Check<T> {
    name: &'static str,
    cases: u32,
    seed: u64,
    shrink_steps: u32,
    regressions: Vec<T>,
    shrink: Option<Shrinker<T>>,
}

impl<T: Debug + Clone> Check<T> {
    /// Starts a check with the default configuration.
    pub fn new(name: &'static str) -> Check<T> {
        Check {
            name,
            cases: DEFAULT_CASES,
            seed: DEFAULT_SEED,
            shrink_steps: DEFAULT_SHRINK_STEPS,
            regressions: Vec::new(),
            shrink: None,
        }
    }

    /// Overrides the number of generated cases.
    pub fn cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }

    /// Overrides the suite seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Values replayed before any fresh generation — the regression ledger.
    pub fn regressions(mut self, values: impl IntoIterator<Item = T>) -> Self {
        self.regressions.extend(values);
        self
    }

    /// Installs a shrinker: candidates strictly "smaller" than the input.
    /// The harness keeps the first candidate that still fails, repeatedly,
    /// under a step budget.
    pub fn shrink(mut self, shrink: impl Fn(&T) -> Vec<T> + 'static) -> Self {
        self.shrink = Some(Box::new(shrink));
        self
    }

    /// Runs the property: regressions first, then `cases` generated values.
    ///
    /// Panics with the seed, case index and (shrunk) counterexample on the
    /// first failure.
    pub fn run(
        self,
        mut gen: impl FnMut(&mut Rng) -> T,
        mut prop: impl FnMut(&T) -> Result<(), String>,
    ) {
        let seed = env_u64("SOFT_PROP_SEED").unwrap_or(self.seed);
        let cases = env_u64("SOFT_PROP_CASES").map(|n| n as u32).unwrap_or(self.cases);
        for (i, value) in self.regressions.iter().enumerate() {
            if let Err(msg) = prop(value) {
                panic!(
                    "property `{}` failed on regression case {i}: {msg}\n  value: {value:?}",
                    self.name
                );
            }
        }
        for case in 0..cases {
            // Derive the per-case stream from (seed, case) so any single
            // case replays without running its predecessors.
            let mut mix = seed ^ u64::from(case).wrapping_mul(0xA076_1D64_78BD_642F);
            let mut rng = Rng::seed_from_u64(splitmix64(&mut mix));
            let value = gen(&mut rng);
            if let Err(msg) = prop(&value) {
                let (value, msg, steps) = self.shrunk(value, msg, &mut prop);
                panic!(
                    "property `{}` failed (seed {seed:#x}, case {case}/{cases}, \
                     {steps} shrink steps): {msg}\n  counterexample: {value:?}\n  \
                     replay with SOFT_PROP_SEED={seed}",
                    self.name
                );
            }
        }
    }

    /// Reduces a failing value through the shrinker, returning the smallest
    /// still-failing value, its failure message and the steps taken.
    fn shrunk(
        &self,
        mut value: T,
        mut msg: String,
        prop: &mut impl FnMut(&T) -> Result<(), String>,
    ) -> (T, String, u32) {
        let Some(shrink) = &self.shrink else { return (value, msg, 0) };
        let mut steps = 0u32;
        'outer: while steps < self.shrink_steps {
            for candidate in shrink(&value) {
                steps += 1;
                if let Err(m) = prop(&candidate) {
                    value = candidate;
                    msg = m;
                    continue 'outer;
                }
                if steps >= self.shrink_steps {
                    break;
                }
            }
            break; // No candidate failed: local minimum.
        }
        (value, msg, steps)
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Stock shrink candidates for integers: halves towards zero, then ±1 steps.
pub fn shrink_i128(v: i128) -> Vec<i128> {
    if v == 0 {
        return vec![];
    }
    let mut out = vec![0, v / 2];
    out.push(v - v.signum());
    out.dedup();
    out.retain(|c| c.abs() < v.abs());
    out
}

/// Stock shrink candidates for strings: empty, halves, drop-one-char.
pub fn shrink_string(s: &str) -> Vec<String> {
    if s.is_empty() {
        return vec![];
    }
    let chars: Vec<char> = s.chars().collect();
    let mut out = vec![String::new(), chars[..chars.len() / 2].iter().collect()];
    for i in 0..chars.len() {
        let mut t = String::with_capacity(s.len());
        t.extend(chars[..i].iter());
        t.extend(chars[i + 1..].iter());
        out.push(t);
    }
    out.retain(|c| c.len() < s.len());
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_completes() {
        Check::new("always_true").cases(50).run(
            |rng| rng.gen_range(0..10i64),
            |v| if *v < 10 { Ok(()) } else { Err("out of range".into()) },
        );
    }

    #[test]
    fn failing_property_panics_with_counterexample() {
        let result = std::panic::catch_unwind(|| {
            Check::new("finds_big_values").cases(200).run(
                |rng| rng.gen_range(0..1000i64),
                |v| if *v < 900 { Ok(()) } else { Err("too big".into()) },
            );
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("finds_big_values"), "{msg}");
        assert!(msg.contains("counterexample"), "{msg}");
    }

    #[test]
    fn shrinking_reaches_the_boundary() {
        let result = std::panic::catch_unwind(|| {
            Check::new("shrinks_to_minimum")
                .cases(200)
                .shrink(|v| shrink_i128(*v))
                .run(
                    |rng| rng.gen_range(0..100_000i128),
                    |v| if *v < 500 { Ok(()) } else { Err(format!("{v} >= 500")) },
                );
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        // The minimal counterexample for `v < 500` is exactly 500.
        assert!(msg.contains("counterexample: 500"), "{msg}");
    }

    #[test]
    fn regressions_run_before_generation() {
        let result = std::panic::catch_unwind(|| {
            Check::new("regression_first")
                .regressions([7i128])
                .run(|rng| rng.gen_range(0..5i128), |v| {
                    if *v == 7 {
                        Err("recorded failure".into())
                    } else {
                        Ok(())
                    }
                });
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("regression case 0"), "{msg}");
    }

    #[test]
    fn string_shrinker_produces_strictly_smaller_candidates() {
        for c in shrink_string("abcdef") {
            assert!(c.len() < 6);
        }
        assert!(shrink_string("").is_empty());
    }
}

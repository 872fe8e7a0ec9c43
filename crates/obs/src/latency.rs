//! Fixed-bucket wall-clock latency histograms per pipeline stage.
//!
//! The campaign's one wall-clock stage timer is the flight recorder
//! ([`crate::span`]); [`StageLatency`] is a view of its spans. Wall-clock
//! varies run to run, so none of this enters the campaign report's
//! `PartialEq` surface.

use crate::span::SpanTrace;
use std::fmt::Write as _;
use std::time::Duration;

/// Number of histogram buckets. Bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds; the last bucket is open-ended, covering
/// everything from ~34 seconds up.
pub const BUCKETS: usize = 36;

/// A log2-bucketed latency histogram (nanosecond resolution, fixed
/// allocation, mergeable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total_ns: u128,
    samples: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { counts: [0; BUCKETS], total_ns: 0, samples: 0 }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos();
        let bucket = if ns <= 1 {
            0
        } else {
            (127 - (ns.max(1)).leading_zeros() as usize).min(BUCKETS - 1)
        };
        self.counts[bucket] += 1;
        self.total_ns += ns;
        self.samples += 1;
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Mean nanoseconds per sample (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.samples as f64
        }
    }

    /// An upper bound on the `q`-quantile (0.0–1.0), in nanoseconds: the
    /// inclusive upper edge of the bucket the quantile falls in. `None` when
    /// the histogram is empty.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.samples == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.samples as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(if i + 1 >= 64 { u64::MAX } else { (1u64 << (i + 1)) - 1 });
            }
        }
        Some(u64::MAX)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total_ns += other.total_ns;
        self.samples += other.samples;
    }

    /// The raw bucket counts (bucket `i` covers `[2^i, 2^(i+1))` ns).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.counts
    }
}

/// Per-stage latency histograms for the campaign pipeline, built from the
/// flight recorder's spans ([`StageLatency::from_spans`]).
///
/// The stages are genuinely disjoint: `parse` times each shard's prepare
/// loop (`Engine::prepare`, one parse per planned statement, by the shard
/// that runs it) and `execute` times only `Engine::execute_prepared` on the
/// already-parsed AST — no statement is parsed twice, and no parse time is
/// double-counted inside `execute`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageLatency {
    /// The campaign's planning: seed phase, case generation and interleave,
    /// one sample per `generate` span.
    pub generate: LatencyHistogram,
    /// Statement preparation (`Engine::prepare`: the parse + function
    /// resolution done once per planned statement), one sample per shard's
    /// prepare loop.
    pub parse: LatencyHistogram,
    /// Prepared-statement execution (`Engine::execute_prepared`, parse
    /// excluded), one sample per executed statement.
    pub execute: LatencyHistogram,
    /// PoC minimisation, one sample per unique finding.
    pub minimize: LatencyHistogram,
}

impl StageLatency {
    /// An empty set of stage histograms.
    pub fn new() -> StageLatency {
        StageLatency::default()
    }

    /// The histograms of a flight-recorder trace: each `generate`, `parse`,
    /// `execute` and `minimize` span is one sample of its stage, and other
    /// spans are ignored.
    pub fn from_spans(trace: &SpanTrace) -> StageLatency {
        let mut latency = StageLatency::new();
        for span in &trace.spans {
            let stage = match span.name {
                "generate" => &mut latency.generate,
                "parse" => &mut latency.parse,
                "execute" => &mut latency.execute,
                "minimize" => &mut latency.minimize,
                _ => continue,
            };
            stage.record(Duration::from_nanos(span.dur_ns));
        }
        latency
    }

    /// Renders a `stage → samples / mean / p50 / p99` table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<10} {:>10} {:>12} {:>12} {:>12}\n",
            "stage", "samples", "mean", "p50", "p99"
        );
        for (name, h) in [
            ("generate", &self.generate),
            ("parse", &self.parse),
            ("execute", &self.execute),
            ("minimize", &self.minimize),
        ] {
            let _ = writeln!(
                out,
                "{:<10} {:>10} {:>12} {:>12} {:>12}",
                name,
                h.samples(),
                fmt_ns(h.mean_ns()),
                h.quantile_ns(0.50).map_or_else(|| "-".into(), |n| fmt_ns(n as f64)),
                h.quantile_ns(0.99).map_or_else(|| "-".into(), |n| fmt_ns(n as f64)),
            );
        }
        out
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_log2_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(1)); // bucket 0
        h.record(Duration::from_nanos(3)); // bucket 1
        h.record(Duration::from_nanos(1024)); // bucket 10
        assert_eq!(h.samples(), 3);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[10], 1);
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_nanos(100));
        }
        h.record(Duration::from_micros(100));
        let p50 = h.quantile_ns(0.5).expect("non-empty");
        let p99 = h.quantile_ns(0.99).expect("non-empty");
        assert!((100..256).contains(&p50), "p50 = {p50}");
        assert!(p99 < 100_000 * 2, "p99 = {p99}");
        assert!(h.quantile_ns(1.0).expect("non-empty") >= 100_000);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        assert_eq!(LatencyHistogram::new().quantile_ns(0.5), None);
        assert_eq!(LatencyHistogram::new().mean_ns(), 0.0);
    }

    /// Pins the log₂ bucketing rule at the edges: `bucket(0) = bucket(1) =
    /// 0`; for every k, `2^k − 1` lands one bucket below `2^k`; and
    /// `u64::MAX` saturates into the open-ended last bucket.
    #[test]
    fn bucket_boundaries_are_pinned_at_the_edges() {
        let bucket_of = |ns: u64| -> usize {
            let mut h = LatencyHistogram::new();
            h.record(Duration::from_nanos(ns));
            h.buckets().iter().position(|&n| n == 1).expect("one sample, one bucket")
        };
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        for k in 1..BUCKETS as u32 {
            let pow = 1u64 << k;
            assert_eq!(bucket_of(pow), k as usize, "2^{k} must open bucket {k}");
            assert_eq!(bucket_of(pow - 1), k as usize - 1, "2^{k}-1 must close bucket {}", k - 1);
        }
        // Beyond the last closed bucket everything saturates into bucket 35:
        // 2^36, 2^63, and u64::MAX all land there.
        assert_eq!(bucket_of(1u64 << BUCKETS), BUCKETS - 1);
        assert_eq!(bucket_of(1u64 << 63), BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    /// Histogram merge is commutative and associative, so the shard join
    /// may fold timings in any order — the merged histogram is a pure
    /// function of the sample multiset.
    #[test]
    fn merge_is_commutative_and_associative_across_shard_orders() {
        // Three "shards" with deliberately different shapes, including the
        // extreme buckets.
        let shard = |samples: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &ns in samples {
                h.record(Duration::from_nanos(ns));
            }
            h
        };
        let a = shard(&[0, 1, 100, u64::MAX]);
        let b = shard(&[2, 1023, 1024]);
        let c = shard(&[7, 7, 7, 1 << 35]);
        let fold = |order: &[&LatencyHistogram]| {
            let mut acc = LatencyHistogram::new();
            for h in order {
                acc.merge(h);
            }
            acc
        };
        let abc = fold(&[&a, &b, &c]);
        // Commutativity: every permutation agrees.
        for order in [
            [&a, &c, &b],
            [&b, &a, &c],
            [&b, &c, &a],
            [&c, &a, &b],
            [&c, &b, &a],
        ] {
            assert_eq!(fold(&order), abc);
        }
        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left, abc);
        // The identity element is the empty histogram.
        let mut with_identity = LatencyHistogram::new();
        with_identity.merge(&abc);
        assert_eq!(with_identity, abc);
        assert_eq!(abc.samples(), 11);
    }

    #[test]
    fn merge_sums_counts_and_samples() {
        let mut a = LatencyHistogram::new();
        a.record(Duration::from_nanos(10));
        let mut b = LatencyHistogram::new();
        b.record(Duration::from_nanos(10));
        b.record(Duration::from_micros(5));
        a.merge(&b);
        assert_eq!(a.samples(), 3);
        assert!(a.mean_ns() > 10.0);
    }

    #[test]
    fn stages_sample_their_spans_only() {
        use crate::span::SpanRecord;
        let span = |name, dur_ns| SpanRecord { name, track: 1, start_ns: 0, dur_ns, detail: None };
        let trace = SpanTrace::merge(vec![vec![
            span("generate", 5_000),
            span("parse", 300),
            span("execute", 10),
            span("execute", 20),
            span("oracle", 40),
            span("shard", 400),
        ]]);
        let latency = StageLatency::from_spans(&trace);
        assert_eq!(latency.generate.samples(), 1);
        assert_eq!(latency.parse.samples(), 1);
        assert_eq!(latency.execute.samples(), 2);
        assert_eq!(latency.execute.mean_ns(), 15.0);
        assert_eq!(latency.minimize.samples(), 0);
    }

    #[test]
    fn stage_render_lists_all_stages() {
        let mut s = StageLatency::new();
        s.execute.record(Duration::from_micros(3));
        let text = s.render();
        for stage in ["generate", "parse", "execute", "minimize"] {
            assert!(text.contains(stage), "missing {stage} in:\n{text}");
        }
    }
}

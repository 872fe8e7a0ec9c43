//! A minimal in-tree timing harness — the workspace's `criterion`
//! replacement, so `cargo bench` needs no external crates (README.md,
//! "Hermetic build").
//!
//! Each measurement warms the closure up for a fixed wall-clock budget,
//! then times batches of iterations (batched so that sub-microsecond
//! closures are not dominated by timer overhead) and reports min / mean /
//! median / p95 nanoseconds per iteration. `finish()` prints a table and
//! writes `BENCH_<group>.json` next to the current directory (or into
//! `$SOFT_BENCH_JSON_DIR`) so runs can be diffed across PRs.
//!
//! Environment knobs: `SOFT_BENCH_WARMUP_MS`, `SOFT_BENCH_MEASURE_MS`,
//! `SOFT_BENCH_JSON_DIR`, and `SOFT_BENCH_JSON=0` to skip the JSON file.

use soft_obs::json::str_field;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Statistics for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Benchmark label, e.g. `decimal/parse_45_digits`.
    pub label: String,
    /// Total iterations measured (across all batches).
    pub iters: u64,
    /// Fastest batch, per iteration.
    pub min_ns: f64,
    /// Arithmetic mean over batches, per iteration.
    pub mean_ns: f64,
    /// Median batch, per iteration.
    pub median_ns: f64,
    /// 95th-percentile batch, per iteration.
    pub p95_ns: f64,
    /// Work items processed per iteration (e.g. statements per campaign),
    /// when the benchmark declared a throughput via [`Bench::bench_items`].
    pub items_per_iter: Option<f64>,
}

impl Sample {
    /// Throughput in items per second, from the median time per iteration.
    /// `None` unless the benchmark declared its items per iteration.
    pub fn items_per_sec(&self) -> Option<f64> {
        self.items_per_iter.filter(|_| self.median_ns > 0.0).map(|n| n / (self.median_ns / 1e9))
    }
}

/// One benchmark group: collects [`Sample`]s, then renders/serialises them.
pub struct Bench {
    group: String,
    warmup: Duration,
    measure: Duration,
    samples: Vec<Sample>,
}

impl Bench {
    /// Starts a group named like the bench binary (`substrates`, ...).
    pub fn new(group: &str) -> Bench {
        Bench {
            group: group.to_string(),
            warmup: Duration::from_millis(env_ms("SOFT_BENCH_WARMUP_MS", 50)),
            measure: Duration::from_millis(env_ms("SOFT_BENCH_MEASURE_MS", 300)),
            samples: Vec::new(),
        }
    }

    /// Overrides the warmup budget (tests use tiny budgets).
    pub fn warmup_ms(mut self, ms: u64) -> Bench {
        self.warmup = Duration::from_millis(ms);
        self
    }

    /// Overrides the measurement budget.
    pub fn measure_ms(mut self, ms: u64) -> Bench {
        self.measure = Duration::from_millis(ms);
        self
    }

    /// Measures one closure and records its sample together with its
    /// declared throughput: `items` work items are processed per iteration
    /// (statements executed per campaign, rows per pipeline run, ...), so
    /// the JSON artifact carries `items_per_sec` alongside the timings.
    pub fn bench_items<R>(&mut self, label: &str, items: u64, f: impl FnMut() -> R) -> &Sample {
        self.bench(label, f);
        let sample = self.samples.last_mut().expect("just benched");
        sample.items_per_iter = Some(items as f64);
        sample
    }

    /// Measures one closure and records its sample.
    pub fn bench<R>(&mut self, label: &str, mut f: impl FnMut() -> R) -> &Sample {
        // Warmup: also yields a cost estimate for batch sizing.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.warmup || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
            if warm_iters >= 1_000_000 {
                break;
            }
        }
        let est_ns = (warm_start.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);
        // Size batches to ~200µs so per-batch timer error is < 0.1%, while
        // keeping enough batches (aim ≥ 20) inside the measurement budget.
        let batch = ((200_000.0 / est_ns).ceil() as u64).clamp(1, 1_000_000);
        let mut per_iter_ns: Vec<f64> = Vec::new();
        let mut iters = 0u64;
        let run_start = Instant::now();
        while run_start.elapsed() < self.measure || per_iter_ns.len() < 20 {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            per_iter_ns.push(t.elapsed().as_nanos() as f64 / batch as f64);
            iters += batch;
            if per_iter_ns.len() >= 5_000 {
                break;
            }
        }
        per_iter_ns.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let n = per_iter_ns.len();
        let sample = Sample {
            label: label.to_string(),
            iters,
            min_ns: per_iter_ns[0],
            mean_ns: per_iter_ns.iter().sum::<f64>() / n as f64,
            median_ns: per_iter_ns[n / 2],
            p95_ns: per_iter_ns[(n * 95 / 100).min(n - 1)],
            items_per_iter: None,
        };
        self.samples.push(sample);
        self.samples.last().expect("just pushed")
    }

    /// Measures two closures as one drift-robust pair.
    ///
    /// Timed batches of the two sides *alternate* inside a single
    /// measurement window, so slow environment drift — thermal throttling,
    /// a noisy neighbour, frequency scaling settling under sustained load —
    /// hits both sides equally and their throughput *ratio* stays
    /// meaningful. Two sequential [`Bench::bench_items`] calls do not have
    /// that property: a few percent of monotone drift between the windows
    /// reads as a few percent of fake speedup (or slowdown), which is
    /// exactly the magnitude a regression gate cares about.
    ///
    /// Each side declares its label and items per iteration, like
    /// [`Bench::bench_items`]. Records one [`Sample`] per side (in argument
    /// order) and returns them as a pair.
    pub fn bench_pair<RA, RB>(
        &mut self,
        a: (&str, u64, &mut dyn FnMut() -> RA),
        b: (&str, u64, &mut dyn FnMut() -> RB),
    ) -> (&Sample, &Sample) {
        let (label_a, items_a, fa) = a;
        let (label_b, items_b, fb) = b;
        // Warm both sides alternately; the estimates size each side's batch
        // to ~200µs, as in `bench`.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        let mut spent_a = Duration::ZERO;
        let mut spent_b = Duration::ZERO;
        while warm_start.elapsed() < self.warmup || warm_iters == 0 {
            let t = Instant::now();
            black_box(fa());
            spent_a += t.elapsed();
            let t = Instant::now();
            black_box(fb());
            spent_b += t.elapsed();
            warm_iters += 1;
            if warm_iters >= 500_000 {
                break;
            }
        }
        let est_a = (spent_a.as_nanos() as f64 / warm_iters as f64).max(1.0);
        let est_b = (spent_b.as_nanos() as f64 / warm_iters as f64).max(1.0);
        let batch_a = ((200_000.0 / est_a).ceil() as u64).clamp(1, 1_000_000);
        let batch_b = ((200_000.0 / est_b).ceil() as u64).clamp(1, 1_000_000);
        let mut per_iter_a: Vec<f64> = Vec::new();
        let mut per_iter_b: Vec<f64> = Vec::new();
        let mut iters_a = 0u64;
        let mut iters_b = 0u64;
        // The pair shares one window of twice the single-arm budget.
        let run_start = Instant::now();
        while run_start.elapsed() < self.measure * 2 || per_iter_a.len() < 20 {
            let t = Instant::now();
            for _ in 0..batch_a {
                black_box(fa());
            }
            per_iter_a.push(t.elapsed().as_nanos() as f64 / batch_a as f64);
            iters_a += batch_a;
            let t = Instant::now();
            for _ in 0..batch_b {
                black_box(fb());
            }
            per_iter_b.push(t.elapsed().as_nanos() as f64 / batch_b as f64);
            iters_b += batch_b;
            if per_iter_a.len() >= 5_000 {
                break;
            }
        }
        let mut finish = |label: &str, per_iter: Vec<f64>, iters: u64, items: u64| {
            let mut v = per_iter;
            v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
            let n = v.len();
            self.samples.push(Sample {
                label: label.to_string(),
                iters,
                min_ns: v[0],
                mean_ns: v.iter().sum::<f64>() / n as f64,
                median_ns: v[n / 2],
                p95_ns: v[(n * 95 / 100).min(n - 1)],
                items_per_iter: Some(items as f64),
            });
        };
        finish(label_a, per_iter_a, iters_a, items_a);
        finish(label_b, per_iter_b, iters_b, items_b);
        let n = self.samples.len();
        (&self.samples[n - 2], &self.samples[n - 1])
    }

    /// The samples recorded so far.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Renders the results table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<44} {:>12} {:>12} {:>12} {:>12}\n",
            format!("bench [{}]", self.group),
            "median",
            "p95",
            "mean",
            "min"
        );
        for s in &self.samples {
            out.push_str(&format!(
                "{:<44} {:>12} {:>12} {:>12} {:>12}\n",
                s.label,
                fmt_ns(s.median_ns),
                fmt_ns(s.p95_ns),
                fmt_ns(s.mean_ns),
                fmt_ns(s.min_ns),
            ));
        }
        out
    }

    /// Serialises the samples as a `BENCH_<group>.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  {},\n", str_field("group", &self.group)));
        out.push_str("  \"results\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let throughput = match s.items_per_sec() {
                Some(rate) => format!(
                    ", \"items_per_iter\": {:.0}, \"items_per_sec\": {rate:.1}",
                    s.items_per_iter.unwrap_or(0.0)
                ),
                None => String::new(),
            };
            out.push_str(&format!(
                "    {{{}, \"iters\": {}, \"median_ns\": {:.1}, \
                 \"p95_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}{}}}{}\n",
                str_field("label", &s.label),
                s.iters,
                s.median_ns,
                s.p95_ns,
                s.mean_ns,
                s.min_ns,
                throughput,
                if i + 1 < self.samples.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Prints the table and writes the JSON artifact.
    pub fn finish(self) {
        print!("{}", self.render());
        if std::env::var("SOFT_BENCH_JSON").as_deref() == Ok("0") {
            return;
        }
        let dir = std::env::var("SOFT_BENCH_JSON_DIR").unwrap_or_else(|_| ".".into());
        let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.group));
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}

fn env_ms(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
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

    fn tiny() -> Bench {
        Bench::new("selftest").warmup_ms(1).measure_ms(5)
    }

    #[test]
    fn measures_and_orders_statistics() {
        let mut b = tiny();
        let s = b.bench("busy_loop", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(s.iters > 0);
        assert!(s.min_ns > 0.0);
        assert!(s.min_ns <= s.median_ns);
        assert!(s.median_ns <= s.p95_ns);
    }

    #[test]
    fn json_is_well_formed_enough_to_round_trip_labels() {
        let mut b = tiny();
        b.bench("a/first", || 1);
        b.bench("b/second", || 2);
        let json = b.to_json();
        assert!(json.contains("\"group\": \"selftest\""));
        assert!(json.contains("\"label\": \"a/first\""));
        assert!(json.contains("\"median_ns\""));
        // Of the two entries, only the first is comma-terminated.
        assert_eq!(json.matches("},\n").count(), 1);
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn items_throughput_is_recorded_and_serialised() {
        let mut b = tiny();
        let s = b.bench_items("campaign", 1_000, || {
            let mut acc = 0u64;
            for i in 0..500u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert_eq!(s.items_per_iter, Some(1000.0));
        let rate = s.items_per_sec().expect("throughput declared");
        assert!(rate > 0.0);
        b.bench("untimed", || 1);
        let json = b.to_json();
        assert!(json.contains("\"items_per_iter\": 1000"));
        assert!(json.contains("\"items_per_sec\""));
        // Only the throughput-declaring entry carries the fields.
        assert_eq!(json.matches("items_per_sec").count(), 1);
        // Still one comma-terminated entry of the two.
        assert_eq!(json.matches("},\n").count(), 1);
    }

    #[test]
    fn render_lists_every_sample() {
        let mut b = tiny();
        b.bench("one", || 1);
        b.bench("two", || 2);
        let table = b.render();
        assert!(table.contains("one") && table.contains("two"));
    }
}

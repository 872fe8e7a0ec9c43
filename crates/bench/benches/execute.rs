//! String path vs prepared path: statements/sec over a fixed table4-scale
//! corpus (ClickHouse + MonetDB, the Table 4 bench budget).
//!
//! The string path is the pre-split discipline — every statement re-lexed
//! and re-parsed by `Engine::execute`. The prepared path parses the corpus
//! once (`Engine::prepare`) and then executes the owned ASTs
//! (`Engine::execute_prepared`), the way every campaign shard executes its
//! statements. Both arms run on a fresh clone of the same prepared template
//! per iteration. `BENCH_execute.json` records the two rates; the `speedup`
//! line prints their ratio.

use soft_bench::Bench;
use soft_core::collect;
use soft_core::patterns::{self, GenCtx};
use soft_dialects::{DialectId, DialectProfile};
use soft_engine::{Engine, ExecOutcome, PatternId, Prepared, SqlError};
use std::collections::HashSet;
use std::hint::black_box;

/// A deterministic table4-scale statement stream: the seeds, then the
/// pattern-generated cases in pattern order, globally deduplicated and
/// truncated — the same shape the campaign planner produces at the Table 4
/// bench budget (2 000 statements, per-seed cap 8).
fn corpus(profile: &DialectProfile) -> (Engine, Vec<String>) {
    const MAX_STATEMENTS: usize = 2_000;
    const PER_SEED_CAP: usize = 8;
    let collection = collect::collect(profile);
    let ctx = GenCtx::new(&collection);
    let mut template = profile.engine();
    for stmt in &collection.preparation {
        let _ = template.execute(&stmt.to_string());
    }
    let mut seen: HashSet<String> = HashSet::new();
    let mut corpus: Vec<String> = Vec::new();
    for seed in &collection.seeds {
        let sql = seed.to_string();
        if seen.insert(sql.clone()) {
            corpus.push(sql);
        }
    }
    let mut buf = Vec::new();
    'outer: for pattern in PatternId::ALL {
        for (si, seed) in collection.seeds.iter().enumerate() {
            patterns::apply_salted(pattern, seed, &ctx, PER_SEED_CAP, si, &mut buf);
            for case in buf.drain(..) {
                if corpus.len() >= MAX_STATEMENTS {
                    break 'outer;
                }
                if seen.insert(case.sql.clone()) {
                    corpus.push(case.sql);
                }
            }
        }
    }
    (template, corpus)
}

fn count_crashes(outcome: ExecOutcome) -> usize {
    usize::from(outcome.is_crash())
}

fn main() {
    let mut b = Bench::new("execute");

    for id in [DialectId::Clickhouse, DialectId::Monetdb] {
        let (template, corpus) = corpus(&DialectProfile::build(id));
        let name = id.name();

        let string_rate = b
            .bench_items(&format!("execute/{name}/string"), corpus.len() as u64, || {
                let mut e = template.clone();
                let mut crashes = 0usize;
                for sql in &corpus {
                    crashes += count_crashes(e.execute(sql));
                }
                black_box(crashes)
            })
            .items_per_sec()
            .expect("throughput declared");

        // Parse once, outside the timed region — the campaign does this in
        // each shard's prepare loop, before the shard executes.
        let prepared: Vec<Result<Prepared, SqlError>> =
            corpus.iter().map(|sql| template.prepare(sql)).collect();

        let prepared_rate = b
            .bench_items(&format!("execute/{name}/prepared"), corpus.len() as u64, || {
                let mut e = template.clone();
                let mut crashes = 0usize;
                for p in &prepared {
                    crashes += count_crashes(match p {
                        Ok(p) => e.execute_prepared(p),
                        Err(err) => ExecOutcome::Error(err.clone()),
                    });
                }
                black_box(crashes)
            })
            .items_per_sec()
            .expect("throughput declared");

        println!("execute/{name}/speedup: {:.2}x statements/sec", prepared_rate / string_rate);
    }

    b.finish();
}

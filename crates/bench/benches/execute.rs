//! String path vs prepared path vs columnar batch path: statements/sec
//! over a fixed table4-scale corpus (ClickHouse + MonetDB, the Table 4
//! bench budget).
//!
//! The string path is the pre-split discipline — every statement re-lexed
//! and re-parsed by `Engine::execute`. The prepared path parses the corpus
//! once (`Engine::prepare`) and then executes the owned ASTs
//! (`Engine::execute_prepared`), the way every campaign shard executes its
//! statements. The batch path additionally groups the prepared corpus by
//! structural shape (`Engine::shape_key`, outside the timed region) and
//! evaluates each group as one columnar batch (`Engine::execute_batch_in`),
//! falling back to `execute_prepared` for unbatchable statements and groups
//! below `MIN_BATCH_GROUP` (plan compilation doesn't amortize there).
//! All arms run on a fresh clone of the same prepared template per
//! iteration. `BENCH_execute.json` records the three rates; the `speedup`
//! lines print the ratios, and `scripts/verify.sh` gates on
//! batch ≥ prepared. The campaign does not batch: the batch arms measure
//! the engine backend alone, which the campaign benchmark's replay calls.

use soft_bench::Bench;
use soft_core::collect;
use soft_core::patterns::{self, GenCtx};
use soft_dialects::{DialectId, DialectProfile};
use soft_engine::{BatchArena, Engine, ExecOutcome, PatternId, Prepared, ShapeKey, SqlError, MIN_BATCH_GROUP};
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

        // Shape-group the prepared corpus once, outside the timed region.
        // Groups below `MIN_BATCH_GROUP` dissolve back into the scalar
        // remainder, which keeps its original corpus order — the order the
        // prepared arm runs in, so the two arms differ only in how the grouped
        // statements execute.
        let mut shape_order: Vec<ShapeKey> = Vec::new();
        let mut shape_groups: Vec<Vec<usize>> = Vec::new();
        for (i, p) in prepared.iter().enumerate() {
            if let Some(key) = p.as_ref().ok().and_then(|p| template.shape_key(p)) {
                match shape_order.iter().position(|&k| k == key) {
                    Some(g) => shape_groups[g].push(i),
                    None => {
                        shape_order.push(key);
                        shape_groups.push(vec![i]);
                    }
                }
            }
        }
        shape_groups.retain(|g| g.len() >= MIN_BATCH_GROUP);
        let mut in_group = vec![false; prepared.len()];
        let batch_groups: Vec<Vec<&Prepared>> = shape_groups
            .iter()
            .map(|g| {
                g.iter()
                    .map(|&i| {
                        in_group[i] = true;
                        prepared[i].as_ref().expect("shape implies ok")
                    })
                    .collect()
            })
            .collect();
        let scalar_rest: Vec<&Result<Prepared, SqlError>> = prepared
            .iter()
            .enumerate()
            .filter(|&(i, _)| !in_group[i])
            .map(|(_, p)| p)
            .collect();
        let grouped: usize = batch_groups.iter().map(|g| g.len()).sum();
        println!(
            "execute/{name}/batchable: {grouped}/{} statements in {} groups",
            corpus.len(),
            batch_groups.len()
        );

        // Prepared vs batch as a drift-robust *pair*: the two closures
        // alternate inside one measurement window, so their ratio (the
        // number `scripts/verify.sh` gates on) is immune to the few percent
        // of thermal/frequency drift that accumulates across sequential
        // measurement windows.
        let (prepared_sample, batch_sample) = b.bench_pair(
            (&format!("execute/{name}/prepared"), corpus.len() as u64, &mut || {
                let mut e = template.clone();
                let mut crashes = 0usize;
                for p in &prepared {
                    crashes += count_crashes(match p {
                        Ok(p) => e.execute_prepared(p),
                        Err(err) => ExecOutcome::Error(err.clone()),
                    });
                }
                black_box(crashes)
            }),
            (&format!("execute/{name}/batch"), corpus.len() as u64, &mut || {
                let mut e = template.clone();
                let mut arena = BatchArena::new();
                let mut crashes = 0usize;
                for group in &batch_groups {
                    let outcomes =
                        e.execute_batch_in(group, &mut arena).expect("shape-keyed group");
                    crashes += outcomes.iter().filter(|o| o.is_crash()).count();
                }
                for p in &scalar_rest {
                    crashes += count_crashes(match p {
                        Ok(p) => e.execute_prepared(p),
                        Err(err) => ExecOutcome::Error(err.clone()),
                    });
                }
                black_box(crashes)
            }),
        );
        let prepared_rate = prepared_sample.items_per_sec().expect("throughput declared");
        let batch_rate = batch_sample.items_per_sec().expect("throughput declared");

        println!("execute/{name}/speedup: {:.2}x statements/sec", prepared_rate / string_rate);
        println!(
            "execute/{name}/batch-speedup: {:.2}x over prepared ({:.2}x over string)",
            batch_rate / prepared_rate,
            batch_rate / string_rate
        );

        // Kernel subset: the grouped statements only, prepared vs batch on
        // equal footing. The whole-corpus ratio above is Amdahl-limited by
        // the scalar remainder (singletons, sub-threshold groups,
        // aggregates, FROM clauses); this pair isolates what the columnar
        // kernel itself buys on the statements it actually covers.
        let grouped_stmts: Vec<&Prepared> = batch_groups.iter().flatten().copied().collect();
        let (sub_prepared, sub_batch) = b.bench_pair(
            (&format!("execute/{name}/grouped-prepared"), grouped_stmts.len() as u64, &mut || {
                let mut e = template.clone();
                let mut crashes = 0usize;
                for p in &grouped_stmts {
                    crashes += count_crashes(e.execute_prepared(p));
                }
                black_box(crashes)
            }),
            (&format!("execute/{name}/grouped-batch"), grouped_stmts.len() as u64, &mut || {
                let mut e = template.clone();
                let mut arena = BatchArena::new();
                let mut crashes = 0usize;
                for group in &batch_groups {
                    let outcomes =
                        e.execute_batch_in(group, &mut arena).expect("shape-keyed group");
                    crashes += outcomes.iter().filter(|o| o.is_crash()).count();
                }
                black_box(crashes)
            }),
        );
        let sub_prepared_rate = sub_prepared.items_per_sec().expect("throughput declared");
        let sub_batch_rate = sub_batch.items_per_sec().expect("throughput declared");
        println!(
            "execute/{name}/kernel-speedup: {:.2}x over prepared on the {} grouped statements",
            sub_batch_rate / sub_prepared_rate,
            grouped_stmts.len()
        );
    }

    b.finish();
}

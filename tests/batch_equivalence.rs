//! Scalar-equivalence property suite for columnar batch execution.
//!
//! The batch kernel's contract ([`soft_repro::engine::batch`]) is exactness:
//! for any group of same-shape prepared statements, `execute_batch_in`
//! produces what a serial `execute_prepared` walk over the group would —
//! the same outcome per member (class, rendered rows, error message, crash
//! fault id), the same coverage counters, the same crash-log growth. This
//! suite checks that contract property-style: seeded random groups drawn
//! from pattern-generated corpora across all seven dialects and all ten
//! patterns, shrunk on failure by dropping trailing group members.
//!
//! Column *names* are the one tolerated divergence: the batch path renders
//! output names once from the group representative, and no campaign surface
//! (report, oracle signature, journal) reads them — so the comparison
//! strips them before asserting outcome equality.

use soft_rng::prop::Check;
use soft_rng::splitmix64;
use soft_repro::dialects::{DialectId, DialectProfile};
use soft_repro::engine::{BatchArena, Engine, ExecOutcome, PatternId, Prepared};
use soft_repro::parser;
use soft_repro::soft::patterns::{self, GenCtx};
use soft_repro::soft::collect;

/// One dialect's shape-grouped corpus: the prepared template plus every
/// batchable shape group (including singletons) found in the generated
/// statements.
struct Corpus {
    template: Engine,
    /// Same-shape groups of prepared statements, each group non-empty.
    groups: Vec<Vec<Prepared>>,
}

fn build_corpus(id: DialectId) -> Corpus {
    let profile = DialectProfile::build(id);
    let collection = collect::collect(&profile);
    let ctx = GenCtx::new(&collection);
    let mut template = profile.engine();
    for stmt in &collection.preparation {
        let _ = template.execute(&stmt.to_string());
    }
    // Fault witnesses first (they exercise the crash demux), then cases
    // from every pattern over a few seeds.
    let mut sqls: Vec<String> = profile.faults.iter().map(|f| f.witness.clone()).collect();
    let mut buf = Vec::new();
    for pattern in PatternId::ALL {
        for (si, seed) in collection.seeds.iter().enumerate().take(6) {
            patterns::apply_salted(pattern, seed, &ctx, 3, si, &mut buf);
        }
        sqls.extend(buf.drain(..).map(|c| c.sql));
    }
    // Group by structural shape; order and membership are deterministic.
    let mut keys = Vec::new();
    let mut groups: Vec<Vec<Prepared>> = Vec::new();
    for sql in &sqls {
        let Ok(p) = template.prepare(sql) else { continue };
        let Some(key) = template.shape_key(&p) else { continue };
        match keys.iter().position(|&k| k == key) {
            Some(i) => groups[i].push(p),
            None => {
                keys.push(key);
                groups.push(vec![p]);
            }
        }
    }
    assert!(groups.len() > 10, "{}: corpus produced too few shape groups", id.name());
    Corpus { template, groups }
}

fn strip_columns(o: ExecOutcome) -> ExecOutcome {
    match o {
        ExecOutcome::Rows(mut rs) => {
            rs.columns.clear();
            ExecOutcome::Rows(rs)
        }
        other => other,
    }
}

/// One generated case: a dialect, a shape group, and a seeded selection of
/// `len` members (with replacement — batching a statement twice is legal).
type Case = (usize, usize, u64, usize);

/// Shrink by dropping trailing members, then by halving the group.
fn shrink_case(&(di, gi, seed, len): &Case) -> Vec<Case> {
    let mut out = Vec::new();
    if len > 1 {
        out.push((di, gi, seed, len - 1));
        if len > 2 {
            out.push((di, gi, seed, len / 2));
        }
    }
    out
}

/// The property: for a random same-shape member selection, the batch path
/// and a serial `execute_prepared` walk agree member for member — outcome
/// (modulo column names), coverage counters, and crash-log growth.
#[test]
fn batch_path_is_equivalent_to_serial_prepared_execution() {
    let corpora: Vec<Corpus> = DialectId::ALL.iter().map(|&id| build_corpus(id)).collect();

    Check::new("batch_path_is_equivalent_to_serial_prepared_execution")
        .cases(1000)
        .shrink(shrink_case)
        .run(
            |rng| {
                (
                    rng.gen_range(0..DialectId::ALL.len()),
                    rng.next_u64() as usize,
                    rng.next_u64(),
                    rng.gen_range(1usize..6),
                )
            },
            |&(di, gi, seed, len)| {
                let corpus = &corpora[di];
                let group = &corpus.groups[gi % corpus.groups.len()];
                let mut pick = seed;
                let members: Vec<&Prepared> = (0..len)
                    .map(|_| &group[(splitmix64(&mut pick) as usize) % group.len()])
                    .collect();

                // Serial reference: execute_prepared in member order, no
                // restore between crashes — the kernel's exactness target.
                let mut serial = corpus.template.clone();
                let expected: Vec<ExecOutcome> = members
                    .iter()
                    .map(|p| strip_columns(serial.execute_prepared(p)))
                    .collect();

                // Batch path on a fresh clone, with a reused arena.
                let mut batched = corpus.template.clone();
                let mut arena = BatchArena::new();
                let Some(outcomes) = batched.execute_batch_in(&members, &mut arena) else {
                    return Err("shape-keyed group was rejected by the batch kernel".into());
                };
                let got: Vec<ExecOutcome> = outcomes.into_iter().map(strip_columns).collect();

                if got != expected {
                    let divergent = got
                        .iter()
                        .zip(&expected)
                        .position(|(g, e)| g != e)
                        .expect("lengths equal, some member differs");
                    return Err(format!(
                        "member {divergent} ({}) diverged:\n  serial: {:?}\n  batch:  {:?}",
                        members[divergent].statement(),
                        expected[divergent],
                        got[divergent],
                    ));
                }
                if serial.coverage().functions_triggered()
                    != batched.coverage().functions_triggered()
                    || serial.coverage().branches_covered()
                        != batched.coverage().branches_covered()
                {
                    return Err(format!(
                        "coverage diverged: serial {}f/{}b, batch {}f/{}b",
                        serial.coverage().functions_triggered(),
                        serial.coverage().branches_covered(),
                        batched.coverage().functions_triggered(),
                        batched.coverage().branches_covered(),
                    ));
                }
                if serial.crash_log().len() != batched.crash_log().len() {
                    return Err(format!(
                        "crash log diverged: serial {} entries, batch {}",
                        serial.crash_log().len(),
                        batched.crash_log().len(),
                    ));
                }
                Ok(())
            },
        );
}

/// The demux attributes a mid-batch crash to the right member and leaves
/// its neighbours' outcomes untouched: a group of honest statements with
/// one fault witness spliced into the middle crashes exactly there.
#[test]
fn mid_batch_crash_is_attributed_to_the_crashing_member() {
    for id in DialectId::ALL {
        let profile = DialectProfile::build(id);
        let Some(fault) = profile.faults.first() else { continue };
        let collection = collect::collect(&profile);
        let mut template = profile.engine();
        for stmt in &collection.preparation {
            let _ = template.execute(&stmt.to_string());
        }
        let witness = template.prepare(&fault.witness).expect("witness parses");
        if template.shape_key(&witness).is_none() {
            continue;
        }
        // Identical members share a shape trivially; whether the fault
        // fires for one, all, or none of them, the batch must mirror the
        // serial walk outcome for outcome and crash for crash.
        let members = vec![&witness, &witness, &witness];
        let mut engine = template.clone();
        let outcomes = engine.execute_batch(&members).expect("witness group batches");
        let mut serial = template.clone();
        let expected: Vec<ExecOutcome> =
            members.iter().map(|p| strip_columns(serial.execute_prepared(p))).collect();
        let got: Vec<ExecOutcome> = outcomes.into_iter().map(strip_columns).collect();
        assert_eq!(got, expected, "{}: crash demux diverged", id.name());
        assert_eq!(
            serial.crash_log().len(),
            engine.crash_log().len(),
            "{}: crash log growth diverged",
            id.name()
        );
    }
}

/// Campaign-level recovery pin: after a batched crash the shard restores
/// the template snapshot without re-executing the batch prefix — observable
/// as the batch-on campaign reproducing the scalar campaign's findings,
/// indices included, on a corpus guaranteed to crash mid-shard.
#[test]
fn batched_crash_recovery_matches_scalar_recovery() {
    use soft_repro::soft::campaign::{run_soft_parallel, CampaignConfig};
    let profile = DialectProfile::build(DialectId::Clickhouse);
    let mk = |batch| CampaignConfig {
        max_statements: 20_000,
        per_seed_cap: 16,
        batch,
        ..CampaignConfig::default()
    };
    let scalar = run_soft_parallel(&profile, &mk(false), 1);
    let batched = run_soft_parallel(&profile, &mk(true), 1);
    assert!(!scalar.findings.is_empty(), "corpus must crash for this pin to bite");
    assert_eq!(scalar, batched);
    for (a, b) in scalar.findings.iter().zip(&batched.findings) {
        assert_eq!(a.fault_id, b.fault_id);
        assert_eq!(a.statements_until_found, b.statements_until_found);
    }
}

/// Shape keys fold spelling but split structure — pinned here at the
/// public-API level (the engine unit tests pin the kernel-internal view).
#[test]
fn shape_keys_group_case_variants_and_split_structures() {
    let profile = DialectProfile::build(DialectId::Postgres);
    let engine = profile.engine();
    let key = |sql: &str| {
        let p = engine.prepare(sql).expect("parses");
        engine.shape_key(&p)
    };
    let a = key("SELECT UPPER('x')").expect("batchable");
    let b = key("select upper('boundary')").expect("batchable");
    assert_eq!(a, b, "case-variant spellings of one shape must share a key");
    let c = key("SELECT LOWER('x')").expect("batchable");
    assert_ne!(a, c, "different functions are different shapes");
    let d = key("SELECT UPPER(LOWER('x'))").expect("batchable");
    assert_ne!(a, d, "nesting changes the shape");
    assert_eq!(key("SELECT rand()"), None, "volatile functions never batch");
    assert_eq!(key("SELECT a FROM t1"), None, "row-reading statements never batch");
    let _ = parser::parse_statement("SELECT 1").expect("parser reachable from this test");
}

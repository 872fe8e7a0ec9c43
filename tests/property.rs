//! Property-based tests over the core invariants, on the in-tree
//! deterministic harness (`soft_rng::prop`).
//!
//! The recorded counterexamples from the retired
//! `tests/property.proptest-regressions` ledger are replayed explicitly via
//! `Check::regressions` before any fresh generation.

use soft_rng::prop::{shrink_string, Check};
use soft_rng::Rng;
use soft_repro::engine::Engine;
use soft_repro::types::decimal::Decimal;

fn i128_to_dec(v: i128) -> Decimal {
    Decimal::from_i128(v)
}

/// A printable Unicode char, biased towards ASCII but covering multi-byte
/// planes (the proptest `\PC` class these tests were written against).
fn gen_char(rng: &mut Rng) -> char {
    loop {
        let cp = match rng.gen_range(0..10u32) {
            0..=5 => rng.gen_range(0x20..0x7Fu32),
            6 => rng.gen_range(0xA0..0x300u32),
            7 => rng.gen_range(0x300..0x2000u32),
            8 => rng.gen_range(0x2000..0xD800u32),
            _ => rng.gen_range(0xE000..0x1_0000u32),
        };
        if let Some(c) = char::from_u32(cp) {
            if !c.is_control() {
                return c;
            }
        }
    }
}

fn gen_text(rng: &mut Rng, max_len: usize) -> String {
    let len = rng.gen_range(0..max_len + 1);
    (0..len).map(|_| gen_char(rng)).collect()
}

fn gen_word(rng: &mut Rng, alphabet: &[u8], min_len: usize, max_len: usize) -> String {
    let len = rng.gen_range(min_len..max_len + 1);
    (0..len).map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char).collect()
}

/// Decimal integer arithmetic agrees with the i128 oracle.
#[test]
fn decimal_add_matches_i128() {
    Check::new("decimal_add_matches_i128").run(
        |rng| {
            (
                rng.gen_range(-10_000_000_000i128..10_000_000_000),
                rng.gen_range(-10_000_000_000i128..10_000_000_000),
            )
        },
        |&(a, b)| {
            let d = i128_to_dec(a).checked_add(&i128_to_dec(b)).unwrap();
            if d.to_string() == (a + b).to_string() {
                Ok(())
            } else {
                Err(format!("{a} + {b} gave {d}"))
            }
        },
    );
}

#[test]
fn decimal_mul_matches_i128() {
    Check::new("decimal_mul_matches_i128").run(
        |rng| (rng.gen_range(-1_000_000i128..1_000_000), rng.gen_range(-1_000_000i128..1_000_000)),
        |&(a, b)| {
            let d = i128_to_dec(a).checked_mul(&i128_to_dec(b)).unwrap();
            if d.to_string() == (a * b).to_string() {
                Ok(())
            } else {
                Err(format!("{a} * {b} gave {d}"))
            }
        },
    );
}

#[test]
fn decimal_rem_matches_i128() {
    Check::new("decimal_rem_matches_i128").run(
        |rng| (rng.gen_range(-1_000_000i128..1_000_000), rng.gen_range(1i128..10_000)),
        |&(a, b)| {
            let d = i128_to_dec(a).checked_rem(&i128_to_dec(b)).unwrap();
            if d.to_string() == (a % b).to_string() {
                Ok(())
            } else {
                Err(format!("{a} % {b} gave {d}"))
            }
        },
    );
}

/// Decimal parse/display round-trips through canonical text.
#[test]
fn decimal_string_roundtrip() {
    Check::new("decimal_string_roundtrip").run(
        |rng| {
            let int_digits = rng.gen_range(1usize..30);
            let frac_digits = rng.gen_range(0usize..20);
            let neg = rng.gen_bool(0.5);
            let seed = rng.next_u64();
            let mut state = seed;
            let mut digit = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (b'0' + ((state >> 33) % 10) as u8) as char
            };
            let mut s = String::new();
            if neg {
                s.push('-');
            }
            // Leading digit non-zero so the text is canonical.
            s.push((b'1' + ((seed >> 7) % 9) as u8) as char);
            for _ in 1..int_digits {
                s.push(digit());
            }
            if frac_digits > 0 {
                s.push('.');
                for _ in 0..frac_digits {
                    s.push(digit());
                }
            }
            s
        },
        |s| {
            let d: Decimal = s.parse().unwrap();
            if d.to_string() == *s {
                Ok(())
            } else {
                Err(format!("parsed back as {d}"))
            }
        },
    );
}

/// Decimal ordering is consistent with f64 ordering on small values.
#[test]
fn decimal_cmp_consistent_with_f64() {
    Check::new("decimal_cmp_consistent_with_f64").run(
        |rng| (rng.gen_range(-1000.0f64..1000.0), rng.gen_range(-1000.0f64..1000.0)),
        |&(a, b)| {
            let da = Decimal::from_f64(a).unwrap();
            let db = Decimal::from_f64(b).unwrap();
            if (a - b).abs() > 1e-6 && (da < db) != (a < b) {
                return Err(format!("cmp({da}, {db}) disagrees with cmp({a}, {b})"));
            }
            Ok(())
        },
    );
}

/// JSON parse → serialize → parse is a fixpoint.
#[test]
fn json_roundtrip() {
    use soft_repro::types::json::{self, JsonValue};
    fn build(depth: usize, state: &mut u64) -> JsonValue {
        let mut next = || {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(99991);
            (*state >> 33) as usize
        };
        if depth == 0 {
            match next() % 4 {
                0 => JsonValue::Null,
                1 => JsonValue::Bool(next() % 2 == 0),
                2 => JsonValue::Number((next() % 100000).to_string()),
                _ => JsonValue::String(format!("s{}", next() % 1000)),
            }
        } else {
            match next() % 2 {
                0 => JsonValue::Array((0..next() % 4).map(|_| build(depth - 1, state)).collect()),
                _ => JsonValue::Object(
                    (0..next() % 4).map(|i| (format!("k{i}"), build(depth - 1, state))).collect(),
                ),
            }
        }
    }
    Check::new("json_roundtrip").run(
        |rng| (rng.gen_range(0usize..4), rng.next_u64()),
        |&(depth, seed)| {
            let mut state = seed;
            let v = build(depth, &mut state);
            let text = v.to_json_string();
            match json::parse(&text) {
                Ok(re) if re == v => Ok(()),
                Ok(re) => Err(format!("reparsed {text} as {re:?}")),
                Err(e) => Err(format!("failed to reparse {text}: {e:?}")),
            }
        },
    );
}

/// The JSONL readers under seeded mutation (their share of the self-fuzzing
/// gate). A window of three consecutive lines of a scheduled, telemetry-on
/// journal or of a bundle's `meta.json` has one line mutated: a byte
/// overwritten by a structural byte, an escape's `u`, a raw U+0001 or a
/// stray UTF-8 lead byte; a byte deleted; the line truncated; a
/// `"key": value` pair repeated; or a lone-surrogate or signed `\u` escape
/// inserted. The readers never panic; whatever the strict `TraceFile::parse`
/// accepts, `parse_lenient` accepts with no line skipped and the same trace;
/// and an accepted trace re-serialises to itself.
#[test]
fn record_readers_survive_mutated_lines() {
    use soft_repro::dialects::{DialectId, DialectProfile};
    use soft_repro::obs::{Bundle, TraceFile};
    use soft_repro::soft::campaign::{run_soft_parallel, CampaignConfig};
    use soft_repro::soft::{ScheduleConfig, ScheduleOptions, TelemetryConfig};

    let profile = DialectProfile::build(DialectId::Clickhouse);
    let cfg = CampaignConfig {
        max_statements: 600,
        per_seed_cap: 8,
        telemetry: TelemetryConfig::with_interval(100),
        schedule: ScheduleConfig::On(ScheduleOptions { epochs: 3 }),
        ..CampaignConfig::default()
    };
    let report = run_soft_parallel(&profile, &cfg, 1);
    let journal = report
        .telemetry
        .as_ref()
        .expect("telemetry is on")
        .to_trace(Some(profile.id.name()), report.statements_executed)
        .to_jsonl();
    assert!(journal.contains("\"type\": \"epoch\""), "the journal has no epoch record");
    let meta = Bundle {
        fault_id: "logic-multiform-tostring".into(),
        dialect: "ClickHouse".into(),
        kind: "LOGIC".into(),
        stage: "execution".into(),
        category: "Casting".into(),
        credited_pattern: "P1.2".into(),
        found_by_pattern: "P1.2".into(),
        function: Some("toString".into()),
        seed_function: None,
        bucket: "clickhouse/execution/LOGIC/toString".into(),
        statements_until_found: 1234,
        fixed: false,
        oracle: Some("multi-form".into()),
        expected: Some("\"42\"\t\\é".into()),
        actual: Some("42.0\u{1}🦀".into()),
        replay: "repro replay findings/logic-multiform-tostring".into(),
        poc: String::new(),
        original: String::new(),
    }
    .render_meta();
    let sources: Vec<Vec<String>> =
        [journal, meta].iter().map(|t| t.lines().map(str::to_string).collect()).collect();

    Check::<String>::new("record_readers_survive_mutated_lines")
        .cases(20_000)
        .shrink(|s| shrink_string(s))
        .run(
            |rng| {
                let lines = &sources[rng.gen_range(0..sources.len())];
                let start = rng.gen_range(0..lines.len());
                let mut window = lines[start..lines.len().min(start + 3)].to_vec();
                let victim = rng.gen_range(0..window.len());
                window[victim] = mutate_record(rng, &window[victim]);
                window.join("\n")
            },
            |text| {
                let Ok(trace) = TraceFile::parse(text) else {
                    let _ = TraceFile::parse_lenient(text);
                    return Ok(());
                };
                match TraceFile::parse_lenient(text) {
                    Ok((lenient, 0)) if lenient == trace => {}
                    other => return Err(format!("strict parse accepted, lenient gave {other:?}")),
                }
                match TraceFile::parse(&trace.to_jsonl()) {
                    Ok(again) if again == trace => Ok(()),
                    other => Err(format!("the re-serialised trace reads back as {other:?}")),
                }
            },
        );
}

/// One mutation of a flat JSON record line (see
/// `record_readers_survive_mutated_lines`).
fn mutate_record(rng: &mut Rng, line: &str) -> String {
    const BYTES: [u8; 10] = [b'"', b'\\', b'{', b'}', b'[', b',', b':', b'u', 0x01, 0xc3];
    const ESCAPES: [&str; 3] = ["\\ud83e", "\\udd80", "\\u+abc"];
    let mut bytes = line.as_bytes().to_vec();
    let at = rng.gen_range(0..bytes.len().max(1));
    match rng.gen_range(0..5u32) {
        0 if !bytes.is_empty() => bytes[at] = *rng.choose(&BYTES).expect("bytes"),
        1 if !bytes.is_empty() => {
            bytes.remove(at);
        }
        2 => bytes.truncate(at),
        3 => {
            // The pairs start after the `{` and after each `, "` separator.
            let starts: Vec<usize> =
                std::iter::once(1).chain(line.match_indices(", \"").map(|(i, _)| i + 2)).collect();
            let k = rng.gen_range(0..starts.len());
            let end = starts.get(k + 1).map_or(line.len().saturating_sub(1), |&next| next - 2);
            if let (Some(pair), Some(head)) =
                (line.get(starts[k]..end), line.get(..line.len().saturating_sub(1)))
            {
                return format!("{head}, {pair}}}");
            }
        }
        _ => {
            // After a quote, so the escape usually lands inside a string.
            let quotes: Vec<usize> = line.match_indices('"').map(|(i, _)| i + 1).collect();
            if let Some(&q) = rng.choose(&quotes) {
                let escape = rng.choose(&ESCAPES).expect("escapes").as_bytes();
                bytes.splice(q..q, escape.iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The parser's printer is an inverse: parse(print(parse(sql))) == parse(sql).
#[test]
fn parser_print_roundtrip() {
    Check::new("parser_print_roundtrip").run(
        |rng| {
            (
                rng.gen_range(0usize..5),
                gen_word(rng, b"abcdefghijklmnopqrstuvwxyz", 1, 6),
                rng.gen_range(0i64..100000),
            )
        },
        |(n, s, num)| {
            let candidates = [
                format!("SELECT {num} + LENGTH('{s}')"),
                format!("SELECT f{n}('{s}', {num}, NULL)"),
                format!("SELECT UPPER('{s}') FROM t WHERE a > {num} ORDER BY a LIMIT {}", n + 1),
                format!("SELECT CAST({num} AS TEXT) UNION SELECT '{s}'"),
                format!("SELECT CASE WHEN a = {num} THEN '{s}' ELSE NULL END FROM t"),
            ];
            for sql in candidates {
                let s1 = soft_repro::parser::parse_statement(&sql).unwrap();
                let printed = s1.to_string();
                let s2 = soft_repro::parser::parse_statement(&printed).unwrap();
                if s1 != s2 {
                    return Err(format!("{sql} printed as {printed} parses differently"));
                }
            }
            Ok(())
        },
    );
}

/// The engine never panics: arbitrary byte soup either errors or runs.
#[test]
fn engine_never_panics_on_garbage() {
    Check::new("engine_never_panics_on_garbage")
        // From the retired proptest-regressions ledger: an unterminated
        // string whose escape swallows a multi-byte char.
        .regressions(["'\\\u{FFFC}".to_string()])
        .shrink(|s| shrink_string(s))
        .run(
            |rng| gen_text(rng, 80),
            |sql| {
                let mut e = Engine::with_default_functions(Default::default());
                let _ = e.execute(sql);
                Ok(())
            },
        );
}

/// The engine never panics on function calls with wild arguments, and a
/// fault-free engine never reports a crash.
#[test]
fn reference_engine_never_crashes() {
    Check::new("reference_engine_never_crashes")
        // From the retired proptest-regressions ledger: a backslash escape
        // ending the literal just before the closing quote.
        .regressions([("a_".to_string(), "\\\u{1940}".to_string(), 0i64)])
        .run(
            |rng| {
                (
                    gen_word(rng, b"abcdefghijklmnopqrstuvwxyz_", 2, 12),
                    gen_text(rng, 20),
                    rng.next_u64() as i64,
                )
            },
            |(name, arg1, n)| {
                let mut e = Engine::with_default_functions(Default::default());
                let arg1 = arg1.replace('\'', "");
                for sql in [
                    format!("SELECT {name}('{arg1}')"),
                    format!("SELECT {name}({n})"),
                    format!("SELECT {name}('{arg1}', {n})"),
                    format!("SELECT UPPER({name}(NULL))"),
                ] {
                    let out = e.execute(&sql);
                    if out.is_crash() {
                        return Err(format!("{sql} crashed: {out:?}"));
                    }
                }
                Ok(())
            },
        );
}

/// Prepared execution is observationally identical to one-shot execution:
/// for cases generated by all ten patterns on all seven dialect profiles
/// (plus every fault witness), `prepare` + `execute_prepared` produces the
/// exact same `ExecOutcome` as `execute` — including crash classification,
/// fault ids, and the coverage the statement records.
#[test]
fn prepared_execution_matches_string_execution_on_pattern_cases() {
    use soft_repro::dialects::{DialectId, DialectProfile};
    use soft_repro::engine::{ExecOutcome, PatternId};
    use soft_repro::soft::patterns::GenCtx;
    use soft_repro::soft::{collect, patterns};

    struct Corpus {
        template: Engine,
        cases: Vec<String>,
    }
    let corpora: Vec<Corpus> = DialectId::ALL
        .iter()
        .map(|&id| {
            let profile = DialectProfile::build(id);
            let collection = collect::collect(&profile);
            let ctx = GenCtx::new(&collection);
            let mut template = profile.engine();
            for stmt in &collection.preparation {
                let _ = template.execute(&stmt.to_string());
            }
            let mut cases: Vec<String> =
                profile.faults.iter().map(|f| f.witness.clone()).collect();
            let mut buf = Vec::new();
            for pattern in PatternId::ALL {
                for (si, seed) in collection.seeds.iter().enumerate().take(4) {
                    patterns::apply_salted(pattern, seed, &ctx, 2, si, &mut buf);
                }
                cases.extend(buf.drain(..).map(|c| c.sql));
            }
            Corpus { template, cases }
        })
        .collect();

    Check::new("prepared_execution_matches_string_execution").cases(600).run(
        |rng| (rng.gen_range(0..DialectId::ALL.len()), rng.next_u64() as usize),
        |&(di, ci)| {
            let corpus = &corpora[di];
            let sql = &corpus.cases[ci % corpus.cases.len()];
            let mut string_path = corpus.template.clone();
            let mut prepared_path = corpus.template.clone();
            let expected = string_path.execute(sql);
            let got = match prepared_path.prepare(sql) {
                Ok(p) => prepared_path.execute_prepared(&p),
                Err(e) => ExecOutcome::Error(e),
            };
            if got != expected {
                return Err(format!("{sql}: string path {expected:?}, prepared path {got:?}"));
            }
            let same_coverage = string_path.coverage().functions_triggered()
                == prepared_path.coverage().functions_triggered()
                && string_path.coverage().branches_covered()
                    == prepared_path.coverage().branches_covered();
            if !same_coverage {
                return Err(format!("{sql}: the two paths recorded different coverage"));
            }
            Ok(())
        },
    );
}

/// Boundary pool values never break the *parser* when substituted
/// anywhere a generated statement puts them.
#[test]
fn generated_cases_always_reparse() {
    Check::new("generated_cases_always_reparse").run(
        |rng| rng.gen_range(0usize..24),
        |&idx| {
            let pool = soft_repro::soft::pool::boundary_literals();
            let b = &pool[idx % pool.len()];
            let sql = format!("SELECT f({b}, g({b}))");
            let stmt = soft_repro::parser::parse_statement(&sql).unwrap();
            if soft_repro::parser::parse_statement(&stmt.to_string()).unwrap() == stmt {
                Ok(())
            } else {
                Err(format!("{sql} does not reparse to itself"))
            }
        },
    );
}

/// Casting is total: it returns Ok or Err but never panics, for every
/// (value, target) pair.
#[test]
fn casting_is_total() {
    Check::new("casting_is_total").run(
        |rng| (rng.next_u64() as i64, gen_text(rng, 24), rng.gen_range(0usize..15)),
        |(n, s, t)| {
            use soft_repro::types::cast;
            use soft_repro::types::prelude::*;
            let targets = DataType::CASTABLE;
            let to = targets[t % targets.len()];
            for v in [Value::Integer(*n), Value::Text(s.clone()), Value::Null, Value::Star] {
                for mode in [CastMode::Explicit, CastMode::Implicit] {
                    for strict in [CastStrictness::Strict, CastStrictness::Lenient] {
                        let _ = cast::cast(&v, to, mode, strict, &CastLimits::default());
                    }
                }
            }
            Ok(())
        },
    );
}

/// Every statement the ten generation patterns emit round-trips through the
/// parser: `parse(display(parse(sql)))` is the same AST. The campaign feeds
/// pattern output straight into `Engine::execute`, so a printable-but-
/// unreparsable case would silently change what the minimizer and the PoC
/// ledger reproduce.
#[test]
fn pattern_generated_cases_roundtrip_through_the_parser() {
    use soft_repro::dialects::{DialectId, DialectProfile};
    use soft_repro::engine::fault::PatternId;
    use soft_repro::soft::collect::collect;
    use soft_repro::soft::patterns::{apply_salted, GenCtx};

    // Pre-generate a bounded corpus: a few seeds per pattern, all ten
    // patterns, from the dialect with the largest seed corpus.
    let profile = DialectProfile::build(DialectId::Virtuoso);
    let collection = collect(&profile);
    let ctx = GenCtx::new(&collection);
    let mut cases = Vec::new();
    for pattern in PatternId::ALL {
        for (si, seed) in collection.seeds.iter().take(6).enumerate() {
            apply_salted(pattern, seed, &ctx, 4, si, &mut cases);
        }
    }
    assert!(cases.len() > 100, "corpus too small: {}", cases.len());
    for pattern in PatternId::ALL {
        assert!(
            cases.iter().any(|c| c.pattern == pattern),
            "no cases from {}",
            pattern.label()
        );
    }

    Check::new("pattern_generated_cases_roundtrip_through_the_parser").cases(256).run(
        |rng| rng.gen_range(0usize..cases.len()),
        |&idx| {
            let case = &cases[idx % cases.len()];
            let ast = soft_repro::parser::parse_statement(&case.sql)
                .map_err(|e| format!("[{}] {} does not parse: {e:?}", case.pattern, case.sql))?;
            let printed = ast.to_string();
            let reparsed = soft_repro::parser::parse_statement(&printed)
                .map_err(|e| format!("[{}] print of {} does not reparse: {e:?}", case.pattern, case.sql))?;
            if reparsed == ast {
                Ok(())
            } else {
                Err(format!("[{}] {} printed as {printed} parses differently", case.pattern, case.sql))
            }
        },
    );
}

#[test]
fn campaign_is_deterministic_across_runs() {
    use soft_repro::dialects::{DialectId, DialectProfile};
    use soft_repro::soft::campaign::{run_soft_parallel, CampaignConfig};
    let profile = DialectProfile::build(DialectId::Postgres);
    let cfg = CampaignConfig { max_statements: 4_000, per_seed_cap: 8, ..CampaignConfig::default() };
    let a = run_soft_parallel(&profile, &cfg, 1);
    let b = run_soft_parallel(&profile, &cfg, 1);
    assert_eq!(a, b);
}

/// Ternary Logic Partitioning holds on the reference engine for random
/// predicates: the §8 correctness-oracle extension, used here as a deep
/// test of three-valued logic in the evaluator.
#[test]
fn tlp_holds_for_random_predicates() {
    use soft_repro::soft::extend::{tlp_check, TlpOutcome};
    Check::new("tlp_holds_for_random_predicates").cases(64).run(
        |rng| {
            (
                rng.gen_range(0usize..2),
                rng.gen_range(0usize..6),
                rng.gen_range(-3i64..8),
                rng.gen_range(0usize..4),
                rng.gen_range(0usize..3),
            )
        },
        |&(col, cmp, lit, wrap, combine)| {
            let mut e = Engine::with_default_functions(Default::default());
            e.execute("CREATE TABLE p (a INTEGER, b TEXT)");
            e.execute(
                "INSERT INTO p VALUES (1, 'x'), (2, NULL), (NULL, 'y'), (4, 'z'), (0, ''), (NULL, NULL)",
            );
            let col = ["a", "b"][col];
            let op = ["=", "<>", "<", "<=", ">", ">="][cmp];
            let lhs = match wrap {
                0 => col.to_string(),
                1 => format!("COALESCE({col}, 0)"),
                2 => format!("LENGTH({col})"),
                _ => format!("ABS(COALESCE({col}, -1))"),
            };
            let base_pred = format!("{lhs} {op} {lit}");
            let pred = match combine {
                0 => base_pred,
                1 => format!("{base_pred} AND a IS NOT NULL"),
                _ => format!("{base_pred} OR b = 'x'"),
            };
            match tlp_check(&mut e, "SELECT a, b FROM p", &pred) {
                TlpOutcome::Consistent | TlpOutcome::Inconclusive => Ok(()),
                TlpOutcome::Violation(v) => Err(format!("TLP violation: {v:?}")),
            }
        },
    );
}

/// The uncapped repeated-prefix scan `boundary::repeated_prefix_run` ran
/// before the capped one replaced it: the reference the capped scan and
/// `class_bits` are checked against.
fn reference_prefix_run(s: &str) -> usize {
    let bytes = s.as_bytes();
    let mut best = 1;
    for plen in 1..=4usize {
        if bytes.len() < plen * 2 {
            break;
        }
        let prefix = &bytes[..plen];
        let mut count = 1;
        let mut i = plen;
        while i + plen <= bytes.len() && &bytes[i..i + plen] == prefix {
            count += 1;
            i += plen;
        }
        best = best.max(count);
    }
    best
}

/// The classes of a text under the uncapped scan, as a `class_bits` mask.
fn reference_text_bits(s: &str) -> u32 {
    use soft_repro::types::boundary::{looks_structured, BoundaryClass, CLASS_TABLE};
    let mut classes = Vec::new();
    if s.is_empty() {
        classes.push(BoundaryClass::EmptyString);
    }
    match s.len() {
        0..=255 => {}
        256..=4095 => classes.push(BoundaryClass::LongString(256)),
        4096..=65535 => classes.push(BoundaryClass::LongString(4096)),
        _ => classes.push(BoundaryClass::LongString(65536)),
    }
    match reference_prefix_run(s) {
        0..=7 => {}
        8..=63 => classes.push(BoundaryClass::RepeatedPrefix(8)),
        64..=511 => classes.push(BoundaryClass::RepeatedPrefix(64)),
        _ => classes.push(BoundaryClass::RepeatedPrefix(512)),
    }
    if looks_structured(s) {
        classes.push(BoundaryClass::StructuredText);
    }
    classes
        .iter()
        .map(|c| 1 << CLASS_TABLE.iter().position(|t| t == c).expect("a class of the table"))
        .sum()
}

/// The capped scan is the uncapped one clamped to its cap, and
/// `class_bits`, which caps at the top repeat bucket, classifies texts as
/// the uncapped scan would: prefixes of 1–5 bytes repeated around every
/// bucket edge, with a short tail.
#[test]
fn capped_prefix_scan_matches_the_uncapped_reference() {
    use soft_repro::types::boundary::{class_bits, repeated_prefix_run_capped};
    use soft_repro::types::value::Value;
    const RUNS: [usize; 9] = [1, 7, 8, 63, 64, 511, 512, 513, 2_000];
    const CAPS: [usize; 10] = [0, 1, 2, 7, 8, 63, 64, 511, 512, usize::MAX];
    Check::new("capped_prefix_scan_matches_the_uncapped_reference").run(
        |rng| {
            let prefix = gen_word(rng, b"ab[1,", 1, 5);
            let run = RUNS[rng.gen_range(0..RUNS.len())] + rng.gen_range(0..2usize);
            let tail = gen_word(rng, b"ab[1,.", 0, 6);
            let cap = if rng.gen_bool(0.5) {
                CAPS[rng.gen_range(0..CAPS.len())]
            } else {
                rng.gen_range(0..600usize)
            };
            (prefix.repeat(run) + &tail, cap)
        },
        |(s, cap)| {
            let run = reference_prefix_run(s);
            let capped = repeated_prefix_run_capped(s, *cap);
            if capped != run.min(*cap) {
                return Err(format!("capped at {cap}: {capped}, reference run {run}"));
            }
            let bits = class_bits(&Value::Text(s.clone()));
            if bits != reference_text_bits(s) {
                return Err(format!("class bits {bits:#x} != {:#x}", reference_text_bits(s)));
            }
            Ok(())
        },
    );
}

/// Bytes spelled two hex digits each, the per-byte `format!` way.
fn per_byte_hex(bytes: &[u8], upper: bool) -> String {
    bytes.iter().map(|b| if upper { format!("{b:02X}") } else { format!("{b:02x}") }).collect()
}

/// The FNV-1a stand-in digest the engine's `MD5`, `SHA1` and `SHA2` return,
/// spelled the per-byte `format!` way.
fn reference_digest(data: &[u8], out_bytes: usize) -> String {
    let mut state: u64 = 0xcbf29ce484222325;
    let mut out = String::new();
    let mut round = 0u8;
    while out.len() < out_bytes * 2 {
        for &b in data.iter().chain(std::slice::from_ref(&round)) {
            state ^= b as u64;
            state = state.wrapping_mul(0x100000001b3);
        }
        let left = out_bytes - out.len() / 2;
        out.push_str(&per_byte_hex(&state.to_be_bytes()[..left.min(8)], false));
        round = round.wrapping_add(1);
    }
    out
}

/// The table-driven hex encoder spells bytes as `format!("{:02X}")` and
/// `format!("{:02x}")` do, and so do SQL `HEX`, the digests, a binary
/// value's rendering and its SQL literal.
#[test]
fn hex_encoder_matches_per_byte_format() {
    use soft_repro::engine::ExecOutcome;
    use soft_repro::types::hex;
    use soft_repro::types::value::Value;
    Check::new("hex_encoder_matches_per_byte_format").cases(64).run(
        |rng| {
            let len = rng.gen_range(0..300usize);
            (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect::<Vec<u8>>()
        },
        |bytes| {
            let upper = per_byte_hex(bytes, true);
            let mut lower = String::from("0x");
            hex::push_lower(&mut lower, bytes);
            let value = Value::Binary(bytes.clone());
            let checks = [
                (hex::upper(bytes), upper.clone()),
                (lower, format!("0x{}", per_byte_hex(bytes, false))),
                (value.render(), format!("0x{upper}")),
                (value.sql_literal(), format!("x'{upper}'")),
            ];
            for (got, want) in checks {
                if got != want {
                    return Err(format!("{got} != {want}"));
                }
            }
            let mut e = Engine::with_default_functions(Default::default());
            let lit = format!("x'{upper}'");
            let queries = [
                (format!("SELECT HEX({lit})"), upper.clone()),
                (format!("SELECT MD5({lit})"), reference_digest(bytes, 16)),
                (format!("SELECT SHA1({lit})"), reference_digest(bytes, 20)),
                (format!("SELECT SHA2({lit}, 224)"), reference_digest(bytes, 28)),
                (format!("SELECT SHA2({lit}, 512)"), reference_digest(bytes, 64)),
            ];
            for (sql, want) in queries {
                match e.execute(&sql) {
                    ExecOutcome::Rows(rs) if rs.rows[0][0] == Value::Text(want.clone()) => {}
                    other => return Err(format!("{sql}: {other:?}, want {want}")),
                }
            }
            Ok(())
        },
    );
}

//! Guardrails for the campaign spine: one on-demand case generator, one
//! planner, one cut → execute step whose shards prepare what they run, one
//! execution path per shard, one constructor per finding kind, two
//! campaign entry points, a multi-form oracle that executes only the two
//! forms it compares (the statement as parsed and its literal-unfolded
//! rewrite, never the SQL text again), one recorder per track, which
//! classifies each statement once, with spans as the only stage timer,
//! one engine execution path, with no columnar backend beside it, and
//! boundary-argument bookkeeping that pays nothing per byte where the
//! answer does not depend on the size: integer coverage ids recorded
//! without formatting, a capped repeated-prefix scan, and one hex encoder.
//! A built-in call does each step once: its name resolves at the call (no
//! prepare-time dispatch table), its arguments coerce through one
//! function, and its values carry a flat, `Copy` provenance tag.
//! The flight recorder keeps one timing record, its spans. The workspace
//! has one JSON parser and one string escaper, `soft_types::json`'s: the
//! trace-export check and the journal, bundle and repository readers use
//! them, and `soft_obs::json` is a flat-record layer over them.
//! The tests read the source itself, so a removed path cannot quietly come
//! back.

const CAMPAIGN: &str = include_str!("../crates/core/src/campaign.rs");
const CORE_LIB: &str = include_str!("../crates/core/src/lib.rs");
const ORACLE: &str = include_str!("../crates/core/src/oracle.rs");
const TELEMETRY: &str = include_str!("../crates/obs/src/telemetry.rs");
const TYPES_LIB: &str = include_str!("../crates/types/src/lib.rs");
const ENGINE: &str = include_str!("../crates/engine/src/engine.rs");
const COVERAGE: &str = include_str!("../crates/engine/src/coverage.rs");
const EXECUTOR: &str = include_str!("../crates/engine/src/executor.rs");
const REGISTRY: &str = include_str!("../crates/engine/src/registry.rs");
const BOUNDARY: &str = include_str!("../crates/types/src/boundary.rs");
const EVAL: &str = include_str!("../crates/engine/src/eval.rs");
const OBS_LIB: &str = include_str!("../crates/obs/src/lib.rs");
const SPAN: &str = include_str!("../crates/obs/src/span.rs");
const OBS_JSON: &str = include_str!("../crates/obs/src/json.rs");

/// The part of a source file before its `#[cfg(test)]` module.
fn non_test(src: &'static str) -> &'static str {
    src.split("#[cfg(test)]").next().unwrap_or(src)
}

/// The non-test part of `campaign.rs`.
fn campaign_code() -> &'static str {
    non_test(CAMPAIGN)
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `src` mentions `ident` as a whole identifier.
fn mentions(src: &str, ident: &str) -> bool {
    src.match_indices(ident).any(|(i, _)| {
        let before = src[..i].chars().next_back();
        let after = src[i + ident.len()..].chars().next();
        !before.is_some_and(is_ident_char) && !after.is_some_and(is_ident_char)
    })
}

#[test]
fn one_planner_with_one_interleave() {
    let code = campaign_code();
    assert!(
        !mentions(code, "build_plan"),
        "build_plan is back; the static planner is one plan_round_robin call"
    );
    assert_eq!(code.matches("fn plan_round_robin(").count(), 1);
    // The interleave is the only labelled round-robin loop and the only
    // place that advances a queue cursor.
    assert_eq!(code.matches("'outer: loop").count(), 1, "a second round-robin loop appeared");
    let cursor_advances =
        code.lines().filter(|l| l.contains("cursors[") && l.contains("+= 1")).count();
    assert_eq!(cursor_advances, 1, "a second round-robin loop appeared");
}

#[test]
fn one_on_demand_generator() {
    let code = campaign_code();
    // The generator's work item is the only place that applies a pattern,
    // so no eager pass can generate cases beside it.
    assert_eq!(
        code.matches("patterns::apply_salted(").count(),
        1,
        "a second pattern-application site appeared"
    );
    assert!(!code.contains("fn generate_cases("), "the eager generation pass is back");
}

#[test]
fn one_prepare_cut_execute_step() {
    let code = campaign_code();
    // One prepare site, inside `run_shard`: each shard prepares its own
    // range against the shared template, and the plan has no prepare pass.
    assert_eq!(code.matches("template.prepare(").count(), 1, "a second prepare site appeared");
    let run_shard = code.find("fn run_shard(").expect("run_shard exists");
    let body_end = code[run_shard..].find("\n    }\n").map_or(code.len(), |e| run_shard + e);
    let site = code.find("template.prepare(").expect("one prepare site");
    assert!((run_shard..body_end).contains(&site), "the prepare site moved out of run_shard");
    assert!(!code.contains("fn prepare("), "the plan has a prepare pass again");
    assert_eq!(code.matches(".step_by(").count(), 1, "a second shard cut appeared");
    assert_eq!(code.matches("fn seed_and_generate(").count(), 1);
    assert_eq!(
        code.matches("pattern: None, seed: si").count(),
        1,
        "a second seed phase appeared"
    );
}

#[test]
fn one_execution_path_per_shard() {
    let code = campaign_code();
    for removed in ["BatchArena", "MIN_BATCH_GROUP", "execute_batch_in", "batch_window"] {
        assert!(!mentions(code, removed), "campaign.rs names {removed} again");
    }
    assert!(!code.contains(".batch"), "the campaign reads CampaignConfig::batch again");
    let run_shard = &code[code.find("fn run_shard(").expect("run_shard exists")..];
    let body = &run_shard[..run_shard.find("\n    }\n").unwrap_or(run_shard.len())];
    let executes = body.matches("execute_planned(").count()
        + body.matches("execute_prepared(").count()
        + body.matches("execute_batch").count();
    assert_eq!(executes, 1, "run_shard has a second execute call site");
    // The shard's outcome stands in for the oracle's reference form only
    // for shape-keyed statements, which read no table or session state.
    assert!(body.contains(".shape_key(p).is_some()"), "outcome reuse lost its shape-key gate");
    for cmd in soft_bench::COMMANDS {
        assert!(
            cmd.flags.iter().all(|f| f.flag != "--no-batch"),
            "`repro {}` accepts --no-batch again",
            cmd.name
        );
    }
}

#[test]
fn findings_are_built_only_by_their_constructors() {
    let code = campaign_code();
    let mut builders: Vec<&str> = Vec::new();
    for (i, _) in code.match_indices("BugFinding {") {
        // `-> BugFinding {` opens a constructor's body; it is no literal.
        if code[..i].ends_with("-> ") {
            continue;
        }
        let owner = code[..i]
            .rfind("fn ")
            .and_then(|f| code[f + 3..].split(['(', '<']).next())
            .unwrap_or("");
        builders.push(owner);
    }
    assert_eq!(
        builders,
        ["crash_finding", "logic_finding"],
        "a BugFinding literal outside the two constructors"
    );
}

#[test]
fn soft_core_exports_two_campaign_entry_points() {
    for removed in ["run_soft", "run_campaign", "run_soft_parallel_timed"] {
        assert!(!mentions(CORE_LIB, removed), "soft_core re-exports {removed}");
        assert!(
            !CAMPAIGN.contains(&format!("pub fn {removed}(")),
            "campaign.rs defines {removed} again"
        );
    }
    // The campaign runners, plus the baseline runner of Tables 5/6.
    let runners: Vec<&str> = CAMPAIGN
        .match_indices("pub fn run_")
        .filter_map(|(i, _)| CAMPAIGN[i + 7..].split('(').next())
        .collect();
    assert_eq!(runners, ["run_soft_parallel", "run_soft_parallel_live", "run_generator"]);
}

#[test]
fn multi_form_oracle_executes_only_what_it_compares() {
    let code = non_test(ORACLE);
    for name in ["multi_form_check", "multi_form_check_with"] {
        let start = code.find(&format!("fn {name}(")).expect("the oracle entry point exists");
        let body = &code[start..];
        let body = &body[..body.find("\n}\n").unwrap_or(body.len())];
        assert!(!body.contains(".execute("), "{name} runs the SQL text through Engine::execute");
    }
    // Form A's reference and form C: a third form has to answer for itself.
    assert_eq!(ORACLE.matches("execute_prepared(").count(), 2, "oracle.rs executes a third form");
}

#[test]
fn one_recorder_per_track() {
    let code = campaign_code();
    // One classification, one live hot-path call and one finding dedup per
    // executed statement, all inside the recorder, which also builds every
    // span sink. The clock is read only for the campaign's and each shard's
    // wall-clock start: spans are the only stage timer.
    for (site, sites) in [
        ("OutcomeClass::of(", 1),
        ("record_statement(", 1),
        ("record_unique_candidate(", 1),
        ("SpanSink::new(", 1),
        ("Instant::now", 2),
    ] {
        assert_eq!(code.matches(site).count(), sites, "campaign.rs: `{site}` sites");
    }
    assert!(!mentions(code, "ShardObserver"), "a second per-shard recorder is back");
    assert!(!code.contains("usize::MAX / 2"), "the scheduler's stand-in telemetry is back");
    for name in ["StageLatency", "Instant", "Duration"] {
        assert!(!mentions(TELEMETRY, name), "telemetry.rs names {name}: telemetry reads no clock");
    }
}

/// The non-test part of every `.rs` file under `dir`, with its path.
fn non_test_sources(dir: &std::path::Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("source directory reads") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            non_test_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path).expect("source file reads");
            let code = src.split("#[cfg(test)]").next().unwrap_or("").to_string();
            out.push((path.display().to_string(), code));
        }
    }
}

#[test]
fn columnar_backend_stays_removed() {
    assert!(!TYPES_LIB.contains("mod column"), "soft_types declares a column module again");
    let mut sources = Vec::new();
    let engine_src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/engine/src");
    non_test_sources(&engine_src, &mut sources);
    assert!(sources.len() > 10, "the engine sources were not found");
    for (path, code) in &sources {
        for removed in ["ColumnVec", "ColumnArena"] {
            assert!(!mentions(code, removed), "{path} names {removed} again");
        }
        assert!(!code.contains("fn execute_batch("), "{path} defines execute_batch again");
    }
    // The perfbench leftovers are the scalar path under old names.
    let engine = non_test(ENGINE);
    let start = engine.find("fn execute_batch_in(").expect("execute_batch_in exists");
    let body = &engine[start..];
    let body = &body[body.find('{').expect("a body")..body.find("\n    }\n").expect("its end")];
    let mut calls: Vec<&str> = body
        .match_indices('(')
        .filter_map(|(i, _)| body[..i].rsplit(|c: char| !is_ident_char(c)).next())
        .filter(|name| !name.is_empty())
        .collect();
    calls.sort_unstable();
    assert_eq!(
        calls,
        ["Some", "collect", "execute_prepared", "iter", "map"],
        "execute_batch_in does more than call execute_prepared per member"
    );
    let arena = &engine[engine.find("pub struct BatchArena").expect("BatchArena exists")..];
    let decl = arena["pub struct BatchArena".len()..].trim_start();
    assert!(decl.starts_with(';') || decl.starts_with("{}"), "BatchArena has fields again");
}

/// The body of `fn {name}(` in `code`, up to the line that closes it at
/// `indent`.
fn fn_body<'a>(code: &'a str, name: &str, indent: &str) -> &'a str {
    let start = code.find(&format!("fn {name}(")).unwrap_or_else(|| panic!("{name} exists"));
    let body = &code[start..];
    &body[..body.find(&format!("\n{indent}}}\n")).expect("the body closes")]
}

#[test]
fn boundary_bookkeeping_pays_nothing_per_byte() {
    assert!(!mentions(COVERAGE, "DefaultHasher"), "coverage.rs hashes with SipHash again");
    for body in [fn_body(non_test(EXECUTOR), "record_call", "    "), fn_body(REGISTRY, "perform_cast", "")]
    {
        for banned in ["format!", "format_args!", "write_fmt", "classify("] {
            assert!(!body.contains(banned), "a coverage record site calls {banned}:\n{body}");
        }
    }
    // The one capped scan: classification stops at the top repeat bucket.
    let class_bits = fn_body(BOUNDARY, "class_bits", "");
    assert!(class_bits.contains("repeated_prefix_run_capped("), "class_bits scans uncapped");
    assert!(!class_bits.contains("repeated_prefix_run("), "class_bits scans uncapped");
    for code in [EXECUTOR, ENGINE] {
        assert!(!mentions(code, "feature_buf"), "Exec formats feature keys into a buffer again");
    }
    // One hex encoder: no per-byte `format!` anywhere in the crates.
    let mut sources = Vec::new();
    non_test_sources(&std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates"), &mut sources);
    assert!(sources.len() > 50, "the crate sources were not found");
    for (path, code) in &sources {
        assert!(!code.contains("format!(\"{byte:02"), "{path} formats hex per byte again");
    }
}

#[test]
fn one_call_path_for_builtins() {
    // Names resolve at the call, through the registry.
    for code in [non_test(ENGINE), non_test(EXECUTOR)] {
        assert!(!mentions(code, "DispatchEntry"), "the prepare-time dispatch table is back");
        assert!(!mentions(code, "dispatch"), "a dispatch table is back");
    }
    let prepared = fn_body(non_test(ENGINE), "prepare_parsed", "    ");
    assert!(prepared.contains("Prepared { stmt }"), "Prepared holds more than the statement");
    // One argument-coercion function: every `want_*` reader is a view of
    // `coerce` (or of another reader), and none casts on its own.
    let registry = non_test(REGISTRY);
    let readers: Vec<&str> = registry
        .match_indices("pub fn want_")
        .map(|(i, _)| {
            let name = &registry[i + "pub fn ".len()..];
            &name[..name.find(['(', '<']).expect("a signature")]
        })
        .collect();
    assert!(readers.len() >= 10, "the want_* readers were not found: {readers:?}");
    for name in readers {
        let start = registry.find(&format!("pub fn {name}")).expect("the reader exists");
        let body = &registry[start..];
        let body = &body[..body.find("\n}\n").expect("the body closes")];
        assert!(
            body.contains("coerce(") || body.contains("coerce_owned(") || body.contains("want_int("),
            "{name} does not read through coerce"
        );
        for banned in ["perform_cast(", ".cast(", "check_cast("] {
            assert!(!body.contains(banned), "{name} casts on its own ({banned})");
        }
    }
    // A flat provenance tag: nothing boxed, no owned name.
    let eval = non_test(EVAL);
    for banned in ["Box", "String", "cast_source"] {
        assert!(!mentions(eval, banned), "eval.rs's provenance names {banned} again");
    }
    assert!(
        eval.contains("#[derive(Debug, Clone, Copy, PartialEq, Eq)]\npub struct Provenance"),
        "Provenance is no longer a Copy struct"
    );
}

#[test]
fn spans_are_the_only_timing_record() {
    // The stage table is computed from the spans; no bucketed sketch of
    // them is kept beside it.
    assert!(!OBS_LIB.contains("mod latency"), "soft-obs declares a latency module again");
    let mut sources = Vec::new();
    let obs_src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/obs/src");
    non_test_sources(&obs_src, &mut sources);
    assert!(sources.len() > 10, "the soft-obs sources were not found");
    for (path, code) in &sources {
        assert!(!path.ends_with("latency.rs"), "{path} is back");
        for removed in ["LatencyHistogram", "StageLatency"] {
            assert!(!mentions(code, removed), "{path} names {removed} again");
        }
    }
    // One JSON parser: the trace-export check reads the export with
    // `soft_types::json` instead of a second hand-written parser.
    let span = non_test(SPAN);
    assert!(!span.contains("struct Validator"), "span.rs has its own JSON parser again");
    let validate = fn_body(span, "validate_json", "");
    assert!(validate.contains("soft_types::json::parse("), "validate_json parses on its own");
}

#[test]
fn one_json_parser() {
    // The flat-record layer parses with `soft_types::json` and escapes with
    // it; it declares no parser, value or error type and no escape loop of
    // its own.
    let json = non_test(OBS_JSON);
    for second in ["struct Parser", "enum JsonValue", "JsonError", "fn escape"] {
        assert!(!json.contains(second), "crates/obs/src/json.rs declares {second} again");
    }
    assert!(json.contains("soft_types::json::parse("), "the record reader parses on its own");
    assert!(json.contains("json::write_escaped("), "the field writers escape on their own");
}

//! Guardrails for the campaign spine: one on-demand case generator, one
//! planner, one cut → execute step whose shards prepare what they run, one
//! execution path per shard, one constructor per finding kind, two
//! campaign entry points, a multi-form oracle that executes only the two
//! forms it compares (the statement as parsed and its literal-unfolded
//! rewrite, never the SQL text again), and one recorder per track, which
//! classifies each statement once, with spans as the only stage timer.
//! The tests read the source itself, so a removed path cannot quietly come
//! back.

const CAMPAIGN: &str = include_str!("../crates/core/src/campaign.rs");
const CORE_LIB: &str = include_str!("../crates/core/src/lib.rs");
const ORACLE: &str = include_str!("../crates/core/src/oracle.rs");
const TELEMETRY: &str = include_str!("../crates/obs/src/telemetry.rs");

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

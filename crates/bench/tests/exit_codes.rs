//! The `repro` exit-code contract, run against the binary itself: `2` for
//! usage errors (an unknown artifact, a missing dialect, a malformed
//! numeric flag, an unparseable journal, a findings root that is missing,
//! empty or holds an unreadable bundle), `1` for a bundle that no longer
//! replays, and `repro compare`'s `5` when campaign B lost a bug campaign
//! A found (`0` otherwise). Every case exits before a campaign runs.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `repro` with `args`.
fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro starts")
}

/// Asserts `repro args` exits with `code`.
fn assert_exit(args: &[&str], code: i32) -> Output {
    let out = repro(args);
    assert_eq!(
        out.status.code(),
        Some(code),
        "repro {args:?}\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// A fresh scratch directory for one test (tests run in parallel).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soft-exit-codes-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// A journal of two statements on MonetDB; the second crashes with
/// `fault` when one is given.
fn journal(fault: Option<&str>) -> String {
    let (outcome, fault) = match fault {
        Some(f) => ("crash", format!("\"{f}\"")),
        None => ("ok", "null".to_string()),
    };
    format!(
        "{{\"type\": \"campaign\", \"dialect\": \"MonetDB\", \"statements\": 2, \"events\": 2}}\n\
         {{\"type\": \"stmt\", \"index\": 1, \"shard\": 0, \"seed\": 0, \"pattern\": null, \
         \"function\": \"floor\", \"outcome\": \"ok\", \"fault\": null}}\n\
         {{\"type\": \"stmt\", \"index\": 2, \"shard\": 0, \"seed\": 1, \"pattern\": \"P2.1\", \
         \"function\": \"substr\", \"outcome\": \"{outcome}\", \"fault\": {fault}}}\n"
    )
}

#[test]
fn usage_errors_exit_2_before_any_campaign() {
    let dir = scratch("usage");
    let garbage = dir.join("garbage.jsonl");
    std::fs::write(&garbage, "not a journal\n{\"type\": \n").expect("write journal");
    let garbage = garbage.to_str().expect("utf-8 path");
    for args in [
        &["tablex"][..],
        &["campaign"],
        &["campaign", "clickhouse", "--budget", "lots"],
        &["campaign", "clickhouse", "--budget", "100", "--workers", "two"],
        &["campaign", "clickhouse", "--budget", "100", "--workers"],
        &["campaign", "clickhouse", "--budget", "100", "--epochs", "-1"],
        &["campaign", "clickhouse", "--budget", "100", "--stall-ms", "1.5"],
        &["trace", garbage],
    ] {
        let out = assert_exit(args, 2);
        assert!(out.stdout.is_empty(), "repro {args:?} printed before failing");
        assert!(!out.stderr.is_empty(), "repro {args:?} failed without saying why");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch");
}

#[test]
fn compare_exits_5_only_when_b_lost_a_bug() {
    let dir = scratch("compare");
    let with_bug = dir.join("with_bug.jsonl");
    let without = dir.join("without.jsonl");
    std::fs::write(&with_bug, journal(Some("demo-001"))).expect("write journal");
    std::fs::write(&without, journal(None)).expect("write journal");
    let (with_bug, without) = (with_bug.to_str().expect("utf-8"), without.to_str().expect("utf-8"));
    assert_exit(&["compare", with_bug, without], 5);
    assert_exit(&["compare", without, with_bug], 0);
    assert_exit(&["compare", with_bug, with_bug], 0);
    std::fs::remove_dir_all(&dir).expect("remove scratch");
}

/// The `meta.json` of a ClickHouse bundle `demo-001` whose PoC crashes
/// nothing.
const STALE_META: &str = "{\"fault_id\": \"demo-001\", \"dialect\": \"ClickHouse\", \
     \"kind\": \"CRASH\", \"stage\": \"execute\", \"category\": \"string\", \
     \"credited_pattern\": \"P1.1\", \"found_by_pattern\": \"P1.1\", \"function\": \"upper\", \
     \"seed_function\": null, \"bucket\": \"clickhouse/execute/CRASH/upper\", \
     \"statements_until_found\": 1, \"fixed\": 0, \"oracle\": null, \"expected\": null, \
     \"actual\": null, \"replay\": \"repro replay demo-001\"}\n";

/// Writes bundle `name` under `root` with `meta` as its `meta.json` and a
/// PoC that crashes nothing.
fn write_bundle(root: &std::path::Path, name: &str, meta: &str) -> PathBuf {
    let bundle = root.join(name);
    std::fs::create_dir_all(&bundle).expect("bundle directory");
    std::fs::write(bundle.join("meta.json"), meta).expect("write meta.json");
    std::fs::write(bundle.join("poc.sql"), "SELECT UPPER('a');\n").expect("write poc.sql");
    std::fs::write(bundle.join("original.sql"), "SELECT UPPER('a');\n").expect("write original");
    bundle
}

#[test]
fn replay_of_a_poc_that_no_longer_crashes_exits_1() {
    let dir = scratch("replay");
    let bundle = write_bundle(&dir, "demo-001", STALE_META);
    // Given directly, and under a findings root.
    for path in [&bundle, &dir] {
        let out = assert_exit(&["replay", path.to_str().expect("utf-8")], 1);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("demo-001: PoC no longer crashes"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch");
}

/// Exit 1 means a PoC no longer fires; a root that cannot be read, holds a
/// bundle that cannot be read, or holds no bundle at all is an input error,
/// so a replay step pointed at the wrong directory fails instead of passing.
#[test]
fn replay_of_an_unreadable_or_empty_root_exits_2() {
    let dir = scratch("replay-roots");
    let missing = dir.join("no-such-root");
    let empty = dir.join("empty");
    std::fs::create_dir_all(empty.join("not-a-bundle")).expect("empty root");
    let malformed = dir.join("malformed");
    write_bundle(&malformed, "demo-001", STALE_META);
    write_bundle(&malformed, "demo-002", &STALE_META.replace("\"fixed\": 0", "\"fixed\": 0.5"));
    for (root, says) in [
        (&missing, "cannot read bundles under"),
        (&empty, "no bundles under"),
        (&malformed, "demo-002/meta.json: \"fixed\" is not a string, an i64 integer or null"),
    ] {
        let out = assert_exit(&["replay", root.to_str().expect("utf-8")], 2);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(says), "{stderr}");
        assert!(out.stdout.is_empty(), "replay of {} printed before failing", root.display());
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch");
}

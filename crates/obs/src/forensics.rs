//! Crash-forensics bundles: one self-contained triage directory per unique
//! fault.
//!
//! The paper's harness "logs the corresponding SQL statements for bug
//! reporting" (§7.1); a production fuzzing service needs more than the
//! statement — it needs everything a human (or a replay bot) requires to
//! reproduce and triage the finding without the original campaign. A bundle
//! is that artifact:
//!
//! ```text
//! findings/<fault-id>/
//!   meta.json      # provenance: dialect, kind, stage, patterns, bucket, ...
//!   poc.sql        # the minimized PoC
//!   original.sql   # the pre-minimization statement that first fired
//! ```
//!
//! `meta.json` is one flat JSON record, like a journal line, so
//! [`crate::json`] writes and reads it. This module is deliberately
//! **stringly typed**: `soft-obs` sits below `soft-core` and `soft-dialects`
//! in the crate graph, so kind/stage/pattern/dialect arrive as their stable
//! labels and the conversion back to rich types happens in
//! `soft_core::forensics`, which also owns replay.

use crate::json::{self, Record};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// One crash-forensics bundle, as written to / read from a
/// `findings/<fault-id>/` directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bundle {
    /// The fault's stable id — also the dedup key and the directory name.
    pub fault_id: String,
    /// Dialect display name (e.g. `ClickHouse`).
    pub dialect: String,
    /// Crash kind abbreviation (e.g. `NPD`, `SO`).
    pub kind: String,
    /// Engine stage the crash fired in (`parsing`, `optimization`,
    /// `execution`).
    pub stage: String,
    /// Function category label (Table 4's "Function Type").
    pub category: String,
    /// The pattern the corpus credits (Table 4 ground truth).
    pub credited_pattern: String,
    /// The pattern whose generated statement actually triggered it first.
    pub found_by_pattern: String,
    /// Function the crash occurred in, when known.
    pub function: Option<String>,
    /// Root function of the seed the triggering statement derives from.
    pub seed_function: Option<String>,
    /// The dedup bucket key (`dialect/stage/kind/function`): the coarse
    /// equivalence class a triager would group by *before* fault ids exist,
    /// the way SQLaser buckets crashes pre-triage.
    pub bucket: String,
    /// Global statement index at which the fault first fired.
    pub statements_until_found: usize,
    /// Whether the paper reports the underlying bug fixed.
    pub fixed: bool,
    /// The oracle that raised the finding (`pivot`, `multi-form`,
    /// `differential`) when it is a wrong-result logic bug; `None` for
    /// crash findings.
    pub oracle: Option<String>,
    /// What the oracle expected (logic bugs only).
    pub expected: Option<String>,
    /// What the engine actually produced (logic bugs only).
    pub actual: Option<String>,
    /// A copy-pasteable replay command line.
    pub replay: String,
    /// The minimized PoC.
    pub poc: String,
    /// The pre-minimization statement that first triggered the fault.
    pub original: String,
}

impl Bundle {
    /// The directory this bundle lives in under a findings root: the fault
    /// id with any path-hostile characters replaced.
    pub fn dir_name(&self) -> String {
        sanitize_dir_name(&self.fault_id)
    }

    /// Renders `meta.json` (one flat JSON line, trailing newline).
    pub fn render_meta(&self) -> String {
        let opt = |key: &str, v: &Option<String>| match v {
            Some(s) => json::str_field(key, s),
            None => json::null_field(key),
        };
        let fields = [
            json::str_field("fault_id", &self.fault_id),
            json::str_field("dialect", &self.dialect),
            json::str_field("kind", &self.kind),
            json::str_field("stage", &self.stage),
            json::str_field("category", &self.category),
            json::str_field("credited_pattern", &self.credited_pattern),
            json::str_field("found_by_pattern", &self.found_by_pattern),
            opt("function", &self.function),
            opt("seed_function", &self.seed_function),
            json::str_field("bucket", &self.bucket),
            json::num_field("statements_until_found", self.statements_until_found as i64),
            json::num_field("fixed", i64::from(self.fixed)),
            opt("oracle", &self.oracle),
            opt("expected", &self.expected),
            opt("actual", &self.actual),
            json::str_field("replay", &self.replay),
        ];
        format!("{{{}}}\n", fields.join(", "))
    }

    /// Writes the bundle under `root` as `root/<dir_name>/{meta.json,
    /// poc.sql, original.sql}`, creating directories as needed. Returns the
    /// bundle directory.
    pub fn write(&self, root: &Path) -> std::io::Result<PathBuf> {
        let dir = root.join(self.dir_name());
        fs::create_dir_all(&dir)?;
        fs::write(dir.join("meta.json"), self.render_meta())?;
        fs::write(dir.join("poc.sql"), format!("{}\n", self.poc.trim_end()))?;
        fs::write(dir.join("original.sql"), format!("{}\n", self.original.trim_end()))?;
        Ok(dir)
    }

    /// Reads one bundle back from its directory.
    pub fn read(dir: &Path) -> Result<Bundle, String> {
        let meta_path = dir.join("meta.json");
        let meta = fs::read_to_string(&meta_path)
            .map_err(|e| format!("{}: {e}", meta_path.display()))?;
        let meta = Record::parse(meta.trim(), meta_path.display())?;
        let read_sql = |file: &str| -> Result<String, String> {
            let path = dir.join(file);
            fs::read_to_string(&path)
                .map(|s| s.trim_end().to_string())
                .map_err(|e| format!("{}: {e}", path.display()))
        };
        Ok(Bundle {
            fault_id: meta.string("fault_id")?,
            dialect: meta.string("dialect")?,
            kind: meta.string("kind")?,
            stage: meta.string("stage")?,
            category: meta.string("category")?,
            credited_pattern: meta.string("credited_pattern")?,
            found_by_pattern: meta.string("found_by_pattern")?,
            function: meta.str("function").map(str::to_string),
            seed_function: meta.str("seed_function").map(str::to_string),
            bucket: meta.string("bucket")?,
            statements_until_found: meta.count("statements_until_found")?,
            fixed: meta.integer("fixed")? != 0,
            oracle: meta.str("oracle").map(str::to_string),
            expected: meta.str("expected").map(str::to_string),
            actual: meta.str("actual").map(str::to_string),
            replay: meta.string("replay")?,
            poc: read_sql("poc.sql")?,
            original: read_sql("original.sql")?,
        })
    }

    /// Reads every bundle under a findings root (any direct subdirectory
    /// containing a `meta.json`), sorted by fault id for deterministic
    /// iteration.
    pub fn read_all(root: &Path) -> Result<Vec<Bundle>, String> {
        let entries =
            fs::read_dir(root).map_err(|e| format!("{}: {e}", root.display()))?;
        let mut bundles = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", root.display()))?;
            let dir = entry.path();
            if dir.is_dir() && dir.join("meta.json").is_file() {
                bundles.push(Bundle::read(&dir)?);
            }
        }
        bundles.sort_by(|a, b| a.fault_id.cmp(&b.fault_id));
        Ok(bundles)
    }

    /// Renders a one-line human summary (for `repro bundle` output).
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{} [{} {} @ {}] found at statement {} by {}",
            self.fault_id,
            self.kind,
            self.category,
            self.stage,
            self.statements_until_found,
            self.found_by_pattern,
        );
        if let Some(f) = &self.function {
            let _ = write!(out, " in {f}()");
        }
        out
    }
}

/// Builds the dedup bucket key from its components (missing function →
/// `?`). Kept next to [`Bundle`] so writers and tests agree on the shape.
pub fn bucket_key(dialect_key: &str, stage: &str, kind: &str, function: Option<&str>) -> String {
    format!("{dialect_key}/{stage}/{kind}/{}", function.unwrap_or("?"))
}

/// Replaces path-hostile characters so a fault id is usable as a directory
/// name on any filesystem. Public because the seed repository
/// (`soft_core::repo`) derives its entry directories from fault ids with
/// the same rule, so a bundle and its repository entry always share a name.
pub fn sanitize_dir_name(fault_id: &str) -> String {
    let cleaned: String = fault_id
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') { c } else { '_' })
        .collect();
    // A name of only dots would be `.`/`..`; prefix it out of danger.
    if cleaned.chars().all(|c| c == '.') || cleaned.is_empty() {
        format!("fault_{cleaned}")
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Bundle {
        Bundle {
            fault_id: "clickhouse-string-npd-listing1-3".into(),
            dialect: "ClickHouse".into(),
            kind: "NPD".into(),
            stage: "execution".into(),
            category: "String".into(),
            credited_pattern: "P1.2".into(),
            found_by_pattern: "P1.2".into(),
            function: Some("substr".into()),
            seed_function: Some("substr".into()),
            bucket: "clickhouse/execution/NPD/substr".into(),
            statements_until_found: 1234,
            fixed: true,
            oracle: None,
            expected: None,
            actual: None,
            replay: "repro replay findings/clickhouse-string-npd-listing1-3".into(),
            poc: "SELECT substr('', 1)".into(),
            original: "SELECT substr('', 1, 99999) FROM t ORDER BY 1".into(),
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("soft-forensics-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp root");
        dir
    }

    #[test]
    fn bundle_round_trips_through_the_filesystem() {
        let root = temp_root("roundtrip");
        let b = sample();
        let dir = b.write(&root).expect("write");
        assert!(dir.join("meta.json").is_file());
        assert!(dir.join("poc.sql").is_file());
        assert!(dir.join("original.sql").is_file());
        let back = Bundle::read(&dir).expect("read");
        assert_eq!(back, b);
        let all = Bundle::read_all(&root).expect("read_all");
        assert_eq!(all, vec![b]);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn meta_is_one_flat_json_line() {
        let meta = sample().render_meta();
        assert_eq!(meta.lines().count(), 1);
        let rec = Record::parse(meta.trim(), "meta.json").expect("flat json");
        assert_eq!(rec.str("fault_id"), Some("clickhouse-string-npd-listing1-3"));
        assert_eq!(rec.int("fixed"), Some(1));
        assert_eq!(rec.int("statements_until_found"), Some(1234));
    }

    #[test]
    fn optional_fields_round_trip_as_null() {
        let root = temp_root("nulls");
        let mut b = sample();
        b.function = None;
        b.seed_function = None;
        b.fixed = false;
        let dir = b.write(&root).expect("write");
        let back = Bundle::read(&dir).expect("read");
        assert_eq!(back.function, None);
        assert_eq!(back.seed_function, None);
        assert!(!back.fixed);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn oracle_provenance_round_trips() {
        let root = temp_root("oracle");
        let mut b = sample();
        b.fault_id = "logic-multiform-tostring".into();
        b.kind = "LOGIC".into();
        b.oracle = Some("multi-form".into());
        b.expected = Some("42".into());
        b.actual = Some("42.0".into());
        let dir = b.write(&root).expect("write");
        let back = Bundle::read(&dir).expect("read");
        assert_eq!(back, b);
        assert_eq!(back.oracle.as_deref(), Some("multi-form"));
        assert_eq!(back.expected.as_deref(), Some("42"));
        assert_eq!(back.actual.as_deref(), Some("42.0"));
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn dir_names_are_sanitized() {
        let mut b = sample();
        b.fault_id = "weird/fault:id with spaces".into();
        assert_eq!(b.dir_name(), "weird_fault_id_with_spaces");
        b.fault_id = "..".into();
        assert_eq!(b.dir_name(), "fault_..");
    }

    #[test]
    fn bucket_key_shape() {
        assert_eq!(
            bucket_key("monetdb", "execution", "SO", Some("repeat")),
            "monetdb/execution/SO/repeat"
        );
        assert_eq!(bucket_key("mysql", "parsing", "AF", None), "mysql/parsing/AF/?");
    }

    #[test]
    fn summary_mentions_the_triage_essentials() {
        let line = sample().render_summary();
        assert!(line.contains("clickhouse-string-npd-listing1-3"), "{line}");
        assert!(line.contains("NPD"), "{line}");
        assert!(line.contains("statement 1234"), "{line}");
        assert!(line.contains("substr()"), "{line}");
    }
}

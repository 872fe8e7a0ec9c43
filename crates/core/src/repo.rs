//! The persistent bug/corpus repository: forensics bundles distilled into a
//! seed corpus for later campaigns.
//!
//! BugForge's central observation (PAPERS.md) is that a bug found once is a
//! *generator* of future bugs: its PoC re-fires as a regression tripwire,
//! and the boundary literals inside it are exactly the arguments that broke
//! one function and will plausibly break others — in the same dialect or a
//! different one. This module is that loop's persistence layer:
//!
//! ```text
//! <root>/
//!   repo.json                       # format marker + version
//!   entries/<sanitized-fault-id>/
//!     entry.json                    # provenance (flat JSON, one line)
//!     poc.sql                       # the minimized PoC
//!     literals.sql                  # its boundary literals, one per line
//! ```
//!
//! Campaigns consume a repository through
//! [`CampaignConfig::repository`](crate::campaign::CampaignConfig::repository):
//! same-dialect PoCs are appended to
//! the seed corpus (phase 1 re-executes them, so known faults re-fire
//! within the first statements — a regression tripwire), and *every*
//! entry's boundary literals — cross-dialect included — extend the P1.1
//! generation pool, so a ClickHouse PoC's literals become MonetDB seeds.
//!
//! Both extensions happen at *planning* time from data sorted by fault id,
//! so a repository-armed campaign keeps the byte-identical-at-any-worker-
//! count guarantee: the repository only changes what the plan contains,
//! never how it executes.

use crate::collect::Collection;
use crate::patterns::GenCtx;
use soft_obs::forensics::{sanitize_dir_name, Bundle};
use soft_obs::json::{self, Record};
use soft_parser::ast::{Expr, SelectBody, SelectItem, Statement};
use soft_parser::visit;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// The repository format marker written to `repo.json`.
const FORMAT: &str = "soft-repo";
/// The repository format version.
const VERSION: i64 = 1;

/// One repository entry: a minimized PoC with provenance and its extracted
/// boundary literals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepoEntry {
    /// The fault's stable id (also the entry directory name, sanitized).
    pub fault_id: String,
    /// Dialect display name the PoC fires on (e.g. `ClickHouse`).
    pub dialect: String,
    /// Crash kind abbreviation, or `LOGIC` for wrong-result findings.
    pub kind: String,
    /// Function category label.
    pub category: String,
    /// The pattern whose statement first triggered the fault.
    pub found_by_pattern: String,
    /// Function the fault fired in, when known.
    pub function: Option<String>,
    /// The oracle that raised it (logic findings only).
    pub oracle: Option<String>,
    /// Global statement index of first discovery in the source campaign.
    pub statements_until_found: usize,
    /// The minimized PoC.
    pub poc: String,
    /// Boundary literals extracted from the PoC's function arguments,
    /// deduplicated and sorted (deterministic cross-dialect seed material).
    pub literals: Vec<String>,
}

impl RepoEntry {
    /// Distills a forensics bundle into a repository entry.
    pub fn from_bundle(bundle: &Bundle) -> RepoEntry {
        RepoEntry {
            fault_id: bundle.fault_id.clone(),
            dialect: bundle.dialect.clone(),
            kind: bundle.kind.clone(),
            category: bundle.category.clone(),
            found_by_pattern: bundle.found_by_pattern.clone(),
            function: bundle.function.clone(),
            oracle: bundle.oracle.clone(),
            statements_until_found: bundle.statements_until_found,
            poc: bundle.poc.clone(),
            literals: boundary_literals_of(&bundle.poc),
        }
    }

    fn render_meta(&self) -> String {
        let opt = |key: &str, v: &Option<String>| match v {
            Some(s) => json::str_field(key, s),
            None => json::null_field(key),
        };
        let fields = [
            json::str_field("fault_id", &self.fault_id),
            json::str_field("dialect", &self.dialect),
            json::str_field("kind", &self.kind),
            json::str_field("category", &self.category),
            json::str_field("found_by_pattern", &self.found_by_pattern),
            opt("function", &self.function),
            opt("oracle", &self.oracle),
            json::num_field("statements_until_found", self.statements_until_found as i64),
        ];
        format!("{{{}}}\n", fields.join(", "))
    }
}

/// Running totals for one `ingest` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Entries created.
    pub added: usize,
    /// Existing entries overwritten (same fault id seen again).
    pub updated: usize,
}

/// Aggregate repository statistics (for `repro repo stats`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepoStats {
    /// Total entries.
    pub entries: usize,
    /// Distinct boundary literals across all entries.
    pub literals: usize,
    /// `(dialect, entry count)` in dialect name order.
    pub per_dialect: Vec<(String, usize)>,
}

impl RepoStats {
    /// Renders the stats as the `repro repo stats` report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "entries: {}", self.entries);
        let _ = writeln!(out, "distinct boundary literals: {}", self.literals);
        for (dialect, n) in &self.per_dialect {
            let _ = writeln!(out, "  {dialect}: {n}");
        }
        out
    }
}

/// A persistent seed repository rooted at a directory.
#[derive(Debug, Clone)]
pub struct SeedRepository {
    root: PathBuf,
    /// Entries sorted by fault id — load order is part of the campaign's
    /// determinism contract.
    entries: Vec<RepoEntry>,
}

impl SeedRepository {
    /// Creates an empty repository at `root` (idempotent: re-initialising
    /// an existing repository keeps its entries).
    pub fn init(root: &Path) -> Result<SeedRepository, String> {
        fs::create_dir_all(root.join("entries"))
            .map_err(|e| format!("{}: {e}", root.display()))?;
        let marker = root.join("repo.json");
        if !marker.is_file() {
            let line = format!(
                "{{{}, {}}}\n",
                json::str_field("format", FORMAT),
                json::num_field("version", VERSION),
            );
            fs::write(&marker, line).map_err(|e| format!("{}: {e}", marker.display()))?;
        }
        SeedRepository::load(root)
    }

    /// Loads a repository, verifying the format marker and reading every
    /// entry (sorted by fault id).
    pub fn load(root: &Path) -> Result<SeedRepository, String> {
        let marker = root.join("repo.json");
        let text = fs::read_to_string(&marker)
            .map_err(|e| format!("{}: {e} (run `repro repo init` first?)", marker.display()))?;
        match Record::parse(text.trim(), marker.display())?.str("format") {
            Some(FORMAT) => {}
            other => {
                return Err(format!(
                    "{}: not a seed repository (format {other:?})",
                    marker.display()
                ))
            }
        }
        let mut entries = Vec::new();
        let entries_dir = root.join("entries");
        if entries_dir.is_dir() {
            let dir = fs::read_dir(&entries_dir)
                .map_err(|e| format!("{}: {e}", entries_dir.display()))?;
            for item in dir {
                let item = item.map_err(|e| format!("{}: {e}", entries_dir.display()))?;
                let dir = item.path();
                if dir.is_dir() && dir.join("entry.json").is_file() {
                    entries.push(read_entry(&dir)?);
                }
            }
        }
        entries.sort_by(|a, b| a.fault_id.cmp(&b.fault_id));
        Ok(SeedRepository { root: root.to_path_buf(), entries })
    }

    /// The repository's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The entries, sorted by fault id.
    pub fn entries(&self) -> &[RepoEntry] {
        &self.entries
    }

    /// Ingests forensics bundles (a `findings/` root from `repro bundle` or
    /// `repro campaign --findings`), writing one entry per unique fault id.
    /// Re-ingesting a fault overwrites its entry — idempotent by
    /// construction.
    pub fn ingest(&mut self, bundles: &[Bundle]) -> Result<IngestStats, String> {
        let mut stats = IngestStats::default();
        for bundle in bundles {
            let entry = RepoEntry::from_bundle(bundle);
            let dir = self.root.join("entries").join(sanitize_dir_name(&entry.fault_id));
            let existed = dir.join("entry.json").is_file();
            fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            fs::write(dir.join("entry.json"), entry.render_meta())
                .map_err(|e| format!("{}: {e}", dir.display()))?;
            fs::write(dir.join("poc.sql"), format!("{}\n", entry.poc.trim_end()))
                .map_err(|e| format!("{}: {e}", dir.display()))?;
            let mut literals = entry.literals.join("\n");
            if !literals.is_empty() {
                literals.push('\n');
            }
            fs::write(dir.join("literals.sql"), literals)
                .map_err(|e| format!("{}: {e}", dir.display()))?;
            if existed {
                stats.updated += 1;
            } else {
                stats.added += 1;
            }
            self.entries.retain(|e| e.fault_id != entry.fault_id);
            self.entries.push(entry);
        }
        self.entries.sort_by(|a, b| a.fault_id.cmp(&b.fault_id));
        Ok(stats)
    }

    /// Aggregate statistics over the loaded entries.
    pub fn stats(&self) -> RepoStats {
        let mut per_dialect: Vec<(String, usize)> = Vec::new();
        let mut literals: HashSet<&str> = HashSet::new();
        for e in &self.entries {
            match per_dialect.iter_mut().find(|(d, _)| d == &e.dialect) {
                Some((_, n)) => *n += 1,
                None => per_dialect.push((e.dialect.clone(), 1)),
            }
            literals.extend(e.literals.iter().map(String::as_str));
        }
        per_dialect.sort();
        RepoStats { entries: self.entries.len(), literals: literals.len(), per_dialect }
    }

    /// Exports the repository as executable SQL: every PoC (optionally
    /// filtered to one dialect display name), with provenance comments.
    /// Stable across loads — entries render in fault-id order.
    pub fn export(&self, dialect: Option<&str>) -> String {
        let mut out = String::new();
        for e in &self.entries {
            if dialect.is_some_and(|d| d != e.dialect) {
                continue;
            }
            let _ = writeln!(
                out,
                "-- {} [{} {}] on {} via {}",
                e.fault_id, e.kind, e.category, e.dialect, e.found_by_pattern
            );
            let _ = writeln!(out, "{};", e.poc.trim_end().trim_end_matches(';'));
        }
        out
    }

    /// The distinct boundary literals of every entry (all dialects), sorted
    /// — the cross-dialect seed material.
    pub fn boundary_literals(&self) -> Vec<String> {
        let mut out: Vec<String> =
            self.entries.iter().flat_map(|e| e.literals.iter().cloned()).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Appends this repository's same-dialect PoCs to a campaign's seed
    /// corpus. The PoCs execute in phase 1, so a regression re-fires within
    /// the campaign's first statements.
    pub fn extend_seeds(&self, dialect_name: &str, collection: &mut Collection) {
        let mut seen: HashSet<String> =
            collection.seeds.iter().map(|s| s.to_string()).collect();
        for e in &self.entries {
            if e.dialect != dialect_name {
                continue;
            }
            let Ok(stmt) = soft_parser::parse_statement(&e.poc) else { continue };
            if !matches!(stmt, Statement::Select(_)) {
                continue;
            }
            if seen.insert(stmt.to_string()) {
                collection.seeds.push(stmt);
            }
        }
    }

    /// Extends the P1.1 boundary-literal pool with every entry's literals —
    /// cross-dialect by design: a literal that broke one engine is a prime
    /// candidate against the others.
    pub fn extend_pool(&self, ctx: &mut GenCtx) {
        let mut seen: HashSet<String> = ctx.pool.iter().map(|e| e.to_string()).collect();
        for lit in self.boundary_literals() {
            let Some(expr) = parse_literal(&lit) else { continue };
            if seen.insert(expr.to_string()) {
                ctx.pool.push(expr);
            }
        }
    }
}

fn read_entry(dir: &Path) -> Result<RepoEntry, String> {
    let meta_path = dir.join("entry.json");
    let meta = fs::read_to_string(&meta_path)
        .map_err(|e| format!("{}: {e}", meta_path.display()))?;
    let meta = Record::parse(meta.trim(), meta_path.display())?;
    let poc_path = dir.join("poc.sql");
    let poc = fs::read_to_string(&poc_path)
        .map(|s| s.trim_end().to_string())
        .map_err(|e| format!("{}: {e}", poc_path.display()))?;
    let literals = match fs::read_to_string(dir.join("literals.sql")) {
        Ok(text) => text.lines().map(str::to_string).collect(),
        Err(_) => Vec::new(),
    };
    Ok(RepoEntry {
        fault_id: meta.string("fault_id")?,
        dialect: meta.string("dialect")?,
        kind: meta.string("kind")?,
        category: meta.string("category")?,
        found_by_pattern: meta.string("found_by_pattern")?,
        function: meta.str("function").map(str::to_string),
        oracle: meta.str("oracle").map(str::to_string),
        statements_until_found: meta.count("statements_until_found")?,
        poc,
        literals,
    })
}

/// Extracts the boundary literals of a PoC: every non-call, non-column
/// argument of its function expressions, rendered, deduplicated, sorted.
fn boundary_literals_of(poc: &str) -> Vec<String> {
    let Ok(stmt) = soft_parser::parse_statement(poc) else { return Vec::new() };
    let mut out: Vec<String> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    for fx in visit::collect_function_exprs(&stmt) {
        for arg in &fx.args {
            if matches!(arg, Expr::Function(_) | Expr::Column(_) | Expr::Star) {
                continue;
            }
            let rendered = arg.to_string();
            if seen.insert(rendered.clone()) {
                out.push(rendered);
            }
        }
    }
    out.sort();
    out
}

/// Parses a rendered literal back into an expression via `SELECT <lit>`.
fn parse_literal(lit: &str) -> Option<Expr> {
    let stmt = soft_parser::parse_statement(&format!("SELECT {lit}")).ok()?;
    let Statement::Select(select) = stmt else { return None };
    let SelectBody::Query(query) = select.body else { return None };
    match query.items.into_iter().next()? {
        SelectItem::Expr { expr, .. } => Some(expr),
        SelectItem::Wildcard => Some(Expr::Star),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("soft-repo-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_bundle() -> Bundle {
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
            poc: "SELECT substr('', 1, 99999999999999999999)".into(),
            original: "SELECT substr('', 1, 99999999999999999999)".into(),
        }
    }

    #[test]
    fn init_ingest_load_round_trips() {
        let root = temp_root("roundtrip");
        let mut repo = SeedRepository::init(&root).expect("init");
        assert!(repo.entries().is_empty());
        let stats = repo.ingest(&[sample_bundle()]).expect("ingest");
        assert_eq!(stats, IngestStats { added: 1, updated: 0 });

        let back = SeedRepository::load(&root).expect("load");
        assert_eq!(back.entries(), repo.entries());
        let entry = &back.entries()[0];
        assert_eq!(entry.fault_id, "clickhouse-string-npd-listing1-3");
        assert!(
            entry.literals.contains(&"''".to_string())
                && entry.literals.contains(&"99999999999999999999".to_string()),
            "literal extraction missed boundary arguments: {:?}",
            entry.literals
        );

        // Re-ingesting the same fault updates in place.
        let again = repo.ingest(&[sample_bundle()]).expect("re-ingest");
        assert_eq!(again, IngestStats { added: 0, updated: 1 });
        assert_eq!(SeedRepository::load(&root).expect("reload").entries().len(), 1);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn export_is_stable_and_filterable() {
        let root = temp_root("export");
        let mut repo = SeedRepository::init(&root).expect("init");
        let mut other = sample_bundle();
        other.fault_id = "monetdb-math-so-1".into();
        other.dialect = "MonetDB".into();
        other.poc = "SELECT repeat('x', 1000000)".into();
        repo.ingest(&[sample_bundle(), other]).expect("ingest");

        let all = repo.export(None);
        assert!(all.contains("clickhouse-string-npd-listing1-3"), "{all}");
        assert!(all.contains("SELECT repeat('x', 1000000);"), "{all}");
        let ch = repo.export(Some("ClickHouse"));
        assert!(!ch.contains("MonetDB"), "{ch}");
        // Stable across loads.
        assert_eq!(SeedRepository::load(&root).expect("reload").export(None), all);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn pool_extension_is_cross_dialect_and_deduplicated() {
        let root = temp_root("pool");
        let mut repo = SeedRepository::init(&root).expect("init");
        repo.ingest(&[sample_bundle()]).expect("ingest");

        let mut ctx = GenCtx {
            pool: crate::pool::boundary_literals(),
            donor_exprs: Vec::new(),
            donor_args: Vec::new(),
            wrappers: Vec::new(),
            cast_types: Vec::new(),
        };
        let before = ctx.pool.len();
        repo.extend_pool(&mut ctx);
        let after = ctx.pool.len();
        // `''` is already in the default pool; the 20-nines literal is too
        // (DIGIT_LENGTHS includes 20) — so extension must dedup, and any
        // genuinely new literal must land exactly once.
        let mut rendered: Vec<String> = ctx.pool.iter().map(|e| e.to_string()).collect();
        rendered.sort();
        let n = rendered.len();
        rendered.dedup();
        assert_eq!(n, rendered.len(), "pool extension introduced duplicates");
        assert!(after >= before);
        // Idempotent.
        repo.extend_pool(&mut ctx);
        assert_eq!(ctx.pool.len(), after);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn seed_extension_is_same_dialect_only() {
        let root = temp_root("seeds");
        let mut repo = SeedRepository::init(&root).expect("init");
        let mut other = sample_bundle();
        other.fault_id = "monetdb-math-so-1".into();
        other.dialect = "MonetDB".into();
        other.poc = "SELECT repeat('x', 1000000)".into();
        repo.ingest(&[sample_bundle(), other]).expect("ingest");

        let mut collection = Collection::default();
        repo.extend_seeds("ClickHouse", &mut collection);
        assert_eq!(collection.seeds.len(), 1);
        assert!(collection.seeds[0].to_string().contains("substr"));
        // Re-extending dedups.
        repo.extend_seeds("ClickHouse", &mut collection);
        assert_eq!(collection.seeds.len(), 1);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn load_rejects_non_repositories() {
        let root = temp_root("reject");
        fs::create_dir_all(&root).expect("mkdir");
        assert!(SeedRepository::load(&root).is_err(), "missing repo.json must fail");
        fs::write(root.join("repo.json"), "{\"format\": \"other\"}\n").expect("write");
        let err = SeedRepository::load(&root).expect_err("wrong format");
        assert!(err.contains("not a seed repository"), "{err}");
        fs::remove_dir_all(&root).expect("cleanup");
    }
}

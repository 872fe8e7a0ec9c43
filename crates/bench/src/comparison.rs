//! The tool comparison of §7.5: Tables 5 and 6 and the 24-hour bug counts.
//!
//! Wall-clock budgets are replaced by deterministic statement budgets
//! (DESIGN.md §2); each tool gets the same budget per target, mirroring the
//! paper's equal-time design. The support matrix follows the paper: SQUIRREL
//! supports PostgreSQL/MySQL/MariaDB, SQLsmith PostgreSQL/MonetDB, SQLancer
//! PostgreSQL/MySQL/MariaDB/ClickHouse, and SOFT everything.

use soft_baselines::{SqlancerLite, SqlsmithLite, SquirrelLite};
use soft_core::campaign::{default_workers, run_generator, run_soft_parallel, CampaignConfig};
use soft_dialects::{DialectId, DialectProfile};

/// The tools compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tool {
    /// SQUIRREL-lite.
    Squirrel,
    /// SQLancer-lite (PQS).
    Sqlancer,
    /// SQLsmith-lite.
    Sqlsmith,
    /// SOFT (this paper's tool).
    Soft,
}

impl Tool {
    /// All four, Table 5 column order.
    pub const ALL: [Tool; 4] = [Tool::Squirrel, Tool::Sqlancer, Tool::Sqlsmith, Tool::Soft];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Tool::Squirrel => "SQUIRREL",
            Tool::Sqlancer => "SQLancer",
            Tool::Sqlsmith => "SQLsmith",
            Tool::Soft => "SOFT",
        }
    }

    /// The paper's support matrix (which DBMSs each tool can test).
    pub fn supports(&self, id: DialectId) -> bool {
        match self {
            Tool::Squirrel => matches!(
                id,
                DialectId::Postgres | DialectId::Mysql | DialectId::Mariadb
            ),
            Tool::Sqlsmith => matches!(id, DialectId::Postgres | DialectId::Monetdb),
            Tool::Sqlancer => matches!(
                id,
                DialectId::Postgres | DialectId::Mysql | DialectId::Mariadb | DialectId::Clickhouse
            ),
            Tool::Soft => true,
        }
    }
}

/// The five targets Tables 5/6 report on.
pub const COMPARED_DIALECTS: [DialectId; 5] = [
    DialectId::Postgres,
    DialectId::Mysql,
    DialectId::Mariadb,
    DialectId::Clickhouse,
    DialectId::Monetdb,
];

/// One (tool, target) measurement.
#[derive(Debug, Clone)]
pub struct ToolResult {
    /// The tool.
    pub tool: Tool,
    /// The target.
    pub dialect: DialectId,
    /// Distinct built-in functions triggered (Table 5).
    pub functions: usize,
    /// Branches covered in the function component (Table 6).
    pub branches: usize,
    /// Unique SQL function bugs found (§7.5).
    pub bugs: usize,
}

/// Runs the full comparison at the given per-(tool, target) budget.
pub fn run_comparison(budget: usize) -> Vec<ToolResult> {
    let mut out = Vec::new();
    for id in COMPARED_DIALECTS {
        let profile = DialectProfile::build(id);
        for tool in Tool::ALL {
            if !tool.supports(id) {
                continue;
            }
            let report = match tool {
                // The campaign shards across every available core; the
                // report is identical to the serial run by construction.
                Tool::Soft => run_soft_parallel(
                    &profile,
                    &CampaignConfig {
                        max_statements: budget,
                        per_seed_cap: 64,
                        ..CampaignConfig::default()
                    },
                    default_workers(),
                ),
                Tool::Sqlsmith => {
                    let mut g = SqlsmithLite::new(&profile, 0xBEEF);
                    run_generator(&profile, &mut g, budget)
                }
                Tool::Sqlancer => {
                    let mut g = SqlancerLite::new(0xFACE);
                    run_generator(&profile, &mut g, budget)
                }
                Tool::Squirrel => {
                    let mut g = SquirrelLite::new(&profile, 0xD00D);
                    run_generator(&profile, &mut g, budget)
                }
            };
            out.push(ToolResult {
                tool,
                dialect: id,
                functions: report.functions_triggered,
                branches: report.branches_covered,
                bugs: report.findings.len(),
            });
        }
    }
    out
}

/// Renders results as a Table 5 / Table 6-shaped text table for one metric.
pub fn render_metric(
    results: &[ToolResult],
    metric: impl Fn(&ToolResult) -> usize,
    title: &str,
) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}\n",
        "DBMS", "SQUIRREL", "SQLancer", "SQLsmith", "SOFT"
    ));
    let mut totals = [0usize; 4];
    for id in COMPARED_DIALECTS {
        let mut row = format!("{:<12}", id.name());
        for (ti, tool) in Tool::ALL.iter().enumerate() {
            let cell = results
                .iter()
                .find(|r| r.tool == *tool && r.dialect == id)
                .map(&metric);
            match cell {
                Some(v) => {
                    totals[ti] += v;
                    row.push_str(&format!(" {v:>10}"));
                }
                None => row.push_str(&format!(" {:>10}", "-")),
            }
        }
        out.push_str(&row);
        out.push('\n');
    }
    out.push_str(&format!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}\n",
        "Total", totals[0], totals[1], totals[2], totals[3]
    ));
    out
}

/// Checks the paper's qualitative claims against a result set; returns the
/// list of violated claims (empty = full shape agreement).
pub fn check_shape(results: &[ToolResult]) -> Vec<String> {
    let get = |tool: Tool, id: DialectId, f: &dyn Fn(&ToolResult) -> usize| {
        results
            .iter()
            .find(|r| r.tool == tool && r.dialect == id)
            .map(f)
            .unwrap_or(0)
    };
    let mut violations = Vec::new();
    for id in COMPARED_DIALECTS {
        for tool in [Tool::Squirrel, Tool::Sqlancer, Tool::Sqlsmith] {
            if !tool.supports(id) {
                continue;
            }
            let f = |r: &ToolResult| r.functions;
            if get(Tool::Soft, id, &f) <= get(tool, id, &f) {
                violations.push(format!(
                    "{}: SOFT should trigger more functions than {}",
                    id.name(),
                    tool.name()
                ));
            }
            let b = |r: &ToolResult| r.branches;
            if get(Tool::Soft, id, &b) <= get(tool, id, &b) {
                violations.push(format!(
                    "{}: SOFT should cover more branches than {}",
                    id.name(),
                    tool.name()
                ));
            }
            let bugs = |r: &ToolResult| r.bugs;
            if get(tool, id, &bugs) != 0 {
                violations.push(format!(
                    "{}: {} should find no SQL function bugs",
                    id.name(),
                    tool.name()
                ));
            }
        }
        if get(Tool::Soft, id, &|r: &ToolResult| r.bugs) == 0 {
            violations.push(format!("{}: SOFT should find bugs", id.name()));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_matrix_matches_paper() {
        assert!(Tool::Squirrel.supports(DialectId::Mariadb));
        assert!(!Tool::Squirrel.supports(DialectId::Clickhouse));
        assert!(Tool::Sqlsmith.supports(DialectId::Monetdb));
        assert!(!Tool::Sqlsmith.supports(DialectId::Mysql));
        assert!(Tool::Sqlancer.supports(DialectId::Clickhouse));
        assert!(!Tool::Sqlancer.supports(DialectId::Monetdb));
        for id in DialectId::ALL {
            assert!(Tool::Soft.supports(id));
        }
    }

    #[test]
    fn small_budget_comparison_reproduces_the_shape() {
        // A fast smoke version of Tables 5/6; the bench binary runs the
        // full-budget version.
        let results = run_comparison(6_000);
        let violations = check_shape(&results);
        assert!(violations.is_empty(), "{violations:?}");
    }
}

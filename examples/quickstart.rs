//! Quickstart: run SOFT against one simulated target and print what it
//! finds.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use soft_repro::dialects::{DialectId, DialectProfile};
use soft_repro::soft::campaign::{run_soft_parallel, CampaignConfig};

fn main() {
    // Pick a target. ClickHouse carries six Table 4 bugs.
    let profile = DialectProfile::build(DialectId::Clickhouse);
    println!(
        "target: {} ({} functions exposed, {} injected faults)",
        profile.id,
        profile.registry.name_count(),
        profile.faults.len()
    );

    // Run a small, deterministic campaign.
    let config =
        CampaignConfig { max_statements: 40_000, per_seed_cap: 48, ..CampaignConfig::default() };
    let report = run_soft_parallel(&profile, &config, 1);

    println!(
        "\nexecuted {} statements; triggered {} functions; covered {} branches",
        report.statements_executed, report.functions_triggered, report.branches_covered
    );
    println!(
        "{} unique bugs, {} false positives (resource-limit kills)\n",
        report.findings.len(),
        report.false_positives
    );
    for f in &report.findings {
        println!(
            "[{}] {} in {} — found by {} after {} statements",
            f.kind.abbrev(),
            f.fault_id,
            f.function.as_deref().unwrap_or("?"),
            f.found_by_pattern,
            f.statements_until_found
        );
        println!("    PoC:       {}", f.poc);
        // Reduce the PoC before "reporting" it, as §7.1's logging step
        // would before filing upstream.
        let minimized = soft_repro::soft::minimize::minimize(&f.poc, || profile.engine());
        if minimized != f.poc {
            println!("    minimized: {minimized}");
        }
    }
}

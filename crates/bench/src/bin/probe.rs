fn main() {
    use soft_core::campaign::{run_soft_parallel, CampaignConfig};
    use soft_dialects::{DialectId, DialectProfile};
    let cfg = CampaignConfig::default();
    let mut total = 0;
    let mut expected = 0;
    for id in DialectId::ALL {
        let p = DialectProfile::build(id);
        let t0 = std::time::Instant::now();
        let r = run_soft_parallel(&p, &cfg, 1);
        println!(
            "{:<12} found {:>2}/{:<2}  stmts {:>6}  fns {:>4}  branches {:>6}  fps {:>3} errs {:>6}  [{:?}]",
            id.name(), r.findings.len(), p.faults.len(), r.statements_executed,
            r.functions_triggered, r.branches_covered, r.false_positives, r.errors, t0.elapsed()
        );
        let missing: Vec<&str> = p.faults.iter()
            .filter(|f| !r.findings.iter().any(|x| x.fault_id == f.spec.id))
            .map(|f| f.spec.id.as_str()).collect();
        if !missing.is_empty() { println!("   missing: {missing:?}"); }
        // found-by vs credited groups
        let mut agree=0; for f in &r.findings { if f.found_by_pattern.group()==f.credited_pattern.group() {agree+=1;} else { println!("   DISAGREE {}: credited {} found-by {} via {}", f.fault_id, f.credited_pattern, f.found_by_pattern, f.poc); } }
        println!("   group attribution agreement: {agree}/{}", r.findings.len());
        total += r.findings.len(); expected += p.faults.len();
    }
    println!("TOTAL {total}/{expected}");
}

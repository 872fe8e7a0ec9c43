//! Coverage branch ids are integers, and the Table 6 counts they give must
//! be the counts of the string keys they replaced: `("feat", function,
//! key)` for a structured feature, with `key` one of `arity-N`,
//! `arg{i}-{type}`, `arg{i}-{class:?}`, `arg{i}-from-fn`, `arg{i}-via-cast`
//! or, under the function `cast`, `{from}->{to}`; and `("fn", function,
//! site)` for an explicit `ctx.branch(site)`. That holds if two old keys
//! are equal exactly when their new ids are, over every key the executor
//! can emit, which this test enumerates.

use soft_repro::dialects::DialectProfile;
use soft_repro::engine::coverage::{branch_id, feature_id, name_id, Feature};
use soft_repro::types::boundary::CLASS_TABLE;
use soft_repro::types::value::DataType;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;

/// Every `DataType`: the castable ones plus the three a cast never targets.
fn data_types() -> Vec<DataType> {
    let mut all = vec![DataType::Null, DataType::Row, DataType::Star];
    all.extend(DataType::CASTABLE);
    all
}

/// The string key the executor formatted for `feature` before ids were
/// integers.
fn old_key(feature: Feature) -> String {
    match feature {
        Feature::Arity(n) => format!("arity-{n}"),
        Feature::ArgType(i, t) => format!("arg{i}-{t}"),
        Feature::ArgClass(i, bit) => format!("arg{i}-{:?}", CLASS_TABLE[usize::from(bit)]),
        Feature::ArgFromFn(i) => format!("arg{i}-from-fn"),
        Feature::ArgViaCast(i) => format!("arg{i}-via-cast"),
        Feature::Cast(from, to) => format!("{from}->{to}"),
    }
}

/// Every feature a call's arguments can record.
fn call_features() -> Vec<Feature> {
    let mut out: Vec<Feature> = (0..=8).map(Feature::Arity).collect();
    for i in 0..4u8 {
        out.extend(data_types().into_iter().map(|t| Feature::ArgType(i, t)));
        out.extend((0..CLASS_TABLE.len() as u8).map(|bit| Feature::ArgClass(i, bit)));
        out.push(Feature::ArgFromFn(i));
        out.push(Feature::ArgViaCast(i));
    }
    out
}

/// Every string literal passed to a `.branch(` call in the engine's
/// sources.
fn branch_sites() -> BTreeSet<String> {
    fn walk(dir: &Path, sites: &mut BTreeSet<String>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(&path, sites);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).expect("readable source");
                for (at, _) in src.match_indices(".branch(\"") {
                    let rest = &src[at + ".branch(\"".len()..];
                    sites.insert(rest[..rest.find('"').expect("closed literal")].to_string());
                }
            }
        }
    }
    let mut sites = BTreeSet::new();
    walk(&Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/engine/src"), &mut sites);
    sites
}

#[test]
fn integer_ids_are_injective_on_every_emittable_key() {
    let functions: BTreeSet<&'static str> = DialectProfile::all()
        .iter()
        .flat_map(|p| p.engine().registry().defs().iter().map(|d| d.name).collect::<Vec<_>>())
        .collect();
    let sites = branch_sites();
    assert!(functions.len() > 100, "only {} canonical functions", functions.len());
    assert!(sites.len() > 50, "only {} branch sites", sites.len());

    let mut keys: Vec<(String, u64)> = Vec::new();
    let features = call_features();
    for &function in &functions {
        let fid = name_id(function);
        for &f in &features {
            keys.push((format!("feat\u{0}{function}\u{0}{}", old_key(f)), feature_id(fid, f)));
        }
        for site in &sites {
            keys.push((format!("fn\u{0}{function}\u{0}{site}"), branch_id(function, site)));
        }
    }
    for from in data_types() {
        for to in data_types() {
            let f = Feature::Cast(from, to);
            keys.push((format!("feat\u{0}cast\u{0}{}", old_key(f)), feature_id(name_id("cast"), f)));
        }
    }

    let mut by_id: HashMap<u64, &str> = HashMap::new();
    let mut by_key: HashMap<&str, u64> = HashMap::new();
    for (key, id) in &keys {
        if let Some(other) = by_id.insert(*id, key) {
            assert_eq!(other, key, "two old keys share the id {id:#x}");
        }
        if let Some(other) = by_key.insert(key, *id) {
            assert_eq!(other, *id, "one old key got two ids: {key:?}");
        }
    }
    assert_eq!(by_id.len(), by_key.len());
}

//! Coverage instrumentation for the SQL-function component.
//!
//! Table 5 of the paper counts *triggered built-in functions*; Table 6 counts
//! *covered code branches of the SQL-function modules* (gcov over the real
//! DBMS sources). This module is the substituted measurement (see DESIGN.md
//! §2): the function component records
//!
//! 1. every function name that executed, and
//! 2. a **feature branch** for each genuine decision point the built-in
//!    implementations annotate (`ctx.branch("substr", "negative-start")`)
//!    plus a structured universe of (function × argument-shape) branches
//!    derived from argument types and boundary classes.
//!
//! More boundary shapes reaching a function ⇒ more distinct branches, which
//! is the relationship Table 6 measures across tools.
//!
//! Branch ids are integers, as gcov's arc counters are. A structured
//! feature's id combines the content hash of the canonical function name
//! ([`name_id`]) with the [`Feature`]'s integer code, so the executor
//! records a call without formatting anything. An explicit decision point's
//! id is the content hash of (function, site) ([`branch_id`]). The ids are
//! injective on every (function, feature) and (function, site) the engine
//! can emit, so the counts equal those of the string keys the ids replaced
//! (`tests/coverage_ids.rs` enumerates them). Both sets hash with one fixed,
//! unseeded FxHash-style hasher.

use soft_types::value::DataType;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// The module's one hasher: FxHash's rotate-xor-multiply over 8-byte words,
/// with a fixed start, so ids are the same in every process and run.
#[derive(Debug, Clone, Copy, Default)]
struct CheapHasher(u64);

impl CheapHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for CheapHasher {
    fn write(&mut self, bytes: &[u8]) {
        // The length goes first, so zero padding of the last word cannot
        // make two inputs equal.
        self.add(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type CheapSet<T> = HashSet<T, BuildHasherDefault<CheapHasher>>;

/// MurmurHash3's 64-bit finaliser: a bijection, so distinct inputs keep
/// distinct ids, that spreads every input bit over the whole id.
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

fn content_hash(parts: &[&str]) -> u64 {
    let mut h = CheapHasher::default();
    for p in parts {
        h.write(p.as_bytes());
    }
    avalanche(h.finish())
}

/// The content id of a canonical function name: what [`feature_id`]
/// combines with a feature's code.
pub fn name_id(function: &str) -> u64 {
    content_hash(&[function])
}

/// The id of the explicit decision point `site` inside `function`.
pub fn branch_id(function: &str, site: &str) -> u64 {
    content_hash(&["fn", function, site])
}

/// The id of a structured feature of the function whose [`name_id`] is
/// `function`. For one function, distinct features have distinct codes and
/// the finaliser is a bijection, so they get distinct ids.
pub fn feature_id(function: u64, feature: Feature) -> u64 {
    avalanche(function ^ u64::from(feature.code()))
}

/// A structured feature branch: an argument shape the executor records for
/// every call (arguments 0–3), or the source and target types of a cast
/// (recorded under the function `cast`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feature {
    /// The call's argument count, capped at 8.
    Arity(u8),
    /// The argument at this index has this type.
    ArgType(u8, DataType),
    /// The argument at this index has the boundary class of this bit of
    /// [`soft_types::boundary::class_bits`].
    ArgClass(u8, u8),
    /// The argument at this index came out of a nested function.
    ArgFromFn(u8),
    /// The argument at this index went through a cast.
    ArgViaCast(u8),
    /// A cast from the first type to the second.
    Cast(DataType, DataType),
}

impl Feature {
    /// The feature's integer code: the kind in bits 24–26, the argument
    /// index in bits 16–23, and the payload (arity, `DataType`
    /// discriminant, class bit, or a cast's two discriminants) in bits 0–15.
    /// Every field fits its bits, so distinct features have distinct codes.
    fn code(self) -> u32 {
        let (kind, index, payload) = match self {
            Feature::Arity(n) => (0, 0, u32::from(n)),
            Feature::ArgType(i, t) => (1, i, t as u32),
            Feature::ArgClass(i, bit) => (2, i, u32::from(bit)),
            Feature::ArgFromFn(i) => (3, i, 0),
            Feature::ArgViaCast(i) => (4, i, 0),
            Feature::Cast(from, to) => (5, 0, (from as u32) << 8 | to as u32),
        };
        kind << 24 | u32::from(index) << 16 | payload
    }
}

/// A coverage accumulator.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    functions: CheapSet<String>,
    branches: CheapSet<u64>,
}

impl Coverage {
    /// Creates an empty accumulator.
    pub fn new() -> Coverage {
        Coverage::default()
    }

    /// Records that `function` executed.
    pub fn record_function(&mut self, function: &str) {
        if !self.functions.contains(function) {
            self.functions.insert(function.to_string());
        }
    }

    /// Records an explicit decision-point branch inside `function`.
    pub fn record_branch(&mut self, function: &str, site: &str) {
        self.branches.insert(branch_id(function, site));
    }

    /// Records a structured feature branch of the function whose
    /// [`name_id`] is `function`.
    pub fn record_feature(&mut self, function: u64, feature: Feature) {
        self.branches.insert(feature_id(function, feature));
    }

    /// Number of distinct functions triggered (the Table 5 metric).
    pub fn functions_triggered(&self) -> usize {
        self.functions.len()
    }

    /// Number of distinct branches covered (the Table 6 metric).
    pub fn branches_covered(&self) -> usize {
        self.branches.len()
    }

    /// The triggered function names, sorted.
    pub fn function_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.functions.iter().cloned().collect();
        v.sort();
        v
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Coverage) {
        self.functions.extend(other.functions.iter().cloned());
        self.branches.extend(other.branches.iter().copied());
    }

    /// Clears all recorded coverage.
    pub fn reset(&mut self) {
        self.functions.clear();
        self.branches.clear();
    }

    /// The covered branch ids, sorted: what a differential test compares
    /// between two implementations of one built-in.
    #[cfg(test)]
    pub(crate) fn branch_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.branches.iter().copied().collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functions_dedupe() {
        let mut c = Coverage::new();
        c.record_function("avg");
        c.record_function("avg");
        c.record_function("sum");
        assert_eq!(c.functions_triggered(), 2);
        assert_eq!(c.function_names(), vec!["avg".to_string(), "sum".to_string()]);
    }

    #[test]
    fn branches_distinguish_function_and_site() {
        let mut c = Coverage::new();
        c.record_branch("substr", "neg-start");
        c.record_branch("substr", "neg-start");
        c.record_branch("substr", "zero-len");
        c.record_branch("left", "neg-start");
        assert_eq!(c.branches_covered(), 3);
    }

    #[test]
    fn feature_and_explicit_branches_are_distinct_namespaces() {
        // A site spelled like a feature's old string key is still a
        // different branch from the feature.
        let mut c = Coverage::new();
        c.record_branch("f", "arity-1");
        c.record_feature(name_id("f"), Feature::Arity(1));
        c.record_feature(name_id("f"), Feature::Arity(1));
        assert_eq!(c.branches_covered(), 2);
    }

    #[test]
    fn features_distinguish_function_kind_and_argument() {
        let mut c = Coverage::new();
        let f = name_id("f");
        c.record_feature(f, Feature::ArgFromFn(0));
        c.record_feature(f, Feature::ArgViaCast(0));
        c.record_feature(f, Feature::ArgFromFn(1));
        c.record_feature(name_id("g"), Feature::ArgFromFn(0));
        c.record_feature(f, Feature::ArgType(0, DataType::Text));
        c.record_feature(f, Feature::ArgType(0, DataType::Binary));
        assert_eq!(c.branches_covered(), 6);
    }

    #[test]
    fn merge_unions() {
        let mut a = Coverage::new();
        a.record_function("f");
        a.record_branch("f", "1");
        let mut b = Coverage::new();
        b.record_function("g");
        b.record_branch("f", "1");
        b.record_branch("f", "2");
        a.merge(&b);
        assert_eq!(a.functions_triggered(), 2);
        assert_eq!(a.branches_covered(), 2);
    }
}

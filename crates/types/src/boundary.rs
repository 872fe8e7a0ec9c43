//! Boundary-value classification.
//!
//! The paper's central empirical claim is that 87.4 % of SQL function bugs
//! are triggered by *boundary values* of arguments — values at the edges of
//! expected structures, ranges, lengths and nesting depths (§5). This module
//! gives those edges a vocabulary: every [`Value`] can
//! be classified into a set of [`BoundaryClass`]es. The engine uses the
//! classes for feature-branch coverage, the fault corpus uses them as trigger
//! predicates, and the analyses report on them.
//!
//! Boundary arguments are large on purpose (Patterns 1.4 and 3.1 build
//! repeated-prefix strings, the literal pools hold 4 KiB and 64 KiB
//! strings), so classification must not cost more as an argument grows
//! where the answer does not depend on its size. The one scan that could,
//! the repeated-prefix run, is capped: [`class_bits`] stops counting at
//! 512 repeats, the floor of the top [`BoundaryClass::RepeatedPrefix`]
//! bucket, and a fault predicate asking for at least `n` repeats stops at
//! `n` ([`repeated_prefix_run_capped`]).

use crate::value::Value;

/// A boundary feature of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BoundaryClass {
    /// SQL NULL.
    NullValue,
    /// The `*` pseudo-argument.
    StarValue,
    /// The empty string `''` (or empty binary).
    EmptyString,
    /// Numeric zero.
    ZeroNumeric,
    /// Negative number.
    NegativeNumeric,
    /// Integer with magnitude within 1000 of `i64::MIN`/`i64::MAX`.
    ExtremeInt,
    /// A non-finite float (NaN/±inf).
    NonFiniteFloat,
    /// Numeric value whose textual form has many digits; payload is the
    /// bucket floor: 10, 20, 40 or 65 digits.
    ManyDigits(u8),
    /// String whose length falls in a large bucket; payload is the bucket
    /// floor: 256, 4096 or 65536 bytes.
    LongString(u32),
    /// String consisting mostly of one repeated short prefix (the output
    /// shape of `REPEAT` and of Patterns 1.4/3.1); payload is the repeat
    /// count bucket floor: 8, 64 or 512.
    RepeatedPrefix(u32),
    /// Container or document nested deeply; payload is the depth bucket
    /// floor: 8, 32 or 64.
    DeepNesting(u8),
    /// Empty container (array/map/row with no elements).
    EmptyContainer,
    /// A string that looks like structured data (starts like JSON/XML/WKT)
    /// — the "crafted string literal in certain formats" class.
    StructuredText,
}

/// Buckets a digit count to the floors used by [`BoundaryClass::ManyDigits`].
fn digit_bucket(n: usize) -> Option<u8> {
    match n {
        0..=9 => None,
        10..=19 => Some(10),
        20..=39 => Some(20),
        40..=64 => Some(40),
        _ => Some(65),
    }
}

fn len_bucket(n: usize) -> Option<u32> {
    match n {
        0..=255 => None,
        256..=4095 => Some(256),
        4096..=65535 => Some(4096),
        _ => Some(65536),
    }
}

fn depth_bucket(n: usize) -> Option<u8> {
    match n {
        0..=7 => None,
        8..=31 => Some(8),
        32..=63 => Some(32),
        _ => Some(64),
    }
}

/// The floor of the top [`BoundaryClass::RepeatedPrefix`] bucket: a run
/// this long or longer classifies the same, so [`class_bits`] counts no
/// further.
const REPEAT_CAP: usize = 512;

fn repeat_bucket(n: usize) -> Option<u32> {
    match n {
        0..=7 => None,
        8..=63 => Some(8),
        64..=511 => Some(64),
        _ => Some(512),
    }
}

/// The length of the longest run of a repeated 1-4 byte prefix at the
/// start of `s` (e.g. `"[1,[1,[1,"` has a repeated 3-byte prefix with run
/// 3), capped at `cap`: it reads at most `cap` repeats of each prefix
/// length, so the cost is bounded by `cap`, not by the length of `s`.
pub fn repeated_prefix_run_capped(s: &str, cap: usize) -> usize {
    let bytes = s.as_bytes();
    let mut best = 1;
    for plen in 1..=4usize {
        if best >= cap || bytes.len() < plen * 2 {
            break;
        }
        let prefix = &bytes[..plen];
        let mut count = 1;
        let mut i = plen;
        while count < cap && i + plen <= bytes.len() && &bytes[i..i + plen] == prefix {
            count += 1;
            i += plen;
        }
        best = best.max(count);
    }
    best.min(cap)
}

/// Case-insensitive ASCII prefix test without allocating an uppercased copy
/// — `looks_structured` runs on every text argument of every call.
fn has_prefix_ci(t: &str, prefix: &str) -> bool {
    t.len() >= prefix.len() && t.as_bytes()[..prefix.len()].eq_ignore_ascii_case(prefix.as_bytes())
}

/// True if the text looks like a structured format a SQL function might
/// parse: JSON, XML, WKT, a date, or a network address.
pub fn looks_structured(s: &str) -> bool {
    let t = s.trim_start();
    if t.starts_with('{') || t.starts_with('[') || t.starts_with('<') {
        return true;
    }
    if has_prefix_ci(t, "POINT")
        || has_prefix_ci(t, "LINESTRING")
        || has_prefix_ci(t, "POLYGON")
        || has_prefix_ci(t, "GEOMETRYCOLLECTION")
    {
        return true;
    }
    // Date-like: dddd-dd-dd; address-like: contains dots or colons between digits.
    let b = t.as_bytes();
    if b.len() >= 8 && b[..4].iter().all(u8::is_ascii_digit) && b[4] == b'-' {
        return true;
    }
    // Address-like: nothing but digits and dots, at least three dots.
    dotted_digits(t)
}

/// True if `t` holds at least three dots and nothing but ASCII digits and
/// dots. One pass over 64-byte blocks, each tested and its dots counted
/// without a branch per byte; the first block holding any other byte ends
/// the pass, so ordinary text is rejected at once and an all-digit text
/// (`REPEAT('202', 100000)`) costs one branch-free scan.
fn dotted_digits(t: &str) -> bool {
    let mut dots = 0usize;
    for block in t.as_bytes().chunks(64) {
        // Byte-wide lanes: a block holds at most 64 dots.
        let (mut other, mut n) = (0u8, 0u8);
        for &c in block {
            let dot = u8::from(c == b'.');
            other |= u8::from(!c.is_ascii_digit()) & (dot ^ 1);
            n += dot;
        }
        if other != 0 {
            return false;
        }
        dots += usize::from(n);
    }
    dots >= 3
}

/// True if `s` contains at least `n` ASCII digits. Digits are counted a
/// 256-byte block at a time, without a branch per byte, and counting stops
/// once `n` is reached.
pub fn has_digits_at_least(s: &str, n: usize) -> bool {
    let mut count = 0;
    for block in s.as_bytes().chunks(256) {
        if count >= n {
            return true;
        }
        count += block.iter().filter(|c| c.is_ascii_digit()).count();
    }
    count >= n
}

/// The class universe in bit order: bit `i` of [`class_bits`] is
/// `CLASS_TABLE[i]`. The order is the sorted order [`classify`] promises
/// (variant order, then bucket payload order).
pub const CLASS_TABLE: [BoundaryClass; 22] = {
    use BoundaryClass::*;
    [
        NullValue,
        StarValue,
        EmptyString,
        ZeroNumeric,
        NegativeNumeric,
        ExtremeInt,
        NonFiniteFloat,
        ManyDigits(10),
        ManyDigits(20),
        ManyDigits(40),
        ManyDigits(65),
        LongString(256),
        LongString(4096),
        LongString(65536),
        RepeatedPrefix(8),
        RepeatedPrefix(64),
        RepeatedPrefix(512),
        DeepNesting(8),
        DeepNesting(32),
        DeepNesting(64),
        EmptyContainer,
        StructuredText,
    ]
};

fn class_bit(class: BoundaryClass) -> u32 {
    use BoundaryClass::*;
    // Must agree with `CLASS_TABLE` index for index — pinned by a test.
    let idx = match class {
        NullValue => 0,
        StarValue => 1,
        EmptyString => 2,
        ZeroNumeric => 3,
        NegativeNumeric => 4,
        ExtremeInt => 5,
        NonFiniteFloat => 6,
        ManyDigits(10) => 7,
        ManyDigits(20) => 8,
        ManyDigits(40) => 9,
        ManyDigits(_) => 10,
        LongString(256) => 11,
        LongString(4096) => 12,
        LongString(_) => 13,
        RepeatedPrefix(8) => 14,
        RepeatedPrefix(64) => 15,
        RepeatedPrefix(_) => 16,
        DeepNesting(8) => 17,
        DeepNesting(32) => 18,
        DeepNesting(_) => 19,
        EmptyContainer => 20,
        StructuredText => 21,
    };
    1 << idx
}

/// The boundary classes of a value as a bitmask over the (finite) class
/// universe — the allocation-free form of [`classify`], which decodes it.
/// Bit `i` is set iff `classify(value)` contains the `i`-th class in sorted
/// order.
pub fn class_bits(value: &Value) -> u32 {
    use BoundaryClass::*;
    let mut bits = 0u32;
    let mut set = |c: BoundaryClass| bits |= class_bit(c);
    match value {
        Value::Null => set(NullValue),
        Value::Star => set(StarValue),
        Value::Integer(i) => {
            if *i == 0 {
                set(ZeroNumeric);
            }
            if *i < 0 {
                set(NegativeNumeric);
            }
            let mag = i.unsigned_abs();
            if mag >= i64::MAX as u64 - 1000 {
                set(ExtremeInt);
            }
            let digits = mag.checked_ilog10().map_or(1, |l| l as usize + 1);
            if let Some(b) = digit_bucket(digits) {
                set(ManyDigits(b));
            }
        }
        Value::Decimal(d) => {
            if d.is_zero() {
                set(ZeroNumeric);
            }
            if d.is_negative() {
                set(NegativeNumeric);
            }
            if let Some(b) = digit_bucket(d.total_digits()) {
                set(ManyDigits(b));
            }
        }
        Value::Float(f) => {
            if *f == 0.0 {
                set(ZeroNumeric);
            }
            if *f < 0.0 {
                set(NegativeNumeric);
            }
            if !f.is_finite() {
                set(NonFiniteFloat);
            }
        }
        Value::Text(s) => {
            if s.is_empty() {
                set(EmptyString);
            }
            if let Some(b) = len_bucket(s.len()) {
                set(LongString(b));
            }
            if let Some(b) = repeat_bucket(repeated_prefix_run_capped(s, REPEAT_CAP)) {
                set(RepeatedPrefix(b));
            }
            if looks_structured(s) {
                set(StructuredText);
            }
        }
        Value::Binary(b) => {
            if b.is_empty() {
                set(EmptyString);
            }
            if let Some(bucket) = len_bucket(b.len()) {
                set(LongString(bucket));
            }
        }
        Value::Json(j) => {
            if let Some(b) = depth_bucket(j.depth()) {
                set(DeepNesting(b));
            }
            if j.length() == 0 {
                set(EmptyContainer);
            }
        }
        Value::Xml(x) => {
            let depth = x.roots.iter().map(|n| n.depth()).max().unwrap_or(0);
            if let Some(b) = depth_bucket(depth) {
                set(DeepNesting(b));
            }
            if x.roots.is_empty() {
                set(EmptyContainer);
            }
        }
        Value::Array(_) | Value::Row(_) => {
            let items_empty = match value {
                Value::Array(items) | Value::Row(items) => items.is_empty(),
                _ => unreachable!(),
            };
            if items_empty {
                set(EmptyContainer);
            }
            if let Some(b) = depth_bucket(container_depth(value)) {
                set(DeepNesting(b));
            }
        }
        Value::Map(entries) if entries.is_empty() => set(EmptyContainer),
        _ => {}
    }
    bits
}

/// Classifies a value into its boundary classes, sorted and deduplicated
/// (possibly empty for an ordinary mid-range value). This is the readable
/// form of [`class_bits`] — the two can never disagree because this one is
/// derived from the bitmask.
pub fn classify(value: &Value) -> Vec<BoundaryClass> {
    let bits = class_bits(value);
    CLASS_TABLE
        .iter()
        .enumerate()
        .filter(|&(i, _)| bits & (1 << i) != 0)
        .map(|(_, &c)| c)
        .collect()
}

fn container_depth(v: &Value) -> usize {
    match v {
        Value::Array(items) | Value::Row(items) => {
            1 + items.iter().map(container_depth).max().unwrap_or(0)
        }
        Value::Map(entries) => {
            1 + entries.iter().map(|(_, v)| container_depth(v)).max().unwrap_or(0)
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn null_and_star() {
        assert_eq!(classify(&Value::Null), vec![BoundaryClass::NullValue]);
        assert_eq!(classify(&Value::Star), vec![BoundaryClass::StarValue]);
    }

    #[test]
    fn plain_values_have_no_classes() {
        assert!(classify(&Value::Integer(42)).is_empty());
        assert!(classify(&Value::Text("hello".into())).is_empty());
        assert!(classify(&Value::Float(1.5)).is_empty());
    }

    #[test]
    fn numeric_boundaries() {
        assert!(classify(&Value::Integer(0)).contains(&BoundaryClass::ZeroNumeric));
        assert!(classify(&Value::Integer(i64::MAX)).contains(&BoundaryClass::ExtremeInt));
        assert!(classify(&Value::Integer(-5)).contains(&BoundaryClass::NegativeNumeric));
        let d: crate::decimal::Decimal = "9".repeat(50).parse().unwrap();
        assert!(classify(&Value::Decimal(d)).contains(&BoundaryClass::ManyDigits(40)));
        assert!(classify(&Value::Float(f64::NAN)).contains(&BoundaryClass::NonFiniteFloat));
    }

    #[test]
    fn string_boundaries() {
        assert_eq!(classify(&Value::Text(String::new())), vec![BoundaryClass::EmptyString]);
        assert!(classify(&Value::Text("x".repeat(5000)))
            .contains(&BoundaryClass::LongString(4096)));
        let rep = "[1,".repeat(100);
        assert!(classify(&Value::Text(rep)).contains(&BoundaryClass::RepeatedPrefix(64)));
    }

    #[test]
    fn structured_text_detection() {
        assert!(looks_structured("{\"a\":1}"));
        assert!(looks_structured("<a><b/></a>"));
        assert!(looks_structured("POINT(1 2)"));
        assert!(looks_structured("2024-01-01"));
        assert!(looks_structured("255.255.255.255"));
        assert!(!looks_structured("hello world"));
    }

    #[test]
    fn digit_text_tests_match_the_per_byte_versions() {
        // The per-byte forms these replaced.
        let structured_digits = |t: &str| {
            t.bytes().all(|c| c.is_ascii_digit() || c == b'.') && t.splitn(4, '.').count() == 4
        };
        let digits = |s: &str| s.chars().filter(|c| c.is_ascii_digit()).count();
        let mut rng = soft_rng::Rng::seed_from_u64(0x4449_4749);
        const PIECES: [&str; 6] = ["1", "22", ".", "a", "é", "9.9"];
        for _ in 0..5000 {
            let max = if rng.gen_bool(0.05) { 300 } else { 12usize };
            let n = rng.gen_range(0..max);
            let t: String = (0..n)
                .map(|_| *rng.choose(&PIECES).expect("pieces"))
                .collect();
            assert_eq!(dotted_digits(&t), structured_digits(&t), "{t:?}");
            for k in [0, 1, 3, 10, 60, 400] {
                assert_eq!(has_digits_at_least(&t, k), digits(&t) >= k, "{t:?} {k}");
            }
        }
    }

    #[test]
    fn repeated_prefix_runs() {
        let run = |s: &str| repeated_prefix_run_capped(s, usize::MAX);
        assert_eq!(run(&"[".repeat(100)), 100);
        assert_eq!(run(&"[1,".repeat(100)), 100);
        assert_eq!(run("abcdef"), 1);
        assert_eq!(run(""), 1);
        assert_eq!(repeated_prefix_run_capped(&"[1,".repeat(100), 64), 64);
        assert_eq!(repeated_prefix_run_capped("abcdef", 0), 0);
    }

    #[test]
    fn deep_json_classified() {
        let deep = "[".repeat(40) + "1" + &"]".repeat(40);
        let j = json::parse(&deep).unwrap();
        assert!(classify(&Value::Json(j)).contains(&BoundaryClass::DeepNesting(32)));
    }

    #[test]
    fn empty_containers() {
        assert!(classify(&Value::Array(vec![])).contains(&BoundaryClass::EmptyContainer));
        assert!(classify(&Value::Map(vec![])).contains(&BoundaryClass::EmptyContainer));
    }

    #[test]
    fn class_table_is_sorted_and_bit_indexed() {
        for (i, &c) in CLASS_TABLE.iter().enumerate() {
            assert_eq!(class_bit(c), 1 << i, "bit index drifted for {c:?}");
            if i > 0 {
                assert!(CLASS_TABLE[i - 1] < c, "table out of sorted order at {i}");
            }
        }
    }

    #[test]
    fn classify_stays_sorted_and_deduped() {
        // classify is derived from the bitmask, so the sorted-set contract
        // holds for any value; spot-check multi-class values.
        let vals = [
            Value::Integer(-5),
            Value::Integer(i64::MIN),
            Value::Text("[1,".repeat(2000)),
            Value::Float(f64::NEG_INFINITY),
        ];
        for v in &vals {
            let c = classify(v);
            let mut sorted = c.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(c, sorted, "classify({v:?}) not sorted/deduped");
        }
    }
}

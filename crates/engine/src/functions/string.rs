//! String built-ins.
//!
//! The paper's Figure 1 shows string functions as the most bug-prone
//! category (117 of 508 occurrences, 57 distinct functions). This module
//! implements the common string surface of the studied DBMSs, including a
//! regex family backed by [`crate::regex`].

use crate::error::EngineError;
use crate::eval::Evaluated;
use crate::regex::{self, Regex};
use crate::registry::*;
use soft_types::category::FunctionCategory as C;
use soft_types::hex;
use soft_types::value::Value;
use std::borrow::Cow;

fn def(
    name: &'static str,
    min: usize,
    max: Option<usize>,
    f: ScalarImpl,
) -> FunctionDef {
    FunctionDef {
        name,
        category: C::String,
        min_args: min,
        max_args: max,
        implementation: FunctionImpl::Scalar(f),
    }
}

/// Registers the string functions.
pub fn install(r: &mut FunctionRegistry) {
    r.register(def("length", 1, Some(1), f_length));
    r.register(def("char_length", 1, Some(1), f_char_length));
    r.register(def("octet_length", 1, Some(1), f_length));
    r.register(def("bit_length", 1, Some(1), f_bit_length));
    r.register(def("upper", 1, Some(1), f_upper));
    r.register(def("lower", 1, Some(1), f_lower));
    r.register(def("initcap", 1, Some(1), f_initcap));
    r.register(def("concat", 0, None, f_concat));
    r.register(def("concat_ws", 1, None, f_concat_ws));
    r.register(def("substr", 2, Some(3), f_substr));
    r.register(def("left", 2, Some(2), f_left));
    r.register(def("right", 2, Some(2), f_right));
    r.register(def("lpad", 2, Some(3), f_lpad));
    r.register(def("rpad", 2, Some(3), f_rpad));
    r.register(def("trim", 1, Some(2), f_trim));
    r.register(def("ltrim", 1, Some(2), f_ltrim));
    r.register(def("rtrim", 1, Some(2), f_rtrim));
    r.register(def("replace", 3, Some(3), f_replace));
    r.register(def("repeat", 2, Some(2), f_repeat));
    r.register(def("reverse", 1, Some(1), f_reverse));
    r.register(def("position", 2, Some(2), f_position));
    r.register(def("instr", 2, Some(2), f_instr));
    r.register(def("locate", 2, Some(3), f_locate));
    r.register(def("ascii", 1, Some(1), f_ascii));
    r.register(def("chr", 1, Some(1), f_chr));
    r.register(def("char", 1, None, f_char));
    r.register(def("hex", 1, Some(1), f_hex));
    r.register(def("unhex", 1, Some(1), f_unhex));
    r.register(def("md5", 1, Some(1), f_md5));
    r.register(def("sha1", 1, Some(1), f_sha1));
    r.register(def("sha2", 2, Some(2), f_sha2));
    r.register(def("format", 2, Some(3), f_format));
    r.register(def("insert", 4, Some(4), f_insert));
    r.register(def("elt", 2, None, f_elt));
    r.register(def("field", 2, None, f_field));
    r.register(def("find_in_set", 2, Some(2), f_find_in_set));
    r.register(def("export_set", 3, Some(5), f_export_set));
    r.register(def("quote", 1, Some(1), f_quote));
    r.register(def("soundex", 1, Some(1), f_soundex));
    r.register(def("space", 1, Some(1), f_space));
    r.register(def("to_base64", 1, Some(1), f_to_base64));
    r.register(def("from_base64", 1, Some(1), f_from_base64));
    r.register(def("starts_with", 2, Some(2), f_starts_with));
    r.register(def("ends_with", 2, Some(2), f_ends_with));
    r.register(def("split_part", 3, Some(3), f_split_part));
    r.register(def("translate", 3, Some(3), f_translate));
    r.register(def("regexp_like", 2, Some(2), f_regexp_like));
    r.register(def("regexp_replace", 3, Some(3), f_regexp_replace));
    r.register(def("regexp_substr", 2, Some(2), f_regexp_substr));
    r.register(def("regexp_instr", 2, Some(2), f_regexp_instr));
    r.register(def("contains", 2, Some(3), f_contains));
    r.register(FunctionDef {
        name: "strcmp",
        category: C::Comparison,
        min_args: 2,
        max_args: Some(2),
        implementation: FunctionImpl::Scalar(f_strcmp),
    });
}

macro_rules! some_or_null {
    ($e:expr) => {
        match $e {
            Some(v) => v,
            None => return Ok(Value::Null),
        }
    };
}
pub(crate) use some_or_null;

fn f_length(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    // Byte length: binary values count their own bytes, not their rendering.
    if let Value::Binary(b) = &args[0].value {
        ctx.branch("binary-input");
        return Ok(Value::Integer(b.len() as i64));
    }
    let s = some_or_null!(want_text(ctx, args, 0)?);
    Ok(Value::Integer(s.len() as i64))
}

fn f_char_length(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    Ok(Value::Integer(s.chars().count() as i64))
}

fn f_bit_length(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    Ok(Value::Integer(8 * s.len() as i64))
}

fn f_upper(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    Ok(Value::Text(s.to_uppercase()))
}

fn f_lower(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    Ok(Value::Text(s.to_lowercase()))
}

fn f_initcap(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let mut out = String::with_capacity(s.len());
    let mut at_word_start = true;
    for c in s.chars() {
        if c.is_alphanumeric() {
            if at_word_start {
                out.extend(c.to_uppercase());
            } else {
                out.extend(c.to_lowercase());
            }
            at_word_start = false;
        } else {
            out.push(c);
            at_word_start = true;
        }
    }
    Ok(Value::Text(out))
}

fn f_concat(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let mut out = String::new();
    for i in 0..args.len() {
        // MySQL CONCAT: any NULL argument nulls the result.
        match want_text(ctx, args, i)? {
            None => {
                ctx.branch("null-argument");
                return Ok(Value::Null);
            }
            Some(s) => out.push_str(&s),
        }
    }
    let v = Value::Text(out);
    ctx.charge(&v)?;
    Ok(v)
}

fn f_concat_ws(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let sep = some_or_null!(want_text(ctx, args, 0)?);
    let mut parts = Vec::new();
    for i in 1..args.len() {
        // CONCAT_WS skips NULLs instead of nulling out.
        if let Some(s) = want_text(ctx, args, i)? {
            parts.push(s);
        } else {
            ctx.branch("skip-null");
        }
    }
    // Charged before joining: the separator repeats once per argument.
    let seps = parts.len().saturating_sub(1);
    let len = parts.iter().fold(seps.saturating_mul(sep.len()), |acc, p| {
        acc.saturating_add(p.len())
    });
    ctx.charge_text(len)?;
    Ok(Value::Text(parts.join(&sep)))
}

fn f_substr(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let start = some_or_null!(want_int(ctx, args, 1)?);
    let len = if args.len() > 2 {
        match want_int(ctx, args, 2)? {
            None => return Ok(Value::Null),
            Some(l) => Some(l),
        }
    } else {
        None
    };
    // SQL 1-based indexing; negative start counts from the end (MySQL).
    let begin = if start > 0 {
        ctx.branch("positive-start");
        char_offset(&s, usize::try_from(start - 1).unwrap_or(usize::MAX))
    } else if start < 0 {
        ctx.branch("negative-start");
        last_chars_offset(
            &s,
            usize::try_from(start.unsigned_abs()).unwrap_or(usize::MAX),
        )
    } else {
        // MySQL: position 0 yields an empty result.
        ctx.branch("zero-start");
        return Ok(Value::Text(String::new()));
    };
    let Some(begin) = begin else {
        ctx.branch("out-of-range");
        return Ok(Value::Text(String::new()));
    };
    let rest = &s[begin..];
    let taken = match len {
        None => rest,
        Some(l) if l <= 0 => {
            ctx.branch("non-positive-length");
            ""
        }
        Some(l) => take_chars(rest, usize::try_from(l).unwrap_or(usize::MAX)),
    };
    Ok(Value::Text(taken.to_string()))
}

// Character positions as byte offsets. Each helper reads its text only as
// far as the character it looks for and allocates nothing; every
// character takes at least one byte, so a count of at least `s.len()`
// characters needs no reading at all.

/// The byte offset of character `n` (0-based) of `s`, or `None` when `s`
/// has at most `n` characters.
fn char_offset(s: &str, n: usize) -> Option<usize> {
    if n >= s.len() {
        return None;
    }
    s.char_indices().nth(n).map(|(i, _)| i)
}

/// The byte offset where the last `n` (at least 1) characters of `s`
/// begin, or `None` when `s` has fewer than `n`.
fn last_chars_offset(s: &str, n: usize) -> Option<usize> {
    if n > s.len() {
        return None;
    }
    s.char_indices().rev().nth(n - 1).map(|(i, _)| i)
}

/// The first `n` characters of `s` (all of `s` when it has fewer).
fn take_chars(s: &str, n: usize) -> &str {
    &s[..char_offset(s, n).unwrap_or(s.len())]
}

fn f_left(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let n = some_or_null!(want_int(ctx, args, 1)?);
    if n <= 0 {
        ctx.branch("non-positive");
        return Ok(Value::Text(String::new()));
    }
    Ok(Value::Text(
        take_chars(&s, usize::try_from(n).unwrap_or(usize::MAX)).to_string(),
    ))
}

fn f_right(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let n = some_or_null!(want_int(ctx, args, 1)?);
    if n <= 0 {
        ctx.branch("non-positive");
        return Ok(Value::Text(String::new()));
    }
    let begin = last_chars_offset(&s, usize::try_from(n).unwrap_or(usize::MAX)).unwrap_or(0);
    Ok(Value::Text(s[begin..].to_string()))
}

fn pad(
    ctx: &mut FnCtx<'_>,
    args: &[Evaluated],
    left_side: bool,
) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let n = some_or_null!(want_int(ctx, args, 1)?);
    let pad = if args.len() > 2 {
        some_or_null!(want_text(ctx, args, 2)?)
    } else {
        Cow::Borrowed(" ")
    };
    if n < 0 {
        ctx.branch("negative-length");
        return Ok(Value::Null);
    }
    let n = ctx.repeat_count(n)?;
    let count = s.chars().count();
    if count >= n {
        ctx.branch("truncate");
        return Ok(Value::Text(take_chars(&s, n).to_string()));
    }
    if pad.is_empty() {
        // MySQL returns NULL when the pad string is empty and padding is
        // needed.
        ctx.branch("empty-pad");
        return Ok(Value::Null);
    }
    // `missing` characters of `pad` repeated: whole copies, then a prefix.
    let missing = n - count;
    let pad_chars = pad.chars().count();
    let tail = take_chars(&pad, missing % pad_chars);
    let copies = missing / pad_chars;
    let len = s.len() + copies * pad.len() + tail.len();
    ctx.charge_text(len)?;
    let mut out = String::with_capacity(len);
    if !left_side {
        out.push_str(&s);
    }
    for _ in 0..copies {
        out.push_str(&pad);
    }
    out.push_str(tail);
    if left_side {
        out.push_str(&s);
    }
    Ok(Value::Text(out))
}

fn f_lpad(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    pad(ctx, args, true)
}

fn f_rpad(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    pad(ctx, args, false)
}

fn trim_impl(
    ctx: &mut FnCtx<'_>,
    args: &[Evaluated],
    left: bool,
    right: bool,
) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let pat = if args.len() > 1 {
        some_or_null!(want_text(ctx, args, 1)?)
    } else {
        Cow::Borrowed(" ")
    };
    if pat.is_empty() {
        ctx.branch("empty-pattern");
        return Ok(Value::Text(s.into_owned()));
    }
    let mut out: &str = &s;
    if left {
        while let Some(rest) = out.strip_prefix(&*pat) {
            out = rest;
        }
    }
    if right {
        while let Some(rest) = out.strip_suffix(&*pat) {
            out = rest;
        }
    }
    Ok(Value::Text(out.to_string()))
}

fn f_trim(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    trim_impl(ctx, args, true, true)
}

fn f_ltrim(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    trim_impl(ctx, args, true, false)
}

fn f_rtrim(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    trim_impl(ctx, args, false, true)
}

fn f_replace(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let from = some_or_null!(want_text(ctx, args, 1)?);
    let to = some_or_null!(want_text(ctx, args, 2)?);
    if from.is_empty() {
        ctx.branch("empty-needle");
        return Ok(Value::Text(s.into_owned()));
    }
    // Charge the result before building it: one replacement per match can
    // grow it far past the budget. A needle longer than the text cannot
    // match, and only a match that changes the length needs counting.
    if from.len() > s.len() {
        ctx.charge_text(s.len())?;
        return Ok(Value::Text(s.into_owned()));
    }
    if from.len() == to.len() {
        ctx.charge_text(s.len())?;
        return Ok(Value::Text(s.replace(&*from, &to)));
    }
    let matches = s.matches(&*from).count();
    let len = (s.len() - matches * from.len()).saturating_add(matches.saturating_mul(to.len()));
    ctx.charge_text(len)?;
    let mut out = String::with_capacity(len);
    let mut last = 0;
    for (at, _) in s.match_indices(&*from) {
        out.push_str(&s[last..at]);
        out.push_str(&to);
        last = at + from.len();
    }
    out.push_str(&s[last..]);
    Ok(Value::Text(out))
}

fn f_repeat(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let n = some_or_null!(want_int(ctx, args, 1)?);
    let n = ctx.repeat_count(n)?;
    if n == 0 {
        ctx.branch("zero-count");
        return Ok(Value::Text(String::new()));
    }
    // Charge before building to avoid huge allocations past the budget.
    let total = s.len().saturating_mul(n);
    *ctx.memory_used += total;
    if *ctx.memory_used > ctx.limits.max_memory_bytes {
        return Err(EngineError::Sql(crate::error::SqlError::ResourceLimit(format!(
            "REPEAT would allocate {total} bytes"
        ))));
    }
    Ok(Value::Text(s.repeat(n)))
}

fn f_reverse(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    if s.is_ascii() {
        // Reversing ASCII bytes reverses its characters, in place.
        let mut bytes = s.into_owned().into_bytes();
        bytes.reverse();
        return Ok(Value::Text(
            String::from_utf8(bytes).expect("reversed ASCII is UTF-8"),
        ));
    }
    let mut out = String::with_capacity(s.len());
    out.extend(s.chars().rev());
    Ok(Value::Text(out))
}

/// The 1-based character position of the first `needle` in `hay` at or
/// after character `from` (1-based).
///
/// A byte-level match of UTF-8 text starts and ends on character
/// boundaries, so `str::find` finds the same leftmost match a character
/// comparison would; only the prefix before the match is counted in
/// characters.
fn find_sub(hay: &str, needle: &str, from: usize) -> Option<usize> {
    if needle.is_empty() {
        return Some(from.max(1));
    }
    let skip = from.saturating_sub(1);
    let begin = char_offset(hay, skip)?;
    let rest = &hay[begin..];
    if needle.len() > rest.len() {
        return None;
    }
    let mut one = needle.chars();
    let at = match (one.next(), one.next()) {
        (Some(c), None) => rest.find(c),
        _ => rest.find(needle),
    }?;
    Some(skip + rest[..at].chars().count() + 1)
}

fn f_position(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let needle = some_or_null!(want_text(ctx, args, 0)?);
    let hay = some_or_null!(want_text(ctx, args, 1)?);
    Ok(Value::Integer(find_sub(&hay, &needle, 1).unwrap_or(0) as i64))
}

fn f_instr(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let hay = some_or_null!(want_text(ctx, args, 0)?);
    let needle = some_or_null!(want_text(ctx, args, 1)?);
    Ok(Value::Integer(find_sub(&hay, &needle, 1).unwrap_or(0) as i64))
}

fn f_locate(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let needle = some_or_null!(want_text(ctx, args, 0)?);
    let hay = some_or_null!(want_text(ctx, args, 1)?);
    let from = if args.len() > 2 {
        some_or_null!(want_int(ctx, args, 2)?)
    } else {
        1
    };
    if from < 1 {
        ctx.branch("non-positive-start");
        return Ok(Value::Integer(0));
    }
    Ok(Value::Integer(find_sub(&hay, &needle, from as usize).unwrap_or(0) as i64))
}

fn f_ascii(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    match s.bytes().next() {
        None => {
            ctx.branch("empty");
            Ok(Value::Integer(0))
        }
        Some(b) => Ok(Value::Integer(b as i64)),
    }
}

fn f_chr(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let n = some_or_null!(want_int(ctx, args, 0)?);
    let c = u32::try_from(n)
        .ok()
        .and_then(char::from_u32);
    match c {
        Some(c) => Ok(Value::Text(c.to_string())),
        None => {
            ctx.branch("invalid-codepoint");
            runtime_err(format!("{n} is not a valid character code"))
        }
    }
}

fn f_char(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let mut out = String::new();
    for i in 0..args.len() {
        if let Some(n) = want_int(ctx, args, i)? {
            // MySQL CHAR() ignores out-of-range values modulo 256.
            out.push(((n % 256).unsigned_abs() as u8) as char);
        } else {
            ctx.branch("skip-null");
        }
    }
    Ok(Value::Text(out))
}

fn f_hex(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let e = &args[0];
    if e.value.is_null() {
        return Ok(Value::Null);
    }
    match &e.value {
        Value::Integer(i) => Ok(Value::Text(format!("{i:X}"))),
        _ => {
            let b = some_or_null!(want_binary(ctx, args, 0)?);
            Ok(Value::Text(hex::upper(&b)))
        }
    }
}

fn f_unhex(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    if s.len() % 2 != 0 {
        ctx.branch("odd-length");
        return Ok(Value::Null);
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let b = s.as_bytes();
    for i in (0..b.len()).step_by(2) {
        let hi = (b[i] as char).to_digit(16);
        let lo = (b[i + 1] as char).to_digit(16);
        match (hi, lo) {
            (Some(h), Some(l)) => out.push((h * 16 + l) as u8),
            _ => {
                ctx.branch("non-hex");
                return Ok(Value::Null);
            }
        }
    }
    Ok(Value::Binary(out))
}

/// A simple non-cryptographic digest used as a stand-in for MD5/SHA: FNV-1a
/// folded to the requested width. (Documented substitution — the evaluation
/// only needs stable, input-sensitive digests, not collision resistance.)
fn digest_hex(data: &[u8], out_bytes: usize) -> String {
    let mut state: u64 = 0xcbf29ce484222325;
    let mut out = String::with_capacity(out_bytes * 2);
    let mut produced = 0usize;
    let mut round = 0u8;
    while produced < out_bytes {
        for &b in data.iter().chain(std::slice::from_ref(&round)) {
            state ^= b as u64;
            state = state.wrapping_mul(0x100000001b3);
        }
        let take = (out_bytes - produced).min(8);
        hex::push_lower(&mut out, &state.to_be_bytes()[..take]);
        produced += take;
        round = round.wrapping_add(1);
    }
    out
}

fn f_md5(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let b = some_or_null!(want_binary(ctx, args, 0)?);
    Ok(Value::Text(digest_hex(&b, 16)))
}

fn f_sha1(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let b = some_or_null!(want_binary(ctx, args, 0)?);
    Ok(Value::Text(digest_hex(&b, 20)))
}

fn f_sha2(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let b = some_or_null!(want_binary(ctx, args, 0)?);
    let bits = some_or_null!(want_int(ctx, args, 1)?);
    let bytes = match bits {
        0 | 256 => 32,
        224 => 28,
        384 => 48,
        512 => 64,
        _ => {
            ctx.branch("bad-width");
            return Ok(Value::Null);
        }
    };
    Ok(Value::Text(digest_hex(&b, bytes)))
}

/// `FORMAT(number, decimals[, locale])` — the MDEV-23415 code path: format a
/// number with `decimals` fraction digits and thousand separators. When the
/// total digit count exceeds the dialect's scientific threshold the input is
/// first re-rendered in scientific notation (what MariaDB's
/// `String::set_real` does), which a correct implementation must handle.
fn f_format(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let d = some_or_null!(want_decimal(ctx, args, 0)?);
    let decimals = some_or_null!(want_int(ctx, args, 1)?);
    if args.len() > 2 {
        // Locale is accepted but only the separators of en_US/de_DE are
        // modelled.
        let _locale = some_or_null!(want_text(ctx, args, 2)?);
    }
    if decimals < 0 {
        ctx.branch("negative-decimals");
        return runtime_err("FORMAT(): negative decimal places");
    }
    let decimals = decimals.min(crate::registry::Limits::default().max_decimal_digits as i64)
        as usize;
    if decimals > ctx.limits.scientific_threshold {
        // The guarded (post-fix) behaviour: clamp instead of overflowing the
        // result buffer. The *fault corpus* models the unfixed behaviour.
        ctx.branch("scientific-clamp");
    }
    let rounded = d
        .round_to_scale(decimals.min(soft_types::decimal::MAX_SCALE))
        .map_err(|e| EngineError::Sql(crate::error::SqlError::Runtime(e.to_string())))?;
    let text = rounded.to_string();
    // Insert thousands separators into the integer part.
    let (sign, rest) = match text.strip_prefix('-') {
        Some(r) => ("-", r),
        None => ("", text.as_str()),
    };
    let (int_part, frac_part) = match rest.split_once('.') {
        Some((i, f)) => (i, Some(f)),
        None => (rest, None),
    };
    let mut grouped = String::new();
    let digits: Vec<char> = int_part.chars().collect();
    for (i, c) in digits.iter().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            grouped.push(',');
        }
        grouped.push(*c);
    }
    let mut out = format!("{sign}{grouped}");
    if let Some(f) = frac_part {
        out.push('.');
        out.push_str(f);
    } else if decimals > 0 {
        out.push('.');
        out.push_str(&"0".repeat(decimals.min(soft_types::decimal::MAX_SCALE)));
    }
    Ok(Value::Text(out))
}

fn f_insert(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let pos = some_or_null!(want_int(ctx, args, 1)?);
    let len = some_or_null!(want_int(ctx, args, 2)?);
    let newstr = some_or_null!(want_text(ctx, args, 3)?);
    let start = if pos >= 1 {
        char_offset(&s, usize::try_from(pos - 1).unwrap_or(usize::MAX))
    } else {
        None
    };
    let Some(start) = start else {
        ctx.branch("pos-out-of-range");
        return Ok(Value::Text(s.into_owned()));
    };
    let rest = &s[start..];
    let end = if len < 0 {
        s.len()
    } else {
        start + take_chars(rest, usize::try_from(len).unwrap_or(usize::MAX)).len()
    };
    let mut out = String::with_capacity(start + newstr.len() + (s.len() - end));
    out.push_str(&s[..start]);
    out.push_str(&newstr);
    out.push_str(&s[end..]);
    Ok(Value::Text(out))
}

fn f_elt(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let n = some_or_null!(want_int(ctx, args, 0)?);
    if n < 1 || n as usize >= args.len() {
        ctx.branch("index-out-of-range");
        return Ok(Value::Null);
    }
    match want_text(ctx, args, n as usize)? {
        Some(s) => Ok(Value::Text(s.into_owned())),
        None => Ok(Value::Null),
    }
}

fn f_field(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let target = match want_text(ctx, args, 0)? {
        None => return Ok(Value::Integer(0)),
        Some(s) => s,
    };
    for i in 1..args.len() {
        if want_text(ctx, args, i)?.as_deref() == Some(&*target) {
            return Ok(Value::Integer(i as i64));
        }
    }
    Ok(Value::Integer(0))
}

fn f_find_in_set(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let needle = some_or_null!(want_text(ctx, args, 0)?);
    let set = some_or_null!(want_text(ctx, args, 1)?);
    if set.is_empty() {
        ctx.branch("empty-set");
        return Ok(Value::Integer(0));
    }
    for (i, item) in set.split(',').enumerate() {
        if item == needle {
            return Ok(Value::Integer(i as i64 + 1));
        }
    }
    Ok(Value::Integer(0))
}

fn f_export_set(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let bits = some_or_null!(want_int(ctx, args, 0)?);
    let on = some_or_null!(want_text(ctx, args, 1)?);
    let off = some_or_null!(want_text(ctx, args, 2)?);
    let sep = if args.len() > 3 {
        some_or_null!(want_text(ctx, args, 3)?)
    } else {
        Cow::Borrowed(",")
    };
    let width = if args.len() > 4 {
        some_or_null!(want_int(ctx, args, 4)?).clamp(0, 64)
    } else {
        64
    };
    // Charged before building: up to 64 copies of `on`/`off` and 63 of
    // the separator.
    let part = |i: i64| {
        if (bits >> i) & 1 == 1 {
            &*on
        } else {
            &*off
        }
    };
    let seps = (width.max(1) - 1) as usize;
    let len = (0..width).fold(seps.saturating_mul(sep.len()), |acc, i| {
        acc.saturating_add(part(i).len())
    });
    ctx.charge_text(len)?;
    let mut out = String::with_capacity(len);
    for i in 0..width {
        if i > 0 {
            out.push_str(&sep);
        }
        out.push_str(part(i));
    }
    Ok(Value::Text(out))
}

fn f_quote(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    match want_text(ctx, args, 0)? {
        None => Ok(Value::Text("NULL".into())),
        Some(s) => Ok(Value::Text(soft_types::value::quote_sql_string(&s))),
    }
}

fn f_soundex(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let code = |c: char| match c.to_ascii_uppercase() {
        'B' | 'F' | 'P' | 'V' => Some('1'),
        'C' | 'G' | 'J' | 'K' | 'Q' | 'S' | 'X' | 'Z' => Some('2'),
        'D' | 'T' => Some('3'),
        'L' => Some('4'),
        'M' | 'N' => Some('5'),
        'R' => Some('6'),
        _ => None,
    };
    let mut chars = s.chars().filter(|c| c.is_ascii_alphabetic());
    let Some(first) = chars.next() else {
        ctx.branch("no-letters");
        return Ok(Value::Text(String::new()));
    };
    let mut out = String::new();
    out.push(first.to_ascii_uppercase());
    let mut last = code(first);
    for c in chars {
        let d = code(c);
        if let Some(digit) = d {
            if d != last {
                out.push(digit);
                if out.len() == 4 {
                    break;
                }
            }
        }
        last = d;
    }
    while out.len() < 4 {
        out.push('0');
    }
    Ok(Value::Text(out))
}

fn f_space(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let n = some_or_null!(want_int(ctx, args, 0)?);
    let n = ctx.repeat_count(n)?;
    ctx.charge_text(n)?;
    Ok(Value::Text(" ".repeat(n)))
}

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

fn f_to_base64(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let data = some_or_null!(want_binary(ctx, args, 0)?);
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let n = (b0 << 16) | (b1 << 8) | b2;
        out.push(B64[(n >> 18) as usize & 63] as char);
        out.push(B64[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 { B64[(n >> 6) as usize & 63] as char } else { '=' });
        out.push(if chunk.len() > 2 { B64[n as usize & 63] as char } else { '=' });
    }
    let v = Value::Text(out);
    ctx.charge(&v)?;
    Ok(v)
}

fn f_from_base64(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let cleaned: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    let mut out = Vec::new();
    let mut acc: u32 = 0;
    let mut bits = 0u32;
    for &b in &cleaned {
        if b == b'=' {
            break;
        }
        let v = match B64.iter().position(|&x| x == b) {
            Some(v) => v as u32,
            None => {
                ctx.branch("bad-char");
                return Ok(Value::Null);
            }
        };
        acc = (acc << 6) | v;
        bits += 6;
        if bits >= 8 {
            bits -= 8;
            out.push((acc >> bits) as u8);
        }
    }
    Ok(Value::Binary(out))
}

fn f_starts_with(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let p = some_or_null!(want_text(ctx, args, 1)?);
    Ok(Value::Boolean(s.starts_with(&*p)))
}

fn f_ends_with(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let p = some_or_null!(want_text(ctx, args, 1)?);
    Ok(Value::Boolean(s.ends_with(&*p)))
}

fn f_split_part(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let sep = some_or_null!(want_text(ctx, args, 1)?);
    let n = some_or_null!(want_int(ctx, args, 2)?);
    if sep.is_empty() {
        ctx.branch("empty-separator");
        return runtime_err("SPLIT_PART(): empty separator");
    }
    if n == 0 {
        ctx.branch("zero-index");
        return runtime_err("SPLIT_PART(): field position must not be zero");
    }
    let idx = if n > 0 {
        n as usize - 1
    } else {
        // Negative counts from the end (PostgreSQL 14+). `split` yields one
        // field more than there are separator matches.
        ctx.branch("negative-index");
        let fields = s.matches(&*sep).count() + 1;
        match fields.checked_sub(n.unsigned_abs() as usize) {
            Some(i) => i,
            None => return Ok(Value::Text(String::new())),
        }
    };
    Ok(Value::Text(
        s.split(&*sep).nth(idx).unwrap_or("").to_string(),
    ))
}

fn f_translate(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let from = some_or_null!(want_text(ctx, args, 1)?);
    let to = some_or_null!(want_text(ctx, args, 2)?);
    // Character `c` maps through its first position `i` in `from` to the
    // `i`-th character of `to`, or is dropped when `to` is shorter. ASCII
    // characters look their mapping up in a table built in one pass over
    // both; any other character searches `from`.
    let mut ascii: [Option<Option<char>>; 128] = [None; 128];
    let mut to_chars = to.chars();
    for f in from.chars() {
        let mapped = to_chars.next();
        if let Some(slot) = ascii.get_mut(f as usize) {
            slot.get_or_insert(mapped);
        }
    }
    let mapped = |c: char| match ascii.get(c as usize) {
        Some(slot) => slot.unwrap_or(Some(c)),
        None => match from.chars().position(|f| f == c) {
            None => Some(c),
            Some(i) => to.chars().nth(i),
        },
    };
    let mut out = String::with_capacity(s.len());
    out.extend(s.chars().filter_map(mapped));
    Ok(Value::Text(out))
}

fn compile_pattern(ctx: &mut FnCtx<'_>, pat: &str) -> Result<Regex, EngineError> {
    Regex::compile(pat).map_err(|e| {
        ctx.coverage.record_branch(ctx.name, "bad-pattern");
        EngineError::Sql(crate::error::SqlError::Runtime(format!(
            "invalid regular expression: {e}"
        )))
    })
}

fn f_regexp_like(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let pat = some_or_null!(want_text(ctx, args, 1)?);
    let re = compile_pattern(ctx, &pat)?;
    match re.is_match(&s) {
        Ok(b) => Ok(Value::Boolean(b)),
        Err(e) => runtime_err(format!("regex evaluation failed: {e}")),
    }
}

fn f_regexp_replace(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let pat = some_or_null!(want_text(ctx, args, 1)?);
    let rep = some_or_null!(want_text(ctx, args, 2)?);
    let re = compile_pattern(ctx, &pat)?;
    // Match first, then charge the result before building it: each match
    // adds one copy of the replacement, and only the step budget bounds
    // the matches.
    let spans = match re.match_spans(&s) {
        Ok(spans) => spans,
        Err(e) => return runtime_err(format!("regex evaluation failed: {e}")),
    };
    ctx.charge_text(regex::replaced_len(&s, &spans, &rep))?;
    Ok(Value::Text(regex::replace_spans(&s, &spans, &rep)))
}

fn f_regexp_substr(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let pat = some_or_null!(want_text(ctx, args, 1)?);
    let re = compile_pattern(ctx, &pat)?;
    match re.first_match(&s) {
        Ok(Some(m)) => Ok(Value::Text(m)),
        Ok(None) => Ok(Value::Null),
        Err(e) => runtime_err(format!("regex evaluation failed: {e}")),
    }
}

fn f_regexp_instr(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let pat = some_or_null!(want_text(ctx, args, 1)?);
    let re = compile_pattern(ctx, &pat)?;
    match re.find(&s) {
        Ok(Some((start, _))) => Ok(Value::Integer(start as i64 + 1)),
        Ok(None) => Ok(Value::Integer(0)),
        Err(e) => runtime_err(format!("regex evaluation failed: {e}")),
    }
}

/// Virtuoso-style free-text `CONTAINS(column, pattern[, options])` — the
/// Case 2 function. The guarded implementation validates every argument is
/// textual (the unfixed behaviour is modelled by the fault corpus).
fn f_contains(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let hay = some_or_null!(want_text(ctx, args, 0)?);
    let needle = some_or_null!(want_text(ctx, args, 1)?);
    if args.len() > 2 {
        // Options argument must be text too; `*` is rejected here.
        let _opts = some_or_null!(want_text(ctx, args, 2)?);
    }
    Ok(Value::Boolean(hay.contains(&*needle)))
}

fn f_strcmp(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let a = some_or_null!(want_text(ctx, args, 0)?);
    let b = some_or_null!(want_text(ctx, args, 1)?);
    Ok(Value::Integer(match a.cmp(&b) {
        std::cmp::Ordering::Less => -1,
        std::cmp::Ordering::Equal => 0,
        std::cmp::Ordering::Greater => 1,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::testkit::call;
    use soft_rng::Rng;

    /// The string kernels before they read positions as byte offsets: each
    /// collected its text into a `Vec<char>`, and the constructors charged
    /// the budget after building.
    mod reference {
        use crate::error::EngineError;
        use crate::eval::Evaluated;
        use crate::registry::*;
        use soft_types::value::Value;

        /// Argument text as these kernels received it: always an owned copy.
        fn want_text(
            ctx: &mut FnCtx<'_>,
            args: &[Evaluated],
            i: usize,
        ) -> Result<Option<String>, EngineError> {
            Ok(crate::registry::want_text(ctx, args, i)?.map(std::borrow::Cow::into_owned))
        }

        pub fn f_substr(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
            let s = some_or_null!(want_text(ctx, args, 0)?);
            let start = some_or_null!(want_int(ctx, args, 1)?);
            let len = if args.len() > 2 {
                match want_int(ctx, args, 2)? {
                    None => return Ok(Value::Null),
                    Some(l) => Some(l),
                }
            } else {
                None
            };
            let chars: Vec<char> = s.chars().collect();
            let n = chars.len() as i64;
            let begin = if start > 0 {
                ctx.branch("positive-start");
                start - 1
            } else if start < 0 {
                ctx.branch("negative-start");
                n + start
            } else {
                ctx.branch("zero-start");
                return Ok(Value::Text(String::new()));
            };
            if begin < 0 || begin >= n {
                ctx.branch("out-of-range");
                return Ok(Value::Text(String::new()));
            }
            let take = match len {
                None => n - begin,
                Some(l) if l <= 0 => {
                    ctx.branch("non-positive-length");
                    0
                }
                Some(l) => l.min(n - begin),
            };
            Ok(Value::Text(
                chars[begin as usize..(begin + take) as usize]
                    .iter()
                    .collect(),
            ))
        }

        pub fn f_left(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
            let s = some_or_null!(want_text(ctx, args, 0)?);
            let n = some_or_null!(want_int(ctx, args, 1)?);
            if n <= 0 {
                ctx.branch("non-positive");
                return Ok(Value::Text(String::new()));
            }
            Ok(Value::Text(s.chars().take(n as usize).collect()))
        }

        pub fn f_right(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
            let s = some_or_null!(want_text(ctx, args, 0)?);
            let n = some_or_null!(want_int(ctx, args, 1)?);
            if n <= 0 {
                ctx.branch("non-positive");
                return Ok(Value::Text(String::new()));
            }
            let chars: Vec<char> = s.chars().collect();
            let skip = chars.len().saturating_sub(n as usize);
            Ok(Value::Text(chars[skip..].iter().collect()))
        }

        pub fn pad(
            ctx: &mut FnCtx<'_>,
            args: &[Evaluated],
            left_side: bool,
        ) -> Result<Value, EngineError> {
            let s = some_or_null!(want_text(ctx, args, 0)?);
            let n = some_or_null!(want_int(ctx, args, 1)?);
            let pad = if args.len() > 2 {
                some_or_null!(want_text(ctx, args, 2)?)
            } else {
                " ".to_string()
            };
            if n < 0 {
                ctx.branch("negative-length");
                return Ok(Value::Null);
            }
            let n = ctx.repeat_count(n)?;
            let cur: Vec<char> = s.chars().collect();
            if cur.len() >= n {
                ctx.branch("truncate");
                return Ok(Value::Text(cur[..n].iter().collect()));
            }
            if pad.is_empty() {
                ctx.branch("empty-pad");
                return Ok(Value::Null);
            }
            let missing = n - cur.len();
            let padding: String = pad.chars().cycle().take(missing).collect();
            let out = if left_side {
                format!("{padding}{s}")
            } else {
                format!("{s}{padding}")
            };
            let v = Value::Text(out);
            ctx.charge(&v)?;
            Ok(v)
        }

        pub fn f_lpad(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
            pad(ctx, args, true)
        }

        pub fn f_rpad(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
            pad(ctx, args, false)
        }

        pub fn f_reverse(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
            let s = some_or_null!(want_text(ctx, args, 0)?);
            Ok(Value::Text(s.chars().rev().collect()))
        }

        fn find_sub(hay: &str, needle: &str, from: usize) -> Option<usize> {
            let hay_chars: Vec<char> = hay.chars().collect();
            let needle_chars: Vec<char> = needle.chars().collect();
            if needle_chars.is_empty() {
                return Some(from.max(1));
            }
            let mut i = from.saturating_sub(1);
            while i + needle_chars.len() <= hay_chars.len() {
                if hay_chars[i..i + needle_chars.len()] == needle_chars[..] {
                    return Some(i + 1);
                }
                i += 1;
            }
            None
        }

        pub fn f_position(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
            let needle = some_or_null!(want_text(ctx, args, 0)?);
            let hay = some_or_null!(want_text(ctx, args, 1)?);
            Ok(Value::Integer(
                find_sub(&hay, &needle, 1).unwrap_or(0) as i64
            ))
        }

        pub fn f_instr(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
            let hay = some_or_null!(want_text(ctx, args, 0)?);
            let needle = some_or_null!(want_text(ctx, args, 1)?);
            Ok(Value::Integer(
                find_sub(&hay, &needle, 1).unwrap_or(0) as i64
            ))
        }

        pub fn f_locate(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
            let needle = some_or_null!(want_text(ctx, args, 0)?);
            let hay = some_or_null!(want_text(ctx, args, 1)?);
            let from = if args.len() > 2 {
                some_or_null!(want_int(ctx, args, 2)?)
            } else {
                1
            };
            if from < 1 {
                ctx.branch("non-positive-start");
                return Ok(Value::Integer(0));
            }
            Ok(Value::Integer(
                find_sub(&hay, &needle, from as usize).unwrap_or(0) as i64,
            ))
        }

        pub fn f_split_part(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
            let s = some_or_null!(want_text(ctx, args, 0)?);
            let sep = some_or_null!(want_text(ctx, args, 1)?);
            let n = some_or_null!(want_int(ctx, args, 2)?);
            if sep.is_empty() {
                ctx.branch("empty-separator");
                return runtime_err("SPLIT_PART(): empty separator");
            }
            if n == 0 {
                ctx.branch("zero-index");
                return runtime_err("SPLIT_PART(): field position must not be zero");
            }
            let parts: Vec<&str> = s.split(&sep).collect();
            let idx = if n > 0 {
                n as usize - 1
            } else {
                ctx.branch("negative-index");
                match parts.len().checked_sub(n.unsigned_abs() as usize) {
                    Some(i) => i,
                    None => return Ok(Value::Text(String::new())),
                }
            };
            Ok(Value::Text(
                parts.get(idx).copied().unwrap_or("").to_string(),
            ))
        }

        pub fn f_translate(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
            let s = some_or_null!(want_text(ctx, args, 0)?);
            let from: Vec<char> = some_or_null!(want_text(ctx, args, 1)?).chars().collect();
            let to: Vec<char> = some_or_null!(want_text(ctx, args, 2)?).chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match from.iter().position(|&f| f == c) {
                    None => Some(c),
                    Some(i) => to.get(i).copied(),
                })
                .collect();
            Ok(Value::Text(out))
        }

        pub fn f_insert(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
            let s = some_or_null!(want_text(ctx, args, 0)?);
            let pos = some_or_null!(want_int(ctx, args, 1)?);
            let len = some_or_null!(want_int(ctx, args, 2)?);
            let newstr = some_or_null!(want_text(ctx, args, 3)?);
            let chars: Vec<char> = s.chars().collect();
            let n = chars.len() as i64;
            if pos < 1 || pos > n {
                ctx.branch("pos-out-of-range");
                return Ok(Value::Text(s));
            }
            let start = (pos - 1) as usize;
            let take = if len < 0 {
                n - pos + 1
            } else {
                len.min(n - pos + 1)
            } as usize;
            let mut out: String = chars[..start].iter().collect();
            out.push_str(&newstr);
            out.extend(&chars[start + take..]);
            Ok(Value::Text(out))
        }

        pub fn f_replace(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
            let s = some_or_null!(want_text(ctx, args, 0)?);
            let from = some_or_null!(want_text(ctx, args, 1)?);
            let to = some_or_null!(want_text(ctx, args, 2)?);
            if from.is_empty() {
                ctx.branch("empty-needle");
                return Ok(Value::Text(s));
            }
            let v = Value::Text(s.replace(&from, &to));
            ctx.charge(&v)?;
            Ok(v)
        }

        pub fn f_concat_ws(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
            let sep = some_or_null!(want_text(ctx, args, 0)?);
            let mut parts = Vec::new();
            for i in 1..args.len() {
                if let Some(s) = want_text(ctx, args, i)? {
                    parts.push(s);
                } else {
                    ctx.branch("skip-null");
                }
            }
            let v = Value::Text(parts.join(&sep));
            ctx.charge(&v)?;
            Ok(v)
        }

        pub fn f_export_set(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
            let bits = some_or_null!(want_int(ctx, args, 0)?);
            let on = some_or_null!(want_text(ctx, args, 1)?);
            let off = some_or_null!(want_text(ctx, args, 2)?);
            let sep = if args.len() > 3 {
                some_or_null!(want_text(ctx, args, 3)?)
            } else {
                ",".to_string()
            };
            let width = if args.len() > 4 {
                some_or_null!(want_int(ctx, args, 4)?).clamp(0, 64)
            } else {
                64
            };
            let mut parts = Vec::with_capacity(width as usize);
            for i in 0..width {
                if (bits >> i) & 1 == 1 {
                    parts.push(on.clone());
                } else {
                    parts.push(off.clone());
                }
            }
            let v = Value::Text(parts.join(&sep));
            ctx.charge(&v)?;
            Ok(v)
        }
    }

    /// Text over a small alphabet of one- to four-byte characters and
    /// separators, empty about one time in eight.
    fn text(rng: &mut Rng, max: usize) -> String {
        const ALPHABET: [&str; 11] = ["a", "b", "ab", "é", "日", "😀", ",", " ", "a,", "Q9", "É"];
        let n = if rng.gen_bool(0.125) {
            0
        } else {
            rng.gen_range(1..max + 1)
        };
        (0..n)
            .map(|_| *rng.choose(&ALPHABET).expect("alphabet"))
            .collect()
    }

    /// A position or count near the ends of a `len`-character text: at and
    /// past both ends, zero, and the extremes.
    fn position(rng: &mut Rng, len: usize) -> i64 {
        let len = len as i64;
        match rng.gen_range(0..8u32) {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => 0,
            3 => len,
            4 => len + 1,
            5 => -len,
            6 => -len - 1,
            _ => rng.gen_range(-len - 3..len + 4),
        }
    }

    type Kernel = (&'static str, ScalarImpl, ScalarImpl);

    #[test]
    fn string_kernels_match_the_reference() {
        let kernels: [Kernel; 14] = [
            ("substr", f_substr, reference::f_substr),
            ("left", f_left, reference::f_left),
            ("right", f_right, reference::f_right),
            ("lpad", f_lpad, reference::f_lpad),
            ("rpad", f_rpad, reference::f_rpad),
            ("reverse", f_reverse, reference::f_reverse),
            ("position", f_position, reference::f_position),
            ("instr", f_instr, reference::f_instr),
            ("locate", f_locate, reference::f_locate),
            ("split_part", f_split_part, reference::f_split_part),
            ("translate", f_translate, reference::f_translate),
            ("insert", f_insert, reference::f_insert),
            ("replace", f_replace, reference::f_replace),
            ("concat_ws", f_concat_ws, reference::f_concat_ws),
        ];
        let mut rng = Rng::seed_from_u64(0x5354_5249);
        for _ in 0..3000 {
            // A tight budget one time in four, so results past it compare
            // their errors and charges too.
            let limits = Limits {
                max_memory_bytes: if rng.gen_bool(0.25) {
                    rng.gen_range(0..200usize)
                } else {
                    64 << 20
                },
                ..Limits::default()
            };
            let s = text(&mut rng, 24);
            let n = s.chars().count();
            for (name, new, old) in kernels {
                let t = Value::Text(text(&mut rng, 3));
                let u = Value::Text(text(&mut rng, 3));
                let args: Vec<Value> = match name {
                    "substr" | "left" | "right" if rng.gen_bool(0.5) || name != "substr" => {
                        vec![
                            Value::Text(s.clone()),
                            Value::Integer(position(&mut rng, n)),
                        ]
                    }
                    "substr" => vec![
                        Value::Text(s.clone()),
                        Value::Integer(position(&mut rng, n)),
                        Value::Integer(position(&mut rng, n)),
                    ],
                    "lpad" | "rpad" => {
                        let count = Value::Integer(rng.gen_range(-2..n as i64 + 30));
                        if rng.gen_bool(0.3) {
                            vec![Value::Text(s.clone()), count]
                        } else {
                            vec![Value::Text(s.clone()), count, t]
                        }
                    }
                    "reverse" => vec![Value::Text(s.clone())],
                    "position" => vec![t, Value::Text(s.clone())],
                    "instr" => vec![Value::Text(s.clone()), t],
                    "locate" => vec![
                        t,
                        Value::Text(s.clone()),
                        Value::Integer(position(&mut rng, n)),
                    ],
                    "split_part" | "replace" if name == "split_part" => {
                        vec![
                            Value::Text(s.clone()),
                            t,
                            Value::Integer(position(&mut rng, n)),
                        ]
                    }
                    "translate" | "replace" => vec![Value::Text(s.clone()), t, u],
                    "insert" => vec![
                        Value::Text(s.clone()),
                        Value::Integer(position(&mut rng, n)),
                        Value::Integer(position(&mut rng, n)),
                        t,
                    ],
                    _ => vec![t, Value::Text(s.clone()), Value::Null, u],
                };
                assert_eq!(
                    call(name, new, &args, &limits),
                    call(name, old, &args, &limits),
                    "{name}{args:?} under {} bytes",
                    limits.max_memory_bytes
                );
            }
        }
    }

    #[test]
    fn export_set_matches_the_reference() {
        let mut rng = Rng::seed_from_u64(0x4558_5054);
        for _ in 0..2000 {
            let limits = Limits {
                max_memory_bytes: if rng.gen_bool(0.3) {
                    rng.gen_range(0..400usize)
                } else {
                    64 << 20
                },
                ..Limits::default()
            };
            let mut args = vec![
                Value::Integer(rng.next_u64() as i64),
                Value::Text(text(&mut rng, 3)),
                Value::Text(text(&mut rng, 3)),
            ];
            if rng.gen_bool(0.7) {
                args.push(Value::Text(text(&mut rng, 2)));
                if rng.gen_bool(0.7) {
                    args.push(Value::Integer(rng.gen_range(-3..70i64)));
                }
            }
            assert_eq!(
                call("export_set", f_export_set, &args, &limits),
                call("export_set", reference::f_export_set, &args, &limits),
                "{args:?}"
            );
        }
    }

    #[test]
    fn oversized_constructors_fail_before_building() {
        // Each result would be hundreds of megabytes; the budget error
        // comes first, with the same text and the same charge as before.
        let limits = Limits::default();
        let big = |c: &str, n: usize| Value::Text(c.repeat(n));
        let cases: [(&str, ScalarImpl, ScalarImpl, Vec<Value>); 3] = [
            (
                "export_set",
                f_export_set,
                reference::f_export_set,
                vec![
                    Value::Integer(-1),
                    big("Y", 100_000),
                    Value::Text("N".into()),
                    big(",", 1_000_000),
                ],
            ),
            (
                "replace",
                f_replace,
                reference::f_replace,
                vec![big("a", 100_000), Value::Text("a".into()), big("b", 1_000)],
            ),
            (
                "concat_ws",
                f_concat_ws,
                reference::f_concat_ws,
                std::iter::once(big(",", 1_000_000))
                    .chain((0..70).map(|_| big("x", 1)))
                    .collect(),
            ),
        ];
        for (name, new, old, args) in cases {
            let got = call(name, new, &args, &limits);
            assert!(
                matches!(
                    got.result,
                    Err(EngineError::Sql(crate::error::SqlError::ResourceLimit(_)))
                ),
                "{name}"
            );
            assert_eq!(got, call(name, old, &args, &limits), "{name}");
        }
    }
}

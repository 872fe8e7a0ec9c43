//! Arbitrary-precision decimal numbers.
//!
//! DBMSs such as MySQL and MariaDB implement `DECIMAL` with a dedicated
//! fixed-point library rather than binary floating point; several of the bugs
//! studied in the paper (MDEV-8407, MDEV-23415, the MySQL `AVG` global buffer
//! overflow of Listing 6) live in exactly this layer, in conversions between
//! decimals and strings at large digit counts. This module is the
//! reproduction's equivalent substrate: a base-10 digit-vector fixed-point
//! type with checked arithmetic and a digit-count cap modelled after
//! MySQL/MariaDB's 65-digit `DECIMAL` (with 81-digit intermediates).

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// Maximum number of significant digits a [`Decimal`] may hold.
///
/// MariaDB's decimal library uses 81 decimal digits for intermediate results;
/// we adopt the same cap so "more digits than the library supports" is a real,
/// reachable boundary.
pub const MAX_DIGITS: usize = 81;

/// Maximum scale (digits after the decimal point).
pub const MAX_SCALE: usize = 38;

/// Errors produced by decimal parsing and arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecimalError {
    /// The textual input was not a valid decimal literal.
    Syntax(String),
    /// The result would exceed [`MAX_DIGITS`] significant digits.
    Overflow,
    /// Division by zero.
    DivisionByZero,
    /// Conversion to a narrower type lost the value entirely.
    OutOfRange,
}

impl fmt::Display for DecimalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecimalError::Syntax(s) => write!(f, "invalid decimal literal: {s}"),
            DecimalError::Overflow => write!(f, "decimal overflow (more than {MAX_DIGITS} digits)"),
            DecimalError::DivisionByZero => write!(f, "decimal division by zero"),
            DecimalError::OutOfRange => write!(f, "decimal value out of range"),
        }
    }
}

impl std::error::Error for DecimalError {}

/// An arbitrary-precision signed fixed-point decimal.
///
/// The value is `(-1)^negative * digits / 10^scale` where `digits` is a
/// base-10 big integer stored most-significant digit first.
///
/// # Examples
///
/// ```
/// use soft_types::decimal::Decimal;
/// let a: Decimal = "1.25".parse().unwrap();
/// let b: Decimal = "2.75".parse().unwrap();
/// assert_eq!(a.checked_add(&b).unwrap().to_string(), "4.00");
/// ```
#[derive(Debug, Clone)]
pub struct Decimal {
    negative: bool,
    /// Base-10 digits of the unscaled integer, most significant first.
    /// Never empty; no redundant leading zeros (except a lone `0`).
    digits: Vec<u8>,
    /// Number of digits after the decimal point.
    scale: usize,
}

impl Decimal {
    /// Returns the decimal value zero (scale 0).
    pub fn zero() -> Self {
        Decimal { negative: false, digits: vec![0], scale: 0 }
    }

    /// Returns the decimal value one (scale 0).
    pub fn one() -> Self {
        Decimal { negative: false, digits: vec![1], scale: 0 }
    }

    /// Builds a decimal from raw parts, normalising leading zeros.
    ///
    /// Returns [`DecimalError::Overflow`] if more than [`MAX_DIGITS`] digits
    /// remain after stripping leading zeros, or if any digit is not in `0..=9`.
    pub fn from_parts(negative: bool, digits: Vec<u8>, scale: usize) -> Result<Self, DecimalError> {
        if digits.iter().any(|&d| d > 9) {
            return Err(DecimalError::Syntax("digit out of range".into()));
        }
        let mut d = Decimal { negative, digits, scale };
        d.normalize();
        if d.digits.len() > MAX_DIGITS {
            return Err(DecimalError::Overflow);
        }
        Ok(d)
    }

    /// Creates a decimal from an `i64` with scale 0.
    pub fn from_i64(v: i64) -> Self {
        Self::from_i128(v as i128)
    }

    /// Creates a decimal from an `i128` with scale 0.
    pub fn from_i128(v: i128) -> Self {
        let negative = v < 0;
        let mut mag = v.unsigned_abs();
        if mag == 0 {
            return Decimal::zero();
        }
        let mut digits = Vec::new();
        while mag > 0 {
            digits.push((mag % 10) as u8);
            mag /= 10;
        }
        digits.reverse();
        Decimal { negative, digits, scale: 0 }
    }

    /// Creates a decimal from an `f64`, using up to 17 significant digits.
    ///
    /// Returns [`DecimalError::OutOfRange`] for NaN or infinite inputs.
    pub fn from_f64(v: f64) -> Result<Self, DecimalError> {
        if !v.is_finite() {
            return Err(DecimalError::OutOfRange);
        }
        // Format with enough precision to round-trip, then parse.
        let s = format!("{v:.17}");
        let mut d: Decimal = s.parse()?;
        d.trim_trailing_fraction_zeros();
        Ok(d)
    }

    /// True if the value is exactly zero (regardless of scale or sign).
    pub fn is_zero(&self) -> bool {
        self.digits.iter().all(|&d| d == 0)
    }

    /// True if the value is negative (and non-zero).
    pub fn is_negative(&self) -> bool {
        self.negative && !self.is_zero()
    }

    /// The scale: number of digits after the decimal point.
    pub fn scale(&self) -> usize {
        self.scale
    }

    /// Total number of stored significant digits (integer + fraction).
    ///
    /// This is the quantity the paper's "digit length" boundaries are about:
    /// e.g. MDEV-8407 fires for decimals longer than 40 digits.
    pub fn total_digits(&self) -> usize {
        if self.digits.len() < self.scale {
            // Pure fraction like 0.005: count the fractional digits.
            self.scale
        } else {
            self.digits.len().max(self.scale)
        }
    }

    /// Number of digits before the decimal point (at least 1 for the zero).
    pub fn integer_digits(&self) -> usize {
        self.digits.len().saturating_sub(self.scale).max(1)
    }

    /// Negates the value.
    pub fn neg(&self) -> Self {
        let mut d = self.clone();
        if !d.is_zero() {
            d.negative = !d.negative;
        }
        d
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        let mut d = self.clone();
        d.negative = false;
        d
    }

    fn normalize(&mut self) {
        // Keep at least max(1, scale+1)? No: value 0.05 stores digits [5],
        // scale 2. Just strip leading zeros down to one digit, in one pass.
        let leading = self.digits.iter().take_while(|&&d| d == 0).count();
        self.digits.drain(..leading.min(self.digits.len().saturating_sub(1)));
        if self.digits.is_empty() {
            self.digits.push(0);
        }
        if self.is_zero() {
            self.negative = false;
        }
    }

    fn trim_trailing_fraction_zeros(&mut self) {
        while self.scale > 0 && *self.digits.last().unwrap_or(&1) == 0 && self.digits.len() > 1 {
            self.digits.pop();
            self.scale -= 1;
        }
        if self.is_zero() {
            self.scale = 0;
            self.digits = vec![0];
        }
    }

    /// Rescales the unscaled digit vector so both operands share a scale.
    fn aligned(a: &Decimal, b: &Decimal) -> (Vec<u8>, Vec<u8>, usize) {
        let scale = a.scale.max(b.scale);
        let mut da = a.digits.clone();
        let mut db = b.digits.clone();
        da.extend(std::iter::repeat(0).take(scale - a.scale));
        db.extend(std::iter::repeat(0).take(scale - b.scale));
        (da, db, scale)
    }

    fn cmp_magnitude(a: &[u8], b: &[u8]) -> Ordering {
        let a = strip_leading(a);
        let b = strip_leading(b);
        match a.len().cmp(&b.len()) {
            Ordering::Equal => a.cmp(b),
            other => other,
        }
    }

    fn add_magnitude(a: &[u8], b: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(a.len().max(b.len()) + 1);
        let mut carry = 0u8;
        let mut ia = a.iter().rev();
        let mut ib = b.iter().rev();
        loop {
            let da = ia.next();
            let db = ib.next();
            if da.is_none() && db.is_none() && carry == 0 {
                break;
            }
            let s = da.copied().unwrap_or(0) + db.copied().unwrap_or(0) + carry;
            out.push(s % 10);
            carry = s / 10;
        }
        out.reverse();
        if out.is_empty() {
            out.push(0);
        }
        out
    }

    /// Subtracts magnitudes; requires `a >= b`.
    fn sub_magnitude(a: &[u8], b: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0i8;
        let mut ia = a.iter().rev();
        let mut ib = b.iter().rev();
        loop {
            let da = ia.next();
            if da.is_none() {
                break;
            }
            let da = *da.unwrap() as i8;
            let db = ib.next().copied().unwrap_or(0) as i8;
            let mut s = da - db - borrow;
            if s < 0 {
                s += 10;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(s as u8);
        }
        out.reverse();
        out
    }

    /// Checked addition.
    pub fn checked_add(&self, other: &Decimal) -> Result<Decimal, DecimalError> {
        let (da, db, scale) = Decimal::aligned(self, other);
        let (negative, digits) = if self.negative == other.negative {
            (self.negative, Decimal::add_magnitude(&da, &db))
        } else {
            match Decimal::cmp_magnitude(&da, &db) {
                Ordering::Equal => (false, vec![0]),
                Ordering::Greater => (self.negative, Decimal::sub_magnitude(&da, &db)),
                Ordering::Less => (other.negative, Decimal::sub_magnitude(&db, &da)),
            }
        };
        Decimal::from_parts(negative, digits, scale)
    }

    /// Checked subtraction.
    pub fn checked_sub(&self, other: &Decimal) -> Result<Decimal, DecimalError> {
        self.checked_add(&other.neg())
    }

    /// Checked multiplication. The result scale is the sum of operand scales.
    pub fn checked_mul(&self, other: &Decimal) -> Result<Decimal, DecimalError> {
        let a = &self.digits;
        let b = &other.digits;
        let mut acc = vec![0u32; a.len() + b.len()];
        for (i, &da) in a.iter().rev().enumerate() {
            for (j, &db) in b.iter().rev().enumerate() {
                acc[i + j] += da as u32 * db as u32;
            }
        }
        let mut carry = 0u32;
        let mut digits = Vec::with_capacity(acc.len());
        for v in acc.iter_mut() {
            let s = *v + carry;
            digits.push((s % 10) as u8);
            carry = s / 10;
        }
        while carry > 0 {
            digits.push((carry % 10) as u8);
            carry /= 10;
        }
        digits.reverse();
        Decimal::from_parts(self.negative != other.negative, digits, self.scale + other.scale)
    }

    /// Checked division.
    ///
    /// Mirrors MySQL's `div_precision_increment = 4`: the result scale is
    /// `self.scale + 4`, computed with one guard digit and rounded half away
    /// from zero.
    pub fn checked_div(&self, other: &Decimal) -> Result<Decimal, DecimalError> {
        if other.is_zero() {
            return Err(DecimalError::DivisionByZero);
        }
        let target_scale = (self.scale + 4).min(MAX_SCALE);
        let guarded = self.div_with_scale(other, target_scale + 1)?;
        guarded.round_to_scale(target_scale)
    }

    /// Division producing a result with an explicit scale.
    pub fn div_with_scale(&self, other: &Decimal, target_scale: usize) -> Result<Decimal, DecimalError> {
        if other.is_zero() {
            return Err(DecimalError::DivisionByZero);
        }
        // Compute floor( (A * 10^k) / B ) on the unscaled integers, where k is
        // chosen so that the quotient has `target_scale` fractional digits:
        // value = A/10^sa / (B/10^sb) = (A * 10^sb) / (B * 10^sa).
        // Multiply numerator by an extra 10^target_scale.
        let mut num = self.digits.clone();
        num.extend(std::iter::repeat(0).take(other.scale + target_scale));
        let mut den = other.digits.clone();
        den.extend(std::iter::repeat(0).take(self.scale));
        let q = long_divide(&num, &den);
        Decimal::from_parts(self.negative != other.negative, q, target_scale)
    }

    /// Remainder with the sign of the dividend (SQL `MOD` semantics).
    pub fn checked_rem(&self, other: &Decimal) -> Result<Decimal, DecimalError> {
        if other.is_zero() {
            return Err(DecimalError::DivisionByZero);
        }
        // r = a - trunc(a/b) * b at scale 0 quotient.
        let q = self.div_with_scale(other, 0)?;
        let prod = q.checked_mul(other)?;
        self.checked_sub(&prod)
    }

    /// Rounds (half away from zero) to `new_scale` fractional digits.
    pub fn round_to_scale(&self, new_scale: usize) -> Result<Decimal, DecimalError> {
        if new_scale >= self.scale {
            let mut d = self.clone();
            let pad = new_scale - self.scale;
            d.digits.extend(std::iter::repeat(0).take(pad));
            d.scale = new_scale;
            d.normalize();
            if d.digits.len() > MAX_DIGITS {
                return Err(DecimalError::Overflow);
            }
            return Ok(d);
        }
        let drop = self.scale - new_scale;
        let mut digits = self.digits.clone();
        // Ensure we have at least `drop` digits to remove.
        while digits.len() < drop {
            digits.insert(0, 0);
        }
        let removed_first = digits[digits.len() - drop];
        digits.truncate(digits.len() - drop);
        if digits.is_empty() {
            digits.push(0);
        }
        let mut d = Decimal { negative: self.negative, digits, scale: new_scale };
        if removed_first >= 5 {
            let one_ulp = Decimal {
                negative: self.negative,
                digits: vec![1],
                scale: new_scale,
            };
            d = d.checked_add(&one_ulp)?;
        }
        d.normalize();
        Ok(d)
    }

    /// Truncates toward zero to `new_scale` fractional digits.
    pub fn truncate_to_scale(&self, new_scale: usize) -> Decimal {
        if new_scale >= self.scale {
            let mut d = self.clone();
            d.digits.extend(std::iter::repeat(0).take(new_scale - self.scale));
            d.scale = new_scale;
            d.normalize();
            return d;
        }
        let drop = self.scale - new_scale;
        let mut digits = self.digits.clone();
        if digits.len() <= drop {
            return Decimal { negative: false, digits: vec![0], scale: new_scale };
        }
        digits.truncate(digits.len() - drop);
        let mut d = Decimal { negative: self.negative, digits, scale: new_scale };
        d.normalize();
        d
    }

    /// Converts to `f64` (may lose precision for large digit counts).
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0f64;
        for &d in &self.digits {
            acc = acc * 10.0 + d as f64;
        }
        acc /= 10f64.powi(self.scale as i32);
        if self.negative {
            -acc
        } else {
            acc
        }
    }

    /// Converts to `i64`, truncating the fraction toward zero.
    ///
    /// Returns [`DecimalError::OutOfRange`] when the integral part does not
    /// fit in an `i64`.
    pub fn to_i64(&self) -> Result<i64, DecimalError> {
        let t = self.truncate_to_scale(0);
        let mut acc: i64 = 0;
        for &d in &t.digits {
            acc = acc
                .checked_mul(10)
                .and_then(|a| a.checked_add(d as i64))
                .ok_or(DecimalError::OutOfRange)?;
        }
        Ok(if t.negative { -acc } else { acc })
    }

    /// Renders the value in scientific notation with `sig` significant digits,
    /// e.g. `1.3e-32`.
    ///
    /// MariaDB's `String::set_real` switches to this representation when a
    /// formatted number would exceed 31 digits — the behaviour at the heart of
    /// MDEV-23415.
    pub fn to_scientific(&self, sig: usize) -> String {
        if self.is_zero() {
            return "0e0".to_string();
        }
        let sig = sig.max(1);
        let digits = strip_leading(&self.digits);
        let exp = digits.len() as i64 - 1 - self.scale as i64;
        let mut mantissa: String = digits.iter().take(sig).map(|d| (b'0' + d) as char).collect();
        if mantissa.len() > 1 {
            mantissa.insert(1, '.');
            while mantissa.ends_with('0') {
                mantissa.pop();
            }
            if mantissa.ends_with('.') {
                mantissa.pop();
            }
        }
        let sign = if self.negative { "-" } else { "" };
        format!("{sign}{mantissa}e{exp}")
    }
}

fn strip_leading(d: &[u8]) -> &[u8] {
    let mut i = 0;
    while i + 1 < d.len() && d[i] == 0 {
        i += 1;
    }
    &d[i..]
}

/// Schoolbook long division of base-10 digit vectors, producing the floored
/// quotient. `den` must be non-zero.
fn long_divide(num: &[u8], den: &[u8]) -> Vec<u8> {
    let den = strip_leading(den);
    let mut rem: Vec<u8> = Vec::new();
    let mut quot = Vec::with_capacity(num.len());
    for &d in num {
        rem.push(d);
        // Strip leading zeros of rem.
        while rem.len() > 1 && rem[0] == 0 {
            rem.remove(0);
        }
        // Find q in 0..=9 with q*den <= rem < (q+1)*den.
        let mut q = 0u8;
        while Decimal::cmp_magnitude(&rem, den) != Ordering::Less {
            rem = Decimal::sub_magnitude(&rem, den);
            while rem.len() > 1 && rem[0] == 0 {
                rem.remove(0);
            }
            q += 1;
        }
        quot.push(q);
    }
    while quot.len() > 1 && quot[0] == 0 {
        quot.remove(0);
    }
    if quot.is_empty() {
        quot.push(0);
    }
    quot
}

impl FromStr for Decimal {
    type Err = DecimalError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err(DecimalError::Syntax("empty string".into()));
        }
        let bytes = s.as_bytes();
        let mut i = 0;
        let mut negative = false;
        match bytes[i] {
            b'-' => {
                negative = true;
                i += 1;
            }
            b'+' => i += 1,
            _ => {}
        }
        let mut digits: Vec<u8> = Vec::new();
        let mut scale = 0usize;
        let mut seen_digit = false;
        let mut seen_dot = false;
        let mut exp: i64 = 0;
        while i < bytes.len() {
            let c = bytes[i];
            match c {
                b'0'..=b'9' => {
                    digits.push(c - b'0');
                    if seen_dot {
                        scale += 1;
                    }
                    seen_digit = true;
                    i += 1;
                }
                b'.' if !seen_dot => {
                    seen_dot = true;
                    i += 1;
                }
                b'e' | b'E' if seen_digit => {
                    let (e, used) = parse_exponent(&bytes[i + 1..])
                        .ok_or_else(|| DecimalError::Syntax(s.to_string()))?;
                    exp = e;
                    i += 1 + used;
                    if i != bytes.len() {
                        return Err(DecimalError::Syntax(s.to_string()));
                    }
                }
                _ => return Err(DecimalError::Syntax(s.to_string())),
            }
        }
        if !seen_digit {
            return Err(DecimalError::Syntax(s.to_string()));
        }
        // Apply the exponent by adjusting the scale (or appending zeros).
        let scale_i = (scale as i64).checked_sub(exp).ok_or(DecimalError::Overflow)?;
        if scale_i >= 0 {
            return Decimal::from_parts(negative, digits, scale_i as usize);
        }
        // Zeros appended to a zero mantissa leave zero; past MAX_DIGITS
        // significant digits they overflow, so refuse before allocating.
        let significant = digits.iter().skip_while(|&&d| d == 0).count();
        if significant == 0 {
            return Ok(Decimal::zero());
        }
        let zeros = scale_i.unsigned_abs();
        if (significant as u64).saturating_add(zeros) > MAX_DIGITS as u64 {
            return Err(DecimalError::Overflow);
        }
        digits.extend(std::iter::repeat(0).take(zeros as usize));
        Decimal::from_parts(negative, digits, 0)
    }
}

fn parse_exponent(bytes: &[u8]) -> Option<(i64, usize)> {
    let mut i = 0;
    let mut neg = false;
    if i < bytes.len() && (bytes[i] == b'-' || bytes[i] == b'+') {
        neg = bytes[i] == b'-';
        i += 1;
    }
    let start = i;
    let mut v: i64 = 0;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        v = v.checked_mul(10)?.checked_add((bytes[i] - b'0') as i64)?;
        i += 1;
    }
    if i == start {
        return None;
    }
    Some((if neg { -v } else { v }, i))
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negative && !self.is_zero() {
            write!(f, "-")?;
        }
        let n = self.digits.len();
        if self.scale == 0 {
            for &d in &self.digits {
                write!(f, "{d}")?;
            }
            return Ok(());
        }
        if n > self.scale {
            for &d in &self.digits[..n - self.scale] {
                write!(f, "{d}")?;
            }
        } else {
            write!(f, "0")?;
        }
        write!(f, ".")?;
        // Pad missing fraction leading zeros (e.g. digits [5], scale 3 -> 0.005).
        if n < self.scale {
            for _ in 0..self.scale - n {
                write!(f, "0")?;
            }
            for &d in &self.digits {
                write!(f, "{d}")?;
            }
        } else {
            for &d in &self.digits[n - self.scale..] {
                write!(f, "{d}")?;
            }
        }
        Ok(())
    }
}

impl PartialEq for Decimal {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Decimal {}

impl PartialOrd for Decimal {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Decimal {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.is_negative(), other.is_negative()) {
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            _ => {}
        }
        let (da, db, _) = Decimal::aligned(self, other);
        let mag = Decimal::cmp_magnitude(&da, &db);
        if self.is_negative() {
            mag.reverse()
        } else {
            mag
        }
    }
}

impl std::hash::Hash for Decimal {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash a canonical form: trimmed trailing fraction zeros.
        let mut c = self.clone();
        c.trim_trailing_fraction_zeros();
        c.negative.hash(state);
        c.digits.hash(state);
        c.scale.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["0", "1", "-1", "123.456", "-0.005", "99999999999999999999", "0.1"] {
            assert_eq!(d(s).to_string(), s);
        }
    }

    #[test]
    fn parse_normalises_leading_zeros() {
        assert_eq!(d("000123").to_string(), "123");
        assert_eq!(d("-000.500").to_string(), "-0.500");
        assert_eq!(d("+42").to_string(), "42");
    }

    #[test]
    fn parse_scientific() {
        assert_eq!(d("1e3").to_string(), "1000");
        assert_eq!(d("1.5e2").to_string(), "150");
        assert_eq!(d("1.5e-2").to_string(), "0.015");
        assert_eq!(d("-2E1").to_string(), "-20");
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in ["", "abc", "1.2.3", "--5", "1e", "1e+", "."] {
            assert!(s.parse::<Decimal>().is_err(), "{s:?} should not parse");
        }
    }

    #[test]
    fn negative_zero_is_zero() {
        let z = d("-0.000");
        assert!(z.is_zero());
        assert!(!z.is_negative());
        assert_eq!(z, d("0"));
    }

    #[test]
    fn addition() {
        assert_eq!(d("1.25").checked_add(&d("2.75")).unwrap().to_string(), "4.00");
        assert_eq!(d("-5").checked_add(&d("3")).unwrap().to_string(), "-2");
        assert_eq!(d("5").checked_add(&d("-5")).unwrap().to_string(), "0");
        assert_eq!(d("0.1").checked_add(&d("0.2")).unwrap().to_string(), "0.3");
    }

    #[test]
    fn subtraction() {
        assert_eq!(d("1").checked_sub(&d("0.001")).unwrap().to_string(), "0.999");
        assert_eq!(d("-1").checked_sub(&d("-1")).unwrap().to_string(), "0");
    }

    #[test]
    fn multiplication() {
        assert_eq!(d("12").checked_mul(&d("12")).unwrap().to_string(), "144");
        assert_eq!(d("-0.5").checked_mul(&d("0.5")).unwrap().to_string(), "-0.25");
        assert_eq!(d("0").checked_mul(&d("999")).unwrap().to_string(), "0");
    }

    #[test]
    fn division() {
        assert_eq!(d("1").checked_div(&d("4")).unwrap().to_string(), "0.2500");
        assert_eq!(d("10").checked_div(&d("3")).unwrap().to_string(), "3.3333");
        assert!(matches!(d("1").checked_div(&d("0")), Err(DecimalError::DivisionByZero)));
    }

    #[test]
    fn remainder_follows_dividend_sign() {
        assert_eq!(d("7").checked_rem(&d("3")).unwrap().to_string(), "1");
        assert_eq!(d("-7").checked_rem(&d("3")).unwrap().to_string(), "-1");
        assert_eq!(d("7.5").checked_rem(&d("2")).unwrap().to_string(), "1.5");
    }

    #[test]
    fn rounding() {
        assert_eq!(d("1.2345").round_to_scale(2).unwrap().to_string(), "1.23");
        assert_eq!(d("1.235").round_to_scale(2).unwrap().to_string(), "1.24");
        assert_eq!(d("-1.235").round_to_scale(2).unwrap().to_string(), "-1.24");
        assert_eq!(d("9.99").round_to_scale(1).unwrap().to_string(), "10.0");
        assert_eq!(d("1.2").round_to_scale(4).unwrap().to_string(), "1.2000");
    }

    #[test]
    fn truncation() {
        assert_eq!(d("1.999").truncate_to_scale(1).to_string(), "1.9");
        assert_eq!(d("-1.999").truncate_to_scale(0).to_string(), "-1");
        assert_eq!(d("0.001").truncate_to_scale(1).to_string(), "0.0");
    }

    #[test]
    fn comparison() {
        assert!(d("1.5") > d("1.4999"));
        assert!(d("-2") < d("-1"));
        assert_eq!(d("1.50"), d("1.5"));
        assert!(d("0") > d("-0.0001"));
    }

    #[test]
    fn digit_counting() {
        assert_eq!(d("123.45").total_digits(), 5);
        assert_eq!(d("123.45").integer_digits(), 3);
        assert_eq!(d("0.005").total_digits(), 3);
        assert_eq!(d("0.005").integer_digits(), 1);
    }

    #[test]
    fn overflow_at_max_digits() {
        let many = "9".repeat(MAX_DIGITS);
        assert!(many.parse::<Decimal>().is_ok());
        let too_many = "9".repeat(MAX_DIGITS + 1);
        assert!(matches!(too_many.parse::<Decimal>(), Err(DecimalError::Overflow)));
        // Multiplication that exceeds the cap must report overflow.
        let big = d(&"9".repeat(60));
        assert!(matches!(big.checked_mul(&big), Err(DecimalError::Overflow)));
    }

    #[test]
    fn positive_exponents_respect_the_digit_cap() {
        let exact = d("1e80");
        assert_eq!(exact.total_digits(), MAX_DIGITS);
        assert_eq!(exact.to_string(), format!("1{}", "0".repeat(80)));
        assert!(matches!("1e81".parse::<Decimal>(), Err(DecimalError::Overflow)));
        assert!(matches!("9e999".parse::<Decimal>(), Err(DecimalError::Overflow)));
        assert!(matches!("1e40000000000000000".parse::<Decimal>(), Err(DecimalError::Overflow)));
        // An exponent past i64 after scale adjustment overflows cleanly too.
        assert!(matches!(
            "1.5e-9223372036854775807".parse::<Decimal>(),
            Err(DecimalError::Overflow)
        ));
        let zero = d("0e400000000");
        assert!(zero.is_zero());
        assert_eq!(zero.to_string(), "0");
        assert_eq!(d("-00.0e5").to_string(), "0");
    }

    #[test]
    fn boundary_exponents_parse_in_linear_time() {
        // Appended zeros are counted before any is allocated and leading
        // zeros are stripped in one pass, so each input costs its length.
        let padded = format!("{}1.5", "0".repeat(200_000));
        for input in ["0e300000", "1e100000000", &padded] {
            let start = std::time::Instant::now();
            let _ = input.parse::<Decimal>();
            let took = start.elapsed();
            assert!(took < std::time::Duration::from_millis(50), "{input:.12} took {took:?}");
        }
        assert!(d("0e300000").is_zero());
        assert!(matches!("1e100000000".parse::<Decimal>(), Err(DecimalError::Overflow)));
        assert_eq!(d(&padded).to_string(), "1.5");
    }

    #[test]
    fn conversions() {
        assert_eq!(d("42.9").to_i64().unwrap(), 42);
        assert_eq!(d("-42.9").to_i64().unwrap(), -42);
        assert!(d(&format!("{}", u64::MAX)).to_i64().is_err());
        assert!((d("1.5").to_f64() - 1.5).abs() < 1e-12);
        assert_eq!(Decimal::from_f64(2.5).unwrap().to_string(), "2.5");
        assert!(Decimal::from_f64(f64::NAN).is_err());
    }

    #[test]
    fn scientific_notation() {
        assert_eq!(d("0.00000001").to_scientific(2), "1e-8");
        assert_eq!(d("12345").to_scientific(3), "1.23e4");
        assert_eq!(d("-0.5").to_scientific(2), "-5e-1");
        assert_eq!(d("0").to_scientific(3), "0e0");
    }

    #[test]
    fn from_integers() {
        assert_eq!(Decimal::from_i64(i64::MIN).to_string(), i64::MIN.to_string());
        assert_eq!(Decimal::from_i64(0).to_string(), "0");
        assert_eq!(Decimal::from_i128(i128::MAX).to_string(), i128::MAX.to_string());
    }
}

//! The one hex encoder.
//!
//! SQL `HEX`, the digest functions, binary values rendered for a client or
//! as a SQL literal, and the parser's blob literals all spell bytes as two
//! hex digits each. They share these two lookup tables, so encoding a
//! boundary-sized binary (Pattern 1.4 and the 64 KiB pool literals) is one
//! table read per byte and no allocation beyond the output.

/// Two-digit spellings of every byte, upper case (`0x2A` → `"2A"`).
static UPPER: [[u8; 2]; 256] = table(b"0123456789ABCDEF");
/// Two-digit spellings of every byte, lower case (`0x2A` → `"2a"`).
static LOWER: [[u8; 2]; 256] = table(b"0123456789abcdef");

const fn table(digits: &[u8; 16]) -> [[u8; 2]; 256] {
    let mut t = [[0u8; 2]; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = [digits[i >> 4], digits[i & 0xF]];
        i += 1;
    }
    t
}

fn push(out: &mut String, bytes: &[u8], table: &[[u8; 2]; 256]) {
    out.reserve(bytes.len() * 2);
    // The digits are copied into a stack buffer and appended a chunk at a
    // time: pushing them as `char`s costs a UTF-8 encoding per digit.
    let mut buf = [0u8; 128];
    for chunk in bytes.chunks(buf.len() / 2) {
        for (pair, &b) in buf.chunks_exact_mut(2).zip(chunk) {
            pair.copy_from_slice(&table[usize::from(b)]);
        }
        let digits = &buf[..chunk.len() * 2];
        out.push_str(std::str::from_utf8(digits).expect("hex digits are ASCII"));
    }
}

/// Appends two upper-case hex digits per byte of `bytes` to `out`, each
/// byte as the format spec `{:02X}` spells it.
pub fn push_upper(out: &mut String, bytes: &[u8]) {
    push(out, bytes, &UPPER);
}

/// Appends two lower-case hex digits per byte of `bytes` to `out`, each
/// byte as the format spec `{:02x}` spells it.
pub fn push_lower(out: &mut String, bytes: &[u8]) {
    push(out, bytes, &LOWER);
}

/// The upper-case hex spelling of `bytes`.
pub fn upper(bytes: &[u8]) -> String {
    let mut out = String::new();
    push_upper(&mut out, bytes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_byte_matches_format() {
        for b in 0..=255u8 {
            assert_eq!(upper(&[b]), format!("{b:02X}"));
            let mut lower = String::new();
            push_lower(&mut lower, &[b]);
            assert_eq!(lower, format!("{b:02x}"));
        }
    }
}

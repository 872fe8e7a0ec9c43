//! IPv4/IPv6 address parsing and formatting (the `INET_ATON` family).
//!
//! Implemented from scratch (no `std::net` parsing) so the engine controls
//! every boundary: `INET6_ATON('255.255.255.255')` returning a 16-byte blob
//! that later flows into a geometry function is the nested-function chain of
//! the paper's Listing 11.

use std::fmt;

/// Errors from address parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InetError(pub String);

impl fmt::Display for InetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid network address: {}", self.0)
    }
}

impl std::error::Error for InetError {}

/// Parses dotted-quad IPv4 into its numeric value (`INET_ATON`).
pub fn inet_aton(s: &str) -> Result<u32, InetError> {
    let parts: Vec<&str> = s.trim().split('.').collect();
    if parts.len() != 4 {
        return Err(InetError(s.to_string()));
    }
    let mut v: u32 = 0;
    for p in parts {
        if p.is_empty() || p.len() > 3 || !p.bytes().all(|b| b.is_ascii_digit()) {
            return Err(InetError(s.to_string()));
        }
        let octet: u32 = p.parse().map_err(|_| InetError(s.to_string()))?;
        if octet > 255 {
            return Err(InetError(s.to_string()));
        }
        v = (v << 8) | octet;
    }
    Ok(v)
}

/// Formats a numeric IPv4 value as dotted quad (`INET_NTOA`).
pub fn inet_ntoa(v: u32) -> String {
    format!("{}.{}.{}.{}", v >> 24, (v >> 16) & 0xff, (v >> 8) & 0xff, v & 0xff)
}

/// Parses an IPv4 or IPv6 textual address into a binary blob
/// (4 or 16 bytes — `INET6_ATON` semantics).
pub fn inet6_aton(s: &str) -> Result<Vec<u8>, InetError> {
    let s = s.trim();
    if s.contains(':') {
        parse_ipv6(s).map(|b| b.to_vec())
    } else {
        inet_aton(s).map(|v| v.to_be_bytes().to_vec())
    }
}

/// Formats a 4- or 16-byte blob back to text (`INET6_NTOA`).
pub fn inet6_ntoa(bytes: &[u8]) -> Result<String, InetError> {
    match bytes.len() {
        4 => {
            let v = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
            Ok(inet_ntoa(v))
        }
        16 => Ok(format_ipv6(bytes.try_into().expect("16 bytes"))),
        n => Err(InetError(format!("{n}-byte blob is not an address"))),
    }
}

fn parse_ipv6(s: &str) -> Result<[u8; 16], InetError> {
    let err = || InetError(s.to_string());
    // Handle the `::` compression split.
    let (head, tail) = match s.find("::") {
        Some(i) => (&s[..i], Some(&s[i + 2..])),
        None => (s, None),
    };
    if s.matches("::").count() > 1 {
        return Err(err());
    }
    let parse_groups = |part: &str| -> Result<Vec<u16>, InetError> {
        if part.is_empty() {
            return Ok(Vec::new());
        }
        part.split(':')
            .map(|g| {
                if g.is_empty() || g.len() > 4 || !g.bytes().all(|b| b.is_ascii_hexdigit()) {
                    Err(err())
                } else {
                    u16::from_str_radix(g, 16).map_err(|_| err())
                }
            })
            .collect()
    };
    let head_groups = parse_groups(head)?;
    let groups: Vec<u16> = match tail {
        None => {
            if head_groups.len() != 8 {
                return Err(err());
            }
            head_groups
        }
        Some(tail) => {
            let tail_groups = parse_groups(tail)?;
            let fill = 8usize
                .checked_sub(head_groups.len() + tail_groups.len())
                .ok_or_else(err)?;
            if fill == 0 {
                return Err(err());
            }
            let mut g = head_groups;
            g.extend(std::iter::repeat(0).take(fill));
            g.extend(tail_groups);
            g
        }
    };
    let mut out = [0u8; 16];
    for (i, g) in groups.iter().enumerate() {
        out[i * 2] = (g >> 8) as u8;
        out[i * 2 + 1] = (g & 0xff) as u8;
    }
    Ok(out)
}

fn format_ipv6(bytes: &[u8; 16]) -> String {
    let groups: Vec<u16> = (0..8)
        .map(|i| ((bytes[i * 2] as u16) << 8) | bytes[i * 2 + 1] as u16)
        .collect();
    // Find the longest zero run (length >= 2) to compress.
    let mut best = (0usize, 0usize); // (start, len)
    let mut cur = (0usize, 0usize);
    for (i, &g) in groups.iter().enumerate() {
        if g == 0 {
            if cur.1 == 0 {
                cur.0 = i;
            }
            cur.1 += 1;
            if cur.1 > best.1 {
                best = cur;
            }
        } else {
            cur = (0, 0);
        }
    }
    if best.1 >= 2 {
        let head: Vec<String> = groups[..best.0].iter().map(|g| format!("{g:x}")).collect();
        let tail: Vec<String> =
            groups[best.0 + best.1..].iter().map(|g| format!("{g:x}")).collect();
        format!("{}::{}", head.join(":"), tail.join(":"))
    } else {
        groups.iter().map(|g| format!("{g:x}")).collect::<Vec<_>>().join(":")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_roundtrip() {
        assert_eq!(inet_aton("1.2.3.4").unwrap(), 0x01020304);
        assert_eq!(inet_ntoa(0x01020304), "1.2.3.4");
        assert_eq!(inet_aton("255.255.255.255").unwrap(), u32::MAX);
        assert_eq!(inet_ntoa(0), "0.0.0.0");
    }

    #[test]
    fn ipv4_rejects_malformed() {
        for s in ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3", "", "1.2.3.04x"] {
            assert!(inet_aton(s).is_err(), "{s:?} should fail");
        }
    }

    #[test]
    fn ipv6_parse_and_format() {
        let b = inet6_aton("2001:db8::1").unwrap();
        assert_eq!(b.len(), 16);
        assert_eq!(inet6_ntoa(&b).unwrap(), "2001:db8::1");
        let b = inet6_aton("::").unwrap();
        assert_eq!(b, vec![0u8; 16]);
        assert_eq!(inet6_ntoa(&b).unwrap(), "::");
        let full = inet6_aton("1:2:3:4:5:6:7:8").unwrap();
        assert_eq!(inet6_ntoa(&full).unwrap(), "1:2:3:4:5:6:7:8");
    }

    #[test]
    fn ipv6_rejects_malformed() {
        for s in ["1:2:3", ":::", "1::2::3", "12345::", "g::1", "1:2:3:4:5:6:7:8:9"] {
            assert!(inet6_aton(s).is_err(), "{s:?} should fail");
        }
    }

    #[test]
    fn listing11_chain_input() {
        // INET6_ATON('255.255.255.255') yields a 4-byte blob whose first
        // byte (0xff) is not a valid geometry tag.
        let blob = inet6_aton("255.255.255.255").unwrap();
        assert_eq!(blob, vec![0xff, 0xff, 0xff, 0xff]);
    }

    #[test]
    fn blob_length_check() {
        assert!(inet6_ntoa(&[1, 2, 3]).is_err());
        assert_eq!(inet6_ntoa(&[1, 2, 3, 4]).unwrap(), "1.2.3.4");
    }
}

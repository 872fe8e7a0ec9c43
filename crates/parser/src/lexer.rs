//! The SQL lexer.
//!
//! Numeric literals are kept as raw text: the paper's boundary literals
//! (e.g. the 64-digit `AVG` argument of Listing 6) exceed every machine
//! integer width, and the digit count itself is the boundary being tested,
//! so the token stream must not normalise them.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (original spelling preserved).
    Ident(String),
    /// Numeric literal, raw text (may be integer, decimal or exponent form).
    Number(String),
    /// Single-quoted string literal (unescaped content).
    String(String),
    /// Hex blob literal `x'AB01'` (decoded bytes).
    HexBlob(Vec<u8>),
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `[`.
    LBracket,
    /// `]`.
    RBracket,
    /// `,`.
    Comma,
    /// `;`.
    Semicolon,
    /// `.`.
    Dot,
    /// `*`.
    Star,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `/`.
    Slash,
    /// `%`.
    Percent,
    /// `=`.
    Eq,
    /// `<>` or `!=`.
    NotEq,
    /// `<`.
    Lt,
    /// `<=`.
    LtEq,
    /// `>`.
    Gt,
    /// `>=`.
    GtEq,
    /// `::` (PostgreSQL cast).
    DoubleColon,
    /// `||` (string concatenation).
    Concat,
}

impl Token {
    /// True if this token is the given keyword (case-insensitive).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Number(s) => write!(f, "{s}"),
            Token::String(s) => write!(f, "'{s}'"),
            Token::HexBlob(b) => write!(f, "x'{}'", soft_types::hex::upper(b)),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::Comma => write!(f, ","),
            Token::Semicolon => write!(f, ";"),
            Token::Dot => write!(f, "."),
            Token::Star => write!(f, "*"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
            Token::Eq => write!(f, "="),
            Token::NotEq => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::LtEq => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::GtEq => write!(f, ">="),
            Token::DoubleColon => write!(f, "::"),
            Token::Concat => write!(f, "||"),
        }
    }
}

/// A lexing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenises SQL text. Comments (`-- ...` and `/* ... */`) are skipped.
pub fn tokenize(sql: &str) -> Result<Vec<Token>, LexError> {
    let bytes = sql.as_bytes();
    let mut pos = 0usize;
    let mut out = Vec::new();
    while pos < bytes.len() {
        let c = bytes[pos];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => pos += 1,
            b'-' if bytes.get(pos + 1) == Some(&b'-') => {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'/' if bytes.get(pos + 1) == Some(&b'*') => {
                let start = pos;
                pos += 2;
                loop {
                    if pos + 1 >= bytes.len() {
                        return Err(LexError {
                            message: "unterminated block comment".into(),
                            offset: start,
                        });
                    }
                    if bytes[pos] == b'*' && bytes[pos + 1] == b'/' {
                        pos += 2;
                        break;
                    }
                    pos += 1;
                }
            }
            b'\'' => {
                let (s, next) = lex_string(sql, pos)?;
                out.push(Token::String(s));
                pos = next;
            }
            b'x' | b'X'
                if bytes.get(pos + 1) == Some(&b'\'') =>
            {
                let (s, next) = lex_string(sql, pos + 1)?;
                let blob = decode_hex(&s).ok_or(LexError {
                    message: format!("invalid hex literal {s:?}"),
                    offset: pos,
                })?;
                out.push(Token::HexBlob(blob));
                pos = next;
            }
            b'"' | b'`' => {
                // Quoted identifier.
                let quote = c;
                let start = pos;
                pos += 1;
                let begin = pos;
                while pos < bytes.len() && bytes[pos] != quote {
                    pos += 1;
                }
                if pos >= bytes.len() {
                    return Err(LexError {
                        message: "unterminated quoted identifier".into(),
                        offset: start,
                    });
                }
                out.push(Token::Ident(sql[begin..pos].to_string()));
                pos += 1;
            }
            b'0'..=b'9' => {
                let (tok, next) = lex_number(sql, pos)?;
                out.push(tok);
                pos = next;
            }
            b'.' if bytes.get(pos + 1).is_some_and(u8::is_ascii_digit) => {
                let (tok, next) = lex_number(sql, pos)?;
                out.push(tok);
                pos = next;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'$' => {
                let start = pos;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_' || bytes[pos] == b'$')
                {
                    pos += 1;
                }
                out.push(Token::Ident(sql[start..pos].to_string()));
            }
            b'(' => {
                out.push(Token::LParen);
                pos += 1;
            }
            b')' => {
                out.push(Token::RParen);
                pos += 1;
            }
            b'[' => {
                out.push(Token::LBracket);
                pos += 1;
            }
            b']' => {
                out.push(Token::RBracket);
                pos += 1;
            }
            b',' => {
                out.push(Token::Comma);
                pos += 1;
            }
            b';' => {
                out.push(Token::Semicolon);
                pos += 1;
            }
            b'.' => {
                out.push(Token::Dot);
                pos += 1;
            }
            b'*' => {
                out.push(Token::Star);
                pos += 1;
            }
            b'+' => {
                out.push(Token::Plus);
                pos += 1;
            }
            b'-' => {
                out.push(Token::Minus);
                pos += 1;
            }
            b'/' => {
                out.push(Token::Slash);
                pos += 1;
            }
            b'%' => {
                out.push(Token::Percent);
                pos += 1;
            }
            b'=' => {
                out.push(Token::Eq);
                pos += 1;
            }
            b'!' if bytes.get(pos + 1) == Some(&b'=') => {
                out.push(Token::NotEq);
                pos += 2;
            }
            b'<' => {
                match bytes.get(pos + 1) {
                    Some(b'>') => {
                        out.push(Token::NotEq);
                        pos += 2;
                    }
                    Some(b'=') => {
                        out.push(Token::LtEq);
                        pos += 2;
                    }
                    _ => {
                        out.push(Token::Lt);
                        pos += 1;
                    }
                }
            }
            b'>' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    out.push(Token::GtEq);
                    pos += 2;
                } else {
                    out.push(Token::Gt);
                    pos += 1;
                }
            }
            b':' if bytes.get(pos + 1) == Some(&b':') => {
                out.push(Token::DoubleColon);
                pos += 2;
            }
            b'|' if bytes.get(pos + 1) == Some(&b'|') => {
                out.push(Token::Concat);
                pos += 2;
            }
            other => {
                return Err(LexError {
                    message: format!("unexpected character {:?}", other as char),
                    offset: pos,
                })
            }
        }
    }
    Ok(out)
}

fn lex_string(sql: &str, start: usize) -> Result<(String, usize), LexError> {
    let bytes = sql.as_bytes();
    debug_assert_eq!(bytes[start], b'\'');
    let mut pos = start + 1;
    let mut out = String::new();
    loop {
        if pos >= bytes.len() {
            return Err(LexError { message: "unterminated string".into(), offset: start });
        }
        match bytes[pos] {
            b'\'' => {
                if bytes.get(pos + 1) == Some(&b'\'') {
                    out.push('\'');
                    pos += 2;
                } else {
                    return Ok((out, pos + 1));
                }
            }
            b'\\' if bytes.get(pos + 1).is_some_and(u8::is_ascii) => {
                // MySQL-style backslash escapes (ASCII only; a backslash
                // before a multi-byte character falls through to the
                // UTF-8-aware arm below so `pos` never lands mid-codepoint).
                let esc = bytes[pos + 1];
                match esc {
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'0' => out.push('\0'),
                    other => out.push(other as char),
                }
                pos += 2;
            }
            _ => {
                let rest = &sql[pos..];
                let c = rest.chars().next().ok_or(LexError {
                    message: "invalid utf-8".into(),
                    offset: pos,
                })?;
                out.push(c);
                pos += c.len_utf8();
            }
        }
    }
}

fn lex_number(sql: &str, start: usize) -> Result<(Token, usize), LexError> {
    let bytes = sql.as_bytes();
    let mut pos = start;
    let mut seen_dot = false;
    while pos < bytes.len() {
        match bytes[pos] {
            b'0'..=b'9' => pos += 1,
            b'.' if !seen_dot => {
                seen_dot = true;
                pos += 1;
            }
            b'e' | b'E' => {
                let mut j = pos + 1;
                if matches!(bytes.get(j), Some(b'-' | b'+')) {
                    j += 1;
                }
                if matches!(bytes.get(j), Some(b'0'..=b'9')) {
                    pos = j;
                    while matches!(bytes.get(pos), Some(b'0'..=b'9')) {
                        pos += 1;
                    }
                }
                break;
            }
            _ => break,
        }
    }
    Ok((Token::Number(sql[start..pos].to_string()), pos))
}

fn decode_hex(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let b = s.as_bytes();
    for i in (0..b.len()).step_by(2) {
        let hi = (b[i] as char).to_digit(16)?;
        let lo = (b[i + 1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_and_numbers() {
        let toks = tokenize("SELECT 1, 2.5, .5, 1e3").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("SELECT".into()),
                Token::Number("1".into()),
                Token::Comma,
                Token::Number("2.5".into()),
                Token::Comma,
                Token::Number(".5".into()),
                Token::Comma,
                Token::Number("1e3".into()),
            ]
        );
    }

    #[test]
    fn long_numbers_stay_raw() {
        let digits = "9".repeat(100);
        let toks = tokenize(&format!("SELECT {digits}")).unwrap();
        assert_eq!(toks[1], Token::Number(digits));
    }

    #[test]
    fn strings_with_escapes() {
        let toks = tokenize("SELECT 'it''s', 'a\\nb'").unwrap();
        assert_eq!(toks[1], Token::String("it's".into()));
        assert_eq!(toks[3], Token::String("a\nb".into()));
    }

    #[test]
    fn hex_blobs() {
        let toks = tokenize("SELECT x'DEAD'").unwrap();
        assert_eq!(toks[1], Token::HexBlob(vec![0xde, 0xad]));
        assert!(tokenize("SELECT x'XYZ'").is_err());
    }

    #[test]
    fn operators() {
        let toks = tokenize("a <> b <= c >= d != e :: f || g").unwrap();
        let ops: Vec<&Token> = toks.iter().filter(|t| !matches!(t, Token::Ident(_))).collect();
        assert_eq!(
            ops,
            vec![&Token::NotEq, &Token::LtEq, &Token::GtEq, &Token::NotEq, &Token::DoubleColon, &Token::Concat]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = tokenize("SELECT 1 -- trailing\n, /* mid */ 2").unwrap();
        assert_eq!(toks.len(), 4);
        assert!(tokenize("SELECT /* unterminated").is_err());
    }

    #[test]
    fn quoted_identifiers() {
        let toks = tokenize("SELECT \"weird name\", `col`").unwrap();
        assert_eq!(toks[1], Token::Ident("weird name".into()));
        assert_eq!(toks[3], Token::Ident("col".into()));
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("SELECT 'abc").is_err());
        assert!(tokenize("SELECT 'a''").is_err());
    }

    #[test]
    fn star_and_punctuation() {
        let toks = tokenize("f(*, a.b);").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("f".into()),
                Token::LParen,
                Token::Star,
                Token::Comma,
                Token::Ident("a".into()),
                Token::Dot,
                Token::Ident("b".into()),
                Token::RParen,
                Token::Semicolon,
            ]
        );
    }
}

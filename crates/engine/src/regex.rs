//! A small backtracking regular-expression engine.
//!
//! Regex support is part of the string-function surface the paper studies
//! (CVE-2016-0773 — an `int32` overflow in PostgreSQL's regex character-class
//! handling — is the lead example of a boundary literal bug). This engine is
//! written from scratch: a parser to a pattern AST and a backtracking matcher
//! with an explicit step budget so pathological patterns degrade into an
//! error instead of an unbounded loop.
//!
//! Supported syntax: literals, `.`, `*`, `+`, `?`, `{n}`, `{n,}`, `{n,m}`,
//! character classes `[a-z]` / `[^...]`, alternation `|`, groups `(...)`,
//! anchors `^`/`$`, and the escapes `\d \D \w \W \s \S` plus escaped
//! metacharacters.
//!
//! The matcher reads the text in place, at byte offsets that always sit on
//! character boundaries, and allocates nothing per step: what follows the
//! node being matched is a chain of pattern slices on the Rust stack
//! (`Cont`), and every repetition keeps its end positions on one stack
//! the matcher owns. Pattern 3.1 hands `REGEXP_LIKE` 300 KB texts, and a
//! match attempt starts at every character, so per-step allocation would
//! dominate the matcher's cost. The step count is part of the contract:
//! each call of `match_seq` and each repetition attempt is one step, and
//! the 200,000-step budget decides which texts fail.

use std::fmt;

/// Regex compilation or evaluation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegexError {
    /// Malformed pattern.
    Syntax(String),
    /// The matcher exceeded its step budget.
    Budget,
    /// A quantifier bound is out of the supported range.
    BoundTooLarge(u32),
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegexError::Syntax(s) => write!(f, "invalid regex: {s}"),
            RegexError::Budget => write!(f, "regex match exceeded step budget"),
            RegexError::BoundTooLarge(n) => write!(f, "regex repetition bound {n} too large"),
        }
    }
}

impl std::error::Error for RegexError {}

/// Maximum repetition bound accepted in `{n,m}` (mirrors the kind of cap
/// PostgreSQL applies post-CVE-2016-0773).
pub const MAX_REPEAT: u32 = 1000;

/// Matching step budget.
const STEP_BUDGET: usize = 200_000;

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Char(char),
    Any,
    Class { negated: bool, items: Vec<ClassItem> },
    Start,
    End,
    Group(Box<Node>),
    Concat(Vec<Node>),
    Alt(Vec<Node>),
    Repeat { node: Box<Node>, min: u32, max: Option<u32>, greedy: bool },
    Empty,
}

#[derive(Debug, Clone, PartialEq)]
enum ClassItem {
    Single(char),
    Range(char, char),
    Digit(bool),
    Word(bool),
    Space(bool),
}

impl ClassItem {
    fn matches(&self, c: char) -> bool {
        match self {
            ClassItem::Single(x) => c == *x,
            ClassItem::Range(a, b) => (*a..=*b).contains(&c),
            ClassItem::Digit(pos) => c.is_ascii_digit() == *pos,
            ClassItem::Word(pos) => (c.is_ascii_alphanumeric() || c == '_') == *pos,
            ClassItem::Space(pos) => c.is_ascii_whitespace() == *pos,
        }
    }
}

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    root: Node,
}

impl Regex {
    /// Compiles a pattern.
    pub fn compile(pattern: &str) -> Result<Regex, RegexError> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut p = RxParser { chars, pos: 0 };
        let root = p.alternation(0)?;
        if p.pos != p.chars.len() {
            return Err(RegexError::Syntax(format!("unexpected ')' at {}", p.pos)));
        }
        Ok(Regex { root })
    }

    /// True if the pattern matches anywhere in `text` (SQL `REGEXP`
    /// semantics).
    pub fn is_match(&self, text: &str) -> Result<bool, RegexError> {
        Ok(Matcher::new(text).find_from(&self.root, 0)?.is_some())
    }

    /// Finds the leftmost match, returning `(start, end)` char indices.
    pub fn find(&self, text: &str) -> Result<Option<(usize, usize)>, RegexError> {
        Ok(Matcher::new(text).find_from(&self.root, 0)?.map(|(s, e)| {
            let start = text[..s].chars().count();
            (start, start + text[s..e].chars().count())
        }))
    }

    /// Replaces every non-overlapping match with `replacement`.
    pub fn replace_all(&self, text: &str, replacement: &str) -> Result<String, RegexError> {
        Ok(replace_spans(text, &self.match_spans(text)?, replacement))
    }

    /// The byte spans of every non-overlapping match, left to right: what
    /// [`Regex::replace_all`] replaces. A caller can size (and refuse) the
    /// replaced text from the spans before building it.
    pub(crate) fn match_spans(&self, text: &str) -> Result<Vec<(usize, usize)>, RegexError> {
        let mut m = Matcher::new(text);
        let mut spans = Vec::new();
        let mut i = 0usize;
        while let Some((s, e)) = m.find_from(&self.root, i)? {
            spans.push((s, e));
            if e > s {
                i = e;
                continue;
            }
            // Empty match: step over one char to avoid an infinite loop.
            let Some(c) = text[s..].chars().next() else {
                break;
            };
            i = s + c.len_utf8();
        }
        Ok(spans)
    }

    /// Returns the first matched substring, if any.
    pub fn first_match(&self, text: &str) -> Result<Option<String>, RegexError> {
        let found = Matcher::new(text).find_from(&self.root, 0)?;
        Ok(found.map(|(s, e)| text[s..e].to_string()))
    }
}

/// The length of `text` with each of `spans` replaced by `replacement`.
pub(crate) fn replaced_len(text: &str, spans: &[(usize, usize)], replacement: &str) -> usize {
    let removed: usize = spans.iter().map(|(s, e)| e - s).sum();
    (text.len() - removed).saturating_add(spans.len().saturating_mul(replacement.len()))
}

/// `text` with each of `spans` (from [`Regex::match_spans`]) replaced by
/// `replacement`.
pub(crate) fn replace_spans(text: &str, spans: &[(usize, usize)], replacement: &str) -> String {
    let mut out = String::with_capacity(replaced_len(text, spans, replacement));
    let mut i = 0usize;
    for &(s, e) in spans {
        out.push_str(&text[i..s]);
        out.push_str(replacement);
        i = e;
    }
    out.push_str(&text[i..]);
    out
}

struct RxParser {
    chars: Vec<char>,
    pos: usize,
}

impl RxParser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn alternation(&mut self, depth: usize) -> Result<Node, RegexError> {
        if depth > 64 {
            return Err(RegexError::Syntax("pattern too deeply nested".into()));
        }
        let mut branches = vec![self.concat(depth)?];
        while self.peek() == Some('|') {
            self.pos += 1;
            branches.push(self.concat(depth)?);
        }
        if branches.len() == 1 {
            Ok(branches.pop().expect("one branch"))
        } else {
            Ok(Node::Alt(branches))
        }
    }

    fn concat(&mut self, depth: usize) -> Result<Node, RegexError> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            items.push(self.quantified(depth)?);
        }
        match items.len() {
            0 => Ok(Node::Empty),
            1 => Ok(items.pop().expect("one item")),
            _ => Ok(Node::Concat(items)),
        }
    }

    fn quantified(&mut self, depth: usize) -> Result<Node, RegexError> {
        let atom = self.atom(depth)?;
        let (min, max) = match self.peek() {
            Some('*') => {
                self.pos += 1;
                (0, None)
            }
            Some('+') => {
                self.pos += 1;
                (1, None)
            }
            Some('?') => {
                self.pos += 1;
                (0, Some(1))
            }
            Some('{') => {
                self.pos += 1;
                let min = self.number()?;
                let max = if self.peek() == Some(',') {
                    self.pos += 1;
                    if self.peek() == Some('}') {
                        None
                    } else {
                        Some(self.number()?)
                    }
                } else {
                    Some(min)
                };
                if self.peek() != Some('}') {
                    return Err(RegexError::Syntax("expected '}'".into()));
                }
                self.pos += 1;
                if min > MAX_REPEAT || max.is_some_and(|m| m > MAX_REPEAT) {
                    return Err(RegexError::BoundTooLarge(max.unwrap_or(min)));
                }
                if let Some(m) = max {
                    if m < min {
                        return Err(RegexError::Syntax("repetition max < min".into()));
                    }
                }
                (min, max)
            }
            _ => return Ok(atom),
        };
        let greedy = if self.peek() == Some('?') {
            self.pos += 1;
            false
        } else {
            true
        };
        if matches!(atom, Node::Start | Node::End) {
            return Err(RegexError::Syntax("cannot quantify an anchor".into()));
        }
        Ok(Node::Repeat { node: Box::new(atom), min, max, greedy })
    }

    fn number(&mut self) -> Result<u32, RegexError> {
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(c) = self.peek() {
            if let Some(d) = c.to_digit(10) {
                v = v * 10 + d as u64;
                if v > u32::MAX as u64 {
                    return Err(RegexError::BoundTooLarge(u32::MAX));
                }
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(RegexError::Syntax("expected number".into()));
        }
        Ok(v as u32)
    }

    fn atom(&mut self, depth: usize) -> Result<Node, RegexError> {
        match self.peek() {
            None => Err(RegexError::Syntax("unexpected end of pattern".into())),
            Some('(') => {
                self.pos += 1;
                // Support (?:...) as a plain group.
                if self.peek() == Some('?') {
                    self.pos += 1;
                    if self.peek() == Some(':') {
                        self.pos += 1;
                    } else {
                        return Err(RegexError::Syntax("unsupported group flag".into()));
                    }
                }
                let inner = self.alternation(depth + 1)?;
                if self.peek() != Some(')') {
                    return Err(RegexError::Syntax("expected ')'".into()));
                }
                self.pos += 1;
                Ok(Node::Group(Box::new(inner)))
            }
            Some(')') => Err(RegexError::Syntax("unexpected ')'".into())),
            Some('[') => self.class(),
            Some('.') => {
                self.pos += 1;
                Ok(Node::Any)
            }
            Some('^') => {
                self.pos += 1;
                Ok(Node::Start)
            }
            Some('$') => {
                self.pos += 1;
                Ok(Node::End)
            }
            Some('\\') => {
                self.pos += 1;
                let c = self.peek().ok_or_else(|| {
                    RegexError::Syntax("trailing backslash".into())
                })?;
                self.pos += 1;
                Ok(match c {
                    'd' => Node::Class { negated: false, items: vec![ClassItem::Digit(true)] },
                    'D' => Node::Class { negated: false, items: vec![ClassItem::Digit(false)] },
                    'w' => Node::Class { negated: false, items: vec![ClassItem::Word(true)] },
                    'W' => Node::Class { negated: false, items: vec![ClassItem::Word(false)] },
                    's' => Node::Class { negated: false, items: vec![ClassItem::Space(true)] },
                    'S' => Node::Class { negated: false, items: vec![ClassItem::Space(false)] },
                    'n' => Node::Char('\n'),
                    't' => Node::Char('\t'),
                    'r' => Node::Char('\r'),
                    other => Node::Char(other),
                })
            }
            Some(c) if c == '*' || c == '+' || c == '?' || c == '{' => {
                Err(RegexError::Syntax(format!("dangling quantifier {c:?}")))
            }
            Some(c) => {
                self.pos += 1;
                Ok(Node::Char(c))
            }
        }
    }

    fn class(&mut self) -> Result<Node, RegexError> {
        debug_assert_eq!(self.peek(), Some('['));
        self.pos += 1;
        let negated = if self.peek() == Some('^') {
            self.pos += 1;
            true
        } else {
            false
        };
        let mut items = Vec::new();
        loop {
            let c = self
                .peek()
                .ok_or_else(|| RegexError::Syntax("unterminated character class".into()))?;
            if c == ']' && !items.is_empty() {
                self.pos += 1;
                break;
            }
            self.pos += 1;
            let lo = if c == '\\' {
                let e = self
                    .peek()
                    .ok_or_else(|| RegexError::Syntax("trailing backslash in class".into()))?;
                self.pos += 1;
                match e {
                    'd' => {
                        items.push(ClassItem::Digit(true));
                        continue;
                    }
                    'w' => {
                        items.push(ClassItem::Word(true));
                        continue;
                    }
                    's' => {
                        items.push(ClassItem::Space(true));
                        continue;
                    }
                    'n' => '\n',
                    't' => '\t',
                    other => other,
                }
            } else {
                c
            };
            if self.peek() == Some('-')
                && self.chars.get(self.pos + 1).is_some_and(|&c| c != ']')
            {
                self.pos += 1;
                let hi = self
                    .peek()
                    .ok_or_else(|| RegexError::Syntax("unterminated range".into()))?;
                self.pos += 1;
                if hi < lo {
                    return Err(RegexError::Syntax(format!("inverted range {lo}-{hi}")));
                }
                items.push(ClassItem::Range(lo, hi));
            } else {
                items.push(ClassItem::Single(lo));
            }
        }
        Ok(Node::Class { negated, items })
    }
}

/// What follows the node being matched: the rest of its sequence, then
/// what follows that sequence.
#[derive(Clone, Copy)]
struct Cont<'a> {
    seq: &'a [Node],
    next: Option<&'a Cont<'a>>,
}

struct Matcher<'t> {
    text: &'t str,
    steps: usize,
    /// The end positions of every repetition in progress, innermost last;
    /// each `match_repeat` truncates it back to where it found it. Every
    /// entry costs a step, so the step budget, not the text's length,
    /// bounds how often it grows.
    ends: Vec<usize>,
}

impl<'t> Matcher<'t> {
    fn new(text: &'t str) -> Matcher<'t> {
        Matcher {
            text,
            steps: 0,
            ends: Vec::new(),
        }
    }

    /// The leftmost match starting at or after byte `from` (a character
    /// boundary), as byte offsets. Start positions are tried one character
    /// apart, and all of them share one step budget.
    fn find_from(
        &mut self,
        root: &Node,
        from: usize,
    ) -> Result<Option<(usize, usize)>, RegexError> {
        let mut start = from;
        loop {
            if let Some(end) = self.match_seq(std::slice::from_ref(root), None, start)? {
                return Ok(Some((start, end)));
            }
            match self.text[start..].chars().next() {
                Some(c) => start += c.len_utf8(),
                None => return Ok(None),
            }
        }
    }

    fn bump(&mut self) -> Result<(), RegexError> {
        self.steps += 1;
        if self.steps > STEP_BUDGET {
            return Err(RegexError::Budget);
        }
        Ok(())
    }

    /// The character at byte `pos` and its byte length.
    fn char_at(&self, pos: usize) -> Option<(char, usize)> {
        let c = self.text[pos..].chars().next()?;
        Some((c, c.len_utf8()))
    }

    /// Matches `seq` and then `k` starting at `pos`; returns the end
    /// position on success.
    fn match_seq(
        &mut self,
        seq: &[Node],
        k: Option<&Cont<'_>>,
        pos: usize,
    ) -> Result<Option<usize>, RegexError> {
        self.bump()?;
        let (mut seq, mut k) = (seq, k);
        // An exhausted sequence goes on with what follows it, in the same
        // step: the continuation is the tail of one flat sequence.
        let (first, rest) = loop {
            if let Some(split) = seq.split_first() {
                break split;
            }
            match k {
                Some(c) => (seq, k) = (c.seq, c.next),
                None => return Ok(Some(pos)),
            }
        };
        match first {
            Node::Empty => self.match_seq(rest, k, pos),
            Node::Char(c) => match self.char_at(pos) {
                Some((x, len)) if x == *c => self.match_seq(rest, k, pos + len),
                _ => Ok(None),
            },
            Node::Any => match self.char_at(pos) {
                Some((_, len)) => self.match_seq(rest, k, pos + len),
                None => Ok(None),
            },
            Node::Class { negated, items } => match self.char_at(pos) {
                Some((c, len)) if items.iter().any(|i| i.matches(c)) != *negated => {
                    self.match_seq(rest, k, pos + len)
                }
                _ => Ok(None),
            },
            Node::Start => {
                if pos == 0 {
                    self.match_seq(rest, k, pos)
                } else {
                    Ok(None)
                }
            }
            Node::End => {
                if pos == self.text.len() {
                    self.match_seq(rest, k, pos)
                } else {
                    Ok(None)
                }
            }
            Node::Group(inner) => {
                let then = Cont { seq: rest, next: k };
                self.match_seq(std::slice::from_ref(&**inner), Some(&then), pos)
            }
            Node::Concat(items) => {
                let then = Cont { seq: rest, next: k };
                self.match_seq(items, Some(&then), pos)
            }
            Node::Alt(branches) => {
                let then = Cont { seq: rest, next: k };
                for b in branches {
                    if let Some(end) = self.match_seq(std::slice::from_ref(b), Some(&then), pos)? {
                        return Ok(Some(end));
                    }
                }
                Ok(None)
            }
            Node::Repeat { node, min, max, greedy } => {
                self.match_repeat(node, *min, *max, *greedy, Cont { seq: rest, next: k }, pos)
            }
        }
    }

    fn match_repeat(
        &mut self,
        node: &Node,
        min: u32,
        max: Option<u32>,
        greedy: bool,
        then: Cont<'_>,
        pos: usize,
    ) -> Result<Option<usize>, RegexError> {
        // Collect the chain of end positions for 0..=max repetitions.
        let base = self.ends.len();
        self.ends.push(pos);
        let mut cur = pos;
        let cap = max.unwrap_or(u32::MAX);
        while ((self.ends.len() - base) as u32 - 1) < cap {
            self.bump()?;
            match self.match_seq(std::slice::from_ref(node), None, cur)? {
                Some(end) if end > cur => {
                    self.ends.push(end);
                    cur = end;
                }
                // No match, or a zero-width repetition: stop.
                _ => break,
            }
        }
        let count = self.ends.len() - base;
        let mut found = None;
        if (count as u32 - 1) >= min {
            let valid = base + min as usize..base + count;
            let try_end = |m: &mut Self, i: usize| {
                let end = m.ends[i];
                m.match_seq(then.seq, then.next, end)
            };
            if greedy {
                for i in valid.rev() {
                    found = try_end(self, i)?;
                    if found.is_some() {
                        break;
                    }
                }
            } else {
                for i in valid {
                    found = try_end(self, i)?;
                    if found.is_some() {
                        break;
                    }
                }
            }
        }
        self.ends.truncate(base);
        Ok(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soft_rng::Rng;

    /// The matcher before it read text in place: a `Vec<char>` of the text,
    /// a fresh sequence (a clone of the rest of the pattern) per group,
    /// concatenation or alternative step, and an `ends` vector per
    /// repetition attempt.
    mod reference {
        use super::super::{Node, Regex, RegexError, STEP_BUDGET};

        pub struct Matcher<'a> {
            pub chars: &'a [char],
            pub steps: &'a mut usize,
        }

        impl Matcher<'_> {
            fn bump(&mut self) -> Result<(), RegexError> {
                *self.steps += 1;
                if *self.steps > STEP_BUDGET {
                    return Err(RegexError::Budget);
                }
                Ok(())
            }

            pub fn match_seq(
                &mut self,
                seq: &[Node],
                pos: usize,
            ) -> Result<Option<usize>, RegexError> {
                self.bump()?;
                let Some((first, rest)) = seq.split_first() else {
                    return Ok(Some(pos));
                };
                match first {
                    Node::Empty => self.match_seq(rest, pos),
                    Node::Char(c) => {
                        if self.chars.get(pos) == Some(c) {
                            self.match_seq(rest, pos + 1)
                        } else {
                            Ok(None)
                        }
                    }
                    Node::Any => {
                        if pos < self.chars.len() {
                            self.match_seq(rest, pos + 1)
                        } else {
                            Ok(None)
                        }
                    }
                    Node::Class { negated, items } => match self.chars.get(pos) {
                        Some(&c) if items.iter().any(|i| i.matches(c)) != *negated => {
                            self.match_seq(rest, pos + 1)
                        }
                        _ => Ok(None),
                    },
                    Node::Start => {
                        if pos == 0 {
                            self.match_seq(rest, pos)
                        } else {
                            Ok(None)
                        }
                    }
                    Node::End => {
                        if pos == self.chars.len() {
                            self.match_seq(rest, pos)
                        } else {
                            Ok(None)
                        }
                    }
                    Node::Group(inner) => {
                        let mut seq2 = vec![(**inner).clone()];
                        seq2.extend_from_slice(rest);
                        self.match_seq(&seq2, pos)
                    }
                    Node::Concat(items) => {
                        let mut seq2 = items.clone();
                        seq2.extend_from_slice(rest);
                        self.match_seq(&seq2, pos)
                    }
                    Node::Alt(branches) => {
                        for b in branches {
                            let mut seq2 = vec![b.clone()];
                            seq2.extend_from_slice(rest);
                            if let Some(end) = self.match_seq(&seq2, pos)? {
                                return Ok(Some(end));
                            }
                        }
                        Ok(None)
                    }
                    Node::Repeat {
                        node,
                        min,
                        max,
                        greedy,
                    } => self.match_repeat(node, *min, *max, *greedy, rest, pos),
                }
            }

            fn match_repeat(
                &mut self,
                node: &Node,
                min: u32,
                max: Option<u32>,
                greedy: bool,
                rest: &[Node],
                pos: usize,
            ) -> Result<Option<usize>, RegexError> {
                let mut ends = vec![pos];
                let mut cur = pos;
                let cap = max.unwrap_or(u32::MAX);
                while (ends.len() as u32 - 1) < cap {
                    self.bump()?;
                    let next = self.match_seq(std::slice::from_ref(node), cur)?;
                    match next {
                        Some(end) if end > cur => {
                            ends.push(end);
                            cur = end;
                        }
                        _ => break,
                    }
                }
                if (ends.len() as u32 - 1) < min {
                    return Ok(None);
                }
                let valid = &ends[min as usize..];
                let order: Vec<usize> = if greedy {
                    valid.iter().rev().copied().collect()
                } else {
                    valid.to_vec()
                };
                for end in order {
                    if let Some(done) = self.match_seq(rest, end)? {
                        return Ok(Some(done));
                    }
                }
                Ok(None)
            }
        }

        /// `Regex::find` as it was, with the steps it took.
        pub fn find(re: &Regex, text: &str) -> (Result<Option<(usize, usize)>, RegexError>, usize) {
            let chars: Vec<char> = text.chars().collect();
            let mut steps = 0usize;
            for start in 0..=chars.len() {
                let mut m = Matcher {
                    chars: &chars,
                    steps: &mut steps,
                };
                match m.match_seq(std::slice::from_ref(&re.root), start) {
                    Ok(Some(end)) => return (Ok(Some((start, end))), steps),
                    Ok(None) => {}
                    Err(e) => return (Err(e), steps),
                }
            }
            (Ok(None), steps)
        }

        /// `Regex::replace_all` as it was.
        pub fn replace_all(
            re: &Regex,
            text: &str,
            replacement: &str,
        ) -> Result<String, RegexError> {
            let chars: Vec<char> = text.chars().collect();
            let mut out = String::new();
            let mut i = 0usize;
            let mut steps = 0usize;
            while i <= chars.len() {
                let mut found = None;
                for start in i..=chars.len() {
                    let mut m = Matcher {
                        chars: &chars,
                        steps: &mut steps,
                    };
                    if let Some(end) = m.match_seq(std::slice::from_ref(&re.root), start)? {
                        found = Some((start, end));
                        break;
                    }
                }
                match found {
                    None => {
                        out.extend(&chars[i..]);
                        break;
                    }
                    Some((s, e)) => {
                        out.extend(&chars[i..s]);
                        out.push_str(replacement);
                        if e == s {
                            if s < chars.len() {
                                out.push(chars[s]);
                            }
                            i = s + 1;
                        } else {
                            i = e;
                        }
                        if i > chars.len() {
                            break;
                        }
                    }
                }
            }
            Ok(out)
        }
    }

    /// A pattern from the supported grammar over a two-letter alphabet
    /// plus multi-byte characters, nested up to `depth`.
    fn random_pattern(rng: &mut Rng, depth: usize) -> String {
        const ATOMS: [&str; 12] = [
            "a", "b", "é", "日", ".", "[ab]", "[^a]", "\\d", "\\w", "^", "$", "(?:a|b)",
        ];
        const QUANTIFIERS: [&str; 9] = ["", "", "", "*", "+", "?", "{2}", "{1,3}", "*?"];
        let mut p = String::new();
        for _ in 0..rng.gen_range(1..4usize) {
            let atom = if depth > 0 && rng.gen_bool(0.3) {
                let mut alts: Vec<String> = (0..rng.gen_range(1..3usize))
                    .map(|_| random_pattern(rng, depth - 1))
                    .collect();
                if rng.gen_bool(0.2) {
                    alts.push(String::new());
                }
                format!("({})", alts.join("|"))
            } else {
                (*rng.choose(&ATOMS).expect("atoms")).to_string()
            };
            let q = *rng.choose(&QUANTIFIERS).expect("quantifiers");
            if (atom == "^" || atom == "$") && !q.is_empty() {
                p.push_str(&atom);
            } else {
                p.push_str(&atom);
                p.push_str(q);
            }
        }
        p
    }

    fn random_text(rng: &mut Rng, max: usize) -> String {
        const ALPHABET: [&str; 6] = ["a", "a", "b", "é", "日", "1"];
        let n = if rng.gen_bool(0.1) {
            0
        } else {
            rng.gen_range(1..max + 1)
        };
        (0..n)
            .map(|_| *rng.choose(&ALPHABET).expect("alphabet"))
            .collect()
    }

    #[test]
    fn matcher_matches_the_reference_step_for_step() {
        let mut rng = Rng::seed_from_u64(0x5245_4745);
        let mut budget_hits = 0;
        let mut cases: Vec<(String, String)> = (0..3000)
            .map(|_| (random_pattern(&mut rng, 2), random_text(&mut rng, 30)))
            .collect();
        // Backtracking blow-ups and long texts that run the budget out.
        for n in [20, 40, 200, 5_000, 150_000] {
            cases.push(("(a+)+b".into(), "a".repeat(n)));
            cases.push(("(a|b|ab)*c".into(), "ab".repeat(n / 2)));
            cases.push(("^(日|é)*$".into(), "日é".repeat(n / 2)));
        }
        for (pattern, text) in cases {
            let Ok(re) = Regex::compile(&pattern) else {
                continue;
            };
            let mut m = Matcher::new(&text);
            let found = m.find_from(&re.root, 0);
            let (old, old_steps) = reference::find(&re, &text);
            let new = found
                .clone()
                .map(|f| f.map(|(s, e)| (text[..s].chars().count(), text[..e].chars().count())));
            assert_eq!(new, old, "{pattern:?} on {text:?}");
            assert_eq!(m.steps, old_steps, "{pattern:?} on {text:?}");
            assert_eq!(re.find(&text), old, "{pattern:?} on {text:?}");
            budget_hits += usize::from(old == Err(RegexError::Budget));
            assert_eq!(
                re.replace_all(&text, "<>"),
                reference::replace_all(&re, &text, "<>"),
                "{pattern:?} on {text:?}"
            );
        }
        assert!(
            budget_hits >= 5,
            "only {budget_hits} texts ran out of steps"
        );
    }

    fn m(pattern: &str, text: &str) -> bool {
        Regex::compile(pattern).unwrap().is_match(text).unwrap()
    }

    #[test]
    fn literals_and_any() {
        assert!(m("abc", "xxabcxx"));
        assert!(!m("abc", "ab"));
        assert!(m("a.c", "axc"));
        assert!(!m("a.c", "ac"));
    }

    #[test]
    fn quantifiers() {
        assert!(m("ab*c", "ac"));
        assert!(m("ab*c", "abbbc"));
        assert!(m("ab+c", "abc"));
        assert!(!m("ab+c", "ac"));
        assert!(m("ab?c", "ac"));
        assert!(m("a{3}", "aaa"));
        assert!(!m("^a{3}$", "aa"));
        assert!(m("^a{2,4}$", "aaa"));
        assert!(!m("^a{2,4}$", "aaaaa"));
    }

    #[test]
    fn classes() {
        assert!(m("[a-c]+", "abc"));
        assert!(!m("^[a-c]+$", "abd"));
        assert!(m("[^0-9]", "a"));
        assert!(!m("^[^0-9]$", "5"));
        assert!(m("\\d{3}", "abc123"));
        assert!(m("[\\d]-", "1-"));
        assert!(m("[]]", "]"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(m("^(cat|dog)$", "dog"));
        assert!(m("^(ab)+$", "ababab"));
        assert!(!m("^(ab)+$", "aba"));
        assert!(m("(?:x|y)z", "yz"));
    }

    #[test]
    fn anchors() {
        assert!(m("^abc", "abcdef"));
        assert!(!m("^bc", "abc"));
        assert!(m("def$", "abcdef"));
    }

    #[test]
    fn find_positions() {
        let r = Regex::compile("b+").unwrap();
        assert_eq!(r.find("aabbbcc").unwrap(), Some((2, 5)));
        assert_eq!(r.find("xyz").unwrap(), None);
        assert_eq!(r.first_match("aabbbcc").unwrap(), Some("bbb".into()));
    }

    #[test]
    fn replace_all() {
        let r = Regex::compile("o").unwrap();
        assert_eq!(r.replace_all("foo bot", "0").unwrap(), "f00 b0t");
        let r = Regex::compile("\\d+").unwrap();
        assert_eq!(r.replace_all("a1b22c", "#").unwrap(), "a#b#c");
    }

    #[test]
    fn syntax_errors() {
        for p in ["(", ")", "a{2", "*a", "a{4,2}", "[", "a\\", "(?i)x", "[z-a]"] {
            assert!(Regex::compile(p).is_err(), "{p:?} should fail");
        }
    }

    #[test]
    fn repetition_bound_guard() {
        // The post-CVE-2016-0773 style cap: enormous bounds are rejected
        // at compile time instead of looping.
        match Regex::compile("a{999999999}") {
            Err(RegexError::BoundTooLarge(_)) => {}
            other => panic!("expected BoundTooLarge, got {other:?}"),
        }
        assert!(Regex::compile(&format!("a{{{MAX_REPEAT}}}")).is_ok());
    }

    #[test]
    fn step_budget_bounds_pathological_backtracking() {
        // (a+)+b against a long non-matching string is the classic
        // exponential case; the budget must kick in rather than hang.
        let r = Regex::compile("(a+)+b").unwrap();
        let text = "a".repeat(40);
        match r.is_match(&text) {
            Err(RegexError::Budget) => {}
            Ok(false) => {} // Fast rejection is fine too.
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lazy_quantifier() {
        let r = Regex::compile("<.+?>").unwrap();
        assert_eq!(r.first_match("<a><b>").unwrap(), Some("<a>".into()));
    }
}

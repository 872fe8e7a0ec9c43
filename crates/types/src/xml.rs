//! A minimal XML document model with a parser, serializer and the tiny XPath
//! subset used by MySQL's `ExtractValue` / `UpdateXML` (absolute paths with
//! optional positional predicates, e.g. `/a/c[1]`).
//!
//! The paper's Listing 2 contrasts exactly these functions with JavaScript
//! DOM manipulation; the MySQL `xml` use-after-free of Table 4 lives in this
//! component.

use std::fmt;

/// Errors from XML parsing and XPath evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Malformed XML text.
    Syntax {
        /// What went wrong.
        message: String,
        /// Byte offset into the input.
        offset: usize,
    },
    /// Nesting exceeded the configured recursion limit.
    TooDeep {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// A malformed XPath expression.
    BadPath(String),
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::Syntax { message, offset } => {
                write!(f, "invalid XML at byte {offset}: {message}")
            }
            XmlError::TooDeep { limit } => write!(f, "XML nesting exceeds depth limit {limit}"),
            XmlError::BadPath(p) => write!(f, "invalid XPath: {p}"),
        }
    }
}

impl std::error::Error for XmlError {}

/// An XML node: an element with children, or a text run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// `<name attr="v">children</name>`.
    Element {
        /// Tag name.
        name: String,
        /// Attributes in document order.
        attributes: Vec<(String, String)>,
        /// Child nodes in document order.
        children: Vec<XmlNode>,
    },
    /// A text run between tags.
    Text(String),
}

impl XmlNode {
    /// Creates an element with no attributes.
    pub fn element(name: &str, children: Vec<XmlNode>) -> XmlNode {
        XmlNode::Element { name: name.to_string(), attributes: Vec::new(), children }
    }

    /// The element tag name, if this is an element.
    pub fn name(&self) -> Option<&str> {
        match self {
            XmlNode::Element { name, .. } => Some(name),
            XmlNode::Text(_) => None,
        }
    }

    /// Concatenated text content of this subtree.
    pub fn text_content(&self) -> String {
        match self {
            XmlNode::Text(t) => t.clone(),
            XmlNode::Element { children, .. } => {
                children.iter().map(XmlNode::text_content).collect()
            }
        }
    }

    /// Maximum element nesting depth (text = 0, leaf element = 1).
    pub fn depth(&self) -> usize {
        match self {
            XmlNode::Text(_) => 0,
            XmlNode::Element { children, .. } => {
                1 + children.iter().map(XmlNode::depth).max().unwrap_or(0)
            }
        }
    }

    /// The length in bytes of [`XmlNode::to_xml_string`], counted without
    /// building the text.
    pub fn serialized_len(&self) -> usize {
        // Each escape replaces one byte: `&lt;`/`&gt;` add 3, `&amp;` 4 and
        // `&quot;` 5.
        let escaped = |s: &str, quote: bool| {
            s.len()
                + s.bytes()
                    .map(|b| match b {
                        b'<' => 3,
                        b'>' if !quote => 3,
                        b'&' => 4,
                        b'"' if quote => 5,
                        _ => 0,
                    })
                    .sum::<usize>()
        };
        match self {
            XmlNode::Text(t) => escaped(t, false),
            XmlNode::Element {
                name,
                attributes,
                children,
            } => {
                let attrs: usize = attributes
                    .iter()
                    .map(|(k, v)| 4 + k.len() + escaped(v, true))
                    .sum();
                let body = if children.is_empty() {
                    2
                } else {
                    4 + name.len() + children.iter().map(XmlNode::serialized_len).sum::<usize>()
                };
                1 + name.len() + attrs + body
            }
        }
    }

    /// Serialises the node back to XML text.
    pub fn to_xml_string(&self) -> String {
        let mut out = String::new();
        self.write_xml(&mut out);
        out
    }

    fn write_xml(&self, out: &mut String) {
        match self {
            XmlNode::Text(t) => {
                for c in t.chars() {
                    match c {
                        '<' => out.push_str("&lt;"),
                        '>' => out.push_str("&gt;"),
                        '&' => out.push_str("&amp;"),
                        c => out.push(c),
                    }
                }
            }
            XmlNode::Element { name, attributes, children } => {
                out.push('<');
                out.push_str(name);
                for (k, v) in attributes {
                    out.push(' ');
                    out.push_str(k);
                    out.push_str("=\"");
                    for c in v.chars() {
                        match c {
                            '"' => out.push_str("&quot;"),
                            '&' => out.push_str("&amp;"),
                            '<' => out.push_str("&lt;"),
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                if children.is_empty() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    for c in children {
                        c.write_xml(out);
                    }
                    out.push_str("</");
                    out.push_str(name);
                    out.push('>');
                }
            }
        }
    }
}

/// Default element-nesting recursion limit.
pub const DEFAULT_MAX_DEPTH: usize = 64;

/// A parsed document: a sequence of top-level nodes (MySQL's XML functions
/// accept fragments, not only single-rooted documents).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlDocument {
    /// Top-level nodes in document order.
    pub roots: Vec<XmlNode>,
}

impl XmlDocument {
    /// Parses an XML fragment with the default depth limit.
    pub fn parse(text: &str) -> Result<XmlDocument, XmlError> {
        Self::parse_with_depth(text, DEFAULT_MAX_DEPTH)
    }

    /// Parses with an explicit depth limit.
    pub fn parse_with_depth(text: &str, max_depth: usize) -> Result<XmlDocument, XmlError> {
        let mut p = XmlParser { bytes: text.as_bytes(), pos: 0, max_depth };
        let mut roots = Vec::new();
        loop {
            p.skip_ws();
            if p.pos >= p.bytes.len() {
                break;
            }
            roots.push(p.node(0)?);
        }
        Ok(XmlDocument { roots })
    }

    /// The length in bytes of [`XmlDocument::to_xml_string`], counted
    /// without building the text.
    pub fn serialized_len(&self) -> usize {
        self.roots.iter().map(XmlNode::serialized_len).sum()
    }

    /// Serialises the document.
    pub fn to_xml_string(&self) -> String {
        self.roots.iter().map(XmlNode::to_xml_string).collect()
    }

    /// Evaluates an XPath, returning matching nodes in document order.
    pub fn select<'a>(&'a self, path: &XPath) -> Vec<&'a XmlNode> {
        let mut current: Vec<&XmlNode> = self.roots.iter().collect();
        for step in &path.steps {
            let mut next = Vec::new();
            // Positional predicates are evaluated per parent context, so walk
            // matches grouped by their sibling list.
            let mut matches = Vec::new();
            for node in &current {
                if node.name() == Some(step.name.as_str()) {
                    matches.push(*node);
                }
            }
            match step.position {
                None => next.extend(matches),
                Some(pos) => {
                    if pos >= 1 && pos as usize <= matches.len() {
                        next.push(matches[pos as usize - 1]);
                    }
                }
            }
            // Descend: children of the matched elements feed the next step.
            if path.steps.last() != Some(step) {
                let mut descend = Vec::new();
                for m in next {
                    if let XmlNode::Element { children, .. } = m {
                        descend.extend(children.iter());
                    }
                }
                current = descend;
            } else {
                current = next;
            }
        }
        current
    }

    /// Replaces the first node matched by `path` with `replacement`,
    /// returning whether a replacement happened (the `UpdateXML` operation).
    pub fn replace_first(&mut self, path: &XPath, replacement: XmlNode) -> bool {
        fn walk(nodes: &mut [XmlNode], steps: &[XPathStep], replacement: &XmlNode) -> bool {
            let Some(step) = steps.first() else {
                return false;
            };
            let mut ordinal = 0u32;
            #[allow(clippy::needless_range_loop)] // Mutating by index below.
            for i in 0..nodes.len() {
                if nodes[i].name() == Some(step.name.as_str()) {
                    ordinal += 1;
                    if let Some(pos) = step.position {
                        if ordinal != pos {
                            continue;
                        }
                    }
                    if steps.len() == 1 {
                        nodes[i] = replacement.clone();
                        return true;
                    }
                    if let XmlNode::Element { children, .. } = &mut nodes[i] {
                        if walk(children, &steps[1..], replacement) {
                            return true;
                        }
                    }
                    if step.position.is_some() {
                        return false;
                    }
                }
            }
            false
        }
        walk(&mut self.roots, &path.steps, &replacement)
    }
}

struct XmlParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    max_depth: usize,
}

impl<'a> XmlParser<'a> {
    fn err(&self, message: &str) -> XmlError {
        XmlError::Syntax { message: message.to_string(), offset: self.pos }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn node(&mut self, depth: usize) -> Result<XmlNode, XmlError> {
        if self.bytes.get(self.pos) == Some(&b'<') {
            if depth >= self.max_depth {
                return Err(XmlError::TooDeep { limit: self.max_depth });
            }
            self.element(depth)
        } else {
            self.text()
        }
    }

    fn text(&mut self) -> Result<XmlNode, XmlError> {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'<' {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8"))?;
        let t = raw
            .replace("&lt;", "<")
            .replace("&gt;", ">")
            .replace("&quot;", "\"")
            .replace("&amp;", "&");
        Ok(XmlNode::Text(t))
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_' || *b == b'-' || *b == b':')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected name"));
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8"))?
            .to_string())
    }

    fn element(&mut self, depth: usize) -> Result<XmlNode, XmlError> {
        self.pos += 1; // '<'
        let name = self.name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b'/') => {
                    if self.bytes.get(self.pos + 1) == Some(&b'>') {
                        self.pos += 2;
                        return Ok(XmlNode::Element { name, attributes, children: Vec::new() });
                    }
                    return Err(self.err("expected '/>'"));
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let aname = self.name()?;
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b'=') {
                        return Err(self.err("expected '=' in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = self.bytes.get(self.pos).copied();
                    if quote != Some(b'"') && quote != Some(b'\'') {
                        return Err(self.err("expected quoted attribute value"));
                    }
                    self.pos += 1;
                    let start = self.pos;
                    while self.pos < self.bytes.len() && Some(self.bytes[self.pos]) != quote {
                        self.pos += 1;
                    }
                    if self.pos >= self.bytes.len() {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let v = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?
                        .replace("&quot;", "\"")
                        .replace("&lt;", "<")
                        .replace("&amp;", "&");
                    self.pos += 1;
                    attributes.push((aname, v));
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
        // Children until matching close tag.
        let mut children = Vec::new();
        loop {
            if self.pos >= self.bytes.len() {
                return Err(self.err("unterminated element"));
            }
            if self.bytes[self.pos] == b'<' && self.bytes.get(self.pos + 1) == Some(&b'/') {
                self.pos += 2;
                let close = self.name()?;
                if close != name {
                    return Err(self.err("mismatched close tag"));
                }
                self.skip_ws();
                if self.bytes.get(self.pos) != Some(&b'>') {
                    return Err(self.err("expected '>'"));
                }
                self.pos += 1;
                // Drop pure-whitespace text children for a cleaner tree.
                children.retain(|c| !matches!(c, XmlNode::Text(t) if t.trim().is_empty()));
                return Ok(XmlNode::Element { name, attributes, children });
            }
            children.push(self.node(depth + 1)?);
        }
    }
}

/// One step of the supported XPath subset: a name with an optional 1-based
/// positional predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathStep {
    /// Element name to match.
    pub name: String,
    /// Optional `[n]` position (1-based).
    pub position: Option<u32>,
}

/// An absolute XPath like `/a/c[1]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPath {
    /// Steps from the document root.
    pub steps: Vec<XPathStep>,
}

impl XPath {
    /// Parses an absolute path of the form `/name[pos]/name...`.
    pub fn parse(text: &str) -> Result<XPath, XmlError> {
        let text = text.trim();
        if !text.starts_with('/') {
            return Err(XmlError::BadPath(text.to_string()));
        }
        let mut steps = Vec::new();
        for part in text[1..].split('/') {
            if part.is_empty() {
                return Err(XmlError::BadPath(text.to_string()));
            }
            let (name, position) = match part.find('[') {
                None => (part.to_string(), None),
                Some(i) => {
                    if !part.ends_with(']') {
                        return Err(XmlError::BadPath(text.to_string()));
                    }
                    let pos: u32 = part[i + 1..part.len() - 1]
                        .trim()
                        .parse()
                        .map_err(|_| XmlError::BadPath(text.to_string()))?;
                    (part[..i].to_string(), Some(pos))
                }
            };
            if name.is_empty() {
                return Err(XmlError::BadPath(text.to_string()));
            }
            steps.push(XPathStep { name, position });
        }
        Ok(XPath { steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_node(rng: &mut soft_rng::Rng, depth: usize) -> XmlNode {
        const TEXTS: [&str; 7] = ["", "a", "<", ">", "&", "\"", "é日"];
        let text = |rng: &mut soft_rng::Rng| {
            (0..rng.gen_range(0..4usize))
                .map(|_| *rng.choose(&TEXTS).expect("texts"))
                .collect::<String>()
        };
        if depth == 0 || rng.gen_bool(0.3) {
            return XmlNode::Text(text(rng));
        }
        XmlNode::Element {
            name: ["a", "bb", "é"][rng.gen_range(0..3usize)].to_string(),
            attributes: (0..rng.gen_range(0..3usize))
                .map(|_| ("k".to_string(), text(rng)))
                .collect(),
            children: (0..rng.gen_range(0..4usize))
                .map(|_| random_node(rng, depth - 1))
                .collect(),
        }
    }

    #[test]
    fn serialized_len_counts_the_serialisation() {
        let mut rng = soft_rng::Rng::seed_from_u64(0x584d_4c00);
        for _ in 0..5000 {
            let doc = XmlDocument {
                roots: (0..rng.gen_range(0..3usize))
                    .map(|_| random_node(&mut rng, 3))
                    .collect(),
            };
            assert_eq!(doc.serialized_len(), doc.to_xml_string().len(), "{doc:?}");
        }
    }

    #[test]
    fn parse_simple_fragment() {
        let doc = XmlDocument::parse("<a><c></c></a>").unwrap();
        assert_eq!(doc.roots.len(), 1);
        assert_eq!(doc.roots[0].name(), Some("a"));
        assert_eq!(doc.to_xml_string(), "<a><c/></a>");
    }

    #[test]
    fn parse_attributes_and_text() {
        let doc = XmlDocument::parse(r#"<a x="1" y='two'>hello</a>"#).unwrap();
        match &doc.roots[0] {
            XmlNode::Element { attributes, children, .. } => {
                assert_eq!(attributes, &vec![("x".into(), "1".into()), ("y".into(), "two".into())]);
                assert_eq!(children, &vec![XmlNode::Text("hello".into())]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for s in ["<a>", "<a></b>", "<a x=1></a>", "<a", "</a>", "<a x=\"1></a>"] {
            assert!(XmlDocument::parse(s).is_err(), "{s:?} should fail");
        }
    }

    #[test]
    fn depth_limit() {
        let mut deep = String::new();
        for _ in 0..100 {
            deep.push_str("<a>");
        }
        deep.push('x');
        for _ in 0..100 {
            deep.push_str("</a>");
        }
        match XmlDocument::parse(&deep) {
            Err(XmlError::TooDeep { limit }) => assert_eq!(limit, DEFAULT_MAX_DEPTH),
            other => panic!("expected TooDeep, got {other:?}"),
        }
    }

    #[test]
    fn xpath_parsing() {
        let p = XPath::parse("/a/c[1]").unwrap();
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[1], XPathStep { name: "c".into(), position: Some(1) });
        assert!(XPath::parse("a/c").is_err());
        assert!(XPath::parse("/a//c").is_err());
        assert!(XPath::parse("/a[c]").is_err());
    }

    #[test]
    fn select_with_position() {
        let doc = XmlDocument::parse("<a><c>1</c><c>2</c></a>").unwrap();
        let p = XPath::parse("/a/c[2]").unwrap();
        let hits = doc.select(&p);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].text_content(), "2");
        let all = doc.select(&XPath::parse("/a/c").unwrap());
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn update_xml_listing2() {
        // The paper's Listing 2: replace /a/c[1] with <c><b/></c>.
        let mut doc = XmlDocument::parse("<a><c></c></a>").unwrap();
        let repl = XmlDocument::parse("<c><b></b></c>").unwrap().roots.remove(0);
        let done = doc.replace_first(&XPath::parse("/a/c[1]").unwrap(), repl);
        assert!(done);
        assert_eq!(doc.to_xml_string(), "<a><c><b/></c></a>");
    }

    #[test]
    fn replace_miss_returns_false() {
        let mut doc = XmlDocument::parse("<a><c/></a>").unwrap();
        let repl = XmlNode::element("z", vec![]);
        assert!(!doc.replace_first(&XPath::parse("/a/x[1]").unwrap(), repl.clone()));
        assert!(!doc.replace_first(&XPath::parse("/a/c[5]").unwrap(), repl));
    }

    #[test]
    fn text_escaping_roundtrip() {
        let doc = XmlDocument::parse("<a>x &lt; y &amp; z</a>").unwrap();
        assert_eq!(doc.roots[0].text_content(), "x < y & z");
        let re = XmlDocument::parse(&doc.to_xml_string()).unwrap();
        assert_eq!(re, doc);
    }
}

//! The DTD text's one reader, `DtdListing::read`, against the two
//! readers it replaced, kept here verbatim as references: the parser
//! loop `parse_dtd_governed` ran before the listing, and the linter's
//! lenient `DeclIndex::scan` with its duplicate rule (its diagnostics
//! reduced to code, message, span and note). Three properties:
//!
//! * the listing's DTD is the reference parse, value or error, under the
//!   default and the untrusted limits, with the same checkpoints charged
//!   and the same exhaustion under a small fuel budget;
//! * every entry's offset slices the source to its name;
//! * the lint's XNF002 and XNF003 diagnostics are the reference's.
//!
//! The generated texts put comments only between declarations: inside a
//! declaration the scanner did not skip them, which is how it came to
//! report duplicates that are not there. A declaration cut short is
//! closed with `>`, and an attribute list is cut before its enumeration:
//! the scanner read an enumeration up to the next `)`, wherever that
//! was, where the reader resumes past the next `>`.

use proptest::prelude::*;
use xnf::dtd::span::{line_col_str, LineCol};
use xnf::dtd::{DtdListing, ParseLimits};
use xnf::lint::{lint, OptIn};
use xnf_govern::Budget;

/// The parser before the listing.
mod reference_parse {
    use std::collections::{HashMap, HashSet};
    use xnf::dtd::{ContentModel, Dtd, DtdError, ParseLimits, Regex, Result};
    use xnf_govern::Budget;

    /// Whether `c` may occur in a DTD name: ASCII letters and digits and
    /// `_ - . :`.
    fn is_name_byte(c: u8) -> bool {
        c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':')
    }

    struct Scanner<'a> {
        input: &'a [u8],
        pos: usize,
        limits: ParseLimits,
        /// Current content-model nesting depth (checked against
        /// `limits.max_depth`).
        depth: usize,
        budget: &'a Budget,
    }

    impl<'a> Scanner<'a> {
        fn with_limits(input: &'a str, limits: ParseLimits, budget: &'a Budget) -> Self {
            Scanner {
                input: input.as_bytes(),
                pos: 0,
                limits,
                depth: 0,
                budget,
            }
        }

        fn check_input_size(&self) -> Result<()> {
            if self.input.len() > self.limits.max_input {
                return Err(DtdError::syntax(
                    self.input,
                    0,
                    format!(
                        "input is {} bytes, over the {}-byte limit",
                        self.input.len(),
                        self.limits.max_input
                    ),
                ));
            }
            Ok(())
        }

        fn err(&self, message: impl Into<String>) -> DtdError {
            DtdError::syntax(self.input, self.pos, message)
        }

        fn peek(&self) -> Option<u8> {
            self.input.get(self.pos).copied()
        }

        fn bump(&mut self) -> Option<u8> {
            let c = self.peek()?;
            self.pos += 1;
            Some(c)
        }

        fn skip_ws_and_comments(&mut self) -> Result<()> {
            loop {
                while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                    self.pos += 1;
                }
                if self.input[self.pos..].starts_with(b"<!--") {
                    let start = self.pos;
                    self.pos += 4;
                    loop {
                        if self.pos >= self.input.len() {
                            self.pos = start;
                            return Err(self.err("unterminated comment"));
                        }
                        if self.input[self.pos..].starts_with(b"-->") {
                            self.pos += 3;
                            break;
                        }
                        self.pos += 1;
                    }
                } else {
                    return Ok(());
                }
            }
        }

        fn eat(&mut self, token: &str) -> bool {
            if self.input[self.pos..].starts_with(token.as_bytes()) {
                self.pos += token.len();
                true
            } else {
                false
            }
        }

        fn expect(&mut self, token: &str) -> Result<()> {
            if self.eat(token) {
                Ok(())
            } else {
                Err(self.err(format!("expected `{token}`")))
            }
        }

        fn name(&mut self) -> Result<&'a str> {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if is_name_byte(c) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            if self.pos == start {
                return Err(self.err("expected a name"));
            }
            Ok(std::str::from_utf8(&self.input[start..self.pos]).expect("name bytes are ASCII"))
        }

        /// Parses a content-model regular expression at alternation precedence.
        fn regex_alt(&mut self) -> Result<Regex> {
            let mut parts = vec![self.regex_seq()?];
            loop {
                self.skip_ws_and_comments()?;
                if self.eat("|") {
                    parts.push(self.regex_seq()?);
                } else {
                    break;
                }
            }
            Ok(if parts.len() == 1 {
                parts.pop().expect("len checked")
            } else {
                Regex::alt(parts)
            })
        }

        fn regex_seq(&mut self) -> Result<Regex> {
            let mut parts = vec![self.regex_postfix()?];
            loop {
                self.skip_ws_and_comments()?;
                if self.eat(",") {
                    parts.push(self.regex_postfix()?);
                } else {
                    break;
                }
            }
            Ok(if parts.len() == 1 {
                parts.pop().expect("len checked")
            } else {
                Regex::seq(parts)
            })
        }

        fn regex_postfix(&mut self) -> Result<Regex> {
            let mut atom = self.regex_atom()?;
            loop {
                match self.peek() {
                    Some(b'*') => {
                        self.pos += 1;
                        atom = atom.star();
                    }
                    Some(b'+') => {
                        self.pos += 1;
                        atom = atom.plus();
                    }
                    Some(b'?') => {
                        self.pos += 1;
                        atom = atom.opt();
                    }
                    _ => return Ok(atom),
                }
            }
        }

        fn regex_atom(&mut self) -> Result<Regex> {
            self.budget.checkpoint("dtd.parse.atom")?;
            self.skip_ws_and_comments()?;
            if self.eat("(") {
                self.depth += 1;
                if self.depth > self.limits.max_depth {
                    return Err(self.err(format!(
                        "content model nested deeper than {} groups",
                        self.limits.max_depth
                    )));
                }
                let inner = self.regex_alt()?;
                self.skip_ws_and_comments()?;
                self.expect(")")?;
                self.depth -= 1;
                Ok(inner)
            } else if self.eat("#PCDATA") {
                Err(self.err(
                    "#PCDATA may only appear alone as (#PCDATA); mixed content is not supported \
                     (Definition 2 disallows mixed content)",
                ))
            } else {
                Ok(Regex::elem(self.name()?))
            }
        }
    }

    fn content_spec(s: &mut Scanner<'_>) -> Result<ContentModel> {
        s.skip_ws_and_comments()?;
        if s.eat("EMPTY") {
            return Ok(ContentModel::Regex(Regex::Epsilon));
        }
        if s.eat("ANY") {
            return Err(s.err("ANY content is not supported (Definition 1 has no ANY)"));
        }
        // (#PCDATA) — lookahead to distinguish from a parenthesized regex.
        let save = s.pos;
        if s.eat("(") {
            s.skip_ws_and_comments()?;
            if s.eat("#PCDATA") {
                s.skip_ws_and_comments()?;
                if s.eat(")") {
                    return Ok(ContentModel::Text);
                }
                return Err(s.err(
                    "mixed content (#PCDATA | …) is not supported (Definition 2 disallows it)",
                ));
            }
            s.pos = save;
        }
        let re = s.regex_alt()?;
        Ok(ContentModel::Regex(re))
    }

    /// [`parse_dtd`] with explicit adversarial-input limits and a resource
    /// [`Budget`] (checked once per declaration and once per content-model
    /// atom).
    pub fn parse_dtd_governed(input: &str, limits: ParseLimits, budget: &Budget) -> Result<Dtd> {
        let _span = budget.recorder().span("dtd.parse", "parse");
        let mut s = Scanner::with_limits(input, limits, budget);
        s.check_input_size()?;
        // Names are slices of `input`: no declaration check copies a name.
        let mut decls: Vec<(&str, ContentModel)> = Vec::new();
        let mut declared: HashSet<&str> = HashSet::new();
        let mut attlists: HashMap<&str, Vec<&str>> = HashMap::new();
        // ATTLIST owners in source order, so the undeclared-owner error names
        // the first one rather than whichever the map yields.
        let mut owners: Vec<&str> = Vec::new();
        // Every (owner, attribute) pair so far, for the duplicate check.
        let mut owned: HashSet<(&str, &str)> = HashSet::new();

        loop {
            budget.checkpoint("dtd.parse.decl")?;
            s.skip_ws_and_comments()?;
            if s.pos == s.input.len() {
                break;
            }
            s.expect("<!")?;
            if s.eat("ELEMENT") {
                s.skip_ws_and_comments()?;
                let name = s.name()?;
                s.skip_ws_and_comments()?;
                let cm = content_spec(&mut s)?;
                s.skip_ws_and_comments()?;
                s.expect(">")?;
                if !declared.insert(name) {
                    return Err(DtdError::DuplicateElement(name.to_string()));
                }
                decls.push((name, cm));
            } else if s.eat("ATTLIST") {
                s.skip_ws_and_comments()?;
                let elem = s.name()?;
                let atts = attlists.entry(elem).or_insert_with(|| {
                    owners.push(elem);
                    Vec::new()
                });
                loop {
                    s.skip_ws_and_comments()?;
                    if s.eat(">") {
                        break;
                    }
                    let att = s.name()?;
                    s.skip_ws_and_comments()?;
                    // Attribute type: a name (CDATA, ID, NMTOKEN, …) or an
                    // enumeration `(a|b|c)`.
                    if s.eat("(") {
                        loop {
                            s.skip_ws_and_comments()?;
                            s.name()?;
                            s.skip_ws_and_comments()?;
                            if s.eat(")") {
                                break;
                            }
                            s.expect("|")?;
                        }
                    } else {
                        s.name()?;
                    }
                    s.skip_ws_and_comments()?;
                    // Default declaration: #REQUIRED, #IMPLIED, #FIXED "…", "…".
                    if s.eat("#REQUIRED") || s.eat("#IMPLIED") {
                    } else {
                        let fixed = s.eat("#FIXED");
                        if fixed {
                            s.skip_ws_and_comments()?;
                        }
                        let quote = s.bump();
                        match quote {
                            Some(q @ (b'"' | b'\'')) => loop {
                                match s.bump() {
                                    Some(c) if c == q => break,
                                    Some(_) => {}
                                    None => return Err(s.err("unterminated default value")),
                                }
                            },
                            _ => {
                                return Err(DtdError::syntax(
                                    s.input,
                                    s.pos - usize::from(quote.is_some()),
                                    "expected attribute default declaration",
                                ))
                            }
                        }
                    }
                    if !owned.insert((elem, att)) {
                        return Err(DtdError::DuplicateAttribute {
                            element: elem.to_string(),
                            attribute: att.to_string(),
                        });
                    }
                    atts.push(att);
                }
            } else {
                return Err(s.err("expected ELEMENT or ATTLIST"));
            }
        }

        let root = decls
            .first()
            .ok_or_else(|| DtdError::syntax(s.input, 0, "no element declarations found"))?
            .0;

        if let Some(ghost) = owners.into_iter().find(|e| !declared.contains(e)) {
            return Err(DtdError::AttlistForUndeclared(ghost.to_string()));
        }

        let mut b = Dtd::builder(root);
        for (name, cm) in decls {
            let attrs = attlists.remove(name).unwrap_or_default();
            b = b.decl(name, cm, attrs);
        }
        b.build()
    }
}

/// The linter's scanner and its duplicate rule before the listing.
#[allow(dead_code)]
mod reference_scan {
    use super::*;

    /// A reference diagnostic: code, message, span and note.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Found {
        pub code: &'static str,
        pub message: String,
        pub offset: usize,
        pub len: usize,
        pub at: LineCol,
        pub note: String,
    }

    impl Found {
        fn new(
            code: &'static str,
            message: String,
            (src, offset, len): (&str, usize, usize),
            note: String,
        ) -> Found {
            let at = line_col_str(src, offset);
            Found {
                code,
                message,
                offset,
                len,
                at,
                note,
            }
        }
    }

    /// A name occurrence in the source: the name and its byte span.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct NameSpan {
        /// The name text.
        pub name: String,
        /// Byte offset of the name.
        pub offset: usize,
    }

    impl NameSpan {
        /// Byte length of the name.
        pub fn len(&self) -> usize {
            self.name.len()
        }
    }

    /// One `<!ATTLIST …>` block: the element it names and its attribute names.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct AttlistSpan {
        /// The element the block declares attributes for.
        pub element: NameSpan,
        /// Each declared attribute name, in order.
        pub attrs: Vec<NameSpan>,
    }

    /// Every declaration of a DTD text, with spans, in source order, and
    /// ordered by name.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct DeclIndex {
        /// Each `<!ELEMENT name …>` in order of appearance.
        pub(crate) elements: Vec<NameSpan>,
        /// Each `<!ATTLIST …>` block in order of appearance.
        pub(crate) attlists: Vec<AttlistSpan>,
        /// Positions in `elements`, sorted by name; equal names keep their
        /// source order, so each run of one name starts at its first
        /// declaration.
        pub(crate) element_order: Vec<usize>,
        /// `(block, attribute)` positions in `attlists`, sorted the same way
        /// by [`DeclIndex::attr_key`].
        pub(crate) attr_order: Vec<(usize, usize)>,
    }

    impl DeclIndex {
        /// Scans `src`, collecting declaration name spans. Never fails;
        /// declarations with unexpected syntax are skipped.
        pub fn scan(src: &str) -> DeclIndex {
            let mut s = Cursor {
                input: src.as_bytes(),
                pos: 0,
            };
            let mut index = DeclIndex::default();
            loop {
                s.skip_ws_and_comments();
                if s.at_end() {
                    index.order_by_name();
                    return index;
                }
                if s.eat("<!ELEMENT") {
                    s.skip_ws_and_comments();
                    if let Some(name) = s.name() {
                        index.elements.push(name);
                    }
                    s.skip_to_gt();
                } else if s.eat("<!ATTLIST") {
                    s.skip_ws_and_comments();
                    let Some(element) = s.name() else {
                        s.skip_to_gt();
                        continue;
                    };
                    let mut block = AttlistSpan {
                        element,
                        attrs: Vec::new(),
                    };
                    // Per attribute: name, type (name or enumeration), default
                    // (#REQUIRED / #IMPLIED / [#FIXED] "value").
                    loop {
                        s.skip_ws_and_comments();
                        if s.at_end() || s.eat(">") {
                            break;
                        }
                        let Some(att) = s.name() else {
                            s.skip_to_gt();
                            break;
                        };
                        block.attrs.push(att);
                        s.skip_ws_and_comments();
                        let type_ok = if s.eat("(") {
                            s.skip_to_byte(b')')
                        } else {
                            s.name().is_some()
                        };
                        if !type_ok {
                            s.skip_to_gt();
                            break;
                        }
                        s.skip_ws_and_comments();
                        if s.eat("#REQUIRED") || s.eat("#IMPLIED") {
                            continue;
                        }
                        s.eat("#FIXED");
                        s.skip_ws_and_comments();
                        if !s.quoted_string() {
                            s.skip_to_gt();
                            break;
                        }
                    }
                    index.attlists.push(block);
                } else {
                    // Not a declaration we understand: resynchronize.
                    s.skip_to_gt();
                }
            }
        }

        /// Sorts the name orders. The sorts are stable, so the first of
        /// several equal names stays first.
        fn order_by_name(&mut self) {
            let names = &self.elements;
            let mut elements: Vec<usize> = (0..names.len()).collect();
            elements.sort_by(|&a, &b| names[a].name.cmp(&names[b].name));
            let mut attrs: Vec<(usize, usize)> = (self.attlists.iter().enumerate())
                .flat_map(|(b, block)| (0..block.attrs.len()).map(move |a| (b, a)))
                .collect();
            attrs.sort_by(|&x, &y| self.attr_key(x).cmp(&self.attr_key(y)));
            (self.element_order, self.attr_order) = (elements, attrs);
        }

        /// The element and attribute names at `(block, attr)` of `attlists`.
        pub(crate) fn attr_key(&self, (block, attr): (usize, usize)) -> (&str, &str) {
            let block = &self.attlists[block];
            (&block.element.name, &block.attrs[attr].name)
        }

        /// The first `<!ELEMENT …>` span for `name`.
        pub fn element(&self, name: &str) -> Option<&NameSpan> {
            let order = &self.element_order;
            let at = order.partition_point(|&e| self.elements[e].name.as_str() < name);
            let first = &self.elements[*order.get(at)?];
            (first.name == name).then_some(first)
        }
    }

    struct Cursor<'a> {
        input: &'a [u8],
        pos: usize,
    }

    impl Cursor<'_> {
        fn at_end(&self) -> bool {
            self.pos >= self.input.len()
        }

        fn peek(&self) -> Option<u8> {
            self.input.get(self.pos).copied()
        }

        fn skip_ws_and_comments(&mut self) {
            loop {
                while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                    self.pos += 1;
                }
                if self.input[self.pos..].starts_with(b"<!--") {
                    self.pos += 4;
                    while !self.at_end() && !self.input[self.pos..].starts_with(b"-->") {
                        self.pos += 1;
                    }
                    self.pos = (self.pos + 3).min(self.input.len());
                } else {
                    return;
                }
            }
        }

        fn eat(&mut self, token: &str) -> bool {
            if self.input[self.pos..].starts_with(token.as_bytes()) {
                self.pos += token.len();
                true
            } else {
                false
            }
        }

        fn name(&mut self) -> Option<NameSpan> {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            if self.pos == start {
                return None;
            }
            Some(NameSpan {
                // Name bytes are ASCII by construction of the loop above.
                name: String::from_utf8_lossy(&self.input[start..self.pos]).into_owned(),
                offset: start,
            })
        }

        /// Advances one past the next `b`; false at end of input.
        fn skip_to_byte(&mut self, b: u8) -> bool {
            while let Some(c) = self.peek() {
                self.pos += 1;
                if c == b {
                    return true;
                }
            }
            false
        }

        /// Advances one past the next `>` (declaration resync point).
        fn skip_to_gt(&mut self) {
            self.skip_to_byte(b'>');
        }

        /// Consumes a `"…"` or `'…'` literal.
        fn quoted_string(&mut self) -> bool {
            match self.peek() {
                Some(q @ (b'"' | b'\'')) => {
                    self.pos += 1;
                    self.skip_to_byte(q)
                }
                _ => false,
            }
        }
    }

    fn fmt_at(src: &str, span: &NameSpan) -> String {
        format!("dtd:{}", line_col_str(src, span.offset))
    }

    /// XNF002/XNF003 — duplicate `<!ELEMENT>` / duplicate attribute
    /// declarations, found on the raw text so every duplicate is reported
    /// even though the strict parser stops at the first. In the index's name
    /// orders each run of one name starts at its first declaration; every
    /// later one in the run is a duplicate of it.
    pub fn duplicate_decls(src: &str, index: &DeclIndex, out: &mut Vec<Found>) {
        let elements = &index.elements;
        let same_name = |&a: &usize, &b: &usize| elements[a].name == elements[b].name;
        for run in index.element_order.chunk_by(same_name) {
            let first = &elements[run[0]];
            for decl in run[1..].iter().map(|&e| &elements[e]) {
                out.push(Found::new(
                    "XNF002",
                    format!("element `{}` is declared more than once", decl.name),
                    (src, decl.offset, decl.len()),
                    format!("first declared at {}", fmt_at(src, first)),
                ));
            }
        }
        let attr = |(block, a): (usize, usize)| &index.attlists[block].attrs[a];
        let same_key =
            |&x: &(usize, usize), &y: &(usize, usize)| index.attr_key(x) == index.attr_key(y);
        for run in index.attr_order.chunk_by(same_key) {
            let (element, _) = index.attr_key(run[0]);
            let first = attr(run[0]);
            for decl in run[1..].iter().map(|&x| attr(x)) {
                out.push(Found::new(
                    "XNF003",
                    format!(
                        "attribute `@{}` is declared more than once for element `{element}`",
                        decl.name
                    ),
                    (src, decl.offset, decl.len()),
                    format!("first declared at {}", fmt_at(src, first)),
                ));
            }
        }
    }
}

use reference_scan::{DeclIndex, Found};

/// Element names; a well-formed text declares all but the first after its
/// root `r`.
const NAMES: &[&str] = &["r", "a", "b", "t"];

/// Content models: well-formed (the first five), mixed in both
/// positions, `#PCDATA` alone in a group, cut short, not supported, and
/// malformed.
const MODELS: &[&str] = &[
    "EMPTY",
    "(#PCDATA)",
    "(a)",
    "(a | b)*",
    "( a , b? , t+ )",
    "(#PCDATA | a)*",
    "(a | #PCDATA)*",
    "((#PCDATA))",
    "(#PCDATA",
    "ANY",
    "(a b)",
    "(a,)",
    "",
];

/// ATTLIST owners, the last undeclared.
const OWNERS: &[&str] = &["r", "a", "b", "t", "g"];
const ATTRS: &[&str] = &["x", "y", "z"];
const TYPES: &[&str] = &["CDATA", "ID", "NMTOKEN", "(u | v)", "( u|v )"];

/// Default declarations, the last two malformed.
const DEFAULTS: &[&str] = &[
    "#REQUIRED",
    "#IMPLIED",
    "#FIXED \"v\"",
    "'w'",
    "\"v>w\"",
    "#FIXED",
    "",
];

const COMMENTS: &[&str] = &["<!-- c -->", "<!-- <!ELEMENT r EMPTY> -->", "<!---->"];
const STRAY: &[&str] = &["junk", "junk >", "<!FOO x>", ">", "<! >"];
const SEPARATORS: &[&str] = &["\n", "\r\n", " ", "", "\t"];

/// Draws from `seed`, a mixed-radix number, one digit below `n`.
fn pick<'a>(seed: &mut u64, options: &[&'a str]) -> &'a str {
    let n = options.len() as u64;
    let i = *seed % n;
    *seed /= n;
    options[i as usize]
}

/// A content model nested one group deeper than the untrusted limit.
fn deep_model() -> String {
    let depth = ParseLimits::untrusted().max_depth + 1;
    format!("{}a{}", "(".repeat(depth), ")".repeat(depth))
}

fn element(seed: &mut u64, clean: bool) -> String {
    if clean {
        let name = pick(seed, &NAMES[1..]);
        return format!("<!ELEMENT {name} {}>", pick(seed, &MODELS[..5]));
    }
    let name = pick(seed, NAMES);
    let model = match *seed % 8 {
        0 => deep_model(),
        _ => pick(&mut (*seed / 8), MODELS).to_string(),
    };
    *seed /= 8 * MODELS.len() as u64;
    format!("<!ELEMENT {name} {model}>")
}

fn attlist(seed: &mut u64, clean: bool) -> String {
    let (owners, defaults) = match clean {
        true => (&OWNERS[..4], &DEFAULTS[..5]),
        false => (OWNERS, DEFAULTS),
    };
    let mut text = format!("<!ATTLIST {}", pick(seed, owners));
    for _ in 0..1 + *seed % 3 {
        *seed /= 3;
        text.push_str(&format!(
            " {} {} {}",
            pick(seed, ATTRS),
            pick(seed, TYPES),
            pick(seed, defaults)
        ));
    }
    text.push('>');
    text
}

/// One item of a text, from its kind and seed; a `clean` item is a
/// well-formed declaration or a comment.
fn item(kind: u8, mut seed: u64, clean: bool) -> String {
    let seed = &mut seed;
    let text = match kind {
        2 | 3 => attlist(seed, clean),
        4 => pick(seed, COMMENTS).to_string(),
        5 if !clean => pick(seed, STRAY).to_string(),
        // A declaration cut short and closed with `>`; an attribute list
        // keeps its enumerations whole.
        6 if !clean => {
            let decl = if (*seed).is_multiple_of(2) {
                element(&mut (*seed / 2), false)
            } else {
                attlist(&mut (*seed / 2), false)
            };
            let end = decl.find('(').filter(|_| decl.starts_with("<!ATTLIST"));
            let end = end.unwrap_or(decl.len() - 1);
            let cut = (*seed % 97) as usize % (end + 1);
            format!("{}>", &decl[..cut])
        }
        _ => element(seed, clean),
    };
    format!("{text}{}", pick(seed, SEPARATORS))
}

/// A text from its items, cut at `cut` percent of its length (not at all
/// from 100 on). A `clean` text opens with its root `r` and closes by
/// declaring each element name it left undeclared.
fn render(items: &[(u8, u64)], cut: u8, clean: bool) -> String {
    let mut text: String = (items.iter())
        .map(|&(kind, seed)| item(kind, seed, clean))
        .collect();
    if clean {
        text.insert_str(0, "<!ELEMENT r (a?, b*, t?)>\n");
        for name in &NAMES[1..] {
            if !text.contains(&format!("<!ELEMENT {name} ")) {
                text.push_str(&format!("<!ELEMENT {name} EMPTY>\n"));
            }
        }
    }
    if cut < 100 {
        text.truncate(text.len() * usize::from(cut) / 100);
    }
    text
}

/// The lint's XNF002 and XNF003 diagnostics on the listing of `src`.
fn listed_duplicates(listing: &DtdListing<'_>) -> Vec<Found> {
    let report = lint(listing, None, OptIn::None, &Budget::unlimited()).expect("unlimited");
    let mut found: Vec<Found> = (report.diagnostics().iter())
        .filter(|d| matches!(d.code.as_str(), "XNF002" | "XNF003"))
        .map(|d| {
            let span = d.span.as_ref().expect("duplicates carry a span");
            Found {
                code: d.code.as_str(),
                message: d.message.clone(),
                offset: span.offset,
                len: span.len,
                at: span.at,
                note: d.notes.join("\n"),
            }
        })
        .collect();
    found.sort_by_key(|f| (f.offset, f.code));
    found
}

/// The reference's XNF002 and XNF003 diagnostics on `src`.
fn scanned_duplicates(src: &str) -> Vec<Found> {
    let mut found = Vec::new();
    reference_scan::duplicate_decls(src, &DeclIndex::scan(src), &mut found);
    found.sort_by_key(|f| (f.offset, f.code));
    found
}

fn items() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0..7u8, 0..u64::MAX), 0..9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn listing_agrees_with_the_reference_readers(
        items in items(),
        cut in 0..140u8,
        fuel in 0..40u64,
    ) {
        // Half the texts are well-formed and most of those parse; a third
        // of the rest are cut short.
        let clean = fuel % 2 == 0;
        let src = render(&items, if clean { 100 } else { cut }, clean);
        for limits in [ParseLimits::default(), ParseLimits::untrusted()] {
            // The DTD, or the first error, and the checkpoints charged.
            let (mine, theirs) = (Budget::builder().build(), Budget::builder().build());
            let listing = DtdListing::read(&src, limits, &mine);
            let reference = reference_parse::parse_dtd_governed(&src, limits, &theirs);
            prop_assert_eq!(listing.parsed(), &reference, "{:?}", src);
            prop_assert_eq!(mine.site_ordinals(), theirs.site_ordinals(), "{:?}", src);
            prop_assert_eq!(mine.ticks(), theirs.ticks(), "{:?}", src);
            let (mine, theirs) = (
                Budget::builder().fuel(fuel).build(),
                Budget::builder().fuel(fuel).build(),
            );
            prop_assert_eq!(
                DtdListing::read(&src, limits, &mine).into_dtd(),
                reference_parse::parse_dtd_governed(&src, limits, &theirs),
                "{:?} under fuel {}",
                src,
                fuel
            );

            // Every entry's offset slices the source to its name.
            let names = (listing.elements().iter().map(|e| (e.offset, e.name)))
                .chain(listing.attlists().iter().map(|a| (a.offset, a.owner)))
                .chain(listing.attributes().iter().map(|a| (a.offset, a.name)));
            for (offset, name) in names {
                prop_assert_eq!(src.get(offset..offset + name.len()), Some(name), "{:?}", src);
            }

            // Duplicate declarations: the reference's diagnostics.
            prop_assert_eq!(listed_duplicates(&listing), scanned_duplicates(&src), "{:?}", src);
        }
    }
}

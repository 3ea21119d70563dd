//! The one reader of DTD declaration syntax (`<!ELEMENT …>` /
//! `<!ATTLIST …>`).
//!
//! Supports the fragment of XML 1.0 DTD syntax used throughout the paper:
//! element declarations with `EMPTY`, `(#PCDATA)` or a regular-expression
//! content model built from `,` (concatenation), `|` (union) and the
//! quantifiers `*`, `+`, `?`; and attribute-list declarations (attribute
//! types and defaults are accepted and ignored — the paper's model only
//! needs the attribute *names*, all treated as `CDATA #REQUIRED`).
//!
//! Mixed content (`(#PCDATA | a)*`) and `ANY` are rejected: Definition 2
//! disallows mixed content. The root element type is the one named by the
//! first `<!ELEMENT …>` declaration, matching how the paper presents all of
//! its DTDs.
//!
//! [`DtdListing::read`] lists every declaration of a text with its name's
//! byte offset, reading on past a declaration that does not parse, and
//! builds the [`Dtd`] or keeps the first error; [`parse_dtd_governed`] is
//! that listing's DTD, and the linter reports off its entries.

use crate::dtd::{ContentModel, Dtd};
use crate::regex::Regex;
use crate::{DtdError, Result};
use std::collections::HashMap;
use std::ops::Range;
use xnf_govern::Budget;

/// Hard limits guarding the parser against adversarial input. The
/// defaults are far above anything a real DTD needs, but low enough that
/// a hostile input (a 100MB declaration blob, a pathologically nested
/// content model) is rejected with a spanned [`DtdError::Syntax`] instead
/// of consuming unbounded time or stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum input size in bytes.
    pub max_input: usize,
    /// Maximum parenthesis-nesting depth in content models (the parser
    /// recurses once per group, so this bounds stack use).
    pub max_depth: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_input: 64 << 20, // 64 MiB
            max_depth: 256,
        }
    }
}

impl ParseLimits {
    /// Limits for *network-originated* input: what `xnf-serve` trusts
    /// from an authenticated but unknown client. Much stricter than
    /// [`ParseLimits::default`], which is tuned for local files the
    /// operator chose to open — a schema bigger than 1 MiB or nested
    /// past 64 groups over HTTP is hostile, not ambitious.
    pub fn untrusted() -> ParseLimits {
        ParseLimits {
            max_input: 1 << 20, // 1 MiB
            max_depth: 64,
        }
    }
}

/// Whether `c` may occur in a DTD name: ASCII letters and digits and
/// `_ - . :`.
pub(crate) fn is_name_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':')
}

/// A cursor over DTD text: names are slices of the text (`'a`), and
/// checkpoints go to a budget borrowed for `'b`.
struct Scanner<'a, 'b> {
    input: &'a [u8],
    pos: usize,
    limits: ParseLimits,
    /// Current content-model nesting depth (checked against
    /// `limits.max_depth`).
    depth: usize,
    budget: &'b Budget,
    /// The first rejection of `#PCDATA` in the content model being read.
    /// The read goes on past it, to learn whether the model also names
    /// an element.
    pcdata: Option<DtdError>,
    /// Whether the content model being read names an element.
    named: bool,
}

use crate::UNLIMITED;

impl<'a, 'b> Scanner<'a, 'b> {
    fn new(input: &'a str) -> Self {
        Scanner::with_limits(input, ParseLimits::default(), UNLIMITED)
    }

    fn with_limits(input: &'a str, limits: ParseLimits, budget: &'b Budget) -> Self {
        Scanner {
            input: input.as_bytes(),
            pos: 0,
            limits,
            depth: 0,
            budget,
            pcdata: None,
            named: false,
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

    /// Skips whitespace and comments. An unterminated comment is an error
    /// at its start, and leaves the scanner at the end of the input.
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
                        return Err(DtdError::syntax(self.input, start, "unterminated comment"));
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

    /// Advances one past the next `>`, or to the end of the input.
    fn skip_past_gt(&mut self) {
        self.pos = match self.input[self.pos..].iter().position(|&c| c == b'>') {
            Some(at) => self.pos + at + 1,
            None => self.input.len(),
        };
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

    /// Rejects a `#PCDATA` in the content model being read, keeping the
    /// first rejection. A parse stops at its first error, so nothing after
    /// it is metered.
    fn reject_pcdata(&mut self, message: &str) {
        if self.pcdata.is_none() {
            self.pcdata = Some(self.err(message));
            self.budget = UNLIMITED;
        }
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
            self.reject_pcdata(
                "#PCDATA may only appear alone as (#PCDATA); mixed content is not supported \
                 (Definition 2 disallows mixed content)",
            );
            Ok(Regex::Epsilon)
        } else {
            let name = self.name()?;
            self.named = true;
            Ok(Regex::elem(name))
        }
    }
}

/// Parses a bare content-model expression (the part between the element
/// name and `>`), e.g. `(title, taken_by)` or `EMPTY` or `(#PCDATA)`.
pub fn parse_content_model(input: &str) -> Result<ContentModel> {
    let mut s = Scanner::new(input);
    let cm = content_spec(&mut s)?;
    s.skip_ws_and_comments()?;
    if s.pos != s.input.len() {
        return Err(s.err("trailing input after content model"));
    }
    Ok(cm)
}

/// Parses a content model. A model rejected for a `#PCDATA` is read on
/// to its end, so `s.named` afterwards tells whether it mixes `#PCDATA`
/// with element names; the rejection, the model's first error, is the
/// result.
fn content_spec(s: &mut Scanner<'_, '_>) -> Result<ContentModel> {
    (s.pcdata, s.named) = (None, false);
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
            s.reject_pcdata(
                "mixed content (#PCDATA | …) is not supported (Definition 2 disallows it)",
            );
        }
        s.pos = save;
    }
    let re = s.regex_alt();
    match &s.pcdata {
        Some(e) => Err(e.clone()),
        None => Ok(ContentModel::Regex(re?)),
    }
}

/// An attribute definition after its name: the type, a name (CDATA, ID,
/// NMTOKEN, …) or an enumeration `(a|b|c)`, then the default
/// declaration: #REQUIRED, #IMPLIED, #FIXED "…" or "…".
fn attribute_def(s: &mut Scanner<'_, '_>) -> Result<()> {
    s.skip_ws_and_comments()?;
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
    if s.eat("#REQUIRED") || s.eat("#IMPLIED") {
        return Ok(());
    }
    if s.eat("#FIXED") {
        s.skip_ws_and_comments()?;
    }
    match s.peek() {
        Some(q @ (b'"' | b'\'')) => {
            s.pos += 1;
            loop {
                match s.bump() {
                    Some(c) if c == q => return Ok(()),
                    Some(_) => {}
                    None => return Err(s.err("unterminated default value")),
                }
            }
        }
        // The error points at the byte in place of a quote and leaves it
        // unread: it may be the declaration's `>`.
        _ => Err(s.err("expected attribute default declaration")),
    }
}

/// How an `<!ELEMENT …>` declaration of a [`DtdListing`] parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// It parsed through its closing `>`.
    Parsed,
    /// Its content model mixes `#PCDATA` with element names, which
    /// Definition 2 disallows.
    Mixed,
    /// It has another syntax error.
    Rejected,
}

/// One `<!ELEMENT …>` declaration whose name was read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementEntry<'a> {
    /// The declared name, a slice of the source.
    pub name: &'a str,
    /// The byte offset of `name`.
    pub offset: usize,
    /// How the declaration parsed.
    pub outcome: Outcome,
    /// The first declaration of the same name, as a position in
    /// [`DtdListing::elements`], when this one repeats it.
    pub repeats: Option<usize>,
}

/// One `<!ATTLIST …>` declaration whose owner's name was read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttlistEntry<'a> {
    /// The owner's name, a slice of the source.
    pub owner: &'a str,
    /// The byte offset of `owner`.
    pub offset: usize,
    /// Its attributes, as positions in [`DtdListing::attributes`]: each
    /// name read, up to a syntax error.
    pub attrs: Range<usize>,
}

/// One attribute name of an `<!ATTLIST …>` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeEntry<'a> {
    /// The attribute's name, a slice of the source.
    pub name: &'a str,
    /// The byte offset of `name`.
    pub offset: usize,
    /// The first attribute of the same owner and name, as a position in
    /// [`DtdListing::attributes`], when this one repeats it.
    pub repeats: Option<usize>,
}

/// Every declaration of a DTD text in source order, each with its name's
/// byte offset, and the [`Dtd`] they declare or the text's first error.
/// [`DtdListing::read`] is the one reader of the declaration syntax:
/// [`parse_dtd_governed`] is its [`DtdListing::into_dtd`], and the linter
/// reports off its entries.
#[derive(Debug)]
pub struct DtdListing<'a> {
    src: &'a str,
    elements: Vec<ElementEntry<'a>>,
    attlists: Vec<AttlistEntry<'a>>,
    attributes: Vec<AttributeEntry<'a>>,
    /// The first declaration of each element name.
    first: HashMap<&'a str, usize>,
    dtd: Result<Dtd>,
}

impl<'a> DtdListing<'a> {
    /// Reads a DTD text under `limits` and `budget`, which is checked once
    /// per declaration and once per content-model atom until the text's
    /// first error. After a declaration that does not parse, the reader
    /// resumes past the next `>` and lists the rest, unmetered. A text
    /// over the size limit, and a read that runs out of budget, list
    /// nothing more.
    pub fn read(src: &'a str, limits: ParseLimits, budget: &Budget) -> DtdListing<'a> {
        let _span = budget.recorder().span("dtd.parse", "parse");
        let mut reader = Reader {
            s: Scanner::with_limits(src, limits, budget),
            elements: Vec::new(),
            attlists: Vec::new(),
            attributes: Vec::new(),
            first: HashMap::new(),
            owned: HashMap::new(),
            decls: Vec::new(),
            error: None,
        };
        let dtd = reader.read();
        DtdListing {
            src,
            elements: reader.elements,
            attlists: reader.attlists,
            attributes: reader.attributes,
            first: reader.first,
            dtd,
        }
    }

    /// The text the listing was read from.
    pub fn src(&self) -> &'a str {
        self.src
    }

    /// Every `<!ELEMENT …>` whose name was read, in source order.
    pub fn elements(&self) -> &[ElementEntry<'a>] {
        &self.elements
    }

    /// Every `<!ATTLIST …>` whose owner's name was read, in source order.
    pub fn attlists(&self) -> &[AttlistEntry<'a>] {
        &self.attlists
    }

    /// Every attribute name read, in source order.
    pub fn attributes(&self) -> &[AttributeEntry<'a>] {
        &self.attributes
    }

    /// The first `<!ELEMENT …>` declaring `name`.
    pub fn element(&self, name: &str) -> Option<&ElementEntry<'a>> {
        self.first.get(name).map(|&e| &self.elements[e])
    }

    /// The declared [`Dtd`], or the text's first error.
    pub fn parsed(&self) -> &Result<Dtd> {
        &self.dtd
    }

    /// [`DtdListing::parsed`], moving the DTD out.
    pub fn into_dtd(self) -> Result<Dtd> {
        self.dtd
    }
}

/// The state of one [`DtdListing::read`].
struct Reader<'a, 'b> {
    s: Scanner<'a, 'b>,
    elements: Vec<ElementEntry<'a>>,
    attlists: Vec<AttlistEntry<'a>>,
    attributes: Vec<AttributeEntry<'a>>,
    first: HashMap<&'a str, usize>,
    /// The first attribute of each (owner, name) pair.
    owned: HashMap<(&'a str, &'a str), usize>,
    /// The content model of each element declaration, in source order,
    /// while no error has come up.
    decls: Vec<(&'a str, ContentModel)>,
    /// The text's first error.
    error: Option<DtdError>,
}

impl Reader<'_, '_> {
    /// Lists every declaration, then builds the DTD if no error came up.
    fn read(&mut self) -> Result<Dtd> {
        self.s.check_input_size()?;
        loop {
            self.s.budget.checkpoint("dtd.parse.decl")?;
            if let Err(e) = self.s.skip_ws_and_comments() {
                self.fail(e);
                break;
            }
            if self.s.pos == self.s.input.len() {
                break;
            }
            match self.declaration() {
                Ok(()) => {}
                Err(e @ DtdError::Exhausted(_)) => return Err(e),
                Err(e) => {
                    self.fail(e);
                    self.s.skip_past_gt();
                }
            }
        }
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.build()
    }

    /// Keeps `e` if it is the text's first error. A parse stops at its
    /// first error, so nothing after it is metered.
    fn fail(&mut self, e: DtdError) {
        if self.error.is_none() {
            self.error = Some(e);
            self.s.budget = UNLIMITED;
        }
    }

    fn declaration(&mut self) -> Result<()> {
        self.s.expect("<!")?;
        if self.s.eat("ELEMENT") {
            self.element()
        } else if self.s.eat("ATTLIST") {
            self.attlist()
        } else {
            Err(self.s.err("expected ELEMENT or ATTLIST"))
        }
    }

    fn element(&mut self) -> Result<()> {
        self.s.skip_ws_and_comments()?;
        let offset = self.s.pos;
        let name = self.s.name()?;
        let entry = self.elements.len();
        let first = *self.first.entry(name).or_insert(entry);
        let repeats = (first != entry).then_some(first);
        self.elements.push(ElementEntry {
            name,
            offset,
            outcome: Outcome::Rejected,
            repeats,
        });
        self.s.skip_ws_and_comments()?;
        let cm = content_spec(&mut self.s);
        if self.s.pcdata.is_some() && self.s.named {
            self.elements[entry].outcome = Outcome::Mixed;
        }
        let cm = cm?;
        self.s.skip_ws_and_comments()?;
        self.s.expect(">")?;
        self.elements[entry].outcome = Outcome::Parsed;
        match repeats {
            Some(_) => self.fail(DtdError::DuplicateElement(name.to_string())),
            // A text with an error builds no DTD.
            None if self.error.is_none() => self.decls.push((name, cm)),
            None => {}
        }
        Ok(())
    }

    fn attlist(&mut self) -> Result<()> {
        self.s.skip_ws_and_comments()?;
        let offset = self.s.pos;
        let owner = self.s.name()?;
        let list = self.attlists.len();
        let start = self.attributes.len();
        self.attlists.push(AttlistEntry {
            owner,
            offset,
            attrs: start..start,
        });
        loop {
            self.s.skip_ws_and_comments()?;
            if self.s.eat(">") {
                return Ok(());
            }
            let offset = self.s.pos;
            let name = self.s.name()?;
            let entry = self.attributes.len();
            let first = *self.owned.entry((owner, name)).or_insert(entry);
            let repeats = (first != entry).then_some(first);
            self.attributes.push(AttributeEntry {
                name,
                offset,
                repeats,
            });
            self.attlists[list].attrs.end = entry + 1;
            // A repeated name is an error only once its definition parsed.
            attribute_def(&mut self.s)?;
            if repeats.is_some() {
                self.fail(DtdError::DuplicateAttribute {
                    element: owner.to_string(),
                    attribute: name.to_string(),
                });
            }
        }
    }

    /// The DTD of a text with no error: the first element is the root,
    /// and every ATTLIST owner must be declared.
    fn build(&mut self) -> Result<Dtd> {
        let Some(&(root, _)) = self.decls.first() else {
            return Err(DtdError::syntax(
                self.s.input,
                0,
                "no element declarations found",
            ));
        };
        // With no error, the declarations are the element entries.
        let mut attrs: Vec<Vec<&str>> = vec![Vec::new(); self.decls.len()];
        for list in &self.attlists {
            let Some(&e) = self.first.get(list.owner) else {
                return Err(DtdError::AttlistForUndeclared(list.owner.to_string()));
            };
            attrs[e].extend(self.attributes[list.attrs.clone()].iter().map(|a| a.name));
        }
        let mut b = Dtd::builder(root);
        for ((name, cm), attrs) in std::mem::take(&mut self.decls).into_iter().zip(attrs) {
            b = b.decl(name, cm, attrs);
        }
        b.build()
    }
}

/// Parses a sequence of `<!ELEMENT …>` and `<!ATTLIST …>` declarations into
/// a [`Dtd`]. The root is the first declared element.
///
/// Applies [`ParseLimits::default`] and no budget; use
/// [`parse_dtd_governed`] to tune either.
pub fn parse_dtd(input: &str) -> Result<Dtd> {
    parse_dtd_governed(input, ParseLimits::default(), UNLIMITED)
}

/// [`parse_dtd`] with explicit adversarial-input limits and a resource
/// [`Budget`] (checked once per declaration and once per content-model
/// atom): the DTD of [`DtdListing::read`].
pub fn parse_dtd_governed(input: &str, limits: ParseLimits, budget: &Budget) -> Result<Dtd> {
    DtdListing::read(input, limits, budget).into_dtd()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;

    /// The university DTD of Example 1.1(a), verbatim from the paper.
    const UNIVERSITY: &str = r#"
        <!ELEMENT courses (course*)>
        <!ELEMENT course (title, taken_by)>
        <!ATTLIST course
            cno CDATA #REQUIRED>
        <!ELEMENT title (#PCDATA)>
        <!ELEMENT taken_by (student*)>
        <!ELEMENT student (name, grade)>
        <!ATTLIST student
            sno CDATA #REQUIRED>
        <!ELEMENT name (#PCDATA)>
        <!ELEMENT grade (#PCDATA)>
    "#;

    /// The DBLP DTD of Example 1.2, verbatim from the paper.
    const DBLP: &str = r#"
        <!ELEMENT db (conf*)>
        <!ELEMENT conf (title, issue+)>
        <!ELEMENT title (#PCDATA)>
        <!ELEMENT issue (inproceedings+)>
        <!ELEMENT inproceedings (author+, title, booktitle)>
        <!ATTLIST inproceedings
            key ID #REQUIRED
            pages CDATA #REQUIRED
            year CDATA #REQUIRED>
        <!ELEMENT author (#PCDATA)>
        <!ELEMENT booktitle (#PCDATA)>
    "#;

    #[test]
    fn parses_university_dtd() {
        let d = parse_dtd(UNIVERSITY).unwrap();
        assert_eq!(d.root_name(), "courses");
        assert_eq!(d.num_elements(), 7);
        let course = d.elem_id("course").unwrap();
        assert_eq!(d.attrs(course).collect::<Vec<_>>(), vec!["cno"]);
        let courses = d.elem_id("courses").unwrap();
        assert_eq!(
            d.content(courses).as_regex().unwrap(),
            &Regex::elem("course").star()
        );
    }

    #[test]
    fn parses_dblp_dtd() {
        let d = parse_dtd(DBLP).unwrap();
        assert_eq!(d.root_name(), "db");
        let inproc = d.elem_id("inproceedings").unwrap();
        assert_eq!(
            d.attrs(inproc).collect::<Vec<_>>(),
            vec!["key", "pages", "year"]
        );
        let ps = d.paths().unwrap();
        assert!(ps
            .resolve_str("db.conf.issue.inproceedings.@year")
            .is_some());
    }

    #[test]
    fn parses_attribute_defaults_and_enums() {
        let d = parse_dtd(
            r#"
            <!ELEMENT r (a)>
            <!ELEMENT a EMPTY>
            <!ATTLIST a
                kind (x | y | z) "x"
                id ID #IMPLIED
                fixed CDATA #FIXED "v"
                quoted CDATA 'w'>
        "#,
        )
        .unwrap();
        let a = d.elem_id("a").unwrap();
        let attrs: Vec<_> = d.attrs(a).collect();
        assert_eq!(attrs, vec!["kind", "id", "fixed", "quoted"]);
    }

    #[test]
    fn rejects_mixed_content() {
        let err = parse_dtd("<!ELEMENT r (#PCDATA | a)*>").unwrap_err();
        assert!(matches!(err, DtdError::Syntax { .. }), "{err}");
    }

    #[test]
    fn rejects_any_content() {
        assert!(parse_dtd("<!ELEMENT r ANY>").is_err());
    }

    #[test]
    fn rejects_attlist_for_undeclared() {
        let err = parse_dtd("<!ELEMENT r EMPTY> <!ATTLIST ghost a CDATA #REQUIRED>").unwrap_err();
        assert_eq!(err, DtdError::AttlistForUndeclared("ghost".into()));
    }

    /// Several undeclared owners: the error names the first in source
    /// order, on every parse (a hash map's key order differs per map).
    #[test]
    fn undeclared_attlist_owner_is_the_first_in_source_order() {
        let src = "<!ELEMENT r EMPTY>
             <!ATTLIST ghost1 a CDATA #REQUIRED>
             <!ATTLIST r x CDATA #REQUIRED>
             <!ATTLIST ghost2 b CDATA #REQUIRED>
             <!ATTLIST ghost3 c CDATA #REQUIRED>
             <!ATTLIST ghost1 d CDATA #REQUIRED>";
        for _ in 0..50 {
            let err = parse_dtd(src).unwrap_err();
            assert_eq!(err, DtdError::AttlistForUndeclared("ghost1".into()));
        }
    }

    #[test]
    fn rejects_duplicate_elements() {
        let err =
            parse_dtd("<!ELEMENT r (a)> <!ELEMENT a EMPTY> <!ELEMENT a (#PCDATA)>").unwrap_err();
        assert_eq!(err, DtdError::DuplicateElement("a".into()));
        assert_eq!(err.to_string(), "element `a` is declared more than once");
        // The duplicate is reported where it occurs, before any later
        // undeclared ATTLIST owner.
        let err =
            parse_dtd("<!ATTLIST ghost g CDATA #REQUIRED> <!ELEMENT r EMPTY> <!ELEMENT r EMPTY>")
                .unwrap_err();
        assert_eq!(err, DtdError::DuplicateElement("r".into()));
    }

    #[test]
    fn rejects_duplicate_attributes_across_attlists() {
        // The first repeat is reported where it occurs, whichever ATTLIST
        // of the owner declared the original, and before any later
        // syntax error.
        let err = parse_dtd(
            "<!ELEMENT r EMPTY> <!ELEMENT s EMPTY>
             <!ATTLIST r x CDATA #REQUIRED y CDATA #IMPLIED>
             <!ATTLIST s x CDATA #REQUIRED>
             <!ATTLIST r z CDATA #REQUIRED y CDATA #REQUIRED x CDATA #REQUIRED bad>",
        )
        .unwrap_err();
        let want = DtdError::DuplicateAttribute {
            element: "r".into(),
            attribute: "y".into(),
        };
        assert_eq!(err, want);
        // A long attribute list takes the same error.
        let atts: String = (0..40).map(|i| format!(" a{i} CDATA #REQUIRED")).collect();
        let src = format!("<!ELEMENT r EMPTY> <!ATTLIST r{atts} a7 CDATA #REQUIRED>");
        let err = parse_dtd(&src).unwrap_err();
        let want = DtdError::DuplicateAttribute {
            element: "r".into(),
            attribute: "a7".into(),
        };
        assert_eq!(err, want);
        let dtd = parse_dtd(&format!("<!ELEMENT r EMPTY> <!ATTLIST r{atts}>")).unwrap();
        assert_eq!(dtd.attrs(dtd.root()).count(), 40);
    }

    #[test]
    fn parses_nested_groups_and_quantifiers() {
        let d = parse_dtd(
            "<!ELEMENT r ((a | b)*, c?, (d, e)+)>
             <!ELEMENT a EMPTY> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>
             <!ELEMENT d EMPTY> <!ELEMENT e EMPTY>",
        )
        .unwrap();
        let r = d.elem_id("r").unwrap();
        let re = d.content(r).as_regex().unwrap();
        assert_eq!(re.to_string(), "(a | b)*, c?, (d, e)+");
    }

    #[test]
    fn parses_ebxml_fragment() {
        // Figure 5 (abridged to the declarations whose referenced elements
        // we also declare).
        let d = parse_dtd(r#"
            <!ELEMENT ProcessSpecification (Documentation*, SubstitutionSet*,
                (Include | BusinessDocument | Package | BinaryCollaboration)*)>
            <!ELEMENT Include (Documentation*)>
            <!ELEMENT BusinessDocument (ConditionExpression?, Documentation*)>
            <!ELEMENT SubstitutionSet (DocumentSubstitution | AttributeSubstitution | Documentation)*>
            <!ELEMENT BinaryCollaboration (Documentation*, InitiatingRole, RespondingRole)>
            <!ELEMENT Package EMPTY>
            <!ELEMENT Documentation (#PCDATA)>
            <!ELEMENT ConditionExpression (#PCDATA)>
            <!ELEMENT DocumentSubstitution EMPTY>
            <!ELEMENT AttributeSubstitution EMPTY>
            <!ELEMENT InitiatingRole EMPTY>
            <!ELEMENT RespondingRole EMPTY>
        "#)
        .unwrap();
        assert_eq!(d.root_name(), "ProcessSpecification");
        assert!(!d.is_recursive());
    }

    #[test]
    fn rejects_oversized_input() {
        // Satellite regression: a 100MB synthetic "DTD" must be rejected
        // up front (O(1), before any scanning) with a spanned error.
        let mut big = String::with_capacity(100 << 20);
        big.push_str("<!ELEMENT r EMPTY>\n<!-- ");
        while big.len() < 100 << 20 {
            big.push_str("padding padding padding padding padding padding padding\n");
        }
        big.push_str(" -->\n");
        let err = parse_dtd(&big).unwrap_err();
        match err {
            DtdError::Syntax { message, .. } => {
                assert!(message.contains("over the"), "{message}")
            }
            other => panic!("expected a spanned Syntax error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let mut src = String::from("<!ELEMENT r ");
        let depth = 50_000;
        for _ in 0..depth {
            src.push('(');
        }
        src.push('a');
        for _ in 0..depth {
            src.push(')');
        }
        src.push_str("> <!ELEMENT a EMPTY>");
        let err = parse_dtd(&src).unwrap_err();
        match err {
            DtdError::Syntax { message, .. } => {
                assert!(message.contains("nested deeper"), "{message}")
            }
            other => panic!("expected a spanned Syntax error, got {other:?}"),
        }
        // A custom limit admits what the default rejects.
        let shallow = "<!ELEMENT r (((a)))> <!ELEMENT a EMPTY>";
        let tight = ParseLimits {
            max_depth: 2,
            ..ParseLimits::default()
        };
        assert!(parse_dtd(shallow).is_ok());
        assert!(parse_dtd_governed(shallow, tight, UNLIMITED).is_err());
    }

    #[test]
    fn untrusted_limits_cap_input_size() {
        // One declaration padded past 1 MiB with comment bytes: fine for
        // a local file, rejected for network input.
        let mut src = String::from("<!ELEMENT r EMPTY>");
        src.push_str("<!-- ");
        src.push_str(&"x".repeat(ParseLimits::untrusted().max_input));
        src.push_str(" -->");
        assert!(parse_dtd(&src).is_ok());
        let err = parse_dtd_governed(&src, ParseLimits::untrusted(), UNLIMITED).unwrap_err();
        match err {
            DtdError::Syntax { message, .. } => {
                assert!(message.contains("byte limit"), "{message}")
            }
            other => panic!("expected a spanned Syntax error, got {other:?}"),
        }
    }

    #[test]
    fn untrusted_limits_cap_nesting_depth() {
        let depth = ParseLimits::untrusted().max_depth + 1;
        let mut src = String::from("<!ELEMENT r ");
        for _ in 0..depth {
            src.push('(');
        }
        src.push('a');
        for _ in 0..depth {
            src.push(')');
        }
        src.push_str("> <!ELEMENT a EMPTY>");
        assert!(
            parse_dtd(&src).is_ok(),
            "default limits admit depth {depth}"
        );
        let err = parse_dtd_governed(&src, ParseLimits::untrusted(), UNLIMITED).unwrap_err();
        match err {
            DtdError::Syntax { message, .. } => {
                assert!(message.contains("nested deeper"), "{message}")
            }
            other => panic!("expected a spanned Syntax error, got {other:?}"),
        }
    }

    #[test]
    fn governed_parse_surfaces_exhaustion() {
        let src = "<!ELEMENT r (a, b)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>";
        let budget = Budget::builder().fuel(2).build();
        let err = parse_dtd_governed(src, ParseLimits::default(), &budget).unwrap_err();
        assert!(matches!(err, DtdError::Exhausted(_)), "{err:?}");
        // The same call under no budget parses fine.
        assert!(parse_dtd(src).is_ok());
    }

    #[test]
    fn comments_are_skipped() {
        let d = parse_dtd("<!-- header --> <!ELEMENT r EMPTY> <!-- trailing -->").unwrap();
        assert_eq!(d.root_name(), "r");
    }

    #[test]
    fn text_element_with_attributes() {
        let d =
            parse_dtd("<!ELEMENT r (t)> <!ELEMENT t (#PCDATA)> <!ATTLIST t lang CDATA #REQUIRED>")
                .unwrap();
        let t = d.elem_id("t").unwrap();
        assert!(d.content(t).is_text());
        assert!(d.has_attr(t, "lang"));
    }

    fn listing(src: &str) -> DtdListing<'_> {
        DtdListing::read(src, ParseLimits::default(), UNLIMITED)
    }

    #[test]
    fn scans_elements_and_attlists_with_spans() {
        let src =
            "<!ELEMENT r (a)>\n<!ELEMENT a EMPTY>\n<!ATTLIST a x CDATA #REQUIRED y ID #IMPLIED>";
        let idx = listing(src);
        let elements = idx.elements();
        assert_eq!(elements.len(), 2);
        assert_eq!(elements[0].name, "r");
        assert_eq!(&src[elements[0].offset..][..1], "r");
        assert_eq!(elements[1].name, "a");
        assert_eq!(idx.attlists().len(), 1);
        assert_eq!(idx.attlists()[0].owner, "a");
        let attrs: Vec<&str> = idx.attributes()[idx.attlists()[0].attrs.clone()]
            .iter()
            .map(|a| a.name)
            .collect();
        assert_eq!(attrs, ["x", "y"]);
        let y = &idx.attributes()[1];
        assert_eq!(&src[y.offset..][..1], "y");
    }

    #[test]
    fn scanner_survives_comments_enums_and_defaults() {
        let src = r#"<!-- <!ELEMENT fake (x)> -->
            <!ELEMENT r (a)>
            <!ELEMENT a EMPTY>
            <!ATTLIST a kind (x | y) "x" fixed CDATA #FIXED 'v'>"#;
        let idx = listing(src);
        assert_eq!(idx.elements().len(), 2, "commented declaration skipped");
        let attrs: Vec<&str> = idx.attributes()[idx.attlists()[0].attrs.clone()]
            .iter()
            .map(|a| a.name)
            .collect();
        assert_eq!(attrs, ["kind", "fixed"]);
    }

    #[test]
    fn scanner_gives_up_quietly_on_garbage() {
        let idx = listing("<!ELEMENT r (a>< junk <!ATTLIST ???>");
        assert_eq!(idx.elements().len(), 1);
        assert!(idx.attlists().is_empty() || idx.attlists()[0].attrs.is_empty());
    }

    #[test]
    fn duplicate_declarations_are_all_recorded() {
        let src = "<!ELEMENT a EMPTY> <!ELEMENT a (b)> <!ELEMENT b EMPTY>";
        let idx = listing(src);
        let names: Vec<&str> = idx.elements().iter().map(|e| e.name).collect();
        assert_eq!(names, ["a", "a", "b"]);
    }

    #[test]
    fn lookups_find_the_first_declaration_by_name() {
        let src = "<!ELEMENT b EMPTY> <!ELEMENT a EMPTY> <!ELEMENT b (a)>
                   <!ATTLIST b y CDATA #REQUIRED x CDATA #REQUIRED>
                   <!ATTLIST a x CDATA #REQUIRED>
                   <!ATTLIST b x CDATA #REQUIRED>";
        let idx = listing(src);
        assert_eq!(idx.element("b").map(|e| e.offset), Some(10));
        assert_eq!(idx.element("a").map(|e| e.offset), Some(29));
        assert!(idx.element("c").is_none() && idx.element("").is_none());
    }

    /// Repeats link back to the first declaration of their name, and the
    /// reading goes on past the first error, which the DTD keeps.
    #[test]
    fn repeats_link_to_the_first_declaration_past_the_first_error() {
        let src = "<!ELEMENT r (a)> <!ELEMENT a (x y)> <!ELEMENT a EMPTY>
                   <!ATTLIST a k CDATA #REQUIRED k CDATA> <!ATTLIST a k ID #IMPLIED>";
        let idx = listing(src);
        let repeats: Vec<Option<usize>> = idx.elements().iter().map(|e| e.repeats).collect();
        assert_eq!(repeats, [None, None, Some(1)]);
        let outcomes: Vec<Outcome> = idx.elements().iter().map(|e| e.outcome).collect();
        assert_eq!(
            outcomes,
            [Outcome::Parsed, Outcome::Rejected, Outcome::Parsed]
        );
        let repeats: Vec<Option<usize>> = idx.attributes().iter().map(|a| a.repeats).collect();
        assert_eq!(repeats, [None, Some(0), Some(0)]);
        let Err(DtdError::Syntax { message, .. }) = idx.parsed() else {
            panic!("the first error is the syntax error: {:?}", idx.parsed());
        };
        assert_eq!(message, "expected `)`");
    }

    /// The mixed mark: `#PCDATA` rejected beside an element name, in
    /// either position; a model rejected for `#PCDATA` alone is not
    /// mixed, and a comment inside `(#PCDATA)` is no element name.
    #[test]
    fn mixed_marks_pcdata_beside_element_names() {
        for (model, outcome) in [
            ("(#PCDATA | em)*", Outcome::Mixed),
            ("(em | #PCDATA)*", Outcome::Mixed),
            ("((#PCDATA))", Outcome::Rejected),
            ("(#PCDATA", Outcome::Rejected),
            ("(#PCDATA <!-- note -->)", Outcome::Parsed),
        ] {
            let src = format!("<!ELEMENT r (t)> <!ELEMENT t {model}>");
            let idx = listing(&src);
            assert_eq!(idx.elements()[1].outcome, outcome, "{model}");
        }
    }

    #[test]
    fn display_parse_fixpoint() {
        for src in [UNIVERSITY, DBLP] {
            let d = parse_dtd(src).unwrap();
            let once = d.to_string();
            let d2 = parse_dtd(&once).unwrap();
            assert_eq!(d, d2);
            assert_eq!(once, d2.to_string());
        }
    }
}

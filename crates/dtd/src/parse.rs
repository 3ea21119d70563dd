//! Parser for DTD declaration syntax (`<!ELEMENT …>` / `<!ATTLIST …>`).
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

use crate::dtd::{ContentModel, Dtd};
use crate::regex::Regex;
use crate::{DtdError, Result};
use std::collections::{HashMap, HashSet};
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

struct Scanner<'a> {
    input: &'a [u8],
    pos: usize,
    limits: ParseLimits,
    /// Current content-model nesting depth (checked against
    /// `limits.max_depth`).
    depth: usize,
    budget: &'a Budget,
}

use crate::UNLIMITED;

impl<'a> Scanner<'a> {
    fn new(input: &'a str) -> Self {
        Scanner::with_limits(input, ParseLimits::default(), UNLIMITED)
    }

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
            return Err(
                s.err("mixed content (#PCDATA | …) is not supported (Definition 2 disallows it)")
            );
        }
        s.pos = save;
    }
    let re = s.regex_alt()?;
    Ok(ContentModel::Regex(re))
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
                        _ => return Err(s.err("expected attribute default declaration")),
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

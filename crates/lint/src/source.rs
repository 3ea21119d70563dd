//! A lenient, span-preserving scanner over raw DTD text.
//!
//! [`xnf_dtd::parse_dtd`] validates eagerly and stops at the first problem,
//! and its [`xnf_dtd::Dtd`] output no longer knows where in the text each
//! declaration lived. The lint pass wants the opposite: *all* declarations
//! with their source spans, even (especially) for specs the strict parser
//! rejects. [`DeclIndex::scan`] provides that: a best-effort sweep that
//! records the name span of every `<!ELEMENT …>` and every attribute of
//! every `<!ATTLIST …>`, skipping comments, and silently giving up on any
//! declaration it cannot follow (the strict parser owns syntax errors).
//!
//! The FD-set text has no scanner here: `xnf_core::fd::FdListing`, the
//! one reader of its syntax, already gives every FD its span.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_elements_and_attlists_with_spans() {
        let src =
            "<!ELEMENT r (a)>\n<!ELEMENT a EMPTY>\n<!ATTLIST a x CDATA #REQUIRED y ID #IMPLIED>";
        let idx = DeclIndex::scan(src);
        assert_eq!(idx.elements.len(), 2);
        assert_eq!(idx.elements[0].name, "r");
        assert_eq!(&src[idx.elements[0].offset..][..1], "r");
        assert_eq!(idx.elements[1].name, "a");
        assert_eq!(idx.attlists.len(), 1);
        assert_eq!(idx.attlists[0].element.name, "a");
        let attrs: Vec<&str> = idx.attlists[0]
            .attrs
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(attrs, ["x", "y"]);
        let y = &idx.attlists[0].attrs[1];
        assert_eq!(&src[y.offset..][..1], "y");
    }

    #[test]
    fn scanner_survives_comments_enums_and_defaults() {
        let src = r#"<!-- <!ELEMENT fake (x)> -->
            <!ELEMENT r (a)>
            <!ELEMENT a EMPTY>
            <!ATTLIST a kind (x | y) "x" fixed CDATA #FIXED 'v'>"#;
        let idx = DeclIndex::scan(src);
        assert_eq!(idx.elements.len(), 2, "commented declaration skipped");
        let attrs: Vec<&str> = idx.attlists[0]
            .attrs
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(attrs, ["kind", "fixed"]);
    }

    #[test]
    fn scanner_gives_up_quietly_on_garbage() {
        let idx = DeclIndex::scan("<!ELEMENT r (a>< junk <!ATTLIST ???>");
        assert_eq!(idx.elements.len(), 1);
        assert!(idx.attlists.is_empty() || idx.attlists[0].attrs.is_empty());
    }

    #[test]
    fn duplicate_declarations_are_all_recorded() {
        let src = "<!ELEMENT a EMPTY> <!ELEMENT a (b)> <!ELEMENT b EMPTY>";
        let idx = DeclIndex::scan(src);
        let names: Vec<&str> = idx.elements.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a", "a", "b"]);
    }

    #[test]
    fn lookups_find_the_first_declaration_by_name() {
        let src = "<!ELEMENT b EMPTY> <!ELEMENT a EMPTY> <!ELEMENT b (a)>
                   <!ATTLIST b y CDATA #REQUIRED x CDATA #REQUIRED>
                   <!ATTLIST a x CDATA #REQUIRED>
                   <!ATTLIST b x CDATA #REQUIRED>";
        let idx = DeclIndex::scan(src);
        assert_eq!(idx.element("b").map(|e| e.offset), Some(10));
        assert_eq!(idx.element("a").map(|e| e.offset), Some(29));
        assert!(idx.element("c").is_none() && idx.element("").is_none());
    }
}

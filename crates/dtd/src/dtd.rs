//! The DTD model — Definition 1: `D = (E, A, P, R, r)`.
//!
//! `E` is the set of declared element types, `A` the set of attribute names,
//! `P` maps each element type to its content model (either `S` = #PCDATA or
//! a regular expression over `E`), `R` maps each element type to its set of
//! attributes, and `r ∈ E` is the root element type, which (w.l.o.g. in the
//! paper, enforced here) does not occur in any content model.
//!
//! Element types are interned as dense [`ElemId`]s; the struct also exposes
//! the small mutation API (declare element, move attribute, replace content
//! model) that the XNF decomposition algorithm of Section 6 is built on.

use crate::paths::PathSet;
use crate::regex::Regex;
use crate::{DtdError, Result};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Identifier of a declared element type within one [`Dtd`].
///
/// Ids are dense indices in declaration order; they are *not* stable across
/// DTD edits that remove elements (the current API never removes elements,
/// matching the paper's transformations, which only add).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElemId(pub(crate) u32);

impl ElemId {
    /// The dense index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The content model `P(τ)` of an element type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentModel {
    /// `S`, i.e. `#PCDATA`: the element contains exactly one string child.
    Text,
    /// A regular expression over element names. [`Regex::Epsilon`]
    /// corresponds to the DTD keyword `EMPTY`.
    Regex(Regex),
}

impl ContentModel {
    /// The regular expression, if this is a regex content model.
    pub fn as_regex(&self) -> Option<&Regex> {
        match self {
            ContentModel::Text => None,
            ContentModel::Regex(r) => Some(r),
        }
    }

    /// Whether this is the `#PCDATA` content model.
    pub fn is_text(&self) -> bool {
        matches!(self, ContentModel::Text)
    }

    /// Whether this is `EMPTY`.
    pub fn is_empty(&self) -> bool {
        matches!(self, ContentModel::Regex(Regex::Epsilon))
    }
}

/// One `<!ELEMENT …>` declaration together with its `<!ATTLIST …>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementDecl {
    name: Box<str>,
    content: ContentModel,
    /// Attribute names, stored without the leading `@`, in declaration
    /// order. Insertion order is *structural*: it survives element and
    /// attribute renames unchanged, so every ordering derived from it
    /// (path enumeration, tie-breaking in the normalizer) is
    /// rename-equivariant. A sorted set here would leak lexicographic
    /// name order into `paths(D)` and break that property.
    attrs: Vec<Box<str>>,
}

impl ElementDecl {
    /// The element type name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The content model `P(τ)`.
    pub fn content(&self) -> &ContentModel {
        &self.content
    }

    /// The attribute set `R(τ)` (names without the leading `@`), in
    /// declaration order.
    pub fn attrs(&self) -> impl Iterator<Item = &str> {
        self.attrs.iter().map(|a| &**a)
    }

    /// Whether attribute `@att` is defined for this element.
    pub fn has_attr(&self, att: &str) -> bool {
        self.attrs.iter().any(|a| &**a == att)
    }
}

/// A DTD `D = (E, A, P, R, r)` (Definition 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dtd {
    elems: Vec<ElementDecl>,
    by_name: HashMap<Box<str>, ElemId>,
    root: ElemId,
}

impl Dtd {
    /// Starts building a DTD with the given root element type name.
    pub fn builder(root: impl Into<String>) -> DtdBuilder {
        DtdBuilder {
            root: root.into(),
            decls: Vec::new(),
        }
    }

    /// The root element type `r`.
    pub fn root(&self) -> ElemId {
        self.root
    }

    /// The root element type name.
    pub fn root_name(&self) -> &str {
        self.name(self.root)
    }

    /// Number of declared element types `|E|`.
    pub fn num_elements(&self) -> usize {
        self.elems.len()
    }

    /// Iterates over all element ids in declaration order.
    pub fn elements(&self) -> impl Iterator<Item = ElemId> {
        (0..self.elems.len() as u32).map(ElemId)
    }

    /// Resolves an element type name to its id.
    pub fn elem_id(&self, name: &str) -> Option<ElemId> {
        self.by_name.get(name).copied()
    }

    /// The declaration of `id`.
    pub fn decl(&self, id: ElemId) -> &ElementDecl {
        &self.elems[id.index()]
    }

    /// The name of element type `id`.
    pub fn name(&self, id: ElemId) -> &str {
        &self.elems[id.index()].name
    }

    /// The content model `P(id)`.
    pub fn content(&self, id: ElemId) -> &ContentModel {
        &self.elems[id.index()].content
    }

    /// The attribute set `R(id)`, in declaration order, without leading `@`.
    pub fn attrs(&self, id: ElemId) -> impl Iterator<Item = &str> {
        self.elems[id.index()].attrs()
    }

    /// Whether `@att` is defined for element `id`.
    pub fn has_attr(&self, id: ElemId, att: &str) -> bool {
        self.elems[id.index()].has_attr(att)
    }

    /// The element types whose names occur in the content model of `id`
    /// (its possible children), in first-occurrence order.
    pub fn children(&self, id: ElemId) -> Vec<ElemId> {
        match self.content(id) {
            ContentModel::Text => Vec::new(),
            ContentModel::Regex(re) => re.alphabet().iter().map(|n| self.by_name[*n]).collect(),
        }
    }

    /// Whether the DTD is recursive, i.e. whether `paths(D)` is infinite
    /// (Section 2). Detected as a cycle in the element reference graph
    /// reachable from the root.
    pub fn is_recursive(&self) -> bool {
        self.find_cycle_witness().is_some()
    }

    /// Returns an element type on a reference cycle reachable from the
    /// root, if any.
    pub fn find_cycle_witness(&self) -> Option<ElemId> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks = vec![Mark::White; self.elems.len()];
        // Iterative DFS with an explicit stack of (node, child cursor).
        let mut stack: Vec<(ElemId, Vec<ElemId>, usize)> = Vec::new();
        marks[self.root.index()] = Mark::Grey;
        stack.push((self.root, self.children(self.root), 0));
        while let Some((node, kids, cursor)) = stack.last_mut() {
            if *cursor == kids.len() {
                marks[node.index()] = Mark::Black;
                stack.pop();
                continue;
            }
            let kid = kids[*cursor];
            *cursor += 1;
            match marks[kid.index()] {
                Mark::Grey => return Some(kid),
                Mark::Black => {}
                Mark::White => {
                    marks[kid.index()] = Mark::Grey;
                    let kid_children = self.children(kid);
                    stack.push((kid, kid_children, 0));
                }
            }
        }
        None
    }

    /// Computes `paths(D)` (Section 2). Fails with
    /// [`DtdError::RecursiveDtd`] if the DTD is recursive; use
    /// [`Dtd::paths_bounded`] in that case.
    pub fn paths(&self) -> Result<PathSet> {
        if let Some(w) = self.find_cycle_witness() {
            return Err(DtdError::RecursiveDtd {
                witness: self.name(w).to_string(),
            });
        }
        Ok(PathSet::enumerate(self, usize::MAX))
    }

    /// Computes the finite subset of `paths(D)` of length at most
    /// `max_len` steps. Suitable for recursive DTDs.
    pub fn paths_bounded(&self, max_len: usize) -> PathSet {
        PathSet::enumerate(self, max_len)
    }

    /// A size measure `|D|`: total AST nodes over all content models plus
    /// the number of element and attribute declarations. Used as the x-axis
    /// in the Theorem 3/4 scaling experiments.
    pub fn size(&self) -> usize {
        self.elems
            .iter()
            .map(|d| {
                1 + d.attrs.len()
                    + match &d.content {
                        ContentModel::Text => 1,
                        ContentModel::Regex(r) => r.size(),
                    }
            })
            .sum()
    }

    // ------------------------------------------------------------------
    // Mutation API used by the XNF decomposition algorithm (Section 6).
    // ------------------------------------------------------------------

    /// Declares a fresh element type. Fails if the name is already taken or
    /// if the content model references undeclared elements or the root.
    pub fn declare_element(
        &mut self,
        name: &str,
        content: ContentModel,
        attrs: impl IntoIterator<Item = String>,
    ) -> Result<ElemId> {
        if self.by_name.contains_key(name) {
            return Err(DtdError::DuplicateElement(name.to_string()));
        }
        // Note: the content model may reference elements declared *later*
        // during a multi-element edit; the normalizer declares leaves first,
        // so we check eagerly (all references must already exist, except a
        // self-reference, which would make the DTD recursive and is allowed
        // by Definition 1).
        if let ContentModel::Regex(re) = &content {
            for n in re.alphabet() {
                if n != name && !self.by_name.contains_key(n) {
                    return Err(DtdError::UndeclaredElement {
                        name: n.to_string(),
                        referenced_by: name.to_string(),
                    });
                }
                if n == self.root_name() {
                    return Err(DtdError::RootReferenced {
                        referenced_by: name.to_string(),
                    });
                }
            }
        }
        let list: Vec<Box<str>> = attrs.into_iter().map(String::into_boxed_str).collect();
        if let Some(a) = first_repeat(&list) {
            return Err(DtdError::DuplicateAttribute {
                element: name.to_string(),
                attribute: a.to_string(),
            });
        }
        let id = ElemId(self.elems.len() as u32);
        self.elems.push(ElementDecl {
            name: name.into(),
            content,
            attrs: list,
        });
        self.by_name.insert(name.into(), id);
        Ok(id)
    }

    /// Replaces the content model of `id`. All referenced element names
    /// must be declared and must not include the root.
    pub fn set_content(&mut self, id: ElemId, content: ContentModel) -> Result<()> {
        if let ContentModel::Regex(re) = &content {
            for n in re.alphabet() {
                if !self.by_name.contains_key(n) {
                    return Err(DtdError::UndeclaredElement {
                        name: n.to_string(),
                        referenced_by: self.name(id).to_string(),
                    });
                }
                if n == self.root_name() {
                    return Err(DtdError::RootReferenced {
                        referenced_by: self.name(id).to_string(),
                    });
                }
            }
        }
        self.elems[id.index()].content = content;
        Ok(())
    }

    /// Adds attribute `@att` to element `id` (the `R'(last(q)) =
    /// R(last(q)) ∪ {@m}` half of the *moving attributes* transformation).
    /// The attribute is appended after the existing ones, giving it a
    /// structural position independent of its name.
    pub fn add_attribute(&mut self, id: ElemId, att: &str) -> Result<()> {
        if self.has_attr(id, att) {
            return Err(DtdError::DuplicateAttribute {
                element: self.name(id).to_string(),
                attribute: att.to_string(),
            });
        }
        self.elems[id.index()].attrs.push(att.into());
        Ok(())
    }

    /// Removes attribute `@att` from element `id` (the `R'(last(p)) =
    /// R(last(p)) \ {@l}` half of both Section 6 transformations). Returns
    /// whether the attribute was present. The relative order of the
    /// remaining attributes is preserved.
    pub fn remove_attribute(&mut self, id: ElemId, att: &str) -> bool {
        let attrs = &mut self.elems[id.index()].attrs;
        match attrs.iter().position(|a| &**a == att) {
            Some(i) => {
                attrs.remove(i);
                true
            }
            None => false,
        }
    }

    /// Renames element type `old` to `new` everywhere (declaration and
    /// every content model). Fails if `old` is undeclared or `new` is
    /// taken. Intended for presentation (e.g. matching a published
    /// figure's names); FD paths must be renamed alongside — see
    /// `xnf_core::normalize::rename_element`.
    pub fn rename_element(&mut self, old: &str, new: &str) -> Result<()> {
        let id = self
            .elem_id(old)
            .ok_or_else(|| DtdError::UndeclaredElement {
                name: old.to_string(),
                referenced_by: "<rename>".to_string(),
            })?;
        if self.by_name.contains_key(new) {
            return Err(DtdError::DuplicateElement(new.to_string()));
        }
        self.by_name.remove(old);
        self.by_name.insert(new.into(), id);
        self.elems[id.index()].name = new.into();
        for decl in &mut self.elems {
            if let ContentModel::Regex(re) = &decl.content {
                if re.mentions(old) {
                    decl.content = ContentModel::Regex(re.rename(old, new));
                }
            }
        }
        Ok(())
    }

    /// Picks an element type name not currently declared, derived from
    /// `stem` (`stem`, `stem2`, `stem3`, …).
    pub fn fresh_element_name(&self, stem: &str) -> String {
        if !self.by_name.contains_key(stem) {
            return stem.to_string();
        }
        for i in 2.. {
            let candidate = format!("{stem}{i}");
            if !self.by_name.contains_key(candidate.as_str()) {
                return candidate;
            }
        }
        unreachable!("u64 counter exhausted")
    }

    /// Picks an attribute name not defined for element `id`, derived from
    /// `stem`.
    pub fn fresh_attr_name(&self, id: ElemId, stem: &str) -> String {
        if !self.has_attr(id, stem) {
            return stem.to_string();
        }
        for i in 2.. {
            let candidate = format!("{stem}{i}");
            if !self.has_attr(id, &candidate) {
                return candidate;
            }
        }
        unreachable!("u64 counter exhausted")
    }
}

impl fmt::Display for Dtd {
    /// Serializes back to DTD declaration syntax. The output re-parses to
    /// an equal DTD via [`crate::parse_dtd`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for decl in &self.elems {
            match &decl.content {
                ContentModel::Text => writeln!(f, "<!ELEMENT {} (#PCDATA)>", decl.name)?,
                ContentModel::Regex(Regex::Epsilon) => {
                    writeln!(f, "<!ELEMENT {} EMPTY>", decl.name)?
                }
                ContentModel::Regex(re) => {
                    // Top level must be parenthesized in DTD syntax.
                    let body = re.to_string();
                    if body.starts_with('(') && body.ends_with(')') && balanced_outer(&body) {
                        writeln!(f, "<!ELEMENT {} {}>", decl.name, body)?
                    } else {
                        writeln!(f, "<!ELEMENT {} ({})>", decl.name, body)?
                    }
                }
            }
            if !decl.attrs.is_empty() {
                writeln!(f, "<!ATTLIST {}", decl.name)?;
                for (i, a) in decl.attrs.iter().enumerate() {
                    let sep = if i + 1 == decl.attrs.len() { ">" } else { "" };
                    writeln!(f, "    {a} CDATA #REQUIRED{sep}")?;
                }
            }
        }
        Ok(())
    }
}

/// Whether the outermost `(`…`)` pair of `s` wraps the entire string.
fn balanced_outer(s: &str) -> bool {
    let mut depth = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return i == s.len() - 1;
                }
            }
            _ => {}
        }
    }
    false
}

/// Builder for [`Dtd`]: collect declarations in any order, then validate.
#[derive(Debug, Clone)]
pub struct DtdBuilder {
    root: String,
    decls: Vec<(String, ContentModel, Vec<String>)>,
}

impl DtdBuilder {
    /// Declares an element with a regex content model and no attributes.
    pub fn elem(self, name: impl Into<String>, content: Regex) -> Self {
        self.elem_attrs(name, content, Vec::<String>::new())
    }

    /// Declares an element with a regex content model and attributes.
    pub fn elem_attrs(
        mut self,
        name: impl Into<String>,
        content: Regex,
        attrs: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        self.decls.push((
            name.into(),
            ContentModel::Regex(content),
            attrs.into_iter().map(Into::into).collect(),
        ));
        self
    }

    /// Declares a `#PCDATA` element.
    pub fn text_elem(mut self, name: impl Into<String>) -> Self {
        self.decls
            .push((name.into(), ContentModel::Text, Vec::new()));
        self
    }

    /// Declares an `EMPTY` element with attributes (the common leaf shape
    /// in the paper's codings, e.g. `<!ELEMENT G EMPTY>` in Example 5.3).
    pub fn empty_elem(
        mut self,
        name: impl Into<String>,
        attrs: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        self.decls.push((
            name.into(),
            ContentModel::Regex(Regex::Epsilon),
            attrs.into_iter().map(Into::into).collect(),
        ));
        self
    }

    /// Declares an element with an explicit [`ContentModel`] and attribute
    /// names — the fully general form the other helpers delegate to.
    pub fn decl(
        mut self,
        name: impl Into<String>,
        content: ContentModel,
        attrs: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        self.decls.push((
            name.into(),
            content,
            attrs.into_iter().map(Into::into).collect(),
        ));
        self
    }

    /// Validates and produces the [`Dtd`].
    ///
    /// Checks: no duplicate element or attribute declarations, every
    /// referenced element is declared, the root is declared, and the root
    /// is not referenced by any content model (Definition 1).
    pub fn build(self) -> Result<Dtd> {
        let DtdBuilder { root, decls } = self;
        let mut by_name: HashMap<Box<str>, ElemId> = HashMap::new();
        let mut elems: Vec<ElementDecl> = Vec::new();
        for (name, content, attrs) in decls {
            if by_name.contains_key(name.as_str()) {
                return Err(DtdError::DuplicateElement(name));
            }
            if let Some(a) = first_repeat(&attrs) {
                return Err(DtdError::DuplicateAttribute {
                    attribute: a.to_string(),
                    element: name,
                });
            }
            let name = name.into_boxed_str();
            by_name.insert(name.clone(), ElemId(elems.len() as u32));
            elems.push(ElementDecl {
                name,
                content,
                attrs: attrs.into_iter().map(String::into_boxed_str).collect(),
            });
        }
        let root_id = *by_name
            .get(root.as_str())
            .ok_or_else(|| DtdError::UndeclaredElement {
                name: root.clone(),
                referenced_by: "<root declaration>".to_string(),
            })?;
        for decl in &elems {
            if let ContentModel::Regex(re) = &decl.content {
                for n in re.alphabet() {
                    if !by_name.contains_key(n) {
                        return Err(DtdError::UndeclaredElement {
                            name: n.to_string(),
                            referenced_by: decl.name.to_string(),
                        });
                    }
                    if n == root {
                        return Err(DtdError::RootReferenced {
                            referenced_by: decl.name.to_string(),
                        });
                    }
                }
            }
        }
        Ok(Dtd {
            elems,
            by_name,
            root: root_id,
        })
    }
}

/// The first of `names` that repeats an earlier one, in one pass through
/// a seen-set.
fn first_repeat<S: AsRef<str>>(names: &[S]) -> Option<&str> {
    let mut seen = HashSet::with_capacity(names.len());
    names.iter().map(AsRef::as_ref).find(|n| !seen.insert(*n))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The university DTD of Example 1.1(a).
    pub(crate) fn university() -> Dtd {
        Dtd::builder("courses")
            .elem("courses", Regex::elem("course").star())
            .elem_attrs(
                "course",
                Regex::seq([Regex::elem("title"), Regex::elem("taken_by")]),
                ["cno"],
            )
            .text_elem("title")
            .elem("taken_by", Regex::elem("student").star())
            .elem_attrs(
                "student",
                Regex::seq([Regex::elem("name"), Regex::elem("grade")]),
                ["sno"],
            )
            .text_elem("name")
            .text_elem("grade")
            .build()
            .expect("university DTD is well-formed")
    }

    #[test]
    fn first_repeat_names_the_first_repeated_name() {
        assert_eq!(first_repeat::<&str>(&[]), None);
        assert_eq!(first_repeat(&["a", "b", "c"]), None);
        assert_eq!(first_repeat(&["a", "b", "b", "a"]), Some("b"));
        assert_eq!(first_repeat(&["a", "b", "c", "a", "b"]), Some("a"));
        let mut long: Vec<String> = (0..40).map(|i| format!("n{i}")).collect();
        assert_eq!(first_repeat(&long), None);
        long.extend(["n30".into(), "n3".into()]);
        assert_eq!(first_repeat(&long), Some("n30"));
    }

    #[test]
    fn builder_rejects_duplicate_attributes() {
        let atts = ["x", "y", "x"];
        let err = Dtd::builder("r")
            .elem_attrs("r", Regex::Epsilon, atts)
            .build()
            .unwrap_err();
        let want = DtdError::DuplicateAttribute {
            element: "r".into(),
            attribute: "x".into(),
        };
        assert_eq!(err, want);
        let mut dtd = Dtd::builder("r").elem("r", Regex::Epsilon).build().unwrap();
        let err = dtd
            .declare_element("s", ContentModel::Text, ["y".into(), "y".into()])
            .unwrap_err();
        assert!(matches!(err, DtdError::DuplicateAttribute { .. }), "{err}");
    }

    #[test]
    fn build_university_dtd() {
        let d = university();
        assert_eq!(d.root_name(), "courses");
        assert_eq!(d.num_elements(), 7);
        let course = d.elem_id("course").unwrap();
        assert!(d.has_attr(course, "cno"));
        assert!(!d.has_attr(course, "sno"));
        assert!(!d.is_recursive());
    }

    #[test]
    fn duplicate_element_rejected() {
        let err = Dtd::builder("r")
            .elem("r", Regex::elem("a"))
            .text_elem("a")
            .text_elem("a")
            .build()
            .unwrap_err();
        assert_eq!(err, DtdError::DuplicateElement("a".into()));
    }

    #[test]
    fn undeclared_reference_rejected() {
        let err = Dtd::builder("r")
            .elem("r", Regex::elem("ghost"))
            .build()
            .unwrap_err();
        assert!(matches!(err, DtdError::UndeclaredElement { name, .. } if name == "ghost"));
    }

    #[test]
    fn root_reference_rejected() {
        let err = Dtd::builder("r")
            .elem("r", Regex::elem("a"))
            .elem("a", Regex::elem("r").opt())
            .build()
            .unwrap_err();
        assert!(matches!(err, DtdError::RootReferenced { .. }));
    }

    #[test]
    fn recursion_detected() {
        let d = Dtd::builder("r")
            .elem("r", Regex::elem("part"))
            .elem("part", Regex::elem("part").star())
            .build()
            .unwrap();
        assert!(d.is_recursive());
        assert!(matches!(d.paths(), Err(DtdError::RecursiveDtd { .. })));
    }

    #[test]
    fn self_loop_unreachable_from_root_is_not_recursion() {
        // A cycle among elements not reachable from the root keeps
        // paths(D) finite.
        let d = Dtd::builder("r")
            .elem("r", Regex::elem("a"))
            .text_elem("a")
            .elem("orphan", Regex::elem("orphan").star())
            .build()
            .unwrap();
        assert!(!d.is_recursive());
    }

    #[test]
    fn mutation_move_attribute_shape() {
        // Emulate the DBLP fix: move @year from inproceedings to issue.
        let mut d = Dtd::builder("db")
            .elem("db", Regex::elem("conf").star())
            .elem(
                "conf",
                Regex::seq([Regex::elem("title"), Regex::elem("issue").plus()]),
            )
            .text_elem("title")
            .elem("issue", Regex::elem("inproceedings").plus())
            .elem_attrs(
                "inproceedings",
                Regex::elem("author").plus(),
                ["key", "pages", "year"],
            )
            .text_elem("author")
            .build()
            .unwrap();
        let issue = d.elem_id("issue").unwrap();
        let inproc = d.elem_id("inproceedings").unwrap();
        assert!(d.remove_attribute(inproc, "year"));
        d.add_attribute(issue, "year").unwrap();
        assert!(d.has_attr(issue, "year"));
        assert!(!d.has_attr(inproc, "year"));
    }

    #[test]
    fn fresh_names_avoid_collisions() {
        let d = university();
        assert_eq!(d.fresh_element_name("info"), "info");
        assert_eq!(d.fresh_element_name("course"), "course2");
        let student = d.elem_id("student").unwrap();
        assert_eq!(d.fresh_attr_name(student, "sno"), "sno2");
        assert_eq!(d.fresh_attr_name(student, "x"), "x");
    }

    #[test]
    fn rename_element_updates_declaration_and_references() {
        let mut d = university();
        d.rename_element("student", "pupil").unwrap();
        assert!(d.elem_id("student").is_none());
        let pupil = d.elem_id("pupil").unwrap();
        assert!(d.has_attr(pupil, "sno"));
        // The referencing content model followed the rename.
        let taken_by = d.elem_id("taken_by").unwrap();
        assert_eq!(
            d.content(taken_by).as_regex().unwrap().to_string(),
            "pupil*"
        );
        // Errors: unknown source, taken destination.
        assert!(d.rename_element("ghost", "x").is_err());
        assert!(d.rename_element("pupil", "course").is_err());
        // The renamed DTD still validates and round-trips.
        let reparsed = crate::parse_dtd(&d.to_string()).unwrap();
        assert_eq!(d, reparsed);
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let d = university();
        let text = d.to_string();
        let reparsed = crate::parse_dtd(&text).expect("serialized DTD parses");
        assert_eq!(d, reparsed);
    }

    #[test]
    fn size_is_positive_and_monotone() {
        let d = university();
        let s = d.size();
        assert!(s > 10);
        let mut bigger = d.clone();
        bigger
            .declare_element("extra", ContentModel::Text, [])
            .unwrap();
        assert!(bigger.size() > s);
    }
}

//! Paths in a DTD — Section 2: `paths(D)` and `EPaths(D)`.
//!
//! A path is a word `w₁.w₂.….wₙ` with `w₁ = r`, each `wᵢ` in the alphabet
//! of `P(wᵢ₋₁)`, and `wₙ` either an element type, an attribute `@l` of
//! `wₙ₋₁`, or the reserved symbol `S` when `P(wₙ₋₁) = S` (#PCDATA).
//!
//! Two representations are provided:
//!
//! * [`Path`] — an owned, DTD-independent sequence of [`Step`]s with a
//!   stable text form (`courses.course.@cno`). Functional dependencies are
//!   stated over these, so they survive the DTD rewrites performed by the
//!   normalization algorithm.
//! * [`PathSet`] — the enumerated `paths(D)` of a concrete DTD, interning
//!   every path as a dense [`PathId`] in a parent-pointer trie. All
//!   algorithmic cores (tree tuples, the chase) run on `PathId`s.

use crate::dtd::{ContentModel, Dtd, ElemId};
use crate::parse::is_name_byte;
use crate::{DtdError, Result};
use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;
use std::str::FromStr;

/// One step of a path.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Step {
    /// An element type name.
    Elem(Box<str>),
    /// An attribute `@l` (stored without the leading `@`).
    Attr(Box<str>),
    /// The reserved symbol `S` (#PCDATA content).
    Text,
}

impl Step {
    /// An element step.
    pub fn elem(name: impl Into<Box<str>>) -> Self {
        Step::Elem(name.into())
    }

    /// An attribute step.
    pub fn attr(name: impl Into<Box<str>>) -> Self {
        Step::Attr(name.into())
    }

    /// Whether this step is an element name.
    pub fn is_elem(&self) -> bool {
        matches!(self, Step::Elem(_))
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Elem(n) => write!(f, "{n}"),
            Step::Attr(n) => write!(f, "@{n}"),
            Step::Text => write!(f, "S"),
        }
    }
}

/// An owned path — a non-empty sequence of steps beginning at the root
/// element. Paths are ordered lexicographically by their steps, which makes
/// sets of paths and FDs deterministic to display.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Path(Vec<Step>);

impl Path {
    /// Builds a path from steps. Panics if `steps` is empty or if a
    /// non-final step is not an element (paths may only end with an
    /// attribute or `S`).
    pub fn new(steps: Vec<Step>) -> Self {
        assert!(!steps.is_empty(), "a path has at least one step (the root)");
        assert!(
            steps[..steps.len() - 1].iter().all(Step::is_elem),
            "only the final step of a path may be an attribute or S"
        );
        Path(steps)
    }

    /// A single-step path (the root).
    pub fn root(name: impl Into<Box<str>>) -> Self {
        Path(vec![Step::elem(name)])
    }

    /// The steps of the path.
    pub fn steps(&self) -> &[Step] {
        &self.0
    }

    /// `length(w)` — the number of steps.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Paths are never empty; provided for clippy-completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `last(w)` — the final step.
    pub fn last(&self) -> &Step {
        self.0.last().expect("paths are non-empty")
    }

    /// Whether the path ends with an element type (`p ∈ EPaths(D)`).
    pub fn is_element_path(&self) -> bool {
        self.last().is_elem()
    }

    /// The path with the final step removed, or `None` for the root.
    pub fn parent(&self) -> Option<Path> {
        if self.0.len() == 1 {
            None
        } else {
            Some(Path(self.0[..self.0.len() - 1].to_vec()))
        }
    }

    /// Extends the path by one step. Panics if `self` does not end with an
    /// element.
    pub fn child(&self, step: Step) -> Path {
        assert!(
            self.is_element_path(),
            "cannot extend a path ending in an attribute or S"
        );
        let mut steps = self.0.clone();
        steps.push(step);
        Path(steps)
    }

    /// Convenience: `self.child(Step::elem(name))`.
    pub fn child_elem(&self, name: impl Into<Box<str>>) -> Path {
        self.child(Step::elem(name))
    }

    /// Convenience: `self.child(Step::attr(name))`.
    pub fn child_attr(&self, name: impl Into<Box<str>>) -> Path {
        self.child(Step::attr(name))
    }

    /// Convenience: `self.child(Step::Text)`.
    pub fn child_text(&self) -> Path {
        self.child(Step::Text)
    }

    /// Whether `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &Path) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

impl FromStr for Path {
    type Err = DtdError;

    /// Parses the dotted form, e.g. `courses.course.@cno` or
    /// `courses.course.title.S`. `S` is reserved for the #PCDATA step and
    /// `@`-prefixed components are attributes; both may appear only last.
    /// Every other component is a DTD name (what the DTD parser accepts,
    /// less the separator `.`); nothing is trimmed.
    fn from_str(s: &str) -> Result<Path> {
        let is_name = |c: &str| !c.is_empty() && c.bytes().all(is_name_byte);
        let mut steps = Vec::new();
        let mut offset = 0usize;
        for (i, comp) in s.split('.').enumerate() {
            if comp.is_empty() {
                return Err(DtdError::syntax(
                    s.as_bytes(),
                    offset,
                    format!("empty path component in `{s}` (component {i})"),
                ));
            }
            let step = if comp == "S" {
                Step::Text
            } else if let Some(att) = comp.strip_prefix('@').filter(|a| is_name(a)) {
                Step::attr(att)
            } else if is_name(comp) {
                Step::elem(comp)
            } else {
                return Err(DtdError::syntax(
                    s.as_bytes(),
                    offset,
                    format!(
                        "path component `{comp}` in `{s}` is not a name, `@name` or `S` \
                         (component {i})"
                    ),
                ));
            };
            steps.push(step);
            offset += comp.len() + 1; // component plus the following `.`
        }
        if steps.is_empty() {
            return Err(DtdError::syntax(s.as_bytes(), 0, "empty path"));
        }
        if !steps[..steps.len() - 1].iter().all(Step::is_elem) {
            return Err(DtdError::syntax(
                s.as_bytes(),
                0,
                format!("`{s}`: attributes and S may appear only as the final step"),
            ));
        }
        Ok(Path(steps))
    }
}

/// Identifier of an interned path within one [`PathSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub(crate) u32);

impl PathId {
    /// The dense index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct Entry {
    parent: Option<PathId>,
    step: Step,
    /// `length(p)`.
    len: u32,
    /// The element type of `last(p)` if the path ends with an element.
    last_elem: Option<ElemId>,
    /// Ids of all one-step extensions (attributes, `S`, elements). They
    /// form one contiguous run: enumeration pushes a path's children
    /// together.
    children: Range<u32>,
}

/// The enumerated, interned `paths(D)` of a DTD.
///
/// Ids are assigned in breadth-first order, so `PathId` order is consistent
/// with path length and parents always precede children.
#[derive(Debug, Clone)]
pub struct PathSet {
    entries: Vec<Entry>,
    /// The child index: over each path's run of child ids, the same ids
    /// sorted by step, so a child is found by binary search with a
    /// borrowed step. Slot 0 holds the root.
    by_step: Vec<PathId>,
    /// Whether enumeration was truncated by a length bound (recursive DTD).
    truncated: bool,
}

impl PathSet {
    /// Enumerates all paths of `dtd` of length ≤ `max_len` (breadth-first).
    pub(crate) fn enumerate(dtd: &Dtd, max_len: usize) -> PathSet {
        let mut set = PathSet {
            entries: Vec::new(),
            by_step: Vec::new(),
            truncated: false,
        };
        let root_step = Step::elem(dtd.root_name());
        let root_id = set.push(None, root_step, Some(dtd.root()));
        let mut queue = vec![root_id];
        let mut head = 0;
        while head < queue.len() {
            let pid = queue[head];
            head += 1;
            let elem = set.entries[pid.index()]
                .last_elem
                .expect("only element paths are queued");
            if set.entries[pid.index()].len as usize >= max_len {
                set.truncated = true;
                continue;
            }
            let first = set.entries.len() as u32;
            for att in dtd.attrs(elem) {
                set.push(Some(pid), Step::attr(att), None);
            }
            match dtd.content(elem) {
                ContentModel::Text => {
                    set.push(Some(pid), Step::Text, None);
                }
                ContentModel::Regex(re) => {
                    for name in re.alphabet() {
                        let child_elem = dtd.elem_id(name).expect("validated reference");
                        let cid = set.push(Some(pid), Step::elem(name), Some(child_elem));
                        queue.push(cid);
                    }
                }
            }
            let children = first..set.entries.len() as u32;
            let entries = &set.entries;
            set.by_step[children.start as usize..children.end as usize]
                .sort_unstable_by(|a, b| entries[a.index()].step.cmp(&entries[b.index()].step));
            set.entries[pid.index()].children = children;
        }
        set
    }

    fn push(&mut self, parent: Option<PathId>, step: Step, last_elem: Option<ElemId>) -> PathId {
        let id = PathId(self.entries.len() as u32);
        let len = parent.map_or(1, |p| self.entries[p.index()].len + 1);
        self.entries.push(Entry {
            parent,
            step,
            len,
            last_elem,
            children: 0..0,
        });
        self.by_step.push(id);
        id
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty (never: the root path always exists).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether enumeration was truncated by a length bound.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// All path ids, in breadth-first order.
    pub fn iter(&self) -> impl Iterator<Item = PathId> {
        (0..self.entries.len() as u32).map(PathId)
    }

    /// The id of the root path.
    pub fn root(&self) -> PathId {
        PathId(0)
    }

    /// `EPaths(D)`: ids of paths ending with an element type.
    pub fn epaths(&self) -> impl Iterator<Item = PathId> + '_ {
        self.iter().filter(|p| self.is_element_path(*p))
    }

    /// The parent path, if any.
    pub fn parent(&self, p: PathId) -> Option<PathId> {
        self.entries[p.index()].parent
    }

    /// The final step of `p`.
    pub fn step(&self, p: PathId) -> &Step {
        &self.entries[p.index()].step
    }

    /// `length(p)`.
    pub fn path_len(&self, p: PathId) -> usize {
        self.entries[p.index()].len as usize
    }

    /// The element type of `last(p)`, if `p ∈ EPaths(D)`.
    pub fn last_elem(&self, p: PathId) -> Option<ElemId> {
        self.entries[p.index()].last_elem
    }

    /// Whether `p ∈ EPaths(D)`.
    pub fn is_element_path(&self, p: PathId) -> bool {
        self.entries[p.index()].last_elem.is_some()
    }

    /// One-step extensions of `p` (attributes, `S`, element children), in
    /// breadth-first order.
    pub fn children_of(&self, p: PathId) -> impl ExactSizeIterator<Item = PathId> {
        self.entries[p.index()].children.clone().map(PathId)
    }

    /// The child `p.name` for an element `name`, if it is a path.
    pub fn child_elem(&self, p: PathId, name: &str) -> Option<PathId> {
        self.find_child(p, |s| match s {
            Step::Elem(n) => (**n).cmp(name),
            Step::Attr(_) | Step::Text => Ordering::Greater,
        })
    }

    /// The child of `p` whose step `cmp` orders as equal, by binary search
    /// in `p`'s run of the child index. `cmp` must agree with `Step`'s
    /// order.
    fn find_child(&self, p: PathId, cmp: impl Fn(&Step) -> Ordering) -> Option<PathId> {
        let children = &self.entries[p.index()].children;
        let run = &self.by_step[children.start as usize..children.end as usize];
        let i = run
            .binary_search_by(|c| cmp(&self.entries[c.index()].step))
            .ok()?;
        Some(run[i])
    }

    /// Whether `a` is a (non-strict) prefix of `b`.
    pub fn is_prefix(&self, a: PathId, b: PathId) -> bool {
        let la = self.entries[a.index()].len;
        let mut cur = b;
        loop {
            let e = &self.entries[cur.index()];
            if e.len == la {
                return cur == a;
            }
            if e.len < la {
                return false;
            }
            cur = e.parent.expect("len > 1 implies a parent");
        }
    }

    /// Resolves an owned [`Path`] to its id, if present. Allocates nothing:
    /// each step is looked up borrowed in the child index.
    pub fn resolve(&self, path: &Path) -> Option<PathId> {
        let (first, rest) = path.steps().split_first()?;
        let root = self.root();
        if self.step(root) != first {
            return None;
        }
        rest.iter()
            .try_fold(root, |cur, step| self.find_child(cur, |s| s.cmp(step)))
    }

    /// Resolves a dotted path string (`courses.course.@cno`).
    pub fn resolve_str(&self, s: &str) -> Option<PathId> {
        let path: Path = s.parse().ok()?;
        self.resolve(&path)
    }

    /// Like [`PathSet::resolve_str`], but with a typed error naming the
    /// missing path.
    pub fn require_str(&self, s: &str) -> Result<PathId> {
        self.resolve_str(s)
            .ok_or_else(|| DtdError::NoSuchPath(s.to_string()))
    }

    /// Reconstructs the owned [`Path`] for `p`.
    pub fn path(&self, p: PathId) -> Path {
        let mut steps = Vec::with_capacity(self.path_len(p));
        let mut cur = Some(p);
        while let Some(c) = cur {
            let e = &self.entries[c.index()];
            steps.push(e.step.clone());
            cur = e.parent;
        }
        steps.reverse();
        Path::new(steps)
    }

    /// The display form of `p`.
    pub fn format(&self, p: PathId) -> String {
        self.path(p).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::Dtd;
    use crate::regex::Regex;

    fn university() -> Dtd {
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
            .unwrap()
    }

    #[test]
    fn university_paths_match_figure_2() {
        let d = university();
        let ps = d.paths().unwrap();
        // Exactly the 12 paths listed in Figure 2(a).
        let expected = [
            "courses",
            "courses.course",
            "courses.course.@cno",
            "courses.course.title",
            "courses.course.title.S",
            "courses.course.taken_by",
            "courses.course.taken_by.student",
            "courses.course.taken_by.student.@sno",
            "courses.course.taken_by.student.name",
            "courses.course.taken_by.student.name.S",
            "courses.course.taken_by.student.grade",
            "courses.course.taken_by.student.grade.S",
        ];
        assert_eq!(ps.len(), expected.len());
        for e in expected {
            assert!(ps.resolve_str(e).is_some(), "missing path {e}");
        }
    }

    #[test]
    fn epaths_are_element_ended() {
        let d = university();
        let ps = d.paths().unwrap();
        let epaths: Vec<String> = ps.epaths().map(|p| ps.format(p)).collect();
        assert_eq!(
            epaths,
            vec![
                "courses",
                "courses.course",
                "courses.course.title",
                "courses.course.taken_by",
                "courses.course.taken_by.student",
                "courses.course.taken_by.student.name",
                "courses.course.taken_by.student.grade",
            ]
        );
    }

    #[test]
    fn prefix_and_ancestor_queries() {
        let d = university();
        let ps = d.paths().unwrap();
        let root = ps.resolve_str("courses").unwrap();
        let course = ps.resolve_str("courses.course").unwrap();
        let sno = ps
            .resolve_str("courses.course.taken_by.student.@sno")
            .unwrap();
        assert!(ps.is_prefix(root, sno));
        assert!(ps.is_prefix(course, sno));
        assert!(!ps.is_prefix(sno, course));
        assert!(ps.is_prefix(sno, sno));
    }

    #[test]
    fn path_roundtrip_parse_display() {
        for s in ["courses", "courses.course.@cno", "courses.course.title.S"] {
            let p: Path = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn path_parse_rejects_midway_attribute() {
        assert!("a.@b.c".parse::<Path>().is_err());
        assert!("a.S.c".parse::<Path>().is_err());
        assert!("a..b".parse::<Path>().is_err());
    }

    #[test]
    fn path_components_are_names() {
        for bad in [
            "a . b", " a.b", "a.b ", "the key", "a.@", "a.@b c", "a.b#c", "a.@@b",
        ] {
            assert!(bad.parse::<Path>().is_err(), "{bad:?}");
        }
        let p: Path = "x-1.y_2:z.@a-b".parse().unwrap();
        assert_eq!(p.to_string(), "x-1.y_2:z.@a-b");
    }

    #[test]
    fn bounded_enumeration_truncates_recursive_dtds() {
        let d = Dtd::builder("r")
            .elem("r", Regex::elem("part"))
            .elem_attrs("part", Regex::elem("part").star(), ["id"])
            .build()
            .unwrap();
        let ps = d.paths_bounded(4);
        assert!(ps.truncated());
        assert!(ps.resolve_str("r.part.part.part").is_some());
        assert!(ps.resolve_str("r.part.part.@id").is_some());
        assert!(ps.resolve_str("r.part.part.part.part").is_none());
    }

    #[test]
    fn path_ids_are_bfs_ordered() {
        let d = university();
        let ps = d.paths().unwrap();
        for p in ps.iter() {
            if let Some(parent) = ps.parent(p) {
                assert!(parent < p);
                assert_eq!(ps.path_len(parent) + 1, ps.path_len(p));
            }
        }
    }

    #[test]
    fn resolve_rejects_unknown() {
        let d = university();
        let ps = d.paths().unwrap();
        assert!(ps.resolve_str("courses.nonexistent").is_none());
        assert!(ps.require_str("courses.nonexistent").is_err());
    }
}

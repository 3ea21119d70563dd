//! Functional dependencies for XML — Section 4.
//!
//! An FD over a DTD `D` is `S₁ → S₂` with `S₁, S₂` finite non-empty sets
//! of paths. A tree `T ◁ D` satisfies it iff for all
//! `t₁, t₂ ∈ tuples_D(T)`: `t₁.S₁ = t₂.S₁` and `t₁.S₁ ≠ ⊥` imply
//! `t₁.S₂ = t₂.S₂` — the standard semantics of FDs over relations with
//! nulls, instantiated on the tree-tuple relation.

use crate::tuples::tuples_d;
use crate::{CoreError, Result};
use std::fmt;
use std::ops::Range;
use std::str::FromStr;
use xnf_dtd::{Dtd, Path, PathId, PathSet};
use xnf_xml::XmlTree;

/// A functional dependency `S₁ → S₂` over owned, DTD-independent paths.
///
/// Paths are kept sorted and deduplicated, so equal FDs compare equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct XmlFd {
    lhs: Vec<Path>,
    rhs: Vec<Path>,
}

impl XmlFd {
    /// Creates `lhs → rhs`. Fails if either side is empty.
    pub fn new(
        lhs: impl IntoIterator<Item = Path>,
        rhs: impl IntoIterator<Item = Path>,
    ) -> Result<XmlFd> {
        let mut lhs: Vec<Path> = lhs.into_iter().collect();
        let mut rhs: Vec<Path> = rhs.into_iter().collect();
        lhs.sort();
        lhs.dedup();
        rhs.sort();
        rhs.dedup();
        if lhs.is_empty() || rhs.is_empty() {
            return Err(CoreError::EmptyFd);
        }
        Ok(XmlFd { lhs, rhs })
    }

    /// Parses `"p1, p2 -> q1, q2"` using the dotted path syntax
    /// (`courses.course.@cno`).
    pub fn parse(s: &str) -> Result<XmlFd> {
        s.parse()
    }

    /// The left-hand side `S₁`.
    pub fn lhs(&self) -> &[Path] {
        &self.lhs
    }

    /// The right-hand side `S₂`.
    pub fn rhs(&self) -> &[Path] {
        &self.rhs
    }

    /// Splits into FDs with singleton right-hand sides (equivalent by the
    /// union rule; Section 7 assumes this form).
    pub fn split_rhs(&self) -> Vec<XmlFd> {
        self.rhs
            .iter()
            .map(|p| XmlFd {
                lhs: self.lhs.clone(),
                rhs: vec![p.clone()],
            })
            .collect()
    }

    /// Resolves both sides against an enumerated path set.
    pub fn resolve(&self, paths: &PathSet) -> Result<ResolvedFd> {
        let resolve_side = |side: &[Path]| -> Result<Vec<PathId>> {
            let mut out = Vec::with_capacity(side.len());
            for p in side {
                out.push(
                    paths
                        .resolve(p)
                        .ok_or_else(|| xnf_dtd::DtdError::NoSuchPath(p.to_string()))?,
                );
            }
            out.sort();
            out.dedup();
            Ok(out)
        };
        Ok(ResolvedFd {
            lhs: resolve_side(&self.lhs)?,
            rhs: resolve_side(&self.rhs)?,
        })
    }

    /// Whether `T` satisfies this FD (computes `tuples_D(T)`).
    pub fn satisfied_by(&self, tree: &XmlTree, dtd: &Dtd, paths: &PathSet) -> Result<bool> {
        let resolved = self.resolve(paths)?;
        let tuples = tuples_d(tree, dtd, paths)?;
        Ok(resolved.check_tuples(&tuples))
    }
}

impl fmt::Display for XmlFd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let join = |side: &[Path]| {
            side.iter()
                .map(Path::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        };
        write!(f, "{} -> {}", join(&self.lhs), join(&self.rhs))
    }
}

impl FromStr for XmlFd {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<XmlFd> {
        let (lhs, rhs) = s
            .split_once("->")
            .ok_or_else(|| CoreError::BadFdPath(format!("`{s}` has no `->`")))?;
        let parse_side = |side: &str| -> Result<Vec<Path>> {
            side.split(',')
                .map(str::trim)
                .filter(|p| !p.is_empty())
                .map(|p| p.parse::<Path>().map_err(CoreError::from))
                .collect()
        };
        XmlFd::new(parse_side(lhs)?, parse_side(rhs)?)
    }
}

/// An FD resolved to dense path ids of one [`PathSet`]. The sides are
/// sorted and deduplicated.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResolvedFd {
    /// Left-hand-side path ids.
    pub lhs: Vec<PathId>,
    /// Right-hand-side path ids.
    pub rhs: Vec<PathId>,
}

impl ResolvedFd {
    /// Creates a resolved FD directly from path ids.
    pub fn from_ids(
        lhs: impl IntoIterator<Item = PathId>,
        rhs: impl IntoIterator<Item = PathId>,
    ) -> ResolvedFd {
        let mut lhs: Vec<PathId> = lhs.into_iter().collect();
        let mut rhs: Vec<PathId> = rhs.into_iter().collect();
        lhs.sort();
        lhs.dedup();
        rhs.sort();
        rhs.dedup();
        ResolvedFd { lhs, rhs }
    }

    /// Converts back to an owned-path FD, re-establishing [`XmlFd`]'s
    /// sorted-path invariant (path-id order and path order differ, and an
    /// unsorted side would make equal FDs compare unequal).
    pub fn to_fd(&self, paths: &PathSet) -> XmlFd {
        XmlFd::new(
            self.lhs.iter().map(|&p| paths.path(p)),
            self.rhs.iter().map(|&p| paths.path(p)),
        )
        .expect("resolved FDs have non-empty sides")
    }

    /// Checks the Section 4 satisfaction condition on a materialized tuple
    /// set.
    ///
    /// Tuples with a fully non-null LHS are hash-grouped by their LHS
    /// projection; the FD holds iff every group agrees on the RHS
    /// projection — `O(n·(|S₁|+|S₂|))` instead of the naive pairwise
    /// `O(n²)`. Tuples with a null on the LHS never participate
    /// (the `t₁.S₁ ≠ ⊥` guard of the definition).
    pub fn check_tuples(&self, tuples: &[crate::tuple::TreeTuple]) -> bool {
        use std::collections::HashMap;
        use xnf_relational::Value;
        let mut witness: HashMap<Vec<&Value>, Vec<&Value>> = HashMap::new();
        for t in tuples {
            if !t.non_null_on(&self.lhs) {
                continue;
            }
            let key: Vec<&Value> = self.lhs.iter().map(|&p| t.get(p)).collect();
            let rhs: Vec<&Value> = self.rhs.iter().map(|&p| t.get(p)).collect();
            match witness.entry(key) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(rhs);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != rhs {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// A set of XML FDs, with convenience constructors and bulk operations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct XmlFdSet {
    fds: Vec<XmlFd>,
}

impl XmlFdSet {
    /// The empty set.
    pub fn new() -> XmlFdSet {
        XmlFdSet::default()
    }

    /// Builds from FDs, deduplicating.
    pub fn from_fds(fds: impl IntoIterator<Item = XmlFd>) -> XmlFdSet {
        let mut fds: Vec<XmlFd> = fds.into_iter().collect();
        fds.sort();
        fds.dedup();
        XmlFdSet { fds }
    }

    /// Parses an FD-set text in the syntax of [`FdListing::read`]: FDs
    /// separated by newlines or `;`, and `#` comments running to the end
    /// of their line. Fails with the first error in source order.
    pub fn parse(input: &str) -> Result<XmlFdSet> {
        FdListing::read(input).into_set()
    }

    /// Adds an FD (keeping the set sorted and deduplicated).
    pub fn push(&mut self, fd: XmlFd) {
        if let Err(ix) = self.fds.binary_search(&fd) {
            self.fds.insert(ix, fd);
        }
    }

    /// The FDs, sorted.
    pub fn iter(&self) -> impl Iterator<Item = &XmlFd> {
        self.fds.iter()
    }

    /// Number of FDs.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Resolves every FD against a path set, in a canonical *structural*
    /// order: sorted by `(lhs, rhs)` path ids and deduplicated. The chase
    /// scans Σ in this order when picking case-split pivots, so it must
    /// not depend on name spellings — the set's own textual order sorts
    /// FDs lexicographically by path names and is not rename-equivariant.
    pub fn resolve(&self, paths: &PathSet) -> Result<Vec<ResolvedFd>> {
        let mut out: Vec<ResolvedFd> = self
            .fds
            .iter()
            .map(|fd| fd.resolve(paths))
            .collect::<Result<_>>()?;
        out.sort_by(|a, b| (&a.lhs, &a.rhs).cmp(&(&b.lhs, &b.rhs)));
        out.dedup();
        Ok(out)
    }

    /// Whether `T` satisfies every FD in the set (`T ⊨ Σ`), sharing one
    /// `tuples_D(T)` computation.
    pub fn satisfied_by(&self, tree: &XmlTree, dtd: &Dtd, paths: &PathSet) -> Result<bool> {
        let resolved = self.resolve(paths)?;
        let tuples = tuples_d(tree, dtd, paths)?;
        Ok(resolved.iter().all(|fd| fd.check_tuples(&tuples)))
    }
}

impl fmt::Display for XmlFdSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for fd in &self.fds {
            writeln!(f, "{fd}")?;
        }
        Ok(())
    }
}

impl IntoIterator for XmlFdSet {
    type Item = XmlFd;
    type IntoIter = std::vec::IntoIter<XmlFd>;

    /// The FDs, sorted, by value.
    fn into_iter(self) -> Self::IntoIter {
        self.fds.into_iter()
    }
}

impl FromIterator<XmlFd> for XmlFdSet {
    fn from_iter<I: IntoIterator<Item = XmlFd>>(iter: I) -> Self {
        XmlFdSet::from_fds(iter)
    }
}

/// One FD of an FD-set text: where its text sits, and what it parses to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdEntry {
    /// Byte span of the FD's trimmed text in the source.
    pub span: Range<usize>,
    /// The FD, or why its text does not parse.
    pub fd: Result<XmlFd>,
}

/// An FD-set text read once: every FD in source order, with its span and
/// its parse. [`FdListing::read`] is the one reader of the text syntax;
/// [`XmlFdSet::parse`] is its set, and the linter reports its entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdListing<'a> {
    src: &'a str,
    entries: Vec<FdEntry>,
}

impl<'a> FdListing<'a> {
    /// Reads an FD-set text. FDs are separated by newlines or `;`, and
    /// each is trimmed; blank ones are skipped. An FD whose trimmed text
    /// starts with `#` starts a comment, which runs to the end of its
    /// line, past any `;`.
    pub fn read(src: &'a str) -> FdListing<'a> {
        let mut entries = Vec::new();
        let mut line_start = 0;
        for line in src.split('\n') {
            let mut start = line_start;
            for raw in line.split(';') {
                let text = raw.trim();
                if text.starts_with('#') {
                    break;
                }
                if !text.is_empty() {
                    let offset = start + (raw.len() - raw.trim_start().len());
                    entries.push(FdEntry {
                        span: offset..offset + text.len(),
                        fd: text.parse(),
                    });
                }
                start += raw.len() + 1;
            }
            line_start += line.len() + 1;
        }
        FdListing { src, entries }
    }

    /// The text the listing was read from.
    pub fn src(&self) -> &'a str {
        self.src
    }

    /// Every FD of the text, in source order.
    pub fn entries(&self) -> &[FdEntry] {
        &self.entries
    }

    /// The listed FDs as a set, or the first error in source order.
    pub fn to_set(&self) -> Result<XmlFdSet> {
        self.entries.iter().map(|e| e.fd.clone()).collect()
    }

    /// [`FdListing::to_set`], moving the FDs out.
    pub fn into_set(self) -> Result<XmlFdSet> {
        self.entries.into_iter().map(|e| e.fd).collect()
    }
}

/// The FDs (FD1)–(FD3) of Example 4.1, in the text syntax.
pub const UNIVERSITY_FDS: &str = "\
courses.course.@cno -> courses.course
courses.course, courses.course.taken_by.student.@sno -> courses.course.taken_by.student
courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name.S";

/// The FDs (FD4)–(FD5) of Example 5.2, in the text syntax.
pub const DBLP_FDS: &str = "\
db.conf.title.S -> db.conf
db.conf.issue -> db.conf.issue.inproceedings.@year";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{dblp_doc, dblp_dtd, figure_1a, university_dtd};

    #[test]
    fn parse_and_display_roundtrip() {
        let fd: XmlFd =
            "courses.course, courses.course.taken_by.student.@sno -> courses.course.taken_by.student"
                .parse()
                .unwrap();
        assert_eq!(fd.lhs().len(), 2);
        let rendered = fd.to_string();
        let reparsed: XmlFd = rendered.parse().unwrap();
        assert_eq!(fd, reparsed);
    }

    #[test]
    fn empty_sides_rejected() {
        assert!(matches!(" -> a".parse::<XmlFd>(), Err(CoreError::EmptyFd)));
        assert!("no arrow".parse::<XmlFd>().is_err());
    }

    #[test]
    fn example_4_1_fds_hold_on_figure_1a() {
        let d = university_dtd();
        let ps = d.paths().unwrap();
        let t = figure_1a();
        let fds = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        assert_eq!(fds.len(), 3);
        assert!(fds.satisfied_by(&t, &d, &ps).unwrap());
        for fd in fds.iter() {
            assert!(fd.satisfied_by(&t, &d, &ps).unwrap(), "{fd} should hold");
        }
    }

    #[test]
    fn fd3_violation_detected() {
        // Change one of st1's names: FD3 (sno → name.S) breaks.
        let d = university_dtd();
        let ps = d.paths().unwrap();
        let t = xnf_xml::parse(
            r#"<courses>
              <course cno="csc200"><title>A</title><taken_by>
                <student sno="st1"><name>Deere</name><grade>A+</grade></student>
              </taken_by></course>
              <course cno="mat100"><title>B</title><taken_by>
                <student sno="st1"><name>Doe</name><grade>A-</grade></student>
              </taken_by></course>
            </courses>"#,
        )
        .unwrap();
        let fd3: XmlFd =
            "courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name.S"
                .parse()
                .unwrap();
        assert!(!fd3.satisfied_by(&t, &d, &ps).unwrap());
        // FD1 still holds.
        let fd1: XmlFd = "courses.course.@cno -> courses.course".parse().unwrap();
        assert!(fd1.satisfied_by(&t, &d, &ps).unwrap());
    }

    #[test]
    fn fd1_key_violation_detected() {
        // Two course elements with the same cno violate FD1 (node equality
        // on the RHS).
        let d = university_dtd();
        let ps = d.paths().unwrap();
        let t = xnf_xml::parse(
            r#"<courses>
              <course cno="csc200"><title>A</title><taken_by/></course>
              <course cno="csc200"><title>B</title><taken_by/></course>
            </courses>"#,
        )
        .unwrap();
        let fd1: XmlFd = "courses.course.@cno -> courses.course".parse().unwrap();
        assert!(!fd1.satisfied_by(&t, &d, &ps).unwrap());
    }

    #[test]
    fn dblp_fds_hold() {
        let d = dblp_dtd();
        let ps = d.paths().unwrap();
        let t = dblp_doc();
        let fds = XmlFdSet::parse(DBLP_FDS).unwrap();
        assert!(fds.satisfied_by(&t, &d, &ps).unwrap());
    }

    #[test]
    fn dblp_fd5_violation() {
        // Two inproceedings in one issue with different years violate FD5.
        let d = dblp_dtd();
        let ps = d.paths().unwrap();
        let t = xnf_xml::parse(
            r#"<db><conf><title>PODS</title><issue>
              <inproceedings key="p1" pages="1" year="2001">
                <author>A</author><title>t1</title><booktitle>b</booktitle>
              </inproceedings>
              <inproceedings key="p2" pages="2" year="2002">
                <author>B</author><title>t2</title><booktitle>b</booktitle>
              </inproceedings>
            </issue></conf></db>"#,
        )
        .unwrap();
        let fd5: XmlFd = "db.conf.issue -> db.conf.issue.inproceedings.@year"
            .parse()
            .unwrap();
        assert!(!fd5.satisfied_by(&t, &d, &ps).unwrap());
    }

    #[test]
    fn unknown_path_is_an_error() {
        let d = university_dtd();
        let ps = d.paths().unwrap();
        let fd: XmlFd = "courses.ghost -> courses".parse().unwrap();
        assert!(matches!(
            fd.satisfied_by(&figure_1a(), &d, &ps),
            Err(CoreError::Dtd(xnf_dtd::DtdError::NoSuchPath(_)))
        ));
    }

    #[test]
    fn split_rhs() {
        let fd: XmlFd = "a.b -> a.c, a.d".parse().unwrap();
        let split = fd.split_rhs();
        assert_eq!(split.len(), 2);
        assert!(split.iter().all(|f| f.rhs().len() == 1));
    }

    #[test]
    fn fdset_parse_skips_comments() {
        let set = XmlFdSet::parse("# comment\n\na.b -> a.c; a.c -> a.d").unwrap();
        assert_eq!(set.len(), 2);
        // A comment runs to the end of its line, past a `;`.
        let set = XmlFdSet::parse("# FD1; the key -> a\na.b -> a; # x; y\n").unwrap();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn null_lhs_never_triggers() {
        // Documents missing the LHS path satisfy any FD vacuously.
        let d = university_dtd();
        let ps = d.paths().unwrap();
        let t = xnf_xml::parse(
            r#"<courses><course cno="c1"><title>T</title><taken_by>
               <student sno="s1"><name>N</name></student></taken_by></course>
               <course cno="c2"><title>T2</title><taken_by>
               <student sno="s2"><name>M</name></student></taken_by></course></courses>"#,
        )
        .unwrap();
        let fd: XmlFd =
            "courses.course.taken_by.student.grade.S -> courses.course.taken_by.student.@sno"
                .parse()
                .unwrap();
        assert!(fd.satisfied_by(&t, &d, &ps).unwrap());
    }
}

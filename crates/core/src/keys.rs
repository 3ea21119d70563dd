//! Keys for XML, as the subclass of FDs the paper points out (Section 4:
//! "keys naturally appear as a subclass of FDs, and relative constraints
//! can also be encoded").
//!
//! * an **absolute key**: `S → p` with `S` a set of value paths — the
//!   values identify the `p`-node document-wide (FD1: `@cno` keys
//!   `course`);
//! * a **relative key**: `{q} ∪ S → p` — the values identify the
//!   `p`-node *per `q`-node* (FD2: `@sno` keys `student` relative to
//!   `course`).
//!
//! Key testing is FD implication; [`find_keys`] additionally *discovers*
//! minimal keys by searching the attribute paths available at the target
//! and its ancestors.

use crate::fd::{ResolvedFd, XmlFdSet};
use crate::implication::{Chase, Implication};
use crate::Result;
use xnf_dtd::{Dtd, Path, PathId};

/// A discovered key for a target element path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key {
    /// The anchor element path for relative keys (`None` = absolute,
    /// i.e. relative to the root).
    pub relative_to: Option<Path>,
    /// The identifying value paths.
    pub paths: Vec<Path>,
    /// The identified element path.
    pub target: Path,
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let attrs = self
            .paths
            .iter()
            .map(Path::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        match &self.relative_to {
            Some(q) => write!(f, "{{{q}, {attrs}}} -> {}", self.target),
            None => write!(f, "{{{attrs}}} -> {}", self.target),
        }
    }
}

/// Whether `S → target` is implied by `(D, Σ)` — the absolute-key test.
pub fn is_key(dtd: &Dtd, sigma: &XmlFdSet, key_paths: &[Path], target: &Path) -> Result<bool> {
    let paths = dtd.paths()?;
    let chase = Chase::new(dtd, &paths);
    let resolved = sigma.resolve(&paths)?;
    let mut lhs = Vec::with_capacity(key_paths.len());
    for p in key_paths {
        lhs.push(
            paths
                .resolve(p)
                .ok_or_else(|| xnf_dtd::DtdError::NoSuchPath(p.to_string()))?,
        );
    }
    let t = paths
        .resolve(target)
        .ok_or_else(|| xnf_dtd::DtdError::NoSuchPath(target.to_string()))?;
    Ok(chase.implies(&resolved, &ResolvedFd::from_ids(lhs, [t])))
}

/// Discovers all minimal keys of `target` (an element path) with at most
/// `max_size` value paths, drawn from the attribute/text paths of the
/// target and of its ancestors; each ancestor is also tried as the
/// anchor of a relative key.
///
/// Exponential in `max_size` (subset search) — intended for the
/// schema-design workloads of this library, where attribute counts are
/// small.
pub fn find_keys(dtd: &Dtd, sigma: &XmlFdSet, target: &Path, max_size: usize) -> Result<Vec<Key>> {
    let paths = dtd.paths()?;
    let chase = Chase::new(dtd, &paths);
    let resolved = sigma.resolve(&paths)?;
    let t = paths
        .resolve(target)
        .ok_or_else(|| xnf_dtd::DtdError::NoSuchPath(target.to_string()))?;
    if !paths.is_element_path(t) {
        return Err(crate::CoreError::BadFdPath(format!(
            "key target `{target}` must be an element path"
        )));
    }

    // Candidate pool: value paths hanging off the target and its
    // ancestors.
    let mut anchors: Vec<Option<PathId>> = vec![None];
    let mut pool: Vec<PathId> = Vec::new();
    let mut cur = Some(t);
    while let Some(c) = cur {
        for vp in paths.children_of(c) {
            if !paths.is_element_path(vp) {
                pool.push(vp);
            }
        }
        cur = paths.parent(c);
        if let Some(a) = cur {
            if a != paths.root() {
                anchors.push(Some(a));
            }
        }
    }
    pool.sort();
    pool.dedup();

    let mut found: Vec<(Option<PathId>, Vec<PathId>)> = Vec::new();
    let n = pool.len().min(16);
    for &anchor in &anchors {
        for mask in 1u32..(1u32 << n) {
            if (mask.count_ones() as usize) > max_size {
                continue;
            }
            let subset: Vec<PathId> = (0..n)
                .filter(|b| mask & (1 << b) != 0)
                .map(|b| pool[b])
                .collect();
            // Minimality within the same anchor (or a weaker one).
            if found
                .iter()
                .any(|(a, s)| (a.is_none() || *a == anchor) && s.iter().all(|x| subset.contains(x)))
            {
                continue;
            }
            let mut lhs = subset.clone();
            if let Some(a) = anchor {
                lhs.push(a);
            }
            if chase.implies(&resolved, &ResolvedFd::from_ids(lhs, [t])) {
                found.push((anchor, subset));
            }
        }
    }
    Ok(found
        .into_iter()
        .map(|(anchor, subset)| Key {
            relative_to: anchor.map(|a| paths.path(a)),
            paths: subset.into_iter().map(|p| paths.path(p)).collect(),
            target: target.clone(),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::UNIVERSITY_FDS;
    use crate::fixtures::university_dtd;

    fn p(s: &str) -> Path {
        s.parse().expect("path parses")
    }

    #[test]
    fn fd1_makes_cno_an_absolute_key() {
        let dtd = university_dtd();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        assert!(is_key(
            &dtd,
            &sigma,
            &[p("courses.course.@cno")],
            &p("courses.course")
        )
        .unwrap());
        // Without Σ, @cno is not a key.
        assert!(!is_key(
            &dtd,
            &XmlFdSet::new(),
            &[p("courses.course.@cno")],
            &p("courses.course")
        )
        .unwrap());
    }

    #[test]
    fn sno_is_relative_not_absolute() {
        let dtd = university_dtd();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        // Absolute: @sno alone does not identify the student node.
        assert!(!is_key(
            &dtd,
            &sigma,
            &[p("courses.course.taken_by.student.@sno")],
            &p("courses.course.taken_by.student")
        )
        .unwrap());
        // Relative to the course (FD2), it does.
        assert!(is_key(
            &dtd,
            &sigma,
            &[
                p("courses.course"),
                p("courses.course.taken_by.student.@sno")
            ],
            &p("courses.course.taken_by.student")
        )
        .unwrap());
        // And via FD1, {@cno, @sno} is an absolute key of student.
        assert!(is_key(
            &dtd,
            &sigma,
            &[
                p("courses.course.@cno"),
                p("courses.course.taken_by.student.@sno")
            ],
            &p("courses.course.taken_by.student")
        )
        .unwrap());
    }

    #[test]
    fn discovery_finds_the_published_keys() {
        let dtd = university_dtd();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        let course_keys = find_keys(&dtd, &sigma, &p("courses.course"), 2).unwrap();
        assert!(
            course_keys
                .iter()
                .any(|k| k.relative_to.is_none() && k.paths == vec![p("courses.course.@cno")]),
            "{course_keys:?}"
        );

        let student_keys =
            find_keys(&dtd, &sigma, &p("courses.course.taken_by.student"), 2).unwrap();
        // The absolute {@cno, @sno} key.
        assert!(student_keys.iter().any(|k| k.relative_to.is_none()
            && k.paths
                == vec![
                    p("courses.course.@cno"),
                    p("courses.course.taken_by.student.@sno")
                ]));
        // The relative {course; @sno} key.
        assert!(student_keys
            .iter()
            .any(|k| k.relative_to == Some(p("courses.course"))
                && k.paths == vec![p("courses.course.taken_by.student.@sno")]));
    }

    #[test]
    fn no_spurious_keys_without_sigma() {
        let dtd = university_dtd();
        let keys = find_keys(&dtd, &XmlFdSet::new(), &p("courses.course"), 2).unwrap();
        assert!(keys.is_empty(), "{keys:?}");
    }

    #[test]
    fn key_display() {
        let k = Key {
            relative_to: Some(p("courses.course")),
            paths: vec![p("courses.course.taken_by.student.@sno")],
            target: p("courses.course.taken_by.student"),
        };
        assert_eq!(
            k.to_string(),
            "{courses.course, courses.course.taken_by.student.@sno} -> courses.course.taken_by.student"
        );
    }

    #[test]
    fn non_element_target_rejected() {
        let dtd = university_dtd();
        assert!(find_keys(&dtd, &XmlFdSet::new(), &p("courses.course.@cno"), 1).is_err());
    }
}

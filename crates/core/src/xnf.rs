//! XNF — the XML normal form (Definition 8) — and anomalous FDs/paths.
//!
//! `(D, Σ)` is in XNF iff every non-trivial FD `S → p.@l` (or `S → p.S`)
//! in `(D, Σ)⁺` also has `S → p` in `(D, Σ)⁺`: whenever a set of values
//! determines an attribute or text value, it must determine the *node*
//! carrying it — otherwise the value is stored redundantly.
//!
//! Testing membership in `(D, Σ)⁺` for *all* implied FDs is not needed:
//! for relational DTDs (Proposition 10) — and every disjunctive DTD is
//! relational (Proposition 9) — it suffices to check the FDs **in Σ**.
//! That is what [`is_xnf`] does, making the test a quadratic number of
//! implication queries (Corollary 1's cubic bound for simple DTDs).

use crate::fd::{ResolvedFd, XmlFd, XmlFdSet};
use crate::implication::{Chase, Implication};
use crate::Result;
use std::collections::BTreeSet;
use xnf_dtd::{Dtd, Path, PathId, PathSet, Step};
use xnf_govern::{Budget, Exhausted};

/// A detected XNF violation: the witnessing anomalous FD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The anomalous FD `S → p.@l` (with a single right-hand path).
    pub fd: XmlFd,
    /// The anomalous path (the FD's right-hand side).
    pub path: Path,
}

/// Enumerates the anomalous FDs among (the singleton-RHS split of) `Σ`:
/// non-trivial `S → p.@l` / `S → p.S` in `Σ` with `S → p ∉ (D, Σ)⁺`.
///
/// By Proposition 10 this is exactly the XNF test for relational DTDs
/// (which include all simple and disjunctive DTDs, Proposition 9); for
/// non-relational DTDs the answer is sound for "violation found" and the
/// general test would additionally quantify over implied FDs.
pub fn anomalous_fds(dtd: &Dtd, sigma: &XmlFdSet) -> Result<Vec<Violation>> {
    anomalous_fds_governed(dtd, sigma, &Budget::unlimited())
}

/// Budget-governed [`anomalous_fds`]: implication queries charge `budget`
/// and the search aborts with [`CoreError::Exhausted`](crate::CoreError)
/// when it runs out. An `Err` means the verdict is *unknown* — never
/// "no violations".
pub fn anomalous_fds_governed(
    dtd: &Dtd,
    sigma: &XmlFdSet,
    budget: &Budget,
) -> Result<Vec<Violation>> {
    let paths = dtd.paths()?;
    let chase = Chase::new(dtd, &paths).with_budget(budget.clone());
    let resolved = sigma.resolve(&paths)?;
    let oracle = crate::implication::ImplicationCache::new(&chase, &resolved);
    crate::normalize::find_anomalous_fd(&oracle, &paths, &resolved, chase.budget())?
        .into_iter()
        .map(|(fd, p)| {
            Ok(Violation {
                fd: fd.to_fd(&paths),
                path: paths.path(p),
            })
        })
        .collect()
}

/// Tests one candidate of the anomalous-FD search: given `S → … q …` in
/// Σ with `q` a value path, returns `Some((S → q, q))` iff that FD is
/// anomalous — non-trivial with `S → parent(q) ∉ (D, Σ)⁺`.
pub(crate) fn anomalous_candidate(
    oracle: &impl Implication,
    paths: &PathSet,
    sigma: &[ResolvedFd],
    fd: &ResolvedFd,
    q: PathId,
    budget: &Budget,
) -> std::result::Result<Option<(ResolvedFd, PathId)>, Exhausted> {
    budget.checkpoint("xnf.candidate")?;
    let _span = budget.recorder().span("xnf.candidate", "xnf");
    // Only value paths (attributes / text) can be anomalous.
    if matches!(paths.step(q), Step::Elem(_)) {
        return Ok(None);
    }
    let single = ResolvedFd::from_ids(fd.lhs.iter().copied(), [q]);
    // Non-trivial: not implied by the DTD alone.
    if oracle.try_is_trivial(&single)? {
        return Ok(None);
    }
    // Σ ⊢ S → q holds by assumption (q ∈ rhs of an FD in Σ); the
    // XNF condition asks for S → parent(q).
    let parent = paths.parent(q).expect("value paths have parents");
    let node_fd = ResolvedFd::from_ids(fd.lhs.iter().copied(), [parent]);
    if !oracle.try_implies(sigma, &node_fd)? {
        Ok(Some((single, q)))
    } else {
        Ok(None)
    }
}

/// Whether `(D, Σ)` is in XNF (Definition 8, via the Proposition 10 test).
pub fn is_xnf(dtd: &Dtd, sigma: &XmlFdSet) -> Result<bool> {
    Ok(anomalous_fds(dtd, sigma)?.is_empty())
}

/// Budget-governed [`is_xnf`]. Returns
/// `Err(CoreError::Exhausted(..))` — never a wrong `bool` — when
/// `budget` runs out before the verdict is decided.
pub fn is_xnf_governed(dtd: &Dtd, sigma: &XmlFdSet, budget: &Budget) -> Result<bool> {
    Ok(anomalous_fds_governed(dtd, sigma, budget)?.is_empty())
}

/// The set of anomalous paths `AP(D, Σ)`: right-hand sides of anomalous
/// FDs. Proposition 6 guarantees every normalization step strictly
/// shrinks this set — the termination measure of the algorithm.
pub fn anomalous_paths(dtd: &Dtd, sigma: &XmlFdSet) -> Result<BTreeSet<Path>> {
    Ok(anomalous_fds(dtd, sigma)?
        .into_iter()
        .map(|v| v.path)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::{DBLP_FDS, UNIVERSITY_FDS};
    use crate::fixtures::{dblp_dtd, university_dtd};

    #[test]
    fn example_5_1_university_not_in_xnf() {
        let d = university_dtd();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        assert!(!is_xnf(&d, &sigma).unwrap());
        let violations = anomalous_fds(&d, &sigma).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(
            violations[0].path.to_string(),
            "courses.course.taken_by.student.name.S"
        );
        let ap = anomalous_paths(&d, &sigma).unwrap();
        assert_eq!(ap.len(), 1);
    }

    #[test]
    fn example_5_2_dblp_not_in_xnf() {
        let d = dblp_dtd();
        let sigma = XmlFdSet::parse(DBLP_FDS).unwrap();
        assert!(!is_xnf(&d, &sigma).unwrap());
        let violations = anomalous_fds(&d, &sigma).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(
            violations[0].path.to_string(),
            "db.conf.issue.inproceedings.@year"
        );
    }

    #[test]
    fn keys_are_not_anomalous() {
        // FD1 and FD2 alone (keys) leave the design in XNF.
        let d = university_dtd();
        let sigma = XmlFdSet::parse(
            "courses.course.@cno -> courses.course
             courses.course, courses.course.taken_by.student.@sno -> courses.course.taken_by.student",
        )
        .unwrap();
        assert!(is_xnf(&d, &sigma).unwrap());
    }

    #[test]
    fn trivial_fds_never_anomalous() {
        // p.@l → p.@l is trivial and must not flag a violation even though
        // p.@l → p usually fails (the remark after Definition 8).
        let d = university_dtd();
        let sigma = XmlFdSet::parse("courses.course.@cno -> courses.course.@cno").unwrap();
        assert!(is_xnf(&d, &sigma).unwrap());
    }

    #[test]
    fn empty_sigma_is_xnf() {
        let d = university_dtd();
        assert!(is_xnf(&d, &XmlFdSet::new()).unwrap());
    }

    #[test]
    fn revised_dblp_is_in_xnf() {
        // Example 5.2's fix: year becomes an attribute of issue; FD5 turns
        // into the trivial issue → issue.@year and is dropped.
        let d = xnf_dtd::parse_dtd(
            "<!ELEMENT db (conf*)>
             <!ELEMENT conf (title, issue+)>
             <!ELEMENT title (#PCDATA)>
             <!ELEMENT issue (inproceedings+)>
             <!ATTLIST issue year CDATA #REQUIRED>
             <!ELEMENT inproceedings (author+, title, booktitle)>
             <!ATTLIST inproceedings
                 key CDATA #REQUIRED
                 pages CDATA #REQUIRED>
             <!ELEMENT author (#PCDATA)>
             <!ELEMENT booktitle (#PCDATA)>",
        )
        .unwrap();
        let sigma = XmlFdSet::parse("db.conf.title.S -> db.conf").unwrap();
        assert!(is_xnf(&d, &sigma).unwrap());
        // And the would-be FD issue → issue.@year is trivial now, hence
        // harmless even if stated.
        let sigma2 = XmlFdSet::parse(
            "db.conf.title.S -> db.conf
             db.conf.issue -> db.conf.issue.@year",
        )
        .unwrap();
        assert!(is_xnf(&d, &sigma2).unwrap());
    }

    #[test]
    fn revised_university_is_in_xnf() {
        // The Example 1.1(b) DTD with the info/number structure, FDs from
        // Example 5.1.
        let d = xnf_dtd::parse_dtd(
            "<!ELEMENT courses (course*, info*)>
             <!ELEMENT course (title, taken_by)>
             <!ATTLIST course cno CDATA #REQUIRED>
             <!ELEMENT title (#PCDATA)>
             <!ELEMENT taken_by (student*)>
             <!ELEMENT student (grade)>
             <!ATTLIST student sno CDATA #REQUIRED>
             <!ELEMENT grade (#PCDATA)>
             <!ELEMENT info (number*, name)>
             <!ELEMENT number EMPTY>
             <!ATTLIST number sno CDATA #REQUIRED>
             <!ELEMENT name (#PCDATA)>",
        )
        .unwrap();
        let sigma = XmlFdSet::parse(
            "courses.course.@cno -> courses.course
             courses.course, courses.course.taken_by.student.@sno -> courses.course.taken_by.student
             courses.info.number.@sno -> courses.info",
        )
        .unwrap();
        assert!(is_xnf(&d, &sigma).unwrap());
    }

    #[test]
    fn governed_is_xnf_agrees_or_errs_never_lies() {
        let d = university_dtd();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        let truth = is_xnf(&d, &sigma).unwrap();
        // Generous budget: same verdict as ungoverned.
        let generous = Budget::builder().fuel(10_000_000).build();
        assert_eq!(is_xnf_governed(&d, &sigma, &generous).unwrap(), truth);
        // Starving budgets: every outcome is either the true verdict or a
        // structured Exhausted error — never the opposite verdict.
        for fuel in 1..200 {
            let tight = Budget::builder().fuel(fuel).build();
            match is_xnf_governed(&d, &sigma, &tight) {
                Ok(v) => assert_eq!(v, truth, "fuel={fuel} produced a wrong verdict"),
                Err(crate::CoreError::Exhausted(_)) => {}
                Err(e) => panic!("fuel={fuel}: unexpected error {e}"),
            }
        }
    }
}

//! Counterexample construction and search.
//!
//! When the chase reaches a consistent fixpoint, this module turns the
//! symbolic state into an *actual* witness document and verifies it
//! end-to-end: the document conforms to the DTD, satisfies `Σ`, and
//! violates the candidate FD. A verified witness is a machine-checked
//! proof of non-implication, so together with the chase's sound
//! contradiction proofs we get certified answers in both directions —
//! this is what the crate's validation tests and `EXPERIMENTS.md` measure.
//!
//! [`CounterexampleSearch::find_exhaustive`] additionally enumerates all
//! combinations of exclusive-disjunction choices (the source of
//! coNP-hardness, Theorem 5): its running time grows with `N_D`, which the
//! `exp10` bench demonstrates against the polynomial chase.

use crate::fd::ResolvedFd;
use crate::implication::chase::{Chase, ChaseOutcome, Ternary};
use crate::tuple::TreeTuple;
use crate::tuples::{trees_d, tuples_d};
use crate::UNLIMITED;
use xnf_dtd::glushkov::{Marks, PositionTree};
use xnf_dtd::{Dtd, PathId, PathSet};
use xnf_relational::Value;
use xnf_xml::{NodeId, XmlTree};

/// The most symbols [`arrange`] tries for one node of a witness.
const LAYOUT_STEPS: usize = 4096;

/// A verified witness of non-implication.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The witness document: `T ⊨ D`, `T ⊨ Σ`, `T ⊭ φ`.
    pub tree: XmlTree,
}

/// Builds and verifies counterexamples for non-implied FDs.
#[derive(Debug)]
pub struct CounterexampleSearch<'a> {
    dtd: &'a Dtd,
    paths: &'a PathSet,
    chase: Chase<'a>,
}

impl<'a> CounterexampleSearch<'a> {
    /// Creates a search engine over `(D, paths(D))`.
    pub fn new(dtd: &'a Dtd, paths: &'a PathSet) -> CounterexampleSearch<'a> {
        CounterexampleSearch {
            dtd,
            paths,
            chase: Chase::new(dtd, paths),
        }
    }

    /// Creates a search engine with an ablated chase configuration — used
    /// by the Theorem 5 experiment: with the completeness rules disabled,
    /// certifying an implication degenerates into exhausting the
    /// counterexample space, whose size `N_D` measures.
    pub fn with_config(
        dtd: &'a Dtd,
        paths: &'a PathSet,
        config: crate::implication::ChaseConfig,
    ) -> CounterexampleSearch<'a> {
        CounterexampleSearch {
            dtd,
            paths,
            chase: Chase::with_config(dtd, paths, config),
        }
    }

    /// The underlying chase engine.
    pub fn chase(&self) -> &Chase<'a> {
        &self.chase
    }

    /// Runs the chase; on a consistent fixpoint, constructs a witness
    /// document and verifies it. Returns `Some` only for a fully verified
    /// counterexample.
    pub fn find(&self, sigma: &[ResolvedFd], fd: &ResolvedFd) -> Option<Counterexample> {
        // A counterexample must refute some single RHS path.
        for &q in &fd.rhs {
            let single = ResolvedFd::from_ids(fd.lhs.iter().copied(), [q]);
            if let ChaseOutcome::NotImplied(_) = self.chase.run(sigma, &single) {
                // Try a *minimal* witness first (only the spine of the
                // premise and goal is materialized): it triggers the
                // fewest Σ-FDs. Fall back to the maximal witness.
                for maximal in [false, true] {
                    if let Some(tree) = self.construct(sigma, &single.lhs, q, &|_, _| None, maximal)
                    {
                        if self.verify(&tree, sigma, &single) {
                            return Some(Counterexample { tree });
                        }
                    }
                }
            }
        }
        None
    }

    /// Exhaustively enumerates exclusive-disjunction member choices (per
    /// group and side) on top of the chase-guided construction, verifying
    /// each candidate; `max_candidates` bounds the enumeration. This is
    /// the coNP-style search of Theorem 5 — exponential in the number of
    /// unrestricted disjunctions (which `N_D` measures).
    pub fn find_exhaustive(
        &self,
        sigma: &[ResolvedFd],
        fd: &ResolvedFd,
        max_candidates: usize,
    ) -> Option<Counterexample> {
        for &q in &fd.rhs {
            let single = ResolvedFd::from_ids(fd.lhs.iter().copied(), [q]);
            if matches!(self.chase.run(sigma, &single), ChaseOutcome::Implied) {
                continue;
            }
            // Choice points: one per (group instance, side).
            let mut group_points: Vec<(PathId, usize)> = Vec::new();
            for p in self.paths.iter() {
                if let Some(members) = self.chase.path_group(p) {
                    if members[0] == p {
                        group_points.push((p, members.len()));
                        group_points.push((p, members.len()));
                    }
                }
            }
            let mut counter = vec![0usize; group_points.len()];
            for _ in 0..max_candidates {
                let choices = counter.clone();
                let points = group_points.clone();
                let overrides = move |side: usize, member: PathId| -> Option<usize> {
                    let mut seen = 0usize;
                    for ((key, _), choice) in points.iter().zip(&choices) {
                        if *key == member {
                            if seen == side {
                                return Some(*choice);
                            }
                            seen += 1;
                        }
                    }
                    None
                };
                for maximal in [false, true] {
                    if let Some(tree) = self.construct(sigma, &single.lhs, q, &overrides, maximal) {
                        if self.verify(&tree, sigma, &single) {
                            return Some(Counterexample { tree });
                        }
                    }
                }
                // Mixed-radix increment; stop after a full cycle.
                let mut i = 0;
                loop {
                    if i == counter.len() {
                        counter.clear();
                        break;
                    }
                    counter[i] += 1;
                    if counter[i] < group_points[i].1 {
                        break;
                    }
                    counter[i] = 0;
                    i += 1;
                }
                if counter.is_empty() {
                    break;
                }
            }
        }
        None
    }

    /// Chase-guided witness construction.
    ///
    /// Opens an incremental [`crate::implication::chase::Session`], installs
    /// the refutation goal, then walks `paths(D)` top-down deciding, for
    /// each side, whether each path is materialized. Every decision is an
    /// *assumption* fed back into the chase, so its consequences (FDs
    /// firing on newly non-null premises, forced sharing of functional
    /// children, disjunction exclusions) propagate before values are
    /// assigned. Decisions that contradict are undone (the path is left
    /// null); required structure that contradicts aborts the construction.
    ///
    /// `group_override(side, first_member)` pins the member chosen for an
    /// exclusive disjunction group, for the exhaustive search.
    fn construct(
        &self,
        sigma: &[ResolvedFd],
        lhs: &[PathId],
        q: PathId,
        group_override: &dyn Fn(usize, PathId) -> Option<usize>,
        maximal: bool,
    ) -> Option<XmlTree> {
        let paths = self.paths;
        let mut sess = self.chase.session();
        if !sess.assume_goal(sigma, lhs, q) {
            return None;
        }
        // The *spine*: prefixes of the premise and goal paths. In minimal
        // mode only the spine is materialized among optional structure —
        // every other Σ-FD premise then stays null, so cross-tuple
        // interactions the two-tuple chase cannot see do not arise.
        let mut spine = vec![false; paths.len()];
        for &sp in lhs.iter().chain([&q]) {
            let mut cur = Some(sp);
            while let Some(c) = cur {
                spine[c.index()] = true;
                cur = paths.parent(c);
            }
        }

        // Decide materialization top-down. Paths are BFS-ordered, so a
        // path's parent is decided before the path itself.
        for p in paths.iter() {
            if !paths.is_element_path(p) {
                continue; // attribute/text nulls follow their parent via rules
            }
            for side in 0..2 {
                if sess.get(p).n(side) != Ternary::False {
                    continue; // p is not (known) materialized on this side
                }
                // Decide this node's children.
                let mut groups_done: Vec<PathId> = Vec::new();
                for cp in paths.children_of(p) {
                    match sess.get(cp).n(side) {
                        Ternary::True | Ternary::False => continue, // already decided
                        Ternary::Unknown => {}
                    }
                    if let Some(members) = self.chase.path_group(cp) {
                        let key = members[0];
                        if groups_done.contains(&key) {
                            continue;
                        }
                        groups_done.push(key);
                        let members = members.to_vec();
                        // Choose one member to materialize: an override, a
                        // member the chase already forced, or the first
                        // that can be assumed non-null without
                        // contradiction.
                        let pinned =
                            group_override(side, key).and_then(|ix| members.get(ix).copied());
                        let forced = members
                            .iter()
                            .copied()
                            .find(|&m| sess.get(m).n(side) == Ternary::False);
                        let spine_member = members.iter().copied().find(|&m| spine[m.index()]);
                        let mut chosen: Option<PathId> = None;
                        let mut candidates: Vec<PathId> = match (pinned, forced) {
                            (_, Some(f)) => vec![f],
                            (Some(pin), None) => vec![pin],
                            (None, None) => match spine_member {
                                Some(m) => vec![m],
                                None if maximal => members.clone(),
                                // Minimal mode: leave the group out
                                // entirely if the DTD allows it (the
                                // exclude-all branch below); otherwise
                                // fall back to any member.
                                None => Vec::new(),
                            },
                        };
                        if candidates.is_empty() {
                            // Probe whether excluding everything works.
                            let snapshot = sess.clone();
                            let mut ok = true;
                            for m in &members {
                                if sess.get(*m).n(side) == Ternary::Unknown
                                    && !sess.assume_null(sigma, side, *m, true)
                                {
                                    ok = false;
                                    break;
                                }
                            }
                            if ok {
                                continue;
                            }
                            sess = snapshot;
                            candidates = members.clone();
                        }
                        for m in candidates {
                            if sess.get(m).n(side) == Ternary::True {
                                continue;
                            }
                            let snapshot = sess.clone();
                            if sess.assume_null(sigma, side, m, false) {
                                chosen = Some(m);
                                break;
                            }
                            sess = snapshot;
                        }
                        if chosen.is_none() {
                            // Exclude the whole group (allowed only for
                            // nullable groups; a required group would
                            // have forced a member or contradicted).
                            for m in &members {
                                if sess.get(*m).n(side) == Ternary::Unknown
                                    && !sess.assume_null(sigma, side, *m, true)
                                {
                                    return None;
                                }
                            }
                        }
                        continue;
                    }
                    // Plain optional child: materialize spine paths (and
                    // everything, in maximal mode); otherwise leave the
                    // subtree out. Back off on contradiction either way.
                    let prefer_include = maximal || spine[cp.index()];
                    let snapshot = sess.clone();
                    if !sess.assume_null(sigma, side, cp, !prefer_include) {
                        sess = snapshot;
                        if !sess.assume_null(sigma, side, cp, prefer_include) {
                            return None;
                        }
                    }
                }
            }
        }
        // Sharing pass: an element path whose `eq` is still unknown can
        // usually be *merged* into one node — merging collapses cross
        // tuples (the pairs the two-tuple abstraction cannot see), so it
        // is always the safer choice; the session rejects the merge
        // whenever some derived fact forces a difference. String values
        // are left distinct unless a rule forces them equal: shared
        // values would only enlarge the set of firing FD premises.
        for p in paths.iter() {
            if !paths.is_element_path(p) {
                continue;
            }
            let st = sess.get(p);
            if st.eq != Ternary::Unknown || st.n1 != Ternary::False || st.n2 != Ternary::False {
                continue;
            }
            let snapshot = sess.clone();
            if !sess.assume_eq(sigma, p, true) {
                sess = snapshot;
                if !sess.assume_eq(sigma, p, false) {
                    return None;
                }
            }
        }

        // Close out: any still-unknown null status means the subtree was
        // never reached (excluded ancestor); mark null for value
        // assignment symmetry.
        for p in paths.iter() {
            for side in 0..2 {
                if sess.get(p).n(side) == Ternary::Unknown {
                    let snapshot = sess.clone();
                    if !sess.assume_null(sigma, side, p, true) {
                        sess = snapshot;
                        if !sess.assume_null(sigma, side, p, false) {
                            return None;
                        }
                    }
                }
            }
        }
        if sess.contradiction() {
            return None;
        }

        // Assign values from the refined state: eq = True shares a
        // vertex/string, anything else gets fresh distinct values.
        let mut t1 = TreeTuple::empty(paths.len());
        let mut t2 = TreeTuple::empty(paths.len());
        let mut next_vert: u64 = 0;
        let mut next_str: u64 = 0;
        for p in paths.iter() {
            let st = sess.get(p);
            let inc0 = st.n1 == Ternary::False;
            let inc1 = st.n2 == Ternary::False;
            if !inc0 && !inc1 {
                continue;
            }
            if paths.is_element_path(p) {
                if st.eq == Ternary::True && inc0 && inc1 {
                    let v = Value::Vert(next_vert);
                    next_vert += 1;
                    t1.set(p, v.clone());
                    t2.set(p, v);
                } else {
                    if inc0 {
                        t1.set(p, Value::Vert(next_vert));
                        next_vert += 1;
                    }
                    if inc1 {
                        t2.set(p, Value::Vert(next_vert));
                        next_vert += 1;
                    }
                }
            } else if st.eq == Ternary::True && inc0 && inc1 {
                let v = Value::str(format!("s{next_str}"));
                next_str += 1;
                t1.set(p, v.clone());
                t2.set(p, v);
            } else {
                if inc0 {
                    t1.set(p, Value::str(format!("s{next_str}")));
                    next_str += 1;
                }
                if inc1 {
                    t2.set(p, Value::str(format!("s{next_str}")));
                    next_str += 1;
                }
            }
        }
        let mut tree = trees_d(&[t1, t2], paths).ok()?;
        self.lay_out(&mut tree);
        Some(tree)
    }

    /// Puts each node's children in the first order [`arrange`] finds:
    /// `trees_d` orders them by path, so under `(a, b, a*)` two `a`
    /// children read `a a b`. An order the model accepts is found first.
    fn lay_out(&self, tree: &mut XmlTree) {
        for v in tree.node_ids().collect::<Vec<_>>() {
            let content = self.dtd.elem_id(tree.label(v)).map(|e| self.dtd.content(e));
            let Some(Ok(model)) = content
                .and_then(|c| c.as_regex())
                .map(|re| PositionTree::new(re, UNLIMITED))
            else {
                continue;
            };
            let (mut kids, mut steps) = (tree.children(v).to_vec(), LAYOUT_STEPS);
            if arrange(&model, tree, &Marks::default(), &mut kids, &mut steps) {
                tree.sort_children_by_key(v, |c| kids.iter().position(|k| k == c));
            }
        }
    }

    /// Full end-to-end verification of a candidate witness.
    fn verify(&self, tree: &XmlTree, sigma: &[ResolvedFd], fd: &ResolvedFd) -> bool {
        if xnf_xml::conforms(tree, self.dtd).is_err() {
            return false;
        }
        let Ok(tuples) = tuples_d(tree, self.dtd, self.paths) else {
            return false;
        };
        sigma.iter().all(|s| s.check_tuples(&tuples)) && !fd.check_tuples(&tuples)
    }
}

/// Whether `kids` can follow a prefix that left `marks` in an order
/// `model` accepts; if so, puts them in the first one a depth-first search
/// over viable prefixes finds, trying each label once per place with its
/// first child in `kids`. Spends one of `steps` per symbol tried.
fn arrange(
    model: &PositionTree,
    tree: &XmlTree,
    marks: &Marks,
    kids: &mut [NodeId],
    steps: &mut usize,
) -> bool {
    if kids.is_empty() {
        return model.accepts(marks);
    }
    for i in 0..kids.len() {
        let label = tree.label(kids[i]);
        if kids[..i].iter().any(|&d| tree.label(d) == label) {
            continue;
        }
        let Some(left) = steps.checked_sub(1) else {
            return false;
        };
        let mut next = marks.clone();
        *steps = left;
        if model.step(&mut next, label) {
            kids[..=i].rotate_right(1);
            if arrange(model, tree, &next, &mut kids[1..], steps) {
                return true;
            }
            kids[..=i].rotate_left(1);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::{XmlFd, XmlFdSet, DBLP_FDS, UNIVERSITY_FDS};
    use crate::fixtures::{dblp_dtd, university_dtd};
    use crate::implication::Implication;

    /// For every non-implied FD the chase reports, `find` must produce a
    /// verified witness; for every implied FD it must not.
    fn check(dtd: &Dtd, sigma_text: &str, fd_text: &str, expect_implied: bool) {
        let paths = dtd.paths().unwrap();
        let sigma = XmlFdSet::parse(sigma_text)
            .unwrap()
            .resolve(&paths)
            .unwrap();
        let fd = XmlFd::parse(fd_text).unwrap().resolve(&paths).unwrap();
        let search = CounterexampleSearch::new(dtd, &paths);
        let implied = search.chase().implies(&sigma, &fd);
        assert_eq!(implied, expect_implied, "chase verdict for {fd_text}");
        let witness = search.find(&sigma, &fd);
        if implied {
            assert!(witness.is_none(), "witness for an implied FD {fd_text}");
        } else {
            assert!(
                witness.is_some(),
                "no verified counterexample for non-implied {fd_text}"
            );
        }
    }

    #[test]
    fn university_witnesses() {
        let d = university_dtd();
        check(
            &d,
            UNIVERSITY_FDS,
            "courses.course.taken_by.student.@sno -> courses.course.taken_by.student",
            false,
        );
        check(
            &d,
            UNIVERSITY_FDS,
            "courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name.S",
            true,
        );
        check(&d, "", "courses.course.@cno -> courses.course", false);
        check(
            &d,
            "courses.course.@cno -> courses.course",
            "courses.course.@cno -> courses.course.title.S",
            true,
        );
        check(&d, "", "courses -> courses.course", false);
        check(&d, "", "courses.course -> courses.course.title.S", true);
    }

    #[test]
    fn dblp_witnesses() {
        let d = dblp_dtd();
        check(
            &d,
            DBLP_FDS,
            "db.conf.issue -> db.conf.issue.inproceedings",
            false,
        );
        check(
            &d,
            DBLP_FDS,
            "db.conf.issue -> db.conf.issue.inproceedings.@year",
            true,
        );
        check(&d, "", "db.conf.title.S -> db.conf", false);
        check(&d, DBLP_FDS, "db.conf.title.S -> db.conf", true);
    }

    #[test]
    fn disjunction_witnesses() {
        // The disjunction sits under a starred parent, so distinct e nodes
        // choose (a | b) independently.
        let d = xnf_dtd::parse_dtd(
            "<!ELEMENT r (e*)>
             <!ELEMENT e (x, (a | b))>
             <!ELEMENT x EMPTY> <!ATTLIST x v CDATA #REQUIRED>
             <!ELEMENT a EMPTY> <!ATTLIST a w CDATA #REQUIRED>
             <!ELEMENT b EMPTY>",
        )
        .unwrap();
        check(&d, "", "r.e.a -> r.e.b", true); // same e ⇒ b absent
        check(&d, "", "r.e.x.@v -> r.e.a.@w", false);
        check(&d, "", "r.e -> r.e.x.@v", true);
        check(&d, "", "r.e.x.@v -> r.e.x", false);
        // Declaring @v a key of e makes the branch choice shared too.
        check(&d, "r.e.x.@v -> r.e", "r.e.x.@v -> r.e.a.@w", true);
    }

    #[test]
    fn witness_children_form_a_word_of_the_content_model() {
        // `trees_d` orders children by path, so both `a`s come before
        // `b`: a word of `(a*, b)`, which keeps that order, but not of
        // `(a, b, a*)`, which needs `a b a`.
        for (model, layout) in [
            ("(a, b, a*)", ["a", "b", "a"]),
            ("(a*, b)", ["a", "a", "b"]),
        ] {
            let d = xnf_dtd::parse_dtd(&format!(
                "<!ELEMENT r {model}>
                 <!ELEMENT a EMPTY> <!ATTLIST a x CDATA #REQUIRED>
                 <!ELEMENT b EMPTY>"
            ))
            .unwrap();
            check(&d, "", "r.a.@x -> r.a", false);
            let paths = d.paths().unwrap();
            let fd = XmlFd::parse("r.a.@x -> r.a")
                .unwrap()
                .resolve(&paths)
                .unwrap();
            let w = CounterexampleSearch::new(&d, &paths)
                .find(&[], &fd)
                .unwrap();
            let labels: Vec<&str> = w
                .tree
                .children(w.tree.root())
                .iter()
                .map(|&c| w.tree.label(c))
                .collect();
            assert_eq!(labels, layout, "{model}");
        }
    }

    #[test]
    fn exhaustive_agrees_with_fast_path() {
        let d = university_dtd();
        let paths = d.paths().unwrap();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS)
            .unwrap()
            .resolve(&paths)
            .unwrap();
        let fd =
            XmlFd::parse("courses.course.taken_by.student.@sno -> courses.course.taken_by.student")
                .unwrap()
                .resolve(&paths)
                .unwrap();
        let search = CounterexampleSearch::new(&d, &paths);
        assert!(search.find(&sigma, &fd).is_some());
        assert!(search.find_exhaustive(&sigma, &fd, 10_000).is_some());
    }

    #[test]
    fn witness_documents_are_small_and_valid() {
        let d = university_dtd();
        let paths = d.paths().unwrap();
        let fd = XmlFd::parse("courses.course.@cno -> courses.course")
            .unwrap()
            .resolve(&paths)
            .unwrap();
        let search = CounterexampleSearch::new(&d, &paths);
        let w = search.find(&[], &fd).unwrap();
        // Two courses with the same cno but different nodes.
        assert!(xnf_xml::conforms(&w.tree, &d).is_ok());
        assert!(w.tree.num_nodes() <= 24, "witness should be small");
    }
}

//! `tuples_D(T)` (Definition 6) and `trees_D(X)` (Definition 7).
//!
//! `tuples_D(T)` is the set of maximal tree tuples whose tree
//! representation is subsumed by `T`. Operationally: walk `T` guided by
//! `paths(D)`; at a node with several children of one label, a maximal
//! tuple picks exactly one of them, so the tuple set is the product of the
//! choices (this is the total-unnesting view of the document and can be
//! exponential in the document depth-width profile — the paper's
//! relational representation, not a storage format).
//!
//! `trees_D(X)` merges a `D`-compatible set of tuples back into the
//! (unique up to `≡`) minimal tree containing them all; Theorem 1 states
//! `trees_D(tuples_D(T)) = [T]`.

use crate::tuple::TreeTuple;
use crate::{CoreError, Result};
use std::collections::HashMap;
use xnf_dtd::{Dtd, PathId, PathSet, Step};
use xnf_relational::{Relation, Value};
use xnf_xml::{NodeId, XmlTree};

/// Computes `tuples_D(T)` for a tree compatible with `dtd`.
///
/// Fails with [`CoreError::NotCompatible`] when `paths(T) ⊄ paths(D)`.
pub fn tuples_d(tree: &XmlTree, dtd: &Dtd, paths: &PathSet) -> Result<Vec<TreeTuple>> {
    if !xnf_xml::compatible(tree, dtd) {
        return Err(CoreError::NotCompatible);
    }
    let assignments = expand(tree, paths, paths.root(), tree.root());
    let mut out = Vec::with_capacity(assignments.len());
    for a in assignments {
        let mut t = TreeTuple::empty(paths.len());
        for (p, v) in a {
            t.set(p, v);
        }
        debug_assert!(t.validate(paths).is_ok());
        out.push(t);
    }
    // The product construction yields pairwise ⊑-incomparable tuples, so
    // no maximality filtering is needed; keep the set deduplicated and
    // deterministic.
    out.sort();
    out.dedup();
    Ok(out)
}

/// All ways to extend a tuple below path `p`, whose value is node `v`.
/// Each alternative is a list of `(path, value)` bindings.
fn expand(tree: &XmlTree, paths: &PathSet, p: PathId, v: NodeId) -> Vec<Vec<(PathId, Value)>> {
    let mut alts: Vec<Vec<(PathId, Value)>> = vec![vec![(p, Value::Vert(v.index() as u64))]];
    for cp in paths.children_of(p) {
        match paths.step(cp) {
            Step::Attr(name) => {
                if let Some(val) = tree.attr(v, name) {
                    for a in &mut alts {
                        a.push((cp, Value::str(val)));
                    }
                }
            }
            Step::Text => {
                if let Some(text) = tree.text(v) {
                    for a in &mut alts {
                        a.push((cp, Value::str(text)));
                    }
                }
            }
            Step::Elem(name) => {
                let candidates = tree.children_labelled(v, name);
                if candidates.is_empty() {
                    continue;
                }
                // A maximal tuple picks exactly one child with this label;
                // branch over the candidates (product with the
                // alternatives accumulated so far).
                let mut sub: Vec<Vec<(PathId, Value)>> = Vec::new();
                for w in candidates {
                    sub.extend(expand(tree, paths, cp, w));
                }
                let mut next = Vec::with_capacity(alts.len() * sub.len());
                for a in &alts {
                    for s in &sub {
                        let mut combined = a.clone();
                        combined.extend(s.iter().cloned());
                        next.push(combined);
                    }
                }
                alts = next;
            }
        }
    }
    alts
}

/// Computes `tuples_D(T)` for a (possibly) **recursive** DTD by
/// enumerating `paths(D)` only to the depth the document actually
/// realizes. The returned [`PathSet`] is the finite window used; all
/// tuple values beyond it would be `⊥` anyway, so FD satisfaction over
/// paths within the window coincides with the unbounded semantics.
pub fn tuples_d_recursive(tree: &XmlTree, dtd: &Dtd) -> Result<(PathSet, Vec<TreeTuple>)> {
    // Deepest realized path: element depth + 1 for an attribute/S step.
    let depth = tree
        .descendants()
        .iter()
        .map(|&v| tree.depth(v))
        .max()
        .unwrap_or(1)
        + 1;
    let paths = dtd.paths_bounded(depth);
    let tuples = tuples_d(tree, dtd, &paths)?;
    Ok((paths, tuples))
}

/// `tuples_D(T)` as a Codd table: one column per path (named by the path's
/// text form, in BFS order), one row per maximal tree tuple. This is the
/// relation on which Section 4 defines FD satisfaction and Section 6
/// runs the losslessness queries.
pub fn tuples_relation(tree: &XmlTree, dtd: &Dtd, paths: &PathSet) -> Result<Relation> {
    let tuples = tuples_d(tree, dtd, paths)?;
    let columns: Vec<String> = paths.iter().map(|p| paths.format(p)).collect();
    let mut rel = Relation::new(columns)
        .map_err(|e| CoreError::InconsistentTuples(format!("duplicate path column: {e}")))?;
    for t in tuples {
        rel.insert(t.values().to_vec())
            .expect("row arity equals the path count by construction");
    }
    Ok(rel)
}

/// `trees_D(X)` (Definition 7) for a `D`-compatible set of tuples: the
/// minimal tree containing every `tree_D(t)`, `t ∈ X`. Returns the unique
/// representative (up to `≡`) with children ordered deterministically, or
/// an error if the tuples cannot be merged into one tree.
pub fn trees_d(tuples: &[TreeTuple], paths: &PathSet) -> Result<XmlTree> {
    if tuples.is_empty() {
        return Err(CoreError::InconsistentTuples("empty tuple set".into()));
    }
    for t in tuples {
        t.validate(paths)?;
    }
    let root_vert = match tuples[0].get(paths.root()) {
        Value::Vert(v) => *v,
        _ => unreachable!("validated tuples have vertex roots"),
    };
    // Gather per-vertex facts, checking consistency across tuples.
    struct VertInfo {
        path: PathId,
        parent: Option<u64>,
        attrs: HashMap<Box<str>, Box<str>>,
        text: Option<Box<str>>,
    }
    let mut verts: HashMap<u64, VertInfo> = HashMap::new();
    for t in tuples {
        if t.get(paths.root()) != &Value::Vert(root_vert) {
            return Err(CoreError::InconsistentTuples(
                "tuples have distinct roots".into(),
            ));
        }
        for p in paths.iter() {
            let value = t.get(p);
            if value.is_null() {
                continue;
            }
            match (paths.step(p), value) {
                (Step::Elem(_), Value::Vert(v)) => {
                    let parent = paths.parent(p).map(|pp| match t.get(pp) {
                        Value::Vert(pv) => *pv,
                        _ => unreachable!("null propagation validated"),
                    });
                    let info = verts.entry(*v).or_insert(VertInfo {
                        path: p,
                        parent,
                        attrs: HashMap::new(),
                        text: None,
                    });
                    if info.path != p || info.parent != parent {
                        return Err(CoreError::InconsistentTuples(format!(
                            "vertex v{v} occurs at two positions"
                        )));
                    }
                }
                (Step::Attr(name), Value::Str(s)) => {
                    let parent = paths.parent(p).expect("attribute paths have parents");
                    let pv = match t.get(parent) {
                        Value::Vert(pv) => *pv,
                        _ => unreachable!("null propagation validated"),
                    };
                    let info = verts.get_mut(&pv).expect("parent processed (BFS order)");
                    if let Some(prev) = info.attrs.insert(name.clone(), s.clone()) {
                        if prev != *s {
                            return Err(CoreError::InconsistentTuples(format!(
                                "conflicting values for @{name} on v{pv}"
                            )));
                        }
                    }
                }
                (Step::Text, Value::Str(s)) => {
                    let parent = paths.parent(p).expect("text paths have parents");
                    let pv = match t.get(parent) {
                        Value::Vert(pv) => *pv,
                        _ => unreachable!("null propagation validated"),
                    };
                    let info = verts.get_mut(&pv).expect("parent processed (BFS order)");
                    match &info.text {
                        Some(prev) if prev != s => {
                            return Err(CoreError::InconsistentTuples(format!(
                                "conflicting text for v{pv}"
                            )))
                        }
                        _ => info.text = Some(s.clone()),
                    }
                }
                _ => unreachable!("validated tuples are sort-consistent"),
            }
        }
    }
    // Build the tree: create vertices in (path, vertex) order so parents
    // precede children and the result is deterministic.
    let mut order: Vec<(&u64, &VertInfo)> = verts.iter().collect();
    order.sort_by_key(|(v, info)| (info.path, **v));
    let root_label = match paths.step(paths.root()) {
        Step::Elem(n) => n.clone(),
        _ => unreachable!("the root path is an element path"),
    };
    let mut tree = XmlTree::new(root_label);
    let mut node_of: HashMap<u64, NodeId> = HashMap::new();
    node_of.insert(root_vert, tree.root());
    for (&v, info) in order {
        let node = if v == root_vert {
            tree.root()
        } else {
            let parent_vert = info.parent.ok_or_else(|| {
                CoreError::InconsistentTuples(format!("vertex v{v} has no parent"))
            })?;
            let parent_node = *node_of.get(&parent_vert).ok_or_else(|| {
                CoreError::InconsistentTuples(format!("vertex v{v} has an unknown parent"))
            })?;
            let label = match paths.step(info.path) {
                Step::Elem(n) => n.clone(),
                _ => unreachable!("vertices live at element paths"),
            };
            let node = tree.add_child(parent_node, label);
            node_of.insert(v, node);
            node
        };
        for (name, value) in &info.attrs {
            tree.set_attr(node, name.clone(), value.clone());
        }
        if let Some(text) = &info.text {
            tree.set_text(node, text.clone());
        }
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{dblp_doc, dblp_dtd, figure_1a, university_dtd};

    #[test]
    fn figure_1a_has_four_tuples() {
        // 2 courses × 2 students each = 4 maximal tuples.
        let d = university_dtd();
        let ps = d.paths().unwrap();
        let tuples = tuples_d(&figure_1a(), &d, &ps).unwrap();
        assert_eq!(tuples.len(), 4);
        for t in &tuples {
            t.validate(&ps).unwrap();
            // Every tuple is fully non-null on this document.
            assert!(ps.iter().all(|p| !t.get(p).is_null()));
        }
    }

    #[test]
    fn tuples_are_pairwise_incomparable() {
        let d = university_dtd();
        let ps = d.paths().unwrap();
        let tuples = tuples_d(&figure_1a(), &d, &ps).unwrap();
        for (i, t1) in tuples.iter().enumerate() {
            for (j, t2) in tuples.iter().enumerate() {
                if i != j {
                    assert!(!t1.subsumed_by(t2), "tuple {i} ⊑ tuple {j}");
                }
            }
        }
    }

    #[test]
    fn theorem_1_round_trip_university() {
        let d = university_dtd();
        let ps = d.paths().unwrap();
        let t = figure_1a();
        let tuples = tuples_d(&t, &d, &ps).unwrap();
        let rebuilt = trees_d(&tuples, &ps).unwrap();
        assert!(xnf_xml::unordered_eq(&t, &rebuilt));
    }

    #[test]
    fn theorem_1_round_trip_dblp() {
        let d = dblp_dtd();
        let ps = d.paths().unwrap();
        let t = dblp_doc();
        let tuples = tuples_d(&t, &d, &ps).unwrap();
        // 2 authors × 1 + 1 + 1: issue1 has p1 (2 authors) and p2 (1), so
        // tuples for conf: issue choices... each tuple picks one issue, one
        // inproceedings, one author: issue1→p1→{Fan,Libkin}, issue1→p2,
        // issue2→p3 ⇒ 4 tuples.
        assert_eq!(tuples.len(), 4);
        let rebuilt = trees_d(&tuples, &ps).unwrap();
        assert!(xnf_xml::unordered_eq(&t, &rebuilt));
    }

    #[test]
    fn incompatible_tree_rejected() {
        let d = university_dtd();
        let ps = d.paths().unwrap();
        let t = xnf_xml::parse("<courses><oops/></courses>").unwrap();
        assert!(matches!(
            tuples_d(&t, &d, &ps),
            Err(CoreError::NotCompatible)
        ));
    }

    #[test]
    fn partial_documents_yield_null_tuples() {
        // A compatible (not conforming) document missing grades.
        let d = university_dtd();
        let ps = d.paths().unwrap();
        let t = xnf_xml::parse(
            r#"<courses><course cno="c1"><title>T</title><taken_by>
               <student sno="s1"><name>N</name></student>
               </taken_by></course></courses>"#,
        )
        .unwrap();
        let tuples = tuples_d(&t, &d, &ps).unwrap();
        assert_eq!(tuples.len(), 1);
        let grade = ps
            .resolve_str("courses.course.taken_by.student.grade")
            .unwrap();
        assert!(tuples[0].get(grade).is_null());
        let sno = ps
            .resolve_str("courses.course.taken_by.student.@sno")
            .unwrap();
        assert_eq!(tuples[0].get(sno), &Value::str("s1"));
    }

    #[test]
    fn proposition_2_monotonicity() {
        // T₁ ⊑ T₂ implies tuples(T₁) ⊑° tuples(T₂): every tuple of the
        // smaller document is subsumed by some tuple of the larger one.
        let d = university_dtd();
        let ps = d.paths().unwrap();
        let small = xnf_xml::parse(
            r#"<courses><course cno="csc200"><title>Automata Theory</title><taken_by>
               <student sno="st1"><name>Deere</name><grade>A+</grade></student>
               </taken_by></course></courses>"#,
        )
        .unwrap();
        let big = figure_1a();
        let small_tuples = tuples_d(&small, &d, &ps).unwrap();
        // Vertex ids are arena indices, which differ between the two
        // documents; compare on the string-valued paths only (the
        // information content).
        let str_paths: Vec<_> = ps.iter().filter(|&p| !ps.is_element_path(p)).collect();
        let big_tuples = tuples_d(&big, &d, &ps).unwrap();
        for st in &small_tuples {
            assert!(big_tuples.iter().any(|bt| str_paths
                .iter()
                .all(|&p| st.get(p).is_null() || st.get(p) == bt.get(p))));
        }
    }

    #[test]
    fn tuples_relation_has_path_columns() {
        let d = university_dtd();
        let ps = d.paths().unwrap();
        let rel = tuples_relation(&figure_1a(), &d, &ps).unwrap();
        assert_eq!(rel.len(), 4);
        assert_eq!(rel.columns().len(), ps.len());
        assert!(rel
            .columns()
            .iter()
            .any(|c| c == "courses.course.taken_by.student.@sno"));
        // FD3 holds on this document: sno → name.S.
        assert!(rel
            .satisfies_fd(
                &["courses.course.taken_by.student.@sno"],
                &["courses.course.taken_by.student.name.S"]
            )
            .unwrap());
        // sno does not determine grade.
        assert!(!rel
            .satisfies_fd(
                &["courses.course.taken_by.student.@sno"],
                &["courses.course.taken_by.student.grade.S"]
            )
            .unwrap());
    }

    #[test]
    fn trees_d_detects_conflicts() {
        let d = university_dtd();
        let ps = d.paths().unwrap();
        let tuples = tuples_d(&figure_1a(), &d, &ps).unwrap();
        // Corrupt one tuple: same student vertex, different name text.
        let mut bad = tuples.clone();
        let name_s = ps
            .resolve_str("courses.course.taken_by.student.name.S")
            .unwrap();
        let mut t = bad[0].clone();
        t.set(name_s, Value::str("Changed"));
        bad.push(t);
        assert!(matches!(
            trees_d(&bad, &ps),
            Err(CoreError::InconsistentTuples(_))
        ));
    }

    #[test]
    fn trees_d_of_disjoint_roots_rejected() {
        let d = university_dtd();
        let ps = d.paths().unwrap();
        let mut t1 = TreeTuple::empty(ps.len());
        t1.set(ps.root(), Value::Vert(0));
        let mut t2 = TreeTuple::empty(ps.len());
        t2.set(ps.root(), Value::Vert(1));
        assert!(matches!(
            trees_d(&[t1, t2], &ps),
            Err(CoreError::InconsistentTuples(_))
        ));
    }

    #[test]
    fn recursive_dtd_bounded_tuples_and_fds() {
        // <!ELEMENT r (part*)> <!ELEMENT part (part*)> with @id, @owner:
        // paths(D) is infinite; the bounded window still decides FDs on
        // the realized paths.
        let d = xnf_dtd::Dtd::builder("r")
            .elem("r", xnf_dtd::Regex::elem("part").star())
            .elem_attrs("part", xnf_dtd::Regex::elem("part").star(), ["id", "owner"])
            .build()
            .unwrap();
        assert!(d.is_recursive());
        let t = xnf_xml::parse(
            r#"<r>
              <part id="p1" owner="alice"><part id="p2" owner="alice"/></part>
              <part id="p3" owner="bob"><part id="p2" owner="alice"/></part>
            </r>"#,
        )
        .unwrap();
        let (paths, tuples) = tuples_d_recursive(&t, &d).unwrap();
        assert!(paths.truncated());
        // Two top parts × one nested each = 2 maximal tuples.
        assert_eq!(tuples.len(), 2);
        // FD at depth 2: @id → @owner holds (both p2 entries agree).
        let fd: crate::fd::XmlFd = "r.part.part.@id -> r.part.part.@owner".parse().unwrap();
        assert!(fd.resolve(&paths).unwrap().check_tuples(&tuples));
        // FD at depth 1: @owner → @id fails (alice owns p1 and... p1/p3
        // differ by owner; use owner alice: only p1 at depth 1 → holds;
        // make it fail via id → owner? ids distinct → holds). Check a
        // violated one: depth-1 @owner alice vs bob distinct — instead
        // assert the cross-depth distinction: the SAME attribute name at
        // different depths is a different path.
        let d1: crate::fd::XmlFd = "r.part.@id -> r.part.@owner".parse().unwrap();
        assert!(d1.resolve(&paths).unwrap().check_tuples(&tuples));
        // Theorem 1 round trip still works in the window.
        let rebuilt = trees_d(&tuples, &paths).unwrap();
        assert!(xnf_xml::unordered_eq(&rebuilt, &t));
    }

    #[test]
    fn trees_d_of_a_subset_embeds_in_original() {
        let d = university_dtd();
        let ps = d.paths().unwrap();
        let t = figure_1a();
        let tuples = tuples_d(&t, &d, &ps).unwrap();
        let partial = trees_d(&tuples[..2], &ps).unwrap();
        assert!(xnf_xml::embeds_in(&partial, &t));
    }
}

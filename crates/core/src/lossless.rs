//! Lossless decompositions — Section 6.
//!
//! The paper defines `(D₁,Σ₁) ≼ (D₂,Σ₂)` via relational algebra queries
//! `Q₁, Q₁', Q₂` making the `tuples_D` diagram commute (Proposition 8
//! proves each normalization step is lossless in this sense). This module
//! realizes the definition *constructively*: every [`Step`] of the
//! decomposition algorithm has a document-level transformation
//! ([`apply_step`]) and an inverse ([`undo_step`]); the inverse plays the
//! role of `Q₁'∘Q₂` and [`verify_lossless`] checks the diagram on a
//! concrete document — forward-transform, conformance + Σ' satisfaction,
//! backward-transform, and equality with the original as unordered trees
//! (which entails equality of the `tuples_D` relations up to node ids;
//! the node ids are exactly what `Q₂` discards).

use crate::fd::XmlFdSet;
use crate::normalize::{NormalizeResult, Step};
use crate::tuples::tuples_d;
use crate::{CoreError, Result};
use std::collections::HashMap;
use xnf_dtd::{Dtd, Path, Step as PathStep};
use xnf_xml::{NodeContent, NodeId, XmlTree};

use xnf_xml::nodes_at;

/// Deep-copies `tree` while letting `edit` adjust each node: returning
/// `false` drops the node (and its subtree).
fn rebuild(
    tree: &XmlTree,
    keep: &impl Fn(&XmlTree, NodeId) -> bool,
    extra_attrs: &HashMap<NodeId, Vec<(String, String)>>,
    drop_attrs: &HashMap<NodeId, Vec<String>>,
) -> XmlTree {
    fn copy(
        src: &XmlTree,
        dst: &mut XmlTree,
        src_node: NodeId,
        dst_node: NodeId,
        keep: &impl Fn(&XmlTree, NodeId) -> bool,
        extra_attrs: &HashMap<NodeId, Vec<(String, String)>>,
        drop_attrs: &HashMap<NodeId, Vec<String>>,
    ) {
        let dropped = drop_attrs.get(&src_node);
        for (name, value) in src.attrs(src_node) {
            if dropped.is_some_and(|d| d.iter().any(|a| a == name)) {
                continue;
            }
            dst.set_attr(dst_node, name, value);
        }
        if let Some(extra) = extra_attrs.get(&src_node) {
            for (name, value) in extra {
                dst.set_attr(dst_node, name.as_str(), value.as_str());
            }
        }
        match src.content(src_node) {
            NodeContent::Text(s) => dst.set_text(dst_node, s.clone()),
            NodeContent::Children(children) => {
                for &c in children {
                    if !keep(src, c) {
                        continue;
                    }
                    let new_child = dst.add_child(dst_node, src.label(c));
                    copy(src, dst, c, new_child, keep, extra_attrs, drop_attrs);
                }
            }
        }
    }
    let mut out = XmlTree::new(tree.label(tree.root()));
    let root = out.root();
    copy(
        tree,
        &mut out,
        tree.root(),
        root,
        keep,
        extra_attrs,
        drop_attrs,
    );
    out
}

/// The co-occurrence table of two paths: for each non-null pair
/// `(t.a, t.b)` over `tuples_D(T)`, the pairs of values.
fn co_occurrences(
    tree: &XmlTree,
    dtd: &Dtd,
    a: &Path,
    b: &Path,
) -> Result<Vec<(xnf_relational::Value, xnf_relational::Value)>> {
    let paths = dtd.paths()?;
    let pa = paths
        .resolve(a)
        .ok_or_else(|| xnf_dtd::DtdError::NoSuchPath(a.to_string()))?;
    let pb = paths
        .resolve(b)
        .ok_or_else(|| xnf_dtd::DtdError::NoSuchPath(b.to_string()))?;
    let tuples = tuples_d(tree, dtd, &paths)?;
    let mut out = Vec::new();
    for t in &tuples {
        let va = t.get(pa);
        let vb = t.get(pb);
        if !va.is_null() && !vb.is_null() {
            out.push((va.clone(), vb.clone()));
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// Applies one schema-transformation [`Step`] to a document that conforms
/// to the *before* DTD, producing a document for the *after* DTD.
pub fn apply_step(dtd_before: &Dtd, tree: &XmlTree, step: &Step) -> Result<XmlTree> {
    match step {
        Step::FoldText { elem_path, attr } => {
            let parent_path = elem_path.parent().expect("folded element has a parent");
            let PathStep::Elem(folded_label) = elem_path.last() else {
                unreachable!("FoldText records an element path");
            };
            let mut extra: HashMap<NodeId, Vec<(String, String)>> = HashMap::new();
            let mut drop_nodes: Vec<NodeId> = Vec::new();
            for v in nodes_at(tree, &parent_path) {
                let kids = tree.children_labelled(v, folded_label);
                let Some(&child) = kids.first() else {
                    return Err(CoreError::UnrepresentableNull {
                        path: elem_path.to_string(),
                    });
                };
                let text = tree.text(child).unwrap_or("");
                extra
                    .entry(v)
                    .or_default()
                    .push((attr.clone(), text.to_string()));
                drop_nodes.extend(kids);
            }
            Ok(rebuild(
                tree,
                &|_, n| !drop_nodes.contains(&n),
                &extra,
                &HashMap::new(),
            ))
        }
        Step::AddId { elem_path, attr } => {
            let mut extra: HashMap<NodeId, Vec<(String, String)>> = HashMap::new();
            for (i, v) in nodes_at(tree, elem_path).into_iter().enumerate() {
                extra
                    .entry(v)
                    .or_default()
                    .push((attr.clone(), format!("id{i}")));
            }
            Ok(rebuild(tree, &|_, _| true, &extra, &HashMap::new()))
        }
        Step::MoveAttribute { from, to, new_attr } => {
            // For every q-node, the value of p.@l is unique over the
            // tuples through it (q → S → p.@l); materialize via
            // co-occurrences of q and p.@l.
            let q_nodes = nodes_at(tree, to);
            let pairs = co_occurrences(tree, dtd_before, to, from)?;
            let mut value_of: HashMap<u64, String> = HashMap::new();
            for (qv, av) in pairs {
                let (xnf_relational::Value::Vert(q), xnf_relational::Value::Str(a)) = (qv, av)
                else {
                    continue;
                };
                if let Some(prev) = value_of.insert(q, a.to_string()) {
                    if prev != *value_of.get(&q).expect("just inserted") {
                        return Err(CoreError::InconsistentTuples(format!(
                            "document violates {to} -> {from}"
                        )));
                    }
                }
            }
            let p_path = from.parent().expect("attribute paths have parents");
            let PathStep::Attr(old_attr) = from.last() else {
                unreachable!("MoveAttribute records an attribute path");
            };
            let mut extra: HashMap<NodeId, Vec<(String, String)>> = HashMap::new();
            for v in q_nodes {
                let value = value_of.get(&(v.index() as u64)).ok_or_else(|| {
                    CoreError::UnrepresentableNull {
                        path: from.to_string(),
                    }
                })?;
                extra
                    .entry(v)
                    .or_default()
                    .push((new_attr.clone(), value.clone()));
            }
            let mut drops: HashMap<NodeId, Vec<String>> = HashMap::new();
            for v in nodes_at(tree, &p_path) {
                drops.entry(v).or_default().push(old_attr.to_string());
            }
            Ok(rebuild(tree, &|_, _| true, &extra, &drops))
        }
        Step::CreateElement {
            q,
            lhs_attrs,
            value_attr,
            tau,
            tau_children,
        } => {
            // Gather, per q-node, the projection of tuples_D(T) onto
            // (p₁.@l₁, …, pₙ.@lₙ, p.@l).
            let paths = dtd_before.paths()?;
            let resolve = |p: &Path| {
                paths
                    .resolve(p)
                    .ok_or_else(|| xnf_dtd::DtdError::NoSuchPath(p.to_string()))
            };
            let q_id = resolve(q)?;
            let lhs_ids: Vec<_> = lhs_attrs
                .iter()
                .map(resolve)
                .collect::<std::result::Result<_, _>>()?;
            let value_id = resolve(value_attr)?;
            let tuples = tuples_d(tree, dtd_before, &paths)?;
            // rows[q_vert] = set of (lhs values, value).
            let mut rows: HashMap<u64, Vec<(Vec<String>, String)>> = HashMap::new();
            for t in &tuples {
                let xnf_relational::Value::Vert(qv) = t.get(q_id) else {
                    continue;
                };
                let xnf_relational::Value::Str(value) = t.get(value_id) else {
                    continue; // footnote-1 null: contributes no τ entry
                };
                let mut lhs_vals = Vec::with_capacity(lhs_ids.len());
                let mut complete = true;
                for &l in &lhs_ids {
                    match t.get(l) {
                        xnf_relational::Value::Str(s) => lhs_vals.push(s.to_string()),
                        _ => {
                            complete = false;
                            break;
                        }
                    }
                }
                if !complete {
                    continue;
                }
                let entry = rows.entry(*qv).or_default();
                let row = (lhs_vals, value.to_string());
                if !entry.contains(&row) {
                    entry.push(row);
                }
            }
            // Drop @l from p-nodes; then rebuild and append τ subtrees
            // under each q-node.
            let p_path = value_attr.parent().expect("attribute paths have parents");
            let PathStep::Attr(old_attr) = value_attr.last() else {
                unreachable!("CreateElement records an attribute path");
            };
            let mut drops: HashMap<NodeId, Vec<String>> = HashMap::new();
            for v in nodes_at(tree, &p_path) {
                drops.entry(v).or_default().push(old_attr.to_string());
            }
            let mut out = rebuild(tree, &|_, _| true, &HashMap::new(), &drops);
            // Node ids survive `rebuild` only when nothing is dropped —
            // which holds here (attribute drops don't change the shape),
            // so q-node ids map 1:1 in allocation order.
            let q_nodes_src = nodes_at(tree, q);
            let q_nodes_dst = nodes_at(&out, q);
            debug_assert_eq!(q_nodes_src.len(), q_nodes_dst.len());
            let attr_names: Vec<String> = lhs_attrs
                .iter()
                .map(|p| match p.last() {
                    PathStep::Attr(a) => a.to_string(),
                    _ => unreachable!("LHS attribute paths"),
                })
                .collect();
            let PathStep::Attr(value_name) = value_attr.last() else {
                unreachable!("value path is an attribute path");
            };
            for (src, dst) in q_nodes_src.iter().zip(&q_nodes_dst) {
                let Some(entries) = rows.get(&(src.index() as u64)) else {
                    continue;
                };
                if lhs_attrs.len() == 1 {
                    // Group by value (the paper's info/number layout: all
                    // the @l₁ keys sharing one value live under one τ).
                    let mut by_value: Vec<(String, Vec<String>)> = Vec::new();
                    for (lhs_vals, value) in entries {
                        match by_value.iter_mut().find(|(v, _)| v == value) {
                            Some((_, keys)) => {
                                if !keys.contains(&lhs_vals[0]) {
                                    keys.push(lhs_vals[0].clone());
                                }
                            }
                            None => by_value.push((value.clone(), vec![lhs_vals[0].clone()])),
                        }
                    }
                    by_value.sort();
                    for (value, mut keys) in by_value {
                        keys.sort();
                        let tau_node = out.add_child(*dst, tau.as_str());
                        out.set_attr(tau_node, value_name.clone(), value);
                        for key in keys {
                            let child = out.add_child(tau_node, tau_children[0].as_str());
                            out.set_attr(child, attr_names[0].as_str(), key);
                        }
                    }
                } else {
                    // n ≠ 1: one τ node per distinct LHS combination (the
                    // safe grouping for composite determinants — see
                    // DESIGN.md).
                    let mut sorted = entries.clone();
                    sorted.sort();
                    for (lhs_vals, value) in sorted {
                        let tau_node = out.add_child(*dst, tau.as_str());
                        out.set_attr(tau_node, value_name.clone(), value);
                        for ((child_name, attr_name), v) in
                            tau_children.iter().zip(&attr_names).zip(&lhs_vals)
                        {
                            let child = out.add_child(tau_node, child_name.as_str());
                            out.set_attr(child, attr_name.as_str(), v.as_str());
                        }
                    }
                }
            }
            Ok(out)
        }
    }
}

/// Inverts one [`Step`] on a document conforming to the *after* DTD.
pub fn undo_step(dtd_after: &Dtd, tree: &XmlTree, step: &Step) -> Result<XmlTree> {
    match step {
        Step::FoldText { elem_path, attr } => {
            let parent_path = elem_path.parent().expect("folded element has a parent");
            let PathStep::Elem(folded_label) = elem_path.last() else {
                unreachable!("FoldText records an element path");
            };
            let mut drops: HashMap<NodeId, Vec<String>> = HashMap::new();
            let mut texts: HashMap<NodeId, String> = HashMap::new();
            for v in nodes_at(tree, &parent_path) {
                let value = tree
                    .attr(v, attr)
                    .ok_or_else(|| CoreError::UnrepresentableNull {
                        path: format!("{parent_path}.@{attr}"),
                    })?;
                drops.entry(v).or_default().push(attr.clone());
                texts.insert(v, value.to_string());
            }
            let mut out = rebuild(tree, &|_, _| true, &HashMap::new(), &drops);
            for (src, dst) in nodes_at(tree, &parent_path)
                .iter()
                .zip(nodes_at(&out, &parent_path))
            {
                let child = out.add_child(dst, folded_label.clone());
                let text = &texts[src];
                if !text.is_empty() {
                    out.set_text(child, text.as_str());
                }
            }
            Ok(out)
        }
        Step::AddId { elem_path, attr } => {
            let mut drops: HashMap<NodeId, Vec<String>> = HashMap::new();
            for v in nodes_at(tree, elem_path) {
                drops.entry(v).or_default().push(attr.clone());
            }
            Ok(rebuild(tree, &|_, _| true, &HashMap::new(), &drops))
        }
        Step::MoveAttribute { from, to, new_attr } => {
            // Restore @l on each p-node from the @m of any co-occurring
            // q-node (unique by q → p.@l; see Section 6).
            let p_path = from.parent().expect("attribute paths have parents");
            let PathStep::Attr(old_attr) = from.last() else {
                unreachable!("MoveAttribute records an attribute path");
            };
            let new_path = to.child_attr(new_attr.as_str());
            let pairs = co_occurrences(tree, dtd_after, &p_path, &new_path)?;
            let mut value_of: HashMap<u64, String> = HashMap::new();
            for (pv, mv) in pairs {
                let (xnf_relational::Value::Vert(p), xnf_relational::Value::Str(m)) = (pv, mv)
                else {
                    continue;
                };
                value_of.entry(p).or_insert_with(|| m.to_string());
            }
            let mut extra: HashMap<NodeId, Vec<(String, String)>> = HashMap::new();
            for v in nodes_at(tree, &p_path) {
                let value = value_of.get(&(v.index() as u64)).ok_or_else(|| {
                    CoreError::UnrepresentableNull {
                        path: from.to_string(),
                    }
                })?;
                extra
                    .entry(v)
                    .or_default()
                    .push((old_attr.to_string(), value.clone()));
            }
            let mut drops: HashMap<NodeId, Vec<String>> = HashMap::new();
            for v in nodes_at(tree, to) {
                drops.entry(v).or_default().push(new_attr.clone());
            }
            Ok(rebuild(tree, &|_, _| true, &extra, &drops))
        }
        Step::CreateElement {
            q,
            lhs_attrs,
            value_attr,
            tau,
            tau_children,
        } => {
            // Rebuild the (q-node, lhs-values) → value mapping from the τ
            // subtrees, restore @l on the matching p-nodes, drop the τs.
            let attr_names: Vec<String> = lhs_attrs
                .iter()
                .map(|p| match p.last() {
                    PathStep::Attr(a) => a.to_string(),
                    _ => unreachable!("LHS attribute paths"),
                })
                .collect();
            let PathStep::Attr(value_name) = value_attr.last() else {
                unreachable!("value path is an attribute path");
            };
            // mapping[(q_vert, lhs values)] = value.
            let mut mapping: HashMap<(u64, Vec<String>), String> = HashMap::new();
            for v in nodes_at(tree, q) {
                for &t in &tree.children_labelled(v, tau) {
                    let value = tree.attr(t, value_name).unwrap_or("").to_string();
                    if lhs_attrs.len() == 1 {
                        for &c in &tree.children_labelled(t, tau_children[0].as_str()) {
                            let key = tree.attr(c, attr_names[0].as_str()).unwrap_or("");
                            mapping
                                .insert((v.index() as u64, vec![key.to_string()]), value.clone());
                        }
                    } else {
                        let mut combo = Vec::with_capacity(tau_children.len());
                        for (child_name, attr_name) in tau_children.iter().zip(&attr_names) {
                            let c = tree
                                .children_labelled(t, child_name.as_str())
                                .first()
                                .copied();
                            combo.push(
                                c.and_then(|c| tree.attr(c, attr_name.as_str()))
                                    .unwrap_or("")
                                    .to_string(),
                            );
                        }
                        mapping.insert((v.index() as u64, combo), value.clone());
                    }
                }
            }
            // For each tuple through a p-node, look up the value.
            let paths = dtd_after.paths()?;
            let p_path = value_attr.parent().expect("attribute paths have parents");
            let resolve = |p: &Path| {
                paths
                    .resolve(p)
                    .ok_or_else(|| xnf_dtd::DtdError::NoSuchPath(p.to_string()))
            };
            let q_id = resolve(q)?;
            let p_id = resolve(&p_path)?;
            let lhs_ids: Vec<_> = lhs_attrs
                .iter()
                .map(resolve)
                .collect::<std::result::Result<_, _>>()?;
            let tuples = tuples_d(tree, dtd_after, &paths)?;
            let mut restored: HashMap<u64, String> = HashMap::new();
            for t in &tuples {
                let (xnf_relational::Value::Vert(qv), xnf_relational::Value::Vert(pv)) =
                    (t.get(q_id), t.get(p_id))
                else {
                    continue;
                };
                let mut combo = Vec::with_capacity(lhs_ids.len());
                let mut complete = true;
                for &l in &lhs_ids {
                    match t.get(l) {
                        xnf_relational::Value::Str(s) => combo.push(s.to_string()),
                        _ => {
                            complete = false;
                            break;
                        }
                    }
                }
                if !complete {
                    continue;
                }
                if let Some(value) = mapping.get(&(*qv, combo)) {
                    restored.entry(*pv).or_insert_with(|| value.clone());
                }
            }
            let mut extra: HashMap<NodeId, Vec<(String, String)>> = HashMap::new();
            for v in nodes_at(tree, &p_path) {
                let value = restored.get(&(v.index() as u64)).ok_or_else(|| {
                    CoreError::UnrepresentableNull {
                        path: value_attr.to_string(),
                    }
                })?;
                extra
                    .entry(v)
                    .or_default()
                    .push((value_name.to_string(), value.clone()));
            }
            Ok(rebuild(
                tree,
                &|t, n| t.label(n) != tau.as_str(),
                &extra,
                &HashMap::new(),
            ))
        }
    }
}

/// The steps of `result`, each with the `(D, Σ)` snapshot taken after it.
/// Refuses a result that does not hold exactly one snapshot per step (one
/// normalized with `record_stages` off): a shorter zip would silently
/// replay only a prefix of the steps, and pair steps with the wrong DTDs
/// when walked backwards.
fn staged_steps(
    result: &NormalizeResult,
) -> Result<impl DoubleEndedIterator<Item = (&Step, &(Dtd, XmlFdSet))>> {
    if result.stages.len() != result.steps.len() {
        return Err(CoreError::MissingStages {
            steps: result.steps.len(),
            stages: result.stages.len(),
        });
    }
    Ok(result.steps.iter().zip(&result.stages))
}

/// Forward-applies all steps of a normalization to a document.
pub fn transform_document(dtd0: &Dtd, result: &NormalizeResult, tree: &XmlTree) -> Result<XmlTree> {
    let mut current = tree.clone();
    let mut dtd_before = dtd0.clone();
    for (step, (dtd_after, _)) in staged_steps(result)? {
        current = apply_step(&dtd_before, &current, step)?;
        dtd_before = dtd_after.clone();
    }
    Ok(current)
}

/// Backward-applies all steps, reconstructing the original document.
pub fn restore_document(result: &NormalizeResult, transformed: &XmlTree) -> Result<XmlTree> {
    let mut current = transformed.clone();
    for (step, (dtd_after, _)) in staged_steps(result)?.rev() {
        current = undo_step(dtd_after, &current, step)?;
    }
    Ok(current)
}

/// The outcome of a losslessness check on one document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LosslessReport {
    /// The transformed document conforms to the revised DTD.
    pub conforms: bool,
    /// The transformed document satisfies the revised Σ.
    pub satisfies_sigma: bool,
    /// The inverse transformation reconstructs the original document up to
    /// unordered-tree equivalence `≡` — the commuting `tuples_D` diagram
    /// of Section 6, realized constructively.
    pub round_trip: bool,
}

impl LosslessReport {
    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.conforms && self.satisfies_sigma && self.round_trip
    }
}

/// Checks losslessness of a whole normalization run on a concrete
/// document: `T ⊨ (D₁, Σ₁)` must map to some `T' ⊨ (D₂, Σ₂)` from which
/// `T` is reconstructible (Proposition 8).
pub fn verify_lossless(
    dtd0: &Dtd,
    result: &NormalizeResult,
    tree: &XmlTree,
) -> Result<LosslessReport> {
    let transformed = transform_document(dtd0, result, tree)?;
    let conforms = xnf_xml::conforms(&transformed, &result.dtd).is_ok();
    let paths = result.dtd.paths()?;
    let satisfies_sigma = result
        .sigma
        .satisfied_by(&transformed, &result.dtd, &paths)?;
    let restored = restore_document(result, &transformed)?;
    let round_trip = xnf_xml::unordered_eq(&restored, tree);
    Ok(LosslessReport {
        conforms,
        satisfies_sigma,
        round_trip,
    })
}

/// The outcome of one [`Step`] of a traced losslessness check
/// (see [`verify_lossless_trace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReport {
    /// Position of the step in `result.steps`.
    pub index: usize,
    /// The step itself (cloned, so the report is self-contained).
    pub step: Step,
    /// Whether this step's stage snapshot is exact. Preprocessing batches
    /// share one post-batch `(D, Σ)` snapshot (see
    /// [`normalize`](crate::normalize::normalize)), so only the last step
    /// of a batch can be checked against its snapshot; the conformance and
    /// Σ checks of inexact steps are vacuously `true`.
    pub exact_stage: bool,
    /// The intermediate document conforms to this stage's DTD.
    pub conforms: bool,
    /// The intermediate document satisfies this stage's Σ.
    pub satisfies_sigma: bool,
    /// Undoing just this step reproduces the step's input document (up to
    /// unordered-tree equivalence).
    pub round_trip: bool,
}

impl StepReport {
    /// Whether every per-step check passed.
    pub fn ok(&self) -> bool {
        self.conforms && self.satisfies_sigma && self.round_trip
    }
}

/// Step-by-step reconstruction trace: applies each [`Step`] in turn and
/// checks, *per step*, conformance to the stage DTD, satisfaction of the
/// stage Σ, and the local round trip `undo(apply(T)) ≡ T`.
///
/// [`verify_lossless`] only reports the end-to-end verdict; when it fails,
/// this trace localizes the first offending step — the fuzz driver attaches
/// it to failure reports.
pub fn verify_lossless_trace(
    dtd0: &Dtd,
    result: &NormalizeResult,
    tree: &XmlTree,
) -> Result<Vec<StepReport>> {
    let mut reports = Vec::with_capacity(result.steps.len());
    let mut current = tree.clone();
    let mut dtd_before = dtd0.clone();
    for (index, (step, (dtd_after, sigma_after))) in staged_steps(result)?.enumerate() {
        let next = apply_step(&dtd_before, &current, step)?;
        // Consecutive identical snapshots mark a batched preprocessing
        // group: only its last step sees the state the snapshot records.
        let exact_stage = result
            .stages
            .get(index + 1)
            .is_none_or(|(d, s)| d != dtd_after || s != sigma_after);
        let (conforms, satisfies_sigma) = if exact_stage {
            let paths = dtd_after.paths()?;
            (
                xnf_xml::conforms(&next, dtd_after).is_ok(),
                sigma_after.satisfied_by(&next, dtd_after, &paths)?,
            )
        } else {
            (true, true)
        };
        let undone = undo_step(dtd_after, &next, step)?;
        let round_trip = xnf_xml::unordered_eq(&undone, &current);
        reports.push(StepReport {
            index,
            step: step.clone(),
            exact_stage,
            conforms,
            satisfies_sigma,
            round_trip,
        });
        current = next;
        dtd_before = dtd_after.clone();
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::{XmlFdSet, DBLP_FDS, UNIVERSITY_FDS};
    use crate::fixtures::{dblp_doc, dblp_dtd, figure_1a, university_dtd};
    use crate::normalize::{normalize, NormalizeOptions};

    #[test]
    fn dblp_document_transformation_matches_paper() {
        let dtd = dblp_dtd();
        let sigma = XmlFdSet::parse(DBLP_FDS).unwrap();
        let result = normalize(&dtd, &sigma, &NormalizeOptions::default()).unwrap();
        let doc = dblp_doc();
        let transformed = transform_document(&dtd, &result, &doc).unwrap();
        // year now sits on issue.
        let issue = transformed.descend(&["conf", "issue"]).unwrap();
        assert_eq!(transformed.attr(issue, "year"), Some("2001"));
        let inproc = transformed
            .descend(&["conf", "issue", "inproceedings"])
            .unwrap();
        assert_eq!(transformed.attr(inproc, "year"), None);
        assert!(xnf_xml::conforms(&transformed, &result.dtd).is_ok());
    }

    #[test]
    fn dblp_round_trip_is_lossless() {
        let dtd = dblp_dtd();
        let sigma = XmlFdSet::parse(DBLP_FDS).unwrap();
        let result = normalize(&dtd, &sigma, &NormalizeOptions::default()).unwrap();
        let report = verify_lossless(&dtd, &result, &dblp_doc()).unwrap();
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn university_document_transformation_matches_figure_1b() {
        let dtd = university_dtd();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        let result = normalize(&dtd, &sigma, &NormalizeOptions::default()).unwrap();
        let doc = figure_1a();
        let transformed = transform_document(&dtd, &result, &doc).unwrap();
        assert!(xnf_xml::conforms(&transformed, &result.dtd).is_ok());
        // Students keep sno, lose the name child.
        let student = transformed
            .descend(&["course", "taken_by", "student"])
            .unwrap();
        assert!(transformed.children_labelled(student, "name").is_empty());
        assert!(transformed.attr(student, "sno").is_some());
        // Info nodes under the root: one for Deere {st1}, one for Smith
        // {st2, st3} — exactly the grouping of Figure 1(b).
        let root = transformed.root();
        let infos = transformed.children_labelled(root, "info");
        assert_eq!(infos.len(), 2);
        let mut summary: Vec<(String, Vec<String>)> = infos
            .iter()
            .map(|&i| {
                let name = transformed.attr(i, "name").unwrap().to_string();
                let mut snos: Vec<String> = transformed
                    .children(i)
                    .iter()
                    .map(|&c| transformed.attr(c, "sno").unwrap().to_string())
                    .collect();
                snos.sort();
                (name, snos)
            })
            .collect();
        summary.sort();
        assert_eq!(
            summary,
            vec![
                ("Deere".to_string(), vec!["st1".to_string()]),
                (
                    "Smith".to_string(),
                    vec!["st2".to_string(), "st3".to_string()]
                ),
            ]
        );
    }

    #[test]
    fn university_round_trip_is_lossless() {
        let dtd = university_dtd();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        let result = normalize(&dtd, &sigma, &NormalizeOptions::default()).unwrap();
        let report = verify_lossless(&dtd, &result, &figure_1a()).unwrap();
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn round_trip_preserves_tuples_projection() {
        // The Q₂-style check: the string-valued projection of tuples_D(T)
        // is preserved through the round trip.
        let dtd = university_dtd();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        let result = normalize(&dtd, &sigma, &NormalizeOptions::default()).unwrap();
        let doc = figure_1a();
        let transformed = transform_document(&dtd, &result, &doc).unwrap();
        let restored = restore_document(&result, &transformed).unwrap();
        let ps = dtd.paths().unwrap();
        let rel_before = crate::tuples::tuples_relation(&doc, &dtd, &ps).unwrap();
        let rel_after = crate::tuples::tuples_relation(&restored, &dtd, &ps).unwrap();
        let string_cols: Vec<String> = ps
            .iter()
            .filter(|&p| !ps.is_element_path(p))
            .map(|p| ps.format(p))
            .collect();
        assert_eq!(
            rel_before.project(&string_cols).unwrap(),
            rel_after.project(&string_cols).unwrap()
        );
    }

    #[test]
    fn trace_localizes_every_step_as_lossless() {
        for (dtd, fds, doc) in [
            (university_dtd(), UNIVERSITY_FDS, figure_1a()),
            (dblp_dtd(), DBLP_FDS, dblp_doc()),
        ] {
            let sigma = XmlFdSet::parse(fds).unwrap();
            let result = normalize(&dtd, &sigma, &NormalizeOptions::default()).unwrap();
            let trace = verify_lossless_trace(&dtd, &result, &doc).unwrap();
            assert_eq!(trace.len(), result.steps.len());
            for report in &trace {
                assert!(report.ok(), "step {} failed: {report:?}", report.index);
            }
        }
    }

    #[test]
    fn lossless_on_larger_synthetic_document() {
        // More courses, shared student names, shared numbers across
        // courses.
        let dtd = university_dtd();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        let result = normalize(&dtd, &sigma, &NormalizeOptions::default()).unwrap();
        let mut xml = String::from("<courses>");
        for c in 0..6 {
            xml.push_str(&format!(
                r#"<course cno="c{c}"><title>T{c}</title><taken_by>"#
            ));
            for s in 0..4 {
                let sno = (c + s) % 8;
                xml.push_str(&format!(
                    r#"<student sno="st{sno}"><name>N{}</name><grade>g{c}{s}</grade></student>"#,
                    sno % 3
                ));
            }
            xml.push_str("</taken_by></course>");
        }
        xml.push_str("</courses>");
        let doc = xnf_xml::parse(&xml).unwrap();
        let ps = dtd.paths().unwrap();
        assert!(sigma.satisfied_by(&doc, &dtd, &ps).unwrap());
        let report = verify_lossless(&dtd, &result, &doc).unwrap();
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn replay_refuses_a_result_without_one_stage_per_step() {
        let dtd = university_dtd();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        let doc = figure_1a();
        let unstaged = normalize(
            &dtd,
            &sigma,
            &NormalizeOptions {
                record_stages: false,
                ..NormalizeOptions::default()
            },
        )
        .unwrap();
        let mut short = normalize(&dtd, &sigma, &NormalizeOptions::default()).unwrap();
        short.stages.pop();
        let steps = short.steps.len();
        assert!(steps > 1);
        for (result, stages) in [(&unstaged, 0), (&short, steps - 1)] {
            let refused = |r: Result<_>| {
                matches!(r, Err(CoreError::MissingStages { steps: s, stages: t })
                    if s == steps && t == stages)
            };
            assert!(refused(transform_document(&dtd, result, &doc).map(drop)));
            assert!(refused(restore_document(result, &doc).map(drop)));
            assert!(refused(verify_lossless(&dtd, result, &doc).map(drop)));
            assert!(refused(verify_lossless_trace(&dtd, result, &doc).map(drop)));
        }
    }
}

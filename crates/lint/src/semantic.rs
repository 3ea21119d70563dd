//! Semantic lint rules: analyses of the FD set Σ against the DTD (codes
//! `XNF1xx`).
//!
//! After the cheap checks (per-FD syntax, path resolution, duplicates),
//! the interesting rules repurpose the chase-based implication engine of
//! `xnf_core` as a static analyzer, exactly as relational design tools
//! lint dependency sets: trivial FDs (`(D, ∅) ⊢ φ`), FDs redundant given
//! the rest of Σ, pairwise-equivalent FDs, and redundant left-hand-side
//! paths. One extra rule is path-combinatorial rather than chase-backed:
//! an FD whose paths the DTD makes *mutually exclusive* (they diverge on
//! letters that never co-occur in a word of the branching content model)
//! can never fire in any tree tuple and is flagged vacuous.
//!
//! All chase verdicts go through one [`ImplicationCache`], so repeated
//! subset queries cost one chase run each.

use crate::report::{Code, Diagnostic, SourceKind, SourceText};
use crate::structural::DtdCtx;
use std::collections::HashMap;
use std::ops::Range;
use xnf_core::fd::{FdListing, ResolvedFd};
use xnf_core::implication::{Chase, Implication, ImplicationCache};
use xnf_core::XmlFd;
use xnf_dtd::paths::Step;
use xnf_dtd::{Dtd, PathSet, Regex};
use xnf_govern::{Budget, Exhausted};

/// One successfully parsed, resolved, non-duplicate member of Σ.
struct Member<'a> {
    /// Byte span of the FD's text (for spans/messages).
    span: Range<usize>,
    fd: &'a XmlFd,
    resolved: ResolvedFd,
    /// XNF103 fired: excluded from the chase-backed rules.
    vacuous: bool,
    /// XNF105 fired.
    trivial: bool,
    /// XNF107 fired (member of an equivalent pair).
    equivalent: bool,
}

/// Σ after the tier's cheap half: the listing's FDs resolved against
/// `paths(D)` and deduplicated — the input of [`lint_resolved`].
pub struct ResolvedSigma<'a> {
    /// Σ's text, with its lines resolved once for every span into it.
    text: SourceText<'a>,
    paths: PathSet,
    members: Vec<Member<'a>>,
}

/// The cheap half of the semantic tier, and the only half that can emit
/// an error, in one pass over the listing: FD syntax (XNF101), paths
/// outside `paths(D)` (XNF102) and duplicates (XNF104). Without `ctx` —
/// the DTD did not parse or is recursive (`lint_inner` gates on XNF011)
/// — only XNF101 runs, and the result is `None`.
pub fn resolve_fds<'a>(
    ctx: Option<&DtdCtx<'_>>,
    listing: &'a FdListing<'_>,
    out: &mut Vec<Diagnostic>,
) -> Option<ResolvedSigma<'a>> {
    let fds = SourceText::new(listing.src());
    // `lint_inner` filters recursive DTDs; `ok()` is defensive only.
    let paths = ctx.and_then(|ctx| ctx.dtd.paths().ok());
    let mut members: Vec<Member<'a>> = Vec::new();
    // The text of each resolved FD's first listing.
    let mut first_text: HashMap<ResolvedFd, &str> = HashMap::new();
    for entry in listing.entries() {
        let (offset, len) = (entry.span.start, entry.span.len());
        let fd = match &entry.fd {
            Ok(fd) => fd,
            Err(e) => {
                out.push(
                    Diagnostic::new(
                        Code::FdSyntax,
                        SourceKind::Fds,
                        format!("FD does not parse: {e}"),
                    )
                    .with_span(&fds, offset, len),
                );
                continue;
            }
        };
        let Some(paths) = &paths else {
            continue;
        };
        let resolved = match fd.resolve(paths) {
            Ok(r) => r,
            Err(e) => {
                out.push(
                    Diagnostic::new(
                        Code::UnknownFdPath,
                        SourceKind::Fds,
                        format!("FD mentions a path outside paths(D): {e}"),
                    )
                    .with_span(&fds, offset, len),
                );
                continue;
            }
        };
        if let Some(first) = first_text.get(&resolved) {
            out.push(
                Diagnostic::new(
                    Code::DuplicateFd,
                    SourceKind::Fds,
                    "FD appears more than once in \u{3a3}".to_string(),
                )
                .with_span(&fds, offset, len)
                .note(format!("first listed as `{first}`")),
            );
            continue;
        }
        first_text.insert(resolved.clone(), &listing.src()[entry.span.clone()]);
        members.push(Member {
            span: entry.span.clone(),
            fd,
            resolved,
            vacuous: false,
            trivial: false,
            equivalent: false,
        });
    }
    Some(ResolvedSigma {
        text: fds,
        paths: paths?,
        members,
    })
}

/// The expensive half of the semantic tier over Σ as [`resolve_fds`]
/// left it: vacuous FDs (XNF103) and the chase-backed XNF105–XNF108.
/// Report-only — every code here is a warning or an info. The
/// implication-backed rules charge `budget`; on exhaustion the partial
/// diagnostics already pushed to `out` are abandoned by `lint_inner` (no
/// partial report escapes).
pub fn lint_resolved(
    ctx: &DtdCtx<'_>,
    sigma: ResolvedSigma<'_>,
    budget: &Budget,
    out: &mut Vec<Diagnostic>,
) -> Result<(), Exhausted> {
    let ResolvedSigma {
        text: fds,
        paths,
        mut members,
    } = sigma;

    let at = |m: &Member<'_>| (&fds, m.span.start, m.span.len());

    // XNF103 — vacuous FDs (mutually exclusive paths).
    for m in &mut members {
        if let Some(exclusion) = find_exclusive_pair(ctx.dtd, m.fd) {
            m.vacuous = true;
            let (src, off, len) = at(m);
            out.push(
                Diagnostic::new(
                    Code::VacuousFd,
                    SourceKind::Fds,
                    format!(
                        "FD is vacuous: `{}` and `{}` can never occur in the same tree tuple",
                        exclusion.a, exclusion.b
                    ),
                )
                .with_span(src, off, len)
                .note(format!(
                    "`{}` and `{}` are mutually exclusive in the content model of `{}`: {}",
                    exclusion.step_a, exclusion.step_b, exclusion.element, exclusion.content
                ))
                .note("no tree tuple instantiates both sides, so the FD constrains nothing"),
            );
        }
    }

    let sigma: Vec<ResolvedFd> = members.iter().map(|m| m.resolved.clone()).collect();
    let chase = Chase::new(ctx.dtd, &paths).with_budget(budget.clone());
    let oracle = ImplicationCache::new(&chase, &sigma);

    // XNF105 — trivial FDs: implied by the DTD alone.
    for m in &mut members {
        budget.checkpoint("lint.semantic.fd")?;
        if m.vacuous {
            continue;
        }
        if implied(&oracle, &[], &m.resolved)? {
            m.trivial = true;
            let (src, off, len) = at(m);
            out.push(
                Diagnostic::new(
                    Code::TrivialFd,
                    SourceKind::Fds,
                    "FD is trivial: it holds in every tree conforming to the DTD".to_string(),
                )
                .with_span(src, off, len)
                .note("(D, \u{2205}) \u{22a2} \u{3c6} — listing it in \u{3a3} adds nothing"),
            );
        }
    }

    // XNF107 — pairwise-equivalent FDs (given the rest of Σ). Checked
    // before redundancy so an equivalent pair is reported once as a pair,
    // not twice as "redundant".
    for i in 0..members.len() {
        for j in (i + 1)..members.len() {
            if members[i].vacuous || members[i].trivial || members[j].vacuous || members[j].trivial
            {
                continue;
            }
            let base: Vec<ResolvedFd> = sigma
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != i && k != j)
                .map(|(_, fd)| fd.clone())
                .collect();
            let mut with_i = base.clone();
            with_i.push(sigma[i].clone());
            let mut with_j = base;
            with_j.push(sigma[j].clone());
            if implied(&oracle, &with_i, &sigma[j])? && implied(&oracle, &with_j, &sigma[i])? {
                members[i].equivalent = true;
                members[j].equivalent = true;
                let other = &fds.text()[members[i].span.clone()];
                let (src, off, len) = at(&members[j]);
                out.push(
                    Diagnostic::new(
                        Code::EquivalentFds,
                        SourceKind::Fds,
                        format!("FD is equivalent to `{other}` given the rest of \u{3a3}"),
                    )
                    .with_span(src, off, len)
                    .note("each is derivable from the other; one of the pair can be dropped"),
                );
            }
        }
    }

    // XNF106 — redundant FDs: implied by Σ ∖ {φ}.
    for (i, m) in members.iter().enumerate() {
        if m.vacuous || m.trivial || m.equivalent {
            continue;
        }
        let rest: Vec<ResolvedFd> = sigma
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != i)
            .map(|(_, fd)| fd.clone())
            .collect();
        if implied(&oracle, &rest, &m.resolved)? {
            let (src, off, len) = at(m);
            out.push(
                Diagnostic::new(
                    Code::RedundantFd,
                    SourceKind::Fds,
                    "FD is redundant: it is implied by the rest of \u{3a3}".to_string(),
                )
                .with_span(src, off, len)
                .note("(D, \u{3a3} \u{2216} {\u{3c6}}) \u{22a2} \u{3c6}"),
            );
        }
    }

    // XNF108 — redundant LHS paths: a left-hand-side path already
    // determined by the other LHS paths in *every* tree (Σ = ∅, so the
    // verdict is independent of the possibly-redundant rest of Σ).
    for m in &members {
        if m.vacuous || m.trivial || m.resolved.lhs.len() < 2 {
            continue;
        }
        for (k, &x) in m.resolved.lhs.iter().enumerate() {
            let rest_lhs = m
                .resolved
                .lhs
                .iter()
                .enumerate()
                .filter(|&(k2, _)| k2 != k)
                .map(|(_, &p)| p);
            let derives_x = ResolvedFd::from_ids(rest_lhs, [x]);
            if implied(&oracle, &[], &derives_x)? {
                let (src, off, len) = at(m);
                out.push(
                    Diagnostic::new(
                        Code::RedundantLhsPath,
                        SourceKind::Fds,
                        format!(
                            "left-hand-side path `{}` is already determined by the rest \
                             of the LHS in every tree",
                            paths.format(x)
                        ),
                    )
                    .with_span(src, off, len)
                    .note("dropping it leaves an equivalent, smaller FD"),
                );
            }
        }
    }
    Ok(())
}

/// Whether `(D, sigma) ⊢ fd`, splitting a multi-path RHS into single-RHS
/// queries (the conjunction is implied iff every component is).
fn implied(
    oracle: &ImplicationCache<'_>,
    sigma: &[ResolvedFd],
    fd: &ResolvedFd,
) -> Result<bool, Exhausted> {
    for &q in &fd.rhs {
        let single = ResolvedFd::from_ids(fd.lhs.iter().copied(), [q]);
        if !oracle.try_implies(sigma, &single)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Witness that two FD paths can never be instantiated in one tree tuple.
struct ExclusivePair {
    a: String,
    b: String,
    step_a: String,
    step_b: String,
    element: String,
    content: String,
}

/// Looks for a pair of paths in `fd` (LHS×LHS and LHS×RHS) that the DTD
/// makes mutually exclusive: at their divergence point, the two next
/// element letters never co-occur in any word of the branching content
/// model. LHS×LHS exclusivity means the FD's premise never holds;
/// LHS×RHS exclusivity means the RHS component is always null when the
/// premise holds. Either way the FD constrains nothing.
fn find_exclusive_pair(dtd: &Dtd, fd: &XmlFd) -> Option<ExclusivePair> {
    let lhs = fd.lhs();
    let rhs = fd.rhs();
    let mut pairs: Vec<(&xnf_dtd::Path, &xnf_dtd::Path)> = Vec::new();
    for (i, p) in lhs.iter().enumerate() {
        for q in &lhs[i + 1..] {
            pairs.push((p, q));
        }
        for q in rhs {
            pairs.push((p, q));
        }
    }
    for (p, q) in pairs {
        let (sp, sq) = (p.steps(), q.steps());
        let k = sp.iter().zip(sq.iter()).take_while(|(a, b)| a == b).count();
        if k == sp.len() || k == sq.len() || k == 0 {
            // One path is a prefix of the other (always co-instantiable),
            // or the paths disagree on the root (unresolvable earlier).
            continue;
        }
        let (Step::Elem(x), Step::Elem(y)) = (&sp[k], &sq[k]) else {
            // Attribute/text steps always accompany their element node.
            continue;
        };
        let Step::Elem(parent) = &sp[k - 1] else {
            continue;
        };
        let Some(parent_id) = dtd.elem_id(parent) else {
            continue;
        };
        if let xnf_dtd::ContentModel::Regex(re) = dtd.content(parent_id) {
            if !can_cooccur(re, x, y) {
                return Some(ExclusivePair {
                    a: p.to_string(),
                    b: q.to_string(),
                    step_a: x.to_string(),
                    step_b: y.to_string(),
                    element: parent.to_string(),
                    content: re.to_string(),
                });
            }
        }
    }
    None
}

/// Whether some single word of `L(re)` contains both letters `x` and `y`
/// (`x ≠ y`). Exact for this AST: it has no empty-language constructor,
/// so `mentions` coincides with "occurs in some word".
fn can_cooccur(re: &Regex, x: &str, y: &str) -> bool {
    match re {
        Regex::Epsilon | Regex::Elem(_) => false,
        Regex::Seq(parts) => {
            parts.iter().any(|p| can_cooccur(p, x, y))
                || parts.iter().enumerate().any(|(i, p)| {
                    p.mentions(x)
                        && parts
                            .iter()
                            .enumerate()
                            .any(|(j, q)| i != j && q.mentions(y))
                })
        }
        Regex::Alt(parts) => parts.iter().any(|p| can_cooccur(p, x, y)),
        Regex::Star(inner) | Regex::Plus(inner) => inner.mentions(x) && inner.mentions(y),
        Regex::Opt(inner) => can_cooccur(inner, x, y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xnf_dtd::parse::parse_content_model;
    use xnf_dtd::ContentModel;

    fn re(src: &str) -> Regex {
        match parse_content_model(src).unwrap() {
            ContentModel::Regex(r) => r,
            ContentModel::Text => unreachable!(),
        }
    }

    #[test]
    fn cooccurrence_over_the_operator_zoo() {
        let cases = [
            ("(a, b)", "a", "b", true),
            ("(a | b)", "a", "b", false),
            ("((a | b)*)", "a", "b", true), // two iterations
            ("((a | b)+)", "a", "b", true),
            ("((a | b)?)", "a", "b", false),
            ("((a, c) | (b, c))", "a", "b", false),
            ("((a, b) | c)", "a", "b", true),
            ("(a?, b?)", "a", "b", true),
            ("((a | x), (b | y))", "a", "b", true),
        ];
        for (src, x, y, expect) in cases {
            assert_eq!(can_cooccur(&re(src), x, y), expect, "{src}");
        }
    }
}

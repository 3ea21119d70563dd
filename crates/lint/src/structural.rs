//! Structural lint rules: analyses of the DTD alone (codes `XNF0xx`).
//!
//! Two groups live here. The *listing* rules read the DTD's
//! [`DtdListing`]: [`duplicate_decls`] reports every repeated declaration
//! off the listing's links, even past the first, where the parse stops,
//! and [`map_parse_error`] maps the parse's first error onto a coded
//! diagnostic. The *model* rules run over a successfully parsed [`Dtd`]:
//! reachability, generating-ness, satisfiability, 1-unambiguity,
//! recursion, and the Section 7 classification.

use crate::report::{Code, Diagnostic, SourceKind, SourceText};
use xnf_dtd::classify::{classify_content, DtdClass, DtdShapes};
use xnf_dtd::glushkov::check_deterministic;
use xnf_dtd::{ContentModel, Dtd, DtdError, DtdListing, Regex};

/// Context handed to every model rule: the parsed DTD plus everything the
/// driver precomputes once.
#[derive(Debug)]
pub struct DtdCtx<'a> {
    /// The parsed DTD.
    pub dtd: &'a Dtd,
    /// The listing `dtd` was read from, for declaration spans.
    pub listing: &'a DtdListing<'a>,
    /// `reachable[e.index()]`: element `e` is reachable from the root.
    pub reachable: Vec<bool>,
    /// `generating[e.index()]`: some finite tree is derivable from `e`.
    pub generating: Vec<bool>,
    /// The raw DTD text, with its lines resolved once for every span into
    /// it.
    pub(crate) text: SourceText<'a>,
}

impl<'a> DtdCtx<'a> {
    /// Builds the context, running the reachability and generating
    /// fixpoints.
    pub fn new(listing: &'a DtdListing<'a>, dtd: &'a Dtd) -> DtdCtx<'a> {
        DtdCtx {
            dtd,
            listing,
            reachable: reachable_set(dtd),
            generating: generating_set(dtd),
            text: SourceText::new(listing.src()),
        }
    }

    /// A diagnostic at the `<!ELEMENT …>` name of `element` (span-less if
    /// the listing has no such declaration).
    fn at_decl(&self, code: Code, element: &str, message: String) -> Diagnostic {
        at_element(&self.text, self.listing, element, code, message)
    }
}

/// A diagnostic at the name of the first `<!ELEMENT …>` of `element` in
/// `listing`, span-less if there is none.
pub(crate) fn at_element(
    src: &SourceText<'_>,
    listing: &DtdListing<'_>,
    element: &str,
    code: Code,
    message: String,
) -> Diagnostic {
    let d = Diagnostic::new(code, SourceKind::Dtd, message);
    match listing.element(element) {
        Some(decl) => d.with_span(src, decl.offset, decl.name.len()),
        None => d,
    }
}

/// Computes which elements are reachable from the root by following
/// content-model references.
pub fn reachable_set(dtd: &Dtd) -> Vec<bool> {
    let mut reachable = vec![false; dtd.num_elements()];
    let mut stack = vec![dtd.root()];
    reachable[dtd.root().index()] = true;
    while let Some(e) = stack.pop() {
        for child in dtd.children(e) {
            if !reachable[child.index()] {
                reachable[child.index()] = true;
                stack.push(child);
            }
        }
    }
    reachable
}

/// Computes which elements are *generating*: `e` is generating iff some
/// finite tree conforms below it, i.e. its content model accepts a word
/// consisting solely of generating element names (text and `EMPTY` content
/// are the base cases). The least fixpoint is the standard "useless
/// production" analysis of context-free grammars, lifted to regex content
/// models.
pub fn generating_set(dtd: &Dtd) -> Vec<bool> {
    let mut generating = vec![false; dtd.num_elements()];
    loop {
        let mut changed = false;
        for e in dtd.elements() {
            if generating[e.index()] {
                continue;
            }
            let ok = match dtd.content(e) {
                ContentModel::Text => true,
                ContentModel::Regex(re) => has_generating_word(re, &|name| {
                    dtd.elem_id(name).is_some_and(|c| generating[c.index()])
                }),
            };
            if ok {
                generating[e.index()] = true;
                changed = true;
            }
        }
        if !changed {
            return generating;
        }
    }
}

/// Whether `re` accepts some word all of whose letters satisfy `allowed`.
/// Exact for this AST: there is no empty-language constructor, so every
/// subexpression contributes at least one word.
fn has_generating_word(re: &Regex, allowed: &impl Fn(&str) -> bool) -> bool {
    match re {
        Regex::Epsilon => true,
        Regex::Elem(name) => allowed(name),
        Regex::Seq(parts) => parts.iter().all(|p| has_generating_word(p, allowed)),
        Regex::Alt(parts) => parts.iter().any(|p| has_generating_word(p, allowed)),
        Regex::Star(_) | Regex::Opt(_) => true,
        Regex::Plus(inner) => has_generating_word(inner, allowed),
    }
}

/// XNF002/XNF003 — duplicate `<!ELEMENT>` / duplicate attribute
/// declarations: every entry of the listing that repeats an earlier one,
/// with a note pointing back at the first, although the parse stops at
/// the first repeat.
pub fn duplicate_decls(src: &SourceText<'_>, listing: &DtdListing<'_>, out: &mut Vec<Diagnostic>) {
    let first_at = |offset: usize| format!("first declared at dtd:{}", src.line_col(offset));
    let elements = listing.elements();
    for decl in elements {
        if let Some(first) = decl.repeats {
            out.push(
                Diagnostic::new(
                    Code::DuplicateElement,
                    SourceKind::Dtd,
                    format!("element `{}` is declared more than once", decl.name),
                )
                .with_span(src, decl.offset, decl.name.len())
                .note(first_at(elements[first].offset)),
            );
        }
    }
    let attributes = listing.attributes();
    for list in listing.attlists() {
        for decl in &attributes[list.attrs.clone()] {
            if let Some(first) = decl.repeats {
                out.push(
                    Diagnostic::new(
                        Code::DuplicateAttribute,
                        SourceKind::Dtd,
                        format!(
                            "attribute `@{}` is declared more than once for element `{}`",
                            decl.name, list.owner
                        ),
                    )
                    .with_span(src, decl.offset, decl.name.len())
                    .note(first_at(attributes[first].offset)),
                );
            }
        }
    }
}

/// Maps a DTD parse failure onto a coded diagnostic. A duplicate
/// declaration maps onto none: [`duplicate_decls`] reports it, and every
/// later one, off the listing.
pub fn map_parse_error(
    src: &SourceText<'_>,
    listing: &DtdListing<'_>,
    err: &DtdError,
    out: &mut Vec<Diagnostic>,
) {
    match err {
        DtdError::Syntax {
            offset, message, ..
        } => out.push(
            Diagnostic::new(
                Code::DtdSyntax,
                SourceKind::Dtd,
                format!("DTD syntax error: {message}"),
            )
            .with_span(src, *offset, 1),
        ),
        DtdError::DuplicateElement(_) | DtdError::DuplicateAttribute { .. } => {}
        DtdError::UndeclaredElement {
            name,
            referenced_by,
        } => {
            let message =
                format!("element `{name}` is referenced by `{referenced_by}` but never declared");
            let d = at_element(
                src,
                listing,
                referenced_by,
                Code::UndeclaredElement,
                message,
            );
            out.push(match d.span {
                Some(_) => d.note(format!("`{name}` occurs in this element's content model")),
                None => d,
            });
        }
        DtdError::RootReferenced { referenced_by } => {
            let message =
                format!("the root element occurs in the content model of `{referenced_by}`");
            out.push(
                at_element(src, listing, referenced_by, Code::RootReferenced, message)
                    .note("Definition 1 requires the root not to occur in any P(\u{3c4})"),
            );
        }
        DtdError::AttlistForUndeclared(name) => {
            let d = Diagnostic::new(
                Code::AttlistForUndeclared,
                SourceKind::Dtd,
                format!("ATTLIST for undeclared element `{name}`"),
            );
            let list = listing.attlists().iter().find(|list| list.owner == name);
            out.push(match list {
                Some(list) => d.with_span(src, list.offset, list.owner.len()),
                None => d,
            });
        }
        // The parser never returns the first two, and `lint_inner` hands
        // an exhausted parse back before any rule runs; keep the mapping
        // total so a future parser change cannot drop an error on the
        // floor.
        DtdError::RecursiveDtd { .. } | DtdError::NoSuchPath(_) | DtdError::Exhausted(_) => out
            .push(Diagnostic::new(
                Code::DtdSyntax,
                SourceKind::Dtd,
                err.to_string(),
            )),
    }
}

/// XNF007 — elements unreachable from the root.
pub fn rule_unreachable(ctx: &DtdCtx<'_>, out: &mut Vec<Diagnostic>) {
    for e in ctx.dtd.elements() {
        if !ctx.reachable[e.index()] {
            let name = ctx.dtd.name(e);
            out.push(
                ctx.at_decl(
                    Code::UnreachableElement,
                    name,
                    format!(
                        "element `{name}` is unreachable from the root `{}`",
                        ctx.dtd.root_name()
                    ),
                )
                .note("no conforming document can contain it; the declaration is dead"),
            );
        }
    }
}

/// XNF008 — non-generating elements: no finite conforming subtree exists
/// below them, so no (finite) document ever instantiates them.
pub fn rule_non_generating(ctx: &DtdCtx<'_>, out: &mut Vec<Diagnostic>) {
    for e in ctx.dtd.elements() {
        if e == ctx.dtd.root() || ctx.generating[e.index()] {
            continue;
        }
        let name = ctx.dtd.name(e);
        out.push(
            ctx.at_decl(
                Code::NonGeneratingElement,
                name,
                format!("element `{name}` can never be instantiated in a finite document"),
            )
            .note("every word of its content model requires another non-generating element"),
        );
    }
}

/// XNF009 — the DTD is unsatisfiable: the root itself is non-generating,
/// so *no* finite document conforms.
pub fn rule_unsatisfiable(ctx: &DtdCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.generating[ctx.dtd.root().index()] {
        let root = ctx.dtd.root_name();
        out.push(
            ctx.at_decl(
                Code::UnsatisfiableDtd,
                root,
                format!("no finite document conforms to this DTD: the root `{root}` cannot derive a finite tree"),
            )
            .note("every FD over it holds vacuously; normalization is meaningless"),
        );
    }
}

/// XNF010 — content models that are not 1-unambiguous (deterministic), as
/// the XML specification requires.
pub fn rule_determinism(ctx: &DtdCtx<'_>, out: &mut Vec<Diagnostic>) {
    for e in ctx.dtd.elements() {
        let ContentModel::Regex(re) = ctx.dtd.content(e) else {
            continue;
        };
        if let Err(ambiguity) = check_deterministic(re) {
            let name = ctx.dtd.name(e);
            out.push(
                ctx.at_decl(
                    Code::NondeterministicContent,
                    name,
                    format!(
                        "content model of `{name}` is not 1-unambiguous: \
                         competing matches for `{}`",
                        ambiguity.symbol
                    ),
                )
                .note(format!("content model: {re}"))
                .note(
                    "the XML specification requires deterministic content models \
                     (Appendix E, \"Deterministic Content Models\")",
                ),
            );
        }
    }
}

/// XNF011 — recursive DTDs: `paths(D)` is infinite, the Section 4 path
/// machinery (and therefore the semantic lint tier and normalization)
/// does not apply.
pub fn rule_recursive(ctx: &DtdCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.dtd.is_recursive() {
        return;
    }
    let witness = ctx.dtd.find_cycle_witness().map_or_else(
        || ctx.dtd.root_name().to_string(),
        |e| ctx.dtd.name(e).to_string(),
    );
    out.push(
        ctx.at_decl(
            Code::RecursiveDtd,
            &witness,
            format!("DTD is recursive: `{witness}` participates in a reference cycle"),
        )
        .note("paths(D) is infinite; FD analysis (XNF1xx) is skipped and normalization is unavailable"),
    );
}

/// XNF012 — the DTD is neither simple nor disjunctive, so FD implication
/// falls back to the general chase (coNP-complete by Theorem 5).
pub fn rule_general_class(ctx: &DtdCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !matches!(DtdShapes::analyze(ctx.dtd).class(), DtdClass::General) {
        return;
    }
    // Point at the first element whose content model resists the
    // simple-disjunction decomposition.
    let culprit = ctx
        .dtd
        .elements()
        .find(|&e| classify_content(ctx.dtd.content(e)).is_none());
    let d = match culprit {
        Some(e) => {
            let name = ctx.dtd.name(e);
            ctx.at_decl(
                Code::GeneralClass,
                name,
                format!(
                    "DTD is neither simple nor disjunctive: the content model of \
                     `{name}` has no simple-disjunction decomposition"
                ),
            )
        }
        None => Diagnostic::new(
            Code::GeneralClass,
            SourceKind::Dtd,
            "DTD is neither simple nor disjunctive".to_string(),
        ),
    };
    out.push(d.note(
        "FD implication over general DTDs is coNP-complete (Theorem 5); \
         the simple/disjunctive fragments are polynomial (Theorems 3 and 4)",
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use xnf_dtd::parse_dtd;

    #[test]
    fn generating_fixpoint_handles_cycles_and_escape_hatches() {
        // a is trapped in a cycle; b escapes via the optional branch.
        let dtd = parse_dtd("<!ELEMENT r (a?, b)> <!ELEMENT a (a)> <!ELEMENT b (a*)>").unwrap();
        let generating = generating_set(&dtd);
        let idx = |n: &str| dtd.elem_id(n).unwrap().index();
        assert!(generating[idx("r")]);
        assert!(!generating[idx("a")]);
        assert!(generating[idx("b")]);
    }

    #[test]
    fn duplicates_point_back_at_the_first_declaration() {
        let src = "<!ELEMENT b EMPTY>\n<!ELEMENT a EMPTY>\n<!ELEMENT b (a)>\n<!ELEMENT b EMPTY>\n\
                   <!ATTLIST a x CDATA #REQUIRED>\n\
                   <!ATTLIST b x CDATA #REQUIRED x CDATA #IMPLIED>\n\
                   <!ATTLIST a x CDATA #IMPLIED>";
        let mut out = Vec::new();
        let listing =
            xnf_dtd::DtdListing::read(src, xnf_dtd::ParseLimits::default(), crate::UNLIMITED);
        duplicate_decls(&SourceText::new(src), &listing, &mut out);
        out.sort_by_key(|d| d.span.as_ref().map(|s| s.offset));
        let found: Vec<String> = out
            .iter()
            .map(|d| format!("{} {} {}", d.code, d.span.as_ref().unwrap().at, d.notes[0]))
            .collect();
        assert_eq!(
            found,
            [
                "XNF002 3:11 first declared at dtd:1:11",
                "XNF002 4:11 first declared at dtd:1:11",
                "XNF003 6:31 first declared at dtd:6:13",
                "XNF003 7:13 first declared at dtd:5:13",
            ]
        );
    }

    #[test]
    fn reachable_set_finds_orphans() {
        let dtd = parse_dtd("<!ELEMENT r (a)> <!ELEMENT a EMPTY> <!ELEMENT orphan EMPTY>").unwrap();
        let reachable = reachable_set(&dtd);
        let idx = |n: &str| dtd.elem_id(n).unwrap().index();
        assert!(reachable[idx("r")]);
        assert!(reachable[idx("a")]);
        assert!(!reachable[idx("orphan")]);
    }
}

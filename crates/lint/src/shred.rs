//! The opt-in **shred tier** (`XNF3xx`): static checks on how a spec maps
//! through the XML→relational shredding backend ([`xnf_core::shred`]).
//!
//! Shredding compiles `(D, Σ)` into one table per element path of
//! `paths(D)`. Some specs that are perfectly fine for normalization are
//! degenerate or surprising for shredding, and these rules surface that
//! *before* any DDL or rows are emitted:
//!
//! * `XNF300` — the DTD is recursive: `paths(D)` is infinite, so the
//!   per-path table layout does not exist at all.
//! * `XNF301` — a declaration mixes `#PCDATA` with child elements: the
//!   text has no stable column to land in. (Mixed content is also a parse
//!   error; the DTD's listing marks each declaration the parser rejects
//!   for it, and this rule explains the rejection in shredding terms.)
//! * `XNF302` — two element types share a leaf name, so their tables fall
//!   back to mangled full-path names.
//! * `XNF303` — a table has more key-candidate columns than the FD
//!   enumeration window, so the derived-key search degrades from
//!   exhaustive to sampled.

use crate::report::{Code, Diagnostic, SourceKind, SourceText};
use crate::structural::at_element;
use xnf_core::{compile_schema, CoreError, XmlFdSet, FD_ENUMERATION_WIDTH};
use xnf_dtd::{Dtd, DtdListing, Outcome, Step};
use xnf_govern::{Budget, Exhausted};

/// `XNF301`: element declarations whose content model mixes `#PCDATA`
/// with element names, as the listing marks them (the strict parser
/// rejects mixed content outright, so this is the only chance to explain
/// it).
pub(crate) fn rule_mixed_content(
    dtd_text: &SourceText<'_>,
    listing: &DtdListing<'_>,
    diags: &mut Vec<Diagnostic>,
) {
    for decl in listing.elements() {
        // A repeated declaration is XNF002's.
        if decl.outcome != Outcome::Mixed || decl.repeats.is_some() {
            continue;
        }
        diags.push(
            Diagnostic::new(
                Code::ShredMixedContent,
                SourceKind::Dtd,
                format!(
                    "element `{}` mixes #PCDATA with child elements; its text \
                     has no stable column under shredding",
                    decl.name
                ),
            )
            .with_span(dtd_text, decl.offset, decl.name.len())
            .note("give the text its own wrapper element so it shreds to a column"),
        );
    }
}

/// `XNF300`: a recursive DTD has no per-path table layout at all.
pub(crate) fn rule_recursive(
    dtd: &Dtd,
    dtd_text: &SourceText<'_>,
    listing: &DtdListing<'_>,
    diags: &mut Vec<Diagnostic>,
) {
    if !dtd.is_recursive() {
        return;
    }
    let witness = dtd
        .find_cycle_witness()
        .expect("recursive DTDs have a cycle witness");
    let name = dtd.name(witness);
    let message = format!("element `{name}` is on a reference cycle; paths(D) is infinite and no per-path table layout exists");
    diags.push(
        at_element(dtd_text, listing, name, Code::ShredRecursive, message)
            .note("shredding requires a non-recursive DTD; break the cycle or export the subtree as a document column"),
    );
}

/// The layout rules (`XNF302`, `XNF303`) over a non-recursive DTD:
/// compiles the spec with [`xnf_core::compile_schema`] and reports on
/// the layout. Report-only — a warning and an info.
pub(crate) fn rule_layout(
    dtd: &Dtd,
    dtd_text: &SourceText<'_>,
    listing: &DtdListing<'_>,
    sigma: &XmlFdSet,
    budget: &Budget,
    diags: &mut Vec<Diagnostic>,
) -> Result<(), Exhausted> {
    let schema = match compile_schema(dtd, sigma, budget) {
        Ok(schema) => schema,
        Err(CoreError::Exhausted(e)) => return Err(e),
        // Degenerate specs (unknown FD paths, unsatisfiable DTDs, …) are
        // already diagnosed by the structural and semantic tiers.
        Err(_) => return Ok(()),
    };
    for ix in 0..schema.num_tables() {
        let path = schema.table_path(ix);
        let Step::Elem(tail) = path.last() else {
            continue;
        };
        let table = &schema.design.tables[ix];
        if !schema.keeps_leaf_name(ix) {
            let message = format!(
                "element `{tail}` shreds to table `{}`: its leaf name is \
                 claimed by another element path",
                table.name
            );
            diags.push(
                at_element(dtd_text, listing, tail, Code::ShredNameCollision, message)
                    .note("rename one of the colliding element types to keep table names readable"),
            );
        }
        // Key-candidate columns: everything the FD derivation can put on a
        // LHS (parent, attributes, text) — exactly the columns with a DTD
        // path, minus the id column itself.
        let candidates = (1..table.columns.len())
            .filter(|&c| schema.column_path(ix, c).is_some())
            .count();
        if candidates > FD_ENUMERATION_WIDTH {
            let message = format!(
                "table `{}` has {candidates} key-candidate columns \
                 (> {FD_ENUMERATION_WIDTH}); the derived-key search is \
                 sampled, not exhaustive",
                table.name
            );
            diags.push(
                at_element(dtd_text, listing, tail, Code::ShredWideTable, message).note(
                    "UNIQUE constraints on wide tables may be incomplete; declare extra keys in Σ",
                ),
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{lint, lint_spec, Code, LintReport, OptIn, Severity, UNLIMITED};
    use xnf_core::fd::FdListing;
    use xnf_dtd::{DtdListing, ParseLimits};

    /// The lint with the shred tier, over a parse of `dtd`.
    fn lint_spec_shred(dtd: &str, fds: Option<&str>) -> LintReport {
        let fds = fds.map(FdListing::read);
        let dtd = DtdListing::read(dtd, ParseLimits::default(), UNLIMITED);
        lint(&dtd, fds.as_ref(), OptIn::Shred, UNLIMITED).expect("unlimited budget cannot exhaust")
    }

    fn shred_codes(dtd: &str, fds: Option<&str>) -> Vec<Code> {
        lint_spec_shred(dtd, fds)
            .codes()
            .into_iter()
            .filter(|c| c.as_str().starts_with("XNF3"))
            .collect()
    }

    #[test]
    fn recursive_dtd_gets_a_shred_error() {
        let dtd = "<!ELEMENT r (part)>\n<!ELEMENT part (part*)>";
        // The shred tier is opt-in: the default lint stays XNF0xx-only.
        assert!(!lint_spec(dtd, None).codes().contains(&Code::ShredRecursive));
        let report = lint_spec_shred(dtd, None);
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code == Code::ShredRecursive)
            .expect("XNF300 fires");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("part"), "{}", d.message);
    }

    #[test]
    fn mixed_content_is_explained_in_shredding_terms() {
        let dtd = "<!ELEMENT r (p*)>\n<!ELEMENT p (#PCDATA | em)*>\n<!ELEMENT em (#PCDATA)>";
        let report = lint_spec_shred(dtd, None);
        // The strict parser rejects mixed content; XNF301 adds the why.
        assert!(report.codes().contains(&Code::ShredMixedContent));
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code == Code::ShredMixedContent)
            .unwrap();
        assert!(d.message.contains('p'), "{}", d.message);
        // Pure #PCDATA is not mixed.
        let clean = "<!ELEMENT r (p*)>\n<!ELEMENT p (#PCDATA)>";
        assert_eq!(shred_codes(clean, None), vec![]);
    }

    #[test]
    fn leaf_name_collisions_are_flagged_per_element() {
        let dtd = "<!ELEMENT r (a*, b*)>
                   <!ELEMENT a (x*)>
                   <!ELEMENT b (x*)>
                   <!ELEMENT x (y)>
                   <!ELEMENT y EMPTY>";
        let report = lint_spec_shred(dtd, None);
        let collisions: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::ShredNameCollision)
            .collect();
        // r.a.x vs r.b.x and r.a.x.y vs r.b.x.y all lose their leaf names.
        assert_eq!(collisions.len(), 4, "{}", report.render_human());
        assert_eq!(collisions[0].severity, Severity::Warning);
    }

    #[test]
    fn wide_tables_get_an_info_diagnostic() {
        let dtd = "<!ELEMENT r (w*)>
                   <!ELEMENT w EMPTY>
                   <!ATTLIST w a CDATA #REQUIRED b CDATA #REQUIRED c CDATA #REQUIRED
                               d CDATA #REQUIRED e CDATA #REQUIRED f CDATA #REQUIRED
                               g CDATA #REQUIRED>";
        let report = lint_spec_shred(dtd, None);
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code == Code::ShredWideTable)
            .expect("XNF303 fires: parent + 7 attrs > 6 candidates");
        assert_eq!(d.severity, Severity::Info);
        assert!(d.message.contains("8 key-candidate"), "{}", d.message);
    }

    #[test]
    fn paper_specs_are_shred_clean() {
        let dtd = "<!ELEMENT courses (course*)>
             <!ELEMENT course (title, taken_by)>
             <!ATTLIST course cno CDATA #REQUIRED>
             <!ELEMENT title (#PCDATA)>
             <!ELEMENT taken_by (student*)>
             <!ELEMENT student (name, grade)>
             <!ATTLIST student sno CDATA #REQUIRED>
             <!ELEMENT name (#PCDATA)>
             <!ELEMENT grade (#PCDATA)>";
        let fds = "courses.course.@cno -> courses.course
                   courses.course, courses.course.taken_by.student.@sno -> courses.course.taken_by.student
                   courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name.S";
        assert_eq!(shred_codes(dtd, Some(fds)), vec![]);
    }
}

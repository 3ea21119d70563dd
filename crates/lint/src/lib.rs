//! # `xnf-lint` — static analysis for DTD + XML FD specs
//!
//! The engine crates (`xnf-dtd`, `xnf-core`) assume well-formed inputs:
//! a parseable DTD, FD paths inside `paths(D)`, a non-degenerate Σ. This
//! crate is the front door that checks those assumptions *statically*,
//! before the chase or the normalizer ever runs, and reports what it
//! finds as coded, spanned diagnostics — the same shape relational design
//! tools use to lint schemas before normalizing.
//!
//! The analyses run in two tiers (see [`registry`] for the full table):
//!
//! * **Structural** (`XNF0xx`) — the DTD alone: syntax and declaration
//!   hygiene, elements unreachable from the root, non-generating
//!   ("useless") elements, unsatisfiable DTDs, content models that are
//!   not 1-unambiguous, recursion, and the Section 7 complexity
//!   classification.
//! * **Semantic** (`XNF1xx`) — the FD set Σ against the DTD, with the
//!   chase implication engine repurposed as a static analyzer: vacuous
//!   FDs (mutually exclusive paths), trivial FDs, FDs redundant given the
//!   rest of Σ, pairwise-equivalent FDs, and redundant LHS paths.
//! * **Predictive** (`XNF2xx`, opt-in via [`OptIn::Predictive`]) —
//!   what normalization *would do*: anomalous FDs with provenance,
//!   predicted schema blow-up, FD interaction clusters, dead attributes,
//!   and the fixpoint-iteration bound, all driven by the static planner
//!   [`xnf_core::analyze`](fn@xnf_core::analyze) without ever running
//!   `normalize`.
//! * **Shred** (`XNF3xx`, opt-in via [`OptIn::Shred`]) — what the
//!   XML→relational shredding backend would make of the spec: recursive
//!   DTDs and mixed content (which shredding must refuse), leaf-name
//!   collisions that mangle table names, and tables too wide for the
//!   exhaustive derived-key search, driven by [`xnf_core::compile_schema`]
//!   without emitting any DDL or rows.
//!
//! Three entry points run them. [`lint`] lints the caller's own reading
//! of both inputs — the DTD's [`DtdListing`] and Σ's [`FdListing`] —
//! under the caller's budget; [`lint_spec`] reads both for itself,
//! ungoverned, for tests and examples. No rule reads the DTD text again:
//! the listing gives every declaration its span, its parse outcome and
//! its link to an earlier declaration of the same name, and the text is
//! read only to render spans. The engine subcommands gate on
//! [`preflight`]: the same rules, with every rule that can emit an error
//! run first and an early exit when none did, so a clean spec never pays
//! for the warnings and infos the preflight would not show.
//!
//! ## Example
//!
//! ```
//! use xnf_lint::{lint_spec, Code};
//!
//! let report = lint_spec(
//!     "<!ELEMENT r (a)> <!ELEMENT a EMPTY> <!ELEMENT dead EMPTY>",
//!     Some("r.a -> r"),
//! );
//! assert_eq!(report.codes(), vec![Code::UnreachableElement, Code::TrivialFd]);
//! assert!(!report.has_errors(), "warnings do not gate preflight");
//! println!("{}", report.render_human());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod json;
mod predictive;
mod report;
mod semantic;
mod shred;
mod structural;

pub use report::{Code, Diagnostic, LintReport, Severity, SourceKind, Span};

use report::SourceText;
use structural::DtdCtx;
use xnf_core::fd::FdListing;
use xnf_dtd::{DtdError, DtdListing, ParseLimits};
use xnf_govern::{Budget, Exhausted};

/// The shared ungoverned budget backing the infallible [`lint_spec`].
const UNLIMITED: &Budget = &Budget::unlimited();

/// Which tier a rule belongs to (how it is driven).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Read off the DTD's listing: its first parse error, and its links
    /// between repeated declarations.
    Parse,
    /// Runs over the parsed DTD.
    Structural,
    /// Runs over (DTD, Σ); the implication-backed rules live here.
    Semantic,
    /// Opt-in: runs the static decomposition planner over (DTD, Σ) and
    /// reports what normalization would do (`XNF2xx`).
    Predictive,
    /// Opt-in: compiles the relational shredding layout for (DTD, Σ) and
    /// reports what the backend would refuse or degrade on (`XNF3xx`).
    Shred,
}

/// One registered analysis: its code, what the code stands for, its
/// tier, and a one-line summary.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// The stable diagnostic code.
    pub code: Code,
    /// What [`Code::as_str`] returns.
    code_str: &'static str,
    /// What [`Code::id`] returns.
    id: &'static str,
    /// What [`Code::severity`] returns.
    severity: Severity,
    /// How the rule is driven.
    pub tier: Tier,
    /// Whether the rule's verdicts come from the chase implication engine.
    pub implication_backed: bool,
    /// One-line description.
    pub summary: &'static str,
}

/// The rule registry: every analysis the linter can run, one row per
/// [`Code`] in code order. Every `Code` method reads its code's row.
pub fn registry() -> &'static [Rule] {
    RULES
}

/// The rows of [`registry`]: row `i` is the rule of the code whose
/// discriminant is `i`, so a new rule is a [`Code`] variant, its row at
/// the same position, and its implementation in the matching tier module.
const RULES: &[Rule] = &[
    rule(
        Code::DtdSyntax,
        "XNF001",
        "dtd-syntax",
        Severity::Error,
        Tier::Parse,
        false,
        "the DTD text does not parse",
    ),
    rule(
        Code::DuplicateElement,
        "XNF002",
        "duplicate-element",
        Severity::Error,
        Tier::Parse,
        false,
        "an element is declared more than once",
    ),
    rule(
        Code::DuplicateAttribute,
        "XNF003",
        "duplicate-attribute",
        Severity::Error,
        Tier::Parse,
        false,
        "an attribute is declared more than once for one element",
    ),
    rule(
        Code::UndeclaredElement,
        "XNF004",
        "undeclared-element",
        Severity::Error,
        Tier::Parse,
        false,
        "a content model references an undeclared element",
    ),
    rule(
        Code::RootReferenced,
        "XNF005",
        "root-referenced",
        Severity::Error,
        Tier::Parse,
        false,
        "the root occurs in a content model (violates Definition 1)",
    ),
    rule(
        Code::AttlistForUndeclared,
        "XNF006",
        "attlist-for-undeclared",
        Severity::Error,
        Tier::Parse,
        false,
        "an ATTLIST names an undeclared element",
    ),
    rule(
        Code::UnreachableElement,
        "XNF007",
        "unreachable-element",
        Severity::Warning,
        Tier::Structural,
        false,
        "an element is unreachable from the root",
    ),
    rule(
        Code::NonGeneratingElement,
        "XNF008",
        "non-generating-element",
        Severity::Warning,
        Tier::Structural,
        false,
        "an element can never occur in a finite document",
    ),
    rule(
        Code::UnsatisfiableDtd,
        "XNF009",
        "unsatisfiable-dtd",
        Severity::Error,
        Tier::Structural,
        false,
        "no finite document conforms to the DTD",
    ),
    rule(
        Code::NondeterministicContent,
        "XNF010",
        "nondeterministic-content",
        Severity::Error,
        Tier::Structural,
        false,
        "a content model is not 1-unambiguous",
    ),
    rule(
        Code::RecursiveDtd,
        "XNF011",
        "recursive-dtd",
        Severity::Warning,
        Tier::Structural,
        false,
        "the DTD is recursive; paths(D) is infinite",
    ),
    rule(
        Code::GeneralClass,
        "XNF012",
        "general-dtd-class",
        Severity::Info,
        Tier::Structural,
        false,
        "the DTD is neither simple nor disjunctive (Theorem 5 territory)",
    ),
    rule(
        Code::FdSyntax,
        "XNF101",
        "fd-syntax",
        Severity::Error,
        Tier::Semantic,
        false,
        "an FD does not parse",
    ),
    rule(
        Code::UnknownFdPath,
        "XNF102",
        "unknown-fd-path",
        Severity::Error,
        Tier::Semantic,
        false,
        "an FD path is not in paths(D)",
    ),
    rule(
        Code::VacuousFd,
        "XNF103",
        "vacuous-fd",
        Severity::Warning,
        Tier::Semantic,
        false,
        "an FD's paths are mutually exclusive; it constrains nothing",
    ),
    rule(
        Code::DuplicateFd,
        "XNF104",
        "duplicate-fd",
        Severity::Info,
        Tier::Semantic,
        false,
        "the same FD is listed twice",
    ),
    rule(
        Code::TrivialFd,
        "XNF105",
        "trivial-fd",
        Severity::Warning,
        Tier::Semantic,
        true,
        "an FD is implied by the DTD alone",
    ),
    rule(
        Code::RedundantFd,
        "XNF106",
        "redundant-fd",
        Severity::Warning,
        Tier::Semantic,
        true,
        "an FD is implied by the rest of \u{3a3}",
    ),
    rule(
        Code::EquivalentFds,
        "XNF107",
        "equivalent-fds",
        Severity::Info,
        Tier::Semantic,
        true,
        "two FDs are equivalent given the rest of \u{3a3}",
    ),
    rule(
        Code::RedundantLhsPath,
        "XNF108",
        "redundant-lhs-path",
        Severity::Info,
        Tier::Semantic,
        true,
        "an LHS path is determined by the other LHS paths",
    ),
    rule(
        Code::AnomalousFd,
        "XNF200",
        "anomalous-fd",
        Severity::Warning,
        Tier::Predictive,
        true,
        "an FD is anomalous: the spec is not in XNF",
    ),
    rule(
        Code::SchemaBlowUp,
        "XNF201",
        "schema-blow-up",
        Severity::Warning,
        Tier::Predictive,
        true,
        "the predicted decomposition creates many fresh element types",
    ),
    rule(
        Code::FdInteractionCluster,
        "XNF202",
        "fd-interaction-cluster",
        Severity::Info,
        Tier::Predictive,
        false,
        "a large cluster of FDs interact through shared paths",
    ),
    rule(
        Code::DeadAttribute,
        "XNF203",
        "dead-attribute",
        Severity::Info,
        Tier::Predictive,
        false,
        "an attribute is mentioned by no FD",
    ),
    rule(
        Code::FixpointIterationBound,
        "XNF204",
        "fixpoint-iteration-bound",
        Severity::Info,
        Tier::Predictive,
        true,
        "normalization needs many fixpoint iterations",
    ),
    rule(
        Code::ShredRecursive,
        "XNF300",
        "shred-recursive",
        Severity::Error,
        Tier::Shred,
        false,
        "the DTD is recursive; no per-path table layout exists",
    ),
    rule(
        Code::ShredMixedContent,
        "XNF301",
        "shred-mixed-content",
        Severity::Error,
        Tier::Shred,
        false,
        "mixed #PCDATA/element content has no stable text column",
    ),
    rule(
        Code::ShredNameCollision,
        "XNF302",
        "shred-name-collision",
        Severity::Warning,
        Tier::Shred,
        true,
        "colliding leaf names force mangled full-path table names",
    ),
    rule(
        Code::ShredWideTable,
        "XNF303",
        "shred-wide-table",
        Severity::Info,
        Tier::Shred,
        true,
        "a table exceeds the exhaustive derived-key search width",
    ),
];

const fn rule(
    code: Code,
    code_str: &'static str,
    id: &'static str,
    severity: Severity,
    tier: Tier,
    implication_backed: bool,
    summary: &'static str,
) -> Rule {
    Rule {
        code,
        code_str,
        id,
        severity,
        tier,
        implication_backed,
        summary,
    }
}

/// Lints a DTD text and (optionally) an FD-set text with the default
/// tiers, reading both itself — the DTD with [`DtdListing::read`] under
/// [`ParseLimits::default`], the FDs with [`FdListing::read`] — and
/// running unbudgeted, for tests and examples. Everything else is as
/// [`lint`] with [`OptIn::None`].
pub fn lint_spec(dtd_src: &str, fds_src: Option<&str>) -> LintReport {
    let dtd = DtdListing::read(dtd_src, ParseLimits::default(), UNLIMITED);
    let fds = fds_src.map(FdListing::read);
    match lint(&dtd, fds.as_ref(), OptIn::None, UNLIMITED) {
        Ok(report) => report,
        Err(_) => unreachable!("an unlimited budget cannot exhaust"),
    }
}

/// The opt-in tier a [`lint`] run adds to the structural and semantic
/// tiers: none, or exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptIn {
    /// The structural and semantic tiers alone.
    None,
    /// The **predictive tier** (`XNF2xx`): runs the static decomposition
    /// planner ([`xnf_core::analyze`](fn@xnf_core::analyze)) over
    /// `(D, Σ)` and reports what normalization would do — anomalous FDs
    /// with provenance, predicted schema blow-up, interaction clusters,
    /// dead attributes, and the fixpoint-iteration bound. Predictive
    /// diagnostics are observations about a *valid* spec, so the tier is
    /// skipped without FDs and whenever the earlier tiers found the spec
    /// degenerate (unparseable, recursive, paths outside `paths(D)`):
    /// those runs return exactly the [`OptIn::None`] report.
    Predictive,
    /// The **shred tier** (`XNF3xx`), the shredding backend's preflight:
    /// compiles the relational layout for `(D, Σ)` with
    /// [`xnf_core::compile_schema`] — without emitting DDL or rows — and
    /// reports what shredding would refuse (recursive DTDs, mixed
    /// content) or silently degrade on (mangled table names, sampled key
    /// search).
    Shred,
}

/// Lints a DTD text and (optionally) an FD set, running every
/// applicable rule of the [`registry`] plus the `opt_in` tier, under
/// `budget`.
///
/// `lint` parses neither input: `dtd` is the caller's [`DtdListing`] of
/// the DTD text, its parse success or failure included, and `fds` the
/// caller's [`FdListing`] of the FD-set text, so an op that parses under
/// its budget and trust limits has that one parse linted. A DTD parse
/// that ran out of budget has no report: its [`Exhausted`] comes back as
/// the error.
///
/// The structural tier always runs. The semantic tier runs when `fds` is
/// given *and* the DTD parsed and is non-recursive — the chase needs a
/// finite `paths(D)`, so recursive DTDs get `XNF011` instead. If the DTD
/// failed to parse, FD linting degrades to the listing's syntax errors.
///
/// The implication-backed rules and the opt-in tiers charge `budget` per
/// FD and per chase run, and the whole lint aborts with [`Exhausted`]
/// when it runs out. An `Err` means the report was *not* completed — no
/// partial report is returned, so a clean report always means a fully
/// linted spec. Of the phases before those rules only the caller's DTD
/// parse charges `budget`, up to the text's first error: the rest of
/// that reading, the FD parse (the caller's too), the structural tier,
/// FD resolution, `paths(D)` and the chase's fact tables run unmetered.
/// The structural tier's determinism check reads each content model's
/// position tree in time linear in its size times its nesting depth;
/// charging these phases to the budget is open (see "Hostile schemas"
/// in `ROADMAP.md`).
pub fn lint(
    dtd: &DtdListing<'_>,
    fds: Option<&FdListing<'_>>,
    opt_in: OptIn,
    budget: &Budget,
) -> Result<LintReport, Exhausted> {
    lint_inner(dtd, fds, opt_in, false, budget)
}

/// The preflight gate of the engine subcommands: does the spec have a
/// hard lint error? `None` when it has none; otherwise the full report —
/// exactly [`lint`]'s with [`OptIn::None`], or with [`OptIn::Shred`]
/// under `shred_tier` — for the caller to render. Like [`lint`], the
/// gate reads the caller's listings of both inputs and never parses.
///
/// Only the rules that can emit an error run first: the structural
/// tier, FD syntax and path resolution (`XNF101`/`XNF102`), and with
/// `shred_tier` recursion and mixed content (`XNF300`/`XNF301`). A clean
/// gate stops there, so the chase-backed `XNF103`/`XNF105`–`XNF108` and
/// the shred layout compile (`XNF302`/`XNF303`), which emit only
/// warnings and infos, are never computed for a report nobody reads.
/// Only a failing gate goes on to them — under `budget`, so rendering
/// its report can exhaust like any governed lint. The gate runs inside
/// a `lint.preflight` span on the budget's recorder.
pub fn preflight(
    dtd: &DtdListing<'_>,
    fds: Option<&FdListing<'_>>,
    shred_tier: bool,
    budget: &Budget,
) -> Result<Option<LintReport>, Exhausted> {
    let _span = budget.recorder().span("lint.preflight", "lint");
    let opt_in = if shred_tier {
        OptIn::Shred
    } else {
        OptIn::None
    };
    let report = lint_inner(dtd, fds, opt_in, true, budget)?;
    Ok(report.has_errors().then_some(report))
}

/// The one rule sequence behind [`lint`] and [`preflight`], over the
/// caller's listings of D and Σ. Every rule that can emit an error runs before every rule that
/// cannot; with `gate`, a run that found no error stops between them.
/// The order of rules does not reach the report: [`LintReport::new`]
/// sorts stably by (source, offset, code), and each code comes from one
/// rule.
fn lint_inner(
    dtd: &DtdListing<'_>,
    fds: Option<&FdListing<'_>>,
    opt_in: OptIn,
    gate: bool,
    budget: &Budget,
) -> Result<LintReport, Exhausted> {
    let parsed = dtd.parsed();
    if let Err(DtdError::Exhausted(e)) = parsed {
        return Err(e.clone());
    }
    let mut diags = Vec::new();
    let structural_span = budget.recorder().span("lint.structural", "lint");
    let ctx = parsed.as_ref().ok().map(|parsed| DtdCtx::new(dtd, parsed));
    // Every span into the DTD resolves through one line table: the
    // context's, or this one when the DTD did not parse.
    let unparsed = SourceText::new(dtd.src());
    let dtd_text = ctx.as_ref().map_or(&unparsed, |ctx| &ctx.text);
    structural::duplicate_decls(dtd_text, dtd, &mut diags);
    if let Some(ctx) = &ctx {
        structural::rule_unreachable(ctx, &mut diags);
        structural::rule_non_generating(ctx, &mut diags);
        structural::rule_unsatisfiable(ctx, &mut diags);
        structural::rule_determinism(ctx, &mut diags);
        structural::rule_recursive(ctx, &mut diags);
        structural::rule_general_class(ctx, &mut diags);
    }
    if let Err(err) = parsed {
        structural::map_parse_error(dtd_text, dtd, err, &mut diags);
    }
    drop(structural_span);
    // The path-based rules need a finite paths(D): a parsed,
    // non-recursive DTD.
    let finite = ctx.as_ref().filter(|c| !c.dtd.is_recursive());
    let sigma = fds.and_then(|listing| {
        let _span = budget.recorder().span("lint.semantic", "lint");
        semantic::resolve_fds(finite, listing, &mut diags)
    });
    if opt_in == OptIn::Shred {
        let _span = budget.recorder().span("lint.shred", "lint");
        // Mixed content *is* a parse failure; explain it anyway.
        shred::rule_mixed_content(dtd_text, dtd, &mut diags);
        if let Some(ctx) = &ctx {
            shred::rule_recursive(ctx.dtd, dtd_text, dtd, &mut diags);
        }
    }

    if gate && !diags.iter().any(|d| d.severity == Severity::Error) {
        return Ok(LintReport::new(diags));
    }

    // Report-only rules: none of them emits an error.
    if let Some(ctx) = finite {
        if let Some(sigma) = sigma {
            let _span = budget.recorder().span("lint.semantic", "lint");
            semantic::lint_resolved(ctx, sigma, budget, &mut diags)?;
        }
        if let (OptIn::Predictive, Some(listing)) = (opt_in, fds) {
            let _span = budget.recorder().span("lint.predictive", "lint");
            // Σ that does not parse has its XNF101 already.
            if let Ok(sigma) = listing.to_set() {
                predictive::lint_predictive(ctx, &sigma, budget, &mut diags)?;
            }
        }
        if opt_in == OptIn::Shred {
            let _span = budget.recorder().span("lint.shred", "lint");
            // Σ that does not parse has its XNF101 already; the layout
            // rules then run against the empty Σ.
            let sigma = fds.and_then(|l| l.to_set().ok()).unwrap_or_default();
            shred::rule_layout(ctx.dtd, dtd_text, dtd, &sigma, budget, &mut diags)?;
        }
    }
    Ok(LintReport::new(diags))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_codes_are_unique_and_cover_all_tiers() {
        let rules = registry();
        let mut codes: Vec<&str> = rules.iter().map(|r| r.code.as_str()).collect();
        codes.sort_unstable();
        let before = codes.len();
        codes.dedup();
        assert_eq!(codes.len(), before, "duplicate code in registry");
        let structural = rules
            .iter()
            .filter(|r| !matches!(r.tier, Tier::Semantic | Tier::Predictive))
            .count();
        let implication = rules.iter().filter(|r| r.implication_backed).count();
        let predictive = rules
            .iter()
            .filter(|r| matches!(r.tier, Tier::Predictive))
            .count();
        assert!(structural >= 4, "ISSUE floor: >= 4 structural rules");
        assert!(
            implication >= 4,
            "ISSUE floor: >= 4 implication-backed rules"
        );
        assert_eq!(predictive, 5, "the XNF2xx tier has five rules");
        let shred = rules
            .iter()
            .filter(|r| matches!(r.tier, Tier::Shred))
            .count();
        assert_eq!(shred, 4, "the XNF3xx tier has four rules");
        assert!(rules.len() >= 8);
    }

    /// Every `Code` method reads its code's row: each row sits at its
    /// code's index, and the table runs to the last variant, so every
    /// code has a row.
    #[test]
    fn every_row_sits_at_its_codes_index() {
        for (i, rule) in RULES.iter().enumerate() {
            assert_eq!(rule.code as usize, i, "{:?} is off its index", rule.code);
        }
        assert_eq!(RULES.len(), Code::ShredWideTable as usize + 1);
    }

    /// The listing `lint_spec` reads.
    fn listing(dtd: &str) -> DtdListing<'_> {
        DtdListing::read(dtd, ParseLimits::default(), UNLIMITED)
    }

    /// [`lint`] over a parse of its own source, as `lint_spec` runs it.
    fn lint_parsed(
        dtd: &str,
        fds: Option<&str>,
        opt_in: OptIn,
        budget: &Budget,
    ) -> Result<LintReport, Exhausted> {
        let fds = fds.map(FdListing::read);
        lint(&listing(dtd), fds.as_ref(), opt_in, budget)
    }

    /// The predictive tier is strictly opt-in: the default lint stays
    /// clean on the paper's DBLP spec while [`OptIn::Predictive`]
    /// surfaces the `XNF2xx` forecast for the very same input.
    #[test]
    fn predictive_tier_is_opt_in() {
        let dtd = "<!ELEMENT db (conf*)>
             <!ELEMENT conf (title, issue+)>
             <!ELEMENT title (#PCDATA)>
             <!ELEMENT issue (inproceedings+)>
             <!ELEMENT inproceedings (author+, title, booktitle)>
             <!ATTLIST inproceedings
                 key CDATA #REQUIRED
                 pages CDATA #REQUIRED
                 year CDATA #REQUIRED>
             <!ELEMENT author (#PCDATA)>
             <!ELEMENT booktitle (#PCDATA)>";
        let fds = "db.conf.title.S -> db.conf\n\
                   db.conf.issue -> db.conf.issue.inproceedings.@year";
        let plain = lint_spec(dtd, Some(fds));
        assert!(plain.is_clean(), "{}", plain.render_human());
        let predicted = lint_parsed(dtd, Some(fds), OptIn::Predictive, UNLIMITED).unwrap();
        assert!(!predicted.is_clean());
        assert!(
            predicted.codes().contains(&Code::AnomalousFd),
            "{:?}",
            predicted.codes()
        );
        // Every extra diagnostic belongs to the predictive band.
        for d in predicted.diagnostics() {
            assert!(d.code.as_str().starts_with("XNF2"), "{:?}", d.code);
        }
        // A degenerate spec gets no predictive diagnostics: the report
        // is exactly the default one.
        let broken_fds = Some("db.nope -> db.conf");
        let broken = lint_parsed(dtd, broken_fds, OptIn::Predictive, UNLIMITED).unwrap();
        assert_eq!(broken.codes(), lint_spec(dtd, broken_fds).codes());
        // Without FDs there is nothing to predict.
        let no_fds = lint_parsed(dtd, None, OptIn::Predictive, UNLIMITED).unwrap();
        assert_eq!(no_fds, lint_spec(dtd, None));
    }

    /// The preflight gate's premise: every code emitted only after its
    /// early exit is below `Error`, so stopping there cannot hide one.
    /// Promoting any of these codes to an error must move its rule
    /// before the gate, or the gate silently weakens.
    #[test]
    fn codes_after_the_gate_are_never_errors() {
        let after_gate = [
            Code::VacuousFd,
            Code::TrivialFd,
            Code::RedundantFd,
            Code::EquivalentFds,
            Code::RedundantLhsPath,
            Code::ShredNameCollision,
            Code::ShredWideTable,
        ];
        // The predictive tier runs after the gate too (never in a
        // preflight, but the rule sequence is shared).
        let predictive = registry()
            .iter()
            .filter(|r| r.tier == Tier::Predictive)
            .map(|r| r.code);
        for code in after_gate.into_iter().chain(predictive) {
            assert!(
                code.severity() < Severity::Error,
                "{code} runs after the preflight gate but is an error"
            );
        }
    }

    /// A passing gate charges the caller's budget nothing, though the
    /// full lint of the same spec runs the chase; a failing gate renders
    /// its report under that budget and can exhaust it.
    #[test]
    fn preflight_gate_charges_only_a_failing_report() {
        let dtd = "<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)> <!ATTLIST a k CDATA #REQUIRED>";
        let warned = "r.a.@k -> r.a\nr.a -> r";
        assert!(lint_spec(dtd, Some(warned)).count(Severity::Warning) > 0);
        let metered = Budget::builder().build();
        let warned = FdListing::read(warned);
        assert_eq!(
            preflight(&listing(dtd), Some(&warned), false, &metered),
            Ok(None)
        );
        assert_eq!(metered.ticks(), 0);
        let broken = "r.a.@k -> r.a\nr.a -> r\nr.nope -> r";
        let tiny = Budget::builder().fuel(2).build();
        let broken = FdListing::read(broken);
        let err = preflight(&listing(dtd), Some(&broken), false, &tiny).unwrap_err();
        assert_eq!(err.resource, xnf_govern::Resource::Fuel);
    }

    /// The gate and [`lint`] read the caller's parse: a parse that
    /// exhausted comes back as that exhaustion, with no report and no
    /// rule run.
    #[test]
    fn preflight_passes_on_a_parse_exhaustion() {
        let dtd = "<!ELEMENT r (a*)> <!ELEMENT a EMPTY> <!ELEMENT a EMPTY>";
        let tiny = Budget::builder().fuel(1).build();
        let parsed = DtdListing::read(dtd, ParseLimits::default(), &tiny);
        let Err(DtdError::Exhausted(cause)) = parsed.parsed() else {
            panic!("fuel 1 must exhaust the parse: {parsed:?}");
        };
        let metered = Budget::builder().build();
        let err = preflight(&parsed, None, false, &metered).unwrap_err();
        assert_eq!(&err, cause);
        for opt_in in [OptIn::None, OptIn::Predictive, OptIn::Shred] {
            let fds = FdListing::read("r.a -> r");
            let err = lint(&parsed, Some(&fds), opt_in, &metered).unwrap_err();
            assert_eq!(&err, cause);
        }
        assert_eq!(metered.ticks(), 0);
        // The same source, parsed in full, fails the gate (XNF002).
        let report = preflight(&listing(dtd), None, false, &metered).unwrap();
        assert_eq!(report.unwrap().codes(), vec![Code::DuplicateElement]);
    }

    #[test]
    fn clean_spec_is_clean() {
        let report = lint_spec(
            "<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)> <!ATTLIST a k CDATA #REQUIRED>",
            Some("r.a.@k -> r.a"),
        );
        assert!(report.is_clean(), "{}", report.render_human());
    }

    #[test]
    fn governed_lint_agrees_and_exhausts() {
        let dtd = "<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)> <!ATTLIST a k CDATA #REQUIRED>";
        let fds = "r.a.@k -> r.a\nr.a -> r";
        let plain = lint_spec(dtd, Some(fds));
        // Generous budget: identical report.
        let generous = Budget::builder().fuel(1_000_000).build();
        let governed = lint_parsed(dtd, Some(fds), OptIn::None, &generous).unwrap();
        assert_eq!(governed.codes(), plain.codes());
        // Tiny budget: a structured error, never a truncated report.
        let tiny = Budget::builder().fuel(2).build();
        let err = lint_parsed(dtd, Some(fds), OptIn::None, &tiny).unwrap_err();
        assert_eq!(err.resource, xnf_govern::Resource::Fuel);
    }
}

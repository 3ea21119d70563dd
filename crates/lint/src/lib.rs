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
//! * **Predictive** (`XNF2xx`, opt-in via [`lint_spec_predictive`]) —
//!   what normalization *would do*: anomalous FDs with provenance,
//!   predicted schema blow-up, FD interaction clusters, dead attributes,
//!   and the fixpoint-iteration bound, all driven by the static planner
//!   [`xnf_core::analyze`](fn@xnf_core::analyze) without ever running
//!   `normalize`.
//! * **Shred** (`XNF3xx`, opt-in via [`lint_spec_shred`]) — what the
//!   XML→relational shredding backend would make of the spec: recursive
//!   DTDs and mixed content (which shredding must refuse), leaf-name
//!   collisions that mangle table names, and tables too wide for the
//!   exhaustive derived-key search, driven by [`xnf_core::compile_schema`]
//!   without emitting any DDL or rows.
//!
//! The engine subcommands gate on [`preflight`]: the same rules, with
//! every rule that can emit an error run first and an early exit when
//! none did, so a clean spec never pays for the warnings and infos the
//! preflight would not show.
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

pub mod determinism;
mod json;
pub mod predictive;
mod report;
pub mod source;
mod structural;

mod semantic;
mod shred;

pub use report::{Code, Diagnostic, LintReport, Severity, SourceKind, Span};
pub use source::DeclIndex;
pub use structural::{generating_set, reachable_set, DtdCtx};

use xnf_dtd::parse_dtd;
use xnf_govern::{Budget, Exhausted};

/// The shared ungoverned budget backing the infallible [`lint_spec`].
const UNLIMITED: &Budget = &Budget::unlimited();

/// Which tier a rule belongs to (how it is driven).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Mapped from a parser rejection (the strict parser is the analysis).
    Parse,
    /// Runs over the raw declaration text, before parsing.
    Scanner,
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

/// One registered analysis: its code, tier, and a one-line summary.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// The stable diagnostic code.
    pub code: Code,
    /// How the rule is driven.
    pub tier: Tier,
    /// Whether the rule's verdicts come from the chase implication engine.
    pub implication_backed: bool,
    /// One-line description.
    pub summary: &'static str,
}

/// The rule registry: every analysis [`lint_spec`] can run, in code order.
/// (Extending the linter means adding a row here plus its implementation
/// in the matching tier module.)
pub fn registry() -> &'static [Rule] {
    const fn rule(code: Code, tier: Tier, implication_backed: bool, summary: &'static str) -> Rule {
        Rule {
            code,
            tier,
            implication_backed,
            summary,
        }
    }
    const RULES: &[Rule] = &[
        rule(
            Code::DtdSyntax,
            Tier::Parse,
            false,
            "the DTD text does not parse",
        ),
        rule(
            Code::DuplicateElement,
            Tier::Scanner,
            false,
            "an element is declared more than once",
        ),
        rule(
            Code::DuplicateAttribute,
            Tier::Scanner,
            false,
            "an attribute is declared more than once for one element",
        ),
        rule(
            Code::UndeclaredElement,
            Tier::Parse,
            false,
            "a content model references an undeclared element",
        ),
        rule(
            Code::RootReferenced,
            Tier::Parse,
            false,
            "the root occurs in a content model (violates Definition 1)",
        ),
        rule(
            Code::AttlistForUndeclared,
            Tier::Parse,
            false,
            "an ATTLIST names an undeclared element",
        ),
        rule(
            Code::UnreachableElement,
            Tier::Structural,
            false,
            "an element is unreachable from the root",
        ),
        rule(
            Code::NonGeneratingElement,
            Tier::Structural,
            false,
            "an element can never occur in a finite document",
        ),
        rule(
            Code::UnsatisfiableDtd,
            Tier::Structural,
            false,
            "no finite document conforms to the DTD",
        ),
        rule(
            Code::NondeterministicContent,
            Tier::Structural,
            false,
            "a content model is not 1-unambiguous",
        ),
        rule(
            Code::RecursiveDtd,
            Tier::Structural,
            false,
            "the DTD is recursive; paths(D) is infinite",
        ),
        rule(
            Code::GeneralClass,
            Tier::Structural,
            false,
            "the DTD is neither simple nor disjunctive (Theorem 5 territory)",
        ),
        rule(
            Code::FdSyntax,
            Tier::Semantic,
            false,
            "an FD does not parse",
        ),
        rule(
            Code::UnknownFdPath,
            Tier::Semantic,
            false,
            "an FD path is not in paths(D)",
        ),
        rule(
            Code::VacuousFd,
            Tier::Semantic,
            false,
            "an FD's paths are mutually exclusive; it constrains nothing",
        ),
        rule(
            Code::DuplicateFd,
            Tier::Semantic,
            false,
            "the same FD is listed twice",
        ),
        rule(
            Code::TrivialFd,
            Tier::Semantic,
            true,
            "an FD is implied by the DTD alone",
        ),
        rule(
            Code::RedundantFd,
            Tier::Semantic,
            true,
            "an FD is implied by the rest of \u{3a3}",
        ),
        rule(
            Code::EquivalentFds,
            Tier::Semantic,
            true,
            "two FDs are equivalent given the rest of \u{3a3}",
        ),
        rule(
            Code::RedundantLhsPath,
            Tier::Semantic,
            true,
            "an LHS path is determined by the other LHS paths",
        ),
        rule(
            Code::AnomalousFd,
            Tier::Predictive,
            true,
            "an FD is anomalous: the spec is not in XNF",
        ),
        rule(
            Code::SchemaBlowUp,
            Tier::Predictive,
            true,
            "the predicted decomposition creates many fresh element types",
        ),
        rule(
            Code::FdInteractionCluster,
            Tier::Predictive,
            false,
            "a large cluster of FDs interact through shared paths",
        ),
        rule(
            Code::DeadAttribute,
            Tier::Predictive,
            false,
            "an attribute is mentioned by no FD",
        ),
        rule(
            Code::FixpointIterationBound,
            Tier::Predictive,
            true,
            "normalization needs many fixpoint iterations",
        ),
        rule(
            Code::ShredRecursive,
            Tier::Shred,
            false,
            "the DTD is recursive; no per-path table layout exists",
        ),
        rule(
            Code::ShredMixedContent,
            Tier::Shred,
            false,
            "mixed #PCDATA/element content has no stable text column",
        ),
        rule(
            Code::ShredNameCollision,
            Tier::Shred,
            true,
            "colliding leaf names force mangled full-path table names",
        ),
        rule(
            Code::ShredWideTable,
            Tier::Shred,
            true,
            "a table exceeds the exhaustive derived-key search width",
        ),
    ];
    RULES
}

/// Lints a DTD text and (optionally) an FD-set text, running every
/// applicable rule of the [`registry`].
///
/// The structural tier always runs. The semantic tier runs when `fds_src`
/// is given *and* the DTD parsed, is non-recursive, and — since the chase
/// needs `paths(D)` — skips the implication-backed rules for recursive
/// DTDs (flagged `XNF011` instead). If the DTD failed to parse, FD
/// linting degrades to per-FD syntax checking.
pub fn lint_spec(dtd_src: &str, fds_src: Option<&str>) -> LintReport {
    match lint_spec_governed(dtd_src, fds_src, UNLIMITED) {
        Ok(report) => report,
        Err(_) => unreachable!("an unlimited budget cannot exhaust"),
    }
}

/// Budget-governed [`lint_spec`]: the implication-backed semantic rules
/// charge `budget` per FD and per chase run, and the whole lint aborts
/// with [`Exhausted`] when it runs out. An `Err` means the report was
/// *not* completed — no partial report is returned, so a clean report
/// always means a fully linted spec.
///
/// Nothing before those rules charges `budget`: the DTD parse, the
/// structural tier, FD resolution, `paths(D)` and the chase's fact
/// tables run ungoverned. They are not cheap on a hostile schema — the
/// structural tier's determinism check builds every Glushkov `follow`
/// set, quadratic in a content model's positions, and outlasts the
/// budgeted chase by far (see "Hostile schemas" in `ROADMAP.md`).
pub fn lint_spec_governed(
    dtd_src: &str,
    fds_src: Option<&str>,
    budget: &Budget,
) -> Result<LintReport, Exhausted> {
    lint_inner(dtd_src, fds_src, budget, Tiers::default())
}

/// [`lint_spec_governed`] plus the opt-in **predictive tier** (`XNF2xx`):
/// runs the static decomposition planner
/// ([`xnf_core::analyze`](fn@xnf_core::analyze)) over `(D, Σ)` and reports
/// what normalization would do — anomalous FDs with provenance, predicted
/// schema blow-up, interaction clusters, dead attributes, and the
/// fixpoint-iteration bound.
///
/// Predictive diagnostics are observations about a *valid* spec, so the
/// tier is skipped whenever the earlier tiers found the spec degenerate
/// (unparseable, recursive, paths outside `paths(D)`): those runs return
/// exactly the [`lint_spec_governed`] report. The planner charges
/// `budget` like any implication-backed rule.
pub fn lint_spec_predictive(
    dtd_src: &str,
    fds_src: &str,
    budget: &Budget,
) -> Result<LintReport, Exhausted> {
    let tiers = Tiers {
        predictive: true,
        ..Tiers::default()
    };
    lint_inner(dtd_src, Some(fds_src), budget, tiers)
}

/// [`lint_spec_governed`] plus the opt-in **shred tier** (`XNF3xx`): the
/// shredding backend's preflight. Compiles the relational layout for
/// `(D, Σ)` with [`xnf_core::compile_schema`] — without emitting DDL or
/// rows — and reports what shredding would refuse (recursive DTDs, mixed
/// content) or silently degrade on (mangled table names, sampled key
/// search).
pub fn lint_spec_shred(
    dtd_src: &str,
    fds_src: Option<&str>,
    budget: &Budget,
) -> Result<LintReport, Exhausted> {
    let tiers = Tiers {
        shred: true,
        ..Tiers::default()
    };
    lint_inner(dtd_src, fds_src, budget, tiers)
}

/// The preflight gate of the engine subcommands: does the spec have a
/// hard lint error? `None` when it has none; otherwise the full report —
/// exactly [`lint_spec_governed`]'s, or [`lint_spec_shred`]'s with
/// `shred_tier` — for the caller to render.
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
    dtd_src: &str,
    fds_src: Option<&str>,
    shred_tier: bool,
    budget: &Budget,
) -> Result<Option<LintReport>, Exhausted> {
    let _span = budget.recorder().span("lint.preflight", "lint");
    let tiers = Tiers {
        shred: shred_tier,
        gate: true,
        ..Tiers::default()
    };
    let report = lint_inner(dtd_src, fds_src, budget, tiers)?;
    Ok(report.has_errors().then_some(report))
}

/// Which rules one [`lint_inner`] run covers.
#[derive(Debug, Clone, Copy, Default)]
struct Tiers {
    /// The opt-in predictive tier (`XNF2xx`).
    predictive: bool,
    /// The opt-in shred tier (`XNF3xx`).
    shred: bool,
    /// Stop before the report-only rules unless an error fired.
    gate: bool,
}

/// The one rule sequence behind every entry point. Every rule that can
/// emit an error runs before every rule that cannot; the gate is the
/// early exit between them. The order of rules does not reach the
/// report: [`LintReport::new`] sorts stably by (source, offset, code),
/// and each code comes from one rule.
fn lint_inner(
    dtd_src: &str,
    fds_src: Option<&str>,
    budget: &Budget,
    tiers: Tiers,
) -> Result<LintReport, Exhausted> {
    let mut diags = Vec::new();
    let structural_span = budget.recorder().span("lint.structural", "lint");
    let index = DeclIndex::scan(dtd_src);
    structural::duplicate_decls(dtd_src, &index, &mut diags);
    let parsed = parse_dtd(dtd_src);
    let ctx = match &parsed {
        Ok(dtd) => {
            let ctx = DtdCtx::new(dtd_src, dtd, &index);
            structural::rule_unreachable(&ctx, &mut diags);
            structural::rule_non_generating(&ctx, &mut diags);
            structural::rule_unsatisfiable(&ctx, &mut diags);
            structural::rule_determinism(&ctx, &mut diags);
            structural::rule_recursive(&ctx, &mut diags);
            structural::rule_general_class(&ctx, &mut diags);
            Some(ctx)
        }
        Err(err) => {
            structural::map_parse_error(dtd_src, &index, err, &mut diags);
            None
        }
    };
    drop(structural_span);
    // The path-based rules need a finite paths(D): a parsed,
    // non-recursive DTD.
    let finite = ctx.as_ref().filter(|c| !c.dtd.is_recursive());
    let sigma = fds_src.and_then(|fds_src| {
        let _span = budget.recorder().span("lint.semantic", "lint");
        match finite {
            Some(ctx) => semantic::resolve_fds(ctx, fds_src, &mut diags),
            None => {
                semantic::lint_fd_syntax_only(fds_src, &mut diags);
                None
            }
        }
    });
    if tiers.shred {
        let _span = budget.recorder().span("lint.shred", "lint");
        // Mixed content *is* a parse failure; explain it anyway.
        shred::rule_mixed_content(dtd_src, &index, &mut diags);
        if let Some(ctx) = &ctx {
            shred::rule_recursive(ctx.dtd, dtd_src, &index, &mut diags);
        }
    }

    if tiers.gate && !diags.iter().any(|d| d.severity == Severity::Error) {
        return Ok(LintReport::new(diags));
    }

    // Report-only rules: none of them emits an error.
    if let Some(ctx) = finite {
        if let (Some(fds_src), Some(sigma)) = (fds_src, sigma) {
            let _span = budget.recorder().span("lint.semantic", "lint");
            semantic::lint_resolved(ctx, fds_src, sigma, budget, &mut diags)?;
        }
        if let (true, Some(fds_src)) = (tiers.predictive, fds_src) {
            let _span = budget.recorder().span("lint.predictive", "lint");
            predictive::lint_predictive(ctx, fds_src, budget, &mut diags)?;
        }
        if tiers.shred {
            let _span = budget.recorder().span("lint.shred", "lint");
            shred::rule_layout(ctx.dtd, dtd_src, &index, fds_src, budget, &mut diags)?;
        }
    }
    Ok(LintReport::new(diags))
}

/// Lints the DTD alone (structural tier only).
pub fn lint_dtd(dtd_src: &str) -> LintReport {
    lint_spec(dtd_src, None)
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
        // The registry is total: one row per `Code` variant.
        assert_eq!(rules.len(), Code::ALL.len());
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

    /// The predictive tier is strictly opt-in: the default lint stays
    /// clean on the paper's DBLP spec while [`lint_spec_predictive`]
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
        let predicted = lint_spec_predictive(dtd, fds, UNLIMITED).unwrap();
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
        let broken = lint_spec_predictive(dtd, "db.nope -> db.conf", UNLIMITED).unwrap();
        assert_eq!(
            broken.codes(),
            lint_spec(dtd, Some("db.nope -> db.conf")).codes()
        );
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
        assert_eq!(preflight(dtd, Some(warned), false, &metered), Ok(None));
        assert_eq!(metered.ticks(), 0);
        let broken = "r.a.@k -> r.a\nr.a -> r\nr.nope -> r";
        let tiny = Budget::builder().fuel(2).build();
        let err = preflight(dtd, Some(broken), false, &tiny).unwrap_err();
        assert_eq!(err.resource, xnf_govern::Resource::Fuel);
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
        let governed = lint_spec_governed(dtd, Some(fds), &generous).unwrap();
        assert_eq!(governed.codes(), plain.codes());
        // Tiny budget: a structured error, never a truncated report.
        let tiny = Budget::builder().fuel(2).build();
        let err = lint_spec_governed(dtd, Some(fds), &tiny).unwrap_err();
        assert_eq!(err.resource, xnf_govern::Resource::Fuel);
    }
}

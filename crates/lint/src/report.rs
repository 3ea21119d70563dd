//! The diagnostics data model: codes, severities, spans, and the rendered
//! report (human-readable and JSON).

use crate::json;
use xnf_dtd::span::{line_col_str, line_text, LineCol};

/// How serious a diagnostic is.
///
/// `Error`-severity diagnostics describe specs the engine cannot (or should
/// not) process: `normalize`/`is-xnf` preflight aborts on them. `Warning`s
/// are well-formed but suspicious constructs; `Info`s are observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// An observation worth knowing about; never gates anything.
    Info,
    /// A suspicious construct: the spec is processable but likely not what
    /// its author intended.
    Warning,
    /// A defect: the spec is rejected by preflight linting.
    Error,
}

impl Severity {
    /// Lowercase name, as used in JSON output and human rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which input text a diagnostic points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// The DTD declaration text.
    Dtd,
    /// The FD set text.
    Fds,
}

impl SourceKind {
    /// Lowercase name, as used in JSON output and `--> dtd:3:7` locations.
    pub fn as_str(self) -> &'static str {
        match self {
            SourceKind::Dtd => "dtd",
            SourceKind::Fds => "fds",
        }
    }
}

/// The stable, coded identity of each lint analysis.
///
/// Codes `XNF001`–`XNF0xx` are structural (the DTD alone); codes
/// `XNF1xx` are semantic (the FD set Σ against the DTD, several of them
/// backed by the chase implication engine); codes `XNF2xx` are
/// *predictive* (opt-in: what the Figure 4 normalization would do to the
/// spec, computed statically by [`xnf_core::analyze`](fn@xnf_core::analyze)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// XNF001: the DTD text does not parse.
    DtdSyntax,
    /// XNF002: an element is declared more than once.
    DuplicateElement,
    /// XNF003: an attribute is declared more than once for one element.
    DuplicateAttribute,
    /// XNF004: a content model references an element that is never declared.
    UndeclaredElement,
    /// XNF005: the root element occurs in a content model (Definition 1
    /// requires the root not to occur in any `P(τ)`).
    RootReferenced,
    /// XNF006: an `<!ATTLIST …>` names an element with no declaration.
    AttlistForUndeclared,
    /// XNF007: an element is unreachable from the root.
    UnreachableElement,
    /// XNF008: an element can never occur in any finite conforming
    /// document (its content model has no generating word).
    NonGeneratingElement,
    /// XNF009: no finite document conforms to the DTD at all (the root is
    /// non-generating).
    UnsatisfiableDtd,
    /// XNF010: a content model is not 1-unambiguous (deterministic), as
    /// the XML specification requires.
    NondeterministicContent,
    /// XNF011: the DTD is recursive; `paths(D)` is infinite and the
    /// path-based FD analyses do not apply.
    RecursiveDtd,
    /// XNF012: the DTD is neither simple nor disjunctive (Section 7), so
    /// FD implication falls back to the general chase (coNP-complete,
    /// Theorem 5).
    GeneralClass,
    /// XNF101: an FD does not parse.
    FdSyntax,
    /// XNF102: an FD mentions a path that is not in `paths(D)`.
    UnknownFdPath,
    /// XNF103: an FD mentions paths the DTD makes mutually exclusive, so
    /// no tree tuple ever instantiates them together — the FD is vacuous.
    VacuousFd,
    /// XNF104: the same FD appears more than once in Σ.
    DuplicateFd,
    /// XNF105: an FD is trivial — implied by the DTD alone, `(D, ∅) ⊢ φ`.
    TrivialFd,
    /// XNF106: an FD is implied by the rest of Σ, `(D, Σ∖{φ}) ⊢ φ`.
    RedundantFd,
    /// XNF107: two FDs are equivalent given the rest of Σ (each derivable
    /// from the other); one of the pair can be dropped.
    EquivalentFds,
    /// XNF108: an FD's left-hand side contains a path already determined
    /// by its other left-hand-side paths in every tree.
    RedundantLhsPath,
    /// XNF200: an FD is anomalous — the spec is not in XNF and
    /// normalization would rewrite the schema around it.
    AnomalousFd,
    /// XNF201: the predicted decomposition creates many fresh element
    /// types; the normalized schema will look very different.
    SchemaBlowUp,
    /// XNF202: a large cluster of interacting FDs (sharing or feeding
    /// each other's paths) — decomposition order within it matters.
    FdInteractionCluster,
    /// XNF203: an attribute no FD constrains; it rides along unchanged
    /// through every decomposition step.
    DeadAttribute,
    /// XNF204: normalization needs many fixpoint iterations to reach
    /// XNF; the spec is far from normal form.
    FixpointIterationBound,
    /// XNF300: the DTD is recursive, so the shredding backend cannot
    /// compile it (a table per element path needs finite `paths(D)`).
    ShredRecursive,
    /// XNF301: a content model mixes `#PCDATA` with element children;
    /// mixed content is outside Definition 2 and not shreddable.
    ShredMixedContent,
    /// XNF302: two element paths share a tail name, so their tables
    /// fall back to full path names (`a_b_x`).
    ShredNameCollision,
    /// XNF303: a table has more chase-representable columns than the
    /// FD derivation enumerates exhaustively; derived FDs (and hence
    /// the per-table BCNF verdict) may be incomplete on it.
    ShredWideTable,
}

impl Code {
    /// The stable `XNFnnn` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::DtdSyntax => "XNF001",
            Code::DuplicateElement => "XNF002",
            Code::DuplicateAttribute => "XNF003",
            Code::UndeclaredElement => "XNF004",
            Code::RootReferenced => "XNF005",
            Code::AttlistForUndeclared => "XNF006",
            Code::UnreachableElement => "XNF007",
            Code::NonGeneratingElement => "XNF008",
            Code::UnsatisfiableDtd => "XNF009",
            Code::NondeterministicContent => "XNF010",
            Code::RecursiveDtd => "XNF011",
            Code::GeneralClass => "XNF012",
            Code::FdSyntax => "XNF101",
            Code::UnknownFdPath => "XNF102",
            Code::VacuousFd => "XNF103",
            Code::DuplicateFd => "XNF104",
            Code::TrivialFd => "XNF105",
            Code::RedundantFd => "XNF106",
            Code::EquivalentFds => "XNF107",
            Code::RedundantLhsPath => "XNF108",
            Code::AnomalousFd => "XNF200",
            Code::SchemaBlowUp => "XNF201",
            Code::FdInteractionCluster => "XNF202",
            Code::DeadAttribute => "XNF203",
            Code::FixpointIterationBound => "XNF204",
            Code::ShredRecursive => "XNF300",
            Code::ShredMixedContent => "XNF301",
            Code::ShredNameCollision => "XNF302",
            Code::ShredWideTable => "XNF303",
        }
    }

    /// Every code, in report (numeric) order.
    pub const ALL: &'static [Code] = &[
        Code::DtdSyntax,
        Code::DuplicateElement,
        Code::DuplicateAttribute,
        Code::UndeclaredElement,
        Code::RootReferenced,
        Code::AttlistForUndeclared,
        Code::UnreachableElement,
        Code::NonGeneratingElement,
        Code::UnsatisfiableDtd,
        Code::NondeterministicContent,
        Code::RecursiveDtd,
        Code::GeneralClass,
        Code::FdSyntax,
        Code::UnknownFdPath,
        Code::VacuousFd,
        Code::DuplicateFd,
        Code::TrivialFd,
        Code::RedundantFd,
        Code::EquivalentFds,
        Code::RedundantLhsPath,
        Code::AnomalousFd,
        Code::SchemaBlowUp,
        Code::FdInteractionCluster,
        Code::DeadAttribute,
        Code::FixpointIterationBound,
        Code::ShredRecursive,
        Code::ShredMixedContent,
        Code::ShredNameCollision,
        Code::ShredWideTable,
    ];

    /// Parses a stable `XNFnnn` code string back into the code.
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    /// Short kebab-case rule name (JSON `rule` field, docs).
    pub fn id(self) -> &'static str {
        match self {
            Code::DtdSyntax => "dtd-syntax",
            Code::DuplicateElement => "duplicate-element",
            Code::DuplicateAttribute => "duplicate-attribute",
            Code::UndeclaredElement => "undeclared-element",
            Code::RootReferenced => "root-referenced",
            Code::AttlistForUndeclared => "attlist-for-undeclared",
            Code::UnreachableElement => "unreachable-element",
            Code::NonGeneratingElement => "non-generating-element",
            Code::UnsatisfiableDtd => "unsatisfiable-dtd",
            Code::NondeterministicContent => "nondeterministic-content",
            Code::RecursiveDtd => "recursive-dtd",
            Code::GeneralClass => "general-dtd-class",
            Code::FdSyntax => "fd-syntax",
            Code::UnknownFdPath => "unknown-fd-path",
            Code::VacuousFd => "vacuous-fd",
            Code::DuplicateFd => "duplicate-fd",
            Code::TrivialFd => "trivial-fd",
            Code::RedundantFd => "redundant-fd",
            Code::EquivalentFds => "equivalent-fds",
            Code::RedundantLhsPath => "redundant-lhs-path",
            Code::AnomalousFd => "anomalous-fd",
            Code::SchemaBlowUp => "schema-blow-up",
            Code::FdInteractionCluster => "fd-interaction-cluster",
            Code::DeadAttribute => "dead-attribute",
            Code::FixpointIterationBound => "fixpoint-iteration-bound",
            Code::ShredRecursive => "shred-recursive",
            Code::ShredMixedContent => "shred-mixed-content",
            Code::ShredNameCollision => "shred-name-collision",
            Code::ShredWideTable => "shred-wide-table",
        }
    }

    /// The severity every diagnostic with this code carries.
    pub fn severity(self) -> Severity {
        match self {
            Code::DtdSyntax
            | Code::DuplicateElement
            | Code::DuplicateAttribute
            | Code::UndeclaredElement
            | Code::RootReferenced
            | Code::AttlistForUndeclared
            | Code::UnsatisfiableDtd
            | Code::NondeterministicContent
            | Code::FdSyntax
            | Code::UnknownFdPath
            | Code::ShredRecursive
            | Code::ShredMixedContent => Severity::Error,
            Code::UnreachableElement
            | Code::NonGeneratingElement
            | Code::RecursiveDtd
            | Code::VacuousFd
            | Code::TrivialFd
            | Code::RedundantFd
            | Code::AnomalousFd
            | Code::SchemaBlowUp
            | Code::ShredNameCollision => Severity::Warning,
            Code::GeneralClass
            | Code::DuplicateFd
            | Code::EquivalentFds
            | Code::RedundantLhsPath
            | Code::FdInteractionCluster
            | Code::DeadAttribute
            | Code::FixpointIterationBound
            | Code::ShredWideTable => Severity::Info,
        }
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A byte range in one of the two spec sources, with its resolved
/// line/column start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the start of the span.
    pub offset: usize,
    /// Byte length (0 is rendered as a caret of width 1).
    pub len: usize,
    /// 1-based line/column of `offset`.
    pub at: LineCol,
}

/// One finding of one lint rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that produced this diagnostic.
    pub code: Code,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// Which source text the span points into.
    pub source: SourceKind,
    /// The primary message.
    pub message: String,
    /// Where in the source, if the rule can point somewhere.
    pub span: Option<Span>,
    /// The full source line under the span, captured at creation so the
    /// report renders without re-reading the input.
    pub snippet: Option<String>,
    /// Secondary notes (cross-references, explanations).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A span-less diagnostic.
    pub fn new(code: Code, source: SourceKind, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            source,
            message: message.into(),
            span: None,
            snippet: None,
            notes: Vec::new(),
        }
    }

    /// Attaches a span at `offset..offset+len` into `src`, capturing the
    /// line/column and the source line.
    pub fn with_span(mut self, src: &str, offset: usize, len: usize) -> Diagnostic {
        self.span = Some(Span {
            offset,
            len,
            at: line_col_str(src, offset),
        });
        self.snippet = Some(line_text(src, offset).to_string());
        self
    }

    /// Appends a secondary note.
    pub fn note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    fn render_human(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "{}[{}]: {}", self.severity, self.code, self.message);
        match &self.span {
            Some(span) => {
                let _ = writeln!(
                    out,
                    "  --> {}:{}:{}",
                    self.source.as_str(),
                    span.at.line,
                    span.at.col
                );
                if let Some(snippet) = &self.snippet {
                    let gutter = span.at.line.to_string();
                    let pad = " ".repeat(gutter.len());
                    let _ = writeln!(out, " {pad} |");
                    let _ = writeln!(out, " {gutter} | {snippet}");
                    let caret_pad = " ".repeat(span.at.col.saturating_sub(1) as usize);
                    let carets = "^".repeat(span.len.max(1));
                    let _ = writeln!(out, " {pad} | {caret_pad}{carets}");
                }
            }
            None => {
                let _ = writeln!(out, "  --> {}", self.source.as_str());
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "  = note: {note}");
        }
    }

    fn render_json(&self, out: &mut json::Object) {
        out.string("code", self.code.as_str());
        out.string("rule", self.code.id());
        out.string("severity", self.severity.as_str());
        out.string("source", self.source.as_str());
        out.string("message", &self.message);
        match &self.span {
            Some(span) => out.object("span", |o| {
                o.number("offset", span.offset as u64);
                o.number("len", span.len as u64);
                o.number("line", u64::from(span.at.line));
                o.number("col", u64::from(span.at.col));
            }),
            None => out.null("span"),
        }
        match &self.snippet {
            Some(s) => out.string("snippet", s),
            None => out.null("snippet"),
        }
        out.string_array("notes", self.notes.iter().map(String::as_str));
    }
}

/// The outcome of one lint run: every diagnostic, in source order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Wraps raw diagnostics, sorting them into a stable report order:
    /// DTD findings before FD findings, by source position, then by code.
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> LintReport {
        diagnostics.sort_by_key(|d| {
            (
                matches!(d.source, SourceKind::Fds),
                d.span.as_ref().map_or(usize::MAX, |s| s.offset),
                d.code,
            )
        });
        LintReport { diagnostics }
    }

    /// All diagnostics, in report order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of diagnostics with the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any diagnostic is an error (the preflight gate).
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Whether the spec produced no diagnostics at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The codes of all diagnostics, in report order (handy in tests).
    pub fn codes(&self) -> Vec<Code> {
        self.diagnostics.iter().map(|d| d.code).collect()
    }

    /// Renders the rustc-style human report, ending with a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            d.render_human(&mut out);
            out.push('\n');
        }
        out.push_str(&self.summary_line());
        out.push('\n');
        out
    }

    /// The one-line summary (`lint: 1 error, 2 warnings, 0 infos`).
    pub fn summary_line(&self) -> String {
        if self.is_clean() {
            return "lint: clean (no diagnostics)".to_string();
        }
        let plural = |n: usize, word: &str| {
            if n == 1 {
                format!("1 {word}")
            } else {
                format!("{n} {word}s")
            }
        };
        format!(
            "lint: {}, {}, {}",
            plural(self.count(Severity::Error), "error"),
            plural(self.count(Severity::Warning), "warning"),
            plural(self.count(Severity::Info), "info"),
        )
    }

    /// Renders the report as a single JSON object (schema documented in the
    /// README; hand-rolled because the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut root = json::Object::new();
        root.number("version", 1);
        root.bool("clean", self.is_clean());
        root.object("summary", |o| {
            o.number("errors", self.count(Severity::Error) as u64);
            o.number("warnings", self.count(Severity::Warning) as u64);
            o.number("infos", self.count(Severity::Info) as u64);
        });
        root.array("diagnostics", |a| {
            for d in &self.diagnostics {
                a.object(|o| d.render_json(o));
            }
        });
        root.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering_is_info_warning_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn report_sorts_dtd_before_fds_and_by_offset() {
        let src = "line one\nline two\n";
        let d1 = Diagnostic::new(Code::TrivialFd, SourceKind::Fds, "fd").with_span(src, 0, 2);
        let d2 =
            Diagnostic::new(Code::UnreachableElement, SourceKind::Dtd, "late").with_span(src, 9, 4);
        let d3 =
            Diagnostic::new(Code::DuplicateElement, SourceKind::Dtd, "early").with_span(src, 0, 4);
        let report = LintReport::new(vec![d1, d2, d3]);
        assert_eq!(
            report.codes(),
            vec![
                Code::DuplicateElement,
                Code::UnreachableElement,
                Code::TrivialFd
            ]
        );
    }

    #[test]
    fn human_rendering_shows_span_and_caret() {
        let src = "<!ELEMENT a EMPTY>";
        let d = Diagnostic::new(Code::DuplicateElement, SourceKind::Dtd, "dup `a`")
            .with_span(src, 10, 1)
            .note("first declared earlier");
        let report = LintReport::new(vec![d]);
        let text = report.render_human();
        assert!(text.contains("error[XNF002]: dup `a`"), "{text}");
        assert!(text.contains("--> dtd:1:11"), "{text}");
        assert!(text.contains("<!ELEMENT a EMPTY>"), "{text}");
        assert!(text.contains("= note: first declared earlier"), "{text}");
        assert!(
            text.contains("lint: 1 error, 0 warnings, 0 infos"),
            "{text}"
        );
    }

    /// Satellite pin: the `Code` ↔ `"XNF###"` mapping round-trips over
    /// every variant (including the predictive `XNF2xx` tier), the
    /// strings are unique and well-formed, and `ALL` is in numeric order.
    #[test]
    fn code_string_round_trip_is_exhaustive() {
        let mut seen = std::collections::BTreeSet::new();
        for &code in Code::ALL {
            let s = code.as_str();
            assert_eq!(s.len(), 6, "{s}");
            assert!(s.starts_with("XNF"), "{s}");
            assert!(s[3..].chars().all(|c| c.is_ascii_digit()), "{s}");
            assert_eq!(Code::parse(s), Some(code), "{s} does not round-trip");
            assert!(seen.insert(s), "duplicate code string {s}");
            assert!(!code.id().is_empty());
        }
        let ordered: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
        let mut sorted = ordered.clone();
        sorted.sort_unstable();
        assert_eq!(ordered, sorted, "Code::ALL is not in numeric order");
        // Tier bands are populated: structural, semantic, predictive,
        // shred.
        for band in ["XNF0", "XNF1", "XNF2", "XNF3"] {
            assert!(ordered.iter().any(|s| s.starts_with(band)), "{band} empty");
        }
        assert_eq!(Code::parse("XNF999"), None);
        assert_eq!(Code::parse("xnf001"), None);
        assert_eq!(Code::parse(""), None);
    }

    #[test]
    fn clean_report_renders_clean() {
        let report = LintReport::new(Vec::new());
        assert!(report.is_clean());
        assert!(!report.has_errors());
        assert!(report.render_human().contains("clean"));
        assert!(report.to_json().contains("\"clean\": true"));
    }
}

//! # `xnf-core` — XML functional dependencies, XNF, and lossless
//! normalization
//!
//! The primary contribution of Arenas & Libkin, *"A Normal Form for XML
//! Documents"* (PODS 2002), implemented in full:
//!
//! * [`mod@tuple`] — **tree tuples** (Definition 4) and `tree_D(t)`
//!   (Definition 5): the relational representation of XML documents.
//! * [`tuples`] — `tuples_D(T)` (Definition 6) and `trees_D(X)`
//!   (Definition 7), with the Theorem 1 round-trip
//!   `trees_D(tuples_D(T)) = [T]`.
//! * [`fd`] — functional dependencies for XML (Section 4): expressions
//!   `S₁ → S₂` over `paths(D)`, with satisfaction defined on the tree-tuple
//!   relation under the incomplete-relation semantics.
//! * [`implication`] — the implication problem `(D, Σ) ⊢ φ` (Section 7): a
//!   sound two-tuple chase that is fast (near-quadratic) on simple DTDs
//!   (Theorem 3) and handles disjunctive DTDs (Theorem 4), plus an
//!   exhaustive counterexample search realizing the coNP upper bound
//!   (Theorem 5) used for validation.
//! * [`xnf`] — the XML normal form **XNF** (Definition 8), anomalous FDs
//!   and anomalous paths `AP(D, Σ)`, with the Proposition 10 fast path.
//! * [`mod@normalize`] — the XNF decomposition algorithm (Figure 4): *moving
//!   attributes* and *creating new element types*, `(D,Σ)`-minimal
//!   anomalous FD selection, and a machine-checkable step trace.
//! * [`lossless`] — document-level counterparts of the two schema
//!   transformations and the Section 6 losslessness check (round-trip
//!   reconstruction plus the `tuples_D` commuting diagram on Codd tables).
//! * [`encode`] — the codings of Section 5: relational schemas as DTDs
//!   (Proposition 4: BCNF ⇔ XNF) and nested relational schemas as DTDs
//!   (Proposition 5: NNF ⇔ XNF).
//! * [`keys`] — keys as the FD subclass of Section 4 (absolute and
//!   relative), with minimal-key discovery.
//! * [`shred`] — the XML→relational shredding backend: compiling
//!   `(D, Σ)` to tables with Σ-derived FDs, shredding documents into
//!   rows and reconstructing them exactly (the executable side of the
//!   Proposition 4 correspondence: XNF schemas shred to BCNF tables).
//! * [`mod@mvd`] — XML multivalued dependencies with swap semantics over
//!   tree tuples, and the structurally induced MVDs of Section 8.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod encode;
pub mod fd;
pub mod implication;
pub mod keys;
pub mod lossless;
pub mod mvd;
pub mod normalize;
pub mod shred;
pub mod tuple;
pub mod tuples;
pub mod xnf;

pub use crate::analyze::{analyze, Analysis, AnalyzeOptions, AnomalyInfo, CostEstimate, FdGraph};
pub use crate::fd::{XmlFd, XmlFdSet};
pub use crate::implication::{
    Chase, ChaseConfig, ChaseStats, ChaseStatsSnapshot, CounterexampleSearch, Implication,
    ImplicationCache,
};
pub use crate::lossless::{
    restore_document, transform_document, verify_lossless, verify_lossless_trace, LosslessReport,
    StepReport,
};
pub use crate::normalize::{normalize, NormalizeOptions, NormalizeResult, NormalizeStats, Step};
pub use crate::shred::{
    compile_schema, shred_document, unshred_document, ShredSchema, FD_ENUMERATION_WIDTH,
};
pub use crate::tuple::TreeTuple;
pub use crate::tuples::{trees_d, tuples_d, tuples_d_recursive, tuples_relation};
pub use crate::xnf::{anomalous_fds, anomalous_fds_governed, is_xnf, is_xnf_governed};

use std::fmt;
use xnf_dtd::DtdError;

/// Errors produced by the core layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An underlying DTD error (unknown path, recursive DTD, …).
    Dtd(DtdError),
    /// The tree is not compatible with the DTD (`paths(T) ⊄ paths(D)`), so
    /// `tuples_D(T)` is undefined.
    NotCompatible,
    /// A set of tree tuples is not `D`-compatible: the tuples cannot be
    /// merged into one tree (conflicting labels, parents, attributes or
    /// text for a shared vertex, or distinct roots).
    InconsistentTuples(String),
    /// An FD has an empty side.
    EmptyFd,
    /// The normalization algorithm only supports non-recursive DTDs (the
    /// paper notes the recursive case "can be handled in a very similar
    /// fashion"; see DESIGN.md).
    RecursiveNormalization,
    /// The normalization step limit was exceeded — this indicates a bug, as
    /// Proposition 6 guarantees the anomalous-path count strictly
    /// decreases.
    TooManySteps,
    /// A document transformation would need a null value where the revised
    /// DTD requires an attribute (the footnote-1 case of Section 6, not
    /// implemented; see DESIGN.md).
    UnrepresentableNull {
        /// The path whose value is null.
        path: String,
    },
    /// An FD path ends in `.S` under an element that is not `#PCDATA`, or a
    /// preprocessing rewrite is impossible (e.g. folding a repeated
    /// element).
    BadFdPath(String),
    /// A resource budget ran out mid-computation (see [`xnf_govern`]). The
    /// answer is unknown — callers must not treat this as a negative
    /// verdict.
    Exhausted(xnf_govern::Exhausted),
    /// A normalization result cannot be replayed on documents: it lacks
    /// one `(D, Σ)` snapshot per step (it was computed with
    /// `NormalizeOptions::record_stages` off).
    MissingStages {
        /// Steps in the result.
        steps: usize,
        /// Stage snapshots in the result.
        stages: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Dtd(e) => write!(f, "{e}"),
            CoreError::NotCompatible => {
                write!(
                    f,
                    "tree is not compatible with the DTD (paths(T) ⊄ paths(D))"
                )
            }
            CoreError::InconsistentTuples(why) => {
                write!(f, "tree tuples are not D-compatible: {why}")
            }
            CoreError::EmptyFd => write!(f, "functional dependencies need non-empty sides"),
            CoreError::RecursiveNormalization => {
                write!(
                    f,
                    "the normalization algorithm requires a non-recursive DTD"
                )
            }
            CoreError::TooManySteps => {
                write!(
                    f,
                    "normalization exceeded its step limit (internal invariant violated)"
                )
            }
            CoreError::UnrepresentableNull { path } => write!(
                f,
                "document transformation hit a null value of `{path}` that the revised DTD \
                 cannot represent (Section 6, footnote 1)"
            ),
            CoreError::BadFdPath(p) => write!(f, "FD path `{p}` cannot be used here"),
            CoreError::Exhausted(e) => write!(f, "{e}"),
            CoreError::MissingStages { steps, stages } => write!(
                f,
                "cannot replay {steps} normalization steps on a document with {stages} stage \
                 snapshots (normalize with `record_stages` on)"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Dtd(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DtdError> for CoreError {
    fn from(e: DtdError) -> Self {
        CoreError::Dtd(e)
    }
}

impl From<xnf_govern::Exhausted> for CoreError {
    fn from(e: xnf_govern::Exhausted) -> Self {
        CoreError::Exhausted(e)
    }
}

/// The shared ungoverned budget, for infallible wrappers around governed
/// internals (its checkpoints can never fail).
pub(crate) const UNLIMITED: &xnf_govern::Budget = &xnf_govern::Budget::unlimited();

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
pub(crate) mod fixtures {
    //! Shared paper fixtures used across the crate's unit tests.

    use xnf_dtd::{parse_dtd, Dtd};
    use xnf_xml::XmlTree;

    /// The university DTD of Example 1.1(a).
    pub fn university_dtd() -> Dtd {
        parse_dtd(
            "<!ELEMENT courses (course*)>
             <!ELEMENT course (title, taken_by)>
             <!ATTLIST course cno CDATA #REQUIRED>
             <!ELEMENT title (#PCDATA)>
             <!ELEMENT taken_by (student*)>
             <!ELEMENT student (name, grade)>
             <!ATTLIST student sno CDATA #REQUIRED>
             <!ELEMENT name (#PCDATA)>
             <!ELEMENT grade (#PCDATA)>",
        )
        .expect("university DTD parses")
    }

    /// The document of Figure 1(a).
    pub fn figure_1a() -> XmlTree {
        xnf_xml::parse(
            r#"<courses>
              <course cno="csc200">
                <title>Automata Theory</title>
                <taken_by>
                  <student sno="st1"><name>Deere</name><grade>A+</grade></student>
                  <student sno="st2"><name>Smith</name><grade>B-</grade></student>
                </taken_by>
              </course>
              <course cno="mat100">
                <title>Calculus I</title>
                <taken_by>
                  <student sno="st1"><name>Deere</name><grade>A-</grade></student>
                  <student sno="st3"><name>Smith</name><grade>B+</grade></student>
                </taken_by>
              </course>
            </courses>"#,
        )
        .expect("figure 1(a) parses")
    }

    /// The DBLP DTD of Example 1.2.
    pub fn dblp_dtd() -> Dtd {
        parse_dtd(
            "<!ELEMENT db (conf*)>
             <!ELEMENT conf (title, issue+)>
             <!ELEMENT title (#PCDATA)>
             <!ELEMENT issue (inproceedings+)>
             <!ELEMENT inproceedings (author+, title, booktitle)>
             <!ATTLIST inproceedings
                 key CDATA #REQUIRED
                 pages CDATA #REQUIRED
                 year CDATA #REQUIRED>
             <!ELEMENT author (#PCDATA)>
             <!ELEMENT booktitle (#PCDATA)>",
        )
        .expect("DBLP DTD parses")
    }

    /// A small DBLP document conforming to [`dblp_dtd`].
    pub fn dblp_doc() -> XmlTree {
        xnf_xml::parse(
            r#"<db>
              <conf>
                <title>PODS</title>
                <issue>
                  <inproceedings key="p1" pages="1-12" year="2001">
                    <author>Fan</author><author>Libkin</author>
                    <title>On XML integrity constraints</title>
                    <booktitle>PODS 01</booktitle>
                  </inproceedings>
                  <inproceedings key="p2" pages="13-24" year="2001">
                    <author>Buneman</author>
                    <title>Keys for XML</title>
                    <booktitle>PODS 01</booktitle>
                  </inproceedings>
                </issue>
                <issue>
                  <inproceedings key="p3" pages="1-10" year="2002">
                    <author>Arenas</author>
                    <title>A normal form for XML documents</title>
                    <booktitle>PODS 02</booktitle>
                  </inproceedings>
                </issue>
              </conf>
            </db>"#,
        )
        .expect("DBLP document parses")
    }
}

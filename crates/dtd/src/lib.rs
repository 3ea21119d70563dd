//! # `xnf-dtd` — Document Type Definitions for the XNF normalization library
//!
//! This crate implements the DTD substrate of Arenas & Libkin, *"A Normal
//! Form for XML Documents"* (PODS 2002): Definition 1 (DTDs as
//! `(E, A, P, R, r)`), the path machinery of Section 2 (`paths(D)`,
//! `EPaths(D)`, recursion), and the Section 7 classification of content
//! models (trivial / simple regular expressions, simple disjunctions,
//! disjunctive DTDs, and the complexity measure `N_D`).
//!
//! The crate is self-contained: it provides its own regular-expression AST
//! ([`Regex`]), a parser for DTD declaration syntax ([`parse_dtd`]), the
//! Glushkov automaton for conformance checking and 1-unambiguity
//! ([`glushkov::PositionTree`]), and a serializer back to DTD syntax.
//!
//! ## Example
//!
//! ```
//! use xnf_dtd::parse_dtd;
//!
//! let dtd = parse_dtd(r#"
//!     <!ELEMENT courses (course*)>
//!     <!ELEMENT course (title)>
//!     <!ATTLIST course cno CDATA #REQUIRED>
//!     <!ELEMENT title (#PCDATA)>
//! "#).unwrap();
//! assert_eq!(dtd.root_name(), "courses");
//! let paths = dtd.paths().unwrap();
//! assert!(paths.resolve_str("courses.course.@cno").is_some());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod classify;
pub mod derivative;
pub mod dtd;
pub mod glushkov;
pub mod parse;
pub mod paths;
pub mod regex;
pub mod span;

pub use crate::classify::{DtdClass, Multiplicity, SimpleContent};
pub use crate::dtd::{ContentModel, Dtd, DtdBuilder, ElemId, ElementDecl};
pub use crate::parse::{
    parse_dtd, parse_dtd_governed, AttlistEntry, AttributeEntry, DtdListing, ElementEntry, Outcome,
    ParseLimits,
};
pub use crate::paths::{Path, PathId, PathSet, Step};
pub use crate::regex::Regex;
pub use crate::span::LineCol;

use std::fmt;

/// The shared ungoverned budget, for infallible wrappers around governed
/// internals (its checkpoints can never fail).
pub(crate) const UNLIMITED: &xnf_govern::Budget = &xnf_govern::Budget::unlimited();

/// Errors produced while building, parsing or analysing DTDs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DtdError {
    /// An element name was referenced in a content model but never declared
    /// with an `<!ELEMENT …>` declaration.
    UndeclaredElement {
        /// The undeclared element name.
        name: String,
        /// The element whose content model references it.
        referenced_by: String,
    },
    /// The same element was declared twice.
    DuplicateElement(String),
    /// The same attribute was declared twice for one element.
    DuplicateAttribute {
        /// Element carrying the attribute.
        element: String,
        /// The duplicated attribute name.
        attribute: String,
    },
    /// The root element type occurs in some content model. The paper assumes
    /// (without loss of generality, Definition 1) that the root does not
    /// occur in `P(τ)` for any `τ ∈ E`.
    RootReferenced {
        /// The element whose content model mentions the root.
        referenced_by: String,
    },
    /// An attribute was declared for an element with no `<!ELEMENT …>`
    /// declaration.
    AttlistForUndeclared(String),
    /// A syntax error in DTD declaration syntax or in a content-model
    /// regular expression.
    Syntax {
        /// Byte offset of the error in the input.
        offset: usize,
        /// 1-based line/column of `offset`, resolved against the input at
        /// construction time (see [`span::line_col`]).
        at: LineCol,
        /// Human-readable description.
        message: String,
    },
    /// The requested operation needs the (finite) path set of a
    /// non-recursive DTD, but the DTD is recursive (`paths(D)` is infinite).
    RecursiveDtd {
        /// An element type participating in a reference cycle.
        witness: String,
    },
    /// A path string could not be resolved against `paths(D)`.
    NoSuchPath(String),
    /// A resource budget ran out mid-computation (see [`xnf_govern`]).
    Exhausted(xnf_govern::Exhausted),
}

impl fmt::Display for DtdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtdError::UndeclaredElement {
                name,
                referenced_by,
            } => write!(
                f,
                "element `{name}` is referenced by `{referenced_by}` but never declared"
            ),
            DtdError::DuplicateElement(name) => {
                write!(f, "element `{name}` is declared more than once")
            }
            DtdError::DuplicateAttribute { element, attribute } => write!(
                f,
                "attribute `@{attribute}` is declared more than once for element `{element}`"
            ),
            DtdError::RootReferenced { referenced_by } => write!(
                f,
                "the root element occurs in the content model of `{referenced_by}` \
                 (Definition 1 requires the root not to occur in any P(τ))"
            ),
            DtdError::AttlistForUndeclared(name) => {
                write!(f, "ATTLIST for undeclared element `{name}`")
            }
            DtdError::Syntax {
                offset,
                at,
                message,
            } => {
                write!(
                    f,
                    "syntax error at line {}, column {} (byte {offset}): {message}",
                    at.line, at.col
                )
            }
            DtdError::RecursiveDtd { witness } => write!(
                f,
                "DTD is recursive (element `{witness}` participates in a cycle); \
                 paths(D) is infinite"
            ),
            DtdError::NoSuchPath(p) => write!(f, "`{p}` is not a path of this DTD"),
            DtdError::Exhausted(e) => write!(f, "{e}"),
        }
    }
}

impl From<xnf_govern::Exhausted> for DtdError {
    fn from(e: xnf_govern::Exhausted) -> Self {
        DtdError::Exhausted(e)
    }
}

impl DtdError {
    /// Constructs a [`DtdError::Syntax`] pointing at `offset` into `src`,
    /// resolving the line/column eagerly (the error outlives the source).
    pub fn syntax(src: &[u8], offset: usize, message: impl Into<String>) -> DtdError {
        DtdError::Syntax {
            offset,
            at: span::line_col(src, offset),
            message: message.into(),
        }
    }
}

impl std::error::Error for DtdError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, DtdError>;

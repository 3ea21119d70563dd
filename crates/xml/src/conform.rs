//! Conformance `T ⊨ D` and compatibility `T ◁ D` — Definition 3.

use crate::tree::{NodeContent, NodeId, XmlTree};
use crate::UNLIMITED;
use std::collections::HashMap;
use std::fmt;
use xnf_dtd::{glushkov::PositionTree, ContentModel, Dtd};
use xnf_govern::{Budget, Exhausted};

/// Why a tree fails to conform to a DTD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConformError {
    /// The root label is not the DTD's root element type.
    WrongRoot {
        /// Expected root element type.
        expected: String,
        /// Actual label of the document root.
        found: String,
    },
    /// A node's label is not a declared element type.
    UnknownElement {
        /// The undeclared label.
        label: String,
    },
    /// A node's children word is not in the language of its content model.
    ContentMismatch {
        /// Label of the offending node.
        element: String,
        /// The labels of its children, in order.
        found: Vec<String>,
        /// The expected content model, rendered in DTD syntax.
        expected: String,
    },
    /// A node has text content but its element type does not declare
    /// `#PCDATA` (or vice versa).
    TextMismatch {
        /// Label of the offending node.
        element: String,
        /// Whether the node (rather than the DTD) has text content.
        node_has_text: bool,
    },
    /// A node's attribute set is not exactly `R(lab(v))`.
    AttributeMismatch {
        /// Label of the offending node.
        element: String,
        /// Attributes in `R(τ)` missing from the node.
        missing: Vec<String>,
        /// Attributes on the node that are not in `R(τ)`.
        unexpected: Vec<String>,
    },
    /// A resource budget ran out mid-check (see [`xnf_govern`]). The
    /// conformance verdict is unknown: callers must not treat this as a
    /// non-conformance.
    Exhausted(Exhausted),
}

impl fmt::Display for ConformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformError::WrongRoot { expected, found } => {
                write!(f, "root element is `{found}`, DTD requires `{expected}`")
            }
            ConformError::UnknownElement { label } => {
                write!(f, "element `{label}` is not declared in the DTD")
            }
            ConformError::ContentMismatch {
                element,
                found,
                expected,
            } => write!(
                f,
                "children of `{element}` are [{}], not in the language of `{expected}`",
                found.join(", ")
            ),
            ConformError::TextMismatch {
                element,
                node_has_text,
            } => {
                if *node_has_text {
                    write!(f, "`{element}` has text content but is not declared #PCDATA")
                } else {
                    write!(f, "`{element}` is declared #PCDATA but has element content")
                }
            }
            ConformError::AttributeMismatch {
                element,
                missing,
                unexpected,
            } => write!(
                f,
                "attributes of `{element}` do not match R({element}): missing [{}], unexpected [{}]",
                missing.join(", "),
                unexpected.join(", ")
            ),
            ConformError::Exhausted(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ConformError {}

impl From<Exhausted> for ConformError {
    fn from(e: Exhausted) -> Self {
        ConformError::Exhausted(e)
    }
}

/// Checks `T ⊨ D` (Definition 3): every label is a declared element type,
/// the root is labelled `r`, every node's children word is in the language
/// of its content model (a `#PCDATA` element contains one string, with the
/// empty element `<t></t>` accepted as the empty string), and every node
/// defines exactly the attributes `R(lab(v))`.
pub fn conforms(t: &XmlTree, d: &Dtd) -> Result<(), ConformError> {
    conforms_governed(t, d, UNLIMITED)
}

/// [`conforms`] under a resource [`Budget`]: one checkpoint is spent per
/// document node, and building and reading each element type's position
/// tree are charged through the same budget. On exhaustion the result is
/// [`ConformError::Exhausted`] — an "unknown" verdict, never a spurious
/// mismatch.
pub fn conforms_governed(t: &XmlTree, d: &Dtd, budget: &Budget) -> Result<(), ConformError> {
    if t.label(t.root()) != d.root_name() {
        return Err(ConformError::WrongRoot {
            expected: d.root_name().to_string(),
            found: t.label(t.root()).to_string(),
        });
    }
    let mut trees: HashMap<xnf_dtd::ElemId, PositionTree<'_>> = HashMap::new();
    for v in t.descendants() {
        budget.checkpoint("xml.conform.node")?;
        let label = t.label(v);
        let elem = d
            .elem_id(label)
            .ok_or_else(|| ConformError::UnknownElement {
                label: label.to_string(),
            })?;
        // Attribute sets must match exactly (att(v, @l) defined iff
        // @l ∈ R(lab(v))).
        let missing: Vec<String> = d
            .attrs(elem)
            .filter(|a| t.attr(v, a).is_none())
            .map(str::to_string)
            .collect();
        let unexpected: Vec<String> = t
            .attrs(v)
            .filter(|(a, _)| !d.has_attr(elem, a))
            .map(|(a, _)| a.to_string())
            .collect();
        if !missing.is_empty() || !unexpected.is_empty() {
            return Err(ConformError::AttributeMismatch {
                element: label.to_string(),
                missing,
                unexpected,
            });
        }
        match (d.content(elem), t.content(v)) {
            (ContentModel::Text, NodeContent::Text(_)) => {}
            (ContentModel::Text, NodeContent::Children(c)) if c.is_empty() => {
                // `<title></title>` ⇒ ele(v) = [""] — accepted.
            }
            (ContentModel::Text, NodeContent::Children(_)) => {
                return Err(ConformError::TextMismatch {
                    element: label.to_string(),
                    node_has_text: false,
                });
            }
            (ContentModel::Regex(_), NodeContent::Text(_)) => {
                return Err(ConformError::TextMismatch {
                    element: label.to_string(),
                    node_has_text: true,
                });
            }
            (ContentModel::Regex(re), NodeContent::Children(children)) => {
                let tree = match trees.entry(elem) {
                    std::collections::hash_map::Entry::Occupied(o) => o.into_mut(),
                    std::collections::hash_map::Entry::Vacant(vac) => {
                        vac.insert(PositionTree::new(re, budget)?)
                    }
                };
                if !tree.matches(children.iter().map(|&c| t.label(c)), budget)? {
                    return Err(ConformError::ContentMismatch {
                        element: label.to_string(),
                        found: children.iter().map(|&c| t.label(c).to_string()).collect(),
                        expected: re.to_string(),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Checks compatibility `T ◁ D`: `paths(T) ⊆ paths(D)` (Definition 3).
///
/// Works stepwise on the DTD's reference structure, so it also handles
/// recursive DTDs (whose `paths(D)` is infinite).
pub fn compatible(t: &XmlTree, d: &Dtd) -> bool {
    if t.label(t.root()) != d.root_name() {
        return false;
    }
    compatible_below(t, t.root(), d)
}

fn compatible_below(t: &XmlTree, v: NodeId, d: &Dtd) -> bool {
    let Some(elem) = d.elem_id(t.label(v)) else {
        return false;
    };
    // Attribute paths: p.@l ∈ paths(D) iff @l ∈ R(last(p)).
    if !t.attrs(v).all(|(a, _)| d.has_attr(elem, a)) {
        return false;
    }
    match t.content(v) {
        NodeContent::Text(_) => d.content(elem).is_text(),
        NodeContent::Children(children) => children.iter().all(|&c| {
            // p.τ' ∈ paths(D) iff τ' is in the alphabet of P(last(p)).
            match d.content(elem) {
                ContentModel::Text => false,
                ContentModel::Regex(re) => re.mentions(t.label(c)) && compatible_below(t, c, d),
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use xnf_dtd::parse_dtd;

    fn university_dtd() -> Dtd {
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
        .unwrap()
    }

    fn figure_1a() -> crate::XmlTree {
        parse(
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
        .unwrap()
    }

    #[test]
    fn figure_1a_conforms() {
        assert_eq!(conforms(&figure_1a(), &university_dtd()), Ok(()));
        assert!(compatible(&figure_1a(), &university_dtd()));
    }

    #[test]
    fn wrong_root_detected() {
        let t = parse("<wrong/>").unwrap();
        let d = university_dtd();
        assert!(matches!(
            conforms(&t, &d),
            Err(ConformError::WrongRoot { .. })
        ));
        assert!(!compatible(&t, &d));
    }

    #[test]
    fn missing_attribute_detected() {
        let t = parse("<courses><course><title>T</title><taken_by/></course></courses>").unwrap();
        let d = university_dtd();
        match conforms(&t, &d) {
            Err(ConformError::AttributeMismatch { missing, .. }) => {
                assert_eq!(missing, vec!["cno"]);
            }
            other => panic!("expected AttributeMismatch, got {other:?}"),
        }
        // Missing attributes keep the tree *compatible* (paths(T) only
        // shrinks), unlike conformance.
        assert!(compatible(&t, &d));
    }

    #[test]
    fn unexpected_attribute_detected() {
        let t = parse(
            r#"<courses><course cno="c1" extra="x"><title>T</title><taken_by/></course></courses>"#,
        )
        .unwrap();
        let d = university_dtd();
        assert!(matches!(
            conforms(&t, &d),
            Err(ConformError::AttributeMismatch { .. })
        ));
        // An undeclared attribute also breaks compatibility.
        assert!(!compatible(&t, &d));
    }

    #[test]
    fn content_mismatch_detected() {
        // course children out of order.
        let t =
            parse(r#"<courses><course cno="c1"><taken_by/><title>T</title></course></courses>"#)
                .unwrap();
        let d = university_dtd();
        assert!(matches!(
            conforms(&t, &d),
            Err(ConformError::ContentMismatch { .. })
        ));
        // Compatibility only looks at paths, so order does not matter.
        assert!(compatible(&t, &d));
    }

    #[test]
    fn text_mismatch_detected() {
        let t =
            parse(r#"<courses><course cno="c1"><title><x/></title><taken_by/></course></courses>"#)
                .unwrap();
        let d = university_dtd();
        assert!(matches!(
            conforms(&t, &d),
            Err(ConformError::TextMismatch { .. }) | Err(ConformError::UnknownElement { .. })
        ));
        assert!(!compatible(&t, &d));
    }

    #[test]
    fn empty_text_element_accepted() {
        let t = parse(r#"<courses><course cno="c1"><title></title><taken_by/></course></courses>"#)
            .unwrap();
        assert_eq!(conforms(&t, &university_dtd()), Ok(()));
    }

    #[test]
    fn missing_required_child_detected() {
        let t = parse(r#"<courses><course cno="c1"><title>T</title></course></courses>"#).unwrap();
        assert!(matches!(
            conforms(&t, &university_dtd()),
            Err(ConformError::ContentMismatch { .. })
        ));
    }

    #[test]
    fn compatibility_with_recursive_dtd() {
        let d = parse_dtd(
            "<!ELEMENT r (part)>
             <!ELEMENT part (part*)>
             <!ATTLIST part id CDATA #REQUIRED>",
        )
        .unwrap();
        let t = parse(r#"<r><part id="1"><part id="2"><part id="3"/></part></part></r>"#).unwrap();
        assert!(compatible(&t, &d));
        assert_eq!(conforms(&t, &d), Ok(()));
    }

    #[test]
    fn governed_conformance_agrees_and_exhausts() {
        let t = figure_1a();
        let d = university_dtd();
        let generous = Budget::builder().fuel(1_000_000).build();
        assert_eq!(conforms_governed(&t, &d, &generous), Ok(()));
        let tiny = Budget::builder().fuel(3).build();
        match conforms_governed(&t, &d, &tiny) {
            Err(ConformError::Exhausted(e)) => {
                assert_eq!(e.resource, xnf_govern::Resource::Fuel);
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn subtree_of_conforming_tree_is_compatible_not_conforming() {
        // Drop a required `grade` child: still compatible, not conforming.
        let t = parse(
            r#"<courses><course cno="c1"><title>T</title><taken_by>
               <student sno="s1"><name>N</name></student>
               </taken_by></course></courses>"#,
        )
        .unwrap();
        let d = university_dtd();
        assert!(compatible(&t, &d));
        assert!(conforms(&t, &d).is_err());
    }
}

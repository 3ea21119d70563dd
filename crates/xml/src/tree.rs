//! Arena-backed XML trees — Definition 2.
//!
//! `T = (V, lab, ele, att, root)` where `ele` maps each node either to a
//! list of element children or to a single string (no mixed content), and
//! `att` is a partial function from `V × Att` to `Str`.

use std::collections::BTreeMap;

/// Identifier of a node within one [`XmlTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The dense index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The `ele` value of one node: element children or one string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeContent {
    /// Zero or more element children, in document order.
    Children(Vec<NodeId>),
    /// A single string child (`#PCDATA` content).
    Text(Box<str>),
}

#[derive(Debug, Clone)]
struct Node {
    label: Box<str>,
    parent: Option<NodeId>,
    content: NodeContent,
    attrs: BTreeMap<Box<str>, Box<str>>,
}

/// An XML tree (Definition 2). Nodes live in an arena owned by the tree;
/// [`NodeId`]s index into it.
#[derive(Debug, Clone)]
pub struct XmlTree {
    nodes: Vec<Node>,
    root: NodeId,
}

impl XmlTree {
    /// Creates a tree with a single root element labelled `root_label`.
    pub fn new(root_label: impl Into<Box<str>>) -> XmlTree {
        XmlTree {
            nodes: vec![Node {
                label: root_label.into(),
                parent: None,
                content: NodeContent::Children(Vec::new()),
                attrs: BTreeMap::new(),
            }],
            root: NodeId(0),
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of element nodes `|V|`.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// All node ids (allocation order; the root is first).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// `lab(v)` — the element label of `v`.
    pub fn label(&self, v: NodeId) -> &str {
        &self.nodes[v.index()].label
    }

    /// The parent of `v`, or `None` for the root.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.nodes[v.index()].parent
    }

    /// `ele(v)` — the content of `v`.
    pub fn content(&self, v: NodeId) -> &NodeContent {
        &self.nodes[v.index()].content
    }

    /// The element children of `v` (empty slice for text or empty nodes).
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        match &self.nodes[v.index()].content {
            NodeContent::Children(c) => c,
            NodeContent::Text(_) => &[],
        }
    }

    /// The string child of `v`, if `v` has text content.
    pub fn text(&self, v: NodeId) -> Option<&str> {
        match &self.nodes[v.index()].content {
            NodeContent::Text(s) => Some(s),
            NodeContent::Children(_) => None,
        }
    }

    /// `att(v, @name)` — the value of attribute `name` on `v`, if defined.
    /// Attribute names are passed without the leading `@`.
    pub fn attr(&self, v: NodeId, name: &str) -> Option<&str> {
        self.nodes[v.index()].attrs.get(name).map(|s| &**s)
    }

    /// The attributes of `v` as sorted `(name, value)` pairs.
    pub fn attrs(&self, v: NodeId) -> impl Iterator<Item = (&str, &str)> {
        self.nodes[v.index()]
            .attrs
            .iter()
            .map(|(k, v)| (&**k, &**v))
    }

    /// Number of attributes defined on `v`.
    pub fn num_attrs(&self, v: NodeId) -> usize {
        self.nodes[v.index()].attrs.len()
    }

    /// Appends a new element child labelled `label` to `v` and returns its
    /// id.
    ///
    /// # Panics
    ///
    /// Panics if `v` has text content (no mixed content, Definition 2).
    pub fn add_child(&mut self, v: NodeId, label: impl Into<Box<str>>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            label: label.into(),
            parent: Some(v),
            content: NodeContent::Children(Vec::new()),
            attrs: BTreeMap::new(),
        });
        match &mut self.nodes[v.index()].content {
            NodeContent::Children(c) => c.push(id),
            NodeContent::Text(_) => {
                panic!("cannot add element child to a text node (mixed content)")
            }
        }
        id
    }

    /// Reorders the element children of `v` by `key`, keeping the order of
    /// children with equal keys.
    pub fn sort_children_by_key<K: Ord>(&mut self, v: NodeId, key: impl FnMut(&NodeId) -> K) {
        if let NodeContent::Children(children) = &mut self.nodes[v.index()].content {
            children.sort_by_key(key);
        }
    }

    /// Sets the content of `v` to the single string `text`.
    ///
    /// # Panics
    ///
    /// Panics if `v` already has element children (no mixed content).
    pub fn set_text(&mut self, v: NodeId, text: impl Into<Box<str>>) {
        match &self.nodes[v.index()].content {
            NodeContent::Children(c) if !c.is_empty() => {
                panic!("cannot set text on a node with element children (mixed content)")
            }
            _ => self.nodes[v.index()].content = NodeContent::Text(text.into()),
        }
    }

    /// Defines attribute `name = value` on `v` (replacing any previous
    /// value). Names are passed without the leading `@`.
    pub fn set_attr(&mut self, v: NodeId, name: impl Into<Box<str>>, value: impl Into<Box<str>>) {
        self.nodes[v.index()]
            .attrs
            .insert(name.into(), value.into());
    }

    /// Removes attribute `name` from `v`, returning its value if present.
    pub fn remove_attr(&mut self, v: NodeId, name: &str) -> Option<Box<str>> {
        self.nodes[v.index()].attrs.remove(name)
    }

    /// Depth-first pre-order traversal from the root.
    pub fn descendants(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(v) = stack.pop() {
            out.push(v);
            // Push children in reverse so they pop in document order.
            for &c in self.children(v).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// The depth of `v` (root = 1), i.e. the length of the element path
    /// from the root to `v`.
    pub fn depth(&self, v: NodeId) -> usize {
        let mut d = 1;
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// The children of `v` labelled `label`, in document order.
    pub fn children_labelled(&self, v: NodeId, label: &str) -> Vec<NodeId> {
        self.children(v)
            .iter()
            .copied()
            .filter(|&c| self.label(c) == label)
            .collect()
    }

    /// Convenience for building and reading documents: the first descendant
    /// reached by following the given child labels from the root.
    pub fn descend(&self, labels: &[&str]) -> Option<NodeId> {
        let mut cur = self.root;
        for l in labels {
            cur = *self.children_labelled(cur, l).first()?;
        }
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the document of Figure 1(a) (abridged to one course).
    fn course_doc() -> XmlTree {
        let mut t = XmlTree::new("courses");
        let course = t.add_child(t.root(), "course");
        t.set_attr(course, "cno", "csc200");
        let title = t.add_child(course, "title");
        t.set_text(title, "Automata Theory");
        let taken_by = t.add_child(course, "taken_by");
        for (sno, name, grade) in [("st1", "Deere", "A+"), ("st2", "Smith", "B-")] {
            let s = t.add_child(taken_by, "student");
            t.set_attr(s, "sno", sno);
            let n = t.add_child(s, "name");
            t.set_text(n, name);
            let g = t.add_child(s, "grade");
            t.set_text(g, grade);
        }
        t
    }

    #[test]
    fn build_and_query() {
        let t = course_doc();
        assert_eq!(t.label(t.root()), "courses");
        let course = t.children(t.root())[0];
        assert_eq!(t.attr(course, "cno"), Some("csc200"));
        assert_eq!(t.attr(course, "missing"), None);
        let title = t.children_labelled(course, "title")[0];
        assert_eq!(t.text(title), Some("Automata Theory"));
        assert_eq!(t.depth(title), 3);
        assert_eq!(t.num_nodes(), 10);
    }

    #[test]
    fn descend_helper() {
        let t = course_doc();
        let name = t
            .descend(&["course", "taken_by", "student", "name"])
            .unwrap();
        assert_eq!(t.text(name), Some("Deere"));
        assert!(t.descend(&["course", "nonexistent"]).is_none());
    }

    #[test]
    fn descendants_preorder() {
        let t = course_doc();
        let order: Vec<&str> = t.descendants().iter().map(|&v| t.label(v)).collect();
        assert_eq!(
            order,
            vec![
                "courses", "course", "title", "taken_by", "student", "name", "grade", "student",
                "name", "grade"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "mixed content")]
    fn no_mixed_content_text_then_child() {
        let mut t = XmlTree::new("r");
        t.set_text(t.root(), "hello");
        t.add_child(t.root(), "a");
    }

    #[test]
    #[should_panic(expected = "mixed content")]
    fn no_mixed_content_child_then_text() {
        let mut t = XmlTree::new("r");
        t.add_child(t.root(), "a");
        t.set_text(t.root(), "hello");
    }

    #[test]
    fn attr_overwrite_and_remove() {
        let mut t = XmlTree::new("r");
        t.set_attr(t.root(), "x", "1");
        t.set_attr(t.root(), "x", "2");
        assert_eq!(t.attr(t.root(), "x"), Some("2"));
        assert_eq!(t.remove_attr(t.root(), "x").as_deref(), Some("2"));
        assert_eq!(t.attr(t.root(), "x"), None);
        assert_eq!(t.num_attrs(t.root()), 0);
    }

    #[test]
    fn parents_are_consistent() {
        let t = course_doc();
        for v in t.node_ids() {
            for &c in t.children(v) {
                assert_eq!(t.parent(c), Some(v));
            }
        }
        assert_eq!(t.parent(t.root()), None);
    }
}

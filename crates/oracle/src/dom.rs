//! Arena-based DOM.
//!
//! Nodes live in a flat `Vec` and refer to each other by [`NodeId`]
//! indices — no `Rc<RefCell<…>>` cycles, cheap traversal, and the whole
//! document drops in one free. The shape mirrors what the measurement
//! needs: elements with attributes, text, and parent/child links.

use langcrux_html::tokenizer::Attribute;

/// Index of a node within its [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// The document root node id.
    pub const ROOT: NodeId = NodeId(0);
}

/// Node payload.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// The synthetic root.
    Document,
    Element {
        name: String,
        attrs: Vec<Attribute>,
    },
    Text(String),
    Comment(String),
}

/// One DOM node.
#[derive(Debug, Clone)]
pub struct Node {
    pub kind: NodeKind,
    pub parent: Option<NodeId>,
    pub children: Vec<NodeId>,
}

/// A parsed HTML document.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    /// Doctype string, when present (e.g. `"html"`).
    pub doctype: Option<String>,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// An empty document containing only the root node.
    pub fn new() -> Self {
        Document {
            nodes: vec![Node {
                kind: NodeKind::Document,
                parent: None,
                children: Vec::new(),
            }],
            doctype: None,
        }
    }

    /// True if the document has no content nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Append a new node under `parent`, returning its id.
    pub fn append(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            kind,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.0].children.push(id);
        id
    }

    /// Element tag name, or `None` for non-element nodes.
    pub fn tag_name(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Element { name, .. } => Some(name.as_str()),
            _ => None,
        }
    }

    /// Attribute value by name (case-sensitive name; names are lower-cased
    /// at parse time). `None` when the node is not an element or lacks the
    /// attribute; `Some("")` for bare boolean attributes.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Element { attrs, .. } => attrs
                .iter()
                .find(|a| a.name == name)
                .map(|a| a.value.as_str()),
            _ => None,
        }
    }

    /// All attributes of an element (empty slice for non-elements).
    pub fn attrs(&self, id: NodeId) -> &[Attribute] {
        match &self.node(id).kind {
            NodeKind::Element { attrs, .. } => attrs,
            _ => &[],
        }
    }

    /// Depth-first pre-order traversal of the whole document.
    pub fn descendants(&self, root: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            stack: vec![root],
            skip_root: Some(root),
        }
    }

    /// All element ids in document order.
    pub fn elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.descendants(NodeId::ROOT)
            .filter(|&id| matches!(self.node(id).kind, NodeKind::Element { .. }))
    }

    /// Elements with the given tag name, in document order.
    pub fn elements_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = NodeId> + 'a {
        self.elements()
            .filter(move |&id| self.tag_name(id) == Some(name))
    }

    /// Concatenated text content of a subtree (all Text descendants,
    /// unconditionally — visibility-aware text is [`crate::visible`]'s).
    pub fn text_content(&self, root: NodeId) -> String {
        let mut out = String::new();
        let include_root = matches!(self.node(root).kind, NodeKind::Text(_));
        if include_root {
            if let NodeKind::Text(t) = &self.node(root).kind {
                out.push_str(t);
            }
        }
        for id in self.descendants(root) {
            if let NodeKind::Text(t) = &self.node(id).kind {
                out.push_str(t);
            }
        }
        out
    }

    /// The nearest ancestor element of `id` (skipping the root), if any.
    pub fn parent_element(&self, id: NodeId) -> Option<NodeId> {
        let mut cur = self.node(id).parent;
        while let Some(p) = cur {
            if matches!(self.node(p).kind, NodeKind::Element { .. }) {
                return Some(p);
            }
            cur = self.node(p).parent;
        }
        None
    }

    /// Iterate the ancestor chain of `id` (excluding `id`, including root).
    pub fn ancestors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut cur = self.node(id).parent;
        std::iter::from_fn(move || {
            let out = cur?;
            cur = self.node(out).parent;
            Some(out)
        })
    }
}

/// Pre-order DFS iterator (excludes the starting node).
pub struct Descendants<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
    skip_root: Option<NodeId>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            let id = self.stack.pop()?;
            // Children pushed in reverse so they pop in document order.
            let children = &self.doc.node(id).children;
            for &c in children.iter().rev() {
                self.stack.push(c);
            }
            if self.skip_root.take() == Some(id) {
                continue;
            }
            return Some(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elem(name: &str) -> NodeKind {
        NodeKind::Element {
            name: name.to_string(),
            attrs: Vec::new(),
        }
    }

    #[test]
    fn build_and_traverse() {
        let mut doc = Document::new();
        let html = doc.append(NodeId::ROOT, elem("html"));
        let body = doc.append(html, elem("body"));
        let p1 = doc.append(body, elem("p"));
        doc.append(p1, NodeKind::Text("one".into()));
        let p2 = doc.append(body, elem("p"));
        doc.append(p2, NodeKind::Text("two".into()));

        let tags: Vec<&str> = doc.elements().filter_map(|id| doc.tag_name(id)).collect();
        assert_eq!(tags, vec!["html", "body", "p", "p"]);
        assert_eq!(doc.text_content(body), "onetwo");
        assert_eq!(doc.elements_named("p").count(), 2);
    }

    #[test]
    fn attr_lookup() {
        let mut doc = Document::new();
        let img = doc.append(
            NodeId::ROOT,
            NodeKind::Element {
                name: "img".into(),
                attrs: vec![
                    Attribute {
                        name: "alt".into(),
                        value: "a cat".into(),
                    },
                    Attribute {
                        name: "hidden".into(),
                        value: String::new(),
                    },
                ],
            },
        );
        assert_eq!(doc.attr(img, "alt"), Some("a cat"));
        assert_eq!(doc.attr(img, "hidden"), Some(""));
        assert_eq!(doc.attr(img, "src"), None);
        assert_eq!(doc.attr(NodeId::ROOT, "alt"), None);
    }

    #[test]
    fn parent_and_ancestors() {
        let mut doc = Document::new();
        let html = doc.append(NodeId::ROOT, elem("html"));
        let body = doc.append(html, elem("body"));
        let text = doc.append(body, NodeKind::Text("x".into()));
        assert_eq!(doc.parent_element(text), Some(body));
        let chain: Vec<NodeId> = doc.ancestors(text).collect();
        assert_eq!(chain, vec![body, html, NodeId::ROOT]);
    }

    #[test]
    fn document_order_traversal() {
        let mut doc = Document::new();
        let a = doc.append(NodeId::ROOT, elem("a"));
        let b = doc.append(a, elem("b"));
        doc.append(b, elem("c"));
        doc.append(a, elem("d"));
        let order: Vec<&str> = doc
            .descendants(NodeId::ROOT)
            .filter_map(|id| doc.tag_name(id))
            .collect();
        assert_eq!(order, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn empty_doc() {
        let doc = Document::new();
        assert!(doc.is_empty());
        assert_eq!(doc.elements().count(), 0);
        assert_eq!(doc.text_content(NodeId::ROOT), "");
    }
}

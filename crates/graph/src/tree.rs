//! Rooted-tree utilities over parent arrays.
//!
//! Storage graphs in this system are spanning trees rooted at the dummy
//! vertex `V0` (the paper's Lemma 1); every solver ultimately produces a
//! parent array. `RootedTree` validates such arrays and provides the
//! aggregate queries the heuristics need: preorder traversal, subtree
//! sizes/masses (LMG's `ρ` numerator), depths and path costs.

use crate::ids::NodeId;

/// Errors from [`RootedTree::from_parents`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The root's parent entry was not `None`.
    RootHasParent,
    /// A non-root node has no parent.
    MissingParent(NodeId),
    /// A parent index is out of range.
    ParentOutOfRange(NodeId),
    /// Following parents from this node never reaches the root.
    Cycle(NodeId),
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::RootHasParent => write!(f, "root must not have a parent"),
            TreeError::MissingParent(v) => write!(f, "node {v} has no parent"),
            TreeError::ParentOutOfRange(v) => write!(f, "node {v} has out-of-range parent"),
            TreeError::Cycle(v) => write!(f, "node {v} is on a cycle"),
        }
    }
}

impl std::error::Error for TreeError {}

/// A validated rooted tree over dense node ids.
#[derive(Debug, Clone)]
pub struct RootedTree {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
}

impl RootedTree {
    /// Builds and validates a tree from a parent array.
    pub fn from_parents(root: NodeId, parent: Vec<Option<NodeId>>) -> Result<Self, TreeError> {
        let n = parent.len();
        if parent[root.index()].is_some() {
            return Err(TreeError::RootHasParent);
        }
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (v, p) in parent.iter().enumerate() {
            match p {
                None if v == root.index() => {}
                None => return Err(TreeError::MissingParent(NodeId::new(v))),
                Some(p) => {
                    if p.index() >= n {
                        return Err(TreeError::ParentOutOfRange(NodeId::new(v)));
                    }
                    children[p.index()].push(NodeId::new(v));
                }
            }
        }
        let tree = RootedTree {
            root,
            parent,
            children,
        };
        // Reachability check: preorder must visit every node exactly once.
        if tree.preorder().len() != n {
            // Find a witness node not reached.
            let mut reached = vec![false; n];
            for v in tree.preorder() {
                reached[v.index()] = true;
            }
            let bad = reached.iter().position(|r| !r).unwrap();
            return Err(TreeError::Cycle(NodeId::new(bad)));
        }
        Ok(tree)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree is empty (never true for a constructed tree).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of `v` (`None` for the root).
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// The full parent array.
    pub fn parents(&self) -> &[Option<NodeId>] {
        &self.parent
    }

    /// Children of `v`.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v.index()]
    }

    /// Nodes in preorder (root first), computed iteratively.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.len());
        let mut stack = vec![self.root];
        while let Some(v) = stack.pop() {
            order.push(v);
            stack.extend(self.children[v.index()].iter().copied());
        }
        order
    }

    /// `sizes[v]` = number of nodes in `v`'s subtree (including `v`).
    pub fn subtree_sizes(&self) -> Vec<u32> {
        let order = self.preorder();
        let mut sizes = vec![1u32; self.len()];
        for &v in order.iter().rev() {
            if let Some(p) = self.parent[v.index()] {
                sizes[p.index()] += sizes[v.index()];
            }
        }
        sizes
    }

    /// `depth[v]` = number of edges on the root→`v` path.
    pub fn depths(&self) -> Vec<u32> {
        let mut depth = vec![0u32; self.len()];
        for v in self.preorder() {
            if let Some(p) = self.parent[v.index()] {
                depth[v.index()] = depth[p.index()] + 1;
            }
        }
        depth
    }

    /// `cost[v]` = sum of `edge_cost(parent, child)` along the root→`v`
    /// path. This is exactly the recreation cost of `v` when the tree is a
    /// storage graph and `edge_cost` returns `Φ`.
    pub fn path_costs(&self, mut edge_cost: impl FnMut(NodeId, NodeId) -> u64) -> Vec<u64> {
        let mut cost = vec![0u64; self.len()];
        for v in self.preorder() {
            if let Some(p) = self.parent[v.index()] {
                cost[v.index()] = cost[p.index()].saturating_add(edge_cost(p, v));
            }
        }
        cost
    }

    /// All nodes in `v`'s subtree (including `v`), in preorder.
    pub fn descendants(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![v];
        while let Some(x) = stack.pop() {
            out.push(x);
            stack.extend(self.children[x.index()].iter().copied());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caterpillar() -> RootedTree {
        // 0 -> 1 -> 2 -> 3, with 4 hanging off 1 and 5 off 2
        let parent = vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(1)),
            Some(NodeId(2)),
            Some(NodeId(1)),
            Some(NodeId(2)),
        ];
        RootedTree::from_parents(NodeId(0), parent).unwrap()
    }

    #[test]
    fn preorder_visits_all_once() {
        let t = caterpillar();
        let mut order = t.preorder();
        assert_eq!(order.len(), 6);
        order.sort();
        order.dedup();
        assert_eq!(order.len(), 6);
        assert_eq!(t.preorder()[0], NodeId(0));
    }

    #[test]
    fn subtree_sizes_match_hand_count() {
        let t = caterpillar();
        let sizes = t.subtree_sizes();
        assert_eq!(sizes[0], 6);
        assert_eq!(sizes[1], 5);
        assert_eq!(sizes[2], 3);
        assert_eq!(sizes[3], 1);
        assert_eq!(sizes[4], 1);
        assert_eq!(sizes[5], 1);
    }

    #[test]
    fn depths_and_path_costs() {
        let t = caterpillar();
        assert_eq!(t.depths(), vec![0, 1, 2, 3, 2, 3]);
        // uniform edge cost of 10
        let costs = t.path_costs(|_, _| 10);
        assert_eq!(costs, vec![0, 10, 20, 30, 20, 30]);
    }

    #[test]
    fn descendants_of_internal_node() {
        let t = caterpillar();
        let mut d = t.descendants(NodeId(2));
        d.sort();
        assert_eq!(d, vec![NodeId(2), NodeId(3), NodeId(5)]);
    }

    #[test]
    fn rejects_cycle() {
        let parent = vec![None, Some(NodeId(2)), Some(NodeId(1))];
        let err = RootedTree::from_parents(NodeId(0), parent).unwrap_err();
        assert!(matches!(err, TreeError::Cycle(_)));
    }

    #[test]
    fn rejects_missing_parent() {
        let parent = vec![None, None];
        let err = RootedTree::from_parents(NodeId(0), parent).unwrap_err();
        assert_eq!(err, TreeError::MissingParent(NodeId(1)));
    }

    #[test]
    fn rejects_root_with_parent() {
        let parent = vec![Some(NodeId(1)), None];
        let err = RootedTree::from_parents(NodeId(0), parent).unwrap_err();
        assert_eq!(err, TreeError::RootHasParent);
    }

    #[test]
    fn single_node_tree() {
        let t = RootedTree::from_parents(NodeId(0), vec![None]).unwrap();
        assert_eq!(t.subtree_sizes(), vec![1]);
        assert_eq!(t.depths(), vec![0]);
    }
}

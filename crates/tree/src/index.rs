//! Preorder intervals, ancestor tests and binary-lifting LCA on the BFS tree.

use ftb_graph::{EdgeId, VertexId};
use ftb_sp::ShortestPathTree;

/// Precomputed ancestry structure over a [`ShortestPathTree`].
///
/// Provides O(1) ancestor tests (via the tree's preorder intervals) and
/// O(log n) least-common-ancestor queries (via binary lifting). Vertices
/// that are unreachable from the source are not part of the tree; queries
/// involving them return `None`/`false`.
#[derive(Clone, Debug)]
pub struct TreeIndex {
    source: VertexId,
    /// Preorder index per vertex (copied from the tree); the subtree of `v`
    /// is the range `preorder(v) .. preorder(v) + subtree_size(v)`.
    preorder: Vec<u32>,
    /// Subtree size per vertex (copied from the tree).
    subtree_size: Vec<u32>,
    /// Depth per vertex (copied from the tree for convenience).
    depth: Vec<u32>,
    /// `up[k][v]` = the `2^k`-th ancestor of `v` (or `v` itself if the walk
    /// leaves the tree).
    up: Vec<Vec<u32>>,
    reachable: Vec<bool>,
}

impl TreeIndex {
    /// Build the index from a shortest-path tree.
    pub fn build(tree: &ShortestPathTree) -> Self {
        let n = tree_len(tree);
        let source = tree.source();
        let mut depth = vec![0u32; n];
        let mut reachable = vec![false; n];
        let mut preorder = vec![u32::MAX; n];
        let mut subtree_size = vec![0u32; n];
        for i in 0..n {
            let v = VertexId::new(i);
            if let Some(d) = tree.depth(v) {
                depth[i] = d;
                reachable[i] = true;
                preorder[i] = tree.preorder(v).expect("reachable");
                subtree_size[i] = tree.subtree_size(v) as u32;
            }
        }
        // Binary lifting table.
        let max_depth = depth.iter().copied().max().unwrap_or(0);
        let levels = (usize::BITS - (max_depth as usize).leading_zeros()).max(1) as usize;
        let mut up = vec![vec![0u32; n]; levels];
        for (i, slot) in up[0].iter_mut().enumerate() {
            let v = VertexId::new(i);
            *slot = match tree.parent(v) {
                Some((p, _)) => p.0,
                None => v.0,
            };
        }
        for k in 1..levels {
            for i in 0..n {
                let mid = up[k - 1][i] as usize;
                up[k][i] = up[k - 1][mid];
            }
        }
        TreeIndex {
            source,
            preorder,
            subtree_size,
            depth,
            up,
            reachable,
        }
    }

    /// The tree root.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// `true` if `v` belongs to the tree.
    pub fn in_tree(&self, v: VertexId) -> bool {
        self.reachable[v.index()]
    }

    /// Depth of `v` (0 for the root); meaningless for out-of-tree vertices.
    pub fn depth(&self, v: VertexId) -> u32 {
        self.depth[v.index()]
    }

    /// `true` if `a` is an ancestor of `b` (every vertex is an ancestor of
    /// itself). `false` if either vertex is outside the tree.
    pub fn is_ancestor(&self, a: VertexId, b: VertexId) -> bool {
        if !self.in_tree(a) || !self.in_tree(b) {
            return false;
        }
        self.preorder[b.index()].wrapping_sub(self.preorder[a.index()])
            < self.subtree_size[a.index()]
    }

    /// The ancestor of `v` that is `steps` levels closer to the root
    /// (saturating at the root).
    pub fn ancestor_at(&self, v: VertexId, steps: u32) -> VertexId {
        let mut cur = v.0;
        // Walking more than depth(v) steps saturates at the root; clamping
        // also guarantees every set bit fits inside the lifting table.
        let mut remaining = steps.min(self.depth[v.index()]);
        let mut k = 0usize;
        while remaining > 0 && k < self.up.len() {
            if remaining & 1 == 1 {
                cur = self.up[k][cur as usize];
            }
            remaining >>= 1;
            k += 1;
        }
        VertexId(cur)
    }

    /// Least common ancestor of `u` and `v`, if both are in the tree.
    pub fn lca(&self, u: VertexId, v: VertexId) -> Option<VertexId> {
        if !self.in_tree(u) || !self.in_tree(v) {
            return None;
        }
        if self.is_ancestor(u, v) {
            return Some(u);
        }
        if self.is_ancestor(v, u) {
            return Some(v);
        }
        let mut cur = u;
        for k in (0..self.up.len()).rev() {
            let cand = VertexId(self.up[k][cur.index()]);
            if !self.is_ancestor(cand, v) {
                cur = cand;
            }
        }
        Some(VertexId(self.up[0][cur.index()]))
    }

    /// The paper's `∼` relation on tree edges: `e ∼ e'` iff one of their
    /// child endpoints is an ancestor of the other, i.e. both edges lie on a
    /// common root-to-vertex shortest path.
    pub fn edges_related(&self, tree: &ShortestPathTree, e: EdgeId, e_prime: EdgeId) -> bool {
        let (Some(b), Some(d)) = (tree.child_endpoint(e), tree.child_endpoint(e_prime)) else {
            return false;
        };
        self.is_ancestor(b, d) || self.is_ancestor(d, b)
    }

    /// Hop distance between `u` and `v` inside the tree (through their LCA).
    pub fn tree_distance(&self, u: VertexId, v: VertexId) -> Option<u32> {
        let l = self.lca(u, v)?;
        Some(self.depth(u) + self.depth(v) - 2 * self.depth(l))
    }
}

fn tree_len(tree: &ShortestPathTree) -> usize {
    tree.num_vertices()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_graph::{generators, Graph};
    use ftb_sp::TieBreakWeights;

    fn build(g: &Graph, seed: u64) -> (ShortestPathTree, TreeIndex) {
        let w = TieBreakWeights::generate(g, seed);
        let t = ShortestPathTree::build(g, &w, VertexId(0));
        let idx = TreeIndex::build(&t);
        (t, idx)
    }

    #[test]
    fn ancestor_tests_on_a_path() {
        let g = generators::path(8);
        let (_t, idx) = build(&g, 1);
        assert!(idx.is_ancestor(VertexId(0), VertexId(7)));
        assert!(idx.is_ancestor(VertexId(3), VertexId(5)));
        assert!(!idx.is_ancestor(VertexId(5), VertexId(3)));
        assert!(idx.is_ancestor(VertexId(4), VertexId(4)));
        assert_eq!(idx.lca(VertexId(3), VertexId(6)), Some(VertexId(3)));
        assert_eq!(idx.tree_distance(VertexId(2), VertexId(6)), Some(4));
        assert_eq!(idx.source(), VertexId(0));
    }

    #[test]
    fn lca_on_a_star_is_the_centre() {
        let g = generators::star(6);
        let (_t, idx) = build(&g, 2);
        assert_eq!(idx.lca(VertexId(1), VertexId(2)), Some(VertexId(0)));
        assert_eq!(idx.lca(VertexId(3), VertexId(3)), Some(VertexId(3)));
        assert_eq!(idx.tree_distance(VertexId(1), VertexId(2)), Some(2));
    }

    #[test]
    fn lca_matches_naive_on_grid() {
        let g = generators::grid(5, 5);
        let (t, idx) = build(&g, 3);
        // naive LCA by walking up
        let naive = |mut a: VertexId, mut b: VertexId| -> VertexId {
            while idx.depth(a) > idx.depth(b) {
                a = t.parent(a).unwrap().0;
            }
            while idx.depth(b) > idx.depth(a) {
                b = t.parent(b).unwrap().0;
            }
            while a != b {
                a = t.parent(a).unwrap().0;
                b = t.parent(b).unwrap().0;
            }
            a
        };
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(idx.lca(u, v), Some(naive(u, v)), "lca({u:?},{v:?})");
            }
        }
    }

    #[test]
    fn ancestor_at_walks_towards_root() {
        let g = generators::path(10);
        let (_t, idx) = build(&g, 4);
        assert_eq!(idx.ancestor_at(VertexId(7), 3), VertexId(4));
        assert_eq!(idx.ancestor_at(VertexId(7), 7), VertexId(0));
        // saturates at the root
        assert_eq!(idx.ancestor_at(VertexId(7), 100), VertexId(0));
        assert_eq!(idx.ancestor_at(VertexId(5), 0), VertexId(5));
    }

    #[test]
    fn edges_related_iff_on_common_root_path() {
        let g = generators::grid(3, 3);
        let (t, idx) = build(&g, 5);
        for &e1 in t.tree_edges() {
            for &e2 in t.tree_edges() {
                let b = t.child_endpoint(e1).unwrap();
                let d = t.child_endpoint(e2).unwrap();
                let expected = idx.is_ancestor(b, d) || idx.is_ancestor(d, b);
                assert_eq!(idx.edges_related(&t, e1, e2), expected);
            }
        }
    }

    #[test]
    fn out_of_tree_vertices_are_rejected() {
        let mut b = ftb_graph::GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(2), VertexId(3));
        let g = b.build();
        let (_t, idx) = build(&g, 6);
        assert!(!idx.in_tree(VertexId(2)));
        assert!(idx.in_tree(VertexId(1)));
        assert_eq!(idx.lca(VertexId(1), VertexId(2)), None);
        assert!(!idx.is_ancestor(VertexId(0), VertexId(3)));
        assert_eq!(idx.tree_distance(VertexId(0), VertexId(2)), None);
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        let g = generators::path(20_000);
        let (_t, idx) = build(&g, 7);
        assert!(idx.is_ancestor(VertexId(0), VertexId(19_999)));
        assert_eq!(
            idx.lca(VertexId(10_000), VertexId(19_999)),
            Some(VertexId(10_000))
        );
    }
}

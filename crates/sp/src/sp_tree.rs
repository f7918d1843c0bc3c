//! The BFS tree `T0 = ⋃_v π(s, v)` of unique shortest paths.

use crate::canonical::CanonicalScratch;
use crate::path::Path;
use crate::weights::TieBreakWeights;
use ftb_graph::{BitSet, EdgeId, Graph, VertexId};

/// The shortest-path (BFS) tree rooted at a source under the tie-breaking
/// weight assignment `W`.
///
/// For every vertex `v` reachable from the source, `π(s, v)` — the unique
/// canonical shortest path — is the tree path from the source to `v`. The
/// tree caches parent pointers, hop depths, `Σ`-tie sums, children lists, a
/// preorder numbering with subtree sizes and the set of tree edge ids, which
/// the replacement-path and FT-BFS layers query heavily.
#[derive(Clone, Debug)]
pub struct ShortestPathTree {
    source: VertexId,
    parent: Vec<Option<(VertexId, EdgeId)>>,
    depth: Vec<Option<u32>>,
    /// `Σ W` along `π(s, v)`: the tie key a subtree-bounded search seeds
    /// its boundary with.
    tie: Vec<u64>,
    children: Vec<Vec<VertexId>>,
    /// Preorder index of each reachable vertex (children in id order);
    /// `u32::MAX` for unreachable vertices.
    preorder: Vec<u32>,
    /// Number of vertices in each reachable vertex's subtree (itself
    /// included); 0 for unreachable vertices.
    subtree_size: Vec<u32>,
    tree_edges: Vec<EdgeId>,
    tree_edge_set: BitSet,
    /// For each tree edge (indexed by `EdgeId`), the child endpoint (the
    /// endpoint farther from the source). `None` for non-tree edges.
    child_of_edge: Vec<Option<VertexId>>,
}

impl ShortestPathTree {
    /// Build the tree of unique shortest paths from `source`.
    ///
    /// One [`CanonicalScratch`] run yields every vertex's canonical parent
    /// and tie sum; the per-vertex tables, the children lists and the
    /// tree-edge list are then filled in vertex-id order, and one iterative
    /// DFS numbers the vertices in preorder.
    pub fn build(graph: &Graph, weights: &TieBreakWeights, source: VertexId) -> Self {
        let n = graph.num_vertices();
        let mut search = CanonicalScratch::new(n);
        search.run(graph, weights, source, &[]);
        let mut parent = vec![None; n];
        let mut depth = vec![None; n];
        let mut tie = vec![0; n];
        let mut children: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        let mut tree_edges = Vec::new();
        let mut tree_edge_set = BitSet::new(graph.num_edges());
        let mut child_of_edge = vec![None; graph.num_edges()];
        for v in graph.vertices() {
            depth[v.index()] = search.dist(v);
            tie[v.index()] = search.tie(v);
            if let Some((p, e)) = search.parent(v) {
                parent[v.index()] = Some((p, e));
                children[p.index()].push(v);
                tree_edges.push(e);
                tree_edge_set.insert(e.index());
                child_of_edge[e.index()] = Some(v);
            }
        }
        let (preorder, subtree_size) = number_preorder(&children, &parent, source);
        ShortestPathTree {
            source,
            parent,
            depth,
            tie,
            children,
            preorder,
            subtree_size,
            tree_edges,
            tree_edge_set,
            child_of_edge,
        }
    }

    /// The root (source) vertex.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Number of vertices of the underlying graph (the length of the
    /// per-vertex arrays; includes unreachable vertices).
    pub fn num_vertices(&self) -> usize {
        self.parent.len()
    }

    /// Parent `(vertex, edge)` of `v`, if `v` is reachable and not the root.
    pub fn parent(&self, v: VertexId) -> Option<(VertexId, EdgeId)> {
        self.parent[v.index()]
    }

    /// Hop depth of `v` (`dist(s, v, G)`), if reachable.
    pub fn depth(&self, v: VertexId) -> Option<u32> {
        self.depth[v.index()]
    }

    /// `true` if `v` is reachable from the source.
    pub fn is_reachable(&self, v: VertexId) -> bool {
        self.depth[v.index()].is_some()
    }

    /// `Σ W` along `π(s, v)` (0 for the source and unreachable vertices):
    /// the tie key of `v`'s canonical path.
    #[inline]
    pub fn tie(&self, v: VertexId) -> u64 {
        self.tie[v.index()]
    }

    /// Children of `v` in the tree.
    pub fn children(&self, v: VertexId) -> &[VertexId] {
        &self.children[v.index()]
    }

    /// Preorder index of `v` (children visited in vertex-id order), if `v`
    /// is reachable. The subtree of `r` is the preorder range
    /// `preorder(r) .. preorder(r) + subtree_size(r)`.
    #[inline]
    pub fn preorder(&self, v: VertexId) -> Option<u32> {
        let p = self.preorder[v.index()];
        (p != u32::MAX).then_some(p)
    }

    /// Number of vertices in the subtree of `v`, `v` included (0 if `v` is
    /// unreachable).
    #[inline]
    pub fn subtree_size(&self, v: VertexId) -> usize {
        self.subtree_size[v.index()] as usize
    }

    /// `true` if `v` lies in the subtree of `root` (`v == root` included).
    #[inline]
    pub fn in_subtree(&self, root: VertexId, v: VertexId) -> bool {
        self.preorder[v.index()].wrapping_sub(self.preorder[root.index()])
            < self.subtree_size[root.index()]
    }

    /// The tree edges (one per non-root reachable vertex).
    pub fn tree_edges(&self) -> &[EdgeId] {
        &self.tree_edges
    }

    /// `true` if `e` is one of the tree edges.
    pub fn is_tree_edge(&self, e: EdgeId) -> bool {
        self.tree_edge_set.contains(e.index())
    }

    /// The set of tree edge ids as a bitset over all graph edges.
    pub fn tree_edge_set(&self) -> &BitSet {
        &self.tree_edge_set
    }

    /// The deeper endpoint of tree edge `e` (its "child side"), or `None`
    /// for non-tree edges. Matches the paper's convention of directing tree
    /// edges away from the source: `e = (x, y)` with `dist(s,x) < dist(s,y)`
    /// has `child_endpoint(e) = y`.
    pub fn child_endpoint(&self, e: EdgeId) -> Option<VertexId> {
        self.child_of_edge[e.index()]
    }

    /// Depth of a tree edge: `dist(s, e)` in the paper's notation, i.e. the
    /// depth of its child endpoint.
    pub fn edge_depth(&self, e: EdgeId) -> Option<u32> {
        self.child_endpoint(e).and_then(|v| self.depth(v))
    }

    /// Number of reachable vertices (including the source).
    pub fn num_reachable(&self) -> usize {
        self.depth.iter().filter(|d| d.is_some()).count()
    }

    /// Extract `π(s, v)` as a concrete path, if `v` is reachable.
    pub fn path_to(&self, v: VertexId) -> Option<Path> {
        self.depth[v.index()]?;
        let mut vertices = vec![v];
        let mut edges = Vec::new();
        let mut cur = v;
        while let Some((p, e)) = self.parent[cur.index()] {
            vertices.push(p);
            edges.push(e);
            cur = p;
        }
        vertices.reverse();
        edges.reverse();
        Some(Path::new(vertices, edges))
    }

    /// The tree edges of `π(s, v)` from the source down to `v`.
    pub fn path_edges_to(&self, v: VertexId) -> Vec<EdgeId> {
        let mut edges = Vec::new();
        let mut cur = v;
        while let Some((p, e)) = self.parent[cur.index()] {
            edges.push(e);
            cur = p;
        }
        edges.reverse();
        edges
    }

    /// Walk up from `v` to the root, yielding `(vertex, parent_edge)` pairs
    /// starting at `v` itself (the root yields no pair).
    pub fn ancestors(&self, v: VertexId) -> AncestorIter<'_> {
        AncestorIter {
            tree: self,
            cur: Some(v),
        }
    }

    /// Vertices in non-decreasing depth order (root first); useful for
    /// processing the tree level by level.
    pub fn vertices_by_depth(&self) -> Vec<VertexId> {
        let mut vs: Vec<VertexId> = (0..self.parent.len())
            .map(VertexId::new)
            .filter(|v| self.is_reachable(*v))
            .collect();
        vs.sort_by_key(|v| self.depth(*v).unwrap());
        vs
    }
}

/// Preorder indices and subtree sizes of the tree given by `children`
/// (and its inverse `parent`), numbered by an iterative DFS from `source`.
fn number_preorder(
    children: &[Vec<VertexId>],
    parent: &[Option<(VertexId, EdgeId)>],
    source: VertexId,
) -> (Vec<u32>, Vec<u32>) {
    let n = children.len();
    let mut preorder = vec![u32::MAX; n];
    let mut subtree_size = vec![0u32; n];
    let mut order = Vec::with_capacity(n);
    let mut stack = vec![source];
    while let Some(v) = stack.pop() {
        preorder[v.index()] = order.len() as u32;
        order.push(v);
        stack.extend(children[v.index()].iter().rev());
    }
    // A child comes after its parent in preorder: accumulate bottom-up.
    for &v in order.iter().rev() {
        subtree_size[v.index()] += 1;
        if let Some((p, _)) = parent[v.index()] {
            subtree_size[p.index()] += subtree_size[v.index()];
        }
    }
    (preorder, subtree_size)
}

/// Iterator over `(vertex, parent_edge)` pairs walking up to the root.
pub struct AncestorIter<'a> {
    tree: &'a ShortestPathTree,
    cur: Option<VertexId>,
}

impl Iterator for AncestorIter<'_> {
    type Item = (VertexId, EdgeId);

    fn next(&mut self) -> Option<Self::Item> {
        let v = self.cur?;
        match self.tree.parent(v) {
            Some((p, e)) => {
                self.cur = Some(p);
                Some((v, e))
            }
            None => {
                self.cur = None;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_graph::generators;

    fn tree_of(g: &Graph, seed: u64, s: u32) -> ShortestPathTree {
        let w = TieBreakWeights::generate(g, seed);
        ShortestPathTree::build(g, &w, VertexId(s))
    }

    /// The tree is the reference `LexSearch`'s, and its edge list runs in
    /// vertex-id order of the child endpoint.
    #[test]
    fn tree_matches_the_lex_search_oracle() {
        let mut split = ftb_graph::GraphBuilder::new(7);
        for (a, b) in [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6)] {
            split.add_edge(VertexId(a), VertexId(b));
        }
        for (g, seed, s) in [
            (generators::grid(6, 7), 3u64, 0u32),
            (generators::hypercube(5), 5, 9),
            (generators::complete(12), 7, 4),
            (split.build(), 9, 1),
        ] {
            let w = TieBreakWeights::generate(&g, seed);
            let t = ShortestPathTree::build(&g, &w, VertexId(s));
            let lex = crate::LexSearch::run(&g, &w, VertexId(s));
            let mut edges = Vec::new();
            for v in g.vertices() {
                assert_eq!(t.depth(v), lex.hops(v), "depth of {v:?}");
                assert_eq!(t.parent(v), lex.parent(v), "parent of {v:?}");
                edges.extend(lex.parent(v).map(|(_, e)| e));
            }
            assert_eq!(t.tree_edges(), &edges[..]);
        }
    }

    #[test]
    fn tree_on_path_graph_is_the_path() {
        let g = generators::path(6);
        let t = tree_of(&g, 1, 0);
        assert_eq!(t.source(), VertexId(0));
        assert_eq!(t.tree_edges().len(), 5);
        assert_eq!(t.depth(VertexId(5)), Some(5));
        assert_eq!(t.num_reachable(), 6);
        let p = t.path_to(VertexId(5)).unwrap();
        assert_eq!(p.len(), 5);
        p.validate(&g).unwrap();
        assert_eq!(t.children(VertexId(2)), &[VertexId(3)]);
    }

    #[test]
    fn depths_match_bfs_distances() {
        let g = generators::grid(7, 5);
        let t = tree_of(&g, 7, 3);
        let bfs = crate::bfs::bfs_distances(&g, VertexId(3));
        for v in g.vertices() {
            assert_eq!(t.depth(v), Some(bfs[v.index()]));
        }
    }

    #[test]
    fn tree_has_n_minus_one_edges_when_connected() {
        let g = generators::complete(15);
        let t = tree_of(&g, 3, 0);
        assert_eq!(t.tree_edges().len(), 14);
        for &e in t.tree_edges() {
            assert!(t.is_tree_edge(e));
            let child = t.child_endpoint(e).unwrap();
            let (parent, pe) = t.parent(child).unwrap();
            assert_eq!(pe, e);
            assert_eq!(t.depth(child).unwrap(), t.depth(parent).unwrap() + 1);
            assert_eq!(t.edge_depth(e), t.depth(child));
        }
        assert_eq!(t.tree_edge_set().len(), 14);
    }

    #[test]
    fn non_tree_edges_have_no_child_endpoint() {
        let g = generators::complete(6);
        let t = tree_of(&g, 3, 0);
        let non_tree: Vec<EdgeId> = g.edge_ids().filter(|&e| !t.is_tree_edge(e)).collect();
        assert_eq!(non_tree.len(), g.num_edges() - 5);
        for e in non_tree {
            assert_eq!(t.child_endpoint(e), None);
            assert_eq!(t.edge_depth(e), None);
        }
    }

    #[test]
    fn unreachable_component_is_excluded() {
        let mut b = ftb_graph::GraphBuilder::new(5);
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(2), VertexId(3));
        let g = b.build();
        let t = tree_of(&g, 1, 0);
        assert!(t.is_reachable(VertexId(1)));
        assert!(!t.is_reachable(VertexId(2)));
        assert!(t.path_to(VertexId(3)).is_none());
        assert_eq!(t.num_reachable(), 2);
        assert_eq!(t.tree_edges().len(), 1);
    }

    #[test]
    fn ancestors_walk_reaches_the_root() {
        let g = generators::grid(4, 4);
        let t = tree_of(&g, 5, 0);
        let v = VertexId(15);
        let chain: Vec<VertexId> = t.ancestors(v).map(|(x, _)| x).collect();
        assert_eq!(chain.len(), t.depth(v).unwrap() as usize);
        assert_eq!(chain[0], v);
        // path_edges agrees with ancestors
        let edges = t.path_edges_to(v);
        assert_eq!(edges.len(), chain.len());
    }

    #[test]
    fn vertices_by_depth_is_sorted() {
        let g = generators::hypercube(4);
        let t = tree_of(&g, 2, 0);
        let order = t.vertices_by_depth();
        assert_eq!(order.len(), 16);
        for w in order.windows(2) {
            assert!(t.depth(w[0]).unwrap() <= t.depth(w[1]).unwrap());
        }
    }

    #[test]
    fn path_to_equals_union_of_parent_pointers() {
        let g = generators::complete_bipartite(4, 5);
        let t = tree_of(&g, 6, 0);
        for v in g.vertices() {
            let p = t.path_to(v).unwrap();
            assert_eq!(p.edges(), &t.path_edges_to(v)[..]);
        }
    }
}

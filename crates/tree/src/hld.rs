//! Heavy-path decomposition of the BFS tree (Fact 3.3 / Fact 4.1).
//!
//! The decomposition splits `T0` into vertex-disjoint root-to-leaf-ish paths
//! `ψ₁, …, ψ_t` (the "heavy paths"): starting at the root of a (sub)tree, the
//! path repeatedly descends into the child with the largest subtree. Removing
//! the path splits the subtree into hanging subtrees of at most half the
//! size; recursing on each hanging subtree gives `O(log n)` recursion levels.
//!
//! Following the paper's terminology:
//! * `E⁺(TD)` — tree edges lying **on** some decomposition path,
//! * `E⁻(TD)` — the remaining *glue* edges connecting a hanging subtree to
//!   its parent path,
//! * Fact 4.1 — every root-to-vertex path `π(s, v)` crosses `O(log n)` glue
//!   edges and intersects `O(log n)` decomposition paths.

use ftb_graph::{BitSet, EdgeId, VertexId};
use ftb_sp::ShortestPathTree;

/// One path `ψ` of the decomposition.
#[derive(Clone, Debug)]
pub struct TreePath {
    /// Index of this path within the decomposition.
    pub id: usize,
    /// Recursion level at which the path was produced (the root path has
    /// level 0).
    pub level: usize,
    /// Vertices from the top (`s_ψ`, closest to the source) down to the
    /// bottom (`t_ψ`).
    pub vertices: Vec<VertexId>,
    /// Tree edges between consecutive path vertices (`|vertices| - 1` of
    /// them).
    pub edges: Vec<EdgeId>,
}

impl TreePath {
    /// Top endpoint `s_ψ` (closest to the source).
    pub fn top(&self) -> VertexId {
        self.vertices[0]
    }

    /// Bottom endpoint `t_ψ` (deepest vertex).
    pub fn bottom(&self) -> VertexId {
        *self.vertices.last().unwrap()
    }

    /// Number of edges on the path.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` for a single-vertex path.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// The heavy-path decomposition of a [`ShortestPathTree`].
#[derive(Clone, Debug)]
pub struct HeavyPathDecomposition {
    paths: Vec<TreePath>,
    /// For each vertex, the id of the decomposition path containing it
    /// (`usize::MAX` for unreachable vertices).
    path_of_vertex: Vec<usize>,
    /// For each edge id: `Some(path_id)` if the edge lies on a decomposition
    /// path (`E⁺`), `None` otherwise.
    path_of_edge: Vec<Option<usize>>,
    /// Glue edges `E⁻(TD)`: tree edges not on any decomposition path.
    glue_edges: Vec<EdgeId>,
    glue_edge_set: BitSet,
    num_levels: usize,
}

impl HeavyPathDecomposition {
    /// Decompose the tree.
    pub fn build(tree: &ShortestPathTree) -> Self {
        let n = tree.num_vertices();
        let num_edges_bound = tree
            .tree_edges()
            .iter()
            .map(|e| e.index() + 1)
            .max()
            .unwrap_or(0);

        let mut paths: Vec<TreePath> = Vec::new();
        let mut path_of_vertex = vec![usize::MAX; n];
        let mut path_of_edge: Vec<Option<usize>> = vec![None; num_edges_bound];
        let mut num_levels = 0usize;

        // Work queue of (subtree root, recursion level).
        let mut queue: Vec<(VertexId, usize)> = Vec::new();
        if tree.num_reachable() > 0 {
            queue.push((tree.source(), 0));
        }
        while let Some((root, level)) = queue.pop() {
            num_levels = num_levels.max(level + 1);
            // Walk the heavy chain from `root` to a leaf.
            let mut vertices = vec![root];
            let mut edges = Vec::new();
            let mut cur = root;
            loop {
                let heavy = tree
                    .children(cur)
                    .iter()
                    .copied()
                    .max_by_key(|&c| tree.subtree_size(c));
                match heavy {
                    Some(next) => {
                        let (_, e) = tree.parent(next).expect("child has a parent edge");
                        // queue the light children as new subtree roots
                        for &c in tree.children(cur) {
                            if c != next {
                                queue.push((c, level + 1));
                            }
                        }
                        vertices.push(next);
                        edges.push(e);
                        cur = next;
                    }
                    None => break,
                }
            }
            let id = paths.len();
            for &v in &vertices {
                path_of_vertex[v.index()] = id;
            }
            for &e in &edges {
                path_of_edge[e.index()] = Some(id);
            }
            paths.push(TreePath {
                id,
                level,
                vertices,
                edges,
            });
        }

        // Glue edges: tree edges not on any path.
        let mut glue_edge_set = BitSet::new(num_edges_bound);
        let mut glue_edges = Vec::new();
        for &e in tree.tree_edges() {
            if path_of_edge[e.index()].is_none() {
                glue_edges.push(e);
                glue_edge_set.insert(e.index());
            }
        }

        HeavyPathDecomposition {
            paths,
            path_of_vertex,
            path_of_edge,
            glue_edges,
            glue_edge_set,
            num_levels,
        }
    }

    /// All decomposition paths.
    pub fn paths(&self) -> &[TreePath] {
        &self.paths
    }

    /// The path containing vertex `v`, if `v` is in the tree.
    pub fn path_of_vertex(&self, v: VertexId) -> Option<&TreePath> {
        match self.path_of_vertex.get(v.index()) {
            Some(&id) if id != usize::MAX => Some(&self.paths[id]),
            _ => None,
        }
    }

    /// The path containing edge `e`, if `e ∈ E⁺(TD)`.
    pub fn path_of_edge(&self, e: EdgeId) -> Option<&TreePath> {
        self.path_of_edge
            .get(e.index())
            .copied()
            .flatten()
            .map(|id| &self.paths[id])
    }

    /// `true` if `e` is a glue edge (`e ∈ E⁻(TD)`).
    pub fn is_glue_edge(&self, e: EdgeId) -> bool {
        self.glue_edge_set.contains(e.index())
    }

    /// The glue edges `E⁻(TD)`.
    pub fn glue_edges(&self) -> &[EdgeId] {
        &self.glue_edges
    }

    /// Number of recursion levels used (O(log n)).
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// Number of decomposition paths.
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }

    /// The distinct decomposition paths intersected by the root-to-`v` tree
    /// path, ordered from `v` upwards (Fact 4.1 bounds their number by
    /// `O(log n)`).
    pub fn paths_crossed_by(&self, tree: &ShortestPathTree, v: VertexId) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = Some(v);
        while let Some(x) = cur {
            if let Some(p) = self.path_of_vertex(x) {
                if out.last() != Some(&p.id) {
                    out.push(p.id);
                }
            }
            cur = tree.parent(x).map(|(p, _)| p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_graph::{generators, Graph};
    use ftb_sp::TieBreakWeights;

    fn decompose(g: &Graph, seed: u64) -> (ShortestPathTree, HeavyPathDecomposition) {
        let w = TieBreakWeights::generate(g, seed);
        let t = ShortestPathTree::build(g, &w, VertexId(0));
        let d = HeavyPathDecomposition::build(&t);
        (t, d)
    }

    #[test]
    fn a_path_graph_is_one_heavy_path() {
        let g = generators::path(20);
        let (t, d) = decompose(&g, 1);
        assert_eq!(d.num_paths(), 1);
        assert_eq!(d.num_levels(), 1);
        assert!(d.glue_edges().is_empty());
        let p = &d.paths()[0];
        assert_eq!(p.top(), t.source());
        assert_eq!(p.bottom(), VertexId(19));
        assert_eq!(p.len(), 19);
        assert!(!p.is_empty());
    }

    #[test]
    fn a_star_has_one_long_path_and_singleton_paths() {
        let g = generators::star(8);
        let (_t, d) = decompose(&g, 2);
        // heavy path = centre + one leaf; every other leaf is its own path
        assert_eq!(d.num_paths(), 8);
        assert_eq!(d.glue_edges().len(), 7);
        let singletons = d.paths().iter().filter(|p| p.is_empty()).count();
        assert_eq!(singletons, 7);
    }

    #[test]
    fn vertex_and_edge_memberships_are_consistent() {
        let g = generators::grid(6, 6);
        let (t, d) = decompose(&g, 3);
        // every reachable vertex belongs to exactly one path
        let mut seen = vec![false; g.num_vertices()];
        for p in d.paths() {
            for &v in &p.vertices {
                assert!(!seen[v.index()], "vertex on two decomposition paths");
                seen[v.index()] = true;
                assert_eq!(d.path_of_vertex(v).unwrap().id, p.id);
            }
            for &e in &p.edges {
                assert_eq!(d.path_of_edge(e).unwrap().id, p.id);
                assert!(!d.is_glue_edge(e));
            }
        }
        assert!(seen.iter().all(|&x| x));
        // every tree edge is either on a path or glue
        for &e in t.tree_edges() {
            let on_path = d.path_of_edge(e).is_some();
            assert_ne!(on_path, d.is_glue_edge(e));
        }
        assert_eq!(
            d.paths().iter().map(|p| p.edges.len()).sum::<usize>() + d.glue_edges().len(),
            t.tree_edges().len()
        );
    }

    #[test]
    fn recursion_depth_is_logarithmic() {
        let g = generators::grid(16, 16);
        let (_t, d) = decompose(&g, 4);
        let n = g.num_vertices() as f64;
        assert!(
            d.num_levels() <= (n.log2().ceil() as usize) + 1,
            "levels {} too deep for n = {}",
            d.num_levels(),
            n
        );
    }

    #[test]
    fn fact_4_1_each_root_path_crosses_few_decomposition_paths() {
        let g = generators::grid(12, 12);
        let (t, d) = decompose(&g, 5);
        let bound = ((g.num_vertices() as f64).log2().ceil() as usize) + 1;
        for v in g.vertices() {
            let crossed = d.paths_crossed_by(&t, v);
            assert!(
                crossed.len() <= bound,
                "π(s,{v:?}) crosses {} paths",
                crossed.len()
            );
            // glue edges on the root path are also O(log n)
            let glue_on_path = t
                .path_edges_to(v)
                .iter()
                .filter(|&&e| d.is_glue_edge(e))
                .count();
            assert!(glue_on_path <= bound);
        }
    }

    #[test]
    fn heavy_path_property_subtrees_halve() {
        // Removing the level-0 path leaves hanging subtrees of size <= n/2.
        let g = generators::grid(9, 9);
        let (t, d) = decompose(&g, 6);
        let n = t.num_reachable();
        let root_path = d
            .paths()
            .iter()
            .find(|p| p.level == 0)
            .expect("root path exists");
        // compute subtree sizes
        let mut size = vec![0usize; g.num_vertices()];
        for &v in t.vertices_by_depth().iter().rev() {
            size[v.index()] = 1 + t.children(v).iter().map(|c| size[c.index()]).sum::<usize>();
        }
        for &v in &root_path.vertices {
            for &c in t.children(v) {
                if !root_path.vertices.contains(&c) {
                    assert!(
                        size[c.index()] <= n / 2,
                        "hanging subtree at {c:?} has size {} > n/2",
                        size[c.index()]
                    );
                }
            }
        }
    }

    #[test]
    fn disconnected_vertices_have_no_path() {
        let mut b = ftb_graph::GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(2), VertexId(3));
        let g = b.build();
        let (_t, d) = decompose(&g, 7);
        assert!(d.path_of_vertex(VertexId(2)).is_none());
        assert!(d.path_of_vertex(VertexId(0)).is_some());
    }
}

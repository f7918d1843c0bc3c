//! Replacement distances `dist(s, ·, G ∖ {e})` for every tree edge `e`.
//!
//! For every failing tree edge `e = (p, c) ∈ T0` the FT-BFS construction
//! needs the post-failure distances from the source. Only tree edges matter
//! (removing a non-tree edge leaves `T0` intact), and removing `e` changes
//! distances only inside the `T0` subtree of `c`: every other vertex keeps
//! its `T0` path. So each row holds the subtree of `c` alone, filled by one
//! subtree-bounded [`CanonicalScratch::sweep_subtree`] per tree edge (hop
//! distances only: no parents, so no [`CutTree`](crate::CutTree) repair),
//! and the table has `Σ_e |subtree(c_e)| = Σ_v depth(v)` entries instead of
//! `(n − 1)·n`.

use crate::canonical::CanonicalScratch;
use crate::sp_tree::ShortestPathTree;
use crate::UNREACHABLE;
use ftb_graph::{EdgeId, Graph, VertexId};
use ftb_par::{parallel_segments_mut_init, ParallelConfig};

/// Post-failure hop distances `dist(s, v, G ∖ {e})` for every tree edge `e`.
#[derive(Clone, Debug)]
pub struct ReplacementDistances {
    /// Row index of each tree edge, indexed by `EdgeId` (`u32::MAX` for a
    /// non-tree edge).
    row_of_edge: Vec<u32>,
    /// The tree edges in row order.
    edges: Vec<EdgeId>,
    /// `offsets[i] .. offsets[i + 1]` is row `i` in `rows`.
    offsets: Vec<usize>,
    /// Preorder index of the child endpoint of each row's edge: the row's
    /// first vertex.
    row_root: Vec<u32>,
    /// All rows back to back: row `i` holds `dist(s, v, G ∖ {e_i})` for
    /// every `v` in the subtree of `e_i`'s child, at `preorder(v) −
    /// row_root[i]` (`UNREACHABLE` if cut off). One buffer allocated on the
    /// calling thread: rows allocated on the short-lived worker threads
    /// stayed resident in their allocator arenas after being freed, by an
    /// amount that varied from run to run.
    rows: Vec<u32>,
    /// `T0` preorder index per vertex (`u32::MAX` if unreachable).
    preorder: Vec<u32>,
    /// `T0` depth per vertex: the answer outside a row's subtree.
    depth: Vec<u32>,
}

impl ReplacementDistances {
    /// Compute replacement distances for every tree edge of `tree`.
    pub fn compute(graph: &Graph, tree: &ShortestPathTree, config: &ParallelConfig) -> Self {
        let n = graph.num_vertices();
        let edges: Vec<EdgeId> = tree.tree_edges().to_vec();
        let child = |e: EdgeId| tree.child_endpoint(e).expect("tree edge");
        let mut row_of_edge = vec![u32::MAX; graph.num_edges()];
        let mut offsets = Vec::with_capacity(edges.len() + 1);
        offsets.push(0);
        for (i, &e) in edges.iter().enumerate() {
            row_of_edge[e.index()] = i as u32;
            offsets.push(offsets[i] + tree.subtree_size(child(e)));
        }
        let row_root: Vec<u32> = edges
            .iter()
            .map(|&e| tree.preorder(child(e)).expect("reachable"))
            .collect();
        let preorder: Vec<u32> = graph
            .vertices()
            .map(|v| tree.preorder(v).unwrap_or(u32::MAX))
            .collect();
        let mut rows = vec![UNREACHABLE; offsets[edges.len()]];
        parallel_segments_mut_init(
            config,
            &mut rows,
            &offsets,
            || CanonicalScratch::new(n),
            |scratch, i, row| {
                let e = edges[i];
                scratch.sweep_subtree(graph, tree, child(e), |_, f| f != e);
                for &v in scratch.visited() {
                    row[(preorder[v.index()] - row_root[i]) as usize] =
                        scratch.dist(v).expect("visited");
                }
            },
        );
        ReplacementDistances {
            row_of_edge,
            edges,
            offsets,
            row_root,
            rows,
            preorder,
            depth: graph
                .vertices()
                .map(|v| tree.depth(v).unwrap_or(UNREACHABLE))
                .collect(),
        }
    }

    /// `dist(s, v, G ∖ {e})` in hops, or `None` if `e` is not a tree edge.
    ///
    /// [`UNREACHABLE`] means the failure disconnects `v` from the source
    /// (or `v` was never reachable). Outside the subtree `e` cuts off, this
    /// is the fault-free depth.
    pub fn dist(&self, e: EdgeId, v: VertexId) -> Option<u32> {
        let i = self.row_index(e)?;
        let at = self.preorder[v.index()].wrapping_sub(self.row_root[i]) as usize;
        Some(
            self.row_at(i)
                .get(at)
                .copied()
                .unwrap_or(self.depth[v.index()]),
        )
    }

    /// The row of tree edge `e`: `dist(s, v, G ∖ {e})` for the vertices `v`
    /// of the subtree `e` cuts off, in `T0` preorder.
    pub fn row(&self, e: EdgeId) -> Option<&[u32]> {
        self.row_index(e).map(|i| self.row_at(i))
    }

    fn row_index(&self, e: EdgeId) -> Option<usize> {
        let i = *self.row_of_edge.get(e.index())?;
        (i != u32::MAX).then_some(i as usize)
    }

    fn row_at(&self, i: usize) -> &[u32] {
        &self.rows[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Tree edges covered, in row order.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of covered tree edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` if no tree edges are covered (trivial graphs).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Heap bytes held by the table: the rows (`Σ_e |subtree(e)|` entries)
    /// plus the per-edge and per-vertex indexes.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.rows.capacity() * size_of::<u32>()
            + self.offsets.capacity() * size_of::<usize>()
            + self.edges.capacity() * size_of::<EdgeId>()
            + (self.row_of_edge.capacity()
                + self.row_root.capacity()
                + self.preorder.capacity()
                + self.depth.capacity())
                * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::TieBreakWeights;
    use ftb_graph::generators;

    fn setup(g: &Graph, seed: u64) -> (ShortestPathTree, ReplacementDistances) {
        let w = TieBreakWeights::generate(g, seed);
        let t = ShortestPathTree::build(g, &w, VertexId(0));
        let rd = ReplacementDistances::compute(g, &t, &ParallelConfig::serial());
        (t, rd)
    }

    #[test]
    fn cycle_failure_reroutes_the_long_way() {
        let g = generators::cycle(10);
        let (t, rd) = setup(&g, 3);
        // failing the first tree edge (0, x) forces x to go the long way
        for &e in t.tree_edges() {
            let child = t.child_endpoint(e).unwrap();
            let d = rd.dist(e, child).unwrap();
            assert!(d >= t.depth(child).unwrap());
            assert!(d != UNREACHABLE, "cycle stays connected after one failure");
        }
    }

    #[test]
    fn path_failure_disconnects_the_suffix() {
        let g = generators::path(6);
        let (t, rd) = setup(&g, 1);
        let e = g.find_edge(VertexId(2), VertexId(3)).unwrap();
        assert_eq!(rd.dist(e, VertexId(2)), Some(2));
        assert_eq!(rd.dist(e, VertexId(3)), Some(UNREACHABLE));
        assert_eq!(rd.dist(e, VertexId(5)), Some(UNREACHABLE));
        assert_eq!(rd.len(), 5);
        assert!(!rd.is_empty());
        assert_eq!(rd.edges().len(), 5);
        // On a path every row is the cut-off suffix: all unreachable.
        for &e in t.tree_edges() {
            assert!(rd.row(e).unwrap().iter().all(|&d| d == UNREACHABLE));
        }
    }

    #[test]
    fn non_tree_edges_are_not_covered() {
        let g = generators::complete(6);
        let (t, rd) = setup(&g, 9);
        let non_tree = g.edge_ids().find(|&e| !t.is_tree_edge(e)).unwrap();
        assert_eq!(rd.dist(non_tree, VertexId(1)), None);
        assert!(rd.row(non_tree).is_none());
    }

    #[test]
    fn parallel_and_serial_agree() {
        let g = generators::grid(6, 6);
        let w = TieBreakWeights::generate(&g, 17);
        let t = ShortestPathTree::build(&g, &w, VertexId(0));
        let serial = ReplacementDistances::compute(&g, &t, &ParallelConfig::serial());
        let parallel = ReplacementDistances::compute(&g, &t, &ParallelConfig::with_threads(4));
        for &e in t.tree_edges() {
            assert_eq!(serial.row(e), parallel.row(e));
        }
    }

    #[test]
    fn replacement_distance_never_beats_original() {
        let g = generators::hypercube(4);
        let (t, rd) = setup(&g, 23);
        for &e in t.tree_edges() {
            for v in g.vertices() {
                let d0 = t.depth(v).unwrap();
                let d1 = rd.dist(e, v).unwrap();
                assert!(d1 >= d0, "removing an edge cannot shorten a distance");
            }
        }
        // the hypercube is 2-edge-connected, so nothing disconnects and
        // some failures lengthen a distance
        assert!(t
            .tree_edges()
            .iter()
            .any(|&e| g.vertices().any(|v| rd.dist(e, v) > t.depth(v))));
    }

    /// The table holds one entry per (tree edge, vertex below it) pair:
    /// `Σ_e |subtree(c_e)| = Σ_v depth(v)`, not `(n − 1)·n`.
    #[test]
    fn table_holds_one_entry_per_subtree_vertex() {
        for (g, seed) in [
            (generators::grid(8, 9), 3u64),
            (generators::path(40), 1),
            (generators::complete(12), 5),
        ] {
            let (t, rd) = setup(&g, seed);
            let entries: usize = t
                .tree_edges()
                .iter()
                .map(|&e| t.subtree_size(t.child_endpoint(e).unwrap()))
                .sum();
            let depth_sum: usize = g.vertices().map(|v| t.depth(v).unwrap() as usize).sum();
            assert_eq!(entries, depth_sum);
            assert_eq!(rd.rows.len(), entries);
            let row_sum: usize = t
                .tree_edges()
                .iter()
                .map(|&e| rd.row(e).unwrap().len())
                .sum();
            assert_eq!(row_sum, entries);
            let n = g.num_vertices();
            assert!(rd.heap_bytes() >= 4 * entries);
            assert!(rd.heap_bytes() <= 4 * entries + 64 * (n + g.num_edges()));
        }
    }
}

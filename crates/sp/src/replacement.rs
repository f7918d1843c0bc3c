//! Batched replacement distances `dist(s, ·, G \ {e})`.
//!
//! For every failing tree edge `e ∈ T0` the FT-BFS construction needs the
//! post-failure distances from the source to every vertex. We compute them
//! with one constrained BFS per tree edge, distributed over worker threads;
//! only tree edges matter because removing a non-tree edge never changes a
//! distance from the source (the shortest-path tree survives intact).

use crate::bfs::bfs_distances_view_into;
use crate::sp_tree::ShortestPathTree;
use crate::UNREACHABLE;
use ftb_graph::{EdgeId, Graph, SubgraphView, VertexId};
use ftb_par::{parallel_chunks_mut_init, ParallelConfig};
use std::collections::{HashMap, VecDeque};

/// Post-failure hop distances `dist(s, v, G \ {e})` for every tree edge `e`.
#[derive(Clone, Debug)]
pub struct ReplacementDistances {
    /// Maps a tree edge id to its row index in `rows`.
    index_of_edge: HashMap<EdgeId, usize>,
    /// Row-major `(edges × n)` table: `rows[i * n + v]` =
    /// `dist(s, v, G \ {e_i})` in hops (`UNREACHABLE` if cut off). One
    /// buffer allocated on the calling thread: rows allocated on the
    /// short-lived worker threads stayed resident in their allocator arenas
    /// after being freed, by an amount that varied from run to run.
    rows: Vec<u32>,
    /// Row length: the number of vertices.
    n: usize,
    /// The tree edges in row order.
    edges: Vec<EdgeId>,
}

impl ReplacementDistances {
    /// Compute replacement distances for every tree edge of `tree`.
    pub fn compute(graph: &Graph, tree: &ShortestPathTree, config: &ParallelConfig) -> Self {
        let edges: Vec<EdgeId> = tree.tree_edges().to_vec();
        let source = tree.source();
        let n = graph.num_vertices();
        let mut rows = vec![UNREACHABLE; edges.len() * n];
        parallel_chunks_mut_init(config, &mut rows, n, VecDeque::new, |queue, i, row| {
            let view = SubgraphView::full(graph).without_edge(edges[i]);
            bfs_distances_view_into(&view, source, row, queue);
        });
        let index_of_edge = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        ReplacementDistances {
            index_of_edge,
            rows,
            n,
            edges,
        }
    }

    /// Row `i` of the table.
    fn row_at(&self, i: usize) -> &[u32] {
        &self.rows[i * self.n..(i + 1) * self.n]
    }

    /// `dist(s, v, G \ {e})` in hops, or `None` if `e` is not a tree edge.
    ///
    /// [`UNREACHABLE`] means the failure disconnects `v` from the source.
    pub fn dist(&self, e: EdgeId, v: VertexId) -> Option<u32> {
        self.index_of_edge
            .get(&e)
            .map(|&i| self.row_at(i)[v.index()])
    }

    /// The whole post-failure distance row for edge `e`.
    pub fn row(&self, e: EdgeId) -> Option<&[u32]> {
        self.index_of_edge.get(&e).map(|&i| self.row_at(i))
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

    /// Number of `(edge, vertex)` pairs whose replacement distance is finite
    /// but strictly larger than the fault-free distance — i.e. pairs for
    /// which the failure genuinely matters.
    pub fn count_affected_pairs(&self, tree: &ShortestPathTree) -> usize {
        let mut count = 0;
        for i in 0..self.edges.len() {
            for (vi, &d) in self.row_at(i).iter().enumerate() {
                if let Some(d0) = tree.depth(VertexId::new(vi)) {
                    if d != UNREACHABLE && d > d0 {
                        count += 1;
                    }
                }
            }
        }
        count
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
        // every (edge, deeper vertex) pair is affected on a path: either
        // disconnected (not counted) or unchanged; so affected count is 0.
        assert_eq!(rd.count_affected_pairs(&t), 0);
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
        // the hypercube is 2-edge-connected, so nothing disconnects and many
        // pairs are affected
        assert!(rd.count_affected_pairs(&t) > 0);
    }
}

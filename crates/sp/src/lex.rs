//! The reference oracle for canonical `(hops, tie-weight)` shortest paths.
//!
//! This is the textbook realisation of the paper's `SP(s, v, G', W)`: a
//! heap-based Dijkstra over a masked [`SubgraphView`] comparing paths first
//! by hop count (the true BFS distance) and then by the sum of the per-edge
//! tie weights from [`crate::TieBreakWeights`], so that in every (masked)
//! subgraph the shortest path between two vertices is unique. A final
//! tie-break on predecessor vertex id makes the search fully deterministic
//! even in the (astronomically unlikely) event of a weight collision.
//!
//! Production code does not call it: every canonical path the construction
//! needs comes from the two-sweep [`crate::CanonicalScratch`], which is
//! faster and allocation-free. [`LexSearch`] stays because it is the
//! obviously-correct statement of the objective, and the differential tests
//! of [`crate::CanonicalScratch`], [`crate::ShortestPathTree`] and Algorithm
//! `Pcons` check the fast kernel against it on masked views.

use crate::path::Path;
use crate::weights::TieBreakWeights;
use ftb_graph::{EdgeId, Graph, SubgraphView, VertexId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The cost of a path under the lexicographic order: hop count first, then
/// the accumulated tie weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct PathCost {
    hops: u32,
    tie: u64,
}

impl PathCost {
    const ZERO: PathCost = PathCost { hops: 0, tie: 0 };

    fn step(self, w: u64) -> PathCost {
        PathCost {
            hops: self.hops + 1,
            tie: self.tie + w,
        }
    }
}

/// Heap entry for the lexicographic Dijkstra (min-heap via reversed order).
#[derive(Clone, Copy, PartialEq, Eq)]
struct HeapEntry {
    cost: PathCost,
    vertex: VertexId,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap (a max-heap) pops the smallest cost.
        other
            .cost
            .cmp(&self.cost)
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of a lexicographic single-source search: optimal cost and the
/// unique predecessor of every reached vertex.
#[derive(Clone, Debug)]
pub struct LexSearch {
    source: VertexId,
    dist: Vec<Option<PathCost>>,
    parent: Vec<Option<(VertexId, EdgeId)>>,
}

impl LexSearch {
    /// Run the search from `source` over the whole graph.
    pub fn run(graph: &Graph, weights: &TieBreakWeights, source: VertexId) -> Self {
        Self::run_view(&SubgraphView::full(graph), weights, source)
    }

    /// Run the search from `source` over a masked view of the graph.
    pub fn run_view(view: &SubgraphView<'_>, weights: &TieBreakWeights, source: VertexId) -> Self {
        Self::run_view_impl(view, weights, source, None)
    }

    /// Run the search from `source` but stop as soon as `target` is settled.
    ///
    /// Costs and parents are exact for every settled vertex (in particular
    /// for `target` if it is reachable); vertices that were not reached
    /// before termination report as unreachable. Each probe of the
    /// reference formulation of Algorithm `Pcons`, the test oracle of its
    /// pair store, is one such search.
    pub fn run_view_target(
        view: &SubgraphView<'_>,
        weights: &TieBreakWeights,
        source: VertexId,
        target: VertexId,
    ) -> Self {
        Self::run_view_impl(view, weights, source, Some(target))
    }

    fn run_view_impl(
        view: &SubgraphView<'_>,
        weights: &TieBreakWeights,
        source: VertexId,
        stop_at: Option<VertexId>,
    ) -> Self {
        let n = view.graph().num_vertices();
        let mut dist: Vec<Option<PathCost>> = vec![None; n];
        let mut parent: Vec<Option<(VertexId, EdgeId)>> = vec![None; n];
        let mut settled = vec![false; n];
        let mut heap = BinaryHeap::new();
        if view.allows_vertex(source) {
            dist[source.index()] = Some(PathCost::ZERO);
            heap.push(HeapEntry {
                cost: PathCost::ZERO,
                vertex: source,
            });
        }
        while let Some(HeapEntry { cost, vertex }) = heap.pop() {
            let vi = vertex.index();
            if settled[vi] {
                continue;
            }
            settled[vi] = true;
            if stop_at == Some(vertex) {
                break;
            }
            for (w, e) in view.neighbors(vertex) {
                let wi = w.index();
                if settled[wi] {
                    continue;
                }
                let cand = cost.step(weights.weight(e));
                let better = match (dist[wi], parent[wi]) {
                    (None, _) => true,
                    (Some(cur), Some((cur_parent, _))) => {
                        cand < cur || (cand == cur && vertex < cur_parent)
                    }
                    (Some(cur), None) => cand < cur,
                };
                if better {
                    dist[wi] = Some(cand);
                    parent[wi] = Some((vertex, e));
                    heap.push(HeapEntry {
                        cost: cand,
                        vertex: w,
                    });
                }
            }
        }
        LexSearch {
            source,
            dist,
            parent,
        }
    }

    /// The search source.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Hop distance to `v`, if reachable.
    pub fn hops(&self, v: VertexId) -> Option<u32> {
        self.dist[v.index()].map(|c| c.hops)
    }

    /// Unique predecessor `(parent, edge)` of `v` on its canonical shortest
    /// path, if `v` is reachable and distinct from the source.
    pub fn parent(&self, v: VertexId) -> Option<(VertexId, EdgeId)> {
        self.parent[v.index()]
    }

    /// Extract the canonical shortest path from the source to `v`.
    ///
    /// Returns `None` if `v` is unreachable.
    pub fn path_to(&self, v: VertexId) -> Option<Path> {
        self.dist[v.index()]?;
        let mut vertices = vec![v];
        let mut edges = Vec::new();
        let mut cur = v;
        while let Some((p, e)) = self.parent[cur.index()] {
            vertices.push(p);
            edges.push(e);
            cur = p;
        }
        debug_assert_eq!(cur, self.source);
        vertices.reverse();
        edges.reverse();
        Some(Path::new(vertices, edges))
    }

    /// Number of reachable vertices (including the source).
    pub fn reachable_count(&self) -> usize {
        self.dist.iter().filter(|d| d.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_graph::generators;

    #[test]
    fn hops_match_bfs_on_grid() {
        let g = generators::grid(6, 7);
        let w = TieBreakWeights::generate(&g, 3);
        let search = LexSearch::run(&g, &w, VertexId(0));
        let bfs = crate::bfs::bfs_distances(&g, VertexId(0));
        for v in g.vertices() {
            assert_eq!(search.hops(v).unwrap(), bfs[v.index()]);
        }
        assert_eq!(search.reachable_count(), g.num_vertices());
        assert_eq!(search.source(), VertexId(0));
    }

    #[test]
    fn paths_are_valid_and_have_matching_length() {
        let g = generators::complete(12);
        let w = TieBreakWeights::generate(&g, 5);
        let search = LexSearch::run(&g, &w, VertexId(4));
        for v in g.vertices() {
            let p = search.path_to(v).unwrap();
            p.validate(&g).unwrap();
            assert_eq!(p.len() as u32, search.hops(v).unwrap());
            assert_eq!(p.first(), VertexId(4));
            assert_eq!(p.last(), v);
        }
    }

    #[test]
    fn unreachable_vertices_have_no_path() {
        let g = generators::path(5);
        let e = g.find_edge(VertexId(2), VertexId(3)).unwrap();
        let view = SubgraphView::full(&g).without_edge(e);
        let w = TieBreakWeights::generate(&g, 1);
        let search = LexSearch::run_view(&view, &w, VertexId(0));
        assert!(search.hops(VertexId(3)).is_none());
        assert!(search.path_to(VertexId(4)).is_none());
        assert!(search.parent(VertexId(3)).is_none());
        assert_eq!(search.reachable_count(), 3);
    }

    #[test]
    fn tie_breaking_is_deterministic_across_runs() {
        let g = generators::complete(9);
        let w = TieBreakWeights::generate(&g, 11);
        let a = LexSearch::run(&g, &w, VertexId(0));
        let b = LexSearch::run(&g, &w, VertexId(0));
        for v in g.vertices() {
            assert_eq!(a.path_to(v), b.path_to(v));
        }
    }

    #[test]
    fn lower_tie_weight_path_wins_among_equal_hops() {
        // Square 0-1-2 and 0-3-2: both 2 hops from 0 to 2; the canonical
        // path must be the one with smaller total tie weight.
        let mut b = ftb_graph::GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(1), VertexId(2));
        b.add_edge(VertexId(0), VertexId(3));
        b.add_edge(VertexId(3), VertexId(2));
        let g = b.build();
        let w = TieBreakWeights::generate(&g, 42);
        let search = LexSearch::run(&g, &w, VertexId(0));
        let p = search.path_to(VertexId(2)).unwrap();
        let via1: u64 = w.weight(g.find_edge(VertexId(0), VertexId(1)).unwrap())
            + w.weight(g.find_edge(VertexId(1), VertexId(2)).unwrap());
        let via3: u64 = w.weight(g.find_edge(VertexId(0), VertexId(3)).unwrap())
            + w.weight(g.find_edge(VertexId(3), VertexId(2)).unwrap());
        let expected_mid = if via1 < via3 {
            VertexId(1)
        } else {
            VertexId(3)
        };
        assert_eq!(p.vertices()[1], expected_mid);
        assert_eq!(search.dist[2].unwrap().tie, via1.min(via3));
    }

    #[test]
    fn targeted_search_agrees_with_full_search() {
        let g = generators::grid(8, 8);
        let w = TieBreakWeights::generate(&g, 21);
        let full = LexSearch::run(&g, &w, VertexId(0));
        for v in g.vertices() {
            let view = SubgraphView::full(&g);
            let bounded = LexSearch::run_view_target(&view, &w, VertexId(0), v);
            assert_eq!(bounded.dist[v.index()], full.dist[v.index()]);
            assert_eq!(bounded.path_to(v), full.path_to(v));
        }
    }

    #[test]
    fn targeted_search_on_unreachable_target_terminates() {
        let g = generators::path(5);
        let e = g.find_edge(VertexId(1), VertexId(2)).unwrap();
        let view = SubgraphView::full(&g).without_edge(e);
        let w = TieBreakWeights::generate(&g, 2);
        let bounded = LexSearch::run_view_target(&view, &w, VertexId(0), VertexId(4));
        assert!(bounded.hops(VertexId(4)).is_none());
        assert_eq!(bounded.hops(VertexId(1)), Some(1));
    }

    #[test]
    fn path_cost_ordering_is_lexicographic() {
        let a = PathCost { hops: 2, tie: 100 };
        let b = PathCost { hops: 3, tie: 1 };
        let c = PathCost { hops: 2, tie: 101 };
        assert!(a < b);
        assert!(a < c);
        assert_eq!(PathCost::ZERO.step(5), PathCost { hops: 1, tie: 5 });
    }

    #[test]
    fn vertex_masks_are_respected() {
        let g = generators::complete(5);
        let mask = ftb_graph::VertexMask::removing(&g, [VertexId(1), VertexId(2)]);
        let view = SubgraphView::full(&g).with_vertex_mask(&mask);
        let w = TieBreakWeights::generate(&g, 9);
        let search = LexSearch::run_view(&view, &w, VertexId(0));
        assert!(search.hops(VertexId(1)).is_none());
        assert!(search.hops(VertexId(2)).is_none());
        assert_eq!(search.hops(VertexId(3)), Some(1));
        let p = search.path_to(VertexId(4)).unwrap();
        assert!(!p.contains_vertex(VertexId(1)));
        assert!(!p.contains_vertex(VertexId(2)));
    }
}

//! The canonical shortest-path kernel: allocation-free two-sweep search over
//! reusable scratch.
//!
//! [`CanonicalScratch`] computes canonical `(hops, Σ tie-weights)` shortest
//! paths from scratch: the tree `T0` itself ([`ShortestPathTree::build`]),
//! and the tests' oracle for every tree the construction repairs. Those
//! trees — `Pcons` passes 1 and 2 and both levels of the replacement-path
//! augmentation (Parter–Peleg 2013, Parter 2015) — are a
//! [`CutTree`](crate::CutTree) instead, which runs the same sweep kernel
//! and the same parent rule. The search runs in two sweeps:
//!
//! 1. the [`BoundarySweep`] — the one BFS kernel the query engine's cache
//!    misses run too — establishes hop distances and a visit order that is
//!    non-decreasing in depth,
//! 2. a pass in that order picks, for every vertex, the parent minimising
//!    `(tie-weight sum, parent id)` among its depth-minus-one neighbours —
//!    the same lexicographic objective the reference
//!    [`LexSearch`](crate::LexSearch) optimises with a heap, so the parent
//!    pointers agree (asserted in tests).
//!
//! Both sweeps take the same edge filter `allow(w, e)` — "may the search
//! enter `w` through `e`?" — so a banned edge, a banned vertex, or a rule
//! on the edges entering one particular vertex is an inline `O(1)` test
//! rather than a mask.
//!
//! # Subtree-bounded distances
//!
//! Faults inside the `T0` subtree of a vertex `r` — the tree edge into `r`,
//! `r` itself, or elements below `r` — change canonical paths only inside
//! that subtree (Parter–Peleg, arXiv:1302.5401; see [`crate::cut`]). So
//! [`CanonicalScratch::sweep_subtree`] runs sweep 1 over the subtree's
//! preorder slice alone (the [`BoundarySweep`] region), its boundary at the
//! `T0` depths: the replacement rows
//! ([`ReplacementDistances`](crate::ReplacementDistances)) need only the
//! distances.
//!
//! The parent rule of sweep 2 is [`canonical_parent`]. The
//! [`CutTree`](crate::CutTree) repairs call it too, and `Pcons`'s
//! covered-pair test asks it for the parent among tree edges alone.

use crate::path::Path;
use crate::sp_tree::ShortestPathTree;
use crate::sweep::{BoundarySweep, Region};
use crate::weights::TieBreakWeights;
use crate::UNREACHABLE;
use ftb_graph::{EdgeId, Fault, Graph, VertexId};

/// Scratch state for repeated canonical shortest-path searches.
///
/// Create once (per worker thread) with [`CanonicalScratch::new`], then
/// call [`CanonicalScratch::run`] for a from-source tree of `G ∖ F`, or
/// [`CanonicalScratch::sweep_subtree`] for the hop distances alone under
/// faults below a vertex; the buffers are reused, so a run allocates
/// nothing once they have grown.
#[derive(Clone, Debug)]
pub struct CanonicalScratch {
    /// Sweep 1: hop distances, the visit order and the boundary.
    sweep: BoundarySweep,
    tie: Vec<u64>,
    parent: Vec<Option<(VertexId, EdgeId)>>,
}

impl CanonicalScratch {
    /// Scratch sized for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        CanonicalScratch {
            sweep: BoundarySweep::new(n),
            tie: vec![0; n],
            parent: vec![None; n],
        }
    }

    /// Compute the canonical shortest-path tree from `source` in
    /// `graph ∖ banned` under `weights`, over the whole graph.
    ///
    /// `banned` lists the failed elements (edges and/or vertices); a banned
    /// source yields an empty tree. The tree agrees with
    /// [`LexSearch`](crate::LexSearch) over the equivalent masked view:
    /// every reachable vertex's parent is the unique `(hops, tie, parent id)`
    /// minimiser. This is the search that builds `T0` (no tree exists yet),
    /// and the tests' oracle for the trees a [`CutTree`](crate::CutTree)
    /// repairs.
    pub fn run(
        &mut self,
        graph: &Graph,
        weights: &TieBreakWeights,
        source: VertexId,
        banned: &[Fault],
    ) {
        self.begin(graph);
        if banned.contains(&Fault::Vertex(source)) {
            self.sweep.clear();
            return;
        }
        let allow = |w: VertexId, e: EdgeId| {
            !banned.contains(&Fault::Edge(e)) && !banned.contains(&Fault::Vertex(w))
        };
        self.sweep
            .search_from(source, |u| graph.neighbors(u), allow);
        self.settle(graph, weights, allow);
    }

    /// Sweep 1 alone over the `T0` subtree of `root`: hop distances in the
    /// graph filtered by `allow`. Every element `allow` bans must lie in the
    /// subtree of `root` or be the tree edge into `root`. Afterwards
    /// [`CanonicalScratch::dist`] is exact for every subtree vertex; no
    /// parents are set.
    pub fn sweep_subtree(
        &mut self,
        graph: &Graph,
        tree: &ShortestPathTree,
        root: VertexId,
        allow: impl Fn(VertexId, EdgeId) -> bool,
    ) {
        self.begin(graph);
        let span = tree.euler().subtree(root);
        let region = Region {
            tree: tree.euler(),
            depth0: tree.depth_row(),
            intervals: &[(span.start as u32, span.end as u32)],
        };
        self.sweep
            .search(region, |u| graph.neighbors(u), allow, |_| false);
    }

    /// Start a run: clear the parents the last run set.
    fn begin(&mut self, graph: &Graph) {
        debug_assert_eq!(
            self.parent.len(),
            graph.num_vertices(),
            "scratch sized for a different graph"
        );
        for &v in self.sweep.visited() {
            self.parent[v.index()] = None;
        }
    }

    /// Sweep 2: in visit order, settle the canonical parent of every
    /// reached vertex with [`canonical_parent`] (the source, at depth 0, has
    /// none). All depth-d ties are final before any depth-(d+1) vertex is
    /// processed, so one pass suffices.
    fn settle(
        &mut self,
        graph: &Graph,
        weights: &TieBreakWeights,
        allow: impl Fn(VertexId, EdgeId) -> bool,
    ) {
        for &v in self.sweep.visited() {
            let d = self.sweep.dist(v).expect("visited");
            if d == 0 {
                self.tie[v.index()] = 0;
                continue;
            }
            let dist = |u: VertexId| self.sweep.dist(u).unwrap_or(UNREACHABLE);
            let tie = |u: VertexId| self.tie[u.index()];
            let (tie, u, e) = canonical_parent(graph, weights, v, d - 1, dist, tie, &allow)
                .expect("every visited non-source vertex has a parent");
            self.tie[v.index()] = tie;
            self.parent[v.index()] = Some((u, e));
        }
    }

    /// Hop distance of `v` in the last run, if reached. After a subtree
    /// search, a vertex outside the subtree reads its fault-free depth if it
    /// borders the subtree and `None` otherwise.
    #[inline]
    pub fn dist(&self, v: VertexId) -> Option<u32> {
        self.sweep.dist(v)
    }

    /// `Σ W` along the canonical path to `v` in the last
    /// [`CanonicalScratch::run`], if `v` was reached (0 for the source).
    #[inline]
    pub fn tie(&self, v: VertexId) -> u64 {
        self.tie[v.index()]
    }

    /// Canonical parent `(vertex, edge)` of `v` in the last
    /// [`CanonicalScratch::run`], if `v` was reached and is not the source.
    #[inline]
    pub fn parent(&self, v: VertexId) -> Option<(VertexId, EdgeId)> {
        self.parent[v.index()]
    }

    /// Searched vertices reached by the last run, in non-decreasing depth
    /// order (the source first in a from-source run).
    pub fn visited(&self) -> &[VertexId] {
        self.sweep.visited()
    }

    /// The canonical path from the source to `v` in the last
    /// [`CanonicalScratch::run`], or `None` if `v` was not reached.
    pub fn path_to(&self, v: VertexId) -> Option<Path> {
        let hops = self.dist(v)? as usize;
        let mut vertices = Vec::with_capacity(hops + 1);
        let mut edges = Vec::with_capacity(hops);
        vertices.push(v);
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
}

/// The canonical parent rule: among the neighbours `u` of `v` at hop
/// distance `up` whose edge `e` into `v` `allow(v, e)` admits, the
/// `(tie(u) + W(e), u)` minimiser, returned as `(tie sum of v, u, e)`;
/// `None` if there is none.
///
/// `dist` gives [`UNREACHABLE`] for a vertex that is not reached. Every
/// canonical tree of the construction picks its parents here: with `dist`
/// and `tie` final at depth `up` before any vertex at depth `up + 1` asks,
/// the parents are the `(hops, Σ tie, parent id)` minimisers
/// [`LexSearch`](crate::LexSearch) finds.
#[inline]
pub fn canonical_parent(
    graph: &Graph,
    weights: &TieBreakWeights,
    v: VertexId,
    up: u32,
    dist: impl Fn(VertexId) -> u32,
    tie: impl Fn(VertexId) -> u64,
    allow: impl Fn(VertexId, EdgeId) -> bool,
) -> Option<(u64, VertexId, EdgeId)> {
    let mut best: Option<(u64, VertexId, EdgeId)> = None;
    for (u, e) in graph.neighbors(v) {
        if dist(u) != up || !allow(v, e) {
            continue;
        }
        let cand = (tie(u) + weights.weight(e), u, e);
        if best.is_none_or(|(bt, bu, _)| (cand.0, cand.1) < (bt, bu)) {
            best = Some(cand);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::LexSearch;
    use ftb_graph::{generators, EdgeMask, SubgraphView, VertexMask};

    fn assert_matches_lex(graph: &Graph, seed: u64, banned: &[Fault]) {
        let weights = TieBreakWeights::generate(graph, seed);
        let mut scratch = CanonicalScratch::new(graph.num_vertices());
        scratch.run(graph, &weights, VertexId(0), banned);

        let edge_mask = EdgeMask::removing(graph, banned.iter().filter_map(|f| f.as_edge()));
        let vertex_mask = VertexMask::removing(graph, banned.iter().filter_map(|f| f.as_vertex()));
        let view = SubgraphView::full(graph)
            .with_edge_mask(&edge_mask)
            .with_vertex_mask(&vertex_mask);
        let lex = LexSearch::run_view(&view, &weights, VertexId(0));
        for v in graph.vertices() {
            assert_eq!(
                scratch.dist(v),
                lex.hops(v),
                "dist of {v:?} under {banned:?}"
            );
            assert_eq!(
                scratch.parent(v),
                lex.parent(v),
                "parent of {v:?} under {banned:?}"
            );
        }
    }

    #[test]
    fn agrees_with_lex_search_fault_free() {
        for (g, seed) in [
            (generators::hypercube(4), 3u64),
            (generators::grid(5, 6), 7),
            (generators::complete(9), 11),
        ] {
            assert_matches_lex(&g, seed, &[]);
        }
    }

    #[test]
    fn agrees_with_lex_search_under_faults() {
        let g = generators::hypercube(4);
        for e in 0..g.num_edges().min(8) {
            assert_matches_lex(&g, 5, &[Fault::Edge(EdgeId(e as u32))]);
        }
        for v in 1..6u32 {
            assert_matches_lex(&g, 5, &[Fault::Vertex(VertexId(v))]);
            assert_matches_lex(&g, 5, &[Fault::Vertex(VertexId(v)), Fault::Edge(EdgeId(v))]);
        }
        assert_matches_lex(&g, 5, &[Fault::Edge(EdgeId(0)), Fault::Edge(EdgeId(5))]);
    }

    #[test]
    fn subtree_sweep_resets_only_what_it_touched() {
        // A long path: a sweep of the subtree of 9 touches 9..=11 and the
        // boundary vertex 8, and clears the parents the full run set; a
        // following full run must not see any stale state.
        let g = generators::path(12);
        let w = TieBreakWeights::generate(&g, 4);
        let tree = ShortestPathTree::build(&g, &w, VertexId(0));
        let mut s = CanonicalScratch::new(12);
        s.run(&g, &w, VertexId(0), &[]);
        s.sweep_subtree(&g, &tree, VertexId(9), |_, _| true);
        assert_eq!(s.visited().len(), 3);
        assert_eq!(s.dist(VertexId(9)), Some(9));
        assert_eq!(s.dist(VertexId(5)), None, "stale distance survived a sweep");
        assert_eq!(s.parent(VertexId(5)), None, "stale parent survived a sweep");
        s.run(&g, &w, VertexId(0), &[]);
        assert_eq!(s.dist(VertexId(11)), Some(11));
        assert_eq!(s.path_to(VertexId(11)).unwrap().len(), 11);
    }

    #[test]
    fn subtree_search_touches_only_the_subtree_and_its_boundary() {
        // On a path, failing edge (4, 5) cuts off 5..=11: the search writes
        // vertex 4 as boundary and discovers nothing.
        let g = generators::path(12);
        let w = TieBreakWeights::generate(&g, 4);
        let tree = ShortestPathTree::build(&g, &w, VertexId(0));
        let e = g.find_edge(VertexId(4), VertexId(5)).unwrap();
        let mut s = CanonicalScratch::new(12);
        s.sweep_subtree(&g, &tree, VertexId(5), |_, f| f != e);
        assert!(s.visited().is_empty());
        assert_eq!(s.dist(VertexId(4)), Some(4));
        assert_eq!(s.dist(VertexId(3)), None, "not on the boundary");
        for v in 5..12 {
            assert_eq!(s.dist(VertexId(v)), None, "cut off");
        }
    }

    #[test]
    fn equal_tie_sums_fall_back_to_the_smaller_parent_id() {
        // Vertex 3 meets parent candidate 2 before 1 in its adjacency.
        let mut b = ftb_graph::GraphBuilder::new(4);
        for (x, y) in [(0, 2), (0, 1), (2, 3), (1, 3)] {
            b.add_edge(VertexId(x), VertexId(y));
        }
        let g = b.build();
        let w = TieBreakWeights::uniform(&g);
        let lex = LexSearch::run(&g, &w, VertexId(0));
        let mut s = CanonicalScratch::new(4);
        s.run(&g, &w, VertexId(0), &[]);
        assert_eq!(s.parent(VertexId(3)).map(|(u, _)| u), Some(VertexId(1)));
        assert_eq!(s.parent(VertexId(3)), lex.parent(VertexId(3)));
    }

    #[test]
    fn banned_source_yields_empty_tree() {
        let g = generators::cycle(6);
        let w = TieBreakWeights::generate(&g, 1);
        let mut s = CanonicalScratch::new(6);
        s.run(&g, &w, VertexId(0), &[Fault::Vertex(VertexId(0))]);
        assert!(s.visited().is_empty());
        assert_eq!(s.dist(VertexId(1)), None);
    }

    #[test]
    fn visit_order_is_depth_sorted_and_tree_edges_span() {
        let g = generators::grid(4, 5);
        let w = TieBreakWeights::generate(&g, 9);
        let mut s = CanonicalScratch::new(g.num_vertices());
        s.run(&g, &w, VertexId(0), &[]);
        let order = s.visited();
        assert_eq!(order.len(), g.num_vertices());
        for pair in order.windows(2) {
            assert!(s.dist(pair[0]).unwrap() <= s.dist(pair[1]).unwrap());
        }
        let edges = order.iter().filter_map(|&v| s.parent(v)).count();
        assert_eq!(edges, g.num_vertices() - 1);
    }

    #[test]
    fn subtree_visit_order_is_depth_sorted() {
        // Boundary seeds at several depths must merge into one sorted order.
        let g = generators::grid(7, 7);
        let w = TieBreakWeights::generate(&g, 5);
        let tree = ShortestPathTree::build(&g, &w, VertexId(0));
        let mut s = CanonicalScratch::new(g.num_vertices());
        for &e in tree.tree_edges() {
            let c = tree.child_endpoint(e).unwrap();
            s.sweep_subtree(&g, &tree, c, |_, f| f != e);
            for pair in s.visited().windows(2) {
                assert!(s.dist(pair[0]).unwrap() <= s.dist(pair[1]).unwrap());
            }
        }
    }

    #[test]
    fn scratch_is_reusable_across_runs() {
        let g = generators::cycle(8);
        let w = TieBreakWeights::generate(&g, 2);
        let mut s = CanonicalScratch::new(8);
        s.run(&g, &w, VertexId(0), &[Fault::Edge(EdgeId(0))]);
        let with_fault = s.dist(VertexId(1));
        s.run(&g, &w, VertexId(0), &[]);
        let without = s.dist(VertexId(1));
        // cycle edge 0 is (0,1); removing it forces the long way round
        assert!(with_fault.unwrap() > without.unwrap() || without.unwrap() == 1);
        assert_eq!(s.visited().len(), 8);
    }
}

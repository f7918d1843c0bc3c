//! The canonical shortest-path kernel: allocation-free two-sweep search over
//! reusable scratch.
//!
//! Every canonical `(hops, Σ tie-weights)` shortest path the construction
//! needs comes from [`CanonicalScratch`]: the tree `T0` itself
//! ([`ShortestPathTree::build`](crate::ShortestPathTree::build)), the
//! `1 + O(log depth)` feasibility probes and the one canonical path per
//! `(vertex, failing edge)` pair of Algorithm `Pcons`, and the `Θ(n)` /
//! `Θ(n²)` per-fault-set trees of the replacement-path augmentation
//! (Parter–Peleg 2013, Parter 2015). The search runs in two sweeps:
//!
//! 1. a plain BFS establishes hop distances and a visit order that is
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
//! rather than a mask. Sweep 1 can stop early once a target is discovered
//! or the frontier passes a hop bound, and sweep 2 can be restricted to the
//! vertices shallower than the target plus the target itself: those are all
//! a canonical path to the target can use. A run resets only the entries the
//! previous run touched, so a probe that explores a small ball costs the
//! ball, not `n`.

use crate::path::Path;
use crate::weights::TieBreakWeights;
use crate::UNREACHABLE;
use ftb_graph::{EdgeId, Fault, Graph, VertexId};

/// Scratch state for repeated canonical shortest-path searches.
///
/// Create once (per worker thread) with [`CanonicalScratch::new`], then
/// call [`CanonicalScratch::run`] for every fault set, or
/// [`CanonicalScratch::reaches_within`] and
/// [`CanonicalScratch::settle_target`] for bounded single-target searches;
/// the buffers are reused, so a run allocates nothing.
#[derive(Clone, Debug)]
pub struct CanonicalScratch {
    dist: Vec<u32>,
    tie: Vec<u64>,
    parent: Vec<Option<(VertexId, EdgeId)>>,
    /// Every vertex the last sweep discovered, in discovery order. It is
    /// the BFS queue itself (FIFO, hence non-decreasing in `dist`) and the
    /// exact set of entries the next run has to reset.
    order: Vec<VertexId>,
}

impl CanonicalScratch {
    /// Scratch sized for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        CanonicalScratch {
            dist: vec![UNREACHABLE; n],
            tie: vec![0; n],
            parent: vec![None; n],
            order: Vec::with_capacity(n),
        }
    }

    /// Compute the canonical shortest-path tree from `source` in
    /// `graph ∖ banned` under `weights`.
    ///
    /// `banned` lists the failed elements (edges and/or vertices); a banned
    /// source yields an empty tree. The tree agrees with
    /// [`LexSearch`](crate::LexSearch) over the equivalent masked view:
    /// every reachable vertex's parent is the unique `(hops, tie, parent id)`
    /// minimiser.
    pub fn run(
        &mut self,
        graph: &Graph,
        weights: &TieBreakWeights,
        source: VertexId,
        banned: &[Fault],
    ) {
        if banned.contains(&Fault::Vertex(source)) {
            self.reset();
            return;
        }
        let allow = |w: VertexId, e: EdgeId| {
            !banned.contains(&Fault::Edge(e)) && !banned.contains(&Fault::Vertex(w))
        };
        self.sweep(graph, source, None, allow);
        self.settle(graph, weights, UNREACHABLE, allow);
    }

    /// Sweep 1 alone, as a feasibility probe: is `target` within `max_hops`
    /// of `source` over the edges `allow(w, e)` admits?
    ///
    /// The BFS stops as soon as `target` is discovered or the frontier
    /// would pass `max_hops`. Afterwards [`CanonicalScratch::dist`] is exact
    /// for every vertex at depth `≤ min(dist(target), max_hops) − 1` and for
    /// `target` itself; deeper vertices may read as unreachable. No parents
    /// are set until [`CanonicalScratch::settle_target`] runs.
    pub fn reaches_within(
        &mut self,
        graph: &Graph,
        source: VertexId,
        target: VertexId,
        max_hops: u32,
        allow: impl Fn(VertexId, EdgeId) -> bool,
    ) -> bool {
        self.sweep(graph, source, Some((target, max_hops)), allow);
        self.dist[target.index()] <= max_hops
    }

    /// Sweep 2 for the last [`CanonicalScratch::reaches_within`] probe,
    /// which must have reached `target`: settle the canonical parent of
    /// every vertex strictly shallower than `target`, then of `target`.
    ///
    /// `allow` must be the probe's filter. Afterwards
    /// [`CanonicalScratch::path_to`]`(target)` is the canonical shortest
    /// path in the filtered graph — the path
    /// [`LexSearch::run_view_target`](crate::LexSearch::run_view_target)
    /// returns over the equivalent masked view.
    pub fn settle_target(
        &mut self,
        graph: &Graph,
        weights: &TieBreakWeights,
        target: VertexId,
        allow: impl Fn(VertexId, EdgeId) -> bool,
    ) {
        let depth = self.dist[target.index()];
        debug_assert_ne!(depth, UNREACHABLE, "settle_target needs a reached target");
        self.settle(graph, weights, depth, &allow);
        if depth > 0 {
            self.settle_vertex(graph, weights, target, &allow);
        }
    }

    /// Clear exactly the entries the last run wrote.
    fn reset(&mut self) {
        for &v in &self.order {
            self.dist[v.index()] = UNREACHABLE;
            self.parent[v.index()] = None;
        }
        self.order.clear();
    }

    /// Sweep 1: hop distances by plain BFS from `source`, using `order` as
    /// the queue. With `stop = Some((target, max_hops))` the sweep ends once
    /// `target` is discovered or the frontier passes `max_hops`.
    fn sweep(
        &mut self,
        graph: &Graph,
        source: VertexId,
        stop: Option<(VertexId, u32)>,
        allow: impl Fn(VertexId, EdgeId) -> bool,
    ) {
        debug_assert_eq!(
            self.dist.len(),
            graph.num_vertices(),
            "scratch sized for a different graph"
        );
        self.reset();
        self.dist[source.index()] = 0;
        self.order.push(source);
        let (target, max_hops) = match stop {
            Some((t, _)) if t == source => return,
            Some((t, h)) => (Some(t), h),
            None => (None, UNREACHABLE),
        };
        let mut head = 0;
        while let Some(&u) = self.order.get(head) {
            head += 1;
            let du = self.dist[u.index()];
            if du >= max_hops {
                break;
            }
            for (w, e) in graph.neighbors(u) {
                if self.dist[w.index()] == UNREACHABLE && allow(w, e) {
                    self.dist[w.index()] = du + 1;
                    self.order.push(w);
                    if target == Some(w) {
                        return;
                    }
                }
            }
        }
    }

    /// Sweep 2: in visit order, settle the canonical parent of every
    /// non-source vertex shallower than `below`. All depth-d ties are final
    /// before any depth-(d+1) vertex is processed, so one pass suffices.
    fn settle(
        &mut self,
        graph: &Graph,
        weights: &TieBreakWeights,
        below: u32,
        allow: impl Fn(VertexId, EdgeId) -> bool,
    ) {
        let Some(&source) = self.order.first() else {
            return;
        };
        self.tie[source.index()] = 0;
        for i in 1..self.order.len() {
            let v = self.order[i];
            if self.dist[v.index()] >= below {
                break;
            }
            self.settle_vertex(graph, weights, v, &allow);
        }
    }

    /// Pick `v`'s parent: the `(tie sum, parent id)` minimiser among its
    /// admitted neighbours one level up.
    fn settle_vertex(
        &mut self,
        graph: &Graph,
        weights: &TieBreakWeights,
        v: VertexId,
        allow: impl Fn(VertexId, EdgeId) -> bool,
    ) {
        let up = self.dist[v.index()].wrapping_sub(1);
        let mut best: Option<(u64, VertexId, EdgeId)> = None;
        for (u, e) in graph.neighbors(v) {
            if self.dist[u.index()] != up || !allow(v, e) {
                continue;
            }
            let cand = (self.tie[u.index()] + weights.weight(e), u, e);
            if best.is_none_or(|(bt, bu, _)| (cand.0, cand.1) < (bt, bu)) {
                best = Some(cand);
            }
        }
        let (tie, u, e) = best.expect("every visited non-source vertex has a parent");
        self.tie[v.index()] = tie;
        self.parent[v.index()] = Some((u, e));
    }

    /// Hop distance of `v` in the last run, if reachable (see
    /// [`CanonicalScratch::reaches_within`] for what a bounded probe
    /// guarantees).
    #[inline]
    pub fn dist(&self, v: VertexId) -> Option<u32> {
        let d = self.dist[v.index()];
        (d != UNREACHABLE).then_some(d)
    }

    /// Canonical parent `(vertex, edge)` of `v` in the last run, if `v` was
    /// settled and is not the source.
    #[inline]
    pub fn parent(&self, v: VertexId) -> Option<(VertexId, EdgeId)> {
        self.parent[v.index()]
    }

    /// The parent ("last leg") edge of `v` in the last run.
    #[inline]
    pub fn parent_edge(&self, v: VertexId) -> Option<EdgeId> {
        self.parent[v.index()].map(|(_, e)| e)
    }

    /// Vertices reached by the last run, in non-decreasing depth order
    /// (source first).
    pub fn visited(&self) -> &[VertexId] {
        &self.order
    }

    /// The canonical path from the source to `v` along settled parents, or
    /// `None` if `v` was not reached.
    pub fn path_to(&self, v: VertexId) -> Option<Path> {
        self.dist(v)?;
        let mut vertices = vec![v];
        let mut edges = Vec::new();
        let mut cur = v;
        while let Some((p, e)) = self.parent[cur.index()] {
            vertices.push(p);
            edges.push(e);
            cur = p;
        }
        debug_assert_eq!(
            Some(&cur),
            self.order.first(),
            "unsettled vertex on the path"
        );
        vertices.reverse();
        edges.reverse();
        Some(Path::new(vertices, edges))
    }

    /// Collect the tree edges of the last run (one parent edge per reached
    /// non-source vertex) into `out`.
    pub fn collect_tree_edges(&self, out: &mut Vec<EdgeId>) {
        out.clear();
        for &v in &self.order {
            if let Some((_, e)) = self.parent[v.index()] {
                out.push(e);
            }
        }
    }
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

    /// The bounded single-target entry points against
    /// `LexSearch::run_view_target` over the equivalent masked view, for
    /// the three filter shapes Algorithm `Pcons` uses: a banned edge plus a
    /// "no edge of this class may enter the target" rule, and a banned edge
    /// plus removed vertices.
    #[test]
    fn bounded_target_probes_agree_with_lex_search() {
        for (g, seed) in [
            (generators::hypercube(5), 3u64),
            (generators::grid(6, 7), 7),
            (generators::complete(10), 11),
            (generators::cycle(11), 13),
        ] {
            let weights = TieBreakWeights::generate(&g, seed);
            let mut scratch = CanonicalScratch::new(g.num_vertices());
            for t in g.vertices().skip(1) {
                for e in g.edge_ids().step_by(3) {
                    // Banned edge; even-id edges may not enter `t`.
                    let mut edge_mask = EdgeMask::removing(&g, [e]);
                    for (_, f) in g.neighbors(t) {
                        if f.index() % 2 == 0 {
                            edge_mask.remove(f);
                        }
                    }
                    let view = SubgraphView::full(&g).with_edge_mask(&edge_mask);
                    let allow = |w: VertexId, f: EdgeId| f != e && (w != t || f.index() % 2 == 1);
                    assert_bounded_probe_matches(&g, &weights, &mut scratch, &view, t, allow);

                    // Banned edge; vertices with ids in (t/3, t/2) removed.
                    let removed = |w: VertexId| 3 * w.0 > t.0 && 2 * w.0 < t.0;
                    let vmask = VertexMask::removing(&g, g.vertices().filter(|&w| removed(w)));
                    let view = SubgraphView::full(&g)
                        .without_edge(e)
                        .with_vertex_mask(&vmask);
                    let allow = |w: VertexId, f: EdgeId| f != e && !removed(w);
                    assert_bounded_probe_matches(&g, &weights, &mut scratch, &view, t, allow);
                }
            }
        }
    }

    fn assert_bounded_probe_matches(
        g: &Graph,
        weights: &TieBreakWeights,
        scratch: &mut CanonicalScratch,
        view: &SubgraphView<'_>,
        t: VertexId,
        allow: impl Fn(VertexId, EdgeId) -> bool,
    ) {
        let s = VertexId(0);
        let lex = LexSearch::run_view_target(view, weights, s, t);
        let Some(hops) = lex.hops(t) else {
            assert!(!scratch.reaches_within(g, s, t, g.num_vertices() as u32, &allow));
            return;
        };
        // One hop short is infeasible, exactly the distance is feasible.
        if hops > 0 {
            assert!(!scratch.reaches_within(g, s, t, hops - 1, &allow));
        }
        assert!(scratch.reaches_within(g, s, t, hops, &allow));
        assert_eq!(scratch.dist(t), Some(hops));
        scratch.settle_target(g, weights, t, &allow);
        assert_eq!(scratch.path_to(t), lex.path_to(t), "path to {t:?}");
    }

    #[test]
    fn probe_of_the_source_is_trivially_feasible() {
        let g = generators::cycle(5);
        let w = TieBreakWeights::generate(&g, 1);
        let mut s = CanonicalScratch::new(5);
        assert!(s.reaches_within(&g, VertexId(0), VertexId(0), 0, |_, _| false));
        s.settle_target(&g, &w, VertexId(0), |_, _| false);
        assert_eq!(s.path_to(VertexId(0)), Some(Path::singleton(VertexId(0))));
    }

    #[test]
    fn bounded_probe_resets_only_what_it_touched() {
        // A long path: a probe bounded at 2 hops touches three vertices,
        // and a following full run must not see any stale state.
        let g = generators::path(12);
        let w = TieBreakWeights::generate(&g, 4);
        let mut s = CanonicalScratch::new(12);
        s.run(&g, &w, VertexId(0), &[]);
        assert!(!s.reaches_within(&g, VertexId(0), VertexId(9), 2, |_, _| true));
        assert_eq!(s.visited().len(), 3);
        assert_eq!(s.dist(VertexId(9)), None);
        assert_eq!(s.parent(VertexId(5)), None, "stale parent survived a probe");
        s.run(&g, &w, VertexId(0), &[]);
        assert_eq!(s.dist(VertexId(11)), Some(11));
        assert_eq!(s.path_to(VertexId(11)).unwrap().len(), 11);
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
        let mut edges = vec![EdgeId(0)];
        s.collect_tree_edges(&mut edges);
        assert!(edges.is_empty());
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
        let mut edges = Vec::new();
        s.collect_tree_edges(&mut edges);
        assert_eq!(edges.len(), g.num_vertices() - 1);
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

//! The canonical shortest-path kernel: allocation-free two-sweep search over
//! reusable scratch.
//!
//! [`CanonicalScratch`] computes canonical `(hops, Σ tie-weights)` shortest
//! paths from scratch: the tree `T0` itself ([`ShortestPathTree::build`]),
//! the replacement rows
//! ([`ReplacementDistances`](crate::ReplacementDistances)) and the
//! hop-bounded probes of `Pcons` pass 3. Every tree the construction
//! repairs under faults of `T0` — `Pcons` passes 1 and 2 and both levels of
//! the replacement-path augmentation (Parter–Peleg 2013, Parter 2015) — is
//! a [`CutTree`](crate::CutTree) instead, which runs the same sweep kernel
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
//! # Subtree-bounded search
//!
//! Faults inside the `T0` subtree of a vertex `r` — the tree edge into `r`,
//! `r` itself, or elements below `r` — change canonical paths only inside
//! that subtree (Parter–Peleg, arXiv:1302.5401; see [`crate::cut`]). So
//! [`CanonicalScratch::sweep_subtree`] runs sweep 1 over the subtree's
//! preorder slice alone (the [`BoundarySweep`] region), its boundary at the
//! `T0` `(depth, Σ tie)`. It can stop once a target is discovered or the
//! frontier passes a hop bound, and sweep 2 can be restricted to the
//! vertices shallower than the target plus the target itself.
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
/// call [`CanonicalScratch::run`] for a from-source tree of `G ∖ F`, or the
/// subtree-bounded [`CanonicalScratch::sweep_subtree`] (+
/// [`CanonicalScratch::settle_target`]) for faults below a vertex; the
/// buffers are reused, so a run allocates nothing once they have grown.
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
        self.settle(graph, weights, UNREACHABLE, allow);
    }

    /// Sweep 1 alone over the `T0` subtree of `root`: hop distances in the
    /// graph filtered by `allow`. Every element `allow` bans must lie in the
    /// subtree of `root` or be the tree edge into `root`.
    ///
    /// With `stop = Some((target, max_hops))` (the target in the subtree)
    /// the sweep ends once `target` is discovered or the frontier would pass
    /// `max_hops`, and enumerates only the subtree vertices shallower than
    /// `max_hops` plus `target`. Afterwards [`CanonicalScratch::dist`] is
    /// exact for every subtree vertex at depth
    /// `≤ min(dist(target), max_hops) − 1` and for `target` itself (`target`
    /// has a distance iff it is within `max_hops`); deeper vertices may read
    /// as unreachable. No parents are set until
    /// [`CanonicalScratch::settle_target`] runs.
    pub fn sweep_subtree(
        &mut self,
        graph: &Graph,
        tree: &ShortestPathTree,
        root: VertexId,
        stop: Option<(VertexId, u32)>,
        allow: impl Fn(VertexId, EdgeId) -> bool,
    ) {
        self.begin(graph);
        let (target, max_hops) = match stop {
            Some((t, h)) => {
                debug_assert!(tree.in_subtree(root, t), "target outside the subtree");
                (Some(t), h)
            }
            None => (None, UNREACHABLE),
        };
        let span = tree.euler().subtree(root);
        let region = Region {
            tree: tree.euler(),
            depth0: tree.depth_row(),
            intervals: &[(span.start as u32, span.end as u32)],
            max_hops,
            target,
        };
        let done = |w| Some(w) == target;
        self.sweep
            .search(region, |u| graph.neighbors(u), allow, done);
        // The boundary enters at its `T0` tie sums.
        for &u in self.sweep.boundary() {
            self.tie[u.index()] = tree.tie(u);
        }
    }

    /// Sweep 2 for the last [`CanonicalScratch::sweep_subtree`] probe,
    /// which must have reached `target`: settle the canonical parent of
    /// every searched vertex strictly shallower than `target`, then of
    /// `target`.
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
        let depth = self
            .sweep
            .dist(target)
            .expect("settle_target needs a reached target");
        self.settle(graph, weights, depth, &allow);
        if depth > 0 {
            self.settle_vertex(graph, weights, target, &allow);
        }
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
    /// searched vertex shallower than `below` (the source, at depth 0, has
    /// none). All depth-d ties are final before any depth-(d+1) vertex is
    /// processed, so one pass suffices.
    fn settle(
        &mut self,
        graph: &Graph,
        weights: &TieBreakWeights,
        below: u32,
        allow: impl Fn(VertexId, EdgeId) -> bool,
    ) {
        for i in 0..self.sweep.visited().len() {
            let v = self.sweep.visited()[i];
            let d = self.sweep.dist(v).expect("visited");
            if d >= below {
                break;
            }
            if d == 0 {
                self.tie[v.index()] = 0;
            } else {
                self.settle_vertex(graph, weights, v, &allow);
            }
        }
    }

    /// Pick `v`'s parent with [`canonical_parent`].
    fn settle_vertex(
        &mut self,
        graph: &Graph,
        weights: &TieBreakWeights,
        v: VertexId,
        allow: impl Fn(VertexId, EdgeId) -> bool,
    ) {
        let d = self.sweep.dist(v).expect("settled vertices are reached");
        let dist = |u: VertexId| self.sweep.dist(u).unwrap_or(UNREACHABLE);
        let tie = |u: VertexId| self.tie[u.index()];
        let (tie, u, e) = canonical_parent(graph, weights, v, d - 1, dist, tie, allow)
            .expect("every visited non-source vertex has a parent");
        self.tie[v.index()] = tie;
        self.parent[v.index()] = Some((u, e));
    }

    /// Hop distance of `v` in the last run, if reached (see
    /// [`CanonicalScratch::sweep_subtree`] for what a bounded probe
    /// guarantees). After a subtree search, a vertex outside the subtree
    /// reads its fault-free depth if it borders the subtree and `None`
    /// otherwise.
    #[inline]
    pub fn dist(&self, v: VertexId) -> Option<u32> {
        self.sweep.dist(v)
    }

    /// `Σ W` along the canonical path to `v` in the last run, once `v` is
    /// settled (0 for the source).
    #[inline]
    pub fn tie(&self, v: VertexId) -> u64 {
        self.tie[v.index()]
    }

    /// Canonical parent `(vertex, edge)` of `v` in the last run, if `v` was
    /// settled and is not the source (nor outside a searched subtree).
    #[inline]
    pub fn parent(&self, v: VertexId) -> Option<(VertexId, EdgeId)> {
        self.parent[v.index()]
    }

    /// Searched vertices reached by the last run, in non-decreasing depth
    /// order (the source first in a from-source run).
    pub fn visited(&self) -> &[VertexId] {
        self.sweep.visited()
    }

    /// The canonical path from the source to `v`, or `None` if `v` was not
    /// reached: settled parents up to the first vertex that has none (the
    /// source, or the boundary vertex a subtree search entered from), then
    /// that vertex's path in `tree` — the `T0` of the same source and
    /// weights.
    pub fn path_to(&self, tree: &ShortestPathTree, v: VertexId) -> Option<Path> {
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
        while let Some((p, e)) = tree.parent(cur) {
            vertices.push(p);
            edges.push(e);
            cur = p;
        }
        debug_assert_eq!(cur, tree.source(), "unsettled vertex on the path");
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

    /// The bounded single-target probe from the source (`root = s`) against
    /// `LexSearch::run_view_target` over the equivalent masked view, for
    /// the filter shapes Algorithm `Pcons` uses: a banned edge plus a "no
    /// edge of this class may enter the target" rule, and a banned edge
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
            let tree = ShortestPathTree::build(&g, &weights, VertexId(0));
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
                    let probe = Probe {
                        root: tree.source(),
                        target: t,
                    };
                    probe.assert_matches(&g, &weights, &tree, &mut scratch, &view, allow);

                    // Banned edge; vertices with ids in (t/3, t/2) removed.
                    let removed = |w: VertexId| 3 * w.0 > t.0 && 2 * w.0 < t.0;
                    let vmask = VertexMask::removing(&g, g.vertices().filter(|&w| removed(w)));
                    let view = SubgraphView::full(&g)
                        .without_edge(e)
                        .with_vertex_mask(&vmask);
                    let allow = |w: VertexId, f: EdgeId| f != e && !removed(w);
                    probe.assert_matches(&g, &weights, &tree, &mut scratch, &view, allow);
                }
            }
        }
    }

    /// The same probes on the subtree a failing tree edge cuts off: for
    /// every tree edge `e` into `c` and every `t` below it, with `e` banned
    /// and, in a second filter, the tree path from `c` to `t`'s parent
    /// removed as well (the shape of a `Pcons` interior probe).
    #[test]
    fn subtree_target_probes_agree_with_lex_search() {
        for (g, seed) in [
            (generators::hypercube(5), 3u64),
            (generators::grid(6, 7), 7),
            (generators::cycle(11), 13),
        ] {
            let weights = TieBreakWeights::generate(&g, seed);
            let tree = ShortestPathTree::build(&g, &weights, VertexId(0));
            let mut scratch = CanonicalScratch::new(g.num_vertices());
            for &e in tree.tree_edges() {
                let c = tree.child_endpoint(e).unwrap();
                for t in g.vertices().filter(|&t| tree.in_subtree(c, t)) {
                    let probe = Probe { root: c, target: t };
                    let view = SubgraphView::full(&g).without_edge(e);
                    probe.assert_matches(&g, &weights, &tree, &mut scratch, &view, |_, f| f != e);

                    let interior: Vec<VertexId> = tree
                        .ancestors(t)
                        .skip(1)
                        .map(|(x, _)| x)
                        .filter(|&x| tree.in_subtree(c, x))
                        .collect();
                    let vmask = VertexMask::removing(&g, interior.iter().copied());
                    let view = SubgraphView::full(&g)
                        .without_edge(e)
                        .with_vertex_mask(&vmask);
                    let allow = |w: VertexId, f: EdgeId| f != e && !interior.contains(&w);
                    probe.assert_matches(&g, &weights, &tree, &mut scratch, &view, allow);
                }
            }
        }
    }

    struct Probe {
        root: VertexId,
        target: VertexId,
    }

    impl Probe {
        fn assert_matches(
            &self,
            g: &Graph,
            weights: &TieBreakWeights,
            tree: &ShortestPathTree,
            scratch: &mut CanonicalScratch,
            view: &SubgraphView<'_>,
            allow: impl Fn(VertexId, EdgeId) -> bool,
        ) {
            let Probe { root, target: t } = *self;
            let lex = LexSearch::run_view_target(view, weights, tree.source(), t);
            let Some(hops) = lex.hops(t) else {
                scratch.sweep_subtree(g, tree, root, Some((t, g.num_vertices() as u32)), &allow);
                assert_eq!(scratch.dist(t), None);
                return;
            };
            // One hop short is infeasible, exactly the distance is feasible.
            if hops > 0 {
                scratch.sweep_subtree(g, tree, root, Some((t, hops - 1)), &allow);
                assert_eq!(scratch.dist(t), None);
            }
            scratch.sweep_subtree(g, tree, root, Some((t, hops)), &allow);
            assert_eq!(scratch.dist(t), Some(hops));
            scratch.settle_target(g, weights, t, &allow);
            assert_eq!(scratch.path_to(tree, t), lex.path_to(t), "path to {t:?}");
        }
    }

    #[test]
    fn probe_of_the_source_is_trivially_feasible() {
        let g = generators::cycle(5);
        let w = TieBreakWeights::generate(&g, 1);
        let tree = ShortestPathTree::build(&g, &w, VertexId(0));
        let mut s = CanonicalScratch::new(5);
        let s0 = VertexId(0);
        s.sweep_subtree(&g, &tree, s0, Some((s0, 0)), |_, _| false);
        assert_eq!(s.dist(s0), Some(0));
        s.settle_target(&g, &w, s0, |_, _| false);
        assert_eq!(s.path_to(&tree, s0), Some(Path::singleton(s0)));
    }

    #[test]
    fn bounded_probe_resets_only_what_it_touched() {
        // A long path: a probe bounded at 2 hops touches three vertices,
        // and a following full run must not see any stale state.
        let g = generators::path(12);
        let w = TieBreakWeights::generate(&g, 4);
        let tree = ShortestPathTree::build(&g, &w, VertexId(0));
        let mut s = CanonicalScratch::new(12);
        s.run(&g, &w, VertexId(0), &[]);
        s.sweep_subtree(&g, &tree, VertexId(0), Some((VertexId(9), 2)), |_, _| true);
        assert_eq!(s.visited().len(), 3);
        assert_eq!(s.dist(VertexId(9)), None);
        assert_eq!(s.parent(VertexId(5)), None, "stale parent survived a probe");
        s.run(&g, &w, VertexId(0), &[]);
        assert_eq!(s.dist(VertexId(11)), Some(11));
        assert_eq!(s.path_to(&tree, VertexId(11)).unwrap().len(), 11);
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
        s.sweep_subtree(&g, &tree, VertexId(5), None, |_, f| f != e);
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
            s.sweep_subtree(&g, &tree, c, None, |_, f| f != e);
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

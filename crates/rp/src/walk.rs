//! The source-divergence walk of `Pcons` pass 2.
//!
//! Pass 2 asks, for every terminal `v` with an uncovered pair, for the
//! canonical tree of `G'_v = G ∖ π°(s, v) ∖ {(s, a)}`, where `a = π[1]` is
//! the source child above `v`. These graphs nest down `T0`: a child `c` of
//! `x` has `G'_c = G'_x ∖ {x}`. Removing `x` changes the canonical path of
//! exactly the vertices whose current path passes through `x`, its subtree
//! in the current tree. A vertex outside it keeps its path (no removal makes
//! a path shorter, or lowers a tie sum), and no such path enters the
//! subtree, so a search of the subtree alone, seeded from its outside
//! neighbours at their current depths and tie sums, repairs the tree. This
//! is the subset-stability argument pass 1's subtree searches rest on
//! (Parter–Peleg, arXiv:1302.5401), applied once per removed vertex.
//!
//! [`DivergenceTree::walk`] runs it for one source child `a`. It cuts the
//! edge `(s, a)` from `T0`, which gives `T_a`, the replacement tree of that
//! edge and `G'_a`'s tree, then walks down `T0` with an explicit stack,
//! because `T0` can be `Θ(n)` deep. It enters only the vertices on the way
//! to a target, reads each target off the current tree, and removes a
//! vertex before it steps into the vertex's children. An undo log restores
//! the rows when the walk steps back, and after the walk the rows are `T0`'s
//! again, so a walk costs its source child's subtree plus its repairs, not
//! `n`.
//!
//! A repair is one [`BoundarySweep::search_from_seeds`] over the cut region,
//! and every parent is picked by [`canonical_parent`]: the kernel and the
//! parent rule of every other canonical search.

use ftb_graph::{EdgeId, Graph, VertexId};
use ftb_sp::{canonical_parent, BoundarySweep, ShortestPathTree, TieBreakWeights, UNREACHABLE};

/// The depth row's mark for a vertex of the region being repaired.
const PENDING: u32 = UNREACHABLE - 1;

/// A row of the tree as the undo log keeps it: vertex, depth, tie sum and
/// parent.
type Row = (VertexId, u32, u64, Option<(VertexId, EdgeId)>);

/// The canonical tree the walk carries: one row per vertex, initialised to
/// `T0` once (per worker) and back at `T0` after every walk.
pub(crate) struct DivergenceTree {
    /// Hop depth per vertex ([`UNREACHABLE`] if cut off or removed).
    depth: Vec<u32>,
    /// `Σ W` along the vertex's canonical path.
    tie: Vec<u64>,
    /// Canonical parent, `None` for the source and unreached vertices.
    parent: Vec<Option<(VertexId, EdgeId)>>,
    /// The rows each cut overwrote, oldest first.
    undo: Vec<Row>,
    /// The vertices of the running cut's region.
    region: Vec<VertexId>,
    /// `(entry, w)` seeds of the running cut.
    seeds: Vec<(u32, VertexId)>,
    sweep: BoundarySweep,
    /// The walk's path down `T0`: `(x, next child to look at, undo mark
    /// before x was removed)`.
    stack: Vec<(VertexId, usize, usize)>,
}

impl DivergenceTree {
    /// Rows holding `T0`.
    pub(crate) fn new(tree: &ShortestPathTree) -> Self {
        let n = tree.num_vertices();
        let vertices = (0..n).map(VertexId::new);
        DivergenceTree {
            depth: vertices
                .clone()
                .map(|v| tree.depth(v).unwrap_or(UNREACHABLE))
                .collect(),
            tie: vertices.clone().map(|v| tree.tie(v)).collect(),
            parent: vertices.map(|v| tree.parent(v)).collect(),
            undo: Vec::new(),
            region: Vec::new(),
            seeds: Vec::new(),
            sweep: BoundarySweep::new(n),
            stack: Vec::new(),
        }
    }

    /// Hop distance of `v` in the current tree, if reached.
    #[inline]
    pub(crate) fn depth(&self, v: VertexId) -> Option<u32> {
        let d = self.depth[v.index()];
        (d != UNREACHABLE).then_some(d)
    }

    /// Canonical parent of `v` in the current tree: `None` for the source
    /// and for a vertex that is not reached.
    #[inline]
    pub(crate) fn parent(&self, v: VertexId) -> Option<(VertexId, EdgeId)> {
        self.parent[v.index()]
    }

    /// Walk the subtree of the source child `a` above `targets`: a
    /// non-empty list of vertices of that subtree, in preorder and without
    /// repeats. `visit(self,
    /// i)` sees the canonical tree of `G'_v` for `v = targets[i]`, in order.
    /// Returns the number of vertices removed (the distinct proper
    /// ancestors of the targets below the source) and the total size of the
    /// regions their removals repaired.
    pub(crate) fn walk(
        &mut self,
        graph: &Graph,
        weights: &TieBreakWeights,
        tree: &ShortestPathTree,
        targets: &[VertexId],
        mut visit: impl FnMut(&Self, usize),
    ) -> (u64, u64) {
        let (a, first) = tree
            .ancestors(targets[0])
            .last()
            .expect("targets below the source");
        debug_assert!(self.undo.is_empty(), "rows left off T0");
        self.cut(graph, weights, a, Some(first));
        let (mut removals, mut region_vertices) = (0, 0);
        let mut next = 0;
        let below = |x: VertexId, next: usize| {
            targets
                .get(next)
                .filter(|&&t| tree.in_subtree(x, t))
                .copied()
        };
        let mut enter = Some(a);
        loop {
            if let Some(x) = enter {
                if targets.get(next) == Some(&x) {
                    visit(self, next);
                    next += 1;
                }
                if below(x, next).is_some() {
                    let mark = self.undo.len();
                    region_vertices += self.cut(graph, weights, x, None) as u64;
                    removals += 1;
                    self.stack.push((x, 0, mark));
                }
            }
            let Some(&(x, child, mark)) = self.stack.last() else {
                break;
            };
            enter = match below(x, next) {
                // The next target lies below a child of `x` not yet entered.
                Some(t) => {
                    let children = tree.children(x);
                    let skip = children[child..]
                        .iter()
                        .position(|&c| tree.in_subtree(c, t))
                        .expect("a target below x lies below one of its children");
                    self.stack.last_mut().expect("a frame").1 = child + skip + 1;
                    Some(children[child + skip])
                }
                None => {
                    self.undo_to(mark);
                    self.stack.pop();
                    None
                }
            };
        }
        self.undo_to(0);
        (removals, region_vertices)
    }

    /// Cut `root` from the current tree and repair what hangs below it:
    /// with `edge = Some(e)`, `e` is `root`'s parent edge and is removed;
    /// with `None`, `root` itself is. Returns the size of the repaired
    /// region: `root`'s subtree in the current tree, without `root` if it is
    /// removed.
    fn cut(
        &mut self,
        graph: &Graph,
        weights: &TieBreakWeights,
        root: VertexId,
        edge: Option<EdgeId>,
    ) -> usize {
        // The region, down the parent rows; each of its rows is logged and
        // marked pending.
        self.region.clear();
        self.log(root);
        if edge.is_some() {
            self.depth[root.index()] = PENDING;
            self.region.push(root);
        } else {
            self.depth[root.index()] = UNREACHABLE;
            self.parent[root.index()] = None;
        }
        let (mut u, mut i) = (root, usize::from(edge.is_some()));
        loop {
            for (w, e) in graph.neighbors(u) {
                if self.parent[w.index()] == Some((u, e)) {
                    self.log(w);
                    self.depth[w.index()] = PENDING;
                    self.region.push(w);
                }
            }
            let Some(&w) = self.region.get(i) else {
                break;
            };
            (u, i) = (w, i + 1);
        }

        // Seed each region vertex at its best entry from a reached vertex
        // outside, then sweep the region alone.
        let allow = |_: VertexId, e: EdgeId| Some(e) != edge;
        let depth = &self.depth;
        self.seeds.clear();
        for &w in &self.region {
            let entry = graph
                .neighbors(w)
                .filter(|&(u, e)| depth[u.index()] < PENDING && allow(w, e))
                .map(|(u, _)| depth[u.index()] + 1)
                .min();
            self.seeds.extend(entry.map(|d| (d, w)));
        }
        self.sweep.search_from_seeds(
            self.seeds.iter().copied(),
            |u| graph.neighbors(u),
            |w, _| depth[w.index()] == PENDING,
        );

        // Settle in visit order: every vertex one level up is final, inside
        // the region or out.
        for &w in self.sweep.visited() {
            let d = self.sweep.dist(w).expect("visited");
            self.depth[w.index()] = d;
            let (depth, tie) = (&self.depth, &self.tie);
            let (t, u, e) = canonical_parent(
                graph,
                weights,
                w,
                d - 1,
                |u| depth[u.index()],
                |u| tie[u.index()],
                allow,
            )
            .expect("a discovered vertex has a parent");
            self.tie[w.index()] = t;
            self.parent[w.index()] = Some((u, e));
        }
        for &w in &self.region {
            if self.depth[w.index()] == PENDING {
                self.depth[w.index()] = UNREACHABLE;
                self.parent[w.index()] = None;
            }
        }
        self.region.len()
    }

    /// Log `v`'s row before a cut overwrites it.
    fn log(&mut self, v: VertexId) {
        let i = v.index();
        self.undo
            .push((v, self.depth[i], self.tie[i], self.parent[i]));
    }

    /// Restore the rows the cuts logged since the log held `mark` entries.
    fn undo_to(&mut self, mark: usize) {
        for (v, depth, tie, parent) in self.undo.drain(mark..).rev() {
            let i = v.index();
            (self.depth[i], self.tie[i], self.parent[i]) = (depth, tie, parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_graph::generators;
    use ftb_sp::{CanonicalScratch, Path};
    use ftb_workloads::{Workload, WorkloadFamily};

    /// The graphs the walk is checked on: a grid, a hypercube, a cycle, a
    /// clique and every workload family at n = 48 and n = 160.
    fn graphs() -> Vec<(String, Graph)> {
        let mut out = vec![
            ("grid(6, 8)".to_string(), generators::grid(6, 8)),
            ("hypercube(5)".to_string(), generators::hypercube(5)),
            ("cycle(13)".to_string(), generators::cycle(13)),
            ("complete(9)".to_string(), generators::complete(9)),
        ];
        for &family in WorkloadFamily::all() {
            for n in [48, 160] {
                let what = format!("{} n = {n}", family.name());
                out.push((what, Workload::new(family, n, 7).generate()));
            }
        }
        out
    }

    /// The canonical path to `v` in the walk's current tree.
    fn path_in(rows: &DivergenceTree, v: VertexId) -> Option<Path> {
        rows.depth(v)?;
        let (mut vertices, mut edges) = (vec![v], Vec::new());
        let mut cur = v;
        while let Some((p, e)) = rows.parent(cur) {
            vertices.push(p);
            edges.push(e);
            cur = p;
        }
        vertices.reverse();
        edges.reverse();
        Some(Path::new(vertices, edges))
    }

    /// The plain search the walk replaces: the subtree of `π[1]` under
    /// `G ∖ π°(s, v) ∖ {(s, π[1])}`, then the settle of `v`.
    fn plain_search(
        scratch: &mut CanonicalScratch,
        graph: &Graph,
        weights: &TieBreakWeights,
        tree: &ShortestPathTree,
        v: VertexId,
    ) -> (Option<u32>, Option<Path>) {
        let above: Vec<(VertexId, EdgeId)> = tree.ancestors(v).collect();
        let (a, first) = *above.last().unwrap();
        let filter =
            |w: VertexId, f: EdgeId| f != first && !above[1..].iter().any(|&(x, _)| x == w);
        scratch.sweep_subtree(graph, tree, a, None, filter);
        let d0 = scratch.dist(v);
        if d0.is_some() {
            scratch.settle_target(graph, weights, v, filter);
        }
        (d0, scratch.path_to(tree, v))
    }

    /// Walk `targets` (reachable, below the source), one walk per source
    /// child, and check every target against the plain search; the rows
    /// must be `T0`'s after every walk. Returns how many targets are
    /// reached.
    fn assert_walks_match_plain_searches(
        graph: &Graph,
        weights: &TieBreakWeights,
        tree: &ShortestPathTree,
        targets: &[VertexId],
        what: &str,
    ) -> usize {
        let n = graph.num_vertices();
        let (mut rows, mut scratch) = (DivergenceTree::new(tree), CanonicalScratch::new(n));
        let t0 = DivergenceTree::new(tree);
        let mut targets = targets.to_vec();
        targets.sort_unstable_by_key(|&v| tree.preorder(v));
        let mut reached = 0;
        let source_child = |v: VertexId| tree.ancestors(v).last().unwrap().0;
        for group in targets.chunk_by(|&v, &w| source_child(v) == source_child(w)) {
            let (removals, _) = rows.walk(graph, weights, tree, group, |rows, i| {
                let v = group[i];
                let (d0, path) = plain_search(&mut scratch, graph, weights, tree, v);
                assert_eq!(rows.depth(v), d0, "d0 of {v:?} on {what}");
                assert_eq!(path_in(rows, v), path, "path to {v:?} on {what}");
                reached += usize::from(d0.is_some());
            });
            let mut removed = vec![false; n];
            for &v in group {
                for (x, _) in tree.ancestors(v).skip(1) {
                    removed[x.index()] = true;
                }
            }
            let a = source_child(group[0]);
            let want = removed.iter().filter(|&&r| r).count() as u64;
            assert_eq!(removals, want, "removals below {a:?} on {what}");
            assert_eq!(rows.depth, t0.depth, "depths after {a:?} on {what}");
            assert_eq!(rows.tie, t0.tie, "tie sums after {a:?} on {what}");
            assert_eq!(rows.parent, t0.parent, "parents after {a:?} on {what}");
        }
        reached
    }

    /// Every vertex below the source as a target.
    fn assert_walk_matches_plain_searches(
        graph: &Graph,
        weights: &TieBreakWeights,
        what: &str,
    ) -> usize {
        let tree = ShortestPathTree::build(graph, weights, VertexId(0));
        let all = &tree.euler().order()[1..];
        assert_walks_match_plain_searches(graph, weights, &tree, all, what)
    }

    #[test]
    fn walk_matches_plain_source_searches() {
        let (mut reached, mut cut_off) = (0, 0);
        for (what, g) in graphs() {
            for seed in [3u64, 11] {
                let weights = TieBreakWeights::generate(&g, seed);
                let r = assert_walk_matches_plain_searches(&g, &weights, &what);
                reached += r;
                cut_off += g.num_vertices() - 1 - r;
            }
        }
        assert!(
            reached > 0 && cut_off > 0,
            "{reached} reached, {cut_off} cut off"
        );
    }

    #[test]
    fn walk_matches_plain_searches_under_uniform_weights() {
        // Uniform weights make every tie fall to the parent id.
        for (what, g) in graphs().into_iter().take(4) {
            assert_walk_matches_plain_searches(&g, &TieBreakWeights::uniform(&g), &what);
        }
    }

    /// The walk at the end-to-end benchmark's size (n = 2000, seed 7), for
    /// every terminal with an uncovered pair, the ones pass 2 reads off it:
    /// the same `d0` and, if reached, the same canonical path as the plain
    /// search of `G ∖ π°(s, v) ∖ {(s, π[1])}`.
    /// Release only: `cargo test --release -p ftb_rp -- --ignored`.
    #[test]
    #[ignore = "benchmark-size check; run in release with --ignored"]
    fn walk_is_exact_at_benchmark_size() {
        use crate::ReplacementPaths;
        use ftb_par::ParallelConfig;
        use ftb_sp::ReplacementDistances;
        for family in [WorkloadFamily::LayeredDeep, WorkloadFamily::ErdosRenyi] {
            let graph = Workload::new(family, 2000, 7).generate();
            let weights = TieBreakWeights::generate(&graph, 7);
            let tree = ShortestPathTree::build(&graph, &weights, VertexId(0));
            let config = ParallelConfig::default();
            let dists = ReplacementDistances::compute(&graph, &tree, &config);
            let rp = ReplacementPaths::compute(&graph, &weights, &tree, &dists, &config);
            let mut terminals: Vec<VertexId> = rp
                .uncovered()
                .iter()
                .map(|&p| rp.get(p).pair.terminal)
                .collect();
            terminals.dedup();
            let what = family.name();
            let reached =
                assert_walks_match_plain_searches(&graph, &weights, &tree, &terminals, what);
            assert!(reached > 0, "{what}: no terminal reached at j = 0");
        }
    }
}

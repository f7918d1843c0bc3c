//! The boundary-seeded sweep: the one BFS kernel behind every
//! subtree-bounded search of the construction, every
//! [`CutTree`](crate::CutTree) repair and every cache miss of the engine.
//!
//! A fault set changes distances only inside the subtrees of the fault-free
//! BFS tree it cuts off (Parter–Peleg, arXiv:1302.5401): every other vertex
//! keeps its tree path and its depth. A [`Region`] — disjoint preorder
//! intervals of an [`EulerTourIndex`]: the subtree one fault cuts off, or the
//! merged affected subtrees of an engine miss — is searched in two steps:
//!
//! 1. **Seed.** Enumerate the region as slices of [`EulerTourIndex::order`].
//!    Write every neighbour outside the region at its fault-free depth: that
//!    is the [boundary](BoundarySweep::boundary), and a written vertex is
//!    never discovered, so it also fences the search in. Seed every region
//!    vertex at its best entry `depth0(u) + 1` from it.
//! 2. **Sweep.** A level-synchronous BFS that merges the seeds level by
//!    level into its queue, so every distance is final when assigned. It
//!    stops when the caller's `done` says so.
//!
//! A run resets only what the previous run wrote, so it costs the region,
//! not `n`.
//!
//! A caller that knows its region's seeds another way runs the sweep from
//! them alone ([`BoundarySweep::search_from_seeds`]): a
//! [`CutTree`](crate::CutTree) cut repairs a tree that need not be `T0`, so
//! it seeds each region vertex from its outside neighbours at their current
//! depths, and its `allow` refuses every vertex outside the region.
//! [`BoundarySweep::search_from`] is the one-seed case.
//!
//! The kernel is generic over the adjacency `neighbors(u)` and the filter
//! `allow(w, e)` ("may the search enter `w` through `e`?"), so every caller
//! is monomorphised. Seeding enters region vertices from outside, so it
//! applies `allow` too: a banned vertex inside the region is never seeded.

use crate::euler::EulerTourIndex;
use crate::UNREACHABLE;
use ftb_graph::{EdgeId, VertexId};

/// The vertices a [`BoundarySweep::search`] runs over.
#[derive(Clone, Copy, Debug)]
pub struct Region<'a> {
    /// The fault-free tree whose preorder the intervals index.
    pub tree: &'a EulerTourIndex,
    /// Fault-free depth per vertex ([`UNREACHABLE`] off the tree).
    pub depth0: &'a [u32],
    /// Sorted, disjoint `start..end` ranges of [`EulerTourIndex::order`].
    pub intervals: &'a [(u32, u32)],
}

/// Reusable scratch of the boundary-seeded sweep (see the
/// [module docs](self)).
#[derive(Clone, Debug)]
pub struct BoundarySweep {
    dist: Vec<u32>,
    /// The BFS queue: every vertex the last sweep discovered, in
    /// non-decreasing `dist`.
    order: Vec<VertexId>,
    boundary: Vec<VertexId>,
    /// `(depth, vertex)` entry points: each region vertex enters at most
    /// once, at its best boundary edge.
    seeds: Vec<(u32, VertexId)>,
}

impl BoundarySweep {
    /// Scratch sized for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        BoundarySweep {
            dist: vec![UNREACHABLE; n],
            order: Vec::with_capacity(n),
            boundary: Vec::new(),
            seeds: Vec::new(),
        }
    }

    /// Search from `source` over the whole graph: no region, no fence.
    pub fn search_from<I: Iterator<Item = (VertexId, EdgeId)>>(
        &mut self,
        source: VertexId,
        neighbors: impl Fn(VertexId) -> I,
        allow: impl Fn(VertexId, EdgeId) -> bool,
    ) {
        self.search_from_seeds([(0, source)], neighbors, allow);
    }

    /// Search from the given `(entry, w)` seeds alone: each `w` enters at
    /// `entry` unless the sweep discovers it earlier, and the sweep runs
    /// with no fence, so `allow` must refuse every vertex the search may
    /// not discover.
    pub fn search_from_seeds<I: Iterator<Item = (VertexId, EdgeId)>>(
        &mut self,
        seeds: impl IntoIterator<Item = (u32, VertexId)>,
        neighbors: impl Fn(VertexId) -> I,
        allow: impl Fn(VertexId, EdgeId) -> bool,
    ) {
        self.clear();
        self.seeds.extend(seeds);
        self.seeds.sort_unstable();
        self.sweep(neighbors, allow, |_| false);
    }

    /// Seed `region` from its boundary, then sweep it until `done`, called
    /// on every discovered vertex, returns `true`.
    ///
    /// A region vertex at depth 0 (the source) is seeded at 0 whatever
    /// `allow` says. A region vertex left undiscovered is cut off (or lies
    /// past where the sweep stopped).
    pub fn search<I: Iterator<Item = (VertexId, EdgeId)>>(
        &mut self,
        region: Region<'_>,
        neighbors: impl Fn(VertexId) -> I,
        allow: impl Fn(VertexId, EdgeId) -> bool,
        done: impl FnMut(VertexId) -> bool,
    ) {
        self.clear();
        self.seed(region, &neighbors, &allow);
        self.sweep(neighbors, allow, done);
    }

    /// The seed scan: enumerate `region`, write its boundary and collect its
    /// seeds, sorted.
    fn seed<I: Iterator<Item = (VertexId, EdgeId)>>(
        &mut self,
        region: Region<'_>,
        neighbors: impl Fn(VertexId) -> I,
        allow: impl Fn(VertexId, EdgeId) -> bool,
    ) {
        let Region {
            tree,
            depth0,
            intervals,
        } = region;
        let inside = |u: VertexId| {
            tree.preorder(u)
                .is_some_and(|t| intervals.iter().any(|&(a, b)| t.wrapping_sub(a) < b - a))
        };
        for &(a, b) in intervals {
            for &w in &tree.order()[a as usize..b as usize] {
                if depth0[w.index()] == 0 {
                    self.seeds.push((0, w));
                    continue;
                }
                let mut entry = UNREACHABLE;
                for (u, e) in neighbors(w) {
                    let du = depth0[u.index()];
                    if du == UNREACHABLE || inside(u) {
                        continue;
                    }
                    if self.dist[u.index()] == UNREACHABLE {
                        self.dist[u.index()] = du;
                        self.boundary.push(u);
                    }
                    if du + 1 < entry && allow(w, e) {
                        entry = du + 1;
                    }
                }
                if entry != UNREACHABLE {
                    self.seeds.push((entry, w));
                }
            }
        }
        self.seeds.sort_unstable();
    }

    /// Forget the last run, clearing exactly the entries it wrote.
    pub fn clear(&mut self) {
        for &v in self.order.iter().chain(&self.boundary) {
            self.dist[v.index()] = UNREACHABLE;
        }
        self.order.clear();
        self.boundary.clear();
        self.seeds.clear();
    }

    /// Level-synchronous BFS from the sorted seeds, using `order` as the
    /// queue: the seeds of level `d` join it once every vertex of level `d`
    /// the BFS discovers is in it, so `order` stays sorted by depth.
    fn sweep<I: Iterator<Item = (VertexId, EdgeId)>>(
        &mut self,
        neighbors: impl Fn(VertexId) -> I,
        allow: impl Fn(VertexId, EdgeId) -> bool,
        mut done: impl FnMut(VertexId) -> bool,
    ) {
        let Some(&(mut level, _)) = self.seeds.first() else {
            return;
        };
        let (mut head, mut next_seed) = (0, 0);
        loop {
            while let Some(&(d, w)) = self.seeds.get(next_seed).filter(|s| s.0 == level) {
                next_seed += 1;
                if self.dist[w.index()] == UNREACHABLE {
                    self.dist[w.index()] = d;
                    self.order.push(w);
                    if done(w) {
                        return;
                    }
                }
            }
            let end = self.order.len();
            if head == end {
                // Nothing at this level: jump to the next seed's.
                match self.seeds.get(next_seed) {
                    Some(&(d, _)) => level = d,
                    None => return,
                }
                continue;
            }
            for i in head..end {
                let u = self.order[i];
                for (w, e) in neighbors(u) {
                    if self.dist[w.index()] == UNREACHABLE && allow(w, e) {
                        self.dist[w.index()] = level + 1;
                        self.order.push(w);
                        if done(w) {
                            return;
                        }
                    }
                }
            }
            head = end;
            level += 1;
        }
    }

    /// Hop distance of `v` in the last run: its sweep distance if
    /// discovered, its fault-free depth on the boundary, `None` otherwise.
    #[inline]
    pub fn dist(&self, v: VertexId) -> Option<u32> {
        let d = self.dist[v.index()];
        (d != UNREACHABLE).then_some(d)
    }

    /// Vertices the last run discovered, in non-decreasing depth order.
    #[inline]
    pub fn visited(&self) -> &[VertexId] {
        &self.order
    }

    /// Vertices outside the region the last run wrote at their fault-free
    /// depth: the region's reachable neighbours.
    #[inline]
    pub fn boundary(&self) -> &[VertexId] {
        &self.boundary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_distances_view;
    use crate::sp_tree::ShortestPathTree;
    use crate::weights::TieBreakWeights;
    use ftb_graph::{generators, EdgeMask, Fault, Graph, SubgraphView, VertexMask};
    use ftb_workloads::{Workload, WorkloadFamily};

    /// The graphs every kernel test runs on: a grid, a hypercube and every
    /// workload family at n = 48.
    fn graphs() -> Vec<(String, Graph)> {
        let mut out = vec![
            ("grid(6, 8)".to_string(), generators::grid(6, 8)),
            ("hypercube(5)".to_string(), generators::hypercube(5)),
        ];
        for &family in WorkloadFamily::all() {
            out.push((
                family.name().to_string(),
                Workload::new(family, 48, 7).generate(),
            ));
        }
        out
    }

    /// The merged preorder intervals of the subtrees `faults` cut off.
    fn region_of(tree: &ShortestPathTree, faults: &[Fault]) -> Vec<(u32, u32)> {
        let mut spans: Vec<(u32, u32)> = faults
            .iter()
            .filter_map(|f| match *f {
                Fault::Edge(e) => tree.child_endpoint(e),
                Fault::Vertex(x) => tree.is_reachable(x).then_some(x),
            })
            .map(|r| {
                let s = tree.euler().subtree(r);
                (s.start as u32, s.end as u32)
            })
            .collect();
        spans.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::new();
        for (a, b) in spans {
            match merged.last_mut() {
                Some(last) if a < last.1 => last.1 = last.1.max(b),
                _ => merged.push((a, b)),
            }
        }
        merged
    }

    /// `dist(s, ·, G ∖ F)` by brute force over a masked view.
    fn oracle(g: &Graph, source: VertexId, faults: &[Fault]) -> Vec<u32> {
        let edges = EdgeMask::removing(g, faults.iter().filter_map(|f| f.as_edge()));
        let vertices = VertexMask::removing(g, faults.iter().filter_map(|f| f.as_vertex()));
        let view = SubgraphView::full(g)
            .with_edge_mask(&edges)
            .with_vertex_mask(&vertices);
        bfs_distances_view(&view, source)
    }

    /// Search the region `faults` cut off and compare every region vertex
    /// with the brute-force row, under both ways of expressing the faults:
    /// the construction's (unfiltered adjacency, the ban in `allow`) and the
    /// engine's (adjacency filtering failed edges and far endpoints,
    /// `allow` refusing only failed vertices). The boundary must be exactly
    /// the reachable outside neighbours of the region in the adjacency.
    fn assert_region_exact(g: &Graph, tree: &ShortestPathTree, faults: &[Fault], what: &str) {
        let intervals = region_of(tree, faults);
        let expected = oracle(g, tree.source(), faults);
        let banned_vertex = |w: VertexId| faults.contains(&Fault::Vertex(w));
        let banned_edge = |e: EdgeId| faults.contains(&Fault::Edge(e));
        let region = Region {
            tree: tree.euler(),
            depth0: tree.depth_row(),
            intervals: &intervals,
        };
        let order = tree.euler().order();
        let in_region: Vec<VertexId> = intervals
            .iter()
            .flat_map(|&(a, b)| order[a as usize..b as usize].iter().copied())
            .collect();
        let mut sweep = BoundarySweep::new(g.num_vertices());
        let filtered = |u: VertexId| {
            g.neighbors(u)
                .filter(move |&(w, e)| !banned_edge(e) && !banned_vertex(w))
        };
        for engine_style in [false, true] {
            if engine_style {
                sweep.search(region, filtered, |w, _| !banned_vertex(w), |_| false);
            } else {
                let allow = |w: VertexId, e: EdgeId| !banned_edge(e) && !banned_vertex(w);
                sweep.search(region, |u| g.neighbors(u), allow, |_| false);
            }
            for &v in &in_region {
                let want = (expected[v.index()] != UNREACHABLE).then_some(expected[v.index()]);
                assert_eq!(sweep.dist(v), want, "{v:?} under {faults:?} on {what}");
            }
            for &v in sweep.visited() {
                assert!(
                    in_region.contains(&v),
                    "{v:?} discovered outside the region"
                );
            }
            let mut boundary = sweep.boundary().to_vec();
            boundary.sort_unstable();
            let mut want: Vec<VertexId> = in_region
                .iter()
                .flat_map(|&w| {
                    let adj: Vec<_> = if engine_style {
                        filtered(w).collect()
                    } else {
                        g.neighbors(w).collect()
                    };
                    adj.into_iter().map(|(u, _)| u)
                })
                .filter(|u| tree.is_reachable(*u) && !in_region.contains(u))
                .collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(boundary, want, "boundary under {faults:?} on {what}");
        }
    }

    #[test]
    fn multi_interval_regions_match_brute_force_bfs() {
        let (mut disjoint_edges, mut edge_and_vertex, mut nested, mut failed_inside) = (0, 0, 0, 0);
        for (what, g) in graphs() {
            let weights = TieBreakWeights::generate(&g, 3);
            let tree = ShortestPathTree::build(&g, &weights, VertexId(0));
            let elements: Vec<Fault> = tree
                .tree_edges()
                .iter()
                .map(|&e| Fault::Edge(e))
                .chain(
                    g.vertices()
                        .filter(|&v| v != tree.source())
                        .map(Fault::Vertex),
                )
                .collect();
            let root = |f: Fault| match f {
                Fault::Edge(e) => tree.child_endpoint(e).unwrap(),
                Fault::Vertex(x) => x,
            };
            for (i, &a) in elements.iter().enumerate() {
                assert_region_exact(&g, &tree, &[a], &what);
                for &b in elements.iter().skip(i + 1).step_by(3) {
                    let (ra, rb) = (root(a), root(b));
                    match (a, b) {
                        _ if tree.in_subtree(ra, rb) || tree.in_subtree(rb, ra) => nested += 1,
                        (Fault::Edge(_), Fault::Edge(_)) => disjoint_edges += 1,
                        (Fault::Edge(_), Fault::Vertex(_)) => edge_and_vertex += 1,
                        _ => {}
                    }
                    let inside = |f: Fault, r: VertexId| matches!(f, Fault::Vertex(x) if x != r && tree.in_subtree(r, x));
                    failed_inside += usize::from(inside(b, ra) || inside(a, rb));
                    assert_region_exact(&g, &tree, &[a, b], &what);
                }
            }
        }
        assert!(disjoint_edges > 0 && edge_and_vertex > 0 && nested > 0 && failed_inside > 0);
    }

    /// A search from caller-given seeds over the subtree a tree edge cuts
    /// off: each subtree vertex seeded at its best entry from outside, and
    /// `allow` refusing everything outside, reaches the brute-force
    /// distances without a fence.
    #[test]
    fn seeds_only_searches_match_brute_force_bfs() {
        for (what, g) in graphs() {
            let weights = TieBreakWeights::generate(&g, 13);
            let tree = ShortestPathTree::build(&g, &weights, VertexId(0));
            let depth0 = tree.depth_row();
            let mut sweep = BoundarySweep::new(g.num_vertices());
            for &e in tree.tree_edges() {
                let c = tree.child_endpoint(e).unwrap();
                let expected = oracle(&g, tree.source(), &[Fault::Edge(e)]);
                let inside = |w: VertexId| tree.in_subtree(c, w);
                let subtree = &tree.euler().order()[tree.euler().subtree(c)];
                let seeds = subtree.iter().filter_map(|&w| {
                    let entry = g
                        .neighbors(w)
                        .filter(|&(u, f)| f != e && !inside(u) && depth0[u.index()] != UNREACHABLE)
                        .map(|(u, _)| depth0[u.index()] + 1)
                        .min();
                    entry.map(|d| (d, w))
                });
                sweep.search_from_seeds(seeds, |u| g.neighbors(u), |w, _| inside(w));
                assert!(sweep.boundary().is_empty(), "a fence on {what}");
                for &w in subtree {
                    let want = (expected[w.index()] != UNREACHABLE).then_some(expected[w.index()]);
                    assert_eq!(sweep.dist(w), want, "{w:?} under {e:?} on {what}");
                }
                for pair in sweep.visited().windows(2) {
                    assert!(
                        sweep.dist(pair[0]) <= sweep.dist(pair[1]),
                        "order on {what}"
                    );
                }
            }
        }
    }

    /// The preorder built from `T0`'s parent row is a recursive DFS with
    /// children visited in ascending vertex id: the layout every replacement
    /// row and `Pcons` slot indexes by.
    #[test]
    fn tree_preorder_is_the_id_ordered_dfs() {
        fn dfs(v: VertexId, children: &[Vec<VertexId>], out: &mut Vec<VertexId>) {
            out.push(v);
            for &c in &children[v.index()] {
                dfs(c, children, out);
            }
        }
        for (what, g) in graphs() {
            let weights = TieBreakWeights::generate(&g, 9);
            let tree = ShortestPathTree::build(&g, &weights, VertexId(0));
            let mut children = vec![Vec::new(); g.num_vertices()];
            for v in g.vertices() {
                if let Some((p, _)) = tree.parent(v) {
                    children[p.index()].push(v);
                }
            }
            for c in &mut children {
                c.sort_unstable();
            }
            let mut naive = Vec::new();
            dfs(tree.source(), &children, &mut naive);
            assert_eq!(tree.euler().order(), &naive[..], "preorder on {what}");
            for (i, &v) in naive.iter().enumerate() {
                assert_eq!(tree.preorder(v), Some(i as u32));
                let below = naive[i..]
                    .iter()
                    .take_while(|&&w| tree.in_subtree(v, w))
                    .count();
                assert_eq!(tree.subtree_size(v), below, "subtree of {v:?} on {what}");
            }
        }
    }
}

//! Algorithm `Pcons` (Phase S0): canonical replacement paths for all pairs.
//!
//! For a pair `⟨v, e⟩` with `target = dist(s, v, G ∖ {e})`, Pcons first
//! asks whether a replacement path can end with a tree edge (the covered
//! check, in `G'(v) ∖ {e}`), and otherwise binary-searches the smallest `j`
//! such that a replacement path survives the removal of the interior of
//! `π(u_j, v)`. Every one of those `1 + O(log depth)` questions has the same
//! shape: *is `v` within `target` hops of `s` in some subgraph of
//! `G ∖ {e}`?* No subgraph path can be shorter than `target`, so the answer
//! is a plain BFS that stops as soon as `v` is discovered or the frontier
//! passes `target` — no tie weights, no heap. Only the view finally chosen
//! for the pair gets the canonical `(hops, Σ tie, parent id)` parent sweep,
//! once, restricted to the vertices shallower than `v` plus `v` itself
//! (the only vertices a `target`-hop path to `v` can use).
//!
//! Both sweeps run on one per-worker
//! [`CanonicalScratch`], which resets only what
//! the previous probe touched, and the views are inline `O(1)` filters on
//! the edge `(w, f)` a search is about to enter `w` through:
//!
//! * the failing edge: `f ≠ e`;
//! * `G'(v)`, "no non-tree edge incident to `v`": `w ≠ v ∨ f ∈ T0`. This
//!   filter is keyed on the edge *entering* `v`, not on `v` itself (tree
//!   edges still enter `v`), and it never needs to look at edges leaving
//!   `v`: the BFS stops when `v` is discovered and the parent sweep only
//!   settles vertices above `v`'s depth, so no search ever continues past
//!   `v`. Applying the same predicate in both sweeps keeps the feasibility
//!   answer and the settled path on the same graph;
//! * the interior of `π(u_j, v)`: `w` is removed iff
//!   `j < depth(w) < k ∧ π[depth(w)] = w`, where `k = depth(v)` — `π` is a
//!   shortest path, so its `i`-th vertex has depth `i`.
//!
//! The output is identical, path for path, to the heap-based
//! [`LexSearch`](ftb_sp::LexSearch) formulation over masked views, which is
//! kept as the test oracle.

use crate::pair::{PairId, ReplacementPath, VePair};
use ftb_graph::{EdgeId, Graph, VertexId};
use ftb_par::{parallel_map_init, ParallelConfig};
use ftb_sp::{
    CanonicalScratch, Path, ReplacementDistances, ShortestPathTree, TieBreakWeights, UNREACHABLE,
};
use std::collections::HashMap;

/// The output of Algorithm `Pcons`: one canonical replacement path per
/// vertex–edge pair `⟨v, e⟩` with `e ∈ π(s, v)` for which a replacement path
/// exists (pairs whose failure disconnects the terminal are omitted — no
/// protection is required for them).
#[derive(Clone, Debug)]
pub struct ReplacementPaths {
    source: VertexId,
    paths: Vec<ReplacementPath>,
    index: HashMap<(VertexId, ftb_graph::EdgeId), PairId>,
    by_terminal: HashMap<VertexId, Vec<PairId>>,
    uncovered: Vec<PairId>,
}

impl ReplacementPaths {
    /// Run Algorithm `Pcons` for every pair, in parallel over terminals
    /// (one [`CanonicalScratch`] per worker).
    pub fn compute(
        graph: &Graph,
        weights: &TieBreakWeights,
        tree: &ShortestPathTree,
        dists: &ReplacementDistances,
        config: &ParallelConfig,
    ) -> Self {
        let source = tree.source();
        let terminals: Vec<VertexId> = tree
            .vertices_by_depth()
            .into_iter()
            .filter(|&v| v != source)
            .collect();
        let per_terminal: Vec<Vec<ReplacementPath>> = parallel_map_init(
            config,
            terminals.len(),
            || CanonicalScratch::new(graph.num_vertices()),
            |scratch, i| compute_for_terminal(graph, weights, tree, dists, terminals[i], scratch),
        );

        let mut paths = Vec::new();
        let mut index = HashMap::new();
        let mut by_terminal: HashMap<VertexId, Vec<PairId>> = HashMap::new();
        let mut uncovered = Vec::new();
        for bundle in per_terminal {
            for rp in bundle {
                let id: PairId = paths.len();
                index.insert((rp.pair.terminal, rp.pair.failing_edge), id);
                by_terminal.entry(rp.pair.terminal).or_default().push(id);
                if rp.new_ending {
                    uncovered.push(id);
                }
                paths.push(rp);
            }
        }
        ReplacementPaths {
            source,
            paths,
            index,
            by_terminal,
            uncovered,
        }
    }

    /// The BFS source.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Total number of pairs with a replacement path.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// `true` if no pair has a replacement path (e.g. a tree-shaped graph).
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The replacement path with the given id.
    pub fn get(&self, id: PairId) -> &ReplacementPath {
        &self.paths[id]
    }

    /// All replacement paths.
    pub fn all(&self) -> &[ReplacementPath] {
        &self.paths
    }

    /// Look up the pair `⟨v, e⟩`.
    pub fn lookup(&self, terminal: VertexId, failing_edge: ftb_graph::EdgeId) -> Option<PairId> {
        self.index.get(&(terminal, failing_edge)).copied()
    }

    /// Ids of the pairs whose replacement path is *new-ending* (the paper's
    /// uncovered set `UP`).
    pub fn uncovered(&self) -> &[PairId] {
        &self.uncovered
    }

    /// Ids of the pairs of a given terminal (the paper's `UP(v)` restricted
    /// to pairs that have a replacement path), in increasing depth of the
    /// failing edge.
    pub fn pairs_of_terminal(&self, v: VertexId) -> &[PairId] {
        self.by_terminal
            .get(&v)
            .map(|p| p.as_slice())
            .unwrap_or(&[])
    }

    /// Convenience constructor running the whole Phase S0 pipeline
    /// (tie-break weights are provided by the caller so that all layers share
    /// the same `W`).
    pub fn compute_full(
        graph: &Graph,
        weights: &TieBreakWeights,
        source: VertexId,
        config: &ParallelConfig,
    ) -> (ShortestPathTree, ReplacementDistances, Self) {
        let tree = ShortestPathTree::build(graph, weights, source);
        let dists = ReplacementDistances::compute(graph, &tree, config);
        let rp = Self::compute(graph, weights, &tree, &dists, config);
        (tree, dists, rp)
    }
}

/// Run Algorithm `Pcons` for all failing edges on `π(s, v)` of one terminal.
fn compute_for_terminal(
    graph: &Graph,
    weights: &TieBreakWeights,
    tree: &ShortestPathTree,
    dists: &ReplacementDistances,
    v: VertexId,
    scratch: &mut CanonicalScratch,
) -> Vec<ReplacementPath> {
    let source = tree.source();
    let Some(pi) = tree.path_to(v) else {
        return Vec::new();
    };
    let pi_vertices = pi.vertices();
    let k = pi.len(); // depth of v

    let mut out = Vec::with_capacity(k);
    for (idx, &e) in pi.edges().iter().enumerate() {
        let Some(target) = dists.dist(e, v) else {
            continue;
        };
        if target == UNREACHABLE {
            // The failure disconnects v: dist(s, v, G \ {e}) = ∞ and no
            // protection is required for this pair.
            continue;
        }
        let failing_edge_depth = (idx + 1) as u32;
        let pair = VePair {
            terminal: v,
            failing_edge: e,
        };

        // Step 1: try to find a replacement path whose last edge is in T0,
        // i.e. one inside G'(v) \ {e}.
        let covered = |w: VertexId, f: EdgeId| f != e && (w != v || tree.is_tree_edge(f));
        if scratch.reaches_within(graph, source, v, target, covered) {
            scratch.settle_target(graph, weights, v, covered);
            let path = scratch.path_to(v).expect("target settled");
            let last_edge = path.last_edge().expect("non-trivial path");
            debug_assert!(tree.is_tree_edge(last_edge));
            out.push(ReplacementPath {
                pair,
                path,
                last_edge,
                new_ending: false,
                divergence: None,
                divergence_index: None,
                failing_edge_depth,
                terminal_depth: k as u32,
            });
            continue;
        }

        // Step 2: the path must be new-ending. Among all replacement paths,
        // pick the one whose unique divergence point from π(s, v) is as
        // close to the source as possible: binary-search the minimal prefix
        // index j such that removing the interior of π(u_j, v) still allows
        // a path of the optimal length.
        let without_interior = |j: usize| {
            move |w: VertexId, f: EdgeId| {
                f != e
                    && !tree.depth(w).is_some_and(|d| {
                        let d = d as usize;
                        j < d && d < k && pi_vertices[d] == w
                    })
            }
        };
        let mut probe =
            |j: usize| scratch.reaches_within(graph, source, v, target, without_interior(j));

        // The predicate is monotone in j and true at j = idx (Lemma 4.3);
        // binary-search the smallest feasible index.
        if !probe(idx) {
            // Defensive fallback (should not happen): take the unconstrained
            // canonical replacement path.
            let unconstrained = |_: VertexId, f: EdgeId| f != e;
            if !scratch.reaches_within(graph, source, v, target, unconstrained) {
                continue;
            }
            scratch.settle_target(graph, weights, v, unconstrained);
            push_new_ending(
                &mut out,
                pair,
                pi_vertices,
                scratch.path_to(v).expect("target settled"),
                failing_edge_depth,
                k as u32,
                tree,
            );
            continue;
        }
        let mut lo = 0usize;
        let mut hi = idx;
        // Whether the scratch still holds the probe of `hi`.
        let mut holds_hi = true;
        while lo < hi {
            let mid = (lo + hi) / 2;
            holds_hi = probe(mid);
            if holds_hi {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        if !holds_hi {
            let feasible = probe(hi);
            debug_assert!(feasible);
        }
        scratch.settle_target(graph, weights, v, without_interior(hi));
        push_new_ending(
            &mut out,
            pair,
            pi_vertices,
            scratch.path_to(v).expect("feasible probe reaches v"),
            failing_edge_depth,
            k as u32,
            tree,
        );
    }
    out
}

/// Record a new-ending replacement path, computing its divergence point.
pub(crate) fn push_new_ending(
    out: &mut Vec<ReplacementPath>,
    pair: VePair,
    pi_vertices: &[VertexId],
    path: Path,
    failing_edge_depth: u32,
    terminal_depth: u32,
    tree: &ShortestPathTree,
) {
    let last_edge = path.last_edge().expect("non-trivial path");
    debug_assert!(
        !tree.is_tree_edge(last_edge),
        "step-1 failure implies a non-tree last edge"
    );
    // Divergence: longest common prefix with π(s, v).
    let verts = path.vertices();
    let mut d_idx = 0usize;
    while d_idx + 1 < verts.len()
        && d_idx + 1 < pi_vertices.len()
        && verts[d_idx + 1] == pi_vertices[d_idx + 1]
    {
        d_idx += 1;
    }
    out.push(ReplacementPath {
        pair,
        divergence: Some(verts[d_idx]),
        divergence_index: Some(d_idx),
        path,
        last_edge,
        new_ending: true,
        failing_edge_depth,
        terminal_depth,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_graph::generators;

    fn full_setup(
        graph: &Graph,
        seed: u64,
    ) -> (
        TieBreakWeights,
        ShortestPathTree,
        ReplacementDistances,
        ReplacementPaths,
    ) {
        let weights = TieBreakWeights::generate(graph, seed);
        let (tree, dists, rp) =
            ReplacementPaths::compute_full(graph, &weights, VertexId(0), &ParallelConfig::serial());
        (weights, tree, dists, rp)
    }

    #[test]
    fn tree_graphs_have_no_replaceable_pairs() {
        // On a path graph every failure disconnects the suffix, so no pair
        // needs (or has) a replacement path.
        let g = generators::path(10);
        let (_w, _t, _d, rp) = full_setup(&g, 1);
        assert!(rp.is_empty());
        assert!(rp.uncovered().is_empty());
        assert_eq!(rp.len(), 0);
    }

    #[test]
    fn every_pair_path_is_a_valid_replacement_path() {
        let g = generators::hypercube(4);
        let (_w, tree, dists, rp) = full_setup(&g, 3);
        assert!(!rp.is_empty());
        for item in rp.all() {
            let v = item.pair.terminal;
            let e = item.pair.failing_edge;
            // the path avoids the failing edge, starts at s, ends at v
            assert!(!item.path.contains_edge(e));
            assert_eq!(item.path.first(), VertexId(0));
            assert_eq!(item.path.last(), v);
            item.path.validate(&g).unwrap();
            // the path is a *shortest* path in G \ {e}
            let opt = dists.dist(e, v).unwrap();
            assert_eq!(item.path.len() as u32, opt);
            // the failing edge is on π(s, v)
            assert!(tree.path_edges_to(v).contains(&e));
        }
    }

    #[test]
    fn covered_pairs_end_with_tree_edges_and_uncovered_do_not() {
        let g = generators::grid(5, 5);
        let (_w, tree, _d, rp) = full_setup(&g, 5);
        for item in rp.all() {
            if item.new_ending {
                assert!(!tree.is_tree_edge(item.last_edge));
                assert!(item.divergence.is_some());
            } else {
                assert!(tree.is_tree_edge(item.last_edge));
                assert!(item.divergence.is_none());
            }
        }
        let uncovered_count = rp.all().iter().filter(|p| p.new_ending).count();
        assert_eq!(uncovered_count, rp.uncovered().len());
    }

    #[test]
    fn detours_are_vertex_disjoint_from_pi_except_endpoints() {
        // Observation 3.2: D(P) and π(s, v) share only d(P) and v.
        let g = generators::hypercube(4);
        let (_w, tree, _d, rp) = full_setup(&g, 7);
        for item in rp.all().iter().filter(|p| p.new_ending) {
            let v = item.pair.terminal;
            let pi: Vec<VertexId> = tree.path_to(v).unwrap().vertices().to_vec();
            let d = item.divergence.unwrap();
            for &z in item.detour_vertices() {
                if z == d || z == v {
                    continue;
                }
                assert!(!pi.contains(&z), "detour vertex {z:?} lies on π(s, {v:?})");
            }
        }
    }

    #[test]
    fn divergence_is_above_the_failing_edge() {
        // Claim 4.4: the divergence point of a new-ending path is strictly
        // above the failing edge on π(s, v).
        let g = generators::grid(4, 6);
        let (_w, tree, _d, rp) = full_setup(&g, 11);
        for item in rp.all().iter().filter(|p| p.new_ending) {
            let d = item.divergence.unwrap();
            let d_depth = tree.depth(d).unwrap();
            assert!(
                d_depth < item.failing_edge_depth,
                "divergence {d:?} (depth {d_depth}) not above failing edge (depth {})",
                item.failing_edge_depth
            );
        }
    }

    #[test]
    fn lookup_and_per_terminal_indexes_agree() {
        let g = generators::hypercube(3);
        let (_w, _t, _d, rp) = full_setup(&g, 13);
        for (id, item) in rp.all().iter().enumerate() {
            assert_eq!(
                rp.lookup(item.pair.terminal, item.pair.failing_edge),
                Some(id)
            );
            assert!(rp.pairs_of_terminal(item.pair.terminal).contains(&id));
        }
        assert_eq!(rp.lookup(VertexId(0), ftb_graph::EdgeId(0)), None);
        assert!(rp.pairs_of_terminal(VertexId(0)).is_empty());
        assert_eq!(rp.source(), VertexId(0));
    }

    #[test]
    fn parallel_and_serial_pcons_agree() {
        let g = generators::grid(5, 5);
        let weights = TieBreakWeights::generate(&g, 17);
        let tree = ShortestPathTree::build(&g, &weights, VertexId(0));
        let dists = ReplacementDistances::compute(&g, &tree, &ParallelConfig::serial());
        let serial =
            ReplacementPaths::compute(&g, &weights, &tree, &dists, &ParallelConfig::serial());
        let parallel = ReplacementPaths::compute(
            &g,
            &weights,
            &tree,
            &dists,
            &ParallelConfig::with_threads(4),
        );
        assert_eq!(serial.len(), parallel.len());
        for item in serial.all() {
            let id = parallel
                .lookup(item.pair.terminal, item.pair.failing_edge)
                .unwrap();
            let other = parallel.get(id);
            assert_eq!(other.path, item.path);
            assert_eq!(other.new_ending, item.new_ending);
            assert_eq!(other.last_edge, item.last_edge);
        }
    }

    #[test]
    fn cycle_pairs_are_all_covered_or_new_ending_consistently() {
        // On an even cycle, failing the first edge of π(s, v) forces the
        // antipodal-ish vertices to reroute; the replacement path ends with
        // an edge of the other side of the cycle, which *is* a tree edge for
        // some terminals and not for others. Just verify global invariants.
        let g = generators::cycle(9);
        let (_w, _tree, dists, rp) = full_setup(&g, 19);
        assert!(!rp.is_empty());
        for item in rp.all() {
            assert_eq!(
                item.path.len() as u32,
                dists
                    .dist(item.pair.failing_edge, item.pair.terminal)
                    .unwrap()
            );
        }
    }
}

//! Algorithm `Pcons` (Phase S0): canonical replacement paths for all pairs.
//!
//! For a pair `⟨v, e⟩` with `e = (p, c)` and `target = dist(s, v, G ∖ {e})`,
//! Pcons first asks whether a replacement path can end with a tree edge
//! (the pair is then *covered*), and otherwise binary-searches the smallest
//! `j` such that a replacement path survives the removal of the interior of
//! `π(u_j, v)`. Every search is subtree-bounded: removing `e` changes
//! canonical paths only inside the `T0` subtree of `c`, so the search runs
//! on one [`CanonicalScratch`] over that subtree, its boundary seeded at
//! fault-free depths (see [`ftb_sp::canonical`]).
//!
//! The work is organised per failing edge, not per terminal:
//!
//! * **Covered pairs: no probe.** One canonical replacement tree of
//!   `G ∖ {e}` over the subtree of `c` answers every terminal below `c`. A
//!   pair `⟨v, e⟩` is covered iff some tree edge `(x, v) ≠ e` has
//!   `dist(s, x, G ∖ {e}) = target − 1`: a path to `x` that short cannot
//!   pass `v`, so it also lives in `G'(v) ∖ {e}` (no non-tree edge incident
//!   to `v`), and its canonical path and tie sum are those of the tree.
//!   The canonical covered path is the tree path to the `(tie sum + W(x,
//!   v), x)`-minimal such `x`, followed by `(x, v)` — the parent the
//!   canonical search in `G'(v) ∖ {e}` would settle.
//! * **Uncovered pairs.** The path must be new-ending. Probe `j` bans `e`
//!   and the interior of `π(u_j, v)`; all of it lies in the subtree of
//!   `u_{j+1}` (or is `e` entering it), so the probe is a hop-bounded sweep
//!   over that subtree that stops when `v` is discovered or the frontier
//!   passes `target`. The predicate is monotone in `j` (Lemma 4.3): the
//!   search tries `j = 0` (the source, often feasible on deep trees), then
//!   gallops down from the feasible `j = idx` and bisects, and only the
//!   chosen probe gets the canonical parent sweep, restricted to the
//!   vertices shallower than `v` plus `v` itself. The interior filter is
//!   inline: `w` is removed iff `j < depth(w) < k ∧ π[depth(w)] = w`, where
//!   `k = depth(v)` — `π` is a shortest path, so its `i`-th vertex has
//!   depth `i`.
//!
//! Each edge's task leaves, for every vertex below it, its parent in the
//! replacement tree and the pair's outcome (cut off, covered with its last
//! hop, or the new-ending path). The calling thread then walks the pairs in
//! the order the later phases rely on — terminals by depth, then failing
//! edges from the source down — moving new-ending paths into place and
//! building each covered path from the recorded parents and `T0`.
//! The output is identical, path for path, to the heap-based
//! [`LexSearch`](ftb_sp::LexSearch) formulation over masked views, which is
//! kept as the test oracle.

use crate::pair::{PairId, ReplacementPath, VePair};
use ftb_graph::{EdgeId, Graph, VertexId};
use ftb_par::{parallel_segments_mut_init, ParallelConfig};
use ftb_sp::{CanonicalScratch, Path, ReplacementDistances, ShortestPathTree, TieBreakWeights};
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
    /// Run Algorithm `Pcons` for every pair, in parallel over failing tree
    /// edges (one [`CanonicalScratch`] per worker).
    pub fn compute(
        graph: &Graph,
        weights: &TieBreakWeights,
        tree: &ShortestPathTree,
        dists: &ReplacementDistances,
        config: &ParallelConfig,
    ) -> Self {
        let source = tree.source();
        // Segment `c` holds a `Slot` for every vertex below the tree edge
        // into `c`, in preorder (empty for the source and unreachable
        // vertices). The workers fill it; the covered paths are then built
        // here, so the long-lived allocations come from the calling thread:
        // buffers allocated by the short-lived workers and freed later
        // stayed resident in their allocator arenas by an amount that
        // varied from run to run.
        let below_edge = |c: VertexId| tree.parent(c).map_or(0, |_| tree.subtree_size(c));
        let mut offsets = vec![0];
        for c in graph.vertices() {
            offsets.push(offsets[c.index()] + below_edge(c));
        }
        let mut slots: Vec<Slot> = Vec::new();
        slots.resize_with(offsets[graph.num_vertices()], Slot::default);
        parallel_segments_mut_init(
            config,
            &mut slots,
            &offsets,
            || EdgeSearch {
                scratch: CanonicalScratch::new(graph.num_vertices()),
                spare: CanonicalScratch::new(graph.num_vertices()),
                uncovered: Vec::new(),
                pi: Vec::new(),
            },
            |search, c, out| {
                if let Some((_, e)) = tree.parent(VertexId::new(c)) {
                    search.pairs_of_edge(graph, weights, tree, dists, e, out);
                }
            },
        );

        let num_pairs = slots
            .iter()
            .filter(|s| !matches!(s.pair, PairSlot::CutOff))
            .count();
        let mut paths = Vec::with_capacity(num_pairs);
        let mut index = HashMap::with_capacity(num_pairs);
        let mut by_terminal: HashMap<VertexId, Vec<PairId>> = HashMap::new();
        let mut uncovered = Vec::new();
        let mut pi_edges = Vec::new();
        for v in tree.vertices_by_depth() {
            let first = paths.len();
            pi_edges.clear();
            pi_edges.extend(tree.ancestors(v));
            for &(c, e) in pi_edges.iter().rev() {
                let segment = &mut slots[offsets[c.index()]..offsets[c.index() + 1]];
                let rp = match std::mem::take(&mut segment[subtree_slot(tree, c, v)].pair) {
                    PairSlot::CutOff => continue,
                    PairSlot::NewEnding(rp) => rp,
                    PairSlot::Covered(x, f) => {
                        let target = dists.dist(e, v).expect("tree edge") as usize;
                        covered_path(tree, segment, e, v, (x, f), target)
                    }
                };
                let id: PairId = paths.len();
                index.insert((v, e), id);
                if rp.new_ending {
                    uncovered.push(id);
                }
                paths.push(rp);
            }
            if paths.len() > first {
                by_terminal.insert(v, (first..paths.len()).collect());
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

/// Position of `v` in the preorder of the subtree of `c`.
fn subtree_slot(tree: &ShortestPathTree, c: VertexId, v: VertexId) -> usize {
    let pre = |u: VertexId| tree.preorder(u).expect("reachable");
    (pre(v) - pre(c)) as usize
}

/// What the task of tree edge `e = (p, c)` leaves for a vertex `v` below
/// `c`.
#[derive(Default)]
struct Slot {
    /// `v`'s parent in the canonical replacement tree of `G ∖ {e}` (`None`
    /// when the failure cuts `v` off).
    parent: Option<(VertexId, EdgeId)>,
    /// The pair `⟨v, e⟩`.
    pair: PairSlot,
}

/// The outcome of Algorithm `Pcons` for one pair.
#[derive(Default)]
enum PairSlot {
    /// The failure cuts the terminal off: no pair.
    #[default]
    CutOff,
    /// Covered, with last hop `(x, v)` over the given tree edge.
    Covered(VertexId, EdgeId),
    /// New-ending, with its path.
    NewEnding(ReplacementPath),
}

/// The covered replacement path of `⟨v, e⟩` with last hop `(x, f)`: the
/// path to `x` in the canonical replacement tree of `G ∖ {e}` — `segment`'s
/// parents inside the subtree of `c`, `T0` above it — followed by `(x, v)`.
fn covered_path(
    tree: &ShortestPathTree,
    segment: &[Slot],
    e: EdgeId,
    v: VertexId,
    (x, f): (VertexId, EdgeId),
    target: usize,
) -> ReplacementPath {
    let c = tree.child_endpoint(e).expect("tree edge");
    let mut vertices = Vec::with_capacity(target + 1);
    let mut edges = Vec::with_capacity(target);
    vertices.extend([v, x]);
    edges.push(f);
    let mut cur = x;
    loop {
        let up = if tree.in_subtree(c, cur) {
            segment[subtree_slot(tree, c, cur)].parent
        } else {
            tree.parent(cur)
        };
        let Some((p, g)) = up else {
            break;
        };
        vertices.push(p);
        edges.push(g);
        cur = p;
    }
    vertices.reverse();
    edges.reverse();
    ReplacementPath {
        pair: VePair {
            terminal: v,
            failing_edge: e,
        },
        path: Path::new(vertices, edges),
        last_edge: f,
        new_ending: false,
        divergence: None,
        divergence_index: None,
        failing_edge_depth: tree.depth(c).expect("reachable"),
        terminal_depth: tree.depth(v).expect("reachable"),
    }
}

/// One worker's state: the search kernel plus reusable buffers.
struct EdgeSearch {
    scratch: CanonicalScratch,
    /// Second kernel for the uncovered pairs' probes.
    spare: CanonicalScratch,
    /// `(terminal, target)` of the current edge's uncovered pairs.
    uncovered: Vec<(VertexId, u32)>,
    /// `π(s, v)` of the current uncovered terminal, by depth.
    pi: Vec<VertexId>,
}

impl EdgeSearch {
    /// Run Algorithm `Pcons` for every pair `⟨v, e⟩` with `v` below
    /// `e = (p, c)`, filling `out[preorder(v) − preorder(c)]`.
    fn pairs_of_edge(
        &mut self,
        graph: &Graph,
        weights: &TieBreakWeights,
        tree: &ShortestPathTree,
        dists: &ReplacementDistances,
        e: EdgeId,
        out: &mut [Slot],
    ) {
        let c = tree.child_endpoint(e).expect("tree edge");
        let slot = |v: VertexId| subtree_slot(tree, c, v);

        // The canonical replacement tree of G ∖ {e} over the subtree of c
        // answers every covered pair.
        let scratch = &mut self.scratch;
        scratch.run_subtree(graph, weights, tree, c, |_, f| f != e);
        self.uncovered.clear();
        for &v in scratch.visited() {
            let target = dists.dist(e, v).expect("tree edge");
            debug_assert_eq!(scratch.dist(v), Some(target), "row of {e:?} at {v:?}");
            let mut best: Option<(u64, VertexId, EdgeId)> = None;
            for (x, f) in graph.neighbors(v) {
                if f == e || !tree.is_tree_edge(f) || scratch.dist(x) != Some(target - 1) {
                    continue;
                }
                let cand = (scratch.tie(x) + weights.weight(f), x, f);
                if best.is_none_or(|(bt, bx, _)| (cand.0, cand.1) < (bt, bx)) {
                    best = Some(cand);
                }
            }
            let out = &mut out[slot(v)];
            out.parent = scratch.parent(v);
            match best {
                Some((_, x, f)) => out.pair = PairSlot::Covered(x, f),
                None => self.uncovered.push((v, target)),
            }
        }

        for i in 0..self.uncovered.len() {
            let (v, target) = self.uncovered[i];
            if let Some(rp) = self.new_ending_path(graph, weights, tree, e, v, target) {
                out[slot(v)].pair = PairSlot::NewEnding(rp);
            }
        }
    }

    /// The new-ending replacement path of `⟨v, e⟩` whose divergence point
    /// from `π(s, v)` is closest to the source (Step 2 of `Pcons`).
    fn new_ending_path(
        &mut self,
        graph: &Graph,
        weights: &TieBreakWeights,
        tree: &ShortestPathTree,
        e: EdgeId,
        v: VertexId,
        target: u32,
    ) -> Option<ReplacementPath> {
        let pi = &mut self.pi;
        pi.clear();
        pi.push(v);
        let mut cur = v;
        while let Some((p, _)) = tree.parent(cur) {
            pi.push(p);
            cur = p;
        }
        pi.reverse();
        let pi: &[VertexId] = pi;
        let k = pi.len() - 1; // depth of v
        let c = tree.child_endpoint(e).expect("tree edge");
        let idx = tree.depth(c).expect("reachable") as usize - 1; // e = (π[idx], π[idx + 1])
        let pair = VePair {
            terminal: v,
            failing_edge: e,
        };
        // Probe j bans e and the interior of π(u_j, v), all of which lies
        // in the subtree of u_{j+1} (or is e entering it).
        let without_interior = |j: usize| {
            move |w: VertexId, f: EdgeId| {
                f != e
                    && !tree.depth(w).is_some_and(|d| {
                        let d = d as usize;
                        j < d && d < k && pi[d] == w
                    })
            }
        };
        // A probe runs on `spare`; a feasible one is swapped into `held`,
        // which therefore keeps the last feasible probe for the settle.
        let (held, spare) = (&mut self.scratch, &mut self.spare);
        let mut probe = |j: usize| {
            let stop = Some((v, target));
            spare.sweep_subtree(graph, tree, pi[j + 1], stop, without_interior(j));
            let feasible = spare.dist(v).is_some();
            if feasible {
                std::mem::swap(held, spare);
            }
            feasible
        };

        // Feasibility is monotone in j and holds at j = idx (Lemma 4.3):
        // find the smallest feasible j. The source is the best divergence
        // point there is, and on deep trees it is often feasible, so j = 0
        // is tried first; it is also the largest subtree, so the rest of the
        // range is searched galloping down from idx, the smallest one.
        let path = if idx > 0 && probe(0) {
            held.settle_target(graph, weights, v, without_interior(0));
            held.path_to(tree, v).expect("feasible probe reaches v")
        } else if probe(idx) {
            let (mut lo, mut hi) = (1.min(idx), idx);
            let mut step = 1;
            while lo < hi {
                let j = hi.saturating_sub(step).max(lo);
                if !probe(j) {
                    lo = j + 1;
                    break;
                }
                hi = j;
                step *= 2;
            }
            while lo < hi {
                let mid = (lo + hi) / 2;
                if probe(mid) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            held.settle_target(graph, weights, v, without_interior(hi));
            held.path_to(tree, v).expect("feasible probe reaches v")
        } else {
            // Defensive fallback (should not happen): take the
            // unconstrained canonical replacement path.
            let unconstrained = |_: VertexId, f: EdgeId| f != e;
            held.sweep_subtree(graph, tree, c, Some((v, target)), unconstrained);
            held.dist(v)?;
            held.settle_target(graph, weights, v, unconstrained);
            held.path_to(tree, v).expect("target settled")
        };
        Some(new_ending(pair, pi, path, idx as u32 + 1, k as u32, tree))
    }
}

/// A new-ending replacement path with its divergence point computed.
pub(crate) fn new_ending(
    pair: VePair,
    pi_vertices: &[VertexId],
    path: Path,
    failing_edge_depth: u32,
    terminal_depth: u32,
    tree: &ShortestPathTree,
) -> ReplacementPath {
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
    ReplacementPath {
        pair,
        divergence: Some(verts[d_idx]),
        divergence_index: Some(d_idx),
        path,
        last_edge,
        new_ending: true,
        failing_edge_depth,
        terminal_depth,
    }
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

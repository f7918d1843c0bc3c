//! The reference formulation of Algorithm `Pcons`, kept as a test oracle.
//!
//! Every probe here is a heap-based [`LexSearch::run_view_target`] over a
//! freshly built [`EdgeMask`]/[`VertexMask`] view — the literal reading of
//! the paper. The differential tests below require the production
//! [`ReplacementPaths`](crate::ReplacementPaths), whose trees are
//! [`CutTree`](ftb_sp::CutTree) cuts, to reproduce it exactly.

use crate::pair::{ReplacementPath, VePair};
use ftb_graph::{EdgeMask, Graph, SubgraphView, VertexId, VertexMask};
use ftb_sp::{
    LexSearch, Path, ReplacementDistances, ShortestPathTree, TieBreakWeights, UNREACHABLE,
};

/// All replacement paths, terminal by terminal in the order
/// [`ReplacementPaths::compute`](crate::ReplacementPaths::compute) uses.
pub(crate) fn lex_pcons(
    graph: &Graph,
    weights: &TieBreakWeights,
    tree: &ShortestPathTree,
    dists: &ReplacementDistances,
) -> Vec<ReplacementPath> {
    tree.vertices_by_depth()
        .into_iter()
        .filter(|&v| v != tree.source())
        .flat_map(|v| lex_pcons_for_terminal(graph, weights, tree, dists, v))
        .collect()
}

/// The masked-view, heap-search Algorithm `Pcons` for one terminal.
pub(crate) fn lex_pcons_for_terminal(
    graph: &Graph,
    weights: &TieBreakWeights,
    tree: &ShortestPathTree,
    dists: &ReplacementDistances,
    v: VertexId,
) -> Vec<ReplacementPath> {
    let source = tree.source();
    let Some(pi) = tree.path_to(v) else {
        return Vec::new();
    };
    let pi_vertices = pi.vertices().to_vec();
    let pi_edges = pi.edges().to_vec();
    let k = pi_edges.len(); // depth of v

    // G'(v): the graph with every non-tree edge incident to v removed. Any
    // replacement path ending with a tree edge lives entirely inside G'(v).
    let mut gprime_mask = EdgeMask::none(graph);
    for (_, e) in graph.neighbors(v) {
        if !tree.is_tree_edge(e) {
            gprime_mask.remove(e);
        }
    }

    let mut out = Vec::with_capacity(k);
    for (idx, &e) in pi_edges.iter().enumerate() {
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

        // Step 1: try to find a replacement path whose last edge is in T0.
        let view = SubgraphView::full(graph)
            .without_edge(e)
            .with_edge_mask(&gprime_mask);
        let covered_search = LexSearch::run_view_target(&view, weights, source, v);
        if covered_search.hops(v) == Some(target) {
            let path = covered_search.path_to(v).expect("target settled");
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
        let probe = |j: usize| -> LexSearch {
            let removed = pi_vertices[j + 1..k].iter().copied();
            let vmask = VertexMask::removing(graph, removed);
            let view = SubgraphView::full(graph)
                .without_edge(e)
                .with_vertex_mask(&vmask);
            LexSearch::run_view_target(&view, weights, source, v)
        };
        let feasible = |s: &LexSearch| s.hops(v) == Some(target);

        // The predicate is monotone in j and true at j = idx (Lemma 4.3);
        // binary-search the smallest feasible index.
        if !feasible(&probe(idx)) {
            // Defensive fallback (should not happen): take the unconstrained
            // canonical replacement path.
            let view = SubgraphView::full(graph).without_edge(e);
            let fallback = LexSearch::run_view_target(&view, weights, source, v);
            if !feasible(&fallback) {
                continue;
            }
            out.push(new_ending(
                pair,
                &pi_vertices,
                fallback.path_to(v).unwrap(),
                failing_edge_depth,
                k as u32,
                tree,
            ));
            continue;
        }
        let mut lo = 0usize;
        let mut hi = idx;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if feasible(&probe(mid)) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let chosen = probe(hi);
        debug_assert!(feasible(&chosen));
        let path = chosen.path_to(v).expect("feasible probe reaches v");
        out.push(new_ending(
            pair,
            &pi_vertices,
            path,
            failing_edge_depth,
            k as u32,
            tree,
        ));
    }
    out
}

/// A new-ending replacement path with its divergence point computed.
fn new_ending(
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

mod tests {
    use super::*;
    use crate::ReplacementPaths;
    use ftb_graph::generators;
    use ftb_lower_bounds::{
        esa13_lower_bound, multi_source_lower_bound, single_source_lower_bound,
    };
    use ftb_par::ParallelConfig;
    use ftb_workloads::{families, Workload, WorkloadFamily};
    use proptest::prelude::*;

    /// Every production path, rebuilt from the pair store in id order.
    fn rebuilt(
        rp: &ReplacementPaths,
        graph: &Graph,
        tree: &ShortestPathTree,
    ) -> Vec<ReplacementPath> {
        (0..rp.len()).map(|p| rp.path(graph, tree, p)).collect()
    }

    /// Production `Pcons` and the oracle, rendered field by field, and the
    /// production store.
    fn both(graph: &Graph, seed: u64, source: VertexId) -> (String, String, ReplacementPaths) {
        let weights = TieBreakWeights::generate(graph, seed);
        let tree = ShortestPathTree::build(graph, &weights, source);
        let dists = ReplacementDistances::compute(graph, &tree, &ParallelConfig::serial());
        let fast = ReplacementPaths::compute(
            graph,
            &weights,
            &tree,
            &dists,
            &ParallelConfig::with_threads(2).with_chunk_size(8),
        );
        let oracle = lex_pcons(graph, &weights, &tree, &dists);
        (
            format!("{:?}", rebuilt(&fast, graph, &tree)),
            format!("{oracle:?}"),
            fast,
        )
    }

    fn assert_matches_oracle(
        graph: &Graph,
        seed: u64,
        source: VertexId,
        what: &str,
    ) -> ReplacementPaths {
        let (fast, oracle, rp) = both(graph, seed, source);
        assert!(
            fast == oracle,
            "Pcons differs from the LexSearch oracle on {what}"
        );
        rp
    }

    /// The pass-2 branches a store reaches: terminals with one uncovered
    /// pair feasible at `j = 0` (its path diverges at the source) and
    /// another decided at a deeper level, and uncovered pairs of depth-1
    /// terminals, whose search bans the edge from the source rather than a
    /// tree path interior.
    fn pass_two_branches(rp: &ReplacementPaths) -> (usize, usize) {
        let (mut mixed, mut depth_one) = (0, 0);
        for group in rp
            .uncovered()
            .chunk_by(|&p, &q| rp.get(p).pair.terminal == rp.get(q).pair.terminal)
        {
            let at_source = |&p: &usize| rp.get(p).divergence == Some(rp.source());
            mixed += usize::from(group.iter().any(at_source) && !group.iter().all(at_source));
            depth_one += group
                .iter()
                .filter(|&&p| rp.get(p).terminal_depth == 1)
                .count();
        }
        (mixed, depth_one)
    }

    #[test]
    fn identical_to_oracle_on_every_workload_family() {
        let (mut mixed, mut depth_one) = (0, 0);
        for &family in WorkloadFamily::all() {
            for n in [48usize, 160] {
                for seed in [1u64, 7] {
                    let graph = Workload::new(family, n, seed).generate();
                    let what = format!("{}(n={n}, seed={seed})", family.name());
                    let rp = assert_matches_oracle(&graph, seed, VertexId(0), &what);
                    let (m, d) = pass_two_branches(&rp);
                    mixed += m;
                    depth_one += d;
                }
            }
        }
        assert!(
            mixed > 0,
            "no terminal mixes a j = 0 pair with a deeper one"
        );
        assert!(depth_one > 0, "no uncovered pair of a depth-1 terminal");
    }

    #[test]
    fn identical_to_oracle_on_lower_bound_families() {
        let mut pairs = 0;
        for eps in [0.2, 0.3, 0.5] {
            let lb = single_source_lower_bound(300, eps);
            pairs += assert_matches_oracle(&lb.graph, 3, lb.source, &format!("G({eps})")).len();
        }
        let lb = esa13_lower_bound(300);
        pairs += assert_matches_oracle(&lb.graph, 5, lb.source, "esa13").len();
        let lb = multi_source_lower_bound(300, 2, 0.3);
        for (i, &s) in lb.sources.iter().enumerate() {
            pairs += assert_matches_oracle(&lb.graph, 9, s, &format!("multi-source s{i}")).len();
        }
        assert!(pairs > 0, "the families must exercise Pcons");
    }

    #[test]
    fn identical_to_oracle_with_uniform_tie_weights() {
        // All tie sums equal: every choice falls through to the parent-id
        // tie-break, which both formulations must resolve the same way.
        for graph in [generators::grid(6, 6), generators::hypercube(4)] {
            let weights = TieBreakWeights::uniform(&graph);
            let tree = ShortestPathTree::build(&graph, &weights, VertexId(0));
            let dists = ReplacementDistances::compute(&graph, &tree, &ParallelConfig::serial());
            let fast = ReplacementPaths::compute(
                &graph,
                &weights,
                &tree,
                &dists,
                &ParallelConfig::serial(),
            );
            let oracle = lex_pcons(&graph, &weights, &tree, &dists);
            assert_eq!(
                format!("{:?}", rebuilt(&fast, &graph, &tree)),
                format!("{oracle:?}")
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn identical_to_oracle_on_random_graphs(
            n in 4usize..48,
            avg_degree in 2usize..7,
            seed in 0u64..10_000,
            source_pick in 0usize..1000,
        ) {
            let graph = families::erdos_renyi_gnm(n, n * avg_degree / 2, seed);
            let source = VertexId::new(source_pick % n);
            let (fast, oracle, _) = both(&graph, seed, source);
            prop_assert_eq!(fast, oracle);
        }
    }
}

//! Replacement rows against brute force: for every tree edge `e` and every
//! vertex `v`, `ReplacementDistances::dist(e, v)` equals a plain BFS over
//! `G ∖ {e}` (`bfs_distances_view`), including the vertices a failure cuts
//! off (`UNREACHABLE`) and every vertex outside the subtree `e` cuts off,
//! whose row entry is implicit.

use ftb_graph::{generators, Graph, SubgraphView, VertexId};
use ftb_lower_bounds::{esa13_lower_bound, multi_source_lower_bound, single_source_lower_bound};
use ftb_par::ParallelConfig;
use ftb_sp::{
    bfs_distances_view, ReplacementDistances, ShortestPathTree, TieBreakWeights, UNREACHABLE,
};
use ftb_workloads::{families, Workload, WorkloadFamily};
use proptest::prelude::*;

/// Check every `(tree edge, vertex)` entry, serial and on 4 workers; returns
/// how many entries a failure cut off.
fn assert_rows_match_bfs(graph: &Graph, seed: u64, source: VertexId, what: &str) -> usize {
    let weights = TieBreakWeights::generate(graph, seed);
    let tree = ShortestPathTree::build(graph, &weights, source);
    let serial = ReplacementDistances::compute(graph, &tree, &ParallelConfig::serial());
    let parallel = ReplacementDistances::compute(
        graph,
        &tree,
        &ParallelConfig::with_threads(4).with_chunk_size(2),
    );
    let mut cut_off = 0;
    for &e in tree.tree_edges() {
        let brute = bfs_distances_view(&SubgraphView::full(graph).without_edge(e), source);
        for v in graph.vertices() {
            let d = serial.dist(e, v);
            assert_eq!(d, Some(brute[v.index()]), "dist({e:?}, {v:?}) on {what}");
            assert_eq!(
                parallel.dist(e, v),
                d,
                "4 workers, dist({e:?}, {v:?}) on {what}"
            );
            cut_off += usize::from(tree.is_reachable(v) && d == Some(UNREACHABLE));
        }
    }
    for e in graph.edge_ids().filter(|&e| !tree.is_tree_edge(e)) {
        assert_eq!(
            serial.dist(e, source),
            None,
            "non-tree edge {e:?} on {what}"
        );
    }
    cut_off
}

#[test]
fn rows_match_bfs_on_every_workload_family() {
    for &family in WorkloadFamily::all() {
        for n in [48usize, 160] {
            for seed in [1u64, 7] {
                let graph = Workload::new(family, n, seed).generate();
                let what = format!("{}(n={n}, seed={seed})", family.name());
                assert_rows_match_bfs(&graph, seed, VertexId(0), &what);
            }
        }
    }
}

#[test]
fn rows_match_bfs_on_lower_bound_families() {
    for eps in [0.2, 0.3, 0.5] {
        let lb = single_source_lower_bound(300, eps);
        assert_rows_match_bfs(&lb.graph, 3, lb.source, &format!("G({eps})"));
    }
    let lb = esa13_lower_bound(300);
    assert_rows_match_bfs(&lb.graph, 5, lb.source, "esa13");
    let lb = multi_source_lower_bound(300, 2, 0.3);
    for (i, &s) in lb.sources.iter().enumerate() {
        assert_rows_match_bfs(&lb.graph, 9, s, &format!("multi-source s{i}"));
    }
}

#[test]
fn rows_match_bfs_where_failures_cut_subtrees_off() {
    // A path cuts off every suffix; failing the bridge between two cycles
    // cuts off the far one; vertices 7..=9 are unreachable before any
    // failure.
    let mut bridged = ftb_graph::GraphBuilder::new(10);
    for (a, b) in [
        (0, 1),
        (1, 2),
        (2, 0),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 6),
        (6, 3),
    ] {
        bridged.add_edge(VertexId(a), VertexId(b));
    }
    bridged.add_edge(VertexId(7), VertexId(8));
    let mut cut_off = 0;
    for (graph, what) in [
        (generators::path(12), "path"),
        (bridged.build(), "bridged cycles"),
        (generators::grid(5, 6), "grid"),
    ] {
        cut_off += assert_rows_match_bfs(&graph, 11, VertexId(0), what);
    }
    assert!(cut_off > 0, "the cases must exercise UNREACHABLE rows");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rows_match_bfs_on_random_graphs(
        n in 4usize..60,
        avg_degree in 1usize..6,
        seed in 0u64..10_000,
        source_pick in 0usize..1000,
    ) {
        let graph = families::erdos_renyi_gnm(n, n * avg_degree / 2, seed);
        let source = VertexId::new(source_pick % n);
        assert_rows_match_bfs(&graph, seed, source, "gnm");
    }
}

//! The two extreme points of the tradeoff:
//!
//! * `ε = 1` — the ESA'13 FT-BFS structure (Parter–Peleg, *Sparse
//!   Fault-Tolerant BFS Trees*): no reinforcement, `Θ(n^{3/2})` backup
//!   edges (this is also the branch Theorem 3.1 uses for every `ε ≥ 1/2`),
//! * `ε = 0` — reinforce the `n − 1` BFS-tree edges, no backup at all.
//!
//! Both are branches of [`crate::TradeoffBuilder`]: the construction
//! driver picks them from `ε`.

use crate::config::BuildConfig;
use crate::stats::BuildStats;
use crate::structure::FtBfsStructure;
use ftb_graph::{BitSet, Graph, VertexId};
use ftb_rp::ReplacementPaths;
use ftb_sp::{ShortestPathTree, TieBreakWeights};
use std::time::Instant;

/// The ESA'13 baseline FT-BFS structure (the `ε ≥ 1/2` branch): `T0` plus
/// the last edge of the canonical replacement path of **every** vertex–edge
/// pair. No edge is reinforced. Callers must validate the input.
pub(crate) fn build_baseline_impl(
    graph: &Graph,
    source: VertexId,
    config: &BuildConfig,
) -> FtBfsStructure {
    let start = Instant::now();
    let weights = TieBreakWeights::generate(graph, config.seed);
    let tree = ShortestPathTree::build(graph, &weights, source);
    let rp = ReplacementPaths::new(graph, &weights, &tree, &config.parallel);

    let mut edges = BitSet::new(graph.num_edges());
    for &e in tree.tree_edges() {
        edges.insert(e.index());
    }
    let tree_edge_count = edges.len();
    let mut added = 0usize;
    for item in rp.all() {
        if edges.insert(item.last_edge.index()) {
            added += 1;
        }
    }

    let stats = BuildStats {
        num_vertices: graph.num_vertices(),
        num_graph_edges: graph.num_edges(),
        num_tree_edges: tree_edge_count,
        num_pairs: rp.len(),
        num_uncovered_pairs: rp.uncovered().len(),
        s1_added_edges: added,
        used_baseline: true,
        construction_ms: start.elapsed().as_secs_f64() * 1e3,
        ..Default::default()
    };
    FtBfsStructure::new(
        source,
        config.eps,
        edges,
        BitSet::new(graph.num_edges()),
        stats,
    )
}

/// The `ε = 0` extreme: the BFS tree with every tree edge reinforced and no
/// backup edges. Callers must validate the input.
pub(crate) fn build_reinforced_tree_impl(
    graph: &Graph,
    source: VertexId,
    config: &BuildConfig,
) -> FtBfsStructure {
    let start = Instant::now();
    let weights = TieBreakWeights::generate(graph, config.seed);
    let tree = ShortestPathTree::build(graph, &weights, source);
    let mut edges = BitSet::new(graph.num_edges());
    for &e in tree.tree_edges() {
        edges.insert(e.index());
    }
    let reinforced = edges.clone();
    let stats = BuildStats {
        num_vertices: graph.num_vertices(),
        num_graph_edges: graph.num_edges(),
        num_tree_edges: edges.len(),
        reinforced_edges: reinforced.len(),
        construction_ms: start.elapsed().as_secs_f64() * 1e3,
        ..Default::default()
    };
    FtBfsStructure::new(source, 0.0, edges, reinforced, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Sources, StructureBuilder, TradeoffBuilder};
    use crate::error::FtbfsError;
    use crate::verify::verify_structure;
    use ftb_graph::generators;
    use ftb_par::ParallelConfig;
    use ftb_workloads::families;

    fn build(
        graph: &Graph,
        source: VertexId,
        config: &BuildConfig,
    ) -> Result<FtBfsStructure, FtbfsError> {
        TradeoffBuilder::from_config(config.clone()).build(graph, &Sources::single(source))
    }

    fn tree_of(graph: &Graph, config: &BuildConfig, source: VertexId) -> ShortestPathTree {
        let w = TieBreakWeights::generate(graph, config.seed);
        ShortestPathTree::build(graph, &w, source)
    }

    #[test]
    fn baseline_is_a_valid_ftbfs_structure() {
        for (name, graph) in [
            ("hypercube", generators::hypercube(4)),
            ("grid", generators::grid(5, 6)),
            ("er", families::erdos_renyi_gnp(70, 0.1, 3)),
            ("clique_pendant", generators::clique_with_pendant(20)),
        ] {
            let config = BuildConfig::new(1.0).serial();
            let s = build(&graph, VertexId(0), &config).expect("valid input");
            let tree = tree_of(&graph, &config, VertexId(0));
            let report = verify_structure(&graph, &tree, &s, &ParallelConfig::serial(), false);
            assert!(
                report.is_valid(),
                "baseline invalid on {name}: {:?}",
                report.violations.len()
            );
            assert_eq!(s.num_reinforced(), 0, "{name}");
            assert!(s.stats().used_baseline);
        }
        let config = BuildConfig::new(1.0).serial();
        let bad = build(&generators::grid(4, 5), VertexId(1000), &config);
        assert!(matches!(bad, Err(FtbfsError::SourceOutOfRange { .. })));
    }

    #[test]
    fn baseline_size_is_subquadratic_on_dense_graphs() {
        let g = generators::complete(40);
        let config = BuildConfig::new(1.0).serial();
        let s = build(&g, VertexId(0), &config).expect("valid input");
        // Θ(n^{3/2}) with a small constant; certainly far below the ~800
        // edges of K_40.
        assert!(s.num_edges() < g.num_edges() / 2);
        assert!(s.num_edges() >= g.num_vertices() - 1);
    }

    #[test]
    fn reinforced_tree_has_no_backup_and_is_valid() {
        let g = families::erdos_renyi_gnp(60, 0.1, 7);
        let config = BuildConfig::new(0.0).serial();
        let s = build(&g, VertexId(0), &config).expect("valid input");
        assert_eq!(s.num_backup(), 0);
        assert_eq!(s.num_reinforced(), g.num_vertices() - 1);
        let tree = tree_of(&g, &config, VertexId(0));
        let report = verify_structure(&g, &tree, &s, &ParallelConfig::serial(), false);
        assert!(report.is_valid());
        assert_eq!(report.checked_edges, 0);
        let bad = build(&g, VertexId(1000), &config);
        assert!(matches!(bad, Err(FtbfsError::SourceOutOfRange { .. })));
    }

    #[test]
    fn baseline_on_intro_example_keeps_a_clique_fraction() {
        // On the clique-with-pendant example the pendant edge disconnects the
        // source, so it needs no protection; the rest of the structure stays
        // sparse relative to the clique.
        let n = 40;
        let g = generators::clique_with_pendant(n);
        let config = BuildConfig::new(1.0).serial();
        let s = build(&g, VertexId(0), &config).expect("valid input");
        assert!(s.num_edges() < g.num_edges());
    }
}

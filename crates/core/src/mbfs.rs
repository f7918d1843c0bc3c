//! Multi-source fault-tolerant BFS structures (FT-MBFS).
//!
//! For a source set `S ⊆ V`, an ε FT-MBFS structure must satisfy the FT-BFS
//! guarantee simultaneously for every `s ∈ S`. The construction simply takes
//! the union of the per-source structures (this is how the paper defines the
//! object; its Theorem 5.4 lower bound shows the union-style cost
//! `Ω(σ^{1-ε} n^{1+ε})` is essentially unavoidable).
//!
//! [`TradeoffBuilder::build_multi`](crate::TradeoffBuilder::build_multi)
//! builds it; [`StructureBuilder::build`](crate::StructureBuilder::build)
//! over several sources returns it collapsed into one structure.

use crate::algorithm::{build_tradeoff_impl, validate_input};
use crate::config::BuildConfig;
use crate::error::FtbfsError;
use crate::stats::BuildStats;
use crate::structure::FtBfsStructure;
use ftb_graph::{BitSet, EdgeId, Graph, VertexId};

/// A multi-source FT-BFS structure: the union of one [`FtBfsStructure`] per
/// source.
#[derive(Clone, Debug)]
pub struct MultiSourceStructure {
    sources: Vec<VertexId>,
    per_source: Vec<FtBfsStructure>,
    union_edges: BitSet,
    union_reinforced: BitSet,
    eps: f64,
}

impl MultiSourceStructure {
    /// The source set.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// Per-source structures, in the order of [`Self::sources`].
    pub fn per_source(&self) -> &[FtBfsStructure] {
        &self.per_source
    }

    /// The ε parameter used for every source.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Total number of edges of the union structure.
    pub fn num_edges(&self) -> usize {
        self.union_edges.len()
    }

    /// Number of reinforced edges in the union (an edge reinforced for any
    /// source is reinforced in the union).
    pub fn num_reinforced(&self) -> usize {
        self.union_reinforced.len()
    }

    /// Number of backup edges of the union.
    pub fn num_backup(&self) -> usize {
        self.num_edges() - self.num_reinforced()
    }

    /// `true` if `e` belongs to the union structure.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.union_edges.contains(e.index())
    }

    /// `true` if `e` is reinforced in the union.
    pub fn is_reinforced(&self, e: EdgeId) -> bool {
        self.union_reinforced.contains(e.index())
    }

    /// The union edge set.
    pub fn edge_set(&self) -> &BitSet {
        &self.union_edges
    }

    /// The union reinforced set.
    pub fn reinforced_set(&self) -> &BitSet {
        &self.union_reinforced
    }

    /// Collapse the union into a single [`FtBfsStructure`] rooted at the
    /// first source.
    ///
    /// The result carries the union edge and reinforced sets and aggregated
    /// statistics (per-source counters summed). Because the union only adds
    /// edges and reinforcement on top of the first source's structure, the
    /// collapsed structure still satisfies the FT-BFS guarantee for that
    /// root; use [`Self::per_source`] when per-source views are needed.
    pub fn into_union_structure(self) -> FtBfsStructure {
        let source = self.sources[0];
        let mut stats = BuildStats::default();
        for s in &self.per_source {
            let p = s.stats();
            stats.num_vertices = p.num_vertices;
            stats.num_graph_edges = p.num_graph_edges;
            stats.num_tree_edges = stats.num_tree_edges.max(p.num_tree_edges);
            stats.num_pairs += p.num_pairs;
            stats.num_uncovered_pairs += p.num_uncovered_pairs;
            stats.num_i1_pairs += p.num_i1_pairs;
            stats.num_i2_pairs += p.num_i2_pairs;
            stats.s1_iterations += p.s1_iterations;
            stats.s1_added_edges += p.s1_added_edges;
            stats.s1_leftover_pairs += p.s1_leftover_pairs;
            stats.s2_glue_added_edges += p.s2_glue_added_edges;
            stats.s2_added_edges += p.s2_added_edges;
            stats.s2_sim_sets += p.s2_sim_sets;
            stats.hld_levels = stats.hld_levels.max(p.hld_levels);
            stats.k_rounds = stats.k_rounds.max(p.k_rounds);
            stats.used_baseline |= p.used_baseline;
            stats.construction_ms += p.construction_ms;
            stats.s0_ms += p.s0_ms;
            stats.s1_ms += p.s1_ms;
            stats.s2_ms += p.s2_ms;
            stats.reinforce_ms += p.reinforce_ms;
        }
        stats.reinforced_edges = self.union_reinforced.len();
        FtBfsStructure::new(
            source,
            self.eps,
            self.union_edges,
            self.union_reinforced,
            stats,
        )
    }
}

/// Build the union of the per-source structures for `sources`, validating
/// every source first. Duplicate sources are ignored.
pub(crate) fn build_union(
    graph: &Graph,
    sources: &[VertexId],
    config: &BuildConfig,
) -> Result<MultiSourceStructure, FtbfsError> {
    let mut uniq: Vec<VertexId> = Vec::new();
    for &s in sources {
        if !uniq.contains(&s) {
            uniq.push(s);
        }
    }
    if uniq.is_empty() {
        return Err(FtbfsError::EmptySources);
    }
    for &s in &uniq {
        validate_input(graph, s, config)?;
    }
    let mut union_edges = BitSet::new(graph.num_edges());
    let mut union_reinforced = BitSet::new(graph.num_edges());
    let mut per_source = Vec::with_capacity(uniq.len());
    for &s in &uniq {
        let structure = build_tradeoff_impl(graph, s, config);
        union_edges.union_with(structure.edge_set());
        union_reinforced.union_with(structure.reinforced_set());
        per_source.push(structure);
    }
    Ok(MultiSourceStructure {
        sources: uniq,
        per_source,
        union_edges,
        union_reinforced,
        eps: config.eps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Sources, TradeoffBuilder};
    use crate::verify::verify_structure;
    use ftb_par::ParallelConfig;
    use ftb_sp::{ShortestPathTree, TieBreakWeights};
    use ftb_workloads::families;

    fn build_multi(
        graph: &Graph,
        sources: &[VertexId],
        config: &BuildConfig,
    ) -> Result<MultiSourceStructure, FtbfsError> {
        TradeoffBuilder::from_config(config.clone()).build_multi(graph, &Sources::from(sources))
    }

    #[test]
    fn union_contains_every_per_source_structure() {
        let g = families::erdos_renyi_gnp(60, 0.1, 3);
        let sources = [VertexId(0), VertexId(5), VertexId(17)];
        let config = BuildConfig::new(0.3).with_seed(3).serial();
        let m = build_multi(&g, &sources, &config).expect("valid input");
        assert_eq!(m.sources().len(), 3);
        assert_eq!(m.per_source().len(), 3);
        for s in m.per_source() {
            for e in s.edges() {
                assert!(m.contains_edge(e));
            }
            for e in s.reinforced_edges() {
                assert!(m.is_reinforced(e));
            }
        }
        assert!(m.num_edges() >= m.per_source()[0].num_edges());
        assert_eq!(m.num_edges(), m.num_backup() + m.num_reinforced());
        assert!((m.eps() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn each_source_view_remains_a_valid_ftbfs() {
        // The union only adds edges, and the union's reinforced set only
        // grows, so validity per source is preserved. Verify per source
        // against the union's reinforced set.
        let g = families::erdos_renyi_gnp(50, 0.12, 7);
        let sources = [VertexId(0), VertexId(10)];
        let config = BuildConfig::new(0.25).with_seed(7).serial();
        let m = build_multi(&g, &sources, &config).expect("valid input");
        for (i, &s) in m.sources().iter().enumerate() {
            let weights = TieBreakWeights::generate(&g, config.seed);
            let tree = ShortestPathTree::build(&g, &weights, s);
            // structure = union edges, reinforced = union reinforced
            let st = crate::structure::FtBfsStructure::new(
                s,
                config.eps,
                m.edge_set().clone(),
                m.reinforced_set().clone(),
                m.per_source()[i].stats().clone(),
            );
            let report = verify_structure(&g, &tree, &st, &ParallelConfig::serial(), false);
            assert!(report.is_valid(), "source {s:?} invalid in the union");
        }
    }

    #[test]
    fn duplicate_sources_are_deduplicated() {
        let g = families::erdos_renyi_gnp(40, 0.15, 11);
        let config = BuildConfig::new(0.3).serial();
        let m = build_multi(&g, &[VertexId(0), VertexId(0), VertexId(1)], &config)
            .expect("valid input");
        assert_eq!(m.sources().len(), 2);
    }

    #[test]
    fn more_sources_cost_more_edges() {
        let g = families::erdos_renyi_gnp(70, 0.1, 13);
        let config = BuildConfig::new(0.3).with_seed(13).serial();
        let one = build_multi(&g, &[VertexId(0)], &config).expect("valid input");
        let three = build_multi(&g, &[VertexId(0), VertexId(20), VertexId(40)], &config)
            .expect("valid input");
        assert!(three.num_edges() >= one.num_edges());
    }

    #[test]
    fn empty_and_invalid_source_sets_are_typed_errors() {
        let g = families::erdos_renyi_gnp(30, 0.2, 5);
        let config = BuildConfig::new(0.3).serial();
        assert_eq!(
            build_multi(&g, &[], &config).unwrap_err(),
            FtbfsError::EmptySources
        );
        let bad = build_multi(&g, &[VertexId(0), VertexId(500)], &config);
        assert!(matches!(bad, Err(FtbfsError::SourceOutOfRange { .. })));
    }

    #[test]
    fn union_structure_collapse_preserves_counts() {
        let g = families::erdos_renyi_gnp(50, 0.12, 9);
        let config = BuildConfig::new(0.25).with_seed(9).serial();
        let m = build_multi(&g, &[VertexId(0), VertexId(7)], &config).expect("valid input");
        let (edges, reinforced) = (m.num_edges(), m.num_reinforced());
        let collapsed = m.into_union_structure();
        assert_eq!(collapsed.num_edges(), edges);
        assert_eq!(collapsed.num_reinforced(), reinforced);
        assert_eq!(collapsed.source(), VertexId(0));
        assert!(collapsed.stats().construction_ms >= 0.0);
    }
}

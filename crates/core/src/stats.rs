//! Construction statistics reported alongside a structure.

/// Counters describing how a `(b, r)` FT-BFS structure was built; the
/// experiment harness prints these next to the headline `b`/`r` numbers and
/// the ablation experiments compare them across configurations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BuildStats {
    /// Vertices of the input graph.
    pub num_vertices: usize,
    /// Edges of the input graph.
    pub num_graph_edges: usize,
    /// Edges of the BFS tree `T0`.
    pub num_tree_edges: usize,
    /// Total vertex–edge pairs with a replacement path (Phase S0 output).
    pub num_pairs: usize,
    /// Pairs whose canonical replacement path is new-ending (the set `UP`).
    pub num_uncovered_pairs: usize,
    /// Pairs in `I1` (those with `(≁)`-interference).
    pub num_i1_pairs: usize,
    /// Pairs in `I2` (the initial `(∼)`-set).
    pub num_i2_pairs: usize,
    /// Number of Phase S1 iterations executed.
    pub s1_iterations: usize,
    /// Last edges added to `H` during Phase S1.
    pub s1_added_edges: usize,
    /// Pairs left unhandled after the K Phase S1 iterations and force-added
    /// (0 in the regime the analysis covers).
    pub s1_leftover_pairs: usize,
    /// Last edges added while protecting glue edges (Sub-phase S2.1).
    pub s2_glue_added_edges: usize,
    /// Last edges added by the segment / tree-decomposition covers
    /// (Sub-phases S2.2–S2.3).
    pub s2_added_edges: usize,
    /// Number of `(∼)`-sets processed by Phase S2.
    pub s2_sim_sets: usize,
    /// Tree edges whose chosen replacement-path last edges were not all in
    /// `H` at the end, i.e. the edges the algorithm reinforces.
    pub reinforced_edges: usize,
    /// Levels of the heavy-path decomposition Phase S2 recursed through
    /// (0 when Phase S2 did not run — ablation, baseline or ε = 0 branch).
    pub hld_levels: usize,
    /// `K = ⌈1/ε⌉ + 2` actually used (0 when the baseline branch is taken).
    pub k_rounds: usize,
    /// `true` if the `ε ≥ 1/2` baseline branch was taken.
    pub used_baseline: bool,
    /// Wall-clock milliseconds spent in construction (excluding verification).
    pub construction_ms: f64,
    /// Wall-clock ms of Phase S0 (weights, tree, `Pcons`, whose first pass
    /// finds the replacement distances; no distance table is built) plus the
    /// interference split. 0 on the baseline / ε = 0 branches.
    pub s0_ms: f64,
    /// Wall-clock ms of Phase S1.
    pub s1_ms: f64,
    /// Wall-clock ms of Phase S2 (0 when Phase S2 is disabled).
    pub s2_ms: f64,
    /// Wall-clock ms of the reinforcement pass.
    pub reinforce_ms: f64,
}

impl BuildStats {
    /// Total number of last edges added on top of `T0`.
    pub fn total_added_edges(&self) -> usize {
        self.s1_added_edges + self.s2_glue_added_edges + self.s2_added_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_zero() {
        let s = BuildStats::default();
        assert_eq!(s.num_pairs, 0);
        assert_eq!(s.total_added_edges(), 0);
        assert!(!s.used_baseline);
    }

    #[test]
    fn total_added_sums_phases() {
        let s = BuildStats {
            s1_added_edges: 3,
            s2_glue_added_edges: 4,
            s2_added_edges: 5,
            ..Default::default()
        };
        assert_eq!(s.total_added_edges(), 12);
    }
}

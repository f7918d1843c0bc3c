//! The main `(b, r)` FT-BFS construction (Theorem 3.1).
//!
//! Driver orchestrating the phases:
//!
//! 1. **S0** — tie-break weights `W`, BFS tree `T0`, replacement distances,
//!    Algorithm `Pcons` (crate `ftb-rp`),
//! 2. split of the uncovered pairs into `I1` / `I2` by `(≁)`-interference,
//! 3. **S1** — `K = ⌈1/ε⌉ + 2` rounds over `I1` ([`crate::phase_s1`]),
//! 4. **S2** — heavy-path / segment decomposition covers over the `(∼)`-sets
//!    ([`crate::phase_s2`]),
//! 5. reinforcement — every tree edge that is still *last-unprotected*
//!    (some pair's chosen last edge missing from `H`) is reinforced; by
//!    Observation 2.2 all remaining edges are protected. Optionally the exact
//!    verifier shrinks this set to the truly unprotected edges.
//!
//! For `ε ≥ 1/2` the `n^{3/2}` branch (the ESA'13 baseline) is used, and for
//! `ε = 0` the reinforced BFS tree — matching the two extremes discussed in
//! the paper.
//!
//! [`crate::TradeoffBuilder`] is the entry point: it validates the input,
//! reports problems as [`FtbfsError`] and then runs this driver.

use crate::baseline::{build_baseline_impl, build_reinforced_tree_impl};
use crate::config::BuildConfig;
use crate::error::FtbfsError;
use crate::phase_s1::run_phase_s1;
use crate::phase_s2::run_phase_s2;
use crate::stats::BuildStats;
use crate::structure::FtBfsStructure;
use crate::verify::unprotected_edges;
use ftb_graph::{BitSet, Graph, VertexId};
use ftb_rp::{InterferenceIndex, ReplacementPaths};
use ftb_sp::{ReplacementDistances, ShortestPathTree, TieBreakWeights, UNREACHABLE};
use ftb_tree::{HeavyPathDecomposition, TreeIndex};
use std::time::Instant;

/// Validate `(graph, source, config)` as a construction input.
///
/// Every source a [`crate::TradeoffBuilder`] builds for passes through here.
pub(crate) fn validate_input(
    graph: &Graph,
    source: VertexId,
    config: &BuildConfig,
) -> Result<(), FtbfsError> {
    config.validate_for(graph.num_vertices())?;
    if source.index() >= graph.num_vertices() {
        return Err(FtbfsError::SourceOutOfRange {
            source,
            num_vertices: graph.num_vertices(),
        });
    }
    if config.require_connected {
        let dist = ftb_sp::bfs_distances(graph, source);
        let num_unreachable = dist.iter().filter(|&&d| d == UNREACHABLE).count();
        if num_unreachable > 0 {
            return Err(FtbfsError::DisconnectedSource {
                source,
                num_unreachable,
            });
        }
    }
    Ok(())
}

/// Build an `ε` FT-BFS (equivalently, a `(b, r)` FT-BFS) structure for
/// `graph` rooted at `source`. Callers must have validated the input with
/// [`validate_input`].
///
/// The returned structure satisfies
/// `dist(s, v, H ∖ {e}) ≤ dist(s, v, G ∖ {e})` for every vertex `v` and every
/// non-reinforced edge `e`, with `O(1/ε · n^{1+ε} · log n)` backup edges and
/// `O(1/ε · n^{1-ε} · log n)` reinforced edges (Theorem 3.1). This is the one
/// place that picks a branch from `ε`.
pub(crate) fn build_tradeoff_impl(
    graph: &Graph,
    source: VertexId,
    config: &BuildConfig,
) -> FtBfsStructure {
    if config.use_baseline_branch() {
        return build_baseline_impl(graph, source, config);
    }
    if config.eps <= 0.0 {
        return build_reinforced_tree_impl(graph, source, config);
    }
    let start = Instant::now();
    let n = graph.num_vertices();
    let phase_ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;

    // --- Phase S0 ---------------------------------------------------------
    let weights = TieBreakWeights::generate(graph, config.seed);
    let tree = ShortestPathTree::build(graph, &weights, source);
    let dists = ReplacementDistances::compute(graph, &tree, &config.parallel);
    let rp = ReplacementPaths::compute(graph, &weights, &tree, &dists, &config.parallel);

    // H starts as the BFS tree.
    let mut h = BitSet::new(graph.num_edges());
    for &e in tree.tree_edges() {
        h.insert(e.index());
    }
    let num_tree_edges = h.len();

    // --- Interference split ------------------------------------------------
    let interference = InterferenceIndex::build(&rp, &tree, &TreeIndex);
    let (i1, i2) = interference.split_i1_i2();
    let (num_i1, num_i2) = (i1.len(), i2.len());
    let s0_ms = phase_ms(start);

    // --- Phase S1 -----------------------------------------------------------
    let t_s1 = Instant::now();
    let s1 = run_phase_s1(&rp, &interference, config, n, i1, &mut h);
    let s1_ms = phase_ms(t_s1);

    // --- Phase S2 -----------------------------------------------------------
    let t_s2 = Instant::now();
    let mut sim_sets: Vec<Vec<ftb_rp::PairId>> = vec![i2];
    sim_sets.extend(s1.sim_sets.iter().cloned());
    let (s2, hld_levels) = if config.enable_phase_s2 {
        let hld = HeavyPathDecomposition::build(&tree);
        let out = run_phase_s2(&rp, &tree, &hld, config, n, &sim_sets, &mut h);
        (out, hld.num_levels())
    } else {
        (Default::default(), 0)
    };
    let s2_ms = phase_ms(t_s2);

    // --- Reinforcement -------------------------------------------------------
    let t_reinforce = Instant::now();
    // A tree edge is reinforced when some pair's chosen last edge is missing
    // from H (the edge is then possibly last-unprotected); all other tree
    // edges are last-protected and hence protected (Observation 2.2).
    let mut reinforced = BitSet::new(graph.num_edges());
    for &p in rp.uncovered() {
        let item = rp.get(p);
        if !h.contains(item.last_edge.index()) {
            reinforced.insert(item.pair.failing_edge.index());
        }
    }
    if config.exact_reinforcement {
        // Replace by the exact set of unprotected edges (always a subset of
        // the algorithmic set on correct inputs, and never larger than it in
        // effect on validity).
        let exact = unprotected_edges(graph, &tree, &h, &config.parallel);
        reinforced = BitSet::new(graph.num_edges());
        for e in exact {
            reinforced.insert(e.index());
        }
    }

    let stats = BuildStats {
        num_vertices: n,
        num_graph_edges: graph.num_edges(),
        num_tree_edges,
        num_pairs: rp.len(),
        num_uncovered_pairs: rp.uncovered().len(),
        num_i1_pairs: num_i1,
        num_i2_pairs: num_i2,
        s1_iterations: s1.iterations,
        s1_added_edges: s1.added_edges,
        s1_leftover_pairs: s1.leftover_pairs,
        s2_glue_added_edges: s2.glue_added,
        s2_added_edges: s2.added,
        s2_sim_sets: s2.sim_sets_processed,
        reinforced_edges: reinforced.len(),
        hld_levels,
        k_rounds: config.k_rounds(),
        used_baseline: false,
        construction_ms: start.elapsed().as_secs_f64() * 1e3,
        s0_ms,
        s1_ms,
        s2_ms,
        reinforce_ms: phase_ms(t_reinforce),
    };
    FtBfsStructure::new(source, config.eps, h, reinforced, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Sources, StructureBuilder, TradeoffBuilder};
    use crate::verify::verify_structure;
    use ftb_graph::generators;
    use ftb_par::ParallelConfig;
    use ftb_workloads::{families, Workload, WorkloadFamily};

    fn build(
        graph: &Graph,
        source: VertexId,
        config: &BuildConfig,
    ) -> Result<FtBfsStructure, FtbfsError> {
        TradeoffBuilder::from_config(config.clone()).build(graph, &Sources::single(source))
    }

    fn check_valid(graph: &Graph, eps: f64, seed: u64) -> FtBfsStructure {
        let config = BuildConfig::new(eps).with_seed(seed).serial();
        let s = build(graph, VertexId(0), &config).expect("valid input");
        let weights = TieBreakWeights::generate(graph, seed);
        let tree = ShortestPathTree::build(graph, &weights, VertexId(0));
        let report = verify_structure(graph, &tree, &s, &ParallelConfig::serial(), false);
        assert!(
            report.is_valid(),
            "structure invalid (eps={eps}): {} violations over {} checked edges",
            report.violations.len(),
            report.checked_edges
        );
        s
    }

    #[test]
    fn constructed_structures_are_valid_across_eps() {
        let g = families::erdos_renyi_gnp(80, 0.08, 5);
        for eps in [0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 1.0] {
            let s = check_valid(&g, eps, 5);
            assert!(s.num_edges() >= g.num_vertices() - 1);
        }
    }

    #[test]
    fn constructed_structures_are_valid_across_families() {
        for &family in WorkloadFamily::all() {
            let g = Workload::new(family, 70, 11).generate();
            let s = check_valid(&g, 0.3, 11);
            assert!(s.num_edges() <= g.num_edges());
        }
    }

    #[test]
    fn reinforcement_decreases_with_eps() {
        // Larger ε means a larger backup budget and hence fewer reinforced
        // edges (weak monotonicity checked across a coarse grid).
        let g = families::layered_random(8, 12, 3, 0.4, 7);
        let r_small = check_valid(&g, 0.1, 7).num_reinforced();
        let r_big = check_valid(&g, 0.45, 7).num_reinforced();
        assert!(
            r_big <= r_small,
            "reinforcement should not grow with eps: r(0.1)={r_small}, r(0.45)={r_big}"
        );
    }

    #[test]
    fn eps_one_matches_baseline_and_eps_zero_matches_tree() {
        let g = families::erdos_renyi_gnp(60, 0.1, 3);
        let s1 = check_valid(&g, 1.0, 3);
        assert!(s1.stats().used_baseline);
        assert_eq!(s1.num_reinforced(), 0);

        let s0 = check_valid(&g, 0.0, 3);
        assert_eq!(s0.num_backup(), 0);
        assert_eq!(s0.num_edges(), g.num_vertices() - 1);
    }

    #[test]
    fn structure_contains_the_bfs_tree() {
        let g = generators::hypercube(4);
        let config = BuildConfig::new(0.3).serial();
        let s = build(&g, VertexId(0), &config).expect("valid input");
        let weights = TieBreakWeights::generate(&g, config.seed);
        let tree = ShortestPathTree::build(&g, &weights, VertexId(0));
        for &e in tree.tree_edges() {
            assert!(s.contains_edge(e));
        }
    }

    #[test]
    fn exact_reinforcement_is_no_larger_and_stays_valid() {
        let g = families::erdos_renyi_gnp(70, 0.1, 13);
        let approx = BuildConfig::new(0.25).with_seed(13).serial();
        let exact = approx.clone().with_exact_reinforcement(true);
        let sa = build(&g, VertexId(0), &approx).expect("valid input");
        let se = build(&g, VertexId(0), &exact).expect("valid input");
        assert!(se.num_reinforced() <= sa.num_reinforced());
        let weights = TieBreakWeights::generate(&g, 13);
        let tree = ShortestPathTree::build(&g, &weights, VertexId(0));
        assert!(verify_structure(&g, &tree, &se, &ParallelConfig::serial(), false).is_valid());
    }

    #[test]
    fn disabling_phase_s2_keeps_validity_but_costs_reinforcement() {
        let g = families::layered_random(7, 10, 3, 0.4, 17);
        let full = BuildConfig::new(0.2).with_seed(17).serial();
        let ablated = full.clone().with_phase_s2(false);
        let sf = build(&g, VertexId(0), &full).expect("valid input");
        let sa = build(&g, VertexId(0), &ablated).expect("valid input");
        let weights = TieBreakWeights::generate(&g, 17);
        let tree = ShortestPathTree::build(&g, &weights, VertexId(0));
        assert!(verify_structure(&g, &tree, &sa, &ParallelConfig::serial(), false).is_valid());
        assert!(sa.num_reinforced() >= sf.num_reinforced());
    }

    #[test]
    fn hld_levels_are_surfaced_when_phase_s2_runs() {
        let g = families::layered_random(7, 10, 3, 0.4, 23);
        let full = BuildConfig::new(0.2).with_seed(23).serial();
        let s = build(&g, VertexId(0), &full).expect("valid input");
        assert!(
            s.stats().hld_levels >= 1,
            "phase S2 ran, so the decomposition depth must be recorded"
        );
        let ablated = full.clone().with_phase_s2(false);
        let sa = build(&g, VertexId(0), &ablated).expect("valid input");
        assert_eq!(sa.stats().hld_levels, 0, "no S2, no decomposition");
    }

    #[test]
    fn parallel_and_serial_construction_agree() {
        let g = families::erdos_renyi_gnp(60, 0.1, 19);
        let serial = BuildConfig::new(0.3).with_seed(19).serial();
        let parallel = BuildConfig::new(0.3)
            .with_seed(19)
            .with_parallel(ParallelConfig::with_threads(4));
        let ss = build(&g, VertexId(0), &serial).expect("valid input");
        let sp = build(&g, VertexId(0), &parallel).expect("valid input");
        assert_eq!(ss.num_edges(), sp.num_edges());
        assert_eq!(ss.num_reinforced(), sp.num_reinforced());
        assert_eq!(ss.edge_set().to_vec(), sp.edge_set().to_vec());
    }

    #[test]
    fn invalid_inputs_surface_as_typed_errors() {
        let g = generators::grid(4, 4);
        let bad_eps = build(&g, VertexId(0), &BuildConfig::new(2.0));
        assert!(matches!(bad_eps, Err(FtbfsError::InvalidEps { .. })));

        let bad_source = build(&g, VertexId(999), &BuildConfig::new(0.3));
        assert!(matches!(
            bad_source,
            Err(FtbfsError::SourceOutOfRange { .. })
        ));
    }

    #[test]
    fn disconnected_inputs_error_only_when_required() {
        // Two disjoint triangles.
        let mut b = ftb_graph::GraphBuilder::new(6);
        for (x, y) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_edge(VertexId(x), VertexId(y));
        }
        let g = b.build();
        let lenient = BuildConfig::new(0.3).serial();
        let strict = lenient.clone().with_require_connected(true);
        assert!(build(&g, VertexId(0), &lenient).is_ok());
        let err = build(&g, VertexId(0), &strict).unwrap_err();
        assert_eq!(
            err,
            FtbfsError::DisconnectedSource {
                source: VertexId(0),
                num_unreachable: 3
            }
        );
    }
}

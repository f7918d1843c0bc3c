//! Phase S2: handling the `(∼)`-sets via tree and path decompositions.
//!
//! The input is the collection of `(∼)`-sets `S = {P^C_0 = I2, P^C_1, …,
//! P^C_K}` (the initial non-interfering set plus one set per Phase S1 round).
//! Phase S2 proceeds in four sub-phases:
//!
//! * **S2.0** — build the heavy-path decomposition `TD` of `T0`,
//! * **S2.1** — for every terminal add the last edges of the new-ending
//!   replacement paths protecting *glue* edges `E⁻(TD)`,
//! * **S2.2** — per `(∼)`-set and terminal, decompose `π(s, v)` into
//!   `O(log n)` exponentially shrinking segments; *light* segments (fewer
//!   than `⌈n^ε⌉` distinct last edges) are fully covered, and the topmost
//!   protected edge of every segment is always covered,
//! * **S2.3** — per decomposition path `ψ` crossing `π(s, v)`, cover the
//!   topmost protected edge on `ψ ∩ π(s, v)` and fully cover the boundary
//!   segments `π_U`/`π_L` when they are cheap (≤ `⌈n^ε⌉` last edges).
//!
//! Everything added here is a *backup* edge; the edges that remain
//! unprotected at the end of Phase S2 are exactly the ones the driver
//! reinforces.

use crate::config::BuildConfig;
use ftb_graph::{BitSet, EdgeId, VertexId};
use ftb_rp::{PairId, ReplacementPaths};
use ftb_sp::ShortestPathTree;
use ftb_tree::{HeavyPathDecomposition, SegmentDecomposition};
use std::collections::HashMap;

/// Outcome of Phase S2.
#[derive(Clone, Debug, Default)]
pub struct PhaseS2Outcome {
    /// Edges newly added while protecting glue edges (Sub-phase S2.1).
    pub glue_added: usize,
    /// Edges newly added by Sub-phases S2.2–S2.3.
    pub added: usize,
    /// Number of `(∼)`-sets processed.
    pub sim_sets_processed: usize,
}

/// Run Phase S2, inserting last edges into the structure edge set `h`.
pub fn run_phase_s2(
    rp: &ReplacementPaths,
    tree: &ShortestPathTree,
    hld: &HeavyPathDecomposition,
    config: &BuildConfig,
    n: usize,
    sim_sets: &[Vec<PairId>],
    h: &mut BitSet,
) -> PhaseS2Outcome {
    let mut outcome = PhaseS2Outcome::default();
    let budget = config.budget(n);

    // Sub-phase S2.1: protect the glue edges E⁻(TD) for every terminal.
    for &p in rp.uncovered() {
        let item = rp.get(p);
        if hld.is_glue_edge(item.pair.failing_edge) && h.insert(item.last_edge.index()) {
            outcome.glue_added += 1;
        }
    }

    // Sub-phases S2.2 / S2.3, per (∼)-set. A terminal's pairs have
    // consecutive ids, so sorting the set groups it by terminal.
    let mut pairs: Vec<PairId> = Vec::new();
    for sim_set in sim_sets {
        outcome.sim_sets_processed += 1;
        pairs.clone_from(sim_set);
        pairs.sort_unstable();
        let terminal = |p: PairId| rp.get(p).pair.terminal;
        for group in pairs.chunk_by(|&p, &q| terminal(p) == terminal(q)) {
            outcome.added += cover_terminal(rp, tree, hld, budget, terminal(group[0]), group, h);
        }
    }
    outcome
}

/// Sub-phases S2.2 and S2.3 for a fixed `(∼)`-set restricted to terminal `v`.
/// Returns the number of edges newly added to `h`.
fn cover_terminal(
    rp: &ReplacementPaths,
    tree: &ShortestPathTree,
    hld: &HeavyPathDecomposition,
    budget: usize,
    v: VertexId,
    pairs: &[PairId],
    h: &mut BitSet,
) -> usize {
    let mut added = 0usize;
    let Some(depth) = tree.depth(v) else {
        return 0;
    };
    let path_len = depth as usize;
    if path_len == 0 {
        return 0;
    }
    let seg = SegmentDecomposition::new(path_len);
    let pi_edges = tree.path_edges_to(v);

    let add = |edge: EdgeId, h: &mut BitSet, added: &mut usize| {
        if h.insert(edge.index()) {
            *added += 1;
        }
    };

    // --- Sub-phase S2.2: segment covers ---------------------------------
    // Edge index of a pair on π(s, v) is failing_edge_depth - 1.
    let mut per_segment: HashMap<usize, Vec<PairId>> = HashMap::new();
    for &p in pairs {
        let idx = rp.get(p).failing_edge_depth as usize - 1;
        if let Some(j) = seg.segment_of(idx) {
            per_segment.entry(j).or_default().push(p);
        }
    }
    for seg_pairs in per_segment.values() {
        let distinct_last: std::collections::HashSet<usize> = seg_pairs
            .iter()
            .map(|&p| rp.get(p).last_edge.index())
            .collect();
        let light = distinct_last.len() < budget;
        if light {
            for &p in seg_pairs {
                add(rp.get(p).last_edge, h, &mut added);
            }
        }
        // Always cover the first (closest to s) protected edge of the
        // segment so that surviving replacement paths diverge inside it.
        if let Some(&top) = seg_pairs
            .iter()
            .min_by_key(|&&p| rp.get(p).failing_edge_depth)
        {
            add(rp.get(top).last_edge, h, &mut added);
        }
    }

    // --- Sub-phase S2.3: covers along decomposition paths ----------------
    // Group the terminal's pairs by the decomposition path of their failing
    // edge (glue-edge pairs were handled in S2.1).
    let mut per_psi: HashMap<usize, Vec<PairId>> = HashMap::new();
    for &p in pairs {
        if let Some(psi) = hld.path_of_edge(rp.get(p).pair.failing_edge) {
            per_psi.entry(psi.id).or_default().push(p);
        }
    }
    for (psi_id, psi_pairs) in &per_psi {
        // topmost protected edge on ψ ∩ π(s, v)
        if let Some(&top) = psi_pairs
            .iter()
            .min_by_key(|&&p| rp.get(p).failing_edge_depth)
        {
            add(rp.get(top).last_edge, h, &mut added);
        }

        // Which segments of π(s, v) does ψ intersect, and is the
        // intersection proper (segment not fully contained in ψ)?
        let on_psi = |edge_idx: usize| -> bool {
            hld.path_of_edge(pi_edges[edge_idx])
                .map(|p| p.id == *psi_id)
                .unwrap_or(false)
        };
        let mut boundary_segments: Vec<usize> = Vec::new();
        for j in 0..seg.num_segments() {
            let range = seg.segment_range(j);
            let mut any = false;
            let mut all = true;
            for i in range {
                if on_psi(i) {
                    any = true;
                } else {
                    all = false;
                }
            }
            if any && !all {
                boundary_segments.push(j);
            }
        }
        // π_U is the first such segment, π_L the last.
        let candidates: Vec<usize> = match (boundary_segments.first(), boundary_segments.last()) {
            (Some(&f), Some(&l)) if f != l => vec![f, l],
            (Some(&f), _) => vec![f],
            _ => vec![],
        };
        for j in candidates {
            let range = seg.segment_range(j);
            let boundary_pairs: Vec<PairId> = psi_pairs
                .iter()
                .copied()
                .filter(|&p| {
                    let idx = rp.get(p).failing_edge_depth as usize - 1;
                    range.contains(&idx) && on_psi(idx)
                })
                .collect();
            if boundary_pairs.is_empty() {
                continue;
            }
            let distinct_last: std::collections::HashSet<usize> = boundary_pairs
                .iter()
                .map(|&p| rp.get(p).last_edge.index())
                .collect();
            if distinct_last.len() <= budget {
                for &p in &boundary_pairs {
                    add(rp.get(p).last_edge, h, &mut added);
                }
            }
            if let Some(&top) = boundary_pairs
                .iter()
                .min_by_key(|&&p| rp.get(p).failing_edge_depth)
            {
                add(rp.get(top).last_edge, h, &mut added);
            }
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_graph::Graph;
    use ftb_par::ParallelConfig;
    use ftb_rp::InterferenceIndex;
    use ftb_sp::TieBreakWeights;
    use ftb_tree::TreeIndex;
    use ftb_workloads::families;

    struct Fixture {
        graph: Graph,
        tree: ShortestPathTree,
        rp: ReplacementPaths,
        hld: HeavyPathDecomposition,
    }

    fn fixture(graph: Graph, seed: u64) -> Fixture {
        let weights = TieBreakWeights::generate(&graph, seed);
        let tree = ShortestPathTree::build(&graph, &weights, VertexId(0));
        let rp = ReplacementPaths::new(&graph, &weights, &tree, &ParallelConfig::serial());
        let hld = HeavyPathDecomposition::build(&tree);
        Fixture {
            graph,
            tree,
            rp,
            hld,
        }
    }

    #[test]
    fn glue_edge_pairs_are_always_covered() {
        let f = fixture(families::erdos_renyi_gnp(80, 0.08, 5), 5);
        let mut h = BitSet::new(f.graph.num_edges());
        let out = run_phase_s2(
            &f.rp,
            &f.tree,
            &f.hld,
            &BuildConfig::new(0.3),
            f.graph.num_vertices(),
            &[],
            &mut h,
        );
        for &p in f.rp.uncovered() {
            let item = f.rp.get(p);
            if f.hld.is_glue_edge(item.pair.failing_edge) {
                assert!(h.contains(item.last_edge.index()));
            }
        }
        assert_eq!(out.glue_added, h.len());
        assert_eq!(out.sim_sets_processed, 0);
    }

    #[test]
    fn light_segments_are_fully_covered() {
        // With a huge budget every segment is light, so every pair of every
        // (∼)-set must end up with its last edge in H.
        let f = fixture(families::layered_random(6, 10, 3, 0.4, 9), 9);
        let interference = InterferenceIndex::build(&f.rp, &f.tree, &TreeIndex);
        let (_i1, i2) = interference.split_i1_i2();
        let config = BuildConfig {
            budget_override: Some(usize::MAX / 2),
            ..BuildConfig::new(0.3)
        };
        let mut h = BitSet::new(f.graph.num_edges());
        run_phase_s2(
            &f.rp,
            &f.tree,
            &f.hld,
            &config,
            f.graph.num_vertices(),
            std::slice::from_ref(&i2),
            &mut h,
        );
        for &p in &i2 {
            assert!(
                h.contains(f.rp.get(p).last_edge.index()),
                "pair {p} not covered despite unbounded budget"
            );
        }
    }

    #[test]
    fn zero_sim_sets_only_covers_glue_pairs() {
        let f = fixture(families::erdos_renyi_gnp(60, 0.1, 13), 13);
        let mut h = BitSet::new(f.graph.num_edges());
        let out = run_phase_s2(
            &f.rp,
            &f.tree,
            &f.hld,
            &BuildConfig::new(0.25),
            f.graph.num_vertices(),
            &[],
            &mut h,
        );
        assert_eq!(out.added, 0);
        assert_eq!(out.glue_added, h.len());
    }

    #[test]
    fn added_counts_match_inserted_edges() {
        let f = fixture(families::erdos_renyi_gnp(70, 0.1, 17), 17);
        let interference = InterferenceIndex::build(&f.rp, &f.tree, &TreeIndex);
        let (i1, i2) = interference.split_i1_i2();
        let mut h = BitSet::new(f.graph.num_edges());
        let out = run_phase_s2(
            &f.rp,
            &f.tree,
            &f.hld,
            &BuildConfig::new(0.3),
            f.graph.num_vertices(),
            &[i2, i1],
            &mut h,
        );
        assert_eq!(out.glue_added + out.added, h.len());
        assert_eq!(out.sim_sets_processed, 2);
    }

    #[test]
    fn topmost_pair_of_each_segment_is_covered() {
        let f = fixture(families::layered_random(8, 8, 3, 0.3, 21), 21);
        let interference = InterferenceIndex::build(&f.rp, &f.tree, &TreeIndex);
        let (_i1, i2) = interference.split_i1_i2();
        let config = BuildConfig::new(0.2);
        let mut h = BitSet::new(f.graph.num_edges());
        run_phase_s2(
            &f.rp,
            &f.tree,
            &f.hld,
            &config,
            f.graph.num_vertices(),
            std::slice::from_ref(&i2),
            &mut h,
        );
        // For every terminal and segment holding pairs of I2, the pair with
        // the shallowest failing edge must be covered.
        let mut by_terminal: HashMap<VertexId, Vec<PairId>> = HashMap::new();
        for &p in &i2 {
            by_terminal
                .entry(f.rp.get(p).pair.terminal)
                .or_default()
                .push(p);
        }
        for (v, pairs) in by_terminal {
            let depth = f.tree.depth(v).unwrap() as usize;
            let seg = SegmentDecomposition::new(depth);
            let mut per_segment: HashMap<usize, Vec<PairId>> = HashMap::new();
            for &p in &pairs {
                let idx = f.rp.get(p).failing_edge_depth as usize - 1;
                if let Some(j) = seg.segment_of(idx) {
                    per_segment.entry(j).or_default().push(p);
                }
            }
            for (_j, seg_pairs) in per_segment {
                let top = seg_pairs
                    .iter()
                    .min_by_key(|&&p| f.rp.get(p).failing_edge_depth)
                    .copied()
                    .unwrap();
                assert!(h.contains(f.rp.get(top).last_edge.index()));
            }
        }
    }
}

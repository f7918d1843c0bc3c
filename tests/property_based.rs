//! Property-based integration tests: random graphs, random ε, and the
//! defining FT-BFS guarantee checked from scratch.

use ftbfs::graph::VertexId;
use ftbfs::par::ParallelConfig;
use ftbfs::sp::{ShortestPathTree, TieBreakWeights};
use ftbfs::workloads::families;
use ftbfs::{verify_structure, Sources, StructureBuilder, TradeoffBuilder};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: for any connected random graph and any ε, the
    /// constructed structure verifies against the definition.
    #[test]
    fn constructed_structures_always_verify(
        n in 20usize..70,
        avg_degree in 3usize..8,
        eps in 0.05f64..0.95,
        seed in 0u64..1000,
    ) {
        let m = n * avg_degree / 2;
        let graph = families::erdos_renyi_gnm(n, m, seed);
        let structure = TradeoffBuilder::new(eps)
            .with_config(|c| c.with_seed(seed).serial())
            .build(&graph, &Sources::single(VertexId(0)))
            .expect("generated workloads are valid input");

        // structural invariants
        prop_assert!(structure.num_edges() <= graph.num_edges());
        prop_assert_eq!(
            structure.num_edges(),
            structure.num_backup() + structure.num_reinforced()
        );

        let weights = TieBreakWeights::generate(&graph, seed);
        let tree = ShortestPathTree::build(&graph, &weights, VertexId(0));
        // the BFS tree is always contained
        for &e in tree.tree_edges() {
            prop_assert!(structure.contains_edge(e));
        }
        // and the structure verifies
        let report = verify_structure(&graph, &tree, &structure, &ParallelConfig::serial(), false);
        prop_assert!(
            report.is_valid(),
            "eps={}, seed={}: {} violations",
            eps, seed, report.violations.len()
        );
    }

    /// The ε = 0 extreme always degenerates to the reinforced BFS tree.
    #[test]
    fn eps_zero_is_always_the_reinforced_tree(
        n in 15usize..60,
        seed in 0u64..500,
    ) {
        let graph = families::erdos_renyi_gnp(n, 0.15, seed);
        let structure = TradeoffBuilder::new(0.0)
            .with_config(|c| c.with_seed(seed))
            .build(&graph, &Sources::single(VertexId(0)))
            .expect("valid input");
        prop_assert_eq!(structure.num_backup(), 0);
        prop_assert_eq!(structure.num_edges(), graph.num_vertices() - 1);
        prop_assert_eq!(structure.num_reinforced(), graph.num_vertices() - 1);
    }

    /// The baseline branch (ε ≥ 1/2) never reinforces anything.
    #[test]
    fn baseline_branch_never_reinforces(
        n in 15usize..60,
        eps in 0.5f64..1.0,
        seed in 0u64..500,
    ) {
        let graph = families::erdos_renyi_gnp(n, 0.2, seed);
        let structure = TradeoffBuilder::new(eps)
            .with_config(|c| c.with_seed(seed))
            .build(&graph, &Sources::single(VertexId(0)))
            .expect("valid input");
        prop_assert_eq!(structure.num_reinforced(), 0);
        prop_assert!(structure.stats().used_baseline);
    }

    /// The augmented structures: on random graphs, a dual-failure
    /// augmentation answers every sampled `|F| ≤ 2` set exactly like
    /// brute-force BFS, and no covered set ever reaches the full-graph
    /// fallback tier.
    #[test]
    fn augmented_structures_agree_with_brute_force(
        n in 16usize..36,
        avg_degree in 3usize..7,
        eps in 0.05f64..0.95,
        seed in 0u64..1000,
    ) {
        use ftbfs::graph::{enumerate_fault_sets, Graph};
        use ftbfs::sp::UNREACHABLE;
        use ftbfs::{
            dist_after_faults_brute, AugmentCoverage, BuildConfig, EngineCore, FtBfsAugmenter,
            TradeoffBuilder,
        };

        let m = n * avg_degree / 2;
        let graph: Graph = families::erdos_renyi_gnm(n, m, seed);
        let config = BuildConfig::new(eps)
            .with_seed(seed)
            .serial()
            .with_augment(AugmentCoverage::DualFailure);
        let structure = TradeoffBuilder::from_config(config.clone())
            .build(&graph, &Sources::single(VertexId(0)))
            .expect("generated workloads are valid input");
        let augmented = FtBfsAugmenter::from_build_config(&config)
            .augment(&graph, structure)
            .expect("matching graph");
        prop_assert!(augmented.num_edges() <= graph.num_edges());
        prop_assert!(augmented.num_edges() >= augmented.base().num_edges());
        let core = EngineCore::build_augmented(&graph, augmented).expect("matching graph");
        let mut ctx = core.new_context();
        let sets = enumerate_fault_sets(&graph, 2);
        let mut fallback_queries = 0usize;
        for faults in sets.iter().step_by(13) {
            let brute = dist_after_faults_brute(&graph, VertexId(0), faults);
            let is_covered = faults.len() <= 2 && faults.vertices().count() <= 1;
            for v in graph.vertices().step_by(2) {
                let got = ctx.dist_after_faults(&core, v, faults).expect("in range");
                let want = (brute[v.index()] != UNREACHABLE).then_some(brute[v.index()]);
                prop_assert_eq!(
                    got, want,
                    "eps={}, seed={}: {:?} under {}", eps, seed, v, faults
                );
                if !is_covered {
                    fallback_queries += 1;
                }
            }
        }
        let stats = ctx.stats();
        // Covered sets must stay off the full-graph tier; uncovered-set
        // queries split between the fallback and the unaffected fast path
        // (targets whose tree path provably avoids both faults), so the
        // fallback tier is bounded by the uncovered query count.
        prop_assert!(
            stats.tiers.full_graph_bfs <= fallback_queries,
            "covered sets must stay off the full-graph tier (seed={})",
            seed
        );
        prop_assert_eq!(stats.tiers.total(), stats.queries);
    }

    /// The incremental row repair: on random graphs with random ε, the
    /// default engine (repair + unaffected fast path) and a forced
    /// full-sweep engine produce byte-identical answers — distances *and*
    /// extracted paths, whose last edge is the row's parent entry, so this
    /// pins the parent rows too — for every sampled fault set of size ≤ 2.
    #[test]
    fn repaired_rows_agree_with_forced_full_sweeps(
        n in 14usize..36,
        avg_degree in 3usize..7,
        eps in 0.1f64..0.9,
        seed in 0u64..1000,
    ) {
        use ftbfs::graph::enumerate_fault_sets;
        use ftbfs::{EngineCore, EngineOptions};

        let m = n * avg_degree / 2;
        let graph = families::erdos_renyi_gnm(n, m, seed);
        let structure = TradeoffBuilder::new(eps)
            .with_config(|c| c.with_seed(seed).serial())
            .build(&graph, &Sources::single(VertexId(0)))
            .expect("generated workloads are valid input");
        // Repair pinned on so the differential survives a test run under
        // FTBFS_FORCE_FULL_SWEEP=1 (CI covers that mode for the whole suite).
        let repaired = EngineCore::build_with(
            &graph,
            structure.clone(),
            EngineOptions::new().serial().with_force_full_sweep(false),
        )
        .expect("matching graph");
        let full = EngineCore::build_with(
            &graph,
            structure,
            EngineOptions::new().serial().with_force_full_sweep(true),
        )
        .expect("matching graph");
        let (mut rctx, mut fctx) = (repaired.new_context(), full.new_context());
        for faults in enumerate_fault_sets(&graph, 2).iter().step_by(9) {
            for v in graph.vertices().step_by(2) {
                prop_assert_eq!(
                    rctx.dist_after_faults(&repaired, v, faults).expect("in range"),
                    fctx.dist_after_faults(&full, v, faults).expect("in range"),
                    "eps={}, seed={}: dist({:?}) under {}", eps, seed, v, faults
                );
                prop_assert_eq!(
                    rctx.path_after_faults(&repaired, v, faults).expect("in range"),
                    fctx.path_after_faults(&full, v, faults).expect("in range"),
                    "eps={}, seed={}: path({:?}) under {}", eps, seed, v, faults
                );
            }
        }
        prop_assert_eq!(fctx.stats().repaired_rows, 0);
        let stats = rctx.stats();
        prop_assert_eq!(stats.tiers.total(), stats.queries);
    }

    /// The generalised fault model: on random graphs with random ε, every
    /// fault set of size ≤ 2 (edges, vertices and mixed) answers exactly
    /// like brute-force BFS over the masked graph — per query, and again as
    /// one batch sharded over four workers.
    #[test]
    fn fault_set_queries_agree_with_brute_force(
        n in 16usize..40,
        avg_degree in 3usize..7,
        eps in 0.05f64..0.95,
        seed in 0u64..1000,
    ) {
        use ftbfs::graph::{enumerate_fault_sets, Graph};
        use ftbfs::sp::UNREACHABLE;
        use ftbfs::par::ParallelConfig;
        use ftbfs::{dist_after_faults_brute, EngineCore, EngineOptions};

        let m = n * avg_degree / 2;
        let graph: Graph = families::erdos_renyi_gnm(n, m, seed);
        let structure = TradeoffBuilder::new(eps)
            .with_config(|c| c.with_seed(seed).serial())
            .build(&graph, &Sources::single(VertexId(0)))
            .expect("generated workloads are valid input");
        let core = EngineCore::build(&graph, structure.clone()).expect("matching graph");
        let mut ctx = core.new_context();
        // Sample the |F| ≤ 2 space: checking every set of every case would
        // dominate the whole suite's runtime.
        let sets = enumerate_fault_sets(&graph, 2);
        let mut queries = Vec::new();
        let mut answers = Vec::new();
        for faults in sets.iter().step_by(11) {
            let brute = dist_after_faults_brute(&graph, VertexId(0), faults);
            for v in graph.vertices() {
                let got = ctx.dist_after_faults(&core, v, faults).expect("in range");
                let want = (brute[v.index()] != UNREACHABLE).then_some(brute[v.index()]);
                prop_assert_eq!(
                    got, want,
                    "eps={}, seed={}: {:?} under {}", eps, seed, v, faults
                );
                queries.push((VertexId(0), v, faults.clone()));
                answers.push(got);
            }
        }
        // The same queries as one batch, sharded over four workers.
        let sharded = EngineCore::build_with(
            &graph,
            structure,
            EngineOptions::new().with_parallel(ParallelConfig::with_threads(4)),
        )
        .expect("matching graph");
        let batch = sharded
            .new_context()
            .query_many_faults(&sharded, &queries)
            .expect("in range");
        prop_assert_eq!(batch, answers, "eps={}, seed={}: sharded batch", eps, seed);
    }
}

//! The augmented-structure serving suite: replacement-path augmentation
//! (`ftb_core::ftbfs`) cross-checked against brute-force BFS over every
//! workload family, with counter-based assertions that tier routing sends
//! every covered fault set to the sparse tiers — never to a full-graph
//! recomputation.
//!
//! CI runs this file as a dedicated step with `FTBFS_FORCE_THREADS=4`
//! alongside the multi-fault suite, so the augmentation sweeps and the
//! sharded batch path both run multi-threaded even on small runners.
//! Its `#[ignore]`d benchmark-size check runs in release as a step of its
//! own: `cargo test --release --test augmented -- --ignored`.

use ftbfs::graph::{enumerate_fault_sets, Fault, FaultSet, VertexId};
use ftbfs::par::ParallelConfig;
use ftbfs::sp::UNREACHABLE;
use ftbfs::workloads::{FaultScenario, Workload, WorkloadFamily};
use ftbfs::{
    cross_check_fault_sets, dist_after_faults_brute, AugmentCoverage, AugmentedStructure,
    BuildConfig, EngineCore, EngineOptions, FtBfsAugmenter, Sources, StructureBuilder,
    TradeoffBuilder,
};

const SEED: u64 = 0xA462;

fn augmented(graph: &ftbfs::graph::Graph, coverage: AugmentCoverage) -> AugmentedStructure {
    let config = BuildConfig::new(0.3)
        .with_seed(SEED)
        .serial()
        .with_augment(coverage);
    let structure = TradeoffBuilder::from_config(config.clone())
        .build(graph, &Sources::single(VertexId(0)))
        .expect("workload graphs with source 0 are valid input");
    FtBfsAugmenter::from_build_config(&config)
        .augment(graph, structure)
        .expect("matching graph")
}

fn brute(graph: &ftbfs::graph::Graph, s: VertexId, v: VertexId, faults: &FaultSet) -> Option<u32> {
    let d = dist_after_faults_brute(graph, s, faults)[v.index()];
    (d != UNREACHABLE).then_some(d)
}

/// `|F| ≤ 2` with at most one vertex fault: the family the dual-failure
/// augmentation covers.
fn covered(faults: &FaultSet) -> bool {
    faults.len() <= 2 && faults.vertices().count() <= 1
}

/// Acceptance criterion, first half: on an augmented build, **all** answers
/// (covered or fallback) match brute-force BFS on every fault set of size
/// ≤ 2 over every workload family.
#[test]
fn every_workload_family_augmented_is_exact_on_all_fault_sets_up_to_two() {
    for &family in WorkloadFamily::all() {
        let w = Workload::new(family, 26, SEED);
        let (name, graph) = (w.label(), w.generate());
        let aug = augmented(&graph, AugmentCoverage::DualFailure);
        let core = EngineCore::build_augmented(&graph, aug).expect("matching graph");
        let sets = enumerate_fault_sets(&graph, 2);
        let mismatches = cross_check_fault_sets(&core, &sets, &ParallelConfig::default())
            .expect("enumerated sets are valid");
        assert!(
            mismatches.is_empty(),
            "{name}: {} of {} fault sets diverged; first: {:?}",
            mismatches.len(),
            sets.len(),
            mismatches.first()
        );
    }
}

/// Acceptance criterion, second half: every `|F| ≤ 2` query with at most
/// one vertex fault is answered without a full-graph BFS — asserted through
/// the per-tier counters, not inferred.
#[test]
fn covered_fault_sets_never_touch_the_full_graph_tier() {
    for &family in [WorkloadFamily::GridChords, WorkloadFamily::ErdosRenyi].iter() {
        let w = Workload::new(family, 30, SEED);
        let (name, graph) = (w.label(), w.generate());
        let aug = augmented(&graph, AugmentCoverage::DualFailure);
        let core = EngineCore::build_augmented(&graph, aug).expect("matching graph");
        let mut ctx = core.new_context();
        let mut queries = 0usize;
        for faults in enumerate_fault_sets(&graph, 2)
            .iter()
            .filter(|f| covered(f))
        {
            for v in graph.vertices().step_by(3) {
                let got = ctx.dist_after_faults(&core, v, faults).expect("in range");
                assert_eq!(
                    got,
                    brute(&graph, VertexId(0), v, faults),
                    "{name}: {v:?} under {faults}"
                );
                queries += 1;
            }
        }
        let stats = ctx.stats();
        assert_eq!(stats.queries, queries);
        assert_eq!(
            stats.tiers.full_graph_bfs, 0,
            "{name}: a covered fault set was routed to the full-graph tier"
        );
        assert_eq!(stats.full_graph_bfs_runs, 0, "{name}: a full-graph BFS ran");
        assert_eq!(
            stats.tiers.total(),
            stats.queries,
            "tiers must sum to queries"
        );
        assert!(
            stats.tiers.augmented_bfs > 0,
            "{name}: augmented tier never fired"
        );
    }
}

/// Single-vertex-fault and dual-edge-fault queries on an augmented build
/// never take the `full_graph_bfs` tier (satellite: counter-based routing
/// assertions per fault kind).
#[test]
fn vertex_and_dual_edge_faults_route_to_the_augmented_tier() {
    let graph = Workload::new(WorkloadFamily::LayeredDeep, 36, SEED).generate();
    let aug = augmented(&graph, AugmentCoverage::DualFailure);
    let core = EngineCore::build_augmented(&graph, aug).expect("matching graph");
    let mut ctx = core.new_context();

    // every single vertex fault
    for v in graph.vertices().skip(1) {
        let faults = FaultSet::single_vertex(v);
        for probe in graph.vertices().step_by(5) {
            let got = ctx
                .dist_after_faults(&core, probe, &faults)
                .expect("in range");
            assert_eq!(got, brute(&graph, VertexId(0), probe, &faults));
        }
    }
    // a spread of dual edge faults
    let m = graph.num_edges() as u32;
    for (a, b) in (0..m).zip((0..m).skip(7)).step_by(5) {
        let faults: FaultSet = [
            Fault::Edge(ftbfs::graph::EdgeId(a)),
            Fault::Edge(ftbfs::graph::EdgeId(b)),
        ]
        .into_iter()
        .collect();
        for probe in graph.vertices().step_by(9) {
            let got = ctx
                .dist_after_faults(&core, probe, &faults)
                .expect("in range");
            assert_eq!(got, brute(&graph, VertexId(0), probe, &faults));
        }
    }
    let stats = ctx.stats();
    assert_eq!(stats.tiers.full_graph_bfs, 0);
    assert_eq!(stats.full_graph_bfs_runs, 0);
    assert!(stats.tiers.augmented_bfs > 0);
}

/// Two simultaneous vertex faults are outside every published sparse
/// structure: they stay exact through the full-graph fallback (recorded as
/// future work in the ROADMAP).
#[test]
fn dual_vertex_faults_fall_back_to_the_full_graph_tier() {
    let graph = Workload::new(WorkloadFamily::GridChords, 25, SEED).generate();
    let aug = augmented(&graph, AugmentCoverage::DualFailure);
    let core = EngineCore::build_augmented(&graph, aug).expect("matching graph");
    let mut ctx = core.new_context();
    let faults: FaultSet = [Fault::Vertex(VertexId(3)), Fault::Vertex(VertexId(7))]
        .into_iter()
        .collect();
    for v in graph.vertices() {
        let got = ctx.dist_after_faults(&core, v, &faults).expect("in range");
        assert_eq!(got, brute(&graph, VertexId(0), v, &faults));
    }
    let stats = ctx.stats();
    // Dual vertex faults never use the augmented tier: every query is
    // either answered by the exact full-graph fallback or — for targets
    // whose tree path provably avoids both vertices — by the O(1)
    // unaffected fast path straight off the fault-free row.
    assert_eq!(stats.tiers.augmented_bfs, 0);
    assert_eq!(stats.tiers.sparse_h_bfs, 0);
    assert_eq!(
        stats.tiers.full_graph_bfs + stats.tiers.unaffected_fast_path,
        stats.queries
    );
    assert!(stats.full_graph_bfs_runs > 0, "the fallback must have run");
}

/// Single-fault coverage serves singles sparsely but sends dual failures to
/// the fallback — coverage is a contract, not a heuristic.
#[test]
fn single_fault_coverage_serves_singles_but_not_duals() {
    let graph = Workload::new(WorkloadFamily::Hypercube, 32, SEED).generate();
    let aug = augmented(&graph, AugmentCoverage::SingleFault);
    assert_eq!(aug.coverage(), AugmentCoverage::SingleFault);
    let core = EngineCore::build_augmented(&graph, aug).expect("matching graph");
    let mut ctx = core.new_context();

    let vertex_fault = FaultSet::single_vertex(VertexId(5));
    for v in graph.vertices() {
        let got = ctx
            .dist_after_faults(&core, v, &vertex_fault)
            .expect("in range");
        assert_eq!(got, brute(&graph, VertexId(0), v, &vertex_fault));
    }
    let after_singles = ctx.stats();
    assert_eq!(after_singles.tiers.full_graph_bfs, 0);
    assert!(after_singles.tiers.augmented_bfs > 0);

    let dual: FaultSet = [
        Fault::Edge(ftbfs::graph::EdgeId(0)),
        Fault::Edge(ftbfs::graph::EdgeId(3)),
    ]
    .into_iter()
    .collect();
    for v in graph.vertices() {
        let got = ctx.dist_after_faults(&core, v, &dual).expect("in range");
        assert_eq!(got, brute(&graph, VertexId(0), v, &dual));
    }
    let stats = ctx.stats();
    assert!(
        stats.tiers.full_graph_bfs > 0,
        "dual failures are outside SingleFault coverage"
    );
}

/// The hypothetical failure of a reinforced edge — previously always a
/// full-graph recomputation — is served by the augmented tier.
#[test]
fn reinforced_edge_hypotheticals_use_the_augmented_tier() {
    let graph = Workload::new(WorkloadFamily::ErdosRenyi, 32, SEED).generate();
    // The reinforced tree reinforces every tree edge, so every structure
    // edge exercises the hypothetical-failure path.
    let base = TradeoffBuilder::new(0.0)
        .with_config(|c| c.with_seed(SEED).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    assert!(base.num_reinforced() > 0);
    let reinforced: Vec<_> = base.reinforced_edges().collect();
    let aug = FtBfsAugmenter::new(AugmentCoverage::SingleFault)
        .with_seed(SEED)
        .serial()
        .augment(&graph, base)
        .expect("matching graph");
    let core = EngineCore::build_augmented(&graph, aug).expect("matching graph");
    let mut ctx = core.new_context();
    for &e in reinforced.iter().step_by(3) {
        let faults = FaultSet::single_edge(e);
        for v in graph.vertices().step_by(4) {
            let got = ctx.dist_after_faults(&core, v, &faults).expect("in range");
            assert_eq!(got, brute(&graph, VertexId(0), v, &faults), "edge {e:?}");
        }
    }
    let stats = ctx.stats();
    assert_eq!(stats.tiers.full_graph_bfs, 0);
    assert_eq!(
        stats.tiers.sparse_h_bfs, 0,
        "reinforced edges skip the H tier"
    );
    assert!(stats.tiers.augmented_bfs > 0);
}

/// Every scenario family, restricted to its covered sets, is answered
/// exactly through batches — serial and sharded byte-identical, with the
/// full-graph tier untouched.
#[test]
fn scenario_batches_on_augmented_builds_avoid_full_graph_bfs() {
    let graph = Workload::new(WorkloadFamily::LayeredShallow, 40, SEED).generate();
    let aug = augmented(&graph, AugmentCoverage::DualFailure);
    for &scenario in FaultScenario::all() {
        for f in [1usize, 2] {
            let fault_sets: Vec<FaultSet> = scenario
                .generate(&graph, VertexId(0), f, 12, SEED)
                .into_iter()
                .filter(|fs| covered(fs) && !fs.is_empty())
                .collect();
            let queries: Vec<(VertexId, VertexId, FaultSet)> = fault_sets
                .iter()
                .flat_map(|fs| graph.vertices().map(move |v| (VertexId(0), v, fs.clone())))
                .collect();
            if queries.is_empty() {
                continue;
            }
            let serial = EngineCore::build_augmented_with(
                &graph,
                aug.clone(),
                EngineOptions::new().serial(),
            )
            .expect("matching graph");
            let mut serial_ctx = serial.new_context();
            let expected = serial_ctx
                .query_many_faults(&serial, &queries)
                .expect("in range");
            for (i, (_, v, fs)) in queries.iter().enumerate() {
                assert_eq!(
                    expected[i],
                    brute(&graph, VertexId(0), *v, fs),
                    "{}: f={f} {v:?} {fs}",
                    scenario.name()
                );
            }
            let serial_stats = serial_ctx.stats();
            assert_eq!(
                serial_stats.tiers.full_graph_bfs,
                0,
                "{}: f={f} full-graph tier on covered sets",
                scenario.name()
            );
            let sharded = EngineCore::build_augmented_with(
                &graph,
                aug.clone(),
                EngineOptions::new().with_parallel(ParallelConfig::with_threads(4)),
            )
            .expect("matching graph");
            let mut sharded_ctx = sharded.new_context();
            assert_eq!(
                sharded_ctx
                    .query_many_faults(&sharded, &queries)
                    .expect("in range"),
                expected,
                "{}: f={f} sharded diverged",
                scenario.name()
            );
            let sharded_stats = sharded_ctx.stats();
            assert_eq!(sharded_stats.tiers.full_graph_bfs, 0);
            assert_eq!(sharded_stats.queries, serial_stats.queries);
            assert_eq!(sharded_stats.tiers.total(), sharded_stats.queries);
        }
    }
}

/// Multi-source augmentation: per-source fault-set answers match brute
/// force, and covered sets stay off the full-graph tier for every source.
#[test]
fn multi_source_augmented_engine_is_exact_for_every_source() {
    let graph = Workload::new(WorkloadFamily::LayeredShallow, 24, SEED).generate();
    let sources = vec![VertexId(0), VertexId(5), VertexId(11)];
    let mbfs = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(SEED).serial())
        .build_multi(&graph, &Sources::multi(sources.clone()))
        .expect("valid input");
    let aug = FtBfsAugmenter::new(AugmentCoverage::DualFailure)
        .with_seed(SEED)
        .serial()
        .augment_multi(&graph, mbfs)
        .expect("matching graph");
    assert_eq!(aug.sources(), &sources[..]);
    let core = EngineCore::build_augmented(&graph, aug).expect("matching graph");
    let mut ctx = core.new_context();
    for faults in enumerate_fault_sets(&graph, 2).iter().step_by(5) {
        for &s in &sources {
            for v in graph.vertices().step_by(3) {
                let got = ctx
                    .dist_after_faults_from(&core, s, v, faults)
                    .expect("in range");
                assert_eq!(
                    got,
                    brute(&graph, s, v, faults),
                    "source {s:?} under {faults}"
                );
            }
        }
    }
    let stats = ctx.stats();
    assert_eq!(stats.tiers.total(), stats.queries);
    // Only sets with two vertex faults may have used the fallback; targets
    // provably unaffected by them are answered by the fast path instead,
    // so the fallback tier is bounded by (not equal to) the uncovered
    // query count.
    let uncovered_queries: usize = enumerate_fault_sets(&graph, 2)
        .iter()
        .step_by(5)
        .filter(|f| !covered(f))
        .count()
        * sources.len()
        * graph.vertices().step_by(3).count();
    assert!(stats.tiers.full_graph_bfs <= uncovered_queries);
    assert!(
        stats.tiers.full_graph_bfs > 0,
        "some dual-vertex query must have needed the fallback row"
    );
}

/// Augmentation bookkeeping is visible end to end: structure stats, core
/// accessors, and the `H ⊆ H⁺ ⊆ G` sandwich.
#[test]
fn augmentation_stats_and_core_accessors_are_reported() {
    let graph = Workload::new(WorkloadFamily::GridChords, 49, SEED).generate();
    let aug = augmented(&graph, AugmentCoverage::DualFailure);
    assert!(aug.num_edges() >= aug.base().num_edges());
    assert!(aug.num_edges() <= graph.num_edges());
    assert_eq!(aug.added_edges(), aug.num_edges() - aug.base().num_edges());
    let stats = aug.stats().clone();
    assert_eq!(stats.base_edges, aug.base().num_edges());
    assert!(stats.single_passes > 0);
    assert!(stats.dual_passes > 0);
    assert_eq!(
        stats.total_added(),
        aug.added_edges(),
        "stats must account for every added edge"
    );
    let expected_edges = aug.num_edges();
    let core = EngineCore::build_augmented(&graph, aug).expect("matching graph");
    assert_eq!(core.augment_coverage(), AugmentCoverage::DualFailure);
    assert_eq!(core.augmented_edges(), Some(expected_edges));
}

/// DualFailure at the end-to-end benchmark's size: `H⁺` of both n = 2000
/// graphs (seed 7) against brute-force BFS on 1,000 seeded two-fault sets
/// with at most one vertex fault, every vertex, and every set answered off
/// the full-graph tier. Release only:
/// `cargo test --release --test augmented -- --ignored`.
#[test]
#[ignore = "benchmark-size check; run in release with --ignored"]
fn dual_failure_is_exact_at_benchmark_size() {
    const SETS: usize = 1000;
    let scenarios = [
        FaultScenario::RandomEdges,
        FaultScenario::RandomMixed,
        FaultScenario::TreeConcentrated,
    ];
    for family in [WorkloadFamily::ErdosRenyi, WorkloadFamily::LayeredDeep] {
        let w = Workload::new(family, 2000, 7);
        let (name, graph) = (w.label(), w.generate());
        let config = BuildConfig::new(0.3)
            .with_seed(7)
            .with_augment(AugmentCoverage::DualFailure);
        let structure = TradeoffBuilder::from_config(config.clone())
            .build(&graph, &Sources::single(VertexId(0)))
            .expect("valid input");
        let aug = FtBfsAugmenter::from_build_config(&config)
            .augment(&graph, structure)
            .expect("matching graph");
        let core = EngineCore::build_augmented(&graph, aug).expect("matching graph");
        let mut seen = std::collections::HashSet::new();
        let mut sets: Vec<FaultSet> = Vec::new();
        for (i, scenario) in scenarios.iter().enumerate() {
            let want = SETS * (i + 1) / scenarios.len() - sets.len();
            let drawn = scenario.generate(&graph, VertexId(0), 2, 4 * want, SEED);
            sets.extend(
                drawn
                    .into_iter()
                    .filter(|set| set.len() == 2 && covered(set) && seen.insert(set.clone()))
                    .take(want),
            );
        }
        assert_eq!(sets.len(), SETS, "{name}: too few distinct sets");
        let mismatches = cross_check_fault_sets(&core, &sets, &ParallelConfig::default())
            .expect("generated sets are valid");
        assert!(
            mismatches.is_empty(),
            "{name}: {} answers diverged; first: {:?}",
            mismatches.len(),
            mismatches.first()
        );
        let mut ctx = core.new_context();
        let all: Vec<VertexId> = graph.vertices().collect();
        for faults in &sets {
            ctx.dist_many_after_faults(&core, &all, faults)
                .expect("in range");
        }
        let tiers = ctx.stats().tiers;
        assert!(
            tiers.augmented_bfs > 0,
            "{name}: augmented tier never fired"
        );
        assert_eq!(
            tiers.full_graph_bfs, 0,
            "{name}: a covered set reached the full-graph tier"
        );
    }
}

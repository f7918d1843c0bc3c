//! The incremental row-repair suite: repaired post-failure rows must be
//! **byte-identical** to the rows a full CSR sweep produces, across every
//! workload family, every fault-scenario family, every serving tier
//! (`sparse_h_bfs`, `augmented_bfs`, `full_graph_bfs`) and multi-source
//! cores.
//!
//! "Byte-identical" is asserted through the public API: equal distances for
//! every vertex *and* equal extracted paths — a path's final edge is the
//! row's parent entry of its target, so all-vertex path equality pins the
//! parent rows too. The reference engine is the same build with
//! [`EngineOptions::with_force_full_sweep`] (the `FTBFS_FORCE_FULL_SWEEP`
//! escape hatch), which disables both the repair and the unaffected-target
//! fast path.
//!
//! CI runs this file as a dedicated step with `FTBFS_FORCE_THREADS=4` so
//! sharded batches exercise the repair path per worker context.

use ftbfs::graph::{enumerate_fault_sets, Fault, FaultSet, VertexId};
use ftbfs::workloads::{FaultScenario, Workload, WorkloadFamily};
use ftbfs::{
    dist_after_faults_brute, AugmentCoverage, BuildConfig, EngineCore, EngineOptions,
    FtBfsAugmenter, QueryContext, Sources, StructureBuilder, TradeoffBuilder,
};
use std::collections::HashSet;

/// The "repaired" side of every comparison pins the repair path **on**
/// explicitly, so this differential suite keeps testing repair-vs-full even
/// when the whole test run is executed under `FTBFS_FORCE_FULL_SWEEP=1`
/// (CI does exactly that to exercise the escape hatch).
fn repaired_options() -> EngineOptions {
    EngineOptions::new().serial().with_force_full_sweep(false)
}

const SEED: u64 = 0x0E11;

fn small_workloads(target_n: usize) -> Vec<(String, ftbfs::graph::Graph)> {
    WorkloadFamily::all()
        .iter()
        .map(|&family| {
            let w = Workload::new(family, target_n, SEED);
            (w.label(), w.generate())
        })
        .collect()
}

/// A core plus one context on it: one side of a repaired-vs-forced
/// comparison.
fn side(core: EngineCore) -> (EngineCore, QueryContext) {
    let ctx = core.new_context();
    (core, ctx)
}

/// Assert the repaired engine and the forced-full-sweep engine agree on
/// every vertex's distance and path under `faults` — i.e. the underlying
/// rows are byte-identical.
fn assert_rows_identical(
    name: &str,
    graph: &ftbfs::graph::Graph,
    (repaired, rctx): &mut (EngineCore, QueryContext),
    (full, fctx): &mut (EngineCore, QueryContext),
    faults: &FaultSet,
) {
    for v in graph.vertices() {
        let d_rep = rctx
            .dist_after_faults(repaired, v, faults)
            .expect("in range");
        let d_full = fctx.dist_after_faults(full, v, faults).expect("in range");
        assert_eq!(d_rep, d_full, "{name}: dist({v:?}) under {faults}");
        let p_rep = rctx
            .path_after_faults(repaired, v, faults)
            .expect("in range");
        let p_full = fctx.path_after_faults(full, v, faults).expect("in range");
        assert_eq!(p_rep, p_full, "{name}: path({v:?}) under {faults}");
    }
}

/// Sparse-H tier: every single structure-edge failure on every workload
/// family repairs to exactly the full sweep's row.
#[test]
fn sparse_tier_repairs_are_byte_identical_on_every_workload_family() {
    for (name, graph) in small_workloads(26) {
        let structure = TradeoffBuilder::new(0.3)
            .with_config(|c| c.with_seed(SEED).serial())
            .build(&graph, &Sources::single(VertexId(0)))
            .unwrap_or_else(|e| panic!("{name}: build failed: {e}"));
        let mut repaired = side(
            EngineCore::build_with(&graph, structure.clone(), repaired_options())
                .expect("matching graph"),
        );
        let mut full = side(
            EngineCore::build_with(
                &graph,
                structure,
                EngineOptions::new().serial().with_force_full_sweep(true),
            )
            .expect("matching graph"),
        );
        for e in graph.edge_ids() {
            assert_rows_identical(&name, &graph, &mut repaired, &mut full, &FaultSet::from(e));
        }
        let stats = repaired.1.stats();
        assert!(stats.repaired_rows > 0, "{name}: the repair path never ran");
        assert_eq!(
            full.1.stats().repaired_rows,
            0,
            "{name}: the forced engine must never repair"
        );
    }
}

/// Augmented tier: every |F| ≤ 2 fault set (vertex faults, dual failures,
/// reinforced hypotheticals) on an augmented build repairs to exactly the
/// full sweep's row over `H⁺ ∖ F`.
#[test]
fn augmented_tier_repairs_are_byte_identical() {
    for family in [WorkloadFamily::GridChords, WorkloadFamily::Hypercube] {
        let w = Workload::new(family, 24, SEED);
        let (name, graph) = (w.label(), w.generate());
        let config = BuildConfig::new(0.3)
            .with_seed(SEED)
            .serial()
            .with_augment(AugmentCoverage::DualFailure);
        let structure = TradeoffBuilder::from_config(config.clone())
            .build(&graph, &Sources::single(VertexId(0)))
            .expect("valid input");
        let augmented = FtBfsAugmenter::from_build_config(&config)
            .augment(&graph, structure)
            .expect("matching graph");
        let mut repaired = side(
            EngineCore::build_augmented_with(&graph, augmented.clone(), repaired_options())
                .expect("matching graph"),
        );
        let mut full = side(
            EngineCore::build_augmented_with(
                &graph,
                augmented,
                EngineOptions::new().serial().with_force_full_sweep(true),
            )
            .expect("matching graph"),
        );
        for faults in enumerate_fault_sets(&graph, 2).iter().step_by(3) {
            assert_rows_identical(&name, &graph, &mut repaired, &mut full, faults);
        }
        let stats = repaired.1.stats();
        assert!(stats.repaired_rows > 0, "{name}: repair never ran");
        assert!(
            stats.augmented_bfs_runs > 0,
            "{name}: the augmented tier never served"
        );
    }
}

/// Full-graph tier: on plain (non-augmented) builds every |F| ≤ 2 fault
/// set outside the single-edge guarantee — vertex faults, dual failures,
/// reinforced edges — is served from `G ∖ F`, and its misses repair the
/// full-graph fault-free rows to exactly the full sweep's row. Every
/// full-graph search a query runs is a repair.
#[test]
fn full_graph_tier_repairs_are_byte_identical() {
    for (name, graph) in small_workloads(26) {
        let structure = TradeoffBuilder::new(0.3)
            .with_config(|c| c.with_seed(SEED).serial())
            .build(&graph, &Sources::single(VertexId(0)))
            .unwrap_or_else(|e| panic!("{name}: build failed: {e}"));
        let (repaired, mut rctx) = side(
            EngineCore::build_with(&graph, structure.clone(), repaired_options())
                .expect("matching graph"),
        );
        let (full, mut fctx) = side(
            EngineCore::build_with(
                &graph,
                structure,
                EngineOptions::new().serial().with_force_full_sweep(true),
            )
            .expect("matching graph"),
        );
        for faults in enumerate_fault_sets(&graph, 2).iter().step_by(3) {
            for v in graph.vertices() {
                let before = rctx.stats();
                let d_rep = rctx
                    .dist_after_faults(&repaired, v, faults)
                    .expect("in range");
                let p_rep = rctx
                    .path_after_faults(&repaired, v, faults)
                    .expect("in range");
                let delta = rctx.stats().delta_since(&before);
                if delta.full_graph_bfs_runs > 0 {
                    assert_eq!(
                        delta.repaired_rows, delta.full_graph_bfs_runs,
                        "{name}: a full-graph miss under {faults} was not repaired"
                    );
                }
                let d_full = fctx.dist_after_faults(&full, v, faults).expect("in range");
                let p_full = fctx.path_after_faults(&full, v, faults).expect("in range");
                assert_eq!(d_rep, d_full, "{name}: dist({v:?}) under {faults}");
                assert_eq!(p_rep, p_full, "{name}: path({v:?}) under {faults}");
            }
        }
        let stats = rctx.stats();
        assert!(
            stats.full_graph_bfs_runs > 0,
            "{name}: the full-graph tier never served"
        );
        assert_eq!(
            fctx.stats().repaired_rows,
            0,
            "{name}: the forced engine repaired"
        );
    }
}

/// Fault-scenario batches: serial and per-scenario, the repaired engine's
/// batch answers equal the forced engine's, for f ∈ {1, 2}.
#[test]
fn scenario_batches_match_forced_full_sweeps() {
    for (name, graph) in small_workloads(30) {
        let structure = TradeoffBuilder::new(0.3)
            .with_config(|c| c.with_seed(SEED).serial())
            .build(&graph, &Sources::single(VertexId(0)))
            .unwrap_or_else(|e| panic!("{name}: build failed: {e}"));
        for &scenario in FaultScenario::all() {
            for f in [1usize, 2] {
                let sets = scenario.generate(&graph, VertexId(0), f, 12, SEED);
                let queries: Vec<(VertexId, VertexId, FaultSet)> = sets
                    .iter()
                    .filter(|s| !s.is_empty())
                    .flat_map(|fs| graph.vertices().map(move |v| (VertexId(0), v, fs.clone())))
                    .collect();
                let repaired =
                    EngineCore::build_with(&graph, structure.clone(), repaired_options())
                        .expect("matching graph");
                let full = EngineCore::build_with(
                    &graph,
                    structure.clone(),
                    EngineOptions::new().serial().with_force_full_sweep(true),
                )
                .expect("matching graph");
                let a = repaired
                    .new_context()
                    .query_many_faults(&repaired, &queries)
                    .expect("in range");
                let b = full
                    .new_context()
                    .query_many_faults(&full, &queries)
                    .expect("in range");
                assert_eq!(a, b, "{name}/{}/f={f}", scenario.name());
            }
        }
    }
}

/// Multi-source cores repair per-slot: each source has its own fault-free
/// tree, and the repaired rows agree with forced full sweeps for every
/// served source.
#[test]
fn multi_source_repairs_are_byte_identical_per_source() {
    let graph = Workload::new(WorkloadFamily::GridChords, 25, SEED).generate();
    let sources = vec![VertexId(0), VertexId(7), VertexId(19)];
    let mbfs = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(SEED).serial())
        .build_multi(&graph, &Sources::multi(sources.clone()))
        .expect("valid input");
    let repaired = EngineCore::build_multi_with(&graph, mbfs.clone(), repaired_options())
        .expect("matching graph");
    let full = EngineCore::build_multi_with(
        &graph,
        mbfs,
        EngineOptions::new().serial().with_force_full_sweep(true),
    )
    .expect("matching graph");
    let (mut rctx, mut fctx) = (repaired.new_context(), full.new_context());
    for e in graph.edge_ids() {
        let faults = FaultSet::from(e);
        for &s in &sources {
            for v in graph.vertices() {
                assert_eq!(
                    rctx.dist_after_faults_from(&repaired, s, v, &faults)
                        .expect("in range"),
                    fctx.dist_after_faults_from(&full, s, v, &faults)
                        .expect("in range"),
                    "source {s:?}, vertex {v:?}, edge {e:?}"
                );
                assert_eq!(
                    rctx.path_after_faults_from(&repaired, s, v, &faults)
                        .expect("in range"),
                    fctx.path_after_faults_from(&full, s, v, &faults)
                        .expect("in range"),
                    "source {s:?}, vertex {v:?}, edge {e:?}"
                );
            }
        }
    }
    assert!(rctx.stats().repaired_rows > 0);
}

/// Targeted queries on provably unaffected vertices run **zero** BFS
/// sweeps of any kind: they are answered straight off the fault-free row
/// and attributed to the `unaffected_fast_path` tier.
#[test]
fn unaffected_targeted_queries_run_zero_sweeps() {
    let graph = Workload::new(WorkloadFamily::GridChords, 49, SEED).generate();
    let structure = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(SEED).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let core =
        EngineCore::build_with(&graph, structure, repaired_options()).expect("matching graph");
    let mut ctx = core.new_context();
    // Tree-concentrated single faults guarantee the fault always touches
    // the BFS tree, so "unaffected" is never vacuous fault-free routing.
    let sets = FaultScenario::TreeConcentrated.generate(&graph, VertexId(0), 1, 16, SEED);
    let mut fast_path_hits = 0usize;
    for faults in &sets {
        let affected = core
            .affected_vertex_count(VertexId(0), faults)
            .expect("valid faults");
        assert!(affected > 0, "a tree fault must affect its subtree");
        for v in graph.vertices() {
            let before = ctx.stats();
            let d = ctx.dist_after_faults(&core, v, faults).expect("in range");
            let delta = ctx.stats().delta_since(&before);
            if delta.tiers.unaffected_fast_path == 1 {
                fast_path_hits += 1;
                assert_eq!(
                    delta.structure_bfs_runs + delta.augmented_bfs_runs + delta.full_graph_bfs_runs,
                    0,
                    "fast-path query ran a sweep ({v:?} under {faults})"
                );
                assert_eq!(delta.repaired_rows, 0);
                assert_eq!(delta.cached_answers, 1);
                assert_eq!(
                    d,
                    core.fault_free_dist(VertexId(0), v).expect("in range"),
                    "fast path must answer the fault-free distance"
                );
            }
        }
    }
    assert!(
        fast_path_hits > 0,
        "tree faults must leave some vertex provably unaffected"
    );
    let stats = ctx.stats();
    assert_eq!(stats.tiers.total(), stats.queries);
}

/// The affected-set observable: counts are 0 for faults outside the tree,
/// the full subtree for tree faults, and error for bad inputs.
#[test]
fn affected_vertex_count_matches_tree_structure() {
    let graph = ftbfs::graph::generators::path(6); // 0-1-2-3-4-5, T0 is the path
    let structure = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(SEED).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let core = EngineCore::build(&graph, structure).expect("matching graph");
    let e23 = graph
        .find_edge(VertexId(2), VertexId(3))
        .expect("path edge");
    assert_eq!(
        core.affected_vertex_count(VertexId(0), &FaultSet::from(e23))
            .expect("valid"),
        3,
        "failing 2-3 affects the suffix {{3,4,5}}"
    );
    assert_eq!(
        core.affected_vertex_count(VertexId(0), &FaultSet::single_vertex(VertexId(4)))
            .expect("valid"),
        2,
        "failing vertex 4 affects {{4, 5}}"
    );
    // Nested faults merge into one interval.
    let nested: FaultSet = [Fault::Edge(e23), Fault::Vertex(VertexId(4))]
        .into_iter()
        .collect();
    assert_eq!(
        core.affected_vertex_count(VertexId(0), &nested)
            .expect("valid"),
        3,
        "the vertex-4 subtree nests inside the edge-2-3 subtree"
    );
    assert!(core
        .affected_vertex_count(VertexId(3), &FaultSet::from(e23))
        .is_err());
}

/// Exactness at the end-to-end benchmark's size: SingleFault-augmented
/// builds of its two graphs (erdos-renyi and layered-deep, n = 2000, seed
/// 7) under ~300 seeded fault sets, split like its miss stream across
/// tree-edge f=1, vertex f=1 and tree-edge f=2. Each set is asked as
/// one-target `DistMany` queries on vertices it moved (the target-restricted
/// sweep), then as one `DistMany` over every target (the row repair); the
/// distances must equal brute-force BFS on `G ∖ F`, and every vertex's path
/// must equal a forced-full-sweep engine's.
///
/// Too slow for the debug test run; CI runs it in release:
/// `cargo test --release --test row_repair -- --ignored`.
#[test]
#[ignore]
fn benchmark_size_builds_answer_exactly() {
    const PER_KIND: usize = 100;
    for family in [WorkloadFamily::ErdosRenyi, WorkloadFamily::LayeredDeep] {
        let w = Workload::new(family, 2000, 7);
        let (name, graph) = (w.label(), w.generate());
        let s = VertexId(0);
        let config = BuildConfig::new(0.3)
            .with_seed(7)
            .with_augment(AugmentCoverage::SingleFault);
        let structure = TradeoffBuilder::from_config(config.clone())
            .build(&graph, &Sources::single(s))
            .expect("valid input");
        let augmented = FtBfsAugmenter::from_build_config(&config)
            .augment(&graph, structure)
            .expect("matching graph");
        let (repaired, mut rctx) = side(
            EngineCore::build_augmented_with(&graph, augmented.clone(), repaired_options())
                .expect("matching graph"),
        );
        let (full, mut fctx) = side(
            EngineCore::build_augmented_with(
                &graph,
                augmented,
                EngineOptions::new().serial().with_force_full_sweep(true),
            )
            .expect("matching graph"),
        );
        let mut seen = HashSet::new();
        let kinds = [
            (FaultScenario::TreeConcentrated, 1),
            (FaultScenario::CorrelatedVertices, 1),
            (FaultScenario::TreeConcentrated, 2),
        ];
        let mut sets: Vec<FaultSet> = Vec::new();
        for (scenario, f) in kinds {
            let drawn = scenario.generate(&graph, s, f, 4 * PER_KIND, SEED);
            sets.extend(
                drawn
                    .into_iter()
                    .filter(|set| set.len() == f && seen.insert(set.clone()))
                    .take(PER_KIND),
            );
        }
        assert_eq!(sets.len(), 3 * PER_KIND, "{name}: too few distinct sets");
        let all: Vec<VertexId> = graph.vertices().collect();
        for faults in &sets {
            let brute: Vec<Option<u32>> = dist_after_faults_brute(&graph, s, faults)
                .into_iter()
                .map(|d| (d != u32::MAX).then_some(d))
                .collect();
            let moved = all
                .iter()
                .filter(|v| brute[v.index()] != repaired.fault_free_dist(s, **v).expect("in range"))
                .take(4);
            for &v in moved {
                let one = rctx
                    .dist_many_after_faults(&repaired, &[v], faults)
                    .expect("in range");
                assert_eq!(
                    one,
                    [brute[v.index()]],
                    "{name}: dist({v:?}) under {faults}"
                );
            }
            let many = rctx
                .dist_many_after_faults(&repaired, &all, faults)
                .expect("in range");
            assert_eq!(many, brute, "{name}: DistMany under {faults}");
            for &v in &all {
                let p_rep = rctx
                    .path_after_faults(&repaired, v, faults)
                    .expect("in range");
                let p_full = fctx.path_after_faults(&full, v, faults).expect("in range");
                assert_eq!(p_rep, p_full, "{name}: path({v:?}) under {faults}");
            }
        }
        let stats = rctx.stats();
        assert!(
            stats.restricted_repairs > 0,
            "{name}: no restricted sweep ran"
        );
        assert!(stats.repaired_rows > 0, "{name}: no row repair ran");
    }
}

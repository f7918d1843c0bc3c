//! The multi-fault workload suite: every [`FaultScenario`] family over
//! small instances of every [`WorkloadFamily`], cross-checked against
//! brute-force BFS, serial and sharded, single- and multi-source.
//!
//! CI runs this file as a dedicated step with `FTBFS_FORCE_THREADS=4` so
//! the sharded fault-group path (including oversized-group splitting) is
//! exercised even on small runners.

use ftbfs::graph::{enumerate_fault_sets, FaultSet, VertexId};
use ftbfs::par::ParallelConfig;
use ftbfs::sp::UNREACHABLE;
use ftbfs::workloads::{FaultScenario, Workload, WorkloadFamily};
use ftbfs::{
    cross_check_fault_sets, dist_after_faults_brute, EngineCore, EngineOptions, Sources,
    StructureBuilder, TradeoffBuilder,
};

const SEED: u64 = 0xFA17;

fn small_workloads(target_n: usize) -> Vec<(String, ftbfs::graph::Graph)> {
    WorkloadFamily::all()
        .iter()
        .map(|&family| {
            let w = Workload::new(family, target_n, SEED);
            (w.label(), w.generate())
        })
        .collect()
}

fn brute(graph: &ftbfs::graph::Graph, s: VertexId, v: VertexId, faults: &FaultSet) -> Option<u32> {
    let d = dist_after_faults_brute(graph, s, faults)[v.index()];
    (d != UNREACHABLE).then_some(d)
}

/// Acceptance criterion: `dist_after_faults` matches brute-force BFS on
/// **every** fault set of size ≤ 2 over the workload suite's small graphs.
#[test]
fn every_workload_family_is_exact_on_all_fault_sets_up_to_two() {
    for (name, graph) in small_workloads(28) {
        let structure = TradeoffBuilder::new(0.3)
            .with_config(|c| c.with_seed(SEED).serial())
            .build(&graph, &Sources::single(VertexId(0)))
            .unwrap_or_else(|e| panic!("{name}: build failed: {e}"));
        let core = EngineCore::build(&graph, structure).expect("matching graph");
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

/// Every scenario family, f ∈ {1, 2}: batches answer exactly, serial and
/// sharded paths byte-identical.
#[test]
fn scenario_batches_are_exact_and_shard_deterministically() {
    for (name, graph) in small_workloads(48) {
        let structure = TradeoffBuilder::new(0.3)
            .with_config(|c| c.with_seed(SEED).serial())
            .build(&graph, &Sources::single(VertexId(0)))
            .unwrap_or_else(|e| panic!("{name}: build failed: {e}"));
        for &scenario in FaultScenario::all() {
            for f in [1usize, 2] {
                let fault_sets = scenario.generate(&graph, VertexId(0), f, 12, SEED);
                let queries: Vec<(VertexId, VertexId, FaultSet)> = fault_sets
                    .iter()
                    .flat_map(|fs| graph.vertices().map(move |v| (VertexId(0), v, fs.clone())))
                    .collect();
                let serial = EngineCore::build_with(
                    &graph,
                    structure.clone(),
                    EngineOptions::new().serial(),
                )
                .expect("matching graph");
                let expected = serial
                    .new_context()
                    .query_many_faults(&serial, &queries)
                    .expect("in range");
                for (i, (_, v, fs)) in queries.iter().enumerate() {
                    assert_eq!(
                        expected[i],
                        brute(&graph, VertexId(0), *v, fs),
                        "{name}/{}: f={f}, vertex {v:?}, faults {fs}",
                        scenario.name()
                    );
                }
                let sharded = EngineCore::build_with(
                    &graph,
                    structure.clone(),
                    EngineOptions::new().with_parallel(ParallelConfig::with_threads(4)),
                )
                .expect("matching graph");
                assert_eq!(
                    sharded
                        .new_context()
                        .query_many_faults(&sharded, &queries)
                        .expect("in range"),
                    expected,
                    "{name}/{}: f={f} sharded diverged",
                    scenario.name()
                );
            }
        }
    }
}

/// Acceptance criterion for the multi-source engine: per-source fault-set
/// answers match brute force on all |F| ≤ 2 sets, serial and sharded.
#[test]
fn multi_source_engine_is_exact_on_all_fault_sets_up_to_two() {
    let graph = Workload::new(WorkloadFamily::LayeredShallow, 30, SEED).generate();
    let sources = vec![VertexId(0), VertexId(7), VertexId(15)];
    let mbfs = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(SEED).serial())
        .build_multi(&graph, &Sources::multi(sources.clone()))
        .expect("valid input");
    let sets = enumerate_fault_sets(&graph, 2);
    let mut queries: Vec<(VertexId, VertexId, FaultSet)> = Vec::new();
    for fs in sets.iter().step_by(3) {
        for &s in &sources {
            for v in graph.vertices() {
                queries.push((s, v, fs.clone()));
            }
        }
    }
    let serial = EngineCore::build_multi_with(&graph, mbfs.clone(), EngineOptions::new().serial())
        .expect("matching graph");
    let expected = serial
        .new_context()
        .query_many_faults(&serial, &queries)
        .expect("in range");
    for (i, (s, v, fs)) in queries.iter().enumerate() {
        assert_eq!(
            expected[i],
            brute(&graph, *s, *v, fs),
            "source {s:?}, vertex {v:?}, faults {fs}"
        );
    }
    let sharded = EngineCore::build_multi_with(
        &graph,
        mbfs,
        EngineOptions::new().with_parallel(ParallelConfig::with_threads(4)),
    )
    .expect("matching graph");
    assert_eq!(
        sharded
            .new_context()
            .query_many_faults(&sharded, &queries)
            .expect("in range"),
        expected,
        "multi-source sharded batch diverged"
    );
}

/// A single hot fault probed by a whole batch (the skew case the group
/// splitting targets) stays byte-identical to the serial reference under
/// the default (env-overridable) thread configuration.
#[test]
fn skewed_single_fault_batches_are_deterministic() {
    let graph = Workload::new(WorkloadFamily::GridChords, 100, SEED).generate();
    let structure = TradeoffBuilder::new(0.25)
        .with_config(|c| c.with_seed(SEED).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let hot: FaultSet = [
        ftbfs::graph::Fault::Edge(
            structure
                .backup_edges()
                .next()
                .expect("structure has backup edges"),
        ),
        ftbfs::graph::Fault::Vertex(VertexId::new(graph.num_vertices() - 1)),
    ]
    .into_iter()
    .collect();
    let queries: Vec<(VertexId, VertexId, FaultSet)> = (0..2000)
        .map(|i| {
            let v = VertexId::new(i % graph.num_vertices());
            (VertexId(0), v, hot.clone())
        })
        .collect();
    let serial = EngineCore::build_with(&graph, structure.clone(), EngineOptions::new().serial())
        .expect("matching graph");
    let expected = serial
        .new_context()
        .query_many_faults(&serial, &queries)
        .expect("in range");
    // Default options pick up FTBFS_FORCE_THREADS in CI.
    let core = EngineCore::build(&graph, structure).expect("matching graph");
    assert_eq!(
        core.new_context()
            .query_many_faults(&core, &queries)
            .expect("in range"),
        expected
    );
    for (i, (_, v, fs)) in queries.iter().enumerate() {
        assert_eq!(
            expected[i],
            brute(&graph, VertexId(0), *v, fs),
            "{v:?} {fs}"
        );
    }
}

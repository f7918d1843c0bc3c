//! Criterion benchmark B6: replacement-path augmentation.
//!
//! Two halves: the offline cost of the `FtBfsAugmenter` passes (single and
//! dual coverage on a small instance, measured end to end including the
//! seed build), and the serving payoff — the same covered batches answered
//! by a plain engine (full-graph fallback rows) versus an augmented engine
//! (sparse `H⁺ ∖ F` rows). Run with `FTBFS_BENCH_JSON` to dump a baseline
//! and `FTBFS_BENCH_BASELINE` to gate on the committed one; the gate is
//! normalised by the shim's calibration microbenchmark so heterogeneous
//! runners share one file.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftb_core::{
    AugmentCoverage, BuildConfig, EngineCore, EngineOptions, FtBfsAugmenter, Sources,
    StructureBuilder, TradeoffBuilder,
};
use ftb_graph::{Fault, FaultSet, Graph, VertexId};
use ftb_workloads::{Workload, WorkloadFamily};
use std::hint::black_box;

fn build_augmented(
    graph: &Graph,
    seed: u64,
    coverage: AugmentCoverage,
) -> ftb_core::AugmentedStructure {
    let config = BuildConfig::new(0.3)
        .with_seed(seed)
        .serial()
        .with_augment(coverage);
    let structure = TradeoffBuilder::from_config(config.clone())
        .build(graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    FtBfsAugmenter::from_build_config(&config)
        .augment(graph, structure)
        .expect("matching graph")
}

fn bench_ftbfs_augment(c: &mut Criterion) {
    let seed = 14u64;
    let mut group = c.benchmark_group("ftbfs_augment");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));

    // Offline construction cost, end to end (seed build + augmentation).
    let small = Workload::new(WorkloadFamily::ErdosRenyi, 96, seed).generate();
    for coverage in [AugmentCoverage::SingleFault, AugmentCoverage::DualFailure] {
        group.bench_with_input(
            BenchmarkId::new("augment", coverage.name()),
            &coverage,
            |b, &coverage| {
                b.iter(|| black_box(build_augmented(&small, seed, coverage)));
            },
        );
    }

    // Serving: covered batches on a dense mid-size instance (the augmented
    // tier's payoff is the |E(H⁺)| vs m gap), fallback vs augmented.
    // Preprocessing happens once, outside the timed loop. Serving
    // iterations are sub-millisecond and noisy on shared runners, so they
    // get a larger sample count than the construction benches.
    group.sample_size(40);
    group.warm_up_time(std::time::Duration::from_millis(500));
    let graph = ftb_workloads::families::erdos_renyi_gnm(256, 3300, seed);
    let augmented = build_augmented(&graph, seed, AugmentCoverage::DualFailure);
    let stride = (graph.num_vertices() / 20).max(1);
    let vertices: Vec<VertexId> = (0..graph.num_vertices())
        .step_by(stride)
        .map(VertexId::new)
        .collect();
    let vertex_faults: Vec<(VertexId, VertexId, FaultSet)> = (1..33u32)
        .flat_map(|v| {
            let fs = FaultSet::single_vertex(VertexId(v * 7 % graph.num_vertices() as u32));
            vertices
                .iter()
                .map(move |&q| (VertexId(0), q, fs.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    let m = graph.num_edges() as u32;
    let dual_edges: Vec<(VertexId, VertexId, FaultSet)> = (0..32u32)
        .flat_map(|i| {
            let fs: FaultSet = [
                Fault::Edge(ftb_graph::EdgeId(i * 13 % m)),
                Fault::Edge(ftb_graph::EdgeId((i * 29 + 5) % m)),
            ]
            .into_iter()
            .collect();
            vertices
                .iter()
                .map(move |&q| (VertexId(0), q, fs.clone()))
                .collect::<Vec<_>>()
        })
        .collect();

    for (label, batch) in [
        ("vertex-faults", &vertex_faults),
        ("dual-edges", &dual_edges),
    ] {
        let aug_core = EngineCore::build_augmented_with(
            &graph,
            augmented.clone(),
            EngineOptions::new().serial(),
        )
        .expect("matching graph");
        let mut aug_ctx = aug_core.new_context();
        group.bench_with_input(
            BenchmarkId::new("serve-augmented", label),
            batch,
            |b, batch| {
                b.iter(|| {
                    black_box(
                        aug_ctx
                            .query_many_faults(&aug_core, batch)
                            .expect("in range"),
                    )
                });
            },
        );
        // The fallback engine serves the seed structure the augmentation
        // started from — no second build.
        let plain_core = EngineCore::build_with(
            &graph,
            augmented.base().clone(),
            EngineOptions::new().serial(),
        )
        .expect("matching graph");
        let mut plain_ctx = plain_core.new_context();
        group.bench_with_input(
            BenchmarkId::new("serve-fallback", label),
            batch,
            |b, batch| {
                b.iter(|| {
                    black_box(
                        plain_ctx
                            .query_many_faults(&plain_core, batch)
                            .expect("in range"),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ftbfs_augment);
criterion_main!(benches);

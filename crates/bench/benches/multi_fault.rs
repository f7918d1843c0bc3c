//! Criterion benchmark B5: multi-fault batched serving per scenario family.
//!
//! One preprocessed engine answers a per-scenario batch of
//! `(source, vertex, fault set)` queries for `f ∈ {1, 2}`; single-edge batches on
//! the same engine are benchmarked alongside as the reference the fault-set
//! machinery must not slow down. Run with `FTBFS_BENCH_JSON` to dump a
//! baseline and `FTBFS_BENCH_BASELINE` to gate on a committed one (see the
//! criterion shim docs); CI fails this bench on a >25% regression.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftb_core::{EngineCore, EngineOptions, Sources, StructureBuilder, TradeoffBuilder};
use ftb_graph::{FaultSet, VertexId};
use ftb_workloads::{FaultScenario, Workload, WorkloadFamily};
use std::hint::black_box;

fn bench_multi_fault_scenarios(c: &mut Criterion) {
    let seed = 12u64;
    let source = VertexId(0);
    let graph = Workload::new(WorkloadFamily::ErdosRenyi, 600, seed).generate();
    let structure = TradeoffBuilder::new(0.3)
        .with_config(|cfg| cfg.with_seed(seed).serial())
        .build(&graph, &Sources::single(source))
        .expect("valid input");
    let core = EngineCore::build_with(&graph, structure, EngineOptions::new().serial())
        .expect("matching graph");
    let stride = (graph.num_vertices() / 16).max(1);
    let vertices: Vec<VertexId> = (0..graph.num_vertices())
        .step_by(stride)
        .map(VertexId::new)
        .collect();

    let mut group = c.benchmark_group("multi_fault");
    // Per-iteration times are around a millisecond and noisy on shared
    // runners; a larger sample keeps the gated means stable.
    group.sample_size(40);
    group.warm_up_time(std::time::Duration::from_millis(500));

    // Reference: the paper's single-edge batch on the same core.
    let single_queries: Vec<(VertexId, VertexId, FaultSet)> = graph
        .edge_ids()
        .step_by(3)
        .flat_map(|e| {
            vertices
                .iter()
                .map(move |&v| (source, v, FaultSet::from(e)))
        })
        .collect();
    let mut ctx = core.new_context();
    group.bench_function("single-edge-reference", |b| {
        b.iter(|| {
            black_box(
                ctx.query_many_faults(&core, &single_queries)
                    .expect("in range"),
            )
        });
    });

    for &scenario in FaultScenario::all() {
        for f in [1usize, 2] {
            let fault_sets = scenario.generate(&graph, source, f, 48, seed);
            let queries: Vec<(VertexId, VertexId, FaultSet)> = fault_sets
                .iter()
                .flat_map(|fs| vertices.iter().map(move |&v| (source, v, fs.clone())))
                .collect();
            let mut ctx = core.new_context();
            group.bench_with_input(
                BenchmarkId::new(scenario.name(), format!("f={f}")),
                &queries,
                |b, queries| {
                    b.iter(|| black_box(ctx.query_many_faults(&core, queries).expect("in range")));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_multi_fault_scenarios);
criterion_main!(benches);

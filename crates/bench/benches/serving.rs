//! Criterion benchmark B4: batched fault-query serving, serial vs sharded.
//!
//! One preprocessed engine answers the same ≥10k-query batch under a serial
//! and a multi-threaded `EngineOptions::parallel`; the sharded path must win
//! wall-clock on a multi-core runner while producing identical results
//! (asserted once outside the timed loop).

use criterion::{criterion_group, criterion_main, Criterion};
use ftb_core::{EngineCore, EngineOptions, Sources, StructureBuilder, TradeoffBuilder};
use ftb_graph::{FaultSet, VertexId};
use ftb_par::ParallelConfig;
use ftb_workloads::{Workload, WorkloadFamily};
use std::hint::black_box;

fn bench_query_many_sharding(c: &mut Criterion) {
    let graph = Workload::new(WorkloadFamily::ErdosRenyi, 1000, 6).generate();
    let structure = TradeoffBuilder::new(0.3)
        .with_config(|cfg| cfg.with_seed(6).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let stride = (graph.num_vertices() / 12).max(1);
    let queries: Vec<(VertexId, VertexId, FaultSet)> = graph
        .edge_ids()
        .flat_map(|e| {
            (0..graph.num_vertices())
                .step_by(stride)
                .map(move |v| (VertexId(0), VertexId::new(v), FaultSet::from(e)))
        })
        .collect();
    assert!(queries.len() >= 10_000);

    let serial = EngineCore::build_with(&graph, structure.clone(), EngineOptions::new().serial())
        .expect("matching graph");
    let sharded = EngineCore::build_with(
        &graph,
        structure,
        EngineOptions::new().with_parallel(ParallelConfig::with_threads(4)),
    )
    .expect("matching graph");
    let (mut serial_ctx, mut sharded_ctx) = (serial.new_context(), sharded.new_context());
    assert_eq!(
        serial_ctx
            .query_many_faults(&serial, &queries)
            .expect("in range"),
        sharded_ctx
            .query_many_faults(&sharded, &queries)
            .expect("in range"),
        "sharding must not change answers"
    );

    let mut group = c.benchmark_group("serving/query_many_10k");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("serial", |b| {
        b.iter(|| {
            black_box(
                serial_ctx
                    .query_many_faults(&serial, &queries)
                    .expect("in range"),
            )
        });
    });
    group.bench_function("sharded_4_threads", |b| {
        b.iter(|| {
            black_box(
                sharded_ctx
                    .query_many_faults(&sharded, &queries)
                    .expect("in range"),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_query_many_sharding);
criterion_main!(benches);

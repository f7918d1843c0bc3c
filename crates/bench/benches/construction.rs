//! Criterion benchmarks B1/B2: construction time of the `(b, r)` FT-BFS
//! structure as a function of ε and of n, plus the baseline construction and
//! the query engine's build-once/query-many serving path.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use ftb_core::{EngineCore, Sources, StructureBuilder, TradeoffBuilder};
use ftb_graph::{FaultSet, VertexId};
use ftb_workloads::{Workload, WorkloadFamily};
use std::hint::black_box;

fn bench_eps_sweep(c: &mut Criterion) {
    let graph = Workload::new(WorkloadFamily::ErdosRenyi, 250, 1).generate();
    let sources = Sources::single(VertexId(0));
    let mut group = c.benchmark_group("construction/eps_sweep_n250");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for eps in [0.1, 0.25, 0.5, 1.0] {
        group.bench_with_input(BenchmarkId::from_parameter(eps), &eps, |b, &eps| {
            let builder = TradeoffBuilder::new(eps).with_config(|c| c.with_seed(1));
            b.iter(|| black_box(builder.build(&graph, &sources).expect("valid input")));
        });
    }
    group.finish();
}

fn bench_n_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction/n_sweep_eps0.3");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for n in [100usize, 200, 400] {
        let graph = Workload::new(WorkloadFamily::LayeredShallow, n, 2).generate();
        group.bench_with_input(BenchmarkId::from_parameter(n), &graph, |b, graph| {
            let builder = TradeoffBuilder::new(0.3).with_config(|c| c.with_seed(2));
            let sources = Sources::single(VertexId(0));
            b.iter(|| black_box(builder.build(graph, &sources).expect("valid input")));
        });
    }
    group.finish();
}

fn bench_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction/baseline");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for n in [200usize, 400] {
        let graph = Workload::new(WorkloadFamily::ErdosRenyi, n, 3).generate();
        group.bench_with_input(BenchmarkId::from_parameter(n), &graph, |b, graph| {
            let builder = TradeoffBuilder::new(1.0).with_config(|c| c.with_seed(3));
            let sources = Sources::single(VertexId(0));
            b.iter(|| black_box(builder.build(graph, &sources).expect("valid input")));
        });
    }
    group.finish();
}

fn bench_query_engine(c: &mut Criterion) {
    let graph = Workload::new(WorkloadFamily::ErdosRenyi, 400, 4).generate();
    let structure = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(4))
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let far = VertexId((graph.num_vertices() - 1) as u32);
    let queries: Vec<_> = graph
        .edge_ids()
        .map(|e| (VertexId(0), far, FaultSet::from(e)))
        .collect();

    let mut group = c.benchmark_group("query/engine_n400");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("preprocess", |b| {
        // The structure clone is setup, not preprocessing — keep it untimed.
        b.iter_batched(
            || structure.clone(),
            |s| {
                let core = EngineCore::build(&graph, s).unwrap();
                let ctx = core.new_context();
                black_box((core, ctx))
            },
            BatchSize::PerIteration,
        );
    });
    group.bench_function("query_many_all_edges", |b| {
        let core = EngineCore::build(&graph, structure.clone()).unwrap();
        let mut ctx = core.new_context();
        b.iter(|| black_box(ctx.query_many_faults(&core, &queries).expect("in range")));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_eps_sweep,
    bench_n_sweep,
    bench_baseline,
    bench_query_engine
);
criterion_main!(benches);

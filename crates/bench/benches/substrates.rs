//! Criterion benchmark B4: the substrate layers — the canonical
//! shortest-path tree, replacement distances and Algorithm `Pcons` —
//! measured in isolation. CI gates the tree, replacement-distance and
//! `Pcons` entries against `crates/bench/baselines/substrates.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftb_graph::VertexId;
use ftb_par::ParallelConfig;
use ftb_rp::ReplacementPaths;
use ftb_sp::{ReplacementDistances, ShortestPathTree, TieBreakWeights};
use ftb_tree::HeavyPathDecomposition;
use ftb_workloads::{Workload, WorkloadFamily};
use std::hint::black_box;

fn bench_substrates(c: &mut Criterion) {
    let graph = Workload::new(WorkloadFamily::ErdosRenyi, 400, 5).generate();
    let weights = TieBreakWeights::generate(&graph, 5);
    let tree = ShortestPathTree::build(&graph, &weights, VertexId(0));

    let mut group = c.benchmark_group("substrates");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    group.bench_function("sp_tree_n400", |b| {
        b.iter(|| black_box(ShortestPathTree::build(&graph, &weights, VertexId(0))));
    });

    group.bench_function("heavy_path_decomposition_n400", |b| {
        b.iter(|| black_box(HeavyPathDecomposition::build(&tree)));
    });

    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("replacement_distances_n400/threads", threads),
            &threads,
            |b, &threads| {
                let par = ParallelConfig::with_threads(threads);
                b.iter(|| black_box(ReplacementDistances::compute(&graph, &tree, &par)));
            },
        );
    }

    let dists = ReplacementDistances::compute(&graph, &tree, &ParallelConfig::default());
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("pcons_n400/threads", threads),
            &threads,
            |b, &threads| {
                let par = ParallelConfig::with_threads(threads);
                b.iter(|| {
                    black_box(ReplacementPaths::compute(
                        &graph, &weights, &tree, &dists, &par,
                    ))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);

//! Criterion benchmark B4: the substrate layers — the canonical
//! shortest-path tree, replacement distances, Algorithm `Pcons`, the
//! interference split and Phase S1 — measured in isolation. CI gates every
//! entry but the heavy-path one against
//! `crates/bench/baselines/substrates.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftb_core::phase_s1::run_phase_s1;
use ftb_core::BuildConfig;
use ftb_graph::{BitSet, VertexId};
use ftb_par::ParallelConfig;
use ftb_rp::{InterferenceIndex, ReplacementPaths};
use ftb_sp::{ReplacementDistances, ShortestPathTree, TieBreakWeights};
use ftb_tree::{HeavyPathDecomposition, TreeIndex};
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

    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("pcons_n400/threads", threads),
            &threads,
            |b, &threads| {
                let par = ParallelConfig::with_threads(threads);
                b.iter(|| black_box(ReplacementPaths::new(&graph, &weights, &tree, &par)));
            },
        );
    }

    let rp = ReplacementPaths::new(&graph, &weights, &tree, &ParallelConfig::default());
    let tree_index = TreeIndex::build(&tree);
    group.bench_function("interference_split_n400", |b| {
        b.iter(|| {
            let index = InterferenceIndex::build(&rp, &tree, &tree_index);
            black_box(index.split_i1_i2())
        });
    });

    let index = InterferenceIndex::build(&rp, &tree, &tree_index);
    let (i1, _) = index.split_i1_i2();
    let config = BuildConfig::new(0.3).serial();
    group.bench_function("s1_n400", |b| {
        b.iter(|| {
            let mut h = BitSet::new(graph.num_edges());
            for &e in tree.tree_edges() {
                h.insert(e.index());
            }
            let n = graph.num_vertices();
            black_box(run_phase_s1(&rp, &index, &config, n, i1.clone(), &mut h))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);

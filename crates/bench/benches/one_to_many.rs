//! Criterion benchmark B7: one-to-many serving — amortised row extraction
//! with interval-batched target checks vs the per-target query loop.
//!
//! One preprocessed engine answers the same `(fault set, target list)`
//! stream two ways: the **per-target** loop (`dist_after_faults` once per
//! target — the only shape the engine offered before `DistMany`) and the
//! **batched** one-to-many entry point (`dist_many_after_faults` — one
//! interval-batched unaffected classification and at most one
//! target-restricted sweep per fault set, which settles only the requested
//! affected targets and copies no row). The committed baseline pins both
//! sides of both shapes, so the regression gate asserts the amortised path
//! stays fast *and* the gap to the per-target loop does not erode.
//!
//! Two target shapes:
//!
//! * **sparse** (`t=16`) — a handful of spread-out targets per fault set,
//!   the replay shape of a `DistMany` service frame. Most targets are
//!   provably unaffected and classified in one batched interval search;
//!   the sweep stops once the affected stragglers are settled.
//! * **dense** (`all-targets`) — every vertex requested, so the batched
//!   side's one sweep waits for the whole affected region, while the
//!   per-target side repairs one row per fault set and answers the other
//!   affected targets from the LRU.
//!
//! Each side replays more distinct fault sets than the context's LRU
//! holds, so every fault set misses: the per-target side repairs its row
//! on the first affected target, and the batched side takes the
//! restricted sweep (its remembered key is evicted before the fault set
//! recurs). This measures the miss path, not the cache.
//!
//! Run with `FTBFS_BENCH_JSON` to dump a baseline and
//! `FTBFS_BENCH_BASELINE` to gate on a committed one (see the criterion
//! shim docs); CI fails this bench on a >25% regression.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftb_core::{EngineCore, EngineOptions, Sources, StructureBuilder, TradeoffBuilder};
use ftb_graph::{FaultSet, VertexId};
use ftb_workloads::{FaultScenario, Workload, WorkloadFamily};
use std::hint::black_box;

fn bench_one_to_many(c: &mut Criterion) {
    let seed = 21u64;
    let source = VertexId(0);
    let graph = Workload::new(WorkloadFamily::ErdosRenyi, 2000, seed).generate();
    let n = graph.num_vertices();
    let structure = TradeoffBuilder::new(0.3)
        .with_config(|cfg| cfg.with_seed(seed).serial())
        .build(&graph, &Sources::single(source))
        .expect("valid input");
    let core = EngineCore::build_with(&graph, structure, EngineOptions::new().serial())
        .expect("matching graph");

    let fault_sets: Vec<FaultSet> = FaultScenario::TreeConcentrated
        .generate(&graph, source, 1, 32, seed)
        .into_iter()
        .filter(|s| !s.is_empty())
        .collect();

    let sparse: Vec<VertexId> = (0..16u64)
        .map(|i| VertexId((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % n as u64) as u32))
        .collect();
    let dense: Vec<VertexId> = graph.vertices().collect();

    let mut group = c.benchmark_group("one_to_many");
    group.sample_size(30);
    group.warm_up_time(std::time::Duration::from_millis(500));

    for (shape, targets) in [("sparse-t16", &sparse), ("dense-all", &dense)] {
        // Fresh context per side: the two paths must not share an LRU.
        let mut per_target = core.new_context();
        group.bench_with_input(
            BenchmarkId::new(shape, "per-target"),
            &fault_sets,
            |b, sets| {
                b.iter(|| {
                    for fs in sets {
                        for &v in targets {
                            black_box(
                                per_target
                                    .dist_after_faults(&core, v, fs)
                                    .expect("in range"),
                            );
                        }
                    }
                });
            },
        );

        let mut batched = core.new_context();
        group.bench_with_input(
            BenchmarkId::new(shape, "batched"),
            &fault_sets,
            |b, sets| {
                b.iter(|| {
                    for fs in sets {
                        black_box(
                            batched
                                .dist_many_after_faults(&core, targets, fs)
                                .expect("in range"),
                        );
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_one_to_many);
criterion_main!(benches);

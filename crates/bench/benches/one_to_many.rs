//! Criterion benchmark B7: one-to-many serving — amortised row extraction
//! with interval-batched target checks vs the per-target query loop.
//!
//! One preprocessed engine answers the same `(fault set, target list)`
//! stream two ways: the **per-target** loop (`dist_after_faults` once per
//! target — the only shape the engine offered before `DistMany`) and the
//! **batched** one-to-many entry point (`dist_many_after_faults` — one
//! interval-batched unaffected classification and at most one search per
//! fault set). The committed baseline pins both sides of both shapes, so
//! the regression gate asserts the amortised path stays fast *and* the
//! gap to the per-target loop does not erode.
//!
//! Two target shapes:
//!
//! * **sparse** (`t=16`) — a handful of spread-out targets per fault set,
//!   the replay shape of a `DistMany` service frame. Most targets are
//!   provably unaffected and classified in one batched interval search;
//!   affected stragglers take the target-restricted sweep instead of a
//!   full row materialisation.
//! * **dense** (`all-targets`) — every vertex requested, so each fault set
//!   must materialize one full row; the comparison isolates the amortised
//!   row extraction (one repair + scatter) against per-target LRU probes.
//!
//! Batches use more distinct fault sets (32) than the LRU holds, so fault
//! sets are cache misses — this measures the miss path, not the cache.
//!
//! A second group, `one_to_many_crossover`, pins the constant
//! `RESTRICTED_SWEEP_RATIO` in `ftb_core`'s engine. Up to twelve dual-fault
//! sets with at least 24 affected vertices each are served `a` evenly spaced
//! affected targets per set, with `a` doubling from 1 up to the smallest
//! affected set. Small `a` takes the target-restricted sweep (settle the
//! requested targets, keep no row); once `a · RESTRICTED_SWEEP_RATIO`
//! passes a set's affected size the same call materialises the whole row
//! instead. The first entry asserts that it ran restricted sweeps and the
//! last that it materialised rows, so the gate always measures both sides
//! of the crossover.
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

fn bench_crossover(c: &mut Criterion) {
    let seed = 21u64;
    let source = VertexId(0);
    let graph = Workload::new(WorkloadFamily::ErdosRenyi, 2000, seed).generate();
    let structure = TradeoffBuilder::new(0.3)
        .with_config(|cfg| cfg.with_seed(seed).serial())
        .build(&graph, &Sources::single(source))
        .expect("valid input");
    let core = EngineCore::build_with(&graph, structure, EngineOptions::new().serial())
        .expect("matching graph");

    // Dual-fault sets with a sizeable affected set, pooled across
    // scenarios; more of them than the 8-row LRU holds keep every call on
    // the miss path even when the row side caches its row.
    let mut sets: Vec<(FaultSet, Vec<VertexId>)> = Vec::new();
    for scenario in [
        FaultScenario::TreeConcentrated,
        FaultScenario::CorrelatedVertices,
        FaultScenario::RandomEdges,
    ] {
        for fs in scenario.generate(&graph, source, 2, 96, seed) {
            let affected: Vec<VertexId> = graph
                .vertices()
                .filter(|&v| !core.is_target_unaffected(source, v, &fs).expect("in range"))
                .collect();
            if affected.len() >= 24 {
                sets.push((fs, affected));
            }
        }
    }
    sets.truncate(12);
    assert!(
        sets.len() > 8,
        "too few fault sets with a large affected set"
    );
    let max_a = sets.iter().map(|(_, a)| a.len()).min().expect("non-empty");
    let mut steps: Vec<usize> = std::iter::successors(Some(1usize), |a| Some(a * 2))
        .take_while(|&a| a < max_a)
        .collect();
    steps.push(max_a);

    let mut group = c.benchmark_group("one_to_many_crossover");
    group.sample_size(30);
    group.warm_up_time(std::time::Duration::from_millis(300));
    let (first, last) = (steps[0], *steps.last().expect("non-empty"));
    for a in steps {
        // Evenly spaced affected targets: the restricted sweep must chase
        // targets across the whole affected region, not one cluster.
        let requests: Vec<(&FaultSet, Vec<VertexId>)> = sets
            .iter()
            .map(|(fs, affected)| {
                let stride = (affected.len() / a).max(1);
                (
                    fs,
                    affected.iter().copied().step_by(stride).take(a).collect(),
                )
            })
            .collect();
        let mut ctx = core.new_context();
        let serve = |ctx: &mut ftb_core::QueryContext| {
            for (fs, targets) in &requests {
                black_box(
                    ctx.dist_many_after_faults(&core, targets, fs)
                        .expect("in range"),
                );
            }
        };
        serve(&mut ctx);
        let stats = ctx.stats();
        if a == first {
            assert!(
                stats.restricted_repairs > 0,
                "a = 1 must take the restricted sweep"
            );
        }
        if a == last {
            assert!(
                stats.restricted_repairs < requests.len(),
                "a = {a} must materialise rows"
            );
        }
        group.bench_function(BenchmarkId::from_parameter(format!("a{a}")), |b| {
            b.iter(|| serve(&mut ctx));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_one_to_many, bench_crossover);
criterion_main!(benches);

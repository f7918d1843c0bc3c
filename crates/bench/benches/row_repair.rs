//! Criterion benchmark B6: incremental post-failure row repair vs full
//! CSR sweeps per cache miss.
//!
//! One preprocessed engine answers the same per-scenario batch twice: once
//! with the default serving path (each (source, fault set) group of the
//! batch reads its unaffected targets off the fault-free row and settles
//! its affected ones with one boundary-seeded sweep of the affected
//! subtrees) and once with [`EngineOptions::with_force_full_sweep`] (every
//! query resolves a row, and every miss re-sweeps the whole serving CSR —
//! the pre-repair behaviour and the `FTBFS_FORCE_FULL_SWEEP`
//! differential-testing mode). The committed baseline pins both sides, so
//! the regression gate simultaneously asserts that the bounded path stays
//! fast *and* that the ≥ 2× gap to the full-sweep reference does not erode.
//!
//! Two batch shapes:
//!
//! * **targeted** — each fault set is probed at a sample of targets, the
//!   point-query serving shape. Most targets are provably unaffected, so
//!   they are answered without a search and whole sweeps disappear; this
//!   is where the bounded path wins an order of magnitude.
//! * **dense** (`all-targets`) — every vertex probed against every fault
//!   set, so the default side's sweep waits for the whole affected region
//!   while the full-sweep side re-sweeps the graph; the comparison isolates
//!   the bounded sweep against the full one.
//!
//! Each batch is replayed on one context. A fault set's first miss takes
//! the restricted sweep and leaves its key in the context's LRU; a replay
//! that finds the key repairs and caches the row. So when a batch's
//! affected fault sets fit in the LRU (the single-edge shape), later
//! replays read cached rows, as per-target serving of a small working set
//! does; when they do not (the scenario shapes), every replay stays on the
//! miss path.
//!
//! Run with `FTBFS_BENCH_JSON` to dump a baseline and
//! `FTBFS_BENCH_BASELINE` to gate on a committed one (see the criterion
//! shim docs); CI fails this bench on a >25% regression.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftb_core::{EngineCore, EngineOptions, Sources, StructureBuilder, TradeoffBuilder};
use ftb_graph::{FaultSet, VertexId};
use ftb_workloads::{FaultScenario, Workload, WorkloadFamily};
use std::hint::black_box;

fn bench_row_repair(c: &mut Criterion) {
    let seed = 21u64;
    let source = VertexId(0);
    let graph = Workload::new(WorkloadFamily::ErdosRenyi, 2000, seed).generate();
    let structure = TradeoffBuilder::new(0.3)
        .with_config(|cfg| cfg.with_seed(seed).serial())
        .build(&graph, &Sources::single(source))
        .expect("valid input");
    let stride = (graph.num_vertices() / 24).max(1);
    let targeted: Vec<VertexId> = (0..graph.num_vertices())
        .step_by(stride)
        .map(VertexId::new)
        .collect();

    let mut group = c.benchmark_group("row_repair");
    group.sample_size(40);
    group.warm_up_time(std::time::Duration::from_millis(500));

    let core = |force: bool| {
        EngineCore::build_with(
            &graph,
            structure.clone(),
            EngineOptions::new().serial().with_force_full_sweep(force),
        )
        .expect("matching graph")
    };
    let sides = [("repaired", core(false)), ("full-sweep", core(true))];

    // Single structure-edge failures (the seed paper's regime): every
    // distinct backup edge is one cache miss on the sparse-H tier.
    let single_queries: Vec<(VertexId, VertexId, FaultSet)> = structure
        .backup_edges()
        .step_by(2)
        .take(32)
        .flat_map(|e| {
            targeted
                .iter()
                .map(move |&v| (source, v, FaultSet::from(e)))
        })
        .collect();
    for (label, core) in &sides {
        let mut ctx = core.new_context();
        group.bench_with_input(
            BenchmarkId::new("single-edge", label),
            &single_queries,
            |b, queries| {
                b.iter(|| black_box(ctx.query_many_faults(core, queries).expect("in range")));
            },
        );
    }

    // Scenario families at targeted probes: tree-concentrated is the
    // adversarial pattern for a BFS structure (every fault hits T0, so no
    // batch is answered from the fault-free row); random-edges mixes tiers.
    for &scenario in &[FaultScenario::TreeConcentrated, FaultScenario::RandomEdges] {
        for f in [1usize, 2] {
            let fault_sets = scenario.generate(&graph, source, f, 32, seed);
            let queries: Vec<(VertexId, VertexId, FaultSet)> = fault_sets
                .iter()
                .flat_map(|fs| targeted.iter().map(move |&v| (source, v, fs.clone())))
                .collect();
            for (label, core) in &sides {
                let mut ctx = core.new_context();
                group.bench_with_input(
                    BenchmarkId::new(scenario.name(), format!("f={f}/{label}")),
                    &queries,
                    |b, queries| {
                        b.iter(|| {
                            black_box(ctx.query_many_faults(core, queries).expect("in range"))
                        });
                    },
                );
            }
        }
    }

    // Dense shape: every vertex probed, so each of the 32 fault sets
    // settles its whole affected region — bounded vs full sweep head to
    // head.
    let all_vertices: Vec<VertexId> = graph.vertices().collect();
    let dense_sets = FaultScenario::TreeConcentrated.generate(&graph, source, 1, 32, seed);
    let dense_queries: Vec<(VertexId, VertexId, FaultSet)> = dense_sets
        .iter()
        .flat_map(|fs| all_vertices.iter().map(move |&v| (source, v, fs.clone())))
        .collect();
    for (label, core) in &sides {
        let mut ctx = core.new_context();
        group.bench_with_input(
            BenchmarkId::new("tree-concentrated-dense", format!("f=1/{label}")),
            &dense_queries,
            |b, queries| {
                b.iter(|| black_box(ctx.query_many_faults(core, queries).expect("in range")));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_row_repair);
criterion_main!(benches);

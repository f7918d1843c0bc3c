//! Criterion benchmark B8: persistent engine snapshots — build once,
//! load everywhere.
//!
//! Pins the three costs of the snapshot path at one representative size:
//!
//! * **build** — the full preprocessing an `ftb-serve` restart pays
//!   without a snapshot (structure construction + engine assembly);
//! * **save** — serializing the finished engine to the flat container
//!   ([`EngineCore::write_snapshot`]);
//! * **load** — restoring a ready-to-serve engine from those bytes
//!   ([`EngineCore::read_snapshot`]), including every revalidation pass.
//!
//! The committed baseline keeps all three honest: `load` regressing
//! toward `build` would erase the point of shipping snapshots at all
//! (the deployment contract is load ≥ 10× faster than build at this
//! size; the benchmark's `restart_s` tracks it at n = 2000), and `save`/`load`
//! regressions catch accidental per-element encoding slipping into the
//! bulk array paths.
//!
//! Run with `FTBFS_BENCH_JSON` to dump a baseline and
//! `FTBFS_BENCH_BASELINE` to gate on a committed one (see the criterion
//! shim docs); CI fails this bench on a >25% regression.

use criterion::{criterion_group, criterion_main, Criterion};
use ftb_core::{EngineCore, EngineOptions, Sources, StructureBuilder, TradeoffBuilder};
use ftb_graph::VertexId;
use ftb_workloads::{Workload, WorkloadFamily};
use std::hint::black_box;

fn bench_snapshot(c: &mut Criterion) {
    let seed = 21u64;
    let source = VertexId(0);
    let graph = Workload::new(WorkloadFamily::ErdosRenyi, 2000, seed).generate();

    let build = || {
        let structure = TradeoffBuilder::new(0.3)
            .with_config(|cfg| cfg.with_seed(seed).serial())
            .build(&graph, &Sources::single(source))
            .expect("valid input");
        EngineCore::build_with(&graph, structure, EngineOptions::new().serial())
            .expect("matching graph")
    };
    let core = build();
    let bytes = core.write_snapshot(b"bench");

    let mut group = c.benchmark_group("snapshot");
    // The build side costs seconds per sample; a few samples pin its
    // order of magnitude, which is all the build/load ratio needs.
    group.sample_size(3);
    group.warm_up_time(std::time::Duration::ZERO);
    group.bench_function("build", |b| b.iter(|| black_box(build())));

    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.bench_function("save", |b| {
        b.iter(|| black_box(core.write_snapshot(b"bench")))
    });
    group.bench_function("load", |b| {
        b.iter(|| {
            black_box(
                EngineCore::read_snapshot(&bytes, EngineOptions::new().serial())
                    .expect("own snapshot loads"),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_snapshot);
criterion_main!(benches);

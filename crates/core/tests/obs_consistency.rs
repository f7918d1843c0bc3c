//! The observability invariants, checked end to end against live engines:
//!
//! 1. **Counter consistency** — per workload family, every tier counter
//!    delta equals the sample count of the matching tier histogram. The
//!    attribution model records exactly one sample per answer
//!    (`Histogram::record_n` with the counter delta), so this holds by
//!    construction; the test proves the construction is wired through
//!    every entry point, single-target and batched alike.
//! 2. **Stage sums stay inside the wall** — stage spans nest inside the
//!    entry-point windows, so the total nanoseconds recorded by the stage
//!    histograms can never exceed the measured wall time of the replay
//!    (and the tier histograms' sum reconstructs the entry-point windows,
//!    also bounded by the wall).
//! 3. **Registry under concurrency** — writer threads hammer one shared
//!    counter/histogram pair while a reader renders snapshots mid-flight;
//!    the final totals are exact and every intermediate snapshot is a
//!    plausible prefix. Thread count follows the `FTBFS_FORCE_THREADS`
//!    convention (default 4) so CI can pin it.

use ftb_core::{
    EngineCore, EngineObs, EngineOptions, Sources, StructureBuilder, TierCounters, TradeoffBuilder,
};
use ftb_graph::{FaultSet, Graph, VertexId};
use ftb_workloads::{FaultScenario, Workload, WorkloadFamily};
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 9;
const SOURCE: VertexId = VertexId(0);

/// Build an instrumented engine over `family` and replay a mixed workload
/// (single-target, batched sparse, batched dense) with sampling on.
/// Returns the obs handles, the final engine stats, and the measured wall
/// time of the instrumented region in nanoseconds.
fn instrumented_replay(family: WorkloadFamily) -> (Arc<EngineObs>, ftb_core::QueryStats, u64) {
    let graph: Graph = Workload::new(family, 300, SEED).generate();
    let n = graph.num_vertices();
    let structure = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(SEED).serial())
        .build(&graph, &Sources::single(SOURCE))
        .expect("workload graphs are valid input");
    let core = EngineCore::build_with(&graph, structure, EngineOptions::new().serial())
        .expect("matching graph");
    let mut ctx = core.new_context();
    let obs = EngineObs::detached();
    ctx.attach_obs(Arc::clone(&obs));
    ftb_obs::set_sampling(true);

    let mut sets: Vec<FaultSet> = [
        FaultScenario::RandomEdges,
        FaultScenario::TreeConcentrated,
        FaultScenario::CorrelatedVertices,
    ]
    .into_iter()
    .flat_map(|s| s.generate(&graph, SOURCE, 2, 12, SEED))
    .filter(|s| !s.is_empty())
    .collect();
    sets.push(FaultSet::new()); // the fault-free row tier
    let sparse: Vec<VertexId> = (0..10u64)
        .map(|i| VertexId((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % n as u64) as u32))
        .collect();
    let dense: Vec<VertexId> = graph.vertices().collect();

    let t0 = Instant::now();
    for fs in &sets {
        for &v in &sparse {
            ctx.dist_after_faults(&core, v, fs).expect("in range");
        }
        ctx.dist_many_after_faults(&core, &sparse, fs)
            .expect("in range");
        ctx.dist_many_after_faults(&core, &dense, fs)
            .expect("in range");
    }
    let wall = t0.elapsed().as_nanos() as u64;
    (obs, ctx.stats(), wall)
}

#[test]
fn tier_histogram_counts_equal_tier_counters_per_family() {
    for &family in WorkloadFamily::all() {
        let (obs, stats, _) = instrumented_replay(family);
        let pairs = TierCounters::NAMES
            .iter()
            .zip(&obs.tier_latency)
            .zip(stats.tiers.to_array());
        for ((tier, histogram), counted) in pairs {
            assert_eq!(
                histogram.count(),
                counted as u64,
                "{}: tier {tier} histogram samples diverge from the counter",
                family.name()
            );
        }
        assert!(
            obs.tier_sample_count() > 0,
            "{}: the replay answered nothing",
            family.name()
        );
    }
}

#[test]
fn stage_and_tier_sums_stay_inside_the_wall() {
    let (obs, _, wall) = instrumented_replay(WorkloadFamily::ErdosRenyi);
    let tier_sum = obs.tier_sample_sum();
    let stage_sum = obs.stage_sample_sum();
    assert!(stage_sum > 0, "the replay exercised no instrumented stage");
    // Per-answer attribution floors (`elapsed / total` per sample), so the
    // tier sum reconstructs the entry windows from below; both sums are
    // bounded by the wall clock around the whole replay.
    assert!(
        tier_sum <= wall,
        "tier sum {tier_sum}ns exceeds the replay wall {wall}ns"
    );
    assert!(
        stage_sum <= wall,
        "stage sum {stage_sum}ns exceeds the replay wall {wall}ns"
    );
}

#[test]
fn detached_contexts_record_nothing() {
    let graph: Graph = Workload::new(WorkloadFamily::ErdosRenyi, 200, SEED).generate();
    let structure = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(SEED).serial())
        .build(&graph, &Sources::single(SOURCE))
        .expect("valid input");
    let core = EngineCore::build_with(&graph, structure, EngineOptions::new().serial())
        .expect("matching graph");
    let mut ctx = core.new_context();
    // No obs attached: queries run regardless of the sampling flag.
    ftb_obs::set_sampling(true);
    ctx.dist_after_faults(&core, VertexId(7), &ftb_graph::EdgeId(0).into())
        .expect("in range");
    assert!(ctx.stats().tiers.total() > 0);
}

#[test]
fn registry_totals_are_exact_under_concurrent_writers() {
    let threads: usize = std::env::var("FTBFS_FORCE_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or(4);
    const PER_THREAD: u64 = 20_000;

    let registry = ftb_obs::Registry::new();
    let counter = registry.counter("obs_test_ops_total", "test", &[]);
    let histogram = registry.histogram("obs_test_latency", "test", &[]);

    std::thread::scope(|scope| {
        for w in 0..threads {
            let counter = Arc::clone(&counter);
            let histogram = Arc::clone(&histogram);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    counter.inc();
                    histogram.record(w as u64 * 1_000 + i % 977);
                }
            });
        }
        // Concurrent reader: snapshots taken mid-flight are plausible
        // prefixes (monotone, internally consistent), never torn below
        // zero or above the final total.
        let counter = Arc::clone(&counter);
        let histogram = Arc::clone(&histogram);
        scope.spawn(move || {
            let ceiling = threads as u64 * PER_THREAD;
            let mut last = 0;
            for _ in 0..50 {
                let c = counter.get();
                let s = histogram.snapshot();
                assert!(c >= last, "counter moved backwards");
                assert!(c <= ceiling, "counter overshot the writers");
                assert!(s.count() <= ceiling);
                last = c;
                std::thread::yield_now();
            }
        });
    });

    let expected = threads as u64 * PER_THREAD;
    assert_eq!(counter.get(), expected);
    let snap = histogram.snapshot();
    assert_eq!(snap.count(), expected);
    let text = registry.render_prometheus();
    assert!(
        text.contains(&format!("obs_test_ops_total {expected}")),
        "{text}"
    );
    assert!(
        text.contains(&format!("obs_test_latency_count {expected}")),
        "{text}"
    );
}

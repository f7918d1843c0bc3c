//! The one-to-many suite: `dist_many_after_faults` must be
//! **byte-identical** to per-target `dist_after_faults` calls — across
//! every workload family, every fault-scenario family, both the normal
//! engine and the forced-full-sweep engine — and all-unaffected target
//! sets must be answered with **zero** BFS sweeps, proven through the
//! engine's counters.
//!
//! The batched path reads unaffected targets off the fault-free row and
//! answers affected ones by one target-restricted sweep (a fault set's
//! first miss), by repairing and caching its row (a remembered fault set),
//! from the cached row, or with no search at all when the source itself
//! failed. The identity tests below hit every route by asking several
//! target shapes in turn under each fault set — sparse target lists,
//! all-vertex target lists, duplicates, the source itself, failed vertices
//! as targets — and under a failed source.

use ftbfs::graph::{FaultSet, VertexId};
use ftbfs::workloads::{FaultScenario, Workload, WorkloadFamily};
use ftbfs::QueryStats;
use ftbfs::{EngineCore, EngineOptions, Sources, StructureBuilder, TradeoffBuilder};
use std::collections::HashSet;

const SEED: u64 = 0x12A7;

fn repaired_options() -> EngineOptions {
    EngineOptions::new().serial().with_force_full_sweep(false)
}

fn forced_options() -> EngineOptions {
    EngineOptions::new().serial().with_force_full_sweep(true)
}

fn small_workloads(target_n: usize) -> Vec<(String, ftbfs::graph::Graph)> {
    WorkloadFamily::all()
        .iter()
        .map(|&family| {
            let w = Workload::new(family, target_n, SEED);
            (w.label(), w.generate())
        })
        .collect()
}

fn build_core(graph: &ftbfs::graph::Graph, options: EngineOptions) -> EngineCore {
    let structure = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(SEED).serial())
        .build(graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    EngineCore::build_with(graph, structure, options).expect("matching graph")
}

/// The target shapes every identity check runs: a sparse spread-out list,
/// the dense all-vertex list, and a pathological list with duplicates, the
/// source, and (when present) a failed vertex.
fn target_shapes(graph: &ftbfs::graph::Graph, faults: &FaultSet) -> Vec<Vec<VertexId>> {
    let n = graph.num_vertices();
    let sparse: Vec<VertexId> = (0..8)
        .map(|i| VertexId(((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % n as u64) as u32))
        .collect();
    let dense: Vec<VertexId> = graph.vertices().collect();
    let mut weird = vec![
        VertexId(0),
        VertexId((n as u32) - 1),
        VertexId(0),
        VertexId(1),
    ];
    if let Some(v) = faults.vertices().next() {
        weird.push(v);
        weird.push(v);
    }
    vec![sparse, dense, weird, Vec::new()]
}

/// Searches of every tier counted in `stats`.
fn sweeps(stats: &QueryStats) -> usize {
    stats.structure_bfs_runs + stats.augmented_bfs_runs + stats.full_graph_bfs_runs
}

/// One-to-many answers equal `targets.len()` separate per-target queries,
/// on every workload family × fault scenario, in the normal engine **and**
/// the forced-full-sweep engine (which takes the exact per-target code
/// path internally). A failed source disconnects every target, and the
/// batched path answers that without a search.
#[test]
fn dist_many_matches_per_target_on_every_family_and_scenario() {
    for (name, graph) in small_workloads(26) {
        // Separate contexts so the reference answers cannot share LRU or
        // scratch state with the batched path.
        let core = build_core(&graph, repaired_options());
        let forced_core = build_core(&graph, forced_options());
        let (mut batched, mut reference) = (core.new_context(), core.new_context());
        let mut forced = forced_core.new_context();
        for &scenario in FaultScenario::all() {
            for f in [1usize, 2] {
                for faults in scenario
                    .generate(&graph, VertexId(0), f, 6, SEED)
                    .iter()
                    .filter(|s| !s.is_empty())
                {
                    for targets in target_shapes(&graph, faults) {
                        let many = batched
                            .dist_many_after_faults(&core, &targets, faults)
                            .expect("in range");
                        let forced_many = forced
                            .dist_many_after_faults(&forced_core, &targets, faults)
                            .expect("in range");
                        let serial: Vec<Option<u32>> = targets
                            .iter()
                            .map(|&v| {
                                reference
                                    .dist_after_faults(&core, v, faults)
                                    .expect("in range")
                            })
                            .collect();
                        assert_eq!(
                            many,
                            serial,
                            "{name}/{}/f={f}: batched != per-target under {faults}",
                            scenario.name()
                        );
                        assert_eq!(
                            forced_many,
                            serial,
                            "{name}/{}/f={f}: forced batched != per-target under {faults}",
                            scenario.name()
                        );
                    }
                }
            }
        }
        let source_down = FaultSet::single_vertex(VertexId(0));
        for targets in target_shapes(&graph, &source_down) {
            let before = batched.stats();
            let many = batched
                .dist_many_after_faults(&core, &targets, &source_down)
                .expect("in range");
            let delta = batched.stats().delta_since(&before);
            let forced_many = forced
                .dist_many_after_faults(&forced_core, &targets, &source_down)
                .expect("in range");
            assert!(
                many.iter().all(Option::is_none),
                "{name}: a target survived the failed source"
            );
            assert_eq!(forced_many, many, "{name}: forced != batched");
            assert_eq!(sweeps(&delta), 0, "{name}: the failed source ran a sweep");
        }
    }
}

/// The multi-source twin: per-slot one-to-many answers equal per-target
/// queries for every served source.
#[test]
fn multi_source_dist_many_matches_per_target() {
    let graph = Workload::new(WorkloadFamily::GridChords, 25, SEED).generate();
    let sources = vec![VertexId(0), VertexId(7), VertexId(19)];
    let mbfs = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(SEED).serial())
        .build_multi(&graph, &Sources::multi(sources.clone()))
        .expect("valid input");
    let core =
        EngineCore::build_multi_with(&graph, mbfs, repaired_options()).expect("matching graph");
    let (mut batched, mut reference) = (core.new_context(), core.new_context());
    let targets: Vec<VertexId> = graph.vertices().collect();
    for &s in &sources {
        for faults in FaultScenario::TreeConcentrated
            .generate(&graph, s, 2, 6, SEED)
            .iter()
            .filter(|f| !f.is_empty())
        {
            let many = batched
                .dist_many_after_faults_from(&core, s, &targets, faults)
                .expect("in range");
            let serial: Vec<Option<u32>> = targets
                .iter()
                .map(|&v| {
                    reference
                        .dist_after_faults_from(&core, s, v, faults)
                        .expect("in range")
                })
                .collect();
            assert_eq!(many, serial, "source {s:?} under {faults}");
        }
    }
}

/// Counter proof of the batched fast path: a target set whose members are
/// all provably unaffected is answered entirely from the fault-free row —
/// zero BFS sweeps of any tier, zero repairs, and every target attributed
/// to the `batched_unaffected` tier.
#[test]
fn all_unaffected_target_sets_run_zero_sweeps() {
    let graph = Workload::new(WorkloadFamily::LayeredDeep, 40, SEED).generate();
    let core = build_core(&graph, repaired_options());
    let mut ctx = core.new_context();
    let mut proven = 0usize;
    for faults in FaultScenario::TreeConcentrated
        .generate(&graph, VertexId(0), 2, 8, SEED)
        .iter()
        .filter(|f| !f.is_empty())
    {
        let targets: Vec<VertexId> = graph
            .vertices()
            .filter(|&v| {
                core.is_target_unaffected(VertexId(0), v, faults)
                    .expect("in range")
            })
            .collect();
        if targets.len() < 2 {
            continue;
        }
        proven += 1;
        let before = ctx.stats();
        let answers = ctx
            .dist_many_after_faults(&core, &targets, faults)
            .expect("in range");
        let after = ctx.stats();
        let delta = after.delta_since(&before);
        assert_eq!(answers.len(), targets.len());
        assert_eq!(delta.queries, targets.len(), "one query per target");
        assert_eq!(
            delta.structure_bfs_runs, 0,
            "no sparse-H sweep under {faults}"
        );
        assert_eq!(
            delta.augmented_bfs_runs, 0,
            "no augmented sweep under {faults}"
        );
        assert_eq!(
            delta.full_graph_bfs_runs, 0,
            "no full-graph sweep under {faults}"
        );
        assert_eq!(delta.repaired_rows, 0, "no repair under {faults}");
        assert_eq!(
            delta.restricted_repairs, 0,
            "no restricted sweep under {faults}"
        );
        assert_eq!(
            delta.tiers.batched_unaffected,
            targets.len(),
            "every target batch-classified under {faults}"
        );
        // Cross-check the answers themselves against the fault-free row:
        // unaffected means the fault-free distance survives.
        for (&v, &d) in targets.iter().zip(&answers) {
            assert_eq!(
                d,
                core.fault_free_dist(VertexId(0), v).expect("in range"),
                "{v:?}"
            );
        }
    }
    assert!(
        proven >= 3,
        "too few all-unaffected batches to prove anything"
    );
}

/// A batch's first miss on a fault set takes the target-restricted sweep
/// whatever its density: a dense affected set probed through one target,
/// or through every vertex, books one `restricted_repairs` count, repairs
/// no row and answers byte-identically. The batch leaves only the fault
/// set's key, so a per-target query on an affected vertex afterwards runs
/// its own search. A batch naming the remembered fault set again repairs
/// and caches its row; the batch after that runs no search.
#[test]
fn sparse_affected_targets_take_the_restricted_sweep() {
    let graph = Workload::new(WorkloadFamily::GridChords, 120, SEED).generate();
    let core = build_core(&graph, repaired_options());
    let mut reference = core.new_context();
    let mut per_target = |targets: &[VertexId], faults: &FaultSet| -> Vec<Option<u32>> {
        targets
            .iter()
            .map(|&v| {
                reference
                    .dist_after_faults(&core, v, faults)
                    .expect("in range")
            })
            .collect()
    };
    let all: Vec<VertexId> = graph.vertices().collect();
    let mut exercised = 0usize;
    let mut seen = HashSet::new();
    for faults in FaultScenario::TreeConcentrated
        .generate(&graph, VertexId(0), 2, 12, SEED)
        .iter()
        .filter(|f| !f.is_empty() && seen.insert((*f).clone()))
    {
        let affected: Vec<VertexId> = graph
            .vertices()
            .filter(|&v| {
                !core
                    .is_target_unaffected(VertexId(0), v, faults)
                    .expect("in range")
            })
            .collect();
        // One affected target amid a big affected set.
        if affected.len() < 16 {
            continue;
        }
        exercised += 1;
        let one = vec![affected[affected.len() / 2]];
        for targets in [&one, &all] {
            let mut ctx = core.new_context();
            let many = ctx
                .dist_many_after_faults(&core, targets, faults)
                .expect("in range");
            let stats = ctx.stats();
            assert_eq!(
                stats.restricted_repairs,
                1,
                "{} targets: restricted sweep not taken under {faults}",
                targets.len()
            );
            assert_eq!(
                stats.repaired_rows,
                0,
                "{} targets: a first miss repaired a row under {faults}",
                targets.len()
            );
            assert_eq!(
                many,
                per_target(targets, faults),
                "{} targets: answer differs under {faults}",
                targets.len()
            );

            // The batch left no row behind: a per-target query on an
            // affected vertex searches.
            let before = ctx.stats();
            ctx.dist_after_faults(&core, affected[0], faults)
                .expect("in range");
            let delta = ctx.stats().delta_since(&before);
            assert_eq!(
                sweeps(&delta),
                1,
                "per-target query found a batch row under {faults}"
            );
        }

        // Replays of one batch on one context: restricted sweep, then the
        // row repair, then the cached row.
        let expected = per_target(&all, faults);
        let mut ctx = core.new_context();
        for (round, want) in [(1, 0, 1), (0, 1, 1), (0, 0, 0)].into_iter().enumerate() {
            let before = ctx.stats();
            let many = ctx
                .dist_many_after_faults(&core, &all, faults)
                .expect("in range");
            let delta = ctx.stats().delta_since(&before);
            assert_eq!(
                (
                    delta.restricted_repairs,
                    delta.repaired_rows,
                    sweeps(&delta)
                ),
                want,
                "replay {round}: (restricted, repaired, searches) under {faults}"
            );
            assert_eq!(
                many, expected,
                "replay {round}: answer differs under {faults}"
            );
        }
    }
    assert!(exercised >= 2, "no fault set produced a dense affected set");
}

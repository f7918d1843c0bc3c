//! Experiment E11 — incremental post-failure row repair.
//!
//! Quantifies the two observations the repair path is built on:
//!
//! 1. **Affected sets are small.** For a fault set `F`, only the vertices
//!    whose canonical tree path uses a failed element can change distance —
//!    the subtrees under the faults in the fault-free BFS tree `T0`. Per
//!    workload family and fault scenario, this prints the distribution of
//!    `|affected| / n` (min / median / p90 / max), i.e. how little of a row
//!    a cache miss actually has to recompute.
//! 2. **Repair beats re-sweeping.** Per scenario, the same batch is served
//!    by the default engine (incremental repair + unaffected-target fast
//!    path) and by a forced full-sweep engine
//!    ([`EngineOptions::with_force_full_sweep`], the pre-repair
//!    behaviour), with wall times, the speedup, and the tier/sweep
//!    counters proving where the work went. Answers are asserted
//!    identical.

use ftb_bench::{median, percentile, Table};
use ftb_core::{EngineCore, EngineOptions, Sources, StructureBuilder, TradeoffBuilder};
use ftb_graph::{FaultSet, Graph, VertexId};
use ftb_workloads::{FaultScenario, Workload, WorkloadFamily};
use std::time::Instant;

fn main() {
    let seed = 21u64;
    let source = VertexId(0);

    // 1. Affected-set size distribution per workload family and scenario.
    let mut sizes = Table::new(
        "E11a — affected-set size as a fraction of n (f = 1, 64 sets per cell)",
        &[
            "workload",
            "n",
            "scenario",
            "min",
            "median",
            "p90",
            "max",
            "affected/n",
        ],
    );
    for &family in WorkloadFamily::all() {
        let w = Workload::new(family, 400, seed);
        let graph: Graph = w.generate();
        let n = graph.num_vertices();
        let structure = TradeoffBuilder::new(0.3)
            .with_config(|c| c.with_seed(seed).serial())
            .build(&graph, &Sources::single(source))
            .expect("workload graphs with source 0 are valid input");
        let core = EngineCore::build(&graph, structure).expect("matching graph");
        for &scenario in &[
            FaultScenario::RandomEdges,
            FaultScenario::TreeConcentrated,
            FaultScenario::CorrelatedVertices,
        ] {
            let sets = scenario.generate(&graph, source, 1, 64, seed);
            let mut counts: Vec<usize> = sets
                .iter()
                .filter(|f| !f.is_empty())
                .map(|f| {
                    core.affected_vertex_count(source, f)
                        .expect("generated sets are valid")
                })
                .collect();
            counts.sort_unstable();
            if counts.is_empty() {
                continue;
            }
            let mean: f64 = counts.iter().sum::<usize>() as f64 / counts.len() as f64 / n as f64;
            sizes.add_row(vec![
                family.name().to_string(),
                n.to_string(),
                scenario.name().to_string(),
                counts[0].to_string(),
                median(&counts).to_string(),
                percentile(&counts, 0.9).to_string(),
                counts[counts.len() - 1].to_string(),
                format!("{:.1}%", 100.0 * mean),
            ]);
        }
    }
    println!("{}", sizes.render());

    // 2. Repaired vs full-sweep serving on one mid-size instance.
    let graph = Workload::new(WorkloadFamily::ErdosRenyi, 2000, seed).generate();
    let structure = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(seed).serial())
        .build(&graph, &Sources::single(source))
        .expect("valid input");
    let stride = (graph.num_vertices() / 24).max(1);
    let vertices: Vec<VertexId> = (0..graph.num_vertices())
        .step_by(stride)
        .map(VertexId::new)
        .collect();
    let repaired_core =
        EngineCore::build_with(&graph, structure.clone(), EngineOptions::new().serial())
            .expect("matching graph");
    let full_core = EngineCore::build_with(
        &graph,
        structure,
        EngineOptions::new().serial().with_force_full_sweep(true),
    )
    .expect("matching graph");

    let mut serving = Table::new(
        &format!(
            "E11b — batch serving, repaired vs full sweep (n={}, m={}, |batch| = 48 fault sets x {} targets)",
            graph.num_vertices(),
            graph.num_edges(),
            vertices.len()
        ),
        &[
            "scenario",
            "f",
            "full sweep",
            "repaired",
            "speedup",
            "repaired rows",
            "fast-path hits",
            "sweeps (repaired/full)",
        ],
    );
    for &scenario in FaultScenario::all() {
        for f in [1usize, 2] {
            let sets = scenario.generate(&graph, source, f, 48, seed);
            let queries: Vec<(VertexId, VertexId, FaultSet)> = sets
                .iter()
                .filter(|s| !s.is_empty())
                .flat_map(|fs| vertices.iter().map(move |&v| (source, v, fs.clone())))
                .collect();
            let mut repaired = repaired_core.new_context();
            let mut full = full_core.new_context();
            // Warm once (answers asserted identical), then time.
            let a = repaired
                .query_many_faults(&repaired_core, &queries)
                .expect("in range");
            let b = full
                .query_many_faults(&full_core, &queries)
                .expect("in range");
            assert_eq!(a, b, "repaired batch diverged from full sweeps");
            // Median of independent repeats: one slow outlier (page fault,
            // scheduler hiccup) cannot skew the reported time the way a
            // mean over the same repeats would.
            let reps = 5usize;
            let mut rep_samples = Vec::with_capacity(reps);
            for _ in 0..reps {
                let t0 = Instant::now();
                std::hint::black_box(
                    repaired
                        .query_many_faults(&repaired_core, &queries)
                        .expect("in range"),
                );
                rep_samples.push(t0.elapsed());
            }
            let mut full_samples = Vec::with_capacity(reps);
            for _ in 0..reps {
                let t0 = Instant::now();
                std::hint::black_box(
                    full.query_many_faults(&full_core, &queries)
                        .expect("in range"),
                );
                full_samples.push(t0.elapsed());
            }
            rep_samples.sort_unstable();
            full_samples.sort_unstable();
            let t_rep = median(&rep_samples);
            let t_full = median(&full_samples);
            let rs = repaired.stats();
            let fs_ = full.stats();
            let sweeps = |s: &ftb_core::QueryStats| s.structure_bfs_runs + s.full_graph_bfs_runs;
            serving.add_row(vec![
                scenario.name().to_string(),
                f.to_string(),
                format!("{t_full:?}"),
                format!("{t_rep:?}"),
                format!("{:.1}x", t_full.as_secs_f64() / t_rep.as_secs_f64()),
                rs.repaired_rows.to_string(),
                rs.tiers.unaffected_fast_path.to_string(),
                format!("{}/{}", sweeps(&rs), sweeps(&fs_)),
            ]);
        }
    }
    println!("{}", serving.render());

    // 3. Dense all-target serving through the one-to-many API: the same
    // fault sets, but every vertex requested, answered once per target by
    // the per-target loop and once per fault set by
    // `dist_many_after_faults` (one interval-batched classification plus
    // one amortised row extraction). This is the shape `exp_one_to_many`
    // sweeps in detail; here it closes the loop on E11b by showing what
    // the repaired row costs when it is *extracted in bulk* instead of
    // probed 24 times.
    let all_targets: Vec<VertexId> = graph.vertices().collect();
    let mut dense = Table::new(
        &format!(
            "E11c — dense all-target serving, per-target loop vs one-to-many (n={}, 48 fault sets x {} targets)",
            graph.num_vertices(),
            all_targets.len()
        ),
        &["scenario", "f", "per-target", "one-to-many", "speedup"],
    );
    for &scenario in &[FaultScenario::TreeConcentrated, FaultScenario::RandomEdges] {
        for f in [1usize, 2] {
            let sets: Vec<FaultSet> = scenario
                .generate(&graph, source, f, 48, seed)
                .into_iter()
                .filter(|s| !s.is_empty())
                .collect();
            let core = &repaired_core;
            let mut per_target = core.new_context();
            let mut batched = core.new_context();
            for fs_set in &sets {
                let a: Vec<Option<u32>> = all_targets
                    .iter()
                    .map(|&v| {
                        per_target
                            .dist_after_faults(core, v, fs_set)
                            .expect("in range")
                    })
                    .collect();
                let b = batched
                    .dist_many_after_faults(core, &all_targets, fs_set)
                    .expect("in range");
                assert_eq!(a, b, "one-to-many diverged from the per-target loop");
            }
            let reps = 5usize;
            let time = |f: &mut dyn FnMut()| {
                let mut samples = Vec::with_capacity(reps);
                for _ in 0..reps {
                    let t0 = Instant::now();
                    f();
                    samples.push(t0.elapsed());
                }
                samples.sort_unstable();
                median(&samples)
            };
            let t_old = time(&mut || {
                for fs_set in &sets {
                    for &v in &all_targets {
                        std::hint::black_box(
                            per_target
                                .dist_after_faults(core, v, fs_set)
                                .expect("in range"),
                        );
                    }
                }
            });
            let t_new = time(&mut || {
                for fs_set in &sets {
                    std::hint::black_box(
                        batched
                            .dist_many_after_faults(core, &all_targets, fs_set)
                            .expect("in range"),
                    );
                }
            });
            dense.add_row(vec![
                scenario.name().to_string(),
                f.to_string(),
                format!("{t_old:?}"),
                format!("{t_new:?}"),
                format!("{:.1}x", t_old.as_secs_f64() / t_new.as_secs_f64()),
            ]);
        }
    }
    println!("{}", dense.render());
    println!(
        "The committed `row_repair` criterion baseline gates both sides in CI; \
         set FTBFS_FORCE_FULL_SWEEP=1 to pin any engine to the full-sweep path. \
         `exp_one_to_many` sweeps the restricted-sweep crossover behind E11c's batched column."
    );
}

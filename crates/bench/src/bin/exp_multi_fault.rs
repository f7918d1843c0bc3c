//! Experiment E9 — multi-fault query serving across scenario families.
//!
//! Exercises the generalised fault model end to end: for each
//! [`FaultScenario`] (random edge sets, mixed edge+vertex sets, correlated
//! vertex outages, faults concentrated on the BFS tree) and `f ∈ {1, 2}`,
//! a batch of `(vertex, fault set)` queries is answered serially and
//! sharded, timed, and the per-scenario BFS work is reported — showing how
//! much of each scenario the sparse structure absorbs (fault-free and
//! structure-BFS answers) versus recomputed full-graph rows. A small
//! instance is additionally cross-checked against brute-force BFS over
//! every fault set of size ≤ 2.

use ftb_bench::Table;
use ftb_core::{
    cross_check_fault_sets, EngineCore, EngineOptions, Sources, StructureBuilder, TradeoffBuilder,
};
use ftb_graph::{enumerate_fault_sets, FaultSet, VertexId};
use ftb_par::ParallelConfig;
use ftb_workloads::{FaultScenario, Workload, WorkloadFamily};
use std::time::Instant;

fn main() {
    let seed = 9u64;
    let source = VertexId(0);

    // Correctness first: on a small instance, every fault set of size ≤ 2
    // must match brute-force BFS over the masked graph.
    let small = Workload::new(WorkloadFamily::GridChords, 36, seed).generate();
    let small_structure = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(seed).serial())
        .build(&small, &Sources::single(source))
        .expect("workload graphs with source 0 are valid input");
    let small_core =
        EngineCore::build(&small, small_structure).expect("structure matches its graph");
    let sets = enumerate_fault_sets(&small, 2);
    let mismatches = cross_check_fault_sets(&small_core, &sets, &ParallelConfig::default())
        .expect("enumerated sets are in range and within the cap");
    assert!(
        mismatches.is_empty(),
        "engine diverged from brute force: {:?}",
        mismatches.first()
    );
    println!(
        "cross-check: {} fault sets (|F| <= 2) on n={} m={}: all exact\n",
        sets.len(),
        small.num_vertices(),
        small.num_edges()
    );

    // Throughput: a mid-size workload, one batch per scenario and f.
    let workload = Workload::new(WorkloadFamily::ErdosRenyi, 1200, seed);
    let graph = workload.generate();
    let structure = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(seed).serial())
        .build(&graph, &Sources::single(source))
        .expect("workload graphs with source 0 are valid input");
    println!(
        "workload {}: n = {}, m = {}, |E(H)| = {} ({} reinforced)",
        workload.label(),
        graph.num_vertices(),
        graph.num_edges(),
        structure.num_edges(),
        structure.num_reinforced(),
    );

    let stride = (graph.num_vertices() / 24).max(1);
    let mut table = Table::new(
        "E9: multi-fault serving (serial vs 4-thread sharded)",
        &[
            "scenario",
            "f",
            "queries",
            "serial ms",
            "sharded ms",
            "speedup",
            "tier row",
            "tier fast",
            "tier H",
            "tier H+",
            "tier G",
            "identical",
        ],
    );
    for &scenario in FaultScenario::all() {
        for f in [1usize, 2] {
            let fault_sets = scenario.generate(&graph, source, f, 96, seed);
            let queries: Vec<(VertexId, VertexId, FaultSet)> = fault_sets
                .iter()
                .flat_map(|fs| {
                    (0..graph.num_vertices())
                        .step_by(stride)
                        .map(move |v| (source, VertexId::new(v), fs.clone()))
                })
                .collect();

            let run = |options: EngineOptions| {
                let core = EngineCore::build_with(&graph, structure.clone(), options)
                    .expect("matching graph");
                let mut ctx = core.new_context();
                // Warm-up pass (first touch pays page faults), then the
                // timed pass; report the timed pass's counter increments.
                let _ = ctx.query_many_faults(&core, &queries).expect("in range");
                let warm = ctx.stats();
                let t = Instant::now();
                let results = ctx.query_many_faults(&core, &queries).expect("in range");
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let delta = ctx.stats().delta_since(&warm);
                (results, ms, delta)
            };

            let (reference, serial_ms, stats) = run(EngineOptions::new().serial());
            let (sharded, sharded_ms, _) =
                run(EngineOptions::new().with_parallel(ParallelConfig::with_threads(4)));
            let identical = sharded == reference;
            assert!(identical, "{}: sharded diverged", scenario.name());
            assert_eq!(
                stats.tiers.total(),
                queries.len(),
                "tiers must sum to queries"
            );
            table.add_row(vec![
                scenario.name().to_string(),
                f.to_string(),
                queries.len().to_string(),
                format!("{serial_ms:.1}"),
                format!("{sharded_ms:.1}"),
                format!("{:.2}x", serial_ms / sharded_ms),
                stats.tiers.fault_free_row.to_string(),
                stats.tiers.unaffected_fast_path.to_string(),
                stats.tiers.sparse_h_bfs.to_string(),
                stats.tiers.augmented_bfs.to_string(),
                stats.tiers.full_graph_bfs.to_string(),
                identical.to_string(),
            ]);
        }
    }
    table.print();
    println!(
        "\nReading guide: the `tier` columns are the per-tier answering \
         counters — `row` queries read the preprocessed fault-free rows, \
         `fast` is the unaffected-target fast path (the fault touches the \
         structure but provably not the target's tree path, so the \
         fault-free row answers with no search), \
         `H` uses the sparse structure (single non-reinforced edge faults), \
         `H+` the augmented structure (zero here: this engine is built \
         without augmentation — see exp_ftbfs_augment), and `G` is the \
         exact full-graph recomputation. tree-concentrated at f=1 maximises \
         the H tier; vertex and multi-fault scenarios shift work to G."
    );
}

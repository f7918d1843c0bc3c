//! Experiment E8 — parallel batched fault-query serving.
//!
//! Measures `QueryContext::query_many_faults` on a ≥10k-query batch of
//! single-edge failures as the core's worker-thread count grows, verifying
//! on the way that every sharded run is byte-identical to the serial
//! reference (the engine's determinism contract). Also exercises a
//! multi-source core: per-source batches against one shared core.

use ftb_bench::{median, Table};
use ftb_core::{EngineCore, EngineOptions, Sources, StructureBuilder, TradeoffBuilder};
use ftb_graph::{FaultSet, VertexId};
use ftb_par::ParallelConfig;
use ftb_workloads::{Workload, WorkloadFamily};
use std::time::Instant;

/// Timed repetitions per configuration; the median is reported.
const REPS: usize = 3;

fn main() {
    let seed = 8u64;
    let workload = Workload::new(WorkloadFamily::ErdosRenyi, 1500, seed);
    let graph = workload.generate();
    let structure = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(seed).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("workload graphs with source 0 are valid input");
    println!(
        "workload {}: n = {}, m = {}, |E(H)| = {} ({} reinforced), HLD levels = {}",
        workload.label(),
        graph.num_vertices(),
        graph.num_edges(),
        structure.num_edges(),
        structure.num_reinforced(),
        structure.stats().hld_levels,
    );

    // One batch probing every edge of the graph against a spread of target
    // vertices: every distinct structure edge becomes one BFS group, so the
    // batch exposes exactly the work the sharding distributes.
    let stride = (graph.num_vertices() / 8).max(1);
    let queries: Vec<(VertexId, VertexId, FaultSet)> = graph
        .edge_ids()
        .flat_map(|e| {
            (0..graph.num_vertices())
                .step_by(stride)
                .map(move |v| (VertexId(0), VertexId::new(v), FaultSet::from(e)))
        })
        .collect();
    assert!(queries.len() >= 10_000, "batch too small to be meaningful");
    println!(
        "batch: {} queries over {} edges\n",
        queries.len(),
        graph.num_edges()
    );

    let run = |parallel: ParallelConfig| {
        let options = EngineOptions::new().with_parallel(parallel);
        let core =
            EngineCore::build_with(&graph, structure.clone(), options).expect("matching graph");
        let mut ctx = core.new_context();
        // Warm-up pass (first touch pays page faults), then the median of
        // several timed passes — robust against a one-off scheduler stall;
        // report only one pass's counter increments.
        let _ = ctx.query_many_faults(&core, &queries).expect("in range");
        let warm = ctx.stats();
        let mut samples = Vec::with_capacity(REPS);
        let mut results = Vec::new();
        for _ in 0..REPS {
            let t = Instant::now();
            results = ctx.query_many_faults(&core, &queries).expect("in range");
            samples.push(t.elapsed().as_secs_f64() * 1e3);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let total = ctx.stats();
        let sweeps = ((total.structure_bfs_runs - warm.structure_bfs_runs)
            + (total.full_graph_bfs_runs - warm.full_graph_bfs_runs))
            / REPS;
        (results, median(&samples), sweeps)
    };

    let (reference, serial_ms, _) = run(ParallelConfig::serial());
    let mut table = Table::new(
        &format!("E8: query_many_faults sharding ({} queries)", queries.len()),
        &["threads", "time ms", "speedup", "BFS sweeps", "identical"],
    );
    for threads in [1usize, 2, 4, 8] {
        let config = if threads == 1 {
            ParallelConfig::serial()
        } else {
            ParallelConfig::with_threads(threads)
        };
        let (results, ms, sweeps) = run(config);
        let identical = results == reference;
        assert!(identical, "sharded results diverged at {threads} threads");
        table.add_row(vec![
            threads.to_string(),
            format!("{ms:.1}"),
            format!("{:.2}x", serial_ms / ms),
            sweeps.to_string(),
            identical.to_string(),
        ]);
    }
    table.print();

    // Multi-source serving from one shared core: the same batch shape, but
    // each query names one of the union's sources.
    let sources: Vec<VertexId> = (0..4)
        .map(|i| VertexId::new(i * graph.num_vertices() / 4))
        .collect();
    let mbfs = ftb_core::TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(seed).serial())
        .build_multi(&graph, &Sources::multi(sources.clone()))
        .expect("workload gateways are valid sources");
    let ms_queries: Vec<(VertexId, VertexId, FaultSet)> = graph
        .edge_ids()
        .enumerate()
        .flat_map(|(i, e)| {
            let s = sources[i % sources.len()];
            (0..graph.num_vertices())
                .step_by(stride * 2)
                .map(move |v| (s, VertexId::new(v), FaultSet::from(e)))
        })
        .collect();
    let run_multi = |parallel: ParallelConfig| {
        let options = EngineOptions::new().with_parallel(parallel);
        let core =
            EngineCore::build_multi_with(&graph, mbfs.clone(), options).expect("matching graph");
        let mut ctx = core.new_context();
        let _ = ctx.query_many_faults(&core, &ms_queries).expect("in range");
        let mut samples = Vec::with_capacity(REPS);
        let mut results = Vec::new();
        for _ in 0..REPS {
            let t = Instant::now();
            results = ctx.query_many_faults(&core, &ms_queries).expect("in range");
            samples.push(t.elapsed().as_secs_f64() * 1e3);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        (results, median(&samples))
    };
    let (ms_reference, ms_serial) = run_multi(ParallelConfig::serial());
    let mut table = Table::new(
        &format!(
            "E8b: multi-source query_many_faults, {} sources ({} queries)",
            sources.len(),
            ms_queries.len()
        ),
        &["threads", "time ms", "speedup", "identical"],
    );
    for threads in [1usize, 4] {
        let config = if threads == 1 {
            ParallelConfig::serial()
        } else {
            ParallelConfig::with_threads(threads)
        };
        let (results, ms) = run_multi(config);
        assert_eq!(results, ms_reference, "multi-source sharding diverged");
        table.add_row(vec![
            threads.to_string(),
            format!("{ms:.1}"),
            format!("{:.2}x", ms_serial / ms),
            "true".to_string(),
        ]);
    }
    table.print();

    println!("\nExpected shape: identical results at every width; wall-clock falls as threads");
    println!("grow until the per-batch BFS groups run out (each group is one unit of work).");
}

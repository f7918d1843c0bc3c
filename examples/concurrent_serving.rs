//! Concurrent fault-query serving: one shared `EngineCore`, one
//! `QueryContext` per worker thread.
//!
//! The engine core is immutable and `Send + Sync`, so preprocessing happens
//! once and any number of threads answer post-failure queries from the same
//! `Arc<EngineCore>` — each with its own cheap context (scratch buffers plus
//! a small LRU of recently computed distance rows). This is the pattern a
//! serving process uses: preprocess at startup, then give every request
//! worker a context.
//!
//! ```bash
//! cargo run --release --example concurrent_serving
//! ```

use ftbfs::graph::{EdgeId, VertexId};
use ftbfs::workloads::{Workload, WorkloadFamily};
use ftbfs::{EngineCore, EngineOptions, Sources, StructureBuilder, TradeoffBuilder};
use std::sync::Arc;

fn main() {
    let workload = Workload::new(WorkloadFamily::ErdosRenyi, 800, 7);
    let graph = workload.generate();
    let structure = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(7))
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("a connected workload with source 0 is valid input");
    println!(
        "workload {}: n = {}, m = {}, |E(H)| = {}",
        workload.label(),
        graph.num_vertices(),
        graph.num_edges(),
        structure.num_edges()
    );

    // Preprocess once into a shareable core. The core owns everything it
    // needs, so the Arc moves freely into spawned threads.
    let core = Arc::new(
        EngineCore::build_with(&graph, structure, EngineOptions::new())
            .expect("structure matches its graph"),
    );

    // Fan out: each worker serves a disjoint slice of failure scenarios with
    // its own context. No locks, no channels — the core is read-only.
    let edges: Vec<EdgeId> = graph.edge_ids().collect();
    let far = VertexId((graph.num_vertices() - 1) as u32);
    let workers = 4usize;
    let mut handles = Vec::new();
    for w in 0..workers {
        let core = Arc::clone(&core);
        let shard: Vec<EdgeId> = edges.iter().copied().skip(w).step_by(workers).collect();
        handles.push(std::thread::spawn(move || {
            let mut ctx = core.new_context();
            let mut worst: Option<u32> = None;
            let mut disconnected = 0usize;
            for &e in &shard {
                match ctx
                    .dist_after_faults(&core, far, &e.into())
                    .expect("shard queries are in range")
                {
                    Some(d) => worst = Some(worst.map_or(d, |w| w.max(d))),
                    None => disconnected += 1,
                }
            }
            (shard.len(), worst, disconnected, ctx.stats())
        }));
    }

    let mut total = 0usize;
    let mut worst: Option<u32> = None;
    let mut disconnected = 0usize;
    for (w, handle) in handles.into_iter().enumerate() {
        let (served, shard_worst, shard_disc, stats) = handle.join().expect("worker panicked");
        println!(
            "worker {w}: {served} failures served, {} BFS sweeps in H, {} cache/fault-free hits",
            stats.structure_bfs_runs + stats.full_graph_bfs_runs,
            stats.cached_answers
        );
        total += served;
        disconnected += shard_disc;
        worst = match (worst, shard_worst) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
    println!(
        "served {total} single-failure scenarios against vertex {far:?}: worst distance {worst:?}, \
         {disconnected} disconnecting failures"
    );
    assert_eq!(total, edges.len());
    println!("OK: every failure scenario answered from one shared core.");
}

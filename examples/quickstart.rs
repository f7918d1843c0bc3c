//! Quickstart: build a `(b, r)` FT-BFS structure, verify it, and serve
//! post-failure queries from it.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use ftbfs::graph::VertexId;
use ftbfs::sp::{ShortestPathTree, TieBreakWeights};
use ftbfs::workloads::{Workload, WorkloadFamily};
use ftbfs::{
    verify_structure, EngineCore, EngineOptions, FaultSet, Sources, StructureBuilder,
    TradeoffBuilder,
};

fn main() {
    // A reproducible random workload: an Erdős–Rényi graph with ~500 vertices.
    let workload = Workload::new(WorkloadFamily::ErdosRenyi, 500, 42);
    let graph = workload.generate();
    let source = VertexId(0);
    println!(
        "workload {} : n = {}, m = {}",
        workload.label(),
        graph.num_vertices(),
        graph.num_edges()
    );

    // Build the structure for a mid-range tradeoff point.
    let eps = 0.3;
    let builder = TradeoffBuilder::new(eps).with_config(|c| c.with_seed(42));
    let structure = builder
        .build(&graph, &Sources::single(source))
        .expect("a connected workload with source 0 is valid input");
    println!(
        "eps = {eps}: |E(H)| = {}, backup b = {}, reinforced r = {}",
        structure.num_edges(),
        structure.num_backup(),
        structure.num_reinforced()
    );
    println!(
        "phase S1 added {} edges, phase S2 added {} (+{} for glue edges), construction took {:.1} ms",
        structure.stats().s1_added_edges,
        structure.stats().s2_added_edges,
        structure.stats().s2_glue_added_edges,
        structure.stats().construction_ms
    );

    // Verify the defining guarantee from scratch: for every vertex v and
    // every non-reinforced tree edge e, dist(s,v,H\{e}) <= dist(s,v,G\{e}).
    let weights = TieBreakWeights::generate(&graph, builder.config().seed);
    let tree = ShortestPathTree::build(&graph, &weights, source);
    let report = verify_structure(&graph, &tree, &structure, &builder.config().parallel, false);
    println!(
        "verification: {} failing edges checked, {} violations, fault-free distances preserved: {}",
        report.checked_edges,
        report.violations.len(),
        report.fault_free_ok
    );
    assert!(report.is_valid(), "the constructed structure must verify");

    // Preprocess once, query many: the engine answers post-failure distances
    // out of the sparse structure with no per-query allocation. Serving
    // knobs (per-context LRU rows, batch-sharding threads, the fault-set
    // cap) live in EngineOptions; see the concurrent_serving example for
    // serving one shared EngineCore from many threads.
    let options = EngineOptions::new().with_lru_rows(8).with_max_faults(2);
    let core = EngineCore::build_with(&graph, structure, options).expect("matching graph");
    let mut ctx = core.new_context();
    let far = VertexId((graph.num_vertices() - 1) as u32);
    let probes: Vec<_> = graph
        .edge_ids()
        .take(64)
        .map(|e| (source, far, FaultSet::from(e)))
        .collect();
    let answers = ctx
        .query_many_faults(&core, &probes)
        .expect("probes are in range");
    let worst = answers.iter().flatten().max();
    println!(
        "served {} queries ({} BFS sweeps inside H, {} cache hits); worst probed distance: {:?}",
        answers.len(),
        ctx.stats().structure_bfs_runs,
        ctx.stats().cached_answers,
        worst
    );
    println!("OK: the structure is a valid (b, r) FT-BFS structure.");
}

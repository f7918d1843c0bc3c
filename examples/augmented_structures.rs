//! Retiring the full-graph fallback: augmented structures end to end.
//!
//! A regional backbone serves post-failure distance queries from one
//! head-end. Vertex outages and double failures used to cost a full-graph
//! BFS per distinct fault set; the replacement-path augmentation
//! (`ftb_core::ftbfs`) precomputes a sparse `H⁺` once, offline, and the
//! same queries become sparse-subgraph searches — observable through the
//! engine's per-tier counters.
//!
//! Run with `cargo run --example augmented_structures`.

use ftbfs::graph::{Fault, FaultSet, VertexId};
use ftbfs::workloads::families;
use ftbfs::{
    build_augmented_structure, AugmentCoverage, BuildConfig, BuildPlan, EngineCore, Sources,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A dense-ish regional backbone: 200 sites, 2000 links.
    let graph = families::erdos_renyi_gnm(200, 2000, 42);
    let head_end = VertexId(0);

    // Stage 1 + 2 in one call: build the (b, r) tradeoff structure, then
    // run the dual-failure replacement-path augmentation over it.
    let config = BuildConfig::new(0.3)
        .with_seed(42)
        .with_augment(AugmentCoverage::DualFailure);
    let augmented = build_augmented_structure(
        &graph,
        &Sources::single(head_end),
        BuildPlan::Tradeoff { eps: 0.3 },
        &config,
    )?;
    println!(
        "graph: n = {}, m = {}; H keeps {} edges, H+ adds {} more ({:.0} ms offline)",
        graph.num_vertices(),
        graph.num_edges(),
        augmented.base().num_edges(),
        augmented.added_edges(),
        augmented.stats().augment_ms
    );

    let core = EngineCore::build_augmented(&graph, augmented)?;
    let mut ctx = core.new_context();

    // A vertex outage, a double link failure, and a mixed one — all inside
    // the dual-failure coverage, so none of them recomputes over G.
    let dark_site = FaultSet::single_vertex(VertexId(17));
    let double_cut: FaultSet = [
        Fault::Edge(ftbfs::graph::EdgeId(3)),
        Fault::Edge(ftbfs::graph::EdgeId(900)),
    ]
    .into_iter()
    .collect();
    let mixed: FaultSet = [
        Fault::Vertex(VertexId(60)),
        Fault::Edge(ftbfs::graph::EdgeId(55)),
    ]
    .into_iter()
    .collect();
    for (label, faults) in [
        ("site 17 dark", &dark_site),
        ("links 3 + 900 cut", &double_cut),
        ("site 60 dark + link 55 cut", &mixed),
    ] {
        let probe = VertexId(150);
        match ctx.dist_after_faults(&core, probe, faults)? {
            Some(d) => println!("{label}: site {probe} now {d} hops from the head-end"),
            None => println!("{label}: site {probe} disconnected"),
        }
    }

    let stats = ctx.stats();
    println!(
        "tier counters: fault-free row {}, unaffected fast path {}, sparse H {}, \
         augmented H+ {}, full graph {}",
        stats.tiers.fault_free_row,
        stats.tiers.unaffected_fast_path,
        stats.tiers.sparse_h_bfs,
        stats.tiers.augmented_bfs,
        stats.tiers.full_graph_bfs
    );
    assert_eq!(
        stats.tiers.full_graph_bfs, 0,
        "covered fault sets never fall back to a full-graph BFS"
    );
    Ok(())
}

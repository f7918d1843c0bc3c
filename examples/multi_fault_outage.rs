//! Surviving a correlated outage: vertex + edge faults in one query.
//!
//! A metro fibre ring with cross-links loses a whole street cabinet (a
//! vertex: the node and every attached fibre) at the same time as an
//! unrelated backhoe cuts one link (an edge). The operator wants, for each
//! customer site, the new distance from the head-end and a concrete
//! detour — one engine, one `FaultSet`, no rebuild.
//!
//! Run with `cargo run --example multi_fault_outage`.

use ftbfs::graph::{Fault, FaultSet, GraphBuilder, VertexId};
use ftbfs::{EngineCore, EngineOptions, Sources, StructureBuilder, TradeoffBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 12-node ring (head-end = 0) with a few cross-town chords.
    let n = 12;
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(VertexId::new(i), VertexId::new((i + 1) % n));
    }
    for (u, v) in [(0, 4), (2, 7), (5, 10), (3, 9)] {
        b.add_edge(VertexId(u), VertexId(v));
    }
    let graph = b.build();
    let head_end = VertexId(0);

    let structure = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(7))
        .build(&graph, &Sources::single(head_end))?;
    println!(
        "ring: n = {}, m = {}; structure keeps {} edges ({} reinforced)",
        graph.num_vertices(),
        graph.num_edges(),
        structure.num_edges(),
        structure.num_reinforced()
    );

    let core = EngineCore::build_with(
        &graph,
        structure,
        // default cap is 2 simultaneous faults; this outage needs exactly 2
        EngineOptions::new().with_max_faults(2),
    )?;
    let mut ctx = core.new_context();

    // The outage: cabinet 7 is dark, and the 5–10 chord is cut.
    let cut = graph
        .find_edge(VertexId(5), VertexId(10))
        .expect("the chord exists");
    let outage: FaultSet = [Fault::Vertex(VertexId(7)), Fault::Edge(cut)]
        .into_iter()
        .collect();
    println!("outage {outage}: cabinet 7 dark, chord 5-10 cut\n");

    println!("site | before | after | detour");
    println!("---- | ------ | ----- | ------");
    for v in graph.vertices().filter(|&v| v != head_end) {
        let before = core
            .fault_free_dist(head_end, v)?
            .expect("ring is connected");
        match ctx.dist_after_faults(&core, v, &outage)? {
            Some(after) => {
                let path = ctx
                    .path_after_faults(&core, v, &outage)?
                    .expect("reachable sites have witness paths");
                let hops: Vec<String> = path.vertices().iter().map(|w| w.to_string()).collect();
                println!("{v:>4} | {before:>6} | {after:>5} | {}", hops.join("→"));
            }
            None => println!("{v:>4} | {before:>6} |  dark | (cabinet offline)"),
        }
    }

    let stats = ctx.stats();
    println!(
        "\n{} queries; {} cached, {} structure sweeps, {} full-graph sweeps",
        stats.queries, stats.cached_answers, stats.structure_bfs_runs, stats.full_graph_bfs_runs
    );
    println!(
        "(vertex faults sit outside the paper's single-edge guarantee, so the\n\
         engine answers them with exact recomputed rows — one full-graph BFS\n\
         per distinct fault set, then served from the LRU.)"
    );
    Ok(())
}

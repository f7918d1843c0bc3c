//! Multi-source FT-MBFS: protecting several gateways at once.
//!
//! A campus network has a handful of gateway routers; operations wants exact
//! post-failure shortest paths from *every* gateway. This example builds an
//! ε FT-MBFS structure for a set of gateway sources via
//! [`TradeoffBuilder::build_multi`] and reports how the cost grows with the
//! number of sources, mirroring the σ-dependence of Theorem 5.4.
//!
//! ```bash
//! cargo run --release --example multi_source_backbone
//! ```

use ftbfs::graph::VertexId;
use ftbfs::workloads::{Workload, WorkloadFamily};
use ftbfs::{Sources, TradeoffBuilder};

fn main() {
    let workload = Workload::new(WorkloadFamily::GridChords, 400, 3);
    let graph = workload.generate();
    println!(
        "backbone {}: n = {}, m = {}",
        workload.label(),
        graph.num_vertices(),
        graph.num_edges()
    );

    let eps = 0.3;
    let builder = TradeoffBuilder::new(eps).with_config(|c| c.with_seed(3));
    // Gateways spread across the id space.
    let all_gateways: Vec<VertexId> = (0..8)
        .map(|i| VertexId::new(i * graph.num_vertices() / 8))
        .collect();

    println!(
        "{:>9} | {:>9} | {:>9} | {:>9}",
        "gateways", "|E(H)|", "backup", "reinforced"
    );
    for count in [1usize, 2, 4, 8] {
        let sources = Sources::multi(all_gateways[..count].to_vec());
        let mbfs = builder
            .build_multi(&graph, &sources)
            .expect("gateways are valid sources");
        println!(
            "{count:>9} | {:>9} | {:>9} | {:>9}",
            mbfs.num_edges(),
            mbfs.num_backup(),
            mbfs.num_reinforced()
        );
    }
    println!("\nper-source detail for the 4-gateway design:");
    let mbfs = builder
        .build_multi(&graph, &Sources::multi(all_gateways[..4].to_vec()))
        .expect("gateways are valid sources");
    for (s, st) in mbfs.sources().iter().zip(mbfs.per_source()) {
        println!(
            "  source {s:?}: b = {}, r = {}, construction {:.1} ms",
            st.num_backup(),
            st.num_reinforced(),
            st.stats().construction_ms
        );
    }
}

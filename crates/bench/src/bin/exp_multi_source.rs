//! Experiment E5 — multi-source structures (Theorem 5.4).
//!
//! Measures how the FT-MBFS union size grows with the number of sources σ on
//! the Theorem 5.4 hard instance and on a random workload, and compares the
//! certified forced-edge count with the measured structures.

use ftb_bench::Table;
use ftb_core::{Sources, TradeoffBuilder};
use ftb_graph::VertexId;
use ftb_lower_bounds::multi_source_lower_bound;
use ftb_workloads::{Workload, WorkloadFamily};

fn main() {
    let eps = 0.3;
    let seed = 5u64;
    let builder = TradeoffBuilder::new(eps).with_config(|c| c.with_seed(seed));

    // Hard instances: one per sigma.
    let mut table = Table::new(
        "E5a: FT-MBFS on the Theorem 5.4 instance (target n = 700, eps = 0.3)",
        &[
            "sigma",
            "real n",
            "|Pi|",
            "certified bound (budget)",
            "union edges",
            "union backup",
            "union reinforced",
        ],
    );
    for &sigma in &[1usize, 2, 4] {
        let lb = multi_source_lower_bound(700, sigma, eps);
        let mbfs = builder
            .build_multi(&lb.graph, &Sources::multi(lb.sources.clone()))
            .expect("the lower-bound instance is valid input");
        let certified = lb.certified_backup_lower_bound(lb.reinforcement_budget());
        table.add_row(vec![
            sigma.to_string(),
            lb.graph.num_vertices().to_string(),
            lb.num_pi_edges().to_string(),
            certified.to_string(),
            mbfs.num_edges().to_string(),
            mbfs.num_backup().to_string(),
            mbfs.num_reinforced().to_string(),
        ]);
    }
    table.print();

    // Random workload: union growth with sigma at fixed n.
    let workload = Workload::new(WorkloadFamily::ErdosRenyi, 400, seed);
    let graph = workload.generate();
    let sources: Vec<VertexId> = (0..8)
        .map(|i| VertexId::new(i * graph.num_vertices() / 8))
        .collect();
    let mut table = Table::new(
        &format!(
            "E5b: FT-MBFS union growth on {} (eps = {eps})",
            workload.label()
        ),
        &["sigma", "union edges", "union backup", "union reinforced"],
    );
    for &sigma in &[1usize, 2, 4, 8] {
        let mbfs = builder
            .build_multi(&graph, &Sources::multi(sources[..sigma].to_vec()))
            .expect("workload gateways are valid sources");
        table.add_row(vec![
            sigma.to_string(),
            mbfs.num_edges().to_string(),
            mbfs.num_backup().to_string(),
            mbfs.num_reinforced().to_string(),
        ]);
    }
    table.print();
    println!("\nExpected shape: the union grows sublinearly in sigma on random graphs (shared");
    println!(
        "edges are reused) while the hard instance forces near-linear growth of the forced part."
    );
}

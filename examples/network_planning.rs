//! Network planning with the backup/reinforcement cost model.
//!
//! A network operator has an existing topology and two catalogue prices: a
//! cheap fault-prone link (backup, price `B`) and an expensive fault-immune
//! link (reinforced, price `R`). The paper's corollary says the sweet spot of
//! the tradeoff is `ε ≈ log(R/B) / log n`; this example sweeps ε through
//! [`TradeoffBuilder`], prices each resulting structure and compares against
//! the two extremes (reinforce the whole BFS tree vs. buy the full ESA'13
//! backup structure).
//!
//! ```bash
//! cargo run --release --example network_planning
//! ```

use ftbfs::graph::VertexId;
use ftbfs::workloads::{Workload, WorkloadFamily};
use ftbfs::{CostModel, Sources, StructureBuilder, TradeoffBuilder};

fn main() {
    let workload = Workload::new(WorkloadFamily::LayeredDeep, 600, 7);
    let graph = workload.generate();
    let sources = Sources::single(VertexId(0));
    let n = graph.num_vertices();
    println!(
        "topology {}: n = {n}, m = {}",
        workload.label(),
        graph.num_edges()
    );

    for ratio in [1.0, 10.0, 100.0, 1000.0] {
        let prices = CostModel::new(1.0, ratio);
        let suggested = prices.optimal_eps(n);
        println!("\n== price ratio R/B = {ratio} -> suggested eps = {suggested:.3} ==");
        println!(
            "{:>6} | {:>9} | {:>9} | {:>12}",
            "eps", "backup b", "reinf. r", "total cost"
        );
        let mut best: Option<(f64, f64)> = None;
        for &eps in &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5, suggested] {
            let structure = TradeoffBuilder::new(eps)
                .with_config(|c| c.with_seed(7))
                .build(&graph, &sources)
                .expect("a connected workload with source 0 is valid input");
            let cost = prices.cost_of(&structure);
            println!(
                "{eps:>6.2} | {:>9} | {:>9} | {cost:>12.1}",
                structure.num_backup(),
                structure.num_reinforced()
            );
            if best.map(|(_, c)| cost < c).unwrap_or(true) {
                best = Some((eps, cost));
            }
        }
        let (best_eps, best_cost) = best.unwrap();
        println!(
            "cheapest measured point: eps = {best_eps:.2} at cost {best_cost:.1} (suggested {suggested:.3})"
        );
    }
}

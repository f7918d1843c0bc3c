//! Experiment E4 — the cost-model corollary.
//!
//! For several price ratios `R/B`, sweeps ε, prices the constructed
//! structures and compares the measured cheapest ε against the paper's
//! closed-form suggestion `ε ≈ log(R/B) / (2 log n)` (clamped to `[0, 1/2]`).

use ftb_bench::Table;
use ftb_core::{CostModel, Sources, StructureBuilder, TradeoffBuilder};
use ftb_graph::VertexId;
use ftb_workloads::{Workload, WorkloadFamily};

fn main() {
    let workload = Workload::new(WorkloadFamily::LayeredDeep, 500, 4);
    let graph = workload.generate();
    let sources = Sources::single(VertexId(0));
    let n = graph.num_vertices();
    let eps_grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    println!(
        "workload {}: n = {n}, m = {}",
        workload.label(),
        graph.num_edges()
    );

    // Pre-build one structure per grid point (prices only change the scoring).
    let structures: Vec<_> = eps_grid
        .iter()
        .map(|&eps| {
            let s = TradeoffBuilder::new(eps)
                .with_config(|c| c.with_seed(4))
                .build(&graph, &sources)
                .expect("workload graphs with source 0 are valid input");
            (eps, s)
        })
        .collect();

    let mut table = Table::new(
        "E4: measured cheapest eps vs the closed-form suggestion",
        &[
            "R/B",
            "suggested eps",
            "measured best eps",
            "best cost",
            "cost at eps=0",
            "cost at eps=0.5",
        ],
    );
    for ratio in [1.0, 10.0, 100.0, 1_000.0, 10_000.0] {
        let prices = CostModel::new(1.0, ratio);
        let suggested = prices.optimal_eps(n);
        let mut best = (0.0f64, f64::INFINITY);
        let cost_at = |target: f64| -> f64 {
            structures
                .iter()
                .find(|(eps, _)| (*eps - target).abs() < 1e-9)
                .map(|(_, s)| prices.cost_of(s))
                .unwrap_or(f64::NAN)
        };
        for (eps, s) in &structures {
            let c = prices.cost_of(s);
            if c < best.1 {
                best = (*eps, c);
            }
        }
        table.add_row(vec![
            format!("{ratio:.0}"),
            format!("{suggested:.3}"),
            format!("{:.2}", best.0),
            format!("{:.0}", best.1),
            format!("{:.0}", cost_at(0.0)),
            format!("{:.0}", cost_at(0.5)),
        ]);
    }
    table.print();
    println!("\nExpected shape: the measured best eps tracks the suggestion — ~0 for R/B = 1 and");
    println!("rising towards 1/2 as reinforcement becomes relatively more expensive.");
}

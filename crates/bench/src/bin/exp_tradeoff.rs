//! Experiment E1 — the Theorem 3.1 tradeoff curve.
//!
//! Sweeps ε and measures the backup/reinforcement sizes of the constructed
//! structures on two workload families, comparing them against the theorem's
//! envelopes `b = O(1/ε · n^{1+ε} log n)` and `r = O(1/ε · n^{1-ε} log n)`.

use ftb_bench::Table;
use ftb_core::{Sources, StructureBuilder, TradeoffBuilder};
use ftb_graph::VertexId;
use ftb_lower_bounds::esa13_lower_bound;
use ftb_workloads::{Workload, WorkloadFamily};

fn main() {
    let eps_grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0];
    let n_target = 600usize;
    let seed = 1u64;
    let builder = |eps: f64| TradeoffBuilder::new(eps).with_config(|c| c.with_seed(seed));

    for family in [WorkloadFamily::LayeredDeep, WorkloadFamily::ErdosRenyi] {
        let workload = Workload::new(family, n_target, seed);
        let graph = workload.generate();
        let sources = Sources::single(VertexId(0));
        let n = graph.num_vertices() as f64;
        let mut table = Table::new(
            &format!(
                "E1: eps sweep on {} (n = {}, m = {})",
                workload.label(),
                graph.num_vertices(),
                graph.num_edges()
            ),
            &[
                "eps",
                "backup b",
                "reinforced r",
                "b envelope",
                "r envelope",
                "time ms",
            ],
        );
        for &eps in &eps_grid {
            let s = builder(eps)
                .build(&graph, &sources)
                .expect("workload graphs with source 0 are valid input");
            let (b_env, r_env) = if eps >= 0.5 {
                (n.powf(1.5), 0.0)
            } else {
                (
                    (1.0 / eps) * n.powf(1.0 + eps) * n.ln(),
                    (1.0 / eps) * n.powf(1.0 - eps) * n.ln(),
                )
            };
            table.add_row(vec![
                format!("{eps:.2}"),
                s.num_backup().to_string(),
                s.num_reinforced().to_string(),
                format!("{b_env:.0}"),
                format!("{r_env:.0}"),
                format!("{:.0}", s.stats().construction_ms),
            ]);
        }
        table.print();
    }
    // The tradeoff itself is only visible on *hard* instances: on easy random
    // graphs every terminal has few distinct replacement last edges, all
    // segments are light and nothing needs reinforcing. Sweep eps on the
    // ESA'13 hard instance, where each X-vertex has Θ(√n) distinct last
    // edges: small eps makes its segments heavy, trading backup for
    // reinforcement exactly as Theorem 3.1 describes.
    let lb = esa13_lower_bound(800);
    let sources = Sources::single(lb.source);
    let n = lb.graph.num_vertices() as f64;
    let mut table = Table::new(
        &format!(
            "E1c: eps sweep on the ESA'13 hard instance (n = {}, m = {}, |Pi| = {})",
            lb.graph.num_vertices(),
            lb.graph.num_edges(),
            lb.num_pi_edges()
        ),
        &[
            "eps",
            "backup b",
            "reinforced r",
            "b envelope",
            "r envelope",
            "time ms",
        ],
    );
    for &eps in &eps_grid {
        let s = builder(eps)
            .build(&lb.graph, &sources)
            .expect("the lower-bound instance is valid input");
        let (b_env, r_env) = if eps >= 0.5 {
            (n.powf(1.5), 0.0)
        } else {
            (
                (1.0 / eps) * n.powf(1.0 + eps) * n.ln(),
                (1.0 / eps) * n.powf(1.0 - eps) * n.ln(),
            )
        };
        table.add_row(vec![
            format!("{eps:.2}"),
            s.num_backup().to_string(),
            s.num_reinforced().to_string(),
            format!("{b_env:.0}"),
            format!("{r_env:.0}"),
            format!("{:.0}", s.stats().construction_ms),
        ]);
    }
    table.print();

    println!("\nExpected shape: on easy random graphs everything is coverable and r stays 0;");
    println!("on the hard instance b grows and r falls as eps grows, both under the envelopes;");
    println!("for eps >= 1/2 the n^(3/2) baseline branch is used and r = 0.");
}

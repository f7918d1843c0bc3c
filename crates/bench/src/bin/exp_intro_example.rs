//! Experiment E6 — the introductory clique-with-pendant example.
//!
//! One reinforced edge (the pendant bottleneck) plus a thin backup structure
//! beats both extremes: keeping every clique edge, or the pure-backup ESA'13
//! structure.

use ftb_bench::Table;
use ftb_core::{Sources, StructureBuilder, TradeoffBuilder};
use ftb_graph::{generators, VertexId};

fn main() {
    let mixed_builder = TradeoffBuilder::new(0.2).with_config(|c| c.with_seed(6));
    let baseline_builder = TradeoffBuilder::new(1.0).with_config(|c| c.with_seed(6));
    let mut table = Table::new(
        "E6: clique-with-pendant — mixed model vs extremes",
        &[
            "n",
            "graph edges",
            "mixed backup",
            "mixed reinforced",
            "baseline (pure backup)",
            "mixed / keep-everything",
        ],
    );
    for &n in &[50usize, 100, 200, 400] {
        let graph = generators::clique_with_pendant(n);
        let sources = Sources::single(VertexId(0));
        let mixed = mixed_builder
            .build(&graph, &sources)
            .expect("the intro example is valid input");
        let baseline = baseline_builder
            .build(&graph, &sources)
            .expect("the intro example is valid input");
        table.add_row(vec![
            n.to_string(),
            graph.num_edges().to_string(),
            mixed.num_backup().to_string(),
            mixed.num_reinforced().to_string(),
            baseline.num_edges().to_string(),
            format!(
                "{:.1}%",
                100.0 * mixed.num_edges() as f64 / graph.num_edges() as f64
            ),
        ]);
    }
    table.print();
    println!("\nExpected shape: the mixed structure keeps only a vanishing fraction of the clique");
    println!("while reinforcing a constant number of edges; the pure-backup baseline needs a");
    println!("larger (n^1.5-ish) structure on hard inputs and the keep-everything policy needs");
    println!("all Θ(n²) clique edges.");
}

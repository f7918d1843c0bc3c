//! The paper's introductory example: one reinforced edge goes a long way.
//!
//! The graph is a single source attached by a pendant edge to an
//! `(n-1)`-vertex clique. Keeping every existing edge still leaves edge
//! connectivity 1; in the mixed model it suffices to reinforce the pendant
//! edge, after which only a thin backup structure inside the clique is
//! needed. This example quantifies that gap.
//!
//! ```bash
//! cargo run --release --example reinforce_one_edge
//! ```

use ftbfs::graph::{generators, VertexId};
use ftbfs::sp::{ShortestPathTree, TieBreakWeights};
use ftbfs::{verify_structure, Sources, StructureBuilder, TradeoffBuilder};

fn main() {
    println!(
        "{:>6} | {:>8} | {:>14} | {:>14} | {:>10}",
        "n", "m", "mixed (b, r)", "baseline b", "savings"
    );
    for n in [50usize, 100, 200, 400] {
        let graph = generators::clique_with_pendant(n);
        let sources = Sources::single(VertexId(0));

        // Mixed model: a small ε gives a tiny reinforcement budget, which the
        // construction spends on the pendant bottleneck edge.
        let mixed_builder = TradeoffBuilder::new(0.2).with_config(|c| c.with_seed(5));
        let mixed = mixed_builder
            .build(&graph, &sources)
            .expect("the intro example is valid input");
        let weights = TieBreakWeights::generate(&graph, mixed_builder.config().seed);
        let tree = ShortestPathTree::build(&graph, &weights, VertexId(0));
        assert!(verify_structure(
            &graph,
            &tree,
            &mixed,
            &mixed_builder.config().parallel,
            false
        )
        .is_valid());

        // Pure backup (the ESA'13 structure, no reinforcement allowed).
        let baseline = TradeoffBuilder::new(1.0)
            .with_config(|c| c.with_seed(5))
            .build(&graph, &sources)
            .expect("the intro example is valid input");

        let savings =
            100.0 * (1.0 - (mixed.num_edges() as f64) / (baseline.num_edges().max(1) as f64));
        println!(
            "{n:>6} | {:>8} | ({:>5}, {:>3}) | {:>14} | {savings:>9.1}%",
            graph.num_edges(),
            mixed.num_backup(),
            mixed.num_reinforced(),
            baseline.num_edges()
        );
    }
    println!("\n(the pendant edge disconnects the source, so it needs no backup protection;");
    println!(" the mixed structure reinforces a handful of tree edges inside the clique instead");
    println!(" of buying the clique-sized backup set the pure-backup baseline needs.)");
}

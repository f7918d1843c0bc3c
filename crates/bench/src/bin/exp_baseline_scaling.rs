//! Experiment E2 — the ε = 1 extreme: baseline FT-BFS size scaling.
//!
//! Measures the ESA'13 baseline structure size as a function of `n` on the
//! hard (lower-bound) family and on sparse random graphs, and reports the
//! fitted log-log exponent. On the hard family the exponent should approach
//! 3/2; sparse random graphs are easy instances and stay near 1.

use ftb_bench::{log_log_slope, Table};
use ftb_core::{Sources, StructureBuilder, TradeoffBuilder};
use ftb_graph::VertexId;
use ftb_lower_bounds::esa13_lower_bound;
use ftb_workloads::families;

fn main() {
    let sizes = [200usize, 400, 800, 1600];
    let seed = 2u64;
    let builder = TradeoffBuilder::new(1.0).with_config(|c| c.with_seed(seed));

    // Hard instances.
    let mut hard_points = Vec::new();
    let mut table = Table::new(
        "E2a: baseline FT-BFS size on the ESA'13 lower-bound family",
        &["n", "m", "baseline |E(H)|", "n^1.5"],
    );
    for &n in &sizes {
        let lb = esa13_lower_bound(n);
        let s = builder
            .build(&lb.graph, &Sources::single(lb.source))
            .expect("the lower-bound instance is valid input");
        let real_n = lb.graph.num_vertices() as f64;
        hard_points.push((real_n, s.num_edges() as f64));
        table.add_row(vec![
            lb.graph.num_vertices().to_string(),
            lb.graph.num_edges().to_string(),
            s.num_edges().to_string(),
            format!("{:.0}", real_n.powf(1.5)),
        ]);
    }
    table.print();
    println!(
        "fitted exponent on the hard family: {:.3} (paper: 1.5)",
        log_log_slope(&hard_points).unwrap_or(f64::NAN)
    );

    // Easy instances: sparse random graphs.
    let mut easy_points = Vec::new();
    let mut table = Table::new(
        "E2b: baseline FT-BFS size on sparse Erdős–Rényi graphs (avg degree 8)",
        &["n", "m", "baseline |E(H)|"],
    );
    for &n in &sizes {
        let graph = families::erdos_renyi_gnp(n, (8.0 / n as f64).min(1.0), seed);
        let s = builder
            .build(&graph, &Sources::single(VertexId(0)))
            .expect("workload graphs with source 0 are valid input");
        easy_points.push((graph.num_vertices() as f64, s.num_edges() as f64));
        table.add_row(vec![
            graph.num_vertices().to_string(),
            graph.num_edges().to_string(),
            s.num_edges().to_string(),
        ]);
    }
    table.print();
    println!(
        "fitted exponent on sparse random graphs: {:.3} (easy instances stay near 1)",
        log_log_slope(&easy_points).unwrap_or(f64::NAN)
    );
}

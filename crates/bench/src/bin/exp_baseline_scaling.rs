//! Experiment E2 — the ε = 1 extreme: baseline FT-BFS size scaling.
//!
//! Measures the ESA'13 baseline structure size as a function of `n` on the
//! hard (lower-bound) family and on sparse random graphs, and reports the
//! fitted log-log exponent. On the hard family the exponent should approach
//! 3/2; sparse random graphs are easy instances and stay near 1. Next to
//! each size exponent it prints the fitted exponent of the build time (the
//! best of three builds per size).

use ftb_bench::{log_log_slope, Table};
use ftb_core::{FtBfsStructure, Sources, StructureBuilder, TradeoffBuilder};
use ftb_graph::{Graph, VertexId};
use ftb_lower_bounds::esa13_lower_bound;
use ftb_workloads::families;
use std::time::Instant;

/// Build three times; return the structure and the fastest build in ms.
fn timed_build(
    builder: &TradeoffBuilder,
    graph: &Graph,
    source: VertexId,
) -> (FtBfsStructure, f64) {
    let mut best = f64::INFINITY;
    let mut structure = None;
    for _ in 0..3 {
        let start = Instant::now();
        let s = builder
            .build(graph, &Sources::single(source))
            .expect("the instances are valid input");
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        structure = Some(s);
    }
    (structure.expect("built"), best)
}

fn main() {
    let sizes = [200usize, 400, 800, 1600];
    let seed = 2u64;
    let builder = TradeoffBuilder::new(1.0).with_config(|c| c.with_seed(seed));

    // Hard instances.
    let mut hard_points = Vec::new();
    let mut hard_times = Vec::new();
    let mut table = Table::new(
        "E2a: baseline FT-BFS size on the ESA'13 lower-bound family",
        &["n", "m", "baseline |E(H)|", "n^1.5", "build ms"],
    );
    for &n in &sizes {
        let lb = esa13_lower_bound(n);
        let (s, ms) = timed_build(&builder, &lb.graph, lb.source);
        let real_n = lb.graph.num_vertices() as f64;
        hard_points.push((real_n, s.num_edges() as f64));
        hard_times.push((real_n, ms));
        table.add_row(vec![
            lb.graph.num_vertices().to_string(),
            lb.graph.num_edges().to_string(),
            s.num_edges().to_string(),
            format!("{:.0}", real_n.powf(1.5)),
            format!("{ms:.1}"),
        ]);
    }
    table.print();
    println!(
        "fitted exponent on the hard family: {:.3} (paper: 1.5); build time: {:.3}",
        log_log_slope(&hard_points).unwrap_or(f64::NAN),
        log_log_slope(&hard_times).unwrap_or(f64::NAN)
    );

    // Easy instances: sparse random graphs.
    let mut easy_points = Vec::new();
    let mut easy_times = Vec::new();
    let mut table = Table::new(
        "E2b: baseline FT-BFS size on sparse Erdős–Rényi graphs (avg degree 8)",
        &["n", "m", "baseline |E(H)|", "build ms"],
    );
    for &n in &sizes {
        let graph = families::erdos_renyi_gnp(n, (8.0 / n as f64).min(1.0), seed);
        let (s, ms) = timed_build(&builder, &graph, VertexId(0));
        easy_points.push((graph.num_vertices() as f64, s.num_edges() as f64));
        easy_times.push((graph.num_vertices() as f64, ms));
        table.add_row(vec![
            graph.num_vertices().to_string(),
            graph.num_edges().to_string(),
            s.num_edges().to_string(),
            format!("{ms:.1}"),
        ]);
    }
    table.print();
    println!(
        "fitted exponent on sparse random graphs: {:.3} (easy instances stay near 1); \
         build time: {:.3}",
        log_log_slope(&easy_points).unwrap_or(f64::NAN),
        log_log_slope(&easy_times).unwrap_or(f64::NAN)
    );
}

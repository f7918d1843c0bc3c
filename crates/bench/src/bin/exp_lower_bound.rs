//! Experiment E3 — the Theorem 5.1 lower bound.
//!
//! For the hard instance `G(ε)`, reports (a) the certified number of forced
//! backup edges under the theorem's reinforcement budget `⌊n^{1-ε}/6⌋`,
//! (b) the empirical forcing check, and (c) the size of the structure our own
//! construction builds, which must dominate the certified bound computed from
//! its actual reinforcement count.

use ftb_bench::{log_log_slope, Table};
use ftb_core::{Sources, StructureBuilder, TradeoffBuilder};
use ftb_lower_bounds::{certified_backup_lower_bound, single_source_lower_bound, verify_forcing};

fn main() {
    let seed = 3u64;

    // (a) eps sweep at fixed n.
    let n = 900usize;
    let mut table = Table::new(
        &format!("E3a: forced backup edges on G(eps), target n = {n}"),
        &[
            "eps",
            "real n",
            "|Pi|",
            "budget",
            "certified lower bound",
            "constructed b",
            "constructed r",
            "forcing confirmed",
        ],
    );
    for &eps in &[0.15, 0.25, 0.35, 0.45] {
        let lb = single_source_lower_bound(n, eps);
        let budget = lb.reinforcement_budget();
        let certified = certified_backup_lower_bound(&lb, budget);
        let forcing = verify_forcing(&lb, 30);
        let s = TradeoffBuilder::new(eps)
            .with_config(|c| c.with_seed(seed))
            .build(&lb.graph, &Sources::single(lb.source))
            .expect("the lower-bound instance is valid input");
        table.add_row(vec![
            format!("{eps:.2}"),
            lb.graph.num_vertices().to_string(),
            lb.num_pi_edges().to_string(),
            budget.to_string(),
            certified.to_string(),
            s.num_backup().to_string(),
            s.num_reinforced().to_string(),
            format!("{}/{}", forcing.confirmed, forcing.samples),
        ]);
    }
    table.print();

    // (b) n sweep at fixed eps: the certified bound should scale like n^{1+eps}.
    let eps = 0.3;
    let mut points = Vec::new();
    let mut table = Table::new(
        &format!("E3b: certified bound scaling with n (eps = {eps}, zero reinforcement)"),
        &["target n", "real n", "certified lower bound", "n^(1+eps)"],
    );
    for &target in &[300usize, 600, 1200, 2400] {
        let lb = single_source_lower_bound(target, eps);
        let certified = certified_backup_lower_bound(&lb, 0);
        let real_n = lb.graph.num_vertices() as f64;
        points.push((real_n, certified as f64));
        table.add_row(vec![
            target.to_string(),
            lb.graph.num_vertices().to_string(),
            certified.to_string(),
            format!("{:.0}", real_n.powf(1.0 + eps)),
        ]);
    }
    table.print();
    println!(
        "fitted exponent of the certified bound: {:.3} (paper: 1 + eps = {:.2})",
        log_log_slope(&points).unwrap_or(f64::NAN),
        1.0 + eps
    );
}

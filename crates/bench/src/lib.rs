//! Experiment harness utilities: table formatting, slope estimation and
//! latency statistics.
//!
//! The paper-reproduction experiments E1–E7 are binaries under `src/bin/`
//! (`exp_tradeoff`, `exp_baseline_scaling`, `exp_lower_bound`,
//! `exp_cost_model`, `exp_multi_source`, `exp_intro_example`,
//! `exp_ablation`); each prints a Markdown table of measured values next to
//! the paper's predicted shape. `exp_observability` (E14) is the
//! instrumentation-overhead gate. Serving performance is measured by the
//! criterion benches under `benches/` and the end-to-end benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stats;
pub mod table;

pub use stats::{percentile, LatencyHistogram};
pub use table::Table;

/// Least-squares slope of `log(y)` against `log(x)` — the measured exponent
/// of a power-law relationship `y ≈ c · x^slope`.
///
/// Returns `None` when fewer than two valid (positive) points are provided.
pub fn log_log_slope(points: &[(f64, f64)]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|(x, _)| x).sum();
    let sy: f64 = pts.iter().map(|(_, y)| y).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_an_exact_power_law() {
        let pts: Vec<(f64, f64)> = (1..10)
            .map(|i| {
                let x = i as f64 * 100.0;
                (x, 3.0 * x.powf(1.5))
            })
            .collect();
        let slope = log_log_slope(&pts).unwrap();
        assert!((slope - 1.5).abs() < 1e-9);
    }

    #[test]
    fn slope_handles_degenerate_inputs() {
        assert!(log_log_slope(&[]).is_none());
        assert!(log_log_slope(&[(10.0, 5.0)]).is_none());
        assert!(log_log_slope(&[(10.0, 5.0), (10.0, 7.0)]).is_none());
        assert!(log_log_slope(&[(0.0, 5.0), (-1.0, 7.0)]).is_none());
    }
}

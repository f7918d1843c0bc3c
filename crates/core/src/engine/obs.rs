//! Engine-side observability: the published query counters, plus
//! per-tier latency histograms and per-stage timing breakdowns recorded by
//! [`QueryContext`](super::QueryContext) when an [`EngineObs`] is attached
//! and `ftb_obs` sampling is on.
//!
//! # Where the clock is read
//!
//! Queries on the fast tiers resolve in a few hundred nanoseconds — the
//! same order as an `Instant::now()` pair — so the engine **never** wraps
//! an individual tier lookup in its own clock reads. Instead, timing
//! happens at the *public entry points* (one clock pair per call, however
//! many targets the call answers) and the elapsed time is attributed to
//! tiers proportionally:
//!
//! * The entry captures the context's [`TierCounters`](super::TierCounters)
//!   before and after the call; the per-tier *delta* says exactly how many
//!   answers each tier produced.
//! * Each tier histogram receives `elapsed / total` once per answer
//!   ([`Histogram::record_n`]), so **histogram sample counts always equal
//!   the tier-counter deltas** — the counter-consistency invariant the
//!   observability suite asserts — and the histogram sums add up to the
//!   measured wall time (up to integer division).
//!
//! Stage histograms time the amortised, µs-scale phases only: the batched
//! interval classification, the restricted sweep, and the row
//! materialisation paths (repair or full sweep) on cache misses. Their
//! spans nest inside the entry-point window, so per-call stage sums never
//! exceed the measured wall time. Purely fast-path calls (every answer
//! from the unaffected fast path) reuse the already-measured window for
//! the `unaffected_fast_path` stage instead of reading the clock again.
//!
//! Sharded batch facades hand work to per-worker contexts created fresh
//! per batch; those contexts carry no `EngineObs` and are deliberately
//! uninstrumented (the serving stack times whole requests at the server
//! layer instead).

use super::{QueryStats, TierCounters};
use ftb_obs::{Counter, Histogram, Registry};
use std::fmt;
use std::sync::Arc;

/// Metric name of the per-tier latency histograms.
pub const TIER_LATENCY_METRIC: &str = "ftb_query_tier_latency_seconds";
/// Metric name of the per-stage timing histograms.
pub const STAGE_SECONDS_METRIC: &str = "ftb_query_stage_seconds";
/// Metric name of the per-tier answer counters (same `tier` labels as
/// [`TIER_LATENCY_METRIC`]).
pub const TIER_ANSWERS_METRIC: &str = "ftb_query_answers_total";

/// The engine's metric handles: the published [`QueryStats`] counters
/// (one `ftb_engine_<name>_total` per [`QueryStats::NAMES`] entry and one
/// [`TIER_ANSWERS_METRIC`] series per tier), six per-tier latency
/// histograms and five per-stage timing histograms.
///
/// Latency recording happens inside a [`QueryContext`](super::QueryContext)
/// the bundle is attached to with
/// [`attach_obs`](super::QueryContext::attach_obs), and only while
/// [`ftb_obs::sampling_enabled`] is on. The counters are fed by
/// [`EngineObs::publish`], which a serving worker calls with the counter
/// delta of each job it answered; they count whether sampling is on or
/// not.
pub struct EngineObs {
    /// `ftb_engine_<name>_total`, in [`QueryStats::NAMES`] order.
    pub totals: [Arc<Counter>; 7],
    /// `ftb_query_answers_total{tier=...}`, in [`TierCounters::NAMES`]
    /// order.
    pub answers: [Arc<Counter>; 6],
    /// `ftb_query_tier_latency_seconds{tier=...}`, in
    /// [`TierCounters::NAMES`] order.
    pub tier_latency: [Arc<Histogram>; 6],

    /// `stage="classify"` — the one-to-many interval classification.
    pub stage_classify: Arc<Histogram>,
    /// `stage="unaffected_fast_path"` — whole calls answered purely by the
    /// fast path (window reused from the entry-point measurement).
    pub stage_unaffected_fast_path: Arc<Histogram>,
    /// `stage="restricted_sweep"` — target-restricted repair sweeps.
    pub stage_restricted_sweep: Arc<Histogram>,
    /// `stage="row_repair"` — incremental row repairs on cache misses.
    pub stage_row_repair: Arc<Histogram>,
    /// `stage="full_sweep"` — full CSR / full-graph sweeps on cache misses.
    pub stage_full_sweep: Arc<Histogram>,
}

impl EngineObs {
    /// Register the engine's metric families in `registry` (get-or-register:
    /// repeated calls share the same cells) and return the handle bundle.
    pub fn register(registry: &Registry) -> Arc<EngineObs> {
        let total = |name: &str| {
            registry.counter(
                &format!("ftb_engine_{name}_total"),
                "Engine query counters, published by the workers after each job",
                &[],
            )
        };
        let answers_help = "Answers produced, by routing tier";
        let answers = |t: &str| registry.counter(TIER_ANSWERS_METRIC, answers_help, &[("tier", t)]);
        let tier_help = "Per-answer latency by routing tier (entry-point wall \
                         time attributed evenly across the answers of a call)";
        let tier = |t: &str| registry.histogram(TIER_LATENCY_METRIC, tier_help, &[("tier", t)]);
        let stage_help = "Wall time of amortised engine stages (classification, \
                          restricted sweeps, row materialisation)";
        let stage = |s: &str| registry.histogram(STAGE_SECONDS_METRIC, stage_help, &[("stage", s)]);
        Arc::new(EngineObs {
            totals: QueryStats::NAMES.map(total),
            answers: TierCounters::NAMES.map(answers),
            tier_latency: TierCounters::NAMES.map(tier),
            stage_classify: stage("classify"),
            stage_unaffected_fast_path: stage("unaffected_fast_path"),
            stage_restricted_sweep: stage("restricted_sweep"),
            stage_row_repair: stage("row_repair"),
            stage_full_sweep: stage("full_sweep"),
        })
    }

    /// Free-standing handles not tied to any registry — for tests and
    /// overhead measurement, where the histograms are inspected directly.
    pub fn detached() -> Arc<EngineObs> {
        let h = || Arc::new(Histogram::new());
        let c = || Arc::new(Counter::new());
        Arc::new(EngineObs {
            totals: std::array::from_fn(|_| c()),
            answers: std::array::from_fn(|_| c()),
            tier_latency: std::array::from_fn(|_| h()),
            stage_classify: h(),
            stage_unaffected_fast_path: h(),
            stage_restricted_sweep: h(),
            stage_row_repair: h(),
            stage_full_sweep: h(),
        })
    }

    /// Add a counter delta (typically
    /// [`QueryStats::delta_since`] around one job) to the published
    /// counters. Only non-zero fields touch their cell, so a job answered
    /// from the fault-free row costs a few relaxed adds. Cells only ever
    /// grow, so the totals stay monotone across worker panics and respawns.
    pub fn publish(&self, delta: &QueryStats) {
        let cells = self.totals.iter().zip(delta.to_array());
        for (cell, n) in cells.chain(self.answers.iter().zip(delta.tiers.to_array())) {
            if n > 0 {
                cell.add(n as u64);
            }
        }
    }

    /// Everything [`EngineObs::publish`] has added so far, read back as a
    /// [`QueryStats`].
    pub fn published(&self) -> QueryStats {
        let read = |cell: &Arc<Counter>| cell.get() as usize;
        QueryStats::from_array(
            self.totals.each_ref().map(read),
            TierCounters::from_array(self.answers.each_ref().map(read)),
        )
    }

    /// Total samples across the six tier histograms (equals the number of
    /// answers produced while sampling was on — the counter-consistency
    /// invariant).
    pub fn tier_sample_count(&self) -> u64 {
        self.tier_latency.iter().map(|h| h.count()).sum()
    }

    /// Sum of recorded nanoseconds across the six tier histograms (the
    /// measured entry-point wall time, up to per-answer integer division).
    pub fn tier_sample_sum(&self) -> u64 {
        self.tier_latency.iter().map(|h| h.snapshot().sum()).sum()
    }

    /// Sum of recorded nanoseconds across the five stage histograms.
    pub fn stage_sample_sum(&self) -> u64 {
        self.stage_classify.snapshot().sum()
            + self.stage_unaffected_fast_path.snapshot().sum()
            + self.stage_restricted_sweep.snapshot().sum()
            + self.stage_row_repair.snapshot().sum()
            + self.stage_full_sweep.snapshot().sum()
    }
}

impl fmt::Debug for EngineObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineObs")
            .field("tier_samples", &self.tier_sample_count())
            .finish_non_exhaustive()
    }
}

//! `ftb_obs` — lock-free, zero-dependency observability primitives for
//! the FT-BFS serving stack.
//!
//! Four pieces, each usable alone:
//!
//! - [`buckets`]: the HdrHistogram-style log-bucket layout (32 linear
//!   sub-buckets per power of two, ≈3% relative error) shared with
//!   `ftb_bench::LatencyHistogram`, so client-side and server-side
//!   histograms are comparable cell-for-cell.
//! - Metric primitives — [`Counter`], [`Gauge`], [`Histogram`] — whose
//!   record paths are a handful of relaxed atomics: safe on query hot
//!   paths, merged racy-consistently at scrape time.
//! - The [`Registry`]: named, labelled metric families rendered in the
//!   Prometheus text exposition format or as JSON. Registration locks a
//!   mutex once; recording through the returned `Arc` handles never does.
//!   [`Scrape`] reads the text format back into samples.
//! - [`Span`] + the process-wide sampling switch
//!   ([`set_sampling`]/[`sampling_enabled`]): RAII stage timers that are
//!   one atomic load — no clock read — when sampling is off.
//!
//! Plus the [`SlowLog`], a bounded top-K board for slow-query traces
//! with a lock-free admission fast path.
//!
//! Everything is plain `std`: no external crates, no unsafe.

#![forbid(unsafe_code)]

pub mod buckets;
mod metrics;
mod registry;
mod slowlog;
mod span;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{GaugeFn, HistogramFn, Registry, Scrape};
pub use slowlog::SlowLog;
pub use span::{sampling_enabled, set_sampling, Span};

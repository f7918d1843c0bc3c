//! Minimal data-parallel helpers built on `std::thread::scope`.
//!
//! The FT-BFS construction repeats the same independent computation over a
//! large index range many times (one constrained shortest-path search per
//! failing tree edge, one `Pcons` run per terminal vertex, one protection
//! check per tree edge). These loops are embarrassingly parallel, so a small
//! chunk-stealing parallel-for over scoped threads is all we need — we keep
//! the harness tiny and dependency-light instead of pulling in a full
//! work-stealing runtime.
//!
//! The entry points are:
//! * [`parallel_for_each`] — run a closure for every index in `0..n`,
//! * [`parallel_map`] — compute a `Vec<R>` with `out[i] = f(i)`,
//! * [`parallel_map_init`] — like `parallel_map`, but each worker creates a
//!   reusable mutable state once (the primitive behind per-thread query
//!   contexts in sharded fault-query serving),
//! * [`parallel_segments_mut_init`] — fill disjoint segments of a
//!   caller-owned buffer in place, with a per-worker state,
//! * [`parallel_map_reduce`] — map then fold with an associative combiner,
//! * [`ParallelConfig`] — thread-count control (including forcing serial
//!   execution, which the experiment harness uses for timing baselines, and
//!   the [`config::FORCE_THREADS_ENV`] CI override pinning the default
//!   width).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod executor;
pub mod reduce;

pub use config::{ParallelConfig, FORCE_THREADS_ENV};
pub use executor::{
    parallel_for_each, parallel_map, parallel_map_init, parallel_segments_mut_init,
};
pub use reduce::{parallel_map_reduce, parallel_sum};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn end_to_end_smoke() {
        let cfg = ParallelConfig::default();
        let touched = AtomicUsize::new(0);
        parallel_for_each(&cfg, 1000, |_| {
            touched.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(touched.load(Ordering::Relaxed), 1000);

        let squares = parallel_map(&cfg, 100, |i| i * i);
        assert_eq!(squares[7], 49);

        let total = parallel_sum(&cfg, 100, |i| i as u64);
        assert_eq!(total, 4950);
    }
}

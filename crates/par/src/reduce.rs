//! Parallel map-reduce over index ranges.

use crate::config::ParallelConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Map every index through `map` and fold the results with the associative
/// combiner `reduce`, starting from `identity` on every worker.
///
/// `reduce` must be associative and `identity` must be its neutral element;
/// the grouping of the fold is unspecified (it depends on scheduling), but
/// for associative combiners the result is deterministic.
pub fn parallel_map_reduce<R, M, C>(
    config: &ParallelConfig,
    len: usize,
    identity: R,
    map: M,
    reduce: C,
) -> R
where
    R: Send + Sync + Clone,
    M: Fn(usize) -> R + Sync,
    C: Fn(R, R) -> R + Sync + Send,
{
    if config.is_serial() || len <= config.chunk_size() {
        return (0..len).map(map).fold(identity, reduce);
    }
    let next = AtomicUsize::new(0);
    let chunk = config.chunk_size();
    let workers = config.threads().min(len.div_ceil(chunk).max(1));
    let partials: Mutex<Vec<R>> = Mutex::new(Vec::with_capacity(workers));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut acc = identity.clone();
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= len {
                        break;
                    }
                    let end = (start + chunk).min(len);
                    for i in start..end {
                        acc = reduce(acc, map(i));
                    }
                }
                partials
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(acc);
            });
        }
    });
    partials
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .fold(identity, reduce)
}

/// Parallel sum of `f(i)` for `i` in `0..len`.
pub fn parallel_sum<F>(config: &ParallelConfig, len: usize, f: F) -> u64
where
    F: Fn(usize) -> u64 + Sync,
{
    parallel_map_reduce(config, len, 0u64, f, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sum_matches_closed_form() {
        let cfg = ParallelConfig::with_threads(4).with_chunk_size(7);
        let n = 10_000u64;
        assert_eq!(
            parallel_sum(&cfg, n as usize, |i| i as u64),
            n * (n - 1) / 2
        );
    }

    #[test]
    fn reduce_with_max_combiner() {
        let cfg = ParallelConfig::with_threads(3).with_chunk_size(5);
        let data: Vec<u64> = (0..257).map(|i| (i * 7919) % 1009).collect();
        let expected = *data.iter().max().unwrap();
        let got = parallel_map_reduce(&cfg, data.len(), 0u64, |i| data[i], |a, b| a.max(b));
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_range_returns_identity() {
        let cfg = ParallelConfig::with_threads(4);
        assert_eq!(parallel_sum(&cfg, 0, |_| 1), 0);
        let got = parallel_map_reduce(&cfg, 0, 42u64, |_| 0, |a, b| a + b);
        assert_eq!(got, 42);
    }

    proptest! {
        #[test]
        fn parallel_sum_matches_sequential(values in proptest::collection::vec(0u64..1000, 0..500),
                                           threads in 1usize..8) {
            let cfg = ParallelConfig::with_threads(threads).with_chunk_size(4);
            let expected: u64 = values.iter().sum();
            let got = parallel_sum(&cfg, values.len(), |i| values[i]);
            prop_assert_eq!(got, expected);
        }
    }
}

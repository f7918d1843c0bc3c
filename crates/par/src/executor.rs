//! Chunked parallel-for and parallel-map over index ranges.

use crate::config::ParallelConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Run `f(i)` for every `i` in `0..len`, distributing indices over worker
/// threads in chunks.
///
/// `f` must be `Sync` because it is shared by all workers; per-index mutable
/// state should live inside `f` (e.g. thread-local scratch) or behind
/// synchronisation.
pub fn parallel_for_each<F>(config: &ParallelConfig, len: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if len == 0 {
        return;
    }
    if config.is_serial() || len <= config.chunk_size() {
        for i in 0..len {
            f(i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let chunk = config.chunk_size();
    let workers = config.threads().min(len.div_ceil(chunk));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                let end = (start + chunk).min(len);
                for i in start..end {
                    f(i);
                }
            });
        }
    });
}

/// Compute `vec![f(0), f(1), ..., f(len-1)]` in parallel.
///
/// The output order matches the index order regardless of scheduling.
pub fn parallel_map<R, F>(config: &ParallelConfig, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    parallel_map_init(config, len, || (), |(), i| f(i))
}

/// Compute `vec![f(s, 0), f(s, 1), ..., f(s, len-1)]` in parallel, where `s`
/// is a per-worker mutable state created once by `init` and reused across
/// every index that worker processes.
///
/// This is the primitive behind sharded fault-query serving: `init` builds a
/// per-thread scratch context (buffers, caches), and `f` reuses it for each
/// work item instead of allocating per item. With a serial configuration a
/// single state is created and the loop degenerates to a plain fold-map.
///
/// The output order matches the index order regardless of scheduling.
pub fn parallel_map_init<S, R, I, F>(config: &ParallelConfig, len: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    if config.is_serial() || len <= config.chunk_size() {
        let mut state = init();
        return (0..len).map(|i| f(&mut state, i)).collect();
    }
    // Collect (index, value) pairs per worker, then scatter into place. This
    // avoids unsafe writes into uninitialised memory while keeping each
    // worker's allocations local.
    let buckets: Mutex<Vec<Vec<(usize, R)>>> = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    let chunk = config.chunk_size();
    let workers = config.threads().min(len.div_ceil(chunk));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= len {
                        break;
                    }
                    let end = (start + chunk).min(len);
                    for i in start..end {
                        local.push((i, f(&mut state, i)));
                    }
                }
                buckets
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(local);
            });
        }
    });

    let mut slots: Vec<Option<R>> = (0..len).map(|_| None).collect();
    for bucket in buckets.into_inner().unwrap_or_else(PoisonError::into_inner) {
        for (i, v) in bucket {
            slots[i] = Some(v);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("parallel_map missed an index"))
        .collect()
}

/// Call `f(s, i, segment)` for every segment
/// `data[offsets[i] .. offsets[i + 1]]` of `data`, in parallel, where `s` is
/// a per-worker state created once by `init`.
///
/// `offsets` must be non-decreasing, start at 0 and end at `data.len()`;
/// segments may differ in length (and be empty). The caller allocates
/// `data`, so the results land in one buffer owned by the calling thread
/// instead of in per-item allocations made (and later freed) on
/// short-lived worker threads. Workers take one segment at a time, so the
/// chunk size plays no part: two segments already start two workers. The
/// calling thread is one of them.
pub fn parallel_segments_mut_init<T, S, I, F>(
    config: &ParallelConfig,
    data: &mut [T],
    offsets: &[usize],
    init: I,
    f: F,
) where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    assert!(
        offsets.first().is_none_or(|&o| o == 0) && offsets.last().is_none_or(|&o| o == data.len()),
        "segment offsets must span the buffer"
    );
    let len = offsets.len().saturating_sub(1);
    if len == 0 {
        return;
    }
    let mut rest = data;
    let segments = offsets.windows(2).enumerate().map(move |(i, w)| {
        let (segment, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
        rest = tail;
        (i, segment)
    });
    if config.is_serial() || len == 1 {
        let mut state = init();
        for (i, segment) in segments {
            f(&mut state, i, segment);
        }
        return;
    }
    let segments = Mutex::new(segments);
    let workers = config.threads().min(len);
    let work = || {
        let mut state = init();
        loop {
            let Some((i, segment)) = segments
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .next()
            else {
                break;
            };
            f(&mut state, i, segment);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn for_each_visits_every_index_once() {
        let cfg = ParallelConfig::with_threads(4).with_chunk_size(3);
        let n = 1013;
        let counters: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for_each(&cfg, n, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn for_each_handles_empty_and_tiny_ranges() {
        let cfg = ParallelConfig::with_threads(8);
        parallel_for_each(&cfg, 0, |_| panic!("must not be called"));
        let hit = AtomicU64::new(0);
        parallel_for_each(&cfg, 1, |i| {
            assert_eq!(i, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn map_preserves_index_order() {
        let cfg = ParallelConfig::with_threads(4).with_chunk_size(2);
        let out = parallel_map(&cfg, 500, |i| i * 3);
        assert_eq!(out.len(), 500);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn serial_config_matches_parallel_results() {
        let serial = ParallelConfig::serial();
        let parallel = ParallelConfig::with_threads(4);
        let a = parallel_map(&serial, 300, |i| (i as u64).wrapping_mul(2654435761));
        let b = parallel_map(&parallel, 300, |i| (i as u64).wrapping_mul(2654435761));
        assert_eq!(a, b);
    }

    /// Deterministic splitmix64 step — a cheap stand-in for a seeded RNG so
    /// the workload below is randomized but reproducible.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn serial_and_multithread_configs_agree_on_a_randomized_workload() {
        // Randomized per-item work with a skewed cost profile: expensive items
        // scattered through the range make workers finish chunks out of order,
        // which is exactly the scheduling the index-order guarantee must
        // survive.
        let mut seed = 0xF7B5_2024u64;
        let work: Vec<u64> = (0..700).map(|_| splitmix64(&mut seed)).collect();
        let eval = |items: &[u64], i: usize| -> u64 {
            let spin = (items[i] % 97) * (items[i] % 13);
            let mut acc = items[i];
            for _ in 0..spin {
                acc = acc.rotate_left(7) ^ 0xA5A5_A5A5_A5A5_A5A5;
            }
            acc
        };
        let expected = parallel_map(&ParallelConfig::serial(), work.len(), |i| eval(&work, i));
        for threads in [2usize, 4, 8] {
            for chunk in [1usize, 3, 16] {
                let cfg = ParallelConfig::with_threads(threads).with_chunk_size(chunk);
                let got = parallel_map(&cfg, work.len(), |i| eval(&work, i));
                assert_eq!(
                    got, expected,
                    "threads = {threads}, chunk = {chunk}: output diverged from serial"
                );
                for (i, v) in got.iter().enumerate() {
                    assert_eq!(*v, eval(&work, i), "index order broken at {i}");
                }
            }
        }
    }

    #[test]
    fn map_init_reuses_worker_state_and_preserves_order() {
        let inits = AtomicU64::new(0);
        let cfg = ParallelConfig::with_threads(4).with_chunk_size(2);
        let n = 600usize;
        // Each worker's state counts how many items it has seen; the result
        // pairs the index with a strictly positive per-worker sequence number.
        let out = parallel_map_init(
            &cfg,
            n,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |seen, i| {
                *seen += 1;
                (i, *seen)
            },
        );
        assert_eq!(out.len(), n);
        let total_inits = inits.load(Ordering::Relaxed);
        assert!(
            total_inits <= 4,
            "states must be per worker, not per item (got {total_inits} inits)"
        );
        let mut seen_per_state_total = 0usize;
        for (i, (idx, seq)) in out.iter().enumerate() {
            assert_eq!(*idx, i, "index order broken at {i}");
            assert!(*seq >= 1);
            seen_per_state_total = seen_per_state_total.max(*seq);
        }
        assert!(seen_per_state_total >= n / 4, "state reuse did not happen");
    }

    #[test]
    fn map_init_serial_uses_one_state_and_empty_skips_init() {
        let inits = AtomicU64::new(0);
        let out = parallel_map_init(
            &ParallelConfig::serial(),
            5,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |(), i| i * 2,
        );
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
        assert_eq!(inits.load(Ordering::Relaxed), 1);

        let out = parallel_map_init(
            &ParallelConfig::with_threads(4),
            0,
            || panic!("init must not run for an empty range"),
            |(), i| i,
        );
        assert!(out.is_empty());
    }

    proptest! {
        #[test]
        fn map_matches_sequential_for_arbitrary_sizes(len in 0usize..400, threads in 1usize..8, chunk in 1usize..32) {
            let cfg = ParallelConfig::with_threads(threads).with_chunk_size(chunk);
            let expected: Vec<usize> = (0..len).map(|i| i ^ 0xABCD).collect();
            let got = parallel_map(&cfg, len, |i| i ^ 0xABCD);
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn segments_mut_fills_every_segment_once_in_place() {
        // Segments of lengths 0, 1, 2, ... (the empty one first).
        let mut offsets = vec![0usize];
        for len in 0..45 {
            offsets.push(offsets.last().unwrap() + len);
        }
        let n = *offsets.last().unwrap();
        let fill = |cfg: &ParallelConfig| {
            let inits = AtomicU64::new(0);
            let mut data = vec![0usize; n];
            parallel_segments_mut_init(
                cfg,
                &mut data,
                &offsets,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, i, segment| {
                    assert_eq!(segment.len(), i);
                    for (k, x) in segment.iter_mut().enumerate() {
                        *x += offsets[i] + k + 1;
                    }
                },
            );
            assert!(inits.load(Ordering::Relaxed) <= cfg.threads() as u64);
            data
        };
        let expected: Vec<usize> = (1..=n).collect();
        assert_eq!(fill(&ParallelConfig::serial()), expected);
        assert_eq!(
            fill(&ParallelConfig::with_threads(4).with_chunk_size(2)),
            expected
        );
        let mut empty: Vec<u32> = Vec::new();
        parallel_segments_mut_init(
            &ParallelConfig::with_threads(4),
            &mut empty,
            &[0],
            || (),
            |_, _, _| panic!("must not be called"),
        );
    }

    #[test]
    fn segments_mut_goes_parallel_below_the_chunk_size() {
        // Three segments, fewer than the default chunk size of 16: with two
        // threads both workers start, each on a thread of its own, and every
        // segment is still filled once.
        let cfg = ParallelConfig::with_threads(2);
        assert!(3 < cfg.chunk_size());
        let workers = Mutex::new(Vec::new());
        let mut data = vec![0u32; 6];
        parallel_segments_mut_init(
            &cfg,
            &mut data,
            &[0, 1, 3, 6],
            || workers.lock().unwrap().push(std::thread::current().id()),
            |_, i, segment| segment.fill(i as u32 + 1),
        );
        let workers = workers.into_inner().unwrap();
        assert_eq!(workers.len(), 2);
        assert_ne!(workers[0], workers[1]);
        assert_eq!(data, [1, 2, 2, 3, 3, 3]);
    }
}

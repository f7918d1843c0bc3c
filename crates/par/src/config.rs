//! Thread-count configuration for the parallel helpers.

/// Controls how many worker threads the parallel helpers use.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    threads: usize,
    /// Work items per grab from the shared counter; larger chunks reduce
    /// contention, smaller chunks balance skewed workloads better.
    chunk_size: usize,
}

/// Environment variable overriding the thread count of
/// [`ParallelConfig::new`] / [`ParallelConfig::default`].
///
/// CI sets this to force the multi-threaded code paths (construction sweeps,
/// sharded `query_many_faults`) even where a default would pick the core count, and
/// to pin them to a known width. Explicit configurations
/// ([`ParallelConfig::serial`], [`ParallelConfig::with_threads`]) are never
/// overridden.
pub const FORCE_THREADS_ENV: &str = "FTBFS_FORCE_THREADS";

/// Parse the value of [`FORCE_THREADS_ENV`]: a positive integer thread count,
/// anything else (missing, empty, unparsable, zero) means "no override".
fn parse_forced_threads(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
}

impl ParallelConfig {
    /// Use all available cores (as reported by the OS), unless the
    /// [`FORCE_THREADS_ENV`] environment variable pins an explicit count.
    pub fn new() -> Self {
        let forced = std::env::var(FORCE_THREADS_ENV).ok();
        let threads = parse_forced_threads(forced.as_deref()).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        ParallelConfig {
            threads,
            chunk_size: 16,
        }
    }

    /// Use exactly `threads` worker threads (minimum 1).
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads: threads.max(1),
            chunk_size: 16,
        }
    }

    /// Force strictly sequential execution on the calling thread.
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// Override the chunk size (minimum 1).
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Work items grabbed per atomic fetch.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// `true` if the configuration degenerates to sequential execution.
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_uses_at_least_one_thread() {
        let cfg = ParallelConfig::default();
        assert!(cfg.threads() >= 1);
        assert!(cfg.chunk_size() >= 1);
    }

    #[test]
    fn explicit_thread_count_is_clamped() {
        assert_eq!(ParallelConfig::with_threads(0).threads(), 1);
        assert_eq!(ParallelConfig::with_threads(4).threads(), 4);
        assert!(ParallelConfig::serial().is_serial());
        assert!(!ParallelConfig::with_threads(2).is_serial());
    }

    #[test]
    fn forced_thread_parsing_accepts_only_positive_integers() {
        assert_eq!(parse_forced_threads(None), None);
        assert_eq!(parse_forced_threads(Some("")), None);
        assert_eq!(parse_forced_threads(Some("abc")), None);
        assert_eq!(parse_forced_threads(Some("0")), None);
        assert_eq!(parse_forced_threads(Some("-3")), None);
        assert_eq!(parse_forced_threads(Some("4")), Some(4));
        assert_eq!(parse_forced_threads(Some(" 8 ")), Some(8));
    }

    #[test]
    fn chunk_size_is_clamped() {
        let cfg = ParallelConfig::with_threads(2).with_chunk_size(0);
        assert_eq!(cfg.chunk_size(), 1);
        let cfg = ParallelConfig::with_threads(2).with_chunk_size(128);
        assert_eq!(cfg.chunk_size(), 128);
    }
}

//! Seeded, deterministic fault injection for the serving tier.
//!
//! The server threads a [`Chaos`] handle through its IO and query hot
//! paths. In production the handle is `None` and every hook site is a
//! single branch on an absent `Option` — no drawing, no atomics, no
//! allocation. Under test, [`SeededChaos`] turns each hook call into a
//! deterministic decision: draw *i* of a run is `splitmix64(seed, i)`,
//! where *i* comes from one shared atomic counter. The decision *stream*
//! is therefore a pure function of the seed; which call site consumes
//! which draw depends on thread interleaving, so multi-threaded runs are
//! reproducible statistically (same seed → same fault mix and rates),
//! while single-threaded drivers replay exactly.
//!
//! Six fault kinds cover the failure domains of a TCP query server:
//!
//! | kind            | hook                      | what the server does        |
//! |-----------------|---------------------------|-----------------------------|
//! | slow read       | [`Chaos::on_read`]        | stalls before reading       |
//! | connection reset| [`Chaos::on_read`]        | errors the read             |
//! | partial write   | [`Chaos::on_write`]       | writes a prefix, then errors|
//! | accept error    | [`Chaos::on_accept`]      | treats accept as failed     |
//! | worker panic    | [`Chaos::on_job`]         | panics in/around a query    |
//! | queue stall     | [`Chaos::on_job`]         | sleeps holding a context    |
//!
//! Every injection is counted in [`ChaosStats`], so a chaos suite can
//! assert it actually exercised each kind instead of trusting
//! probabilities.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What an IO hook ([`Chaos::on_read`] / [`Chaos::on_write`]) injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// No fault: proceed normally.
    None,
    /// Stall for the given duration before the IO proceeds.
    Slow(Duration),
    /// Write a prefix of the frame, then fail the connection — the peer
    /// sees a truncated frame and a close, never a desynced stream.
    /// (Meaningless for reads; [`Chaos::on_read`] never returns it.)
    PartialWrite,
    /// Fail the IO as a connection reset.
    Reset,
}

/// What the query hook ([`Chaos::on_job`]) injects right after a
/// connection checks out a query context.
///
/// Both panic kinds end the same way: the connection thread catches the
/// panic, replies a typed `Internal` frame on a connection that stays
/// usable, and the pool replaces the context with a fresh one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerFault {
    /// No fault: handle the query normally.
    None,
    /// Panic *inside* the request handler, after the deadline check.
    Panic,
    /// Panic right after checkout, before the deadline check and the
    /// handler: queries run on connection threads, so none dies.
    PanicUncaught,
    /// Sleep while holding the context, making other connections wait —
    /// exercises `Overloaded` shedding and `DeadlineExceeded` for waiters.
    Stall(Duration),
}

/// Per-kind injection probabilities and magnitudes for [`SeededChaos`].
///
/// Probabilities are per hook call in `[0, 1]`; durations are the upper
/// bound of a uniform draw.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seed of the decision stream.
    pub seed: u64,
    /// P(stall before a read).
    pub slow_read: f64,
    /// Upper bound of an injected read stall.
    pub slow_read_max: Duration,
    /// P(fail a read as a connection reset).
    pub conn_reset: f64,
    /// P(truncate a write and fail the connection).
    pub partial_write: f64,
    /// P(fail an accept).
    pub accept_error: f64,
    /// P(panic after a context checkout) — split evenly between the two
    /// panic sites.
    pub worker_panic: f64,
    /// P(stall after a context checkout).
    pub queue_stall: f64,
    /// Upper bound of an injected stall.
    pub queue_stall_max: Duration,
}

impl ChaosConfig {
    /// A profile that exercises every fault kind at rates a few thousand
    /// requests will hit hundreds of times, without drowning the run.
    pub fn storm(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            slow_read: 0.05,
            slow_read_max: Duration::from_millis(3),
            conn_reset: 0.03,
            partial_write: 0.03,
            accept_error: 0.10,
            worker_panic: 0.03,
            queue_stall: 0.04,
            queue_stall_max: Duration::from_millis(5),
        }
    }

    /// All probabilities zero: hooks fire but never inject. Useful to
    /// measure the overhead of the enabled-but-quiet path.
    pub fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            slow_read: 0.0,
            slow_read_max: Duration::ZERO,
            conn_reset: 0.0,
            partial_write: 0.0,
            accept_error: 0.0,
            worker_panic: 0.0,
            queue_stall: 0.0,
            queue_stall_max: Duration::ZERO,
        }
    }
}

/// Running totals of injected faults, one counter per kind.
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Read stalls injected.
    pub slow_reads: AtomicU64,
    /// Connection resets injected.
    pub conn_resets: AtomicU64,
    /// Partial writes injected.
    pub partial_writes: AtomicU64,
    /// Accept failures injected.
    pub accept_errors: AtomicU64,
    /// Worker panics injected (caught + uncaught).
    pub worker_panics: AtomicU64,
    /// Stalls injected while holding a query context.
    pub queue_stalls: AtomicU64,
}

/// A point-in-time copy of [`ChaosStats`], with the totals a chaos suite
/// asserts against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStatsSnapshot {
    /// Read stalls injected.
    pub slow_reads: u64,
    /// Connection resets injected.
    pub conn_resets: u64,
    /// Partial writes injected.
    pub partial_writes: u64,
    /// Accept failures injected.
    pub accept_errors: u64,
    /// Worker panics injected (caught + uncaught).
    pub worker_panics: u64,
    /// Stalls injected while holding a query context.
    pub queue_stalls: u64,
}

impl ChaosStatsSnapshot {
    /// Sum over every fault kind.
    pub fn total(&self) -> u64 {
        self.slow_reads
            + self.conn_resets
            + self.partial_writes
            + self.accept_errors
            + self.worker_panics
            + self.queue_stalls
    }

    /// `true` when every fault kind was injected at least once.
    pub fn all_kinds_hit(&self) -> bool {
        self.slow_reads > 0
            && self.conn_resets > 0
            && self.partial_writes > 0
            && self.accept_errors > 0
            && self.worker_panics > 0
            && self.queue_stalls > 0
    }
}

/// The injection interface the server threads through its hot paths.
///
/// Default implementations inject nothing, so an implementor overrides
/// only the hooks it cares about (tests use this to build single-fault
/// injectors: "reset the first read", "panic the next job").
pub trait Chaos: Send + Sync {
    /// Called before the server reads from a client connection.
    fn on_read(&self) -> IoFault {
        IoFault::None
    }
    /// Called before the server writes a response frame.
    fn on_write(&self) -> IoFault {
        IoFault::None
    }
    /// Called per accepted connection; `true` fails the accept.
    fn on_accept(&self) -> bool {
        false
    }
    /// Called right after a query checks out a context.
    fn on_job(&self) -> WorkerFault {
        WorkerFault::None
    }
}

/// `splitmix64` — the standard 64-bit finalizer-based generator. Pure, so
/// draw *i* of seed *s* is the same in every run.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded implementation: one atomic draw counter, one pure hash.
pub struct SeededChaos {
    config: ChaosConfig,
    counter: AtomicU64,
    stats: ChaosStats,
}

impl SeededChaos {
    /// Build an injector drawing from `config`'s seed.
    pub fn new(config: ChaosConfig) -> SeededChaos {
        SeededChaos {
            config,
            counter: AtomicU64::new(0),
            stats: ChaosStats::default(),
        }
    }

    /// The configuration the injector was built with.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Copy the per-kind injection counters.
    pub fn stats(&self) -> ChaosStatsSnapshot {
        let s = &self.stats;
        ChaosStatsSnapshot {
            slow_reads: s.slow_reads.load(Ordering::Relaxed),
            conn_resets: s.conn_resets.load(Ordering::Relaxed),
            partial_writes: s.partial_writes.load(Ordering::Relaxed),
            accept_errors: s.accept_errors.load(Ordering::Relaxed),
            worker_panics: s.worker_panics.load(Ordering::Relaxed),
            queue_stalls: s.queue_stalls.load(Ordering::Relaxed),
        }
    }

    /// Draw the next 64-bit value of the decision stream.
    fn draw(&self) -> u64 {
        let i = self.counter.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.config.seed ^ splitmix64(i))
    }

    /// Map a draw to `[0, 1)`.
    fn unit(draw: u64) -> f64 {
        (draw >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A duration uniform in `[0, max]`, derived from its own draw.
    fn duration_upto(&self, max: Duration) -> Duration {
        let nanos = max.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.draw() % (nanos + 1))
    }
}

impl Chaos for SeededChaos {
    fn on_read(&self) -> IoFault {
        let u = Self::unit(self.draw());
        if u < self.config.conn_reset {
            self.stats.conn_resets.fetch_add(1, Ordering::Relaxed);
            IoFault::Reset
        } else if u < self.config.conn_reset + self.config.slow_read {
            self.stats.slow_reads.fetch_add(1, Ordering::Relaxed);
            IoFault::Slow(self.duration_upto(self.config.slow_read_max))
        } else {
            IoFault::None
        }
    }

    fn on_write(&self) -> IoFault {
        if Self::unit(self.draw()) < self.config.partial_write {
            self.stats.partial_writes.fetch_add(1, Ordering::Relaxed);
            IoFault::PartialWrite
        } else {
            IoFault::None
        }
    }

    fn on_accept(&self) -> bool {
        if Self::unit(self.draw()) < self.config.accept_error {
            self.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn on_job(&self) -> WorkerFault {
        let u = Self::unit(self.draw());
        if u < self.config.worker_panic {
            self.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            // Split the panic budget between a panic inside the handler
            // and one right after checkout, so both sites stay exercised;
            // each ends in an Internal frame and a replaced context.
            if self.draw().is_multiple_of(2) {
                WorkerFault::Panic
            } else {
                WorkerFault::PanicUncaught
            }
        } else if u < self.config.worker_panic + self.config.queue_stall {
            self.stats.queue_stalls.fetch_add(1, Ordering::Relaxed);
            WorkerFault::Stall(self.duration_upto(self.config.queue_stall_max))
        } else {
            WorkerFault::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_single_threaded_stream() {
        let a = SeededChaos::new(ChaosConfig::storm(42));
        let b = SeededChaos::new(ChaosConfig::storm(42));
        for _ in 0..10_000 {
            assert_eq!(a.on_read(), b.on_read());
            assert_eq!(a.on_write(), b.on_write());
            assert_eq!(a.on_accept(), b.on_accept());
            assert_eq!(a.on_job(), b.on_job());
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().all_kinds_hit(), "storm profile hits every kind");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = SeededChaos::new(ChaosConfig::storm(1));
        let b = SeededChaos::new(ChaosConfig::storm(2));
        let mut diverged = false;
        for _ in 0..1_000 {
            if a.on_read() != b.on_read() {
                diverged = true;
            }
        }
        assert!(diverged, "seeds 1 and 2 produce different streams");
    }

    #[test]
    fn quiet_profile_injects_nothing() {
        let c = SeededChaos::new(ChaosConfig::quiet(7));
        for _ in 0..1_000 {
            assert_eq!(c.on_read(), IoFault::None);
            assert_eq!(c.on_write(), IoFault::None);
            assert!(!c.on_accept());
            assert_eq!(c.on_job(), WorkerFault::None);
        }
        assert_eq!(c.stats().total(), 0);
    }

    #[test]
    fn rates_track_configuration() {
        let c = SeededChaos::new(ChaosConfig::storm(99));
        let n = 100_000;
        for _ in 0..n {
            c.on_read();
            c.on_write();
            c.on_accept();
            c.on_job();
        }
        let s = c.stats();
        let within = |count: u64, p: f64| {
            let expect = p * n as f64;
            (count as f64) > expect * 0.7 && (count as f64) < expect * 1.3
        };
        assert!(within(s.slow_reads, 0.05), "slow reads: {}", s.slow_reads);
        assert!(within(s.conn_resets, 0.03), "resets: {}", s.conn_resets);
        assert!(
            within(s.partial_writes, 0.03),
            "partial writes: {}",
            s.partial_writes
        );
        assert!(
            within(s.accept_errors, 0.10),
            "accept errors: {}",
            s.accept_errors
        );
        assert!(
            within(s.worker_panics, 0.03),
            "worker panics: {}",
            s.worker_panics
        );
        assert!(
            within(s.queue_stalls, 0.04),
            "queue stalls: {}",
            s.queue_stalls
        );
    }

    #[test]
    fn injected_durations_respect_bounds() {
        let c = SeededChaos::new(ChaosConfig::storm(5));
        for _ in 0..10_000 {
            if let IoFault::Slow(d) = c.on_read() {
                assert!(d <= c.config().slow_read_max);
            }
            if let WorkerFault::Stall(d) = c.on_job() {
                assert!(d <= c.config().queue_stall_max);
            }
        }
    }
}

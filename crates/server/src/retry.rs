//! Client-side retry with bounded exponential backoff and decorrelated
//! jitter.
//!
//! The serving tier deliberately sheds load (`Overloaded`), isolates query
//! panics (`Internal`), and injects faults under chaos testing (connection
//! resets, partial writes). All three look like transient failures from the
//! client's seat, and all three are safe to retry **for idempotent reads**:
//! every query the engine answers is a pure function of the immutable
//! preprocessed structure, so re-sending a `Dist` can never double-apply
//! anything. The one mutating request on the wire — `Shutdown` — is
//! explicitly never retried: a retry racing the server's exit could tear
//! down a *freshly restarted* server.
//!
//! Backoff follows the decorrelated-jitter scheme: each sleep is drawn
//! uniformly from `[base, prev * 3]` and clamped to `max_backoff`, which
//! spreads synchronized retry storms apart far better than plain
//! exponential doubling while keeping the same bounded worst case.

use crate::protocol::{ErrorCode, Request, Response};
use std::time::Duration;

/// When (and how patiently) a client retries a failed request.
///
/// A policy is a plain value: it holds no clock and no RNG state, so one
/// policy can be shared by any number of client threads. Per-call mutable
/// state (the jitter RNG, the previous sleep) lives in [`RetryState`],
/// which [`crate::Client::request_with_retry`] threads internally.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Retries allowed *beyond* the first attempt. `0` disables retrying
    /// while keeping the classification logic (useful for tests).
    pub max_retries: u32,
    /// Lower bound of every backoff draw.
    pub base_backoff: Duration,
    /// Upper clamp on every backoff draw.
    pub max_backoff: Duration,
    /// Seed for the decorrelated jitter; two clients with different seeds
    /// desynchronize even when they fail in lockstep.
    pub seed: u64,
    /// Read timeout re-applied to the socket after every reconnect, so a
    /// retried request cannot hang longer than the original could.
    pub read_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(200),
            seed: 0x5EED_F00D,
            read_timeout: None,
        }
    }
}

/// Counters accumulated across every request issued under a policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Wire attempts, including first tries.
    pub attempts: u64,
    /// Attempts that were retries of an earlier failure.
    pub retries: u64,
    /// Retries that had to re-dial and re-handshake first.
    pub reconnects: u64,
    /// Requests abandoned after exhausting the retry budget.
    pub gave_up: u64,
}

/// Why an attempt failed, as seen by the retry loop.
#[derive(Debug)]
pub(crate) enum Attempt {
    /// Transport-level failure (reset, EOF, timeout): the connection is
    /// dead and must be re-dialed before the next attempt. The underlying
    /// error stays in the `io::Result` the retry loop already holds.
    Io,
    /// The server refused admission; connection is fine.
    Overloaded,
    /// The server answered a typed error frame; `None` means the code was
    /// not one this client knows. Connection is fine either way.
    ServerError(Option<ErrorCode>),
}

/// Would retrying this request ever be sound, regardless of what failed?
///
/// Only idempotent reads qualify. `Shutdown` is the lone mutating request;
/// `Hello` is excluded because the retry loop re-handshakes itself on
/// reconnect and a bare duplicate hello mid-session is a protocol
/// violation.
pub(crate) fn request_is_idempotent(req: &Request) -> bool {
    match req {
        Request::Dist { .. }
        | Request::Path { .. }
        | Request::DistMany { .. }
        | Request::BatchDist { .. }
        | Request::Metrics { .. }
        | Request::SlowQueries => true,
        Request::Deadline { inner, .. } => request_is_idempotent(inner),
        Request::Hello { .. } | Request::Shutdown => false,
    }
}

/// Is this specific failure worth another attempt?
pub(crate) fn failure_is_retryable(outcome: &Attempt) -> bool {
    match outcome {
        // Any transport error: the far side reset, stalled, or sent a
        // torn frame. Reconnect-and-retry is the designed recovery.
        Attempt::Io => true,
        // Explicit shedding is the canonical transient failure.
        Attempt::Overloaded => true,
        Attempt::ServerError(code) => match code {
            // An isolated crash (a panicked query) is transient: its
            // context was already replaced with a fresh one.
            Some(ErrorCode::Internal) => true,
            // The budget already expired once; retrying re-spends a
            // budget the caller declared exhausted.
            Some(ErrorCode::DeadlineExceeded) => false,
            // Deterministic rejections: identical resend, identical answer.
            Some(
                ErrorCode::VertexOutOfRange
                | ErrorCode::InvalidFault
                | ErrorCode::FaultSetTooLarge
                | ErrorCode::SourceNotServed
                | ErrorCode::MalformedFrame
                | ErrorCode::ProtocolViolation,
            ) => false,
            // A code this client does not know: assume deterministic.
            None => false,
        },
    }
}

/// Mutable per-request-sequence state: the jitter RNG and the previous
/// sleep the decorrelated scheme feeds forward.
#[derive(Debug)]
pub(crate) struct RetryState {
    rng: u64,
    prev: Duration,
    base: Duration,
    max: Duration,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RetryState {
    pub(crate) fn new(policy: &RetryPolicy) -> RetryState {
        RetryState {
            rng: splitmix64(policy.seed),
            prev: policy.base_backoff,
            base: policy.base_backoff,
            max: policy.max_backoff.max(policy.base_backoff),
        }
    }

    /// Next sleep: `min(max, uniform(base, prev * 3))`.
    pub(crate) fn next_backoff(&mut self) -> Duration {
        self.rng = splitmix64(self.rng);
        let lo = self.base.as_nanos() as u64;
        let hi = (self.prev.as_nanos() as u64).saturating_mul(3).max(lo + 1);
        let draw = lo + self.rng % (hi - lo);
        let sleep = Duration::from_nanos(draw).min(self.max);
        self.prev = sleep;
        sleep
    }
}

/// Classify a `request()` outcome for the retry loop. `Ok` responses that
/// are not error frames short-circuit as successes before this is called.
pub(crate) fn classify(result: &std::io::Result<Response>) -> Option<Attempt> {
    match result {
        Ok(Response::Overloaded) => Some(Attempt::Overloaded),
        Ok(Response::Error { code, .. }) => Some(Attempt::ServerError(ErrorCode::from_u16(*code))),
        Ok(_) => None,
        Err(_) => Some(Attempt::Io),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_graph::{FaultSet, VertexId};

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
            seed: 42,
            ..RetryPolicy::default()
        };
        let mut a = RetryState::new(&policy);
        let mut b = RetryState::new(&policy);
        for _ in 0..100 {
            let (sa, sb) = (a.next_backoff(), b.next_backoff());
            assert_eq!(sa, sb, "same seed must give the same schedule");
            assert!(sa >= policy.base_backoff && sa <= policy.max_backoff);
        }
    }

    #[test]
    fn different_seeds_decorrelate() {
        let p1 = RetryPolicy {
            seed: 1,
            ..RetryPolicy::default()
        };
        let p2 = RetryPolicy {
            seed: 2,
            ..RetryPolicy::default()
        };
        let (mut s1, mut s2) = (RetryState::new(&p1), RetryState::new(&p2));
        let same = (0..32)
            .filter(|_| s1.next_backoff() == s2.next_backoff())
            .count();
        assert!(
            same < 32,
            "two seeds should not produce identical schedules"
        );
    }

    #[test]
    fn shutdown_is_never_idempotent() {
        assert!(!request_is_idempotent(&Request::Shutdown));
        assert!(!request_is_idempotent(&Request::Hello {
            client_version: 4
        }));
        assert!(request_is_idempotent(&Request::SlowQueries));
        assert!(request_is_idempotent(&Request::Dist {
            source: VertexId::new(0),
            target: VertexId::new(1),
            faults: FaultSet::new(),
        }));
        // Idempotence looks through the deadline wrapper.
        assert!(request_is_idempotent(&Request::Deadline {
            budget_ms: 5,
            inner: Box::new(Request::SlowQueries),
        }));
        assert!(!request_is_idempotent(&Request::Deadline {
            budget_ms: 5,
            inner: Box::new(Request::Shutdown),
        }));
    }

    #[test]
    fn retryability_classification() {
        assert!(failure_is_retryable(&Attempt::Io));
        assert!(failure_is_retryable(&Attempt::Overloaded));
        assert!(failure_is_retryable(&Attempt::ServerError(Some(
            ErrorCode::Internal
        ))));
        let no_retry = [
            ErrorCode::DeadlineExceeded,
            ErrorCode::FaultSetTooLarge,
            ErrorCode::InvalidFault,
            ErrorCode::ProtocolViolation,
        ];
        for code in no_retry {
            assert!(!failure_is_retryable(&Attempt::ServerError(Some(code))));
        }
        assert!(!failure_is_retryable(&Attempt::ServerError(None)));
    }
}

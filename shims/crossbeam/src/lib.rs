//! Offline stand-in for the subset of `crossbeam` this workspace uses:
//! the `crossbeam::scope` API, backed by `std::thread::scope` (stable since
//! Rust 1.63).
//!
//! Only `crossbeam::scope(|s| { s.spawn(|_| ...); })` returning a `Result`
//! that is `Ok` when no worker panicked is provided. Worker panics
//! propagate out of `std::thread::scope` as a panic of the scope call
//! itself, which we surface through `catch_unwind` to match crossbeam's
//! `Err` contract (callers `.expect(...)` on it).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;

/// Error payload of a panicked scope, as in crossbeam.
pub type ScopeError = Box<dyn std::any::Any + Send + 'static>;

/// Opaque handle passed to spawned closures (crossbeam passes the scope
/// itself; every call site in this workspace ignores the argument).
#[derive(Clone, Copy, Debug)]
pub struct ScopeHandle(());

/// A scope in which worker threads can borrow from the enclosing stack frame.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a scoped worker thread.
    pub fn spawn<F, T>(&self, f: F) -> thread::ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(ScopeHandle) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        self.inner.spawn(move || f(ScopeHandle(())))
    }
}

/// Run `f` with a scope object; all threads spawned through it are joined
/// before `scope` returns. Returns `Err` if any worker (or `f`) panicked.
pub fn scope<'env, F, R>(f: F) -> Result<R, ScopeError>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    catch_unwind(AssertUnwindSafe(|| {
        thread::scope(|s| f(&Scope { inner: s }))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn workers_borrow_and_join() {
        let counter = AtomicUsize::new(0);
        let out = scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| counter.fetch_add(1, Ordering::Relaxed));
            }
        });
        assert!(out.is_ok());
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn panicking_worker_reports_err() {
        let out = scope(|s| {
            s.spawn(|_| panic!("worker down"));
        });
        assert!(out.is_err());
    }
}

//! The blocking TCP query server.
//!
//! One process owns one immutable [`EngineCore`] behind an `Arc`. A query
//! never changes threads between its request and its reply:
//!
//! * the **accept loop** blocks in `accept`; a shutdown sets the flag and
//!   wakes it with a loopback connect, so nothing polls;
//! * one **connection thread** per client reads frames (with an idle
//!   timeout so a wedged client cannot pin the thread forever), answers
//!   handshake/metrics/shutdown inline, and answers each query itself on
//!   a [`QueryContext`] checked out of the pool;
//! * the **context pool** holds `workers` contexts (BFS scratch + row
//!   cache each). After every query the connection thread adds the
//!   context's counter delta to the shared engine counters of the metrics
//!   registry ([`EngineObs::publish`](ftb_core::EngineObs::publish)) and
//!   returns the context.
//!
//! Admission control is the load-bearing design point: at most `workers`
//! queries run at once, at most `queue_depth` connections wait for a
//! context, and the next one is answered [`Response::Overloaded`]
//! immediately instead of buffering. The server's memory is therefore
//! constant under any offered load, and clients observe overload as an
//! explicit, countable signal rather than as silently growing latency.
//!
//! Every counter the server keeps lives once, in the
//! [`ServerMetrics`] registry: engine counters by name and by tier,
//! admitted/shed/connection counters, and the engine provenance gauges
//! registered at bind. [`Request::Metrics`] renders it on the connection
//! thread without a context, so it stays responsive even when every
//! context is busy, which is exactly when you want to read it.

use crate::metrics::{ServerMetrics, DEFAULT_SLOW_LOG_CAPACITY};
use crate::protocol::{
    decode_request, encode_response, write_frame, DecodeError, ErrorCode, MetricsFormat, Request,
    Response, SlowQueryReport, WirePath, PROTOCOL_VERSION,
};
use ftb_chaos::{Chaos, IoFault, WorkerFault};
use ftb_core::{EngineCore, FtbfsError, QueryContext, QueryStats};
use ftb_graph::FaultSet;
use std::collections::BTreeMap;
use std::io::{self, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Where the served engine came from and what it cost to get ready.
///
/// Filled in by the binary that assembled the engine (built in-process or
/// loaded from a snapshot) and published at bind as the
/// `ftb_engine_from_snapshot`, `ftb_engine_startup_seconds` and
/// `ftb_snapshot_format_version` gauges, so operators can tell a
/// snapshot-restored server from a cold-built one over the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Provenance {
    /// `true` when the engine was loaded from a persistent snapshot,
    /// `false` when it was built from the spec in-process.
    pub from_snapshot: bool,
    /// Wall time from process start to ready-to-serve, in microseconds.
    pub startup_micros: u64,
    /// Snapshot container format version when `from_snapshot`, else 0.
    pub snapshot_format_version: u32,
}

/// Tuning knobs of [`Server::bind`].
#[derive(Clone)]
pub struct ServeOptions {
    /// Pooled [`QueryContext`]s, i.e. queries computed at once.
    /// Clamped to at least 1.
    pub workers: usize,
    /// Connections allowed to wait for a context when all are busy; the
    /// next one is shed with [`Response::Overloaded`]. Clamped to at
    /// least 1.
    pub queue_depth: usize,
    /// A connection idle (no bytes) for this long is closed. Also bounds
    /// how long a half-sent frame can pin a connection thread.
    pub idle_timeout: Duration,
    /// Engine startup provenance, published as gauges at bind.
    pub provenance: Provenance,
    /// Capacity of the slow-query board (top-K by handle time; 0 disables).
    pub slow_log_capacity: usize,
    /// When set, serve the metrics payload as plaintext HTTP on this
    /// address too — `curl http://addr/metrics` works without speaking the
    /// binary protocol. `/metrics.json` and `/slow` are also routed.
    pub metrics_addr: Option<SocketAddr>,
    /// Process-wide observability sampling switch applied at bind
    /// ([`ftb_obs::set_sampling`]): per-tier latency histograms and stage
    /// spans record only while it is on. Off still counts requests and
    /// connection/queue activity — only the clock-reading paths stop.
    pub sampling: bool,
    /// Server-side per-request budget, measured from admission. A request
    /// that exceeds it while waiting for a context (or between the
    /// fault-set groups of a batch) is shed with
    /// [`ErrorCode::DeadlineExceeded`] instead of burning compute on an
    /// answer nobody is waiting for. `None` disables the budget. When a
    /// request also carries its own [`Request::Deadline`] budget, the
    /// smaller of the two wins.
    pub request_timeout: Option<Duration>,
    /// Fault injection hook threaded through the accept, IO and query hot
    /// paths. `None` (the production default) makes every hook site a
    /// single branch on an absent `Option` — no drawing, no atomics.
    pub chaos: Option<Arc<dyn Chaos>>,
}

impl std::fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeOptions")
            .field("workers", &self.workers)
            .field("queue_depth", &self.queue_depth)
            .field("idle_timeout", &self.idle_timeout)
            .field("provenance", &self.provenance)
            .field("slow_log_capacity", &self.slow_log_capacity)
            .field("metrics_addr", &self.metrics_addr)
            .field("sampling", &self.sampling)
            .field("request_timeout", &self.request_timeout)
            .field("chaos", &self.chaos.is_some())
            .finish()
    }
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: thread::available_parallelism().map_or(2, |n| n.get()),
            queue_depth: 256,
            idle_timeout: Duration::from_secs(30),
            provenance: Provenance::default(),
            slow_log_capacity: DEFAULT_SLOW_LOG_CAPACITY,
            metrics_addr: None,
            sampling: true,
            request_timeout: None,
            chaos: None,
        }
    }
}

/// State shared by the accept loops and the connection threads.
struct Shared {
    core: Arc<EngineCore>,
    shutdown: AtomicBool,
    idle_timeout: Duration,
    /// The configured pool size.
    workers: usize,
    /// Connections allowed to wait for a context.
    queue_depth: usize,
    active_connections: AtomicUsize,
    metrics: Arc<ServerMetrics>,
    /// Server-side per-request budget (see [`ServeOptions::request_timeout`]).
    request_timeout: Option<Duration>,
    /// Fault injection hook; `None` in production.
    chaos: Option<Arc<dyn Chaos>>,
    pool: Mutex<Pool>,
    /// Signalled when a context is checked in while connections wait.
    checked_in: Condvar,
    /// `false` once the accept loop has exited; `/healthz` readiness.
    accept_live: AtomicBool,
    /// Where a loopback `connect` reaches each bound listener, to wake its
    /// blocking `accept` at shutdown.
    wake_addrs: Vec<SocketAddr>,
}

/// The query contexts not checked out, and the waiting room.
struct Pool {
    idle: Vec<QueryContext>,
    /// Contexts checked out; `idle.len() + in_use` is the pool size.
    in_use: usize,
    /// Connections waiting for a context.
    waiting: usize,
}

/// Why admission control gave a query no context.
enum Refused {
    /// The deadline passed while the connection waited.
    Expired,
    /// Every context busy and the waiting room full.
    Shed,
}

impl Shared {
    fn hello_ok(&self) -> Response {
        let graph = self.core.graph();
        Response::HelloOk {
            version: PROTOCOL_VERSION,
            fingerprint: graph.fingerprint(),
            num_vertices: graph.num_vertices() as u32,
            num_edges: graph.num_edges() as u32,
            sources: self.core.sources().to_vec(),
        }
    }

    /// A fresh context that reports into the shared engine metrics.
    fn new_context(&self) -> QueryContext {
        let mut ctx = self.core.new_context();
        ctx.attach_obs(Arc::clone(&self.metrics.engine));
        ctx
    }

    /// Pool contexts, idle or checked out.
    fn live_contexts(&self) -> usize {
        let pool = self.pool();
        pool.idle.len() + pool.in_use
    }

    fn pool(&self) -> MutexGuard<'_, Pool> {
        // Every update under the lock leaves the pool valid, and the
        // checkout guard's `Drop` must not panic: recover a poisoned lock.
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Set the shutdown flag, then wake every blocking `accept` with a
    /// loopback connect; each accept loop drops what arrives after the
    /// flag and exits.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for addr in &self.wake_addrs {
            let _ = TcpStream::connect_timeout(addr, Duration::from_secs(1));
        }
    }

    /// Admission control: check out an idle context, or wait for one if
    /// fewer than `queue_depth` connections already wait, until
    /// `deadline`. Connections already waiting have first claim on a
    /// checked-in context.
    fn checkout(&self, deadline: Option<Instant>) -> Result<Checkout<'_>, Refused> {
        let mut pool = self.pool();
        let ctx = if pool.idle.len() > pool.waiting {
            pool.idle.pop()
        } else if pool.waiting >= self.queue_depth {
            drop(pool);
            self.metrics.shed_total.inc();
            return Err(Refused::Shed);
        } else {
            pool.waiting += 1;
            self.metrics.queue_depth.inc();
            let ctx = loop {
                if let Some(ctx) = pool.idle.pop() {
                    break Some(ctx);
                }
                let now = Instant::now();
                pool = match deadline {
                    None => self
                        .checked_in
                        .wait(pool)
                        .unwrap_or_else(PoisonError::into_inner),
                    Some(d) if now >= d => break None,
                    Some(d) => {
                        self.checked_in
                            .wait_timeout(pool, d - now)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                };
            };
            pool.waiting -= 1;
            self.metrics.queue_depth.dec();
            ctx
        };
        if ctx.is_some() {
            pool.in_use += 1;
        }
        drop(pool);
        self.metrics.admitted_total.inc();
        let ctx = ctx.ok_or(Refused::Expired)?;
        Ok(Checkout {
            shared: self,
            before: ctx.stats(),
            ctx: Some(ctx),
        })
    }

    fn check_in(&self, ctx: QueryContext) {
        let mut pool = self.pool();
        pool.idle.push(ctx);
        pool.in_use -= 1;
        let waiting = pool.waiting > 0;
        drop(pool);
        if waiting {
            self.checked_in.notify_one();
        }
    }
}

/// A context checked out of the pool. Dropping it checks the context back
/// in; dropping it while unwinding from a panic checks in a fresh context
/// instead, since the old one may be mid-update.
struct Checkout<'a> {
    shared: &'a Shared,
    /// `Some` until the drop.
    ctx: Option<QueryContext>,
    /// The context's counters when last published.
    before: QueryStats,
}

impl Checkout<'_> {
    fn ctx(&mut self) -> &mut QueryContext {
        self.ctx
            .as_mut()
            .expect("checked-out context is present until drop")
    }

    /// Add the context's counter delta since the last publish to the
    /// shared engine counters, and return it.
    fn publish(&mut self) -> QueryStats {
        let now = self.ctx().stats();
        let delta = now.delta_since(&self.before);
        self.shared.metrics.engine.publish(&delta);
        self.before = now;
        delta
    }
}

impl Drop for Checkout<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            // Work the request did before it panicked still counts.
            self.publish();
            self.shared.metrics.thread_panics_worker.inc();
            self.shared.metrics.worker_respawns.inc();
            self.ctx = Some(self.shared.new_context());
        }
        if let Some(ctx) = self.ctx.take() {
            self.shared.check_in(ctx);
        }
    }
}

/// A running query server. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`] (or send [`Request::Shutdown`] over the wire) and
/// then [`Server::join`].
pub struct Server {
    local_addr: SocketAddr,
    metrics_local_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    accept_handle: JoinHandle<()>,
    metrics_handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `core` with `options`. Returns once the listener is live; all
    /// serving happens on background threads.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        core: Arc<EngineCore>,
        options: ServeOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let metrics_listener = options.metrics_addr.map(TcpListener::bind).transpose()?;
        let metrics_local_addr = metrics_listener
            .as_ref()
            .map(TcpListener::local_addr)
            .transpose()?;

        let workers = options.workers.max(1);
        ftb_obs::set_sampling(options.sampling);
        let metrics = ServerMetrics::new(options.slow_log_capacity);
        let provenance = options.provenance;
        for (name, help, value) in [
            (
                "ftb_engine_from_snapshot",
                "1 when the engine was loaded from a snapshot, 0 when built in-process",
                f64::from(u8::from(provenance.from_snapshot)),
            ),
            (
                "ftb_engine_startup_seconds",
                "Wall time from process start to ready-to-serve",
                provenance.startup_micros as f64 / 1e6,
            ),
            (
                "ftb_snapshot_format_version",
                "Snapshot container format version the engine was loaded from (0 when built)",
                f64::from(provenance.snapshot_format_version),
            ),
        ] {
            metrics
                .registry()
                .gauge_fn(name, help, &[], Box::new(move || value));
        }
        // Preprocessing provenance as scrape-time gauges: how this core
        // came to exist, phase by phase. An in-process build also exports
        // the structure's construction phases from its `BuildStats` (and
        // `AugmentStats`, when augmented); a snapshot-restored server shows
        // a single `snapshot_load` phase.
        let mut phases: Vec<(&'static str, f64)> = Vec::new();
        let restored = core
            .build_timings()
            .iter()
            .any(|&(phase, _)| phase == "snapshot_load");
        if !restored {
            let stats = core.structure().stats();
            phases.extend([
                ("s0", stats.s0_ms / 1e3),
                ("s1", stats.s1_ms / 1e3),
                ("s2", stats.s2_ms / 1e3),
                ("reinforce", stats.reinforce_ms / 1e3),
            ]);
            if let Some(aug) = core.augment_stats() {
                phases.push(("augment", aug.augment_ms / 1e3));
            }
        }
        phases.extend(
            core.build_timings()
                .iter()
                .map(|&(phase, nanos)| (phase, nanos as f64 / 1e9)),
        );
        for (phase, seconds) in phases {
            metrics.registry().gauge_fn(
                "ftb_build_phase_seconds",
                "Wall time of each structure construction and engine preprocessing phase",
                &[("phase", phase)],
                Box::new(move || seconds),
            );
        }
        let shared = Arc::new(Shared {
            core,
            shutdown: AtomicBool::new(false),
            idle_timeout: options.idle_timeout.max(Duration::from_millis(1)),
            workers,
            queue_depth: options.queue_depth.max(1),
            active_connections: AtomicUsize::new(0),
            metrics,
            request_timeout: options.request_timeout,
            chaos: options.chaos.clone(),
            pool: Mutex::new(Pool {
                idle: Vec::new(),
                in_use: 0,
                waiting: 0,
            }),
            checked_in: Condvar::new(),
            accept_live: AtomicBool::new(true),
            wake_addrs: [Some(local_addr), metrics_local_addr]
                .into_iter()
                .flatten()
                .map(loopback)
                .collect(),
        });
        let contexts = (0..workers).map(|_| shared.new_context()).collect();
        shared.pool().idle = contexts;

        let accept_shared = Arc::clone(&shared);
        let accept_handle = thread::Builder::new()
            .name("ftb-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;

        let metrics_handle = match metrics_listener {
            None => None,
            Some(listener) => {
                let http_shared = Arc::clone(&shared);
                Some(
                    thread::Builder::new()
                        .name("ftb-metrics-http".to_string())
                        .spawn(move || metrics_http_loop(listener, http_shared))?,
                )
            }
        };

        Ok(Server {
            local_addr,
            metrics_local_addr,
            shared,
            accept_handle,
            metrics_handle,
        })
    }

    /// The bound address (with the resolved port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound plaintext-HTTP metrics address, when one was requested.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_local_addr
    }

    /// The server's metric surface, for in-process rendering and tests.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Request a graceful shutdown: stop accepting, let in-flight and
    /// waiting requests complete, close every connection.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// `true` once a shutdown (local or wire-requested) has been triggered.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Live pool contexts, idle or checked out. A context discarded after
    /// a panic is replaced in the same step, so this stays at
    /// [`Server::workers_configured`].
    pub fn workers_alive(&self) -> usize {
        self.shared.live_contexts()
    }

    /// The context pool size the server was built with.
    pub fn workers_configured(&self) -> usize {
        self.shared.workers
    }

    /// Block until the server has fully stopped (both listeners closed,
    /// all connections closed). Only returns after a shutdown has been
    /// triggered by [`Server::shutdown`] or a wire request.
    ///
    /// Panics inside the serving threads are contained *before* this
    /// point (counted in `ftb_thread_panics_total`, loops re-entered,
    /// contexts replaced); an error here means containment itself failed.
    pub fn join(self) -> io::Result<()> {
        self.accept_handle
            .join()
            .map_err(|_| io::Error::other("server accept thread panicked"))?;
        if let Some(handle) = self.metrics_handle {
            handle
                .join()
                .map_err(|_| io::Error::other("metrics thread panicked"))?;
        }
        Ok(())
    }
}

/// Pause after a failed `accept`, so a persistent error (out of file
/// descriptors) backs off instead of spinning.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// The address a loopback `connect` reaches a listener bound on `addr`
/// through: a wildcard bind is reached on its family's loopback.
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            // Whatever arrived after the flag, the shutdown's own wake-up
            // included, is dropped.
            break;
        }
        // Panic containment: a panic while starting one connection is
        // counted and the loop goes on, so it cannot kill the accept thread.
        if catch_unwind(AssertUnwindSafe(|| start_connection(accepted, &shared))).is_err() {
            shared.metrics.thread_panics_accept.inc();
        }
    }
    shared.accept_live.store(false, Ordering::SeqCst);
    drop(listener);
    // Graceful drain: connection threads notice the flag after their
    // current request (or their next idle tick) and exit on their own.
    while shared.active_connections.load(Ordering::SeqCst) > 0 {
        thread::sleep(Duration::from_millis(2));
    }
}

/// Serve one accepted connection on a thread of its own.
fn start_connection(accepted: io::Result<(TcpStream, SocketAddr)>, shared: &Arc<Shared>) {
    let stream = match accepted {
        Ok((stream, _peer)) => stream,
        // Transient accept errors (aborted handshake etc.): counted,
        // survived.
        Err(_) => {
            shared.metrics.accept_errors_total.inc();
            thread::sleep(ACCEPT_ERROR_BACKOFF);
            return;
        }
    };
    if shared.chaos.as_ref().is_some_and(|chaos| chaos.on_accept()) {
        // Injected accept failure: drop the connection the way an aborted
        // handshake would.
        shared.metrics.accept_errors_total.inc();
        return;
    }
    let conn_shared = Arc::clone(shared);
    shared.metrics.connections_total.inc();
    shared.active_connections.fetch_add(1, Ordering::SeqCst);
    shared.metrics.connections_active.inc();
    let spawned = thread::Builder::new()
        .name("ftb-conn".to_string())
        .spawn(move || {
            if serve_connection(stream, &conn_shared).is_err() {
                conn_shared.metrics.reaped_io_error.inc();
            }
            conn_shared
                .active_connections
                .fetch_sub(1, Ordering::SeqCst);
            conn_shared.metrics.connections_active.dec();
        });
    if spawned.is_err() {
        // Thread spawn failed (resource exhaustion): the closure above
        // never ran, undo the active count and drop the stream, refusing
        // the connection.
        shared.active_connections.fetch_sub(1, Ordering::SeqCst);
        shared.metrics.connections_active.dec();
    }
}

/// The stage timings and per-tier answer counts of an admitted query:
/// the raw material of the slow-query board.
struct Timings {
    queue_nanos: u64,
    handle_nanos: u64,
    tiers: [u64; 6],
}

/// Answer one query on this connection thread: check out a context (or
/// wait for one), then compute on it. The budget is anchored at
/// admission: the smaller of the server's
/// [`ServeOptions::request_timeout`] and the client's own
/// [`Request::Deadline`] budget, when either is present. Timings are
/// `None` for a request that was shed or panicked.
fn run_query(
    shared: &Shared,
    request: &Request,
    client_budget: Option<Duration>,
) -> (Response, Option<Timings>) {
    let budget = match (shared.request_timeout, client_budget) {
        (Some(server), Some(client)) => Some(server.min(client)),
        (server, client) => server.or(client),
    };
    let admitted = Instant::now();
    let deadline = budget.map(|b| admitted + b);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let admission = shared.checkout(deadline);
        let queue_nanos = admitted.elapsed().as_nanos() as u64;
        if matches!(admission, Err(Refused::Shed)) {
            return (Response::Overloaded, None);
        }
        shared.metrics.queue_wait.record(queue_nanos);
        let mut timings = Timings {
            queue_nanos,
            handle_nanos: 0,
            tiers: [0; 6],
        };
        let expired = || deadline_exceeded("expired while queued; the query was not run");
        let Ok(mut checkout) = admission else {
            return (expired(), Some(timings));
        };
        let fault = match &shared.chaos {
            Some(chaos) => chaos.on_job(),
            None => WorkerFault::None,
        };
        match fault {
            WorkerFault::PanicUncaught => panic!("chaos: injected panic after checkout"),
            WorkerFault::Stall(d) => thread::sleep(d),
            WorkerFault::None | WorkerFault::Panic => {}
        }
        // Deadline check before any compute: stale work is shed with the
        // engine's tier counters untouched.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return (expired(), Some(timings));
        }
        let started = Instant::now();
        if fault == WorkerFault::Panic {
            panic!("chaos: injected handler panic");
        }
        let response = answer(&shared.core, checkout.ctx(), request, deadline);
        timings.handle_nanos = started.elapsed().as_nanos() as u64;
        shared.metrics.handle.record(timings.handle_nanos);
        timings.tiers = checkout.publish().tiers.to_array().map(|n| n as u64);
        (response, Some(timings))
    }));
    let (response, timings) = outcome.unwrap_or_else(|_| {
        // The checkout guard already swapped in a fresh context; the
        // connection gets a typed Internal frame and survives.
        let response = Response::Error {
            code: ErrorCode::Internal as u16,
            message: "worker panicked while handling the request".to_string(),
        };
        (response, None)
    });
    if is_deadline_exceeded(&response) {
        shared.metrics.deadline_exceeded_total.inc();
    }
    (response, timings)
}

/// The typed shed reply for an expired budget, distinct from
/// [`Response::Overloaded`] (refused admission) and plain `Internal`
/// (something broke).
fn deadline_exceeded(context: &str) -> Response {
    Response::Error {
        code: ErrorCode::DeadlineExceeded as u16,
        message: format!("request deadline {context}"),
    }
}

fn is_deadline_exceeded(response: &Response) -> bool {
    matches!(
        response,
        Response::Error { code, .. } if *code == ErrorCode::DeadlineExceeded as u16
    )
}

fn engine_error(err: &FtbfsError) -> Response {
    Response::Error {
        code: ErrorCode::from_engine_error(err) as u16,
        message: err.to_string(),
    }
}

/// Compute the answer to one query request on a checked-out context.
///
/// `deadline` is re-checked between the fault-set groups of a batch —
/// the natural preemption points of the only request kind whose compute
/// is long enough to outlive a budget mid-flight.
fn answer(
    core: &EngineCore,
    ctx: &mut QueryContext,
    request: &Request,
    deadline: Option<Instant>,
) -> Response {
    match request {
        Request::Dist {
            source,
            target,
            faults,
        } => match ctx.dist_after_faults_from(core, *source, *target, faults) {
            Ok(d) => Response::Dist(d),
            Err(e) => engine_error(&e),
        },
        Request::Path {
            source,
            target,
            faults,
        } => match ctx.path_after_faults_from(core, *source, *target, faults) {
            Ok(p) => Response::Path(p.map(|path| WirePath {
                vertices: path.vertices().to_vec(),
                edges: path.edges().to_vec(),
            })),
            Err(e) => engine_error(&e),
        },
        Request::BatchDist { source, queries } => {
            // Validate every entry up front, in input order, mirroring the
            // per-query check sequence: the whole batch fails on the first
            // invalid entry (a partial answer vector would silently
            // misalign), with the same error the serial loop would hit.
            for (target, faults) in queries {
                if let Err(e) = core.validate_query(*source, *target, faults) {
                    return engine_error(&e);
                }
            }
            // Group targets sharing a fault set so one classification (and
            // at most one repair sweep) amortises across the whole group.
            let mut groups: BTreeMap<&ftb_graph::FaultSet, Vec<usize>> = BTreeMap::new();
            for (i, (_, faults)) in queries.iter().enumerate() {
                groups.entry(faults).or_default().push(i);
            }
            let mut out = vec![None; queries.len()];
            let mut targets = Vec::new();
            for (faults, indices) in groups {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    // A partial answer vector would misalign; the whole
                    // batch is shed, like the in-queue case.
                    return deadline_exceeded("expired between batch fault-set groups");
                }
                targets.clear();
                targets.extend(indices.iter().map(|&i| queries[i].0));
                match ctx.dist_many_after_faults_from(core, *source, &targets, faults) {
                    Ok(ds) => {
                        for (&i, d) in indices.iter().zip(ds) {
                            out[i] = d;
                        }
                    }
                    Err(e) => return engine_error(&e),
                }
            }
            Response::BatchDist(out)
        }
        Request::DistMany {
            source,
            targets,
            faults,
        } => match ctx.dist_many_after_faults_from(core, *source, targets, faults) {
            Ok(ds) => Response::DistMany(ds),
            Err(e) => engine_error(&e),
        },
        // Unwrapped before the query step; reaching here wrapped is a bug.
        Request::Deadline { .. } => Response::Error {
            code: ErrorCode::Internal as u16,
            message: "deadline wrapper reached the engine unwrapped".to_string(),
        },
        // Answered without a context; reaching here is a bug.
        Request::Hello { .. }
        | Request::Metrics { .. }
        | Request::SlowQueries
        | Request::Shutdown => Response::Error {
            code: ErrorCode::Internal as u16,
            message: "control request routed to the engine".to_string(),
        },
    }
}

/// Why a connection stopped yielding frames — kept so the reap counters
/// can tell an idle expiry from a client that simply finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CloseReason {
    /// The peer closed cleanly at a frame boundary.
    CleanEof,
    /// No bytes for the idle budget: the server reaped the connection.
    Idle,
    /// Shutdown noticed between frames.
    Shutdown,
}

/// Outcome of reading one frame under the idle/shutdown regime.
enum FrameRead {
    Frame(Vec<u8>),
    /// Clean EOF, idle expiry, or shutdown noticed between frames.
    Closed(CloseReason),
}

/// Read one frame, accumulating idle time in `idle_timeout`-bounded ticks.
///
/// Between frames, a shutdown closes the connection immediately; *inside*
/// a frame the read keeps going (the request is considered in flight) until
/// the frame completes or the idle budget runs out — so a wedged client
/// that sent half a length prefix cannot pin the thread past the timeout.
fn read_frame_idle(stream: &mut TcpStream, shared: &Shared) -> io::Result<FrameRead> {
    if let Some(chaos) = &shared.chaos {
        match chaos.on_read() {
            IoFault::Slow(d) => thread::sleep(d),
            IoFault::Reset | IoFault::PartialWrite => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "chaos: injected connection reset",
                ));
            }
            IoFault::None => {}
        }
    }
    let mut len_bytes = [0u8; 4];
    if let Some(reason) = fill_with_idle(stream, shared, &mut len_bytes, true)? {
        return Ok(FrameRead::Closed(reason));
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > crate::protocol::MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            DecodeError::FrameTooLarge { len }.to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    Ok(match fill_with_idle(stream, shared, &mut payload, false)? {
        None => FrameRead::Frame(payload),
        Some(reason) => FrameRead::Closed(reason),
    })
}

/// Fill `buf`; `Some(reason)` when the connection closed first.
fn fill_with_idle(
    stream: &mut TcpStream,
    shared: &Shared,
    buf: &mut [u8],
    at_frame_boundary: bool,
) -> io::Result<Option<CloseReason>> {
    let mut filled = 0usize;
    let mut idle = Duration::ZERO;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                // Clean close at a frame boundary; truncation inside one.
                return if at_frame_boundary && filled == 0 {
                    Ok(Some(CloseReason::CleanEof))
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    ))
                };
            }
            Ok(n) => {
                filled += n;
                idle = Duration::ZERO;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if at_frame_boundary && filled == 0 && shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(Some(CloseReason::Shutdown));
                }
                idle += read_tick(shared);
                if idle >= shared.idle_timeout {
                    return Ok(Some(CloseReason::Idle));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// Read-timeout tick: short enough to notice shutdown promptly, never
/// longer than the idle budget itself.
fn read_tick(shared: &Shared) -> Duration {
    shared.idle_timeout.min(Duration::from_millis(100))
}

/// The slow-query description of a query request: opcode, source, target
/// count, and the fault set (for `BatchDist`, whose fault sets vary per
/// entry, the first one stands in). `None` for control frames.
fn slow_query_shape(request: &Request) -> Option<(u8, ftb_graph::VertexId, u32, FaultSet)> {
    match request {
        Request::Dist { source, faults, .. } => Some((0x02, *source, 1, faults.clone())),
        Request::Path { source, faults, .. } => Some((0x03, *source, 1, faults.clone())),
        Request::BatchDist { source, queries } => Some((
            0x04,
            *source,
            queries.len() as u32,
            queries.first().map(|(_, f)| f.clone()).unwrap_or_default(),
        )),
        Request::DistMany {
            source,
            targets,
            faults,
        } => Some((0x07, *source, targets.len() as u32, faults.clone())),
        _ => None,
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(read_tick(shared)))?;
    let cell = shared.metrics.conn_cell();
    let mut handshaken = false;
    loop {
        let payload = match read_frame_idle(&mut stream, shared)? {
            FrameRead::Frame(p) => p,
            FrameRead::Closed(reason) => {
                if reason == CloseReason::Idle {
                    shared.metrics.reaped_idle.inc();
                }
                return Ok(());
            }
        };
        let decode_started = Instant::now();
        let decoded = decode_request(&payload);
        cell.decode
            .record(decode_started.elapsed().as_nanos() as u64);
        let request = match decoded {
            Ok(r) => r,
            Err(e) => {
                // A peer that sends garbage gets one typed error frame,
                // then the connection closes: framing is unrecoverable.
                shared.metrics.decode_errors_total.inc();
                shared.metrics.reaped_malformed.inc();
                let resp = Response::Error {
                    code: ErrorCode::MalformedFrame as u16,
                    message: e.to_string(),
                };
                write_response_frame(&mut stream, &encode_response(&resp), shared)?;
                return Ok(());
            }
        };
        shared.metrics.count_request(&request);
        let mut close_after_reply = false;
        let (response, done) = if !handshaken && !matches!(request, Request::Hello { .. }) {
            let resp = Response::Error {
                code: ErrorCode::ProtocolViolation as u16,
                message: "requests before Hello handshake".to_string(),
            };
            (resp, None)
        } else {
            match request {
                Request::Hello { client_version } => {
                    let resp = if client_version == PROTOCOL_VERSION {
                        handshaken = true;
                        shared.hello_ok()
                    } else {
                        close_after_reply = true;
                        Response::Error {
                            code: ErrorCode::ProtocolViolation as u16,
                            message: format!(
                                "server speaks protocol version {PROTOCOL_VERSION}, \
                                 client sent {client_version}"
                            ),
                        }
                    };
                    (resp, None)
                }
                Request::Metrics { format } => {
                    let text = match format {
                        MetricsFormat::Prometheus => shared.metrics.render_prometheus(),
                        MetricsFormat::Json => shared.metrics.render_json(),
                    };
                    (Response::MetricsText(text), None)
                }
                Request::SlowQueries => {
                    let board = shared
                        .metrics
                        .slow_log
                        .snapshot()
                        .into_iter()
                        .map(|(_, entry)| entry)
                        .collect();
                    (Response::SlowQueries(board), None)
                }
                Request::Shutdown => {
                    shared.begin_shutdown();
                    close_after_reply = true;
                    (Response::ShuttingDown, None)
                }
                work @ (Request::Dist { .. }
                | Request::Path { .. }
                | Request::BatchDist { .. }
                | Request::DistMany { .. }
                | Request::Deadline { .. }) => {
                    // Unwrap a client deadline here so the engine only ever
                    // sees bare query requests; decode already guarantees
                    // the wrapped opcode is a query.
                    let (work, client_budget) = match work {
                        Request::Deadline { budget_ms, inner } => {
                            (*inner, Some(Duration::from_millis(budget_ms as u64)))
                        }
                        bare => (bare, None),
                    };
                    let (response, timings) = run_query(shared, &work, client_budget);
                    (response, timings.map(|t| (work, t)))
                }
            }
        };
        let encode_started = Instant::now();
        let encoded = encode_response(&response);
        let encode_nanos = encode_started.elapsed().as_nanos() as u64;
        cell.encode.record(encode_nanos);
        if let Some((request, t)) = done {
            if let Some((opcode, source, targets, faults)) = slow_query_shape(&request) {
                shared.metrics.slow_log.offer(
                    t.handle_nanos,
                    SlowQueryReport {
                        opcode,
                        source,
                        targets,
                        faults,
                        queue_nanos: t.queue_nanos,
                        handle_nanos: t.handle_nanos,
                        encode_nanos,
                        tiers: t.tiers,
                    },
                );
            }
        }
        write_response_frame(&mut stream, &encoded, shared)?;
        if close_after_reply || shared.shutdown.load(Ordering::SeqCst) {
            // The in-flight request (if any) was answered above; close so
            // the accept loop's drain can complete.
            return Ok(());
        }
    }
}

/// Write a response frame, subject to injected write faults. A partial
/// write sends a strict prefix of the frame and then fails the
/// connection: the peer observes a truncated frame followed by a close —
/// an `UnexpectedEof`, never a desynced stream of valid-looking bytes.
fn write_response_frame(stream: &mut TcpStream, payload: &[u8], shared: &Shared) -> io::Result<()> {
    if let Some(chaos) = &shared.chaos {
        match chaos.on_write() {
            IoFault::PartialWrite => {
                use std::io::Write as _;
                let mut framed = Vec::with_capacity(4 + payload.len());
                framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                framed.extend_from_slice(payload);
                let cut = (framed.len() / 2).max(1);
                let _ = stream.write_all(&framed[..cut]);
                let _ = stream.flush();
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "chaos: injected partial write",
                ));
            }
            IoFault::Reset => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "chaos: injected write reset",
                ));
            }
            IoFault::Slow(d) => thread::sleep(d),
            IoFault::None => {}
        }
    }
    write_frame(stream, payload)
}

// ---------------------------------------------------------------------------
// Plaintext HTTP metrics endpoint
// ---------------------------------------------------------------------------

/// Accept loop of the `--metrics-addr` listener: enough HTTP/1.1 to let
/// `curl` and Prometheus scrape without speaking the binary protocol.
/// Routes `/metrics` (text exposition), `/metrics.json`, `/slow` (the
/// slow-query board as JSON), and `/healthz` (readiness/liveness). One
/// request per connection.
fn metrics_http_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            // Scrapes arriving after the flag, the wake-up included, are
            // dropped.
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                // Scrapes are rare and the payload is small: handle inline
                // so a scraper cannot fork unbounded threads — but
                // contained, so a panic in rendering is counted and the
                // listener survives it.
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| serve_metrics_http(stream, &shared)));
                if outcome.is_err() {
                    shared.metrics.thread_panics_metrics.inc();
                }
            }
            Err(_) => thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// The probe path's read timeout, derived from the serve options instead
/// of a hard-coded constant so tight-deadline tests don't race it: never
/// longer than the connection idle budget, but also never so small that a
/// slow scraper can't deliver its GET line.
fn http_read_timeout(shared: &Shared) -> Duration {
    shared
        .idle_timeout
        .clamp(Duration::from_millis(10), Duration::from_secs(2))
}

/// Read one HTTP request head (bounded), answer it, close.
fn serve_metrics_http(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_read_timeout(Some(http_read_timeout(shared)))?;
    stream.set_nodelay(true)?;
    // Read until the end of the request head, capped well above any sane
    // scraper's GET line.
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > 8192 {
            return write_http(&mut stream, 431, "text/plain", "header too large\n");
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                break
            }
            Err(e) => return Err(e),
        }
    }
    let line = head.split(|&b| b == b'\r').next().unwrap_or(&[]);
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return write_http(&mut stream, 405, "text/plain", "only GET is served\n");
    }
    match path {
        "/metrics" | "/" => {
            let body = shared.metrics.render_prometheus();
            write_http(&mut stream, 200, "text/plain; version=0.0.4", &body)
        }
        "/metrics.json" => {
            let body = shared.metrics.render_json();
            write_http(&mut stream, 200, "application/json", &body)
        }
        "/slow" => {
            let body = render_slow_json(shared);
            write_http(&mut stream, 200, "application/json", &body)
        }
        "/healthz" => {
            let shutting_down = shared.shutdown.load(Ordering::SeqCst);
            let accept_alive = shared.accept_live.load(Ordering::SeqCst);
            let ready = accept_alive && !shutting_down;
            let body = format!(
                "{{\"ready\":{ready},\"shutting_down\":{shutting_down},\
                 \"accept_alive\":{accept_alive},\
                 \"workers_alive\":{},\"workers_configured\":{},\
                 \"worker_panics\":{},\"worker_respawns\":{},\
                 \"accept_panics\":{},\"metrics_panics\":{}}}\n",
                shared.live_contexts(),
                shared.workers,
                shared.metrics.thread_panics_worker.get(),
                shared.metrics.worker_respawns.get(),
                shared.metrics.thread_panics_accept.get(),
                shared.metrics.thread_panics_metrics.get(),
            );
            let status = if ready { 200 } else { 503 };
            write_http(&mut stream, status, "application/json", &body)
        }
        _ => write_http(
            &mut stream,
            404,
            "text/plain",
            "routes: /metrics /metrics.json /slow /healthz\n",
        ),
    }
}

fn write_http(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    use std::io::Write as _;
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// The slow-query board as a JSON array, slowest first.
fn render_slow_json(shared: &Shared) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("[");
    for (i, (_, q)) in shared.metrics.slow_log.snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let faults: Vec<String> = q
            .faults
            .iter()
            .map(|f| match f {
                ftb_graph::Fault::Edge(e) => format!("\"e{}\"", e.0),
                ftb_graph::Fault::Vertex(v) => format!("\"v{}\"", v.0),
            })
            .collect();
        let _ = write!(
            out,
            "\n  {{\"opcode\":{},\"source\":{},\"targets\":{},\"faults\":[{}],\
             \"queue_nanos\":{},\"handle_nanos\":{},\"encode_nanos\":{},\"tiers\":{:?}}}",
            q.opcode,
            q.source.0,
            q.targets,
            faults.join(","),
            q.queue_nanos,
            q.handle_nanos,
            q.encode_nanos,
            q.tiers,
        );
    }
    out.push_str("\n]\n");
    out
}

/// Block until `server`'s port stops accepting connections, with a bound.
/// Test/CI helper for "the server actually exited" assertions. Polls
/// every 10 ms; [`wait_until_stopped_with`] makes the interval explicit.
pub fn wait_until_stopped(addr: SocketAddr, timeout: Duration) -> bool {
    wait_until_stopped_with(addr, timeout, Duration::from_millis(10))
}

/// [`wait_until_stopped`] with an explicit poll interval (clamped to at
/// least 1 ms), for tests whose shutdown windows are tighter — or much
/// looser — than the default cadence.
pub fn wait_until_stopped_with(addr: SocketAddr, timeout: Duration, poll: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    let poll = poll.max(Duration::from_millis(1));
    while Instant::now() < deadline {
        if TcpStream::connect_timeout(&addr, Duration::from_millis(50)).is_err() {
            return true;
        }
        thread::sleep(poll);
    }
    false
}

/// The symmetric startup helper: block until `addr` accepts a TCP
/// connection, with a bound. De-flakes "connect right after bind" races
/// in tests and scripts that spawn `ftb-serve` as a child process.
pub fn wait_until_ready(addr: SocketAddr, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if TcpStream::connect_timeout(&addr, Duration::from_millis(50)).is_ok() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        thread::sleep(Duration::from_millis(5));
    }
}

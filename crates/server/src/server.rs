//! The blocking TCP query server.
//!
//! One process owns one immutable [`EngineCore`] behind an `Arc`. Requests
//! flow through three kinds of threads:
//!
//! * the **accept loop** — a non-blocking `accept` polled alongside the
//!   shutdown flag, so a shutdown request never waits on a new client;
//! * one **connection thread** per client — reads frames (with an idle
//!   timeout so a wedged client cannot pin the thread forever), answers
//!   handshake/stats/shutdown inline, and submits query work to the
//!   bounded job queue with `try_send`;
//! * a fixed pool of **workers** — each owns its private
//!   [`QueryContext`] (BFS scratch + row cache) and an
//!   [`AtomicQueryStats`] slot it publishes counters to after every job.
//!
//! Admission control is the load-bearing design point: the job queue is a
//! *bounded* MPMC channel, and a full queue means the connection thread
//! replies [`Response::Overloaded`] immediately instead of buffering. The
//! server's memory is therefore constant under any offered load, and
//! clients observe overload as an explicit, countable signal rather than
//! as silently growing latency.
//!
//! [`Request::Stats`] is answered on the connection thread from the
//! workers' atomic counter cells — it stays responsive even when the
//! query queue is saturated, which is exactly when you want to read it.

use crate::metrics::{ServerMetrics, DEFAULT_SLOW_LOG_CAPACITY};
use crate::protocol::{
    decode_request, encode_response, write_frame, DecodeError, ErrorCode, MetricsFormat, Request,
    Response, SlowQueryReport, StatsReport, WirePath, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use ftb_chaos::{Chaos, IoFault, WorkerFault};
use ftb_core::{AtomicQueryStats, EngineCore, EngineObs, FtbfsError, QueryContext, QueryStats};
use ftb_graph::FaultSet;
use std::collections::BTreeMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Where the served engine came from and what it cost to get ready.
///
/// Filled in by the binary that assembled the engine (built in-process or
/// loaded from a snapshot) and reported verbatim through the
/// [`StatsReport`] provenance fields, so operators can tell a
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
    /// Worker threads draining the job queue (each with its own
    /// [`QueryContext`]). Clamped to at least 1.
    pub workers: usize,
    /// Capacity of the bounded job queue; a full queue sheds with
    /// [`Response::Overloaded`]. Clamped to at least 1.
    pub queue_depth: usize,
    /// A connection idle (no bytes) for this long is closed. Also bounds
    /// how long a half-sent frame can pin a connection thread.
    pub idle_timeout: Duration,
    /// Engine startup provenance echoed in [`StatsReport`].
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
    /// Server-side per-request budget, measured from queue admission. A
    /// request that exceeds it while still queued (or between the
    /// fault-set groups of a batch) is shed with
    /// [`ErrorCode::DeadlineExceeded`] instead of burning compute on an
    /// answer nobody is waiting for. `None` disables the budget. When a
    /// request also carries its own [`Request::Deadline`] budget, the
    /// smaller of the two wins.
    pub request_timeout: Option<Duration>,
    /// Fault injection hook threaded through the accept, IO and worker hot
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

/// One unit of queued work: a decoded query request plus the rendezvous
/// channel its answer travels back on. `enqueued` anchors the queue-wait
/// stage measurement.
struct Job {
    request: Request,
    enqueued: Instant,
    /// When (if ever) the request stops being worth answering: queue
    /// admission plus the effective budget (the smaller of the server's
    /// `--request-timeout-ms` and the client's [`Request::Deadline`]).
    deadline: Option<Instant>,
    reply: mpsc::SyncSender<JobDone>,
}

/// What a worker hands back: the answer plus the stage timings and the
/// per-tier answer counts this job produced — the raw material of the
/// queue-wait/handle histograms and the slow-query board. The request
/// rides back so the connection thread can describe the job (opcode,
/// fault set) without cloning it on the way in.
struct JobDone {
    request: Request,
    response: Response,
    queue_nanos: u64,
    handle_nanos: u64,
    tiers: [u64; 6],
}

/// State shared by the accept loop, connection threads and workers.
struct Shared {
    core: Arc<EngineCore>,
    shutdown: AtomicBool,
    idle_timeout: Duration,
    /// Per-worker stats cells; index = worker id.
    worker_stats: Vec<AtomicQueryStats>,
    accepted: AtomicU64,
    shed: AtomicU64,
    connections: AtomicU64,
    active_connections: AtomicUsize,
    provenance: Provenance,
    metrics: Arc<ServerMetrics>,
    engine_obs: Arc<EngineObs>,
    /// Server-side per-request budget (see [`ServeOptions::request_timeout`]).
    request_timeout: Option<Duration>,
    /// Fault injection hook; `None` in production.
    chaos: Option<Arc<dyn Chaos>>,
    /// Worker threads currently running their loop — maintained by the
    /// workers themselves (guard-decremented even on panic), read by
    /// `/healthz` and tests proving respawn.
    workers_alive: AtomicUsize,
    /// `false` once the accept loop has exited; `/healthz` readiness.
    accept_live: AtomicBool,
}

impl Shared {
    fn stats_report(&self) -> StatsReport {
        let mut total = QueryStats::default();
        for cell in &self.worker_stats {
            total.merge(&cell.snapshot());
        }
        StatsReport {
            queries: total.queries as u64,
            structure_bfs_runs: total.structure_bfs_runs as u64,
            augmented_bfs_runs: total.augmented_bfs_runs as u64,
            full_graph_bfs_runs: total.full_graph_bfs_runs as u64,
            cached_answers: total.cached_answers as u64,
            repaired_rows: total.repaired_rows as u64,
            restricted_repairs: total.restricted_repairs as u64,
            tier_fault_free_row: total.tiers.fault_free_row as u64,
            tier_unaffected_fast_path: total.tiers.unaffected_fast_path as u64,
            tier_batched_unaffected: total.tiers.batched_unaffected as u64,
            tier_sparse_h_bfs: total.tiers.sparse_h_bfs as u64,
            tier_augmented_bfs: total.tiers.augmented_bfs as u64,
            tier_full_graph_bfs: total.tiers.full_graph_bfs as u64,
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            engine_source: self.provenance.from_snapshot as u64,
            startup_micros: self.provenance.startup_micros,
            snapshot_format_version: self.provenance.snapshot_format_version as u64,
        }
    }

    fn hello_ok(&self, negotiated: u16) -> Response {
        let graph = self.core.graph();
        Response::HelloOk {
            version: negotiated,
            fingerprint: graph.fingerprint(),
            num_vertices: graph.num_vertices() as u32,
            num_edges: graph.num_edges() as u32,
            sources: self.core.sources().to_vec(),
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
    supervisor_handle: JoinHandle<()>,
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
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let workers = options.workers.max(1);
        ftb_obs::set_sampling(options.sampling);
        let metrics = ServerMetrics::new(options.slow_log_capacity);
        let engine_obs = EngineObs::register(metrics.registry());
        // Preprocessing provenance as scrape-time gauges: how this core
        // came to exist, phase by phase. An in-process build also exports
        // the structure's construction phases from its `BuildStats`; a
        // snapshot-restored server shows a single `snapshot_load` phase.
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
            worker_stats: (0..workers).map(|_| AtomicQueryStats::new()).collect(),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            active_connections: AtomicUsize::new(0),
            provenance: options.provenance,
            metrics,
            engine_obs,
            request_timeout: options.request_timeout,
            chaos: options.chaos.clone(),
            workers_alive: AtomicUsize::new(0),
            accept_live: AtomicBool::new(true),
        });

        let (job_tx, job_rx) = bounded::<Job>(options.queue_depth.max(1));
        let worker_handles: Vec<Option<JoinHandle<()>>> = (0..workers)
            .map(|slot| spawn_worker(&shared, job_rx.clone(), slot).map(Some))
            .collect::<io::Result<_>>()?;
        // The supervisor keeps a receiver so it can respawn crashed workers
        // onto the same queue; receivers do not keep the channel alive, so
        // the drain (all senders dropped) still terminates the workers.
        let supervisor_shared = Arc::clone(&shared);
        let supervisor_handle = thread::Builder::new()
            .name("ftb-supervisor".to_string())
            .spawn(move || supervisor_loop(supervisor_shared, job_rx, worker_handles))?;

        let accept_shared = Arc::clone(&shared);
        let accept_handle = thread::Builder::new()
            .name("ftb-accept".to_string())
            .spawn(move || {
                accept_loop(listener, accept_shared, job_tx);
            })?;

        let (metrics_local_addr, metrics_handle) = match options.metrics_addr {
            None => (None, None),
            Some(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                let local = listener.local_addr()?;
                let http_shared = Arc::clone(&shared);
                let handle = thread::Builder::new()
                    .name("ftb-metrics-http".to_string())
                    .spawn(move || metrics_http_loop(listener, http_shared))?;
                (Some(local), Some(handle))
            }
        };

        Ok(Server {
            local_addr,
            metrics_local_addr,
            shared,
            accept_handle,
            supervisor_handle,
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

    /// Request a graceful shutdown: stop accepting, let in-flight requests
    /// complete, drain the queue, stop the workers.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// `true` once a shutdown (local or wire-requested) has been triggered.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// The same counters [`Request::Stats`] reports, read in-process.
    pub fn stats(&self) -> StatsReport {
        self.shared.stats_report()
    }

    /// Worker threads currently running (the supervisor respawns crashed
    /// ones, so this converges back to [`Server::workers_configured`]
    /// after a panic).
    pub fn workers_alive(&self) -> usize {
        self.shared.workers_alive.load(Ordering::SeqCst)
    }

    /// The worker pool size the server was built with.
    pub fn workers_configured(&self) -> usize {
        self.shared.worker_stats.len()
    }

    /// Block until the server has fully stopped (all connections closed,
    /// queue drained, workers joined). Only returns after a shutdown has
    /// been triggered by [`Server::shutdown`] or a wire request.
    ///
    /// Panics inside the serving threads are contained *before* this
    /// point (counted in `ftb_thread_panics_total`, loops re-entered,
    /// workers respawned); an error here means containment itself failed.
    pub fn join(self) -> io::Result<()> {
        self.accept_handle
            .join()
            .map_err(|_| io::Error::other("server accept thread panicked"))?;
        self.supervisor_handle
            .join()
            .map_err(|_| io::Error::other("server supervisor thread panicked"))?;
        if let Some(handle) = self.metrics_handle {
            handle
                .join()
                .map_err(|_| io::Error::other("metrics thread panicked"))?;
        }
        Ok(())
    }
}

/// Poll interval of the accept loop: the latency bound on noticing the
/// shutdown flag with no client activity.
const ACCEPT_TICK: Duration = Duration::from_millis(10);

/// Poll interval of the worker supervisor.
const SUPERVISOR_TICK: Duration = Duration::from_millis(5);

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, job_tx: Sender<Job>) {
    // Panic containment: a panic anywhere in the polling loop is counted
    // and the loop re-entered, so one bad connection setup cannot silently
    // kill the accept thread — the old behaviour was an opaque io::Error
    // surfacing only at `Server::join`.
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            accept_requests(&listener, &shared, &job_tx)
        }));
        match outcome {
            Ok(()) => break,
            Err(_) => {
                shared.metrics.thread_panics_accept.inc();
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
    shared.accept_live.store(false, Ordering::SeqCst);
    drop(listener);
    // Graceful drain: connection threads notice the flag after their
    // current request (or their next idle tick) and exit on their own.
    while shared.active_connections.load(Ordering::SeqCst) > 0 {
        thread::sleep(Duration::from_millis(2));
    }
    // Last sender gone → workers drain the remaining queue and stop; the
    // supervisor joins them and exits once every slot is done.
    drop(job_tx);
}

/// The accept polling loop proper; returns on shutdown.
fn accept_requests(listener: &TcpListener, shared: &Arc<Shared>, job_tx: &Sender<Job>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if let Some(chaos) = &shared.chaos {
                    if chaos.on_accept() {
                        // Injected accept failure: drop the connection the
                        // way an aborted handshake would.
                        shared.metrics.accept_errors_total.inc();
                        drop(stream);
                        continue;
                    }
                }
                let conn_shared = Arc::clone(shared);
                let jobs = job_tx.clone();
                shared.connections.fetch_add(1, Ordering::Relaxed);
                shared.metrics.connections_total.inc();
                shared.active_connections.fetch_add(1, Ordering::SeqCst);
                shared.metrics.connections_active.inc();
                let spawned =
                    thread::Builder::new()
                        .name("ftb-conn".to_string())
                        .spawn(move || {
                            if serve_connection(stream, &conn_shared, &jobs).is_err() {
                                conn_shared.metrics.reaped_io_error.inc();
                            }
                            conn_shared
                                .active_connections
                                .fetch_sub(1, Ordering::SeqCst);
                            conn_shared.metrics.connections_active.dec();
                        });
                if spawned.is_err() {
                    // Thread spawn failed (resource exhaustion): the guard
                    // above never ran, undo the active count and drop the
                    // stream, refusing the connection.
                    shared.active_connections.fetch_sub(1, Ordering::SeqCst);
                    shared.metrics.connections_active.dec();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_TICK),
            // Transient accept errors (aborted handshake etc.): counted,
            // survived.
            Err(_) => {
                shared.metrics.accept_errors_total.inc();
                thread::sleep(ACCEPT_TICK);
            }
        }
    }
}

fn spawn_worker(
    shared: &Arc<Shared>,
    jobs: Receiver<Job>,
    slot: usize,
) -> io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    thread::Builder::new()
        .name(format!("ftb-worker-{slot}"))
        .spawn(move || worker_loop(shared, jobs, slot))
}

/// Watches the worker pool: a slot whose thread exits by panic (an
/// *uncaught* panic — handler panics are caught in [`worker_loop`]) is
/// counted and respawned with a fresh [`QueryContext`] on the same queue.
/// Exits once every slot has drained cleanly at shutdown.
fn supervisor_loop(
    shared: Arc<Shared>,
    jobs: Receiver<Job>,
    mut handles: Vec<Option<JoinHandle<()>>>,
) {
    loop {
        let mut all_done = true;
        for (slot, entry) in handles.iter_mut().enumerate() {
            if entry.as_ref().is_some_and(|h| h.is_finished()) {
                let handle = entry.take().expect("slot checked non-empty");
                if handle.join().is_err() {
                    shared.metrics.thread_panics_worker.inc();
                    shared.metrics.worker_respawns.inc();
                    *entry = spawn_worker(&shared, jobs.clone(), slot).ok();
                }
            }
            if entry.is_some() {
                all_done = false;
            }
        }
        if all_done {
            return;
        }
        thread::sleep(SUPERVISOR_TICK);
    }
}

/// Decrements `workers_alive` when the worker exits — by clean drain or
/// by uncaught panic alike, so `/healthz` never overcounts.
struct WorkerAlive(Arc<Shared>);

impl Drop for WorkerAlive {
    fn drop(&mut self) {
        self.0.workers_alive.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker_loop(shared: Arc<Shared>, jobs: Receiver<Job>, slot: usize) {
    shared.workers_alive.fetch_add(1, Ordering::SeqCst);
    let _alive = WorkerAlive(Arc::clone(&shared));
    // The slot's already-published totals (from a predecessor incarnation,
    // when this is a respawn) are the base the fresh context accumulates
    // on, so the merged stats stay monotone across panics and respawns.
    let mut base: QueryStats = shared.worker_stats[slot].snapshot();
    'context: loop {
        let mut ctx = shared.core.new_context();
        ctx.attach_obs(Arc::clone(&shared.engine_obs));
        while let Ok(job) = jobs.recv() {
            shared.metrics.queue_depth.dec();
            let fault = match &shared.chaos {
                Some(chaos) => chaos.on_job(),
                None => WorkerFault::None,
            };
            match fault {
                // Outside any catch: kills this thread, exercising the
                // supervisor (the connection sees the dropped reply sender
                // as a typed Internal frame).
                WorkerFault::PanicUncaught => panic!("chaos: injected uncaught worker panic"),
                WorkerFault::Stall(d) => thread::sleep(d),
                WorkerFault::None | WorkerFault::Panic => {}
            }
            let queue_nanos = job.enqueued.elapsed().as_nanos() as u64;
            shared.metrics.queue_wait.record(queue_nanos);
            // Deadline check at dequeue: stale work is shed before any
            // compute, so the engine's tier counters are untouched.
            if job.deadline.is_some_and(|d| Instant::now() >= d) {
                shared.metrics.deadline_exceeded_total.inc();
                let _ = job.reply.send(JobDone {
                    request: job.request,
                    response: deadline_exceeded("expired while queued; the query was not run"),
                    queue_nanos,
                    handle_nanos: 0,
                    tiers: [0; 6],
                });
                continue;
            }
            let before = ctx.stats().tiers;
            let started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if matches!(fault, WorkerFault::Panic) {
                    panic!("chaos: injected handler panic");
                }
                answer(&shared.core, &mut ctx, &job.request, job.deadline)
            }));
            let handle_nanos = started.elapsed().as_nanos() as u64;
            match outcome {
                Ok(response) => {
                    shared.metrics.handle.record(handle_nanos);
                    if is_deadline_exceeded(&response) {
                        shared.metrics.deadline_exceeded_total.inc();
                    }
                    let after = ctx.stats().tiers;
                    let tiers = [
                        (after.fault_free_row - before.fault_free_row) as u64,
                        (after.unaffected_fast_path - before.unaffected_fast_path) as u64,
                        (after.batched_unaffected - before.batched_unaffected) as u64,
                        (after.sparse_h_bfs - before.sparse_h_bfs) as u64,
                        (after.augmented_bfs - before.augmented_bfs) as u64,
                        (after.full_graph_bfs - before.full_graph_bfs) as u64,
                    ];
                    let mut published = base;
                    published.merge(&ctx.stats());
                    shared.worker_stats[slot].store(&published);
                    // A send failure means the connection died while its
                    // request was queued; the answer is simply dropped.
                    let _ = job.reply.send(JobDone {
                        request: job.request,
                        response,
                        queue_nanos,
                        handle_nanos,
                        tiers,
                    });
                }
                Err(_) => {
                    // The handler panicked mid-request: the connection gets
                    // a typed Internal frame (the connection survives), and
                    // this worker discards its possibly-inconsistent
                    // context for a fresh one — an in-place respawn.
                    shared.metrics.thread_panics_worker.inc();
                    shared.metrics.worker_respawns.inc();
                    let _ = job.reply.send(JobDone {
                        request: job.request,
                        response: Response::Error {
                            code: ErrorCode::Internal as u16,
                            message: "worker panicked while handling the request".to_string(),
                        },
                        queue_nanos,
                        handle_nanos,
                        tiers: [0; 6],
                    });
                    base.merge(&ctx.stats());
                    shared.worker_stats[slot].store(&base);
                    continue 'context;
                }
            }
        }
        return;
    }
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

/// Compute the answer to one query request on the worker's context.
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
        // Unwrapped by the connection thread before submission; reaching a
        // worker still wrapped is a bug.
        Request::Deadline { .. } => Response::Error {
            code: ErrorCode::Internal as u16,
            message: "deadline wrapper routed to a worker unwrapped".to_string(),
        },
        // Routed inline by the connection thread; reaching a worker is a bug.
        Request::Hello { .. }
        | Request::Stats
        | Request::Metrics { .. }
        | Request::SlowQueries
        | Request::Shutdown => Response::Error {
            code: ErrorCode::Internal as u16,
            message: "control request routed to a worker".to_string(),
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
    match fill_with_idle(stream, shared, &mut len_bytes, true)? {
        FillOutcome::Done => {}
        FillOutcome::Closed(reason) => return Ok(FrameRead::Closed(reason)),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > crate::protocol::MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            DecodeError::FrameTooLarge { len }.to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    match fill_with_idle(stream, shared, &mut payload, false)? {
        FillOutcome::Done => Ok(FrameRead::Frame(payload)),
        FillOutcome::Closed(reason) => Ok(FrameRead::Closed(reason)),
    }
}

enum FillOutcome {
    Done,
    Closed(CloseReason),
}

fn fill_with_idle(
    stream: &mut TcpStream,
    shared: &Shared,
    buf: &mut [u8],
    at_frame_boundary: bool,
) -> io::Result<FillOutcome> {
    let mut filled = 0usize;
    let mut idle = Duration::ZERO;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                // Clean close at a frame boundary; truncation inside one.
                return if at_frame_boundary && filled == 0 {
                    Ok(FillOutcome::Closed(CloseReason::CleanEof))
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
                    return Ok(FillOutcome::Closed(CloseReason::Shutdown));
                }
                idle += read_tick(shared);
                if idle >= shared.idle_timeout {
                    return Ok(FillOutcome::Closed(CloseReason::Idle));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(FillOutcome::Done)
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

fn serve_connection(mut stream: TcpStream, shared: &Shared, jobs: &Sender<Job>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(read_tick(shared)))?;
    let cell = shared.metrics.conn_cell();
    let mut session_version: Option<u16> = None;
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
        // Version-gate before routing: a session that has not negotiated
        // the frame's protocol level gets a typed violation, whatever the
        // frame is.
        let gate = match session_version {
            None if !matches!(request, Request::Hello { .. }) => Some(Response::Error {
                code: ErrorCode::ProtocolViolation as u16,
                message: "requests before Hello handshake".to_string(),
            }),
            Some(v) if v < request.min_version() => Some(Response::Error {
                code: ErrorCode::ProtocolViolation as u16,
                message: format!(
                    "request needs protocol version {}, session negotiated {v}",
                    request.min_version()
                ),
            }),
            _ => None,
        };
        let (response, done) = if let Some(resp) = gate {
            (resp, None)
        } else {
            match request {
                Request::Hello { client_version } => {
                    let resp =
                        if (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&client_version) {
                            // Speak the client's (older or equal) version for
                            // the rest of the session.
                            session_version = Some(client_version);
                            shared.hello_ok(client_version)
                        } else {
                            close_after_reply = true;
                            Response::Error {
                                code: ErrorCode::ProtocolViolation as u16,
                                message: format!(
                                    "server speaks protocol versions \
                                 {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION}, \
                                 client sent {client_version}"
                                ),
                            }
                        };
                    (resp, None)
                }
                Request::Stats => (Response::Stats(shared.stats_report()), None),
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
                    shared.shutdown.store(true, Ordering::SeqCst);
                    close_after_reply = true;
                    (Response::ShuttingDown, None)
                }
                work @ (Request::Dist { .. }
                | Request::Path { .. }
                | Request::BatchDist { .. }
                | Request::DistMany { .. }
                | Request::Deadline { .. }) => {
                    // Unwrap a client deadline here so workers only ever
                    // see bare query requests; decode already guarantees
                    // the wrapped opcode is a query.
                    let (work, client_budget) = match work {
                        Request::Deadline { budget_ms, inner } => {
                            (*inner, Some(Duration::from_millis(budget_ms as u64)))
                        }
                        bare => (bare, None),
                    };
                    match submit(shared, jobs, work, client_budget) {
                        Submitted::Answered(JobDone {
                            request,
                            response,
                            queue_nanos,
                            handle_nanos,
                            tiers,
                        }) => (response, Some((request, queue_nanos, handle_nanos, tiers))),
                        Submitted::Refused(resp) => (resp, None),
                    }
                }
            }
        };
        let encode_started = Instant::now();
        let encoded = encode_response(&response);
        let encode_nanos = encode_started.elapsed().as_nanos() as u64;
        cell.encode.record(encode_nanos);
        if let Some((request, queue_nanos, handle_nanos, tiers)) = done {
            if let Some((opcode, source, targets, faults)) = slow_query_shape(&request) {
                shared.metrics.slow_log.offer(
                    handle_nanos,
                    SlowQueryReport {
                        opcode,
                        source,
                        targets,
                        faults,
                        queue_nanos,
                        handle_nanos,
                        encode_nanos,
                        tiers,
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

/// What admission control produced: a worker's finished job (with stage
/// timings for the slow-query board) or a refusal answered inline.
enum Submitted {
    Answered(JobDone),
    Refused(Response),
}

/// Admission control: offer the job to the bounded queue without blocking.
///
/// The job's deadline is anchored at admission: the smaller of the
/// server's [`ServeOptions::request_timeout`] and the client's own
/// [`Request::Deadline`] budget, when either is present.
fn submit(
    shared: &Shared,
    jobs: &Sender<Job>,
    request: Request,
    client_budget: Option<Duration>,
) -> Submitted {
    let budget = match (shared.request_timeout, client_budget) {
        (Some(server), Some(client)) => Some(server.min(client)),
        (server, client) => server.or(client),
    };
    let enqueued = Instant::now();
    let deadline = budget.map(|b| enqueued + b);
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    match jobs.try_send(Job {
        request,
        enqueued,
        deadline,
        reply: reply_tx,
    }) {
        Ok(()) => {
            shared.accepted.fetch_add(1, Ordering::Relaxed);
            shared.metrics.queue_depth.inc();
            // The worker holds the only sender; RecvError means it dropped
            // the job — during a shutdown drain that is the expected path,
            // otherwise the worker crashed hard (its respawn is already
            // under way) and the client gets a typed, retryable frame.
            match reply_rx.recv() {
                Ok(done) => Submitted::Answered(done),
                Err(_) => {
                    let message = if shared.shutdown.load(Ordering::SeqCst) {
                        "server shut down before answering"
                    } else {
                        "worker crashed while handling the request; a fresh worker is starting"
                    };
                    Submitted::Refused(Response::Error {
                        code: ErrorCode::Internal as u16,
                        message: message.to_string(),
                    })
                }
            }
        }
        Err(TrySendError::Full(_)) => {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            shared.metrics.shed_total.inc();
            Submitted::Refused(Response::Overloaded)
        }
        Err(TrySendError::Disconnected(_)) => Submitted::Refused(Response::Error {
            code: ErrorCode::Internal as u16,
            message: "server is shutting down".to_string(),
        }),
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
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
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
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_TICK),
            Err(_) => thread::sleep(ACCEPT_TICK),
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
                shared.workers_alive.load(Ordering::SeqCst),
                shared.worker_stats.len(),
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

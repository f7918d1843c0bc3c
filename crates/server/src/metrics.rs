//! The server's metric surface: one [`Registry`] holding every counter the
//! server keeps — request, admission and connection counters, the
//! engine's [`EngineObs`] families (query counters by name and by tier,
//! tier latency, stage timings), connection/queue gauges, per-stage
//! latency histograms — and the slow-query board. There is no second copy
//! of any of them: the `Metrics` wire frame and the HTTP listener render
//! this registry, and in-process readers use the handles below.
//!
//! # Where each number comes from
//!
//! * **Workers** record queue wait (enqueue → pickup) and handle time
//!   into shared registry histograms, and publish each job's engine
//!   counter delta through [`EngineObs::publish`] — lock-free relaxed
//!   atomics, safe on the job path.
//! * **Connection threads** bump the request, admission and shed counters
//!   and get a private [`ConnCell`] each: decode and encode time land in
//!   per-thread histogram cells, not shared series. The cells are merged
//!   into the registry snapshot at scrape time via
//!   [`Registry::histogram_fn`], live cells and retired (closed
//!   connection) totals alike, so totals are monotone across connection
//!   churn.
//! * **Reap events** (idle expiry, malformed frames, I/O errors) are
//!   labelled counters bumped by the connection thread that observed the
//!   reason.
//!
//! The same registry renders both exposition formats: Prometheus text for
//! scrapers (the `--metrics-addr` listener and the `Metrics` wire frame)
//! and JSON for `ftb-loadgen --metrics-out`.

use crate::protocol::{Request, SlowQueryReport};
use ftb_core::EngineObs;
use ftb_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, SlowLog};
use std::sync::{Arc, Mutex};

/// Default capacity of the slow-query board.
pub const DEFAULT_SLOW_LOG_CAPACITY: usize = 32;

/// Shared per-connection histogram cells plus the folded totals of
/// connections that already closed. `merged()` is the scrape-time view.
struct CellSet {
    /// Cells of currently-open connections.
    live: Mutex<Vec<Arc<Histogram>>>,
    /// Folded totals of closed connections, so counts stay monotone.
    retired: Mutex<HistogramSnapshot>,
}

impl CellSet {
    fn new() -> Arc<CellSet> {
        Arc::new(CellSet {
            live: Mutex::new(Vec::new()),
            retired: Mutex::new(HistogramSnapshot::empty()),
        })
    }

    fn open(self: &Arc<Self>) -> Arc<Histogram> {
        let cell = Arc::new(Histogram::new());
        self.live
            .lock()
            .expect("cell set poisoned")
            .push(Arc::clone(&cell));
        cell
    }

    fn close(&self, cell: &Arc<Histogram>) {
        let mut live = self.live.lock().expect("cell set poisoned");
        if let Some(i) = live.iter().position(|c| Arc::ptr_eq(c, cell)) {
            let cell = live.swap_remove(i);
            drop(live);
            self.retired
                .lock()
                .expect("cell set poisoned")
                .merge(&cell.snapshot());
        }
    }

    fn merged(&self) -> HistogramSnapshot {
        let mut out = self.retired.lock().expect("cell set poisoned").clone();
        for cell in self.live.lock().expect("cell set poisoned").iter() {
            out.merge(&cell.snapshot());
        }
        out
    }
}

/// One connection thread's private metric cells. Created per connection
/// via [`ServerMetrics::conn_cell`]; dropping it folds the cells into the
/// retired totals so nothing is lost when the connection closes.
pub struct ConnCell {
    /// Nanoseconds spent decoding request frames on this connection.
    pub decode: Arc<Histogram>,
    /// Nanoseconds spent encoding response frames on this connection.
    pub encode: Arc<Histogram>,
    decode_set: Arc<CellSet>,
    encode_set: Arc<CellSet>,
}

impl Drop for ConnCell {
    fn drop(&mut self) {
        self.decode_set.close(&self.decode);
        self.encode_set.close(&self.encode);
    }
}

/// The server-layer metric handles, all registered in one [`Registry`]
/// together with the engine's [`EngineObs`] families.
pub struct ServerMetrics {
    registry: Registry,

    /// The engine's families: `ftb_engine_*_total`,
    /// `ftb_query_answers_total{tier=...}`, tier latency and stage timing.
    pub engine: Arc<EngineObs>,

    /// `ftb_requests_total{op=...}` — one counter per request kind.
    pub req_hello: Arc<Counter>,
    /// See [`ServerMetrics::req_hello`].
    pub req_dist: Arc<Counter>,
    /// See [`ServerMetrics::req_hello`].
    pub req_path: Arc<Counter>,
    /// See [`ServerMetrics::req_hello`].
    pub req_batch_dist: Arc<Counter>,
    /// See [`ServerMetrics::req_hello`].
    pub req_dist_many: Arc<Counter>,
    /// See [`ServerMetrics::req_hello`].
    pub req_metrics: Arc<Counter>,
    /// See [`ServerMetrics::req_hello`].
    pub req_slow_queries: Arc<Counter>,
    /// See [`ServerMetrics::req_hello`].
    pub req_shutdown: Arc<Counter>,

    /// `ftb_requests_admitted_total` — query requests admitted to the
    /// bounded queue.
    pub admitted_total: Arc<Counter>,
    /// `ftb_requests_shed_total` — answered `Overloaded` (queue full).
    pub shed_total: Arc<Counter>,
    /// `ftb_requests_deadline_exceeded_total` — shed with
    /// `DeadlineExceeded` before compute (expired in queue or mid-batch).
    pub deadline_exceeded_total: Arc<Counter>,
    /// `ftb_thread_panics_total{thread="accept"}`.
    pub thread_panics_accept: Arc<Counter>,
    /// `ftb_thread_panics_total{thread="worker"}` — caught in the request
    /// handler or fatal to the worker thread alike.
    pub thread_panics_worker: Arc<Counter>,
    /// `ftb_thread_panics_total{thread="metrics"}`.
    pub thread_panics_metrics: Arc<Counter>,
    /// `ftb_worker_respawns_total` — workers given a fresh `QueryContext`
    /// after a panic (in-place after a caught handler panic, or a full
    /// thread respawn by the supervisor).
    pub worker_respawns: Arc<Counter>,
    /// `ftb_accept_errors_total` — failed `accept` calls (transient OS
    /// errors and injected faults); the loop keeps serving through them.
    pub accept_errors_total: Arc<Counter>,
    /// `ftb_connections_total` — connections accepted over the lifetime.
    pub connections_total: Arc<Counter>,
    /// `ftb_decode_errors_total` — frames that failed to decode.
    pub decode_errors_total: Arc<Counter>,
    /// `ftb_connections_reaped_total{reason="idle"}`.
    pub reaped_idle: Arc<Counter>,
    /// `ftb_connections_reaped_total{reason="malformed"}`.
    pub reaped_malformed: Arc<Counter>,
    /// `ftb_connections_reaped_total{reason="io_error"}`.
    pub reaped_io_error: Arc<Counter>,

    /// `ftb_connections_active` — currently-open connections.
    pub connections_active: Arc<Gauge>,
    /// `ftb_queue_depth` — jobs admitted and not yet picked up.
    pub queue_depth: Arc<Gauge>,

    /// `ftb_request_queue_wait_seconds` — enqueue → worker pickup.
    pub queue_wait: Arc<Histogram>,
    /// `ftb_request_handle_seconds` — worker compute time per job.
    pub handle: Arc<Histogram>,

    decode_cells: Arc<CellSet>,
    encode_cells: Arc<CellSet>,

    /// The slow-query board, ranked by handle nanoseconds.
    pub slow_log: SlowLog<SlowQueryReport>,
}

impl ServerMetrics {
    /// Build the full metric set in a fresh registry.
    pub fn new(slow_log_capacity: usize) -> Arc<ServerMetrics> {
        let r = Registry::new();
        let req_help = "Requests received, by decoded request kind";
        let req = |op: &str| r.counter("ftb_requests_total", req_help, &[("op", op)]);
        let reaped_help = "Connections closed by the server, by reason";
        let reaped = |why: &str| {
            r.counter(
                "ftb_connections_reaped_total",
                reaped_help,
                &[("reason", why)],
            )
        };

        let panic_help = "Server threads that panicked, by thread role";
        let panics =
            |thread: &str| r.counter("ftb_thread_panics_total", panic_help, &[("thread", thread)]);

        let decode_cells = CellSet::new();
        let encode_cells = CellSet::new();
        let decode_view = Arc::clone(&decode_cells);
        let encode_view = Arc::clone(&encode_cells);
        r.histogram_fn(
            "ftb_connection_decode_seconds",
            "Request-frame decode time, merged from per-connection cells",
            &[],
            Box::new(move || decode_view.merged()),
        );
        r.histogram_fn(
            "ftb_response_encode_seconds",
            "Response-frame encode time, merged from per-connection cells",
            &[],
            Box::new(move || encode_view.merged()),
        );

        Arc::new(ServerMetrics {
            engine: EngineObs::register(&r),
            req_hello: req("hello"),
            req_dist: req("dist"),
            req_path: req("path"),
            req_batch_dist: req("batch_dist"),
            req_dist_many: req("dist_many"),
            req_metrics: req("metrics"),
            req_slow_queries: req("slow_queries"),
            req_shutdown: req("shutdown"),
            admitted_total: r.counter(
                "ftb_requests_admitted_total",
                "Query requests admitted to the bounded queue",
                &[],
            ),
            shed_total: r.counter(
                "ftb_requests_shed_total",
                "Requests shed with Overloaded (bounded queue full)",
                &[],
            ),
            deadline_exceeded_total: r.counter(
                "ftb_requests_deadline_exceeded_total",
                "Requests shed with DeadlineExceeded before compute",
                &[],
            ),
            thread_panics_accept: panics("accept"),
            thread_panics_worker: panics("worker"),
            thread_panics_metrics: panics("metrics"),
            worker_respawns: r.counter(
                "ftb_worker_respawns_total",
                "Workers respawned with a fresh QueryContext after a panic",
                &[],
            ),
            accept_errors_total: r.counter(
                "ftb_accept_errors_total",
                "Failed accept calls survived by the accept loop",
                &[],
            ),
            connections_total: r.counter(
                "ftb_connections_total",
                "Connections accepted over the server's lifetime",
                &[],
            ),
            decode_errors_total: r.counter(
                "ftb_decode_errors_total",
                "Request frames that failed to decode",
                &[],
            ),
            reaped_idle: reaped("idle"),
            reaped_malformed: reaped("malformed"),
            reaped_io_error: reaped("io_error"),
            connections_active: r.gauge(
                "ftb_connections_active",
                "Currently-open client connections",
                &[],
            ),
            queue_depth: r.gauge(
                "ftb_queue_depth",
                "Jobs admitted to the bounded queue and not yet picked up",
                &[],
            ),
            queue_wait: r.histogram(
                "ftb_request_queue_wait_seconds",
                "Time from queue admission to worker pickup",
                &[],
            ),
            handle: r.histogram(
                "ftb_request_handle_seconds",
                "Worker compute time per job",
                &[],
            ),
            decode_cells,
            encode_cells,
            slow_log: SlowLog::new(slow_log_capacity),
            registry: r,
        })
    }

    /// The registry everything is registered in — for adding more families
    /// (build-phase and provenance gauges) and for rendering.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Open a fresh per-connection cell pair. Drop it when the connection
    /// closes; its totals are folded into the retired accumulator.
    pub fn conn_cell(&self) -> ConnCell {
        ConnCell {
            decode: self.decode_cells.open(),
            encode: self.encode_cells.open(),
            decode_set: Arc::clone(&self.decode_cells),
            encode_set: Arc::clone(&self.encode_cells),
        }
    }

    /// Bump the `ftb_requests_total{op=...}` counter for `request`.
    pub fn count_request(&self, request: &Request) {
        match request {
            Request::Hello { .. } => self.req_hello.inc(),
            Request::Dist { .. } => self.req_dist.inc(),
            Request::Path { .. } => self.req_path.inc(),
            Request::BatchDist { .. } => self.req_batch_dist.inc(),
            Request::DistMany { .. } => self.req_dist_many.inc(),
            Request::Metrics { .. } => self.req_metrics.inc(),
            Request::SlowQueries => self.req_slow_queries.inc(),
            Request::Shutdown => self.req_shutdown.inc(),
            // A deadline wrapper is counted as the request it carries.
            Request::Deadline { inner, .. } => self.count_request(inner),
        }
    }

    /// Render the Prometheus text exposition payload.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Render the JSON exposition payload.
    pub fn render_json(&self) -> String {
        self.registry.render_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_cells_survive_connection_close() {
        let m = ServerMetrics::new(4);
        {
            let cell = m.conn_cell();
            cell.decode.record(1_000);
            cell.encode.record(2_000);
            let text = m.render_prometheus();
            assert!(text.contains("ftb_connection_decode_seconds_count 1"));
        } // connection closes, cell retires
        let cell2 = m.conn_cell();
        cell2.decode.record(3_000);
        let text = m.render_prometheus();
        assert!(
            text.contains("ftb_connection_decode_seconds_count 2"),
            "retired + live cells merge: {text}"
        );
        assert!(text.contains("ftb_response_encode_seconds_count 1"));
    }

    #[test]
    fn request_counters_by_op() {
        let m = ServerMetrics::new(4);
        let metrics = Request::Metrics {
            format: crate::protocol::MetricsFormat::Json,
        };
        m.count_request(&metrics);
        m.count_request(&metrics);
        m.count_request(&Request::SlowQueries);
        assert_eq!(m.req_metrics.get(), 2);
        assert_eq!(m.req_slow_queries.get(), 1);
        let text = m.render_prometheus();
        assert!(text.contains("ftb_requests_total{op=\"metrics\"} 2"));
    }
}

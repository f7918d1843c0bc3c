//! Failure-domain tests for the serving tier: a worker panic is a typed
//! reply and a respawn, never a dead server; an expired deadline is shed
//! before compute; a reset connection is something the retry policy heals
//! through; and the health endpoint tells the truth about all of it.

use ftb_chaos::{Chaos, IoFault, WorkerFault};
use ftb_core::EngineOptions;
use ftb_graph::{FaultSet, VertexId};
use ftb_server::protocol::{ErrorCode, Request, Response};
use ftb_server::{
    wait_until_ready, wait_until_stopped_with, Client, EngineSpec, RetryPolicy, RetryStats,
    ServeOptions, Server,
};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn spec() -> EngineSpec {
    EngineSpec {
        n: 150,
        seed: 23,
        ..EngineSpec::default()
    }
}

fn bind(options: ServeOptions) -> (Server, EngineSpec) {
    let spec = spec();
    let graph = spec.graph();
    let core = spec
        .build_core(&graph, EngineOptions::new().serial())
        .expect("spec builds");
    let server = Server::bind("127.0.0.1:0", core, options).expect("ephemeral bind");
    assert!(
        wait_until_ready(server.local_addr(), Duration::from_secs(5)),
        "server should accept connections shortly after bind"
    );
    (server, spec)
}

/// Injects one worker fault of the given flavour on the Nth job pickup,
/// then goes quiet. Everything else is a no-op.
struct NthJobFault {
    fire_on: u64,
    flavour: WorkerFault,
    seen: AtomicU64,
}

impl NthJobFault {
    fn new(fire_on: u64, flavour: WorkerFault) -> Self {
        NthJobFault {
            fire_on,
            flavour,
            seen: AtomicU64::new(0),
        }
    }
}

impl Chaos for NthJobFault {
    fn on_job(&self) -> WorkerFault {
        if self.seen.fetch_add(1, Ordering::Relaxed) + 1 == self.fire_on {
            self.flavour
        } else {
            WorkerFault::None
        }
    }
}

/// Resets the first read, then behaves.
struct ResetFirstRead {
    fired: AtomicU64,
}

impl Chaos for ResetFirstRead {
    fn on_read(&self) -> IoFault {
        if self.fired.fetch_add(1, Ordering::Relaxed) == 0 {
            IoFault::Reset
        } else {
            IoFault::None
        }
    }
}

fn dist_request(spec: &EngineSpec) -> Request {
    Request::Dist {
        source: spec.source(),
        target: VertexId::new(5),
        faults: FaultSet::new(),
    }
}

#[test]
fn caught_worker_panic_is_a_typed_reply_and_the_connection_survives() {
    // The very first job pickup panics *inside* the handler.
    let chaos = Arc::new(NthJobFault::new(1, WorkerFault::Panic));
    let (server, spec) = bind(ServeOptions {
        workers: 1,
        chaos: Some(chaos),
        ..ServeOptions::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");

    match client.request(&dist_request(&spec)).expect("io survives") {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Internal as u16);
            assert!(
                message.contains("panicked"),
                "message should say what happened, got {message:?}"
            );
        }
        other => panic!("expected Internal error frame, got {other:?}"),
    }

    // Same connection, same (rebuilt-in-place) worker: next query answers.
    match client.request(&dist_request(&spec)).expect("io survives") {
        Response::Dist(d) => assert!(d.is_some(), "connected graph, no faults"),
        other => panic!("expected a distance, got {other:?}"),
    }

    assert_eq!(server.metrics().thread_panics_worker.get(), 1);
    assert_eq!(server.metrics().worker_respawns.get(), 1);
    assert_eq!(server.workers_alive(), server.workers_configured());

    // The panicked request never produced an answer, the follow-up did:
    // worker stats survived the context rebuild monotonically.
    assert_eq!(server.metrics().engine.published().queries, 1);

    client.shutdown().expect("graceful shutdown");
    server.join().expect("clean join");
}

#[test]
fn uncaught_worker_panic_respawns_the_worker_and_answers_internal() {
    // The panic fires *outside* the catch, killing the worker thread.
    let chaos = Arc::new(NthJobFault::new(1, WorkerFault::PanicUncaught));
    let (server, spec) = bind(ServeOptions {
        workers: 2,
        chaos: Some(chaos),
        ..ServeOptions::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // The connection holding the doomed job still gets a typed answer: the
    // reply channel drops with the thread and the connection maps that to
    // Internal.
    match client.request(&dist_request(&spec)).expect("io survives") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Internal as u16),
        other => panic!("expected Internal error frame, got {other:?}"),
    }

    // The supervisor notices the corpse and replaces it. The Internal
    // reply above races the supervisor's join (the connection learns of
    // the death first, through the dropped reply channel), so poll until
    // the respawn is recorded rather than asserting instantly.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().worker_respawns.get() < 1
        || server.workers_alive() < server.workers_configured()
    {
        assert!(Instant::now() < deadline, "supervisor never respawned");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.metrics().thread_panics_worker.get(), 1);
    assert_eq!(server.metrics().worker_respawns.get(), 1);

    // The replacement drains jobs like any other worker.
    match client.request(&dist_request(&spec)).expect("io survives") {
        Response::Dist(d) => assert!(d.is_some()),
        other => panic!("expected a distance, got {other:?}"),
    }

    client.shutdown().expect("graceful shutdown");
    server.join().expect("clean join");
}

#[test]
fn deadline_expired_in_queue_is_shed_without_running_a_bfs() {
    // A zero budget expires the instant the job is admitted: every request
    // must come back DeadlineExceeded and no query may ever run.
    let (server, spec) = bind(ServeOptions {
        workers: 1,
        request_timeout: Some(Duration::ZERO),
        ..ServeOptions::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");

    for _ in 0..10 {
        match client.request(&dist_request(&spec)).expect("io survives") {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::DeadlineExceeded as u16);
                assert!(message.contains("queued"), "got {message:?}");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    let stats = server.metrics().engine.published();
    assert_eq!(stats.queries, 0, "no BFS ran for an expired request");
    assert_eq!(stats.tiers.total(), 0, "tier counters untouched");
    assert_eq!(server.metrics().deadline_exceeded_total.get(), 10);

    client.shutdown().expect("graceful shutdown");
    server.join().expect("clean join");
}

#[test]
fn client_supplied_deadline_is_honoured() {
    let (server, spec) = bind(ServeOptions::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // A zero client budget expires in-queue even with no server timeout.
    match client
        .request_with_deadline(&dist_request(&spec), Duration::ZERO)
        .expect("io survives")
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::DeadlineExceeded as u16),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // A generous budget answers normally, byte-identically to a bare ask.
    let bare = client.request(&dist_request(&spec)).expect("bare");
    let budgeted = client
        .request_with_deadline(&dist_request(&spec), Duration::from_secs(10))
        .expect("budgeted");
    assert_eq!(
        ftb_server::encode_response(&bare),
        ftb_server::encode_response(&budgeted),
        "deadline wrapper must not change the answer"
    );

    client.shutdown().expect("graceful shutdown");
    server.join().expect("clean join");
}

#[test]
fn batch_under_deadline_is_complete_or_typed_never_partial() {
    // A tight-but-nonzero budget races the batch: whichever way the race
    // goes, the reply is all answers or one typed error — never a torn
    // batch.
    let (server, spec) = bind(ServeOptions {
        workers: 1,
        request_timeout: Some(Duration::from_millis(2)),
        ..ServeOptions::default()
    });
    let graph = spec.graph();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let queries: Vec<(VertexId, FaultSet)> = (0..40u32)
        .map(|i| {
            let e = ftb_graph::EdgeId(i % graph.num_edges() as u32);
            (
                VertexId((i as usize * 7 % graph.num_vertices()) as u32),
                FaultSet::from(e),
            )
        })
        .collect();
    let total = queries.len();
    match client
        .request(&Request::BatchDist {
            source: spec.source(),
            queries,
        })
        .expect("io survives")
    {
        Response::BatchDist(answers) => assert_eq!(answers.len(), total),
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::DeadlineExceeded as u16);
            assert!(message.contains("batch"), "got {message:?}");
        }
        other => panic!("unexpected batch reply {other:?}"),
    }

    client.shutdown().expect("graceful shutdown");
    server.join().expect("clean join");
}

#[test]
fn retry_heals_an_injected_connection_reset() {
    let chaos = Arc::new(ResetFirstRead {
        fired: AtomicU64::new(0),
    });
    let (server, spec) = bind(ServeOptions {
        chaos: Some(chaos),
        ..ServeOptions::default()
    });

    // The handshake read itself may eat the injected reset; if not, the
    // first query does. Either way one reconnect heals it.
    let policy = RetryPolicy::default();
    let mut stats = RetryStats::default();
    let mut client = loop {
        match Client::connect(server.local_addr()) {
            Ok(c) => break c,
            Err(_) => continue,
        }
    };
    let resp = client
        .request_with_retry(&dist_request(&spec), &policy, &mut stats)
        .expect("retry heals the reset");
    match resp {
        Response::Dist(d) => assert!(d.is_some()),
        other => panic!("expected a distance, got {other:?}"),
    }
    assert!(stats.attempts >= 1);

    client.shutdown().expect("graceful shutdown");
    server.join().expect("clean join");
}

#[test]
fn shutdown_is_never_retried() {
    let (server, _spec) = bind(ServeOptions::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.shutdown().expect("first shutdown is acknowledged");
    server.join().expect("clean join");

    // The server is gone: a retried read would just fail again, but the
    // point is that Shutdown must not even try — one attempt, no retries.
    let policy = RetryPolicy {
        max_retries: 5,
        ..RetryPolicy::default()
    };
    let mut stats = RetryStats::default();
    let err = client.request_with_retry(&Request::Shutdown, &policy, &mut stats);
    assert!(err.is_err(), "dead server cannot acknowledge");
    assert_eq!(stats.attempts, 1, "exactly one attempt");
    assert_eq!(stats.retries, 0, "shutdown is not idempotent: no retries");
    assert_eq!(stats.reconnects, 0);
}

#[test]
fn healthz_reports_ready_then_unready() {
    let (server, _spec) = bind(ServeOptions {
        workers: 2,
        metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
        ..ServeOptions::default()
    });
    let metrics_addr = server.metrics_addr().expect("metrics endpoint bound");

    let get_healthz = || -> (String, String) {
        use std::io::{Read, Write};
        let mut stream = TcpStream::connect(metrics_addr).expect("metrics connect");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .expect("http write");
        let mut buf = String::new();
        stream.read_to_string(&mut buf).expect("http read");
        let (head, body) = buf.split_once("\r\n\r\n").expect("http response");
        (head.to_string(), body.to_string())
    };

    let (head, body) = get_healthz();
    assert!(head.starts_with("HTTP/1.1 200"), "ready server: {head}");
    assert!(body.contains("\"ready\":true"), "body: {body}");
    assert!(body.contains("\"workers_alive\":2"), "body: {body}");
    assert!(body.contains("\"workers_configured\":2"), "body: {body}");
    assert!(body.contains("\"worker_panics\":0"), "body: {body}");

    server.shutdown();
    // Between the shutdown flag flipping and the metrics listener dying
    // there is a window where /healthz answers 503; accept either a 503 or
    // a refused connection, but never a 200.
    {
        use std::io::{Read, Write};
        // A refused connection means the listener is already gone:
        // acceptably unready. A torn connection mid-request: the same.
        // Only a completed 200 response is a failure.
        if let Ok(mut stream) = TcpStream::connect(metrics_addr) {
            let mut buf = String::new();
            let torn = stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                .and_then(|_| stream.read_to_string(&mut buf))
                .is_err()
                || buf.is_empty();
            assert!(
                torn || !buf.starts_with("HTTP/1.1 200"),
                "shutting-down server must not claim readiness: {buf}"
            );
        }
    }
    server.join().expect("clean join");
}

#[test]
fn wait_until_ready_and_stopped_bracket_the_lifecycle() {
    let (server, _spec) = bind(ServeOptions::default());
    let addr = server.local_addr();
    // bind() already asserted readiness; now the other bracket.
    server.shutdown();
    server.join().expect("clean join");
    assert!(
        wait_until_stopped_with(addr, Duration::from_secs(5), Duration::from_millis(2)),
        "stopped server should stop accepting"
    );
}

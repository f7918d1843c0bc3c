//! Lifecycle tests for the TCP server: graceful shutdown with in-flight
//! requests completing, idle/wedged connection reaping, and protocol-state
//! errors (queries before hello, version mismatch).

use ftb_core::EngineOptions;
use ftb_graph::{EdgeId, FaultSet, VertexId};
use ftb_obs::Scrape;
use ftb_par::ParallelConfig;
use ftb_server::protocol::{
    decode_response, encode_request, encode_response, read_frame, write_frame, ErrorCode, Request,
    Response, PROTOCOL_VERSION,
};
use ftb_server::{wait_until_stopped, Client, EngineSpec, ServeOptions, Server};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server(options: ServeOptions) -> (Server, EngineSpec) {
    let spec = EngineSpec {
        n: 80,
        ..EngineSpec::default()
    };
    let graph = spec.graph();
    let core = spec
        .build_core(&graph, EngineOptions::new().serial())
        .expect("spec builds");
    let server = Server::bind("127.0.0.1:0", Arc::clone(&core), options).expect("ephemeral bind");
    (server, spec)
}

fn raw_connect(server: &Server) -> TcpStream {
    TcpStream::connect(server.local_addr()).expect("connect")
}

fn send_raw(stream: &mut TcpStream, req: &Request) {
    write_frame(stream, &encode_request(req)).expect("write frame");
}

fn recv_raw(stream: &mut TcpStream) -> Option<Response> {
    read_frame(stream)
        .expect("read frame")
        .map(|payload| decode_response(&payload).expect("decode response"))
}

#[test]
fn shutdown_lets_in_flight_requests_complete() {
    let (server, spec) = start_server(ServeOptions {
        workers: 2,
        queue_depth: 16,
        idle_timeout: Duration::from_secs(5),
        ..ServeOptions::default()
    });
    let addr = server.local_addr();

    // Client 1: handshake, then put a sizeable batch in flight without
    // reading the answer yet.
    let mut c1 = raw_connect(&server);
    send_raw(
        &mut c1,
        &Request::Hello {
            client_version: PROTOCOL_VERSION,
        },
    );
    assert!(matches!(recv_raw(&mut c1), Some(Response::HelloOk { .. })));
    let graph = spec.graph();
    let batch: Vec<(VertexId, FaultSet)> = graph.vertices().map(|v| (v, FaultSet::new())).collect();
    let batch_len = batch.len();
    send_raw(
        &mut c1,
        &Request::BatchDist {
            source: spec.source(),
            queries: batch,
        },
    );
    // Give the connection thread time to pull the frame off the socket.
    std::thread::sleep(Duration::from_millis(100));

    // Client 2: graceful shutdown.
    let mut c2 = Client::connect(addr).expect("second client");
    c2.shutdown().expect("shutdown acknowledged");

    // The in-flight batch still gets its full answer before the close.
    match recv_raw(&mut c1) {
        Some(Response::BatchDist(answers)) => assert_eq!(answers.len(), batch_len),
        other => panic!("in-flight batch lost on shutdown: {other:?}"),
    }
    // ...and the connection then closes cleanly.
    assert!(recv_raw(&mut c1).is_none(), "connection should be closed");

    server.join().expect("clean join");
    assert!(
        wait_until_stopped(addr, Duration::from_secs(5)),
        "port should stop accepting after shutdown"
    );
}

#[test]
fn idle_and_wedged_connections_are_reaped() {
    let (server, _spec) = start_server(ServeOptions {
        workers: 1,
        queue_depth: 4,
        idle_timeout: Duration::from_millis(200),
        ..ServeOptions::default()
    });

    // Fully idle connection: closed after the idle timeout.
    let mut idle = raw_connect(&server);
    let start = Instant::now();
    assert!(
        recv_raw(&mut idle).is_none(),
        "idle connection should be closed by the server"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "idle reap took {:?}",
        start.elapsed()
    );

    // Wedged connection: half a length prefix, then silence. The server
    // must not wait forever for the rest of the frame.
    let mut wedged = raw_connect(&server);
    wedged.write_all(&[0x03, 0x00]).expect("partial prefix");
    wedged.flush().expect("flush");
    let start = Instant::now();
    assert!(
        recv_raw(&mut wedged).is_none(),
        "wedged connection should be closed by the server"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "wedged reap took {:?}",
        start.elapsed()
    );

    // The server is still healthy for well-behaved clients afterwards.
    let mut c = Client::connect(server.local_addr()).expect("connect after reaps");
    let scrape = Scrape::parse(&c.metrics_text().expect("metrics"));
    assert!(scrape.counter("ftb_connections_total", &[]) >= 3);

    server.shutdown();
    drop(c);
    server.join().expect("clean join");
}

#[test]
fn protocol_state_violations_get_typed_errors() {
    let (server, spec) = start_server(ServeOptions {
        workers: 1,
        queue_depth: 4,
        idle_timeout: Duration::from_secs(5),
        ..ServeOptions::default()
    });

    // Query before hello.
    let mut eager = raw_connect(&server);
    send_raw(
        &mut eager,
        &Request::Dist {
            source: spec.source(),
            target: VertexId(1),
            faults: FaultSet::new(),
        },
    );
    match recv_raw(&mut eager) {
        Some(Response::Error { code, .. }) => {
            assert_eq!(code, ErrorCode::ProtocolViolation as u16)
        }
        other => panic!("expected protocol violation, got {other:?}"),
    }

    // Wrong protocol version: rejected, then closed.
    let mut wrong = raw_connect(&server);
    send_raw(
        &mut wrong,
        &Request::Hello {
            client_version: PROTOCOL_VERSION + 1,
        },
    );
    match recv_raw(&mut wrong) {
        Some(Response::Error { code, .. }) => {
            assert_eq!(code, ErrorCode::ProtocolViolation as u16)
        }
        other => panic!("expected version rejection, got {other:?}"),
    }
    assert!(recv_raw(&mut wrong).is_none(), "closed after version error");

    // Malformed frame: typed error, then closed.
    let mut garbled = raw_connect(&server);
    write_frame(&mut garbled, &[0x7f, 1, 2, 3]).expect("write garbage");
    match recv_raw(&mut garbled) {
        Some(Response::Error { code, .. }) => {
            assert_eq!(code, ErrorCode::MalformedFrame as u16)
        }
        other => panic!("expected malformed-frame error, got {other:?}"),
    }
    assert!(recv_raw(&mut garbled).is_none(), "closed after bad frame");

    server.shutdown();
    server.join().expect("clean join");
}

#[test]
fn every_other_protocol_version_is_rejected_then_closed() {
    let (server, _spec) = start_server(ServeOptions {
        workers: 1,
        queue_depth: 4,
        idle_timeout: Duration::from_secs(5),
        ..ServeOptions::default()
    });
    // One version, no negotiation: every other version is refused,
    // however close to the current one.
    for version in [0, 2, 3, PROTOCOL_VERSION - 1, u16::MAX] {
        let mut stream = raw_connect(&server);
        send_raw(
            &mut stream,
            &Request::Hello {
                client_version: version,
            },
        );
        match recv_raw(&mut stream) {
            Some(Response::Error { code, message }) => {
                assert_eq!(code, ErrorCode::ProtocolViolation as u16);
                assert!(message.contains(&version.to_string()), "{message:?}");
            }
            other => panic!("expected rejection of v{version}, got {other:?}"),
        }
        assert!(recv_raw(&mut stream).is_none(), "closed after v{version}");
    }
    // The current version still handshakes.
    let client = Client::connect(server.local_addr()).expect("current version");
    assert_eq!(client.info().version, PROTOCOL_VERSION);
    server.shutdown();
    drop(client);
    server.join().expect("clean join");
}

#[test]
fn client_rejects_a_hello_ok_naming_another_version() {
    // A peer that answers the handshake with a version other than ours.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        read_frame(&mut stream).expect("read hello").expect("hello");
        let reply = Response::HelloOk {
            version: PROTOCOL_VERSION - 1,
            fingerprint: 0,
            num_vertices: 1,
            num_edges: 0,
            sources: vec![VertexId(0)],
        };
        write_frame(&mut stream, &encode_response(&reply)).expect("write");
    });
    match Client::connect(addr) {
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}"),
        Ok(_) => panic!("accepted a HelloOk naming another version"),
    }
    peer.join().expect("peer");
}

#[test]
fn out_of_range_queries_map_to_engine_error_codes() {
    let (server, spec) = start_server(ServeOptions {
        workers: 1,
        queue_depth: 4,
        idle_timeout: Duration::from_secs(5),
        ..ServeOptions::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let n = client.info().num_vertices;
    match client
        .dist(spec.source(), VertexId(n + 7), FaultSet::new())
        .expect("io ok")
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::VertexOutOfRange as u16),
        other => panic!("expected vertex-out-of-range, got {other:?}"),
    }
    server.shutdown();
    drop(client);
    server.join().expect("clean join");
}

fn batch_dist(
    client: &mut Client,
    source: VertexId,
    queries: Vec<(VertexId, FaultSet)>,
) -> Response {
    client
        .request(&Request::BatchDist { source, queries })
        .expect("io ok")
}

#[test]
fn batch_dist_fails_with_the_first_invalid_entrys_error() {
    let (server, spec) = start_server(ServeOptions {
        workers: 1,
        queue_depth: 4,
        idle_timeout: Duration::from_secs(5),
        ..ServeOptions::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (n, m) = (client.info().num_vertices, client.info().num_edges);
    let valid = (VertexId(1), FaultSet::from(EdgeId(0)));
    let bad_vertex = (VertexId(n + 3), FaultSet::new());
    let bad_fault = (VertexId(2), FaultSet::from(EdgeId(m + 5)));
    let too_large = (
        VertexId(2),
        (0..3).map(|e| ftb_graph::Fault::Edge(EdgeId(e))).collect(),
    );
    let unserved = VertexId(5);
    assert_ne!(unserved, spec.source());
    // Per entry, in input order: the vertex, then the fault set, then the
    // source.
    let cases = [
        (
            spec.source(),
            vec![valid.clone(), bad_vertex.clone(), bad_fault],
            ErrorCode::VertexOutOfRange,
        ),
        (
            spec.source(),
            vec![valid.clone(), too_large, bad_vertex.clone()],
            ErrorCode::FaultSetTooLarge,
        ),
        (
            unserved,
            vec![valid, bad_vertex],
            ErrorCode::SourceNotServed,
        ),
    ];
    for (source, queries, want) in cases {
        match batch_dist(&mut client, source, queries) {
            Response::Error { code, .. } => assert_eq!(code, want as u16, "expected {want:?}"),
            other => panic!("expected {want:?}, got {other:?}"),
        }
    }
    // An empty batch names nothing to check, not even its source.
    assert_eq!(
        batch_dist(&mut client, unserved, Vec::new()),
        Response::BatchDist(Vec::new())
    );
    server.shutdown();
    drop(client);
    server.join().expect("clean join");
}

#[test]
fn batches_run_on_the_pooled_context() {
    // One pooled context and a core that would shard its own batches over
    // four workers: a `BatchDist` must still run on the pooled context, so
    // its LRU carries from one batch to the next. The repair path is pinned
    // on, whatever FTBFS_FORCE_FULL_SWEEP says.
    let spec = EngineSpec {
        n: 80,
        ..EngineSpec::default()
    };
    let graph = spec.graph();
    let options = EngineOptions::new()
        .with_parallel(ParallelConfig::with_threads(4))
        .with_force_full_sweep(false);
    let core = spec.build_core(&graph, options).expect("spec builds");
    let options = ServeOptions {
        workers: 1,
        queue_depth: 4,
        idle_timeout: Duration::from_secs(5),
        ..ServeOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&core), options).expect("ephemeral bind");
    let source = spec.source();
    let affected = |e: EdgeId| -> Vec<VertexId> {
        graph
            .vertices()
            .filter(|&v| {
                !core
                    .is_target_unaffected(source, v, &FaultSet::from(e))
                    .expect("in range")
            })
            .collect()
    };
    let cutting: Vec<EdgeId> = graph
        .edge_ids()
        .filter(|&e| !affected(e).is_empty())
        .take(3)
        .collect();
    assert_eq!(cutting.len(), 3, "too few tree edges");
    let mut queries = Vec::new();
    for &e in &cutting[..2] {
        queries.extend(
            affected(e)
                .into_iter()
                .take(4)
                .map(|v| (v, FaultSet::from(e))),
        );
    }
    // The source is never cut off by an edge: this group is unaffected.
    queries.push((source, FaultSet::from(cutting[2])));

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let counters = |client: &mut Client| {
        let scrape = Scrape::parse(&client.metrics_text().expect("metrics"));
        let total = |name: &str| scrape.counter(&format!("ftb_engine_{name}_total"), &[]);
        [
            total("restricted_repairs"),
            total("repaired_rows"),
            total("cached_answers"),
        ]
    };
    let mut last = counters(&mut client);
    let mut first = None;
    // First sight of each searching fault set: a restricted sweep that
    // leaves its key. The replay repairs and caches both rows; the next
    // replay reads them.
    for want in [[2, 0], [0, 2], [0, 0]] {
        let got = batch_dist(&mut client, source, queries.clone());
        assert!(matches!(got, Response::BatchDist(_)), "{got:?}");
        assert_eq!(
            first.get_or_insert_with(|| got.clone()),
            &got,
            "replays answer alike"
        );
        let now = counters(&mut client);
        let delta = [now[0] - last[0], now[1] - last[1]];
        assert_eq!(delta, want, "(restricted repairs, repaired rows)");
        assert!(now[2] > last[2], "cached answers grow");
        last = now;
    }
    drop(client);
    server.shutdown();
    server.join().expect("clean join");
}

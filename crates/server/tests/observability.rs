//! End-to-end tests of the observability surface: the v3 metrics and
//! slow-query frames, version gating for v2 sessions, the per-connection
//! cell merge, and the plaintext HTTP scrape endpoint.

use ftb_core::{EngineCore, EngineOptions};
use ftb_graph::{EdgeId, FaultSet, VertexId};
use ftb_server::protocol::{
    decode_response, encode_request, read_frame, write_frame, ErrorCode, MetricsFormat, Request,
    Response, MIN_PROTOCOL_VERSION,
};
use ftb_server::{Client, EngineSpec, ServeOptions, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

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

fn send_raw(stream: &mut TcpStream, req: &Request) {
    write_frame(stream, &encode_request(req)).expect("write frame");
}

fn recv_raw(stream: &mut TcpStream) -> Option<Response> {
    read_frame(stream)
        .expect("read frame")
        .map(|payload| decode_response(&payload).expect("decode response"))
}

#[test]
fn metrics_frame_reflects_served_queries() {
    let (server, spec) = start_server(ServeOptions {
        workers: 2,
        queue_depth: 16,
        idle_timeout: Duration::from_secs(5),
        ..ServeOptions::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Drive a few queries through every routing shape.
    let targets: Vec<VertexId> = (0..40).map(VertexId).collect();
    client
        .dist_many(spec.source(), targets, FaultSet::from(EdgeId(0)))
        .expect("dist_many");
    client
        .dist(spec.source(), VertexId(7), FaultSet::new())
        .expect("dist");

    let text = client.metrics_text().expect("metrics frame");
    assert!(text.contains("# TYPE ftb_requests_total counter"), "{text}");
    assert!(
        text.contains("ftb_requests_total{op=\"dist_many\"} 1"),
        "{text}"
    );
    assert!(text.contains("ftb_requests_total{op=\"dist\"} 1"), "{text}");
    // Stage histograms recorded by workers and connection threads.
    assert!(
        text.contains("ftb_request_queue_wait_seconds_count"),
        "{text}"
    );
    assert!(text.contains("ftb_request_handle_seconds_count"), "{text}");
    assert!(
        text.contains("ftb_connection_decode_seconds_count"),
        "{text}"
    );
    assert!(text.contains("ftb_response_encode_seconds_count"), "{text}");
    // Per-tier latency histograms from the attached EngineObs (sampling is
    // on by default): the fault-free dist answers put samples somewhere in
    // the tier family.
    assert!(
        text.contains("ftb_query_tier_latency_seconds_count"),
        "{text}"
    );
    // Build-phase provenance gauges: the structure's construction phases
    // and the engine's preprocessing phases of this in-process build.
    for phase in [
        "s0",
        "s1",
        "s2",
        "reinforce",
        "compact_h",
        "fault_free_rows",
    ] {
        let series = format!("ftb_build_phase_seconds{{phase=\"{phase}\"}}");
        assert!(text.contains(&series), "missing {series}: {text}");
    }
    assert!(!text.contains("phase=\"snapshot_load\""), "{text}");

    // JSON exposition of the same registry.
    let json = client.metrics_json().expect("metrics json");
    assert!(
        json.contains("\"ftb_requests_total{op=\\\"dist\\\"}\""),
        "{json}"
    );

    // The handle-time histogram has exactly as many samples as jobs ran.
    let handle_count = server.metrics().handle.count();
    assert_eq!(handle_count, 2, "two query jobs were handled");

    server.shutdown();
    drop(client);
    server.join().expect("clean join");
}

/// A snapshot-restored server did not construct anything: it reports the
/// single `snapshot_load` phase and none of the construction phases its
/// snapshot's `BuildStats` still carry.
#[test]
fn snapshot_restored_server_reports_only_the_load_phase() {
    let spec = EngineSpec {
        n: 80,
        ..EngineSpec::default()
    };
    let built = spec
        .build_core(&spec.graph(), EngineOptions::new().serial())
        .expect("spec builds");
    assert!(built.structure().stats().s0_ms > 0.0);
    let (core, _) = EngineCore::read_snapshot(&built.write_snapshot(&[]), EngineOptions::new())
        .expect("round trip");
    let server = Server::bind("127.0.0.1:0", Arc::new(core), ServeOptions::default())
        .expect("ephemeral bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let text = client.metrics_text().expect("metrics frame");
    assert!(
        text.contains("ftb_build_phase_seconds{phase=\"snapshot_load\"}"),
        "{text}"
    );
    for phase in ["s0", "s1", "s2", "reinforce", "compact_h"] {
        assert!(!text.contains(&format!("phase=\"{phase}\"")), "{text}");
    }
    server.shutdown();
    drop(client);
    server.join().expect("clean join");
}

#[test]
fn slow_query_board_reports_shape_and_stages() {
    let (server, spec) = start_server(ServeOptions {
        workers: 1,
        queue_depth: 8,
        idle_timeout: Duration::from_secs(5),
        ..ServeOptions::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let faults = FaultSet::from(EdgeId(3));
    let targets: Vec<VertexId> = (0..25).map(VertexId).collect();
    client
        .dist_many(spec.source(), targets, faults.clone())
        .expect("dist_many");

    let board = client.slow_queries().expect("slow query frame");
    assert!(!board.is_empty(), "the one query makes the board");
    let top = &board[0];
    assert_eq!(top.opcode, 0x07, "DistMany opcode");
    assert_eq!(top.source, spec.source());
    assert_eq!(top.targets, 25);
    assert_eq!(top.faults, faults, "fault set rides along");
    assert!(top.handle_nanos > 0, "handle stage measured");
    let tier_answers: u64 = top.tiers.iter().sum();
    assert_eq!(tier_answers, 25, "every target attributed to a tier");

    server.shutdown();
    drop(client);
    server.join().expect("clean join");
}

#[test]
fn v2_sessions_work_but_cannot_use_v3_frames() {
    let (server, spec) = start_server(ServeOptions {
        workers: 1,
        queue_depth: 8,
        idle_timeout: Duration::from_secs(5),
        ..ServeOptions::default()
    });
    let mut v2 = TcpStream::connect(server.local_addr()).expect("connect");

    // A v2 hello negotiates version 2 and the session serves queries.
    send_raw(
        &mut v2,
        &Request::Hello {
            client_version: MIN_PROTOCOL_VERSION,
        },
    );
    match recv_raw(&mut v2) {
        Some(Response::HelloOk { version, .. }) => assert_eq!(version, MIN_PROTOCOL_VERSION),
        other => panic!("v2 hello rejected: {other:?}"),
    }
    send_raw(
        &mut v2,
        &Request::Dist {
            source: spec.source(),
            target: VertexId(3),
            faults: FaultSet::new(),
        },
    );
    assert!(matches!(recv_raw(&mut v2), Some(Response::Dist(Some(_)))));

    // ...but the v3 observability frames are version-gated.
    for req in [
        Request::Metrics {
            format: MetricsFormat::Prometheus,
        },
        Request::SlowQueries,
    ] {
        send_raw(&mut v2, &req);
        match recv_raw(&mut v2) {
            Some(Response::Error { code, .. }) => {
                assert_eq!(code, ErrorCode::ProtocolViolation as u16, "{req:?}")
            }
            other => panic!("expected version gate for {req:?}, got {other:?}"),
        }
    }

    // The gate is a reply, not a hangup: the session still answers.
    send_raw(&mut v2, &Request::Stats);
    assert!(matches!(recv_raw(&mut v2), Some(Response::Stats(_))));

    server.shutdown();
    drop(v2);
    server.join().expect("clean join");
}

#[test]
fn http_endpoint_serves_prometheus_text() {
    let (server, spec) = start_server(ServeOptions {
        workers: 1,
        queue_depth: 8,
        idle_timeout: Duration::from_secs(5),
        metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
        ..ServeOptions::default()
    });
    let metrics_addr = server.metrics_addr().expect("metrics listener bound");

    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .dist(spec.source(), VertexId(5), FaultSet::from(EdgeId(1)))
        .expect("dist");

    let fetch = |path: &str| {
        let mut http = TcpStream::connect(metrics_addr).expect("connect metrics");
        write!(http, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("send request");
        let mut body = String::new();
        http.read_to_string(&mut body).expect("read response");
        body
    };

    let scrape = fetch("/metrics");
    assert!(scrape.starts_with("HTTP/1.1 200 OK"), "{scrape}");
    assert!(
        scrape.contains("ftb_requests_total{op=\"dist\"} 1"),
        "{scrape}"
    );
    assert!(
        scrape.contains("ftb_request_queue_wait_seconds_count 1"),
        "{scrape}"
    );

    let json = fetch("/metrics.json");
    assert!(json.contains("application/json"), "{json}");
    assert!(json.contains("ftb_connections_total"), "{json}");

    let slow = fetch("/slow");
    assert!(slow.contains("\"opcode\":2"), "{slow}");

    let missing = fetch("/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    server.shutdown();
    drop(client);
    server.join().expect("clean join");
}

//! End-to-end tests of the observability surface: the metrics and
//! slow-query frames, the engine counters published into the registry,
//! the per-connection cell merge, and the plaintext HTTP scrape endpoint.

use ftb_core::engine::TIER_ANSWERS_METRIC;
use ftb_core::{EngineCore, EngineOptions, QueryStats, TierCounters};
use ftb_graph::{EdgeId, Fault, FaultSet, VertexId};
use ftb_obs::Scrape;
use ftb_server::protocol::{Request, Response};
use ftb_server::{Client, EngineSpec, Provenance, ServeOptions, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn start_server(options: ServeOptions) -> (Server, EngineSpec) {
    let spec = EngineSpec {
        n: 80,
        augment: true,
        ..EngineSpec::default()
    };
    let graph = spec.graph();
    let core = spec
        .build_core(&graph, EngineOptions::new().serial())
        .expect("spec builds");
    let server = Server::bind("127.0.0.1:0", Arc::clone(&core), options).expect("ephemeral bind");
    (server, spec)
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
    // Build-phase provenance gauges: the structure's construction and
    // augmentation phases and the engine's preprocessing phases of this
    // in-process build.
    for phase in [
        "s0",
        "s1",
        "s2",
        "reinforce",
        "augment",
        "compact_h",
        "fault_free_rows",
        "augmented_tier",
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
        augment: true,
        ..EngineSpec::default()
    };
    let built = spec
        .build_core(&spec.graph(), EngineOptions::new().serial())
        .expect("spec builds");
    assert!(built.structure().stats().s0_ms > 0.0);
    assert!(built.augment_stats().is_some_and(|a| a.augment_ms > 0.0));
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
    for phase in ["s0", "s1", "s2", "reinforce", "augment", "compact_h"] {
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

/// The engine counters the workers publish are the numbers a single
/// in-process context reports for the same request stream. One worker
/// means one context and one row cache see the stream in order, so even
/// the cache and sweep counters must agree exactly.
#[test]
fn scraped_engine_counters_equal_an_in_process_replay() {
    let spec = EngineSpec {
        n: 80,
        augment: true,
        ..EngineSpec::default()
    };
    let graph = spec.graph();
    let core = spec
        .build_core(&graph, EngineOptions::new().serial())
        .expect("spec builds");
    let provenance = Provenance {
        from_snapshot: true,
        startup_micros: 1_500,
        snapshot_format_version: 3,
    };
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&core),
        ServeOptions {
            workers: 1,
            queue_depth: 8,
            idle_timeout: Duration::from_secs(5),
            provenance,
            ..ServeOptions::default()
        },
    )
    .expect("ephemeral bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let engine_total = |name: &str| format!("ftb_engine_{name}_total");

    // Every series is registered at bind, so it reads 0 before any query.
    let idle = Scrape::parse(&client.metrics_text().expect("metrics"));
    for name in QueryStats::NAMES {
        assert_eq!(idle.get(&engine_total(name), &[]), Some(0.0), "{name}");
    }
    for tier in TierCounters::NAMES {
        let answers = idle.get(TIER_ANSWERS_METRIC, &[("tier", tier)]);
        assert_eq!(answers, Some(0.0), "{tier}");
    }
    for name in ["ftb_requests_admitted_total", "ftb_requests_shed_total"] {
        assert_eq!(idle.get(name, &[]), Some(0.0), "{name}");
    }
    assert_eq!(idle.counter("ftb_connections_total", &[]), 1);
    assert_eq!(idle.get("ftb_engine_from_snapshot", &[]), Some(1.0));
    assert_eq!(idle.get("ftb_engine_startup_seconds", &[]), Some(0.0015));
    assert_eq!(idle.get("ftb_snapshot_format_version", &[]), Some(3.0));

    // A fixed stream over every request shape and fault kind, with fault
    // sets recurring so the row cache hits as well as misses.
    let source = spec.source();
    let n = graph.num_vertices() as u32;
    let stream: Vec<Request> = (0..60u32)
        .map(|i| {
            let mut faults = FaultSet::new();
            match i % 4 {
                0 => {}
                1 => {
                    faults.insert(Fault::Edge(EdgeId(i % 5)));
                }
                2 => {
                    faults.insert(Fault::Vertex(VertexId(1 + i % 7)));
                }
                _ => {
                    faults.insert(Fault::Edge(EdgeId(i % 3)));
                    faults.insert(Fault::Edge(EdgeId(10 + i % 3)));
                }
            }
            let target = VertexId((i * 13) % n);
            match i % 3 {
                0 => Request::Dist {
                    source,
                    target,
                    faults,
                },
                1 => Request::Path {
                    source,
                    target,
                    faults,
                },
                _ => Request::DistMany {
                    source,
                    targets: (0..20).map(|t| VertexId((i + 7 * t) % n)).collect(),
                    faults,
                },
            }
        })
        .collect();
    for request in &stream {
        let reply = client.request(request).expect("io");
        assert!(
            matches!(
                reply,
                Response::Dist(_) | Response::Path(_) | Response::DistMany(_)
            ),
            "{reply:?}"
        );
    }

    let mut ctx = core.new_context();
    for request in &stream {
        match request {
            Request::Dist {
                source,
                target,
                faults,
            } => {
                ctx.dist_after_faults_from(&core, *source, *target, faults)
                    .expect("valid");
            }
            Request::Path {
                source,
                target,
                faults,
            } => {
                ctx.path_after_faults_from(&core, *source, *target, faults)
                    .expect("valid");
            }
            Request::DistMany {
                source,
                targets,
                faults,
            } => {
                ctx.dist_many_after_faults_from(&core, *source, targets, faults)
                    .expect("valid");
            }
            other => unreachable!("not in the stream: {other:?}"),
        }
    }
    let want = ctx.stats();
    assert!(want.tiers.augmented_bfs > 0 && want.cached_answers > 0);

    let served = Scrape::parse(&client.metrics_text().expect("metrics"));
    for (name, value) in QueryStats::NAMES.iter().zip(want.to_array()) {
        let scraped = served.counter(&engine_total(name), &[]);
        assert_eq!(scraped, value as u64, "{name}");
    }
    let mut tier_sum = 0;
    for (tier, value) in TierCounters::NAMES.iter().zip(want.tiers.to_array()) {
        let scraped = served.counter(TIER_ANSWERS_METRIC, &[("tier", tier)]);
        assert_eq!(scraped, value as u64, "{tier}");
        tier_sum += scraped;
    }
    assert_eq!(tier_sum, served.counter("ftb_engine_queries_total", &[]));
    assert_eq!(
        served.counter("ftb_requests_admitted_total", &[]),
        stream.len() as u64
    );
    // The in-process handles read the same cells.
    assert_eq!(server.metrics().engine.published(), want);

    server.shutdown();
    drop(client);
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

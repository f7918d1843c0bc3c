//! End-to-end smoke test of the TCP query service: concurrent clients on
//! an ephemeral loopback port receive answers **byte-identical** to what a
//! direct in-process engine produces, and a tiny queue bound makes the
//! admission control's `Overloaded` reply observable.

use ftb_core::engine::TIER_ANSWERS_METRIC;
use ftb_core::{EngineOptions, TierCounters};
use ftb_graph::{FaultSet, VertexId};
use ftb_obs::Scrape;
use ftb_server::protocol::{encode_response, Request, Response};
use ftb_server::{wait_until_ready, Client, EngineSpec, ServeOptions, Server};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn spec() -> EngineSpec {
    EngineSpec {
        n: 200,
        seed: 13,
        ..EngineSpec::default()
    }
}

#[test]
fn wire_answers_are_byte_identical_to_in_process_answers() {
    let spec = spec();
    let graph = spec.graph();
    let core = spec
        .build_core(&graph, EngineOptions::new().serial())
        .expect("spec builds");
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&core),
        ServeOptions {
            workers: 2,
            queue_depth: 64,
            idle_timeout: Duration::from_secs(10),
            ..ServeOptions::default()
        },
    )
    .expect("ephemeral bind");
    let addr = server.local_addr();
    assert!(
        wait_until_ready(addr, Duration::from_secs(5)),
        "server should accept connections shortly after bind"
    );
    let source = spec.source();

    // The query mix: plain distances, faulted distances, and paths, over a
    // deterministic spread of targets and fault sets.
    let fault_sets: Vec<FaultSet> = {
        let mut sets =
            ftb_workloads::FaultScenario::RandomEdges.generate(&graph, source, 1, 16, spec.seed);
        sets.push(FaultSet::new());
        sets
    };
    let queries: Vec<(VertexId, FaultSet)> = (0..120usize)
        .map(|i| {
            let v = VertexId((i * 17 % graph.num_vertices()) as u32);
            (v, fault_sets[i % fault_sets.len()].clone())
        })
        .collect();

    // Expected answers straight from the engine, through the same shared
    // core the server owns.
    let mut ctx = core.new_context();
    let expected: Vec<(Response, Response)> = queries
        .iter()
        .map(|(v, faults)| {
            let dist = ctx
                .dist_after_faults_from(&core, source, *v, faults)
                .expect("valid query");
            let path = ctx
                .path_after_faults_from(&core, source, *v, faults)
                .expect("valid query");
            (
                Response::Dist(dist),
                Response::Path(path.map(|p| ftb_server::WirePath {
                    vertices: p.vertices().to_vec(),
                    edges: p.edges().to_vec(),
                })),
            )
        })
        .collect();

    // Four concurrent clients each replay the full mix and compare the
    // *encoded bytes* of every answer against the in-process reference.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for ((v, faults), (want_dist, want_path)) in queries.iter().zip(expected) {
                    let got = client
                        .request(&Request::Dist {
                            source,
                            target: *v,
                            faults: faults.clone(),
                        })
                        .expect("dist io");
                    assert_eq!(
                        encode_response(&got),
                        encode_response(want_dist),
                        "distance answer bytes diverged at {v:?} / {faults:?}"
                    );
                    let got = client
                        .request(&Request::Path {
                            source,
                            target: *v,
                            faults: faults.clone(),
                        })
                        .expect("path io");
                    assert_eq!(
                        encode_response(&got),
                        encode_response(want_path),
                        "path answer bytes diverged at {v:?} / {faults:?}"
                    );
                }
                // The batched op agrees with the per-query answers too.
                let got = client
                    .request(&Request::BatchDist {
                        source,
                        queries: queries.clone(),
                    })
                    .expect("batch io");
                let want = Response::BatchDist(
                    expected
                        .iter()
                        .map(|(d, _)| match d {
                            Response::Dist(d) => *d,
                            other => panic!("non-dist expected entry {other:?}"),
                        })
                        .collect(),
                );
                assert_eq!(encode_response(&got), encode_response(&want));
            });
        }
    });

    // The fingerprint in the handshake names the same graph.
    let mut probe = Client::connect(addr).expect("probe");
    assert_eq!(probe.info().fingerprint, graph.fingerprint());
    let scrape = Scrape::parse(&probe.metrics_text().expect("metrics"));
    let queries = scrape.counter("ftb_engine_queries_total", &[]);
    assert!(queries > 0, "workers published per-tier counters");
    assert_eq!(
        queries,
        TierCounters::NAMES
            .iter()
            .map(|&t| scrape.counter(TIER_ANSWERS_METRIC, &[("tier", t)]))
            .sum::<u64>(),
        "tier counters account for every query"
    );
    assert_eq!(
        scrape.counter("ftb_requests_shed_total", &[]),
        0,
        "an uncontended run sheds nothing"
    );

    probe.shutdown().expect("graceful shutdown");
    server.join().expect("clean join");
}

#[test]
fn tiny_queue_bound_sheds_with_overloaded() {
    let spec = spec();
    let graph = spec.graph();
    let core = spec
        .build_core(&graph, EngineOptions::new().serial())
        .expect("spec builds");
    // One worker, a one-slot queue: concurrent clients must collide.
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&core),
        ServeOptions {
            workers: 1,
            queue_depth: 1,
            idle_timeout: Duration::from_secs(10),
            ..ServeOptions::default()
        },
    )
    .expect("ephemeral bind");
    let addr = server.local_addr();
    assert!(
        wait_until_ready(addr, Duration::from_secs(5)),
        "server should accept connections shortly after bind"
    );
    let source = spec.source();

    let sheds = AtomicU64::new(0);
    let oks = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs(10);
    std::thread::scope(|scope| {
        for t in 0..8u32 {
            let sheds = &sheds;
            let oks = &oks;
            let graph = &graph;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let n = graph.num_vertices() as u32;
                let mut i = t;
                // Hammer distinct fault sets (each a cache-missing BFS for
                // the single worker) until somebody observes a shed.
                while sheds.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
                    let e = ftb_graph::EdgeId(i % graph.num_edges() as u32);
                    let resp = client
                        .dist(source, VertexId(i % n), FaultSet::from(e))
                        .expect("io");
                    match resp {
                        Response::Overloaded => {
                            sheds.fetch_add(1, Ordering::Relaxed);
                        }
                        Response::Dist(_) => {
                            oks.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unexpected reply {other:?}"),
                    }
                    i += 8;
                }
            });
        }
    });
    assert!(
        sheds.load(Ordering::Relaxed) > 0,
        "8 clients against a 1-slot queue never observed Overloaded \
         ({} successes)",
        oks.load(Ordering::Relaxed)
    );
    assert!(oks.load(Ordering::Relaxed) > 0, "some requests succeeded");
    assert_eq!(
        server.metrics().shed_total.get(),
        sheds.load(Ordering::Relaxed),
        "shed counter matches"
    );

    server.shutdown();
    server.join().expect("clean join");
}

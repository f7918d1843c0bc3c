//! Seeded chaos harness for the serving tier: a storm of injected faults
//! (slow reads, connection resets, partial writes, accept failures, query
//! panics inside the handler and right after checkout, context stalls)
//! hammers a live server
//! while retrying clients replay a precomputed workload. The invariants:
//!
//! * every answer that *does* arrive is byte-identical to the in-process
//!   engine's answer — faults may slow or kill a request, never corrupt it;
//! * every failure is a typed frame or a clean connection error — no hangs,
//!   no desynchronized frames, no garbage;
//! * the context pool heals: panics are counted and every panicked
//!   context is replaced, so the pool ends the storm at full strength;
//! * the server still drains and shuts down cleanly afterwards.
//!
//! The fault schedule is a pure function of the seed, so a failing seed
//! reproduces exactly: `FTBFS_CHAOS_SEED=<seed> cargo test --test chaos`.

use ftb_chaos::{ChaosConfig, ChaosStatsSnapshot, SeededChaos};
use ftb_core::EngineOptions;
use ftb_graph::{EdgeId, FaultSet, VertexId};
use ftb_server::protocol::{encode_response, ErrorCode, Request, Response};
use ftb_server::{
    wait_until_ready, wait_until_stopped_with, Client, EngineSpec, RetryPolicy, RetryStats,
    ServeOptions, Server,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// Injected worker panics are *expected* here; without this hook every one
/// of them would dump a backtrace into the test output. Panics that are
/// not chaos-injected still print normally.
fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            if !msg.contains("chaos: injected") {
                default(info);
            }
        }));
    });
}

const CLIENT_THREADS: usize = 4;
const REQUESTS_PER_THREAD: usize = 1000;

/// Outcome counters for one storm run.
#[derive(Default, Debug)]
struct StormTally {
    ok: u64,
    shed: u64,
    internal: u64,
    deadline_exceeded: u64,
    io_errors: u64,
    reconnect_failures: u64,
}

fn run_storm(
    seed: u64,
    core: &Arc<ftb_core::EngineCore>,
    requests: &[Request],
    expected: &[Vec<u8>],
) -> (ChaosStatsSnapshot, StormTally) {
    let chaos = Arc::new(SeededChaos::new(ChaosConfig::storm(seed)));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(core),
        ServeOptions {
            workers: 2,
            queue_depth: 4,
            request_timeout: Some(Duration::from_millis(50)),
            idle_timeout: Duration::from_secs(10),
            chaos: Some(Arc::clone(&chaos) as Arc<dyn ftb_chaos::Chaos>),
            ..ServeOptions::default()
        },
    )
    .expect("ephemeral bind");
    let addr = server.local_addr();
    assert!(wait_until_ready(addr, Duration::from_secs(5)));

    // Connecting during the storm can itself be chaos-killed (injected
    // accept failures, handshake resets); keep dialing within a budget.
    let connect = |budget: Duration| -> Option<Client> {
        let deadline = Instant::now() + budget;
        while Instant::now() < deadline {
            match Client::connect(addr) {
                Ok(mut c) => {
                    if c.set_read_timeout(Some(Duration::from_secs(5))).is_ok() {
                        return Some(c);
                    }
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        None
    };

    let cursor = AtomicU64::new(0);
    let mut tally = StormTally::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for thread_idx in 0..CLIENT_THREADS {
            let cursor = &cursor;
            let policy = RetryPolicy {
                max_retries: 6,
                seed: seed ^ (thread_idx as u64).wrapping_mul(0x9E37_79B9),
                ..RetryPolicy::default()
            };
            handles.push(scope.spawn(move || {
                let mut t = StormTally::default();
                let mut retry_stats = RetryStats::default();
                let Some(mut client) = connect(Duration::from_secs(10)) else {
                    t.reconnect_failures += 1;
                    return t;
                };
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                    if i >= requests.len() {
                        break;
                    }
                    match client.request_with_retry(&requests[i], &policy, &mut retry_stats) {
                        Ok(resp @ (Response::Dist(_) | Response::BatchDist(_))) => {
                            t.ok += 1;
                            assert_eq!(
                                encode_response(&resp),
                                expected[i],
                                "seed {seed:#x}: surviving answer for request {i} \
                                 diverged from the in-process engine"
                            );
                        }
                        Ok(Response::Overloaded) => t.shed += 1,
                        Ok(Response::Error { code, message }) => {
                            if code == ErrorCode::Internal as u16 {
                                t.internal += 1;
                            } else if code == ErrorCode::DeadlineExceeded as u16 {
                                t.deadline_exceeded += 1;
                            } else {
                                panic!(
                                    "seed {seed:#x}: unexpected error frame \
                                     code={code} message={message:?}"
                                );
                            }
                        }
                        Ok(other) => {
                            panic!("seed {seed:#x}: desynchronized reply {other:?}")
                        }
                        Err(_) => {
                            // Retry budget spent on a dead connection.
                            t.io_errors += 1;
                            match connect(Duration::from_secs(10)) {
                                Some(c) => client = c,
                                None => {
                                    t.reconnect_failures += 1;
                                    break;
                                }
                            }
                        }
                    }
                }
                t
            }));
        }
        for handle in handles {
            let t = handle.join().expect("client threads never panic");
            tally.ok += t.ok;
            tally.shed += t.shed;
            tally.internal += t.internal;
            tally.deadline_exceeded += t.deadline_exceeded;
            tally.io_errors += t.io_errors;
            tally.reconnect_failures += t.reconnect_failures;
        }
    });

    assert_eq!(
        tally.reconnect_failures, 0,
        "seed {seed:#x}: a client could not reconnect within its budget — \
         the server stopped accepting"
    );
    assert!(
        tally.ok > 0,
        "seed {seed:#x}: the storm drowned every single request"
    );

    // The pool heals: every injected panic was counted, every panicked
    // context replaced.
    let injected = chaos.stats();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let counted = server.metrics().thread_panics_worker.get();
        let alive = server.workers_alive();
        if counted == injected.worker_panics && alive == server.workers_configured() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "seed {seed:#x}: pool never healed (panics counted {counted} of \
             {} injected, {alive}/{} workers alive)",
            injected.worker_panics,
            server.workers_configured(),
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        server.metrics().thread_panics_worker.get(),
        injected.worker_panics
    );

    // And it still shuts down cleanly, by wire if chaos allows, by handle
    // otherwise (the wire attempt can itself be chaos-killed).
    let wire_deadline = Instant::now() + Duration::from_secs(5);
    let mut acked = false;
    while Instant::now() < wire_deadline && !acked {
        match connect(Duration::from_secs(1)) {
            Some(mut c) => acked = c.shutdown().is_ok(),
            None => break,
        }
    }
    if !acked {
        server.shutdown();
    }
    server.join().expect("clean join after the storm");
    assert!(
        wait_until_stopped_with(addr, Duration::from_secs(5), Duration::from_millis(2)),
        "seed {seed:#x}: server kept accepting after join"
    );

    (injected, tally)
}

#[test]
fn chaos_storm_answers_stay_byte_identical_and_the_server_survives() {
    install_quiet_panic_hook();

    let mut seeds: Vec<u64> = vec![0xC0FFEE, 0xBADA55, 0x5EED];
    if let Ok(raw) = std::env::var("FTBFS_CHAOS_SEED") {
        let extra: u64 = raw
            .parse()
            .unwrap_or_else(|_| panic!("FTBFS_CHAOS_SEED must be a u64, got {raw:?}"));
        println!("chaos: extra seed from FTBFS_CHAOS_SEED: {extra} ({extra:#x})");
        seeds.push(extra);
    }

    let spec = EngineSpec {
        n: 120,
        seed: 31,
        ..EngineSpec::default()
    };
    let graph = spec.graph();
    let core = spec
        .build_core(&graph, EngineOptions::new().serial())
        .expect("spec builds");
    let source = spec.source();

    // The workload: single-edge-fault (and fault-free) distance queries
    // over a deterministic spread of targets, with the occasional small
    // batch so the mid-batch deadline check sees traffic too.
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let requests: Vec<Request> = (0..CLIENT_THREADS * REQUESTS_PER_THREAD)
        .map(|i| {
            let target = VertexId((i * 13 % n) as u32);
            let faults = if i % 5 == 0 {
                FaultSet::new()
            } else {
                FaultSet::from(EdgeId((i * 7 % m) as u32))
            };
            if i % 97 == 0 {
                Request::BatchDist {
                    source,
                    queries: (0..4u32)
                        .map(|j| (VertexId(((i + j as usize * 11) % n) as u32), faults.clone()))
                        .collect(),
                }
            } else {
                Request::Dist {
                    source,
                    target,
                    faults,
                }
            }
        })
        .collect();

    // Ground truth from the same core, through a private context.
    let mut ctx = core.new_context();
    let expected: Vec<Vec<u8>> = requests
        .iter()
        .map(|req| {
            let resp = match req {
                Request::Dist {
                    source,
                    target,
                    faults,
                } => Response::Dist(
                    ctx.dist_after_faults_from(&core, *source, *target, faults)
                        .expect("valid query"),
                ),
                Request::BatchDist { source, queries } => Response::BatchDist(
                    queries
                        .iter()
                        .map(|(t, f)| {
                            ctx.dist_after_faults_from(&core, *source, *t, f)
                                .expect("valid query")
                        })
                        .collect(),
                ),
                other => panic!("unminted request {other:?}"),
            };
            encode_response(&resp)
        })
        .collect();

    let mut total = ChaosStatsSnapshot::default();
    for &seed in &seeds {
        let started = Instant::now();
        let (injected, tally) = run_storm(seed, &core, &requests, &expected);
        println!(
            "chaos seed {seed:#x}: {} faults injected (slow_read={} reset={} \
             partial_write={} accept={} panic={} stall={}) | {} ok, {} shed, \
             {} internal, {} deadline-exceeded, {} io errors in {:.1}s",
            injected.total(),
            injected.slow_reads,
            injected.conn_resets,
            injected.partial_writes,
            injected.accept_errors,
            injected.worker_panics,
            injected.queue_stalls,
            tally.ok,
            tally.shed,
            tally.internal,
            tally.deadline_exceeded,
            tally.io_errors,
            started.elapsed().as_secs_f64(),
        );
        total.slow_reads += injected.slow_reads;
        total.conn_resets += injected.conn_resets;
        total.partial_writes += injected.partial_writes;
        total.accept_errors += injected.accept_errors;
        total.worker_panics += injected.worker_panics;
        total.queue_stalls += injected.queue_stalls;
    }

    assert!(
        total.total() >= 1000,
        "the storm must inject at least 1000 faults, got {}",
        total.total()
    );
    assert!(
        total.all_kinds_hit(),
        "every fault kind must fire at least once: {total:?}"
    );
}

//! `ftb-loadgen` — open-loop load generator for `ftb-serve`, reporting
//! tail latency honestly.
//!
//! ```text
//! ftb-loadgen --addr 127.0.0.1:7411 --family erdos-renyi --n 2000 --seed 7 \
//!             --rate 2000 --requests 10000 --clients 4 --process poisson
//! ```
//!
//! The generator regenerates the served graph locally from the same
//! `(family, n, seed)` recipe and refuses to run unless the handshake
//! fingerprint matches — the queries it mints must name real vertices and
//! edges of the server's graph.
//!
//! **Open loop:** every request's send time is fixed by an
//! [`ArrivalSchedule`] before the run, and latency is measured from that
//! *scheduled* instant, not from the actual write. A slow server therefore
//! shows up as growing latency (client backlog included) instead of
//! silently lowering the offered rate — the difference between measuring
//! the system and measuring the client's politeness. Shed requests
//! (`Overloaded` frames) are counted separately from successes: under
//! saturation, the interesting number is how much load the admission
//! control refused.

use ftb_bench::LatencyHistogram;
use ftb_core::engine::TIER_ANSWERS_METRIC;
use ftb_core::TierCounters;
use ftb_obs::Scrape;
use ftb_server::{Client, EngineSpec, MetricsFormat, Request, Response, RetryPolicy, RetryStats};
use ftb_workloads::{ArrivalProcess, ArrivalSchedule, FaultScenario};
use std::process::exit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    spec: EngineSpec,
    rate: f64,
    requests: usize,
    clients: usize,
    process: ArrivalProcess,
    faults_per_set: usize,
    scenario: FaultScenario,
    /// 0 = classic one-request-per-target `Dist` replay; `T > 0` mints
    /// `DistMany` frames with `T` targets sharing each fault set.
    targets_per_request: usize,
    /// Dump the server's end-of-run metrics registry (JSON exposition)
    /// to this file, next to the latency report on stdout.
    metrics_out: Option<String>,
    shutdown: bool,
    /// Retries per request beyond the first attempt; 0 keeps the old
    /// fire-once behaviour (failures count once and move on).
    retries: u32,
    /// Client-supplied per-request budget; `None` sends bare requests.
    deadline: Option<Duration>,
}

fn usage() -> ! {
    eprintln!(
        "usage: ftb-loadgen --addr HOST:PORT [--rate R] [--requests Q] [--clients C]\n\
         \x20                  [--process fixed|poisson] [--f K] [--scenario NAME]\n\
         \x20                  [--targets T] [--retries N] [--deadline-ms MS]\n\
         \x20                  [--metrics-out FILE] [--shutdown]\n\
         \x20                  {}\n\
         scenarios: {}",
        EngineSpec::cli_usage(),
        FaultScenario::all()
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    exit(2)
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects a number, got {s:?}");
        usage()
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: String::new(),
        spec: EngineSpec::default(),
        rate: 1000.0,
        requests: 5000,
        clients: 4,
        process: ArrivalProcess::Poisson,
        faults_per_set: 1,
        scenario: FaultScenario::RandomEdges,
        targets_per_request: 0,
        metrics_out: None,
        shutdown: false,
        retries: 3,
        deadline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match args.spec.apply_cli_flag(&flag, &mut || it.next()) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(msg) => {
                eprintln!("{msg}");
                usage()
            }
        }
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--rate" => args.rate = parse_num(&value("--rate"), "--rate"),
            "--requests" => args.requests = parse_num(&value("--requests"), "--requests"),
            "--clients" => args.clients = parse_num(&value("--clients"), "--clients"),
            "--process" => {
                let name = value("--process");
                args.process = ArrivalProcess::parse(&name).unwrap_or_else(|| {
                    eprintln!("unknown arrival process {name:?}");
                    usage()
                });
            }
            "--f" => args.faults_per_set = parse_num(&value("--f"), "--f"),
            "--scenario" => {
                let name = value("--scenario");
                args.scenario = FaultScenario::all()
                    .iter()
                    .copied()
                    .find(|s| s.name() == name)
                    .unwrap_or_else(|| {
                        eprintln!("unknown scenario {name:?}");
                        usage()
                    });
            }
            "--targets" => args.targets_per_request = parse_num(&value("--targets"), "--targets"),
            "--retries" => args.retries = parse_num(&value("--retries"), "--retries"),
            "--deadline-ms" => {
                let ms: u64 = parse_num(&value("--deadline-ms"), "--deadline-ms");
                args.deadline = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")),
            "--shutdown" => args.shutdown = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    if args.addr.is_empty() {
        eprintln!("--addr is required");
        usage()
    }
    args
}

/// Per-thread outcome counters, merged after the run.
#[derive(Default)]
struct Tally {
    ok: u64,
    disconnected: u64,
    shed: u64,
    deadline_exceeded: u64,
    errors: u64,
    retry: RetryStats,
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

fn main() {
    let args = parse_args();
    let graph = args.spec.graph();
    let source = args.spec.source();
    let fingerprint = graph.fingerprint();

    // Handshake probe: the run is meaningless unless the server serves the
    // exact graph the workload was minted against.
    let mut probe = Client::connect(&args.addr).unwrap_or_else(|e| {
        eprintln!("ftb-loadgen: connect {} failed: {e}", args.addr);
        exit(1)
    });
    let info = probe.info().clone();
    if info.fingerprint != fingerprint {
        eprintln!(
            "ftb-loadgen: graph fingerprint mismatch: server {:#018x}, local {:#018x}\n\
             (server was started with a different --family/--n/--seed)",
            info.fingerprint, fingerprint
        );
        exit(1);
    }
    if !info.sources.contains(&source) {
        eprintln!("ftb-loadgen: server does not serve source {source:?}");
        exit(1);
    }

    // Mint the workload: scenario fault sets cycled over spread-out targets
    // (one-to-many mode pairs each fault set with a whole target list).
    let n = graph.num_vertices();
    let requests: Vec<Request> = if args.targets_per_request > 0 {
        let mut pairs = args.scenario.generate_one_to_many(
            &graph,
            source,
            args.faults_per_set,
            args.targets_per_request,
            64.min(args.requests.max(1)),
            args.spec.seed,
        );
        pairs.retain(|(s, _)| !s.is_empty());
        if pairs.is_empty() {
            eprintln!("ftb-loadgen: scenario produced no usable fault sets");
            exit(1);
        }
        (0..args.requests)
            .map(|i| {
                let (faults, targets) = &pairs[i % pairs.len()];
                Request::DistMany {
                    source,
                    targets: targets.clone(),
                    faults: faults.clone(),
                }
            })
            .collect()
    } else {
        let mut fault_sets = args.scenario.generate(
            &graph,
            source,
            args.faults_per_set,
            64.min(args.requests.max(1)),
            args.spec.seed,
        );
        fault_sets.retain(|s| !s.is_empty());
        if fault_sets.is_empty() {
            fault_sets.push(ftb_graph::FaultSet::new());
        }
        let target = |i: usize| {
            // Fibonacci hashing spreads targets over the vertex space
            // without pulling in an RNG.
            ftb_graph::VertexId(((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % n as u64) as u32)
        };
        (0..args.requests)
            .map(|i| Request::Dist {
                source,
                target: target(i),
                faults: fault_sets[i % fault_sets.len()].clone(),
            })
            .collect()
    };
    let schedule =
        ArrivalSchedule::generate(args.process, args.rate, requests.len(), args.spec.seed);

    println!(
        "ftb-loadgen: {} requests at {} req/s ({} arrivals), {} clients, scenario {} (f={}{}), graph {}",
        requests.len(),
        args.rate,
        args.process.name(),
        args.clients,
        args.scenario.name(),
        args.faults_per_set,
        if args.targets_per_request > 0 {
            format!(", one-to-many x{}", args.targets_per_request)
        } else {
            String::new()
        },
        args.spec.describe(),
    );

    // The probe's metrics scrapes ride the same retry machinery as the
    // load itself: Metrics is an idempotent read, and against a server
    // under chaos (or genuine duress) a single torn connection must not
    // abort the whole run.
    let probe_policy = RetryPolicy {
        max_retries: args.retries.max(3),
        seed: args.spec.seed ^ 0x5747_5453, // "STAT", distinct from load seeds
        ..RetryPolicy::default()
    };
    let mut probe_retry = RetryStats::default();
    let metrics = Request::Metrics {
        format: MetricsFormat::Prometheus,
    };
    let scrape = |probe: &mut Client, retry: &mut RetryStats| match probe.request_with_retry(
        &metrics,
        &probe_policy,
        retry,
    )? {
        Response::MetricsText(text) => Ok(Scrape::parse(&text)),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unexpected metrics reply: {other:?}"),
        )),
    };

    let before = scrape(&mut probe, &mut probe_retry).unwrap_or_else(|e| {
        eprintln!("ftb-loadgen: metrics scrape failed: {e}");
        exit(1)
    });
    let from_snapshot = before.get("ftb_engine_from_snapshot", &[]) == Some(1.0);
    println!(
        "server engine: source={} startup={:.1}ms{}",
        if from_snapshot { "snapshot" } else { "built" },
        before.get("ftb_engine_startup_seconds", &[]).unwrap_or(0.0) * 1e3,
        if from_snapshot {
            let version = before.counter("ftb_snapshot_format_version", &[]);
            format!(" snapshot_format=v{version}")
        } else {
            String::new()
        },
    );

    // Open-loop replay: a shared cursor hands out request indices; each
    // client thread waits for the request's scheduled instant, sends, and
    // charges the full scheduled-to-answered interval as latency.
    let cursor = Arc::new(AtomicUsize::new(0));
    let clients = args.clients.max(1).min(requests.len().max(1));
    let start = Instant::now() + Duration::from_millis(50);
    let mut merged_hist = LatencyHistogram::new();
    let mut merged_tally = Tally::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client_idx in 0..clients {
            let cursor = Arc::clone(&cursor);
            let addr = &args.addr;
            let requests = &requests;
            let schedule = &schedule;
            let deadline = args.deadline;
            let policy = RetryPolicy {
                max_retries: args.retries,
                // Distinct seeds per thread: clients that fail in lockstep
                // (e.g. all shed by the same full queue) back off apart.
                seed: args.spec.seed ^ (client_idx as u64).wrapping_mul(0x9E37_79B9),
                ..RetryPolicy::default()
            };
            handles.push(scope.spawn(move || {
                let mut hist = LatencyHistogram::new();
                let mut tally = Tally::default();
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(_) => {
                        tally.errors += 1;
                        return (hist, tally);
                    }
                };
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= requests.len() {
                        break;
                    }
                    let due = start + schedule.offsets()[i];
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let request;
                    let request = match deadline {
                        Some(budget) => {
                            request = Request::Deadline {
                                budget_ms: budget.as_millis().min(u32::MAX as u128) as u32,
                                inner: Box::new(requests[i].clone()),
                            };
                            &request
                        }
                        _ => &requests[i],
                    };
                    let result = client.request_with_retry(request, &policy, &mut tally.retry);
                    match result {
                        Ok(Response::Dist(d)) => {
                            tally.ok += 1;
                            if d.is_none() {
                                tally.disconnected += 1;
                            }
                            hist.record(due.elapsed().as_nanos() as u64);
                        }
                        Ok(Response::DistMany(ds)) => {
                            tally.ok += 1;
                            tally.disconnected += ds.iter().filter(|d| d.is_none()).count() as u64;
                            hist.record(due.elapsed().as_nanos() as u64);
                        }
                        Ok(Response::Overloaded) => tally.shed += 1,
                        Ok(Response::Error { code, .. })
                            if code == ftb_server::ErrorCode::DeadlineExceeded as u16 =>
                        {
                            tally.deadline_exceeded += 1
                        }
                        Ok(_) => tally.errors += 1,
                        Err(_) => {
                            tally.errors += 1;
                            // The retry budget is spent and the connection
                            // is gone; reconnect bare and go on.
                            match Client::connect(addr) {
                                Ok(c) => client = c,
                                Err(_) => break,
                            }
                        }
                    }
                }
                (hist, tally)
            }));
        }
        for handle in handles {
            if let Ok((hist, tally)) = handle.join() {
                merged_hist.merge(&hist);
                merged_tally.ok += tally.ok;
                merged_tally.disconnected += tally.disconnected;
                merged_tally.shed += tally.shed;
                merged_tally.deadline_exceeded += tally.deadline_exceeded;
                merged_tally.errors += tally.errors;
                merged_tally.retry.attempts += tally.retry.attempts;
                merged_tally.retry.retries += tally.retry.retries;
                merged_tally.retry.reconnects += tally.retry.reconnects;
                merged_tally.retry.gave_up += tally.retry.gave_up;
            }
        }
    });
    let wall = start.elapsed().as_secs_f64().max(1e-9);

    println!(
        "completed {} ok ({} disconnected answers), {} shed, {} deadline-exceeded, {} errors \
         in {:.2}s -> {:.0} req/s served",
        merged_tally.ok,
        merged_tally.disconnected,
        merged_tally.shed,
        merged_tally.deadline_exceeded,
        merged_tally.errors,
        wall,
        merged_tally.ok as f64 / wall,
    );
    if args.retries > 0 {
        println!(
            "retry: {} attempts for {} requests, {} retried, {} reconnects, {} gave up",
            merged_tally.retry.attempts,
            requests.len(),
            merged_tally.retry.retries,
            merged_tally.retry.reconnects,
            merged_tally.retry.gave_up,
        );
    }
    if merged_hist.count() > 0 {
        println!(
            "latency from scheduled send (client backlog included): \
             p50 {:.3}ms  p99 {:.3}ms  p999 {:.3}ms  max {:.3}ms  mean {:.3}ms",
            ms(merged_hist.value_at_quantile(0.50)),
            ms(merged_hist.value_at_quantile(0.99)),
            ms(merged_hist.value_at_quantile(0.999)),
            ms(merged_hist.max()),
            merged_hist.mean() / 1e6,
        );
        if args.targets_per_request > 0 {
            // Every request carries the same target count, so dividing the
            // per-request quantiles is the exact per-target amortisation.
            let t = args.targets_per_request as f64;
            println!(
                "amortised per-target ({} targets/request): \
                 p50 {:.3}ms  p99 {:.3}ms  p999 {:.3}ms  mean {:.3}ms",
                args.targets_per_request,
                ms(merged_hist.value_at_quantile(0.50)) / t,
                ms(merged_hist.value_at_quantile(0.99)) / t,
                ms(merged_hist.value_at_quantile(0.999)) / t,
                merged_hist.mean() / 1e6 / t,
            );
        }
    }

    match scrape(&mut probe, &mut probe_retry) {
        Ok(after) => {
            let delta = |name: &str, labels: &[(&str, &str)]| {
                after
                    .counter(name, labels)
                    .saturating_sub(before.counter(name, labels))
            };
            let engine = |name: &str| delta(&format!("ftb_engine_{name}_total"), &[]);
            println!(
                "server deltas: queries={} cached={} repaired_rows={} restricted_repairs={} \
                 accepted={} shed={}",
                engine("queries"),
                engine("cached_answers"),
                engine("repaired_rows"),
                engine("restricted_repairs"),
                delta("ftb_requests_admitted_total", &[]),
                delta("ftb_requests_shed_total", &[]),
            );
            let tiers: Vec<String> = TierCounters::NAMES
                .iter()
                .map(|&t| format!("{t}={}", delta(TIER_ANSWERS_METRIC, &[("tier", t)])))
                .collect();
            println!("server tiers: {}", tiers.join(" "));
        }
        Err(e) => eprintln!("ftb-loadgen: final metrics scrape failed: {e}"),
    }

    if let Some(path) = &args.metrics_out {
        // End-of-run registry snapshot: everything the server measured,
        // including the per-connection cells of the load clients that just
        // disconnected (their totals retire into the merged series).
        match probe.metrics_json() {
            Ok(json) => match std::fs::write(path, &json) {
                Ok(()) => println!("server metrics written to {path}"),
                Err(e) => {
                    eprintln!("ftb-loadgen: writing {path} failed: {e}");
                    exit(1);
                }
            },
            Err(e) => {
                eprintln!("ftb-loadgen: metrics fetch failed: {e}");
                exit(1);
            }
        }
    }

    if args.shutdown {
        match probe.shutdown() {
            Ok(()) => println!("server acknowledged shutdown"),
            Err(e) => {
                eprintln!("ftb-loadgen: shutdown failed: {e}");
                exit(1);
            }
        }
    }
    if merged_tally.ok == 0 {
        eprintln!("ftb-loadgen: no request succeeded");
        exit(1);
    }
}

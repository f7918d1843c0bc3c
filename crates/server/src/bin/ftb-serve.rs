//! `ftb-serve` — serve FT-BFS fault queries over TCP until a `Shutdown`
//! frame (or SIGKILL) arrives.
//!
//! ```text
//! # build in-process, then serve:
//! ftb-serve --addr 127.0.0.1:7411 --family erdos-renyi --n 2000 --seed 7 \
//!           --eps 0.3 --workers 4 --queue-depth 256
//! # restore a persisted engine instead of rebuilding:
//! ftb-serve --addr 127.0.0.1:7411 --snapshot engine.ftbsnap
//! # build fresh and persist for the next restart:
//! ftb-serve --addr 127.0.0.1:7411 --n 2000 --save-snapshot engine.ftbsnap
//! # expose the metrics payload to curl/Prometheus scrapers:
//! ftb-serve --addr 127.0.0.1:7411 --n 2000 --metrics-addr 127.0.0.1:7412
//! ```
//!
//! The graph is regenerated from `(family, n, seed)` — the same recipe
//! `ftb-loadgen` uses — and its fingerprint is exchanged in the handshake,
//! so a mismatched client fails fast instead of querying the wrong graph.
//! With `--snapshot` the engine (graph included) comes from the file; any
//! spec flags passed alongside are cross-checked against the snapshot's
//! embedded recipe and fingerprint rather than used to build.

use ftb_chaos::{ChaosConfig, SeededChaos};
use ftb_core::{EngineOptions, FtbfsError, SNAPSHOT_FORMAT_VERSION};
use ftb_server::{setup, EngineSpec, Provenance, ServeOptions, Server};
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    spec: EngineSpec,
    /// Any spec flag was passed explicitly (enables the cross-check
    /// against a snapshot's embedded spec).
    spec_given: bool,
    options: ServeOptions,
    snapshot: Option<PathBuf>,
    save_snapshot: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: ftb-serve [--addr HOST:PORT] [--snapshot FILE] [--save-snapshot FILE]\n\
         \x20                [--workers W] [--queue-depth D] [--idle-timeout-ms MS]\n\
         \x20                [--request-timeout-ms MS] [--chaos-seed S]\n\
         \x20                [--metrics-addr HOST:PORT] [--slow-log K] [--no-sampling]\n\
         \x20                {}\n\
         \x20 --workers W      query contexts, i.e. queries computed at once\n\
         \x20 --queue-depth D  connections allowed to wait for a context; the\n\
         \x20                  next one is answered Overloaded",
        EngineSpec::cli_usage()
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7411".to_string(),
        spec: EngineSpec::default(),
        spec_given: false,
        options: ServeOptions::default(),
        snapshot: None,
        save_snapshot: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match args.spec.apply_cli_flag(&flag, &mut || it.next()) {
            Ok(true) => {
                args.spec_given = true;
                continue;
            }
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
            "--snapshot" => args.snapshot = Some(PathBuf::from(value("--snapshot"))),
            "--save-snapshot" => args.save_snapshot = Some(PathBuf::from(value("--save-snapshot"))),
            "--workers" => args.options.workers = parse_num(&value("--workers"), "--workers"),
            "--queue-depth" => {
                args.options.queue_depth = parse_num(&value("--queue-depth"), "--queue-depth")
            }
            "--idle-timeout-ms" => {
                args.options.idle_timeout = Duration::from_millis(parse_num(
                    &value("--idle-timeout-ms"),
                    "--idle-timeout-ms",
                ))
            }
            "--metrics-addr" => {
                let addr = value("--metrics-addr");
                args.options.metrics_addr = Some(addr.parse().unwrap_or_else(|_| {
                    eprintln!("--metrics-addr expects HOST:PORT, got {addr:?}");
                    usage()
                }))
            }
            "--request-timeout-ms" => {
                let ms: u64 = parse_num(&value("--request-timeout-ms"), "--request-timeout-ms");
                // 0 disables the server-side deadline (clients may still set
                // their own via the protocol's Deadline wrapper).
                args.options.request_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--chaos-seed" => {
                let seed: u64 = parse_num(&value("--chaos-seed"), "--chaos-seed");
                eprintln!(
                    "ftb-serve: WARNING: fault injection enabled (--chaos-seed {seed}); \
                     this server will deliberately drop, stall, and corrupt its own \
                     operations. Never use in production."
                );
                args.options.chaos = Some(Arc::new(SeededChaos::new(ChaosConfig::storm(seed))));
            }
            "--slow-log" => {
                args.options.slow_log_capacity = parse_num(&value("--slow-log"), "--slow-log")
            }
            "--no-sampling" => args.options.sampling = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    if args.snapshot.is_some() && args.save_snapshot.is_some() {
        eprintln!("--snapshot and --save-snapshot are mutually exclusive");
        usage()
    }
    args
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects a number, got {s:?}");
        usage()
    })
}

fn main() {
    let start = Instant::now();
    let mut args = parse_args();

    let (core, spec, from_snapshot) = if let Some(path) = &args.snapshot {
        let (core, spec) = setup::load_snapshot(path, EngineOptions::new()).unwrap_or_else(|e| {
            eprintln!("ftb-serve: loading snapshot {} failed: {e}", path.display());
            exit(1)
        });
        if args.spec_given {
            // Spec flags alongside --snapshot are a cross-check, not a
            // build request: the snapshot must serve the exact graph the
            // flags name, reported as a core/graph mismatch.
            let local = args.spec.graph();
            let served = core.graph();
            if local.fingerprint() != served.fingerprint() {
                let err = FtbfsError::CoreGraphMismatch {
                    core_vertices: served.num_vertices(),
                    core_edges: served.num_edges(),
                    graph_vertices: local.num_vertices(),
                    graph_edges: local.num_edges(),
                };
                eprintln!(
                    "ftb-serve: snapshot {} does not serve the graph the flags name: {err}\n\
                     (snapshot was built from {})",
                    path.display(),
                    spec.describe(),
                );
                exit(1);
            }
            if args.spec != spec {
                eprintln!(
                    "ftb-serve: snapshot spec mismatch: file says {}, flags say {}",
                    spec.describe(),
                    args.spec.describe(),
                );
                exit(1);
            }
        }
        eprintln!(
            "ftb-serve: restored engine for {} from {}",
            spec.describe(),
            path.display()
        );
        (core, spec, true)
    } else {
        eprintln!("ftb-serve: building engine for {}", args.spec.describe());
        let graph = args.spec.graph();
        let core = args
            .spec
            .build_core(&graph, EngineOptions::new())
            .unwrap_or_else(|e| {
                eprintln!("ftb-serve: engine build failed: {e}");
                exit(1)
            });
        (core, args.spec, false)
    };

    if let Some(path) = &args.save_snapshot {
        if let Err(e) = setup::save_snapshot(path, &core, &spec) {
            eprintln!("ftb-serve: saving snapshot {} failed: {e}", path.display());
            exit(1);
        }
        eprintln!("ftb-serve: snapshot saved to {}", path.display());
    }

    args.options.provenance = Provenance {
        from_snapshot,
        startup_micros: start.elapsed().as_micros() as u64,
        snapshot_format_version: if from_snapshot {
            SNAPSHOT_FORMAT_VERSION
        } else {
            0
        },
    };

    let graph = core.graph();
    let (n, m, fingerprint) = (graph.num_vertices(), graph.num_edges(), graph.fingerprint());
    // `ServeOptions` is no longer `Copy` (it can hold a chaos injector), so
    // grab the fields the banner prints before `bind` consumes it.
    let (workers, queue_depth, startup_micros) = (
        args.options.workers,
        args.options.queue_depth,
        args.options.provenance.startup_micros,
    );
    let server = Server::bind(&args.addr, core, args.options).unwrap_or_else(|e| {
        eprintln!("ftb-serve: bind {} failed: {e}", args.addr);
        exit(1)
    });
    // The loadgen (and scripts) scrape this line for the resolved port.
    println!(
        "ftb-serve: listening on {} (n={}, m={}, fingerprint={:#018x}, workers={}, queue={}, \
         engine={}, startup={:.1}ms)",
        server.local_addr(),
        n,
        m,
        fingerprint,
        workers.max(1),
        queue_depth.max(1),
        if from_snapshot { "snapshot" } else { "built" },
        startup_micros as f64 / 1e3,
    );
    if let Some(metrics_addr) = server.metrics_addr() {
        println!("ftb-serve: metrics on http://{metrics_addr}/metrics");
    }
    if let Err(e) = server.join() {
        eprintln!("ftb-serve: {e}");
        exit(1);
    }
    println!("ftb-serve: shut down cleanly");
}

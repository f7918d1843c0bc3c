//! Round-trip tests of the public API: [`TradeoffBuilder`] at every ε
//! branch and over several sources across generator families, the
//! definition-level verifier, the [`EngineCore`] + `QueryContext` serving
//! path cross-checked against from-scratch BFS on small graphs, and the
//! typed error paths.

use ftbfs::graph::{enumerate_fault_sets, generators, EdgeId, Graph, SubgraphView, VertexId};
use ftbfs::par::ParallelConfig;
use ftbfs::sp::{bfs_distances_view, ShortestPathTree, TieBreakWeights, UNREACHABLE};
use ftbfs::workloads::{Workload, WorkloadFamily};
use ftbfs::{
    dist_after_faults_brute, verify_structure, EngineCore, EngineOptions, FaultSet, FtbfsError,
    Sources, StructureBuilder, TradeoffBuilder,
};
use std::sync::Arc;

const SEED: u64 = 0xA11CE;

/// Every `(source, vertex, single failing edge)` query of `graph`.
fn single_edge_queries(graph: &Graph, sources: &[VertexId]) -> Vec<(VertexId, VertexId, FaultSet)> {
    let mut queries = Vec::new();
    for &s in sources {
        for e in graph.edge_ids() {
            for v in graph.vertices() {
                queries.push((s, v, FaultSet::from(e)));
            }
        }
    }
    queries
}

/// A cross-section of generator families for the round trip: deterministic
/// generators plus seeded random workloads.
fn test_graphs(target_n: usize) -> Vec<(String, Graph)> {
    let mut graphs = vec![
        ("hypercube".to_string(), generators::hypercube(4)),
        ("grid".to_string(), generators::grid(5, 6)),
        (
            "clique_with_pendant".to_string(),
            generators::clique_with_pendant(18),
        ),
    ];
    for family in [
        WorkloadFamily::ErdosRenyi,
        WorkloadFamily::LayeredShallow,
        WorkloadFamily::PreferentialAttachment,
    ] {
        let w = Workload::new(family, target_n, SEED);
        graphs.push((w.label(), w.generate()));
    }
    graphs
}

#[test]
fn every_builder_verifies_across_generator_families() {
    for (name, graph) in test_graphs(80) {
        let last = VertexId::new(graph.num_vertices() - 1);
        // The three ε branches from one source, then the union over two
        // sources, which must stay valid for its root.
        let cases = [
            (0.3, Sources::single(VertexId(0))),
            (1.0, Sources::single(VertexId(0))),
            (0.0, Sources::single(VertexId(0))),
            (0.3, Sources::multi(vec![VertexId(0), last])),
        ];
        for (eps, sources) in cases {
            let label = format!("{name}/eps={eps}/sources={:?}", sources.as_slice());
            let s = TradeoffBuilder::new(eps)
                .with_config(|c| c.with_seed(SEED))
                .build(&graph, &sources)
                .unwrap_or_else(|e| panic!("{label}: build failed: {e}"));
            assert_eq!(
                s.num_backup() + s.num_reinforced(),
                s.num_edges(),
                "{label}: edge accounting broken"
            );
            let weights = TieBreakWeights::generate(&graph, SEED);
            let tree = ShortestPathTree::build(&graph, &weights, VertexId(0));
            let report = verify_structure(&graph, &tree, &s, &ParallelConfig::serial(), false);
            assert!(
                report.is_valid(),
                "{label}: {} violations over {} checked edges",
                report.violations.len(),
                report.checked_edges
            );
        }
    }
}

#[test]
fn eps_extremes_are_pure_backup_and_pure_reinforcement() {
    for (name, graph) in [
        ("grid", generators::grid(4, 5)),
        ("hypercube", generators::hypercube(4)),
    ] {
        let sources = Sources::single(VertexId(0));
        let build = |eps: f64| {
            TradeoffBuilder::new(eps)
                .with_config(|c| c.with_seed(SEED).serial())
                .build(&graph, &sources)
                .expect("valid input")
        };
        for eps in [1.0, 0.5] {
            let s = build(eps);
            assert_eq!(s.num_reinforced(), 0, "{name}/eps={eps}");
            assert!(s.stats().used_baseline, "{name}/eps={eps}");
        }
        let s = build(0.0);
        assert_eq!(s.num_backup(), 0, "{name}");
        let weights = TieBreakWeights::generate(&graph, SEED);
        let tree = ShortestPathTree::build(&graph, &weights, VertexId(0));
        let mut t0: Vec<EdgeId> = tree.tree_edges().to_vec();
        t0.sort_unstable();
        assert_eq!(s.reinforced_edges().collect::<Vec<_>>(), t0, "{name}");
    }
}

/// Acceptance criterion: `dist_after_faults(v, {e})` agrees with a from-scratch
/// BFS on `G \ {e}` for **all** `(v, e)` pairs on small graphs (n ≤ 64)
/// across several workload families.
#[test]
fn engine_agrees_with_brute_force_on_all_pairs() {
    let small_graphs: Vec<(String, Graph)> = vec![
        ("hypercube".into(), generators::hypercube(4)), // n = 16
        ("grid".into(), generators::grid(5, 5)),        // n = 25
        (
            "clique_with_pendant".into(),
            generators::clique_with_pendant(12),
        ),
        (
            Workload::new(WorkloadFamily::ErdosRenyi, 40, SEED).label(),
            Workload::new(WorkloadFamily::ErdosRenyi, 40, SEED).generate(),
        ),
        (
            Workload::new(WorkloadFamily::LayeredShallow, 48, SEED).label(),
            Workload::new(WorkloadFamily::LayeredShallow, 48, SEED).generate(),
        ),
        (
            Workload::new(WorkloadFamily::GridChords, 36, SEED).label(),
            Workload::new(WorkloadFamily::GridChords, 36, SEED).generate(),
        ),
    ];
    for (name, graph) in small_graphs {
        assert!(graph.num_vertices() <= 64, "{name} exceeds the n<=64 bound");
        for eps in [0.0, 0.3, 1.0] {
            let structure = TradeoffBuilder::new(eps)
                .with_config(|c| c.with_seed(SEED).serial())
                .build(&graph, &Sources::single(VertexId(0)))
                .expect("valid input");
            let core = EngineCore::build(&graph, structure).expect("structure matches graph");
            let mut ctx = core.new_context();
            for e in graph.edge_ids() {
                for v in graph.vertices() {
                    let got = ctx
                        .dist_after_faults(&core, v, &e.into())
                        .expect("in range");
                    let view = SubgraphView::full(&graph).without_edge(e);
                    let brute = bfs_distances_view(&view, VertexId(0))[v.index()];
                    let want = (brute != UNREACHABLE).then_some(brute);
                    assert_eq!(
                        got, want,
                        "{name} (eps={eps}): dist(s, {v:?}, G\\{{{e:?}}}) mismatch"
                    );
                }
            }
        }
    }
}

#[test]
fn engine_batches_and_paths_are_consistent() {
    let graph = Workload::new(WorkloadFamily::ErdosRenyi, 50, SEED).generate();
    let structure = TradeoffBuilder::new(0.25)
        .with_config(|c| c.with_seed(SEED).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let core = EngineCore::build(&graph, structure).expect("matching graph");
    let mut ctx = core.new_context();
    let queries = single_edge_queries(&graph, &[VertexId(0)]);
    let batched = ctx.query_many_faults(&core, &queries).expect("in range");
    for (i, (_, v, f)) in queries.iter().enumerate() {
        assert_eq!(
            batched[i],
            ctx.dist_after_faults(&core, *v, f).expect("in range"),
            "batched vs single mismatch at ({v:?}, {f})"
        );
        if let Some(d) = batched[i] {
            let p = ctx
                .path_after_faults(&core, *v, f)
                .expect("in range")
                .expect("reachable vertices have witness paths");
            assert_eq!(p.len() as u32, d);
            assert!(f.edges().all(|e| !p.contains_edge(e)));
        }
    }
}

/// Acceptance criterion: parallel `query_many_faults` (2+ worker threads, multi-row
/// LRU enabled) agrees with brute-force BFS **and** with the serial path on
/// all `(v, e)` pairs of several generated graphs.
#[test]
fn parallel_query_many_agrees_with_brute_force_and_serial() {
    let graphs: Vec<(String, Graph)> = vec![
        ("hypercube".into(), generators::hypercube(4)),
        ("grid".into(), generators::grid(5, 5)),
        (
            Workload::new(WorkloadFamily::ErdosRenyi, 40, SEED).label(),
            Workload::new(WorkloadFamily::ErdosRenyi, 40, SEED).generate(),
        ),
        (
            Workload::new(WorkloadFamily::GridChords, 36, SEED).label(),
            Workload::new(WorkloadFamily::GridChords, 36, SEED).generate(),
        ),
    ];
    for (name, graph) in graphs {
        let structure = TradeoffBuilder::new(0.3)
            .with_config(|c| c.with_seed(SEED).serial())
            .build(&graph, &Sources::single(VertexId(0)))
            .expect("valid input");
        let queries = single_edge_queries(&graph, &[VertexId(0)]);

        let serial =
            EngineCore::build_with(&graph, structure.clone(), EngineOptions::new().serial())
                .expect("matching graph");
        let serial_answers = serial
            .new_context()
            .query_many_faults(&serial, &queries)
            .expect("in range");

        for threads in [2usize, 4] {
            let sharded = EngineCore::build_with(
                &graph,
                structure.clone(),
                EngineOptions::new().with_parallel(ParallelConfig::with_threads(threads)),
            )
            .expect("matching graph");
            let answers = sharded
                .new_context()
                .query_many_faults(&sharded, &queries)
                .expect("in range");
            assert_eq!(
                answers, serial_answers,
                "{name}: {threads}-thread batch diverged from serial"
            );
        }
        for (i, (_, v, f)) in queries.iter().enumerate() {
            let e = f.as_single_edge().expect("single-edge batch");
            let view = SubgraphView::full(&graph).without_edge(e);
            let brute = bfs_distances_view(&view, VertexId(0))[v.index()];
            let want = (brute != UNREACHABLE).then_some(brute);
            assert_eq!(
                serial_answers[i], want,
                "{name}: dist(s, {v:?}, G\\{{{e:?}}}) mismatch"
            );
        }
    }
}

/// Acceptance criterion: two contexts created by `EngineCore::new_context`
/// serve queries concurrently from one `Arc<EngineCore>` on real threads.
#[test]
fn two_contexts_serve_concurrently_from_one_shared_core() {
    let graph = Workload::new(WorkloadFamily::ErdosRenyi, 60, SEED).generate();
    let structure = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(SEED).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let core = Arc::new(EngineCore::build(&graph, structure).expect("matching graph"));

    // Expected answers from a plain serial context.
    let queries = single_edge_queries(&graph, &[VertexId(0)]);
    let expected: Vec<Option<u32>> = {
        let mut ctx = core.new_context();
        ctx.query_many_faults(&core, &queries).expect("in range")
    };

    // Two real threads, one context each, interleaved access patterns: the
    // core is shared immutably, the contexts never touch each other.
    let forward = {
        let core = Arc::clone(&core);
        let queries = queries.clone();
        std::thread::spawn(move || {
            let mut ctx = core.new_context();
            queries
                .iter()
                .map(|(_, v, f)| ctx.dist_after_faults(&core, *v, f).expect("in range"))
                .collect::<Vec<_>>()
        })
    };
    let backward = {
        let core = Arc::clone(&core);
        let queries = queries.clone();
        std::thread::spawn(move || {
            let mut ctx = core.new_context();
            let mut answers: Vec<Option<u32>> = queries
                .iter()
                .rev()
                .map(|(_, v, f)| ctx.dist_after_faults(&core, *v, f).expect("in range"))
                .collect();
            answers.reverse();
            answers
        })
    };
    assert_eq!(forward.join().expect("forward worker panicked"), expected);
    assert_eq!(backward.join().expect("backward worker panicked"), expected);
}

#[test]
fn multi_source_engine_serves_each_source_exactly() {
    let graph = Workload::new(WorkloadFamily::LayeredShallow, 48, SEED).generate();
    let sources = vec![VertexId(0), VertexId(10), VertexId(20)];
    let mbfs = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(SEED).serial())
        .build_multi(&graph, &Sources::multi(sources.clone()))
        .expect("valid input");
    let core = EngineCore::build_multi_with(
        &graph,
        mbfs,
        EngineOptions::new().with_parallel(ParallelConfig::with_threads(2)),
    )
    .expect("matching graph");
    let mut ctx = core.new_context();
    assert_eq!(core.sources(), sources.as_slice());
    let queries = single_edge_queries(&graph, &sources);
    let batch = ctx.query_many_faults(&core, &queries).expect("in range");
    for (i, (s, v, f)) in queries.iter().enumerate() {
        let (s, v) = (*s, *v);
        let e = f.as_single_edge().expect("single-edge batch");
        let view = SubgraphView::full(&graph).without_edge(e);
        let brute = bfs_distances_view(&view, s)[v.index()];
        let want = (brute != UNREACHABLE).then_some(brute);
        assert_eq!(batch[i], want, "source {s:?}, vertex {v:?}, edge {e:?}");
    }
    assert!(matches!(
        ctx.dist_after_faults_from(&core, VertexId(1), VertexId(0), &EdgeId(0).into()),
        Err(FtbfsError::SourceNotServed { .. })
    ));
}

/// Acceptance criterion: a single edge failure returns byte-identical
/// results whichever entry form names it — which is exactly brute-force BFS
/// on `G ∖ {e}` (asserted above in
/// `engine_agrees_with_brute_force_on_all_pairs`): the primary-source and
/// explicit-source forms, `FaultSet::from(e)` and
/// `FaultSet::single_edge(e)`, single queries and batches are one code
/// path — same answers, same work counters.
#[test]
fn single_edge_failures_are_byte_identical_across_entry_forms() {
    for family in [WorkloadFamily::ErdosRenyi, WorkloadFamily::GridChords] {
        let w = Workload::new(family, 40, SEED);
        let graph = w.generate();
        let structure = TradeoffBuilder::new(0.3)
            .with_config(|c| c.with_seed(SEED).serial())
            .build(&graph, &Sources::single(VertexId(0)))
            .expect("valid input");
        let core = EngineCore::build(&graph, structure).expect("matching graph");
        let (mut a, mut b) = (core.new_context(), core.new_context());
        let s = core.primary_source();
        for e in graph.edge_ids() {
            for v in graph.vertices() {
                assert_eq!(
                    a.dist_after_faults(&core, v, &FaultSet::from(e))
                        .expect("in range"),
                    b.dist_after_faults_from(&core, s, v, &FaultSet::single_edge(e))
                        .expect("in range"),
                    "{}: ({v:?}, {e:?})",
                    w.label()
                );
            }
        }
        assert_eq!(
            a.stats(),
            b.stats(),
            "{}: the two forms must do identical work",
            w.label()
        );
        // Batches too: one batch equals the single queries it bundles.
        let queries = single_edge_queries(&graph, &[s]);
        let singles: Vec<Option<u32>> = queries
            .iter()
            .map(|(_, v, f)| a.dist_after_faults(&core, *v, f).expect("in range"))
            .collect();
        assert_eq!(
            b.query_many_faults(&core, &queries).expect("in range"),
            singles,
            "{}: batched vs single-query mismatch",
            w.label()
        );
    }
}

/// Acceptance criterion: `dist_after_faults` / `path_after_faults` match
/// brute-force BFS-with-faults on every fault set of size ≤ 2, for the
/// single-source engine, serial and sharded. (The multi-source twin and the
/// per-scenario suite live in `tests/multi_fault.rs`.)
#[test]
fn fault_set_queries_match_brute_force_on_all_sets_up_to_two() {
    let w = Workload::new(WorkloadFamily::LayeredShallow, 30, SEED);
    let graph = w.generate();
    let structure = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(SEED).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let sets = enumerate_fault_sets(&graph, 2);
    let serial = EngineCore::build_with(&graph, structure.clone(), EngineOptions::new().serial())
        .expect("matching graph");
    let sharded = EngineCore::build_with(
        &graph,
        structure,
        EngineOptions::new().with_parallel(ParallelConfig::with_threads(4)),
    )
    .expect("matching graph");
    let queries: Vec<(VertexId, VertexId, FaultSet)> = sets
        .iter()
        .flat_map(|fs| graph.vertices().map(move |v| (VertexId(0), v, fs.clone())))
        .collect();
    let mut ctx = serial.new_context();
    let serial_answers = ctx.query_many_faults(&serial, &queries).expect("in range");
    let sharded_answers = sharded
        .new_context()
        .query_many_faults(&sharded, &queries)
        .expect("in range");
    assert_eq!(serial_answers, sharded_answers, "sharded diverged");
    for (i, (_, v, fs)) in queries.iter().enumerate() {
        let brute = dist_after_faults_brute(&graph, VertexId(0), fs)[v.index()];
        let want = (brute != UNREACHABLE).then_some(brute);
        assert_eq!(serial_answers[i], want, "{}: {v:?} under {fs}", w.label());
        if let Some(d) = want {
            let p = ctx
                .path_after_faults(&serial, *v, fs)
                .expect("in range")
                .expect("reachable vertices have witness paths");
            assert_eq!(p.len() as u32, d);
            for e in fs.edges() {
                assert!(!p.contains_edge(e));
            }
            for fv in fs.vertices() {
                assert!(!p.vertices().contains(&fv));
            }
        }
    }
}

#[test]
fn fault_set_error_paths_are_typed_through_the_context() {
    let graph = generators::grid(4, 4);
    let structure = TradeoffBuilder::new(0.3)
        .with_config(|c| c.serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    // Default cap is 2; a 3-set is rejected, and the cap is configurable.
    let three: FaultSet = (0..3).map(|i| ftbfs::Fault::Edge(EdgeId(i))).collect();
    let core = EngineCore::build(&graph, structure.clone()).expect("matching graph");
    assert_eq!(
        core.new_context()
            .dist_after_faults(&core, VertexId(1), &three),
        Err(FtbfsError::FaultSetTooLarge { got: 3, max: 2 })
    );
    let wide = EngineCore::build_with(
        &graph,
        structure,
        EngineOptions::new().with_max_faults(3).serial(),
    )
    .expect("matching graph");
    let mut ctx = wide.new_context();
    assert!(ctx.dist_after_faults(&wide, VertexId(1), &three).is_ok());
    assert!(matches!(
        ctx.dist_after_faults(&wide, VertexId(1), &FaultSet::single_vertex(VertexId(99))),
        Err(FtbfsError::InvalidFault { .. })
    ));
}

#[test]
fn invalid_eps_is_a_typed_error_not_a_panic() {
    let graph = generators::grid(4, 4);
    let sources = Sources::single(VertexId(0));
    for eps in [-0.5, 1.5, f64::NAN, f64::INFINITY] {
        let err = TradeoffBuilder::new(eps)
            .build(&graph, &sources)
            .expect_err("bad eps must be rejected");
        assert!(
            matches!(err, FtbfsError::InvalidEps { .. }),
            "eps={eps} produced {err:?}"
        );
    }
}

#[test]
fn bad_sources_are_typed_errors() {
    let graph = generators::grid(4, 4);
    let out_of_range = TradeoffBuilder::new(0.3)
        .build(&graph, &Sources::single(VertexId(1000)))
        .expect_err("out-of-range source must be rejected");
    assert!(matches!(
        out_of_range,
        FtbfsError::SourceOutOfRange {
            source: VertexId(1000),
            ..
        }
    ));

    let empty = TradeoffBuilder::new(0.3)
        .build(&graph, &Sources::multi(Vec::new()))
        .expect_err("empty source set must be rejected");
    assert_eq!(empty, FtbfsError::EmptySources);

    let multi_bad = TradeoffBuilder::new(0.3)
        .build_multi(&graph, &Sources::multi(vec![VertexId(0), VertexId(77)]))
        .expect_err("any out-of-range source must be rejected");
    assert!(matches!(multi_bad, FtbfsError::SourceOutOfRange { .. }));
}

#[test]
fn disconnected_source_is_reported_when_required() {
    // Two disjoint 4-cycles.
    let mut b = ftbfs::graph::GraphBuilder::new(8);
    for (x, y) in [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 0),
        (4, 5),
        (5, 6),
        (6, 7),
        (7, 4),
    ] {
        b.add_edge(VertexId(x), VertexId(y));
    }
    let graph = b.build();
    let strict = TradeoffBuilder::new(0.3).with_config(|c| c.with_require_connected(true));
    let err = strict
        .build(&graph, &Sources::single(VertexId(0)))
        .expect_err("strict mode must reject the disconnected input");
    assert_eq!(
        err,
        FtbfsError::DisconnectedSource {
            source: VertexId(0),
            num_unreachable: 4
        }
    );
    // Lenient mode still builds (the unreachable half simply stays out).
    let lenient = TradeoffBuilder::new(0.3);
    assert!(lenient.build(&graph, &Sources::single(VertexId(0))).is_ok());
}

#[test]
fn degenerate_budget_overrides_are_typed_errors() {
    let graph = generators::grid(4, 4);
    let err = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_budget_override(Some(0)))
        .build(&graph, &Sources::single(VertexId(0)))
        .expect_err("zero budget must be rejected");
    assert!(matches!(err, FtbfsError::BudgetOverflow { .. }));

    let err = TradeoffBuilder::new(0.3)
        .with_config(|c| {
            c.with_k_override(Some(usize::MAX))
                .with_budget_override(Some(usize::MAX))
        })
        .build(&graph, &Sources::single(VertexId(0)))
        .expect_err("overflowing work envelope must be rejected");
    assert!(matches!(err, FtbfsError::BudgetOverflow { .. }));

    // 1/ε overflows `usize`, so K saturates and the envelope overflows.
    let err = TradeoffBuilder::new(1e-300)
        .build(&graph, &Sources::single(VertexId(0)))
        .expect_err("a tiny eps must be rejected, not wrapped");
    assert!(matches!(err, FtbfsError::BudgetOverflow { .. }));
}

#[test]
fn engine_rejects_foreign_structures_and_bad_queries() {
    let g1 = generators::grid(3, 4);
    let g2 = generators::hypercube(4);
    let s = TradeoffBuilder::new(0.3)
        .with_config(|c| c.serial())
        .build(&g1, &Sources::single(VertexId(0)))
        .expect("valid input");
    assert!(matches!(
        EngineCore::build(&g2, s.clone()),
        Err(FtbfsError::StructureMismatch { .. })
    ));

    let core = EngineCore::build(&g1, s).expect("matching graph");
    let mut ctx = core.new_context();
    assert!(matches!(
        ctx.dist_after_faults(&core, VertexId(500), &EdgeId(0).into()),
        Err(FtbfsError::VertexOutOfRange { .. })
    ));
    assert!(matches!(
        ctx.dist_after_faults(&core, VertexId(0), &EdgeId(500).into()),
        Err(FtbfsError::InvalidFault { .. })
    ));
}

#[test]
fn error_messages_are_human_readable() {
    let graph = generators::grid(3, 3);
    let err = TradeoffBuilder::new(7.0)
        .build(&graph, &Sources::single(VertexId(0)))
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains('7'), "message should name the value: {msg}");
    let err: Box<dyn std::error::Error> = Box::new(err);
    assert!(!err.to_string().is_empty());
}

use super::context::LRU_ROWS;
use super::*;
use crate::builder::{Sources, StructureBuilder, TradeoffBuilder};
use crate::error::FtbfsError;
use crate::verify::dist_after_faults_brute;
use ftb_graph::{generators, EdgeId, Fault, FaultSet, Graph, SubgraphView, VertexId};
use ftb_par::ParallelConfig;
use ftb_sp::{bfs_distances_view, UNREACHABLE};
use std::sync::Arc;

fn core_for(graph: &Graph, eps: f64, seed: u64) -> EngineCore {
    let s = TradeoffBuilder::new(eps)
        .with_config(|c| c.with_seed(seed).serial())
        .build(graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    EngineCore::build(graph, s).expect("matching graph")
}

fn brute_force_from(graph: &Graph, s: VertexId, v: VertexId, e: EdgeId) -> Option<u32> {
    let view = SubgraphView::full(graph).without_edge(e);
    let d = bfs_distances_view(&view, s)[v.index()];
    if d == UNREACHABLE {
        None
    } else {
        Some(d)
    }
}

fn brute_force(graph: &Graph, v: VertexId, e: EdgeId) -> Option<u32> {
    brute_force_from(graph, VertexId(0), v, e)
}

fn brute_faults(graph: &Graph, s: VertexId, v: VertexId, faults: &FaultSet) -> Option<u32> {
    let d = dist_after_faults_brute(graph, s, faults)[v.index()];
    (d != UNREACHABLE).then_some(d)
}

/// Every `(source, vertex, single failing edge)` query of `graph`, edge-major.
fn all_single_edge_queries(
    graph: &Graph,
    sources: &[VertexId],
) -> Vec<(VertexId, VertexId, FaultSet)> {
    let mut queries = Vec::new();
    for e in graph.edge_ids() {
        for &s in sources {
            for v in graph.vertices() {
                queries.push((s, v, FaultSet::from(e)));
            }
        }
    }
    queries
}

/// Options with the repair/fast path pinned **on**, so these tests keep
/// exercising the repaired pipeline even under `FTBFS_FORCE_FULL_SWEEP=1`
/// (CI runs the whole suite that way to cover the escape hatch).
fn repaired_options() -> EngineOptions {
    EngineOptions::new().serial().with_force_full_sweep(false)
}

#[test]
fn engine_core_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EngineCore>();
    assert_send_sync::<Arc<EngineCore>>();
    fn assert_send<T: Send>() {}
    assert_send::<QueryContext>();
}

#[test]
fn distances_match_brute_force_on_all_pairs() {
    for (name, graph) in [
        ("hypercube", generators::hypercube(3)),
        ("grid", generators::grid(4, 4)),
        ("clique_pendant", generators::clique_with_pendant(10)),
        ("cycle", generators::cycle(12)),
    ] {
        let core = core_for(&graph, 0.3, 7);
        let mut ctx = core.new_context();
        for e in graph.edge_ids() {
            for v in graph.vertices() {
                let got = ctx
                    .dist_after_faults(&core, v, &e.into())
                    .expect("in range");
                let want = brute_force(&graph, v, e);
                assert_eq!(got, want, "{name}: vertex {v:?}, edge {e:?}");
            }
        }
    }
}

#[test]
fn paths_are_valid_witnesses_of_the_distances() {
    let graph = generators::grid(4, 5);
    let core = core_for(&graph, 0.25, 3);
    let mut ctx = core.new_context();
    for e in graph.edge_ids() {
        for v in graph.vertices() {
            let d = ctx
                .dist_after_faults(&core, v, &e.into())
                .expect("in range");
            let p = ctx
                .path_after_faults(&core, v, &e.into())
                .expect("in range");
            match (d, p) {
                (None, None) => {}
                (Some(d), Some(p)) => {
                    assert_eq!(p.len() as u32, d, "path length mismatch at {v:?}/{e:?}");
                    assert_eq!(p.first(), VertexId(0));
                    assert_eq!(p.last(), v);
                    assert!(!p.contains_edge(e), "path uses the failed edge");
                    // consecutive vertices really are joined by the edges
                    for (i, &pe) in p.edges().iter().enumerate() {
                        let edge = graph.edge(pe);
                        let (a, b) = (p.vertices()[i], p.vertices()[i + 1]);
                        assert!(edge.is_incident(a) && edge.is_incident(b));
                    }
                }
                (d, p) => panic!("distance {d:?} but path {p:?}"),
            }
        }
    }
}

#[test]
fn batched_queries_match_single_queries() {
    let graph = generators::hypercube(4);
    let core = core_for(&graph, 0.3, 5);
    let mut ctx = core.new_context();
    let queries = all_single_edge_queries(&graph, &[VertexId(0)]);
    let batch = ctx.query_many_faults(&core, &queries).expect("in range");
    let core2 = core_for(&graph, 0.3, 5);
    let mut ctx2 = core2.new_context();
    for (i, (_, v, f)) in queries.iter().enumerate() {
        assert_eq!(
            batch[i],
            ctx2.dist_after_faults(&core2, *v, f).expect("in range")
        );
    }
    // grouping by edge keeps the number of sweeps at one per distinct
    // structure edge at most
    let stats = ctx.stats();
    assert!(stats.structure_bfs_runs + stats.full_graph_bfs_runs <= graph.num_edges());
    assert_eq!(stats.queries, queries.len());
}

#[test]
fn sharded_and_serial_batches_are_identical() {
    let graph = generators::grid(6, 6);
    let s = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(9).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let queries = all_single_edge_queries(&graph, &[VertexId(0)]);
    let serial =
        EngineCore::build_with(&graph, s.clone(), EngineOptions::new().serial()).expect("matching");
    let sharded = EngineCore::build_with(
        &graph,
        s,
        EngineOptions::new().with_parallel(ParallelConfig::with_threads(4)),
    )
    .expect("matching graph");
    let (mut sctx, mut pctx) = (serial.new_context(), sharded.new_context());
    let a = sctx.query_many_faults(&serial, &queries).expect("in range");
    let b = pctx
        .query_many_faults(&sharded, &queries)
        .expect("in range");
    assert_eq!(a, b, "sharded batch diverged from the serial path");
    // Both paths account for every query in their counters.
    assert_eq!(sctx.stats().queries, queries.len());
    assert_eq!(pctx.stats().queries, queries.len());
}

#[test]
fn repeated_edge_queries_hit_the_row_cache() {
    let graph = generators::grid(5, 5);
    let core = core_for(&graph, 0.3, 11);
    let mut ctx = core.new_context();
    let e = *core
        .structure()
        .edges()
        .collect::<Vec<_>>()
        .first()
        .expect("structure has edges");
    for v in graph.vertices() {
        ctx.dist_after_faults(&core, v, &e.into())
            .expect("in range");
    }
    let stats = ctx.stats();
    assert!(stats.structure_bfs_runs + stats.full_graph_bfs_runs <= 1);
    assert!(stats.cached_answers >= graph.num_vertices() - 1);
}

#[test]
fn lru_capacity_bounds_recomputation() {
    let graph = generators::grid(5, 5);
    let s = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(11).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let edges: Vec<EdgeId> = s.edges().take(LRU_ROWS + 1).collect();
    assert_eq!(
        edges.len(),
        LRU_ROWS + 1,
        "structure too small for the LRU test"
    );
    // Force full sweeps: this test counts one search per miss, and the
    // unaffected fast path would answer some probes without any row.
    let core = EngineCore::build_with(
        &graph,
        s,
        EngineOptions::new().serial().with_force_full_sweep(true),
    )
    .expect("matching graph");
    let runs =
        |ctx: &QueryContext| ctx.stats().structure_bfs_runs + ctx.stats().full_graph_bfs_runs;
    let rotate = |ctx: &mut QueryContext, edges: &[EdgeId]| {
        for _ in 0..4 {
            for &e in edges {
                ctx.dist_after_faults(&core, VertexId(1), &e.into())
                    .expect("in range");
            }
        }
    };

    // One failure more than the LRU holds: a round-robin evicts on every
    // step, so every query repeats its search.
    let mut over = core.new_context();
    rotate(&mut over, &edges);
    assert_eq!(
        runs(&over),
        4 * edges.len(),
        "a working set past capacity must recompute on every rotation"
    );

    // A working set of exactly LRU_ROWS fits: each failure is searched once.
    let mut fits = core.new_context();
    rotate(&mut fits, &edges[..LRU_ROWS]);
    assert_eq!(
        runs(&fits),
        LRU_ROWS,
        "a working set of LRU_ROWS failures must stay cached"
    );
    assert_eq!(fits.stats().cached_answers, 3 * LRU_ROWS);
}

#[test]
fn non_structure_edges_answer_from_the_fault_free_row() {
    let graph = generators::complete(8);
    let core = core_for(&graph, 0.3, 13);
    let mut ctx = core.new_context();
    let outside = graph
        .edge_ids()
        .find(|&e| !core.structure().contains_edge(e))
        .expect("K8 structure is sparse");
    let before = ctx.stats();
    for v in graph.vertices() {
        let d = ctx
            .dist_after_faults(&core, v, &outside.into())
            .expect("in range");
        assert_eq!(d, core.fault_free_dist(VertexId(0), v).expect("in range"));
    }
    let after = ctx.stats();
    assert_eq!(before.structure_bfs_runs, after.structure_bfs_runs);
    assert_eq!(before.full_graph_bfs_runs, after.full_graph_bfs_runs);
}

#[test]
fn out_of_range_queries_are_typed_errors() {
    let graph = generators::grid(3, 3);
    let core = core_for(&graph, 0.3, 1);
    let mut ctx = core.new_context();
    assert!(matches!(
        ctx.dist_after_faults(&core, VertexId(99), &EdgeId(0).into()),
        Err(FtbfsError::VertexOutOfRange { .. })
    ));
    assert!(matches!(
        ctx.dist_after_faults(&core, VertexId(0), &EdgeId(999).into()),
        Err(FtbfsError::InvalidFault { .. })
    ));
    assert!(matches!(
        ctx.path_after_faults(&core, VertexId(99), &EdgeId(0).into()),
        Err(FtbfsError::VertexOutOfRange { .. })
    ));
    assert!(matches!(
        ctx.query_many_faults(&core, &[(VertexId(0), VertexId(0), EdgeId(999).into())]),
        Err(FtbfsError::InvalidFault { .. })
    ));
    assert!(matches!(
        core.fault_free_dist(VertexId(0), VertexId(99)),
        Err(FtbfsError::VertexOutOfRange { .. })
    ));
}

#[test]
fn contexts_are_tied_to_their_core() {
    let g1 = generators::grid(3, 3);
    let g2 = generators::grid(3, 3);
    let build = |g: &Graph| {
        let s = TradeoffBuilder::new(0.3)
            .with_config(|c| c.serial())
            .build(g, &Sources::single(VertexId(0)))
            .expect("valid input");
        EngineCore::build(g, s).expect("matching graph")
    };
    let core1 = build(&g1);
    let core2 = build(&g2);
    let mut ctx1 = core1.new_context();
    let e0 = FaultSet::from(EdgeId(0));
    assert!(ctx1.dist_after_faults(&core1, VertexId(1), &e0).is_ok());
    assert_eq!(
        ctx1.dist_after_faults(&core2, VertexId(1), &e0),
        Err(FtbfsError::ContextMismatch)
    );
    assert_eq!(
        ctx1.query_many_faults(&core2, &[(VertexId(0), VertexId(1), e0)]),
        Err(FtbfsError::ContextMismatch)
    );
}

#[test]
fn mismatched_structure_is_rejected() {
    let g1 = generators::grid(3, 3);
    let g2 = generators::complete(6);
    let s = TradeoffBuilder::new(0.3)
        .with_config(|c| c.serial())
        .build(&g1, &Sources::single(VertexId(0)))
        .expect("valid input");
    assert!(matches!(
        EngineCore::build(&g2, s),
        Err(FtbfsError::StructureMismatch { .. })
    ));
}

#[test]
fn mismatched_structure_with_equal_edge_count_is_rejected() {
    // complete(7) and cycle(21) both have 21 edges, so the capacity
    // check alone cannot tell them apart. The K7 structure is sparse
    // (far fewer than 21 edges), and any proper edge subset of a cycle
    // distorts distances, so the fault-free cross-check must fire.
    let k7 = generators::complete(7);
    let cycle = generators::cycle(21);
    assert_eq!(k7.num_edges(), cycle.num_edges());
    let s = TradeoffBuilder::new(0.3)
        .with_config(|c| c.serial())
        .build(&k7, &Sources::single(VertexId(0)))
        .expect("valid input");
    assert!(
        s.num_edges() < k7.num_edges(),
        "K7 structure must be sparse"
    );
    assert!(matches!(
        EngineCore::build(&cycle, s),
        Err(FtbfsError::FaultFreeDistanceMismatch { .. })
    ));
}

#[test]
fn disconnecting_failures_return_none() {
    let graph = generators::path(5);
    let core = core_for(&graph, 0.3, 2);
    let mut ctx = core.new_context();
    let e = FaultSet::from(
        graph
            .find_edge(VertexId(1), VertexId(2))
            .expect("path edge"),
    );
    assert_eq!(
        ctx.dist_after_faults(&core, VertexId(4), &e)
            .expect("in range"),
        None
    );
    assert_eq!(
        ctx.path_after_faults(&core, VertexId(4), &e)
            .expect("in range"),
        None
    );
    assert_eq!(
        ctx.dist_after_faults(&core, VertexId(1), &e)
            .expect("in range"),
        Some(1)
    );
}

#[test]
fn reinforced_edge_fallback_is_exact() {
    // eps = 0 reinforces every tree edge, so every tree-edge query takes
    // the full-graph fallback; the answers must still be exact.
    let graph = generators::cycle(9);
    let s = TradeoffBuilder::new(0.0)
        .with_config(|c| c.serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let core = EngineCore::build(&graph, s).expect("matching graph");
    let mut ctx = core.new_context();
    for e in graph.edge_ids() {
        for v in graph.vertices() {
            assert_eq!(
                ctx.dist_after_faults(&core, v, &e.into())
                    .expect("in range"),
                brute_force(&graph, v, e)
            );
        }
    }
    assert!(ctx.stats().full_graph_bfs_runs > 0);
}

#[test]
fn shared_core_serves_a_second_context() {
    let graph = generators::grid(4, 4);
    let core = Arc::new(core_for(&graph, 0.3, 21));
    let shared = Arc::clone(&core);
    let (mut a, mut b) = (core.new_context(), shared.new_context());
    for e in graph.edge_ids().take(6) {
        assert_eq!(
            a.dist_after_faults(&core, VertexId(9), &e.into())
                .expect("in range"),
            b.dist_after_faults(&shared, VertexId(9), &e.into())
                .expect("in range"),
        );
    }
}

#[test]
fn multi_source_engine_is_exact_per_source() {
    let graph = generators::grid(5, 5);
    let sources = [VertexId(0), VertexId(12), VertexId(24)];
    let m = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(3).serial())
        .build_multi(&graph, &Sources::from(&sources[..]))
        .expect("valid input");
    let core = EngineCore::build_multi(&graph, m).expect("matching graph");
    let mut ctx = core.new_context();
    assert_eq!(core.sources(), &sources);
    for &s in &sources {
        for e in graph.edge_ids() {
            for v in graph.vertices() {
                let got = ctx
                    .dist_after_faults_from(&core, s, v, &e.into())
                    .expect("in range");
                let want = brute_force_from(&graph, s, v, e);
                assert_eq!(got, want, "source {s:?}, vertex {v:?}, edge {e:?}");
            }
        }
    }
}

#[test]
fn multi_source_batches_match_singles_and_check_sources() {
    let graph = generators::hypercube(4);
    let sources = [VertexId(0), VertexId(15)];
    let m = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(5).serial())
        .build_multi(&graph, &Sources::from(&sources[..]))
        .expect("valid input");
    let sharded = EngineCore::build_multi_with(
        &graph,
        m.clone(),
        EngineOptions::new().with_parallel(ParallelConfig::with_threads(4)),
    )
    .expect("matching graph");
    let queries = all_single_edge_queries(&graph, &sources);
    let batch = sharded
        .new_context()
        .query_many_faults(&sharded, &queries)
        .expect("in range");
    let single = EngineCore::build_multi(&graph, m).expect("matching graph");
    let mut ctx = single.new_context();
    for (i, (s, v, f)) in queries.iter().enumerate() {
        assert_eq!(
            batch[i],
            ctx.dist_after_faults_from(&single, *s, *v, f)
                .expect("in range")
        );
    }
    let e0 = FaultSet::from(EdgeId(0));
    assert_eq!(
        ctx.dist_after_faults_from(&single, VertexId(7), VertexId(0), &e0),
        Err(FtbfsError::SourceNotServed {
            source: VertexId(7)
        })
    );
    assert!(matches!(
        ctx.query_many_faults(&single, &[(VertexId(7), VertexId(0), e0)]),
        Err(FtbfsError::SourceNotServed { .. })
    ));
    assert_eq!(
        single.fault_free_dist(VertexId(7), VertexId(0)),
        Err(FtbfsError::SourceNotServed {
            source: VertexId(7)
        })
    );
}

#[test]
fn multi_source_paths_are_witnesses() {
    let graph = generators::grid(4, 4);
    let sources = [VertexId(0), VertexId(15)];
    let m = TradeoffBuilder::new(0.25)
        .with_config(|c| c.with_seed(7).serial())
        .build_multi(&graph, &Sources::from(&sources[..]))
        .expect("valid input");
    let core = EngineCore::build_multi(&graph, m).expect("matching graph");
    let mut ctx = core.new_context();
    for &s in &sources {
        for e in graph.edge_ids() {
            for v in graph.vertices() {
                let f = FaultSet::from(e);
                let d = ctx
                    .dist_after_faults_from(&core, s, v, &f)
                    .expect("in range");
                let p = ctx
                    .path_after_faults_from(&core, s, v, &f)
                    .expect("in range");
                match (d, p) {
                    (None, None) => {}
                    (Some(d), Some(p)) => {
                        assert_eq!(p.len() as u32, d);
                        assert_eq!(p.first(), s);
                        assert_eq!(p.last(), v);
                        assert!(!p.contains_edge(e));
                    }
                    (d, p) => panic!("distance {d:?} but path {p:?}"),
                }
            }
        }
    }
}

#[test]
fn concurrent_contexts_share_one_core() {
    // EngineCore owns its data, so Arc<EngineCore> moves into real spawned
    // threads; each thread gets its own context and must agree with the
    // serial engine on every answer.
    let graph = generators::grid(6, 5);
    let s = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(31).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let core = Arc::new(EngineCore::build(&graph, s).expect("matching graph"));
    let queries: Vec<(VertexId, FaultSet)> = graph
        .edge_ids()
        .flat_map(|e| graph.vertices().map(move |v| (v, FaultSet::from(e))))
        .collect();
    let expected: Vec<Option<u32>> = {
        let mut ctx = core.new_context();
        queries
            .iter()
            .map(|(v, f)| ctx.dist_after_faults(&core, *v, f).expect("in range"))
            .collect()
    };
    let mut handles = Vec::new();
    for t in 0..4usize {
        let core = Arc::clone(&core);
        let queries = queries.clone();
        let expected = expected.clone();
        handles.push(std::thread::spawn(move || {
            let mut ctx = core.new_context();
            // Different threads walk the batch from different offsets so the
            // LRU states genuinely diverge.
            let n = queries.len();
            for i in 0..n {
                let (v, f) = &queries[(i + t * n / 4) % n];
                let got = ctx.dist_after_faults(&core, *v, f).expect("in range");
                assert_eq!(got, expected[(i + t * n / 4) % n]);
            }
            ctx.stats().queries
        }));
    }
    for h in handles {
        assert_eq!(h.join().expect("worker panicked"), queries.len());
    }
}

#[test]
fn engine_options_setters_and_defaults() {
    let opts = EngineOptions::new().with_max_faults(3).serial();
    assert_eq!(opts.max_faults, 3);
    assert!(opts.parallel.is_serial());
    assert_eq!(EngineOptions::new().with_max_faults(0).max_faults, 1);
    assert_eq!(
        EngineOptions::default().max_faults,
        EngineOptions::DEFAULT_MAX_FAULTS
    );
}

#[test]
fn fault_set_queries_match_brute_force_on_all_pairs_and_singletons() {
    for (name, graph) in [
        ("hypercube", generators::hypercube(3)),
        ("grid", generators::grid(4, 4)),
        ("clique_pendant", generators::clique_with_pendant(8)),
    ] {
        let core = core_for(&graph, 0.3, 7);
        let mut ctx = core.new_context();
        for faults in ftb_graph::enumerate_fault_sets(&graph, 2) {
            for v in graph.vertices() {
                let got = ctx.dist_after_faults(&core, v, &faults).expect("in range");
                let want = brute_faults(&graph, VertexId(0), v, &faults);
                assert_eq!(got, want, "{name}: vertex {v:?}, faults {faults}");
            }
        }
    }
}

#[test]
fn primary_and_explicit_source_forms_are_byte_identical() {
    let graph = generators::grid(5, 4);
    let core = core_for(&graph, 0.3, 9);
    let (mut a, mut b) = (core.new_context(), core.new_context());
    let s = core.primary_source();
    for e in graph.edge_ids() {
        let singleton = FaultSet::from(e);
        for v in graph.vertices() {
            assert_eq!(
                a.dist_after_faults(&core, v, &singleton).expect("in range"),
                b.dist_after_faults_from(&core, s, v, &singleton)
                    .expect("in range"),
            );
            assert_eq!(
                a.path_after_faults(&core, v, &singleton).expect("in range"),
                b.path_after_faults_from(&core, s, v, &singleton)
                    .expect("in range"),
            );
        }
    }
    // Both contexts did exactly the same work: the primary-source form is
    // the explicit-source form at slot 0.
    assert_eq!(a.stats(), b.stats());
}

#[test]
fn equal_singleton_sets_share_one_lru_row() {
    let graph = generators::grid(5, 5);
    let core = core_for(&graph, 0.3, 11);
    let mut ctx = core.new_context();
    let e = core
        .structure()
        .backup_edges()
        .next()
        .expect("structure has backup edges");
    ctx.dist_after_faults(&core, VertexId(1), &FaultSet::from(e))
        .expect("in range");
    let after_first = ctx.stats();
    // The same failure, collected from an iterator instead of converted
    // from the edge id, canonicalises to the same key and hits the row.
    let collected: FaultSet = [Fault::Edge(e)].into_iter().collect();
    ctx.dist_after_faults(&core, VertexId(2), &collected)
        .expect("in range");
    let after_second = ctx.stats();
    assert_eq!(
        after_first.structure_bfs_runs + after_first.full_graph_bfs_runs,
        after_second.structure_bfs_runs + after_second.full_graph_bfs_runs,
        "an equal singleton set must not recompute the row"
    );
    assert_eq!(after_second.cached_answers, after_first.cached_answers + 1);
}

#[test]
fn vertex_faults_disconnect_target_and_source() {
    let graph = generators::path(5); // 0-1-2-3-4
    let core = core_for(&graph, 0.3, 3);
    let mut ctx = core.new_context();
    // Failing vertex 2 cuts the suffix off.
    let mid = FaultSet::single_vertex(VertexId(2));
    assert_eq!(
        ctx.dist_after_faults(&core, VertexId(1), &mid).unwrap(),
        Some(1)
    );
    assert_eq!(
        ctx.dist_after_faults(&core, VertexId(2), &mid).unwrap(),
        None
    );
    assert_eq!(
        ctx.dist_after_faults(&core, VertexId(4), &mid).unwrap(),
        None
    );
    assert_eq!(
        ctx.path_after_faults(&core, VertexId(4), &mid).unwrap(),
        None
    );
    // Failing the source disconnects everything, the source included — and
    // the all-unreachable row is a fill, not a search, so no sweep is
    // counted.
    let before = ctx.stats();
    let src = FaultSet::single_vertex(VertexId(0));
    for v in graph.vertices() {
        assert_eq!(
            ctx.dist_after_faults(&core, v, &src).unwrap(),
            None,
            "{v:?}"
        );
    }
    let after = ctx.stats();
    assert_eq!(after.structure_bfs_runs, before.structure_bfs_runs);
    assert_eq!(after.full_graph_bfs_runs, before.full_graph_bfs_runs);
}

#[test]
fn fault_paths_avoid_every_failed_element() {
    let graph = generators::grid(4, 4);
    let core = core_for(&graph, 0.25, 13);
    let mut ctx = core.new_context();
    for faults in ftb_graph::enumerate_fault_sets(&graph, 2) {
        for v in graph.vertices() {
            let d = ctx.dist_after_faults(&core, v, &faults).expect("in range");
            let p = ctx.path_after_faults(&core, v, &faults).expect("in range");
            match (d, p) {
                (None, None) => {}
                (Some(d), Some(p)) => {
                    assert_eq!(p.len() as u32, d);
                    assert_eq!(p.first(), VertexId(0));
                    assert_eq!(p.last(), v);
                    for e in faults.edges() {
                        assert!(!p.contains_edge(e), "path uses failed edge {e:?}");
                    }
                    for fv in faults.vertices() {
                        assert!(
                            !p.vertices().contains(&fv),
                            "path visits failed vertex {fv:?}"
                        );
                    }
                }
                (d, p) => panic!("distance {d:?} but path {p:?}"),
            }
        }
    }
}

#[test]
fn fault_set_cap_and_invalid_faults_are_typed_errors() {
    let graph = generators::grid(3, 3);
    let core = core_for(&graph, 0.3, 1);
    let mut ctx = core.new_context();
    let three: FaultSet = (0..3).map(|i| Fault::Edge(EdgeId(i))).collect();
    assert_eq!(
        ctx.dist_after_faults(&core, VertexId(1), &three),
        Err(FtbfsError::FaultSetTooLarge { got: 3, max: 2 })
    );
    assert!(matches!(
        ctx.path_after_faults(&core, VertexId(1), &three),
        Err(FtbfsError::FaultSetTooLarge { .. })
    ));
    assert!(matches!(
        ctx.query_many_faults(&core, &[(VertexId(0), VertexId(1), three)]),
        Err(FtbfsError::FaultSetTooLarge { .. })
    ));
    let bad_vertex = FaultSet::single_vertex(VertexId(500));
    assert!(matches!(
        ctx.dist_after_faults(&core, VertexId(1), &bad_vertex),
        Err(FtbfsError::InvalidFault {
            fault: Fault::Vertex(VertexId(500)),
            ..
        })
    ));
    let bad_edge = FaultSet::single_edge(EdgeId(500));
    assert!(matches!(
        ctx.dist_after_faults(&core, VertexId(1), &bad_edge),
        Err(FtbfsError::InvalidFault { .. })
    ));
}

#[test]
fn raising_max_faults_accepts_larger_sets() {
    let graph = generators::hypercube(4);
    let s = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(17).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let core = EngineCore::build_with(&graph, s, EngineOptions::new().with_max_faults(4).serial())
        .expect("matching graph");
    let mut ctx = core.new_context();
    let faults: FaultSet = [
        Fault::Edge(EdgeId(0)),
        Fault::Edge(EdgeId(5)),
        Fault::Vertex(VertexId(3)),
        Fault::Vertex(VertexId(9)),
    ]
    .into_iter()
    .collect();
    for v in graph.vertices() {
        assert_eq!(
            ctx.dist_after_faults(&core, v, &faults).expect("in range"),
            brute_faults(&graph, VertexId(0), v, &faults),
            "{v:?}"
        );
    }
}

#[test]
fn lru_eviction_order_under_fault_set_keying() {
    let graph = generators::grid(5, 5);
    let s = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(11).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    // LRU_ROWS + 1 distinct row keys: single-edge sets and one mixed set
    // that shares its edge with keys[0].
    let mut keys: Vec<FaultSet> = s.edges().take(LRU_ROWS).map(FaultSet::from).collect();
    assert_eq!(keys.len(), LRU_ROWS, "structure too small for the LRU test");
    let e0 = keys[0].as_single_edge().expect("single edge");
    keys.push(
        [Fault::Edge(e0), Fault::Vertex(VertexId(24))]
            .into_iter()
            .collect(),
    );
    // Forced full sweeps: the probes below count one search per miss, which
    // the unaffected fast path would short-circuit for some vertices.
    let core = EngineCore::build_with(
        &graph,
        s,
        EngineOptions::new().serial().with_force_full_sweep(true),
    )
    .expect("matching graph");
    let mut ctx = core.new_context();
    let runs = |ctx: &QueryContext| {
        let st = ctx.stats();
        st.structure_bfs_runs + st.full_graph_bfs_runs
    };
    // Fill every slot with keys[0..LRU_ROWS]: one sweep each.
    for key in &keys[..LRU_ROWS] {
        ctx.dist_after_faults(&core, VertexId(1), key).unwrap();
    }
    assert_eq!(runs(&ctx), LRU_ROWS);
    // Touch keys[0] so keys[1] becomes the least recently used…
    ctx.dist_after_faults(&core, VertexId(2), &keys[0]).unwrap();
    assert_eq!(runs(&ctx), LRU_ROWS, "touch must be a cache hit");
    // …then insert the mixed set: evicts keys[1], keeps keys[0].
    ctx.dist_after_faults(&core, VertexId(1), &keys[LRU_ROWS])
        .unwrap();
    assert_eq!(runs(&ctx), LRU_ROWS + 1);
    ctx.dist_after_faults(&core, VertexId(3), &keys[0]).unwrap();
    assert_eq!(
        runs(&ctx),
        LRU_ROWS + 1,
        "recently used key must survive eviction"
    );
    ctx.dist_after_faults(&core, VertexId(3), &keys[1]).unwrap();
    assert_eq!(runs(&ctx), LRU_ROWS + 2, "evicted key must recompute");
}

#[test]
fn query_many_faults_matches_singles_serial_and_sharded() {
    let graph = generators::grid(5, 5);
    let s = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(19).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let sets = ftb_graph::enumerate_fault_sets(&graph, 2);
    // A spread of fault sets of all shapes, every vertex probed.
    let queries: Vec<(VertexId, VertexId, FaultSet)> = sets
        .iter()
        .step_by(7)
        .flat_map(|f| graph.vertices().map(move |v| (VertexId(0), v, f.clone())))
        .collect();
    let serial =
        EngineCore::build_with(&graph, s.clone(), EngineOptions::new().serial()).expect("matching");
    let expected = serial
        .new_context()
        .query_many_faults(&serial, &queries)
        .expect("in range");
    for (i, (_, v, f)) in queries.iter().enumerate() {
        assert_eq!(
            expected[i],
            brute_faults(&graph, VertexId(0), *v, f),
            "query {i}: {v:?} under {f}"
        );
    }
    for threads in [2usize, 4] {
        let sharded = EngineCore::build_with(
            &graph,
            s.clone(),
            EngineOptions::new().with_parallel(ParallelConfig::with_threads(threads)),
        )
        .expect("matching graph");
        let mut ctx = sharded.new_context();
        let got = ctx.query_many_faults(&sharded, &queries).expect("in range");
        assert_eq!(got, expected, "{threads}-thread batch diverged");
        assert_eq!(ctx.stats().queries, queries.len());
    }
}

#[test]
fn a_hot_fault_group_runs_one_sweep_on_any_thread_count() {
    // Every query hits the same failing fault: the batch is one group, and
    // a group is one search however many workers the engine has.
    let graph = generators::grid(6, 6);
    let s = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(23).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let hot = s.backup_edges().next().expect("structure has backup edges");
    let hot_set = FaultSet::from(hot);
    let queries: Vec<(VertexId, VertexId, FaultSet)> = (0..600)
        .map(|i| {
            let v = VertexId::new(i % graph.num_vertices());
            (VertexId(0), v, hot_set.clone())
        })
        .collect();

    let serial =
        EngineCore::build_with(&graph, s.clone(), EngineOptions::new().serial()).expect("matching");
    let mut sctx = serial.new_context();
    let expected = sctx.query_many_faults(&serial, &queries).expect("in range");
    let serial_sweeps = {
        let st = sctx.stats();
        st.structure_bfs_runs + st.full_graph_bfs_runs
    };
    assert_eq!(serial_sweeps, 1, "serial path still runs one BFS");

    let sharded = EngineCore::build_with(
        &graph,
        s,
        EngineOptions::new().with_parallel(ParallelConfig::with_threads(4)),
    )
    .expect("matching graph");
    let mut pctx = sharded.new_context();
    let got = pctx
        .query_many_faults(&sharded, &queries)
        .expect("in range");
    assert_eq!(got, expected, "4-thread batch diverged from serial");
    let st = pctx.stats();
    assert_eq!(st.queries, queries.len());
    let sweeps = st.structure_bfs_runs + st.full_graph_bfs_runs;
    assert_eq!(sweeps, 1, "one group must run one sweep, got {sweeps}");
}

#[test]
fn replayed_batches_cache_rows_only_while_their_fault_sets_fit_the_lru() {
    // A batch replayed on one context: a fault set's first miss takes the
    // restricted sweep and leaves its key, the next replay repairs and
    // caches its row, and later replays read it. A working set larger than
    // the LRU evicts each key before it recurs, so every replay stays on
    // the restricted sweep and repairs nothing.
    let graph = generators::grid(8, 8);
    let src = VertexId(0);
    let s = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(31).serial())
        .build(&graph, &Sources::single(src))
        .expect("valid input");
    let core =
        EngineCore::build_with(&graph, s.clone(), repaired_options()).expect("matching graph");
    let forced = EngineCore::build_with(
        &graph,
        s,
        EngineOptions::new().serial().with_force_full_sweep(true),
    )
    .expect("matching graph");
    let affecting: Vec<FaultSet> = graph
        .edge_ids()
        .map(FaultSet::from)
        .filter(|fs| {
            graph
                .vertices()
                .any(|v| !core.is_target_unaffected(src, v, fs).expect("in range"))
        })
        .take(LRU_ROWS + 1)
        .collect();
    assert_eq!(affecting.len(), LRU_ROWS + 1, "too few affecting edges");
    let batch = |sets: &[FaultSet]| -> Vec<(VertexId, VertexId, FaultSet)> {
        sets.iter()
            .flat_map(|fs| graph.vertices().map(move |v| (src, v, fs.clone())))
            .collect()
    };
    let sweeps =
        |st: &QueryStats| st.structure_bfs_runs + st.augmented_bfs_runs + st.full_graph_bfs_runs;
    let k = LRU_ROWS;
    let cases = [
        (&affecting[..k], [(k, 0, k), (0, k, k), (0, 0, 0)]),
        (&affecting[..], [(k + 1, 0, k + 1); 3]),
    ];
    for (sets, rounds) in cases {
        let queries = batch(sets);
        let expected = forced
            .new_context()
            .query_many_faults(&forced, &queries)
            .expect("in range");
        let mut ctx = core.new_context();
        for (round, want) in rounds.into_iter().enumerate() {
            let before = ctx.stats();
            let got = ctx.query_many_faults(&core, &queries).expect("in range");
            let d = ctx.stats().delta_since(&before);
            assert_eq!(
                got,
                expected,
                "{} sets, replay {round}: answers",
                sets.len()
            );
            assert_eq!(
                (d.restricted_repairs, d.repaired_rows, sweeps(&d)),
                want,
                "{} sets, replay {round}: (restricted, repaired, searches)",
                sets.len()
            );
        }
    }
}

#[test]
fn multi_source_fault_sets_are_exact_per_source() {
    let graph = generators::grid(4, 4);
    let sources = [VertexId(0), VertexId(15)];
    let m = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(29).serial())
        .build_multi(&graph, &Sources::from(&sources[..]))
        .expect("valid input");
    let core = EngineCore::build_multi(&graph, m.clone()).expect("matching graph");
    let mut ctx = core.new_context();
    let sets = ftb_graph::enumerate_fault_sets(&graph, 2);
    let mut queries: Vec<(VertexId, VertexId, FaultSet)> = Vec::new();
    for f in sets.iter().step_by(5) {
        for &s in &sources {
            for v in graph.vertices() {
                queries.push((s, v, f.clone()));
            }
        }
    }
    let batch = ctx.query_many_faults(&core, &queries).expect("in range");
    for (i, (s, v, f)) in queries.iter().enumerate() {
        assert_eq!(
            batch[i],
            brute_faults(&graph, *s, *v, f),
            "source {s:?}, vertex {v:?}, faults {f}"
        );
        assert_eq!(
            batch[i],
            ctx.dist_after_faults_from(&core, *s, *v, f)
                .expect("in range")
        );
    }
    // Sharded agrees with the serial reference.
    let sharded = EngineCore::build_multi_with(
        &graph,
        m,
        EngineOptions::new().with_parallel(ParallelConfig::with_threads(4)),
    )
    .expect("matching graph");
    assert_eq!(
        sharded
            .new_context()
            .query_many_faults(&sharded, &queries)
            .expect("in range"),
        batch
    );
    // Unserved sources stay typed errors on the fault-set path too.
    assert!(matches!(
        ctx.dist_after_faults_from(
            &core,
            VertexId(7),
            VertexId(0),
            &FaultSet::single_edge(EdgeId(0))
        ),
        Err(FtbfsError::SourceNotServed { .. })
    ));
}

#[test]
fn tier_counters_sum_to_queries_and_attribute_lru_hits() {
    let graph = generators::complete(9);
    // Forced full sweeps so every probe resolves a row and the per-tier
    // attribution below is exact (the fast path has its own tests).
    let s = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(31).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let core = EngineCore::build_with(
        &graph,
        s,
        EngineOptions::new().serial().with_force_full_sweep(true),
    )
    .expect("matching graph");
    let mut ctx = core.new_context();
    let outside = graph
        .edge_ids()
        .find(|&e| !core.structure().contains_edge(e))
        .expect("a sparse structure leaves edges out");
    let inside = core
        .structure()
        .backup_edges()
        .next()
        .expect("structure has backup edges");
    // Fault-free tier, then sparse-H tier twice (second is an LRU hit) and
    // a vertex fault on the full-graph tier (no augmentation here).
    let (outside, inside) = (FaultSet::from(outside), FaultSet::from(inside));
    let _ = ctx.dist_after_faults(&core, VertexId(7), &outside).unwrap();
    let _ = ctx.dist_after_faults(&core, VertexId(7), &inside).unwrap();
    let _ = ctx.dist_after_faults(&core, VertexId(8), &inside).unwrap();
    let _ = ctx
        .dist_after_faults(&core, VertexId(7), &FaultSet::single_vertex(VertexId(3)))
        .unwrap();
    let stats = ctx.stats();
    assert_eq!(stats.queries, 4);
    assert_eq!(stats.tiers.total(), stats.queries);
    assert_eq!(stats.tiers.fault_free_row, 1);
    assert_eq!(stats.tiers.sparse_h_bfs, 2, "LRU hit keeps its tier");
    assert_eq!(stats.tiers.full_graph_bfs, 1);
    assert_eq!(stats.tiers.augmented_bfs, 0);
    assert_eq!(stats.structure_bfs_runs, 1, "one sweep serves both probes");
}

#[test]
fn stats_delta_since_subtracts_fieldwise() {
    let graph = generators::grid(4, 5);
    let core = core_for(&graph, 0.3, 33);
    let mut ctx = core.new_context();
    let e = FaultSet::from(
        core.structure()
            .backup_edges()
            .next()
            .expect("structure has backup edges"),
    );
    let _ = ctx.dist_after_faults(&core, VertexId(3), &e).unwrap();
    let before = ctx.stats();
    let _ = ctx.dist_after_faults(&core, VertexId(4), &e).unwrap();
    let _ = ctx
        .dist_after_faults(&core, VertexId(4), &FaultSet::single_vertex(VertexId(2)))
        .unwrap();
    let delta = ctx.stats().delta_since(&before);
    assert_eq!(delta.queries, 2);
    assert_eq!(delta.cached_answers, 1);
    assert_eq!(delta.tiers.sparse_h_bfs, 1);
    assert_eq!(delta.tiers.full_graph_bfs, 1);
    assert_eq!(delta.structure_bfs_runs, 0);
    assert_eq!(delta.full_graph_bfs_runs, 1);
    let mut merged = before;
    merged.merge(&delta);
    assert_eq!(merged, ctx.stats());
}

#[test]
fn unaffected_fast_path_answers_without_a_row() {
    let graph = generators::grid(6, 6);
    let s = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(41).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let core = EngineCore::build_with(&graph, s, repaired_options()).expect("matching graph");
    let mut ctx = core.new_context();
    // A structure edge whose failure leaves some vertex provably
    // unaffected and some affected: grid BFS trees always have proper
    // subtrees.
    let (e, unaffected, affected) = core
        .structure()
        .backup_edges()
        .find_map(|e| {
            let faults = FaultSet::from(e);
            if core.route(&faults) != super::Tier::SparseH {
                return None;
            }
            let un = graph
                .vertices()
                .find(|&v| core.is_target_unaffected(VertexId(0), v, &faults) == Ok(true))?;
            let af = graph
                .vertices()
                .find(|&v| core.is_target_unaffected(VertexId(0), v, &faults) == Ok(false))?;
            Some((e, un, af))
        })
        .expect("grid structures have partial failures");
    let faults = FaultSet::from(e);
    // Unaffected target: O(1) answer, no sweep, no repair, no LRU row.
    let d = ctx.dist_after_faults(&core, unaffected, &faults).unwrap();
    assert_eq!(d, core.fault_free_dist_slot(0, unaffected));
    assert_eq!(d, brute_faults(&graph, VertexId(0), unaffected, &faults));
    let stats = ctx.stats();
    assert_eq!(stats.queries, 1);
    assert_eq!(stats.tiers.unaffected_fast_path, 1);
    assert_eq!(stats.cached_answers, 1);
    assert_eq!(stats.structure_bfs_runs, 0);
    assert_eq!(stats.repaired_rows, 0);
    // Affected target: the row is computed — by repair, counted as one
    // structure sweep.
    let d = ctx.dist_after_faults(&core, affected, &faults).unwrap();
    assert_eq!(d, brute_faults(&graph, VertexId(0), affected, &faults));
    let stats = ctx.stats();
    assert_eq!(stats.tiers.unaffected_fast_path, 1);
    assert_eq!(stats.tiers.sparse_h_bfs, 1);
    assert_eq!(stats.structure_bfs_runs, 1);
    assert_eq!(stats.repaired_rows, 1);
    assert_eq!(stats.tiers.total(), stats.queries);
}

#[test]
fn forced_full_sweeps_disable_fast_path_and_repair() {
    let graph = generators::grid(6, 6);
    let s = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(41).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let core = EngineCore::build_with(
        &graph,
        s,
        EngineOptions::new().serial().with_force_full_sweep(true),
    )
    .expect("matching graph");
    assert!(core.options().force_full_sweep);
    let mut ctx = core.new_context();
    let e = core
        .structure()
        .backup_edges()
        .next()
        .expect("structure has backup edges");
    for v in graph.vertices() {
        let got = ctx
            .dist_after_faults(&core, v, &e.into())
            .expect("in range");
        assert_eq!(got, brute_force(&graph, v, e));
    }
    let stats = ctx.stats();
    assert_eq!(stats.tiers.unaffected_fast_path, 0, "fast path is off");
    assert_eq!(stats.repaired_rows, 0, "repair is off");
    assert_eq!(stats.structure_bfs_runs + stats.full_graph_bfs_runs, 1);
    assert!(
        !EngineOptions::new()
            .with_force_full_sweep(false)
            .force_full_sweep
    );
}

#[test]
fn unaffected_path_queries_take_the_fast_path() {
    // A target whose whole root-to-target parent chain is provably
    // unaffected gets its path straight from the fault-free row: no sweep,
    // no row — and byte-identical to the forced-full-sweep answer.
    let graph = generators::grid(5, 5);
    let build = |force| {
        let s = TradeoffBuilder::new(0.3)
            .with_config(|c| c.with_seed(43).serial())
            .build(&graph, &Sources::single(VertexId(0)))
            .expect("valid input");
        EngineCore::build_with(&graph, s, repaired_options().with_force_full_sweep(force))
            .expect("matching graph")
    };
    let core = build(false);
    let forced = build(true);
    let mut ctx = core.new_context();
    let mut fctx = forced.new_context();
    let (e, unaffected) = core
        .structure()
        .backup_edges()
        .find_map(|e| {
            let faults = FaultSet::from(e);
            (core.route(&faults) == super::Tier::SparseH)
                .then(|| {
                    graph
                        .vertices()
                        .find(|&v| {
                            core.is_target_unaffected(VertexId(0), v, &faults) == Ok(true)
                                && core.fault_free_dist_slot(0, v).is_some()
                        })
                        .map(|v| (e, v))
                })
                .flatten()
        })
        .expect("grid structures have partial failures");
    let p = ctx
        .path_after_faults(&core, unaffected, &e.into())
        .expect("in range")
        .expect("reachable");
    assert_eq!(p.last(), unaffected);
    let stats = ctx.stats();
    assert_eq!(stats.tiers.unaffected_fast_path, 1);
    assert_eq!(stats.structure_bfs_runs, 0, "no row was computed");
    // For the SparseH tier the fault-free chain IS the T0 chain, so the
    // extracted path must equal the materialized row's path exactly.
    let fp = fctx
        .path_after_faults(&forced, unaffected, &e.into())
        .expect("in range")
        .expect("reachable");
    assert_eq!(p.vertices(), fp.vertices());
    assert_eq!(p.edges(), fp.edges());
    // An affected target still resolves a materialized row.
    let affected = graph
        .vertices()
        .find(|&v| core.is_target_unaffected(VertexId(0), v, &e.into()) == Ok(false))
        .expect("the failed tree edge affects its subtree");
    ctx.path_after_faults(&core, affected, &e.into())
        .expect("in range");
    let stats = ctx.stats();
    assert_eq!(stats.tiers.unaffected_fast_path, 1);
    assert_eq!(stats.structure_bfs_runs, 1, "fallback computed the row");
}

#[test]
fn batched_queries_use_the_fast_path_per_target() {
    // Within a fault-group of a batch, unaffected targets are classified in
    // one interval search and read off the fault-free row; one restricted
    // sweep settles the affected ones, and no row is repaired.
    let graph = generators::grid(6, 6);
    let s = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(47).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let core = EngineCore::build_with(&graph, s, repaired_options()).expect("matching graph");
    let faults: Vec<FaultSet> = core
        .structure()
        .backup_edges()
        .map(FaultSet::from)
        .filter(|f| core.route(f) == super::Tier::SparseH)
        .take(4)
        .collect();
    assert!(!faults.is_empty());
    let queries: Vec<(VertexId, VertexId, FaultSet)> = faults
        .iter()
        .flat_map(|f| graph.vertices().map(move |v| (VertexId(0), v, f.clone())))
        .collect();
    let mut ctx = core.new_context();
    let got = ctx.query_many_faults(&core, &queries).expect("in range");
    for (i, (_, v, f)) in queries.iter().enumerate() {
        assert_eq!(got[i], brute_faults(&graph, VertexId(0), *v, f));
    }
    let stats = ctx.stats();
    assert!(
        stats.tiers.batched_unaffected > 0,
        "grid tree faults leave unaffected targets"
    );
    assert_eq!(stats.tiers.total(), stats.queries);
    assert!(stats.structure_bfs_runs <= faults.len());
    assert_eq!(stats.repaired_rows, 0, "batches copy no row");
    assert!(stats.restricted_repairs <= faults.len());
}

#[test]
fn repaired_and_forced_engines_agree_on_augmented_duals() {
    let graph = generators::hypercube(4);
    let base = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(53).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let aug = crate::ftbfs::FtBfsAugmenter::new(crate::ftbfs::AugmentCoverage::DualFailure)
        .with_seed(53)
        .serial()
        .augment(&graph, base)
        .expect("matching graph");
    let repaired = EngineCore::build_augmented_with(&graph, aug.clone(), repaired_options())
        .expect("matching graph");
    let forced = EngineCore::build_augmented_with(
        &graph,
        aug,
        EngineOptions::new().serial().with_force_full_sweep(true),
    )
    .expect("matching graph");
    let mut rctx = repaired.new_context();
    let mut fctx = forced.new_context();
    for faults in ftb_graph::enumerate_fault_sets(&graph, 2).iter().step_by(7) {
        for v in graph.vertices() {
            assert_eq!(
                rctx.dist_after_faults(&repaired, v, faults).unwrap(),
                fctx.dist_after_faults(&forced, v, faults).unwrap(),
                "{v:?} under {faults}"
            );
            assert_eq!(
                rctx.path_after_faults(&repaired, v, faults).unwrap(),
                fctx.path_after_faults(&forced, v, faults).unwrap(),
                "{v:?} under {faults}"
            );
        }
    }
    assert!(rctx.stats().repaired_rows > 0);
    assert_eq!(fctx.stats().repaired_rows, 0);
}

#[test]
fn augmented_core_routes_and_answers_inside_the_engine_crate() {
    let graph = generators::hypercube(4);
    let base = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(35).serial())
        .build(&graph, &Sources::single(VertexId(0)))
        .expect("valid input");
    let aug = crate::ftbfs::FtBfsAugmenter::new(crate::ftbfs::AugmentCoverage::DualFailure)
        .with_seed(35)
        .serial()
        .augment(&graph, base)
        .expect("matching graph");
    let core = EngineCore::build_augmented(&graph, aug).expect("matching graph");
    assert_eq!(
        core.augment_coverage(),
        crate::ftbfs::AugmentCoverage::DualFailure
    );
    let mut ctx = core.new_context();
    let faults: FaultSet = [Fault::Edge(EdgeId(0)), Fault::Edge(EdgeId(9))]
        .into_iter()
        .collect();
    for v in graph.vertices() {
        assert_eq!(
            ctx.dist_after_faults(&core, v, &faults).expect("in range"),
            brute_faults(&graph, VertexId(0), v, &faults)
        );
    }
    let stats = ctx.stats();
    assert_eq!(stats.tiers.full_graph_bfs, 0);
    assert!(stats.tiers.augmented_bfs > 0);
    assert_eq!(stats.augmented_bfs_runs, 1, "one sweep, then LRU hits");
}

#[test]
fn query_stats_merge_and_delta_are_inverse_fieldwise() {
    let a = QueryStats {
        queries: 10,
        structure_bfs_runs: 3,
        augmented_bfs_runs: 2,
        full_graph_bfs_runs: 1,
        cached_answers: 4,
        repaired_rows: 2,
        restricted_repairs: 1,
        tiers: TierCounters {
            fault_free_row: 4,
            unaffected_fast_path: 1,
            batched_unaffected: 0,
            sparse_h_bfs: 3,
            augmented_bfs: 1,
            full_graph_bfs: 1,
        },
    };
    let b = QueryStats {
        queries: 7,
        structure_bfs_runs: 1,
        augmented_bfs_runs: 0,
        full_graph_bfs_runs: 2,
        cached_answers: 3,
        repaired_rows: 1,
        restricted_repairs: 0,
        tiers: TierCounters {
            fault_free_row: 2,
            unaffected_fast_path: 0,
            batched_unaffected: 1,
            sparse_h_bfs: 1,
            augmented_bfs: 2,
            full_graph_bfs: 2,
        },
    };
    // merge accumulates every field, including the per-tier counters...
    let mut merged = a;
    merged.merge(&b);
    assert_eq!(merged.queries, 17);
    assert_eq!(merged.structure_bfs_runs, 4);
    assert_eq!(merged.tiers.total(), a.tiers.total() + b.tiers.total());
    // ...and delta_since undoes it exactly: (a ⊕ b) ∖ a = b, (a ⊕ b) ∖ b = a.
    assert_eq!(merged.delta_since(&a), b);
    assert_eq!(merged.delta_since(&b), a);
    // The zero element is neutral on both sides.
    let zero = QueryStats::default();
    assert_eq!(merged.delta_since(&zero), merged);
    let mut z = zero;
    z.merge(&merged);
    assert_eq!(z, merged);
    // The name tables follow field order.
    let at = |names: &[&str], name| names.iter().position(|&n| n == name).unwrap();
    assert_eq!(
        a.tiers.to_array()[at(&TierCounters::NAMES, "sparse_h_bfs")],
        3
    );
    assert_eq!(
        b.to_array()[at(&QueryStats::NAMES, "full_graph_bfs_runs")],
        2
    );
}

#[test]
fn published_counters_roundtrip_and_lock_free_aggregation() {
    let graph = generators::hypercube(4);
    let core = Arc::new(core_for(&graph, 0.3, 77));
    let mut ctx = core.new_context();
    for e in [EdgeId(0), EdgeId(3), EdgeId(7)] {
        for v in graph.vertices() {
            ctx.dist_after_faults(&core, v, &e.into())
                .expect("in range");
        }
    }
    let live = ctx.stats();
    assert!(live.queries > 0);

    // publish → published is the identity on QueryStats values.
    let obs = EngineObs::detached();
    assert_eq!(obs.published(), QueryStats::default());
    obs.publish(&live);
    assert_eq!(obs.published(), live);

    // The serving aggregation pattern: worker threads publish the delta of
    // each job into shared counter cells; a reader sums them with no locks.
    let obs = EngineObs::detached();
    std::thread::scope(|scope| {
        for w in 0..4u32 {
            let core = core.clone();
            let (graph, obs) = (&graph, &obs);
            scope.spawn(move || {
                let mut ctx = core.new_context();
                for v in graph.vertices() {
                    let before = ctx.stats();
                    ctx.dist_after_faults(&core, v, &EdgeId(w).into())
                        .expect("in range");
                    obs.publish(&ctx.stats().delta_since(&before));
                }
            });
        }
    });
    let total = obs.published();
    assert_eq!(total.queries, 4 * graph.num_vertices());
    assert_eq!(total.tiers.total(), total.queries, "tiers sum to queries");
}

/// A single-source grid core and a two-source hypercube core with `options`.
fn batch_cores(options: EngineOptions) -> [EngineCore; 2] {
    let grid = generators::grid(6, 6);
    let single = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(41).serial())
        .build(&grid, &Sources::single(VertexId(0)))
        .expect("valid input");
    let cube = generators::hypercube(4);
    let multi = TradeoffBuilder::new(0.3)
        .with_config(|c| c.with_seed(5).serial())
        .build_multi(&cube, &Sources::from(&[VertexId(0), VertexId(15)][..]))
        .expect("valid input");
    [
        EngineCore::build_with(&grid, single, options.clone()).expect("matching graph"),
        EngineCore::build_multi_with(&cube, multi, options).expect("matching graph"),
    ]
}

/// A batch for `dist_batch_from` from `src` that mixes every group shape:
/// fault-free groups (the empty set and, if there is one, an edge outside
/// `H`), a fault set with only unaffected targets, and two fault sets with
/// affected targets, each target named twice, entries interleaved. Returns
/// the batch and its distinct fault sets in the order the engine answers
/// them.
fn mixed_batch(core: &EngineCore, src: VertexId) -> (Vec<(VertexId, FaultSet)>, Vec<FaultSet>) {
    let graph = core.graph();
    let affected = |fs: &FaultSet| -> Vec<VertexId> {
        graph
            .vertices()
            .filter(|&v| !core.is_target_unaffected(src, v, fs).expect("in range"))
            .collect()
    };
    let cutting: Vec<FaultSet> = graph
        .edge_ids()
        .map(FaultSet::from)
        .filter(|fs| !affected(fs).is_empty())
        .take(3)
        .collect();
    assert_eq!(cutting.len(), 3, "too few tree edges");
    let mut groups: Vec<(FaultSet, Vec<VertexId>)> = vec![
        (FaultSet::new(), graph.vertices().step_by(5).collect()),
        // The third cutting edge, probed only where it changes nothing.
        (cutting[2].clone(), vec![src, src]),
    ];
    if let Some(e) = graph
        .edge_ids()
        .find(|&e| !core.structure().contains_edge(e))
    {
        groups.push((FaultSet::from(e), vec![VertexId(1), src]));
    }
    for fs in &cutting[..2] {
        let mut targets = affected(fs);
        targets.truncate(3);
        targets.push(src);
        groups.push((fs.clone(), targets));
    }
    let longest = groups.iter().map(|(_, t)| t.len()).max().unwrap_or(0);
    let mut batch = Vec::new();
    for i in 0..longest {
        for _ in 0..2 {
            for (fs, targets) in &groups {
                if let Some(&v) = targets.get(i) {
                    batch.push((v, fs.clone()));
                }
            }
        }
    }
    let mut order: Vec<FaultSet> = groups.into_iter().map(|(fs, _)| fs).collect();
    order.sort();
    (batch, order)
}

#[test]
fn dist_batch_from_stops_before_a_group_with_exactly_the_earlier_groups_counted() {
    for core in &batch_cores(repaired_options()) {
        for &src in core.sources() {
            let (batch, order) = mixed_batch(core, src);
            for k in 0..=order.len() {
                // The reference: the first `k` groups, each one
                // `dist_many_after_faults_from` call in the engine's order.
                let mut want = core.new_context();
                for fs in &order[..k] {
                    let targets: Vec<VertexId> = batch
                        .iter()
                        .filter(|(_, f)| f == fs)
                        .map(|&(v, _)| v)
                        .collect();
                    want.dist_many_after_faults_from(core, src, &targets, fs)
                        .expect("in range");
                }
                let mut asked = 0;
                let mut ctx = core.new_context();
                let got = ctx
                    .dist_batch_from(core, src, &batch, || {
                        asked += 1;
                        asked > k
                    })
                    .expect("in range");
                if k < order.len() {
                    assert_eq!(got, Err(BatchStopped), "{src:?}: stop before group {k}");
                    assert_eq!(asked, k + 1, "{src:?}: asked once per group");
                } else {
                    assert!(got.is_ok(), "{src:?}: a stop that never fires");
                }
                assert_eq!(ctx.stats(), want.stats(), "{src:?}: {k} groups answered");
            }
        }
    }
}

#[test]
fn dist_batch_from_matches_query_many_faults_and_single_queries() {
    let wide = EngineOptions::new()
        .with_parallel(ParallelConfig::with_threads(4))
        .with_force_full_sweep(false);
    let cores = batch_cores(repaired_options())
        .into_iter()
        .zip(batch_cores(wide));
    for (core, wide) in cores {
        let (core, wide) = (&core, &wide);
        for &src in core.sources() {
            let (batch, _) = mixed_batch(core, src);
            let queries: Vec<(VertexId, VertexId, FaultSet)> =
                batch.iter().map(|(v, f)| (src, *v, f.clone())).collect();
            let mut want = core.new_context();
            let expected = want.query_many_faults(core, &queries).expect("in range");
            let mut ctx = core.new_context();
            let got = ctx.dist_batch_from(core, src, &batch, || false);
            assert_eq!(got, Ok(Ok(expected.clone())), "{src:?}: answers");
            assert_eq!(ctx.stats(), want.stats(), "{src:?}: counters");
            let mut one = core.new_context();
            for ((v, f), d) in batch.iter().zip(&expected) {
                let single = one.dist_after_faults_from(core, src, *v, f);
                assert_eq!(single, Ok(*d), "{src:?}: {v:?} under {f}");
            }

            // A 4-thread core still answers every group on the calling
            // context: the replay repairs the two rows the first pass only
            // remembered, which fresh worker contexts never would.
            let mut ctx = wide.new_context();
            for want in [(2, 0), (0, 2)] {
                let before = ctx.stats();
                let got = ctx.dist_batch_from(wide, src, &batch, || false);
                assert_eq!(got, Ok(Ok(expected.clone())), "{src:?}: 4-thread core");
                let d = ctx.stats().delta_since(&before);
                assert_eq!(
                    (d.restricted_repairs, d.repaired_rows),
                    want,
                    "{src:?}: (restricted, repaired)"
                );
            }
        }
    }
}

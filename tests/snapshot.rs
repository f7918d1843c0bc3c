//! Differential test for persistent engine snapshots: an engine restored
//! from `write_snapshot` bytes must be indistinguishable from the freshly
//! built one — byte-identical snapshot re-serialization (save→load→save is
//! a fixed point) and answer-identical queries across every workload shape
//! the server exposes (single dist, path, batched dist, one-to-many), in
//! both the normal tiered regime and the forced-full-sweep regime.

use ftb_core::{EngineCore, EngineOptions, FaultSet};
use ftb_graph::{EdgeId, Fault, Graph, VertexId};
use ftb_server::{setup, EngineSpec};
use ftb_workloads::WorkloadFamily;
use std::sync::Arc;

fn spec(family: WorkloadFamily, n: usize, augment: bool) -> EngineSpec {
    EngineSpec {
        family,
        n,
        seed: 13,
        eps: 0.3,
        augment,
    }
}

/// Build the engine fresh, snapshot it, restore it, and assert the
/// restored engine re-serializes to the exact same bytes. Returns both
/// engines plus the graph for query minting.
fn build_and_restore(
    spec: &EngineSpec,
    options: EngineOptions,
) -> (Graph, Arc<EngineCore>, Arc<EngineCore>) {
    let graph = spec.graph();
    let built = spec
        .build_core(&graph, options.clone())
        .expect("fresh build succeeds");
    let note = setup::encode_spec(spec);
    let bytes = built.write_snapshot(&note);
    let (restored, restored_note) =
        EngineCore::read_snapshot(&bytes, options).expect("snapshot loads");
    assert_eq!(restored_note, note, "note round-trips verbatim");
    assert_eq!(
        setup::decode_spec(&restored_note).expect("note decodes"),
        *spec
    );
    assert_eq!(
        restored.write_snapshot(&restored_note),
        bytes,
        "save->load->save is byte-identical"
    );
    (graph, built, Arc::new(restored))
}

/// A deterministic spread of fault sets exercising every tier: single
/// structure edges, edges outside the structure, vertex faults and dual
/// failures (the latter two only answered without full-graph fallback
/// when the engine is augmented, but answers must match either way).
fn fault_sets(graph: &Graph, augmented: bool) -> Vec<FaultSet> {
    let m = graph.num_edges();
    let n = graph.num_vertices();
    let mut sets = vec![FaultSet::new()];
    for i in 0..6usize {
        sets.push(FaultSet::from(EdgeId(((i * m) / 7) as u32)));
    }
    if augmented {
        for i in 1..4usize {
            let mut s = FaultSet::new();
            s.insert(Fault::Vertex(VertexId(((i * n) / 5) as u32)));
            sets.push(s);
        }
        let mut dual = FaultSet::new();
        dual.insert(Fault::Edge(EdgeId(0)));
        dual.insert(Fault::Edge(EdgeId((m / 2) as u32)));
        sets.push(dual);
    }
    sets
}

/// Fibonacci-hash spread of targets over the vertex space (the loadgen's
/// target-minting recipe).
fn targets(n: usize, count: usize) -> Vec<VertexId> {
    (0..count)
        .map(|i| VertexId(((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % n as u64) as u32))
        .collect()
}

/// Drive both engines through identical workloads and assert every answer
/// matches. Fresh contexts per engine; the built engine is the oracle.
fn assert_answer_identical(graph: &Graph, built: &Arc<EngineCore>, restored: &Arc<EngineCore>) {
    let source = built.primary_source();
    assert_eq!(restored.primary_source(), source);
    let augmented = built.augment_coverage() != ftb_core::AugmentCoverage::Off;
    assert_eq!(restored.augment_coverage(), built.augment_coverage());
    let sets = fault_sets(graph, augmented);
    let ts = targets(graph.num_vertices(), 24);

    let mut ctx_a = built.new_context();
    let mut ctx_b = restored.new_context();
    for faults in &sets {
        // Single-target distances and paths.
        for &t in &ts[..8] {
            let da = ctx_a.dist_after_faults_from(built, source, t, faults);
            let db = ctx_b.dist_after_faults_from(restored, source, t, faults);
            assert_eq!(da.unwrap(), db.unwrap(), "dist {faults:?} -> {t:?}");
            let pa = ctx_a.path_after_faults_from(built, source, t, faults);
            let pb = ctx_b.path_after_faults_from(restored, source, t, faults);
            assert_eq!(pa.unwrap(), pb.unwrap(), "path {faults:?} -> {t:?}");
        }
        // One-to-many: single classification + at most one repair sweep.
        let ma = ctx_a.dist_many_after_faults_from(built, source, &ts, faults);
        let mb = ctx_b.dist_many_after_faults_from(restored, source, &ts, faults);
        assert_eq!(ma.unwrap(), mb.unwrap(), "dist_many {faults:?}");
    }

    // Batched mixed-fault queries on fresh contexts (grouped + sharded).
    let batch: Vec<(VertexId, VertexId, FaultSet)> = ts
        .iter()
        .enumerate()
        .map(|(i, &t)| (source, t, sets[i % sets.len()].clone()))
        .collect();
    assert_eq!(
        built
            .new_context()
            .query_many_faults(built, &batch)
            .unwrap(),
        restored
            .new_context()
            .query_many_faults(restored, &batch)
            .unwrap(),
        "batched answers"
    );
}

fn run_family(family: WorkloadFamily, n: usize, augment: bool) {
    let spec = spec(family, n, augment);
    // Normal tiered answering.
    let (graph, built, restored) = build_and_restore(&spec, EngineOptions::new());
    assert_answer_identical(&graph, &built, &restored);
    // Forced full sweeps: the repair-free reference regime must agree too
    // (the option is per-engine, not ambient, so no env-var races here).
    let opts = EngineOptions::new().with_force_full_sweep(true);
    let (graph, built, restored) = build_and_restore(&spec, opts);
    assert_answer_identical(&graph, &built, &restored);
}

#[test]
fn erdos_renyi_snapshot_is_answer_identical() {
    run_family(WorkloadFamily::ErdosRenyi, 260, false);
}

#[test]
fn erdos_renyi_augmented_snapshot_is_answer_identical() {
    run_family(WorkloadFamily::ErdosRenyi, 220, true);
}

#[test]
fn grid_chords_augmented_snapshot_is_answer_identical() {
    run_family(WorkloadFamily::GridChords, 225, true);
}

#[test]
fn layered_snapshot_is_answer_identical() {
    run_family(WorkloadFamily::LayeredShallow, 300, false);
}

#[test]
fn snapshot_rejects_the_wrong_graph_spec() {
    // A snapshot of one spec decodes fine, but the embedded spec names the
    // graph it was built from — the serve-side cross-check path.
    let a = spec(WorkloadFamily::ErdosRenyi, 200, false);
    let graph = a.graph();
    let core = a.build_core(&graph, EngineOptions::new()).expect("build");
    let bytes = core.write_snapshot(&setup::encode_spec(&a));
    let (_, note) = EngineCore::read_snapshot(&bytes, EngineOptions::new()).expect("loads");
    let embedded = setup::decode_spec(&note).expect("decodes");
    let b = spec(WorkloadFamily::ErdosRenyi, 201, false);
    assert_eq!(embedded, a);
    assert_ne!(embedded, b);
    assert_ne!(
        a.graph().fingerprint(),
        b.graph().fingerprint(),
        "different specs generate different graphs"
    );
}

/// A crash between writing the `.tmp` sibling and renaming it into place
/// is the snapshot pipeline's one dangerous window. Simulate every
/// variant of it and assert the load path never trusts the wreckage.
#[test]
fn crash_mid_write_never_shadows_a_good_snapshot() {
    let spec = spec(WorkloadFamily::ErdosRenyi, 150, false);
    let graph = spec.graph();
    let core = spec
        .build_core(&graph, EngineOptions::new())
        .expect("build");

    let dir = std::env::temp_dir().join(format!("ftbfs-crash-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("engine.ftbsnap");
    let tmp = path.with_extension("tmp");

    // A good snapshot lands; its tmp sibling is renamed away.
    setup::save_snapshot(&path, &core, &spec).expect("first save");
    assert!(
        path.exists() && !tmp.exists(),
        "rename consumed the tmp file"
    );
    let (restored, restored_spec) =
        setup::load_snapshot(&path, EngineOptions::new()).expect("good snapshot loads");
    assert_eq!(restored_spec, spec);
    assert_eq!(restored.graph().fingerprint(), graph.fingerprint());

    // Crash simulation: a later save dies mid-write, leaving a truncated
    // tmp. The final name still holds the *old* good bytes — loading must
    // keep working and must not look at the tmp.
    let good_bytes = std::fs::read(&path).expect("read good snapshot");
    std::fs::write(&tmp, &good_bytes[..good_bytes.len() / 2]).expect("plant stale tmp");
    let (after_crash, _) = setup::load_snapshot(&path, EngineOptions::new())
        .expect("stale tmp must not break loading the good snapshot");
    assert_eq!(after_crash.graph().fingerprint(), graph.fingerprint());

    // The stale tmp itself is detected if someone loads it directly: a
    // truncated snapshot fails the checksum, it does not half-load.
    assert!(
        matches!(
            setup::load_snapshot(&tmp, EngineOptions::new()),
            Err(setup::SnapshotLoadError::Decode(_))
        ),
        "a truncated snapshot must be rejected by decode"
    );

    // Re-saving overwrites the stale tmp and renames it away again: the
    // crash leaves nothing permanent behind.
    setup::save_snapshot(&path, &core, &spec).expect("re-save after crash");
    assert!(
        path.exists() && !tmp.exists(),
        "re-save cleaned the stale tmp"
    );
    let (after_resave, _) =
        setup::load_snapshot(&path, EngineOptions::new()).expect("re-saved snapshot loads");
    assert_eq!(after_resave.graph().fingerprint(), graph.fingerprint());

    std::fs::remove_dir_all(&dir).ok();
}

/// The inverse wreckage: the crash happened on the *first* ever save, so
/// only a tmp exists and there is no good snapshot to fall back to. The
/// load must fail with a clean `Io(NotFound)` — not invent an engine.
#[test]
fn tmp_only_wreckage_is_a_clean_not_found() {
    let spec = spec(WorkloadFamily::ErdosRenyi, 150, false);
    let graph = spec.graph();
    let core = spec
        .build_core(&graph, EngineOptions::new())
        .expect("build");

    let dir = std::env::temp_dir().join(format!("ftbfs-crash-test2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("engine.ftbsnap");
    let tmp = path.with_extension("tmp");

    std::fs::write(&tmp, b"truncated first save").expect("plant orphan tmp");
    match setup::load_snapshot(&path, EngineOptions::new()) {
        Err(setup::SnapshotLoadError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::NotFound)
        }
        other => panic!("expected Io(NotFound), got {other:?}"),
    }

    // A successful save recovers the directory completely.
    setup::save_snapshot(&path, &core, &spec).expect("save succeeds");
    assert!(path.exists() && !tmp.exists());
    setup::load_snapshot(&path, EngineOptions::new()).expect("recovered snapshot loads");

    std::fs::remove_dir_all(&dir).ok();
}

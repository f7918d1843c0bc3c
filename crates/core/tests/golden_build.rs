//! Golden builds: the exact output of the `(b, r)` construction on a few
//! fixed workloads.
//!
//! Each line pins the structure edge set `H` and the reinforced set (count
//! plus an FNV-1a hash of the sorted edge ids) and every `BuildStats`
//! count. A change to the interference split, the A/B/C typing or the
//! Phase S1/S2 bookkeeping that alters which edges are chosen fails here,
//! not only in the end-to-end benchmark's `backup_edges`. The ε extremes
//! and the multi-source union pin the branches `TradeoffBuilder` selects
//! besides the ε ∈ (0, 1/2) construction.
//!
//! The augmentation lines pin `H⁺` the same way (count plus FNV-1a hash of
//! its edge ids, and every `AugmentStats` count) for SingleFault and
//! DualFailure coverage, a foreign augmenter seed and two sources.

use ftb_core::ftbfs::{AugmentCoverage, AugmentedStructure, FtBfsAugmenter};
use ftb_core::{BuildConfig, FtBfsStructure, Sources, StructureBuilder, TradeoffBuilder};
use ftb_graph::{BitSet, VertexId};
use ftb_par::ParallelConfig;
use ftb_workloads::{Workload, WorkloadFamily};

/// Count and FNV-1a hash of the ids in `set`.
fn fingerprint(set: &BitSet) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for id in set.iter() {
        for byte in (id as u64).to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{}#{hash:016x}", set.len())
}

fn render(case: &str, s: &FtBfsStructure) -> String {
    let st = s.stats();
    format!(
        "{case}: H={} R={} | vertices={} graph_edges={} tree_edges={} pairs={} \
         uncovered={} i1={} i2={} s1_iterations={} s1_added={} s1_leftover={} s2_glue={} \
         s2_added={} s2_sim_sets={} reinforced={} hld_levels={} k_rounds={} baseline={}",
        fingerprint(s.edge_set()),
        fingerprint(s.reinforced_set()),
        st.num_vertices,
        st.num_graph_edges,
        st.num_tree_edges,
        st.num_pairs,
        st.num_uncovered_pairs,
        st.num_i1_pairs,
        st.num_i2_pairs,
        st.s1_iterations,
        st.s1_added_edges,
        st.s1_leftover_pairs,
        st.s2_glue_added_edges,
        st.s2_added_edges,
        st.s2_sim_sets,
        st.reinforced_edges,
        st.hld_levels,
        st.k_rounds,
        st.used_baseline,
    )
}

/// `(family, n, seed, tight)`. At ε = 0.3 the default budget `⌈n^ε⌉`
/// handles every pair in one Phase S1 round on these sizes. A tight build
/// `Some(k)` (budget 1, K = k, no Phase S2) reaches a second round and
/// reinforcement.
const CASES: [(WorkloadFamily, usize, u64, Option<usize>); 6] = [
    (WorkloadFamily::ErdosRenyi, 400, 7, None),
    (WorkloadFamily::LayeredDeep, 400, 7, None),
    (WorkloadFamily::PreferentialAttachment, 200, 3, None),
    (WorkloadFamily::GridChords, 200, 1, None),
    (WorkloadFamily::ErdosRenyi, 400, 7, Some(2)),
    (WorkloadFamily::PreferentialAttachment, 200, 3, Some(1)),
];

const GOLDEN: [&str; 6] = [
    "erdos-renyi/400/7/tight=None: H=759#118363d43f9b4087 R=0#cbf29ce484222325 | vertices=400 graph_edges=1653 tree_edges=399 pairs=1183 uncovered=806 i1=806 i2=0 s1_iterations=1 s1_added=352 s1_leftover=0 s2_glue=7 s2_added=1 s2_sim_sets=2 reinforced=0 hld_levels=5 k_rounds=6 baseline=false",
    "layered-deep/400/7/tight=None: H=785#47d17cef74427a60 R=0#cbf29ce484222325 | vertices=401 graph_edges=1264 tree_edges=400 pairs=4200 uncovered=410 i1=401 i2=9 s1_iterations=1 s1_added=384 s1_leftover=0 s2_glue=1 s2_added=0 s2_sim_sets=1 reinforced=0 hld_levels=5 k_rounds=6 baseline=false",
    "pref-attach/200/3/tight=None: H=380#7884a8b3d4fc2a53 R=0#cbf29ce484222325 | vertices=200 graph_edges=594 tree_edges=199 pairs=459 uncovered=290 i1=285 i2=5 s1_iterations=1 s1_added=179 s1_leftover=0 s2_glue=1 s2_added=1 s2_sim_sets=2 reinforced=0 hld_levels=4 k_rounds=6 baseline=false",
    "grid-chords/200/1/tight=None: H=407#3900d68269165e96 R=0#cbf29ce484222325 | vertices=225 graph_edges=439 tree_edges=224 pairs=1448 uncovered=411 i1=405 i2=6 s1_iterations=1 s1_added=161 s1_leftover=0 s2_glue=9 s2_added=13 s2_sim_sets=2 reinforced=0 hld_levels=5 k_rounds=6 baseline=false",
    "erdos-renyi/400/7/tight=Some(2): H=750#e0d620077cd9a789 R=15#8475d51d9e8ca46f | vertices=400 graph_edges=1653 tree_edges=399 pairs=1183 uncovered=806 i1=806 i2=0 s1_iterations=2 s1_added=351 s1_leftover=0 s2_glue=0 s2_added=0 s2_sim_sets=0 reinforced=15 hld_levels=0 k_rounds=2 baseline=false",
    "pref-attach/200/3/tight=Some(1): H=378#0db22b88da6296d7 R=4#e819540606a35e42 | vertices=200 graph_edges=594 tree_edges=199 pairs=459 uncovered=290 i1=285 i2=5 s1_iterations=1 s1_added=179 s1_leftover=0 s2_glue=0 s2_added=0 s2_sim_sets=0 reinforced=4 hld_levels=0 k_rounds=1 baseline=false",
];

/// `(family, n, seed, ε, two sources)`: the ε = 1 baseline branch, the
/// ε = 0 reinforced tree and the union over `{0, n − 1}`.
const BRANCH_CASES: [(WorkloadFamily, usize, u64, f64, bool); 3] = [
    (WorkloadFamily::ErdosRenyi, 400, 7, 1.0, false),
    (WorkloadFamily::LayeredDeep, 400, 7, 0.0, false),
    (WorkloadFamily::PreferentialAttachment, 200, 3, 0.3, true),
];

const BRANCH_GOLDEN: [&str; 3] = [
    "erdos-renyi/400/7/eps=1/sources=[v0]: H=759#118363d43f9b4087 R=0#cbf29ce484222325 | vertices=400 graph_edges=1653 tree_edges=399 pairs=1183 uncovered=806 i1=0 i2=0 s1_iterations=0 s1_added=360 s1_leftover=0 s2_glue=0 s2_added=0 s2_sim_sets=0 reinforced=0 hld_levels=0 k_rounds=0 baseline=true",
    "layered-deep/400/7/eps=0/sources=[v0]: H=400#89d94be49c15ab5d R=400#89d94be49c15ab5d | vertices=401 graph_edges=1264 tree_edges=400 pairs=0 uncovered=0 i1=0 i2=0 s1_iterations=0 s1_added=0 s1_leftover=0 s2_glue=0 s2_added=0 s2_sim_sets=0 reinforced=400 hld_levels=0 k_rounds=0 baseline=false",
    "pref-attach/200/3/eps=0.3/sources=[v0, v199]: H=515#1ea96b370ae4ad97 R=0#cbf29ce484222325 | vertices=200 graph_edges=594 tree_edges=199 pairs=1123 uncovered=643 i1=638 i2=5 s1_iterations=2 s1_added=355 s1_leftover=0 s2_glue=6 s2_added=3 s2_sim_sets=4 reinforced=0 hld_levels=4 k_rounds=6 baseline=false",
];

fn check(parallel: ParallelConfig) {
    for ((family, n, seed, tight), expected) in CASES.into_iter().zip(GOLDEN) {
        let graph = Workload::new(family, n, seed).generate();
        let config = BuildConfig::new(0.3).with_parallel(parallel.clone());
        let config = match tight {
            Some(k) => BuildConfig {
                budget_override: Some(1),
                k_override: Some(k),
                enable_phase_s2: false,
                ..config
            },
            None => config,
        };
        let s = TradeoffBuilder::from_config(config)
            .build(&graph, &Sources::single(VertexId(0)))
            .expect("valid input");
        let case = format!("{}/{n}/{seed}/tight={tight:?}", family.name());
        assert_eq!(render(&case, &s), expected);
    }
    for ((family, n, seed, eps, two), expected) in BRANCH_CASES.into_iter().zip(BRANCH_GOLDEN) {
        let graph = Workload::new(family, n, seed).generate();
        let last = VertexId::new(graph.num_vertices() - 1);
        let sources = if two {
            Sources::multi(vec![VertexId(0), last])
        } else {
            Sources::single(VertexId(0))
        };
        let s = TradeoffBuilder::new(eps)
            .with_config(|c| c.with_parallel(parallel.clone()))
            .build(&graph, &sources)
            .expect("valid input");
        let case = format!(
            "{}/{n}/{seed}/eps={eps}/sources={:?}",
            family.name(),
            sources.as_slice()
        );
        assert_eq!(render(&case, &s), expected);
    }
}

/// `(family, n, seed, coverage, augmenter seed, two sources)`: the
/// augmentation pass on top of the ε = 0.3 build. A foreign augmenter seed
/// re-adds canonical-tree edges; two sources run one set of passes each.
const AUGMENT_CASES: [(WorkloadFamily, usize, u64, AugmentCoverage, u64, bool); 8] = {
    use AugmentCoverage::{DualFailure, SingleFault};
    use WorkloadFamily::{ErdosRenyi, GridChords, LayeredDeep, PreferentialAttachment};
    [
        (ErdosRenyi, 400, 7, SingleFault, 7, false),
        (LayeredDeep, 400, 7, SingleFault, 7, false),
        (PreferentialAttachment, 200, 3, SingleFault, 3, true),
        (GridChords, 200, 1, SingleFault, 2, false),
        (ErdosRenyi, 80, 7, DualFailure, 7, false),
        (LayeredDeep, 80, 7, DualFailure, 7, false),
        (PreferentialAttachment, 60, 3, DualFailure, 3, true),
        (GridChords, 60, 1, DualFailure, 2, false),
    ]
};

const AUGMENT_GOLDEN: [&str; 8] = [
    "erdos-renyi/400/7/single-fault/aug_seed=7/sources=1: H+=797#08da8494148abab7 | base=755 tree_added=0 single_added=42 dual_added=0 single_passes=399 dual_passes=0",
    "layered-deep/400/7/single-fault/aug_seed=7/sources=1: H+=850#bcb0a7a70fc13c33 | base=783 tree_added=0 single_added=67 dual_added=0 single_passes=400 dual_passes=0",
    "pref-attach/200/3/single-fault/aug_seed=3/sources=2: H+=525#0573a8aaa23b6bf9 | base=385 tree_added=76 single_added=64 dual_added=0 single_passes=398 dual_passes=0",
    "grid-chords/200/1/single-fault/aug_seed=2/sources=1: H+=428#ea7660828f6d863e | base=399 tree_added=9 single_added=20 dual_added=0 single_passes=224 dual_passes=0",
    "erdos-renyi/80/7/dual-failure/aug_seed=7/sources=1: H+=231#72b9cc9dff59dda0 | base=151 tree_added=0 single_added=14 dual_added=66 single_passes=158 dual_passes=12403",
    "layered-deep/80/7/dual-failure/aug_seed=7/sources=1: H+=200#345f94d496ee078a | base=136 tree_added=0 single_added=8 dual_added=56 single_passes=144 dual_passes=10296",
    "pref-attach/60/3/dual-failure/aug_seed=3/sources=2: H+=169#589a2f0cc2035bc5 | base=114 tree_added=3 single_added=4 dual_added=48 single_passes=236 dual_passes=13806",
    "grid-chords/60/1/dual-failure/aug_seed=2/sources=1: H+=118#b12df085a8824b44 | base=107 tree_added=5 single_added=3 dual_added=3 single_passes=126 dual_passes=7875",
];

fn render_augmented(case: &str, a: &AugmentedStructure) -> String {
    let st = a.stats();
    format!(
        "{case}: H+={} | base={} tree_added={} single_added={} dual_added={} \
         single_passes={} dual_passes={}",
        fingerprint(a.edge_set()),
        st.base_edges,
        st.tree_edges_added,
        st.single_added,
        st.dual_added,
        st.single_passes,
        st.dual_passes,
    )
}

fn check_augmented(parallel: ParallelConfig) {
    for ((family, n, seed, coverage, aug_seed, two), expected) in
        AUGMENT_CASES.into_iter().zip(AUGMENT_GOLDEN)
    {
        let graph = Workload::new(family, n, seed).generate();
        let last = VertexId::new(graph.num_vertices() - 1);
        let sources = if two {
            vec![VertexId(0), last]
        } else {
            vec![VertexId(0)]
        };
        let config = BuildConfig::new(0.3)
            .with_seed(seed)
            .with_parallel(parallel.clone())
            .with_augment(coverage);
        let s = TradeoffBuilder::from_config(config.clone())
            .build(&graph, &Sources::single(VertexId(0)))
            .expect("valid input");
        let a = FtBfsAugmenter::from_build_config(&config)
            .with_seed(aug_seed)
            .augment_sources(&graph, s, &sources)
            .expect("matching graph");
        let case = format!(
            "{}/{n}/{seed}/{}/aug_seed={aug_seed}/sources={}",
            family.name(),
            coverage.name(),
            sources.len()
        );
        let line = render_augmented(&case, &a);
        assert_eq!(line, expected);
    }
}

#[test]
fn golden_augmented_serial() {
    check_augmented(ParallelConfig::serial());
}

#[test]
fn golden_augmented_four_threads() {
    check_augmented(ParallelConfig::with_threads(4).with_chunk_size(4));
}

#[test]
fn golden_builds_serial() {
    check(ParallelConfig::serial());
}

#[test]
fn golden_builds_four_threads() {
    check(ParallelConfig::with_threads(4).with_chunk_size(4));
}

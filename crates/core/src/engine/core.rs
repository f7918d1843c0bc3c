//! The immutable, shareable half of the query engine: [`EngineCore`] and its
//! construction-time options.

use super::context::QueryContext;
use super::{ParentEntry, SweepScratch, Tier};
use crate::error::FtbfsError;
use crate::ftbfs::{AugmentCoverage, AugmentStats, AugmentedStructure};
use crate::mbfs::MultiSourceStructure;
use crate::structure::FtBfsStructure;
use ftb_graph::{CompactSubgraph, EdgeId, Fault, FaultSet, Graph, VertexId};
use ftb_par::ParallelConfig;
use ftb_sp::UNREACHABLE;
use ftb_tree::EulerTourIndex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable disabling the incremental row repair and the
/// unaffected-target fast path: when set to `1`/`true`, every cache miss
/// runs a full CSR sweep and every query resolves a materialized row — the
/// pre-repair behaviour. This is the differential-testing escape hatch: the
/// repaired rows are asserted byte-identical against exactly this mode.
/// Explicit [`EngineOptions::with_force_full_sweep`] settings are never
/// overridden; the variable only seeds the default.
pub const FORCE_FULL_SWEEP_ENV: &str = "FTBFS_FORCE_FULL_SWEEP";

/// `true` when [`FORCE_FULL_SWEEP_ENV`] asks for full sweeps.
fn force_full_sweep_from_env() -> bool {
    std::env::var(FORCE_FULL_SWEEP_ENV)
        .map(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true")
        })
        .unwrap_or(false)
}

/// Serving-side tuning knobs, independent of how the structure was built.
///
/// Pass to [`EngineCore::build_with`] (or its `build_multi_with` /
/// `build_augmented_with` siblings). This is the one home of the engine
/// knobs; [`BuildConfig`](crate::BuildConfig) holds construction settings
/// only.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Capacity, in distance rows, of each context's LRU of post-failure
    /// rows (keyed by fault set and source). Each row costs `O(n)` memory
    /// per context; minimum 1 (the 0.2 one-row cache behaviour).
    pub lru_rows: usize,
    /// Thread configuration for sharded
    /// [`QueryContext::query_many_faults`] batches. Groups of
    /// queries sharing a fault set are distributed over this many
    /// workers, each with its own [`QueryContext`]. A serial configuration
    /// answers the whole batch on the calling thread.
    pub parallel: ParallelConfig,
    /// Maximum fault-set size (`|F|`) the engine accepts; larger sets are
    /// rejected with [`FtbfsError::FaultSetTooLarge`]. Answering a set that
    /// is not a single non-reinforced structure edge costs one BFS over the
    /// full graph (see the [module docs](super)), so the cap bounds the
    /// worst-case per-row work a caller can trigger. Minimum 1.
    pub max_faults: usize,
    /// Disable the incremental row repair and the unaffected-target fast
    /// path: every cache miss runs a full CSR sweep and every query
    /// resolves a materialized row. Defaults to the value of the
    /// [`FORCE_FULL_SWEEP_ENV`] environment variable (normally `false`).
    /// Answers are byte-identical either way — this knob exists for
    /// differential testing and for measuring the repair speedup.
    pub force_full_sweep: bool,
}

impl EngineOptions {
    /// Default LRU capacity: a few rows is enough to absorb interleaved
    /// queries against a small working set of failures without the memory
    /// cost growing past `O(n)` per context in spirit.
    pub const DEFAULT_LRU_ROWS: usize = 8;

    /// Default fault cap: dual failures, matching the richest regime with
    /// dedicated structures in the literature (Parter 2015). Raising it is
    /// safe — larger sets are answered by recomputed BFS — but each extra
    /// fault widens the space of distinct rows the LRU has to absorb.
    pub const DEFAULT_MAX_FAULTS: usize = 2;

    /// Default options: [`Self::DEFAULT_LRU_ROWS`] rows, the default
    /// (all-cores, env-overridable) [`ParallelConfig`] and
    /// [`Self::DEFAULT_MAX_FAULTS`] faults per query.
    pub fn new() -> Self {
        EngineOptions {
            lru_rows: Self::DEFAULT_LRU_ROWS,
            parallel: ParallelConfig::default(),
            max_faults: Self::DEFAULT_MAX_FAULTS,
            force_full_sweep: force_full_sweep_from_env(),
        }
    }

    /// Set the per-context LRU row capacity (minimum 1).
    pub fn with_lru_rows(mut self, rows: usize) -> Self {
        self.lru_rows = rows.max(1);
        self
    }

    /// Set the batch-sharding thread configuration.
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Answer batches strictly on the calling thread.
    pub fn serial(mut self) -> Self {
        self.parallel = ParallelConfig::serial();
        self
    }

    /// Set the maximum accepted fault-set size (minimum 1).
    pub fn with_max_faults(mut self, max: usize) -> Self {
        self.max_faults = max.max(1);
        self
    }

    /// Force every cache miss onto a full CSR sweep and every query onto a
    /// materialized row (disables the incremental repair and the
    /// unaffected-target fast path). See [`EngineOptions::force_full_sweep`].
    pub fn with_force_full_sweep(mut self, force: bool) -> Self {
        self.force_full_sweep = force;
        self
    }
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// One fault-free BFS row (distances + parents) for a served source.
#[derive(Clone, Debug)]
pub(super) struct FaultFreeRow {
    pub(super) dist: Vec<u32>,
    pub(super) parent: Vec<Option<(VertexId, EdgeId)>>,
}

static NEXT_CORE_TOKEN: AtomicU64 = AtomicU64::new(1);

/// A fresh core-identity token. Every constructed core — assembled or loaded
/// from a snapshot — gets its own, so contexts can never be replayed against
/// a different core that merely has the same shape.
pub(super) fn next_core_token() -> u64 {
    NEXT_CORE_TOKEN.fetch_add(1, Ordering::Relaxed)
}

/// The preprocessed augmented-serving tier: the compact CSR of `H⁺` and the
/// coverage contract deciding which fault sets it may answer.
#[derive(Debug)]
pub(super) struct AugmentedTier {
    /// Compact CSR of `H⁺` (vertex ids preserved, edge ids translated).
    pub(super) csr: CompactSubgraph,
    /// The fault family the structure was constructed to answer exactly.
    pub(super) coverage: AugmentCoverage,
    /// Per-slot canonical fault-free *parent* rows over the `H⁺` adjacency.
    /// The distances equal the shared fault-free rows (every tier preserves
    /// fault-free distances), but canonical parents are adjacency-relative,
    /// so the repair path needs the `H⁺` flavour to copy unaffected entries
    /// from.
    pub(super) fault_free_parent: Vec<Vec<ParentEntry>>,
}

/// Per-slot index of the fault-free BFS tree `T0` used by the incremental
/// row repair and the unaffected-target fast path: preorder subtree
/// intervals over `T0` plus the tree-edge → child-endpoint map.
#[derive(Debug)]
pub(super) struct SlotTree {
    /// Preorder intervals: the affected set of a failed tree element is a
    /// union of `O(|F|)` contiguous ranges of `euler.order()`.
    pub(super) euler: EulerTourIndex,
    /// Child endpoint of each `T0` tree edge, indexed by **compact `H`**
    /// edge id (`None` for structure edges outside the tree).
    pub(super) edge_child: Vec<Option<VertexId>>,
}

impl SlotTree {
    /// The child endpoint under which parent-graph edge `ge` hangs in this
    /// slot's tree, if `ge` is a tree edge.
    pub(super) fn tree_edge_child(&self, h: &CompactSubgraph, ge: EdgeId) -> Option<VertexId> {
        self.edge_child
            .get(h.compact_edge(ge)?.index())
            .copied()
            .flatten()
    }
}

/// The immutable preprocessed half of the fault-query engine.
///
/// An `EngineCore` owns everything queries read and nothing they write: a
/// copy of the parent graph (for the reinforced-edge fallback), the
/// structure's edge/reinforcement sets, the compact CSR of `H`, and one
/// fault-free distance/parent row per served source. It is `Send + Sync`;
/// wrap it in an [`Arc`](std::sync::Arc) and create one [`QueryContext`] per
/// thread with [`EngineCore::new_context`] to serve queries concurrently.
///
/// Cores are built either from a single-source
/// [`FtBfsStructure`] ([`EngineCore::build`]) or from a
/// [`MultiSourceStructure`] ([`EngineCore::build_multi`]), in which case one
/// fault-free row per source is preprocessed and per-source queries all
/// resolve against the one shared union CSR.
#[derive(Debug)]
pub struct EngineCore {
    /// Owned copy of the parent graph (reinforced-edge fallback BFS).
    pub(super) graph: Graph,
    /// The served structure; for a multi-source core this is the collapsed
    /// union (edge and reinforcement sets are the union sets).
    pub(super) structure: FtBfsStructure,
    /// The served sources; queries name them by vertex id. Slot 0 is the
    /// primary source (the single source, or the first of the union).
    pub(super) sources: Vec<VertexId>,
    /// Compact CSR of `H` (vertex ids preserved, edge ids translated).
    pub(super) h: CompactSubgraph,
    /// The augmented serving tier, present when the core was built from an
    /// [`AugmentedStructure`] with non-trivial coverage.
    pub(super) aug: Option<AugmentedTier>,
    /// Fault-free rows, one per source slot.
    pub(super) fault_free: Vec<FaultFreeRow>,
    /// Canonical fault-free *parent* rows relative to the **full graph**
    /// adjacency, one per slot. Distances equal the shared fault-free rows;
    /// only the canonical-parent selection differs (it is
    /// adjacency-order-relative). The `full_graph_bfs` tier's path fast
    /// path extracts unaffected parent chains from these.
    pub(super) full_parent: Vec<Vec<ParentEntry>>,
    /// Fault-free tree indices, one per source slot (same order).
    pub(super) trees: Vec<SlotTree>,
    /// Vertex → source-slot lookup (`u32::MAX` = not a served source), so
    /// multi-source cores resolve sources in `O(1)` instead of a linear
    /// scan per query.
    pub(super) slot_of: Vec<u32>,
    pub(super) options: EngineOptions,
    /// Wall-clock nanoseconds of each preprocessing phase, in execution
    /// order ([`EngineCore::build_timings`]). Not persisted in snapshots; a
    /// loaded core reports a single `snapshot_load` phase instead.
    pub(super) build_timings: Vec<(&'static str, u64)>,
    /// Counters of the augmentation run an in-process
    /// [`EngineCore::build_augmented`] core was built from; `None` for
    /// plain and snapshot-loaded cores.
    pub(super) augment_stats: Option<AugmentStats>,
    /// Identity tying contexts to the core that created them.
    pub(super) token: u64,
}

impl EngineCore {
    /// Preprocess a single-source `structure` (built from `graph`) into a
    /// shareable core with default [`EngineOptions`].
    ///
    /// # Errors
    ///
    /// [`FtbfsError::StructureMismatch`] when the structure's edge space does
    /// not match `graph`, [`FtbfsError::VertexOutOfRange`] when a source does
    /// not exist in `graph`, and
    /// [`FtbfsError::FaultFreeDistanceMismatch`] when the structure fails to
    /// preserve the graph's fault-free distances — together these catch a
    /// structure paired with a graph it was not built from, even one with a
    /// coincidentally matching edge count.
    pub fn build(graph: &Graph, structure: FtBfsStructure) -> Result<Self, FtbfsError> {
        Self::build_with(graph, structure, EngineOptions::default())
    }

    /// Like [`EngineCore::build`] with explicit options.
    pub fn build_with(
        graph: &Graph,
        structure: FtBfsStructure,
        options: EngineOptions,
    ) -> Result<Self, FtbfsError> {
        let sources = vec![structure.source()];
        Self::assemble(graph, structure, sources, options, None)
    }

    /// Preprocess an [`AugmentedStructure`] into a core with an
    /// `augmented_bfs` serving tier: fault sets inside the structure's
    /// [coverage](AugmentedStructure::coverage) are answered by a
    /// banned-element BFS over the compact CSR of `H⁺ ∖ F` instead of the
    /// full-graph fallback. Serves every source the structure was augmented
    /// for.
    ///
    /// # Errors
    ///
    /// As [`EngineCore::build`], checked for every source.
    pub fn build_augmented(
        graph: &Graph,
        augmented: AugmentedStructure,
    ) -> Result<Self, FtbfsError> {
        Self::build_augmented_with(graph, augmented, EngineOptions::default())
    }

    /// Like [`EngineCore::build_augmented`] with explicit options.
    pub fn build_augmented_with(
        graph: &Graph,
        augmented: AugmentedStructure,
        options: EngineOptions,
    ) -> Result<Self, FtbfsError> {
        let AugmentedStructure {
            base,
            edges,
            sources,
            coverage,
            stats,
        } = augmented;
        let aug = (coverage != AugmentCoverage::Off).then_some((edges, coverage));
        let mut core = Self::assemble(graph, base, sources, options, aug)?;
        core.augment_stats = Some(stats);
        Ok(core)
    }

    /// Preprocess a multi-source structure into one shared core: the union
    /// `H` becomes a single compact CSR and every source gets its own
    /// fault-free row, so per-source queries are served without collapsing
    /// to the primary source.
    ///
    /// # Errors
    ///
    /// As [`EngineCore::build`], checked for every source.
    pub fn build_multi(graph: &Graph, structure: MultiSourceStructure) -> Result<Self, FtbfsError> {
        Self::build_multi_with(graph, structure, EngineOptions::default())
    }

    /// Like [`EngineCore::build_multi`] with explicit options.
    pub fn build_multi_with(
        graph: &Graph,
        structure: MultiSourceStructure,
        options: EngineOptions,
    ) -> Result<Self, FtbfsError> {
        let sources = structure.sources().to_vec();
        Self::assemble(
            graph,
            structure.into_union_structure(),
            sources,
            options,
            None,
        )
    }

    fn assemble(
        graph: &Graph,
        structure: FtBfsStructure,
        sources: Vec<VertexId>,
        options: EngineOptions,
        aug: Option<(ftb_graph::BitSet, AugmentCoverage)>,
    ) -> Result<Self, FtbfsError> {
        if structure.edge_set().capacity() != graph.num_edges() {
            return Err(FtbfsError::StructureMismatch {
                structure_edges: structure.edge_set().capacity(),
                graph_edges: graph.num_edges(),
            });
        }
        for &s in &sources {
            if s.index() >= graph.num_vertices() {
                return Err(FtbfsError::VertexOutOfRange {
                    vertex: s,
                    num_vertices: graph.num_vertices(),
                });
            }
        }
        let t0 = std::time::Instant::now();
        let mut build_timings: Vec<(&'static str, u64)> = Vec::new();
        let mut phase_mark = t0;
        let phase_done = |timings: &mut Vec<(&'static str, u64)>,
                          mark: &mut std::time::Instant,
                          name: &'static str| {
            let now = std::time::Instant::now();
            timings.push((name, now.duration_since(*mark).as_nanos() as u64));
            *mark = now;
        };
        let h = CompactSubgraph::from_edge_set(graph, structure.edge_set());
        phase_done(&mut build_timings, &mut phase_mark, "compact_h");
        let n = graph.num_vertices();

        // Fault-free preprocessing: one BFS over H per source, cross-checked
        // against the graph's own distances. Any valid structure preserves
        // them, so a divergence means the pairing is wrong. The cross-check
        // sweep runs over the full graph with canonical parent selection,
        // so it doubles as the builder of the per-slot full-graph parent
        // rows the `full_graph_bfs` path fast path reads.
        let mut fault_free = Vec::with_capacity(sources.len());
        let mut full_parent = Vec::with_capacity(sources.len());
        let mut trees = Vec::with_capacity(sources.len());
        let mut scratch = SweepScratch::new(n);
        let mut check_dist = vec![UNREACHABLE; n];
        for &s in &sources {
            let mut row = FaultFreeRow {
                dist: vec![UNREACHABLE; n],
                parent: vec![None; n],
            };
            super::bfs_sweep(s, &mut scratch, |u| h.neighbors_parent_ids(u));
            scratch.materialize(&mut row.dist, &mut row.parent);
            let mut g_parent = vec![None; n];
            super::bfs_sweep(s, &mut scratch, |u| graph.neighbors(u));
            scratch.materialize(&mut check_dist, &mut g_parent);
            if let Some(i) = (0..check_dist.len()).find(|&i| check_dist[i] != row.dist[i]) {
                return Err(FtbfsError::FaultFreeDistanceMismatch {
                    vertex: VertexId::new(i),
                });
            }
            full_parent.push(g_parent);
            // Index the slot's tree T0 for the repair path: preorder
            // intervals plus the tree-edge → child map (every tree edge is
            // a structure edge, so compact H ids index it densely).
            let euler = EulerTourIndex::from_parents(s, &row.parent);
            let mut edge_child = vec![None; h.num_edges()];
            for (i, p) in row.parent.iter().enumerate() {
                if let Some((_, ge)) = p {
                    let ce = h.compact_edge(*ge).expect("tree edges are structure edges");
                    edge_child[ce.index()] = Some(VertexId::new(i));
                }
            }
            trees.push(SlotTree { euler, edge_child });
            fault_free.push(row);
        }
        phase_done(&mut build_timings, &mut phase_mark, "fault_free_rows");

        // The augmented tier additionally needs canonical fault-free
        // parents relative to the H⁺ adjacency (distances are the same —
        // every tier preserves fault-free distances — but canonical parent
        // selection is adjacency-order-relative).
        let aug = aug.map(|(edges, coverage)| {
            debug_assert!(
                structure.edge_set().iter().all(|e| edges.contains(e)),
                "H⁺ must contain H"
            );
            let csr = CompactSubgraph::from_edge_set(graph, &edges);
            let mut dist_buf = vec![UNREACHABLE; n];
            let fault_free_parent = sources
                .iter()
                .enumerate()
                .map(|(slot, &s)| {
                    let mut parent = vec![None; n];
                    super::bfs_sweep(s, &mut scratch, |u| csr.neighbors_parent_ids(u));
                    scratch.materialize(&mut dist_buf, &mut parent);
                    debug_assert_eq!(
                        dist_buf, fault_free[slot].dist,
                        "H⁺ must preserve fault-free distances"
                    );
                    parent
                })
                .collect();
            AugmentedTier {
                csr,
                coverage,
                fault_free_parent,
            }
        });
        phase_done(&mut build_timings, &mut phase_mark, "augmented_tier");

        let mut slot_of = vec![u32::MAX; n];
        for (slot, &s) in sources.iter().enumerate() {
            // First slot wins for a repeated source, matching the linear
            // scan this lookup replaces.
            if slot_of[s.index()] == u32::MAX {
                slot_of[s.index()] = slot as u32;
            }
        }

        phase_done(&mut build_timings, &mut phase_mark, "slot_index");

        Ok(EngineCore {
            graph: graph.clone(),
            structure,
            sources,
            h,
            aug,
            fault_free,
            full_parent,
            trees,
            slot_of,
            options,
            build_timings,
            augment_stats: None,
            token: next_core_token(),
        })
    }

    /// Create a fresh per-thread query context sized for this core.
    ///
    /// Contexts are cheap (`O(n)` scratch plus up to
    /// [`EngineOptions::lru_rows`] cached rows) and are the only mutable
    /// state queries need — one per worker thread is the intended pattern.
    pub fn new_context(&self) -> QueryContext {
        QueryContext::for_core(self)
    }

    /// The served structure (the collapsed union for a multi-source core).
    pub fn structure(&self) -> &FtBfsStructure {
        &self.structure
    }

    /// The parent graph (the core's owned copy).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The served sources; slot order is the row order used internally.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// The primary source (slot 0).
    pub fn primary_source(&self) -> VertexId {
        self.sources[0]
    }

    /// The serving options the core was built with.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Wall-clock nanoseconds of each preprocessing phase, in execution
    /// order: `compact_h` (the serving CSR of `H`), `fault_free_rows` (the
    /// per-source BFS rows, cross-checks and tree indices),
    /// `augmented_tier` (the `H⁺` CSR and its parent rows; ~0 without
    /// augmentation) and `slot_index`. A core loaded from a snapshot
    /// reports a single `snapshot_load` phase — the timings describe how
    /// *this* core came to exist, not how its structure was built (that is
    /// [`BuildStats`](crate::BuildStats)).
    pub fn build_timings(&self) -> &[(&'static str, u64)] {
        &self.build_timings
    }

    /// Counters of the augmentation this core was built from, including
    /// its wall time [`AugmentStats::augment_ms`]. `None` unless the core
    /// came from [`EngineCore::build_augmented`] in this process: snapshots
    /// do not persist them.
    pub fn augment_stats(&self) -> Option<&AugmentStats> {
        self.augment_stats.as_ref()
    }

    /// Fault-free distance `dist(source, v, G)` (`None` if `v` is
    /// unreachable), read from the preprocessed row — no search.
    ///
    /// # Errors
    ///
    /// [`FtbfsError::VertexOutOfRange`] for a bad vertex,
    /// [`FtbfsError::SourceNotServed`] for a source the core was not built
    /// for.
    pub fn fault_free_dist(
        &self,
        source: VertexId,
        v: VertexId,
    ) -> Result<Option<u32>, FtbfsError> {
        self.check_vertex(v)?;
        let slot = self.source_slot(source)?;
        Ok(self.fault_free_dist_slot(slot, v))
    }

    /// Fault-free distance `dist(s, v, G)` from the slot-`slot` source
    /// (`None` if `v` is unreachable).
    pub(super) fn fault_free_dist_slot(&self, slot: usize, v: VertexId) -> Option<u32> {
        super::finite(self.fault_free[slot].dist[v.index()])
    }

    /// Borrow the fault-free row of a source slot.
    pub(super) fn fault_free_row(&self, slot: usize) -> super::RowRefs<'_> {
        let row = &self.fault_free[slot];
        (&row.dist, &row.parent)
    }

    /// The canonical fault-free parent row a given tier's rows are built
    /// from: canonical-parent selection is adjacency-order-relative, so each
    /// serving adjacency (`H`, `H⁺`, `G`) has its own flavour. An
    /// unaffected parent chain read from this row is byte-identical to the
    /// chain the tier's materialized post-failure row would contain.
    pub(super) fn tier_parent_row(&self, slot: usize, tier: Tier) -> &[ParentEntry] {
        match tier {
            Tier::FaultFree | Tier::SparseH => &self.fault_free[slot].parent,
            Tier::Augmented => {
                let aug = self.aug.as_ref().expect("augmented tier requires aug");
                &aug.fault_free_parent[slot]
            }
            Tier::FullGraph => &self.full_parent[slot],
        }
    }

    /// Resolve a source vertex to its row slot in `O(1)` via the
    /// preprocessed vertex → slot lookup (out-of-range vertices are simply
    /// not served).
    pub(super) fn source_slot(&self, source: VertexId) -> Result<usize, FtbfsError> {
        match self.slot_of.get(source.index()) {
            Some(&slot) if slot != u32::MAX => Ok(slot as usize),
            _ => Err(FtbfsError::SourceNotServed { source }),
        }
    }

    /// The fault-free tree index of a source slot.
    pub(super) fn slot_tree(&self, slot: usize) -> &SlotTree {
        &self.trees[slot]
    }

    /// Public observable twin of the engine's internal unaffected test:
    /// `true` when `v` is provably unaffected by `faults` as seen from
    /// `source` (its canonical `T0` path avoids every failed element), so a
    /// distance query would be answered from the fault-free row with zero
    /// search. Exposed so tests and experiments can construct target sets
    /// with known classification.
    ///
    /// # Errors
    ///
    /// [`FtbfsError::SourceNotServed`] for a source without a slot,
    /// [`FtbfsError::InvalidFault`] / [`FtbfsError::FaultSetTooLarge`] for
    /// a bad fault set, [`FtbfsError::VertexOutOfRange`] for a bad target.
    pub fn is_target_unaffected(
        &self,
        source: VertexId,
        v: VertexId,
        faults: &FaultSet,
    ) -> Result<bool, FtbfsError> {
        self.check_fault_set(faults)?;
        self.check_vertex(v)?;
        let slot = self.source_slot(source)?;
        Ok(self.target_unaffected(slot, v, faults))
    }

    /// Validate one `(source, target, faults)` query without answering it,
    /// with the same checks (in the same order) as
    /// [`QueryContext::dist_after_faults_from`](super::QueryContext::dist_after_faults_from):
    /// target vertex, then fault set, then source. Lets a batching front
    /// end (e.g. the TCP server) validate a whole batch up front and still
    /// fail with exactly the error the serial query loop would have hit
    /// first.
    ///
    /// # Errors
    ///
    /// As [`QueryContext::dist_after_faults_from`](super::QueryContext::dist_after_faults_from),
    /// minus `ContextMismatch` (no context is involved).
    pub fn validate_query(
        &self,
        source: VertexId,
        v: VertexId,
        faults: &FaultSet,
    ) -> Result<(), FtbfsError> {
        self.check_vertex(v)?;
        self.check_fault_set(faults)?;
        self.source_slot(source)?;
        Ok(())
    }

    /// `true` if `v` is **provably unaffected** by `faults` as seen from
    /// slot `slot`: the canonical tree path `T0(s → v)` uses no failed tree
    /// edge and no failed vertex, so `dist(s, v, G' ∖ F) = dist(s, v, G)`
    /// for every serving subgraph `T0 ⊆ G' ⊆ G` — the fault-free row
    /// answers in `O(|F|)` with no search. Out-of-tree targets are
    /// unaffected too (they stay unreachable under any fault set).
    pub(super) fn target_unaffected(&self, slot: usize, v: VertexId, faults: &FaultSet) -> bool {
        let tree = &self.trees[slot];
        faults.iter().all(|f| match f {
            Fault::Edge(ge) => match tree.tree_edge_child(&self.h, ge) {
                Some(c) => !tree.euler.is_ancestor(c, v),
                None => true,
            },
            Fault::Vertex(u) => !tree.euler.is_ancestor(u, v),
        })
    }

    /// Collect the merged preorder intervals (into `out`, as
    /// `(start, end)` ranges over the slot tree's
    /// [`order`](EulerTourIndex::order) array) of the subtrees hanging
    /// under the failed elements of `faults`. Returns the number of
    /// affected vertices. Subtree intervals are laminar, so sorting and one
    /// merge pass suffice.
    pub(super) fn affected_intervals(
        &self,
        slot: usize,
        faults: &FaultSet,
        out: &mut Vec<(u32, u32)>,
    ) -> usize {
        let tree = &self.trees[slot];
        out.clear();
        for f in faults.iter() {
            let root = match f {
                Fault::Edge(ge) => tree.tree_edge_child(&self.h, ge),
                Fault::Vertex(u) if tree.euler.in_tree(u) => Some(u),
                Fault::Vertex(_) => None,
            };
            if let Some(r) = root {
                let range = tree.euler.subtree(r);
                out.push((range.start as u32, range.end as u32));
            }
        }
        out.sort_unstable();
        let mut w = 0usize;
        for i in 0..out.len() {
            if w > 0 && out[i].0 < out[w - 1].1 {
                out[w - 1].1 = out[w - 1].1.max(out[i].1);
            } else {
                out[w] = out[i];
                w += 1;
            }
        }
        out.truncate(w);
        out.iter().map(|&(a, b)| (b - a) as usize).sum()
    }

    /// Number of vertices whose canonical shortest path from `source` uses
    /// an element of `faults` — the *affected set* the incremental row
    /// repair re-sweeps (everything else is answered from the fault-free
    /// row). Exposed so experiments can report affected-set size
    /// distributions per workload.
    ///
    /// # Errors
    ///
    /// [`FtbfsError::SourceNotServed`] for a source without a slot,
    /// [`FtbfsError::InvalidFault`] / [`FtbfsError::FaultSetTooLarge`] for
    /// a bad fault set.
    pub fn affected_vertex_count(
        &self,
        source: VertexId,
        faults: &FaultSet,
    ) -> Result<usize, FtbfsError> {
        self.check_fault_set(faults)?;
        let slot = self.source_slot(source)?;
        let mut intervals = Vec::new();
        Ok(self.affected_intervals(slot, faults, &mut intervals))
    }

    pub(super) fn check_vertex(&self, v: VertexId) -> Result<(), FtbfsError> {
        if v.index() >= self.graph.num_vertices() {
            return Err(FtbfsError::VertexOutOfRange {
                vertex: v,
                num_vertices: self.graph.num_vertices(),
            });
        }
        Ok(())
    }

    /// Validate a fault set against this core: every member id in range
    /// ([`FtbfsError::InvalidFault`]) and the set no larger than the
    /// configured [`EngineOptions::max_faults`]
    /// ([`FtbfsError::FaultSetTooLarge`]).
    pub fn check_fault_set(&self, faults: &FaultSet) -> Result<(), FtbfsError> {
        if faults.len() > self.options.max_faults {
            return Err(FtbfsError::FaultSetTooLarge {
                got: faults.len(),
                max: self.options.max_faults,
            });
        }
        if let Some(fault) = faults.first_invalid(&self.graph) {
            return Err(FtbfsError::InvalidFault {
                fault,
                num_vertices: self.graph.num_vertices(),
                num_edges: self.graph.num_edges(),
            });
        }
        Ok(())
    }

    /// `true` if `faults` cannot change any distance: every fault is an edge
    /// outside `H` (so `T0 ⊆ H ⊆ G ∖ F` survives and distances are
    /// squeezed between the fault-free values on both sides). Vertex faults
    /// never qualify — removing a vertex always changes its own row entry.
    pub(super) fn faults_preserve_distances(&self, faults: &FaultSet) -> bool {
        faults.iter().all(|f| match f {
            ftb_graph::Fault::Edge(e) => !self.structure.contains_edge(e),
            ftb_graph::Fault::Vertex(_) => false,
        })
    }

    /// The augmentation coverage the core serves with its `augmented_bfs`
    /// tier ([`AugmentCoverage::Off`] for a core built from a plain
    /// structure).
    pub fn augment_coverage(&self) -> AugmentCoverage {
        self.aug
            .as_ref()
            .map_or(AugmentCoverage::Off, |a| a.coverage)
    }

    /// Number of edges of the augmented structure `H⁺` the core serves
    /// (`None` without augmentation).
    pub fn augmented_edges(&self) -> Option<usize> {
        self.aug.as_ref().map(|a| a.csr.num_edges())
    }

    /// Route a (validated) fault set to its answering tier. Routing is a
    /// pure function of the fault set and the core's structure, so every
    /// context (and every LRU-cached row) agrees on the attribution.
    pub(super) fn route(&self, faults: &FaultSet) -> Tier {
        if self.faults_preserve_distances(faults) {
            return Tier::FaultFree;
        }
        if let Some(e) = faults.as_single_edge() {
            if self.structure.contains_edge(e) && !self.structure.is_reinforced(e) {
                return Tier::SparseH;
            }
        }
        match &self.aug {
            Some(aug) if aug.coverage.covers(faults) => Tier::Augmented,
            _ => Tier::FullGraph,
        }
    }
}

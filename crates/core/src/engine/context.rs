//! The per-thread mutable half of the query engine: [`QueryContext`].

use super::core::{merge_ranges, EngineCore};
use super::obs::EngineObs;
use super::{bfs_sweep, finite, ParentEntry, QueryStats, SweepScratch, Tier, TierCounters};
use crate::error::FtbfsError;
use ftb_graph::{CompactSubgraph, EdgeId, Fault, FaultSet, Graph, VertexId};
use ftb_obs::Span;
use ftb_par::{parallel_map_init, ParallelConfig};
use ftb_sp::{BoundarySweep, EulerTourIndex, Path, Region, TimestampedVector, UNREACHABLE};
use std::sync::Arc;
use std::time::Instant;

/// One cached post-failure BFS row, keyed by (source slot, fault set).
///
/// Rows are not tagged with their tier: routing is a pure function of the
/// fault set, so an LRU hit re-derives the same attribution the computing
/// query got.
#[derive(Clone, Debug)]
struct CachedRow {
    source_slot: u32,
    faults: FaultSet,
    dist: Vec<u32>,
    parent: Vec<Option<(VertexId, EdgeId)>>,
    /// `false` while the entry only remembers that a batch missed on its
    /// fault set: `dist`/`parent` hold no row (and are empty until the
    /// slot's first repair).
    ready: bool,
    /// Logical timestamp of the last hit (LRU eviction order).
    last_used: u64,
}

/// Where a (source slot, fault set) key stands in the LRU; the index is
/// the entry now holding the key, most recently used.
#[derive(Clone, Copy, Debug)]
enum Lookup {
    /// The entry holds the key's row.
    Ready(usize),
    /// The key missed before and is still remembered, but has no row.
    Seen(usize),
    /// The key was not there; it evicted the least recently used entry.
    New(usize),
}

/// Where the distance row for the current query lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum RowSlot {
    /// The faults do not affect distances; use the core's fault-free row.
    FaultFree,
    /// The indexed LRU row holds the post-failure distances.
    Cached(usize),
}

/// Capacity, in entries, of each context's LRU of post-failure rows. A
/// per-target distance or path miss repairs a row into it; a batch miss
/// only records its key, and the key's row is repaired when a batch names
/// the fault set again while it is still remembered. A few rows absorb
/// interleaved queries against a small working set of fault sets, and each
/// row costs `O(n)` memory per context.
pub(super) const LRU_ROWS: usize = 8;

/// One tier's post-failure adjacency, defined once and read by every miss
/// kernel: the row repair, the target-restricted sweep and the forced full
/// sweep. Canonical parents are adjacency-order-relative, so a tier's rows
/// agree byte for byte only because all three traverse this one adjacency
/// and copy the matching fault-free parent row
/// ([`EngineCore::tier_parent_row`]). The kernels are generic over it, so
/// each tier's hot loop is monomorphised.
trait Adjacency {
    /// Neighbours of `u` in the tier's graph minus the faults, in the tier
    /// CSR's adjacency order, with parent-graph edge ids.
    fn neighbors(&self, u: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_;

    /// `true` if parent-graph edge `e` is an edge of the tier's graph. A
    /// failed such edge changes its endpoints' adjacency even where their
    /// distances stay put, so the repair recomputes their parents.
    fn contains_edge(&self, e: EdgeId) -> bool;

    /// `false` for a failed vertex. [`Adjacency::neighbors`] filters only
    /// the far endpoint, so the sweep's seeding, which enters a region
    /// vertex from outside, asks this before it seeds one.
    fn admits(&self, _w: VertexId) -> bool {
        true
    }
}

/// The `sparse_h_bfs` tier: the compact CSR of `H ∖ {e}`. The FT-BFS
/// guarantee makes it exact for one non-reinforced structure edge.
struct SparseHAdjacency<'a> {
    h: &'a CompactSubgraph,
    /// Compact id of the failed edge.
    banned: Option<EdgeId>,
}

impl Adjacency for SparseHAdjacency<'_> {
    fn neighbors(&self, u: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.h
            .graph()
            .neighbors(u)
            .filter(|&(_, he)| Some(he) != self.banned)
            .map(|(w, he)| (w, self.h.parent_edge(he)))
    }

    fn contains_edge(&self, e: EdgeId) -> bool {
        self.h.contains_parent_edge(e)
    }
}

/// The `augmented_bfs` tier: the compact CSR of `H⁺ ∖ F`, exact by the
/// replacement-path construction (see `crate::ftbfs`). The ≤ 2 failed
/// edges are translated to compact ids once, so the filter compares
/// compact ids and only translates the edges it reports.
struct AugmentedAdjacency<'a> {
    csr: &'a CompactSubgraph,
    banned: BannedEdges,
    faults: &'a [Fault],
}

impl Adjacency for AugmentedAdjacency<'_> {
    fn neighbors(&self, u: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.csr
            .graph()
            .neighbors(u)
            .filter(|&(w, ce)| {
                !self.banned.contains(ce) && !self.faults.contains(&Fault::Vertex(w))
            })
            .map(|(w, ce)| (w, self.csr.parent_edge(ce)))
    }

    fn contains_edge(&self, e: EdgeId) -> bool {
        self.csr.contains_parent_edge(e)
    }

    fn admits(&self, w: VertexId) -> bool {
        !self.faults.contains(&Fault::Vertex(w))
    }
}

/// The `full_graph_bfs` tier: the full graph `G ∖ F`, exact for every
/// fault set. The filters scan the canonical fault slice: at most
/// `max_faults` entries, cheaper than any hashing at these sizes.
struct FullGraphAdjacency<'a> {
    graph: &'a Graph,
    faults: &'a [Fault],
}

impl Adjacency for FullGraphAdjacency<'_> {
    fn neighbors(&self, u: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.graph.neighbors(u).filter(|&(w, ge)| {
            !self.faults.contains(&Fault::Edge(ge)) && !self.faults.contains(&Fault::Vertex(w))
        })
    }

    fn contains_edge(&self, _: EdgeId) -> bool {
        true
    }

    fn admits(&self, w: VertexId) -> bool {
        !self.faults.contains(&Fault::Vertex(w))
    }
}

/// What a cache miss computes.
#[derive(Clone, Copy, Debug)]
enum Miss<'a> {
    /// The whole post-failure row, into LRU row `i`.
    Row(usize),
    /// Only the distances of `targets[affected[..]]`, into
    /// [`RepairScratch::sweep`] (the target-restricted sweep).
    Targets {
        targets: &'a [VertexId],
        affected: &'a [u32],
    },
}

/// Reusable state of the miss kernel: the shared [`BoundarySweep`] plus
/// target marks, and the fix-up list of the row repair (all cleared in
/// `O(1)` or proportional to the previous miss's size — nothing here is
/// `O(n)` per miss).
#[derive(Clone, Debug)]
struct RepairScratch {
    /// The boundary-seeded sweep over the affected region: post-failure
    /// distances of the vertices it settled, and the unaffected boundary
    /// it wrote at fault-free depth.
    sweep: BoundarySweep,
    /// Requested targets of a target-restricted sweep (duplicates marked
    /// once); generation-stamped so clearing is an epoch bump.
    targets: TimestampedVector<bool>,
    /// Unaffected endpoints of failed edges of the tier's graph: their
    /// *adjacency* changed even though their distance did not, so only
    /// their canonical parent is recomputed.
    fixups: Vec<VertexId>,
    /// The fault roots' preorder ranges of the current call
    /// ([`EngineCore::fault_ranges`]): unsorted while they classify
    /// targets, merged ([`merge_ranges`]) before a sweep runs over them.
    intervals: Vec<(u32, u32)>,
}

impl RepairScratch {
    fn new(num_vertices: usize) -> Self {
        RepairScratch {
            sweep: BoundarySweep::new(num_vertices),
            targets: TimestampedVector::new(num_vertices, false),
            fixups: Vec::new(),
            intervals: Vec::new(),
        }
    }

    /// Repair `row_dist`/`row_parent` — pre-filled with the tier's
    /// fault-free rows — in place, given the merged
    /// [`RepairScratch::intervals`] and the failed-edge endpoint
    /// [`RepairScratch::fixups`] already collected: sweep the affected
    /// region awaiting all of it, copy its distances in, and recompute
    /// canonical parents (first adjacency neighbour one level up, the rule
    /// [`bfs_sweep`] applies) for every vertex whose distance or adjacency
    /// changed: the affected region, the boundary, and the fix-ups.
    fn repair_row<A: Adjacency>(
        &mut self,
        tree: &EulerTourIndex,
        dist0: &[u32],
        adj: &A,
        row_dist: &mut [u32],
        row_parent: &mut [ParentEntry],
    ) {
        let mut pending: usize = self.intervals.iter().map(|&(a, b)| (b - a) as usize).sum();
        sweep_region(&mut self.sweep, tree, dist0, &self.intervals, adj, |_| {
            pending -= 1;
            pending == 0
        });
        let region = || {
            self.intervals
                .iter()
                .flat_map(|&(a, b)| &tree.order()[a as usize..b as usize])
        };
        for &v in region() {
            row_dist[v.index()] = self.sweep.dist(v).unwrap_or(UNREACHABLE);
        }
        // `canonical_parent` is a pure function of the final row, so a
        // vertex on two of these lists gets the same parent twice.
        for &v in region().chain(self.sweep.boundary()).chain(&self.fixups) {
            row_parent[v.index()] = canonical_parent(v, row_dist, adj);
        }
    }

    /// Target-restricted sweep: settle only the requested affected
    /// `targets` into [`RepairScratch::sweep`] (unsettled = disconnected),
    /// without copying or caching a row.
    fn settle_targets<A: Adjacency>(
        &mut self,
        tree: &EulerTourIndex,
        dist0: &[u32],
        adj: &A,
        targets: impl Iterator<Item = VertexId>,
    ) {
        self.targets.reset();
        let mut pending = 0usize;
        for t in targets {
            // Duplicate targets are marked (and counted) once.
            if !self.targets.get(t.index()) {
                self.targets.set(t.index(), true);
                pending += 1;
            }
        }
        let marks = &self.targets;
        sweep_region(&mut self.sweep, tree, dist0, &self.intervals, adj, |w| {
            if marks.get(w.index()) {
                pending -= 1;
            }
            pending == 0
        });
    }
}

/// Run `sweep` over the affected `intervals` of `tree` until `done` says
/// every awaited vertex is settled.
///
/// The unaffected boundary keeps its fault-free distance `dist0`: every
/// root-to-boundary prefix of a post-failure shortest path can be replaced
/// by the boundary vertex's surviving tree path. So the sweep only ever
/// discovers affected vertices, and a level-synchronous distance is final
/// at assignment, so the early exit cannot change any answer. Affected
/// vertices left unsettled are disconnected (or were not awaited). Cost is
/// `O(vol(affected))`, a full sweep's `O(n + m)` only in the degenerate
/// all-affected case.
fn sweep_region<A: Adjacency>(
    sweep: &mut BoundarySweep,
    tree: &EulerTourIndex,
    dist0: &[u32],
    intervals: &[(u32, u32)],
    adj: &A,
    done: impl FnMut(VertexId) -> bool,
) {
    let region = Region {
        tree,
        depth0: dist0,
        intervals,
    };
    sweep.search(region, |u| adj.neighbors(u), |w, _| adj.admits(w), done);
}

/// The canonical-parent rule shared with [`bfs_sweep`]: the first neighbor
/// `(w, e)` in `v`'s (filtered) adjacency order with
/// `dist(w) + 1 == dist(v)` — a pure function of the final distance row, so
/// repaired and fully-swept rows agree byte for byte.
fn canonical_parent<A: Adjacency>(v: VertexId, dist: &[u32], adj: &A) -> ParentEntry {
    let d = dist[v.index()];
    if d == 0 || d == UNREACHABLE {
        return None;
    }
    adj.neighbors(v).find(|&(w, _)| {
        let dw = dist[w.index()];
        dw != UNREACHABLE && dw + 1 == d
    })
}

/// Attribute one observed entry-point window across the tiers that
/// answered during it: each tier histogram receives `elapsed / total`
/// once per answer, so histogram sample counts always equal the
/// tier-counter deltas and the sums reconstruct the measured wall time
/// (up to integer division). A window answered *entirely* by the
/// unaffected fast path doubles as that stage's sample — the one stage
/// whose work is too small to bracket with its own clock reads.
fn record_tier_latency(obs: &EngineObs, delta: &TierCounters, elapsed: u64) {
    let total = delta.total() as u64;
    if total == 0 {
        return;
    }
    let per = elapsed / total;
    for (histogram, answers) in obs.tier_latency.iter().zip(delta.to_array()) {
        if answers > 0 {
            histogram.record_n(per, answers as u64);
        }
    }
    if delta.unaffected_fast_path as u64 == total {
        obs.stage_unaffected_fast_path.record(elapsed);
    }
}

/// Inline banned-edge probe for the augmented sweep. The coverage contract
/// admits at most [`FaultSet::INLINE_CAPACITY`] (= 2) simultaneous faults,
/// so membership is two register compares instead of a per-miss heap `Vec`
/// and a linear `contains` per neighbor.
#[derive(Clone, Copy, Debug)]
struct BannedEdges([Option<EdgeId>; FaultSet::INLINE_CAPACITY]);

impl BannedEdges {
    /// Translate the fault set's edges into compact ids of `csr` (edges
    /// outside the CSR need no banning — they are not traversed anyway).
    fn collect(faults: &FaultSet, csr: &CompactSubgraph) -> Self {
        let mut banned = [None; FaultSet::INLINE_CAPACITY];
        let mut n = 0usize;
        for e in faults.edges() {
            if let Some(ce) = csr.compact_edge(e) {
                assert!(
                    n < banned.len(),
                    "augmented coverage admits at most {} faults",
                    banned.len()
                );
                banned[n] = Some(ce);
                n += 1;
            }
        }
        BannedEdges(banned)
    }

    #[inline]
    fn contains(&self, ce: EdgeId) -> bool {
        // Two slots: the compiler unrolls this into two compares.
        self.0.contains(&Some(ce))
    }
}

/// A [`QueryContext::dist_batch_from`] batch whose `stop` fired: no answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchStopped;

/// Per-thread mutable query state: BFS scratch, the miss kernel's sweep,
/// an LRU of recently computed post-failure rows, and query counters.
///
/// Contexts are created by [`EngineCore::new_context`] and tied to that
/// core; every query method takes the core by shared reference, so an
/// `Arc<EngineCore>` plus one context per thread serves queries concurrently
/// with zero synchronisation. Using a context with a core it was not created
/// by is a [`FtbfsError::ContextMismatch`].
///
/// A small LRU holds post-failure rows keyed by (source, canonical **fault
/// set**), so queries naming the same failure pattern share one row;
/// repeated and interleaved queries against a few distinct failure patterns
/// are answered without repeating a search. A per-target distance or path
/// miss repairs its row at once. A batch
/// ([`QueryContext::dist_many_after_faults`], each
/// [`QueryContext::query_many_faults`] group) reads a cached row, but on a
/// first miss settles only its own affected targets and leaves just the
/// key; a batch that names a remembered key again repairs and caches its
/// row.
#[derive(Clone, Debug)]
pub struct QueryContext {
    /// Token of the core this context was created by.
    core_token: u64,
    num_vertices: usize,
    rows: Vec<CachedRow>,
    /// Full-sweep scratch for misses under
    /// [`EngineOptions::force_full_sweep`](super::EngineOptions):
    /// generation-stamped rows, so a sweep never pays an `O(n)` fill.
    scratch: SweepScratch,
    /// Miss-kernel scratch (the boundary-seeded sweep, target marks,
    /// fix-ups).
    repair: RepairScratch,
    /// One-to-many scratch: input indices of the targets that fell inside
    /// an affected interval.
    many_affected: Vec<u32>,
    clock: u64,
    stats: QueryStats,
    /// Attached metric handles ([`QueryContext::attach_obs`]); `None` keeps
    /// every query path free of clock reads and atomic recording.
    obs: Option<Arc<EngineObs>>,
}

impl QueryContext {
    pub(super) fn for_core(core: &EngineCore) -> Self {
        let n = core.graph().num_vertices();
        QueryContext {
            core_token: core.token,
            num_vertices: n,
            rows: Vec::new(),
            scratch: SweepScratch::new(n),
            repair: RepairScratch::new(n),
            many_affected: Vec::new(),
            clock: 0,
            stats: QueryStats::default(),
            obs: None,
        }
    }

    /// Attach engine metric handles: subsequent queries through this
    /// context record per-tier latency histograms and per-stage timings
    /// while [`ftb_obs::sampling_enabled`] is on. See the
    /// [`EngineObs`] docs for the attribution model (entry-point windows,
    /// proportional per-tier samples, amortised stage spans).
    pub fn attach_obs(&mut self, obs: Arc<EngineObs>) {
        self.obs = Some(obs);
    }

    /// Run `f` inside an entry-point observation window: capture the tier
    /// counters before and after, read the clock once around the call, and
    /// attribute the elapsed time across the tiers that answered. A context
    /// without attached obs — or with sampling off — pays one branch.
    pub(super) fn with_tier_obs<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        if self.obs.is_none() || !ftb_obs::sampling_enabled() {
            return f(self);
        }
        let before = self.stats.tiers;
        let start = Instant::now();
        let out = f(self);
        let elapsed = start.elapsed().as_nanos() as u64;
        if let Some(obs) = &self.obs {
            record_tier_latency(obs, &self.stats.tiers.delta_since(&before), elapsed);
        }
        out
    }

    /// The attached obs handles, cloned, when sampling is on — the form the
    /// stage-span sites need (they run while `self` is mutably borrowed).
    fn stage_obs(&self) -> Option<Arc<EngineObs>> {
        if ftb_obs::sampling_enabled() {
            self.obs.clone()
        } else {
            None
        }
    }

    /// Query counters accumulated by this context.
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// Reset the query counters to zero.
    pub fn reset_stats(&mut self) {
        self.stats = QueryStats::default();
    }

    /// Fail unless this context was created by `core`.
    pub(super) fn check_core(&self, core: &EngineCore) -> Result<(), FtbfsError> {
        if self.core_token != core.token {
            return Err(FtbfsError::ContextMismatch);
        }
        Ok(())
    }

    /// Post-failure distance `dist(s, v, G ∖ F)` from the primary source,
    /// for an arbitrary fault set `F` of edges and vertices.
    ///
    /// Returns `Ok(None)` when the faults disconnect `v` from the source —
    /// in particular whenever `F` contains `v` itself or the source.
    ///
    /// # Errors
    ///
    /// [`FtbfsError::VertexOutOfRange`] for a bad query vertex,
    /// [`FtbfsError::InvalidFault`] / [`FtbfsError::FaultSetTooLarge`] for a
    /// bad fault set, [`FtbfsError::ContextMismatch`] for a foreign core.
    pub fn dist_after_faults(
        &mut self,
        core: &EngineCore,
        v: VertexId,
        faults: &FaultSet,
    ) -> Result<Option<u32>, FtbfsError> {
        self.checked_faults(core, v, faults)?;
        Ok(self.with_tier_obs(|ctx| ctx.answer_unchecked(core, 0, v, faults)))
    }

    /// Post-failure distance `dist(source, v, G ∖ F)` from an explicit
    /// source of a multi-source core.
    pub fn dist_after_faults_from(
        &mut self,
        core: &EngineCore,
        source: VertexId,
        v: VertexId,
        faults: &FaultSet,
    ) -> Result<Option<u32>, FtbfsError> {
        self.checked_faults(core, v, faults)?;
        let slot = core.source_slot(source)?;
        Ok(self.with_tier_obs(|ctx| ctx.answer_unchecked(core, slot, v, faults)))
    }

    /// One-to-many post-failure distances `dist(s, v, G ∖ F)` from the
    /// primary source to every vertex in `targets`, in input order
    /// (duplicates allowed; `None` marks a disconnected target).
    ///
    /// The whole target set shares one classification and at most one
    /// search: the ≤ `|F|` preorder ranges of the subtrees `F` cuts off are
    /// collected once, each target's Euler-tour preorder number is tested
    /// against them — no sort, no per-target ancestor probes — and every
    /// provably-unaffected target is answered
    /// straight from the fault-free row
    /// ([`TierCounters::batched_unaffected`](super::TierCounters)). The
    /// affected targets, however many, read this context's cached row for
    /// `F` if it has one. Otherwise, the first time `F` misses, one
    /// *target-restricted* sweep settles them and stops once the last of
    /// them is final ([`QueryStats::restricted_repairs`]); no row is copied,
    /// only `F`'s key is remembered. A batch that names a remembered `F`
    /// again repairs and caches its row, so a small set of fault sets
    /// replayed batch after batch is answered from the cache. A fault set
    /// containing the source answers them `None` without a search. Results
    /// are byte-identical to `targets.len()` separate
    /// [`QueryContext::dist_after_faults`] calls.
    ///
    /// Counts `targets.len()` queries. Errors as
    /// [`QueryContext::dist_after_faults`].
    pub fn dist_many_after_faults(
        &mut self,
        core: &EngineCore,
        targets: &[VertexId],
        faults: &FaultSet,
    ) -> Result<Vec<Option<u32>>, FtbfsError> {
        self.checked_many(core, targets, faults)?;
        let mut out = Vec::with_capacity(targets.len());
        self.with_tier_obs(|ctx| ctx.dist_many_unchecked(core, 0, targets, faults, &mut out));
        Ok(out)
    }

    /// One-to-many post-failure distances from an explicit source of a
    /// multi-source core. Errors as
    /// [`QueryContext::dist_many_after_faults`], plus
    /// [`FtbfsError::SourceNotServed`] for a source the core was not built
    /// for.
    pub fn dist_many_after_faults_from(
        &mut self,
        core: &EngineCore,
        source: VertexId,
        targets: &[VertexId],
        faults: &FaultSet,
    ) -> Result<Vec<Option<u32>>, FtbfsError> {
        self.checked_many(core, targets, faults)?;
        let slot = core.source_slot(source)?;
        let mut out = Vec::with_capacity(targets.len());
        self.with_tier_obs(|ctx| ctx.dist_many_unchecked(core, slot, targets, faults, &mut out));
        Ok(out)
    }

    /// A concrete post-failure shortest path from the primary source to `v`
    /// in `G ∖ F`, avoiding every failed edge and vertex, or `Ok(None)` when
    /// the faults disconnect `v`. Errors as
    /// [`QueryContext::dist_after_faults`].
    pub fn path_after_faults(
        &mut self,
        core: &EngineCore,
        v: VertexId,
        faults: &FaultSet,
    ) -> Result<Option<Path>, FtbfsError> {
        self.checked_faults(core, v, faults)?;
        Ok(self.with_tier_obs(|ctx| ctx.path_unchecked(core, 0, v, faults)))
    }

    /// Post-failure path under a fault set from an explicit source of a
    /// multi-source core.
    pub fn path_after_faults_from(
        &mut self,
        core: &EngineCore,
        source: VertexId,
        v: VertexId,
        faults: &FaultSet,
    ) -> Result<Option<Path>, FtbfsError> {
        self.checked_faults(core, v, faults)?;
        let slot = core.source_slot(source)?;
        Ok(self.with_tier_obs(|ctx| ctx.path_unchecked(core, slot, v, faults)))
    }

    /// Answer a batch of `(source, vertex, fault set)` queries, for single-
    /// and multi-source cores alike (name [`EngineCore::primary_source`] on
    /// a single-source core).
    ///
    /// The batch is grouped by (source, canonical fault set), and each
    /// group is one one-to-many answer, like
    /// [`QueryContext::dist_many_after_faults_from`], so a distinct failure
    /// pattern runs at most one search however many vertices are probed
    /// against it. Groups are answered on this context (sharing its LRU
    /// across batches), or, when at least two groups may need a search,
    /// spread one group per task over the core's
    /// [`EngineOptions::parallel`](super::EngineOptions) workers, each with
    /// its own fresh context; worker counters are merged into this one.
    /// Results are in input order, byte-identical to `queries.len()`
    /// separate [`QueryContext::dist_after_faults_from`] calls.
    ///
    /// # Errors
    ///
    /// As [`QueryContext::dist_after_faults_from`], for the first invalid
    /// query of the batch.
    pub fn query_many_faults(
        &mut self,
        core: &EngineCore,
        queries: &[(VertexId, VertexId, FaultSet)],
    ) -> Result<Vec<Option<u32>>, FtbfsError> {
        self.checked_batch(core, queries.iter().map(|(s, v, f)| (*s, *v, f)))?;
        let (parallel, len) = (&core.options().parallel, queries.len());
        let answers = if core.sources().len() == 1 {
            // Every validated query of a single-source core is slot 0. The
            // constant keeps a per-query slot lookup out of the grouping
            // sort: the lookup cost ~13% of a 13k-query batch.
            let query_at = |i: usize| (0, queries[i].1, &queries[i].2);
            self.answer_batch(core, parallel, len, query_at, || false)
        } else {
            let slots: Vec<usize> = queries
                .iter()
                .map(|(source, _, _)| core.source_slot(*source).expect("validated above"))
                .collect();
            let query_at = |i: usize| (slots[i], queries[i].1, &queries[i].2);
            self.answer_batch(core, parallel, len, query_at, || false)
        };
        Ok(answers.unwrap_or_else(|BatchStopped| unreachable!("the stop never fires")))
    }

    /// Answer a batch of `(vertex, fault set)` queries from one `source`:
    /// [`QueryContext::query_many_faults`]'s grouping and answers, but
    /// every group runs on this context, in canonical fault-set order, and
    /// no worker thread is spawned. `stop` is asked before each group; once
    /// it returns `true` the batch ends with [`BatchStopped`] and no
    /// answers, and only the groups answered so far are counted in
    /// [`QueryContext::stats`]. An empty batch answers `[]`, whatever
    /// `source` is.
    ///
    /// # Errors
    ///
    /// As [`QueryContext::dist_after_faults_from`], for the first invalid
    /// entry: per entry the vertex, then the fault set, then the source.
    pub fn dist_batch_from(
        &mut self,
        core: &EngineCore,
        source: VertexId,
        queries: &[(VertexId, FaultSet)],
        stop: impl FnMut() -> bool,
    ) -> Result<Result<Vec<Option<u32>>, BatchStopped>, FtbfsError> {
        self.checked_batch(core, queries.iter().map(|(v, f)| (source, *v, f)))?;
        // Validated unless the batch is empty, and then no slot is read.
        let slot = core.source_slot(source).unwrap_or(0);
        let query_at = |i: usize| (slot, queries[i].0, &queries[i].1);
        let serial = ParallelConfig::serial();
        Ok(self.answer_batch(core, &serial, queries.len(), query_at, stop))
    }

    /// The one batch grouping, in one observation window. `query_at` maps
    /// an index to `(slot, vertex, fault set)`, already validated. Queries
    /// are sorted by (slot, fault set), and each run of equal keys is one
    /// [`QueryContext::dist_many_unchecked`] call. Groups that search are
    /// spread one per task over `parallel`'s workers when there are two or
    /// more; the rest run here. `stop` is asked before each group run here
    /// and once before the spread.
    fn answer_batch<'q, Q>(
        &mut self,
        core: &EngineCore,
        parallel: &ParallelConfig,
        len: usize,
        query_at: Q,
        mut stop: impl FnMut() -> bool,
    ) -> Result<Vec<Option<u32>>, BatchStopped>
    where
        Q: Fn(usize) -> (usize, VertexId, &'q FaultSet) + Sync,
    {
        self.with_tier_obs(|ctx| {
            let key = |qi: &u32| {
                let (slot, _, faults) = query_at(*qi as usize);
                (slot, faults)
            };
            let mut order: Vec<u32> = (0..len as u32).collect();
            order.sort_by_key(key);
            let groups: Vec<&[u32]> = order.chunk_by(|a, b| key(a) == key(b)).collect();
            let searches = |group: &&[u32]| core.route(key(&group[0]).1) != Tier::FaultFree;
            let answer = |ctx: &mut QueryContext,
                          group: &[u32],
                          targets: &mut Vec<VertexId>,
                          out: &mut Vec<Option<u32>>| {
                let (slot, faults) = key(&group[0]);
                targets.clear();
                targets.extend(group.iter().map(|&qi| query_at(qi as usize).1));
                ctx.dist_many_unchecked(core, slot, targets, faults, out);
            };
            let scatter = |results: &mut [Option<u32>], group: &[u32], answers: &[Option<u32>]| {
                for (&qi, &d) in group.iter().zip(answers) {
                    results[qi as usize] = d;
                }
            };

            // Each searching group is one search at most, so chunk size 1
            // balances cheap against expensive failures; fewer than two are
            // not worth a spawn.
            let parallel = parallel.clone().with_chunk_size(1);
            let spread = !parallel.is_serial()
                && groups.iter().copied().filter(searches).take(2).count() == 2;
            let (searching, here): (Vec<&[u32]>, Vec<&[u32]>) = groups
                .into_iter()
                .partition(|group| spread && searches(group));
            let mut results = vec![None; len];
            let (mut targets, mut out) = (Vec::new(), Vec::new());
            for group in here {
                if stop() {
                    return Err(BatchStopped);
                }
                answer(ctx, group, &mut targets, &mut out);
                scatter(&mut results, group, &out);
            }
            if searching.is_empty() {
                return Ok(results);
            }
            if stop() {
                return Err(BatchStopped);
            }
            let sharded = parallel_map_init(
                &parallel,
                searching.len(),
                || (core.new_context(), Vec::new()),
                |(wctx, targets), gi| {
                    // The worker context persists across tasks: report only
                    // this group's counter increments.
                    wctx.reset_stats();
                    let mut out = Vec::new();
                    answer(wctx, searching[gi], targets, &mut out);
                    (out, wctx.stats())
                },
            );
            for (&group, (answers, stats)) in searching.iter().zip(sharded) {
                scatter(&mut results, group, &answers);
                ctx.stats.merge(&stats);
            }
            Ok(results)
        })
    }

    /// Validate a batch in input order: per entry the vertex, then the
    /// fault set, then the source.
    fn checked_batch<'q>(
        &self,
        core: &EngineCore,
        queries: impl Iterator<Item = (VertexId, VertexId, &'q FaultSet)>,
    ) -> Result<(), FtbfsError> {
        self.check_core(core)?;
        for (source, v, faults) in queries {
            core.check_vertex(v)?;
            core.check_fault_set(faults)?;
            core.source_slot(source)?;
        }
        Ok(())
    }

    fn checked_faults(
        &self,
        core: &EngineCore,
        v: VertexId,
        faults: &FaultSet,
    ) -> Result<(), FtbfsError> {
        self.check_core(core)?;
        core.check_vertex(v)?;
        core.check_fault_set(faults)?;
        Ok(())
    }

    fn checked_many(
        &self,
        core: &EngineCore,
        targets: &[VertexId],
        faults: &FaultSet,
    ) -> Result<(), FtbfsError> {
        self.check_core(core)?;
        for &v in targets {
            core.check_vertex(v)?;
        }
        core.check_fault_set(faults)?;
        Ok(())
    }

    /// Distance answer with validation already done (shared by the single
    /// query paths and the batch shards). Counts one query.
    ///
    /// Targeted queries get the **unaffected fast path**: when the target's
    /// canonical tree path provably avoids every failed element, the
    /// fault-free row answers in `O(|F|)` — no BFS, no row, no LRU traffic
    /// (observable as [`TierCounters::unaffected_fast_path`](super::TierCounters)).
    pub(super) fn answer_unchecked(
        &mut self,
        core: &EngineCore,
        slot: usize,
        v: VertexId,
        faults: &FaultSet,
    ) -> Option<u32> {
        self.stats.queries += 1;
        let tier = core.route(faults);
        if tier != Tier::FaultFree && !core.options().force_full_sweep {
            core.fault_ranges(slot, faults, &mut self.repair.intervals);
            if !core.slot_tree(slot).is_affected(&self.repair.intervals, v) {
                self.stats.tiers.unaffected_fast_path += 1;
                self.stats.cached_answers += 1;
                return core.fault_free_dist_slot(slot, v);
            }
        }
        let row = self.ensure_row(core, slot, faults, tier);
        let (dist, _) = self.row(core, slot, row);
        finite(dist[v.index()])
    }

    /// One-to-many answer with validation already done (shared by the
    /// public entry points and every [`QueryContext::query_many_faults`]
    /// group), written into `out` in input order.
    /// Counts `targets.len()` queries.
    ///
    /// Under [`EngineOptions::force_full_sweep`](super::EngineOptions) the
    /// batch degrades to per-target [`QueryContext::answer_unchecked`]
    /// calls, so differential runs compare like with like.
    pub(super) fn dist_many_unchecked(
        &mut self,
        core: &EngineCore,
        slot: usize,
        targets: &[VertexId],
        faults: &FaultSet,
        out: &mut Vec<Option<u32>>,
    ) {
        out.clear();
        if core.options().force_full_sweep {
            for &v in targets {
                out.push(self.answer_unchecked(core, slot, v, faults));
            }
            return;
        }
        self.stats.queries += targets.len();
        let tier = core.route(faults);
        let (dist0, _) = core.fault_free_row(slot);
        out.extend(targets.iter().map(|&v| finite(dist0[v.index()])));
        if tier == Tier::FaultFree {
            // Every fault is an edge outside H: the fault-free row answers
            // the whole batch.
            self.count_tier_many(Tier::FaultFree, targets.len());
            self.stats.cached_answers += targets.len();
            return;
        }
        // Stage spans (classification / restricted sweep) only arm when
        // obs is attached and sampling is on; they nest inside the
        // entry-point window, keeping stage sums within the wall time.
        let obs = self.stage_obs();
        let classify_span = obs.as_ref().map(|o| Span::enter(&o.stage_classify));
        // One classification for the batch: the ≤ |F| fault-root ranges
        // are collected once, unsorted, and every target is tested against
        // them (`O(t·|F|)`, no sort, no ancestor probes).
        core.fault_ranges(slot, faults, &mut self.repair.intervals);
        let tree = core.slot_tree(slot);
        let ranges = &self.repair.intervals;
        let mut affected = std::mem::take(&mut self.many_affected);
        affected.clear();
        for (i, &v) in targets.iter().enumerate() {
            if tree.is_affected(ranges, v) {
                affected.push(i as u32);
            }
        }
        drop(classify_span);

        // Unaffected targets keep their fault-free answer; affected ones
        // are overwritten below.
        let unaffected = targets.len() - affected.len();
        self.stats.tiers.batched_unaffected += unaffected;
        self.stats.cached_answers += unaffected;
        if affected.is_empty() {
            // Every target provably unaffected: the whole batch ran zero
            // searches (the counter proof the one_to_many suite asserts).
            self.many_affected = affected;
            return;
        }
        self.count_tier_many(tier, affected.len());
        if faults.contains(Fault::Vertex(core.sources()[slot])) {
            // The source itself failed: every affected target is
            // disconnected, and no search runs.
            for &i in &affected {
                out[i as usize] = None;
            }
            self.many_affected = affected;
            return;
        }
        let row = match self.lookup(slot, faults) {
            Lookup::Ready(i) => {
                self.stats.cached_answers += affected.len();
                i
            }
            Lookup::Seen(i) => {
                // The fault set recurred while its key was remembered: its
                // row earns the entry.
                self.fill_row(core, slot, faults, tier, i);
                i
            }
            Lookup::New(_) => {
                // First sight: settle exactly the requested affected
                // targets, and leave only the key behind.
                self.stats.restricted_repairs += 1;
                let sweep_span = obs.as_ref().map(|o| Span::enter(&o.stage_restricted_sweep));
                self.miss(
                    core,
                    slot,
                    faults,
                    tier,
                    Miss::Targets {
                        targets,
                        affected: &affected,
                    },
                );
                drop(sweep_span);
                for &i in &affected {
                    out[i as usize] = self.repair.sweep.dist(targets[i as usize]);
                }
                self.many_affected = affected;
                return;
            }
        };
        let dist = &self.rows[row].dist;
        for &i in &affected {
            out[i as usize] = finite(dist[targets[i as usize].index()]);
        }
        self.many_affected = affected;
    }

    /// Path answer with validation already done. Counts one query.
    ///
    /// When the target's whole root-to-target parent chain is provably
    /// unaffected, the path is extracted straight from the tier's
    /// fault-free parent row without any search (counted as
    /// [`TierCounters::unaffected_fast_path`](super::TierCounters)); any
    /// chain that might detour through affected vertices falls back to a
    /// materialized row.
    pub(super) fn path_unchecked(
        &mut self,
        core: &EngineCore,
        slot: usize,
        v: VertexId,
        faults: &FaultSet,
    ) -> Option<Path> {
        self.stats.queries += 1;
        let tier = core.route(faults);
        if tier != Tier::FaultFree && !core.options().force_full_sweep {
            if let Some(answer) = self.try_unaffected_path(core, slot, v, faults, tier) {
                return answer;
            }
        }
        let row = self.ensure_row(core, slot, faults, tier);
        let (dist, parent) = self.row(core, slot, row);
        if dist[v.index()] == UNREACHABLE {
            return None;
        }
        let mut vertices = vec![v];
        let mut edges = Vec::new();
        let mut cursor = v;
        while let Some((p, pe)) = parent[cursor.index()] {
            vertices.push(p);
            edges.push(pe);
            cursor = p;
        }
        vertices.reverse();
        edges.reverse();
        Some(Path::new(vertices, edges))
    }

    /// The path flavour of the unaffected fast path: extract the chain from
    /// the tier's canonical fault-free parent row, verifying link by link
    /// that it survives `faults` byte-identically. Returns `None` to fall
    /// back to the materialized-row path (which recomputes the answer), or
    /// `Some(answer)` when the chain is provably stable.
    ///
    /// Soundness: for an unaffected vertex `u` with fault-free canonical
    /// parent `p` over the tier's adjacency, the post-failure canonical
    /// parent is still `p` whenever `p` is unaffected and the connecting
    /// edge is not failed: neighbor distances only grow under faults, and a
    /// neighbor earlier in adjacency order was not one level up fault-free
    /// (else it would be canonical), so it can never *become* one level up;
    /// removing banned entries never changes the first surviving match.
    /// Induction down the chain makes the whole extracted path equal the
    /// materialized row's.
    fn try_unaffected_path(
        &mut self,
        core: &EngineCore,
        slot: usize,
        v: VertexId,
        faults: &FaultSet,
        tier: Tier,
    ) -> Option<Option<Path>> {
        core.fault_ranges(slot, faults, &mut self.repair.intervals);
        let tree = core.slot_tree(slot);
        let ranges = &self.repair.intervals;
        if tree.is_affected(ranges, v) {
            return None;
        }
        let (dist0, _) = core.fault_free_row(slot);
        if dist0[v.index()] == UNREACHABLE {
            // Unaffected and fault-free-unreachable: faults cannot create
            // connectivity, so the target stays unreachable.
            self.stats.tiers.unaffected_fast_path += 1;
            self.stats.cached_answers += 1;
            return Some(None);
        }
        let parent0 = core.tier_parent_row(slot, tier);
        let mut vertices = vec![v];
        let mut edges = Vec::new();
        let mut cursor = v;
        while let Some((p, pe)) = parent0[cursor.index()] {
            if faults.contains_edge(pe) || tree.is_affected(ranges, p) {
                return None;
            }
            vertices.push(p);
            edges.push(pe);
            cursor = p;
        }
        self.stats.tiers.unaffected_fast_path += 1;
        self.stats.cached_answers += 1;
        vertices.reverse();
        edges.reverse();
        Some(Some(Path::new(vertices, edges)))
    }

    /// Borrow the rows a [`RowSlot`] refers to.
    fn row<'a>(&'a self, core: &'a EngineCore, slot: usize, row: RowSlot) -> super::RowRefs<'a> {
        match row {
            RowSlot::FaultFree => core.fault_free_row(slot),
            RowSlot::Cached(i) => (&self.rows[i].dist, &self.rows[i].parent),
        }
    }

    /// Make the distance row for fault set `faults` (as seen from source
    /// slot `slot`, routed to `tier` by the caller) available and report
    /// where it lives.
    ///
    /// Every call attributes the query to exactly one routing tier (see
    /// [`TierCounters`](super::TierCounters)); the per-CSR sweep counters
    /// only move when a search actually runs. A cache miss on any tier is
    /// one [`QueryContext::miss`]: the row is **repaired** — it starts as a
    /// copy of the tier's fault-free rows, only the affected subtrees are
    /// re-swept by the boundary-seeded [`BoundarySweep`], and
    /// canonical parents are patched where the distances or the adjacency
    /// changed — byte-identical to a full sweep, at a fraction of its cost.
    /// Under [`EngineOptions::force_full_sweep`](super::EngineOptions) the
    /// same adjacency is swept in full instead (the test reference).
    fn ensure_row(
        &mut self,
        core: &EngineCore,
        slot: usize,
        faults: &FaultSet,
        tier: Tier,
    ) -> RowSlot {
        self.count_tier(tier);
        if tier == Tier::FaultFree {
            // Every fault is an edge outside H: T0 ⊆ H survives and the
            // distances are unchanged.
            self.stats.cached_answers += 1;
            return RowSlot::FaultFree;
        }
        let i = match self.lookup(slot, faults) {
            Lookup::Ready(i) => {
                self.stats.cached_answers += 1;
                i
            }
            Lookup::Seen(i) | Lookup::New(i) => {
                self.fill_row(core, slot, faults, tier, i);
                i
            }
        };
        RowSlot::Cached(i)
    }

    /// Find (slot, `faults`) in the LRU and mark it most recently used, or
    /// give it the entry of the least recently used key (a fresh one while
    /// below [`LRU_ROWS`]), with no row yet.
    fn lookup(&mut self, slot: usize, faults: &FaultSet) -> Lookup {
        self.clock += 1;
        let key_slot = slot as u32;
        if let Some(i) = self
            .rows
            .iter()
            .position(|r| r.source_slot == key_slot && r.faults == *faults)
        {
            let row = &mut self.rows[i];
            row.last_used = self.clock;
            return if row.ready {
                Lookup::Ready(i)
            } else {
                Lookup::Seen(i)
            };
        }
        // Not there: take a fresh entry while below capacity, otherwise
        // the least recently used one, keeping its buffers for the next
        // repair.
        let i = if self.rows.len() < LRU_ROWS {
            self.rows.push(CachedRow {
                source_slot: key_slot,
                faults: faults.clone(),
                dist: Vec::new(),
                parent: Vec::new(),
                ready: false,
                last_used: 0,
            });
            self.rows.len() - 1
        } else {
            (0..self.rows.len())
                .min_by_key(|&j| self.rows[j].last_used)
                .expect("LRU_ROWS >= 1")
        };
        let row = &mut self.rows[i];
        row.source_slot = key_slot;
        row.faults = faults.clone();
        row.ready = false;
        row.last_used = self.clock;
        Lookup::New(i)
    }

    /// Compute LRU entry `i`'s row for `faults` (the key it already holds).
    fn fill_row(
        &mut self,
        core: &EngineCore,
        slot: usize,
        faults: &FaultSet,
        tier: Tier,
        i: usize,
    ) {
        let n = self.num_vertices;
        let row = &mut self.rows[i];
        row.dist.resize(n, UNREACHABLE);
        row.parent.resize(n, None);
        if faults.contains(Fault::Vertex(core.sources()[slot])) {
            // The source itself failed: nothing is reachable (matching
            // `bfs_distances_view` over a masked source). No search runs,
            // so no sweep is counted.
            row.dist.fill(UNREACHABLE);
            row.parent.fill(None);
        } else {
            self.miss(core, slot, faults, tier, Miss::Row(i));
        }
        self.rows[i].ready = true;
    }

    /// Run one cache miss on `tier`'s post-failure adjacency — the one
    /// place each tier's adjacency is built — and count the search in the
    /// tier's sweep counter.
    fn miss(&mut self, core: &EngineCore, slot: usize, faults: &FaultSet, tier: Tier, miss: Miss) {
        match tier {
            Tier::SparseH => {
                let e = faults.as_single_edge().expect("SparseH is single-edge");
                let adj = SparseHAdjacency {
                    h: &core.h,
                    banned: core.h.compact_edge(e),
                };
                self.miss_on(core, slot, faults, tier, &adj, miss);
                self.stats.structure_bfs_runs += 1;
            }
            Tier::Augmented => {
                let csr = &core.aug.as_ref().expect("Augmented tier has a CSR").csr;
                let adj = AugmentedAdjacency {
                    csr,
                    banned: BannedEdges::collect(faults, csr),
                    faults: faults.as_slice(),
                };
                self.miss_on(core, slot, faults, tier, &adj, miss);
                self.stats.augmented_bfs_runs += 1;
            }
            Tier::FullGraph => {
                let adj = FullGraphAdjacency {
                    graph: core.graph(),
                    faults: faults.as_slice(),
                };
                self.miss_on(core, slot, faults, tier, &adj, miss);
                self.stats.full_graph_bfs_runs += 1;
            }
            Tier::FaultFree => unreachable!("the fault-free row never misses"),
        }
    }

    /// [`QueryContext::miss`] on one tier's adjacency. A
    /// [`Miss::Targets`] merges the fault-root ranges the caller collected
    /// and runs the target-restricted sweep over them. A [`Miss::Row`]
    /// collects and merges its own, and repairs the row from
    /// the tier's fault-free rows, or sweeps it in full under
    /// [`EngineOptions::force_full_sweep`](super::EngineOptions).
    fn miss_on<A: Adjacency>(
        &mut self,
        core: &EngineCore,
        slot: usize,
        faults: &FaultSet,
        tier: Tier,
        adj: &A,
        miss: Miss,
    ) {
        let tree = &core.slot_tree(slot).euler;
        let (dist0, _) = core.fault_free_row(slot);
        let i = match miss {
            Miss::Targets { targets, affected } => {
                merge_ranges(&mut self.repair.intervals);
                let wanted = affected.iter().map(|&i| targets[i as usize]);
                self.repair.settle_targets(tree, dist0, adj, wanted);
                return;
            }
            Miss::Row(i) => i,
        };
        let obs = self.stage_obs();
        let row = &mut self.rows[i];
        if core.options().force_full_sweep {
            let span = obs.as_ref().map(|o| Span::enter(&o.stage_full_sweep));
            bfs_sweep(core.sources()[slot], &mut self.scratch, |u| {
                adj.neighbors(u)
            });
            self.scratch.materialize(&mut row.dist, &mut row.parent);
            drop(span);
            return;
        }
        core.fault_ranges(slot, faults, &mut self.repair.intervals);
        merge_ranges(&mut self.repair.intervals);
        self.repair.fixups.clear();
        for e in faults.edges().filter(|&e| adj.contains_edge(e)) {
            let edge = core.graph().edge(e);
            self.repair.fixups.extend([edge.u, edge.v]);
        }
        row.dist.copy_from_slice(dist0);
        row.parent.copy_from_slice(core.tier_parent_row(slot, tier));
        let span = obs.as_ref().map(|o| Span::enter(&o.stage_row_repair));
        self.repair
            .repair_row(tree, dist0, adj, &mut row.dist, &mut row.parent);
        drop(span);
        self.stats.repaired_rows += 1;
    }

    fn count_tier(&mut self, tier: Tier) {
        self.count_tier_many(tier, 1);
    }

    fn count_tier_many(&mut self, tier: Tier, n: usize) {
        match tier {
            Tier::FaultFree => self.stats.tiers.fault_free_row += n,
            Tier::SparseH => self.stats.tiers.sparse_h_bfs += n,
            Tier::Augmented => self.stats.tiers.augmented_bfs += n,
            Tier::FullGraph => self.stats.tiers.full_graph_bfs += n,
        }
    }
}

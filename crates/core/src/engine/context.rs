//! The per-thread mutable half of the query engine: [`QueryContext`].

use super::core::EngineCore;
use super::obs::EngineObs;
use super::{bfs_sweep, finite, ParentEntry, QueryStats, SweepScratch, Tier, TierCounters};
use crate::error::FtbfsError;
use ftb_graph::{CompactSubgraph, EdgeId, Fault, FaultSet, VertexId};
use ftb_obs::Span;
use ftb_sp::{Path, TimestampedVector, UNREACHABLE};
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
    /// Logical timestamp of the last hit (LRU eviction order).
    last_used: u64,
}

/// Where the distance row for the current query lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum RowSlot {
    /// The faults do not affect distances; use the core's fault-free row.
    FaultFree,
    /// The indexed LRU row holds the post-failure distances.
    Cached(usize),
}

/// [`RepairScratch::marks`] value: inside a failed subtree (entry reset,
/// distance to be recomputed by the bounded BFS).
const MARK_AFFECTED: u8 = 1;
/// [`RepairScratch::marks`] value: unaffected boundary vertex already
/// collected (seed dedup).
const MARK_BOUNDARY: u8 = 2;
/// [`RepairScratch::marks`] value: affected vertex *requested* by a
/// one-to-many query — the target-restricted sweep stops once every such
/// vertex is settled.
const MARK_TARGET: u8 = 3;

/// Crossover denominator of the target-restricted repair sweep: a
/// one-to-many cache miss runs restricted (settle only the requested
/// affected targets, skip the `O(n)` row materialisation, cache nothing)
/// when the requested targets cover at most `1/RESTRICTED_SWEEP_RATIO` of
/// the affected set, and falls back to the full repair (which amortises
/// across the whole target set *and* lands the row in the LRU) otherwise.
/// Measured with `exp_one_to_many` E12b (ErdosRenyi, n = 2000): per cache
/// miss the restricted sweep is ~3x cheaper than the full materialisation
/// at small `a`, and the gap closes as `a` approaches the affected-set
/// size; 8 keeps the restricted path for the clearly-winning band and
/// cedes the rest to the repair's cache-for-later effect.
const RESTRICTED_SWEEP_RATIO: usize = 8;

/// Largest one-to-many target count classified by the sort-then-sweep
/// interval walk ([`ftb_tree::covered_keys`]). Above it, sorting the keys
/// costs more than the classification itself, so each key binary-searches
/// the merged intervals directly (`O(t log |F|)`, no sort).
const SORTED_CLASSIFY_MAX_TARGETS: usize = 64;

/// Reusable state of the incremental row repair (all cleared in `O(1)` or
/// proportional to the previous repair's size — nothing here is `O(n)` per
/// miss).
#[derive(Clone, Debug)]
struct RepairScratch {
    /// `0` untouched, [`MARK_AFFECTED`], or [`MARK_BOUNDARY`];
    /// generation-stamped so clearing is an epoch bump.
    marks: TimestampedVector<u8>,
    /// Unaffected boundary vertices seeding the bounded BFS, keyed by their
    /// (unchanged) fault-free distance.
    seeds: Vec<(u32, VertexId)>,
    /// Unaffected endpoints of banned edges: their *adjacency* changed even
    /// though their distance did not, so only their canonical parent is
    /// recomputed.
    fixups: Vec<VertexId>,
    /// Merged preorder intervals of the affected subtrees (into the slot
    /// tree's order array).
    intervals: Vec<(u32, u32)>,
    /// Level-synchronous BFS frontiers.
    frontier: Vec<VertexId>,
    next: Vec<VertexId>,
    /// Post-failure distances of the *target-restricted* sweep, which
    /// settles requested affected targets without materialising a row;
    /// generation-stamped so each restricted sweep starts clean in `O(1)`.
    rdist: TimestampedVector<u32>,
}

impl RepairScratch {
    fn new(num_vertices: usize) -> Self {
        RepairScratch {
            marks: TimestampedVector::new(num_vertices, 0),
            seeds: Vec::new(),
            fixups: Vec::new(),
            intervals: Vec::new(),
            frontier: Vec::new(),
            next: Vec::new(),
            rdist: TimestampedVector::new(num_vertices, UNREACHABLE),
        }
    }

    /// Repair `row_dist`/`row_parent` — pre-filled with the serving CSR's
    /// fault-free rows — in place, given the merged affected
    /// [`RepairScratch::intervals`] and the banned-edge endpoint
    /// [`RepairScratch::fixups`] already collected.
    ///
    /// `neighbors` must yield exactly the post-failure adjacency the full
    /// sweep would traverse (same order, same filters, parent-graph edge
    /// ids). Four bounded passes:
    ///
    /// 1. mark every vertex inside an affected interval,
    /// 2. reset their entries and collect the *unaffected boundary* (their
    ///    neighbors outside the region) as BFS seeds at fault-free depth,
    /// 3. run a level-synchronous BFS from the boundary that only ever
    ///    discovers affected vertices — unaffected distances are already
    ///    final, which is exactly why seeding them at `dist0` is sound,
    /// 4. recompute canonical parents (first adjacency neighbor one level
    ///    up, the same pure-function-of-distances rule the full sweep
    ///    applies) for every vertex whose distance or adjacency changed:
    ///    the affected region, the boundary, and the banned-edge endpoints.
    ///
    /// Total cost is `O(vol(affected) + boundary·deg)` — the full sweep's
    /// `O(n + m)` only in the degenerate all-affected case.
    fn repair_region<I, F>(
        &mut self,
        order: &[VertexId],
        dist0: &[u32],
        row_dist: &mut [u32],
        row_parent: &mut [ParentEntry],
        neighbors: F,
    ) where
        I: Iterator<Item = (VertexId, EdgeId)>,
        F: Fn(VertexId) -> I,
    {
        self.marks.reset();
        for &(a, b) in &self.intervals {
            for &v in &order[a as usize..b as usize] {
                self.marks.set(v.index(), MARK_AFFECTED);
            }
        }
        self.seeds.clear();
        for &(a, b) in &self.intervals {
            for &v in &order[a as usize..b as usize] {
                row_dist[v.index()] = UNREACHABLE;
                row_parent[v.index()] = None;
                for (w, _) in neighbors(v) {
                    if self.marks.get(w.index()) == 0 {
                        self.marks.set(w.index(), MARK_BOUNDARY);
                        if dist0[w.index()] != UNREACHABLE {
                            self.seeds.push((dist0[w.index()], w));
                        }
                    }
                }
            }
        }
        // Bounded multi-source BFS: seeds enter the frontier exactly at
        // their fault-free level (sound because every root-to-boundary
        // prefix of a post-failure shortest path can be replaced by the
        // boundary vertex's surviving tree path of length dist0).
        self.seeds.sort_unstable();
        self.frontier.clear();
        self.next.clear();
        let mut si = 0usize;
        let mut level = 0u32;
        while si < self.seeds.len() || !self.frontier.is_empty() {
            if self.frontier.is_empty() {
                level = level.max(self.seeds[si].0);
            }
            while si < self.seeds.len() && self.seeds[si].0 == level {
                self.frontier.push(self.seeds[si].1);
                si += 1;
            }
            for fi in 0..self.frontier.len() {
                let u = self.frontier[fi];
                for (w, _) in neighbors(u) {
                    if self.marks.get(w.index()) == MARK_AFFECTED
                        && row_dist[w.index()] == UNREACHABLE
                    {
                        row_dist[w.index()] = level + 1;
                        self.next.push(w);
                    }
                }
            }
            self.frontier.clear();
            std::mem::swap(&mut self.frontier, &mut self.next);
            level += 1;
        }
        // Canonical parents from the (now final) distances.
        for &(a, b) in &self.intervals {
            for &v in &order[a as usize..b as usize] {
                if row_dist[v.index()] != UNREACHABLE {
                    row_parent[v.index()] = canonical_parent(v, row_dist, &neighbors);
                }
            }
        }
        for &(_, u) in &self.seeds {
            row_parent[u.index()] = canonical_parent(u, row_dist, &neighbors);
        }
        for i in 0..self.fixups.len() {
            let v = self.fixups[i];
            if self.marks.get(v.index()) == 0 && row_dist[v.index()] != UNREACHABLE {
                row_parent[v.index()] = canonical_parent(v, row_dist, &neighbors);
            }
        }
    }

    /// Target-restricted repair sweep (the RPHAST-style restriction of
    /// [`RepairScratch::repair_region`]): compute post-failure distances for
    /// only the requested affected `targets`, without materialising a row.
    ///
    /// Same structure as the repair — mark the affected
    /// [`RepairScratch::intervals`], collect the unaffected boundary as
    /// seeds at fault-free depth, run the bounded level-synchronous BFS —
    /// except that nothing is copied or reset (`O(n)` memcpy avoided, no
    /// parent fixups) and the BFS **stops as soon as every marked target is
    /// settled**: a level-synchronous BFS distance is final at assignment,
    /// so the early exit cannot change any answer. Afterwards
    /// [`RepairScratch::rdist`] holds each target's post-failure distance
    /// (`UNREACHABLE` = disconnected).
    ///
    /// `neighbors` must yield exactly the post-failure adjacency the full
    /// sweep would traverse, so the settled distances are byte-identical to
    /// the distances a repaired (or fully swept) row would contain.
    fn restricted_sweep<I, F, T>(
        &mut self,
        order: &[VertexId],
        dist0: &[u32],
        targets: T,
        neighbors: F,
    ) where
        I: Iterator<Item = (VertexId, EdgeId)>,
        F: Fn(VertexId) -> I,
        T: Iterator<Item = VertexId>,
    {
        self.marks.reset();
        self.rdist.reset();
        for &(a, b) in &self.intervals {
            for &v in &order[a as usize..b as usize] {
                self.marks.set(v.index(), MARK_AFFECTED);
            }
        }
        let mut remaining = 0usize;
        for t in targets {
            // Duplicate targets are marked (and counted) once.
            if self.marks.get(t.index()) == MARK_AFFECTED {
                self.marks.set(t.index(), MARK_TARGET);
                remaining += 1;
            }
        }
        self.seeds.clear();
        for &(a, b) in &self.intervals {
            for &v in &order[a as usize..b as usize] {
                for (w, _) in neighbors(v) {
                    if self.marks.get(w.index()) == 0 {
                        self.marks.set(w.index(), MARK_BOUNDARY);
                        if dist0[w.index()] != UNREACHABLE {
                            self.seeds.push((dist0[w.index()], w));
                        }
                    }
                }
            }
        }
        self.seeds.sort_unstable();
        self.frontier.clear();
        self.next.clear();
        let mut si = 0usize;
        let mut level = 0u32;
        while remaining > 0 && (si < self.seeds.len() || !self.frontier.is_empty()) {
            if self.frontier.is_empty() {
                level = level.max(self.seeds[si].0);
            }
            while si < self.seeds.len() && self.seeds[si].0 == level {
                self.frontier.push(self.seeds[si].1);
                si += 1;
            }
            for fi in 0..self.frontier.len() {
                let u = self.frontier[fi];
                for (w, _) in neighbors(u) {
                    let mark = self.marks.get(w.index());
                    if mark >= MARK_AFFECTED
                        && mark != MARK_BOUNDARY
                        && self.rdist.get(w.index()) == UNREACHABLE
                    {
                        self.rdist.set(w.index(), level + 1);
                        if mark == MARK_TARGET {
                            remaining -= 1;
                        }
                        self.next.push(w);
                    }
                }
            }
            self.frontier.clear();
            std::mem::swap(&mut self.frontier, &mut self.next);
            level += 1;
        }
    }
}

/// The canonical-parent rule shared with [`bfs_sweep`]: the first neighbor
/// `(w, e)` in `v`'s (filtered) adjacency order with
/// `dist(w) + 1 == dist(v)` — a pure function of the final distance row, so
/// repaired and fully-swept rows agree byte for byte.
fn canonical_parent<I, F>(v: VertexId, dist: &[u32], neighbors: &F) -> ParentEntry
where
    I: Iterator<Item = (VertexId, EdgeId)>,
    F: Fn(VertexId) -> I,
{
    let d = dist[v.index()];
    if d == 0 || d == UNREACHABLE {
        return None;
    }
    neighbors(v).find(|&(w, _)| {
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

/// Per-thread mutable query state: BFS scratch, visit queue, an LRU of
/// recently computed post-failure rows, and query counters.
///
/// Contexts are created by [`EngineCore::new_context`] and tied to that
/// core; every query method takes the core by shared reference, so an
/// `Arc<EngineCore>` plus one context per thread serves queries concurrently
/// with zero synchronisation. Using a context with a core it was not created
/// by is a [`FtbfsError::ContextMismatch`].
///
/// The LRU holds up to [`EngineOptions::lru_rows`](super::EngineOptions)
/// rows keyed by **fault set** (a single-edge query and its singleton-set
/// twin share one row); repeated and interleaved queries against that many
/// distinct failure patterns are answered without repeating a BFS.
#[derive(Clone, Debug)]
pub struct QueryContext {
    /// Token of the core this context was created by.
    core_token: u64,
    num_vertices: usize,
    capacity: usize,
    rows: Vec<CachedRow>,
    /// Full-sweep scratch: generation-stamped rows, so a miss never pays an
    /// `O(n)` fill before its search.
    scratch: SweepScratch,
    /// Incremental-repair scratch (marks, boundary seeds, frontiers).
    repair: RepairScratch,
    /// One-to-many scratch: `(preorder, input index)` keys of the requested
    /// targets, sorted by preorder number for the batched interval search.
    many_keys: Vec<(u32, u32)>,
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
            capacity: core.options().lru_rows.max(1),
            rows: Vec::new(),
            scratch: SweepScratch::new(n),
            repair: RepairScratch::new(n),
            many_keys: Vec::new(),
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

    pub(super) fn merge_stats(&mut self, other: &QueryStats) {
        self.stats.merge(other);
    }

    /// Fail unless this context was created by `core`.
    pub(super) fn check_core(&self, core: &EngineCore) -> Result<(), FtbfsError> {
        if self.core_token != core.token {
            return Err(FtbfsError::ContextMismatch);
        }
        Ok(())
    }

    /// Post-failure distance `dist(s, v, G ∖ {e})` from the primary source.
    ///
    /// Returns `Ok(None)` when the failure disconnects `v` from the source.
    ///
    /// # Errors
    ///
    /// [`FtbfsError::VertexOutOfRange`] / [`FtbfsError::EdgeOutOfRange`] for
    /// ids outside the core's graph, [`FtbfsError::ContextMismatch`] for a
    /// foreign core.
    pub fn dist_after_fault(
        &mut self,
        core: &EngineCore,
        v: VertexId,
        e: EdgeId,
    ) -> Result<Option<u32>, FtbfsError> {
        self.checked(core, v, e)?;
        Ok(self.with_tier_obs(|ctx| ctx.answer_unchecked(core, 0, v, &FaultSet::from(e))))
    }

    /// Post-failure distance from an explicit source of a multi-source core.
    ///
    /// # Errors
    ///
    /// As [`QueryContext::dist_after_fault`], plus
    /// [`FtbfsError::SourceNotServed`] for a source the core was not built
    /// for.
    pub fn dist_after_fault_from(
        &mut self,
        core: &EngineCore,
        source: VertexId,
        v: VertexId,
        e: EdgeId,
    ) -> Result<Option<u32>, FtbfsError> {
        self.checked(core, v, e)?;
        let slot = core.source_slot(source)?;
        Ok(self.with_tier_obs(|ctx| ctx.answer_unchecked(core, slot, v, &FaultSet::from(e))))
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
    /// search: targets are sorted by Euler-tour preorder number and
    /// binary-searched against the merged affected intervals of `F` —
    /// `O(|F| log t + t)` instead of `t` independent `O(|F|)` probes —
    /// and every provably-unaffected target is answered straight from the
    /// fault-free row ([`TierCounters::batched_unaffected`](super::TierCounters)).
    /// When only a few targets are affected, a *target-restricted* repair
    /// sweep settles exactly those ([`QueryStats::restricted_repairs`]);
    /// dense affected sets fall back to one ordinary row
    /// materialisation that amortises across all of them. Results are
    /// byte-identical to `targets.len()` separate
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
        Ok(self.with_tier_obs(|ctx| ctx.dist_many_unchecked(core, 0, targets, faults)))
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
        Ok(self.with_tier_obs(|ctx| ctx.dist_many_unchecked(core, slot, targets, faults)))
    }

    /// A concrete post-failure shortest path from the primary source to `v`
    /// in `G ∖ {e}`, or `Ok(None)` when the failure disconnects `v`.
    ///
    /// The path runs inside `H ∖ {e}` except for the hypothetical failure of
    /// a reinforced edge, where it runs inside `G ∖ {e}` (see the module
    /// docs). Path extraction allocates the returned [`Path`]; the search
    /// itself reuses the context's scratch state.
    pub fn path_after_fault(
        &mut self,
        core: &EngineCore,
        v: VertexId,
        e: EdgeId,
    ) -> Result<Option<Path>, FtbfsError> {
        self.checked(core, v, e)?;
        Ok(self.with_tier_obs(|ctx| ctx.path_unchecked(core, 0, v, &FaultSet::from(e))))
    }

    /// Post-failure path from an explicit source of a multi-source core.
    pub fn path_after_fault_from(
        &mut self,
        core: &EngineCore,
        source: VertexId,
        v: VertexId,
        e: EdgeId,
    ) -> Result<Option<Path>, FtbfsError> {
        self.checked(core, v, e)?;
        let slot = core.source_slot(source)?;
        Ok(self.with_tier_obs(|ctx| ctx.path_unchecked(core, slot, v, &FaultSet::from(e))))
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

    /// Answer a batch of `(vertex, failing edge)` queries against the
    /// primary source, on the calling thread.
    ///
    /// The batch is grouped by failing edge internally, so each distinct
    /// failure triggers at most one BFS regardless of how many vertices are
    /// probed against it. Results are returned in input order; `None` marks
    /// a disconnected vertex. (The facades' `query_many` additionally shards
    /// edge-groups across threads; a context is the single-thread
    /// primitive.)
    pub fn query_many(
        &mut self,
        core: &EngineCore,
        queries: &[(VertexId, EdgeId)],
    ) -> Result<Vec<Option<u32>>, FtbfsError> {
        self.check_core(core)?;
        for &(v, e) in queries {
            core.check_vertex(v)?;
            core.check_edge(e)?;
        }
        let fault_sets: Vec<FaultSet> = queries.iter().map(|&(_, e)| FaultSet::from(e)).collect();
        // Same grouping/answering code as the facades, pinned to the calling
        // thread — a context is per-thread by contract.
        self.with_tier_obs(|ctx| {
            super::facade::query_many_sharded(
                core,
                ctx,
                &ftb_par::ParallelConfig::serial(),
                queries.len(),
                |i| (0, queries[i].0, &fault_sets[i]),
            )
        })
    }

    /// Answer a batch of `(vertex, fault set)` queries against the primary
    /// source, on the calling thread. Grouped by fault set like
    /// [`QueryContext::query_many`].
    pub fn query_many_faults(
        &mut self,
        core: &EngineCore,
        queries: &[(VertexId, FaultSet)],
    ) -> Result<Vec<Option<u32>>, FtbfsError> {
        self.check_core(core)?;
        for (v, faults) in queries {
            core.check_vertex(*v)?;
            core.check_fault_set(faults)?;
        }
        self.with_tier_obs(|ctx| {
            super::facade::query_many_sharded(
                core,
                ctx,
                &ftb_par::ParallelConfig::serial(),
                queries.len(),
                |i| (0, queries[i].0, &queries[i].1),
            )
        })
    }

    fn checked(&self, core: &EngineCore, v: VertexId, e: EdgeId) -> Result<(), FtbfsError> {
        self.check_core(core)?;
        core.check_vertex(v)?;
        core.check_edge(e)?;
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
    /// query paths and the facades' batch shards). Counts one query.
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
        if tier != Tier::FaultFree
            && !core.options().force_full_sweep
            && core.target_unaffected(slot, v, faults)
        {
            self.stats.tiers.unaffected_fast_path += 1;
            self.stats.cached_answers += 1;
            return core.fault_free_dist_slot(slot, v);
        }
        let row = self.ensure_row(core, slot, faults, tier);
        let (dist, _) = self.row(core, slot, row);
        finite(dist[v.index()])
    }

    /// One-to-many answer with validation already done (shared by the
    /// public entry points, the facades and the server's batch grouping).
    /// Counts `targets.len()` queries; results are in input order.
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
    ) -> Vec<Option<u32>> {
        if core.options().force_full_sweep {
            return targets
                .iter()
                .map(|&v| self.answer_unchecked(core, slot, v, faults))
                .collect();
        }
        self.stats.queries += targets.len();
        let tier = core.route(faults);
        if tier == Tier::FaultFree {
            // Every fault is an edge outside H: the fault-free row answers
            // the whole batch.
            self.count_tier_many(Tier::FaultFree, targets.len());
            self.stats.cached_answers += targets.len();
            let (dist0, _) = core.fault_free_row(slot);
            return targets.iter().map(|&v| finite(dist0[v.index()])).collect();
        }
        // An LRU hit answers every target from the cached row, exactly as
        // the per-target path would.
        let key_slot = slot as u32;
        if let Some(i) = self
            .rows
            .iter()
            .position(|r| r.source_slot == key_slot && r.faults == *faults)
        {
            self.clock += 1;
            self.rows[i].last_used = self.clock;
            self.count_tier_many(tier, targets.len());
            self.stats.cached_answers += targets.len();
            let dist = &self.rows[i].dist;
            return targets.iter().map(|&v| finite(dist[v.index()])).collect();
        }
        // Stage spans (classification / restricted sweep) only arm when
        // obs is attached and sampling is on; they nest inside the
        // entry-point window, keeping stage sums within the wall time.
        let obs = self.stage_obs();
        let classify_span = obs.as_ref().map(|o| Span::enter(&o.stage_classify));
        // Batched unaffected classification against the merged affected
        // intervals — never an `O(|F|)` ancestor probe per target. Sparse
        // frames sort the targets by preorder number once and sweep the
        // intervals over the sorted keys (`O(|F| log t + t)`); dense frames
        // skip the `O(t log t)` sort (which would dominate the whole batch)
        // and binary-search each key over the `O(|F|)` intervals instead
        // (`O(t log |F|)`). Both classify identically.
        let affected_size = core.affected_intervals(slot, faults, &mut self.repair.intervals);
        let euler = &core.slot_tree(slot).euler;
        let mut keys = std::mem::take(&mut self.many_keys);
        let mut affected = std::mem::take(&mut self.many_affected);
        keys.clear();
        affected.clear();
        for (i, &v) in targets.iter().enumerate() {
            // Out-of-tree targets have no preorder number; they are
            // unaffected (unreachable with or without the faults).
            if let Some(t) = euler.preorder(v) {
                keys.push((t, i as u32));
            }
        }
        if keys.len() <= SORTED_CLASSIFY_MAX_TARGETS {
            keys.sort_unstable();
            ftb_tree::covered_keys(&self.repair.intervals, &keys, |i| affected.push(i));
        } else {
            let intervals = &self.repair.intervals;
            for &(t, i) in keys.iter() {
                let idx = intervals.partition_point(|&(_, end)| end <= t);
                if idx < intervals.len() && intervals[idx].0 <= t {
                    affected.push(i);
                }
            }
        }
        drop(classify_span);

        // Unaffected targets read the fault-free row; affected ones are
        // overwritten below.
        let (dist0, _) = core.fault_free_row(slot);
        let mut out: Vec<Option<u32>> = targets.iter().map(|&v| finite(dist0[v.index()])).collect();
        let unaffected = targets.len() - affected.len();
        self.stats.tiers.batched_unaffected += unaffected;
        self.stats.cached_answers += unaffected;
        if affected.is_empty() {
            // Every target provably unaffected: the whole batch ran zero
            // searches (the counter proof the one_to_many suite asserts).
            self.many_keys = keys;
            self.many_affected = affected;
            return out;
        }
        let source = core.sources()[slot];
        let restricted = affected.len() * RESTRICTED_SWEEP_RATIO <= affected_size
            && !faults.contains(Fault::Vertex(source));
        if restricted {
            // Few targets inside a large affected set: settle exactly the
            // requested ones, skip the row materialisation, cache nothing.
            self.count_tier_many(tier, affected.len());
            self.stats.restricted_repairs += 1;
            let sweep_span = obs.as_ref().map(|o| Span::enter(&o.stage_restricted_sweep));
            let order = core.slot_tree(slot).euler.order();
            let wanted = affected.iter().map(|&i| targets[i as usize]);
            match tier {
                Tier::SparseH => {
                    let e = faults.as_single_edge().expect("SparseH is single-edge");
                    let h = &core.h;
                    let banned_compact = h.compact_edge(e);
                    let neighbors = |u: VertexId| {
                        h.graph()
                            .neighbors(u)
                            .filter(move |&(_, he)| Some(he) != banned_compact)
                            .map(|(w, he)| (w, h.parent_edge(he)))
                    };
                    self.repair
                        .restricted_sweep(order, dist0, wanted, neighbors);
                    self.stats.structure_bfs_runs += 1;
                }
                Tier::Augmented => {
                    let banned = faults.as_slice();
                    let aug = core.aug.as_ref().expect("Augmented tier has a CSR");
                    let csr = &aug.csr;
                    let banned_compact = BannedEdges::collect(faults, csr);
                    let neighbors = |u: VertexId| {
                        csr.graph()
                            .neighbors(u)
                            .filter(move |&(w, ce)| {
                                !banned_compact.contains(ce) && !banned.contains(&Fault::Vertex(w))
                            })
                            .map(|(w, ce)| (w, csr.parent_edge(ce)))
                    };
                    self.repair
                        .restricted_sweep(order, dist0, wanted, neighbors);
                    self.stats.augmented_bfs_runs += 1;
                }
                Tier::FullGraph => {
                    let banned = faults.as_slice();
                    let graph = core.graph();
                    let neighbors = |u: VertexId| {
                        graph.neighbors(u).filter(move |&(w, ge)| {
                            !banned.contains(&Fault::Edge(ge))
                                && !banned.contains(&Fault::Vertex(w))
                        })
                    };
                    self.repair
                        .restricted_sweep(order, dist0, wanted, neighbors);
                    self.stats.full_graph_bfs_runs += 1;
                }
                Tier::FaultFree => unreachable!("handled above"),
            }
            drop(sweep_span);
            for &i in &affected {
                let v = targets[i as usize];
                out[i as usize] = finite(self.repair.rdist.get(v.index()));
            }
        } else {
            // Dense affected set: one ordinary row materialisation (repair
            // or full sweep) amortises across every affected target and
            // lands in the LRU for the next batch. `ensure_row` attributes
            // one query to the tier; the remaining affected targets read
            // the just-computed row like cache hits.
            let row = self.ensure_row(core, slot, faults, tier);
            self.count_tier_many(tier, affected.len() - 1);
            self.stats.cached_answers += affected.len() - 1;
            let (dist, _) = self.row(core, slot, row);
            for &i in &affected {
                out[i as usize] = finite(dist[targets[i as usize].index()]);
            }
        }
        self.many_keys = keys;
        self.many_affected = affected;
        out
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
        if !core.target_unaffected(slot, v, faults) {
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
            if faults.contains_edge(pe) || !core.target_unaffected(slot, p, faults) {
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
    /// only move when a search actually runs. A cache miss on the
    /// `sparse_h_bfs` / `augmented_bfs` tiers takes the **incremental
    /// repair** path (unless [`EngineOptions::force_full_sweep`](super::EngineOptions)):
    /// the row starts as a copy of the tier's fault-free rows, only the
    /// affected subtrees are re-swept by a bounded BFS seeded from their
    /// unaffected boundary, and canonical parents are patched where the
    /// distances or the adjacency changed — byte-identical to the full
    /// sweep, at a fraction of its cost.
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
        self.clock += 1;
        let key_slot = slot as u32;
        if let Some(i) = self
            .rows
            .iter()
            .position(|r| r.source_slot == key_slot && r.faults == *faults)
        {
            self.rows[i].last_used = self.clock;
            self.stats.cached_answers += 1;
            return RowSlot::Cached(i);
        }
        // Miss: pick a row to (re)compute into — a fresh one while below
        // capacity, otherwise evict the least recently used.
        let i = if self.rows.len() < self.capacity {
            self.rows.push(CachedRow {
                source_slot: key_slot,
                faults: faults.clone(),
                dist: vec![UNREACHABLE; self.num_vertices],
                parent: vec![None; self.num_vertices],
                last_used: 0,
            });
            self.rows.len() - 1
        } else {
            (0..self.rows.len())
                .min_by_key(|&j| self.rows[j].last_used)
                .expect("capacity >= 1")
        };
        let source = core.sources()[slot];
        let obs = self.stage_obs();
        let row = &mut self.rows[i];
        let repairable = !core.options().force_full_sweep;
        // The banned-element filters below scan the canonical fault slice:
        // at most `max_faults` entries, so membership is a short linear
        // scan, cheaper than any hashing at these sizes.
        let banned = faults.as_slice();
        if banned.contains(&Fault::Vertex(source)) {
            // The source itself failed: nothing is reachable (matching
            // `bfs_distances_view` over a masked source). No search runs,
            // so no sweep is counted.
            row.dist.fill(UNREACHABLE);
            row.parent.fill(None);
        } else {
            match tier {
                Tier::SparseH => {
                    // The seed paper's regime: one non-reinforced structure
                    // edge. The FT-BFS guarantee makes a BFS over the
                    // compact CSR of H ∖ {e} exact.
                    let e = faults.as_single_edge().expect("SparseH is single-edge");
                    let h = &core.h;
                    let banned_compact = h.compact_edge(e);
                    let neighbors = |u: VertexId| {
                        h.graph()
                            .neighbors(u)
                            .filter(move |&(_, he)| Some(he) != banned_compact)
                            .map(|(w, he)| (w, h.parent_edge(he)))
                    };
                    if repairable {
                        let (dist0, parent0) = core.fault_free_row(slot);
                        core.affected_intervals(slot, faults, &mut self.repair.intervals);
                        self.repair.fixups.clear();
                        if h.contains_parent_edge(e) {
                            let edge = core.graph().edge(e);
                            self.repair.fixups.push(edge.u);
                            self.repair.fixups.push(edge.v);
                        }
                        row.dist.copy_from_slice(dist0);
                        row.parent.copy_from_slice(parent0);
                        let span = obs.as_ref().map(|o| Span::enter(&o.stage_row_repair));
                        self.repair.repair_region(
                            core.slot_tree(slot).euler.order(),
                            dist0,
                            &mut row.dist,
                            &mut row.parent,
                            neighbors,
                        );
                        drop(span);
                        self.stats.repaired_rows += 1;
                    } else {
                        let span = obs.as_ref().map(|o| Span::enter(&o.stage_full_sweep));
                        bfs_sweep(source, &mut self.scratch, neighbors);
                        self.scratch.materialize(&mut row.dist, &mut row.parent);
                        drop(span);
                    }
                    self.stats.structure_bfs_runs += 1;
                }
                Tier::Augmented => {
                    // The fault set is inside the augmented structure's
                    // coverage: a BFS over H⁺ ∖ F is exact by the
                    // replacement-path construction (see `crate::ftbfs`).
                    // The ≤ 2 banned edges are translated to compact ids
                    // once into an inline probe, so the sweep compares
                    // compact ids directly and only translates the edges it
                    // records as parents.
                    let aug = core.aug.as_ref().expect("Augmented tier has a CSR");
                    let csr = &aug.csr;
                    let banned_compact = BannedEdges::collect(faults, csr);
                    let neighbors = |u: VertexId| {
                        csr.graph()
                            .neighbors(u)
                            .filter(move |&(w, ce)| {
                                !banned_compact.contains(ce) && !banned.contains(&Fault::Vertex(w))
                            })
                            .map(|(w, ce)| (w, csr.parent_edge(ce)))
                    };
                    if repairable {
                        let (dist0, _) = core.fault_free_row(slot);
                        let parent0 = &aug.fault_free_parent[slot];
                        core.affected_intervals(slot, faults, &mut self.repair.intervals);
                        self.repair.fixups.clear();
                        for e in faults.edges().filter(|&e| csr.contains_parent_edge(e)) {
                            let edge = core.graph().edge(e);
                            self.repair.fixups.push(edge.u);
                            self.repair.fixups.push(edge.v);
                        }
                        row.dist.copy_from_slice(dist0);
                        row.parent.copy_from_slice(parent0);
                        let span = obs.as_ref().map(|o| Span::enter(&o.stage_row_repair));
                        self.repair.repair_region(
                            core.slot_tree(slot).euler.order(),
                            dist0,
                            &mut row.dist,
                            &mut row.parent,
                            neighbors,
                        );
                        drop(span);
                        self.stats.repaired_rows += 1;
                    } else {
                        let span = obs.as_ref().map(|o| Span::enter(&o.stage_full_sweep));
                        bfs_sweep(source, &mut self.scratch, neighbors);
                        self.scratch.materialize(&mut row.dist, &mut row.parent);
                        drop(span);
                    }
                    self.stats.augmented_bfs_runs += 1;
                }
                Tier::FullGraph => {
                    // Everything beyond the sparse guarantees stays exact
                    // with one BFS over the full graph G ∖ F.
                    let graph = core.graph();
                    let span = obs.as_ref().map(|o| Span::enter(&o.stage_full_sweep));
                    bfs_sweep(source, &mut self.scratch, |u| {
                        graph.neighbors(u).filter(move |&(w, ge)| {
                            !banned.contains(&Fault::Edge(ge))
                                && !banned.contains(&Fault::Vertex(w))
                        })
                    });
                    self.scratch.materialize(&mut row.dist, &mut row.parent);
                    drop(span);
                    self.stats.full_graph_bfs_runs += 1;
                }
                Tier::FaultFree => unreachable!("handled above"),
            }
        }
        let row = &mut self.rows[i];
        row.source_slot = key_slot;
        row.faults = faults.clone();
        row.last_used = self.clock;
        RowSlot::Cached(i)
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

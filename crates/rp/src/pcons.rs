//! Algorithm `Pcons` (Phase S0): canonical replacement paths for all pairs.
//!
//! For a pair `⟨v, e⟩` with `e = (p, c)` and `target = dist(s, v, G ∖ {e})`,
//! Pcons first asks whether a replacement path can end with a tree edge
//! (the pair is then *covered*), and otherwise finds the smallest `j` such
//! that a replacement path survives the removal of the interior of
//! `π(u_j, v)`. Every search is subtree-bounded: removing `e` changes
//! canonical paths only inside the `T0` subtree of `c`. Both passes cut
//! faults on a [`CutTree`] ([`ftb_sp::cut`]).
//!
//! The work runs in two passes, each parallel over its tasks:
//!
//! * **Pass 1, per failing edge: covered pairs, no probe.** One canonical
//!   replacement tree of `G ∖ {e}`, `e` cut from `T0`'s rows, answers every
//!   terminal below `c`. A pair `⟨v, e⟩` is covered iff some tree edge
//!   `(x, v) ≠ e` has `dist(s, x, G ∖ {e}) = target − 1`: a path to `x` that
//!   short cannot pass `v`, so it also lives in `G'(v) ∖ {e}` (no non-tree
//!   edge incident to `v`), and its canonical path and tie sum are those of
//!   the tree. The canonical covered path is the tree path to the
//!   `(tie sum + W(x, v), x)`-minimal such `x`, followed by `(x, v)` — the
//!   parent the canonical search in `G'(v) ∖ {e}` would settle. The pass
//!   lists the other pairs, with their targets, as uncovered.
//!
//!   An uncovered pair's path must be new-ending. Its divergence point `u_j`
//!   is feasible iff a replacement path survives the removal of `e` and the
//!   interior of `π(u_j, v)`. The predicate is monotone in `j` (Lemma 4.3),
//!   holds at `j = idx`, where `e = (π[idx], π[idx + 1])`, and the pair
//!   diverges at the smallest feasible `j`.
//! * **Pass 2, per level: the divergence points.** Take a tree edge
//!   `(u, a)` with `depth(u) = j` and a terminal `v` below `a`, and let
//!   `G'_{u,a}(v) = G ∖ π°(u, v) ∖ {(u, a)}`. For every pair of `v` with
//!   `j ≤ idx`, the graph of probe `j` is `G'_{u,a}(v)`: if `j < idx`, an
//!   endpoint of `e` and `a` itself lie in `π°(u, v)`, so banning `e` or
//!   `(u, a)` adds nothing; if `j = idx`, `e` is `(u, a)`. With `d_j` the
//!   distance of `v` in it, `G'_{u,a}(v) ⊆ G ∖ {e}` gives `d_j ≥ target`,
//!   and `j` is feasible iff `d_j = target`. So one canonical tree decides
//!   `j` for every pair of `v` at once, and the pairs that take `j` all get
//!   `v`'s path in it.
//!
//!   These trees nest down `T0`: a child `c` of `x` has
//!   `G'_{u,a}(c) = G'_{u,a}(x) ∖ {x}`. So the pass runs in levels
//!   `j = 0, 1, 2, …`, and level `j` has one task per tree edge `(u, a)`
//!   with `depth(u) = j` above a terminal with an undecided pair. The task
//!   walks down `T0` from `a` through those terminals in preorder, carrying
//!   the tree of the vertex it stands on, and reads each terminal's `d_j`
//!   and path off it. The tree starts as the replacement tree of `(u, a)`;
//!   before the walk steps into a vertex's children it removes the vertex
//!   and repairs only the vertices whose path passed through it, and an
//!   undo log puts them back when it steps out (the `walk` module, on the
//!   same [`CutTree`] as pass 1). Levels run in order, so the first level
//!   at which a pair holds is its smallest feasible `j`. A pair still
//!   undecided at level `idx` would break Lemma 4.3, and the walk asserts
//!   that none is. A terminal drops out once all its pairs are decided.
//!
//! [`ReplacementPaths::work`] counts pass 1's searches and pass 2's levels,
//! walks, removals and repaired vertices.
//!
//! # The pair store
//!
//! No path is built. Each pass-1 task writes, into buffers the calling
//! thread owns, every vertex's parent edge in the replacement tree and the
//! pair's outcome: cut off, covered with its last edge, or uncovered with
//! its target. The calling thread then walks the pairs in the order the
//! later phases rely on — terminals by depth, then failing edges from the
//! source down — writing one fixed-size [`PairRecord`] per pair and listing
//! each terminal's uncovered pairs for pass 2. Each pass-2 task writes,
//! into the outcome segments of its terminals, which the calling thread
//! owns, every pair it decides: its last edge and the place of its detour
//! in the task's detour buffer; pairs that share a path share that detour.
//! The calling thread completes the records of the uncovered pairs and
//! copies each pair's detour into one arena, in id order. The
//! replacement-tree parent edges (`Σ_v depth(v)` entries) stay in the
//! store: [`ReplacementPaths::path`] rebuilds a covered path from them and
//! `T0`, and a new-ending one as `π(s, d(P)) ∘ D(P)`. The rebuilt paths
//! are identical, path for path, to the heap-based
//! [`LexSearch`](ftb_sp::LexSearch) formulation over masked views, which
//! is kept as the test oracle.

use crate::pair::{PairId, PairRecord, ReplacementPath, VePair};
use crate::walk::walk;
use ftb_graph::{EdgeId, Fault, Graph, VertexId};
use ftb_par::{parallel_segments_mut_init, ParallelConfig};
use ftb_sp::{
    canonical_parent, CutTree, Path, ReplacementDistances, ShortestPathTree, TieBreakWeights,
    UNREACHABLE,
};
use std::ops::Range;

/// Parent-edge entry of a vertex that the failure cuts off.
const CUT_OFF: EdgeId = EdgeId(u32::MAX);

/// The output of Algorithm `Pcons`: for every vertex–edge pair `⟨v, e⟩` with
/// `e ∈ π(s, v)` for which a replacement path exists (pairs whose failure
/// disconnects the terminal are omitted — no protection is required for
/// them), one [`PairRecord`] and, if the pair is new-ending, its detour.
///
/// Pair ids run over the terminals by depth, then over each terminal's
/// failing edges from the source down. The full path of any pair is
/// rebuilt on demand by [`ReplacementPaths::path`].
#[derive(Clone, Debug)]
pub struct ReplacementPaths {
    source: VertexId,
    /// One record per pair, in id order.
    records: Vec<PairRecord>,
    /// The pairs of terminal `v` are `terminal_pairs[v].0 ..
    /// terminal_pairs[v].1`.
    terminal_pairs: Vec<(u32, u32)>,
    /// Ids of the new-ending pairs, ascending.
    uncovered: Vec<PairId>,
    /// The detour of `uncovered[i]` is `detours[detour_offsets[i] ..
    /// detour_offsets[i + 1]]`.
    detour_offsets: Vec<u32>,
    detours: Vec<VertexId>,
    /// Segment `parent_offsets[c] .. parent_offsets[c + 1]` of
    /// `parent_edges` belongs to the tree edge into `c`: the parent edge of
    /// every vertex of the subtree of `c`, in preorder, in the canonical
    /// replacement tree of `G ∖ {e}` ([`CUT_OFF`] if the failure cuts the
    /// vertex off).
    parent_offsets: Vec<usize>,
    parent_edges: Vec<EdgeId>,
    /// The search work of the run.
    work: PconsWork,
}

impl ReplacementPaths {
    /// Run Algorithm `Pcons` for every pair, in parallel: pass 1 over
    /// failing tree edges, then pass 2 level by level, each level over the
    /// tree edges at that depth above the terminals of the undecided
    /// uncovered pairs.
    pub fn compute(
        graph: &Graph,
        weights: &TieBreakWeights,
        tree: &ShortestPathTree,
        dists: &ReplacementDistances,
        config: &ParallelConfig,
    ) -> Self {
        let n = graph.num_vertices();
        // Segment `c` of the per-vertex buffers covers the vertices below
        // the tree edge into `c`, in preorder (empty for the source and
        // unreachable vertices). The buffers of both passes are allocated
        // here, so the long-lived ones come from the calling thread: buffers
        // allocated by the short-lived workers and freed later stayed
        // resident in their allocator arenas by an amount that varied from
        // run to run. Only the detours, a few per terminal, grow on the
        // workers.
        let mut parent_offsets = Vec::with_capacity(n + 1);
        parent_offsets.push(0);
        for c in graph.vertices() {
            let below = tree.parent(c).map_or(0, |_| tree.subtree_size(c));
            parent_offsets.push(parent_offsets[c.index()] + below);
        }
        let mut parent_edges = vec![CUT_OFF; parent_offsets[n]];
        let mut outcomes = vec![Outcome::CutOff; parent_offsets[n]];
        let mut tasks = Vec::with_capacity(n);
        let (mut parents_rest, mut outcomes_rest) = (&mut parent_edges[..], &mut outcomes[..]);
        for w in parent_offsets.windows(2) {
            let (parents, rest) = std::mem::take(&mut parents_rest).split_at_mut(w[1] - w[0]);
            parents_rest = rest;
            let (outcomes, rest) = std::mem::take(&mut outcomes_rest).split_at_mut(w[1] - w[0]);
            outcomes_rest = rest;
            tasks.push(EdgeTask {
                parents,
                outcomes,
                work: PconsWork::default(),
            });
        }
        let one_task_each: Vec<usize> = (0..=n).collect();
        parallel_segments_mut_init(
            config,
            &mut tasks,
            &one_task_each,
            || CutTree::new(graph, weights, tree),
            |rows, c, task| {
                if let Some((_, e)) = tree.parent(VertexId::new(c)) {
                    pairs_of_edge(rows, graph, weights, dists, e, &mut task[0]);
                }
            },
        );
        let mut work: PconsWork = tasks.iter().map(|t| t.work).sum();

        let num_pairs = outcomes
            .iter()
            .filter(|o| !matches!(o, Outcome::CutOff))
            .count();
        let num_uncovered = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Uncovered(_)))
            .count();
        let mut store = ReplacementPaths {
            source: tree.source(),
            records: Vec::with_capacity(num_pairs),
            terminal_pairs: vec![(0, 0); n],
            uncovered: Vec::with_capacity(num_uncovered),
            detour_offsets: Vec::with_capacity(num_uncovered + 1),
            detours: Vec::new(),
            parent_offsets,
            parent_edges,
            work: PconsWork::default(),
        };
        // The records, in the order the later phases rely on. An uncovered
        // pair's last edge and divergence are pass 2's; its failing edge and
        // target go to `pending`, grouped by terminal.
        let depth = |u: VertexId| tree.depth(u).expect("reachable");
        let mut pending = Vec::with_capacity(num_uncovered);
        let mut pending_offsets = vec![0];
        let mut pending_terminals = Vec::new();
        let mut pi_edges = Vec::new();
        for v in tree.vertices_by_depth() {
            let first = store.records.len();
            pi_edges.clear();
            pi_edges.extend(tree.ancestors(v));
            for &(c, e) in pi_edges.iter().rev() {
                let at = store.parent_offsets[c.index()] + subtree_slot(tree, c, v);
                let (last_edge, new_ending) = match outcomes[at] {
                    Outcome::CutOff => continue,
                    Outcome::Covered(f) => (f, false),
                    Outcome::Uncovered(target) => {
                        store.uncovered.push(store.records.len());
                        pending.push((e, target));
                        (CUT_OFF, true)
                    }
                };
                store.records.push(PairRecord {
                    pair: VePair {
                        terminal: v,
                        failing_edge: e,
                    },
                    last_edge,
                    new_ending,
                    divergence: None,
                    failing_edge_depth: depth(c),
                    terminal_depth: depth(v),
                });
            }
            store.terminal_pairs[v.index()] = (to_u32(first), to_u32(store.records.len()));
            if pending.len() > pending_offsets[pending_offsets.len() - 1] {
                pending_offsets.push(pending.len());
                pending_terminals.push(v);
            }
        }
        // Read in full; free it before pass 2 allocates.
        drop(outcomes);

        // Pass 2, level by level: level j decides the undecided pairs that
        // can diverge at depth j. It has one task per tree edge (u, a) with
        // depth(u) = j above a terminal with an undecided pair: a walk down
        // `T0` from `a` through those terminals in preorder. A terminal
        // drops out once all its pairs are decided.
        let mut ends = vec![NewEnding::default(); pending.len()];
        let mut slots = terminal_slots(&pending_terminals, &pending, &pending_offsets, &mut ends);
        slots.sort_unstable_by_key(|slot| tree.preorder(slot.terminal));
        let mut buffers = Vec::new();
        let mut level = 0;
        while !slots.is_empty() {
            let mut walks: Vec<WalkTask<'_>> = Vec::new();
            for slot in slots {
                let v = slot.terminal;
                if !walks.last().is_some_and(|w| tree.in_subtree(w.root, v)) {
                    // An undecided pair's failing edge enters depth
                    // `level + 1` or deeper (`walk_edge` asserts it), so `v`
                    // has an ancestor there.
                    let (root, _) = tree
                        .ancestors(v)
                        .nth((depth(v) - level - 1) as usize)
                        .expect("an ancestor at depth level + 1");
                    walks.push(WalkTask {
                        root,
                        terminals: Vec::new(),
                        slots: Vec::new(),
                        detours: Vec::new(),
                        work: PconsWork::default(),
                    });
                }
                let walk = walks.last_mut().expect("a walk");
                walk.terminals.push(v);
                walk.slots.push(slot);
            }
            let first_buffer = buffers.len();
            let one_task_each: Vec<usize> = (0..=walks.len()).collect();
            parallel_segments_mut_init(
                config,
                &mut walks,
                &one_task_each,
                || (CutTree::new(graph, weights, tree), PathScratch::default()),
                |state, i, task| walk_edge(state, to_u32(first_buffer + i), &mut task[0]),
            );
            work.levels += 1;
            slots = Vec::new();
            for walk in walks {
                work += walk.work;
                buffers.push(walk.detours);
                let undecided = |slot: &TerminalPairs<'_>| slot.ends.iter().any(|end| end.len == 0);
                slots.extend(walk.slots.into_iter().filter(undecided));
            }
            level += 1;
        }
        store.work = work;

        // Each uncovered pair's detour goes into the arena, in id order.
        store.detours = Vec::with_capacity(ends.iter().map(|end| end.len as usize).sum());
        store.detour_offsets.push(0);
        for (&id, end) in store.uncovered.iter().zip(&ends) {
            let detour = &buffers[end.buffer as usize][end.start as usize..][..end.len as usize];
            let record = &mut store.records[id];
            record.last_edge = end.last_edge;
            record.divergence = Some(detour[0]);
            store.detours.extend_from_slice(detour);
            store.detour_offsets.push(to_u32(store.detours.len()));
        }
        store
    }

    /// The search work of the run that computed the store: identical for
    /// every thread count.
    pub fn work(&self) -> PconsWork {
        self.work
    }

    /// The BFS source.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Total number of pairs with a replacement path.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if no pair has a replacement path (e.g. a tree-shaped graph).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record of the pair with the given id.
    pub fn get(&self, id: PairId) -> &PairRecord {
        &self.records[id]
    }

    /// All records, in id order.
    pub fn all(&self) -> &[PairRecord] {
        &self.records
    }

    /// Look up the pair `⟨v, e⟩` (a scan of `v`'s at most `depth(v)`
    /// pairs).
    pub fn lookup(&self, terminal: VertexId, failing_edge: EdgeId) -> Option<PairId> {
        self.pairs_of_terminal(terminal)
            .find(|&p| self.records[p].pair.failing_edge == failing_edge)
    }

    /// Ids of the pairs whose replacement path is *new-ending* (the paper's
    /// uncovered set `UP`), ascending.
    pub fn uncovered(&self) -> &[PairId] {
        &self.uncovered
    }

    /// Ids of the pairs of a given terminal (the paper's `UP(v)` restricted
    /// to pairs that have a replacement path), in increasing depth of the
    /// failing edge.
    pub fn pairs_of_terminal(&self, v: VertexId) -> Range<PairId> {
        self.terminal_pairs
            .get(v.index())
            .map_or(0..0, |&(lo, hi)| lo as usize..hi as usize)
    }

    /// The detour `D(P) = P[d(P), v]` of a new-ending pair: the suffix of
    /// its path from the divergence point. Empty for covered pairs.
    pub fn detour_vertices(&self, id: PairId) -> &[VertexId] {
        self.uncovered
            .binary_search(&id)
            .map_or(&[], |i| self.detour_at(i))
    }

    /// The *internal* detour vertices of a pair: its detour without the
    /// divergence point and the terminal.
    pub fn detour_interior(&self, id: PairId) -> &[VertexId] {
        interior(self.detour_vertices(id))
    }

    /// The detour of `uncovered()[i]`.
    pub(crate) fn detour_at(&self, i: usize) -> &[VertexId] {
        &self.detours[self.detour_offsets[i] as usize..self.detour_offsets[i + 1] as usize]
    }

    /// The interior of the detour of `uncovered()[i]`.
    pub(crate) fn detour_interior_at(&self, i: usize) -> &[VertexId] {
        interior(self.detour_at(i))
    }

    /// The full replacement path of pair `id`, rebuilt from the store:
    /// `graph` and `tree` must be the ones it was computed on. A covered
    /// path is the path to the last edge's far end `x` in the canonical
    /// replacement tree of `G ∖ {e}` — the stored parents inside the subtree
    /// `e` cuts off, `T0` above it — followed by `LastE(P)`; a new-ending
    /// path is `π(s, d(P)) ∘ D(P)`.
    pub fn path(&self, graph: &Graph, tree: &ShortestPathTree, id: PairId) -> ReplacementPath {
        let r = self.records[id];
        let v = r.pair.terminal;
        let (path, divergence_index) = match r.divergence {
            None => (self.covered_path(graph, tree, &r), None),
            Some(d) => {
                let prefix = tree.path_to(d).expect("reachable");
                let mut vertices = prefix.vertices().to_vec();
                let mut edges = prefix.edges().to_vec();
                for hop in self.detour_vertices(id).windows(2) {
                    edges.push(graph.find_edge(hop[0], hop[1]).expect("detour hop"));
                    vertices.push(hop[1]);
                }
                debug_assert_eq!(vertices.last(), Some(&v));
                (Path::new(vertices, edges), Some(prefix.len()))
            }
        };
        ReplacementPath {
            pair: r.pair,
            path,
            last_edge: r.last_edge,
            new_ending: r.new_ending,
            divergence: r.divergence,
            divergence_index,
            failing_edge_depth: r.failing_edge_depth,
            terminal_depth: r.terminal_depth,
        }
    }

    /// The covered path of `r` (see [`ReplacementPaths::path`]).
    fn covered_path(&self, graph: &Graph, tree: &ShortestPathTree, r: &PairRecord) -> Path {
        let (v, f) = (r.pair.terminal, r.last_edge);
        let c = tree.child_endpoint(r.pair.failing_edge).expect("tree edge");
        let parents = &self.parent_edges[self.parent_offsets[c.index()]..][..tree.subtree_size(c)];
        let x = graph.edge(f).other(v);
        let mut vertices = vec![v, x];
        let mut edges = vec![f];
        let mut cur = x;
        loop {
            let up = if tree.in_subtree(c, cur) {
                let g = parents[subtree_slot(tree, c, cur)];
                (g != CUT_OFF).then(|| (graph.edge(g).other(cur), g))
            } else {
                tree.parent(cur)
            };
            let Some((p, g)) = up else {
                break;
            };
            vertices.push(p);
            edges.push(g);
            cur = p;
        }
        vertices.reverse();
        edges.reverse();
        Path::new(vertices, edges)
    }

    /// Heap bytes held by the store: a 32-byte record per pair, the ids and
    /// detour offsets of the uncovered pairs, the detour arena, the
    /// replacement-tree parent edges (`Σ_v depth(v)` entries) and the
    /// per-vertex offsets.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.records.capacity() * size_of::<PairRecord>()
            + self.terminal_pairs.capacity() * size_of::<(u32, u32)>()
            + self.uncovered.capacity() * size_of::<PairId>()
            + self.detour_offsets.capacity() * size_of::<u32>()
            + self.detours.capacity() * size_of::<VertexId>()
            + self.parent_offsets.capacity() * size_of::<usize>()
            + self.parent_edges.capacity() * size_of::<EdgeId>()
    }
}

/// A detour without its two endpoints.
fn interior(detour: &[VertexId]) -> &[VertexId] {
    match detour {
        [_, inner @ .., _] => inner,
        _ => &[],
    }
}

fn to_u32(i: usize) -> u32 {
    u32::try_from(i).expect("pair store index overflows u32")
}

/// One [`TerminalPairs`] per terminal of `terminals`, whose pairs are
/// `pending[offsets[i] .. offsets[i + 1]]`, with its slice of `ends`.
fn terminal_slots<'a>(
    terminals: &[VertexId],
    pending: &'a [(EdgeId, u32)],
    offsets: &[usize],
    ends: &'a mut [NewEnding],
) -> Vec<TerminalPairs<'a>> {
    let mut ends_rest = ends;
    terminals
        .iter()
        .zip(offsets.windows(2))
        .map(|(&terminal, w)| {
            let (ends, rest) = std::mem::take(&mut ends_rest).split_at_mut(w[1] - w[0]);
            ends_rest = rest;
            TerminalPairs {
                terminal,
                pairs: &pending[w[0]..w[1]],
                ends,
            }
        })
        .collect()
}

/// Position of `v` in the preorder of the subtree of `c`.
fn subtree_slot(tree: &ShortestPathTree, c: VertexId, v: VertexId) -> usize {
    let pre = |u: VertexId| tree.preorder(u).expect("reachable");
    (pre(v) - pre(c)) as usize
}

/// Search work of one run of Algorithm `Pcons` (see
/// [`ReplacementPaths::work`]). Each task counts its own, and the calling
/// thread adds the tasks' counts up, so the totals do not depend on the
/// thread count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PconsWork {
    /// Pass 1: canonical replacement-tree runs, one per failing tree edge.
    pub covered_runs: u64,
    /// Pass 2: levels run, one per divergence depth from 0 to the deepest
    /// divergence point of an uncovered pair.
    pub levels: u64,
    /// Pass 2: walks over all levels, one per level `j` and tree edge
    /// `(u, a)` with `depth(u) = j` above a terminal that takes part in
    /// level `j`: one with an uncovered pair diverging at depth `j` or
    /// deeper.
    pub walks: u64,
    /// Pass 2: vertices the walks removed, per walk one per distinct proper
    /// ancestor, in the subtree of `a`, of its terminals.
    pub walk_removals: u64,
    /// Pass 2: the total size of the regions those removals repaired.
    pub walk_region_vertices: u64,
}

impl std::ops::AddAssign for PconsWork {
    fn add_assign(&mut self, w: Self) {
        self.covered_runs += w.covered_runs;
        self.levels += w.levels;
        self.walks += w.walks;
        self.walk_removals += w.walk_removals;
        self.walk_region_vertices += w.walk_region_vertices;
    }
}

impl std::iter::Sum for PconsWork {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(PconsWork::default(), |mut t, w| {
            t += w;
            t
        })
    }
}

/// The pass-1 outcome of Algorithm `Pcons` for one pair.
#[derive(Clone, Copy)]
enum Outcome {
    /// The failure cuts the terminal off: no pair.
    CutOff,
    /// Covered, with this last edge.
    Covered(EdgeId),
    /// Uncovered, with this target distance: pass 2 finds its path.
    Uncovered(u32),
}

/// The new-ending path of an uncovered pair: its last edge, and its detour
/// at `start .. start + len` of detour buffer `buffer` (`len = 0`: not
/// decided yet).
#[derive(Clone, Copy, Default)]
struct NewEnding {
    last_edge: EdgeId,
    buffer: u32,
    start: u32,
    len: u32,
}

/// What the pass-1 task of tree edge `e = (p, c)` writes, for the vertices
/// below `c` in preorder.
struct EdgeTask<'a> {
    /// Parent edge in the canonical replacement tree of `G ∖ {e}`.
    parents: &'a mut [EdgeId],
    /// The outcome of pair `⟨v, e⟩`.
    outcomes: &'a mut [Outcome],
    work: PconsWork,
}

/// The uncovered pairs of one terminal.
struct TerminalPairs<'a> {
    terminal: VertexId,
    /// `(failing edge, target)` of each pair, from the source down.
    pairs: &'a [(EdgeId, u32)],
    /// The new-ending path of each pair.
    ends: &'a mut [NewEnding],
}

/// The pass-2 task of one tree edge `(u, a)` at its level: its walk.
struct WalkTask<'a> {
    /// The child end `a` of the edge.
    root: VertexId,
    /// The terminals with an undecided pair below `a`, in preorder.
    terminals: Vec<VertexId>,
    /// Their pairs and outcome slots, in the same order.
    slots: Vec<TerminalPairs<'a>>,
    /// The detours of the pairs that diverge at `u`, one per terminal.
    detours: Vec<VertexId>,
    work: PconsWork,
}

/// Pass 1 for tree edge `e = (p, c)`: the canonical replacement tree of
/// `G ∖ {e}`, cut from `T0`'s rows, and for every pair `⟨v, e⟩` below `c`
/// whether it is covered, written to `v`'s slot in the cut's region (the
/// subtree's preorder slice): `preorder(v) − preorder(c)`.
fn pairs_of_edge(
    rows: &mut CutTree<'_>,
    graph: &Graph,
    weights: &TieBreakWeights,
    dists: &ReplacementDistances,
    e: EdgeId,
    out: &mut EdgeTask<'_>,
) {
    let tree = rows.tree();
    rows.cut(Fault::Edge(e));
    out.work.covered_runs += 1;
    for (slot, &v) in rows.region().iter().enumerate() {
        let Some((_, last)) = rows.parent(v) else {
            continue; // cut off
        };
        let target = dists.dist(e, v).expect("tree edge");
        debug_assert_eq!(rows.depth(v), Some(target), "row of {e:?} at {v:?}");
        // The canonical parent among the tree edges other than `e`.
        let best = canonical_parent(
            graph,
            weights,
            v,
            target - 1,
            |x| rows.depth(x).unwrap_or(UNREACHABLE),
            |x| rows.tie(x),
            |_, f| f != e && tree.is_tree_edge(f),
        );
        out.parents[slot] = last;
        out.outcomes[slot] =
            best.map_or(Outcome::Uncovered(target), |(_, _, f)| Outcome::Covered(f));
    }
    rows.undo_to(0);
}

/// Pass 2 for one tree edge `(u, a)`, task `buffer`: walk the subtree of
/// `a` through its terminals and give every undecided pair that can
/// diverge at `u` its path.
fn walk_edge((rows, paths): &mut (CutTree<'_>, PathScratch), buffer: u32, task: &mut WalkTask<'_>) {
    let WalkTask {
        root,
        terminals,
        slots,
        detours,
        work,
    } = task;
    let tree = rows.tree();
    let (_, edge) = tree.parent(*root).expect("a vertex below the source");
    let (removals, region_vertices) = walk(rows, *root, terminals, |rows, i| {
        // An undecided pair `⟨v, e⟩` has `e = (u, a)` or `e` below it on
        // `π(s, v)`, with an endpoint in `π°(u, v)`, so banning `e` adds
        // nothing: the walk holds the canonical tree of the pair's graph at
        // `u`, and the pair can diverge at `u` iff `v` keeps its target
        // distance there. It can at the level of `e` itself (Lemma 4.3),
        // so no pair outlives that level.
        let slot = &mut slots[i];
        let v = slot.terminal;
        let d = rows.depth(v);
        let mut taken = None;
        for (&(e, target), end) in slot.pairs.iter().zip(slot.ends.iter_mut()) {
            if end.len != 0 {
                continue;
            }
            if d == Some(target) {
                *end = *taken.get_or_insert_with(|| {
                    paths.set_terminal(tree, v);
                    paths.end(tree, |u| rows.parent(u), buffer, detours)
                });
            } else {
                assert_ne!(
                    e, edge,
                    "pair ⟨{v:?}, {e:?}⟩ infeasible at j = idx (Lemma 4.3)"
                );
            }
        }
    });
    work.walks += 1;
    work.walk_removals += removals;
    work.walk_region_vertices += region_vertices;
}

/// `π(s, v)` of the current terminal and a path buffer.
#[derive(Default)]
struct PathScratch {
    /// `π(s, v)`, by depth.
    pi: Vec<VertexId>,
    /// The settled path of the current pair, source first.
    path: Vec<VertexId>,
}

impl PathScratch {
    /// Make `v` the current terminal.
    fn set_terminal(&mut self, tree: &ShortestPathTree, v: VertexId) {
        self.pi.clear();
        self.pi.extend(tree.ancestors(v).map(|(u, _)| u));
        self.pi.push(tree.source());
        self.pi.reverse();
    }

    /// The new-ending path to the current terminal that `parent` settles —
    /// its parents up to the first vertex that has none, then `T0` — with
    /// its detour appended to `detours`, detour buffer `buffer`.
    fn end(
        &mut self,
        tree: &ShortestPathTree,
        parent: impl Fn(VertexId) -> Option<(VertexId, EdgeId)>,
        buffer: u32,
        detours: &mut Vec<VertexId>,
    ) -> NewEnding {
        let (pi, path) = (&self.pi, &mut self.path);
        let v = *pi.last().expect("a terminal");
        path.clear();
        let mut cur = v;
        while let Some((p, _)) = parent(cur) {
            path.push(cur);
            cur = p;
        }
        path.extend(tree.ancestors(cur).map(|(u, _)| u));
        path.push(tree.source());
        path.reverse();
        let (_, last_edge) = parent(v).expect("target settled");
        debug_assert!(
            !tree.is_tree_edge(last_edge),
            "step-1 failure implies a non-tree last edge"
        );
        // Divergence: longest common prefix with π(s, v).
        let mut d = 0;
        while d + 1 < path.len() && d + 1 < pi.len() && path[d + 1] == pi[d + 1] {
            d += 1;
        }
        let end = NewEnding {
            last_edge,
            buffer,
            start: to_u32(detours.len()),
            len: to_u32(path.len() - d),
        };
        detours.extend_from_slice(&path[d..]);
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::lex_pcons_for_terminal;
    use ftb_graph::generators;
    use ftb_workloads::{Workload, WorkloadFamily};

    /// Phase S0 from scratch: weights, `T0`, replacement distances and
    /// Pcons.
    fn compute_full(
        graph: &Graph,
        weights: &TieBreakWeights,
        source: VertexId,
        config: &ParallelConfig,
    ) -> (ShortestPathTree, ReplacementDistances, ReplacementPaths) {
        let tree = ShortestPathTree::build(graph, weights, source);
        let dists = ReplacementDistances::compute(graph, &tree, config);
        let rp = ReplacementPaths::compute(graph, weights, &tree, &dists, config);
        (tree, dists, rp)
    }

    fn full_setup(
        graph: &Graph,
        seed: u64,
    ) -> (
        TieBreakWeights,
        ShortestPathTree,
        ReplacementDistances,
        ReplacementPaths,
    ) {
        let weights = TieBreakWeights::generate(graph, seed);
        let (tree, dists, rp) =
            compute_full(graph, &weights, VertexId(0), &ParallelConfig::serial());
        (weights, tree, dists, rp)
    }

    /// Every pair's full path, in id order.
    fn paths(
        rp: &ReplacementPaths,
        graph: &Graph,
        tree: &ShortestPathTree,
    ) -> Vec<ReplacementPath> {
        (0..rp.len()).map(|p| rp.path(graph, tree, p)).collect()
    }

    /// The stated bound on [`ReplacementPaths::heap_bytes`]:
    /// `40·pairs + 4·detour vertices + 8·Σ depth + 16·(n + 1)`.
    ///
    /// The store holds a 32-byte record per pair, 12 bytes per uncovered
    /// pair (its id and detour offset), 4 bytes per detour vertex, a 4-byte
    /// parent edge per `Σ depth` entry and 16 bytes per vertex. Since
    /// `uncovered ≤ pairs ≤ Σ depth`, `12·uncovered ≤ 8·pairs + 4·Σ depth`,
    /// so `c = 40` holds. A per-pair path would add two `Vec` headers
    /// (48 bytes) per pair and break it.
    fn heap_bound(rp: &ReplacementPaths, tree: &ShortestPathTree) -> usize {
        let n = tree.num_vertices();
        let detour_vertices: usize = rp
            .uncovered()
            .iter()
            .map(|&p| rp.detour_vertices(p).len())
            .sum();
        let sum_depth: usize = (0..n)
            .filter_map(|v| tree.depth(VertexId::new(v)))
            .map(|d| d as usize)
            .sum();
        40 * rp.len() + 4 * detour_vertices + 8 * sum_depth + 16 * (n + 1)
    }

    #[test]
    fn tree_graphs_have_no_replaceable_pairs() {
        // On a path graph every failure disconnects the suffix, so no pair
        // needs (or has) a replacement path.
        let g = generators::path(10);
        let (_w, _t, _d, rp) = full_setup(&g, 1);
        assert!(rp.is_empty());
        assert!(rp.uncovered().is_empty());
        assert_eq!(rp.len(), 0);
    }

    #[test]
    fn every_pair_path_is_a_valid_replacement_path() {
        let g = generators::hypercube(4);
        let (_w, tree, dists, rp) = full_setup(&g, 3);
        assert!(!rp.is_empty());
        for item in paths(&rp, &g, &tree) {
            let v = item.pair.terminal;
            let e = item.pair.failing_edge;
            // the path avoids the failing edge, starts at s, ends at v
            assert!(!item.path.contains_edge(e));
            assert_eq!(item.path.first(), VertexId(0));
            assert_eq!(item.path.last(), v);
            item.path.validate(&g).unwrap();
            // the path is a *shortest* path in G \ {e}
            let opt = dists.dist(e, v).unwrap();
            assert_eq!(item.path.len() as u32, opt);
            // the failing edge is on π(s, v)
            assert!(tree.path_edges_to(v).contains(&e));
        }
    }

    #[test]
    fn covered_pairs_end_with_tree_edges_and_uncovered_do_not() {
        let g = generators::grid(5, 5);
        let (_w, tree, _d, rp) = full_setup(&g, 5);
        for item in rp.all() {
            if item.new_ending {
                assert!(!tree.is_tree_edge(item.last_edge));
                assert!(item.divergence.is_some());
            } else {
                assert!(tree.is_tree_edge(item.last_edge));
                assert!(item.divergence.is_none());
            }
        }
        let uncovered_count = rp.all().iter().filter(|p| p.new_ending).count();
        assert_eq!(uncovered_count, rp.uncovered().len());
    }

    #[test]
    fn detours_are_vertex_disjoint_from_pi_except_endpoints() {
        // Observation 3.2: D(P) and π(s, v) share only d(P) and v.
        let g = generators::hypercube(4);
        let (_w, tree, _d, rp) = full_setup(&g, 7);
        for &p in rp.uncovered() {
            let item = rp.get(p);
            let v = item.pair.terminal;
            let pi: Vec<VertexId> = tree.path_to(v).unwrap().vertices().to_vec();
            let d = item.divergence.unwrap();
            assert_eq!(rp.detour_vertices(p).first(), Some(&d));
            assert_eq!(rp.detour_vertices(p).last(), Some(&v));
            for &z in rp.detour_vertices(p) {
                if z == d || z == v {
                    continue;
                }
                assert!(!pi.contains(&z), "detour vertex {z:?} lies on π(s, {v:?})");
            }
        }
    }

    #[test]
    fn detour_accessors_follow_the_rebuilt_path() {
        let g = generators::grid(5, 6);
        let (_w, tree, _d, rp) = full_setup(&g, 9);
        assert!(!rp.uncovered().is_empty());
        for p in 0..rp.len() {
            let full = rp.path(&g, &tree, p);
            match full.divergence_index {
                Some(i) => {
                    let detour = &full.path.vertices()[i..];
                    assert_eq!(rp.detour_vertices(p), detour);
                    assert_eq!(rp.detour_interior(p), &detour[1..detour.len() - 1]);
                }
                None => {
                    assert!(rp.detour_vertices(p).is_empty());
                    assert!(rp.detour_interior(p).is_empty());
                }
            }
        }
        assert_eq!(interior(&[VertexId(1), VertexId(2)]), &[] as &[VertexId]);
    }

    #[test]
    fn divergence_is_above_the_failing_edge() {
        // Claim 4.4: the divergence point of a new-ending path is strictly
        // above the failing edge on π(s, v).
        let g = generators::grid(4, 6);
        let (_w, tree, _d, rp) = full_setup(&g, 11);
        for item in rp.all().iter().filter(|p| p.new_ending) {
            let d = item.divergence.unwrap();
            let d_depth = tree.depth(d).unwrap();
            assert!(
                d_depth < item.failing_edge_depth,
                "divergence {d:?} (depth {d_depth}) not above failing edge (depth {})",
                item.failing_edge_depth
            );
        }
    }

    #[test]
    fn lookup_and_per_terminal_indexes_agree() {
        let g = generators::hypercube(3);
        let (_w, _t, _d, rp) = full_setup(&g, 13);
        for (id, item) in rp.all().iter().enumerate() {
            assert_eq!(
                rp.lookup(item.pair.terminal, item.pair.failing_edge),
                Some(id)
            );
            assert!(rp.pairs_of_terminal(item.pair.terminal).contains(&id));
        }
        assert_eq!(rp.lookup(VertexId(0), ftb_graph::EdgeId(0)), None);
        assert!(rp.pairs_of_terminal(VertexId(0)).is_empty());
        assert_eq!(rp.source(), VertexId(0));
    }

    #[test]
    fn parallel_and_serial_pcons_agree() {
        let g = generators::grid(5, 5);
        let weights = TieBreakWeights::generate(&g, 17);
        let tree = ShortestPathTree::build(&g, &weights, VertexId(0));
        let dists = ReplacementDistances::compute(&g, &tree, &ParallelConfig::serial());
        let serial =
            ReplacementPaths::compute(&g, &weights, &tree, &dists, &ParallelConfig::serial());
        let parallel = ReplacementPaths::compute(
            &g,
            &weights,
            &tree,
            &dists,
            &ParallelConfig::with_threads(4),
        );
        assert_eq!(serial.len(), parallel.len());
        assert_eq!(serial.all(), parallel.all());
        for p in 0..serial.len() {
            assert_eq!(
                serial.path(&g, &tree, p).path,
                parallel.path(&g, &tree, p).path
            );
            assert_eq!(serial.detour_vertices(p), parallel.detour_vertices(p));
        }
    }

    #[test]
    fn cycle_pairs_are_all_covered_or_new_ending_consistently() {
        // On an even cycle, failing the first edge of π(s, v) forces the
        // antipodal-ish vertices to reroute; the replacement path ends with
        // an edge of the other side of the cycle, which *is* a tree edge for
        // some terminals and not for others. Just verify global invariants.
        let g = generators::cycle(9);
        let (_w, tree, dists, rp) = full_setup(&g, 19);
        assert!(!rp.is_empty());
        for item in paths(&rp, &g, &tree) {
            assert_eq!(
                item.path.len() as u32,
                dists
                    .dist(item.pair.failing_edge, item.pair.terminal)
                    .unwrap()
            );
        }
    }

    #[test]
    fn heap_bytes_stay_within_the_per_pair_bound_on_every_family() {
        for &family in WorkloadFamily::all() {
            let graph = Workload::new(family, 160, 7).generate();
            let (_w, tree, _d, rp) = full_setup(&graph, 7);
            let (bytes, bound) = (rp.heap_bytes(), heap_bound(&rp, &tree));
            assert!(
                bytes <= bound,
                "{}: {bytes} heap bytes over the bound {bound} ({} pairs)",
                family.name(),
                rp.len()
            );
        }
    }

    #[test]
    fn work_counts_do_not_depend_on_the_thread_count() {
        for &family in WorkloadFamily::all() {
            let graph = Workload::new(family, 160, 7).generate();
            let weights = TieBreakWeights::generate(&graph, 7);
            let (tree, _, rp) =
                compute_full(&graph, &weights, VertexId(0), &ParallelConfig::serial());
            let threads = ParallelConfig::with_threads(4).with_chunk_size(1);
            let (_, _, parallel) = compute_full(&graph, &weights, VertexId(0), &threads);
            let work = rp.work();
            let what = family.name();
            assert_eq!(work, parallel.work(), "{what}");

            // One covered run per tree edge. A terminal takes part in the
            // levels 0 ..= the deepest divergence point of its uncovered
            // pairs. Level j walks once per tree edge (π[j], π[j + 1]) above
            // a terminal that takes part, and removes each proper ancestor
            // of such a terminal deeper than j once.
            let tree_edges = graph.vertices().filter(|&v| tree.parent(v).is_some());
            assert_eq!(work.covered_runs, tree_edges.count() as u64, "{what}");
            let mut deepest = vec![None; graph.num_vertices()];
            for &p in rp.uncovered() {
                let r = rp.get(p);
                let d = tree
                    .depth(r.divergence.expect("new-ending"))
                    .expect("reachable");
                let at = &mut deepest[r.pair.terminal.index()];
                *at = Some(d.max(at.unwrap_or(0)));
            }
            let levels = deepest.iter().flatten().max().map_or(0, |&d| d + 1);
            assert_eq!(work.levels, u64::from(levels), "{what}");
            let (mut walks, mut removals) = (0, 0);
            for level in 0..levels {
                let mut roots = vec![false; graph.num_vertices()];
                let mut removed = vec![false; graph.num_vertices()];
                for v in graph.vertices() {
                    if deepest[v.index()].is_none_or(|d| d < level) {
                        continue;
                    }
                    for (x, _) in tree.ancestors(v) {
                        match tree.depth(x).expect("reachable") {
                            d if d == level + 1 => roots[x.index()] = true,
                            d if d > level + 1 => {}
                            _ => break,
                        }
                        removed[x.index()] |= x != v;
                    }
                }
                walks += roots.iter().filter(|&&r| r).count() as u64;
                removals += removed.iter().filter(|&&r| r).count() as u64;
            }
            assert_eq!(work.walks, walks, "{what}");
            assert_eq!(work.walk_removals, removals, "{what}");
        }
    }

    /// Every pair of both end-to-end benchmark graphs (n = 2000, seed 7)
    /// and of grid-chords n = 2000, whose uncovered pairs diverge at many
    /// depths: the rebuilt path is a valid replacement path of the right
    /// length that ends with the record's last edge and, if new-ending,
    /// with the stored detour; every terminal with an uncovered pair, the
    /// ones pass 2 decides, matches the `LexSearch` oracle.
    /// Release only: `cargo test --release -p ftb_rp -- --ignored`.
    #[test]
    #[ignore = "benchmark-size check; run in release with --ignored"]
    fn paths_are_exact_at_benchmark_size() {
        for family in [
            WorkloadFamily::LayeredDeep,
            WorkloadFamily::ErdosRenyi,
            WorkloadFamily::GridChords,
        ] {
            let graph = Workload::new(family, 2000, 7).generate();
            let weights = TieBreakWeights::generate(&graph, 7);
            let (tree, dists, rp) =
                compute_full(&graph, &weights, VertexId(0), &ParallelConfig::default());
            let what = family.name();
            for p in 0..rp.len() {
                let full = rp.path(&graph, &tree, p);
                let (v, e) = (full.pair.terminal, full.pair.failing_edge);
                full.path.validate(&graph).unwrap();
                assert!(!full.path.contains_edge(e), "{what}: pair {p} uses {e:?}");
                assert_eq!(
                    Some(full.path.len() as u32),
                    dists.dist(e, v),
                    "{what}: pair {p}"
                );
                assert_eq!(
                    full.path.last_edge(),
                    Some(full.last_edge),
                    "{what}: pair {p}"
                );
                if let Some(i) = full.divergence_index {
                    assert_eq!(
                        &full.path.vertices()[i..],
                        rp.detour_vertices(p),
                        "{what}: pair {p}"
                    );
                }
            }
            let mut terminals: Vec<VertexId> = rp
                .uncovered()
                .iter()
                .map(|&p| rp.get(p).pair.terminal)
                .collect();
            terminals.dedup();
            for v in terminals {
                let oracle = lex_pcons_for_terminal(&graph, &weights, &tree, &dists, v);
                let fast: Vec<ReplacementPath> = rp
                    .pairs_of_terminal(v)
                    .map(|p| rp.path(&graph, &tree, p))
                    .collect();
                assert_eq!(
                    format!("{fast:?}"),
                    format!("{oracle:?}"),
                    "{what}: terminal {v:?}"
                );
            }
            let (bytes, bound) = (rp.heap_bytes(), heap_bound(&rp, &tree));
            assert!(bytes <= bound, "{what}: {bytes} heap bytes over {bound}");
        }
    }
}

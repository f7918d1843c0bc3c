//! Interference between detours of different terminals (Phase S1 analysis).
//!
//! Two new-ending replacement paths `P = P_{v,e}` and `P' = P_{t,e'}` with
//! `v ≠ t` *interfere* (Eq. 1) when their detours share a vertex internal to
//! both. Interference is split by the relation between the protected edges:
//!
//! * `(≁)`-interference — `e ≁ e'` (the failing edges do not lie on a common
//!   root path); handled by Phase S1,
//! * `(∼)`-interference — `e ∼ e'`; handled by Phase S2.
//!
//! Within a working set `P_ℓ` the paths are typed (Eq. 2–3):
//!
//! * type **A** — the path π-intersects some `(≁)`-interfering path of the
//!   set (its detour touches the other terminal's tree path below the LCA),
//! * type **B** — not A, and it `(≁)`-interferes with another non-A path of
//!   the set,
//! * type **C** — everything else; the C pairs form a `(∼)`-set and are
//!   deferred to Phase S2.
//!
//! # The index
//!
//! [`InterferenceIndex`] stores, for every vertex `z`, the uncovered pairs
//! whose detour interior holds `z`, as one CSR (`offsets`/`ids`) filled in
//! [`ReplacementPaths::uncovered`] order. Two pairs interfere exactly when
//! they appear in a common list, so the `(≁)`-partners of `p` are the pairs
//! of `p`'s interior lists with another terminal and a failing edge not
//! `∼`-related to `p`'s. Both tests read per-pair arrays: the terminal, and
//! the Euler preorder interval of the failing edge's child endpoint (`e ∼ e'`
//! iff one interval contains the other's start).
//!
//! No query needs the whole partner set, only whether one with some
//! property exists, so every scan stops at its **first witness**: a pair is
//! in `I1` at its first partner, type A at its first π-intersected partner
//! in the subset, and type B at its first non-A partner in the subset. A
//! per-scan generation-stamped `seen` mark visits each partner once.
//!
//! π-intersection needs no LCA. Let `v = term(p)`, `t = term(q)` and
//! `ℓ = LCA(v, t)`. A tree vertex `z` lies on `π(ℓ, t) ∖ {ℓ}` iff `z` is an
//! ancestor of `t` and not an ancestor of `v`. So `p` π-intersects `q` iff
//! the preorder number of `t` falls into the subtree interval of some detour
//! vertex of `p` that is not an ancestor of `v`. Those intervals are laminar;
//! the index keeps the maximal ones per pair, sorted and disjoint, and
//! answers each test with one `partition_point`, memoised per terminal
//! within one pair's scan.
//!
//! [`InterferenceIndex::classify`] shards the subset over worker threads;
//! the index is read-only and each worker owns its scan marks.

use crate::pair::PairId;
use crate::pcons::ReplacementPaths;
use ftb_graph::VertexId;
use ftb_par::{parallel_map_init, ParallelConfig};
use ftb_sp::{ShortestPathTree, TimestampedVector};
use ftb_tree::TreeIndex;

/// Index over the detours of the uncovered pairs, answering the `I1`/`I2`
/// split and the A/B/C classification (see the module docs).
pub struct InterferenceIndex<'a> {
    rp: &'a ReplacementPaths,
    /// CSR row starts: the pairs whose detour interior holds vertex `z` are
    /// `ids[offsets[z] .. offsets[z + 1]]`.
    offsets: Vec<u32>,
    ids: Vec<u32>,
    /// Terminal vertex of every pair.
    terminal: Vec<u32>,
    /// Preorder number of every pair's terminal.
    terminal_pre: Vec<u32>,
    /// Preorder subtree interval of every pair's failing-edge child endpoint.
    edge_span: Vec<(u32, u32)>,
    /// CSR row starts of the π-intersection intervals per pair.
    pi_offsets: Vec<u32>,
    /// Sorted, disjoint preorder intervals of the detour vertices that are
    /// not ancestors of the pair's terminal.
    pi_spans: Vec<(u32, u32)>,
}

/// Per-worker marks of one partner scan.
struct Scan {
    /// Pairs already visited in the current scan.
    seen: TimestampedVector<bool>,
    /// π-intersection answers per terminal vertex for the current scan.
    pi_memo: TimestampedVector<bool>,
}

/// Outcome of a type-A scan.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ScanA {
    /// No `(≁)`-partner in the subset: type C.
    NoPartner,
    /// Partners, none π-intersected: type B or C.
    Partner,
    /// Type A.
    A,
}

impl<'a> InterferenceIndex<'a> {
    /// Build the index over all uncovered (new-ending) pairs. The preorder
    /// intervals are `tree`'s own [`ShortestPathTree::euler`]; the
    /// [`TreeIndex`] handle holds no data.
    pub fn build(rp: &'a ReplacementPaths, tree: &ShortestPathTree, _index: &TreeIndex) -> Self {
        let n = tree.num_vertices();
        let euler = tree.euler();
        let span = |v: VertexId| {
            let r = euler.subtree(v);
            (r.start as u32, r.end as u32)
        };

        let mut offsets = vec![0u32; n + 1];
        for &p in rp.uncovered() {
            for z in rp.get(p).detour_interior() {
                offsets[z.index() + 1] += 1;
            }
        }
        for z in 0..n {
            offsets[z + 1] += offsets[z];
        }
        let mut cursor = offsets.clone();
        let mut ids = vec![0u32; offsets[n] as usize];
        for &p in rp.uncovered() {
            for z in rp.get(p).detour_interior() {
                ids[cursor[z.index()] as usize] = p as u32;
                cursor[z.index()] += 1;
            }
        }

        let pairs = rp.all();
        let terminal = pairs.iter().map(|r| r.pair.terminal.0).collect();
        let terminal_pre = pairs
            .iter()
            .map(|r| euler.preorder(r.pair.terminal).unwrap_or(u32::MAX))
            .collect();
        let edge_span = pairs
            .iter()
            .map(|r| {
                tree.child_endpoint(r.pair.failing_edge)
                    .map_or((0, 0), span)
            })
            .collect();
        let mut pi_offsets = Vec::with_capacity(pairs.len() + 1);
        let mut pi_spans: Vec<(u32, u32)> = Vec::new();
        let mut spans = Vec::new();
        pi_offsets.push(0u32);
        for r in pairs {
            let v = r.pair.terminal;
            spans.clear();
            spans.extend(
                r.detour_vertices()
                    .iter()
                    .filter(|&&z| euler.in_tree(z) && !euler.is_ancestor(z, v))
                    .map(|&z| span(z)),
            );
            // Laminar intervals: after sorting by (start, widest first), an
            // interval starting inside the last kept one is nested in it.
            spans.sort_unstable_by_key(|&(lo, hi)| (lo, std::cmp::Reverse(hi)));
            let row_start = pi_spans.len();
            for &(lo, hi) in &spans {
                if pi_spans.len() == row_start || lo >= pi_spans[pi_spans.len() - 1].1 {
                    pi_spans.push((lo, hi));
                }
            }
            pi_offsets.push(pi_spans.len() as u32);
        }

        InterferenceIndex {
            rp,
            offsets,
            ids,
            terminal,
            terminal_pre,
            edge_span,
            pi_offsets,
            pi_spans,
        }
    }

    fn scan(&self) -> Scan {
        Scan {
            seen: TimestampedVector::new(self.terminal.len(), false),
            pi_memo: TimestampedVector::new(self.offsets.len() - 1, false),
        }
    }

    /// Membership marks of `subset`, indexed by pair id.
    fn members(&self, subset: &[PairId]) -> Vec<bool> {
        let mut marks = vec![false; self.terminal.len()];
        for &p in subset {
            marks[p] = true;
        }
        marks
    }

    /// The paper's `∼` relation on the failing edges of two pairs.
    fn edges_related(&self, p: PairId, q: PairId) -> bool {
        let (a, b) = (self.edge_span[p], self.edge_span[q]);
        (a.0 <= b.0 && b.0 < a.1) || (b.0 <= a.0 && a.0 < b.1)
    }

    /// π-intersection (Fig. 2) of `p` with the tree path of `q`'s terminal.
    fn pi_intersects(&self, p: PairId, q: PairId) -> bool {
        let t = self.terminal_pre[q];
        let row = &self.pi_spans[self.pi_offsets[p] as usize..self.pi_offsets[p + 1] as usize];
        let i = row.partition_point(|&(lo, _)| lo <= t);
        i > 0 && t < row[i - 1].1
    }

    /// Visit the distinct `(≁)`-interference partners of `p` until `accept`
    /// returns `true` for one of them; returns whether it did.
    fn find_partner(
        &self,
        seen: &mut TimestampedVector<bool>,
        p: PairId,
        mut accept: impl FnMut(PairId) -> bool,
    ) -> bool {
        seen.reset();
        let terminal = self.terminal[p];
        for z in self.rp.get(p).detour_interior() {
            let row =
                &self.ids[self.offsets[z.index()] as usize..self.offsets[z.index() + 1] as usize];
            for &q in row {
                let q = q as PairId;
                if seen.is_set(q) {
                    continue;
                }
                seen.set(q, true);
                if q == p || self.terminal[q] == terminal || self.edges_related(p, q) {
                    continue;
                }
                if accept(q) {
                    return true;
                }
            }
        }
        false
    }

    /// Split the uncovered pairs into `I1` (pairs with at least one
    /// `(≁)`-interfering partner among all uncovered pairs) and `I2` (the
    /// rest, which by construction is a `(∼)`-set).
    pub fn split_i1_i2(&self) -> (Vec<PairId>, Vec<PairId>) {
        let mut scan = self.scan();
        self.rp
            .uncovered()
            .iter()
            .partition(|&&p| self.find_partner(&mut scan.seen, p, |_| true))
    }

    /// Classify each pair of `subset` into type A, B or C with respect to the
    /// subset (Eq. 2–3). Returns `(type_a, type_b, type_c)` preserving the
    /// subset order inside each class. The subset is sharded over
    /// `parallel`; the result does not depend on it.
    pub fn classify(
        &self,
        subset: &[PairId],
        parallel: &ParallelConfig,
    ) -> (Vec<PairId>, Vec<PairId>, Vec<PairId>) {
        let in_subset = self.members(subset);

        // Type A (Eq. 2), recording on the way whether any partner exists.
        let scan_a = parallel_map_init(
            parallel,
            subset.len(),
            || self.scan(),
            |scan, i| {
                let p = subset[i];
                let Scan { seen, pi_memo } = scan;
                pi_memo.reset();
                let mut partner = false;
                let a = self.find_partner(seen, p, |q| {
                    if !in_subset[q] {
                        return false;
                    }
                    partner = true;
                    let t = self.terminal[q] as usize;
                    if !pi_memo.is_set(t) {
                        pi_memo.set(t, self.pi_intersects(p, q));
                    }
                    pi_memo.get(t)
                });
                match (a, partner) {
                    (true, _) => ScanA::A,
                    (false, true) => ScanA::Partner,
                    (false, false) => ScanA::NoPartner,
                }
            },
        );
        let mut non_a = in_subset;
        for (&p, &s) in subset.iter().zip(&scan_a) {
            if s == ScanA::A {
                non_a[p] = false;
            }
        }

        // Type B (Eq. 3): not A, and (≁)-interferes with a non-A subset pair.
        let is_b = parallel_map_init(
            parallel,
            subset.len(),
            || self.scan(),
            |scan, i| {
                scan_a[i] == ScanA::Partner
                    && self.find_partner(&mut scan.seen, subset[i], |q| non_a[q])
            },
        );

        let (mut type_a, mut type_b, mut type_c) = (Vec::new(), Vec::new(), Vec::new());
        for ((&p, &s), &b) in subset.iter().zip(&scan_a).zip(&is_b) {
            match (s, b) {
                (ScanA::A, _) => type_a.push(p),
                (_, true) => type_b.push(p),
                _ => type_c.push(p),
            }
        }
        (type_a, type_b, type_c)
    }

    /// `true` if `subset` is a `(∼)`-set: no two of its pairs
    /// `(≁)`-interfere.
    pub fn is_sim_set(&self, subset: &[PairId]) -> bool {
        let in_subset = self.members(subset);
        let mut scan = self.scan();
        !subset
            .iter()
            .any(|&p| self.find_partner(&mut scan.seen, p, |q| in_subset[q]))
    }
}

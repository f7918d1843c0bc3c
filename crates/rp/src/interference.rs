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
//! whose detour interior holds `z`, as one CSR (`offsets`/`ids`) filled
//! pair by pair in `(terminal preorder, rank)` order, so every row is
//! sorted by it. Two pairs interfere exactly when they appear in a common
//! row, so the `(≁)`-partners of `p` are the pairs of `p`'s interior rows
//! with another terminal and a failing edge not `∼`-related to `p`'s. Both
//! tests read arrays by rank: the terminal's preorder number and the Euler
//! preorder interval of the failing edge's child endpoint (`e ∼ e'` iff one
//! interval contains the other's start).
//!
//! Only uncovered pairs are ever read, so every per-pair array, the scan
//! marks included, is indexed by the pair's position in
//! [`ReplacementPaths::uncovered`] (its *rank*), not by its pair id: the
//! CSR holds ranks, and the public methods translate pair ids at their
//! boundary.
//!
//! No query needs the whole partner set, only whether one with some
//! property exists, so every scan stops at its **first witness**: a pair is
//! in `I1` at its first partner, type A at its first π-intersected partner
//! in the subset, and type B at its first non-A partner in the subset. Which
//! witness a scan meets first depends on the row order; whether one exists
//! does not. A generation-stamped `seen` mark visits each partner once.
//!
//! # Type A as a range scan
//!
//! π-intersection needs no LCA. Let `v = term(p)`, `t = term(q)` and
//! `ℓ = LCA(v, t)`. A tree vertex `z` lies on `π(ℓ, t) ∖ {ℓ}` iff `z` is an
//! ancestor of `t` and not an ancestor of `v`. So `p` π-intersects `q` iff
//! the preorder number of `t` falls into the subtree interval of some detour
//! vertex of `p` that is not an ancestor of `v`. Those intervals are
//! laminar; the index keeps the maximal ones per pair (`pi_spans`), sorted
//! and disjoint. Since the rows are sorted by terminal preorder, the
//! candidates for type A in row `z` and span `[lo, hi)` are one contiguous
//! run, found with one `partition_point`: the A-scan of `p` walks only the
//! partners it could accept. The "has any partner" bit that type B needs,
//! the `I1` split and the B-scan stay first-witness scans over whole rows.
//! [`InterferenceIndex::classify`] runs on the calling thread.

use crate::pair::PairId;
use crate::pcons::ReplacementPaths;
use ftb_graph::VertexId;
use ftb_sp::{ShortestPathTree, TimestampedVector};
use ftb_tree::TreeIndex;

/// Index over the detours of the uncovered pairs, answering the `I1`/`I2`
/// split and the A/B/C classification (see the module docs). A *rank* is a
/// pair's position in [`ReplacementPaths::uncovered`].
pub struct InterferenceIndex<'a> {
    rp: &'a ReplacementPaths,
    /// CSR row starts: the ranks of the pairs whose detour interior holds
    /// vertex `z` are `ids[offsets[z] .. offsets[z + 1]]`, sorted by
    /// `(terminal preorder, rank)`.
    offsets: Vec<u32>,
    ids: Vec<u32>,
    /// Preorder number of every uncovered pair's terminal, by rank.
    terminal_pre: Vec<u32>,
    /// Preorder subtree interval of every uncovered pair's failing-edge
    /// child endpoint, by rank.
    edge_span: Vec<(u32, u32)>,
    /// CSR row starts of the π-intersection intervals, by rank.
    pi_offsets: Vec<u32>,
    /// Sorted, disjoint preorder intervals of the detour vertices that are
    /// not ancestors of the pair's terminal.
    pi_spans: Vec<(u32, u32)>,
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
        let uncovered = rp.uncovered();

        let mut offsets = vec![0u32; n + 1];
        for i in 0..uncovered.len() {
            for z in rp.detour_interior_at(i) {
                offsets[z.index() + 1] += 1;
            }
        }
        for z in 0..n {
            offsets[z + 1] += offsets[z];
        }
        let records = || uncovered.iter().map(|&p| rp.get(p));
        let terminal_pre: Vec<u32> = records()
            .map(|r| euler.preorder(r.pair.terminal).unwrap_or(u32::MAX))
            .collect();
        // Filling the rows in (terminal preorder, rank) order sorts them.
        let mut order: Vec<usize> = (0..uncovered.len()).collect();
        order.sort_by_key(|&i| terminal_pre[i]);
        let mut cursor = offsets.clone();
        let mut ids = vec![0u32; offsets[n] as usize];
        for i in order {
            for z in rp.detour_interior_at(i) {
                ids[cursor[z.index()] as usize] = i as u32;
                cursor[z.index()] += 1;
            }
        }
        let edge_span = records()
            .map(|r| {
                tree.child_endpoint(r.pair.failing_edge)
                    .map_or((0, 0), span)
            })
            .collect();
        let mut pi_offsets = Vec::with_capacity(uncovered.len() + 1);
        let mut pi_spans: Vec<(u32, u32)> = Vec::new();
        let mut spans = Vec::new();
        pi_offsets.push(0u32);
        for (i, r) in records().enumerate() {
            let v = r.pair.terminal;
            spans.clear();
            spans.extend(
                rp.detour_at(i)
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
            terminal_pre,
            edge_span,
            pi_offsets,
            pi_spans,
        }
    }

    fn seen(&self) -> TimestampedVector<bool> {
        TimestampedVector::new(self.edge_span.len(), false)
    }

    /// The ranks in row `z`, by `(terminal preorder, rank)`.
    fn row(&self, z: VertexId) -> &[u32] {
        &self.ids[self.offsets[z.index()] as usize..self.offsets[z.index() + 1] as usize]
    }

    /// The rank of uncovered pair `p`.
    fn rank(&self, p: PairId) -> usize {
        self.rp
            .uncovered()
            .binary_search(&p)
            .expect("an uncovered pair")
    }

    /// The ranks of `subset`, in its order.
    fn ranks(&self, subset: &[PairId]) -> Vec<usize> {
        subset.iter().map(|&p| self.rank(p)).collect()
    }

    /// Membership marks of `ranks`, indexed by rank.
    fn members(&self, ranks: &[usize]) -> Vec<bool> {
        let mut marks = vec![false; self.edge_span.len()];
        for &i in ranks {
            marks[i] = true;
        }
        marks
    }

    /// The paper's `∼` relation on the failing edges of two pairs.
    fn edges_related(&self, p: usize, q: usize) -> bool {
        let (a, b) = (self.edge_span[p], self.edge_span[q]);
        (a.0 <= b.0 && b.0 < a.1) || (b.0 <= a.0 && a.0 < b.1)
    }

    /// Type A (Eq. 2): some `(≁)`-partner of the pair of rank `p` in the
    /// subset has its terminal in one of `p`'s π-spans. For each interior
    /// vertex `z` and span `[lo, hi)`, the candidates are the run of row `z`
    /// whose terminal preorder lies in the span.
    fn is_type_a(&self, p: usize, in_subset: &[bool]) -> bool {
        let spans = &self.pi_spans[self.pi_offsets[p] as usize..self.pi_offsets[p + 1] as usize];
        let own = self.terminal_pre[p];
        self.rp.detour_interior_at(p).iter().any(|&z| {
            let row = self.row(z);
            spans.iter().any(|&(lo, hi)| {
                let start = row.partition_point(|&q| self.terminal_pre[q as usize] < lo);
                row[start..]
                    .iter()
                    .map(|&q| q as usize)
                    .take_while(|&q| self.terminal_pre[q] < hi)
                    .any(|q| {
                        in_subset[q] && self.terminal_pre[q] != own && !self.edges_related(p, q)
                    })
            })
        })
    }

    /// Visit the distinct `(≁)`-interference partners of the pair of rank
    /// `p` until `accept` returns `true` for one of them; returns whether it
    /// did.
    fn find_partner(
        &self,
        seen: &mut TimestampedVector<bool>,
        p: usize,
        mut accept: impl FnMut(usize) -> bool,
    ) -> bool {
        seen.reset();
        let terminal = self.terminal_pre[p];
        for &z in self.rp.detour_interior_at(p) {
            for &q in self.row(z) {
                let q = q as usize;
                if seen.is_set(q) {
                    continue;
                }
                seen.set(q, true);
                if self.terminal_pre[q] == terminal || self.edges_related(p, q) {
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
        let mut seen = self.seen();
        let (mut i1, mut i2) = (Vec::new(), Vec::new());
        for (i, &p) in self.rp.uncovered().iter().enumerate() {
            if self.find_partner(&mut seen, i, |_| true) {
                i1.push(p);
            } else {
                i2.push(p);
            }
        }
        (i1, i2)
    }

    /// Classify each pair of `subset` into type A, B or C with respect to the
    /// subset (Eq. 2–3). Returns `(type_a, type_b, type_c)` preserving the
    /// subset order inside each class.
    pub fn classify(&self, subset: &[PairId]) -> (Vec<PairId>, Vec<PairId>, Vec<PairId>) {
        let ranks = self.ranks(subset);
        let in_subset = self.members(&ranks);
        let mut seen = self.seen();

        // Type A (Eq. 2); for the other pairs, whether any partner exists.
        let scan_a: Vec<ScanA> = ranks
            .iter()
            .map(|&p| {
                if self.is_type_a(p, &in_subset) {
                    ScanA::A
                } else if self.find_partner(&mut seen, p, |q| in_subset[q]) {
                    ScanA::Partner
                } else {
                    ScanA::NoPartner
                }
            })
            .collect();
        let mut non_a = in_subset;
        for (&p, &s) in ranks.iter().zip(&scan_a) {
            if s == ScanA::A {
                non_a[p] = false;
            }
        }

        // Type B (Eq. 3): not A, and (≁)-interferes with a non-A subset pair.
        let (mut type_a, mut type_b, mut type_c) = (Vec::new(), Vec::new(), Vec::new());
        for ((&p, &i), &s) in subset.iter().zip(&ranks).zip(&scan_a) {
            match s {
                ScanA::A => type_a.push(p),
                ScanA::Partner if self.find_partner(&mut seen, i, |q| non_a[q]) => type_b.push(p),
                _ => type_c.push(p),
            }
        }
        (type_a, type_b, type_c)
    }

    /// `true` if `subset` is a `(∼)`-set: no two of its pairs
    /// `(≁)`-interfere.
    pub fn is_sim_set(&self, subset: &[PairId]) -> bool {
        let ranks = self.ranks(subset);
        let in_subset = self.members(&ranks);
        let mut seen = self.seen();
        !ranks
            .iter()
            .any(|&p| self.find_partner(&mut seen, p, |q| in_subset[q]))
    }
}

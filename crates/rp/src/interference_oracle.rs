//! The definitional interference analysis, kept as a test oracle.
//!
//! [`OracleIndex`] is the literal reading of the paper's §3: a hash map from
//! detour vertex to pairs, the full `I≁(p)` set of every pair, and an LCA
//! walk for every π-intersection test. The differential tests below require
//! the production [`InterferenceIndex`](crate::InterferenceIndex) to reproduce its `I1`/`I2` split,
//! its A/B/C classes and its `(∼)`-set verdicts exactly.
//!
//! Its ancestry comes from [`LiftingIndex`], a binary-lifting table over the
//! parent pointers of `T0`, so no answer depends on the preorder intervals
//! the production index reads.

use crate::pair::PairId;
use crate::pcons::ReplacementPaths;
use ftb_graph::{EdgeId, VertexId};
use ftb_sp::ShortestPathTree;
use std::collections::{HashMap, HashSet};

/// Ancestor tests, level ancestors and least common ancestors on a
/// [`ShortestPathTree`] by binary lifting. Vertices that are unreachable
/// from the source are not part of the tree; queries involving them return
/// `None`/`false`.
pub(crate) struct LiftingIndex {
    source: VertexId,
    /// Depth per vertex (0 for out-of-tree vertices).
    depth: Vec<u32>,
    /// `up[k][v]` = the `2^k`-th ancestor of `v` (or `v` itself if the walk
    /// leaves the tree).
    up: Vec<Vec<u32>>,
    reachable: Vec<bool>,
}

impl LiftingIndex {
    pub(crate) fn build(tree: &ShortestPathTree) -> Self {
        let n = tree.num_vertices();
        let vertices = (0..n).map(VertexId::new);
        let depth: Vec<u32> = vertices
            .clone()
            .map(|v| tree.depth(v).unwrap_or(0))
            .collect();
        let reachable = vertices.clone().map(|v| tree.is_reachable(v)).collect();
        let max_depth = depth.iter().copied().max().unwrap_or(0);
        let levels = (usize::BITS - (max_depth as usize).leading_zeros()).max(1) as usize;
        let mut up = vec![vertices
            .map(|v| tree.parent(v).map_or(v.0, |(p, _)| p.0))
            .collect()];
        for k in 1..levels {
            let prev: &Vec<u32> = &up[k - 1];
            let next = prev.iter().map(|&mid| prev[mid as usize]).collect();
            up.push(next);
        }
        LiftingIndex {
            source: tree.source(),
            depth,
            up,
            reachable,
        }
    }

    pub(crate) fn source(&self) -> VertexId {
        self.source
    }

    pub(crate) fn in_tree(&self, v: VertexId) -> bool {
        self.reachable[v.index()]
    }

    /// Depth of `v` (0 for the root); meaningless for out-of-tree vertices.
    pub(crate) fn depth(&self, v: VertexId) -> u32 {
        self.depth[v.index()]
    }

    /// `true` if `a` is an ancestor of `b` (every vertex is an ancestor of
    /// itself). `false` if either vertex is outside the tree.
    pub(crate) fn is_ancestor(&self, a: VertexId, b: VertexId) -> bool {
        self.in_tree(a)
            && self.in_tree(b)
            && self.depth(a) <= self.depth(b)
            && self.ancestor_at(b, self.depth(b) - self.depth(a)) == a
    }

    /// The ancestor of `v` that is `steps` levels closer to the root
    /// (saturating at the root).
    pub(crate) fn ancestor_at(&self, v: VertexId, steps: u32) -> VertexId {
        let mut cur = v.0;
        // Walking more than depth(v) steps saturates at the root; clamping
        // also guarantees every set bit fits inside the lifting table.
        let mut remaining = steps.min(self.depth[v.index()]);
        let mut k = 0usize;
        while remaining > 0 && k < self.up.len() {
            if remaining & 1 == 1 {
                cur = self.up[k][cur as usize];
            }
            remaining >>= 1;
            k += 1;
        }
        VertexId(cur)
    }

    /// Least common ancestor of `u` and `v`, if both are in the tree.
    pub(crate) fn lca(&self, u: VertexId, v: VertexId) -> Option<VertexId> {
        if !self.in_tree(u) || !self.in_tree(v) {
            return None;
        }
        let (du, dv) = (self.depth(u), self.depth(v));
        let mut a = self.ancestor_at(u, du.saturating_sub(dv));
        let mut b = self.ancestor_at(v, dv.saturating_sub(du));
        if a == b {
            return Some(a);
        }
        for k in (0..self.up.len()).rev() {
            let (ua, ub) = (self.up[k][a.index()], self.up[k][b.index()]);
            if ua != ub {
                a = VertexId(ua);
                b = VertexId(ub);
            }
        }
        Some(VertexId(self.up[0][a.index()]))
    }

    /// The paper's `∼` relation on tree edges: `e ∼ e'` iff one of their
    /// child endpoints is an ancestor of the other, i.e. both edges lie on a
    /// common root-to-vertex shortest path.
    pub(crate) fn edges_related(
        &self,
        tree: &ShortestPathTree,
        e: EdgeId,
        e_prime: EdgeId,
    ) -> bool {
        let (Some(b), Some(d)) = (tree.child_endpoint(e), tree.child_endpoint(e_prime)) else {
            return false;
        };
        self.is_ancestor(b, d) || self.is_ancestor(d, b)
    }

    /// Hop distance between `u` and `v` inside the tree (through their LCA).
    pub(crate) fn tree_distance(&self, u: VertexId, v: VertexId) -> Option<u32> {
        let l = self.lca(u, v)?;
        Some(self.depth(u) + self.depth(v) - 2 * self.depth(l))
    }
}

/// The hash-map interference index of the paper's definitions.
pub(crate) struct OracleIndex<'a> {
    rp: &'a ReplacementPaths,
    tree: &'a ShortestPathTree,
    index: &'a LiftingIndex,
    /// internal detour vertex -> uncovered pairs whose detour interior
    /// contains it.
    interior_map: HashMap<VertexId, Vec<PairId>>,
}

impl<'a> OracleIndex<'a> {
    pub(crate) fn build(
        rp: &'a ReplacementPaths,
        tree: &'a ShortestPathTree,
        index: &'a LiftingIndex,
    ) -> Self {
        let mut interior_map: HashMap<VertexId, Vec<PairId>> = HashMap::new();
        for &id in rp.uncovered() {
            for &z in rp.get(id).detour_interior() {
                interior_map.entry(z).or_default().push(id);
            }
        }
        OracleIndex {
            rp,
            tree,
            index,
            interior_map,
        }
    }

    /// The paper's `∼` relation on failing (tree) edges.
    fn edges_related(&self, e: EdgeId, e_prime: EdgeId) -> bool {
        self.index.edges_related(self.tree, e, e_prime)
    }

    /// Eq. (1): do the detours of `p` and `q` share a vertex internal to
    /// both (and are the terminals distinct)?
    pub(crate) fn interferes(&self, p: PairId, q: PairId) -> bool {
        let a = self.rp.get(p);
        let b = self.rp.get(q);
        if a.pair.terminal == b.pair.terminal {
            return false;
        }
        let long_set: HashSet<VertexId> = b.detour_interior().iter().copied().collect();
        a.detour_interior().iter().any(|z| long_set.contains(z))
    }

    /// `(≁)`-interference: [`Self::interferes`] and the failing edges are not
    /// `∼`-related.
    pub(crate) fn non_sim_interferes(&self, p: PairId, q: PairId) -> bool {
        let a = self.rp.get(p);
        let b = self.rp.get(q);
        !self.edges_related(a.pair.failing_edge, b.pair.failing_edge) && self.interferes(p, q)
    }

    /// All uncovered pairs that `(≁)`-interfere with `p` (the paper's
    /// `I_{≁}(⟨v, e⟩)`), optionally restricted to a membership predicate.
    pub(crate) fn non_sim_interference_set(
        &self,
        p: PairId,
        restrict: Option<&dyn Fn(PairId) -> bool>,
    ) -> Vec<PairId> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let a = self.rp.get(p);
        for z in a.detour_interior() {
            let Some(candidates) = self.interior_map.get(z) else {
                continue;
            };
            for &q in candidates {
                if q == p || seen.contains(&q) || restrict.is_some_and(|f| !f(q)) {
                    continue;
                }
                let b = self.rp.get(q);
                if b.pair.terminal == a.pair.terminal
                    || self.edges_related(a.pair.failing_edge, b.pair.failing_edge)
                {
                    continue;
                }
                // sharing `z`, which is internal to both, certifies Eq. (1)
                seen.insert(q);
                out.push(q);
            }
        }
        out
    }

    /// π-intersection (Fig. 2): the detour of `p` touches a vertex of
    /// `π(LCA(v,t), t) ∖ {LCA(v,t)}`, where `v` is `p`'s terminal and `t` is
    /// `q`'s terminal. Not symmetric.
    pub(crate) fn pi_intersects(&self, p: PairId, q: PairId) -> bool {
        let a = self.rp.get(p);
        let v = a.pair.terminal;
        let t = self.rp.get(q).pair.terminal;
        let Some(l) = self.index.lca(v, t) else {
            return false;
        };
        let l_depth = self.index.depth(l);
        a.detour_vertices().iter().any(|&z| {
            self.index.in_tree(z) && self.index.depth(z) > l_depth && self.index.is_ancestor(z, t)
        })
    }

    /// `I1` (pairs with a non-empty `I≁`) and `I2` (the rest).
    pub(crate) fn split_i1_i2(&self) -> (Vec<PairId>, Vec<PairId>) {
        self.rp
            .uncovered()
            .iter()
            .partition(|&&p| !self.non_sim_interference_set(p, None).is_empty())
    }

    /// Eq. (2)–(3) over `I≁(p) ∩ subset`, computed in full for every pair.
    pub(crate) fn classify(&self, subset: &[PairId]) -> (Vec<PairId>, Vec<PairId>, Vec<PairId>) {
        let member: HashSet<PairId> = subset.iter().copied().collect();
        let in_subset = |q: PairId| member.contains(&q);
        let neighbors: HashMap<PairId, Vec<PairId>> = subset
            .iter()
            .map(|&p| (p, self.non_sim_interference_set(p, Some(&in_subset))))
            .collect();
        let is_a: HashSet<PairId> = subset
            .iter()
            .copied()
            .filter(|p| neighbors[p].iter().any(|&q| self.pi_intersects(*p, q)))
            .collect();
        let is_b: HashSet<PairId> = subset
            .iter()
            .copied()
            .filter(|p| !is_a.contains(p) && neighbors[p].iter().any(|q| !is_a.contains(q)))
            .collect();
        let pick = |set: &dyn Fn(&PairId) -> bool| subset.iter().copied().filter(set).collect();
        (
            pick(&|p| is_a.contains(p)),
            pick(&|p| is_b.contains(p)),
            pick(&|p| !is_a.contains(p) && !is_b.contains(p)),
        )
    }

    /// No two pairs of `subset` `(≁)`-interfere.
    pub(crate) fn is_sim_set(&self, subset: &[PairId]) -> bool {
        let member: HashSet<PairId> = subset.iter().copied().collect();
        let in_subset = |q: PairId| member.contains(&q);
        subset.iter().all(|&p| {
            self.non_sim_interference_set(p, Some(&in_subset))
                .is_empty()
        })
    }
}

mod tests {
    use super::*;
    use crate::interference::InterferenceIndex;
    use ftb_graph::{generators, Graph};
    use ftb_lower_bounds::{
        esa13_lower_bound, multi_source_lower_bound, single_source_lower_bound,
    };
    use ftb_par::ParallelConfig;
    use ftb_sp::{ReplacementDistances, TieBreakWeights};
    use ftb_tree::TreeIndex;
    use ftb_workloads::{families, Workload, WorkloadFamily};
    use proptest::prelude::*;

    struct Fixture {
        tree: ShortestPathTree,
        rp: ReplacementPaths,
        index: LiftingIndex,
    }

    fn fixture(graph: &Graph, seed: u64, source: VertexId) -> Fixture {
        let weights = TieBreakWeights::generate(graph, seed);
        let tree = ShortestPathTree::build(graph, &weights, source);
        let dists = ReplacementDistances::compute(graph, &tree, &ParallelConfig::serial());
        let rp =
            ReplacementPaths::compute(graph, &weights, &tree, &dists, &ParallelConfig::serial());
        let index = LiftingIndex::build(&tree);
        Fixture { tree, rp, index }
    }

    /// Three seeded subsets of the uncovered pairs: about half, a tenth,
    /// and about half in reverse order.
    fn random_subsets(uncovered: &[PairId], seed: u64) -> Vec<Vec<PairId>> {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut half: Vec<PairId> = uncovered
            .iter()
            .copied()
            .filter(|_| next() % 2 == 0)
            .collect();
        let tenth = uncovered
            .iter()
            .copied()
            .filter(|_| next() % 10 == 0)
            .collect();
        let reversed = half.iter().rev().copied().collect();
        let third = half.len() / 3;
        half.rotate_left(third);
        vec![half, tenth, reversed]
    }

    /// Production and oracle answers side by side, for differential tests.
    fn assert_matches_oracle(
        fast: &InterferenceIndex<'_>,
        oracle: &OracleIndex<'_>,
        subsets: &[Vec<PairId>],
        what: &str,
    ) {
        let (i1, i2) = oracle.split_i1_i2();
        assert_eq!(
            fast.split_i1_i2(),
            (i1.clone(), i2.clone()),
            "split on {what}"
        );
        assert!(fast.is_sim_set(&i2), "I2 is a (∼)-set on {what}");
        let configs = [
            ParallelConfig::serial(),
            ParallelConfig::with_threads(4).with_chunk_size(2),
        ];
        for subset in std::iter::once(&i1).chain(subsets) {
            let expected = oracle.classify(subset);
            for config in &configs {
                assert_eq!(
                    fast.classify(subset, config),
                    expected,
                    "classify on {what} ({} threads)",
                    config.threads()
                );
            }
            assert_eq!(
                fast.is_sim_set(subset),
                oracle.is_sim_set(subset),
                "is_sim_set on {what}"
            );
            assert!(fast.is_sim_set(&expected.2), "C is a (∼)-set on {what}");
        }
    }

    /// Differential check on one graph; returns the uncovered pair count.
    fn check(graph: &Graph, seed: u64, source: VertexId, what: &str) -> usize {
        let f = fixture(graph, seed, source);
        let fast = InterferenceIndex::build(&f.rp, &f.tree, &TreeIndex);
        let oracle = OracleIndex::build(&f.rp, &f.tree, &f.index);
        let subsets = random_subsets(f.rp.uncovered(), seed);
        assert_matches_oracle(&fast, &oracle, &subsets, what);
        f.rp.uncovered().len()
    }

    #[test]
    fn identical_to_oracle_on_every_workload_family() {
        for &family in WorkloadFamily::all() {
            for n in [48usize, 160] {
                for seed in [1u64, 7] {
                    let graph = Workload::new(family, n, seed).generate();
                    let what = format!("{}(n={n}, seed={seed})", family.name());
                    check(&graph, seed, VertexId(0), &what);
                }
            }
        }
    }

    #[test]
    fn identical_to_oracle_on_lower_bound_families() {
        let mut uncovered = 0;
        for eps in [0.2, 0.3, 0.5] {
            let lb = single_source_lower_bound(300, eps);
            uncovered += check(&lb.graph, 3, lb.source, &format!("G({eps})"));
        }
        let lb = esa13_lower_bound(300);
        uncovered += check(&lb.graph, 5, lb.source, "esa13");
        let lb = multi_source_lower_bound(300, 2, 0.3);
        for (i, &s) in lb.sources.iter().enumerate() {
            uncovered += check(&lb.graph, 9, s, &format!("multi-source s{i}"));
        }
        assert!(uncovered > 0, "the families must have uncovered pairs");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn identical_to_oracle_on_random_graphs(
            n in 4usize..60,
            avg_degree in 2usize..7,
            seed in 0u64..10_000,
            source_pick in 0usize..1000,
        ) {
            let graph = families::erdos_renyi_gnm(n, n * avg_degree / 2, seed);
            check(&graph, seed, VertexId::new(source_pick % n), "a random graph");
        }
    }

    #[test]
    fn interference_is_symmetric_and_irreflexive_per_terminal() {
        let g = families::erdos_renyi_gnp(60, 0.12, 5);
        let f = fixture(&g, 5, VertexId(0));
        let idx = OracleIndex::build(&f.rp, &f.tree, &f.index);
        let uncovered = f.rp.uncovered();
        for &p in uncovered.iter().take(30) {
            for &q in uncovered.iter().take(30) {
                if f.rp.get(p).pair.terminal == f.rp.get(q).pair.terminal {
                    assert!(!idx.interferes(p, q));
                } else {
                    assert_eq!(idx.interferes(p, q), idx.interferes(q, p));
                    assert_eq!(idx.non_sim_interferes(p, q), idx.non_sim_interferes(q, p));
                }
            }
        }
    }

    #[test]
    fn non_sim_set_matches_pairwise_definition() {
        let g = families::erdos_renyi_gnp(50, 0.15, 7);
        let f = fixture(&g, 7, VertexId(0));
        let idx = OracleIndex::build(&f.rp, &f.tree, &f.index);
        for &p in f.rp.uncovered().iter().take(40) {
            let set = idx.non_sim_interference_set(p, None);
            for &q in f.rp.uncovered() {
                let expected = idx.non_sim_interferes(p, q);
                assert_eq!(set.contains(&q), expected, "pair ({p}, {q})");
            }
        }
    }

    #[test]
    fn pi_intersection_requires_touching_the_other_root_path() {
        let g = families::erdos_renyi_gnp(60, 0.12, 17);
        let f = fixture(&g, 17, VertexId(0));
        let idx = OracleIndex::build(&f.rp, &f.tree, &f.index);
        let uncovered = f.rp.uncovered();
        for &p in uncovered.iter().take(25) {
            for &q in uncovered.iter().take(25) {
                let a = f.rp.get(p);
                let b = f.rp.get(q);
                if p == q || a.pair.terminal == b.pair.terminal {
                    continue;
                }
                let v = a.pair.terminal;
                let t = b.pair.terminal;
                let l = f.index.lca(v, t).unwrap();
                // brute force: walk π(s, t) below the LCA and test membership
                let pi_t: Vec<VertexId> = f.tree.path_to(t).unwrap().vertices().to_vec();
                let expected = pi_t
                    .iter()
                    .filter(|&&z| f.index.depth(z) > f.index.depth(l))
                    .any(|z| a.detour_vertices().contains(z));
                assert_eq!(idx.pi_intersects(p, q), expected);
            }
        }
    }

    #[test]
    fn type_b_pairs_interfere_with_non_a_pairs_mutually() {
        // By Eq. 3, if p is type B its witness q is also non-A, so q is type
        // B as well (the relation restricted to non-A pairs is symmetric).
        let g = families::erdos_renyi_gnp(80, 0.09, 13);
        let f = fixture(&g, 13, VertexId(0));
        let fast = InterferenceIndex::build(&f.rp, &f.tree, &TreeIndex);
        let idx = OracleIndex::build(&f.rp, &f.tree, &f.index);
        let (i1, _) = fast.split_i1_i2();
        let (a, b, _c) = fast.classify(&i1, &ParallelConfig::serial());
        let is_a: HashSet<_> = a.iter().copied().collect();
        let is_b: HashSet<_> = b.iter().copied().collect();
        let member: HashSet<PairId> = i1.iter().copied().collect();
        let in_subset = |q: PairId| member.contains(&q);
        for &p in &b {
            let witnesses = idx.non_sim_interference_set(p, Some(&in_subset));
            assert!(witnesses.iter().any(|q| !is_a.contains(q)));
            for q in witnesses.iter().filter(|q| !is_a.contains(*q)) {
                assert!(
                    is_b.contains(q),
                    "witness {q} of type-B pair {p} must be type B"
                );
            }
        }
    }

    #[test]
    fn i1_members_have_a_witness_and_classes_partition_i1() {
        let g = families::layered_random(6, 10, 3, 0.4, 3);
        let f = fixture(&g, 3, VertexId(0));
        let fast = InterferenceIndex::build(&f.rp, &f.tree, &TreeIndex);
        let idx = OracleIndex::build(&f.rp, &f.tree, &f.index);
        let (i1, i2) = fast.split_i1_i2();
        assert_eq!(i1.len() + i2.len(), f.rp.uncovered().len());
        for &p in &i1 {
            assert!(!idx.non_sim_interference_set(p, None).is_empty());
        }
        let (a, b, c) = fast.classify(&i1, &ParallelConfig::serial());
        let mut all: Vec<PairId> = a.iter().chain(&b).chain(&c).copied().collect();
        all.sort_unstable();
        let mut sorted_i1 = i1.clone();
        sorted_i1.sort_unstable();
        assert_eq!(all, sorted_i1);
    }

    #[test]
    fn graphs_without_uncovered_pairs_classify_trivially() {
        let g = generators::path(12);
        let f = fixture(&g, 19, VertexId(0));
        let fast = InterferenceIndex::build(&f.rp, &f.tree, &TreeIndex);
        let (i1, i2) = fast.split_i1_i2();
        assert!(i1.is_empty() && i2.is_empty());
        let (a, b, c) = fast.classify(&[], &ParallelConfig::with_threads(4));
        assert!(a.is_empty() && b.is_empty() && c.is_empty());
        assert!(fast.is_sim_set(&[]));
    }

    fn lifting(g: &Graph, seed: u64) -> (ShortestPathTree, LiftingIndex) {
        let w = TieBreakWeights::generate(g, seed);
        let t = ShortestPathTree::build(g, &w, VertexId(0));
        let idx = LiftingIndex::build(&t);
        (t, idx)
    }

    #[test]
    fn ancestor_tests_on_a_path() {
        let g = generators::path(8);
        let (_t, idx) = lifting(&g, 1);
        assert!(idx.is_ancestor(VertexId(0), VertexId(7)));
        assert!(idx.is_ancestor(VertexId(3), VertexId(5)));
        assert!(!idx.is_ancestor(VertexId(5), VertexId(3)));
        assert!(idx.is_ancestor(VertexId(4), VertexId(4)));
        assert_eq!(idx.lca(VertexId(3), VertexId(6)), Some(VertexId(3)));
        assert_eq!(idx.tree_distance(VertexId(2), VertexId(6)), Some(4));
        assert_eq!(idx.source(), VertexId(0));
    }

    #[test]
    fn lca_on_a_star_is_the_centre() {
        let g = generators::star(6);
        let (_t, idx) = lifting(&g, 2);
        assert_eq!(idx.lca(VertexId(1), VertexId(2)), Some(VertexId(0)));
        assert_eq!(idx.lca(VertexId(3), VertexId(3)), Some(VertexId(3)));
        assert_eq!(idx.tree_distance(VertexId(1), VertexId(2)), Some(2));
    }

    #[test]
    fn lca_matches_naive_on_grid() {
        let g = generators::grid(5, 5);
        let (t, idx) = lifting(&g, 3);
        // naive LCA by walking up
        let naive = |mut a: VertexId, mut b: VertexId| -> VertexId {
            while idx.depth(a) > idx.depth(b) {
                a = t.parent(a).unwrap().0;
            }
            while idx.depth(b) > idx.depth(a) {
                b = t.parent(b).unwrap().0;
            }
            while a != b {
                a = t.parent(a).unwrap().0;
                b = t.parent(b).unwrap().0;
            }
            a
        };
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(idx.lca(u, v), Some(naive(u, v)), "lca({u:?},{v:?})");
                assert_eq!(
                    idx.is_ancestor(u, v),
                    t.in_subtree(u, v),
                    "{u:?} above {v:?}"
                );
            }
        }
    }

    #[test]
    fn ancestor_at_walks_towards_root() {
        let g = generators::path(10);
        let (_t, idx) = lifting(&g, 4);
        assert_eq!(idx.ancestor_at(VertexId(7), 3), VertexId(4));
        assert_eq!(idx.ancestor_at(VertexId(7), 7), VertexId(0));
        // saturates at the root
        assert_eq!(idx.ancestor_at(VertexId(7), 100), VertexId(0));
        assert_eq!(idx.ancestor_at(VertexId(5), 0), VertexId(5));
    }

    #[test]
    fn edges_related_iff_on_common_root_path() {
        let g = generators::grid(3, 3);
        let (t, idx) = lifting(&g, 5);
        for &e1 in t.tree_edges() {
            for &e2 in t.tree_edges() {
                let b = t.child_endpoint(e1).unwrap();
                let d = t.child_endpoint(e2).unwrap();
                let expected = idx.is_ancestor(b, d) || idx.is_ancestor(d, b);
                assert_eq!(idx.edges_related(&t, e1, e2), expected);
            }
        }
    }

    #[test]
    fn out_of_tree_vertices_are_rejected() {
        let mut b = ftb_graph::GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(2), VertexId(3));
        let g = b.build();
        let (_t, idx) = lifting(&g, 6);
        assert!(!idx.in_tree(VertexId(2)));
        assert!(idx.in_tree(VertexId(1)));
        assert_eq!(idx.lca(VertexId(1), VertexId(2)), None);
        assert!(!idx.is_ancestor(VertexId(0), VertexId(3)));
        assert_eq!(idx.tree_distance(VertexId(0), VertexId(2)), None);
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        let g = generators::path(20_000);
        let (_t, idx) = lifting(&g, 7);
        assert!(idx.is_ancestor(VertexId(0), VertexId(19_999)));
        assert_eq!(
            idx.lca(VertexId(10_000), VertexId(19_999)),
            Some(VertexId(10_000))
        );
    }
}

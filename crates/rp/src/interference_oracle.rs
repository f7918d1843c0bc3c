//! The definitional interference analysis, kept as a test oracle.
//!
//! [`OracleIndex`] is the literal reading of the paper's §3: a hash map from
//! detour vertex to pairs, the full `I≁(p)` set of every pair, and an LCA
//! walk for every π-intersection test. The differential tests below require
//! the production [`InterferenceIndex`](crate::InterferenceIndex) to reproduce its `I1`/`I2` split,
//! its A/B/C classes and its `(∼)`-set verdicts exactly.

use crate::pair::PairId;
use crate::pcons::ReplacementPaths;
use ftb_graph::{EdgeId, VertexId};
use ftb_sp::ShortestPathTree;
use ftb_tree::TreeIndex;
use std::collections::{HashMap, HashSet};

/// The hash-map interference index of the paper's definitions.
pub(crate) struct OracleIndex<'a> {
    rp: &'a ReplacementPaths,
    tree: &'a ShortestPathTree,
    index: &'a TreeIndex,
    /// internal detour vertex -> uncovered pairs whose detour interior
    /// contains it.
    interior_map: HashMap<VertexId, Vec<PairId>>,
}

impl<'a> OracleIndex<'a> {
    pub(crate) fn build(
        rp: &'a ReplacementPaths,
        tree: &'a ShortestPathTree,
        index: &'a TreeIndex,
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
    use ftb_workloads::{families, Workload, WorkloadFamily};
    use proptest::prelude::*;

    struct Fixture {
        tree: ShortestPathTree,
        rp: ReplacementPaths,
        index: TreeIndex,
    }

    fn fixture(graph: &Graph, seed: u64, source: VertexId) -> Fixture {
        let weights = TieBreakWeights::generate(graph, seed);
        let tree = ShortestPathTree::build(graph, &weights, source);
        let dists = ReplacementDistances::compute(graph, &tree, &ParallelConfig::serial());
        let rp =
            ReplacementPaths::compute(graph, &weights, &tree, &dists, &ParallelConfig::serial());
        let index = TreeIndex::build(&tree);
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
        let fast = InterferenceIndex::build(&f.rp, &f.tree, &f.index);
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
        let fast = InterferenceIndex::build(&f.rp, &f.tree, &f.index);
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
        let fast = InterferenceIndex::build(&f.rp, &f.tree, &f.index);
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
        let fast = InterferenceIndex::build(&f.rp, &f.tree, &f.index);
        let (i1, i2) = fast.split_i1_i2();
        assert!(i1.is_empty() && i2.is_empty());
        let (a, b, c) = fast.classify(&[], &ParallelConfig::with_threads(4));
        assert!(a.is_empty() && b.is_empty() && c.is_empty());
        assert!(fast.is_sim_set(&[]));
    }
}

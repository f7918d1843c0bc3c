//! The source-divergence walk of `Pcons` pass 2.
//!
//! Pass 2 asks, for every terminal `v` with an uncovered pair, for the
//! canonical tree of `G'_v = G ∖ π°(s, v) ∖ {(s, a)}`, where `a = π[1]` is
//! the source child above `v`. These graphs nest down `T0`: a child `c` of
//! `x` has `G'_c = G'_x ∖ {x}`, so a [`CutTree`] that removes `x` turns the
//! tree of `x` into the tree of its children.
//!
//! [`walk`] runs it for one source child `a`. It cuts the edge `(s, a)` from
//! `T0`, which gives `T_a`, the replacement tree of that edge and `G'_a`'s
//! tree, then walks down `T0` with an explicit stack, because `T0` can be
//! `Θ(n)` deep. It enters only the vertices on the way to a target, reads
//! each target off the current tree, and removes a vertex before it steps
//! into the vertex's children. The tree's undo log restores the rows when
//! the walk steps back, and after the walk the rows are `T0`'s again, so a
//! walk costs its source child's subtree plus its repairs, not `n`.

use ftb_graph::{Fault, VertexId};
use ftb_sp::CutTree;

/// Walk the subtree of the source child `a` above `targets`: a non-empty
/// list of vertices of that subtree, in preorder and without repeats, on
/// `rows` holding `T0`. `visit(rows, i)` sees the canonical tree of `G'_v`
/// for `v = targets[i]`, in order, and the rows are `T0`'s again
/// afterwards. Returns the number of vertices removed (the distinct proper
/// ancestors of the targets below the source) and the total size of the
/// regions their removals repaired.
pub(crate) fn walk(
    rows: &mut CutTree<'_>,
    targets: &[VertexId],
    mut visit: impl FnMut(&CutTree<'_>, usize),
) -> (u64, u64) {
    let tree = rows.tree();
    let (a, first) = tree
        .ancestors(targets[0])
        .last()
        .expect("targets below the source");
    debug_assert_eq!(rows.mark(), 0, "rows left off T0");
    rows.cut(Fault::Edge(first));
    let (mut removals, mut region_vertices) = (0, 0);
    let mut next = 0;
    let below = |x: VertexId, next: usize| {
        targets
            .get(next)
            .filter(|&&t| tree.in_subtree(x, t))
            .copied()
    };
    // The path down `T0`: `(x, next child to look at, undo mark before x
    // was removed)`.
    let mut stack: Vec<(VertexId, usize, usize)> = Vec::new();
    let mut enter = Some(a);
    loop {
        if let Some(x) = enter {
            if targets.get(next) == Some(&x) {
                visit(rows, next);
                next += 1;
            }
            if below(x, next).is_some() {
                let mark = rows.mark();
                region_vertices += rows.cut(Fault::Vertex(x)) as u64;
                removals += 1;
                stack.push((x, 0, mark));
            }
        }
        let Some(&(x, child, mark)) = stack.last() else {
            break;
        };
        enter = match below(x, next) {
            // The next target lies below a child of `x` not yet entered.
            Some(t) => {
                let children = tree.children(x);
                let skip = children[child..]
                    .iter()
                    .position(|&c| tree.in_subtree(c, t))
                    .expect("a target below x lies below one of its children");
                stack.last_mut().expect("a frame").1 = child + skip + 1;
                Some(children[child + skip])
            }
            None => {
                rows.undo_to(mark);
                stack.pop();
                None
            }
        };
    }
    rows.undo_to(0);
    (removals, region_vertices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_graph::{generators, EdgeId, Graph};
    use ftb_sp::{CanonicalScratch, Path, ShortestPathTree, TieBreakWeights};
    use ftb_workloads::{Workload, WorkloadFamily};

    /// The graphs the walk is checked on: a grid, a hypercube, a cycle, a
    /// clique and every workload family at n = 48 and n = 160.
    fn graphs() -> Vec<(String, Graph)> {
        let mut out = vec![
            ("grid(6, 8)".to_string(), generators::grid(6, 8)),
            ("hypercube(5)".to_string(), generators::hypercube(5)),
            ("cycle(13)".to_string(), generators::cycle(13)),
            ("complete(9)".to_string(), generators::complete(9)),
        ];
        for &family in WorkloadFamily::all() {
            for n in [48, 160] {
                let what = format!("{} n = {n}", family.name());
                out.push((what, Workload::new(family, n, 7).generate()));
            }
        }
        out
    }

    /// The canonical path to `v` in the walk's current tree.
    fn path_in(rows: &CutTree<'_>, v: VertexId) -> Option<Path> {
        rows.depth(v)?;
        let (mut vertices, mut edges) = (vec![v], Vec::new());
        let mut cur = v;
        while let Some((p, e)) = rows.parent(cur) {
            vertices.push(p);
            edges.push(e);
            cur = p;
        }
        vertices.reverse();
        edges.reverse();
        Some(Path::new(vertices, edges))
    }

    /// The plain search the walk replaces: the subtree of `π[1]` under
    /// `G ∖ π°(s, v) ∖ {(s, π[1])}`, then the settle of `v`.
    fn plain_search(
        scratch: &mut CanonicalScratch,
        graph: &Graph,
        weights: &TieBreakWeights,
        tree: &ShortestPathTree,
        v: VertexId,
    ) -> (Option<u32>, Option<Path>) {
        let above: Vec<(VertexId, EdgeId)> = tree.ancestors(v).collect();
        let (a, first) = *above.last().unwrap();
        let filter =
            |w: VertexId, f: EdgeId| f != first && !above[1..].iter().any(|&(x, _)| x == w);
        scratch.sweep_subtree(graph, tree, a, None, filter);
        let d0 = scratch.dist(v);
        if d0.is_some() {
            scratch.settle_target(graph, weights, v, filter);
        }
        (d0, scratch.path_to(tree, v))
    }

    /// Walk `targets` (reachable, below the source), one walk per source
    /// child, and check every target against the plain search; the rows
    /// must be `T0`'s after every walk. Returns how many targets are
    /// reached.
    fn assert_walks_match_plain_searches(
        graph: &Graph,
        weights: &TieBreakWeights,
        tree: &ShortestPathTree,
        targets: &[VertexId],
        what: &str,
    ) -> usize {
        let n = graph.num_vertices();
        let mut rows = CutTree::new(graph, weights, tree);
        let mut scratch = CanonicalScratch::new(n);
        let mut targets = targets.to_vec();
        targets.sort_unstable_by_key(|&v| tree.preorder(v));
        let mut reached = 0;
        let source_child = |v: VertexId| tree.ancestors(v).last().unwrap().0;
        for group in targets.chunk_by(|&v, &w| source_child(v) == source_child(w)) {
            let (removals, _) = walk(&mut rows, group, |rows, i| {
                let v = group[i];
                let (d0, path) = plain_search(&mut scratch, graph, weights, tree, v);
                assert_eq!(rows.depth(v), d0, "d0 of {v:?} on {what}");
                assert_eq!(path_in(rows, v), path, "path to {v:?} on {what}");
                reached += usize::from(d0.is_some());
            });
            let mut removed = vec![false; n];
            for &v in group {
                for (x, _) in tree.ancestors(v).skip(1) {
                    removed[x.index()] = true;
                }
            }
            let a = source_child(group[0]);
            let want = removed.iter().filter(|&&r| r).count() as u64;
            assert_eq!(removals, want, "removals below {a:?} on {what}");
            for v in graph.vertices() {
                assert_eq!(rows.depth(v), tree.depth(v), "depth after {a:?} on {what}");
                assert_eq!(rows.tie(v), tree.tie(v), "tie sum after {a:?} on {what}");
                assert_eq!(
                    rows.parent(v),
                    tree.parent(v),
                    "parent after {a:?} on {what}"
                );
            }
        }
        reached
    }

    /// Every vertex below the source as a target.
    fn assert_walk_matches_plain_searches(
        graph: &Graph,
        weights: &TieBreakWeights,
        what: &str,
    ) -> usize {
        let tree = ShortestPathTree::build(graph, weights, VertexId(0));
        let all = &tree.euler().order()[1..];
        assert_walks_match_plain_searches(graph, weights, &tree, all, what)
    }

    #[test]
    fn walk_matches_plain_source_searches() {
        let (mut reached, mut cut_off) = (0, 0);
        for (what, g) in graphs() {
            for seed in [3u64, 11] {
                let weights = TieBreakWeights::generate(&g, seed);
                let r = assert_walk_matches_plain_searches(&g, &weights, &what);
                reached += r;
                cut_off += g.num_vertices() - 1 - r;
            }
        }
        assert!(
            reached > 0 && cut_off > 0,
            "{reached} reached, {cut_off} cut off"
        );
    }

    #[test]
    fn walk_matches_plain_searches_under_uniform_weights() {
        // Uniform weights make every tie fall to the parent id.
        for (what, g) in graphs().into_iter().take(4) {
            assert_walk_matches_plain_searches(&g, &TieBreakWeights::uniform(&g), &what);
        }
    }

    /// The walk at the end-to-end benchmark's size (n = 2000, seed 7), for
    /// every terminal with an uncovered pair, the ones pass 2 reads off it:
    /// the same `d0` and, if reached, the same canonical path as the plain
    /// search of `G ∖ π°(s, v) ∖ {(s, π[1])}`.
    /// Release only: `cargo test --release -p ftb_rp -- --ignored`.
    #[test]
    #[ignore = "benchmark-size check; run in release with --ignored"]
    fn walk_is_exact_at_benchmark_size() {
        use crate::ReplacementPaths;
        use ftb_par::ParallelConfig;
        use ftb_sp::ReplacementDistances;
        for family in [WorkloadFamily::LayeredDeep, WorkloadFamily::ErdosRenyi] {
            let graph = Workload::new(family, 2000, 7).generate();
            let weights = TieBreakWeights::generate(&graph, 7);
            let tree = ShortestPathTree::build(&graph, &weights, VertexId(0));
            let config = ParallelConfig::default();
            let dists = ReplacementDistances::compute(&graph, &tree, &config);
            let rp = ReplacementPaths::compute(&graph, &weights, &tree, &dists, &config);
            let mut terminals: Vec<VertexId> = rp
                .uncovered()
                .iter()
                .map(|&p| rp.get(p).pair.terminal)
                .collect();
            terminals.dedup();
            let what = family.name();
            let reached =
                assert_walks_match_plain_searches(&graph, &weights, &tree, &terminals, what);
            assert!(reached > 0, "{what}: no terminal reached at j = 0");
        }
    }
}

//! The divergence walk of `Pcons` pass 2.
//!
//! Level `j` of pass 2 asks, for every terminal `v` below a tree edge
//! `(u, a)` with `depth(u) = j`, for the canonical tree of
//! `G ∖ π°(u, v) ∖ {(u, a)}`. These graphs nest down `T0`: a child `c` of
//! `x` has the graph of `x` less `x`, so a [`CutTree`] that removes `x`
//! turns the tree of `x` into the tree of its children.
//!
//! [`walk`] runs it for one tree edge `(u, a)`. It cuts the edge from `T0`,
//! which gives its replacement tree, the tree of `a`, then walks down `T0`
//! with an explicit stack, because `T0` can be `Θ(n)` deep. It enters only
//! the vertices on the way to a target, reads each target off the current
//! tree, and removes a vertex before it steps into the vertex's children.
//! The tree's undo log restores the rows when the walk steps back, and
//! after the walk the rows are `T0`'s again, so a walk costs the subtree of
//! `a` plus its repairs, not `n`.

use ftb_graph::{Fault, VertexId};
use ftb_sp::CutTree;

/// Walk the subtree of `a`, a vertex below the source, above `targets`: a
/// non-empty list of vertices of that subtree, in preorder and without
/// repeats, on `rows` holding `T0`. `visit(rows, i)` sees the canonical
/// tree of `G ∖ π°(u, v) ∖ {(u, a)}`, where `u` is the parent of `a`, for
/// `v = targets[i]`, in order, and the rows are `T0`'s again afterwards.
/// Returns the number of vertices removed (the distinct proper ancestors
/// of the targets in the subtree of `a`) and the total size of the regions
/// their removals repaired.
pub(crate) fn walk(
    rows: &mut CutTree<'_>,
    a: VertexId,
    targets: &[VertexId],
    mut visit: impl FnMut(&CutTree<'_>, usize),
) -> (u64, u64) {
    let tree = rows.tree();
    let (_, first) = tree.parent(a).expect("a vertex below the source");
    debug_assert!(tree.in_subtree(a, targets[0]), "targets below a");
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
    use ftb_graph::{generators, Graph};
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

    /// The from-source search the walk replaces: the canonical tree of
    /// `G ∖ {(u, a)} ∖ π°(u, v)`, where `u` is the parent of `a`, read at `v`.
    fn full_search(
        full: &mut CanonicalScratch,
        graph: &Graph,
        weights: &TieBreakWeights,
        tree: &ShortestPathTree,
        a: VertexId,
        v: VertexId,
    ) -> (Option<u32>, Option<Path>) {
        let (_, edge) = tree.parent(a).expect("a below the source");
        let interior = tree
            .ancestors(v)
            .skip(1)
            .take_while(|&(x, _)| tree.in_subtree(a, x));
        let banned: Vec<Fault> = std::iter::once(Fault::Edge(edge))
            .chain(interior.map(|(x, _)| Fault::Vertex(x)))
            .collect();
        full.run(graph, weights, tree.source(), &banned);
        (full.dist(v), full.path_to(v))
    }

    /// Walk from the tree edge into `a` through `targets` (vertices of the
    /// subtree of `a`, in preorder) and check every target against the
    /// full search; the walk must remove the distinct proper ancestors of
    /// the targets in the subtree of `a`, and leave the rows `T0`'s.
    /// Returns how many targets are reached.
    fn assert_walk_matches_full_searches(
        rows: &mut CutTree<'_>,
        full: &mut CanonicalScratch,
        graph: &Graph,
        weights: &TieBreakWeights,
        a: VertexId,
        targets: &[VertexId],
        what: &str,
    ) -> usize {
        let tree = rows.tree();
        let mut reached = 0;
        let (removals, _) = walk(rows, a, targets, |rows, i| {
            let v = targets[i];
            let (d, path) = full_search(full, graph, weights, tree, a, v);
            assert_eq!(rows.depth(v), d, "depth of {v:?} below {a:?} on {what}");
            assert_eq!(
                path_in(rows, v),
                path,
                "path to {v:?} below {a:?} on {what}"
            );
            reached += usize::from(d.is_some());
        });
        let mut removed = vec![false; graph.num_vertices()];
        for &v in targets {
            for (x, _) in tree.ancestors(v).skip(1) {
                if !tree.in_subtree(a, x) {
                    break;
                }
                removed[x.index()] = true;
            }
        }
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
        reached
    }

    /// One walk per tree edge `(u, a)`, through every vertex of the subtree
    /// of `a`. Returns how many (walk, target) checks are reached.
    fn assert_walks_match_full_searches(g: &Graph, weights: &TieBreakWeights, what: &str) -> usize {
        let tree = ShortestPathTree::build(g, weights, VertexId(0));
        let mut rows = CutTree::new(g, weights, &tree);
        let mut full = CanonicalScratch::new(g.num_vertices());
        let mut reached = 0;
        for &a in &tree.euler().order()[1..] {
            let subtree = &tree.euler().order()[tree.euler().subtree(a)];
            reached += assert_walk_matches_full_searches(
                &mut rows, &mut full, g, weights, a, subtree, what,
            );
        }
        reached
    }

    #[test]
    fn walks_match_full_searches_from_every_tree_edge() {
        let (mut reached, mut checked) = (0, 0);
        for (what, g) in graphs() {
            for seed in [3u64, 11] {
                let weights = TieBreakWeights::generate(&g, seed);
                reached += assert_walks_match_full_searches(&g, &weights, &what);
                let tree = ShortestPathTree::build(&g, &weights, VertexId(0));
                checked += g
                    .vertices()
                    .filter_map(|v| tree.depth(v))
                    .map(|d| d as usize)
                    .sum::<usize>();
            }
        }
        assert!(
            reached > 0 && reached < checked,
            "{reached} of {checked} reached"
        );
    }

    #[test]
    fn walks_match_full_searches_under_uniform_weights() {
        // Uniform weights make every tie fall to the parent id.
        for (what, g) in graphs() {
            assert_walks_match_full_searches(&g, &TieBreakWeights::uniform(&g), &what);
        }
    }

    /// The walks pass 2 runs at the end-to-end benchmark's size (n = 2000,
    /// seed 7) and on a graph whose pairs diverge at many depths: at every
    /// level `j`, from the tree edge `(π[j], π[j + 1])` of every terminal
    /// with an uncovered pair that diverges at depth `j` or deeper, the same
    /// distance and, if reached, the same canonical path as the full search
    /// of `G ∖ {(π[j], π[j + 1])} ∖ π°(π[j], v)`.
    /// Release only: `cargo test --release -p ftb_rp -- --ignored`.
    #[test]
    #[ignore = "benchmark-size check; run in release with --ignored"]
    fn walk_is_exact_at_benchmark_size() {
        use crate::ReplacementPaths;
        use ftb_par::ParallelConfig;
        use ftb_sp::ReplacementDistances;
        for family in [
            WorkloadFamily::LayeredDeep,
            WorkloadFamily::ErdosRenyi,
            WorkloadFamily::GridChords,
        ] {
            let graph = Workload::new(family, 2000, 7).generate();
            let weights = TieBreakWeights::generate(&graph, 7);
            let tree = ShortestPathTree::build(&graph, &weights, VertexId(0));
            let config = ParallelConfig::default();
            let dists = ReplacementDistances::compute(&graph, &tree, &config);
            let rp = ReplacementPaths::compute(&graph, &weights, &tree, &dists, &config);
            // Each terminal with an uncovered pair, with the deepest
            // divergence point of its uncovered pairs.
            let mut terminals: Vec<(VertexId, u32)> = Vec::new();
            for &p in rp.uncovered() {
                let r = rp.get(p);
                let d = tree
                    .depth(r.divergence.expect("new-ending"))
                    .expect("reachable");
                match terminals.last_mut() {
                    Some((v, deepest)) if *v == r.pair.terminal => *deepest = (*deepest).max(d),
                    _ => terminals.push((r.pair.terminal, d)),
                }
            }
            terminals.sort_unstable_by_key(|&(v, _)| tree.preorder(v));
            let mut rows = CutTree::new(&graph, &weights, &tree);
            let mut full = CanonicalScratch::new(graph.num_vertices());
            let what = family.name();
            let (mut reached, mut level) = (0, 0);
            loop {
                let mut walks: Vec<(VertexId, Vec<VertexId>)> = Vec::new();
                for &(v, deepest) in &terminals {
                    if deepest < level {
                        continue;
                    }
                    match walks.last_mut() {
                        Some((a, targets)) if tree.in_subtree(*a, v) => targets.push(v),
                        _ => {
                            let up = tree.depth(v).expect("reachable") - level - 1;
                            let (a, _) = tree.ancestors(v).nth(up as usize).expect("ancestor");
                            walks.push((a, vec![v]));
                        }
                    }
                }
                if walks.is_empty() {
                    break;
                }
                for (a, targets) in &walks {
                    reached += assert_walk_matches_full_searches(
                        &mut rows, &mut full, &graph, &weights, *a, targets, what,
                    );
                }
                level += 1;
            }
            assert!(reached > 0, "{what}: no terminal reached");
        }
    }
}

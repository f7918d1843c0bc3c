//! The canonical tree under nested faults: [`CutTree`].
//!
//! A fault changes canonical paths only below itself in the current tree: a
//! vertex outside that subtree keeps its path (no removal shortens a path or
//! lowers a tie sum), and no such path enters the subtree (Parter–Peleg,
//! arXiv:1302.5401). A second fault nests inside the first fault's tree the
//! same way (Parter 2015, arXiv:1505.00692). So the tree of `G ∖ F` is `T0`
//! repaired one fault at a time, each repair a search of the cut subtree
//! alone, seeded from its outside neighbours at their current depths.
//!
//! [`CutTree::cut`] does one repair in place and logs every row it
//! overwrites; [`CutTree::undo_to`] puts them back. Every construction fault
//! runs on it: `Pcons` pass 1 cuts one `T0` edge at a time, pass 2's walk
//! removes vertices on its way down `T0`, and the augmentation cuts a first
//! fault, then each edge of that fault's tree. A cut costs its region and
//! the edges around it, not `n + m`. A cut on `T0`'s rows takes its region
//! from the subtree's preorder slice; a deeper cut walks the parent rows.
//!
//! Cut edges stay banned until undone, since a nested cut's region may hold
//! both endpoints of one; a removed vertex reads unreached until undone.
//! The repair is one [`BoundarySweep::search_from_seeds`] with parents from
//! [`canonical_parent`], the kernel and rule of every canonical search.

use crate::canonical::canonical_parent;
use crate::sp_tree::ShortestPathTree;
use crate::sweep::BoundarySweep;
use crate::weights::TieBreakWeights;
use crate::UNREACHABLE;
use ftb_graph::{EdgeId, Fault, Graph, VertexId};

/// The depth row's mark for a vertex of the region being repaired.
const PENDING: u32 = UNREACHABLE - 1;

/// A logged row: vertex, depth, tie sum and parent.
type Row = (VertexId, u32, u64, Option<(VertexId, EdgeId)>);

/// The canonical tree of `G ∖ F` for a stack of faults `F`, one row per
/// vertex, repaired in place (see the [module docs](self)).
///
/// [`CutTree::new`] (once per worker) sets the rows to `T0`; each
/// [`CutTree::cut`] pushes a fault, and [`CutTree::undo_to`] pops back to an
/// earlier [`CutTree::mark`] (`0` is `T0`).
#[derive(Clone, Debug)]
pub struct CutTree<'a> {
    graph: &'a Graph,
    weights: &'a TieBreakWeights,
    tree: &'a ShortestPathTree,
    /// Hop depth per vertex ([`UNREACHABLE`] if cut off or removed).
    depth: Vec<u32>,
    /// `Σ W` along the vertex's canonical path.
    tie: Vec<u64>,
    /// Canonical parent, `None` for the source and unreached vertices.
    parent: Vec<Option<(VertexId, EdgeId)>>,
    /// The rows the cuts overwrote, oldest first.
    undo: Vec<Row>,
    /// The edges of the live cuts, each with the undo mark it was cut at.
    banned: Vec<(usize, EdgeId)>,
    /// The vertices of the last cut's region.
    region: Vec<VertexId>,
    seeds: Vec<(u32, VertexId)>,
    sweep: BoundarySweep,
}

impl<'a> CutTree<'a> {
    /// Rows holding `tree`, the `T0` of `graph` under `weights`.
    pub fn new(graph: &'a Graph, weights: &'a TieBreakWeights, tree: &'a ShortestPathTree) -> Self {
        let n = tree.num_vertices();
        let vertices = (0..n).map(VertexId::new);
        CutTree {
            graph,
            weights,
            tree,
            depth: tree.depth_row().to_vec(),
            tie: vertices.clone().map(|v| tree.tie(v)).collect(),
            parent: vertices.map(|v| tree.parent(v)).collect(),
            undo: Vec::new(),
            banned: Vec::new(),
            region: Vec::new(),
            seeds: Vec::new(),
            sweep: BoundarySweep::new(n),
        }
    }

    /// The fault-free tree `T0` the rows start from.
    pub fn tree(&self) -> &'a ShortestPathTree {
        self.tree
    }

    /// Hop distance of `v` in the current tree, if reached.
    #[inline]
    pub fn depth(&self, v: VertexId) -> Option<u32> {
        let d = self.depth[v.index()];
        (d != UNREACHABLE).then_some(d)
    }

    /// `Σ W` along `v`'s path in the current tree, if `v` is reached.
    #[inline]
    pub fn tie(&self, v: VertexId) -> u64 {
        self.tie[v.index()]
    }

    /// Parent of `v` in the current tree (`None` for the source, unreached).
    #[inline]
    pub fn parent(&self, v: VertexId) -> Option<(VertexId, EdgeId)> {
        self.parent[v.index()]
    }

    /// The last cut's region: the subtree it cut off, less a removed vertex.
    pub fn region(&self) -> &[VertexId] {
        &self.region
    }

    /// The undo mark of the current tree.
    pub fn mark(&self) -> usize {
        self.undo.len()
    }

    /// Remove `fault` from the current tree and repair what hangs below it:
    /// an edge of the current tree, or any vertex but the source (on `T0`'s
    /// rows, a reachable one). Returns the size of the region.
    pub fn cut(&mut self, fault: Fault) -> usize {
        let (graph, weights, tree) = (self.graph, self.weights, self.tree);
        let mark = self.undo.len();
        self.region.clear();
        let root = match fault {
            Fault::Edge(e) => {
                let ends = graph.edge(e);
                let child = self.parent[ends.v.index()] == Some((ends.u, e));
                let root = if child { ends.v } else { ends.u };
                debug_assert!(self.parent[root.index()].is_some_and(|(_, f)| f == e));
                self.banned.push((mark, e));
                self.enter(root);
                root
            }
            Fault::Vertex(x) => {
                debug_assert_ne!(x, tree.source(), "the source cannot be cut");
                self.log(x);
                (self.depth[x.index()], self.parent[x.index()]) = (UNREACHABLE, None);
                x
            }
        };
        if mark == 0 {
            for &w in &tree.euler().order()[tree.euler().subtree(root)][1..] {
                self.enter(w);
            }
        } else {
            let (mut u, mut i) = (root, self.region.len());
            loop {
                for (w, e) in graph.neighbors(u) {
                    if self.parent[w.index()] == Some((u, e)) {
                        self.enter(w);
                    }
                }
                let Some(&w) = self.region.get(i) else {
                    break;
                };
                (u, i) = (w, i + 1);
            }
        }

        // Seed each region vertex at its best entry from a reached vertex
        // outside, then sweep the region alone.
        let banned = &self.banned;
        let allow = |_: VertexId, e: EdgeId| banned.iter().all(|&(_, b)| b != e);
        let depth = &self.depth;
        self.seeds.clear();
        for &w in &self.region {
            let entry = graph
                .neighbors(w)
                .filter(|&(u, e)| depth[u.index()] < PENDING && allow(w, e))
                .map(|(u, _)| depth[u.index()] + 1)
                .min();
            self.seeds.extend(entry.map(|d| (d, w)));
        }
        self.sweep.search_from_seeds(
            self.seeds.iter().copied(),
            |u| graph.neighbors(u),
            |w, e| depth[w.index()] == PENDING && allow(w, e),
        );

        // Settle in visit order: every vertex one level up is final, inside
        // the region or out.
        for &w in self.sweep.visited() {
            let d = self.sweep.dist(w).expect("visited");
            self.depth[w.index()] = d;
            let (depth, tie) = (&self.depth, &self.tie);
            let (t, u, e) = canonical_parent(
                graph,
                weights,
                w,
                d - 1,
                |u| depth[u.index()],
                |u| tie[u.index()],
                allow,
            )
            .expect("a discovered vertex has a parent");
            (self.tie[w.index()], self.parent[w.index()]) = (t, Some((u, e)));
        }
        for &w in &self.region {
            if self.depth[w.index()] == PENDING {
                (self.depth[w.index()], self.parent[w.index()]) = (UNREACHABLE, None);
            }
        }
        self.region.len()
    }

    /// Log `v`'s row and add it to the region, pending.
    fn enter(&mut self, v: VertexId) {
        self.log(v);
        self.depth[v.index()] = PENDING;
        self.region.push(v);
    }

    /// Log `v`'s row before a cut overwrites it.
    fn log(&mut self, v: VertexId) {
        let i = v.index();
        self.undo
            .push((v, self.depth[i], self.tie[i], self.parent[i]));
    }

    /// Undo every cut made since [`CutTree::mark`] read `mark`: restore the
    /// rows they logged and lift the bans on the edges they cut.
    pub fn undo_to(&mut self, mark: usize) {
        for (v, depth, tie, parent) in self.undo.drain(mark..).rev() {
            let i = v.index();
            (self.depth[i], self.tie[i], self.parent[i]) = (depth, tie, parent);
        }
        while self.banned.last().is_some_and(|&(at, _)| at >= mark) {
            self.banned.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::CanonicalScratch;
    use ftb_graph::generators;
    use ftb_workloads::{Workload, WorkloadFamily};

    /// A grid, a hypercube, a cycle, a clique and every workload family at
    /// n = 48.
    fn graphs() -> Vec<(String, Graph)> {
        let mut out = vec![
            ("grid(6, 8)".to_string(), generators::grid(6, 8)),
            ("hypercube(5)".to_string(), generators::hypercube(5)),
            ("cycle(13)".to_string(), generators::cycle(13)),
            ("complete(9)".to_string(), generators::complete(9)),
        ];
        for &family in WorkloadFamily::all() {
            let what = format!("{} n = 48", family.name());
            out.push((what, Workload::new(family, 48, 7).generate()));
        }
        out
    }

    /// The rows against the from-source run of `G ∖ faults`: the depth and
    /// parent of every vertex, and the tie sum of every reached one.
    fn assert_rows_match_run(
        rows: &CutTree<'_>,
        full: &mut CanonicalScratch,
        faults: &[Fault],
        what: &str,
    ) {
        full.run(rows.graph, rows.weights, rows.tree.source(), faults);
        for v in rows.graph.vertices() {
            let why = || format!("{v:?} under {faults:?} on {what}");
            assert_eq!(rows.depth(v), full.dist(v), "depth of {}", why());
            assert_eq!(rows.parent(v), full.parent(v), "parent of {}", why());
            if rows.depth(v).is_some() {
                assert_eq!(rows.tie(v), full.tie(v), "tie sum of {}", why());
            }
        }
    }

    /// Cut every `T0` edge and every reached vertex but the source, then,
    /// nested inside each, every edge and every reached vertex of its tree,
    /// and check each tree against the from-source run of `G` minus both
    /// faults; `undo_to(0)` must give `T0`'s rows back. Returns how many
    /// nested edge cuts held both endpoints of the first cut edge in their
    /// region.
    fn assert_nested_cuts_match_full_runs(
        g: &Graph,
        weights: &TieBreakWeights,
        what: &str,
    ) -> usize {
        let tree = ShortestPathTree::build(g, weights, VertexId(0));
        let t0 = CutTree::new(g, weights, &tree);
        let mut rows = CutTree::new(g, weights, &tree);
        let mut full = CanonicalScratch::new(g.num_vertices());
        let tree_faults = |rows: &CutTree<'_>| -> Vec<Fault> {
            let below: Vec<VertexId> = g.vertices().filter(|&v| rows.parent(v).is_some()).collect();
            let edges = below
                .iter()
                .map(|&v| Fault::Edge(rows.parent(v).expect("below").1));
            edges
                .chain(below.iter().map(|&v| Fault::Vertex(v)))
                .collect()
        };
        let mut enclosed = 0;
        for x in tree_faults(&rows) {
            let size = rows.cut(x);
            assert_eq!(size, rows.region().len());
            assert_rows_match_run(&rows, &mut full, &[x], what);
            let mark = rows.mark();
            for f in tree_faults(&rows) {
                rows.cut(f);
                if let (Fault::Edge(e), Fault::Edge(_)) = (x, f) {
                    let ends = g.edge(e);
                    let region = rows.region();
                    enclosed += usize::from(region.contains(&ends.u) && region.contains(&ends.v));
                }
                assert_rows_match_run(&rows, &mut full, &[x, f], what);
                rows.undo_to(mark);
            }
            rows.undo_to(0);
            assert_eq!(rows.depth, t0.depth, "depths after {x:?} on {what}");
            assert_eq!(rows.tie, t0.tie, "tie sums after {x:?} on {what}");
            assert_eq!(rows.parent, t0.parent, "parents after {x:?} on {what}");
            assert!(rows.banned.is_empty(), "a ban outlived {x:?} on {what}");
        }
        enclosed
    }

    #[test]
    fn nested_cuts_match_full_runs() {
        let mut enclosed = 0;
        for (what, g) in graphs() {
            enclosed +=
                assert_nested_cuts_match_full_runs(&g, &TieBreakWeights::generate(&g, 3), &what);
        }
        assert!(enclosed > 0, "no nested cut enclosed the first cut edge");
    }

    #[test]
    fn nested_cuts_match_full_runs_under_uniform_weights() {
        // Uniform weights make every tie fall to the parent id.
        for (what, g) in graphs() {
            assert_nested_cuts_match_full_runs(&g, &TieBreakWeights::uniform(&g), &what);
        }
    }

    #[test]
    fn a_cut_on_t0_takes_the_preorder_slice() {
        let g = generators::grid(5, 6);
        let weights = TieBreakWeights::generate(&g, 9);
        let tree = ShortestPathTree::build(&g, &weights, VertexId(0));
        let mut rows = CutTree::new(&g, &weights, &tree);
        for &e in tree.tree_edges() {
            let c = tree.child_endpoint(e).expect("tree edge");
            let slice = &tree.euler().order()[tree.euler().subtree(c)];
            assert_eq!(rows.cut(Fault::Edge(e)), slice.len());
            assert_eq!(rows.region(), slice);
            rows.undo_to(0);
            rows.cut(Fault::Vertex(c));
            assert_eq!(rows.region(), &slice[1..]);
            assert_eq!(rows.depth(c), None);
            rows.undo_to(0);
        }
    }
}

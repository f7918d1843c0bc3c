//! Preorder Euler intervals over a parent-pointer tree row: the one tree
//! order of the construction and of the query engine.
//!
//! A fault changes distances only inside the subtree it cuts off
//! (Parter–Peleg 2013). [`EulerTourIndex`] numbers the tree in preorder,
//! children in ascending vertex id, so the subtree of `v` is the contiguous
//! range `tin(v) .. tout(v)` of the preorder sequence
//! [`EulerTourIndex::order`]. It is built straight from a *parent row*, so
//! [`ShortestPathTree`](crate::ShortestPathTree) indexes `T0` with it (the
//! layout of every replacement row, `Pcons` slot and pair id), the query
//! engine indexes each served source's fault-free row with it, and
//! [`BoundarySweep`](crate::BoundarySweep) enumerates its regions as slices
//! of it.

use ftb_graph::VertexId;

/// Preorder entry sentinel for vertices outside the tree.
const OUT_OF_TREE: u32 = u32::MAX;

/// Preorder numbering of a rooted tree given as a parent-pointer row, with
/// `O(1)` subtree intervals and ancestor tests.
///
/// Vertices whose parent entry is `None` (other than the root) are treated
/// as unreachable: they get no preorder number, [`EulerTourIndex::in_tree`]
/// is `false` for them, and ancestor tests involving them answer `false`.
#[derive(Clone, Debug)]
pub struct EulerTourIndex {
    root: VertexId,
    /// Preorder entry time per vertex ([`OUT_OF_TREE`] if unreachable).
    tin: Vec<u32>,
    /// One past the preorder entry time of the last descendant, so the
    /// subtree of `v` is `order[tin(v) .. tout(v)]`.
    tout: Vec<u32>,
    /// The preorder sequence itself: `order[tin(v)] == v`.
    order: Vec<VertexId>,
}

impl EulerTourIndex {
    /// Build the index from the parent row of a BFS/SP tree rooted at
    /// `root`. `parents[v]` is `Some((parent, edge_payload))` for every
    /// reachable non-root vertex; the edge payload is ignored, so any row
    /// shape (graph edge ids, weights, …) works.
    ///
    /// Runs in `O(n)` time and space; iterative, so path-shaped trees of any
    /// depth are fine.
    pub fn from_parents<E: Copy>(root: VertexId, parents: &[Option<(VertexId, E)>]) -> Self {
        let n = parents.len();
        // Children counts → CSR-style child buckets (children of each vertex
        // in ascending vertex-id order, so the preorder is deterministic).
        let mut child_count = vec![0u32; n];
        for p in parents.iter().flatten() {
            child_count[p.0.index()] += 1;
        }
        let mut child_start = vec![0u32; n + 1];
        for i in 0..n {
            child_start[i + 1] = child_start[i] + child_count[i];
        }
        let mut cursor = child_start.clone();
        let mut children = vec![VertexId(0); child_start[n] as usize];
        for (i, p) in parents.iter().enumerate() {
            if let Some((p, _)) = p {
                children[cursor[p.index()] as usize] = VertexId::new(i);
                cursor[p.index()] += 1;
            }
        }

        let mut tin = vec![OUT_OF_TREE; n];
        let mut tout = vec![OUT_OF_TREE; n];
        let mut order = Vec::new();
        if root.index() < n {
            // Iterative preorder DFS; (vertex, next-child cursor) frames.
            let mut stack: Vec<(VertexId, u32)> = vec![(root, child_start[root.index()])];
            tin[root.index()] = 0;
            order.push(root);
            while let Some(&mut (v, ref mut next)) = stack.last_mut() {
                if *next < child_start[v.index() + 1] {
                    let c = children[*next as usize];
                    *next += 1;
                    tin[c.index()] = order.len() as u32;
                    order.push(c);
                    stack.push((c, child_start[c.index()]));
                } else {
                    tout[v.index()] = order.len() as u32;
                    stack.pop();
                }
            }
        }
        EulerTourIndex {
            root,
            tin,
            tout,
            order,
        }
    }

    /// The tree root.
    #[inline]
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// `true` if `v` is reachable (has a preorder number).
    #[inline]
    pub fn in_tree(&self, v: VertexId) -> bool {
        self.tin[v.index()] != OUT_OF_TREE
    }

    /// Number of tree vertices (length of the preorder sequence).
    #[inline]
    pub fn tree_size(&self) -> usize {
        self.order.len()
    }

    /// The preorder sequence; the subtree of `v` occupies
    /// `order()[subtree(v)]`.
    #[inline]
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// The preorder interval of `v`'s subtree (as a range into
    /// [`EulerTourIndex::order`]); empty for out-of-tree vertices.
    #[inline]
    pub fn subtree(&self, v: VertexId) -> std::ops::Range<usize> {
        let t = self.tin[v.index()];
        if t == OUT_OF_TREE {
            return 0..0;
        }
        t as usize..self.tout[v.index()] as usize
    }

    /// Number of vertices in `v`'s subtree (0 for out-of-tree vertices).
    #[inline]
    pub fn subtree_size(&self, v: VertexId) -> usize {
        self.subtree(v).len()
    }

    /// `true` if `a` is an ancestor of `b` (every tree vertex is an ancestor
    /// of itself); `false` if either vertex is outside the tree.
    #[inline]
    pub fn is_ancestor(&self, a: VertexId, b: VertexId) -> bool {
        let (ta, tb) = (self.tin[a.index()], self.tin[b.index()]);
        ta != OUT_OF_TREE && tb != OUT_OF_TREE && ta <= tb && tb < self.tout[a.index()]
    }

    /// The preorder number of `v` (`None` for out-of-tree vertices).
    ///
    /// `v` lies inside the subtree interval `a..b` of some vertex exactly
    /// when `a <= preorder(v) < b` — the primitive behind the engine's
    /// batched one-to-many classification.
    #[inline]
    pub fn preorder(&self, v: VertexId) -> Option<u32> {
        let t = self.tin[v.index()];
        (t != OUT_OF_TREE).then_some(t)
    }

    /// Serialize as the root plus the three flat preorder arrays.
    pub fn store_into(&self, w: &mut ftb_io::Writer) {
        w.put_u32(self.root.0);
        w.put_u32_slice(&self.tin);
        w.put_u32_slice(&self.tout);
        let flat: Vec<u32> = self.order.iter().map(|v| v.0).collect();
        w.put_u32_slice(&flat);
    }

    /// Decode an index written by [`EulerTourIndex::store_into`] for a tree
    /// over `num_vertices` vertices.
    ///
    /// Revalidates the interval invariants the repair sweeps rely on: `tin`
    /// and `tout` agree on tree membership, `order[tin(v)] == v` for every
    /// in-tree vertex, the in-tree count matches the preorder sequence
    /// length (so `order` is a permutation of the in-tree vertices), every
    /// subtree interval is non-empty and bounded by the sequence, and the
    /// root is the first preorder vertex whenever the tree is non-empty.
    pub fn load_from(
        r: &mut ftb_io::Reader<'_>,
        num_vertices: usize,
    ) -> Result<Self, ftb_io::SnapshotError> {
        let bad = |detail: &'static str| ftb_io::SnapshotError::Malformed {
            section: "euler tour index",
            detail,
        };
        let root = VertexId(r.get_u32()?);
        let tin = r.get_u32_vec()?;
        let tout = r.get_u32_vec()?;
        let order: Vec<VertexId> = r.get_u32_vec()?.into_iter().map(VertexId).collect();
        if tin.len() != num_vertices || tout.len() != num_vertices {
            return Err(bad("tin/tout length does not match vertex count"));
        }
        if order.len() > num_vertices {
            return Err(bad("preorder sequence longer than vertex count"));
        }
        let mut in_tree = 0usize;
        for v in 0..num_vertices {
            match (tin[v] == OUT_OF_TREE, tout[v] == OUT_OF_TREE) {
                (true, true) => {}
                (false, false) => {
                    in_tree += 1;
                    let (t_in, t_out) = (tin[v] as usize, tout[v] as usize);
                    if t_in >= order.len() || t_out > order.len() || t_out <= t_in {
                        return Err(bad("subtree interval out of bounds"));
                    }
                    if order[t_in].index() != v {
                        return Err(bad("preorder sequence disagrees with tin"));
                    }
                }
                _ => return Err(bad("tin/tout disagree on tree membership")),
            }
        }
        if in_tree != order.len() {
            return Err(bad("in-tree count does not match preorder length"));
        }
        if let Some(&first) = order.first() {
            if root != first {
                return Err(bad("root is not the first preorder vertex"));
            }
        }
        Ok(EulerTourIndex {
            root,
            tin,
            tout,
            order,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// parents[v] = Some((parent, ())) — unit edge payload.
    fn idx(root: u32, parents: &[Option<u32>]) -> EulerTourIndex {
        let rows: Vec<Option<(VertexId, ())>> = parents
            .iter()
            .map(|p| p.map(|p| (VertexId(p), ())))
            .collect();
        EulerTourIndex::from_parents(VertexId(root), &rows)
    }

    #[test]
    fn path_tree_intervals_are_suffixes() {
        // 0 -> 1 -> 2 -> 3
        let t = idx(0, &[None, Some(0), Some(1), Some(2)]);
        assert_eq!(t.tree_size(), 4);
        assert_eq!(
            t.order(),
            &[VertexId(0), VertexId(1), VertexId(2), VertexId(3)]
        );
        assert_eq!(t.subtree(VertexId(1)), 1..4);
        assert_eq!(t.subtree_size(VertexId(2)), 2);
        assert!(t.is_ancestor(VertexId(0), VertexId(3)));
        assert!(t.is_ancestor(VertexId(2), VertexId(2)));
        assert!(!t.is_ancestor(VertexId(3), VertexId(2)));
        assert_eq!(t.root(), VertexId(0));
    }

    #[test]
    fn star_tree_subtrees_are_singletons() {
        let t = idx(0, &[None, Some(0), Some(0), Some(0)]);
        assert_eq!(t.subtree(VertexId(0)), 0..4);
        for v in 1..4u32 {
            assert_eq!(t.subtree_size(VertexId(v)), 1);
            assert!(t.is_ancestor(VertexId(0), VertexId(v)));
            assert!(!t.is_ancestor(VertexId(1), VertexId(v)) || v == 1);
        }
    }

    #[test]
    fn branching_tree_intervals_are_contiguous_subtrees() {
        //      0
        //     / \
        //    1   2
        //   / \    \
        //  3   4    5
        let t = idx(0, &[None, Some(0), Some(0), Some(1), Some(1), Some(2)]);
        for v in 0..6u32 {
            let v = VertexId(v);
            let range = t.subtree(v);
            // every vertex in the interval is a descendant, everything
            // outside is not
            for (pos, &w) in t.order().iter().enumerate() {
                assert_eq!(
                    range.contains(&pos),
                    t.is_ancestor(v, w),
                    "subtree({v:?}) vs {w:?}"
                );
            }
        }
        assert_eq!(t.subtree_size(VertexId(1)), 3);
        assert_eq!(t.subtree_size(VertexId(2)), 2);
    }

    #[test]
    fn unreachable_vertices_are_out_of_tree() {
        let t = idx(0, &[None, Some(0), None, Some(2)]);
        assert!(t.in_tree(VertexId(0)));
        assert!(t.in_tree(VertexId(1)));
        assert!(!t.in_tree(VertexId(2)), "disconnected component");
        assert!(!t.in_tree(VertexId(3)), "reachable only from 2");
        assert_eq!(t.tree_size(), 2);
        assert_eq!(t.subtree(VertexId(2)), 0..0);
        assert!(!t.is_ancestor(VertexId(0), VertexId(2)));
        assert!(!t.is_ancestor(VertexId(2), VertexId(3)));
    }

    #[test]
    fn preorder_matches_order_positions() {
        let t = idx(0, &[None, Some(0), Some(0), Some(1)]);
        for (pos, &v) in t.order().iter().enumerate() {
            assert_eq!(t.preorder(v), Some(pos as u32));
        }
        let u = idx(0, &[None, Some(0), None]);
        assert_eq!(u.preorder(VertexId(2)), None, "out-of-tree vertex");
    }

    #[test]
    fn deep_path_does_not_overflow_the_stack() {
        let n = 100_000u32;
        let parents: Vec<Option<u32>> = (0..n)
            .map(|i| if i == 0 { None } else { Some(i - 1) })
            .collect();
        let t = idx(0, &parents);
        assert_eq!(t.tree_size(), n as usize);
        assert!(t.is_ancestor(VertexId(0), VertexId(n - 1)));
        assert_eq!(t.subtree_size(VertexId(n / 2)), (n - n / 2) as usize);
    }
}

//! Rooted-tree utilities on the BFS tree `T0`.
//!
//! The Phase S2 machinery of the paper needs two tree-structural tools
//! beyond the preorder index [`EulerTourIndex`](ftb_sp::EulerTourIndex) that
//! every [`ShortestPathTree`](ftb_sp::ShortestPathTree) carries (ancestor
//! tests, and with them the `∼` relation between failing edges, are interval
//! tests on it):
//!
//! * the Sleator–Tarjan / Baswana–Khanna *heavy-path decomposition* of `T0`
//!   (Fact 3.3 / Fact 4.1) — [`HeavyPathDecomposition`],
//! * the exponential decomposition of each shortest path `π(s, v)` into
//!   `O(log n)` subsegments of geometrically decreasing length (Eq. 5) —
//!   [`SegmentDecomposition`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hld;
pub mod segments;

pub use hld::{HeavyPathDecomposition, TreePath};
pub use segments::SegmentDecomposition;

/// A data-free handle for callers that pass a tree index to
/// `InterferenceIndex::build`. Ancestor tests are interval tests on
/// [`ShortestPathTree::euler`](ftb_sp::ShortestPathTree::euler); no
/// production code needs least common ancestors.
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeIndex;

impl TreeIndex {
    /// The handle for `tree` (no work, no allocation).
    pub fn build(_tree: &ftb_sp::ShortestPathTree) -> Self {
        TreeIndex
    }
}

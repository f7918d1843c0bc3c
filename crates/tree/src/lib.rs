//! Rooted-tree utilities on the BFS tree `T0`.
//!
//! The Phase S2 machinery of the paper needs three tree-structural tools:
//!
//! * ancestor tests and least common ancestors on `T0` (used to define the
//!   `∼` relation between failing edges and to reason about detours) —
//!   [`TreeIndex`],
//! * the Sleator–Tarjan / Baswana–Khanna *heavy-path decomposition* of `T0`
//!   (Fact 3.3 / Fact 4.1) — [`HeavyPathDecomposition`],
//! * the exponential decomposition of each shortest path `π(s, v)` into
//!   `O(log n)` subsegments of geometrically decreasing length (Eq. 5) —
//!   [`SegmentDecomposition`].
//!
//! The serving side adds a fourth tool: [`EulerTourIndex`], preorder
//! subtree intervals built straight from a BFS parent row, which the query
//! engine uses to address the *affected set* of a fault in `O(1)` for its
//! incremental post-failure row repair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod euler;
pub mod hld;
pub mod index;
pub mod segments;

pub use euler::EulerTourIndex;
pub use hld::{HeavyPathDecomposition, TreePath};
pub use index::TreeIndex;
pub use segments::SegmentDecomposition;

//! Shortest-path machinery for the FT-BFS reproduction.
//!
//! The paper works with *unique* shortest paths: a positive weight assignment
//! `W` breaks ties so that `SP(s, v, G', W)` is a single canonical path in
//! every subgraph `G' ⊆ G`. This crate provides:
//!
//! * [`TieBreakWeights`] — the per-edge tie-breaking weights `W`,
//! * [`bfs`] — plain hop-count BFS over (masked) graphs,
//! * [`EulerTourIndex`] — the one preorder type, built from a parent row,
//! * [`sweep`] — the one boundary-seeded BFS kernel ([`BoundarySweep`]),
//!   run by construction's subtree searches and the query engine's misses,
//! * [`canonical`] — the canonical `(hops, Σ tie-weights)` search
//!   implementing `SP(·, ·, ·, W)`: the sweep plus a tie-breaking parent
//!   pass over reusable scratch, with inline edge filters. It builds `T0`
//!   and the replacement rows, and is the tests' oracle for [`CutTree`],
//! * [`cut`] — [`CutTree`], `T0` repaired in place under nested faults
//!   with an undo log: the tree of every construction fault,
//! * [`lex`] — the heap-based lexicographic Dijkstra the kernel is tested
//!   against (a reference oracle; no production caller),
//! * [`ShortestPathTree`] — the BFS tree `T0 = ⋃_v π(s, v)` rooted at the
//!   source, with parent pointers, depths, tie sums, its preorder index and
//!   path extraction,
//! * [`replacement`] — replacement distances `dist(s, ·, G \ {e})` for
//!   every tree edge `e`, one row over the subtree `e` cuts off, computed in
//!   parallel: the tests' oracle for the targets `Pcons` finds itself,
//! * [`TimestampedVector`] — generation-stamped scratch whose reset is
//!   `O(1)`, backing the query engine's full-sweep scratch and target marks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod canonical;
pub mod cut;
pub mod euler;
pub mod lex;
pub mod path;
pub mod replacement;
pub mod sp_tree;
pub mod sweep;
pub mod timestamped;
pub mod weights;

pub use bfs::{bfs_distances, bfs_distances_view};
pub use canonical::{canonical_parent, CanonicalScratch};
pub use cut::CutTree;
pub use euler::EulerTourIndex;
pub use lex::LexSearch;
pub use path::Path;
pub use replacement::ReplacementDistances;
pub use sp_tree::ShortestPathTree;
pub use sweep::{BoundarySweep, Region};
pub use timestamped::TimestampedVector;
pub use weights::TieBreakWeights;

/// Hop distance value used throughout: `u32::MAX` denotes "unreachable".
pub const UNREACHABLE: u32 = u32::MAX;

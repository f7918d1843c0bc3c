//! Shortest-path machinery for the FT-BFS reproduction.
//!
//! The paper works with *unique* shortest paths: a positive weight assignment
//! `W` breaks ties so that `SP(s, v, G', W)` is a single canonical path in
//! every subgraph `G' ⊆ G`. This crate provides:
//!
//! * [`TieBreakWeights`] — the per-edge tie-breaking weights `W`,
//! * [`bfs`] — plain hop-count BFS over (masked) graphs,
//! * [`canonical`] — the canonical `(hops, Σ tie-weights)` search
//!   implementing `SP(·, ·, ·, W)`: an allocation-free two-sweep kernel over
//!   reusable scratch with inline edge filters, subtree-bounded searches for
//!   faults below a vertex and hop-bounded single-target probes. It builds
//!   `T0`, the replacement rows, every Algorithm `Pcons` search and every
//!   per-fault-set tree of the replacement-path augmentation,
//! * [`lex`] — the heap-based lexicographic Dijkstra the kernel is tested
//!   against (a reference oracle; no production caller),
//! * [`ShortestPathTree`] — the BFS tree `T0 = ⋃_v π(s, v)` rooted at the
//!   source, with parent pointers, depths, tie sums, preorder subtree
//!   intervals and path extraction,
//! * [`replacement`] — replacement distances `dist(s, ·, G \ {e})` for
//!   every tree edge `e`, one row over the subtree `e` cuts off, computed in
//!   parallel,
//! * [`TimestampedVector`] — generation-stamped scratch whose reset is
//!   `O(1)`, backing the query engine's per-miss sweep state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod canonical;
pub mod lex;
pub mod path;
pub mod replacement;
pub mod sp_tree;
pub mod timestamped;
pub mod weights;

pub use bfs::{bfs_distances, bfs_distances_view};
pub use canonical::CanonicalScratch;
pub use lex::LexSearch;
pub use path::Path;
pub use replacement::ReplacementDistances;
pub use sp_tree::ShortestPathTree;
pub use timestamped::TimestampedVector;
pub use weights::TieBreakWeights;

/// Hop distance value used throughout: `u32::MAX` denotes "unreachable".
pub const UNREACHABLE: u32 = u32::MAX;

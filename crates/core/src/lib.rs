//! `(b, r)` fault-tolerant BFS structures: the reinforcement–backup tradeoff.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Parter & Peleg, *Fault Tolerant BFS Structures: A Reinforcement-Backup
//! Tradeoff*, SPAA 2015). Given an undirected graph `G`, a source `s` and a
//! parameter `ε ∈ [0, 1]`, the construction produces a subgraph `H ⊆ G`
//! together with a set of *reinforced* edges `E' ⊆ E(H)` such that for every
//! vertex `v` and every non-reinforced edge `e`,
//!
//! ```text
//! dist(s, v, H \ {e}) ≤ dist(s, v, G \ {e}),
//! ```
//!
//! with `|E(H) ∖ E'| = O(min{1/ε · n^{1+ε} log n, n^{3/2}})` backup edges and
//! `|E'| = O(1/ε · n^{1-ε} log n)` reinforced edges (Theorem 3.1).
//!
//! # Building structures
//!
//! All construction strategies sit behind the [`StructureBuilder`] trait:
//! [`TradeoffBuilder`] (ε-parameterised Theorem 3.1), [`BaselineBuilder`]
//! (the ESA'13 `Θ(n^{3/2})` extreme), [`ReinforcedTreeBuilder`] (the `ε = 0`
//! extreme) and [`MultiSourceBuilder`] (Theorem 5.4 unions). Builders
//! validate input up front and report problems as [`FtbfsError`] — nothing
//! behind the trait panics. [`BuildPlan`] names a strategy as plain data for
//! sweeps and configuration.
//!
//! ```
//! use ftb_core::{BuildConfig, Sources, StructureBuilder, TradeoffBuilder};
//! use ftb_graph::{generators, VertexId};
//!
//! let graph = generators::hypercube(4);
//! let structure = TradeoffBuilder::new(0.3)
//!     .with_config(|c| c.with_seed(7))
//!     .build(&graph, &Sources::single(VertexId(0)))
//!     .expect("hypercube input is valid");
//! println!(
//!     "b = {}, r = {}",
//!     structure.num_backup(),
//!     structure.num_reinforced()
//! );
//! ```
//!
//! # Serving queries
//!
//! A built structure becomes a server through the [`engine`] module: an
//! immutable [`EngineCore`] (shareable across threads via `Arc`), cheap
//! per-thread [`QueryContext`]s, and the [`FaultQueryEngine`] /
//! [`MultiSourceEngine`] facades. Build once, then answer
//! `dist_after_fault` / `path_after_fault` /
//! [`FaultQueryEngine::query_many`] with no per-query allocation; batches
//! are grouped by fault and sharded across worker threads. Beyond single
//! edge failures, the engines accept arbitrary [`FaultSet`]s (edges *and*
//! vertices, up to [`engine::EngineOptions::max_faults`] simultaneous
//! faults) through `dist_after_faults` / `path_after_faults` /
//! `query_many_faults`; see the [`engine`] module docs for the answering
//! model. To serve vertex faults, dual failures and reinforced-edge
//! hypotheticals by **sparse** search instead of full-graph recomputation,
//! run the [`ftbfs`] replacement-path augmentation stage
//! ([`build_augmented_structure`] or [`FtBfsAugmenter`]) and build the
//! engine from the resulting [`AugmentedStructure`].
//!
//! ```
//! use ftb_core::{FaultQueryEngine, Sources, StructureBuilder, TradeoffBuilder};
//! use ftb_graph::{generators, EdgeId, VertexId};
//!
//! let graph = generators::hypercube(4);
//! let structure = TradeoffBuilder::new(0.3)
//!     .build(&graph, &Sources::single(VertexId(0)))
//!     .expect("valid input");
//! let mut engine = FaultQueryEngine::new(&graph, structure).expect("matching graph");
//! let d = engine.dist_after_fault(VertexId(9), EdgeId(0)).expect("in range");
//! assert!(d.is_some(), "one hypercube failure never disconnects");
//! ```
//!
//! # Free functions
//!
//! Besides the builders, each construction has a checked free function
//! ([`try_build_ft_bfs`], [`try_build_baseline_ftbfs`],
//! [`try_build_reinforced_tree`], [`try_build_ft_mbfs`]) that reports
//! invalid input as an [`FtbfsError`].
//!
//! The remaining entry points are [`verify::verify_structure`]
//! (definition-level validation) and [`cost::CostModel`] (the `B/R` price
//! model and optimal-ε selection).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod baseline;
pub mod builder;
pub mod config;
pub mod cost;
pub mod engine;
pub mod error;
pub mod ftbfs;
pub mod mbfs;
pub mod phase_s1;
pub mod phase_s2;
mod snapshot;
pub mod stats;
pub mod structure;
pub mod verify;

pub use algorithm::try_build_ft_bfs;
pub use baseline::{try_build_baseline_ftbfs, try_build_reinforced_tree};
pub use builder::{
    build_augmented_structure, build_structure, BaselineBuilder, BuildPlan, MultiSourceBuilder,
    ReinforcedTreeBuilder, Sources, StructureBuilder, TradeoffBuilder,
};
pub use config::BuildConfig;
pub use cost::CostModel;
pub use engine::{
    engine_layout_hash, EngineCore, EngineObs, EngineOptions, FaultQueryEngine, MultiSourceEngine,
    QueryContext, QueryStats, TierCounters, FORCE_FULL_SWEEP_ENV,
};
pub use error::FtbfsError;
pub use ftbfs::{AugmentCoverage, AugmentStats, AugmentedStructure, FtBfsAugmenter};
pub use mbfs::{try_build_ft_mbfs, MultiSourceStructure};
pub use stats::BuildStats;
pub use structure::FtBfsStructure;
pub use verify::{
    cross_check_fault_sets, dist_after_faults_brute, unprotected_edges, verify_structure,
    FaultSetMismatch, VerificationReport, Violation,
};

// The fault model lives next to the id types in `ftb_graph`; re-export it
// here so engine callers need only one crate in scope.
pub use ftb_graph::{Fault, FaultSet};

// Snapshot serialization: the `Store`/`Load` traits and typed decode errors
// live in `ftb_io`; re-export the pieces snapshot consumers need so the
// serving tier depends on one crate for engine persistence.
pub use ftb_io::{SnapshotError, Store as SnapshotStore, SNAPSHOT_FORMAT_VERSION};

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
//! [`TradeoffBuilder`] is the one construction entry point, behind the
//! [`StructureBuilder`] trait. Its `ε` selects the point on the curve:
//! `ε ≥ 1/2` gives the ESA'13 `Θ(n^{3/2})` baseline, `ε = 0` the reinforced
//! BFS tree, and several sources the FT-MBFS union of Theorem 5.4
//! ([`TradeoffBuilder::build_multi`] keeps the per-source views). The
//! builder validates input up front and reports problems as [`FtbfsError`];
//! it never panics on bad input.
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
//! A built structure becomes a server through the [`engine`] module's two
//! layers: an immutable [`EngineCore`] (shareable across threads via
//! `Arc`) and cheap per-thread [`QueryContext`]s, the one query entry
//! point. Build once, then answer `dist_after_faults` /
//! `dist_many_after_faults` / `path_after_faults` (and their `*_from`
//! forms naming a source of a multi-source core) with no per-query
//! allocation; [`QueryContext::query_many_faults`] groups a batch by fault
//! set and shards it across worker threads. Queries name arbitrary
//! [`FaultSet`]s — edges *and* vertices, up to
//! [`engine::EngineOptions::max_faults`] simultaneous faults; the paper's
//! single edge failure is `FaultSet::from(e)`. See the [`engine`] module
//! docs for the answering model. To serve vertex faults, dual failures and
//! reinforced-edge hypotheticals by **sparse** search instead of full-graph
//! recomputation, run the [`ftbfs`] replacement-path augmentation stage
//! ([`FtBfsAugmenter::from_build_config`] on the builder's configuration)
//! and build the core from the resulting [`AugmentedStructure`].
//!
//! ```
//! use ftb_core::{EngineCore, FaultSet, Sources, StructureBuilder, TradeoffBuilder};
//! use ftb_graph::{generators, EdgeId, VertexId};
//!
//! let graph = generators::hypercube(4);
//! let structure = TradeoffBuilder::new(0.3)
//!     .build(&graph, &Sources::single(VertexId(0)))
//!     .expect("valid input");
//! let core = EngineCore::build(&graph, structure).expect("matching graph");
//! let mut ctx = core.new_context();
//! let e = FaultSet::from(EdgeId(0));
//! let d = ctx.dist_after_faults(&core, VertexId(9), &e).expect("in range");
//! assert!(d.is_some(), "one hypercube failure never disconnects");
//! ```
//!
//! # Checking and pricing
//!
//! The remaining entry points are [`verify::verify_structure`]
//! (definition-level validation) and [`cost::CostModel`] (the `B/R` price
//! model and optimal-ε selection).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod baseline;
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

pub use builder::{Sources, StructureBuilder, TradeoffBuilder};
pub use config::BuildConfig;
pub use cost::CostModel;
pub use engine::{
    engine_layout_hash, EngineCore, EngineObs, EngineOptions, QueryContext, QueryStats,
    TierCounters, FORCE_FULL_SWEEP_ENV,
};
pub use error::FtbfsError;
pub use ftbfs::{AugmentCoverage, AugmentStats, AugmentedStructure, FtBfsAugmenter};
pub use mbfs::MultiSourceStructure;
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

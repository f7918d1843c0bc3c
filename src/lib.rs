//! # ftbfs — Fault Tolerant BFS Structures: A Reinforcement–Backup Tradeoff
//!
//! Facade crate re-exporting the whole reproduction suite of
//! Parter & Peleg, *Fault Tolerant BFS Structures: A Reinforcement-Backup
//! Tradeoff* (SPAA 2015):
//!
//! * [`graph`] — the CSR graph substrate,
//! * [`par`] — scoped-thread data-parallel helpers,
//! * [`sp`] — unique shortest paths, BFS trees, replacement distances,
//! * [`tree`] — LCA, heavy-path decomposition, path segmentation,
//! * [`rp`] — Algorithm `Pcons` and interference analysis,
//! * [`core`] — builders, the fault-query engine, the verifier, the cost
//!   model and multi-source structures,
//! * [`lower_bounds`] — the Theorem 5.1 / 5.4 lower-bound families,
//! * [`workloads`] — deterministic experiment workloads.
//!
//! # Building a structure
//!
//! Every construction strategy implements [`StructureBuilder`]; pick one,
//! configure it fluently, and build:
//!
//! ```
//! use ftbfs::graph::{generators, VertexId};
//! use ftbfs::{Sources, StructureBuilder, TradeoffBuilder};
//!
//! let g = generators::hypercube(4);
//! let structure = TradeoffBuilder::new(0.3)
//!     .with_config(|c| c.with_seed(7))
//!     .build(&g, &Sources::single(VertexId(0)))
//!     .expect("hypercube input is valid");
//! assert_eq!(
//!     structure.num_backup() + structure.num_reinforced(),
//!     structure.num_edges()
//! );
//! ```
//!
//! Invalid input surfaces as a typed [`FtbfsError`] instead of a panic:
//!
//! ```
//! use ftbfs::graph::{generators, VertexId};
//! use ftbfs::{FtbfsError, Sources, StructureBuilder, TradeoffBuilder};
//!
//! let g = generators::hypercube(3);
//! let err = TradeoffBuilder::new(1.5)
//!     .build(&g, &Sources::single(VertexId(0)))
//!     .unwrap_err();
//! assert!(matches!(err, FtbfsError::InvalidEps { .. }));
//! ```
//!
//! # Serving queries
//!
//! Preprocess once into an [`EngineCore`] (immutable, shareable across
//! threads via `Arc`), then answer many post-failure distance/path queries
//! through a per-thread [`QueryContext`] with no per-query allocation.
//! Failures are named as a [`FaultSet`]; the paper's single edge failure is
//! `FaultSet::from(e)`:
//!
//! ```
//! use ftbfs::graph::{generators, VertexId};
//! use ftbfs::{EngineCore, FaultSet, Sources, StructureBuilder, TradeoffBuilder};
//!
//! let g = generators::cycle(8);
//! let structure = TradeoffBuilder::new(0.3)
//!     .build(&g, &Sources::single(VertexId(0)))
//!     .expect("valid input");
//! let core = EngineCore::build(&g, structure).expect("matching graph");
//! let mut ctx = core.new_context();
//! for e in g.edge_ids() {
//!     // a single failure never disconnects a cycle
//!     let d = ctx.dist_after_faults(&core, VertexId(4), &FaultSet::from(e));
//!     assert!(d.unwrap().is_some());
//! }
//! ```
//!
//! # Checked free functions
//!
//! Each builder also has a free function ([`try_build_ft_bfs`],
//! [`try_build_baseline_ftbfs`], [`try_build_reinforced_tree`],
//! [`try_build_ft_mbfs`]) with the same validation. Inputs outside the
//! paper's parameter range, such as `eps = 2.0`, are rejected rather than
//! silently run through another branch:
//!
//! ```
//! use ftbfs::graph::{generators, VertexId};
//! use ftbfs::{try_build_ft_bfs, BuildConfig, FtbfsError};
//!
//! let g = generators::hypercube(4);
//! let structure = try_build_ft_bfs(&g, VertexId(0), &BuildConfig::new(0.3))
//!     .expect("hypercube input is valid");
//! assert_eq!(
//!     structure.num_backup() + structure.num_reinforced(),
//!     structure.num_edges()
//! );
//!
//! let err = try_build_ft_bfs(&g, VertexId(0), &BuildConfig::new(2.0)).unwrap_err();
//! assert!(matches!(err, FtbfsError::InvalidEps { .. }));
//! ```

#![forbid(unsafe_code)]

pub use ftb_core as core;
pub use ftb_graph as graph;
pub use ftb_lower_bounds as lower_bounds;
pub use ftb_obs as obs;
pub use ftb_par as par;
pub use ftb_rp as rp;
pub use ftb_sp as sp;
pub use ftb_tree as tree;
pub use ftb_workloads as workloads;

pub use ftb_core::{
    build_augmented_structure, build_structure, cross_check_fault_sets, dist_after_faults_brute,
    verify_structure, AugmentCoverage, AugmentStats, AugmentedStructure, BaselineBuilder,
    BuildConfig, BuildPlan, BuildStats, CostModel, EngineCore, EngineOptions, Fault, FaultSet,
    FaultSetMismatch, FtBfsAugmenter, FtBfsStructure, FtbfsError, MultiSourceBuilder,
    MultiSourceStructure, QueryContext, QueryStats, ReinforcedTreeBuilder, Sources,
    StructureBuilder, TierCounters, TradeoffBuilder, FORCE_FULL_SWEEP_ENV,
};

pub use ftb_core::EngineObs;

pub use ftb_core::{
    try_build_baseline_ftbfs, try_build_ft_bfs, try_build_ft_mbfs, try_build_reinforced_tree,
};

pub use ftb_core::{SnapshotError, SnapshotStore, SNAPSHOT_FORMAT_VERSION};

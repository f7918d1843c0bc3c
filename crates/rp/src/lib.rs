//! Replacement paths and interference analysis (Phase S0 of the paper).
//!
//! For every vertex `v` and every failing edge `e ∈ π(s, v)`, Algorithm
//! `Pcons` fixes one canonical replacement path `P_{v,e} ∈ SP(s, v, G∖{e})`:
//!
//! 1. if some replacement path ends with an edge already in the BFS tree
//!    `T0`, pick the canonical such path (the pair is *covered*);
//! 2. otherwise the path is *new-ending* and the canonical choice is the
//!    replacement path whose (unique) divergence point from `π(s, v)` is as
//!    close to the source as possible.
//!
//! New-ending paths decompose as `P = π(s, d(P)) ∘ D(P)` where the *detour*
//! `D(P)` is vertex-disjoint from `π(s, v)` apart from its endpoints
//! (Observation 3.2). The interference analysis of Phase S1 classifies how
//! detours of different terminals intersect:
//!
//! * the `∼` relation on failing edges (both on a common root path),
//! * interference (Eq. 1): detours sharing an internal vertex,
//! * π-intersection (Fig. 2): a detour touching the other terminal's tree
//!   path below the LCA,
//! * the A/B/C typing of Eq. (2)–(3).
//!
//! This crate implements all of the above; the actual structure-building
//! phases (S1/S2) live in `ftb-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod interference;
#[cfg(test)]
mod interference_oracle;
#[cfg(test)]
mod oracle;
pub mod pair;
pub mod pcons;
mod walk;

pub use interference::InterferenceIndex;
pub use pair::{PairId, ReplacementPath, VePair};
pub use pcons::{PconsWork, ReplacementPaths};

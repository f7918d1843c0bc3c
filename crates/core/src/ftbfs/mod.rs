//! Sparse replacement-path FT-BFS structures: the successors of the
//! reproduced paper behind the same serving interface.
//!
//! The `(b, r)` tradeoff structure guarantees exactness only for single
//! non-reinforced **edge** failures; everything richer — vertex faults, dual
//! failures, reinforced-edge hypotheticals — previously fell back to a
//! recomputed BFS over the full graph `G ∖ F`. This module implements the
//! upgrade path named by the paper lineage: the single-fault structures of
//! *Sparse Fault-Tolerant BFS Trees* (Parter–Peleg, ESA 2013 / 2013 vertex
//! version) and the dual-failure regime of *Dual Failure Resilient BFS
//! Structure* (Parter 2015), realised as an **offline augmentation pass**
//! over the seed structure:
//!
//! * [`FtBfsAugmenter`] — enumerates the fault sets in the coverage family
//!   that can change a canonical shortest path, computes a canonical
//!   replacement tree per set, and adds every rerouted vertex's "last leg"
//!   (its new parent edge) to the structure;
//! * [`AugmentedStructure`] — the result `H⁺ ⊇ H`, carrying the declared
//!   [`AugmentCoverage`] and [`AugmentStats`];
//! * the serving side — [`EngineCore::build_augmented`] — answers every
//!   covered fault set with a banned-element BFS over the compact CSR of
//!   `H⁺ ∖ F` instead of a full-graph recomputation.
//!
//! [`EngineCore::build_augmented`]: crate::engine::EngineCore::build_augmented
//!
//! # Why the construction is exact
//!
//! Fix the tie-breaking weights `W` and write `P(s, v, F)` for the unique
//! canonical (`(hops, Σ W)`-minimal) shortest path in `G ∖ F`. Two facts
//! drive everything:
//!
//! 1. **Prefix closure** — a prefix of a canonical path is the canonical
//!    path to its endpoint (under the same `F`).
//! 2. **Subset stability** — if `P(s, v, F′)` avoids `F ∖ F′` for some
//!    `F′ ⊆ F`, then `P(s, v, F) = P(s, v, F′)`: the minimiser over the
//!    larger graph survives in the smaller one, and minimisers are unique.
//!
//! By (2), a single fault `x` changes some canonical path only if `x` lies
//! on the canonical tree `T0` (a tree edge, or a vertex), and a second fault
//! `y` matters beyond `x` only if `y` lies on the replacement tree `T_x` of
//! `G ∖ {x}`. That bounds the enumeration: `O(n)` first-level faults, and
//! per first-level fault `O(n)` second-level edges — `O(n²)` canonical
//! trees for the dual sweep, none searched from scratch. By (2) again, a
//! fault changes paths only below itself in the current tree, so one
//! [`CutTree`](ftb_sp::CutTree) per worker cuts `x` from `T0`, then cuts
//! and undoes each `f` of `T_x`, each cut searching its subtree alone: the
//! single layer costs `Σ_x |subtree_{T0}(x)|`, the dual layer
//! `Σ_x Σ_f |subtree_{T_x}(f)|` (plus the edges around them), not `n + m`
//! per tree.
//!
//! Adding the last leg of every changed path then suffices by induction on
//! path length, exactly the Parter–Peleg argument: each edge of
//! `P(s, v, F)` is the last edge of a prefix `P(s, u, F)` (by (1)), which by
//! (2) equals `P(s, u, F′)` for the minimal binding `F′ ⊆ F` — and the pass
//! for `F′` added that edge (or it is a `T0` edge, which `H⁺` always
//! contains). Hence `P(s, v, F) ⊆ H⁺` and
//! `dist(s, v, H⁺ ∖ F) = dist(s, v, G ∖ F)` for every covered `F`; the
//! reverse inequality is immediate from `H⁺ ⊆ G`.
//!
//! The covered family ([`AugmentCoverage::DualFailure`]) is every
//! `|F| ≤ 2` set with **at most one vertex fault**. Two simultaneous vertex
//! faults have no published sparse structure and keep the exact full-graph
//! fallback (see the ROADMAP decision record).
//!
//! # Size
//!
//! The single-fault layer adds the last legs of canonical replacement
//! paths, the object the papers bound by `O(n^{3/2})` edges; the dual layer
//! corresponds to Parter 2015's `O(n^{5/3})` regime. We do not re-derive
//! the bounds for the lex-canonical path choice used here — measured sizes
//! are reported per run in [`AugmentStats`] (the `augmented_structures`
//! example prints them), and `|E(H⁺)| ≤ m` always holds since `H⁺ ⊆ G`.

mod augment;
mod structure;

pub use augment::FtBfsAugmenter;
pub use structure::{AugmentCoverage, AugmentStats, AugmentedStructure};

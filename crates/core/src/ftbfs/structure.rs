//! The augmented structure type: [`AugmentedStructure`], its coverage
//! contract [`AugmentCoverage`] and construction counters [`AugmentStats`].

use crate::structure::FtBfsStructure;
use ftb_graph::{BitSet, FaultSet, VertexId};

/// Which fault-set family an augmented structure answers exactly with a
/// sparse search over `H⁺ ∖ F`.
///
/// Coverage is a *contract*: the [`FtBfsAugmenter`](super::FtBfsAugmenter)
/// runs exactly the replacement-path passes the declared coverage needs, and
/// the serving engine routes a query to the augmented tier only when
/// [`AugmentCoverage::covers`] accepts its fault set — everything else falls
/// back (see the [engine docs](crate::engine)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum AugmentCoverage {
    /// No augmentation: the structure carries no extra edges and the
    /// augmented tier never fires. The default, and what a plain
    /// [`FtBfsStructure`] build corresponds to.
    #[default]
    Off,
    /// Single faults (Parter–Peleg 2013 regime): any one failed edge —
    /// including the hypothetical failure of a reinforced edge — or any one
    /// failed vertex.
    SingleFault,
    /// Dual failures (Parter 2015 regime): every fault set of size ≤ 2 with
    /// at most one vertex fault — single faults, dual edge failures, and a
    /// vertex plus an edge. Two simultaneous **vertex** faults remain
    /// outside every published sparse structure and fall back to the exact
    /// full-graph recomputation.
    DualFailure,
}

impl AugmentCoverage {
    /// `true` if a query under `faults` may be routed to the augmented tier
    /// (a banned-element BFS over `H⁺ ∖ F`) and still be exact.
    pub fn covers(&self, faults: &FaultSet) -> bool {
        let vertex_faults = faults.vertices().count();
        match self {
            AugmentCoverage::Off => false,
            AugmentCoverage::SingleFault => faults.len() == 1,
            AugmentCoverage::DualFailure => faults.len() <= 2 && vertex_faults <= 1,
        }
    }

    /// Short table-friendly name.
    pub fn name(&self) -> &'static str {
        match self {
            AugmentCoverage::Off => "off",
            AugmentCoverage::SingleFault => "single-fault",
            AugmentCoverage::DualFailure => "dual-failure",
        }
    }
}

/// Counters describing one augmentation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AugmentStats {
    /// Edges of the seed structure `H`.
    pub base_edges: usize,
    /// Canonical-tree edges inserted that the seed structure lacked
    /// (non-zero only when the augmenter's tie-break seed differs from the
    /// seed the structure was built with).
    pub tree_edges_added: usize,
    /// Last-leg edges added by the single-fault passes.
    pub single_added: usize,
    /// Last-leg edges added by the dual-failure passes.
    pub dual_added: usize,
    /// Single-fault replacement trees computed, summed over sources: one per
    /// reachable non-source vertex and per tree edge cut (the reinforced
    /// ones with [`AugmentCoverage::SingleFault`], all of them with
    /// [`AugmentCoverage::DualFailure`]).
    pub single_passes: usize,
    /// Dual-failure replacement trees computed.
    pub dual_passes: usize,
    /// Wall-clock milliseconds spent augmenting.
    pub augment_ms: f64,
    /// Wall-clock ms setting up canonical trees and fault lists (summed over
    /// sources).
    pub setup_ms: f64,
    /// Wall-clock ms in the parallel replacement-tree sweeps (summed over
    /// sources).
    pub sweep_ms: f64,
    /// Wall-clock ms merging per-fault edge lists into `H⁺` (summed over
    /// sources).
    pub merge_ms: f64,
}

impl AugmentStats {
    /// Total edges the augmentation added on top of `H`.
    pub fn total_added(&self) -> usize {
        self.tree_edges_added + self.single_added + self.dual_added
    }
}

/// A seed FT-BFS structure `H` plus the replacement-path "last leg" edges
/// that make sparse searches exact for a declared fault family: the
/// augmented structure `H⁺ ⊇ H`.
///
/// Built by [`FtBfsAugmenter`](super::FtBfsAugmenter); served by
/// [`EngineCore::build_augmented`](crate::engine::EngineCore::build_augmented).
/// The exactness guarantee:
/// for every fault set `F` accepted by [`AugmentedStructure::covers`] and
/// every vertex `v`,
///
/// ```text
/// dist(s, v, H⁺ ∖ F) = dist(s, v, G ∖ F)
/// ```
///
/// for every source `s` in [`AugmentedStructure::sources`]. This is the
/// defining property of the Parter–Peleg 2013 single-fault and Parter 2015
/// dual-failure structures, realised here by the canonical last-leg
/// construction (see the [module docs](super) for the argument).
#[derive(Clone, Debug)]
pub struct AugmentedStructure {
    pub(crate) base: FtBfsStructure,
    /// Edge set of `H⁺` (always a superset of the base edges plus the
    /// canonical BFS tree of every source).
    pub(crate) edges: BitSet,
    pub(crate) sources: Vec<VertexId>,
    pub(crate) coverage: AugmentCoverage,
    pub(crate) stats: AugmentStats,
}

impl AugmentedStructure {
    /// The seed structure `H` the augmentation started from.
    pub fn base(&self) -> &FtBfsStructure {
        &self.base
    }

    /// The sources whose replacement paths were augmented (slot order
    /// matches the serving engine's).
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// The primary source.
    pub fn primary_source(&self) -> VertexId {
        self.sources[0]
    }

    /// The declared (and constructed-for) fault coverage.
    pub fn coverage(&self) -> AugmentCoverage {
        self.coverage
    }

    /// `true` if a query under `faults` is inside this structure's exactness
    /// guarantee.
    pub fn covers(&self, faults: &FaultSet) -> bool {
        self.coverage.covers(faults)
    }

    /// The edge set of `H⁺` as a bitset over the parent graph's edge ids.
    pub fn edge_set(&self) -> &BitSet {
        &self.edges
    }

    /// Total number of edges `|E(H⁺)|`.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Edges added on top of the seed structure.
    pub fn added_edges(&self) -> usize {
        self.num_edges() - self.base.num_edges()
    }

    /// Augmentation counters.
    pub fn stats(&self) -> &AugmentStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_graph::{EdgeId, Fault};

    fn set(faults: &[Fault]) -> FaultSet {
        faults.iter().copied().collect()
    }

    #[test]
    fn coverage_accepts_exactly_the_declared_family() {
        let e0 = Fault::Edge(EdgeId(0));
        let e1 = Fault::Edge(EdgeId(1));
        let v0 = Fault::Vertex(VertexId(0));
        let v1 = Fault::Vertex(VertexId(1));

        let off = AugmentCoverage::Off;
        assert!(!off.covers(&set(&[e0])));

        let single = AugmentCoverage::SingleFault;
        assert!(single.covers(&set(&[e0])));
        assert!(single.covers(&set(&[v0])));
        assert!(!single.covers(&set(&[e0, e1])));
        assert!(!single.covers(&FaultSet::new()));

        let dual = AugmentCoverage::DualFailure;
        assert!(dual.covers(&set(&[e0])));
        assert!(dual.covers(&set(&[v0])));
        assert!(dual.covers(&set(&[e0, e1])));
        assert!(dual.covers(&set(&[e0, v0])));
        assert!(!dual.covers(&set(&[v0, v1])), "dual vertex faults excluded");
        assert!(!dual.covers(&set(&[e0, e1, v0])));
    }

    #[test]
    fn coverage_ordering_and_names() {
        assert!(AugmentCoverage::Off < AugmentCoverage::SingleFault);
        assert!(AugmentCoverage::SingleFault < AugmentCoverage::DualFailure);
        assert_eq!(AugmentCoverage::default(), AugmentCoverage::Off);
        assert_eq!(AugmentCoverage::DualFailure.name(), "dual-failure");
    }

    #[test]
    fn stats_total_sums_layers() {
        let s = AugmentStats {
            tree_edges_added: 1,
            single_added: 2,
            dual_added: 4,
            ..Default::default()
        };
        assert_eq!(s.total_added(), 7);
    }
}

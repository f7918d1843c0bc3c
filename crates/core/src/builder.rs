//! The one construction entry point: [`TradeoffBuilder`] behind the
//! [`StructureBuilder`] trait.
//!
//! Theorem 3.1 is one construction parameterised by `ε`; its extremes are
//! the ESA'13 baseline (`ε ≥ 1/2`) and the reinforced BFS tree (`ε = 0`),
//! and several sources build the FT-MBFS union. All of them come from the
//! same builder:
//!
//! ```
//! use ftb_core::{BuildConfig, Sources, StructureBuilder, TradeoffBuilder};
//! use ftb_graph::{generators, VertexId};
//!
//! let graph = generators::hypercube(4);
//! let builder = TradeoffBuilder::new(0.3).with_config(|c| c.with_seed(7));
//! let structure = builder
//!     .build(&graph, &Sources::single(VertexId(0)))
//!     .expect("hypercube input is valid");
//! assert_eq!(
//!     structure.num_backup() + structure.num_reinforced(),
//!     structure.num_edges()
//! );
//! ```
//!
//! The builder validates all input up front and reports problems as
//! [`FtbfsError`] values; it never panics on bad input. The replacement-path
//! augmentation stage runs on the result:
//! [`FtBfsAugmenter::from_build_config`](crate::FtBfsAugmenter::from_build_config)
//! takes the same configuration.

use crate::algorithm::{build_tradeoff_impl, validate_input};
use crate::config::BuildConfig;
use crate::error::FtbfsError;
use crate::mbfs::{build_union, MultiSourceStructure};
use crate::structure::FtBfsStructure;
use ftb_graph::{Graph, VertexId};

/// The source set a structure is built for.
///
/// A structure protects distances from every listed source; more than one
/// source builds the multi-source union. Emptiness is diagnosed at build
/// time as [`FtbfsError::EmptySources`], so `Sources` values can be
/// assembled freely.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sources {
    vertices: Vec<VertexId>,
}

impl Sources {
    /// A single source.
    pub fn single(source: VertexId) -> Self {
        Sources {
            vertices: vec![source],
        }
    }

    /// An arbitrary source set (order preserved, duplicates tolerated — they
    /// are ignored by the union construction).
    pub fn multi(sources: impl Into<Vec<VertexId>>) -> Self {
        Sources {
            vertices: sources.into(),
        }
    }

    /// The sources as a slice.
    pub fn as_slice(&self) -> &[VertexId] {
        &self.vertices
    }

    /// The first source, if any — the root of a collapsed union structure.
    pub fn primary(&self) -> Option<VertexId> {
        self.vertices.first().copied()
    }

    /// Number of sources (duplicates included).
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// `true` for an empty source set.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

impl From<VertexId> for Sources {
    fn from(v: VertexId) -> Self {
        Sources::single(v)
    }
}

impl From<Vec<VertexId>> for Sources {
    fn from(vs: Vec<VertexId>) -> Self {
        Sources::multi(vs)
    }
}

impl From<&[VertexId]> for Sources {
    fn from(vs: &[VertexId]) -> Self {
        Sources::multi(vs.to_vec())
    }
}

/// A construction of fault-tolerant BFS structures.
///
/// Implementations validate `(graph, sources)` against their configuration
/// before doing any work and never panic on invalid input. For a
/// multi-element source set the result is the union of the per-source
/// structures, rooted at the first source; use
/// [`TradeoffBuilder::build_multi`] when the per-source views are needed.
pub trait StructureBuilder {
    /// Build a fault-tolerant BFS structure over `graph` for `sources`.
    fn build(&self, graph: &Graph, sources: &Sources) -> Result<FtBfsStructure, FtbfsError>;
}

/// Builder for the Theorem 3.1 reinforcement–backup tradeoff construction.
///
/// `ε` selects the point on the tradeoff curve: `Õ(n^{1+ε})` backup edges
/// against `Õ(n^{1-ε})` reinforced edges. `ε ≥ 1/2` builds the ESA'13
/// `Θ(n^{3/2})` baseline (no reinforcement), `ε = 0` the reinforced BFS
/// tree (no backup). Several sources build the FT-MBFS union.
#[derive(Clone, Debug)]
pub struct TradeoffBuilder {
    config: BuildConfig,
}

impl TradeoffBuilder {
    /// Tradeoff construction at the given `ε` (validated at build time).
    pub fn new(eps: f64) -> Self {
        TradeoffBuilder {
            config: BuildConfig::new(eps),
        }
    }

    /// Builder from a fully specified configuration.
    pub fn from_config(config: BuildConfig) -> Self {
        TradeoffBuilder { config }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &BuildConfig {
        &self.config
    }

    /// Adjust the configuration through a fluent closure, e.g.
    /// `.with_config(|c| c.with_seed(7).serial())`.
    pub fn with_config(mut self, f: impl FnOnce(BuildConfig) -> BuildConfig) -> Self {
        self.config = f(self.config);
        self
    }

    /// Build the multi-source structure with its per-source views.
    /// Duplicate sources are ignored.
    pub fn build_multi(
        &self,
        graph: &Graph,
        sources: &Sources,
    ) -> Result<MultiSourceStructure, FtbfsError> {
        build_union(graph, sources.as_slice(), &self.config)
    }
}

impl StructureBuilder for TradeoffBuilder {
    fn build(&self, graph: &Graph, sources: &Sources) -> Result<FtBfsStructure, FtbfsError> {
        match *sources.as_slice() {
            [] => Err(FtbfsError::EmptySources),
            [source] => {
                validate_input(graph, source, &self.config)?;
                Ok(build_tradeoff_impl(graph, source, &self.config))
            }
            _ => Ok(self.build_multi(graph, sources)?.into_union_structure()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_structure;
    use ftb_graph::generators;
    use ftb_par::ParallelConfig;
    use ftb_sp::{ShortestPathTree, TieBreakWeights};

    fn verify(graph: &Graph, s: &FtBfsStructure, seed: u64) {
        let weights = TieBreakWeights::generate(graph, seed);
        let tree = ShortestPathTree::build(graph, &weights, s.source());
        let report = verify_structure(graph, &tree, s, &ParallelConfig::serial(), false);
        assert!(report.is_valid());
    }

    #[test]
    fn every_builder_produces_a_valid_structure() {
        let g = generators::hypercube(4);
        for eps in [0.3, 1.0, 0.0] {
            let s = TradeoffBuilder::new(eps)
                .with_config(|c| c.with_seed(5).serial())
                .build(&g, &Sources::single(VertexId(0)))
                .unwrap_or_else(|e| panic!("eps = {eps} failed: {e}"));
            verify(&g, &s, 5);
            assert_eq!(s.source(), VertexId(0), "eps = {eps}");
        }
    }

    #[test]
    fn multi_source_union_is_exposed_both_ways() {
        let g = generators::grid(5, 5);
        let sources = Sources::multi(vec![VertexId(0), VertexId(24)]);
        let b = TradeoffBuilder::new(0.25).with_config(|c| c.with_seed(7).serial());
        let multi = b.build_multi(&g, &sources).expect("valid input");
        let collapsed = b.build(&g, &sources).expect("valid input");
        assert_eq!(multi.num_edges(), collapsed.num_edges());
        assert_eq!(multi.num_reinforced(), collapsed.num_reinforced());
        assert_eq!(collapsed.source(), VertexId(0));
    }

    #[test]
    fn builders_reject_bad_input_with_typed_errors() {
        let g = generators::grid(3, 3);
        let b = TradeoffBuilder::new(1.7);
        assert!(matches!(
            b.build(&g, &Sources::single(VertexId(0))),
            Err(FtbfsError::InvalidEps { .. })
        ));
        let b = TradeoffBuilder::new(0.3);
        assert!(matches!(
            b.build(&g, &Sources::single(VertexId(99))),
            Err(FtbfsError::SourceOutOfRange { .. })
        ));
        assert_eq!(
            b.build(&g, &Sources::multi(Vec::new())).unwrap_err(),
            FtbfsError::EmptySources
        );
    }

    #[test]
    fn sources_conversions_and_accessors() {
        let s: Sources = VertexId(3).into();
        assert_eq!(s.primary(), Some(VertexId(3)));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        let m: Sources = vec![VertexId(1), VertexId(2)].into();
        assert_eq!(m.as_slice(), &[VertexId(1), VertexId(2)]);
        let from_slice: Sources = [VertexId(5)].as_slice().into();
        assert_eq!(from_slice, Sources::single(VertexId(5)));
        assert!(Sources::multi(Vec::new()).is_empty());
    }
}

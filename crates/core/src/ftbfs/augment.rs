//! The offline replacement-path augmentation pass: [`FtBfsAugmenter`].

use super::structure::{AugmentCoverage, AugmentStats, AugmentedStructure};
use crate::config::BuildConfig;
use crate::error::FtbfsError;
use crate::mbfs::MultiSourceStructure;
use crate::structure::FtBfsStructure;
use ftb_graph::{BitSet, EdgeId, Fault, Graph, VertexId};
use ftb_par::{parallel_map_init, ParallelConfig};
use ftb_sp::{CutTree, ShortestPathTree, TieBreakWeights};
use std::time::Instant;

/// Offline augmentation stage turning a seed structure `H` into an
/// [`AugmentedStructure`] `H⁺` whose sparse searches are exact for the
/// declared [`AugmentCoverage`].
///
/// The pass enumerates fault sets in the coverage family that can actually
/// change a canonical shortest path and can reach the augmented tier
/// (first level: vertices and tree edges; second level: edges of the first
/// fault's replacement tree — see the [module docs](super) for which and
/// why this enumeration is sufficient), computes
/// the canonical replacement tree of `G ∖ F` for each, and records the
/// "last leg" (the rerouted parent edge) of every vertex whose canonical
/// path changed. Every tree is a [`CutTree`] repair: a fault changes paths
/// only below itself in the current tree, so the first fault `x` is cut
/// from `T0`'s rows (a search of its `T0` subtree alone), and with
/// [`AugmentCoverage::DualFailure`] each edge `f` of `T_x` is then cut on
/// `T_x`'s rows (a search of its `T_x` subtree) and undone. First-level
/// faults are distributed over [`ParallelConfig`] workers, each owning one
/// [`CutTree`]; a first fault's dual cuts run in the same task.
///
/// ```
/// use ftb_core::ftbfs::{AugmentCoverage, FtBfsAugmenter};
/// use ftb_core::{Sources, StructureBuilder, TradeoffBuilder};
/// use ftb_graph::{generators, VertexId};
///
/// let graph = generators::hypercube(4);
/// let structure = TradeoffBuilder::new(0.3)
///     .with_config(|c| c.with_seed(7).serial())
///     .build(&graph, &Sources::single(VertexId(0)))
///     .expect("valid input");
/// let augmented = FtBfsAugmenter::new(AugmentCoverage::DualFailure)
///     .with_seed(7)
///     .serial()
///     .augment(&graph, structure)
///     .expect("matching graph");
/// assert!(augmented.num_edges() >= augmented.base().num_edges());
/// ```
#[derive(Clone, Debug)]
pub struct FtBfsAugmenter {
    coverage: AugmentCoverage,
    seed: u64,
    parallel: ParallelConfig,
}

impl FtBfsAugmenter {
    /// An augmenter for the given coverage, with the default tie-break seed
    /// and the default (env-overridable) thread configuration.
    pub fn new(coverage: AugmentCoverage) -> Self {
        FtBfsAugmenter {
            coverage,
            seed: 0xF7B5_0001,
            parallel: ParallelConfig::default(),
        }
    }

    /// Lift the augmentation-relevant fields out of a build configuration
    /// (coverage, tie-break seed, worker threads).
    pub fn from_build_config(config: &BuildConfig) -> Self {
        FtBfsAugmenter {
            coverage: config.augment,
            seed: config.seed,
            parallel: config.parallel.clone(),
        }
    }

    /// Set the tie-breaking weight seed (use the seed the structure was
    /// built with to make `H⁺ ∖ H` as small as possible — a different seed
    /// is still exact but re-adds the canonical tree).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the worker-thread configuration for the replacement sweeps.
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Run the sweeps on the calling thread only.
    pub fn serial(mut self) -> Self {
        self.parallel = ParallelConfig::serial();
        self
    }

    /// The coverage this augmenter constructs for.
    pub fn coverage(&self) -> AugmentCoverage {
        self.coverage
    }

    /// Augment a single-source structure for its own source.
    ///
    /// # Errors
    ///
    /// [`FtbfsError::StructureMismatch`] when the structure's edge space
    /// does not match `graph`, [`FtbfsError::SourceOutOfRange`] for a source
    /// outside the graph.
    pub fn augment(
        &self,
        graph: &Graph,
        structure: FtBfsStructure,
    ) -> Result<AugmentedStructure, FtbfsError> {
        let source = structure.source();
        self.augment_sources(graph, structure, &[source])
    }

    /// Augment a (possibly collapsed multi-source) structure for an explicit
    /// source list. Every source gets its own full set of replacement
    /// passes; the added edges are unioned.
    ///
    /// # Errors
    ///
    /// As [`FtBfsAugmenter::augment`], plus [`FtbfsError::EmptySources`] for
    /// an empty source list.
    pub fn augment_sources(
        &self,
        graph: &Graph,
        structure: FtBfsStructure,
        sources: &[VertexId],
    ) -> Result<AugmentedStructure, FtbfsError> {
        if structure.edge_set().capacity() != graph.num_edges() {
            return Err(FtbfsError::StructureMismatch {
                structure_edges: structure.edge_set().capacity(),
                graph_edges: graph.num_edges(),
            });
        }
        if sources.is_empty() {
            return Err(FtbfsError::EmptySources);
        }
        for &s in sources {
            if s.index() >= graph.num_vertices() {
                return Err(FtbfsError::SourceOutOfRange {
                    source: s,
                    num_vertices: graph.num_vertices(),
                });
            }
        }

        let start = Instant::now();
        let mut stats = AugmentStats {
            base_edges: structure.num_edges(),
            ..AugmentStats::default()
        };
        let mut edges = structure.edge_set().clone();

        if self.coverage != AugmentCoverage::Off {
            let weights = TieBreakWeights::generate(graph, self.seed);
            let reinforced = structure.reinforced_set();
            for &source in sources {
                self.augment_one_source(
                    graph, &weights, source, reinforced, &mut edges, &mut stats,
                );
            }
        }
        stats.augment_ms = start.elapsed().as_secs_f64() * 1e3;

        Ok(AugmentedStructure {
            base: structure,
            edges,
            sources: sources.to_vec(),
            coverage: self.coverage,
            stats,
        })
    }

    /// Augment every source of a multi-source structure over its collapsed
    /// union.
    pub fn augment_multi(
        &self,
        graph: &Graph,
        structure: MultiSourceStructure,
    ) -> Result<AugmentedStructure, FtbfsError> {
        let sources = structure.sources().to_vec();
        self.augment_sources(graph, structure.into_union_structure(), &sources)
    }

    /// One source's worth of passes: the canonical tree, the single-fault
    /// sweep, and (with DualFailure coverage) the pair sweep. `reinforced`
    /// is the seed structure's reinforced set.
    fn augment_one_source(
        &self,
        graph: &Graph,
        weights: &TieBreakWeights,
        source: VertexId,
        reinforced: &BitSet,
        edges: &mut BitSet,
        stats: &mut AugmentStats,
    ) {
        let dual = self.coverage >= AugmentCoverage::DualFailure;
        let t_setup = Instant::now();
        let tree = ShortestPathTree::build(graph, weights, source);

        // The canonical tree T0 is the base of every replacement-path
        // prefix argument; make sure H⁺ contains it even if the structure
        // was built with a different tie-break seed.
        for &e in tree.tree_edges() {
            if !edges.contains(e.index()) {
                edges.insert(e.index());
                stats.tree_edges_added += 1;
            }
        }

        // First-level faults: every reachable non-source vertex, and the
        // tree edges the augmented tier can be asked about: the reinforced
        // ones for SingleFault, all of them for DualFailure (module docs).
        // Nothing else can change a canonical path on its own.
        let first_level: Vec<Fault> = tree
            .tree_edges()
            .iter()
            .filter(|e| dual || reinforced.contains(e.index()))
            .map(|&e| Fault::Edge(e))
            .chain(
                graph
                    .vertices()
                    .filter(|&v| v != source && tree.is_reachable(v))
                    .map(Fault::Vertex),
            )
            .collect();
        stats.setup_ms += t_setup.elapsed().as_secs_f64() * 1e3;
        let t_sweep = Instant::now();

        // Each task cuts the first fault `x` from T0's rows, then (dual)
        // cuts and undoes every edge `f` of `T_x`. Outside `f`'s region every
        // vertex keeps its `T_x` leg, which the first cut recorded. A
        // per-worker `seen` bitset dedupes within the task, bounding its
        // output at `m` edges instead of Θ(n) per cut.
        let per_fault: Vec<(Vec<EdgeId>, Vec<EdgeId>, usize)> = parallel_map_init(
            &self.parallel,
            first_level.len(),
            || {
                (
                    CutTree::new(graph, weights, &tree),
                    BitSet::new(graph.num_edges()),
                )
            },
            |(rows, seen), i| {
                rows.cut(first_level[i]);
                let mut single = Vec::new();
                collect_changed_last_legs(rows, seen, &mut single);
                let mut dual_added = Vec::new();
                let mut dual_passes = 0usize;
                if dual {
                    let mark = rows.mark();
                    for v in graph.vertices() {
                        let Some((_, f)) = rows.parent(v) else {
                            continue;
                        };
                        rows.cut(Fault::Edge(f));
                        collect_changed_last_legs(rows, seen, &mut dual_added);
                        rows.undo_to(mark);
                        dual_passes += 1;
                    }
                }
                rows.undo_to(0);
                // The worker (and its bitset) outlives this task: clear
                // exactly the bits this task set.
                for &e in single.iter().chain(dual_added.iter()) {
                    seen.remove(e.index());
                }
                (single, dual_added, dual_passes)
            },
        );
        stats.sweep_ms += t_sweep.elapsed().as_secs_f64() * 1e3;
        let t_merge = Instant::now();

        // Merge the whole single-fault layer before the dual layer so the
        // per-layer `*_added` counters describe the layers themselves, not
        // the interleaving order of the sweep.
        for (single, _, dual_passes) in &per_fault {
            stats.single_passes += 1;
            stats.dual_passes += dual_passes;
            for e in single {
                if !edges.contains(e.index()) {
                    edges.insert(e.index());
                    stats.single_added += 1;
                }
            }
        }
        for (_, dual_added, _) in &per_fault {
            for e in dual_added {
                if !edges.contains(e.index()) {
                    edges.insert(e.index());
                    stats.dual_added += 1;
                }
            }
        }
        stats.merge_ms += t_merge.elapsed().as_secs_f64() * 1e3;
    }
}

/// Append the "last legs" of the last cut's region — the parent edges of
/// its reached vertices whose canonical parent edge differs from their `T0`
/// one — to `out`, skipping edges already recorded in `seen`.
fn collect_changed_last_legs(rows: &CutTree<'_>, seen: &mut BitSet, out: &mut Vec<EdgeId>) {
    for &v in rows.region() {
        let Some((_, e)) = rows.parent(v) else {
            continue; // cut off
        };
        if rows.tree().parent(v).map(|(_, t0)| t0) != Some(e) && !seen.contains(e.index()) {
            seen.insert(e.index());
            out.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Sources, StructureBuilder, TradeoffBuilder};
    use ftb_graph::generators;

    fn build(graph: &Graph, seed: u64) -> FtBfsStructure {
        TradeoffBuilder::new(0.3)
            .with_config(|c| c.with_seed(seed).serial())
            .build(graph, &Sources::single(VertexId(0)))
            .expect("valid input")
    }

    #[test]
    fn off_coverage_adds_nothing() {
        let g = generators::hypercube(4);
        let s = build(&g, 5);
        let base_edges = s.num_edges();
        let aug = FtBfsAugmenter::new(AugmentCoverage::Off)
            .augment(&g, s)
            .expect("matching graph");
        assert_eq!(aug.num_edges(), base_edges);
        assert_eq!(aug.added_edges(), 0);
        assert_eq!(aug.stats().single_passes, 0);
        assert_eq!(aug.coverage(), AugmentCoverage::Off);
    }

    #[test]
    fn augmentation_is_monotone_in_coverage() {
        let g = generators::hypercube(4);
        let single = FtBfsAugmenter::new(AugmentCoverage::SingleFault)
            .with_seed(5)
            .serial()
            .augment(&g, build(&g, 5))
            .expect("matching graph");
        let dual = FtBfsAugmenter::new(AugmentCoverage::DualFailure)
            .with_seed(5)
            .serial()
            .augment(&g, build(&g, 5))
            .expect("matching graph");
        assert!(single.num_edges() <= dual.num_edges());
        assert!(single.num_edges() >= single.base().num_edges());
        assert_eq!(single.stats().dual_passes, 0);
        assert!(dual.stats().dual_passes > 0);
        // H⁺ never leaves G
        assert!(dual.num_edges() <= g.num_edges());
    }

    #[test]
    fn serial_and_parallel_augmentation_agree() {
        let g = generators::grid(5, 6);
        let serial = FtBfsAugmenter::new(AugmentCoverage::DualFailure)
            .with_seed(3)
            .serial()
            .augment(&g, build(&g, 3))
            .expect("matching graph");
        let parallel = FtBfsAugmenter::new(AugmentCoverage::DualFailure)
            .with_seed(3)
            .with_parallel(ParallelConfig::with_threads(4))
            .augment(&g, build(&g, 3))
            .expect("matching graph");
        let a: Vec<usize> = serial.edge_set().iter().collect();
        let b: Vec<usize> = parallel.edge_set().iter().collect();
        assert_eq!(a, b, "augmented edge set must be thread-count independent");
    }

    #[test]
    fn mismatched_graph_and_empty_sources_are_typed_errors() {
        let g = generators::hypercube(3);
        let other = generators::grid(3, 4); // different edge count than the hypercube
        let s = build(&g, 1);
        assert!(matches!(
            FtBfsAugmenter::new(AugmentCoverage::SingleFault).augment(&other, s.clone()),
            Err(FtbfsError::StructureMismatch { .. })
        ));
        assert!(matches!(
            FtBfsAugmenter::new(AugmentCoverage::SingleFault).augment_sources(&g, s.clone(), &[]),
            Err(FtbfsError::EmptySources)
        ));
        assert!(matches!(
            FtBfsAugmenter::new(AugmentCoverage::SingleFault).augment_sources(
                &g,
                s,
                &[VertexId(99)]
            ),
            Err(FtbfsError::SourceOutOfRange { .. })
        ));
    }

    #[test]
    fn foreign_seed_readds_the_canonical_tree() {
        let g = generators::grid(4, 4);
        let s = build(&g, 1);
        let aug = FtBfsAugmenter::new(AugmentCoverage::SingleFault)
            .with_seed(999) // different canonical tree than the build's
            .serial()
            .augment(&g, s)
            .expect("matching graph");
        // Exactness is maintained regardless; the only observable cost is
        // possibly re-added tree edges.
        assert!(aug.stats().total_added() >= aug.stats().tree_edges_added);
    }
}

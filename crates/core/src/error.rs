//! Typed errors for construction and querying.
//!
//! Every entry point of the redesigned API ([`crate::StructureBuilder`],
//! [`crate::QueryContext`], the `try_*` construction functions) reports
//! invalid input through [`FtbfsError`] instead of panicking.

use ftb_graph::{Fault, VertexId};
use std::fmt;

/// Errors produced by the FT-BFS builder and the fault-query engine.
#[derive(Clone, Debug, PartialEq)]
pub enum FtbfsError {
    /// The tradeoff parameter is outside `[0, 1]` (or not a finite number).
    InvalidEps {
        /// The offending value.
        eps: f64,
    },
    /// A requested source vertex does not exist in the graph.
    SourceOutOfRange {
        /// The offending source.
        source: VertexId,
        /// Number of vertices of the graph.
        num_vertices: usize,
    },
    /// The source cannot reach every vertex and the configuration demands a
    /// connected input ([`crate::BuildConfig::require_connected`]).
    DisconnectedSource {
        /// The source whose component does not span the graph.
        source: VertexId,
        /// Number of vertices the source cannot reach.
        num_unreachable: usize,
    },
    /// The configured round/budget overrides degenerate to zero work or
    /// overflow the per-terminal edge-budget accounting.
    BudgetOverflow {
        /// The effective number of Phase S1 rounds.
        k_rounds: usize,
        /// The effective per-terminal budget.
        budget: usize,
    },
    /// A builder was invoked with an empty source set.
    EmptySources,
    /// A query refers to a vertex outside the engine's graph.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: VertexId,
        /// Number of vertices of the graph.
        num_vertices: usize,
    },
    /// A fault set refers to a vertex or edge outside the engine's graph.
    InvalidFault {
        /// The offending fault.
        fault: Fault,
        /// Number of vertices of the graph.
        num_vertices: usize,
        /// Number of edges of the graph.
        num_edges: usize,
    },
    /// A fault set exceeds the engine's configured fault cap
    /// ([`EngineOptions::max_faults`](crate::engine::EngineOptions::max_faults)).
    FaultSetTooLarge {
        /// Size of the offending fault set.
        got: usize,
        /// The configured cap.
        max: usize,
    },
    /// A structure was paired with a graph it was not built from (edge-space
    /// capacities disagree).
    StructureMismatch {
        /// Edge capacity the structure was built for.
        structure_edges: usize,
        /// Edge count of the supplied graph.
        graph_edges: usize,
    },
    /// The structure does not preserve the graph's fault-free distances —
    /// even with matching edge counts it was built from a different graph
    /// (or has been corrupted).
    FaultFreeDistanceMismatch {
        /// A vertex whose distance in the structure differs from the graph.
        vertex: VertexId,
    },
    /// A query context was used with an engine core it was not created by
    /// (`EngineCore::new_context` ties each context to its core).
    ContextMismatch,
    /// A shared engine core (e.g. one restored from a snapshot) was paired
    /// with a graph that does not match the core's own.
    CoreGraphMismatch {
        /// Vertex count of the core's graph.
        core_vertices: usize,
        /// Edge count of the core's graph.
        core_edges: usize,
        /// Vertex count of the supplied graph.
        graph_vertices: usize,
        /// Edge count of the supplied graph.
        graph_edges: usize,
    },
    /// A per-source query named a source the engine core does not serve.
    SourceNotServed {
        /// The requested source.
        source: VertexId,
    },
}

impl fmt::Display for FtbfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtbfsError::InvalidEps { eps } => {
                write!(f, "tradeoff parameter eps = {eps} is outside [0, 1]")
            }
            FtbfsError::SourceOutOfRange {
                source,
                num_vertices,
            } => write!(
                f,
                "source {source:?} is out of range for a graph with {num_vertices} vertices"
            ),
            FtbfsError::DisconnectedSource {
                source,
                num_unreachable,
            } => write!(
                f,
                "source {source:?} cannot reach {num_unreachable} vertices but the \
                 configuration requires a connected input"
            ),
            FtbfsError::BudgetOverflow { k_rounds, budget } => write!(
                f,
                "phase budget overflow: K = {k_rounds} rounds with per-terminal budget \
                 {budget} is not a usable work bound"
            ),
            FtbfsError::EmptySources => write!(f, "the source set is empty"),
            FtbfsError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex:?} is out of range for a graph with {num_vertices} vertices"
            ),
            FtbfsError::InvalidFault {
                fault,
                num_vertices,
                num_edges,
            } => write!(
                f,
                "fault {fault} is out of range for a graph with {num_vertices} vertices \
                 and {num_edges} edges"
            ),
            FtbfsError::FaultSetTooLarge { got, max } => write!(
                f,
                "fault set has {got} faults but the engine caps fault sets at {max}; \
                 raise `EngineOptions::max_faults` to serve larger sets"
            ),
            FtbfsError::StructureMismatch {
                structure_edges,
                graph_edges,
            } => write!(
                f,
                "structure covers an edge space of size {structure_edges} but the graph \
                 has {graph_edges} edges; was it built from a different graph?"
            ),
            FtbfsError::FaultFreeDistanceMismatch { vertex } => write!(
                f,
                "structure does not preserve the fault-free distance of vertex {vertex:?}; \
                 was it built from a different graph?"
            ),
            FtbfsError::ContextMismatch => write!(
                f,
                "query context used with an engine core it was not created by; create \
                 contexts with `EngineCore::new_context` on the core they will serve"
            ),
            FtbfsError::CoreGraphMismatch {
                core_vertices,
                core_edges,
                graph_vertices,
                graph_edges,
            } => write!(
                f,
                "shared engine core was built from a graph with {core_vertices} vertices \
                 and {core_edges} edges but the supplied graph has {graph_vertices} \
                 vertices and {graph_edges} edges"
            ),
            FtbfsError::SourceNotServed { source } => write!(
                f,
                "source {source:?} is not served by this engine core; it was not among \
                 the sources the structure was built for"
            ),
        }
    }
}

impl std::error::Error for FtbfsError {}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_graph::EdgeId;

    #[test]
    fn display_mentions_the_payload() {
        let e = FtbfsError::InvalidEps { eps: 1.5 };
        assert!(e.to_string().contains("1.5"));
        let e = FtbfsError::SourceOutOfRange {
            source: VertexId(9),
            num_vertices: 4,
        };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
        let e = FtbfsError::VertexOutOfRange {
            vertex: VertexId(77),
            num_vertices: 10,
        };
        assert!(e.to_string().contains("77"));
    }

    #[test]
    fn fault_errors_name_the_offender_and_the_cap() {
        let e = FtbfsError::InvalidFault {
            fault: Fault::Vertex(VertexId(12)),
            num_vertices: 10,
            num_edges: 20,
        };
        let msg = e.to_string();
        assert!(msg.contains("v12"), "vertex fault named: {msg}");
        assert!(msg.contains("10") && msg.contains("20"));
        let e = FtbfsError::InvalidFault {
            fault: Fault::Edge(EdgeId(33)),
            num_vertices: 10,
            num_edges: 20,
        };
        assert!(e.to_string().contains("e33"), "edge fault named");

        let e = FtbfsError::FaultSetTooLarge { got: 5, max: 2 };
        let msg = e.to_string();
        assert!(msg.contains('5') && msg.contains('2'));
        assert!(msg.contains("max_faults"), "points at the knob: {msg}");
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(FtbfsError::EmptySources);
        assert!(!e.to_string().is_empty());
    }
}

//! Vertex–edge pairs, the record Algorithm `Pcons` keeps for each of them,
//! and the full replacement path rebuilt on demand.
//!
//! Phases S1, S2 and the reinforcement read only `LastE(P)`, the depths of
//! the failing edge and of the terminal and, for a new-ending pair, the
//! detour `D(P)` (Observation 3.2). So the pair store
//! ([`ReplacementPaths`](crate::ReplacementPaths)) keeps one fixed-size
//! [`PairRecord`] per pair and the detours in one arena. A
//! [`ReplacementPath`], which holds the whole `source → v` path, is built
//! only when asked for, by
//! [`ReplacementPaths::path`](crate::ReplacementPaths::path).

use ftb_graph::{EdgeId, VertexId};
use ftb_sp::Path;

/// Index of a pair inside a [`crate::ReplacementPaths`] collection.
pub type PairId = usize;

/// A vertex–edge pair `⟨v, e⟩`: terminal `v` and a failing edge `e` on the
/// canonical shortest path `π(s, v)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VePair {
    /// The terminal vertex `v`.
    pub terminal: VertexId,
    /// The failing tree edge `e ∈ π(s, v)`.
    pub failing_edge: EdgeId,
}

/// What Algorithm `Pcons` keeps for one pair `⟨v, e⟩`: the facts about its
/// canonical replacement path `P_{v,e}` that the later phases read, in 32
/// bytes and without the path itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairRecord {
    /// The pair this path protects.
    pub pair: VePair,
    /// `LastE(P)`: the last edge of the path.
    pub last_edge: EdgeId,
    /// `true` if the last edge is **not** a tree edge (the pair is then
    /// *uncovered* in the paper's terminology).
    pub new_ending: bool,
    /// For new-ending paths, the unique divergence point `d(P)` from
    /// `π(s, v)`; `None` for covered pairs.
    pub divergence: Option<VertexId>,
    /// Hop depth of the failing edge (`dist(s, e)` = depth of its child
    /// endpoint in `T0`).
    pub failing_edge_depth: u32,
    /// Hop depth of the terminal (`dist(s, v, G)`).
    pub terminal_depth: u32,
}

impl PairRecord {
    /// Distance (in edges) between the failing edge and the terminal along
    /// `π(s, v)` — the ordering key used by Phase S1's "deepest edges first"
    /// rule (`dist(v, e, π(s,v))`).
    pub fn edge_to_terminal_distance(&self) -> u32 {
        self.terminal_depth - self.failing_edge_depth
    }
}

/// The canonical replacement path `P_{v,e}` chosen by Algorithm `Pcons` for a
/// pair `⟨v, e⟩`, in full: the [`PairRecord`] facts plus the path.
#[derive(Clone, Debug)]
pub struct ReplacementPath {
    /// The pair this path protects.
    pub pair: VePair,
    /// The full replacement path from the source to `pair.terminal` in
    /// `G ∖ {pair.failing_edge}`.
    pub path: Path,
    /// `LastE(P)`: the last edge of the path.
    pub last_edge: EdgeId,
    /// `true` if the last edge is **not** a tree edge.
    pub new_ending: bool,
    /// For new-ending paths, the divergence point `d(P)`; `None` for
    /// covered pairs.
    pub divergence: Option<VertexId>,
    /// For new-ending paths, the index of `d(P)` inside `path.vertices()`.
    pub divergence_index: Option<usize>,
    /// Hop depth of the failing edge.
    pub failing_edge_depth: u32,
    /// Hop depth of the terminal.
    pub terminal_depth: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_record_is_32_bytes_and_copy() {
        assert!(std::mem::size_of::<PairRecord>() <= 32);
        let r = PairRecord {
            pair: VePair {
                terminal: VertexId(5),
                failing_edge: EdgeId(99),
            },
            last_edge: EdgeId(4),
            new_ending: true,
            divergence: Some(VertexId(2)),
            failing_edge_depth: 3,
            terminal_depth: 5,
        };
        let copy = r;
        assert_eq!(copy, r);
        assert_eq!(r.edge_to_terminal_distance(), 2);
    }
}

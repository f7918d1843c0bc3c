//! Plain hop-count breadth-first search.
//!
//! Used wherever only distances (not canonical paths) are needed: the
//! protection verifier, the engine cross-checks and the tests' brute-force
//! oracles.

use crate::UNREACHABLE;
use ftb_graph::{Graph, SubgraphView, VertexId};
use std::collections::VecDeque;

/// Hop distances from `source` in the full graph.
///
/// Unreachable vertices get [`UNREACHABLE`].
pub fn bfs_distances(graph: &Graph, source: VertexId) -> Vec<u32> {
    bfs_distances_view(&SubgraphView::full(graph), source)
}

/// Hop distances from `source` in a masked [`SubgraphView`]: the plain
/// brute-force BFS the replacement rows, the protection verifier and the
/// tests check against.
pub fn bfs_distances_view(view: &SubgraphView<'_>, source: VertexId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; view.graph().num_vertices()];
    if !view.allows_vertex(source) {
        return dist;
    }
    dist[source.index()] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for (w, _) in view.neighbors(v) {
            if dist[w.index()] == UNREACHABLE {
                dist[w.index()] = dv + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Eccentricity of `source` (maximum finite hop distance), if any vertex is
/// reachable besides `source` itself.
pub fn eccentricity(graph: &Graph, source: VertexId) -> Option<u32> {
    bfs_distances(graph, source)
        .into_iter()
        .filter(|&d| d != UNREACHABLE)
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_graph::generators;

    #[test]
    fn distances_on_a_path() {
        let g = generators::path(6);
        let d = bfs_distances(&g, VertexId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(eccentricity(&g, VertexId(0)), Some(5));
        assert_eq!(eccentricity(&g, VertexId(3)), Some(3));
    }

    #[test]
    fn distances_on_a_cycle() {
        let g = generators::cycle(8);
        let d = bfs_distances(&g, VertexId(0));
        assert_eq!(d[4], 4);
        assert_eq!(d[7], 1);
        assert_eq!(d[5], 3);
    }

    #[test]
    fn removing_an_edge_lengthens_paths() {
        let g = generators::cycle(8);
        let e = g.find_edge(VertexId(0), VertexId(7)).unwrap();
        let view = SubgraphView::full(&g).without_edge(e);
        let d = bfs_distances_view(&view, VertexId(0));
        assert_eq!(d[7], 7);
        assert_eq!(d[4], 4);
    }

    #[test]
    fn disconnected_vertices_are_unreachable() {
        let g = generators::path(4);
        let e = g.find_edge(VertexId(1), VertexId(2)).unwrap();
        let view = SubgraphView::full(&g).without_edge(e);
        let d = bfs_distances_view(&view, VertexId(0));
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn masked_source_is_isolated() {
        let g = generators::complete(4);
        let mask = ftb_graph::VertexMask::removing(&g, [VertexId(0)]);
        let view = SubgraphView::full(&g).with_vertex_mask(&mask);
        let d = bfs_distances_view(&view, VertexId(0));
        assert!(d.iter().all(|&x| x == UNREACHABLE));
    }
}

//! The immutable CSR road-network graph.

use crate::geom::{Point, Rect};

/// Identifier of a vertex (road intersection or end point, Definition 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The vertex index as a `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a directed edge. Edge ids are CSR positions: the edges of
/// vertex `v` occupy the contiguous range `out_offsets[v]..out_offsets[v+1]`
/// in ascending outgoing-edge-number order, so
/// `EdgeId = out_offsets[v] + (no − 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge index as a `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A resolved view of one directed edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// The edge id.
    pub id: EdgeId,
    /// Source vertex `vs`.
    pub from: VertexId,
    /// Target vertex `ve`.
    pub to: VertexId,
    /// Length of the edge in meters.
    pub length: f64,
    /// 1-based outgoing-edge number of this edge w.r.t. `from`
    /// (Definition 6).
    pub number: u32,
}

/// An immutable directed road network in CSR form.
///
/// Construct via [`crate::NetworkBuilder`].
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    pub(crate) coords: Vec<Point>,
    /// CSR offsets, length `V + 1`.
    pub(crate) out_offsets: Vec<u32>,
    /// Edge targets, length `E`.
    pub(crate) targets: Vec<VertexId>,
    /// Edge sources, length `E` (kept for O(1) reverse lookup).
    pub(crate) sources: Vec<VertexId>,
    /// Edge lengths in meters, length `E`.
    pub(crate) lengths: Vec<f64>,
    pub(crate) max_out_degree: u32,
    /// Lazily computed bounding rectangle — callers like grid
    /// construction and shard routing ask for it per operation, and the
    /// O(V) scan must not be repaid every time.
    pub(crate) bounds: std::sync::OnceLock<Rect>,
}

/// Structural equality over the graph itself; the lazily cached bounding
/// rectangle is derived state and takes no part.
impl PartialEq for RoadNetwork {
    fn eq(&self, other: &Self) -> bool {
        self.coords == other.coords
            && self.out_offsets == other.out_offsets
            && self.targets == other.targets
            && self.sources == other.sources
            && self.lengths == other.lengths
            && self.max_out_degree == other.max_out_degree
    }
}

impl RoadNetwork {
    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.coords.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Maximum out-degree `o` over all vertices — the quantity that sizes
    /// the fixed-width encoding of outgoing-edge numbers.
    #[inline]
    pub fn max_out_degree(&self) -> u32 {
        self.max_out_degree
    }

    /// Average out-degree (Table 6 reports 2.449 / 2.834 / 2.791).
    pub fn avg_out_degree(&self) -> f64 {
        if self.vertex_count() == 0 {
            return 0.0;
        }
        self.edge_count() as f64 / self.vertex_count() as f64
    }

    /// All vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.coords.len() as u32).map(VertexId)
    }

    /// All edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.targets.len() as u32).map(EdgeId)
    }

    /// Location of a vertex.
    #[inline]
    pub fn coord(&self, v: VertexId) -> Point {
        self.coords[v.idx()]
    }

    /// Out-degree of a vertex.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.out_offsets[v.idx() + 1] - self.out_offsets[v.idx()]
    }

    /// The out-edges of `v` in outgoing-edge-number order.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        (self.out_offsets[v.idx()]..self.out_offsets[v.idx() + 1]).map(EdgeId)
    }

    /// Resolves `(v, no)` per Definition 6. `no` is 1-based; returns `None`
    /// if `v` has fewer than `no` out-edges.
    #[inline]
    pub fn edge_by_number(&self, v: VertexId, no: u32) -> Option<EdgeId> {
        if no == 0 || no > self.out_degree(v) {
            return None;
        }
        Some(EdgeId(self.out_offsets[v.idx()] + no - 1))
    }

    /// The 1-based outgoing-edge number of `e` w.r.t. its source.
    #[inline]
    pub fn edge_number(&self, e: EdgeId) -> u32 {
        e.0 - self.out_offsets[self.sources[e.idx()].idx()] + 1
    }

    /// Source vertex of an edge.
    #[inline]
    pub fn edge_from(&self, e: EdgeId) -> VertexId {
        self.sources[e.idx()]
    }

    /// Target vertex of an edge.
    #[inline]
    pub fn edge_to(&self, e: EdgeId) -> VertexId {
        self.targets[e.idx()]
    }

    /// Length of an edge in meters.
    #[inline]
    pub fn edge_length(&self, e: EdgeId) -> f64 {
        self.lengths[e.idx()]
    }

    /// Full resolved view of an edge.
    pub fn edge(&self, e: EdgeId) -> EdgeRef {
        EdgeRef {
            id: e,
            from: self.edge_from(e),
            to: self.edge_to(e),
            length: self.edge_length(e),
            number: self.edge_number(e),
        }
    }

    /// Looks up the directed edge `from → to`, if present.
    pub fn find_edge(&self, from: VertexId, to: VertexId) -> Option<EdgeId> {
        self.out_edges(from).find(|&e| self.edge_to(e) == to)
    }

    /// The planar point at network distance `ndist` from the source along
    /// edge `e` (straight-line edge geometry).
    pub fn point_on_edge(&self, e: EdgeId, ndist: f64) -> Point {
        let a = self.coord(self.edge_from(e));
        let b = self.coord(self.edge_to(e));
        let len = self.edge_length(e);
        let t = if len <= 0.0 {
            0.0
        } else {
            (ndist / len).clamp(0.0, 1.0)
        };
        a.lerp(b, t)
    }

    /// The bounding rectangle of all vertices (computed once, cached);
    /// the degenerate rectangle at the origin for a network without
    /// vertices.
    pub fn bounding_rect(&self) -> Rect {
        *self.bounds.get_or_init(|| {
            self.coords
                .iter()
                .map(|&p| Rect::point(p))
                .reduce(|a, b| a.union(b))
                .unwrap_or(Rect::new(0.0, 0.0, 0.0, 0.0))
        })
    }

    /// Checks that a sequence of edges is a connected path (Definition 4).
    pub fn is_path(&self, edges: &[EdgeId]) -> bool {
        edges
            .windows(2)
            .all(|w| self.edge_to(w[0]) == self.edge_from(w[1]))
    }

    /// Total length of a path in meters (assumes [`Self::is_path`]).
    pub fn path_length(&self, edges: &[EdgeId]) -> f64 {
        edges.iter().map(|&e| self.edge_length(e)).sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::NetworkBuilder;

    use super::*;

    fn triangle() -> RoadNetwork {
        // 0 → 1 → 2 → 0 plus 0 → 2.
        let mut b = NetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let v1 = b.add_vertex(10.0, 0.0);
        let v2 = b.add_vertex(10.0, 10.0);
        b.add_edge(v0, v1);
        b.add_edge(v1, v2);
        b.add_edge(v2, v0);
        b.add_edge(v0, v2);
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let n = triangle();
        assert_eq!(n.vertex_count(), 3);
        assert_eq!(n.edge_count(), 4);
        assert_eq!(n.out_degree(VertexId(0)), 2);
        assert_eq!(n.out_degree(VertexId(1)), 1);
        assert_eq!(n.max_out_degree(), 2);
        assert!((n.avg_out_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn edge_numbers_follow_insertion_order() {
        let n = triangle();
        let e01 = n.find_edge(VertexId(0), VertexId(1)).unwrap();
        let e02 = n.find_edge(VertexId(0), VertexId(2)).unwrap();
        assert_eq!(n.edge_number(e01), 1);
        assert_eq!(n.edge_number(e02), 2);
        assert_eq!(n.edge_by_number(VertexId(0), 1), Some(e01));
        assert_eq!(n.edge_by_number(VertexId(0), 2), Some(e02));
        assert_eq!(n.edge_by_number(VertexId(0), 3), None);
        assert_eq!(n.edge_by_number(VertexId(0), 0), None);
    }

    #[test]
    fn edge_geometry() {
        let n = triangle();
        let e01 = n.find_edge(VertexId(0), VertexId(1)).unwrap();
        assert!((n.edge_length(e01) - 10.0).abs() < 1e-12);
        let mid = n.point_on_edge(e01, 5.0);
        assert!((mid.x - 5.0).abs() < 1e-12);
        assert!((mid.y - 0.0).abs() < 1e-12);
        // Clamps beyond the edge.
        let end = n.point_on_edge(e01, 25.0);
        assert!((end.x - 10.0).abs() < 1e-12);
    }

    #[test]
    fn path_checks() {
        let n = triangle();
        let e01 = n.find_edge(VertexId(0), VertexId(1)).unwrap();
        let e12 = n.find_edge(VertexId(1), VertexId(2)).unwrap();
        let e20 = n.find_edge(VertexId(2), VertexId(0)).unwrap();
        assert!(n.is_path(&[e01, e12, e20]));
        assert!(!n.is_path(&[e01, e20]));
        let diag = 200f64.sqrt();
        assert!((n.path_length(&[e01, e12, e20]) - (20.0 + diag)).abs() < 1e-9);
    }

    #[test]
    fn bounding_rect_covers_vertices() {
        let n = triangle();
        let r = n.bounding_rect();
        assert_eq!(r, Rect::new(0.0, 0.0, 10.0, 10.0));
    }

    #[test]
    fn bounding_rect_of_an_empty_network_is_degenerate() {
        // `decode` accepts V=0,E=0, so this shape arrives from disk.
        let mut bytes = Vec::new();
        NetworkBuilder::new().build().encode(&mut bytes).unwrap();
        let n = RoadNetwork::decode(&mut bytes.as_slice()).unwrap();
        assert_eq!(n.vertex_count(), 0);
        assert_eq!(n.bounding_rect(), Rect::new(0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn edge_ref_is_consistent() {
        let n = triangle();
        for e in n.edges() {
            let r = n.edge(e);
            assert_eq!(r.id, e);
            assert_eq!(n.edge_by_number(r.from, r.number), Some(e));
        }
    }
}

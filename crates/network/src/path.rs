//! Shortest paths over the road network.
//!
//! The probabilistic map-matcher scores transitions by the ratio of
//! great-circle to network distance, which requires many point-to-point
//! shortest-path queries with a known small radius; Dijkstra with early
//! termination and a distance cap is the right tool at our scales.
//!
//! Every query runs one bounded Dijkstra on arrays kept per thread and
//! reset through the vertices the previous query reached, so a query
//! costs what it explores, not the network's size.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::{EdgeId, RoadNetwork, VertexId};

/// A min-heap entry.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    vertex: VertexId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; distances are finite by construction.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of a shortest-path query.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPath {
    /// Total network distance in meters.
    pub dist: f64,
    /// The edges traversed, in order (empty when `from == to`).
    pub edges: Vec<EdgeId>,
}

/// Dijkstra from `from` to `to`, giving up once the tentative distance
/// exceeds `max_dist`.
///
/// Returns `None` if `to` is unreachable within the cap.
pub fn shortest_path(
    net: &RoadNetwork,
    from: VertexId,
    to: VertexId,
    max_dist: f64,
) -> Option<ShortestPath> {
    shortest_path_avoiding(net, from, to, max_dist, &[])
}

/// Like [`shortest_path`], but never traverses edges in `banned`.
///
/// Used by the synthetic-data generator to find *detours*: alternate routes
/// between two path vertices that avoid the original edges, mimicking the
/// alternative paths probabilistic map-matching produces. `banned` is a
/// short span of a route, so membership is a linear scan.
pub fn shortest_path_avoiding(
    net: &RoadNetwork,
    from: VertexId,
    to: VertexId,
    max_dist: f64,
    banned: &[EdgeId],
) -> Option<ShortestPath> {
    dijkstra(net, from, Some(to), max_dist, banned, |s| {
        let dist = s.dist[to.idx()];
        if !dist.is_finite() {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = to;
        while cur != from {
            let e = s.pred[cur.idx()]?;
            edges.push(e);
            cur = net.edge_from(e);
        }
        edges.reverse();
        Some(ShortestPath { dist, edges })
    })
}

/// Network distance only (no path reconstruction).
pub fn shortest_dist(
    net: &RoadNetwork,
    from: VertexId,
    to: VertexId,
    max_dist: f64,
) -> Option<f64> {
    dijkstra(net, from, Some(to), max_dist, &[], |s| {
        Some(s.dist[to.idx()]).filter(|d| d.is_finite())
    })
}

/// Single-source distances to every vertex within `max_dist`.
///
/// Returns `(vertex, distance)` pairs for all reached vertices, in vertex
/// order.
pub fn reachable_within(net: &RoadNetwork, from: VertexId, max_dist: f64) -> Vec<(VertexId, f64)> {
    dijkstra(net, from, None, max_dist, &[], |s| {
        let mut out = Vec::from_iter(s.touched.iter().map(|&v| (v, s.dist[v.idx()])));
        out.sort_unstable_by_key(|&(v, _)| v);
        out
    })
}

/// The search arrays of one thread, sized to the largest network it has
/// searched. Between queries every entry is at its default except those
/// of the vertices in `touched` (each vertex whose distance the last
/// query set), so a query resets only what the previous one wrote.
#[derive(Default)]
struct Scratch {
    dist: Vec<f64>,
    /// The edge a vertex was reached by (its source is the predecessor).
    pred: Vec<Option<EdgeId>>,
    settled: Vec<bool>,
    touched: Vec<VertexId>,
    heap: BinaryHeap<HeapEntry>,
}

impl Scratch {
    fn reset(&mut self, n: usize) {
        for v in self.touched.drain(..) {
            self.dist[v.idx()] = f64::INFINITY;
            self.pred[v.idx()] = None;
            self.settled[v.idx()] = false;
        }
        self.heap.clear();
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.pred.resize(n, None);
            self.settled.resize(n, false);
        }
    }

    fn reach(&mut self, v: VertexId, d: f64, via: Option<EdgeId>) {
        if !self.dist[v.idx()].is_finite() {
            self.touched.push(v);
        }
        self.dist[v.idx()] = d;
        self.pred[v.idx()] = via;
        self.heap.push(HeapEntry { dist: d, vertex: v });
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// The one bounded Dijkstra: from `from`, stopping once `to` (if any) is
/// settled or the next vertex lies past `max_dist`, never relaxing an
/// edge in `banned`. `read` sees the search state before the thread's
/// next query overwrites it.
fn dijkstra<T>(
    net: &RoadNetwork,
    from: VertexId,
    to: Option<VertexId>,
    max_dist: f64,
    banned: &[EdgeId],
    read: impl FnOnce(&Scratch) -> T,
) -> T {
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        s.reset(net.vertex_count());
        s.reach(from, 0.0, None);
        while let Some(HeapEntry { dist: d, vertex }) = s.heap.pop() {
            if s.settled[vertex.idx()] {
                continue;
            }
            s.settled[vertex.idx()] = true;
            if Some(vertex) == to || d > max_dist {
                break;
            }
            for e in net.out_edges(vertex) {
                if banned.contains(&e) {
                    continue;
                }
                let nb = net.edge_to(e);
                let nd = d + net.edge_length(e);
                if nd < s.dist[nb.idx()] && nd <= max_dist {
                    s.reach(nb, nd, Some(e));
                }
            }
        }
        read(s)
    })
}

/// Whether the calling thread's scratch, once reset, is all defaults:
/// a reset that missed an entry the last query wrote leaves it dirty.
#[cfg(test)]
fn scratch_is_clean() -> bool {
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        s.reset(0);
        s.dist.iter().all(|d| *d == f64::INFINITY)
            && s.pred.iter().all(Option::is_none)
            && s.settled.iter().all(|b| !b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;

    /// A 3×3 grid with unit spacing 10 and bidirectional edges.
    fn grid3() -> (RoadNetwork, Vec<VertexId>) {
        let mut b = NetworkBuilder::new();
        let mut vs = Vec::new();
        for row in 0..3 {
            for col in 0..3 {
                vs.push(b.add_vertex(col as f64 * 10.0, row as f64 * 10.0));
            }
        }
        for row in 0..3 {
            for col in 0..3 {
                let i = row * 3 + col;
                if col + 1 < 3 {
                    b.add_bidirectional(vs[i], vs[i + 1]);
                }
                if row + 1 < 3 {
                    b.add_bidirectional(vs[i], vs[i + 3]);
                }
            }
        }
        (b.build(), vs)
    }

    #[test]
    fn trivial_path() {
        let (n, vs) = grid3();
        let p = shortest_path(&n, vs[0], vs[0], 1e9).unwrap();
        assert_eq!(p.dist, 0.0);
        assert!(p.edges.is_empty());
    }

    #[test]
    fn manhattan_distance_on_grid() {
        let (n, vs) = grid3();
        let p = shortest_path(&n, vs[0], vs[8], 1e9).unwrap();
        assert!((p.dist - 40.0).abs() < 1e-9);
        assert_eq!(p.edges.len(), 4);
        assert!(n.is_path(&p.edges));
        assert_eq!(n.edge_from(p.edges[0]), vs[0]);
        assert_eq!(n.edge_to(*p.edges.last().unwrap()), vs[8]);
    }

    #[test]
    fn cap_prevents_long_paths() {
        let (n, vs) = grid3();
        assert!(shortest_path(&n, vs[0], vs[8], 39.0).is_none());
        assert!(shortest_path(&n, vs[0], vs[8], 40.0).is_some());
        assert_eq!(shortest_dist(&n, vs[0], vs[8], 40.0), Some(40.0));
    }

    #[test]
    fn unreachable_vertex() {
        let mut b = NetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let v1 = b.add_vertex(10.0, 0.0);
        let v2 = b.add_vertex(20.0, 0.0);
        b.add_edge(v0, v1); // one-way, nothing reaches v2
        let n = b.build();
        assert!(shortest_path(&n, v0, v2, 1e9).is_none());
        assert!(shortest_path(&n, v1, v0, 1e9).is_none());
    }

    #[test]
    fn respects_edge_direction() {
        let mut b = NetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let v1 = b.add_vertex(10.0, 0.0);
        let v2 = b.add_vertex(20.0, 0.0);
        b.add_edge(v0, v1);
        b.add_edge(v1, v2);
        b.add_edge(v2, v0); // ring
        let n = b.build();
        // Going "backwards" must loop around the ring.
        let p = shortest_path(&n, v1, v0, 1e9).unwrap();
        assert_eq!(p.edges.len(), 2);
        assert!((p.dist - 30.0).abs() < 1e-9);
    }

    #[test]
    fn reachable_within_radius() {
        let (n, vs) = grid3();
        let reach = reachable_within(&n, vs[0], 10.0);
        // Origin plus its two direct neighbors.
        assert_eq!(reach.len(), 3);
        let reach = reachable_within(&n, vs[0], 20.0);
        assert_eq!(reach.len(), 6);
    }

    #[test]
    fn avoiding_banned_edges_takes_detour() {
        let (n, vs) = grid3();
        let direct = shortest_path(&n, vs[0], vs[1], 1e9).unwrap();
        assert_eq!(direct.edges.len(), 1);
        let banned = &direct.edges;
        let detour = shortest_path_avoiding(&n, vs[0], vs[1], 1e9, banned).unwrap();
        assert!(detour.edges.len() >= 3);
        assert!(detour.dist > direct.dist);
        assert!(detour.edges.iter().all(|e| !banned.contains(e)));
        assert!(n.is_path(&detour.edges));
    }

    #[test]
    fn avoiding_all_edges_fails() {
        let (n, vs) = grid3();
        let banned = Vec::from_iter(n.edges());
        assert!(shortest_path_avoiding(&n, vs[0], vs[1], 1e9, &banned).is_none());
    }

    /// Every answer on a thread whose scratch earlier queries have
    /// dirtied equals the same call on a fresh thread, and the scratch
    /// resets to all defaults.
    #[test]
    fn reused_scratch_answers_as_a_fresh_thread() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // The `cd` profile's network.
        let cfg = crate::gen::GridCityConfig {
            nx: 40,
            ny: 40,
            spacing: 180.0,
            jitter: 0.15,
            p_remove: 0.2,
            p_diagonal: 0.06,
        };
        let mut rng = StdRng::seed_from_u64(31);
        let n = crate::gen::grid_city(&cfg, &mut rng);
        let vc = n.vertex_count() as u32;
        let fresh =
            |f: &(dyn Fn() -> String + Sync)| std::thread::scope(|sc| sc.spawn(f).join().unwrap());

        let all = reachable_within(&n, VertexId(vc / 2), 1e9);
        assert!(
            all.len() > n.vertex_count() * 3 / 4,
            "settled {}",
            all.len()
        );
        for _ in 0..60 {
            let a = VertexId(rng.gen_range(0..vc));
            let b = VertexId(rng.gen_range(0..vc));
            let cap = rng.gen_range(200.0..4000.0);
            let span = shortest_path(&n, a, b, 1e9).map_or(Vec::new(), |p| p.edges);
            let banned = &span[..span.len().min(3)];
            let calls: [&(dyn Fn() -> String + Sync); 4] = [
                &|| format!("{:?}", shortest_path_avoiding(&n, a, b, cap * 2.0, banned)),
                &|| format!("{:?}", shortest_path(&n, b, a, cap)),
                &|| format!("{:?}", shortest_dist(&n, a, b, cap)),
                &|| format!("{:?}", reachable_within(&n, a, cap / 4.0)),
            ];
            for call in calls {
                assert_eq!(call(), fresh(call), "from {a:?} to {b:?}, cap {cap}");
            }
        }
        assert!(scratch_is_clean());
    }

    #[test]
    fn shortest_path_prefers_shorter_geometry() {
        let mut b = NetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let v1 = b.add_vertex(10.0, 0.0);
        let vm = b.add_vertex(5.0, 20.0); // detour vertex
        b.add_edge(v0, vm);
        b.add_edge(vm, v1);
        b.add_edge_with_length(v0, v1, 12.0);
        let n = b.build();
        let p = shortest_path(&n, v0, v1, 1e9).unwrap();
        assert_eq!(p.edges.len(), 1);
        assert!((p.dist - 12.0).abs() < 1e-9);
    }
}

//! Ground-truth route generation: biased random walks over the network.

use rand::Rng;
use utcq_network::{EdgeId, RoadNetwork, VertexId};

/// Generates a route of roughly `target_edges` edges.
///
/// The walk starts at a random vertex, avoids immediate U-turns and edge
/// revisits where possible, and retries from a fresh start when it strands
/// early. Returns `None` when the network cannot support a walk of at
/// least 2 edges after `max_tries` attempts.
pub fn random_route<R: Rng + ?Sized>(
    net: &RoadNetwork,
    rng: &mut R,
    target_edges: usize,
    max_tries: usize,
) -> Option<Vec<EdgeId>> {
    let target = target_edges.max(2);
    let mut best: Option<Vec<EdgeId>> = None;
    for _ in 0..max_tries {
        let route = walk(net, rng, target);
        if route.len() >= target {
            return Some(route);
        }
        if route.len() >= 2 && best.as_ref().is_none_or(|b| route.len() > b.len()) {
            best = Some(route);
        }
    }
    best
}

fn walk<R: Rng + ?Sized>(net: &RoadNetwork, rng: &mut R, target: usize) -> Vec<EdgeId> {
    let v_count = net.vertex_count();
    if v_count == 0 {
        return Vec::new();
    }
    let mut cur = VertexId(rng.gen_range(0..v_count as u32));
    // Find a start with outgoing edges.
    for _ in 0..16 {
        if net.out_degree(cur) > 0 {
            break;
        }
        cur = VertexId(rng.gen_range(0..v_count as u32));
    }
    // The edges already walked are the route itself; `pool` is reused
    // across steps.
    let mut route = Vec::with_capacity(target);
    let mut pool = Vec::new();
    let mut prev_vertex: Option<VertexId> = None;
    while route.len() < target {
        // Prefer fresh, non-reversing edges; fall back progressively.
        let non_rev = |e: &EdgeId| Some(net.edge_to(*e)) != prev_vertex;
        pool.clear();
        pool.extend(
            net.out_edges(cur)
                .filter(|e| non_rev(e) && !route.contains(e)),
        );
        if pool.is_empty() {
            pool.extend(net.out_edges(cur).filter(non_rev));
            if pool.is_empty() {
                break; // a dead end, or only a U-turn remains: stop rather than oscillate
            }
        }
        let e = pool[rng.gen_range(0..pool.len())];
        prev_vertex = Some(cur);
        cur = net.edge_to(e);
        route.push(e);
    }
    route
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use utcq_network::gen::{grid_city, line, GridCityConfig};

    #[test]
    fn routes_are_connected_paths() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = grid_city(&GridCityConfig::tiny(), &mut rng);
        for _ in 0..50 {
            let r = random_route(&net, &mut rng, 12, 20).expect("route");
            assert!(r.len() >= 2);
            assert!(net.is_path(&r));
        }
    }

    #[test]
    fn routes_hit_target_on_rich_networks() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = GridCityConfig {
            p_remove: 0.0,
            ..GridCityConfig::tiny()
        };
        let net = grid_city(&cfg, &mut rng);
        let mut hits = 0;
        for _ in 0..20 {
            let r = random_route(&net, &mut rng, 10, 20).unwrap();
            if r.len() == 10 {
                hits += 1;
            }
        }
        assert!(hits >= 15, "only {hits}/20 walks reached the target length");
    }

    #[test]
    fn line_network_walks_do_not_uturn() {
        let net = line(20, 100.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let r = random_route(&net, &mut rng, 6, 30).expect("route");
            assert!(net.is_path(&r));
            // No immediate reversals: consecutive edges never swap
            // endpoints.
            for w in r.windows(2) {
                assert!(
                    !(net.edge_from(w[0]) == net.edge_to(w[1])
                        && net.edge_to(w[0]) == net.edge_from(w[1])),
                    "u-turn in route"
                );
            }
        }
    }

    #[test]
    fn empty_network_yields_none() {
        let net = utcq_network::NetworkBuilder::new().build();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(random_route(&net, &mut rng, 5, 5).is_none());
    }
}

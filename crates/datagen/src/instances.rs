//! Uncertain-instance synthesis by constrained path perturbation.
//!
//! Probabilistic map-matching turns one raw trajectory into several similar
//! network paths (Fig. 1 of the paper). For large-scale experiments we
//! synthesize that output directly: a ground-truth route plus variants that
//! differ by *local detours* (the low-sampling-rate ambiguity), *endpoint
//! extensions / start truncations* (boundary ambiguity, incl. the paper's
//! `Tu¹₃`-style tail change and start-vertex changes), and *relative
//! distance jitter* (position inaccuracy). The mutation rates are tuned so
//! intra-trajectory edit distances match Fig. 4b (mostly ≤ 5).

use rand::Rng;
use utcq_network::path::shortest_path_avoiding;
use utcq_network::{EdgeId, RoadNetwork};
use utcq_traj::interp::position_at_distance;
use utcq_traj::{Instance, PathPosition, UncertainTrajectory};

/// Mutation-rate knobs for variant generation.
#[derive(Debug, Clone, Copy)]
pub struct VariantConfig {
    /// Maximum number of consecutive edges replaced by one detour.
    pub detour_span_max: usize,
    /// Probability a variant receives a second mutation.
    pub p_second_mutation: f64,
    /// Relative odds of each mutation kind: detour.
    pub w_detour: f64,
    /// Relative odds: extend the route tail by one edge.
    pub w_extend: f64,
    /// Relative odds: truncate the first edge (changes the start vertex).
    pub w_start_shift: f64,
    /// Relative odds: jitter one sample's relative distance.
    pub w_rd_jitter: f64,
}

impl Default for VariantConfig {
    fn default() -> Self {
        // Position inaccuracy (rd jitter on an unchanged path) is the
        // most common map-matching ambiguity in the paper's data — it is
        // what makes most instances share `E`/`T'` with their reference
        // and most relative distances coincide (§4.2's D observation).
        // Path-level ambiguity (detours/extensions) is rarer.
        Self {
            detour_span_max: 3,
            p_second_mutation: 0.25,
            w_detour: 0.38,
            w_extend: 0.12,
            w_start_shift: 0.02,
            w_rd_jitter: 0.48,
        }
    }
}

/// Positions of `n` samples along `route`, moving at constant speed from a
/// random offset on the first edge to a random offset on the last edge.
pub fn base_positions<R: Rng + ?Sized>(
    net: &RoadNetwork,
    rng: &mut R,
    route: &[EdgeId],
    times: &[i64],
) -> Vec<PathPosition> {
    assert!(route.len() >= 2 && times.len() >= 2);
    let len0 = net.edge_length(route[0]);
    let last_len = net.edge_length(*route.last().unwrap());
    let total: f64 = net.path_length(route);
    let d0 = rng.gen::<f64>() * 0.9 * len0;
    let d_last = total - rng.gen::<f64>() * 0.9 * last_len;
    let t0 = times[0] as f64;
    let t_span = (*times.last().unwrap() - times[0]) as f64;
    times
        .iter()
        .map(|&t| {
            let f = (t as f64 - t0) / t_span;
            position_at_distance(net, route, d0 + f * (d_last - d0))
        })
        .collect()
}

/// One candidate variant: a mutated `(route, positions)` pair.
type Candidate = (Vec<EdgeId>, Vec<PathPosition>);

/// Replaces a random span of the route with a network detour and remaps
/// the affected sample positions fractionally onto it.
fn mutate_detour<R: Rng + ?Sized>(
    net: &RoadNetwork,
    rng: &mut R,
    route: &[EdgeId],
    positions: &[PathPosition],
    span_max: usize,
) -> Option<Candidate> {
    if route.len() < 3 {
        return None;
    }
    // Detours never touch the first edge: map-matched instances almost
    // always agree on the first mapped edge (the paper's referential
    // scheme requires non-references to share the start vertex), and the
    // running example's detour starts at the second edge.
    let s = rng.gen_range(1..route.len());
    let k = rng.gen_range(1..=span_max.min(route.len() - s));
    let u = net.edge_from(route[s]);
    let w = net.edge_to(route[s + k - 1]);
    if u == w {
        return None;
    }
    let span = &route[s..s + k];
    let span_dist: f64 = span.iter().map(|&e| net.edge_length(e)).sum();
    let alt = shortest_path_avoiding(net, u, w, span_dist * 5.0 + 500.0, span)?;
    if alt.edges.is_empty() || alt.edges == span {
        return None;
    }
    let mut new_route = Vec::with_capacity(route.len() - k + alt.edges.len());
    new_route.extend_from_slice(&route[..s]);
    new_route.extend_from_slice(&alt.edges);
    new_route.extend_from_slice(&route[s + k..]);

    let shift = alt.edges.len() as i64 - k as i64;
    let mut new_positions = Vec::with_capacity(positions.len());
    for &p in positions {
        let idx = p.path_idx as usize;
        let np = if idx < s {
            p
        } else if idx >= s + k {
            PathPosition {
                path_idx: (idx as i64 + shift) as u32,
                rd: p.rd,
            }
        } else {
            // Fractional remap onto the detour.
            let before: f64 = route[s..idx].iter().map(|&e| net.edge_length(e)).sum();
            let offset = before + p.rd * net.edge_length(route[idx]);
            let f = if span_dist > 0.0 {
                offset / span_dist
            } else {
                0.0
            };
            let local = position_at_distance(net, &alt.edges, f * alt.dist);
            PathPosition {
                path_idx: s as u32 + local.path_idx,
                rd: local.rd,
            }
        };
        new_positions.push(np);
    }
    Some((new_route, new_positions))
}

/// Appends one edge to the route tail and moves the final sample onto it
/// (the paper's `Tu¹₃` pattern).
fn mutate_extend<R: Rng + ?Sized>(
    net: &RoadNetwork,
    rng: &mut R,
    route: &[EdgeId],
    positions: &[PathPosition],
) -> Option<Candidate> {
    let last = *route.last().unwrap();
    let v = net.edge_to(last);
    let choices: Vec<EdgeId> = net
        .out_edges(v)
        .filter(|&e| net.edge_to(e) != net.edge_from(last))
        .collect();
    if choices.is_empty() {
        return None;
    }
    let e = choices[rng.gen_range(0..choices.len())];
    let mut new_route = route.to_vec();
    new_route.push(e);
    let mut new_positions = positions.to_vec();
    let last_pos = new_positions.last_mut().unwrap();
    *last_pos = PathPosition {
        path_idx: (new_route.len() - 1) as u32,
        rd: rng.gen_range(0.1..0.9),
    };
    Some((new_route, new_positions))
}

/// Drops the first route edge, moving leading samples onto the new first
/// edge. Changes the start vertex `SV`.
fn mutate_start_shift<R: Rng + ?Sized>(
    net: &RoadNetwork,
    rng: &mut R,
    route: &[EdgeId],
    positions: &[PathPosition],
) -> Option<Candidate> {
    let _ = net;
    if route.len() < 3 {
        return None;
    }
    let new_route = route[1..].to_vec();
    // Samples from the dropped edge must land *before* any sample already
    // on the next edge, so squeeze them into the gap below its first rd.
    let bound = positions
        .iter()
        .find(|p| p.path_idx == 1)
        .map_or(1.0, |p| p.rd);
    let squeeze = rng.gen_range(0.05..0.95) * bound;
    let mut new_positions = Vec::with_capacity(positions.len());
    for &p in positions {
        if p.path_idx == 0 {
            new_positions.push(PathPosition {
                path_idx: 0,
                rd: p.rd * squeeze,
            });
        } else {
            new_positions.push(PathPosition {
                path_idx: p.path_idx - 1,
                rd: p.rd,
            });
        }
    }
    Some((new_route, new_positions))
}

/// Jitters one sample's relative distance within its edge, preserving
/// monotonicity.
fn mutate_rd_jitter<R: Rng + ?Sized>(
    net: &RoadNetwork,
    rng: &mut R,
    route: &[EdgeId],
    positions: &[PathPosition],
) -> Option<Candidate> {
    let _ = net;
    if positions.is_empty() {
        return None;
    }
    let i = rng.gen_range(0..positions.len());
    let mut new_positions = positions.to_vec();
    let p = new_positions[i];
    let lo = if i > 0 && new_positions[i - 1].path_idx == p.path_idx {
        new_positions[i - 1].rd
    } else {
        0.0
    };
    let hi = if i + 1 < new_positions.len() && new_positions[i + 1].path_idx == p.path_idx {
        new_positions[i + 1].rd
    } else {
        1.0
    };
    let jittered = (p.rd + rng.gen_range(-0.2..0.2)).clamp(lo, hi);
    new_positions[i].rd = jittered;
    Some((route.to_vec(), new_positions))
}

fn mutate_once<R: Rng + ?Sized>(
    net: &RoadNetwork,
    rng: &mut R,
    cand: &Candidate,
    cfg: &VariantConfig,
) -> Option<Candidate> {
    let total = cfg.w_detour + cfg.w_extend + cfg.w_start_shift + cfg.w_rd_jitter;
    let roll = rng.gen::<f64>() * total;
    if roll < cfg.w_detour {
        mutate_detour(net, rng, &cand.0, &cand.1, cfg.detour_span_max)
    } else if roll < cfg.w_detour + cfg.w_extend {
        mutate_extend(net, rng, &cand.0, &cand.1)
    } else if roll < cfg.w_detour + cfg.w_extend + cfg.w_start_shift {
        mutate_start_shift(net, rng, &cand.0, &cand.1)
    } else {
        mutate_rd_jitter(net, rng, &cand.0, &cand.1)
    }
}

/// Trims a candidate's path to the edges actually spanned by its samples
/// (the paper's model requires the first and last path edges to carry a
/// GPS point), shifting sample indices accordingly.
fn normalize(cand: &mut Candidate) {
    let first = cand.1.first().map_or(0, |p| p.path_idx) as usize;
    let last = cand.1.last().map_or(0, |p| p.path_idx) as usize;
    if last + 1 < cand.0.len() {
        cand.0.truncate(last + 1);
    }
    if first > 0 {
        cand.0.drain(..first);
        for p in &mut cand.1 {
            p.path_idx -= first as u32;
        }
    }
}

/// Whether two candidates are the same instance: equal paths, equal
/// sample indices, and relative distances equal once truncated to 1e-9
/// of their edge.
fn same(a: &Candidate, b: &Candidate) -> bool {
    let grain = |p: &PathPosition| (p.path_idx, (p.rd * 1e9) as u64);
    a.0 == b.0 && a.1.len() == b.1.len() && a.1.iter().zip(&b.1).all(|(x, y)| grain(x) == grain(y))
}

/// Builds an uncertain trajectory with up to `k_target` instances from a
/// ground-truth route and shared time sequence.
pub fn build_uncertain<R: Rng + ?Sized>(
    net: &RoadNetwork,
    rng: &mut R,
    id: u64,
    route: Vec<EdgeId>,
    times: Vec<i64>,
    k_target: usize,
    cfg: &VariantConfig,
) -> UncertainTrajectory {
    let base_pos = base_positions(net, rng, &route, &times);
    let mut cands: Vec<Candidate> = vec![(route, base_pos)];

    let mut attempts = 0usize;
    let max_attempts = k_target.saturating_mul(8).max(16);
    while cands.len() < k_target && attempts < max_attempts {
        attempts += 1;
        // Mutate a random existing candidate (usually the ground truth).
        let parent = if rng.gen::<f64>() < 0.7 {
            0
        } else {
            rng.gen_range(0..cands.len())
        };
        let Some(mut cand) = mutate_once(net, rng, &cands[parent], cfg) else {
            continue;
        };
        if rng.gen::<f64>() < cfg.p_second_mutation {
            if let Some(more) = mutate_once(net, rng, &cand, cfg) {
                cand = more;
            }
        }
        normalize(&mut cand);
        if !cands.iter().any(|kept| same(kept, &cand)) {
            cands.push(cand);
        }
    }

    // Probabilities: the ground truth dominates, variants share the rest.
    let mut weights: Vec<f64> = Vec::with_capacity(cands.len());
    weights.push(rng.gen_range(2.0..5.0));
    for _ in 1..cands.len() {
        weights.push(rng.gen_range(0.2..1.5));
    }
    let sum: f64 = weights.iter().sum();

    let mut instances: Vec<Instance> = cands
        .into_iter()
        .zip(weights)
        .map(|((path, positions), w)| Instance {
            path,
            positions,
            prob: w / sum,
        })
        .collect();
    // Most-probable first, for deterministic downstream behaviour.
    instances.sort_by(|a, b| b.prob.total_cmp(&a.prob));
    // Renormalize away float dust so probabilities sum to exactly ~1.
    let total: f64 = instances.iter().map(|i| i.prob).sum();
    for inst in &mut instances {
        inst.prob /= total;
    }
    UncertainTrajectory {
        id,
        times,
        instances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{profile, route::random_route, times::time_sequence};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use utcq_network::gen::{grid_city, GridCityConfig};

    fn setup() -> (RoadNetwork, StdRng) {
        let mut rng = StdRng::seed_from_u64(77);
        let net = grid_city(&GridCityConfig::tiny(), &mut rng);
        (net, rng)
    }

    #[test]
    fn base_positions_are_valid() {
        let (net, mut rng) = setup();
        for _ in 0..30 {
            let route = random_route(&net, &mut rng, 8, 20).unwrap();
            let p = profile::tiny();
            let times = time_sequence(&mut rng, &p.deviations, 0, 10, p.default_interval);
            let pos = base_positions(&net, &mut rng, &route, &times);
            let inst = Instance {
                path: route,
                positions: pos,
                prob: 1.0,
            };
            assert_eq!(inst.validate(&net, times.len()), Ok(()));
        }
    }

    #[test]
    fn uncertain_trajectories_validate() {
        let (net, mut rng) = setup();
        let p = profile::tiny();
        for id in 0..25 {
            let route = random_route(&net, &mut rng, 10, 20).unwrap();
            let times = time_sequence(&mut rng, &p.deviations, 100, 12, p.default_interval);
            let tu = build_uncertain(
                &net,
                &mut rng,
                id,
                route,
                times,
                6,
                &VariantConfig::default(),
            );
            assert_eq!(tu.validate(&net), Ok(()), "trajectory {id}");
        }
    }

    #[test]
    fn variants_are_distinct_and_usually_plural() {
        let (net, mut rng) = setup();
        let p = profile::tiny();
        let mut multi = 0;
        for id in 0..20 {
            let route = random_route(&net, &mut rng, 10, 20).unwrap();
            let times = time_sequence(&mut rng, &p.deviations, 100, 12, p.default_interval);
            let tu = build_uncertain(
                &net,
                &mut rng,
                id,
                route,
                times,
                8,
                &VariantConfig::default(),
            );
            if tu.instance_count() > 1 {
                multi += 1;
            }
            // No duplicate instances (Definition 5 requires distinct).
            for a in 0..tu.instances.len() {
                for b in a + 1..tu.instances.len() {
                    assert!(
                        tu.instances[a].path != tu.instances[b].path
                            || tu.instances[a].positions != tu.instances[b].positions
                    );
                }
            }
        }
        assert!(multi >= 15, "only {multi}/20 trajectories got variants");
    }

    #[test]
    fn probabilities_sum_to_one_and_sorted() {
        let (net, mut rng) = setup();
        let p = profile::tiny();
        let route = random_route(&net, &mut rng, 10, 20).unwrap();
        let times = time_sequence(&mut rng, &p.deviations, 100, 12, p.default_interval);
        let tu = build_uncertain(
            &net,
            &mut rng,
            0,
            route,
            times,
            8,
            &VariantConfig::default(),
        );
        let sum: f64 = tu.instances.iter().map(|i| i.prob).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for w in tu.instances.windows(2) {
            assert!(w[0].prob >= w[1].prob);
        }
    }

    #[test]
    fn variants_stay_similar_to_base() {
        // Fig. 4b: intra-trajectory edit distance should be mostly ≤ 5.
        use utcq_traj::editdist::edit_distance;
        use utcq_traj::TedView;
        let (net, mut rng) = setup();
        let p = profile::tiny();
        let mut small = 0usize;
        let mut pairs = 0usize;
        for id in 0..15 {
            let route = random_route(&net, &mut rng, 10, 20).unwrap();
            let times = time_sequence(&mut rng, &p.deviations, 100, 12, p.default_interval);
            let tu = build_uncertain(
                &net,
                &mut rng,
                id,
                route,
                times,
                6,
                &VariantConfig::default(),
            );
            let seqs: Vec<Vec<u32>> = tu
                .instances
                .iter()
                .map(|i| TedView::from_instance(&net, i).entries)
                .collect();
            for a in 0..seqs.len() {
                for b in a + 1..seqs.len() {
                    pairs += 1;
                    if edit_distance(&seqs[a], &seqs[b]) <= 5 {
                        small += 1;
                    }
                }
            }
        }
        assert!(pairs > 0);
        let frac = small as f64 / pairs as f64;
        assert!(frac > 0.6, "intra similarity too low: {frac}");
    }

    #[test]
    fn start_shift_changes_sv() {
        let (net, mut rng) = setup();
        let route = random_route(&net, &mut rng, 8, 20).unwrap();
        let times: Vec<i64> = (0..8).map(|i| i * 10).collect();
        let pos = base_positions(&net, &mut rng, &route, &times);
        let cand = mutate_start_shift(&net, &mut rng, &route, &pos).unwrap();
        assert_ne!(net.edge_from(cand.0[0]), net.edge_from(route[0]));
        let inst = Instance {
            path: cand.0,
            positions: cand.1,
            prob: 1.0,
        };
        assert_eq!(inst.validate(&net, times.len()), Ok(()));
    }
}

//! Multiple-order referential representation — the paper's first
//! future-work direction (§8: "it is of interest to introduce a
//! multiple-order representation that may further improve the
//! compression performance").
//!
//! The shipped format is single-order: every non-reference is factorized
//! directly against a reference. This module generalizes the assignment
//! to *reference chains* of bounded depth — a non-reference may itself
//! represent other instances — and evaluates the resulting footprint, so
//! the `multiorder` experiment can quantify what higher orders buy.
//! Decompression replays chains root-first; queries would pay one extra
//! factor replay per chain level, which is exactly the trade-off the
//! paper defers.
//!
//! Only that experiment uses it, so it lives here and not in the
//! shipped core: on the `dk`, `cd` and `hz` profiles depth 2 saves
//! under 0.4 % of the stream bits depth 1 spends, and depth 3 nothing
//! more (the table is in `docs/ARCHITECTURE.md`).

use utcq_bitio::{golomb, width_for_max, BitWriter};
use utcq_core::factor;
use utcq_core::pivot::{fjd_pair_with, select_pivots, FjdScratch};
use utcq_network::VertexId;

/// A depth-bounded reference forest over one trajectory's instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiOrderPlan {
    /// `parent[w]` is the instance `w` is represented against
    /// (`None` for root references).
    pub parents: Vec<Option<usize>>,
    /// Chain depth per instance (roots are 0).
    pub depth: Vec<u32>,
}

impl MultiOrderPlan {
    /// Number of root references.
    pub fn root_count(&self) -> usize {
        self.parents.iter().filter(|p| p.is_none()).count()
    }

    /// Maximum chain depth used.
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }
}

/// Greedy depth-bounded assignment: Algorithm 1's loop with the
/// single-order constraint relaxed to `depth ≤ max_order`.
///
/// `max_order = 1` reproduces the paper's Algorithm 1 exactly (a
/// unit test pins this); higher orders let committed non-references
/// acquire children of their own.
pub fn plan(
    seqs: &[Vec<u32>],
    svs: &[VertexId],
    probs: &[f64],
    n_pivots: usize,
    max_order: u32,
) -> MultiOrderPlan {
    let n = seqs.len();
    let mut parents: Vec<Option<usize>> = vec![None; n];
    let mut depth = vec![0u32; n];
    if n < 2 {
        return MultiOrderPlan { parents, depth };
    }
    let (_, reps) = select_pivots(seqs, n_pivots);
    let mut scratch = FjdScratch::default();
    let mut cells: Vec<(f64, usize, usize)> = Vec::new();
    for w in 0..n {
        for v in w + 1..n {
            if svs[w] != svs[v] {
                continue;
            }
            let (mut best_wv, mut best_vw) = (0.0f64, 0.0f64);
            for rep in &reps {
                let (wv, vw) = fjd_pair_with(&rep[w], &rep[v], &mut scratch);
                best_wv = best_wv.max(wv);
                best_vw = best_vw.max(vw);
            }
            if probs[w] * best_wv > 0.0 {
                cells.push((probs[w] * best_wv, w, v));
            }
            if probs[v] * best_vw > 0.0 {
                cells.push((probs[v] * best_vw, v, w));
            }
        }
    }
    cells.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let mut has_children = vec![false; n];
    for (_, w, v) in cells {
        // v must still be an unrepresented leaf; w's chain must have room.
        if parents[v].is_some() || has_children[v] {
            continue;
        }
        if depth[w] + 1 > max_order {
            continue;
        }
        if w == v {
            continue;
        }
        parents[v] = Some(w);
        depth[v] = depth[w] + 1;
        has_children[w] = true;
    }
    MultiOrderPlan { parents, depth }
}

/// Encoded footprint (bits) of the edge sequences, time flags, and
/// distance codes under a plan: roots pay the reference layout, children
/// pay factor lists against their parent's *reconstructed* data.
pub fn evaluate_bits(
    seqs: &[Vec<u32>],
    trimmed_flags: &[Vec<bool>],
    d_codes: &[Vec<u64>],
    plan: &MultiOrderPlan,
    w_e: u32,
    d_width: u32,
) -> u64 {
    let n = seqs.len();
    let mut total = 0u64;
    for v in 0..n {
        match plan.parents[v] {
            None => {
                total += 32; // start vertex
                total += golomb::unsigned_len(seqs[v].len() as u64) as u64;
                total += seqs[v].len() as u64 * u64::from(w_e);
                total += trimmed_flags[v].len() as u64;
                total += d_codes[v].len() as u64 * u64::from(d_width);
            }
            Some(p) => {
                // Factor streams against the parent (whose own storage is
                // paid at its level). Chain pointers cost one index.
                total += u64::from(width_for_max(n.saturating_sub(1) as u64));
                let ef = factor::factorize_e(&seqs[v], &seqs[p]);
                let mut w = BitWriter::new();
                factor::encode_e(&mut w, &ef, seqs[p].len(), seqs[v].len(), w_e)
                    .expect("in-memory encode");
                total += w.len_bits() as u64;
                let tcom = factor::factorize_t(&trimmed_flags[v], &trimmed_flags[p]);
                let mut w = BitWriter::new();
                factor::encode_t(&mut w, &tcom, trimmed_flags[p].len()).expect("encode");
                total += w.len_bits() as u64;
                let patches = factor::diff_d(&d_codes[v], &d_codes[p]);
                let mut w = BitWriter::new();
                factor::encode_d(&mut w, &patches, d_codes[v].len(), d_width).expect("encode");
                total += w.len_bits() as u64;
            }
        }
    }
    total
}

/// Checks that chain replay reconstructs every sequence exactly
/// (transitively, root-first). Returns the first failing instance.
pub fn verify_lossless(
    seqs: &[Vec<u32>],
    trimmed_flags: &[Vec<bool>],
    plan: &MultiOrderPlan,
) -> Result<(), usize> {
    let n = seqs.len();
    // Process in increasing depth so parents are verified first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| plan.depth[v]);
    for &v in &order {
        if let Some(p) = plan.parents[v] {
            let ef = factor::factorize_e(&seqs[v], &seqs[p]);
            if factor::apply_e(&ef, &seqs[p]) != seqs[v] {
                return Err(v);
            }
            let tcom = factor::factorize_t(&trimmed_flags[v], &trimmed_flags[p]);
            if factor::apply_t(&tcom, &trimmed_flags[p]) != trimmed_flags[v] {
                return Err(v);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use utcq_core::reference::{assign_roles, Role};

    fn paper_inputs() -> (Vec<Vec<u32>>, Vec<VertexId>, Vec<f64>) {
        (
            vec![
                vec![1, 2, 1, 2, 2, 0, 4, 1, 0],
                vec![1, 1, 1, 2, 2, 0, 4, 1, 0],
                vec![1, 2, 1, 2, 2, 0, 4, 1, 2],
            ],
            vec![VertexId(0); 3],
            vec![0.75, 0.2, 0.05],
        )
    }

    #[test]
    fn order_one_matches_algorithm_one() {
        let (seqs, svs, probs) = paper_inputs();
        let p1 = plan(&seqs, &svs, &probs, 1, 1);
        let roles = assign_roles(&seqs, &svs, &probs, 1);
        for (v, role) in roles.iter().enumerate() {
            match role {
                Role::Reference => assert_eq!(p1.parents[v], None, "instance {v}"),
                Role::NonReference { of } => {
                    assert_eq!(p1.parents[v], Some(*of), "instance {v}")
                }
            }
        }
        assert_eq!(p1.max_depth(), 1);
    }

    #[test]
    fn deeper_orders_reduce_or_match_roots() {
        // A chain-shaped family: each sequence is one edit from the next.
        let mut seqs = vec![vec![1u32, 2, 1, 2, 2, 0, 4, 1, 0]];
        for i in 1..6 {
            let mut s = seqs[i - 1].clone();
            let k = i % s.len();
            s[k] = (s[k] + 1) % 5;
            seqs.push(s);
        }
        let svs = vec![VertexId(0); seqs.len()];
        let probs = vec![1.0 / seqs.len() as f64; seqs.len()];
        let p1 = plan(&seqs, &svs, &probs, 1, 1);
        let p3 = plan(&seqs, &svs, &probs, 1, 3);
        assert!(p3.root_count() <= p1.root_count());
        assert!(p3.max_depth() >= p1.max_depth());
        // Chains stay within bounds and acyclic.
        for v in 0..seqs.len() {
            assert!(p3.depth[v] <= 3);
            let mut cur = v;
            let mut hops = 0;
            while let Some(p) = p3.parents[cur] {
                cur = p;
                hops += 1;
                assert!(hops <= 3, "cycle or over-deep chain");
            }
        }
    }

    #[test]
    fn evaluation_and_losslessness() {
        let (seqs, svs, probs) = paper_inputs();
        let flags: Vec<Vec<bool>> = vec![
            vec![false, true, false, true, true, true, true],
            vec![true, false, false, true, true, true, true],
            vec![false, true, false, true, true, true, true],
        ];
        let d_codes: Vec<Vec<u64>> = vec![
            vec![112, 32, 64, 112, 64, 0, 112],
            vec![112, 32, 64, 112, 64, 0, 112],
            vec![112, 32, 64, 112, 64, 0, 64],
        ];
        for order in 1..=3 {
            let p = plan(&seqs, &svs, &probs, 1, order);
            verify_lossless(&seqs, &flags, &p).unwrap();
            let bits = evaluate_bits(&seqs, &flags, &d_codes, &p, 3, 7);
            assert!(bits > 0);
            // Referential always beats three standalone roots.
            let no_ref = MultiOrderPlan {
                parents: vec![None; 3],
                depth: vec![0; 3],
            };
            let raw_bits = evaluate_bits(&seqs, &flags, &d_codes, &no_ref, 3, 7);
            assert!(bits < raw_bits);
        }
    }

    #[test]
    fn single_instance_plan() {
        let p = plan(&[vec![1, 2, 3]], &[VertexId(0)], &[1.0], 1, 2);
        assert_eq!(p.parents, vec![None]);
        assert_eq!(p.root_count(), 1);
    }
}

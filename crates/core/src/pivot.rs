//! Pivot selection, pivot representation, and the Fine-grained Jaccard
//! Distance (§4.3, Equations 1–2).
//!
//! To avoid trying every instance as a reference, the paper represents all
//! instances against a few *pivots* with plain `(S, L)` factors and
//! estimates pairwise similarity from those factor lists. Pivots are
//! picked greedily to be far from everything (the instance whose current
//! representation has the most factors).

/// A pivot factor: `Some((s, l))` copies `piv[s..s+l]`; `None` marks an
/// element absent from the pivot (the paper "omit\[s\] the factor but
/// increase\[s\] the number of factors by 1").
pub type PivotFactor = Option<(u32, u32)>;

/// Greedy `(S, L)` factorization of `seq` against `piv`.
pub fn pivot_factorize(seq: &[u32], piv: &[u32]) -> Vec<PivotFactor> {
    let mut factors = Vec::new();
    let mut q = 0usize;
    while q < seq.len() {
        let (s, l) = longest_match(&seq[q..], piv);
        if l == 0 {
            factors.push(None);
            q += 1;
        } else {
            factors.push(Some((s as u32, l as u32)));
            q += l;
        }
    }
    factors
}

fn longest_match(needle: &[u32], hay: &[u32]) -> (usize, usize) {
    if needle.is_empty() {
        return (0, 0);
    }
    let first = needle[0];
    let mut best = (0usize, 0usize);
    for s in 0..hay.len() {
        if hay[s] != first || hay.len() - s <= best.1 {
            continue;
        }
        let mut l = 1usize;
        while l < needle.len() && s + l < hay.len() && hay[s + l] == needle[l] {
            l += 1;
        }
        if l > best.1 {
            best = (s, l);
            if l == needle.len() {
                break;
            }
        }
    }
    best
}

/// The Fine-grained Jaccard Distance `FJD(Tuʲw → Tuʲv, piv)` of Eq. 1.
///
/// `com_w` and `com_v` are the pivot representations of the two instances.
/// Despite the name this is a *similarity* (higher = more similar), exactly
/// as the paper uses it inside the score function.
pub fn fjd(com_w: &[PivotFactor], com_v: &[PivotFactor]) -> f64 {
    let h = com_w.len();
    let h_prime = com_v.len();
    if h == 0 || h_prime == 0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for f_v in com_v {
        sum += sim(*f_v, com_w);
    }
    sum / h.max(h_prime) as f64
}

/// Reusable buffers for [`fjd_pair_with`] — reference selection calls it
/// for every instance pair, so per-call allocation is worth avoiding.
#[derive(Debug, Default)]
pub struct FjdScratch {
    best_w: Vec<(u32, u32)>,
    best_v: Vec<(u32, u32)>,
}

/// Both directions of the Fine-grained Jaccard Distance in one overlap
/// pass, `(FJD(w → v), FJD(v → w))`, with caller-provided scratch
/// buffers.
///
/// Equivalent to calling [`fjd`] twice but shares the O(H·H') interval
/// overlap computation — reference selection evaluates every ordered
/// pair, so this halves the paper's dominant `N²·avg|Com|²` term.
pub fn fjd_pair_with(
    com_w: &[PivotFactor],
    com_v: &[PivotFactor],
    scratch: &mut FjdScratch,
) -> (f64, f64) {
    let h = com_w.len();
    let h_prime = com_v.len();
    if h == 0 || h_prime == 0 {
        return (0.0, 0.0);
    }
    // best_for_v[j] = (overlap, l_other) of com_v[j] against com_w, and
    // symmetrically best_for_w[i].
    scratch.best_v.clear();
    scratch.best_v.resize(h_prime, (0u32, u32::MAX));
    scratch.best_w.clear();
    scratch.best_w.resize(h, (0u32, u32::MAX));
    let best_for_v = &mut scratch.best_v;
    let best_for_w = &mut scratch.best_w;
    for (i, f_w) in com_w.iter().enumerate() {
        let Some((sw, lw)) = *f_w else { continue };
        for (j, f_v) in com_v.iter().enumerate() {
            let Some((sv, lv)) = *f_v else { continue };
            let overlap = (sw + lw).min(sv + lv).saturating_sub(sw.max(sv));
            let bv = &mut best_for_v[j];
            if overlap > bv.0 || (overlap == bv.0 && lw < bv.1) {
                *bv = (overlap, lw);
            }
            let bw = &mut best_for_w[i];
            if overlap > bw.0 || (overlap == bw.0 && lv < bw.1) {
                *bw = (overlap, lv);
            }
        }
    }
    let denom = h.max(h_prime) as f64;
    let mut w_to_v = 0.0;
    for (j, f_v) in com_v.iter().enumerate() {
        let Some((_, lv)) = *f_v else { continue };
        let (overlap, lw) = best_for_v[j];
        if overlap > 0 {
            w_to_v += f64::from(overlap) / f64::from(lw.max(lv));
        }
    }
    let mut v_to_w = 0.0;
    for (i, f_w) in com_w.iter().enumerate() {
        let Some((_, lw)) = *f_w else { continue };
        let (overlap, lv) = best_for_w[i];
        if overlap > 0 {
            v_to_w += f64::from(overlap) / f64::from(lv.max(lw));
        }
    }
    (w_to_v / denom, v_to_w / denom)
}

/// Eq. 2: similarity of one factor of `v` against the whole factor list of
/// `w`: the best interval overlap, normalized by the larger of the two
/// factor lengths (with the paper's minimum-tie-break on `L_w`).
fn sim(f_v: PivotFactor, com_w: &[PivotFactor]) -> f64 {
    let Some((sv, lv)) = f_v else { return 0.0 };
    let mut best_overlap = 0u32;
    let mut l_w_max = u32::MAX;
    for f_w in com_w {
        let Some((sw, lw)) = *f_w else { continue };
        let overlap = (sw + lw).min(sv + lv).saturating_sub(sw.max(sv));
        if overlap > best_overlap || (overlap == best_overlap && lw < l_w_max) {
            best_overlap = overlap;
            l_w_max = lw;
        }
    }
    if best_overlap == 0 {
        return 0.0;
    }
    f64::from(best_overlap) / f64::from(l_w_max.max(lv))
}

/// Pivot selection (§4.3): returns the chosen pivot indices and, per
/// pivot, the representation of every instance against it.
pub fn select_pivots(
    seqs: &[Vec<u32>],
    n_pivots: usize,
) -> (Vec<usize>, Vec<Vec<Vec<PivotFactor>>>) {
    let n = seqs.len();
    if n == 0 || n_pivots == 0 {
        return (Vec::new(), Vec::new());
    }
    let n_pivots = n_pivots.min(n);
    let mut chosen: Vec<usize> = Vec::with_capacity(n_pivots);
    let mut reps: Vec<Vec<Vec<PivotFactor>>> = Vec::with_capacity(n_pivots);
    // Step i: seed with instance 0 and represent everything against it.
    let mut current: Vec<Vec<PivotFactor>> =
        seqs.iter().map(|s| pivot_factorize(s, &seqs[0])).collect();
    for _ in 0..n_pivots {
        // Step ii: the instance with the most factors is farthest away.
        let cand = (0..n)
            .filter(|w| !chosen.contains(w))
            .max_by_key(|&w| (current[w].len(), std::cmp::Reverse(w)))
            .expect("n_pivots <= n");
        chosen.push(cand);
        // Step iii: re-represent everything against the new pivot.
        current = seqs
            .iter()
            .map(|s| pivot_factorize(s, &seqs[cand]))
            .collect();
        reps.push(current.clone());
    }
    (chosen, reps)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The running example's edge sequences (Table 3).
    fn e11() -> Vec<u32> {
        vec![1, 2, 1, 2, 2, 0, 4, 1, 0]
    }
    fn e12() -> Vec<u32> {
        vec![1, 1, 1, 2, 2, 0, 4, 1, 0]
    }
    fn e13() -> Vec<u32> {
        vec![1, 2, 1, 2, 2, 0, 4, 1, 2]
    }

    #[test]
    fn paper_pivot_representations() {
        // §4.3: with piv₁ = Tu¹₃, Com_E(Tu¹₁, piv₁) = ⟨(0,8),(5,1)⟩ and
        // Com_E(Tu¹₂, piv₁) = ⟨(0,1),(0,1),(2,6),(5,1)⟩.
        let piv = e13();
        assert_eq!(
            pivot_factorize(&e11(), &piv),
            vec![Some((0, 8)), Some((5, 1))]
        );
        assert_eq!(
            pivot_factorize(&e12(), &piv),
            vec![Some((0, 1)), Some((0, 1)), Some((2, 6)), Some((5, 1))]
        );
    }

    #[test]
    fn absent_symbols_become_none() {
        let piv = e13();
        let seq = vec![9, 1, 2];
        let f = pivot_factorize(&seq, &piv);
        assert_eq!(f[0], None);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn example1_fjd_value() {
        // Example 1: FJD(Tu¹₁ → Tu¹₂, piv₁) = (1/8 + 1/8 + 3/4 + 1)/4 = 1/2.
        let piv = e13();
        let com_w = pivot_factorize(&e11(), &piv);
        let com_v = pivot_factorize(&e12(), &piv);
        let d = fjd(&com_w, &com_v);
        assert!((d - 0.5).abs() < 1e-12, "fjd={d}");
    }

    #[test]
    fn fjd_with_itself_is_high() {
        let piv = e13();
        let com = pivot_factorize(&e11(), &piv);
        assert!(fjd(&com, &com) > 0.9);
    }

    #[test]
    fn fjd_motivating_example() {
        // §4.3: plain Jaccard calls Com(Tu¹₁) = ⟨(0,8),(5,1)⟩ and
        // Com(Tu¹₅) = ⟨(0,7)⟩ completely dissimilar; FJD must not.
        let com_w = vec![Some((0u32, 8u32)), Some((5, 1))];
        let com_v = vec![Some((0u32, 7u32))];
        let d = fjd(&com_w, &com_v);
        assert!(d > 0.4, "fjd={d}");
    }

    #[test]
    fn fjd_empty_inputs() {
        assert_eq!(fjd(&[], &[Some((0, 1))]), 0.0);
        assert_eq!(fjd(&[Some((0, 1))], &[]), 0.0);
        assert_eq!(fjd(&[None], &[None]), 0.0);
    }

    #[test]
    fn pivot_selection_prefers_distant_instances() {
        let seqs = vec![e11(), e12(), e13()];
        let (pivots, reps) = select_pivots(&seqs, 1);
        // Against the seed Tu¹₁, Tu¹₂ has 3 factors and Tu¹₃ has 2, so
        // Tu¹₂ becomes the pivot.
        assert_eq!(pivots, vec![1]);
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].len(), 3);
        // The pivot represents itself with a single factor.
        assert_eq!(reps[0][1], vec![Some((0, 9))]);
    }

    #[test]
    fn multiple_pivots_are_distinct() {
        let seqs = vec![e11(), e12(), e13(), vec![7, 7, 7], vec![1, 2]];
        let (pivots, reps) = select_pivots(&seqs, 3);
        assert_eq!(pivots.len(), 3);
        let unique: std::collections::HashSet<_> = pivots.iter().collect();
        assert_eq!(unique.len(), 3);
        assert_eq!(reps.len(), 3);
    }

    #[test]
    fn pivot_count_clamps_to_instances() {
        let seqs = vec![e11()];
        let (pivots, _) = select_pivots(&seqs, 5);
        assert_eq!(pivots, vec![0]);
        let (pivots, reps) = select_pivots(&[], 2);
        assert!(pivots.is_empty() && reps.is_empty());
    }

    #[test]
    fn factorization_roundtrip_property() {
        // Replaying pivot factors (with Nones standing for the original
        // symbol) reproduces the sequence lengths.
        let piv = e13();
        for seq in [e11(), e12(), vec![4, 4, 0, 1], vec![2; 12]] {
            let f = pivot_factorize(&seq, &piv);
            let total: usize = f.iter().map(|x| x.map_or(1, |(_, l)| l as usize)).sum();
            assert_eq!(total, seq.len());
        }
    }
}

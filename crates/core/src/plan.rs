//! Precomputed per-trajectory query plans.
//!
//! The query hot paths used to rediscover the same structural facts on
//! every call: `instance_probs` rebuilt and re-sorted the
//! `(orig_idx, probability)` list, `decode_instance_cached` located an
//! instance's compressed slot with an O(refs + nrefs) linear scan, and
//! `range_matches` re-sorted candidate members by probability for the
//! Lemma 3 early-accept order. A plan computes each of those once — at
//! `build`/`open`/`ingest` time — so queries reduce to slice lookups:
//!
//! * [`TrajPlan::slot`] — `orig_idx → ref/nref slot` in O(1);
//! * [`TrajPlan::probs`] — dequantized probabilities in original
//!   instance order (the *where* iteration order);
//! * [`TrajPlan::by_prob_desc`] — instances ordered by descending
//!   probability (the *range* Lemma 3 order; ties broken by `orig_idx`
//!   so answers are deterministic).
//!
//! A plan is rows of a column, one [`PlanRow`] per instance, that each
//! [`crate::segment::TrajSegment`] keeps beside its instance rows (and
//! `prob_mass` in the trajectory's row); a [`TrajPlan`] borrows one
//! trajectory's rows.
//!
//! Plans are validated at construction: every instance must occupy a
//! distinct original position covering `0..instance_count` exactly, which
//! is what the compressor emits. A container violating that is rejected
//! when its trajectory is appended, instead of surfacing mid-query.

use utcq_bitio::pddp::PddpCodec;

use crate::error::Error;
use crate::segment::{NrefRow, RefRow, Trajectories};

/// Where an instance lives in the compressed trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Index into [`crate::segment::TrajView::refs`].
    Ref(u32),
    /// Index into [`crate::segment::TrajView::nrefs`].
    NRef(u32),
}

/// Marks a non-reference in [`PlanRow::slot`]; the other bits index.
const NREF: u32 = 1 << 31;

/// Row `i` of a trajectory's plan: two facts about instance `i` (by
/// original index) and the `i`-th entry of the probability order.
#[derive(Debug, Clone, Copy)]
pub struct PlanRow {
    /// Dequantized probability of instance `i`.
    prob: f64,
    /// Slot of instance `i` ([`NREF`]-tagged; `u32::MAX` while unset).
    slot: u32,
    /// The instance ranked `i`-th by probability descending, `orig_idx`
    /// ascending on ties.
    ranked: u32,
}

/// Appends the plan rows of one compressed trajectory to `out`,
/// validating that the original indices are a permutation of
/// `0..instance_count`. Returns [`TrajPlan::prob_mass`].
pub fn plan_rows(
    refs: &[RefRow],
    nrefs: &[NrefRow],
    p_codec: &PddpCodec,
    out: &mut Vec<PlanRow>,
) -> Result<f64, Error> {
    let (at, n) = (out.len(), refs.len() + nrefs.len());
    if n >= NREF as usize {
        return Err(Error::CorruptStore("too many instances"));
    }
    let unset = |ranked| PlanRow {
        prob: 0.0,
        slot: u32::MAX,
        ranked,
    };
    out.extend((0..n as u32).map(unset));
    let rows = &mut out[at..];
    let instances = refs.iter().map(|r| (r.orig_idx, r.p_code));
    let instances = instances.chain(nrefs.iter().map(|n| (n.orig_idx, n.p_code)));
    let placed = instances
        .enumerate()
        .try_for_each(|(slot, (orig_idx, p_code))| {
            let out_of_range = Error::CorruptStore("instance original index out of range");
            let row = rows.get_mut(orig_idx as usize).ok_or(out_of_range)?;
            if row.slot != u32::MAX {
                return Err(Error::CorruptStore("duplicate instance original index"));
            }
            let nref = slot.checked_sub(refs.len());
            row.slot = nref.map_or(slot as u32, |m| NREF | m as u32);
            row.prob = p_codec.dequantize(p_code);
            Ok(())
        });
    if let Err(refused) = placed {
        out.truncate(at);
        return Err(refused);
    }
    // Dense and no duplicates: every row is filled.
    let mut ranked: Vec<u32> = (0..n as u32).collect();
    ranked.sort_by(|&a, &b| {
        let (pa, pb) = (rows[a as usize].prob, rows[b as usize].prob);
        pb.total_cmp(&pa).then(a.cmp(&b))
    });
    for (row, orig_idx) in rows.iter_mut().zip(ranked) {
        row.ranked = orig_idx;
    }
    Ok(rows.iter().map(|row| row.prob).sum())
}

/// The lookup tables of one trajectory, borrowed from its segment.
#[derive(Debug, Clone, Copy)]
pub struct TrajPlan<'a> {
    pub(crate) rows: &'a [PlanRow],
    pub(crate) prob_mass: f64,
}

impl<'a> TrajPlan<'a> {
    /// Number of instances covered by the plan.
    pub fn instance_count(&self) -> usize {
        self.rows.len()
    }

    fn row(&self, orig_idx: u32) -> Result<&'a PlanRow, Error> {
        let missing = Error::CorruptStore("instance index not in refs or nrefs");
        self.rows.get(orig_idx as usize).ok_or(missing)
    }

    /// The compressed slot of instance `orig_idx`.
    pub fn slot(&self, orig_idx: u32) -> Result<Slot, Error> {
        let slot = self.row(orig_idx)?.slot;
        Ok(match slot & NREF {
            0 => Slot::Ref(slot),
            _ => Slot::NRef(slot & !NREF),
        })
    }

    /// Dequantized probability of instance `orig_idx`.
    pub fn prob(&self, orig_idx: u32) -> Result<f64, Error> {
        Ok(self.row(orig_idx)?.prob)
    }

    /// Probabilities in original instance order: the `i`-th is the
    /// probability of instance `i`.
    pub fn probs(&self) -> impl Iterator<Item = f64> + 'a {
        self.rows.iter().map(|row| row.prob)
    }

    /// `(orig_idx, prob)` by probability descending (ties: `orig_idx`
    /// ascending).
    pub fn by_prob_desc(&self) -> impl Iterator<Item = (u32, f64)> + Clone + 'a {
        let rows = self.rows;
        let prob = move |row: &PlanRow| Some((row.ranked, rows.get(row.ranked as usize)?.prob));
        rows.iter().filter_map(prob)
    }

    /// Σ of all instance probabilities, in original instance order — an
    /// upper bound on any probability mass a range query can accumulate
    /// over this trajectory (the `range_matches` accumulator sums a
    /// subset of these terms), so `alpha > prob_mass` (plus float slack)
    /// means the trajectory cannot match, before any decode. Summing the
    /// *maximum* instead would be unsound: Lemma 3 accumulates several
    /// overlapping instances, so e.g. probs `{0.4, 0.35}` reach
    /// 0.75 ≥ α = 0.5 while the max 0.4 alone would prune.
    pub fn prob_mass(&self) -> f64 {
        self.prob_mass
    }
}

/// Builds the plan rows of every trajectory of a compressed dataset, one
/// table for all — what appending them to the dataset already did,
/// segment by segment.
pub fn build_plans(
    trajectories: &Trajectories,
    p_codec: &PddpCodec,
) -> Result<Vec<PlanRow>, Error> {
    let mut rows = Vec::new();
    for ct in trajectories {
        plan_rows(ct.refs, ct.nrefs, p_codec, &mut rows)?;
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress_trajectory;
    use crate::compressed::CompressedTrajectory;
    use crate::params::CompressParams;
    use utcq_traj::paper_fixture;

    fn paper_ct() -> (CompressedTrajectory, CompressParams) {
        let fx = paper_fixture::build();
        let params = CompressParams::with_interval(paper_fixture::DEFAULT_INTERVAL);
        let (ct, _) = compress_trajectory(&fx.example.net, &fx.tu, &params).unwrap();
        (ct, params)
    }

    /// The plan columns of the one trajectory, or why it was refused.
    fn plans_of(ct: &CompressedTrajectory, p_codec: &PddpCodec) -> Result<Trajectories, Error> {
        let mut trajectories = Trajectories::default();
        trajectories.push(ct, p_codec).map(|()| trajectories)
    }

    #[test]
    fn plan_covers_every_instance() {
        let (ct, params) = paper_ct();
        let trajectories = plans_of(&ct, &params.p_codec()).unwrap();
        let plan = trajectories.get(0).unwrap().plan;
        assert_eq!(plan.instance_count(), ct.instance_count());
        for (i, r) in ct.refs.iter().enumerate() {
            assert_eq!(plan.slot(r.orig_idx).unwrap(), Slot::Ref(i as u32));
        }
        for (i, nr) in ct.nrefs.iter().enumerate() {
            assert_eq!(plan.slot(nr.orig_idx).unwrap(), Slot::NRef(i as u32));
        }
        assert!(plan.slot(ct.instance_count() as u32).is_err());
        // The standalone builder derives the same rows.
        let again = build_plans(&trajectories, &params.p_codec()).unwrap();
        assert_eq!(format!("{again:?}"), format!("{:?}", plan.rows));
    }

    #[test]
    fn probabilities_match_dequantized_codes() {
        let (ct, params) = paper_ct();
        let p_codec = params.p_codec();
        let trajectories = plans_of(&ct, &p_codec).unwrap();
        let plan = trajectories.get(0).unwrap().plan;
        for r in &ct.refs {
            assert_eq!(plan.prob(r.orig_idx).unwrap(), p_codec.dequantize(r.p_code));
        }
        for nr in &ct.nrefs {
            assert_eq!(
                plan.prob(nr.orig_idx).unwrap(),
                p_codec.dequantize(nr.p_code)
            );
        }
    }

    #[test]
    fn by_prob_desc_is_sorted_and_deterministic() {
        let (ct, params) = paper_ct();
        let trajectories = plans_of(&ct, &params.p_codec()).unwrap();
        let list: Vec<_> = trajectories.get(0).unwrap().plan.by_prob_desc().collect();
        assert_eq!(list.len(), ct.instance_count());
        for w in list.windows(2) {
            assert!(
                w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                "{w:?}"
            );
        }
    }

    #[test]
    fn prob_mass_is_the_sum_of_instance_probs() {
        let (ct, params) = paper_ct();
        let trajectories = plans_of(&ct, &params.p_codec()).unwrap();
        let plan = trajectories.get(0).unwrap().plan;
        let expect: f64 = plan.probs().sum();
        assert_eq!(plan.prob_mass(), expect);
        assert!(plan.prob_mass() > 0.0);
    }

    #[test]
    fn corrupt_indices_are_rejected() {
        let (mut ct, params) = paper_ct();
        let p_codec = params.p_codec();
        // Duplicate an original index.
        let first = ct.refs[0].orig_idx;
        if let Some(nr) = ct.nrefs.first_mut() {
            nr.orig_idx = first;
            assert!(matches!(
                plans_of(&ct, &p_codec),
                Err(Error::CorruptStore(_))
            ));
        }
        // Out-of-range index.
        let (mut ct2, _) = paper_ct();
        ct2.refs[0].orig_idx = ct2.instance_count() as u32 + 7;
        assert!(matches!(
            plans_of(&ct2, &p_codec),
            Err(Error::CorruptStore(_))
        ));
    }
}

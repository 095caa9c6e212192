//! Per-trajectory query plans, derived on demand.
//!
//! The query hot paths need three structural facts about a trajectory's
//! instances:
//!
//! * [`TrajPlan::slot`] — `orig_idx → ref/nref slot`: the instance's
//!   rank among the instances of its role bit;
//! * [`TrajPlan::probs`] — dequantized probabilities in original
//!   instance order (the *where* iteration order);
//! * [`TrajPlan::by_prob_desc`] — instances ordered by descending
//!   probability, ties broken by `orig_idx` (the rank column of
//!   [`build_plans`]; the *range* path sorts the instances that pass
//!   its cells in the same order, `by_prob`).
//!
//! A segment ([`crate::segment::TrajSegment`]) stores none of them: a
//! [`TrajPlan`] reads them off the trajectory's record — its role bits
//! (one per instance in original order) and its probability codes. The compressor emits
//! references, then non-references, each ascending in `orig_idx`, and a
//! trajectory in any other order is refused when it is appended, so the
//! role bits determine every slot.

use utcq_bitio::pddp::PddpCodec;

use crate::error::Error;
use crate::segment::{TrajView, Trajectories};

/// Where an instance lives in the compressed trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Index into [`crate::segment::TrajView::refs`].
    Ref(u32),
    /// Index into [`crate::segment::TrajView::nrefs`].
    NRef(u32),
}

/// The plan of one trajectory, read from its view with the dataset's
/// probability codec.
#[derive(Debug, Clone, Copy)]
pub struct TrajPlan<'a> {
    view: TrajView<'a>,
    p_codec: PddpCodec,
}

impl<'a> TrajPlan<'a> {
    #[inline]
    pub(crate) fn new(view: TrajView<'a>, p_codec: PddpCodec) -> Self {
        Self { view, p_codec }
    }

    /// Number of instances covered by the plan.
    pub fn instance_count(&self) -> usize {
        self.view.instance_count()
    }

    /// The compressed slot of instance `orig_idx`.
    #[inline]
    pub fn slot(&self, orig_idx: u32) -> Result<Slot, Error> {
        if orig_idx as usize >= self.instance_count() {
            return Err(Error::CorruptStore("instance index not in refs or nrefs"));
        }
        let refs_before = self.view.rank(orig_idx);
        Ok(match self.view.is_ref(orig_idx) {
            true => Slot::Ref(refs_before),
            false => Slot::NRef(orig_idx - refs_before),
        })
    }

    /// Dequantized probability of instance `orig_idx`.
    #[inline]
    pub fn prob(&self, orig_idx: u32) -> Result<f64, Error> {
        let code = self.view.p_code(self.slot(orig_idx)?);
        Ok(self.p_codec.dequantize(code))
    }

    /// Probabilities in original instance order: the `i`-th is the
    /// probability of instance `i`.
    #[inline]
    pub fn probs(&self) -> impl Iterator<Item = f64> + 'a {
        let (view, p_codec) = (self.view, self.p_codec);
        // Instances seen so far per role: non-references, references.
        let mut seen = [0, 0];
        (0..view.instance_count() as u32).map(move |k| {
            let is_ref = view.is_ref(k);
            let i = &mut seen[usize::from(is_ref)]; // bounds: a bool indexes 2
            let slot = if is_ref {
                Slot::Ref(*i)
            } else {
                Slot::NRef(*i)
            };
            *i += 1;
            p_codec.dequantize(view.p_code(slot))
        })
    }

    /// `(orig_idx, prob)` by probability descending (ties: `orig_idx`
    /// ascending).
    pub fn by_prob_desc(&self) -> Vec<(u32, f64)> {
        let mut ranked = Vec::from_iter((0..).zip(self.probs()));
        ranked.sort_unstable_by(by_prob);
        ranked
    }
}

/// The probability order of `(orig_idx, prob)` pairs: probability
/// descending, `orig_idx` ascending on ties.
pub(crate) fn by_prob(a: &(u32, f64), b: &(u32, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Row `i` of a trajectory's derived plan: instance `i`'s probability
/// and slot, and the instance ranked `i`-th by probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanRow {
    /// Dequantized probability of instance `i`.
    pub prob: f64,
    /// Slot of instance `i`.
    pub slot: Slot,
    /// The instance ranked `i`-th by probability descending, `orig_idx`
    /// ascending on ties.
    pub ranked: u32,
}

/// Derives the plan rows of every trajectory of a compressed dataset,
/// one table for all: what a query derives of the trajectories it
/// reads.
pub fn build_plans(
    trajectories: &Trajectories,
    p_codec: &PddpCodec,
) -> Result<Vec<PlanRow>, Error> {
    let mut rows = Vec::new();
    for ct in trajectories {
        let plan = ct.plan(p_codec);
        let ranked = plan
            .by_prob_desc()
            .into_iter()
            .map(|(orig_idx, _)| orig_idx);
        for ((k, prob), ranked) in (0..).zip(plan.probs()).zip(ranked) {
            let slot = plan.slot(k)?;
            rows.push(PlanRow { prob, slot, ranked });
        }
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

    /// A dataset of the one trajectory, or why it was refused.
    fn plans_of(ct: &CompressedTrajectory) -> Result<Trajectories, Error> {
        let fx = paper_fixture::build();
        let params = CompressParams::with_interval(paper_fixture::DEFAULT_INTERVAL);
        let empty = crate::CompressedDataset::empty(&fx.example.net, "", params);
        let mut trajectories = empty.trajectories;
        trajectories.push(ct).map(|()| trajectories)
    }

    #[test]
    fn plan_covers_every_instance() {
        let (ct, params) = paper_ct();
        let p_codec = params.p_codec();
        let trajectories = plans_of(&ct).unwrap();
        let plan = trajectories.get(0).unwrap().plan(&p_codec);
        assert_eq!(plan.instance_count(), ct.instance_count());
        for (i, r) in ct.refs.iter().enumerate() {
            assert_eq!(plan.slot(r.orig_idx).unwrap(), Slot::Ref(i as u32));
        }
        for (i, nr) in ct.nrefs.iter().enumerate() {
            assert_eq!(plan.slot(nr.orig_idx).unwrap(), Slot::NRef(i as u32));
        }
        assert!(plan.slot(ct.instance_count() as u32).is_err());
        // The standalone builder derives the same rows.
        let rows = build_plans(&trajectories, &p_codec).unwrap();
        let ranked = plan.by_prob_desc();
        for ((k, row), &(ranked, _)) in (0..).zip(&rows).zip(&ranked) {
            let expect = (plan.slot(k).unwrap(), plan.prob(k).unwrap(), ranked);
            assert_eq!((row.slot, row.prob, row.ranked), expect);
        }
        assert_eq!(rows.len(), ct.instance_count());
    }

    #[test]
    fn probabilities_match_dequantized_codes() {
        let (ct, params) = paper_ct();
        let p_codec = params.p_codec();
        let trajectories = plans_of(&ct).unwrap();
        let plan = trajectories.get(0).unwrap().plan(&p_codec);
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
        let p_codec = params.p_codec();
        let trajectories = plans_of(&ct).unwrap();
        let plan = trajectories.get(0).unwrap().plan(&p_codec);
        let list = plan.by_prob_desc();
        assert_eq!(list.len(), ct.instance_count());
        for w in list.windows(2) {
            assert!(
                w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                "{w:?}"
            );
        }
    }

    #[test]
    fn corrupt_indices_are_rejected() {
        let (mut ct, _) = paper_ct();
        // Duplicate an original index.
        let first = ct.refs[0].orig_idx;
        if let Some(nr) = ct.nrefs.first_mut() {
            nr.orig_idx = first;
            assert!(matches!(plans_of(&ct), Err(Error::CorruptStore(_))));
        }
        // Out-of-range index.
        let (mut ct2, _) = paper_ct();
        ct2.refs[0].orig_idx = ct2.instance_count() as u32 + 7;
        assert!(matches!(plans_of(&ct2), Err(Error::CorruptStore(_))));
    }
}

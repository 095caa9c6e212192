//! The UTCQ compressor (§4): improved TED representation, reference
//! selection, referential representation, and binary encoding.

use utcq_bitio::{golomb, BitWriter, CodecError};
use utcq_network::RoadNetwork;
use utcq_traj::size::SizeBreakdown;
use utcq_traj::{Dataset, TedView, UncertainTrajectory};

use crate::compressed::{
    edge_number_width, encode_d_codes, encode_entries, encode_flags, CompressedNonRef,
    CompressedRef, CompressedTrajectory,
};
use crate::error::Error;
use crate::factor;
use crate::par::par_in_order;
use crate::params::CompressParams;
use crate::reference::{assign_roles, Role};
use crate::segment::{CtxWidths, Table, TrajSegment, TrajView, Trajectories};
use crate::siar;

/// A compressed dataset plus size accounting.
#[derive(Debug, Clone)]
pub struct CompressedDataset {
    /// Dataset label.
    pub name: String,
    /// Parameters used.
    pub params: CompressParams,
    /// Fixed width of outgoing-edge numbers.
    pub w_e: u32,
    /// The compressed trajectories, in `Arc`'d flat segments so a live
    /// publish clones the segment directory, not the payloads (see
    /// [`crate::segment`]); read as [`crate::segment::TrajView`]s.
    pub trajectories: Trajectories,
    /// Compressed footprint per component.
    pub compressed: SizeBreakdown,
    /// Raw footprint per component (the ratio numerators).
    pub raw: SizeBreakdown,
}

impl CompressedDataset {
    /// Component-wise and total compression ratios (Table 8 row).
    pub fn ratios(&self) -> Ratios {
        Ratios::from_sizes(&self.raw, &self.compressed)
    }
}

/// Compression ratios per component, as reported in Table 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratios {
    /// Overall ratio.
    pub total: f64,
    /// Time sequence.
    pub t: f64,
    /// Edge sequence (start vertices folded in, as in TED's `E`).
    pub e: f64,
    /// Relative distances.
    pub d: f64,
    /// Time-flag bit-strings.
    pub tflag: f64,
    /// Probabilities.
    pub p: f64,
}

impl Ratios {
    /// Ratios from raw/compressed footprints — also used to aggregate
    /// across shard partitions.
    pub fn from_sizes(raw: &SizeBreakdown, compressed: &SizeBreakdown) -> Self {
        let div = |num: u64, den: u64| {
            if den == 0 {
                f64::NAN
            } else {
                num as f64 / den as f64
            }
        };
        Ratios {
            total: div(raw.total(), compressed.total()),
            t: div(raw.t, compressed.t),
            e: div(raw.e + raw.sv, compressed.e + compressed.sv),
            d: div(raw.d, compressed.d),
            tflag: div(raw.tflag, compressed.tflag),
            p: div(raw.p, compressed.p),
        }
    }
}

/// Compresses one uncertain trajectory.
pub fn compress_trajectory(
    net: &RoadNetwork,
    tu: &UncertainTrajectory,
    params: &CompressParams,
) -> Result<(CompressedTrajectory, SizeBreakdown), CodecError> {
    let views: Vec<TedView> = tu
        .instances
        .iter()
        .map(|i| TedView::from_instance(net, i))
        .collect();
    let seqs: Vec<Vec<u32>> = views.iter().map(|v| v.entries.clone()).collect();
    let svs: Vec<_> = views.iter().map(|v| v.sv).collect();
    let probs: Vec<f64> = views.iter().map(|v| v.prob).collect();
    let roles = assign_roles(&seqs, &svs, &probs, params.n_pivots);
    compress_views(net, tu, params, &roles, views)
}

/// Compresses one trajectory under an externally supplied role
/// assignment — used by the reference-selection ablations. Every
/// `NonReference { of }` must point at a `Reference` with the same start
/// vertex.
pub fn compress_trajectory_with_roles(
    net: &RoadNetwork,
    tu: &UncertainTrajectory,
    params: &CompressParams,
    roles: &[Role],
) -> Result<(CompressedTrajectory, SizeBreakdown), CodecError> {
    let views: Vec<TedView> = tu
        .instances
        .iter()
        .map(|i| TedView::from_instance(net, i))
        .collect();
    compress_views(net, tu, params, roles, views)
}

fn compress_views(
    net: &RoadNetwork,
    tu: &UncertainTrajectory,
    params: &CompressParams,
    roles: &[Role],
    views: Vec<TedView>,
) -> Result<(CompressedTrajectory, SizeBreakdown), CodecError> {
    let w_e = edge_number_width(net.max_out_degree());
    let d_codec = params.d_codec();
    let p_codec = params.p_codec();
    let n_locs = tu.times.len();

    // Quantized distance codes per instance (comparison for Com_D happens
    // at the quantized level so patches survive the lossy step).
    let d_codes: Vec<Vec<u64>> = views
        .iter()
        .map(|v| v.rds.iter().map(|&rd| d_codec.quantize(rd)).collect())
        .collect();

    let t_bits = siar::encode(&tu.times, params.default_interval)?;
    let mut size = SizeBreakdown {
        t: (t_bits.len_bits() + golomb::unsigned_len(n_locs as u64)) as u64,
        ..Default::default()
    };

    let mut refs = Vec::new();
    // Map from instance index to its position in `refs`.
    let mut ref_pos = vec![u32::MAX; views.len()];
    for (i, view) in views.iter().enumerate() {
        if roles[i] == Role::Reference {
            ref_pos[i] = refs.len() as u32;
            let e_bits = encode_entries(&view.entries, w_e)?;
            let tflag_bits = encode_flags(view.trimmed_flags());
            let d_bits = encode_d_codes(&d_codes[i], &d_codec)?;
            size.sv += 32;
            size.e += (golomb::unsigned_len(view.entries.len() as u64) + e_bits.len_bits()) as u64;
            size.tflag += tflag_bits.len_bits() as u64;
            size.d += d_bits.len_bits() as u64;
            size.p += u64::from(p_codec.width());
            refs.push(CompressedRef {
                orig_idx: i as u32,
                sv: view.sv,
                n_entries: view.entries.len() as u32,
                e_bits,
                tflag_bits,
                d_bits,
                p_code: p_codec.quantize(view.prob),
            });
        }
    }

    let ref_idx_bits = utcq_bitio::width_for_max(refs.len().saturating_sub(1) as u64);
    let mut nrefs = Vec::new();
    for (i, view) in views.iter().enumerate() {
        let Role::NonReference { of } = roles[i] else {
            continue;
        };
        let rp = ref_pos[of];
        debug_assert_ne!(rp, u32::MAX, "non-reference must point at a reference");
        let ref_view = &views[of];

        let e_factors = factor::factorize_e(&view.entries, &ref_view.entries);
        let mut w = BitWriter::new();
        factor::encode_e(
            &mut w,
            &e_factors,
            ref_view.entries.len(),
            view.entries.len(),
            w_e,
        )?;
        let e_com = w.finish();

        let tcom = factor::factorize_t(view.trimmed_flags(), ref_view.trimmed_flags());
        let mut w = BitWriter::new();
        factor::encode_t(&mut w, &tcom, ref_view.trimmed_flags().len())?;
        let t_com = w.finish();

        let patches = factor::diff_d(&d_codes[i], &d_codes[of]);
        let mut w = BitWriter::new();
        factor::encode_d(&mut w, &patches, n_locs, d_codec.width())?;
        let d_com = w.finish();

        size.e += (e_com.len_bits() + ref_idx_bits as usize) as u64;
        size.tflag += t_com.len_bits() as u64;
        size.d += d_com.len_bits() as u64;
        size.p += u64::from(p_codec.width());
        nrefs.push(CompressedNonRef {
            orig_idx: i as u32,
            ref_idx: rp,
            e_com,
            t_com,
            d_com,
            p_code: p_codec.quantize(view.prob),
        });
    }

    Ok((
        CompressedTrajectory {
            id: tu.id,
            n_times: n_locs as u32,
            t_bits,
            refs,
            nrefs,
        },
        size,
    ))
}

/// One trajectory compressed and packed as a one-trajectory segment,
/// with its compressed and raw footprints: what
/// [`CompressedDataset::append`] copies in. Made on any thread.
pub(crate) struct Compressed {
    packed: TrajSegment,
    size: SizeBreakdown,
    raw: SizeBreakdown,
}

impl Compressed {
    /// Compresses `tu` and packs it as a one-trajectory segment.
    pub(crate) fn of(
        net: &RoadNetwork,
        tu: &UncertainTrajectory,
        params: &CompressParams,
    ) -> Result<Self, Error> {
        let (ct, size) = compress_trajectory(net, tu, params)?;
        let packed = TrajSegment::of(&ct, ctx_widths(net, params))?;
        let raw = utcq_traj::size::uncompressed_bits(tu);
        Ok(Self { packed, size, raw })
    }

    /// The packed trajectory.
    pub(crate) fn view(&self) -> Result<TrajView<'_>, Error> {
        let missing = Error::CorruptStore("no packed trajectory");
        self.packed.view(0).ok_or(missing)
    }
}

/// The widths a dataset compressed with `params` on `net` packs its
/// records' context-fixed fields at.
fn ctx_widths(net: &RoadNetwork, params: &CompressParams) -> CtxWidths {
    let w_e = edge_number_width(net.max_out_degree());
    CtxWidths::new(net.vertex_count(), params, w_e)
}

impl CompressedDataset {
    /// An empty dataset on `net`.
    pub(crate) fn empty(net: &RoadNetwork, name: &str, params: CompressParams) -> Self {
        let ctx = ctx_widths(net, &params);
        Self {
            name: name.to_string(),
            params,
            w_e: ctx.w_e,
            trajectories: Trajectories::new(ctx),
            compressed: SizeBreakdown::default(),
            raw: SizeBreakdown::default(),
        }
    }

    /// Stores a compressed trajectory at the end and returns its
    /// position.
    pub(crate) fn append(&mut self, c: &Compressed) -> Result<u32, Error> {
        let j = crate::segment::offset(self.trajectories.len())?;
        self.compressed.add(&c.size);
        self.raw.add(&c.raw);
        self.trajectories.push_packed(&c.packed)?;
        Ok(j)
    }
}

/// Compresses a full dataset, accumulating size accounting: the
/// trajectories compress on every core and are stored in input order.
pub fn compress_dataset(
    net: &RoadNetwork,
    ds: &Dataset,
    params: &CompressParams,
) -> Result<CompressedDataset, Error> {
    let mut cds = CompressedDataset::empty(net, &ds.name, *params);
    let tus = &ds.trajectories;
    par_in_order(
        tus.len(),
        |i| Compressed::of(net, &tus[i], params), // bounds: i < tus.len()
        |_, c| cds.append(c).map(drop),
    )?;
    Ok(cds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use utcq_traj::paper_fixture;

    fn paper_setup() -> (
        utcq_network::RoadNetwork,
        UncertainTrajectory,
        CompressParams,
    ) {
        let fx = paper_fixture::build();
        let params = CompressParams {
            default_interval: paper_fixture::DEFAULT_INTERVAL,
            ..CompressParams::default()
        };
        (fx.example.net, fx.tu, params)
    }

    #[test]
    fn paper_trajectory_structure() {
        let (net, tu, params) = paper_setup();
        let (ct, _) = compress_trajectory(&net, &tu, &params).unwrap();
        // Example 2: one reference (Tu¹₁) and two non-references.
        assert_eq!(ct.refs.len(), 1);
        assert_eq!(ct.nrefs.len(), 2);
        assert_eq!(ct.refs[0].orig_idx, 0);
        assert_eq!(ct.n_times, 7);
    }

    #[test]
    fn paper_trajectory_compresses() {
        let (net, tu, params) = paper_setup();
        let (_, size) = compress_trajectory(&net, &tu, &params).unwrap();
        let raw = utcq_traj::size::uncompressed_bits(&tu);
        assert!(
            size.total() < raw.total() / 3,
            "compressed {} raw {}",
            size.total(),
            raw.total()
        );
        // Every component shrinks.
        assert!(size.t < raw.t);
        assert!(size.e + size.sv < raw.e + raw.sv);
        assert!(size.d < raw.d);
        assert!(size.p < raw.p);
    }

    #[test]
    fn dataset_accounting_accumulates() {
        let (net, tu, params) = paper_setup();
        let ds = Dataset {
            name: "paper".into(),
            default_interval: paper_fixture::DEFAULT_INTERVAL,
            trajectories: vec![tu.clone(), tu],
        };
        let cds = compress_dataset(&net, &ds, &params).unwrap();
        assert_eq!(cds.trajectories.len(), 2);
        assert_eq!(
            cds.raw.total(),
            2 * utcq_traj::size::uncompressed_bits(&ds.trajectories[0]).total()
        );
        let r = cds.ratios();
        assert!(r.total > 3.0, "total ratio {}", r.total);
        assert!(r.t > 5.0, "time ratio {}", r.t);
    }
}

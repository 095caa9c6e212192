//! Full decompression back to uncertain trajectories.
//!
//! Decompression is exact except for the PDDP-quantized relative distances
//! and probabilities, whose error stays within `ηD` / `ηp` — the paper's
//! only lossy component.

use utcq_bitio::pddp::PddpCodec;
use utcq_bitio::CodecError;
use utcq_network::RoadNetwork;
use utcq_traj::{Instance, TedView, UncertainTrajectory};

use crate::compress::CompressedDataset;
use crate::compressed::{untrim_flags, DecodedRef};
use crate::params::CompressParams;
use crate::segment::TrajView;
use crate::siar;

/// Errors during decompression.
#[derive(Debug)]
pub enum DecompressError {
    /// A bit-level decode failed.
    Codec(CodecError),
    /// The decoded view did not resolve against the road network.
    View(utcq_traj::TedViewError),
}

impl From<CodecError> for DecompressError {
    fn from(e: CodecError) -> Self {
        DecompressError::Codec(e)
    }
}

impl From<utcq_traj::TedViewError> for DecompressError {
    fn from(e: utcq_traj::TedViewError) -> Self {
        DecompressError::View(e)
    }
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompressError::Codec(e) => write!(f, "codec error: {e}"),
            DecompressError::View(e) => write!(f, "view error: {e}"),
        }
    }
}

impl std::error::Error for DecompressError {}

/// The TED view of a decoded reference or non-reference.
pub(crate) fn view_from_decoded(
    sv: utcq_network::VertexId,
    dec: &DecodedRef,
    d_codec: &PddpCodec,
    prob: f64,
) -> TedView {
    TedView {
        sv,
        entries: dec.entries.clone(),
        flags: untrim_flags(&dec.trimmed_flags, dec.entries.len()),
        rds: dec.d_codes.iter().map(|&c| d_codec.dequantize(c)).collect(),
        prob,
    }
}

/// Decompresses one trajectory, restoring original instance order.
pub fn decompress_trajectory(
    net: &RoadNetwork,
    ct: &TrajView<'_>,
    params: &CompressParams,
) -> Result<UncertainTrajectory, DecompressError> {
    let d_codec = params.d_codec();
    let p_codec = params.p_codec();
    let times = siar::decode(ct.t_bits(), ct.n_times as usize, params.default_interval)?;

    // A view's original indices are a permutation and its `ref_idx`s in
    // range: its segment checked both when the trajectory was appended.
    let mut instances: Vec<Option<Instance>> = vec![None; ct.instance_count()];
    let mut decoded_refs = Vec::with_capacity(ct.ref_count());
    for (i, cref) in ct.refs().enumerate() {
        let dec = ct.decode_ref(i, &d_codec)?;
        let view = view_from_decoded(cref.sv, &dec, &d_codec, p_codec.dequantize(cref.p_code));
        instances[cref.orig_idx as usize] = Some(view.to_instance(net)?);
        decoded_refs.push((cref.sv, dec));
    }
    for (i, cnref) in ct.nrefs().enumerate() {
        let (sv, dref) = &decoded_refs[cnref.ref_idx as usize];
        let dec = ct.decode_nref(i, dref, &d_codec)?;
        let view = view_from_decoded(*sv, &dec, &d_codec, p_codec.dequantize(cnref.p_code));
        instances[cnref.orig_idx as usize] = Some(view.to_instance(net)?);
    }
    Ok(UncertainTrajectory {
        id: ct.id,
        times,
        instances: instances
            .into_iter()
            .map(|i| i.expect("every slot filled"))
            .collect(),
    })
}

/// Decompresses a whole dataset.
pub fn decompress_dataset(
    net: &RoadNetwork,
    cds: &CompressedDataset,
) -> Result<utcq_traj::Dataset, DecompressError> {
    let mut trajectories = Vec::with_capacity(cds.trajectories.len());
    for ct in &cds.trajectories {
        trajectories.push(decompress_trajectory(net, &ct, &cds.params)?);
    }
    Ok(utcq_traj::Dataset {
        name: cds.name.clone(),
        default_interval: cds.params.default_interval,
        trajectories,
    })
}

/// Asserts two trajectories are equal up to PDDP quantization: identical
/// structure (times, paths, flags) with distances within `eta_d` and
/// probabilities within `eta_p`. Returns a description of the first
/// mismatch.
pub fn check_lossy_roundtrip(
    a: &UncertainTrajectory,
    b: &UncertainTrajectory,
    eta_d: f64,
    eta_p: f64,
) -> Result<(), String> {
    if a.times != b.times {
        return Err("time sequences differ".into());
    }
    if a.instances.len() != b.instances.len() {
        return Err("instance counts differ".into());
    }
    for (w, (x, y)) in a.instances.iter().zip(&b.instances).enumerate() {
        if x.path != y.path {
            return Err(format!("instance {w}: paths differ"));
        }
        if (x.prob - y.prob).abs() > eta_p {
            return Err(format!(
                "instance {w}: probability {} vs {} exceeds eta_p",
                x.prob, y.prob
            ));
        }
        if x.positions.len() != y.positions.len() {
            return Err(format!("instance {w}: position counts differ"));
        }
        for (i, (p, q)) in x.positions.iter().zip(&y.positions).enumerate() {
            if p.path_idx != q.path_idx {
                return Err(format!("instance {w} position {i}: edges differ"));
            }
            if (p.rd - q.rd).abs() > eta_d {
                return Err(format!(
                    "instance {w} position {i}: rd {} vs {} exceeds eta_d",
                    p.rd, q.rd
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress_dataset, compress_trajectory};
    use utcq_traj::paper_fixture;

    #[test]
    fn paper_roundtrip() {
        let fx = paper_fixture::build();
        let params = CompressParams {
            default_interval: paper_fixture::DEFAULT_INTERVAL,
            ..CompressParams::default()
        };
        let (ct, _) = compress_trajectory(&fx.example.net, &fx.tu, &params).unwrap();
        let mut stored = CompressedDataset::empty(&fx.example.net, "", params).trajectories;
        stored.push(&ct).unwrap();
        let ct = stored.get(0).unwrap();
        let back = decompress_trajectory(&fx.example.net, &ct, &params).unwrap();
        check_lossy_roundtrip(&fx.tu, &back, params.eta_d, params.eta_p).unwrap();
        // Times and paths are exactly lossless.
        assert_eq!(back.times, fx.tu.times);
        for (a, b) in back.instances.iter().zip(&fx.tu.instances) {
            assert_eq!(a.path, b.path);
        }
        // Table 3's distances are dyadic at ηD = 1/128, so even the lossy
        // component round-trips exactly here.
        for (a, b) in back.instances.iter().zip(&fx.tu.instances) {
            assert_eq!(a.positions, b.positions);
        }
    }

    #[test]
    fn synthetic_dataset_roundtrip() {
        let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 25, 11);
        let params = CompressParams::with_interval(ds.default_interval);
        let cds = compress_dataset(&net, &ds, &params).unwrap();
        let back = decompress_dataset(&net, &cds).unwrap();
        assert_eq!(back.trajectories.len(), ds.trajectories.len());
        for (a, b) in ds.trajectories.iter().zip(&back.trajectories) {
            check_lossy_roundtrip(a, b, params.eta_d, params.eta_p).unwrap();
        }
        // Probabilities stay within the accumulated quantization bound
        // (exact 1.0 is impossible after PDDP, cf. the paper's Fig. 11).
        for tu in &back.trajectories {
            let sum: f64 = tu.instances.iter().map(|i| i.prob).sum();
            let bound = tu.instance_count() as f64 * params.eta_p;
            assert!((sum - 1.0).abs() <= bound, "sum {sum} bound {bound}");
        }
    }

    #[test]
    fn decompressed_vectors_are_sized_exactly() {
        // A decompressed dataset is held by the million and decoded
        // instances are what the decode cache keeps: no spare capacity.
        let mut profiles = utcq_datagen::profile::all();
        profiles.push(utcq_datagen::profile::tiny());
        for profile in &profiles {
            let (net, ds) = utcq_datagen::generate(profile, 40, 19);
            let params = CompressParams::with_interval(ds.default_interval);
            let cds = compress_dataset(&net, &ds, &params).unwrap();
            let back = decompress_dataset(&net, &cds).unwrap();
            assert_eq!(back.trajectories.capacity(), back.trajectories.len());
            for tu in &back.trajectories {
                let what = format!("{} trajectory {}", profile.name, tu.id);
                assert_eq!(tu.times.capacity(), tu.times.len(), "{what}");
                assert_eq!(tu.instances.capacity(), tu.instances.len(), "{what}");
                for inst in &tu.instances {
                    assert_eq!(inst.path.capacity(), inst.path.len(), "{what}");
                    assert_eq!(inst.positions.capacity(), inst.positions.len(), "{what}");
                }
            }
        }
    }

    #[test]
    fn roundtrip_is_stable_under_recompression() {
        // compress(decompress(compress(x))) must produce identical bits
        // (PDDP quantization is a fixed point).
        let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 8, 13);
        let params = CompressParams::with_interval(ds.default_interval);
        let c1 = compress_dataset(&net, &ds, &params).unwrap();
        let d1 = decompress_dataset(&net, &c1).unwrap();
        let c2 = compress_dataset(&net, &d1, &params).unwrap();
        let d2 = decompress_dataset(&net, &c2).unwrap();
        for (a, b) in d1.trajectories.iter().zip(&d2.trajectories) {
            assert_eq!(a, b);
        }
    }
}

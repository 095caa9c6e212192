//! Compressed containers and their bit layouts.
//!
//! Per uncertain trajectory, UTCQ stores one SIAR-encoded time stream plus
//! per-instance payloads split by role:
//!
//! * a **reference** keeps its start vertex, fixed-width edge entries
//!   (entry `i` starts at bit `i·w_e`, which is what makes the StIU
//!   `fv.no` pointers work), the trimmed time-flag bits verbatim, one PDDP
//!   code per relative distance (code `i` at bit `i·w_d` — the `d.pos`
//!   pointers), and a PDDP probability code;
//! * a **non-reference** keeps only factor streams (`Com_E`, `Com_T'`,
//!   `Com_D`) against its reference, plus its probability code.
//!
//! `orig_idx` preserves the original instance ordering for exact
//! round-trip testing; it is reconstruction metadata, not counted in the
//! compressed size (instances form a set, Definition 5).
//!
//! The owned types below are what [`crate::compress::compress_trajectory`]
//! returns, one trajectory at a time. A dataset does not keep them: it
//! appends each to a [`crate::segment`] (as the record a container
//! block holds, fields and streams bit-packed) and reads it back as a borrowed
//! [`crate::segment::TrajView`], which is also what decodes.

use utcq_bitio::pddp::PddpCodec;
use utcq_bitio::{width_for_max, BitBuf, BitSlice, BitWriter, CodecError};
use utcq_network::VertexId;

/// A compressed reference instance.
#[derive(Debug, Clone)]
pub struct CompressedRef {
    /// Position of this instance in the original instance list.
    pub orig_idx: u32,
    /// Start vertex (kept verbatim; 32 bits).
    pub sv: VertexId,
    /// Number of `E` entries.
    pub n_entries: u32,
    /// Fixed-width outgoing-edge numbers, entry `i` at bit `i·w_e`.
    pub e_bits: BitBuf,
    /// Trimmed time flags (`n_entries − 2` bits), verbatim.
    pub tflag_bits: BitBuf,
    /// PDDP distance codes, code `i` at bit `i·w_d`.
    pub d_bits: BitBuf,
    /// PDDP probability code.
    pub p_code: u64,
}

/// A compressed non-reference instance.
#[derive(Debug, Clone)]
pub struct CompressedNonRef {
    /// Position of this instance in the original instance list.
    pub orig_idx: u32,
    /// Index into [`CompressedTrajectory::refs`] of the owning reference.
    pub ref_idx: u32,
    /// Encoded `Com_E` (header + factors).
    pub e_com: BitBuf,
    /// Encoded `Com_T'`.
    pub t_com: BitBuf,
    /// Encoded `Com_D`.
    pub d_com: BitBuf,
    /// PDDP probability code.
    pub p_code: u64,
}

/// One compressed uncertain trajectory.
#[derive(Debug, Clone)]
pub struct CompressedTrajectory {
    /// Original trajectory id.
    pub id: u64,
    /// Number of shared timestamps.
    pub n_times: u32,
    /// SIAR + improved-Exp-Golomb time stream.
    pub t_bits: BitBuf,
    /// Reference instances.
    pub refs: Vec<CompressedRef>,
    /// Non-reference instances.
    pub nrefs: Vec<CompressedNonRef>,
}

impl CompressedTrajectory {
    /// Total number of instances.
    pub fn instance_count(&self) -> usize {
        self.refs.len() + self.nrefs.len()
    }
}

/// Encodes fixed-width edge entries.
pub fn encode_entries(entries: &[u32], w_e: u32) -> Result<BitBuf, CodecError> {
    let mut w = BitWriter::with_capacity(entries.len() * w_e as usize);
    for &e in entries {
        w.write_bits(u64::from(e), w_e)?;
    }
    Ok(w.finish())
}

/// Decodes all fixed-width edge entries of a reference.
pub fn decode_entries(buf: BitSlice<'_>, n: usize, w_e: u32) -> Result<Vec<u32>, CodecError> {
    let mut r = buf.reader();
    (0..n).map(|_| Ok(r.read_bits(w_e)? as u32)).collect()
}

/// Packs a bool slice into a bit buffer.
pub fn encode_flags(flags: &[bool]) -> BitBuf {
    BitBuf::from_bits(flags)
}

/// Reconstructs the *full* time-flag bit-string from its trimmed form by
/// re-adding the always-1 first and last bits (§4.1).
pub fn untrim_flags(trimmed: &[bool], n_entries: usize) -> Vec<bool> {
    debug_assert!(n_entries >= 2, "an instance spans at least two entries");
    let mut full = Vec::with_capacity(n_entries);
    full.push(true);
    full.extend_from_slice(trimmed);
    full.push(true);
    full
}

/// Encodes PDDP distance codes.
pub fn encode_d_codes(codes: &[u64], codec: &PddpCodec) -> Result<BitBuf, CodecError> {
    let mut w = BitWriter::with_capacity(codes.len() * codec.width() as usize);
    for &c in codes {
        w.write_bits(c, codec.width())?;
    }
    Ok(w.finish())
}

/// Decodes all PDDP distance codes of a reference.
pub fn decode_d_codes(
    buf: BitSlice<'_>,
    n: usize,
    codec: &PddpCodec,
) -> Result<Vec<u64>, CodecError> {
    let mut r = buf.reader();
    (0..n).map(|_| r.read_bits(codec.width())).collect()
}

/// Fully decoded (but still quantized) view of a reference, reused when
/// decoding its non-references.
#[derive(Debug, Clone)]
pub struct DecodedRef {
    /// Outgoing-edge entries.
    pub entries: Vec<u32>,
    /// Trimmed time flags.
    pub trimmed_flags: Vec<bool>,
    /// PDDP distance codes.
    pub d_codes: Vec<u64>,
}

impl DecodedRef {
    /// Heap footprint (what is allocated, not just what is used), for
    /// cache byte accounting.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<u32>()
            + self.trimmed_flags.capacity()
            + self.d_codes.capacity() * std::mem::size_of::<u64>()
    }
}

/// Fixed width of outgoing-edge numbers for a network with max out-degree
/// `o` (one extra value for the `0` repeat marker).
pub fn edge_number_width(max_out_degree: u32) -> u32 {
    width_for_max(u64::from(max_out_degree))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_roundtrip_and_random_access() {
        let entries = vec![1, 2, 1, 2, 2, 0, 4, 1, 0];
        let w_e = edge_number_width(4);
        assert_eq!(w_e, 3);
        let buf = encode_entries(&entries, w_e).unwrap();
        assert_eq!(buf.len_bits(), 27);
        assert_eq!(decode_entries(buf.as_slice(), 9, w_e).unwrap(), entries);
    }

    #[test]
    fn flags_untrim() {
        let trimmed = vec![false, true, false];
        assert_eq!(
            untrim_flags(&trimmed, 5),
            vec![true, false, true, false, true]
        );
        assert_eq!(untrim_flags(&[], 2), vec![true, true]);
    }

    #[test]
    fn d_codes_random_access() {
        let codec = PddpCodec::from_error_bound(1.0 / 128.0);
        let codes: Vec<u64> = vec![112, 32, 64, 112, 64, 0, 112];
        let buf = encode_d_codes(&codes, &codec).unwrap();
        assert_eq!(decode_d_codes(buf.as_slice(), 7, &codec).unwrap(), codes);
    }

    #[test]
    fn edge_width_includes_repeat_marker() {
        assert_eq!(edge_number_width(1), 1);
        assert_eq!(edge_number_width(2), 2);
        assert_eq!(edge_number_width(4), 3);
        assert_eq!(edge_number_width(7), 3);
        assert_eq!(edge_number_width(8), 4);
    }
}

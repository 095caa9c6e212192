//! Bit-level codecs for the UTCQ reproduction.
//!
//! This crate provides the low-level encoding substrate that both the UTCQ
//! framework (`utcq-core`) and the TED baseline (`utcq-ted`) are built on:
//!
//! * [`BitWriter`] / [`BitReader`] / [`BitBuf`] / [`BitSlice`] — MSB-first bit streams with
//!   random access, so indexes can store *bit positions* into compressed
//!   streams and decompression can start mid-stream (the paper's `t.pos`,
//!   `d.pos`, and `ma.pos` pointers).
//! * [`golomb`] — standard Exp-Golomb (k = 0) codes plus the paper's
//!   *improved* signed Exp-Golomb code for sample-interval deviations
//!   (§4.4 of the paper).
//! * [`pddp`] — the distance-preserving fixed-error float code used for
//!   relative distances and probabilities (the PDDP encoding of TED,
//!   reused by UTCQ with error bounds `ηD` and `ηp`).
//! * [`wah`] — Word-Aligned Hybrid bitmap compression (reference \[33\] of
//!   the paper), used by the TED baseline's time-flag path and by
//!   ablations.
//! * [`huffman`] — canonical Huffman codes, the ablation stand-in for
//!   TED's (unpublished) PDDP-tree dictionary over distance values.
//!
//! All codecs are lossless round-trips except [`pddp`], which is lossy with
//! a caller-chosen error bound — exactly the paper's single lossy component.

mod buf;
mod error;
pub mod golomb;
pub mod huffman;
pub mod pddp;
pub mod wah;

pub use buf::{BitBuf, BitReader, BitSlice, BitWriter};
pub use error::CodecError;

/// Number of bits needed to represent every value in `0..=max`.
///
/// Returns at least 1, so a width is always a valid argument to
/// [`BitWriter::write_bits`].
///
/// ```
/// use utcq_bitio::width_for_max;
/// assert_eq!(width_for_max(0), 1);
/// assert_eq!(width_for_max(1), 1);
/// assert_eq!(width_for_max(7), 3);
/// assert_eq!(width_for_max(8), 4);
/// ```
#[inline]
pub fn width_for_max(max: u64) -> u32 {
    (64 - max.leading_zeros()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_for_max_boundaries() {
        assert_eq!(width_for_max(0), 1);
        assert_eq!(width_for_max(1), 1);
        assert_eq!(width_for_max(2), 2);
        assert_eq!(width_for_max(3), 2);
        assert_eq!(width_for_max(4), 3);
        assert_eq!(width_for_max(255), 8);
        assert_eq!(width_for_max(256), 9);
        assert_eq!(width_for_max(u64::MAX), 64);
    }

    #[test]
    fn width_covers_all_values() {
        for max in [0u64, 1, 5, 16, 100, 1023, 1024] {
            let w = width_for_max(max);
            assert!(u128::from(max) < (1u128 << w));
        }
    }
}

//! Exp-Golomb codes.
//!
//! Two variants live here:
//!
//! * [`encode_unsigned`] / [`decode_unsigned`] — the classic order-0
//!   Exp-Golomb code for non-negative integers, used for the variable-length
//!   headers of the compressed formats (factor counts, day indexes, …).
//! * [`encode_deviation`] / [`decode_deviation`] — the paper's *improved*
//!   Exp-Golomb code (§4.4) for signed sample-interval deviations
//!   `Δt = (t_{i+1} − t_i) − Ts`. Group `j ≥ 0` covers
//!   `|Δ| ∈ [2^j − 1, 2^{j+1} − 2]`; the code is a unary group prefix
//!   (`j` ones, then a zero), followed — for `j ≥ 1` — by one sign bit
//!   (1 = negative) and the `j`-bit offset `|Δ| − (2^j − 1)`. `Δ = 0`
//!   is the single-bit code `0`.
//!
//! The paper's worked example (§4.4) is reproduced in the tests: the SIAR
//! sequence `⟨…, 0, 1, 0, −1, 0, 0⟩` encodes as `0, 1000, 0, 1010, 0, 0`.

use crate::{BitReader, BitWriter, CodecError};

/// Encodes a non-negative integer with order-0 Exp-Golomb.
///
/// `u` is written as `z` zeros followed by the `z+1`-bit binary form of
/// `u + 1`, where `z = ⌊log2(u + 1)⌋`.
pub fn encode_unsigned(w: &mut BitWriter, u: u64) -> Result<(), CodecError> {
    // u + 1 would overflow for u64::MAX; cap to what the code can express.
    if u == u64::MAX {
        return Err(CodecError::ValueOutOfRange {
            value: u,
            width: 64,
        });
    }
    let v = u + 1;
    let z = 63 - v.leading_zeros();
    w.push_run(false, z as usize);
    w.write_bits(v, z + 1)
}

/// Decodes one order-0 Exp-Golomb value.
#[inline]
pub fn decode_unsigned(r: &mut BitReader<'_>) -> Result<u64, CodecError> {
    let (word, avail) = r.peek();
    let z = word.leading_zeros();
    if 2 * z < avail {
        // z zeros, then the z + 1 bits of v, all in the word.
        r.seek(r.pos() + 2 * z as usize + 1);
        return Ok(((word << z) >> (63 - z)) - 1);
    }
    let mut z = 0u32;
    while !r.read_bit()? {
        z += 1;
        if z > 63 {
            return Err(CodecError::Malformed("exp-golomb prefix too long"));
        }
    }
    // The leading 1 already consumed is the top bit of v.
    let rest = r.read_bits(z)?;
    let v = (1u64 << z) | rest;
    Ok(v - 1)
}

/// Bit length of [`encode_unsigned`]'s code for `u` without encoding.
pub fn unsigned_len(u: u64) -> usize {
    let z = 63 - (u + 1).leading_zeros();
    (2 * z + 1) as usize
}

/// Encodes a signed sample-interval deviation with the paper's improved
/// Exp-Golomb code.
pub fn encode_deviation(w: &mut BitWriter, delta: i64) -> Result<(), CodecError> {
    if delta == 0 {
        w.push_bit(false);
        return Ok(());
    }
    let mag = delta.unsigned_abs();
    if mag >= (1u64 << 62) {
        return Err(CodecError::ValueOutOfRange {
            value: mag,
            width: 62,
        });
    }
    // Group j such that mag ∈ [2^j − 1, 2^{j+1} − 2]  ⇔  j = ⌊log2(mag + 1)⌋.
    let j = 63 - (mag + 1).leading_zeros();
    debug_assert!(j >= 1);
    w.push_run(true, j as usize);
    w.push_bit(false);
    w.push_bit(delta < 0);
    w.write_bits(mag - ((1u64 << j) - 1), j)
}

/// Decodes one improved Exp-Golomb deviation.
#[inline]
pub fn decode_deviation(r: &mut BitReader<'_>) -> Result<i64, CodecError> {
    let (word, avail) = r.peek();
    let j = word.leading_ones();
    if j == 0 && avail > 0 {
        r.seek(r.pos() + 1);
        return Ok(0);
    }
    if 2 * j + 2 <= avail {
        // j ones, the terminating 0, the sign, j bits of offset.
        r.seek(r.pos() + 2 * j as usize + 2);
        let negative = word << (j + 1) >> 63 == 1;
        let v = ((word << (j + 2)) >> (64 - j)) + ((1u64 << j) - 1);
        return Ok(if negative { -(v as i64) } else { v as i64 });
    }
    let mut j = 0u32;
    while r.read_bit()? {
        j += 1;
        if j > 62 {
            return Err(CodecError::Malformed("deviation group prefix too long"));
        }
    }
    if j == 0 {
        return Ok(0);
    }
    let negative = r.read_bit()?;
    let offset = r.read_bits(j)?;
    let mag = offset + ((1u64 << j) - 1);
    let v = mag as i64;
    Ok(if negative { -v } else { v })
}

/// Bit length of [`encode_deviation`]'s code for `delta` without encoding.
pub fn deviation_len(delta: i64) -> usize {
    if delta == 0 {
        return 1;
    }
    let mag = delta.unsigned_abs();
    let j = (63 - (mag + 1).leading_zeros()) as usize;
    // j-bit prefix + terminating 0 + sign + j-bit offset.
    2 * j + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitBuf;

    fn enc_dev(delta: i64) -> BitBuf {
        let mut w = BitWriter::new();
        encode_deviation(&mut w, delta).unwrap();
        w.finish()
    }

    fn bits_str(buf: &BitBuf) -> String {
        buf.to_bits()
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect()
    }

    #[test]
    fn paper_example_codes() {
        // §4.4: ⟨…, 0, 1, 0, −1, 0, 0⟩ → ⟨…, 0, 1000, 0, 1010, 0, 0⟩.
        assert_eq!(bits_str(&enc_dev(0)), "0");
        assert_eq!(bits_str(&enc_dev(1)), "1000");
        assert_eq!(bits_str(&enc_dev(-1)), "1010");
    }

    #[test]
    fn deviation_group_boundaries() {
        // Group 1 covers |Δ| ∈ [1, 2], group 2 covers [3, 6], group 3 [7, 14].
        assert_eq!(enc_dev(2).len_bits(), 4);
        assert_eq!(enc_dev(3).len_bits(), 6);
        assert_eq!(enc_dev(6).len_bits(), 6);
        assert_eq!(enc_dev(7).len_bits(), 8);
        assert_eq!(enc_dev(-14).len_bits(), 8);
    }

    #[test]
    fn deviation_roundtrip_small() {
        for delta in -300i64..=300 {
            let buf = enc_dev(delta);
            let mut r = buf.reader();
            assert_eq!(decode_deviation(&mut r).unwrap(), delta, "delta={delta}");
            assert_eq!(r.remaining(), 0);
            assert_eq!(buf.len_bits(), deviation_len(delta));
        }
    }

    #[test]
    fn deviation_roundtrip_large() {
        for delta in [1 << 20, -(1 << 20), (1 << 40) + 12345, -(1 << 55)] {
            let buf = enc_dev(delta);
            let mut r = buf.reader();
            assert_eq!(decode_deviation(&mut r).unwrap(), delta);
        }
    }

    #[test]
    fn deviation_sequence_roundtrip() {
        let seq = [0i64, 1, 0, -1, 0, 0, 5, -17, 240, -239, 3];
        let mut w = BitWriter::new();
        for &d in &seq {
            encode_deviation(&mut w, d).unwrap();
        }
        let buf = w.finish();
        let mut r = buf.reader();
        for &d in &seq {
            assert_eq!(decode_deviation(&mut r).unwrap(), d);
        }
    }

    #[test]
    fn unsigned_roundtrip() {
        for u in 0u64..1000 {
            let mut w = BitWriter::new();
            encode_unsigned(&mut w, u).unwrap();
            let buf = w.finish();
            assert_eq!(buf.len_bits(), unsigned_len(u));
            let mut r = buf.reader();
            assert_eq!(decode_unsigned(&mut r).unwrap(), u);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn unsigned_known_codes() {
        // Classic exp-golomb: 0→"1", 1→"010", 2→"011", 3→"00100".
        let mut w = BitWriter::new();
        encode_unsigned(&mut w, 0).unwrap();
        assert_eq!(bits_str(&w.finish()), "1");
        let mut w = BitWriter::new();
        encode_unsigned(&mut w, 1).unwrap();
        assert_eq!(bits_str(&w.finish()), "010");
        let mut w = BitWriter::new();
        encode_unsigned(&mut w, 3).unwrap();
        assert_eq!(bits_str(&w.finish()), "00100");
    }

    #[test]
    fn unsigned_large_values() {
        for u in [u64::from(u32::MAX), 1u64 << 40, (1u64 << 62) + 7] {
            let mut w = BitWriter::new();
            encode_unsigned(&mut w, u).unwrap();
            let buf = w.finish();
            let mut r = buf.reader();
            assert_eq!(decode_unsigned(&mut r).unwrap(), u);
        }
    }

    #[test]
    fn small_deviations_beat_fixed_width() {
        // The motivation of SIAR + improved Exp-Golomb: when most deviations
        // are 0 or ±1, the encoded length is far below 32 bits/timestamp.
        let seq = [0i64, 0, 1, 0, -1, 0, 0, 0, 1, 0];
        let total: usize = seq.iter().map(|&d| deviation_len(d)).sum();
        assert!(total < seq.len() * 5);
    }
}

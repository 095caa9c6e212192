//! Failure injection: decoders must reject corrupt or truncated bit
//! streams with an error — never panic, loop, or fabricate data
//! silently. Random and adversarial corruptions over every decoder.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use utcq_bitio::{BitBuf, BitWriter};
use utcq_core::factor;
use utcq_core::siar;

/// Builds a random bit buffer.
fn buf_from(bits: &[bool]) -> BitBuf {
    BitBuf::from_bits(bits)
}

fn rand_bits(rng: &mut StdRng, max_len: usize) -> Vec<bool> {
    let n = rng.gen_range(0..max_len);
    (0..n).map(|_| rng.gen::<bool>()).collect()
}

#[test]
fn random_streams_never_panic_e_decoder() {
    let mut rng = StdRng::seed_from_u64(0xE0B);
    for _ in 0..512 {
        let bits = rand_bits(&mut rng, 256);
        let ref_len = rng.gen_range(0usize..20);
        let refe: Vec<u32> = (0..ref_len as u32).map(|i| i % 5).collect();
        let buf = buf_from(&bits);
        let mut r = buf.reader();
        // Must return Ok or Err — the test passes unless it panics/hangs.
        let _ = factor::decode_e(&mut r, &refe, 3);
    }
}

#[test]
fn random_streams_never_panic_t_decoder() {
    let mut rng = StdRng::seed_from_u64(0x70B);
    for _ in 0..512 {
        let bits = rand_bits(&mut rng, 256);
        let buf = buf_from(&bits);
        let mut r = buf.reader();
        let _ = factor::decode_t(&mut r, rng.gen_range(0usize..20), rng.gen_range(0usize..20));
    }
}

#[test]
fn random_streams_never_panic_d_decoder() {
    let mut rng = StdRng::seed_from_u64(0xD0B);
    for _ in 0..512 {
        let bits = rand_bits(&mut rng, 256);
        let buf = buf_from(&bits);
        let mut r = buf.reader();
        let _ = factor::decode_d(&mut r, rng.gen_range(1usize..40), 7);
    }
}

#[test]
fn random_streams_never_panic_siar() {
    let mut rng = StdRng::seed_from_u64(0x51B);
    for _ in 0..512 {
        let bits = rand_bits(&mut rng, 256);
        let buf = buf_from(&bits);
        let _ = siar::decode(&buf, rng.gen_range(1usize..50), 10);
    }
}

#[test]
fn truncated_valid_streams_error_cleanly() {
    let mut rng = StdRng::seed_from_u64(0x7C07);
    for _ in 0..256 {
        let mut seq = vec![1000i64];
        for _ in 0..rng.gen_range(1..40) {
            seq.push(seq.last().unwrap() + rng.gen_range(1i64..300));
        }
        let buf = siar::encode(&seq, 10).unwrap();
        // Truncate the stream and retry the decode of the full length.
        let cut_frac = rng.gen_range(0.0f64..0.95);
        let cut = (buf.len_bits() as f64 * cut_frac) as usize;
        let bits = buf.to_bits();
        let truncated = buf_from(&bits[..cut]);
        if let Ok(decoded) = siar::decode(&truncated, seq.len(), 10) {
            // Only acceptable when nothing was actually lost.
            assert_eq!(decoded, seq);
        } // a clean error is the expected outcome otherwise
    }
}

#[test]
fn bitflip_corruption_is_detected_or_harmless() {
    // Flip every single bit of a compressed trajectory's Com_E stream:
    // the decoder must either error out or produce *some* sequence —
    // never panic. (Factor copies are bounds-checked against the
    // reference.)
    let refe = vec![1u32, 2, 1, 2, 2, 0, 4, 1, 0];
    let nref = vec![1u32, 1, 1, 2, 2, 0, 4, 1, 0];
    let f = factor::factorize_e(&nref, &refe);
    let mut w = BitWriter::new();
    factor::encode_e(&mut w, &f, refe.len(), nref.len(), 3).unwrap();
    let buf = w.finish();
    let bits = buf.to_bits();
    for i in 0..bits.len() {
        let mut flipped = bits.clone();
        flipped[i] = !flipped[i];
        let corrupt = BitBuf::from_bits(&flipped);
        let mut r = corrupt.reader();
        let _ = factor::decode_e(&mut r, &refe, 3);
    }
}

#[test]
fn exp_golomb_rejects_pathological_prefixes() {
    use utcq_bitio::golomb;
    // A stream of all-zeros looks like an unterminated Exp-Golomb prefix.
    let zeros = BitBuf::from_bits(&[false; 200]);
    let mut r = zeros.reader();
    assert!(golomb::decode_unsigned(&mut r).is_err());
    // All-ones is an unterminated deviation group prefix.
    let ones = BitBuf::from_bits(&[true; 200]);
    let mut r = ones.reader();
    assert!(golomb::decode_deviation(&mut r).is_err());
}

#[test]
fn crafted_temporal_span_is_rejected_at_open() {
    // The interval postings are rebuilt at open from each node's first
    // and last temporal tuple. Two tuples 2^40 s apart would register
    // one node under ~10^9 partitions: the reader must refuse, not
    // allocate.
    use utcq_core::stiu::{self, Nodes, StiuParams};
    use utcq_core::storage::{self, StorageError};
    let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 5, 31);
    let params = utcq_core::CompressParams::with_interval(ds.default_interval);
    let cds = utcq_core::compress_dataset(&net, &ds, &params).unwrap();
    let mut index = stiu::build(&net, &ds, &cds, StiuParams::default());
    let mut nodes = Nodes::default();
    for (j, node) in index.trajs.iter().enumerate() {
        let mut temporal = node.temporal.to_vec();
        if j == 0 {
            temporal.truncate(1);
            let mut far = temporal[0];
            far.start += 1 << 40;
            temporal.push(far);
        }
        nodes.push(&temporal, node).unwrap();
    }
    index.trajs = nodes;
    let mut bytes = Vec::new();
    storage::save_v6(&net, &cds, &index, &mut bytes).unwrap();
    assert!(matches!(
        storage::load_full(&mut bytes.as_slice()),
        Err(StorageError::Corrupt("temporal span too long"))
    ));
}

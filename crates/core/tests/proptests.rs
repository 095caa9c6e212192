//! Randomized property tests for the UTCQ core: lossless structure
//! round-trips and bounded lossy error on arbitrary inputs.
//!
//! Seeded [`StdRng`] loops stand in for `proptest` (the build is
//! offline); every case is deterministic per seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use utcq_bitio::BitWriter;
use utcq_core::factor::{
    apply_d, apply_e, apply_t, decode_d, decode_e, decode_t, diff_d, encode_d, encode_e, encode_t,
    factorize_e, factorize_t,
};
use utcq_core::siar;

fn rand_entries(rng: &mut StdRng, min_len: usize, max_len: usize) -> Vec<u32> {
    let n = rng.gen_range(min_len..max_len);
    (0..n).map(|_| rng.gen_range(0u32..8)).collect()
}

fn rand_bools(rng: &mut StdRng, max_len: usize) -> Vec<bool> {
    let n = rng.gen_range(0..max_len);
    (0..n).map(|_| rng.gen::<bool>()).collect()
}

#[test]
fn e_factorization_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0xEFAC);
    for _ in 0..256 {
        let refe = rand_entries(&mut rng, 1, 40);
        let nref = rand_entries(&mut rng, 1, 40);
        let f = factorize_e(&nref, &refe);
        assert_eq!(apply_e(&f, &refe), nref);
        let mut w = BitWriter::new();
        encode_e(&mut w, &f, refe.len(), nref.len(), 3).unwrap();
        let buf = w.finish();
        let mut r = buf.reader();
        assert_eq!(decode_e(&mut r, &refe, 3).unwrap(), nref);
        assert_eq!(r.remaining(), 0);
    }
}

#[test]
fn t_factorization_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0x7FAC);
    for _ in 0..256 {
        let refb = rand_bools(&mut rng, 40);
        let nref = rand_bools(&mut rng, 40);
        let com = factorize_t(&nref, &refb);
        assert_eq!(apply_t(&com, &refb), nref);
        let mut w = BitWriter::new();
        encode_t(&mut w, &com, refb.len()).unwrap();
        let buf = w.finish();
        let mut r = buf.reader();
        let back = decode_t(&mut r, refb.len(), nref.len()).unwrap();
        assert_eq!(apply_t(&back, &refb), nref);
    }
}

#[test]
fn d_patches_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xD9A);
    for _ in 0..256 {
        let n = rng.gen_range(1usize..60);
        let refd: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..128)).collect();
        let mut nref = refd.clone();
        for _ in 0..rng.gen_range(0..10) {
            let i = rng.gen_range(0..nref.len());
            nref[i] = rng.gen_range(0u64..128);
        }
        let d = diff_d(&nref, &refd);
        assert_eq!(apply_d(&d, &refd), nref);
        let mut w = BitWriter::new();
        encode_d(&mut w, &d, refd.len(), 7).unwrap();
        let buf = w.finish();
        let mut r = buf.reader();
        let back = decode_d(&mut r, refd.len(), 7).unwrap();
        assert_eq!(apply_d(&back, &refd), nref);
    }
}

#[test]
fn siar_roundtrips_arbitrary_sequences() {
    let mut rng = StdRng::seed_from_u64(0x51A2);
    for _ in 0..128 {
        let t0 = rng.gen_range(0i64..86_400 * 30);
        let ts = rng.gen_range(1i64..60);
        let mut times = vec![t0];
        for _ in 0..rng.gen_range(0..100) {
            times.push(times.last().unwrap() + rng.gen_range(1i64..400));
        }
        let buf = siar::encode(&times, ts).unwrap();
        assert_eq!(siar::decode(&buf, times.len(), ts).unwrap(), times);
        // The walk ends where the stream does.
        let mut end = 0;
        siar::walk(&mut buf.reader(), times.len(), ts, |_, _, at| end = at).unwrap();
        assert_eq!(end, buf.len_bits());
    }
}

#[test]
fn flag_counts_match_naive() {
    use utcq_core::flagarr::{nref_ones_before_full, FlagArray};
    let mut rng = StdRng::seed_from_u64(0xF1A6);
    for _ in 0..256 {
        let refb = rand_bools(&mut rng, 30);
        let nref = rand_bools(&mut rng, 30);
        let omega = FlagArray::new(&refb);
        let tcom = factorize_t(&nref, &refb);
        let mut full = vec![true];
        full.extend_from_slice(&nref);
        full.push(true);
        for g in 0..=full.len() {
            let naive: u32 = full[..g].iter().map(|&b| u32::from(b)).sum();
            assert_eq!(
                nref_ones_before_full(&tcom, &refb, &omega, full.len(), g),
                naive
            );
        }
    }
}

#[test]
fn dataset_roundtrip_randomized() {
    let mut rng = StdRng::seed_from_u64(0xDA7A);
    for _ in 0..12 {
        let seed = rng.gen_range(0u64..5000);
        let n = rng.gen_range(2usize..12);
        let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), n, seed);
        let params = utcq_core::CompressParams::with_interval(ds.default_interval);
        let cds = utcq_core::compress_dataset(&net, &ds, &params).unwrap();
        let back = utcq_core::decompress_dataset(&net, &cds).unwrap();
        for (a, b) in ds.trajectories.iter().zip(&back.trajectories) {
            utcq_core::decompress::check_lossy_roundtrip(a, b, params.eta_d, params.eta_p)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}

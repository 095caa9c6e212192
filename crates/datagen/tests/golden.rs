//! Golden digests of the generated corpora.
//!
//! Every field of `generate(profile, 2_000, seed)` — trajectory id, times,
//! and per instance its probability bits, path, and each sample's
//! `path_idx` and `rd` bits — folds into one FNV-1a digest per profile.
//! A generator change that moves one RNG draw or one float bit changes a
//! digest; a change meant to be output-preserving (a faster Dijkstra, a
//! cheaper dedup) must leave all four as they are.

use utcq_datagen::{generate, profile, DatasetProfile};

const N: usize = 2_000;
const SEED: u64 = 7;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(p: &DatasetProfile) -> u64 {
    let (_, ds) = generate(p, N, SEED);
    assert_eq!(ds.trajectories.len(), N);
    let mut h = Fnv::new();
    h.u64(ds.default_interval as u64);
    for tu in &ds.trajectories {
        h.u64(tu.id);
        h.u64(tu.times.len() as u64);
        for &t in &tu.times {
            h.u64(t as u64);
        }
        h.u64(tu.instances.len() as u64);
        for inst in &tu.instances {
            h.u64(inst.prob.to_bits());
            h.u64(inst.path.len() as u64);
            for e in &inst.path {
                h.u64(u64::from(e.0));
            }
            for p in &inst.positions {
                h.u64(u64::from(p.path_idx));
                h.u64(p.rd.to_bits());
            }
        }
    }
    h.0
}

#[test]
fn dk_corpus_is_pinned() {
    assert_eq!(digest(&profile::dk()), 0xdbc3_bd8a_23a1_81ea);
}

#[test]
fn cd_corpus_is_pinned() {
    assert_eq!(digest(&profile::cd()), 0x53a9_d6d2_3568_6404);
}

#[test]
fn hz_corpus_is_pinned() {
    assert_eq!(digest(&profile::hz()), 0xfd7c_cc54_4fed_aebc);
}

#[test]
fn tiny_corpus_is_pinned() {
    assert_eq!(digest(&profile::tiny()), 0x43bc_16d8_9921_c358);
}

//! Failure injection: decoders must reject corrupt or truncated bit
//! streams with an error — never panic, loop, or fabricate data
//! silently. Random and adversarial corruptions over every decoder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use utcq_bitio::{golomb, width_for_max, BitBuf, BitSlice, BitWriter};
use utcq_core::stiu::{self, StiuParams};
use utcq_core::storage::{self, StorageError};
use utcq_core::{factor, siar, CompressParams, QueryTarget};

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
    // The temporal tuples, and from them the interval postings, are
    // derived at open from each time stream. Samples 2^40 s apart would
    // register one node under ~10^9 partitions: the reader must refuse,
    // not allocate.
    let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 5, 31);
    let params = CompressParams::with_interval(ds.default_interval);
    let mut cds = utcq_core::compress_dataset(&net, &ds, &params).unwrap();
    let index = stiu::build(&net, &ds, &cds, StiuParams::default());
    let mut far = ds.trajectories.clone();
    *far[0].times.last_mut().unwrap() += 1 << 40;
    let far = utcq_traj::Dataset {
        trajectories: far,
        ..ds.clone()
    };
    cds.trajectories = utcq_core::compress_dataset(&net, &far, &params)
        .unwrap()
        .trajectories;
    let (bytes, _) = save(&net, &cds, &index);
    assert_eq!(
        refused(&bytes),
        StorageError::Corrupt("temporal span too long").to_string()
    );
}

thread_local! {
    /// The largest allocation made on this thread since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Largest;

// SAFETY: every request is passed through to `System` unchanged; the
// thread-local maximum (const-initialised, no destructor, so reading it
// never allocates) is only a side effect.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|m| m.set(m.get().max(layout.size())));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|m| m.set(m.get().max(new_size)));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// A one-partition v8 container of `(net, cds, index)` and where its
/// bits went.
fn save(
    net: &utcq_network::RoadNetwork,
    cds: &utcq_core::CompressedDataset,
    index: &stiu::Stiu,
) -> (Vec<u8>, storage::Sections) {
    let mut bytes = Vec::new();
    let head = storage::Head {
        kind: storage::ROUTING_SINGLE,
        param: 0,
        parts: 1,
    };
    let network = storage::write_head(head, net, &mut bytes).unwrap();
    let s = storage::write_body(net, cds, index, &mut bytes).unwrap();
    (bytes, storage::Sections { network, ..s })
}

/// Reads a one-partition v8 container through the storage layer.
fn load(mut bytes: &[u8]) -> Result<(), StorageError> {
    storage::read_head(&mut bytes)?;
    let net = storage::read_network(&mut bytes)?;
    storage::read_body(&mut bytes, &net)?;
    storage::read_end(&mut bytes)
}

/// Opens `bytes`, which must fail with a typed error (returned as its
/// message), allocating no block larger than 16 bytes per byte read.
fn refused(bytes: &[u8]) -> String {
    refused_by(bytes, load)
}

/// [`refused`] by `open`, whose error is any displayable one.
fn refused_by<E: std::fmt::Display>(
    bytes: &[u8],
    open: impl FnOnce(&[u8]) -> Result<(), E>,
) -> String {
    LARGEST.with(|m| m.set(0));
    let err = match open(bytes) {
        Ok(()) => panic!("a crafted container opened"),
        Err(err) => err,
    };
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= 16 * bytes.len(),
        "{largest} B for {} B",
        bytes.len()
    );
    err.to_string()
}

/// Width of the instance count in [`V7::with`]'s blocks.
const COUNT: u32 = 32;

/// The head of a v8 container of one `tiny` trajectory, up to its one
/// body's first block (whose records are v7's), and the widths its
/// context gives the fields of a record: what crafted records are put
/// behind.
struct V7 {
    head: Vec<u8>,
    vertex: u32,
    p_code: u32,
    w_e: u32,
    w_d: u32,
    ts: i64,
}

impl V7 {
    fn new() -> Self {
        let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 1, 31);
        let params = CompressParams::with_interval(ds.default_interval);
        let cds = utcq_core::compress_dataset(&net, &ds, &params).unwrap();
        let index = stiu::build(&net, &ds, &cds, StiuParams::default());
        let (bytes, s) = save(&net, &cds, &index);
        // The head and the network; the dataset head: ηD, ηp, pivots,
        // interval, w_e, name, two size breakdowns, trajectory count.
        let at = s.network as usize / 8 + 36 + cds.name.len() + 96 + 8;
        Self {
            head: bytes[..at].to_vec(),
            vertex: width_for_max(net.vertex_count() as u64 - 1),
            p_code: params.p_codec().width(),
            w_e: cds.w_e,
            w_d: params.d_codec().width(),
            ts: params.default_interval,
        }
    }

    /// The container whose one dataset block holds the record `fields`
    /// writes after an id and a two-sample time stream, the instance
    /// count column [`COUNT`] bits wide and the others 8.
    fn with(&self, fields: impl Fn(&mut BitWriter, &Self)) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(0, 64).unwrap();
        for width in [8, 8, COUNT, 8] {
            w.write_bits(width.into(), 7).unwrap();
        }
        w.write_bits(0, 8).unwrap();
        w.write_bits(2, 8).unwrap();
        w.extend_from(&siar::encode(&[100, 100 + self.ts], self.ts).unwrap());
        fields(&mut w, self);
        let block = w.finish();
        let mut bytes = self.head.clone();
        bytes.extend((block.len_bytes() as u32).to_le_bytes());
        bytes.extend(block.as_bytes());
        bytes
    }

    /// A reference of two entries: its fields and streams.
    fn reference(&self, w: &mut BitWriter) {
        w.write_bits(0, self.vertex).unwrap();
        w.write_bits(2, 8).unwrap();
        w.write_bits(1, 2 * self.w_e).unwrap();
        w.write_bits(0, 2 * self.w_d).unwrap();
        w.write_bits(0, self.p_code).unwrap();
    }
}

#[test]
fn crafted_v7_records_fail_with_a_typed_error() {
    let v7 = V7::new();
    let corrupt = |what| StorageError::Corrupt(what).to_string();
    // One instance, a non-reference: there is no reference to point at.
    let no_reference = v7.with(|w, _| {
        w.write_bits(1, COUNT).unwrap();
        w.push_bit(false);
        w.push_bit(false);
    });
    assert_eq!(
        refused(&no_reference),
        corrupt("non-reference points past refs")
    );
    // A reference of 0 or 1 entries has no time flags to trim.
    for n_entries in [0, 1] {
        let short = v7.with(|w, v7| {
            w.write_bits(1, COUNT).unwrap();
            w.push_bit(true);
            w.write_bits(0, v7.vertex).unwrap();
            w.write_bits(n_entries, 8).unwrap();
        });
        assert_eq!(
            refused(&short),
            corrupt("reference with fewer than two entries")
        );
    }
    // A non-reference whose `Com_E` announces 2^40 factors: its walk
    // runs into the block's end, never past it.
    let past_the_block = v7.with(|w, v7| {
        w.write_bits(2, COUNT).unwrap();
        w.push_bit(true);
        w.push_bit(false);
        v7.reference(w);
        w.push_bit(false);
        golomb::encode_unsigned(w, 1 << 40).unwrap();
        golomb::encode_unsigned(w, 3).unwrap();
    });
    assert_eq!(refused(&past_the_block), corrupt("bit-packed block"));
    // And 2^32 − 1 instances announced, each a role bit that is not
    // there.
    let many = v7.with(|w, _| {
        w.write_bits(u32::MAX.into(), COUNT).unwrap();
        w.push_bit(true);
    });
    assert!(refused(&many).starts_with("corrupt container"));
}

#[test]
fn older_readers_refuse_instances_out_of_order() {
    // v7 stores one role bit per instance in original order, so it can
    // hold references and non-references only each ascending in
    // `orig_idx`, the order compression emits. No writer produced any
    // other; a v6 file with two `orig_idx` swapped is refused by `utcq
    // migrate`.
    let bytes = include_bytes!("../../../tests/fixtures/tiny_v6.utcq");
    let no_v1 = || -> (utcq_network::RoadNetwork, StiuParams) { unreachable!("a v6 file") };
    let migrated = utcq_legacy::open(bytes, no_v1).unwrap();
    let (net, cds) = (
        migrated.network(),
        migrated.snapshots()[0].compressed().clone(),
    );
    let mut net_bytes = Vec::new();
    utcq_legacy::container::write_network(net, &mut net_bytes).unwrap();
    let block = 5 + net_bytes.len() + 36 + cds.name.len() + 96 + 8 + 4;
    let bits = BitSlice::from_bytes(&bytes[block..], (bytes.len() - block) * 8).unwrap();
    let mut r = bits.reader();
    let mut read = |width: u32| r.read_bits(width).unwrap();
    read(64);
    let [id, times, len, inst, entries] = [(); 5].map(|()| read(7) as u32);
    let vertex = width_for_max(net.vertex_count() as u64 - 1);
    let p_code = cds.params.p_codec().width();
    // Per record: id, n_times, T, then per role its count and per
    // instance orig_idx, fields and three streams (each a length, then
    // its bits). Find two instances of one role.
    let mut r = bits.reader_at(64 + 35);
    let stream = |r: &mut utcq_bitio::BitReader<'_>| {
        let n = r.read_bits(len).unwrap() as usize;
        r.seek(r.pos() + n);
    };
    let mut pair = None;
    for ct in cds.trajectories.iter() {
        r.read_bits(id).unwrap();
        r.read_bits(times).unwrap();
        stream(&mut r);
        let n_refs = ct.ref_count();
        for (count, fields) in [(n_refs, vertex + entries), (ct.nrefs().len(), 0)] {
            let fields = if fields == 0 {
                width_for_max(n_refs as u64 - 1)
            } else {
                fields
            };
            r.read_bits(inst).unwrap();
            let mut at = Vec::new();
            for _ in 0..count {
                at.push(r.pos());
                r.read_bits(inst).unwrap();
                r.read_bits(fields).unwrap();
                (0..3).for_each(|_| stream(&mut r));
                r.read_bits(p_code).unwrap();
            }
            if pair.is_none() && at.len() >= 2 {
                pair = Some((at[0], at[1]));
            }
        }
    }
    let (a, b) = pair.expect("an instance role held twice");
    let mut swapped = bytes.to_vec();
    let field = |at: usize| bits.reader_at(at).read_bits(inst).unwrap();
    for (at, v) in [(a, field(b)), (b, field(a))] {
        for i in 0..inst as usize {
            let bit = block * 8 + at + i;
            let mask = 0x80 >> (bit % 8);
            swapped[bit / 8] &= !mask;
            if v >> (inst as usize - 1 - i) & 1 == 1 {
                swapped[bit / 8] |= mask;
            }
        }
    }
    let expect = utcq_core::Error::from(StorageError::Corrupt("instances out of order"));
    let migrate = |bytes: &[u8]| utcq_legacy::open(bytes, no_v1).map(drop);
    assert_eq!(refused_by(&swapped, migrate), expect.to_string());
}

#[test]
fn a_crafted_network_count_allocates_nothing_it_does_not_read() {
    // A v8 head (single routing, one partition), then a network of
    // 2^28 vertices and 2^29 edges of degree at most 4, and 16 bytes.
    let mut v8 = b"UTCQ\x08\x03".to_vec();
    v8.extend(0i64.to_le_bytes());
    v8.extend(1u32.to_le_bytes());
    for n in [1u32 << 28, 1 << 29, 4] {
        v8.extend(n.to_le_bytes());
    }
    v8.extend([0; 16]);
    let network = StorageError::Corrupt("embedded network");
    assert_eq!(refused(&v8), network.to_string());
    // Its legacy twin: the same counts in a 29-byte v7 file, through
    // `utcq migrate`'s reader of the fixed-width network section.
    let mut v7 = b"UTCQ\x07".to_vec();
    for n in [1u32 << 28, 1 << 29] {
        v7.extend(n.to_le_bytes());
    }
    v7.extend([0; 16]);
    assert_eq!(v7.len(), 29);
    let no_v1 = || -> (utcq_network::RoadNetwork, StiuParams) { unreachable!("a v7 file") };
    let migrate = |bytes: &[u8]| utcq_legacy::open(bytes, no_v1).map(drop);
    let expect = utcq_core::Error::from(network).to_string();
    assert_eq!(refused_by(&v7, migrate), expect);
}

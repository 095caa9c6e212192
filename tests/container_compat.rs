//! Cross-version container compatibility against **checked-in fixture
//! files** under `tests/fixtures/`. They must keep migrating, and
//! answering identically, forever. The core opens the current two (v8);
//! the others go through `utcq migrate`'s reader (`utcq_legacy`), and
//! the core refuses them with the error that names it:
//!
//! * `tiny_v1.utcq` — legacy dataset-only container (needs a network
//!   supplied out of band; the test borrows the one embedded in the v2
//!   fixture, so no generator coupling);
//! * `tiny_v2.utcq` — self-contained single-store container in the
//!   fixed-width framing no writer emits any more;
//! * `tiny_v3.utcq` — sharded container, 3 `ByTime` shards, each a v2
//!   blob;
//! * `tiny_v4.utcq`, `tiny_v3_packed.utcq` — the same two shapes with a
//!   bit-packed v4 body, whose region tuples still carry the resume
//!   fields no writer emits any more;
//! * `tiny_v5.utcq`, `tiny_v3_v5.utcq` — the same two shapes with a v5
//!   body: fixed-width region tuples, each non-reference's in traversal
//!   order;
//! * `tiny_v6.utcq`, `tiny_v3_v6.utcq` — the same two shapes with a v6
//!   body: region tuples coded against the trajectory, stream lengths,
//!   every `orig_idx` and the temporal tuples stored;
//! * `tiny_v7.utcq`, `tiny_v3_v7.utcq` — the same two shapes with a v7
//!   body (v6 without what it can derive), each file or blob with its
//!   own copy of the network in the fixed-width codec;
//! * `tiny_v8.utcq`, `tiny_v8_sharded.utcq` — one store of one
//!   partition and of three, as every store writes them now: one
//!   compactly coded network, then v7's body per partition.
//!
//! The first eleven are frozen: nothing can write those bytes again. The
//! last two are what the `regen_fixtures` test below writes into
//! `target/tmp` (`cargo test --test container_compat -- --ignored
//! regen`); copy them over after an *intentional* format change. CI
//! compares the regenerated pair with the checked-in one.
//!
//! All thirteen hold the same 10-trajectory dataset, so the strongest check
//! is mutual: every version must answer every probe identically. A few
//! hardcoded goldens pin the answers absolutely, so "all agree but all
//! are wrong" cannot slip through.
//!
//! The write-ahead log has fixtures of its own, two multi-instance
//! batches of a second dataset ([`wal_dataset`]) in both record
//! encodings: `wal_v1.wal` (fixed-width fields, frozen; `utcq migrate`
//! reads it) and `wal_v2.wal` (what every log writes now, regenerated
//! and compared by CI like the containers).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use utcq::core::query::PageRequest;
use utcq::core::shard::ByTime;
use utcq::core::siar;
use utcq::core::stiu::{StiuParams, TrajIndex};
use utcq::core::storage::StorageError;
use utcq::core::wal::{self, Record, Wal};
use utcq::core::{CompressParams, Error, Partition, QueryTarget, Store, StoreBuilder, WalConfig};
use utcq::network::RoadNetwork;
use utcq::traj::Dataset;

const SEED: u64 = 20_260_729;
const TRAJS: usize = 10;
const STIU: StiuParams = StiuParams {
    partition_s: 900,
    grid_n: 8,
};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture_dataset() -> (utcq::network::RoadNetwork, utcq::traj::Dataset) {
    utcq::datagen::generate(&utcq::datagen::profile::tiny(), TRAJS, SEED)
}

/// Opens `bytes` through `utcq migrate`'s reader (a current container
/// reads as is), as a message on failure.
fn migrated(bytes: &[u8]) -> Result<Store, String> {
    utcq_legacy::open(bytes, v1_parts).map_err(|e| e.to_string())
}

/// What the v1 fixture, which has no embedded network, migrates on: the
/// v2 fixture's network — the dataset is identical by construction —
/// and the parameters the fixtures were built with.
fn v1_parts() -> (RoadNetwork, StiuParams) {
    let v2 = open("tiny_v2.utcq");
    ((**v2.network()).clone(), STIU)
}

/// Opens a fixture of any version through [`migrated`].
fn open(name: &str) -> Store {
    migrated(&std::fs::read(fixture_path(name)).expect(name)).expect(name)
}

/// Opens all thirteen fixtures.
fn open_fixtures() -> ([Store; 7], [Store; 6]) {
    let sharded = open;
    let (v1, v2) = (open("tiny_v1.utcq"), open("tiny_v2.utcq"));
    (
        [
            v1,
            v2,
            open("tiny_v4.utcq"),
            open("tiny_v5.utcq"),
            open("tiny_v6.utcq"),
            open("tiny_v7.utcq"),
            open("tiny_v8.utcq"),
        ],
        [
            sharded("tiny_v3.utcq"),
            sharded("tiny_v3_packed.utcq"),
            sharded("tiny_v3_v5.utcq"),
            sharded("tiny_v3_v6.utcq"),
            sharded("tiny_v3_v7.utcq"),
            sharded("tiny_v8_sharded.utcq"),
        ],
    )
}

#[test]
fn all_versions_open_and_agree() {
    let ([v1, v2, v4, v5, v6, v7, v8], [v3, v3_packed, v3_v5, v3_v6, v3_v7, v8_sharded]) =
        open_fixtures();
    let targets: Vec<(&str, &dyn QueryTarget)> = vec![
        ("v1", &v1),
        ("v2", &v2),
        ("v4", &v4),
        ("v5", &v5),
        ("v6", &v6),
        ("v7", &v7),
        ("v8", &v8),
        ("v3", &v3),
        ("v3 packed", &v3_packed),
        ("v3 v5", &v3_v5),
        ("v3 v6", &v3_v6),
        ("v3 v7", &v3_v7),
        ("v8 sharded", &v8_sharded),
    ];
    for sharded in [&v3, &v3_packed, &v3_v5, &v3_v6, &v3_v7, &v8_sharded] {
        assert_eq!(sharded.shard_count(), 3);
    }
    for (name, t) in &targets {
        assert_eq!(t.len(), TRAJS, "{name}");
    }

    let bounds = v2.network().bounding_rect();
    // Probe every trajectory: ids and time spans come from the container
    // itself (decoded times), not from regenerating the dataset.
    let v2_snap = v2.snapshots().remove(0);
    for j in 0..TRAJS as u32 {
        let ct = v2_snap.compressed().trajectories.get(j as usize).unwrap();
        let times = v2.decode_times(ct.id).unwrap().unwrap();
        let mid = (times[0] + times[times.len() - 1]) / 2;
        let mut answers = Vec::new();
        let mut range_answers = Vec::new();
        for (name, t) in &targets {
            let hits = t
                .where_query(ct.id, mid, 0.0, PageRequest::all())
                .unwrap()
                .into_items();
            assert!(!hits.is_empty(), "{name}: where({}) at {mid} empty", ct.id);
            answers.push((*name, hits));
            range_answers.push((
                *name,
                t.range_query(&bounds, mid, 0.2, PageRequest::all())
                    .unwrap()
                    .into_items(),
            ));
        }
        for pair in answers.windows(2) {
            assert_eq!(pair[0].1, pair[1].1, "{} vs {}", pair[0].0, pair[1].0);
        }
        for pair in range_answers.windows(2) {
            assert_eq!(pair[0].1, pair[1].1, "{} vs {}", pair[0].0, pair[1].0);
        }
    }
}

/// Where the nodes of `tiny_v2.utcq` start. The file ends with the
/// nodes (u32 count + 16-byte temporal tuples, u32 count + 37-byte
/// reference tuples, u32 count + 20-byte non-reference tuples) and the
/// postings (u64 key count; per key i64, u32 count, u32 positions):
/// sized from the opened store, they locate the nodes from the end.
fn v2_nodes_at(bytes: &[u8], snap: &Partition) -> usize {
    let stiu = snap.stiu();
    let keys = stiu.intervals();
    let postings = |k: i64| stiu.trajs_in_interval(k * stiu.params.partition_s);
    let per_key = keys.iter().map(|&k| 12 + 4 * postings(k).len());
    let postings_len = 8 + per_key.sum::<usize>();
    let node_len = |(j, n): (usize, TrajIndex<'_>)| {
        let (refs, nrefs) = n.tuple_counts();
        12 + 16 * temporal_count(snap, j) + 37 * refs + 20 * nrefs
    };
    bytes.len() - postings_len - stiu.trajs.iter().enumerate().map(node_len).sum::<usize>()
}

/// How many temporal tuples a v2 node stores for trajectory `j`: one
/// per index interval that holds a sample.
fn temporal_count(snap: &Partition, j: usize) -> usize {
    let cds = snap.compressed();
    let ct = cds.trajectories.get(j).unwrap();
    let ts = cds.params.default_interval;
    let times = siar::decode(ct.t_bits(), ct.n_times as usize, ts).unwrap();
    let partition_s = snap.stiu().params.partition_s;
    let mut intervals = Vec::from_iter(times.iter().map(|t| t.div_euclid(partition_s)));
    intervals.dedup();
    intervals.len()
}

#[test]
fn derived_bounds_equal_the_stored_ones() {
    // `tiny_v2.utcq` stores `p_total` / `p_max` as the index builder of
    // its day computed them; no later version stores them, and no
    // store holds them: a query derives them per cell. Same bits, or
    // Lemma 1's filter changed.
    let ([_, v2, v4, v5, v6, v7, v8], _) = open_fixtures();
    let derived = |s: &Store| -> Vec<(u64, u64)> {
        let snap = s.snapshots().remove(0);
        let p_codec = snap.compressed().params.p_codec();
        let mut bounds = Vec::new();
        let nodes = snap.stiu().trajs.iter();
        for (node, ct) in nodes.zip(snap.compressed().trajectories.iter()) {
            let mut starts = Vec::new();
            node.group_starts(&mut starts);
            for (r, group) in (0..).zip(node.groups()) {
                for k in 0..group.len() {
                    let (p_total, p_max) = node.bounds(&starts, &ct, &p_codec, r, k);
                    bounds.push((p_total.to_bits(), p_max.to_bits()));
                }
            }
        }
        bounds
    };
    // The stored ones, tuple by tuple: cell, ref_idx, enters (1 byte),
    // vertex, entry index, position, then `p_total` and `p_max`.
    let bytes = std::fs::read(fixture_path("tiny_v2.utcq")).unwrap();
    let snap = v2.snapshots().remove(0);
    let count = |at: &mut usize| {
        let n = u32::from_le_bytes(bytes[*at..*at + 4].try_into().unwrap()) as usize;
        *at += 4;
        n
    };
    let f64_bits = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let (mut at, mut stored) = (v2_nodes_at(&bytes, &snap), Vec::new());
    for _ in 0..TRAJS {
        at += 16 * count(&mut at);
        for _ in 0..count(&mut at) {
            stored.push((f64_bits(at + 21), f64_bits(at + 29)));
            at += 37;
        }
        at += 20 * count(&mut at);
    }
    assert!(!stored.is_empty());
    let stores = [
        ("v2", &v2),
        ("v4", &v4),
        ("v5", &v5),
        ("v6", &v6),
        ("v7", &v7),
        ("v8", &v8),
    ];
    for (name, store) in stores {
        assert_eq!(derived(store), stored, "{name}");
    }
}

#[test]
fn saving_an_old_container_writes_the_current_format() {
    // What `utcq migrate` writes: a store read from an older framing
    // saves as exactly the current fixture, the derived parts included
    // (they are recomputed at each open), the resume fields of v2 / v4
    // gone, every non-reference's tuples, stored in traversal order up
    // to v5, in ascending cell order, and the stream lengths, `orig_idx`
    // and temporal tuples of v6 and before gone, and the network stored
    // once, compactly coded. v1's index, rebuilt from the decompressed
    // trajectories, happens to equal the stored one on these ten
    // trajectories (it need not: see `utcq_legacy`).
    let read = |name: &str| std::fs::read(fixture_path(name)).expect(name);
    let ([v1, v2, v4, v5, v6, v7, v8], [v3, v3_packed, v3_v5, v3_v6, v3_v7, v8_sharded]) =
        open_fixtures();
    let singles = [
        ("v1", &v1),
        ("v2", &v2),
        ("v4", &v4),
        ("v5", &v5),
        ("v6", &v6),
        ("v7", &v7),
        ("v8", &v8),
    ];
    for (name, store) in singles {
        let mut bytes = Vec::new();
        store.write(&mut bytes).unwrap();
        assert!(
            bytes == read("tiny_v8.utcq"),
            "{name} saved != tiny_v8.utcq"
        );
    }
    let sharded = [
        ("v3", &v3),
        ("v3 packed", &v3_packed),
        ("v3 v5", &v3_v5),
        ("v3 v6", &v3_v6),
        ("v3 v7", &v3_v7),
        ("v8 sharded", &v8_sharded),
    ];
    for (name, store) in sharded {
        let mut bytes = Vec::new();
        store.write(&mut bytes).unwrap();
        assert!(
            bytes == read("tiny_v8_sharded.utcq"),
            "{name} saved != tiny_v8_sharded.utcq"
        );
    }
    // Old single-store bytes are 2.5x the new ones even at ten
    // trajectories, where the embedded network dominates; and the
    // resume fields were a visible share of v4 even here.
    assert!(read("tiny_v4.utcq").len() * 2 < read("tiny_v2.utcq").len());
    assert!(read("tiny_v5.utcq").len() < read("tiny_v4.utcq").len());
    assert!(read("tiny_v6.utcq").len() < read("tiny_v5.utcq").len());
    assert!(read("tiny_v7.utcq").len() < read("tiny_v6.utcq").len());
    // One compact network: a third of v7's at one partition, and the
    // three partitions' container smaller than v7's one.
    assert!(read("tiny_v8.utcq").len() * 2 < read("tiny_v7.utcq").len());
    assert!(read("tiny_v8_sharded.utcq").len() < read("tiny_v7.utcq").len());
    assert!(read("tiny_v8_sharded.utcq").len() * 4 < read("tiny_v3_v7.utcq").len());
}

#[test]
fn every_fixture_saves_as_v8_and_reopens_identically() {
    // Every checked-in container opens, saves as v8, and that file
    // reopens to a store that saves the same bytes and answers every
    // probe the same.
    let (singles, sharded) = open_fixtures();
    let bounds = singles[1].network().bounding_rect();
    let stores = singles.iter().chain(&sharded);
    for (k, store) in stores.enumerate() {
        let mut saved = Vec::new();
        store.write(&mut saved).unwrap();
        let head = utcq::core::storage::read_head(&mut saved.as_slice()).unwrap();
        assert_eq!(head.parts as usize, store.shard_count(), "fixture {k}");
        assert_eq!(saved[4], utcq::core::storage::VERSION, "fixture {k}");
        let reopened = Store::read(&mut saved.as_slice()).unwrap();
        let mut again = Vec::new();
        reopened.write(&mut again).unwrap();
        assert!(again == saved, "fixture {k}: v8 reopened saves other bytes");
        for id in 0..TRAJS as u64 {
            let times = store.decode_times(id).unwrap().unwrap();
            assert_eq!(reopened.decode_times(id).unwrap().unwrap(), times);
            let t = (times[0] + times[times.len() - 1]) / 2;
            let ask = |s: &Store| {
                let hits = s.where_query(id, t, 0.0, PageRequest::all());
                let range = s.range_query(&bounds, t, 0.2, PageRequest::all());
                (hits.unwrap().into_items(), range.unwrap().into_items())
            };
            assert_eq!(ask(&reopened), ask(store), "fixture {k}, trajectory {id}");
        }
    }
}

/// Where the one index block of a single-block v4..v6 fixture starts:
/// after magic and version, the network, the dataset head (ηD, ηp,
/// pivots, interval, `w_e`, name, two size breakdowns, count), the one
/// dataset block, the `i64` partition, the `u32` grid dimension and the
/// block's `u32` length.
fn index_block_at(bytes: &[u8]) -> usize {
    let mut rest = &bytes[5..];
    utcq_legacy::container::read_network(&mut rest).unwrap();
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let name_at = bytes.len() - rest.len() + 32;
    let block_at = name_at + 4 + u32_at(name_at) + 96 + 8;
    block_at + 4 + u32_at(block_at) + 12 + 4
}

#[test]
fn resume_fields_of_old_versions_are_still_checked() {
    // The reader drops the resume fields of a v2 / v4 tuple after every
    // check they had while it kept them: what failed to open then fails
    // to migrate now, with the same error.
    let open = migrated;

    // v2, fixed-width fields: node 0 is the first of the nodes.
    let bytes = std::fs::read(fixture_path("tiny_v2.utcq")).unwrap();
    let v2 = open(&bytes).expect("the fixture itself opens");
    let snap = v2.snapshots().remove(0);
    let node0 = snap.stiu().trajs.get(0).unwrap();
    let refs_at = v2_nodes_at(&bytes, &snap) + 4 + 16 * temporal_count(&snap, 0) + 4;
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let ref_tuples = Vec::from_iter(node0.ref_tuples());
    assert_eq!(u32_at(refs_at - 4) as usize, ref_tuples.len());
    // cell, ref_idx, enters (1 byte), then vertex, entry index, position.
    let entering = ref_tuples.iter().position(|t| t.2).unwrap();
    let ref_vertex = refs_at + 37 * entering + 9;
    assert_eq!(u32_at(ref_vertex - 9), ref_tuples[entering].1 .0);
    // count, then cell, nref_idx, vertex, entry index, position.
    let nref_vertex = refs_at + 37 * ref_tuples.len() + 4 + 8;
    let ct0 = snap.compressed().trajectories.get(0).unwrap();
    assert_eq!(
        u32_at(nref_vertex - 8),
        node0.nref_tuples(ct0.nref_owners())[0].1 .0
    );
    let n_vertices = v2.network().vertex_count() as u32;
    assert!(u32_at(ref_vertex) < n_vertices && u32_at(nref_vertex) < n_vertices);
    for (at, what) in [(ref_vertex, "ref"), (nref_vertex, "nref")] {
        let mut bad = bytes.clone();
        bad[at..at + 4].copy_from_slice(&n_vertices.to_le_bytes());
        let expect = format!("storage error: corrupt container: {what} tuple out of range");
        assert_eq!(open(&bad).unwrap_err(), expect);
        // Cut inside the vertex, the entry index and the position.
        for cut in [at + 2, at + 6, at + 10] {
            let err = open(&bytes[..cut]).unwrap_err();
            assert!(err.starts_with("storage error: i/o error"), "{err}");
        }
    }

    // v4, bit-packed: the one block of ten nodes (u32 byte length,
    // 64-bit base, five 7-bit column widths: start, no, count, entry
    // index, position).
    let bytes = std::fs::read(fixture_path("tiny_v4.utcq")).unwrap();
    open(&bytes).expect("the fixture itself opens");
    let block = index_block_at(&bytes);
    let len = u32::from_le_bytes(bytes[block - 4..block].try_into().unwrap());
    assert_eq!(block + len as usize, bytes.len(), "one block to the end");
    // The entry-index column exists only for the resume fields: its
    // width (bits 85..92 of the block) out of range is still refused.
    let mut bad = bytes.clone();
    for i in 85..92 {
        bad[block + i / 8] |= 1 << (7 - i % 8);
    }
    let expect = "storage error: corrupt container: column width out of range";
    assert_eq!(open(&bad).unwrap_err(), expect);
    // A cut anywhere inside the tuples is a cut inside the block.
    for cut in [bytes.len() - 1, bytes.len() - len as usize / 2] {
        let expect = "storage error: corrupt container: block truncated";
        assert_eq!(open(&bytes[..cut]).unwrap_err(), expect);
    }
}

#[test]
fn old_readers_refuse_nref_tuples_outside_their_group() {
    // Up to v5 a non-reference tuple is a (cell, member) pair; v6 stores
    // one bit per cell of the member's group, so a cell outside the
    // group, or one cell twice, has no v6 form. No writer ever produced
    // either; the old readers refuse both rather than migrate a store
    // that could not be saved.
    let open = migrated;
    let bytes = std::fs::read(fixture_path("tiny_v5.utcq")).unwrap();
    let v5 = open(&bytes).expect("the fixture itself opens");
    let snap = v5.snapshots().remove(0);
    let block = index_block_at(&bytes);
    let block_bits = (bytes.len() - block) * 8;
    let bits = utcq::bitio::BitSlice::from_bytes(&bytes[block..], block_bits).unwrap();
    let mut r = bits.reader();
    let read = |r: &mut utcq::bitio::BitReader<'_>, width| r.read_bits(width).unwrap();
    // The 64-bit base, then the start, no, count and position widths.
    read(&mut r, 64);
    let [start, no, count, pos] = [(); 4].map(|()| read(&mut r, 7) as u32);
    let width = |n: usize| utcq::bitio::width_for_max(n.saturating_sub(1) as u64);
    let cell_width = width(snap.stiu().grid.cell_count());
    // Per node: the temporal tuples, the (cell, ref_idx, enters) and the
    // (cell, nref_idx) tuples, each list after its count. Find a member
    // with two tuples, and a cell outside its group.
    let mut found = None;
    for ct in snap.compressed().trajectories.iter() {
        for _ in 0..read(&mut r, count) {
            for width in [start, no, pos] {
                read(&mut r, width);
            }
        }
        let mut group_cells = Vec::new();
        for _ in 0..read(&mut r, count) {
            let cell = read(&mut r, cell_width);
            let ref_idx = read(&mut r, width(ct.ref_count())) as u32;
            read(&mut r, 1);
            group_cells.push((ref_idx, cell));
        }
        let mut tuples = Vec::new();
        for _ in 0..read(&mut r, count) {
            let at = r.pos();
            let cell = read(&mut r, cell_width);
            tuples.push((at, cell, read(&mut r, width(ct.nrefs().len())) as usize));
        }
        if let Some(pair) = tuples.windows(2).find(|w| w[0].2 == w[1].2) {
            let group = ct.nref_row(pair[0].2).unwrap().ref_idx;
            let outside = (0..).find(|&c| !group_cells.contains(&(group, c))).unwrap();
            found = Some((pair[0].1, pair[1].0, outside));
            break;
        }
    }
    let (first_cell, second_at, outside) = found.expect("a member with two tuples");
    let with_second_cell = |cell: u64| {
        let mut bad = bytes.clone();
        for i in 0..cell_width as usize {
            let at = block * 8 + second_at + i;
            let bit = 0x80 >> (at % 8);
            if cell >> (cell_width as usize - 1 - i) & 1 == 1 {
                bad[at / 8] |= bit;
            } else {
                bad[at / 8] &= !bit;
            }
        }
        bad
    };
    let expect = "storage error: corrupt container: nref tuple outside its group";
    assert_eq!(open(&with_second_cell(outside)).unwrap_err(), expect);
    assert_eq!(open(&with_second_cell(first_cell)).unwrap_err(), expect);
}

#[test]
fn goldens_pin_fixture_answers() {
    // Golden values recorded when the first fixtures were generated;
    // they pin the absolute answers of every fixture, v1 through v8.
    let (singles, sharded) = open_fixtures();
    let golden = golden_answers();
    let mid0 = (golden.t0_first + golden.t0_last) / 2;
    let bounds = singles[1].network().bounding_rect();
    for (k, store) in singles.iter().enumerate() {
        let ids: Vec<u64> = store.snapshots()[0]
            .compressed()
            .trajectories
            .iter()
            .map(|t| t.id)
            .collect();
        assert_eq!(ids, (0..TRAJS as u64).collect::<Vec<_>>(), "single {k}");
        let times0 = store.decode_times(0).unwrap().unwrap();
        assert_eq!(
            (times0[0], *times0.last().unwrap()),
            (golden.t0_first, golden.t0_last),
            "single {k}: trajectory 0 time span"
        );
    }
    let singles = singles.iter().map(|s| s as &dyn QueryTarget);
    for (k, t) in singles.chain(sharded.iter().map(|s| s as _)).enumerate() {
        let hits = t
            .where_query(0, mid0, 0.0, PageRequest::all())
            .unwrap()
            .into_items();
        assert_eq!(hits.len(), golden.where0_hits, "fixture {k}: where(0) hits");
        let range = t
            .range_query(&bounds, mid0, 0.2, PageRequest::all())
            .unwrap()
            .into_items();
        assert_eq!(range, golden.range0_ids, "fixture {k}: range at t0 mid");
    }
    // The sharded fixtures distribute trajectories as recorded.
    for (k, v3) in sharded.iter().enumerate() {
        let occupancy: Vec<usize> = v3.snapshots().iter().map(|s| s.len()).collect();
        assert_eq!(occupancy, golden.v3_occupancy, "sharded {k}: occupancy");
    }
}

struct Golden {
    t0_first: i64,
    t0_last: i64,
    where0_hits: usize,
    range0_ids: Vec<u64>,
    v3_occupancy: Vec<usize>,
}

fn golden_answers() -> Golden {
    Golden {
        t0_first: 71545,
        t0_last: 71620,
        where0_hits: 2,
        range0_ids: vec![0],
        v3_occupancy: vec![2, 3, 5],
    }
}

const WAL_SEED: u64 = 20_261_015;

/// The WAL fixtures' dataset, 16 trajectories in four batches of four:
/// the container holds the first, the fixture logs record the next two
/// (epochs 1 and 2), and the last arrives after a reopen.
fn wal_dataset() -> (utcq::network::RoadNetwork, [Dataset; 4]) {
    let (net, ds) = utcq::datagen::generate(&utcq::datagen::profile::tiny(), 16, WAL_SEED);
    let batch = |k: usize| Dataset {
        trajectories: ds.trajectories[4 * k..4 * k + 4].to_vec(),
        ..ds.clone()
    };
    (net, [batch(0), batch(1), batch(2), batch(3)])
}

/// What the WAL fixtures hold: batches 1 and 2 as epochs 1 and 2.
fn wal_fixture_records(batches: &[Dataset; 4]) -> Vec<Record> {
    (1..=2)
        .map(|k| Record {
            epoch: k as u64,
            name: batches[k].name.clone(),
            default_interval: batches[k].default_interval,
            trajectories: batches[k].trajectories.clone(),
        })
        .collect()
}

/// A record with every float as its bits: equality is bit-exact.
fn record_bits(rec: &Record) -> String {
    let mut s = format!("{} {} {}", rec.epoch, rec.name, rec.default_interval);
    for tu in &rec.trajectories {
        s += &format!(" | {} {:?}", tu.id, tu.times);
        for inst in &tu.instances {
            let positions: Vec<_> = inst
                .positions
                .iter()
                .map(|p| (p.path_idx, p.rd.to_bits()))
                .collect();
            s += &format!(" ; {:x} {:?} {positions:?}", inst.prob.to_bits(), inst.path);
        }
    }
    s
}

/// Copies a fixture to a scratch path (opening a log may rewrite it).
fn scratch_copy(fixture: &str, dir: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("utcq-compat-{}-{dir}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(fixture);
    std::fs::copy(fixture_path(fixture), &path).unwrap();
    path
}

fn header_version(path: &Path) -> u32 {
    let bytes = std::fs::read(path).unwrap();
    u32::from_le_bytes(bytes[8..12].try_into().unwrap())
}

/// What `utcq migrate` writes for `fixture`, read back.
fn migrate_file(fixture: &str, dir: &str, out: &str) -> (PathBuf, Vec<u8>) {
    let path = scratch_copy(fixture, dir).with_file_name(out);
    let migrated = utcq_legacy::migrate(&fixture_path(fixture), &path, v1_parts);
    migrated.unwrap_or_else(|e| panic!("{fixture}: {e}"));
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

#[test]
fn both_wal_fixtures_read_the_same_records() {
    let (_, batches) = wal_dataset();
    let want: Vec<String> = wal_fixture_records(&batches)
        .iter()
        .map(record_bits)
        .collect();
    assert!(batches[1..3]
        .iter()
        .all(|b| b.trajectories.iter().any(|tu| tu.instances.len() > 1)));
    // v1 through `utcq migrate`'s reader, v2 through the core's.
    let v1 = utcq_legacy::wal::read_v1(&std::fs::read(fixture_path("wal_v1.wal")).unwrap());
    let v1: Vec<String> = v1.unwrap().iter().map(record_bits).collect();
    assert_eq!(v1, want, "wal_v1.wal");
    let scanned = wal::scan(&std::fs::read(fixture_path("wal_v2.wal")).unwrap()).unwrap();
    assert!(!scanned.torn);
    let scanned: Vec<String> = scanned.records.iter().map(record_bits).collect();
    assert_eq!(scanned, want, "wal_v2.wal: scan");
    let path = scratch_copy("wal_v2.wal", "read-2");
    let (_, records) = Wal::open(&WalConfig::new(&path)).unwrap();
    let opened: Vec<String> = records.iter().map(record_bits).collect();
    assert_eq!(opened, want, "wal_v2.wal: Wal::open");
    // Migrating a v1 log writes exactly what v2 writes.
    let (path, bytes) = migrate_file("wal_v1.wal", "migrate-1", "log.wal");
    assert_eq!(header_version(&path), 2);
    assert!(bytes == std::fs::read(fixture_path("wal_v2.wal")).unwrap());
    // The point of v2: the same records in a fraction of the bytes.
    let len = |f: &str| std::fs::metadata(fixture_path(f)).unwrap().len();
    assert!(len("wal_v2.wal") * 3 < len("wal_v1.wal"));
}

#[test]
fn a_v1_log_replays_then_continues_as_v2() {
    let (net, batches) = wal_dataset();
    let net = Arc::new(net);
    let build = |history: &[Dataset]| {
        let mut b = StoreBuilder::new(
            Arc::clone(&net),
            CompressParams::with_interval(history[0].default_interval),
        )
        .stiu_params(STIU);
        for ds in history {
            b = b.ingest(ds).unwrap();
        }
        b.finish().unwrap()
    };
    let (log, _) = migrate_file("wal_v1.wal", "continue", "log.wal");
    let container = log.with_file_name("c.utcq");
    build(&batches[..1]).save(&container).unwrap();
    let cfg = || WalConfig::new(&log);

    let store = Store::open_durable(&container, cfg()).unwrap();
    assert_eq!(store.epoch(), 2, "both v1 batches replay");
    store.ingest(&batches[3]).unwrap();
    drop(store);

    let reopened = Store::open_durable(&container, cfg()).unwrap();
    assert_eq!(reopened.epoch(), 3, "every batch replays");
    let (mut got, mut want) = (Vec::new(), Vec::new());
    reopened.write(&mut got).unwrap();
    build(&batches).write(&mut want).unwrap();
    assert!(got == want, "replayed store != offline build");
}

/// The version an error names, if it is the one that asks for `utcq
/// migrate`.
fn needs_migrate(e: Error) -> Option<(&'static str, u32)> {
    match e {
        Error::Storage(StorageError::NeedsMigrate { what, version }) => Some((what, version)),
        _ => None,
    }
}

/// The v1 fixture read on networks it was not compressed on (the tiny
/// profile's at seeds 1 and 5): its edge-number width and start
/// vertices fit them, but an edge number does not resolve, and the
/// error names the network and the check rather than the decoder.
#[test]
fn a_v1_container_on_the_wrong_network_is_a_network_mismatch() {
    let bytes = std::fs::read(fixture_path("tiny_v1.utcq")).unwrap();
    for seed in [1, 5] {
        let net = utcq::datagen::generate_network(&utcq::datagen::profile::tiny(), seed);
        let Err(err) = utcq_legacy::open(&bytes, || (net, STIU)) else {
            panic!("seed {seed}: the v1 fixture opened on the wrong network");
        };
        assert_eq!(utcq::core::wire::error_code(&err), "network_mismatch");
        assert!(
            matches!(
                err,
                Error::NetworkMismatch {
                    check: "edge number",
                    ..
                }
            ),
            "seed {seed}: {err}"
        );
        assert!(err.to_string().contains("network mismatch"), "{err}");
    }
}

#[test]
fn core_refuses_an_old_single_container_with_the_migrate_error() {
    for (name, version) in [
        ("tiny_v1.utcq", 1),
        ("tiny_v2.utcq", 2),
        ("tiny_v4.utcq", 4),
        ("tiny_v5.utcq", 5),
        ("tiny_v6.utcq", 6),
        ("tiny_v7.utcq", 7),
    ] {
        let err = Store::open(fixture_path(name)).unwrap_err();
        assert!(
            err.to_string().contains("run `utcq migrate`"),
            "{name}: {err}"
        );
        assert_eq!(needs_migrate(err), Some(("container", version)), "{name}");
    }
}

#[test]
fn core_refuses_a_v3_of_old_blobs_with_the_migrate_error() {
    // A v3 directory is refused by its own version, whatever its blobs.
    for name in [
        "tiny_v3.utcq",
        "tiny_v3_packed.utcq",
        "tiny_v3_v5.utcq",
        "tiny_v3_v6.utcq",
        "tiny_v3_v7.utcq",
    ] {
        let err = Store::open(fixture_path(name)).unwrap_err();
        assert_eq!(needs_migrate(err), Some(("container", 3)), "{name}");
    }
}

#[test]
fn core_refuses_a_v1_log_with_the_migrate_error() {
    // Neither the scan nor the open reads a v1 log, and the open leaves
    // the file as it was (it no longer rewrites it in place).
    let bytes = std::fs::read(fixture_path("wal_v1.wal")).unwrap();
    let scanned = wal::scan(&bytes).map(drop).unwrap_err();
    assert_eq!(needs_migrate(scanned), Some(("write-ahead log", 1)));
    let path = scratch_copy("wal_v1.wal", "refuse");
    let opened = Wal::open(&WalConfig::new(&path)).map(drop).unwrap_err();
    assert!(
        opened.to_string().contains("run `utcq migrate`"),
        "{opened}"
    );
    assert!(std::fs::read(&path).unwrap() == bytes);
}

#[test]
fn migrate_carries_the_stored_index() {
    // `tiny_v5.utcq` with one stored `enters` bit flipped is a valid
    // index, but not the one its trajectories would rebuild: the
    // migrated store keeps the flipped bit.
    let bytes = std::fs::read(fixture_path("tiny_v5.utcq")).unwrap();
    let v5 = migrated(&bytes).unwrap();
    let snap = v5.snapshots().remove(0);
    let node0 = snap.stiu().trajs.get(0).unwrap();
    // The one index block: the 64-bit base and the start, no, count and
    // position widths, then node 0's temporal tuples and its first
    // reference tuple (cell, ref_idx, enters).
    let block = index_block_at(&bytes);
    let block_bits = (bytes.len() - block) * 8;
    let bits = utcq::bitio::BitSlice::from_bytes(&bytes[block..], block_bits).unwrap();
    let mut r = bits.reader();
    let read = |r: &mut utcq::bitio::BitReader<'_>, width| r.read_bits(width).unwrap();
    read(&mut r, 64);
    let [start, no, count, pos] = [(); 4].map(|()| read(&mut r, 7) as u32);
    for _ in 0..read(&mut r, count) {
        for width in [start, no, pos] {
            read(&mut r, width);
        }
    }
    assert!(read(&mut r, count) > 0, "node 0 has a reference tuple");
    let width = |n: usize| utcq::bitio::width_for_max(n.saturating_sub(1) as u64);
    let ct0 = snap.compressed().trajectories.get(0).unwrap();
    read(&mut r, width(snap.stiu().grid.cell_count()));
    read(&mut r, width(ct0.ref_count()));
    let at = block * 8 + r.pos();
    let mut flipped = bytes.clone();
    flipped[at / 8] ^= 0x80 >> (at % 8);
    let kept = migrated(&flipped).expect("a valid index");
    let mut want = Vec::from_iter(node0.ref_tuples());
    want[0].2 = !want[0].2;
    let snap = kept.snapshots().remove(0);
    let got = Vec::from_iter(snap.stiu().trajs.get(0).unwrap().ref_tuples());
    assert_eq!(got, want, "the flipped bit, as stored");
}

#[test]
fn a_stored_temporal_tuple_must_be_the_one_its_time_stream_derives() {
    // `tiny_v5.utcq` with node 0's first stored temporal tuple one second
    // off: `utcq migrate` derives the tuples from the time stream itself
    // (the store keeps none) and refuses the file.
    let bytes = std::fs::read(fixture_path("tiny_v5.utcq")).unwrap();
    let block = index_block_at(&bytes);
    let block_bits = (bytes.len() - block) * 8;
    let bits = utcq::bitio::BitSlice::from_bytes(&bytes[block..], block_bits).unwrap();
    let mut r = bits.reader();
    r.read_bits(64).unwrap();
    let [start, _, count, _] = [(); 4].map(|()| r.read_bits(7).unwrap() as u32);
    assert!(
        r.read_bits(count).unwrap() > 0,
        "node 0 has a temporal tuple"
    );
    assert!(start > 0, "starts differ, so the column has bits");
    let at = block * 8 + r.pos() + start as usize - 1;
    let mut off = bytes.clone();
    off[at / 8] ^= 0x80 >> (at % 8);
    let err = migrated(&off).unwrap_err();
    assert!(err.contains("temporal tuples vs time stream"), "{err}");
}

/// Regenerates the current-format fixtures (two containers, one log)
/// into `target/tmp` and prints fresh golden values. The older fixtures
/// cannot be regenerated: no writer emits their bytes any more.
#[test]
#[ignore = "writes target/tmp/tiny_v8.utcq, tiny_v8_sharded.utcq and wal_v2.wal; copy to tests/fixtures after intentional format changes"]
fn regen_fixtures() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let wal_path = out.join("wal_v2.wal");
    let _ = std::fs::remove_file(&wal_path);
    let (mut log, _) = Wal::open(&WalConfig::new(&wal_path)).unwrap();
    for rec in wal_fixture_records(&wal_dataset().1) {
        log.append(&rec).unwrap();
    }
    let (net, ds) = fixture_dataset();
    let net = Arc::new(net);
    let params = utcq::core::CompressParams::with_interval(ds.default_interval);

    let single = Store::build(Arc::clone(&net), &ds, params, STIU).unwrap();
    single.save(out.join("tiny_v8.utcq")).unwrap();

    let sharded = StoreBuilder::new(Arc::clone(&net), params)
        .stiu_params(STIU)
        .shard_by(Arc::new(ByTime { interval_s: 120 }), 3)
        .unwrap()
        .ingest(&ds)
        .unwrap()
        .finish()
        .unwrap();
    sharded.save(out.join("tiny_v8_sharded.utcq")).unwrap();
    println!(
        "wrote tiny_v8.utcq, tiny_v8_sharded.utcq and wal_v2.wal into {}",
        out.display()
    );

    let times0 = single.decode_times(0).unwrap().unwrap();
    let mid0 = (times0[0] + times0.last().unwrap()) / 2;
    let hits = single
        .where_query(0, mid0, 0.0, PageRequest::all())
        .unwrap()
        .into_items();
    let bounds = net.bounding_rect();
    let range = single
        .range_query(&bounds, mid0, 0.2, PageRequest::all())
        .unwrap()
        .into_items();
    let occupancy: Vec<usize> = sharded.snapshots().iter().map(|s| s.len()).collect();
    println!(
        "golden: t0_first={} t0_last={}",
        times0[0],
        times0.last().unwrap()
    );
    println!("golden: where0_hits={}", hits.len());
    println!("golden: range0_ids={range:?}");
    println!("golden: v3_occupancy={occupancy:?}");
}

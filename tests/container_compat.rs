//! Cross-version container compatibility against **checked-in fixture
//! files** under `tests/fixtures/`. They must keep opening, and
//! answering identically, forever:
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
//! * `tiny_v6.utcq`, `tiny_v3_v6.utcq` — the same two shapes as every
//!   store writes them now (v6 body: region tuples coded against the
//!   trajectory).
//!
//! The first seven are frozen: nothing can write those bytes again. The
//! last two are what the `regen_fixtures` test below writes into
//! `target/tmp` (`cargo test --test container_compat -- --ignored
//! regen`); copy them over after an *intentional* format change. CI
//! compares the regenerated pair with the checked-in one.
//!
//! All nine hold the same 10-trajectory dataset, so the strongest check
//! is mutual: every version must answer every probe identically. A few
//! hardcoded goldens pin the answers absolutely, so "all agree but all
//! are wrong" cannot slip through.
//!
//! The write-ahead log has fixtures of its own, two multi-instance
//! batches of a second dataset ([`wal_dataset`]) in both record
//! encodings: `wal_v1.wal` (fixed-width fields, frozen) and
//! `wal_v2.wal` (what every log writes now, regenerated and compared by
//! CI like the containers).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use utcq::core::query::PageRequest;
use utcq::core::shard::ByTime;
use utcq::core::stiu::{StiuParams, TrajIndex};
use utcq::core::wal::{self, Record, Wal};
use utcq::core::{CompressParams, Opened, QueryTarget, Snapshot, Store, StoreBuilder, WalConfig};
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

/// Opens all nine fixtures. The v1 fixture has no embedded network, so
/// it reuses the v2 fixture's — the dataset is identical by
/// construction.
fn open_fixtures() -> ([Store; 5], [Store; 4]) {
    let open = |name: &str| Store::open(fixture_path(name)).expect(name);
    let sharded = |name: &str| Store::open(fixture_path(name)).expect(name);
    let v2 = open("tiny_v2.utcq");
    let v1 = Store::open_v1(fixture_path("tiny_v1.utcq"), Arc::clone(v2.network()), STIU)
        .expect("v1 fixture opens");
    (
        [
            v1,
            v2,
            open("tiny_v4.utcq"),
            open("tiny_v5.utcq"),
            open("tiny_v6.utcq"),
        ],
        [
            sharded("tiny_v3.utcq"),
            sharded("tiny_v3_packed.utcq"),
            sharded("tiny_v3_v5.utcq"),
            sharded("tiny_v3_v6.utcq"),
        ],
    )
}

#[test]
fn all_versions_open_and_agree() {
    let ([v1, v2, v4, v5, v6], [v3, v3_packed, v3_v5, v3_v6]) = open_fixtures();
    let targets: Vec<(&str, &dyn QueryTarget)> = vec![
        ("v1", &v1),
        ("v2", &v2),
        ("v4", &v4),
        ("v5", &v5),
        ("v6", &v6),
        ("v3", &v3),
        ("v3 packed", &v3_packed),
        ("v3 v5", &v3_v5),
        ("v3 v6", &v3_v6),
    ];
    for sharded in [&v3, &v3_packed, &v3_v5, &v3_v6] {
        assert_eq!(sharded.shard_count(), 3);
    }
    for (name, t) in &targets {
        assert_eq!(t.len(), TRAJS, "{name}");
    }

    let bounds = v2.network().bounding_rect();
    // Probe every trajectory: ids and time spans come from the container
    // itself (decoded times), not from regenerating the dataset.
    let v2_snap = v2.snapshot();
    for j in 0..TRAJS as u32 {
        let ct = &v2_snap.compressed().trajectories[j as usize];
        let times = v2.decode_times(j).unwrap();
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
fn v2_nodes_at(bytes: &[u8], snap: &Snapshot) -> usize {
    let (nodes, postings) = (&snap.stiu().trajs, &snap.stiu().interval_trajs);
    let keys = postings.sorted_keys();
    let per_key = keys.iter().map(|&k| 12 + 4 * postings.postings(k).len());
    let postings_len = 8 + per_key.sum::<usize>();
    let node_len = |n: TrajIndex<'_>| {
        let (refs, nrefs) = n.tuple_counts();
        12 + 16 * n.temporal.len() + 37 * refs + 20 * nrefs
    };
    bytes.len() - postings_len - nodes.iter().map(node_len).sum::<usize>()
}

#[test]
fn derived_bounds_equal_the_stored_ones() {
    // `tiny_v2.utcq` stores `p_total` / `p_max` as the index builder of
    // its day computed them; no later version stores them, and no
    // store holds them: a query derives them per cell. Same bits, or
    // Lemma 1's filter changed.
    let ([_, v2, v4, v5, v6], _) = open_fixtures();
    let derived = |s: &Store| -> Vec<(u64, u64)> {
        let snap = s.snapshot();
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
    let snap = v2.snapshot();
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
    for (name, store) in [("v2", &v2), ("v4", &v4), ("v5", &v5), ("v6", &v6)] {
        assert_eq!(derived(store), stored, "{name}");
    }
}

#[test]
fn saving_an_old_container_writes_the_current_format() {
    // The upgrade every checkpoint now performs: a store opened from an
    // older framing saves as exactly the current fixture, the derived
    // index parts included (they are recomputed at each open), the
    // resume fields of v2 / v4 gone and every non-reference's tuples,
    // stored in traversal order up to v5, in ascending cell order.
    let read = |name: &str| std::fs::read(fixture_path(name)).expect(name);
    let ([_, v2, v4, v5, v6], [v3, v3_packed, v3_v5, v3_v6]) = open_fixtures();
    for (name, store) in [("v2", &v2), ("v4", &v4), ("v5", &v5), ("v6", &v6)] {
        let mut bytes = Vec::new();
        store.write(&mut bytes).unwrap();
        assert!(
            bytes == read("tiny_v6.utcq"),
            "{name} saved != tiny_v6.utcq"
        );
    }
    let sharded = [
        ("v3", &v3),
        ("v3 packed", &v3_packed),
        ("v3 v5", &v3_v5),
        ("v3 v6", &v3_v6),
    ];
    for (name, store) in sharded {
        let mut bytes = Vec::new();
        store.write(&mut bytes).unwrap();
        assert!(
            bytes == read("tiny_v3_v6.utcq"),
            "{name} saved != tiny_v3_v6.utcq"
        );
    }
    // Old single-store bytes are 2.5x the new ones even at ten
    // trajectories, where the embedded network dominates; and the
    // resume fields were a visible share of v4 even here.
    assert!(read("tiny_v4.utcq").len() * 2 < read("tiny_v2.utcq").len());
    assert!(read("tiny_v5.utcq").len() < read("tiny_v4.utcq").len());
    assert!(read("tiny_v6.utcq").len() < read("tiny_v5.utcq").len());
}

#[test]
fn resume_fields_of_old_versions_are_still_checked() {
    // The reader drops the resume fields of a v2 / v4 tuple after every
    // check they had while it kept them: what failed to open then fails
    // now, with the same error.
    let open = |bytes: &[u8]| Store::read(&mut &bytes[..]).map_err(|e| e.to_string());

    // v2, fixed-width fields: node 0 is the first of the nodes.
    let bytes = std::fs::read(fixture_path("tiny_v2.utcq")).unwrap();
    let v2 = open(&bytes).expect("the fixture itself opens");
    let snap = v2.snapshot();
    let node0 = snap.stiu().trajs.get(0).unwrap();
    let refs_at = v2_nodes_at(&bytes, &snap) + 4 + 16 * node0.temporal.len() + 4;
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
        node0.nref_tuples(ct0.nrefs)[0].1 .0
    );
    let n_vertices = snap.network().vertex_count() as u32;
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

    // v4, bit-packed. The dataset section did not change with v5, so
    // the writer's census of the opened store says where the v4 file's
    // index starts: i64 partition, u32 grid dimension, then the one
    // block of ten nodes (u32 byte length, 64-bit base, five 7-bit
    // column widths: start, no, count, entry index, position).
    let bytes = std::fs::read(fixture_path("tiny_v4.utcq")).unwrap();
    let v4 = open(&bytes).expect("the fixture itself opens");
    let census = v4.snapshot().write_counted(&mut std::io::sink()).unwrap();
    let block = ((census.network + census.payload + census.framing) / 8) as usize + 16;
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
    // either; the old readers refuse both rather than open a store that
    // could not be saved.
    let open = |bytes: &[u8]| Store::read(&mut &bytes[..]).map_err(|e| e.to_string());
    let bytes = std::fs::read(fixture_path("tiny_v5.utcq")).unwrap();
    let v5 = open(&bytes).expect("the fixture itself opens");
    let snap = v5.snapshot();
    // v6 did not change the dataset section, so the writer's census says
    // where the index block starts: after the i64 partition, the u32
    // grid dimension and the u32 block length.
    let census = snap.write_counted(&mut std::io::sink()).unwrap();
    let block = ((census.network + census.payload + census.framing) / 8) as usize + 16;
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
            let ref_idx = read(&mut r, width(ct.refs.len())) as u32;
            read(&mut r, 1);
            group_cells.push((ref_idx, cell));
        }
        let mut tuples = Vec::new();
        for _ in 0..read(&mut r, count) {
            let at = r.pos();
            let cell = read(&mut r, cell_width);
            tuples.push((at, cell, read(&mut r, width(ct.nrefs.len())) as usize));
        }
        if let Some(pair) = tuples.windows(2).find(|w| w[0].2 == w[1].2) {
            let group = ct.nrefs[pair[0].2].ref_idx;
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
    // they pin the absolute answers of every fixture, v1 through v6.
    let (singles, sharded) = open_fixtures();
    let golden = golden_answers();
    let mid0 = (golden.t0_first + golden.t0_last) / 2;
    let bounds = singles[1].network().bounding_rect();
    for (k, store) in singles.iter().enumerate() {
        let ids: Vec<u64> = store
            .snapshot()
            .compressed()
            .trajectories
            .iter()
            .map(|t| t.id)
            .collect();
        assert_eq!(ids, (0..TRAJS as u64).collect::<Vec<_>>(), "single {k}");
        let times0 = store.decode_times(0).unwrap();
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
    for (fixture, version) in [("wal_v1.wal", 1), ("wal_v2.wal", 2)] {
        let scanned = wal::scan(&std::fs::read(fixture_path(fixture)).unwrap()).unwrap();
        assert!(!scanned.torn, "{fixture}");
        let scanned: Vec<String> = scanned.records.iter().map(record_bits).collect();
        assert_eq!(scanned, want, "{fixture}: scan");
        let path = scratch_copy(fixture, &format!("read-{version}"));
        assert_eq!(header_version(&path), version);
        let (_, records) = Wal::open(&WalConfig::new(&path)).unwrap();
        let opened: Vec<String> = records.iter().map(record_bits).collect();
        assert_eq!(opened, want, "{fixture}: Wal::open");
        // Opening rewrote a v1 log as exactly what v2 writes.
        assert_eq!(header_version(&path), 2, "{fixture}");
        assert!(
            std::fs::read(&path).unwrap() == std::fs::read(fixture_path("wal_v2.wal")).unwrap()
        );
    }
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
    let log = scratch_copy("wal_v1.wal", "continue");
    let container = log.with_file_name("c.utcq");
    build(&batches[..1]).save(&container).unwrap();
    let cfg = || WalConfig::new(&log);

    let store = Opened::open_durable(&container, cfg()).unwrap();
    assert_eq!(store.epoch(), 2, "both v1 batches replay");
    assert_eq!(header_version(&log), 2, "rewritten before the first append");
    store.ingest(&batches[3]).unwrap();
    drop(store);

    let reopened = Opened::open_durable(&container, cfg()).unwrap();
    assert_eq!(reopened.epoch(), 3, "every batch replays");
    let Opened::Single(live) = &reopened else {
        panic!("a single-store container")
    };
    let (mut got, mut want) = (Vec::new(), Vec::new());
    live.write(&mut got).unwrap();
    build(&batches).write(&mut want).unwrap();
    assert!(got == want, "replayed store != offline build");
}

/// Regenerates the current-format fixtures (two containers, one log)
/// into `target/tmp` and prints fresh golden values. The older fixtures
/// cannot be regenerated: no writer emits their bytes any more.
#[test]
#[ignore = "writes target/tmp/tiny_v6.utcq, tiny_v3_v6.utcq and wal_v2.wal; copy to tests/fixtures after intentional format changes"]
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
    single.save(out.join("tiny_v6.utcq")).unwrap();

    let sharded = StoreBuilder::new(Arc::clone(&net), params)
        .stiu_params(STIU)
        .shard_by(Arc::new(ByTime { interval_s: 120 }), 3)
        .unwrap()
        .ingest(&ds)
        .unwrap()
        .finish()
        .unwrap();
    sharded.save(out.join("tiny_v3_v6.utcq")).unwrap();
    println!(
        "wrote tiny_v6.utcq, tiny_v3_v6.utcq and wal_v2.wal into {}",
        out.display()
    );

    let times0 = single.decode_times(0).unwrap();
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

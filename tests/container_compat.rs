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
//! * `tiny_v5.utcq`, `tiny_v3_v5.utcq` — the same two shapes as every
//!   store writes them now (v5 body).
//!
//! The first five are frozen: nothing can write those bytes again. The
//! last two are what the `regen_fixtures` test below writes into
//! `target/tmp` (`cargo test --test container_compat -- --ignored
//! regen`); copy them over after an *intentional* format change. CI
//! compares the regenerated pair with the checked-in one.
//!
//! All seven hold the same 10-trajectory dataset, so the strongest check
//! is mutual: every version must answer every probe identically. A few
//! hardcoded goldens pin the answers absolutely, so "all agree but all
//! are wrong" cannot slip through.

use std::path::PathBuf;
use std::sync::Arc;

use utcq::core::query::PageRequest;
use utcq::core::shard::{ByTime, ShardedStore};
use utcq::core::stiu::StiuParams;
use utcq::core::{LiveStore, QueryTarget, Store, StoreBuilder};

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

/// Opens all seven fixtures. The v1 fixture has no embedded network, so
/// it reuses the v2 fixture's — the dataset is identical by
/// construction.
fn open_fixtures() -> ([Store; 4], [ShardedStore; 3]) {
    let open = |name: &str| Store::open(fixture_path(name)).expect(name);
    let sharded = |name: &str| ShardedStore::open(fixture_path(name)).expect(name);
    let v2 = open("tiny_v2.utcq");
    let v1 = Store::open_v1(fixture_path("tiny_v1.utcq"), Arc::clone(v2.network()), STIU)
        .expect("v1 fixture opens");
    (
        [v1, v2, open("tiny_v4.utcq"), open("tiny_v5.utcq")],
        [
            sharded("tiny_v3.utcq"),
            sharded("tiny_v3_packed.utcq"),
            sharded("tiny_v3_v5.utcq"),
        ],
    )
}

#[test]
fn all_versions_open_and_agree() {
    let ([v1, v2, v4, v5], [v3, v3_packed, v3_v5]) = open_fixtures();
    let targets: Vec<(&str, &dyn QueryTarget)> = vec![
        ("v1", &v1),
        ("v2", &v2),
        ("v4", &v4),
        ("v5", &v5),
        ("v3", &v3),
        ("v3 packed", &v3_packed),
        ("v3 v5", &v3_v5),
    ];
    for sharded in [&v3, &v3_packed, &v3_v5] {
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

#[test]
fn derived_bounds_equal_the_stored_ones() {
    // `tiny_v2.utcq` stores `p_total` / `p_max` as the index builder of
    // its day computed them; v4 and v5 do not store them and the reader
    // derives them. Same bits, or Lemma 1's filter changed.
    let ([_, v2, v4, v5], _) = open_fixtures();
    let bounds = |s: &Store| -> Vec<(u64, u64)> {
        let snap = s.snapshot();
        let tuples = snap.stiu().trajs.iter().flat_map(|n| n.ref_tuples);
        tuples
            .map(|t| (t.p_total.to_bits(), t.p_max.to_bits()))
            .collect()
    };
    assert!(!bounds(&v2).is_empty());
    assert_eq!(bounds(&v2), bounds(&v4));
    assert_eq!(bounds(&v2), bounds(&v5));
}

#[test]
fn saving_an_old_container_writes_the_current_format() {
    // The upgrade every checkpoint now performs: a store opened from an
    // older framing saves as exactly the current fixture, the derived
    // index parts included (they are recomputed at each open) and the
    // resume fields of v2 / v4 gone.
    let read = |name: &str| std::fs::read(fixture_path(name)).expect(name);
    let ([_, v2, v4, v5], [v3, v3_packed, v3_v5]) = open_fixtures();
    for (name, store) in [("v2", &v2), ("v4", &v4), ("v5", &v5)] {
        let mut bytes = Vec::new();
        store.write(&mut bytes).unwrap();
        assert!(
            bytes == read("tiny_v5.utcq"),
            "{name} saved != tiny_v5.utcq"
        );
    }
    for (name, store) in [("v3", &v3), ("v3 packed", &v3_packed), ("v3 v5", &v3_v5)] {
        let mut bytes = Vec::new();
        store.write(&mut bytes).unwrap();
        assert!(
            bytes == read("tiny_v3_v5.utcq"),
            "{name} saved != tiny_v3_v5.utcq"
        );
    }
    // Old single-store bytes are 2.5x the new ones even at ten
    // trajectories, where the embedded network dominates; and the
    // resume fields were a visible share of v4 even here.
    assert!(read("tiny_v4.utcq").len() * 2 < read("tiny_v2.utcq").len());
    assert!(read("tiny_v5.utcq").len() < read("tiny_v4.utcq").len());
}

#[test]
fn resume_fields_of_old_versions_are_still_checked() {
    // The reader drops the resume fields of a v2 / v4 tuple after every
    // check they had while it kept them: what failed to open then fails
    // now, with the same error.
    let open = |bytes: &[u8]| Store::read(&mut &bytes[..]).map_err(|e| e.to_string());

    // v2, fixed-width fields. The file ends with the nodes (u32 count +
    // 16-byte temporal tuples, u32 count + 37-byte reference tuples,
    // u32 count + 20-byte non-reference tuples) and the postings (u64
    // key count; per key i64, u32 count, u32 positions): sized from the
    // opened store, they locate node 0 from the end.
    let bytes = std::fs::read(fixture_path("tiny_v2.utcq")).unwrap();
    let v2 = open(&bytes).expect("the fixture itself opens");
    let snap = v2.snapshot();
    let (nodes, postings) = (&snap.stiu().trajs, &snap.stiu().interval_trajs);
    let keys = postings.sorted_keys();
    let per_key = keys.iter().map(|&k| 12 + 4 * postings.postings(k).len());
    let postings_len = 8 + per_key.sum::<usize>();
    let node_len = |n: utcq::core::stiu::TrajIndex<'_>| {
        12 + 16 * n.temporal.len() + 37 * n.ref_tuples.len() + 20 * n.nref_tuples.len()
    };
    let nodes_len: usize = nodes.iter().map(node_len).sum();
    let node0 = nodes.get(0).unwrap();
    let refs_at = bytes.len() - postings_len - nodes_len + 4 + 16 * node0.temporal.len() + 4;
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    assert_eq!(u32_at(refs_at - 4) as usize, node0.ref_tuples.len());
    // cell, ref_idx, enters (1 byte), then vertex, entry index, position.
    let entering = node0.ref_tuples.iter().position(|t| t.enters()).unwrap();
    let ref_vertex = refs_at + 37 * entering + 9;
    assert_eq!(u32_at(ref_vertex - 9), node0.ref_tuples[entering].cell.0);
    // count, then cell, nref_idx, vertex, entry index, position.
    let nref_vertex = refs_at + 37 * node0.ref_tuples.len() + 4 + 8;
    assert_eq!(u32_at(nref_vertex - 8), node0.nref_tuples[0].cell.0);
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
fn goldens_pin_fixture_answers() {
    let ([_, _, _, v5], [_, _, v3]) = open_fixtures();
    // Golden values recorded when the first fixtures were generated;
    // they pin the absolute answers, here of the current-format pair
    // (`all_versions_open_and_agree` ties the older ones to them).
    let v2 = v5;
    let ids: Vec<u64> = v2
        .snapshot()
        .compressed()
        .trajectories
        .iter()
        .map(|t| t.id)
        .collect();
    assert_eq!(ids, (0..TRAJS as u64).collect::<Vec<_>>());

    let times0 = v2.decode_times(0).unwrap();
    let golden = golden_answers();
    assert_eq!(
        (times0[0], *times0.last().unwrap()),
        (golden.t0_first, golden.t0_last),
        "trajectory 0 time span"
    );
    let mid0 = (golden.t0_first + golden.t0_last) / 2;
    let hits = v2
        .where_query(0, mid0, 0.0, PageRequest::all())
        .unwrap()
        .into_items();
    assert_eq!(hits.len(), golden.where0_hits, "where(0) hit count");
    let bounds = v2.network().bounding_rect();
    let range = v2
        .range_query(&bounds, mid0, 0.2, PageRequest::all())
        .unwrap()
        .into_items();
    assert_eq!(range, golden.range0_ids, "range at t0 mid");
    // The sharded fixture distributes trajectories as recorded.
    let occupancy: Vec<usize> = v3.snapshots().iter().map(|s| s.len()).collect();
    assert_eq!(occupancy, golden.v3_occupancy, "v3 shard occupancy");
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

/// Regenerates the two current-format fixtures into `target/tmp` and
/// prints fresh golden values. The five older fixtures cannot be
/// regenerated: no writer emits their bytes any more.
#[test]
#[ignore = "writes target/tmp/tiny_*.utcq; copy to tests/fixtures after intentional format changes"]
fn regen_fixtures() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (net, ds) = fixture_dataset();
    let net = Arc::new(net);
    let params = utcq::core::CompressParams::with_interval(ds.default_interval);

    let single = Store::build(Arc::clone(&net), &ds, params, STIU).unwrap();
    single.save(out.join("tiny_v5.utcq")).unwrap();

    let sharded = StoreBuilder::new(Arc::clone(&net), params)
        .stiu_params(STIU)
        .shard_by(Arc::new(ByTime { interval_s: 120 }), 3)
        .unwrap()
        .ingest(&ds)
        .unwrap()
        .finish()
        .unwrap();
    sharded.save(out.join("tiny_v3_v5.utcq")).unwrap();
    println!(
        "wrote tiny_v5.utcq and tiny_v3_v5.utcq into {}",
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

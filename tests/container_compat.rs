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
//! * `tiny_v4.utcq`, `tiny_v3_packed.utcq` — the same two shapes as
//!   every store writes them now (bit-packed v4 body).
//!
//! The first three are frozen: nothing can write those bytes again. The
//! last two are what the `regen_fixtures` test below writes into
//! `target/tmp` (`cargo test --test container_compat -- --ignored
//! regen`); copy them over after an *intentional* format change. CI
//! compares the regenerated pair with the checked-in one.
//!
//! All five hold the same 10-trajectory dataset, so the strongest check
//! is mutual: every version must answer every probe identically. A few
//! hardcoded goldens pin the answers absolutely, so "all agree but all
//! are wrong" cannot slip through.

use std::path::PathBuf;
use std::sync::Arc;

use utcq::core::query::PageRequest;
use utcq::core::shard::{ByTime, ShardedStore};
use utcq::core::stiu::StiuParams;
use utcq::core::{QueryTarget, Store, StoreBuilder};

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

/// Opens all five fixtures. The v1 fixture has no embedded network, so
/// it reuses the v2 fixture's — the dataset is identical by
/// construction.
fn open_fixtures() -> ([Store; 3], [ShardedStore; 2]) {
    let open = |name: &str| Store::open(fixture_path(name)).expect(name);
    let sharded = |name: &str| ShardedStore::open(fixture_path(name)).expect(name);
    let v2 = open("tiny_v2.utcq");
    let v1 = Store::open_v1(fixture_path("tiny_v1.utcq"), Arc::clone(v2.network()), STIU)
        .expect("v1 fixture opens");
    (
        [v1, v2, open("tiny_v4.utcq")],
        [sharded("tiny_v3.utcq"), sharded("tiny_v3_packed.utcq")],
    )
}

#[test]
fn all_versions_open_and_agree() {
    let ([v1, v2, v4], [v3, v3_packed]) = open_fixtures();
    assert_eq!((v3.shard_count(), v3_packed.shard_count()), (3, 3));
    let targets: Vec<(&str, &dyn QueryTarget)> = vec![
        ("v1", &v1),
        ("v2", &v2),
        ("v4", &v4),
        ("v3", &v3),
        ("v3 packed", &v3_packed),
    ];
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
    // its day computed them; v4 does not store them and the reader
    // derives them. Same bits, or Lemma 1's filter changed.
    let ([_, v2, v4], _) = open_fixtures();
    let bounds = |s: &Store| -> Vec<(u64, u64)> {
        let snap = s.snapshot();
        let tuples = snap.stiu().trajs.iter().flat_map(|n| n.ref_tuples);
        tuples
            .map(|t| (t.p_total.to_bits(), t.p_max.to_bits()))
            .collect()
    };
    assert!(!bounds(&v2).is_empty());
    assert_eq!(bounds(&v2), bounds(&v4));
}

#[test]
fn saving_an_old_container_writes_the_current_format() {
    // The upgrade every checkpoint now performs: a store opened from the
    // fixed-width framing saves as exactly the bit-packed fixture, the
    // derived index parts included (they are recomputed at each open).
    let read = |name: &str| std::fs::read(fixture_path(name)).expect(name);
    let ([_, v2, v4], [v3, v3_packed]) = open_fixtures();
    for (name, store) in [("v2", &v2), ("v4", &v4)] {
        let mut bytes = Vec::new();
        store.write(&mut bytes).unwrap();
        assert!(
            bytes == read("tiny_v4.utcq"),
            "{name} saved != tiny_v4.utcq"
        );
    }
    for (name, store) in [("v3", &v3), ("v3 packed", &v3_packed)] {
        let mut bytes = Vec::new();
        store.write(&mut bytes).unwrap();
        assert!(
            bytes == read("tiny_v3_packed.utcq"),
            "{name} saved != tiny_v3_packed.utcq"
        );
    }
    // Old single-store bytes are 2.5x the new ones even at ten
    // trajectories, where the embedded network dominates.
    assert!(read("tiny_v4.utcq").len() * 2 < read("tiny_v2.utcq").len());
}

#[test]
fn goldens_pin_fixture_answers() {
    let ([_, _, v4], [_, v3]) = open_fixtures();
    // Golden values recorded when the first fixtures were generated;
    // they pin the absolute answers, here of the current-format pair
    // (`all_versions_open_and_agree` ties the older ones to them).
    let v2 = v4;
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
    let occupancy: Vec<usize> = v3.shards().iter().map(Store::len).collect();
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
/// prints fresh golden values. The three older fixtures cannot be
/// regenerated: no writer emits their bytes any more.
#[test]
#[ignore = "writes target/tmp/tiny_*.utcq; copy to tests/fixtures after intentional format changes"]
fn regen_fixtures() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (net, ds) = fixture_dataset();
    let net = Arc::new(net);
    let params = utcq::core::CompressParams::with_interval(ds.default_interval);

    let single = Store::build(Arc::clone(&net), &ds, params, STIU).unwrap();
    single.save(out.join("tiny_v4.utcq")).unwrap();

    let sharded = StoreBuilder::new(Arc::clone(&net), params)
        .stiu_params(STIU)
        .shard_by(Arc::new(ByTime { interval_s: 120 }), 3)
        .unwrap()
        .ingest(&ds)
        .unwrap()
        .finish()
        .unwrap();
    sharded.save(out.join("tiny_v3_packed.utcq")).unwrap();
    println!(
        "wrote tiny_v4.utcq and tiny_v3_packed.utcq into {}",
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
    let occupancy: Vec<usize> = sharded.shards().iter().map(Store::len).collect();
    println!(
        "golden: t0_first={} t0_last={}",
        times0[0],
        times0.last().unwrap()
    );
    println!("golden: where0_hits={}", hits.len());
    println!("golden: range0_ids={range:?}");
    println!("golden: v3_occupancy={occupancy:?}");
}

//! Persistence and ingest-equivalence properties of the [`Store`] façade:
//!
//! * a store saved to a v2 container and reopened answers every query
//!   type identically (randomized over seeds);
//! * a legacy v1 container still opens through the compatibility path
//!   and answers identically;
//! * two-batch incremental ingest is equivalent to single-batch ingest —
//!   identical query answers for *where*/*when*/*range*. (Reference
//!   selection is per-trajectory, so in this implementation even the
//!   compressed sizes match exactly; the equivalence test asserts answer
//!   equality, the part the public API guarantees, and checks the ratio
//!   against an exact-match tolerance of zero separately.)

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use utcq_core::query::{PageRequest, QueryTarget};
use utcq_core::{CompressParams, Error, StiuParams, Store, StoreBuilder};
use utcq_network::{Rect, RoadNetwork};
use utcq_traj::Dataset;

fn setup(seed: u64, n: usize) -> (RoadNetwork, Dataset) {
    utcq_datagen::generate(&utcq_datagen::profile::tiny(), n, seed)
}

fn build_store(net: &RoadNetwork, ds: &Dataset) -> Store {
    Store::build(
        Arc::new(net.clone()),
        ds,
        CompressParams::with_interval(ds.default_interval),
        StiuParams {
            partition_s: 600,
            grid_n: 16,
        },
    )
    .unwrap()
}

/// Asserts that two stores answer a deterministic mixed workload
/// identically (exact equality — both run the same compressed payload).
fn assert_equal_answers(a: &Store, b: &Store, ds: &Dataset, rng: &mut StdRng) {
    let bounds = a.network().bounding_rect();
    for tu in &ds.trajectories {
        let span = tu.times[tu.times.len() - 1] - tu.times[0];
        let t = tu.times[0] + rng.gen_range(0..=span.max(1));
        for alpha in [0.0, 0.25, 0.6] {
            let wa = a.where_query(tu.id, t, alpha, PageRequest::all()).unwrap();
            let wb = b.where_query(tu.id, t, alpha, PageRequest::all()).unwrap();
            assert_eq!(wa.items, wb.items, "where tu={} t={t} α={alpha}", tu.id);

            let inst = tu.top_instance();
            let edge = inst.path[rng.gen_range(0..inst.path.len())];
            let rd = rng.gen_range(0.1..0.9);
            let na = a
                .when_query(tu.id, edge, rd, alpha, PageRequest::all())
                .unwrap();
            let nb = b
                .when_query(tu.id, edge, rd, alpha, PageRequest::all())
                .unwrap();
            assert_eq!(na.items, nb.items, "when tu={} α={alpha}", tu.id);
        }
    }
    for k in 0..10 {
        let fx = (k % 4) as f64 / 4.0;
        let re = Rect::new(
            bounds.min_x + fx * bounds.width(),
            bounds.min_y,
            bounds.min_x + (fx + 0.3) * bounds.width(),
            bounds.max_y,
        );
        let tq = ds.trajectories[k % ds.trajectories.len()].times[0] + 30;
        for alpha in [0.05, 0.4] {
            let ra = a.range_query(&re, tq, alpha, PageRequest::all()).unwrap();
            let rb = b.range_query(&re, tq, alpha, PageRequest::all()).unwrap();
            assert_eq!(ra.items, rb.items, "range k={k} α={alpha}");
        }
    }
}

#[test]
fn reopened_v2_store_answers_identically() {
    // Property, randomized over seeds: open(save(store)) ≡ store for all
    // three query types.
    let mut rng = StdRng::seed_from_u64(0x0C0FFEE);
    for _ in 0..4 {
        let seed = rng.gen_range(0u64..10_000);
        let (net, ds) = setup(seed, 12);
        let store = build_store(&net, &ds);

        let mut bytes = Vec::new();
        store.write(&mut bytes).unwrap();
        let reopened = Store::read(&mut bytes.as_slice()).unwrap();
        assert_eq!(reopened.len(), store.len(), "seed {seed}");
        assert_eq!(
            reopened.snapshot().compressed().compressed,
            store.snapshot().compressed().compressed,
            "seed {seed}"
        );
        assert_equal_answers(&store, &reopened, &ds, &mut rng);
    }
}

#[test]
fn v2_file_roundtrip_via_paths() {
    let (net, ds) = setup(77, 10);
    let store = build_store(&net, &ds);
    let path = std::env::temp_dir().join("utcq-test-roundtrip.utcq");
    store.save(&path).unwrap();
    let reopened = Store::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut rng = StdRng::seed_from_u64(1);
    assert_equal_answers(&store, &reopened, &ds, &mut rng);
}

#[test]
fn empty_network_store_roundtrips_and_answers_empty() {
    // `RoadNetwork::read_from` accepts V=0,E=0, so a container can embed
    // a network without vertices: it must build, save and reopen, never
    // panic, and answer every query with the empty set.
    let net = Arc::new(utcq_network::NetworkBuilder::new().build());
    let store = StoreBuilder::new(net, CompressParams::default())
        .finish()
        .unwrap();
    let mut bytes = Vec::new();
    store.write(&mut bytes).unwrap();
    let reopened = Store::read(&mut bytes.as_slice()).unwrap();
    for s in [&store, &reopened] {
        assert!(s.is_empty());
        assert_eq!(s.network().vertex_count(), 0);
        let everywhere = s.network().bounding_rect();
        assert!(s
            .range_query(&everywhere, 0, 0.0, PageRequest::all())
            .unwrap()
            .items
            .is_empty());
        assert!(s
            .where_query(1, 0, 0.0, PageRequest::all())
            .unwrap()
            .items
            .is_empty());
    }
}

#[test]
fn v1_container_opens_through_compat_path() {
    // Fixture: a v1 (dataset-only) container written by the legacy
    // writer must still load — with the network supplied out of band —
    // and answer queries identically to the originally built store.
    let (net, ds) = setup(55, 12);
    let store = build_store(&net, &ds);
    let path = std::env::temp_dir().join("utcq-test-v1-fixture.utcq");
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        utcq_core::storage::save(store.snapshot().compressed(), &mut f).unwrap();
    }

    // The v2-only opener refuses with the dedicated error…
    match Store::open(&path) {
        Err(Error::NeedsNetwork) => {}
        other => panic!("expected NeedsNetwork, got {other:?}"),
    }

    // …and the compatibility path succeeds and agrees.
    let reopened = Store::open_v1(
        &path,
        Arc::new(net.clone()),
        StiuParams {
            partition_s: 600,
            grid_n: 16,
        },
    )
    .unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(reopened.len(), store.len());
    let mut rng = StdRng::seed_from_u64(2);
    assert_equal_answers(&store, &reopened, &ds, &mut rng);
}

#[test]
fn incremental_ingest_equals_single_batch() {
    // ingest(a).ingest(b) ≡ ingest(a ++ b) for all three query types.
    let mut rng = StdRng::seed_from_u64(0x1261);
    for round in 0..3 {
        let (net, ds) = setup(9000 + round, 14);
        let net = Arc::new(net);
        let params = CompressParams::with_interval(ds.default_interval);
        let stiu = StiuParams {
            partition_s: 600,
            grid_n: 16,
        };

        let split = rng.gen_range(1..ds.trajectories.len());
        let mut batch_a = ds.clone();
        let mut batch_b = ds.clone();
        batch_b.trajectories = batch_a.trajectories.split_off(split);

        let incremental = StoreBuilder::new(Arc::clone(&net), params)
            .stiu_params(stiu)
            .ingest(&batch_a)
            .unwrap()
            .ingest(&batch_b)
            .unwrap()
            .finish()
            .unwrap();
        let single = StoreBuilder::new(Arc::clone(&net), params)
            .stiu_params(stiu)
            .ingest(&ds)
            .unwrap()
            .finish()
            .unwrap();

        assert_eq!(incremental.len(), single.len());
        // Reference selection is per-trajectory, so batching cannot
        // change the compressed representation at all: the ratio
        // tolerance is exactly zero in this implementation.
        assert_eq!(
            incremental.snapshot().compressed().compressed,
            single.snapshot().compressed().compressed,
            "round {round}: compressed footprints diverge"
        );
        assert_eq!(incremental.ratios().total, single.ratios().total);

        assert_equal_answers(&incremental, &single, &ds, &mut rng);
    }
}

#[test]
fn ingest_order_does_not_change_answers() {
    // b-then-a produces different internal positions than a-then-b, but
    // identical query answers (range answers are sorted by id).
    let (net, ds) = setup(4321, 12);
    let net = Arc::new(net);
    let params = CompressParams::with_interval(ds.default_interval);
    let split = ds.trajectories.len() / 2;
    let mut batch_a = ds.clone();
    let mut batch_b = ds.clone();
    batch_b.trajectories = batch_a.trajectories.split_off(split);

    let ab = StoreBuilder::new(Arc::clone(&net), params)
        .ingest(&batch_a)
        .unwrap()
        .ingest(&batch_b)
        .unwrap()
        .finish()
        .unwrap();
    let ba = StoreBuilder::new(Arc::clone(&net), params)
        .ingest(&batch_b)
        .unwrap()
        .ingest(&batch_a)
        .unwrap()
        .finish()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    assert_equal_answers(&ab, &ba, &ds, &mut rng);
}

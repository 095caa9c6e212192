//! Sharding is a pure partitioning layer: a [`Store`] partitioned by
//! either built-in routing policy, over any partition count, must return
//! **byte-identical** `where`/`when`/`range` answers — and identical
//! fully paginated item sequences — to a plain [`Store`] built from the
//! same dataset. This suite asserts exactly that, for 1, 2, 4 and 7
//! partitions under both `ByTime` and `ByRegion`, through the in-memory
//! path, the v3 container roundtrip, and the parallel range path.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use utcq::core::query::PageRequest;
use utcq::core::shard::{ByRegion, ByTime, ShardPolicy};
use utcq::core::stiu::StiuParams;
use utcq::core::{CompressParams, QueryTarget, RangeQuery, Store, StoreBuilder};
use utcq::network::{Rect, RoadNetwork};
use utcq::traj::Dataset;

const STIU: StiuParams = StiuParams {
    partition_s: 900,
    grid_n: 8,
};

fn setup(seed: u64, n: usize) -> (RoadNetwork, Dataset) {
    let profile = utcq::datagen::profile::tiny();
    utcq::datagen::generate(&profile, n, seed)
}

fn single_store(net: &RoadNetwork, ds: &Dataset) -> Store {
    StoreBuilder::new(
        Arc::new(net.clone()),
        CompressParams::with_interval(ds.default_interval),
    )
    .stiu_params(STIU)
    .ingest(ds)
    .unwrap()
    .finish()
    .unwrap()
}

fn sharded_store(
    net: &RoadNetwork,
    ds: &Dataset,
    policy: Arc<dyn ShardPolicy>,
    n_shards: u32,
) -> Store {
    // Split the batch in two to also exercise incremental sharded ingest.
    let mut first = ds.clone();
    let mut second = Dataset {
        name: ds.name.clone(),
        default_interval: ds.default_interval,
        trajectories: first.trajectories.split_off(ds.trajectories.len() / 2),
    };
    // Ingest in swapped order: placement must not depend on arrival order.
    std::mem::swap(&mut first, &mut second);
    StoreBuilder::new(
        Arc::new(net.clone()),
        CompressParams::with_interval(ds.default_interval),
    )
    .stiu_params(STIU)
    .shard_by(policy, n_shards)
    .unwrap()
    .ingest(&first)
    .unwrap()
    .ingest(&second)
    .unwrap()
    .finish()
    .unwrap()
}

/// A deterministic mixed workload over the dataset.
struct Workload {
    wheres: Vec<(u64, i64, f64)>,
    whens: Vec<(u64, utcq::network::EdgeId, f64, f64)>,
    ranges: Vec<RangeQuery>,
}

fn workload(net: &RoadNetwork, ds: &Dataset, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = Workload {
        wheres: Vec::new(),
        whens: Vec::new(),
        ranges: Vec::new(),
    };
    let bounds = net.bounding_rect();
    for tu in &ds.trajectories {
        let span = tu.times[tu.times.len() - 1] - tu.times[0];
        for _ in 0..2 {
            let t = tu.times[0] + rng.gen_range(0..=span.max(1));
            w.wheres
                .push((tu.id, t, *[0.0, 0.2, 0.5].get(rng.gen_range(0..3)).unwrap()));
        }
        let inst = tu.top_instance();
        let edge = inst.path[rng.gen_range(0..inst.path.len())];
        w.whens.push((tu.id, edge, rng.gen_range(0.1..0.9), 0.2));
        let frac = rng.gen_range(0.15..0.5);
        let rw = bounds.width() * frac;
        let rh = bounds.height() * frac;
        let x = rng.gen_range(bounds.min_x..(bounds.max_x - rw).max(bounds.min_x + 1e-9));
        let y = rng.gen_range(bounds.min_y..(bounds.max_y - rh).max(bounds.min_y + 1e-9));
        w.ranges.push(RangeQuery {
            re: Rect::new(x, y, x + rw, y + rh),
            tq: tu.times[0] + rng.gen_range(0..=span.max(1)),
            alpha: *[0.1, 0.3, 0.6].get(rng.gen_range(0..3)).unwrap(),
        });
    }
    w
}

/// Walks a paginated query to exhaustion with a small page size,
/// returning the concatenated items and asserting page-shape invariants.
fn walk<T: Clone + PartialEq + std::fmt::Debug>(
    mut next: impl FnMut(PageRequest) -> utcq::core::Page<T>,
    limit: usize,
) -> Vec<T> {
    let mut req = PageRequest::first(limit);
    let mut items = Vec::new();
    for _ in 0..10_000 {
        let page = next(req);
        assert!(page.items.len() <= limit.max(1));
        items.extend(page.items);
        match (page.has_more, page.next_cursor) {
            (true, Some(c)) => req = PageRequest::after(c, limit),
            (true, None) => panic!("has_more without a cursor"),
            (false, _) => return items,
        }
    }
    panic!("pagination did not terminate");
}

fn assert_equivalent(single: &Store, sharded: &Store, w: &Workload, label: &str) {
    assert_eq!(single.len(), sharded.len(), "{label}: store sizes");
    // Full answers, byte-identical.
    for &(id, t, alpha) in &w.wheres {
        let a = single
            .where_query(id, t, alpha, PageRequest::all())
            .unwrap()
            .into_items();
        let b = sharded
            .where_query(id, t, alpha, PageRequest::all())
            .unwrap()
            .into_items();
        assert_eq!(a, b, "{label}: where({id}, {t}, {alpha})");
    }
    for &(id, edge, rd, alpha) in &w.whens {
        let a = single
            .when_query(id, edge, rd, alpha, PageRequest::all())
            .unwrap()
            .into_items();
        let b = sharded
            .when_query(id, edge, rd, alpha, PageRequest::all())
            .unwrap()
            .into_items();
        assert_eq!(a, b, "{label}: when({id}, {edge:?}, {rd}, {alpha})");
    }
    for q in &w.ranges {
        let a = single
            .range_query(&q.re, q.tq, q.alpha, PageRequest::all())
            .unwrap()
            .into_items();
        let b = sharded
            .range_query(&q.re, q.tq, q.alpha, PageRequest::all())
            .unwrap()
            .into_items();
        assert_eq!(a, b, "{label}: range({q:?})");
    }
    // Paginated walks yield identical item sequences (cursors may
    // differ in encoding — sharded where/when cursors carry a shard tag;
    // range cursors are keyset ids and identical by construction).
    for &(id, t, alpha) in w.wheres.iter().take(8) {
        for limit in [1, 2] {
            let a = walk(|r| single.where_query(id, t, alpha, r).unwrap(), limit);
            let b = walk(|r| sharded.where_query(id, t, alpha, r).unwrap(), limit);
            assert_eq!(a, b, "{label}: paginated where({id}) limit {limit}");
        }
    }
    for &(id, edge, rd, alpha) in w.whens.iter().take(8) {
        let a = walk(|r| single.when_query(id, edge, rd, alpha, r).unwrap(), 1);
        let b = walk(|r| sharded.when_query(id, edge, rd, alpha, r).unwrap(), 1);
        assert_eq!(a, b, "{label}: paginated when({id})");
    }
    for q in w.ranges.iter().take(8) {
        for limit in [1, 3] {
            let a = walk(
                |r| single.range_query(&q.re, q.tq, q.alpha, r).unwrap(),
                limit,
            );
            let b = walk(
                |r| sharded.range_query(&q.re, q.tq, q.alpha, r).unwrap(),
                limit,
            );
            assert_eq!(a, b, "{label}: paginated range limit {limit}");
        }
    }
}

#[test]
fn sharded_matches_single_for_all_counts_and_policies() {
    let (net, ds) = setup(20_260_729, 28);
    let single = single_store(&net, &ds);
    let w = workload(&net, &ds, 99);
    let container = |store: &Store| {
        let mut bytes = Vec::new();
        store.write(&mut bytes).unwrap();
        bytes
    };
    assert_eq!(container(&single)[4], 7, "a plain store writes v7");
    for n_shards in [1u32, 2, 4, 7] {
        for (pname, policy) in [
            (
                "time",
                Arc::new(ByTime { interval_s: 1800 }) as Arc<dyn ShardPolicy>,
            ),
            ("region", Arc::new(ByRegion { grid_n: 4 })),
        ] {
            let sharded = sharded_store(&net, &ds, policy, n_shards);
            // Trajectories actually spread across partitions (the point
            // of the exercise) unless the policy degenerates.
            let occupied = sharded.snapshots().iter().filter(|s| !s.is_empty()).count();
            assert!(
                occupied >= 2.min(n_shards as usize),
                "{pname}/{n_shards}: all trajectories on one shard"
            );
            assert_eq!(container(&sharded)[4], 3, "a routing policy writes v3");
            assert_equivalent(&single, &sharded, &w, &format!("{pname}/{n_shards}"));
            if n_shards == 1 {
                // One partition: the pages themselves, cursors included.
                for &(id, t, alpha) in w.wheres.iter().take(8) {
                    let page = |s: &Store| s.where_query(id, t, alpha, PageRequest::first(1));
                    assert_eq!(page(&single).unwrap(), page(&sharded).unwrap());
                }
            }
        }
    }
}

#[test]
fn v3_roundtrip_preserves_answers() {
    let (net, ds) = setup(4242, 20);
    let single = single_store(&net, &ds);
    let w = workload(&net, &ds, 7);
    let sharded = sharded_store(&net, &ds, Arc::new(ByTime { interval_s: 900 }), 4);
    let dir = std::env::temp_dir().join("utcq-shard-equivalence.utcq");
    sharded.save(&dir).unwrap();
    let reopened = Store::open(&dir).unwrap();
    std::fs::remove_file(&dir).ok();
    assert_eq!(reopened.shard_count(), 4);
    assert_equivalent(&single, &reopened, &w, "reopened v3");

    // Options are set once, on the `StoreBuilder`, and `shard_by` hands
    // them over: the cache budget to the store's one cache (whole, not
    // split across partitions), the StIU parameters and the name (the
    // batch carries another one) to every shard — the latter two through
    // the v3 bytes as well.
    let (n, budget) = (3usize, 10_000_001usize);
    let params = StiuParams {
        partition_s: 600,
        grid_n: 5,
    };
    let configured = StoreBuilder::new(
        Arc::new(net.clone()),
        CompressParams::with_interval(ds.default_interval),
    )
    .cache_bytes(budget)
    .stiu_params(params)
    .name("handed-over")
    .shard_by(Arc::new(ByTime { interval_s: 900 }), n as u32)
    .unwrap()
    .ingest(&ds)
    .unwrap()
    .finish()
    .unwrap();
    assert_ne!(ds.name, "handed-over");
    assert_eq!(configured.cache_stats().budget_bytes, budget);
    let mut bytes = Vec::new();
    configured.write(&mut bytes).unwrap();
    let reopened = Store::read(&mut bytes.as_slice()).unwrap();
    for store in [&configured, &reopened] {
        assert_eq!(store.info().name, "handed-over");
        for snap in store.snapshots() {
            assert_eq!(snap.stiu().params, params);
            assert_eq!(snap.compressed().name, "handed-over");
        }
    }
}

#[test]
fn par_range_matches_sequential_on_shards() {
    let (net, ds) = setup(777, 24);
    let single = single_store(&net, &ds);
    let sharded = sharded_store(&net, &ds, Arc::new(ByRegion { grid_n: 8 }), 4);
    let w = workload(&net, &ds, 3);
    let par = sharded.par_range_query(&w.ranges).unwrap();
    assert_eq!(par.len(), w.ranges.len());
    for (q, got) in w.ranges.iter().zip(&par) {
        let want = single
            .range_query(&q.re, q.tq, q.alpha, PageRequest::all())
            .unwrap()
            .into_items();
        assert_eq!(got, &want, "par range {q:?}");
    }
}

/// The range overhaul (interval bitmaps, probability pruning, the
/// epoch-keyed range-result cache, the sharded batch engine) is pure
/// acceleration: cold scans, cache-served repeats, and paginated walks
/// sliced out of a cached full result must all return byte-identical
/// answers — across the single store, the sharded store, and every
/// container version (v1 dataset-only, v5 single, v3 sharded).
#[test]
fn range_answers_identical_cold_cached_and_across_versions() {
    let (net, ds) = setup(90_210, 26);
    let single = single_store(&net, &ds);
    let sharded = sharded_store(&net, &ds, Arc::new(ByTime { interval_s: 900 }), 3);

    // v1: dataset-only container, network supplied out of band as
    // `utcq migrate` takes it.
    let mut v1_bytes = Vec::new();
    utcq_legacy::container::save_v1(single.snapshots()[0].compressed(), &mut v1_bytes).unwrap();
    let v1 = utcq_legacy::open(&v1_bytes, || (net.clone(), STIU)).unwrap();
    // v5/v3: self-contained roundtrips through container bytes.
    let mut v5_bytes = Vec::new();
    single.write(&mut v5_bytes).unwrap();
    let v5 = Store::read(&mut v5_bytes.as_slice()).unwrap();
    let mut v3_bytes = Vec::new();
    sharded.write(&mut v3_bytes).unwrap();
    let v3 = Store::read(&mut v3_bytes.as_slice()).unwrap();

    let mut w = workload(&net, &ds, 55);
    // Adversarial α values ride along: α = 0 (everything with support
    // qualifies) and α = 1 (only certainty qualifies).
    let bounds = net.bounding_rect();
    let tq0 = ds.trajectories[0].times[0];
    for alpha in [0.0, 1.0] {
        w.ranges.push(RangeQuery {
            re: bounds,
            tq: tq0,
            alpha,
        });
    }

    let targets: Vec<(&str, &dyn QueryTarget)> =
        vec![("v1", &v1), ("v5", &v5), ("v3", &v3), ("sharded", &sharded)];
    for q in &w.ranges {
        single.clear_cache();
        let cold = single
            .range_query(&q.re, q.tq, q.alpha, PageRequest::all())
            .unwrap()
            .into_items();
        // The repeat is served by the epoch-keyed range-result cache.
        let cached = single
            .range_query(&q.re, q.tq, q.alpha, PageRequest::all())
            .unwrap()
            .into_items();
        assert_eq!(cold, cached, "cold vs cached range({q:?})");
        for (label, t) in &targets {
            let got = t
                .range_query(&q.re, q.tq, q.alpha, PageRequest::all())
                .unwrap()
                .into_items();
            assert_eq!(cold, got, "{label}: range({q:?})");
        }
    }
    // Paginated walks: a cold walk (cache cleared before every page)
    // and a warm walk (pages sliced from the cached full result) must
    // produce the same item sequence, on every shape.
    for q in w.ranges.iter().take(10) {
        for limit in [1, 3] {
            single.clear_cache();
            let cold_walk = walk(
                |r| {
                    single.clear_cache();
                    single.range_query(&q.re, q.tq, q.alpha, r).unwrap()
                },
                limit,
            );
            single.clear_cache();
            single
                .range_query(&q.re, q.tq, q.alpha, PageRequest::all())
                .unwrap();
            let warm_walk = walk(
                |r| single.range_query(&q.re, q.tq, q.alpha, r).unwrap(),
                limit,
            );
            assert_eq!(
                cold_walk, warm_walk,
                "cold vs cache-sliced range walk({q:?}) limit {limit}"
            );
            for (label, t) in &targets {
                let got = walk(|r| t.range_query(&q.re, q.tq, q.alpha, r).unwrap(), limit);
                assert_eq!(
                    cold_walk, got,
                    "{label}: paginated range({q:?}) limit {limit}"
                );
            }
        }
    }
    // The batch engine agrees with all of the above on the same batch.
    let par_single = single.par_range_query(&w.ranges).unwrap();
    let par_sharded = sharded.par_range_query(&w.ranges).unwrap();
    let par_v3 = v3.par_range_query(&w.ranges).unwrap();
    for (i, q) in w.ranges.iter().enumerate() {
        let want = single
            .range_query(&q.re, q.tq, q.alpha, PageRequest::all())
            .unwrap()
            .into_items();
        assert_eq!(par_single[i], want, "par single range({q:?})");
        assert_eq!(par_sharded[i], want, "par sharded range({q:?})");
        assert_eq!(par_v3[i], want, "par v3 range({q:?})");
    }
}

#[test]
fn query_target_is_polymorphic_over_both_shapes() {
    let (net, ds) = setup(11, 12);
    let single = single_store(&net, &ds);
    let sharded = sharded_store(&net, &ds, Arc::new(ByTime::default()), 3);
    let targets: Vec<&dyn QueryTarget> = vec![&single, &sharded];
    let tu = &ds.trajectories[0];
    let mid = (tu.times[0] + tu.times[tu.times.len() - 1]) / 2;
    let mut answers = Vec::new();
    for t in &targets {
        assert_eq!(t.len(), ds.trajectories.len());
        answers.push(
            t.where_query(tu.id, mid, 0.0, PageRequest::all())
                .unwrap()
                .into_items(),
        );
        // The cache layer is reachable through the trait too.
        t.set_cache_bytes(1 << 20);
        t.clear_cache();
        assert_eq!(t.cache_stats().entries, 0);
    }
    assert_eq!(answers[0], answers[1]);
}

//! The decode cache is a pure memoization layer: cache-enabled,
//! cache-disabled, eviction-thrashed, and concurrent query paths must all
//! return byte-identical answers on randomized stores — with one
//! partition, and with several partitions sharing the store's one cache.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use utcq::core::query::PageRequest;
use utcq::core::shard::ByTime;
use utcq::core::stiu::StiuParams;
use utcq::core::{CompressParams, QueryTarget, RangeQuery, Store, StoreBuilder};
use utcq::network::{Rect, RoadNetwork};
use utcq::traj::Dataset;

/// The store shapes every case runs on: one partition without a routing
/// policy, and three `ByTime` partitions (`Some(3)`).
const SHAPES: [Option<u32>; 2] = [None, Some(3)];

fn setup(seed: u64, n: usize) -> (RoadNetwork, Dataset) {
    let profile = utcq::datagen::profile::tiny();
    let (net, ds) = utcq::datagen::generate(&profile, n, seed);
    (net, ds)
}

fn build_store(net: &RoadNetwork, ds: &Dataset, shape: Option<u32>, cache_bytes: usize) -> Store {
    let mut builder = StoreBuilder::new(
        Arc::new(net.clone()),
        CompressParams::with_interval(ds.default_interval),
    )
    .stiu_params(StiuParams {
        partition_s: 900,
        grid_n: 8,
    })
    .cache_bytes(cache_bytes);
    if let Some(n) = shape {
        let policy = Arc::new(ByTime { interval_s: 900 });
        builder = builder.shard_by(policy, n).unwrap();
    }
    let store = builder.ingest(ds).unwrap().finish().unwrap();
    assert_eq!(store.shard_count(), shape.map_or(1, |n| n as usize));
    store
}

/// A deterministic mixed workload: per trajectory a few where/when
/// probes, plus range queries over sliding rectangles.
type WhereProbe = (u64, i64, f64);
type WhenProbe = (u64, utcq::network::EdgeId, f64, f64);
type Answers = (
    Vec<Vec<utcq::core::WhereHit>>,
    Vec<Vec<utcq::core::WhenHit>>,
    Vec<Vec<u64>>,
);

fn workload(
    net: &RoadNetwork,
    ds: &Dataset,
    rng: &mut StdRng,
) -> (Vec<WhereProbe>, Vec<WhenProbe>, Vec<RangeQuery>) {
    let mut wheres = Vec::new();
    let mut whens = Vec::new();
    let mut ranges = Vec::new();
    let bounds = net.bounding_rect();
    for tu in &ds.trajectories {
        let span = tu.times[tu.times.len() - 1] - tu.times[0];
        for _ in 0..3 {
            let t = tu.times[0] + rng.gen_range(0..=span.max(1));
            wheres.push((tu.id, t, *[0.0, 0.2, 0.5].get(rng.gen_range(0..3)).unwrap()));
        }
        let inst = tu.top_instance();
        for _ in 0..2 {
            let edge = inst.path[rng.gen_range(0..inst.path.len())];
            whens.push((tu.id, edge, rng.gen_range(0.1..0.9), 0.2));
        }
        let frac = rng.gen_range(0.1..0.4);
        let w = bounds.width() * frac;
        let h = bounds.height() * frac;
        let x = rng.gen_range(bounds.min_x..(bounds.max_x - w).max(bounds.min_x + 1e-9));
        let y = rng.gen_range(bounds.min_y..(bounds.max_y - h).max(bounds.min_y + 1e-9));
        ranges.push(RangeQuery {
            re: Rect::new(x, y, x + w, y + h),
            tq: tu.times[0] + rng.gen_range(0..=span.max(1)),
            alpha: *[0.1, 0.3, 0.6].get(rng.gen_range(0..3)).unwrap(),
        });
    }
    (wheres, whens, ranges)
}

/// Runs the whole workload on a store, twice (so the second round runs
/// against a warm cache), returning every answer.
fn answers(
    store: &dyn QueryTarget,
    wheres: &[WhereProbe],
    whens: &[WhenProbe],
    ranges: &[RangeQuery],
) -> Answers {
    let mut w_hits = Vec::new();
    let mut n_hits = Vec::new();
    let mut r_hits = Vec::new();
    for _round in 0..2 {
        w_hits.clear();
        n_hits.clear();
        r_hits.clear();
        for &(id, t, alpha) in wheres {
            w_hits.push(
                store
                    .where_query(id, t, alpha, PageRequest::all())
                    .unwrap()
                    .into_items(),
            );
        }
        for &(id, edge, rd, alpha) in whens {
            n_hits.push(
                store
                    .when_query(id, edge, rd, alpha, PageRequest::all())
                    .unwrap()
                    .into_items(),
            );
        }
        for q in ranges {
            r_hits.push(
                store
                    .range_query(&q.re, q.tq, q.alpha, PageRequest::all())
                    .unwrap()
                    .into_items(),
            );
        }
    }
    (w_hits, n_hits, r_hits)
}

#[test]
fn cached_and_uncached_stores_answer_identically() {
    for (seed, shape) in [11, 47].into_iter().flat_map(|s| SHAPES.map(|sh| (s, sh))) {
        let (net, ds) = setup(seed, 12);
        let cached = build_store(&net, &ds, shape, utcq::core::DEFAULT_CACHE_BYTES);
        let uncached = build_store(&net, &ds, shape, 0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let (wq, nq, rq) = workload(&net, &ds, &mut rng);

        let a = answers(&cached, &wq, &nq, &rq);
        let b = answers(&uncached, &wq, &nq, &rq);
        assert_eq!(
            a, b,
            "seed {seed}, {shape:?}: cache on/off answers diverged"
        );

        let sc = cached.cache_stats();
        assert!(sc.hits > 0, "warm rounds should hit: {sc:?}");
        let su = uncached.cache_stats();
        assert_eq!(
            (su.hits, su.misses, su.entries),
            (0, 0, 0),
            "disabled cache must not populate: {su:?}"
        );
    }
}

/// A `when` probe on a cell the trajectory never enters: the point at
/// `rd` on `edge` lies more than two grid-cell diagonals (of the index's
/// `grid_n = 8` grid) from every edge of every instance, so no instance
/// path crosses its cell.
fn region_miss(net: &RoadNetwork, ds: &Dataset) -> Option<WhenProbe> {
    let bounds = net.bounding_rect();
    let clear = 2.0 * bounds.width().hypot(bounds.height()) / 8.0;
    let rd = 0.5;
    ds.trajectories.iter().find_map(|tu| {
        let far = |e: utcq::network::EdgeId| {
            let p = net.point_on_edge(e, rd * net.edge_length(e));
            let paths = tu.instances.iter().flat_map(|inst| &inst.path);
            paths.copied().all(|on| {
                let (a, b) = (net.coord(net.edge_from(on)), net.coord(net.edge_to(on)));
                utcq::network::geom::project_to_segment(p, a, b).0.sqrt() > clear
            })
        };
        net.edges().find(|&e| far(e)).map(|e| (tu.id, e, rd, 0.0))
    })
}

/// A region-miss `when` is answered from the index alone: an empty
/// page, with the cache on and off, that neither decodes (no miss) nor
/// stores anything, on the first call and on a repeat.
#[test]
fn region_miss_when_is_answered_from_the_index() {
    for shape in SHAPES {
        let (net, ds) = setup(11, 12);
        let (id, edge, rd, alpha) = region_miss(&net, &ds).expect("a region-miss probe");
        for cache_bytes in [utcq::core::DEFAULT_CACHE_BYTES, 0] {
            let store = build_store(&net, &ds, shape, cache_bytes);
            for call in 0..2 {
                let page = store
                    .when_query(id, edge, rd, alpha, PageRequest::all())
                    .unwrap();
                assert!(page.items.is_empty() && !page.has_more, "{shape:?} {call}");
                let s = store.cache_stats();
                assert_eq!(
                    (s.hits, s.misses, s.entries),
                    (0, 0, 0),
                    "{shape:?}, {cache_bytes} B, call {call}"
                );
            }
        }
    }
}

#[test]
fn tiny_budget_evicts_but_stays_correct() {
    for shape in SHAPES {
        let (net, ds) = setup(29, 10);
        let reference = build_store(&net, &ds, shape, 0);
        // About 1 KiB per shard — room for only a few entries, so the
        // working set keeps thrashing in and out. Every partition's
        // entries compete for the one budget.
        let tiny = utcq::core::cache::SHARD_COUNT * 1024;
        let thrashed = build_store(&net, &ds, shape, tiny);
        let mut rng = StdRng::seed_from_u64(0xCAFE);
        let (wq, nq, rq) = workload(&net, &ds, &mut rng);

        let a = answers(&thrashed, &wq, &nq, &rq);
        let b = answers(&reference, &wq, &nq, &rq);
        assert_eq!(a, b, "{shape:?}: eviction-thrashed answers diverged");
        let s = thrashed.cache_stats();
        assert_eq!(s.budget_bytes, tiny, "{shape:?}: the whole budget, once");
        assert!(
            s.evictions > 0,
            "budget was tiny, expected evictions: {s:?}"
        );
        assert!(
            s.bytes <= thrashed.cache_bytes(),
            "resident bytes over budget: {s:?}"
        );
    }
}

#[test]
fn shrinking_budget_at_runtime_keeps_answers() {
    for shape in SHAPES {
        let (net, ds) = setup(61, 8);
        let store = build_store(&net, &ds, shape, utcq::core::DEFAULT_CACHE_BYTES);
        let mut rng = StdRng::seed_from_u64(7);
        let (wq, nq, rq) = workload(&net, &ds, &mut rng);
        let warm = answers(&store, &wq, &nq, &rq);
        store.set_cache_bytes(2048); // evicts most of the working set in place
        let small = answers(&store, &wq, &nq, &rq);
        assert!(store.cache_stats().bytes <= 2048, "{shape:?}");
        store.set_cache_bytes(0); // disables caching entirely
        let off = answers(&store, &wq, &nq, &rq);
        assert_eq!(store.cache_stats().entries, 0, "{shape:?}");
        assert_eq!(warm, small, "{shape:?}");
        assert_eq!(warm, off, "{shape:?}");
    }
}

#[test]
fn concurrent_queries_agree_with_sequential() {
    for shape in SHAPES {
        concurrent_queries_agree_on(shape);
    }
}

fn concurrent_queries_agree_on(shape: Option<u32>) {
    let (net, ds) = setup(83, 10);
    let store = Arc::new(build_store(
        &net,
        &ds,
        shape,
        utcq::core::DEFAULT_CACHE_BYTES,
    ));
    let mut rng = StdRng::seed_from_u64(99);
    let (wq, nq, rq) = workload(&net, &ds, &mut rng);

    // Sequential ground truth on an identical, separately built store.
    let solo = build_store(&net, &ds, shape, utcq::core::DEFAULT_CACHE_BYTES);
    let want = answers(&solo, &wq, &nq, &rq);

    // Hammer one shared store from many threads, all query types at once.
    let mut handles = Vec::new();
    for t in 0..6 {
        let store = Arc::clone(&store);
        let wq = wq.clone();
        let nq = nq.clone();
        let rq = rq.clone();
        handles.push(std::thread::spawn(move || {
            // Stagger starting offsets so threads collide on different keys.
            let rot = t * 5;
            let wq: Vec<_> = wq[rot..].iter().chain(&wq[..rot]).copied().collect();
            let (w, n, r) = answers(&*store, &wq, &nq, &rq);
            // Undo the rotation for comparison.
            let unrot = wq.len() - rot;
            let w: Vec<_> = w[unrot..].iter().chain(&w[..unrot]).cloned().collect();
            (w, n, r)
        }));
    }
    for h in handles {
        let got = h.join().unwrap();
        assert_eq!(got, want, "{shape:?}: concurrent answers diverged");
    }

    // The batched parallel range path agrees with one-at-a-time pages.
    let par = store.par_range_query(&rq).unwrap();
    assert_eq!(par, want.2, "{shape:?}: par_range_query diverged");
}

/// One epoch queried through the one cache of a partitioned store, on
/// the store and on a pinned snapshot of it. Where and when queries
/// interleave so that every partition asks for the same positions in
/// turn — a position names a trajectory only within its partition — so
/// only the partition in each cache key keeps the entries apart; range
/// shapes interleave with them. The truth is the same store built with
/// caching off.
#[test]
fn pinned_partitions_and_the_whole_store_share_one_cache() {
    let (net, ds) = setup(37, 18);
    let cached = build_store(&net, &ds, Some(3), utcq::core::DEFAULT_CACHE_BYTES);
    let truth = build_store(&net, &ds, Some(3), 0);
    let pinned = cached.snapshot();
    let by_id: HashMap<u64, _> = ds.trajectories.iter().map(|tu| (tu.id, tu)).collect();
    // Each partition's trajectory ids in position order.
    let ids: Vec<Vec<u64>> = (pinned.partitions().iter())
        .map(|part| {
            part.compressed()
                .trajectories
                .iter()
                .map(|ct| ct.id)
                .collect()
        })
        .collect();
    assert!(
        ids.iter().all(|p| p.len() >= 2),
        "every partition holds some"
    );
    let longest = ids.iter().map(Vec::len).max().unwrap_or(0);
    let bounds = net.bounding_rect();
    let (x, y) = (bounds.min_x, bounds.min_y);
    let (w, h) = (bounds.width(), bounds.height());
    let shapes: Vec<(Rect, i64, f64)> = (ds.trajectories.iter().step_by(3))
        .flat_map(|tu| {
            let tq = tu.times[tu.times.len() / 2];
            [
                (bounds, tq, 0.1),
                (Rect::new(x, y, x + w / 2.0, y + h / 2.0), tq, 0.0),
            ]
        })
        .collect();
    for _round in 0..2 {
        for j in 0..longest {
            for (p, part_ids) in ids.iter().enumerate() {
                let Some(&id) = part_ids.get(j) else {
                    continue;
                };
                let tu = by_id[&id];
                let t = tu.times[tu.times.len() / 2];
                let edge = tu.top_instance().path[0];
                let (re, tq, alpha) = shapes[j % shapes.len()];
                for target in [&*pinned as &dyn QueryTarget, &cached] {
                    let got = target.where_query(id, t, 0.0, PageRequest::all());
                    let expect = truth.where_query(id, t, 0.0, PageRequest::all());
                    assert_eq!(got.unwrap(), expect.unwrap(), "where {id} at {p}/{j}");
                    let got = target.when_query(id, edge, 0.5, 0.0, PageRequest::all());
                    let expect = truth.when_query(id, edge, 0.5, 0.0, PageRequest::all());
                    assert_eq!(got.unwrap(), expect.unwrap(), "when {id} at {p}/{j}");
                    let got = target.range_query(&re, tq, alpha, PageRequest::all());
                    let expect = truth.range_query(&re, tq, alpha, PageRequest::all());
                    assert_eq!(got.unwrap(), expect.unwrap(), "range after {id}");
                }
            }
        }
    }
    let s = cached.cache_stats();
    assert!(s.hits > 0 && s.entries > 0, "{s:?}");
    assert_eq!(
        s,
        pinned.cache_stats(),
        "a pinned snapshot reads the store's cache"
    );
}

/// A store only appends, so what a reader decoded before a publish
/// serves every reader after it: the warmed workload, rerun on the store
/// and on a snapshot pinned before the publish, adds hits and no miss.
/// The batch reaches every partition and starts a day after the base
/// trajectories end (a day is a whole number of routing rounds), so no
/// rerun query needs one of its trajectories decoded. The truth is the
/// same batches built with caching off.
#[test]
fn entries_survive_a_publish() {
    const DAY_S: i64 = 86_400;
    for shape in SHAPES {
        let (net, mut base) = setup(53, 24);
        let mut batch = base.clone();
        batch.trajectories = base.trajectories.split_off(12);
        for tu in &mut batch.trajectories {
            tu.times.iter_mut().for_each(|t| *t += DAY_S);
        }
        let base_end = base
            .trajectories
            .iter()
            .map(|tu| tu.times[tu.times.len() - 1]);
        let batch_start = batch.trajectories.iter().map(|tu| tu.times[0]);
        assert!(
            base_end.max() < batch_start.min(),
            "the batch follows the base"
        );
        let n = shape.unwrap_or(1);
        let policy = ByTime { interval_s: 900 };
        let routes: std::collections::BTreeSet<u32> = (batch.trajectories.iter())
            .map(|tu| utcq::core::ShardPolicy::route(&policy, &net, tu, n))
            .collect();
        assert_eq!(
            routes.len(),
            n as usize,
            "{shape:?}: the batch reaches every partition"
        );

        let store = build_store(&net, &base, shape, utcq::core::DEFAULT_CACHE_BYTES);
        let truth_base = build_store(&net, &base, shape, 0);
        let truth_all = build_store(&net, &base, shape, 0);
        truth_all.ingest(&batch).unwrap();
        let mut rng = StdRng::seed_from_u64(0xB0A7);
        let (wq, nq, rq) = workload(&net, &base, &mut rng);
        let warm = answers(&store, &wq, &nq, &rq);
        assert_eq!(warm, answers(&truth_base, &wq, &nq, &rq), "{shape:?}: warm");

        let pinned = store.snapshot();
        let report = store.ingest(&batch).unwrap();
        assert_eq!((report.ingested, report.epoch), (12, 1), "{shape:?}");
        let before = store.cache_stats();
        let after_publish = answers(&store, &wq, &nq, &rq);
        let on_pin = answers(&*pinned, &wq, &nq, &rq);
        assert_eq!(
            after_publish,
            answers(&truth_all, &wq, &nq, &rq),
            "{shape:?}: store"
        );
        assert_eq!(on_pin, warm, "{shape:?}: pin");
        let after = store.cache_stats();
        assert!(
            after.hits > before.hits,
            "{shape:?}: {before:?} -> {after:?}"
        );
        assert_eq!(
            after.misses, before.misses,
            "{shape:?}: a rerun decoded again"
        );
    }
}

#[test]
fn par_range_query_handles_skewed_batches() {
    let (net, ds) = setup(17, 10);
    let store = build_store(&net, &ds, None, utcq::core::DEFAULT_CACHE_BYTES);
    let bounds = net.bounding_rect();
    // Heavily skewed: one whole-network query amid many empty ones, far
    // more queries than cores — exercises the atomic work queue.
    let mut queries = Vec::new();
    for i in 0..97 {
        let tu = &ds.trajectories[i % ds.trajectories.len()];
        let re = if i == 13 {
            bounds
        } else {
            Rect::new(
                bounds.max_x + 10.0 + i as f64,
                bounds.max_y + 10.0,
                bounds.max_x + 11.0 + i as f64,
                bounds.max_y + 11.0,
            )
        };
        queries.push(RangeQuery {
            re,
            tq: tu.times[0],
            alpha: 0.2,
        });
    }
    let par = store.par_range_query(&queries).unwrap();
    assert_eq!(par.len(), queries.len());
    for (q, got) in queries.iter().zip(&par) {
        let want = store
            .range_query(&q.re, q.tq, q.alpha, PageRequest::all())
            .unwrap()
            .into_items();
        assert_eq!(got, &want);
    }
}

//! The decode cache is a pure memoization layer: cache-enabled,
//! cache-disabled, eviction-thrashed, and concurrent query paths must all
//! return byte-identical answers on randomized stores.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use utcq::core::query::PageRequest;
use utcq::core::stiu::StiuParams;
use utcq::core::{CompressParams, QueryTarget, RangeQuery, Store, StoreBuilder};
use utcq::network::{Rect, RoadNetwork};
use utcq::traj::Dataset;

fn setup(seed: u64, n: usize) -> (RoadNetwork, Dataset) {
    let profile = utcq::datagen::profile::tiny();
    let (net, ds) = utcq::datagen::generate(&profile, n, seed);
    (net, ds)
}

fn build_store(net: &RoadNetwork, ds: &Dataset, cache_bytes: usize) -> Store {
    StoreBuilder::new(
        Arc::new(net.clone()),
        CompressParams::with_interval(ds.default_interval),
    )
    .stiu_params(StiuParams {
        partition_s: 900,
        grid_n: 8,
    })
    .cache_bytes(cache_bytes)
    .ingest(ds)
    .unwrap()
    .finish()
    .unwrap()
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
    store: &Store,
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
    for seed in [11, 47] {
        let (net, ds) = setup(seed, 12);
        let cached = build_store(&net, &ds, utcq::core::DEFAULT_CACHE_BYTES);
        let uncached = build_store(&net, &ds, 0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let (wq, nq, rq) = workload(&net, &ds, &mut rng);

        let a = answers(&cached, &wq, &nq, &rq);
        let b = answers(&uncached, &wq, &nq, &rq);
        assert_eq!(a, b, "seed {seed}: cache on/off answers diverged");

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

#[test]
fn tiny_budget_evicts_but_stays_correct() {
    let (net, ds) = setup(29, 10);
    let reference = build_store(&net, &ds, 0);
    // About 1 KiB per shard — room for only a few entries, so the
    // working set keeps thrashing in and out.
    let thrashed = build_store(&net, &ds, utcq::core::cache::SHARD_COUNT * 1024);
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let (wq, nq, rq) = workload(&net, &ds, &mut rng);

    let a = answers(&thrashed, &wq, &nq, &rq);
    let b = answers(&reference, &wq, &nq, &rq);
    assert_eq!(a, b, "eviction-thrashed answers diverged");
    let s = thrashed.cache_stats();
    assert!(
        s.evictions > 0,
        "budget was tiny, expected evictions: {s:?}"
    );
    assert!(
        s.bytes <= thrashed.cache_bytes(),
        "resident bytes over budget: {s:?}"
    );
}

#[test]
fn shrinking_budget_at_runtime_keeps_answers() {
    let (net, ds) = setup(61, 8);
    let store = build_store(&net, &ds, utcq::core::DEFAULT_CACHE_BYTES);
    let mut rng = StdRng::seed_from_u64(7);
    let (wq, nq, rq) = workload(&net, &ds, &mut rng);
    let warm = answers(&store, &wq, &nq, &rq);
    store.set_cache_bytes(2048); // evicts most of the working set in place
    let small = answers(&store, &wq, &nq, &rq);
    store.set_cache_bytes(0); // disables caching entirely
    let off = answers(&store, &wq, &nq, &rq);
    assert_eq!(warm, small);
    assert_eq!(warm, off);
}

#[test]
fn concurrent_queries_agree_with_sequential() {
    let (net, ds) = setup(83, 10);
    let store = Arc::new(build_store(&net, &ds, utcq::core::DEFAULT_CACHE_BYTES));
    let mut rng = StdRng::seed_from_u64(99);
    let (wq, nq, rq) = workload(&net, &ds, &mut rng);

    // Sequential ground truth on an identical, separately built store.
    let solo = build_store(&net, &ds, utcq::core::DEFAULT_CACHE_BYTES);
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
            let (w, n, r) = answers(&store, &wq, &nq, &rq);
            // Undo the rotation for comparison.
            let unrot = wq.len() - rot;
            let w: Vec<_> = w[unrot..].iter().chain(&w[..unrot]).cloned().collect();
            (w, n, r)
        }));
    }
    for h in handles {
        let got = h.join().unwrap();
        assert_eq!(got, want, "concurrent answers diverged from sequential");
    }

    // The batched parallel range path agrees with one-at-a-time pages.
    let par = store.par_range_query(&rq).unwrap();
    assert_eq!(par, want.2, "par_range_query diverged");
}

#[test]
fn par_range_query_handles_skewed_batches() {
    let (net, ds) = setup(17, 10);
    let store = build_store(&net, &ds, utcq::core::DEFAULT_CACHE_BYTES);
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

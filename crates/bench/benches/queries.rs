//! Query benchmarks: UTCQ vs TED on the three probabilistic query types
//! (the kernels behind Figs. 9–10 and 12c/d), plus cold- vs warm-cache
//! variants exercising the store's shared decode cache.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use utcq_bench::{datasets, workload};
use utcq_core::query::PageRequest;
use utcq_core::stiu::StiuParams;
use utcq_core::{QueryTarget, Store};
use utcq_ted::{TedStore, TedStoreParams};

fn bench_queries(c: &mut Criterion) {
    let profile = utcq_datagen::profile::cd();
    let built = datasets::build_n(&profile, 80, 3000);
    let params = datasets::paper_params(&profile);
    let store = Store::build(
        Arc::new(built.net.clone()),
        &built.ds,
        params,
        StiuParams {
            partition_s: 900,
            grid_n: 32,
        },
    )
    .unwrap();
    let tstore = TedStore::build(
        &built.net,
        &built.ds,
        datasets::paper_ted_params(&profile),
        TedStoreParams {
            partition_s: 900,
            grid_n: 32,
        },
    )
    .unwrap();

    let wq = workload::where_queries(&built.ds, 64, 301);
    // Cold: every iteration starts from an empty decode cache and
    // re-pays every reference/instance/time-stream decode.
    c.bench_function("where/utcq_64q_cold", |b| {
        b.iter(|| {
            store.clear_cache();
            for q in &wq {
                black_box(
                    store
                        .where_query(q.traj_id, q.t, q.alpha, PageRequest::all())
                        .unwrap(),
                );
            }
        })
    });
    // Warm: the cache holds the workload's decoded working set.
    c.bench_function("where/utcq_64q_warm", |b| {
        b.iter(|| {
            for q in &wq {
                black_box(
                    store
                        .where_query(q.traj_id, q.t, q.alpha, PageRequest::all())
                        .unwrap(),
                );
            }
        })
    });
    c.bench_function("where/ted_64q", |b| {
        b.iter(|| {
            for q in &wq {
                black_box(tstore.where_query(q.traj_id, q.t, q.alpha).unwrap());
            }
        })
    });

    let nq = workload::when_queries(&built.ds, 64, 302);
    c.bench_function("when/utcq_64q_cold", |b| {
        b.iter(|| {
            store.clear_cache();
            for q in &nq {
                black_box(
                    store
                        .when_query(q.traj_id, q.edge, q.rd, q.alpha, PageRequest::all())
                        .unwrap(),
                );
            }
        })
    });
    c.bench_function("when/utcq_64q_warm", |b| {
        b.iter(|| {
            for q in &nq {
                black_box(
                    store
                        .when_query(q.traj_id, q.edge, q.rd, q.alpha, PageRequest::all())
                        .unwrap(),
                );
            }
        })
    });
    c.bench_function("when/ted_64q", |b| {
        b.iter(|| {
            for q in &nq {
                black_box(tstore.when_query(q.traj_id, q.edge, q.rd, q.alpha).unwrap());
            }
        })
    });

    let rq = workload::range_queries(&built.net, &built.ds, 32, 303);
    c.bench_function("range/utcq_32q_cold", |b| {
        b.iter(|| {
            store.clear_cache();
            for q in &rq {
                black_box(
                    store
                        .range_query(&q.re, q.tq, q.alpha, PageRequest::all())
                        .unwrap(),
                );
            }
        })
    });
    c.bench_function("range/utcq_32q_warm", |b| {
        b.iter(|| {
            for q in &rq {
                black_box(
                    store
                        .range_query(&q.re, q.tq, q.alpha, PageRequest::all())
                        .unwrap(),
                );
            }
        })
    });
    c.bench_function("range/ted_32q", |b| {
        b.iter(|| {
            for q in &rq {
                black_box(tstore.range_query(&q.re, q.tq, q.alpha).unwrap());
            }
        })
    });

    // The batched parallel path: a skewed mix (some region-sized, some
    // tiny) exercising the atomic-counter work queue.
    let batch: Vec<utcq_core::RangeQuery> = rq
        .iter()
        .map(|q| utcq_core::RangeQuery {
            re: q.re,
            tq: q.tq,
            alpha: q.alpha,
        })
        .collect();
    c.bench_function("range/utcq_par_batch32", |b| {
        b.iter(|| black_box(store.par_range_query(&batch).unwrap()))
    });
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);

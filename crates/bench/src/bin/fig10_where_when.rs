//! Figure 10: probabilistic where & when query time, UTCQ vs TED, on all
//! three datasets.
//!
//! Run: `cargo run --release -p utcq-bench --bin fig10_where_when`

use std::sync::Arc;
use utcq_bench::measure::fmt_duration;
use utcq_bench::report::Table;
use utcq_bench::{build, datasets, timed, workload};
use utcq_core::query::{PageRequest, QueryTarget};
use utcq_core::stiu::StiuParams;
use utcq_core::Store;
use utcq_ted::{TedStore, TedStoreParams};

fn main() {
    let n_queries = 300;
    let mut table = Table::new(
        "Fig. 10 — where/when query time (paper: UTCQ faster on both; batch totals below)",
        &["dataset", "query", "UTCQ", "TED", "speedup"],
    );
    for (i, profile) in datasets::paper_profiles().iter().enumerate() {
        let built = build(profile, 1000 + i as u64);
        let params = datasets::paper_params(profile);
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
            datasets::paper_ted_params(profile),
            TedStoreParams {
                partition_s: 900,
                grid_n: 32,
            },
        )
        .unwrap();

        let wq = workload::where_queries(&built.ds, n_queries, 101);
        let (_, u) = timed(|| {
            for q in &wq {
                let _ = store
                    .where_query(q.traj_id, q.t, q.alpha, PageRequest::all())
                    .unwrap();
            }
        });
        let (_, t) = timed(|| {
            for q in &wq {
                let _ = tstore.where_query(q.traj_id, q.t, q.alpha).unwrap();
            }
        });
        table.row(vec![
            profile.name.to_string(),
            "where".into(),
            fmt_duration(u),
            fmt_duration(t),
            format!("{:.2}x", t.as_secs_f64() / u.as_secs_f64().max(1e-12)),
        ]);

        let nq = workload::when_queries(&built.ds, n_queries, 102);
        let (_, u) = timed(|| {
            for q in &nq {
                let _ = store
                    .when_query(q.traj_id, q.edge, q.rd, q.alpha, PageRequest::all())
                    .unwrap();
            }
        });
        let (_, t) = timed(|| {
            for q in &nq {
                let _ = tstore.when_query(q.traj_id, q.edge, q.rd, q.alpha).unwrap();
            }
        });
        table.row(vec![
            profile.name.to_string(),
            "when".into(),
            fmt_duration(u),
            fmt_duration(t),
            format!("{:.2}x", t.as_secs_f64() / u.as_secs_f64().max(1e-12)),
        ]);
    }
    table.print();
    table.save_json("fig10_where_when");
}

//! Figure 12: scalability — compression ratio, compression time, and
//! range-query time vs data size (20–100 % of the dataset; CD & HZ).
//!
//! Run: `cargo run --release -p utcq-bench --bin fig12_scalability`

use std::sync::Arc;
use utcq_bench::measure::fmt_duration;
use utcq_bench::report::{f2, Table};
use utcq_bench::{build, datasets, timed, workload};
use utcq_core::query::{PageRequest, QueryTarget};
use utcq_core::stiu::StiuParams;
use utcq_core::Store;
use utcq_datagen::transform;
use utcq_ted::{TedStore, TedStoreParams};

fn main() {
    let n_queries = 150;
    let mut table = Table::new(
        "Fig. 12 — scalability (paper: ratios flat; UTCQ time linear, TED super-linear; query time linear, UTCQ faster)",
        &[
            "dataset", "size %", "UTCQ ratio", "TED ratio", "UTCQ comp", "TED comp",
            "UTCQ range q", "TED range q",
        ],
    );
    for (i, profile) in [utcq_datagen::profile::cd(), utcq_datagen::profile::hz()]
        .iter()
        .enumerate()
    {
        let built = build(profile, 1200 + i as u64);
        let params = datasets::paper_params(profile);
        let tparams = datasets::paper_ted_params(profile);
        for pct in [20, 40, 60, 80, 100] {
            let ds = transform::subset_fraction(&built.ds, pct as f64 / 100.0);
            let (cds, ut) =
                timed(|| utcq_core::compress_dataset(&built.net, &ds, &params).unwrap());
            let (tds, tt) =
                timed(|| utcq_ted::compress_dataset(&built.net, &ds, &tparams).unwrap());
            let store = Store::build(
                Arc::new(built.net.clone()),
                &ds,
                params,
                StiuParams::default(),
            )
            .unwrap();
            let tstore =
                TedStore::build(&built.net, &ds, tparams, TedStoreParams::default()).unwrap();
            let queries = workload::range_queries(&built.net, &ds, n_queries, 121);
            let (_, uq) = timed(|| {
                for q in &queries {
                    let _ = store
                        .range_query(&q.re, q.tq, q.alpha, PageRequest::all())
                        .unwrap();
                }
            });
            let (_, tq) = timed(|| {
                for q in &queries {
                    let _ = tstore.range_query(&q.re, q.tq, q.alpha).unwrap();
                }
            });
            table.row(vec![
                profile.name.to_string(),
                pct.to_string(),
                f2(cds.ratios().total),
                f2(tds.ratios().total),
                fmt_duration(ut),
                fmt_duration(tt),
                fmt_duration(uq),
                fmt_duration(tq),
            ]);
        }
    }
    table.print();
    table.save_json("fig12_scalability");
}

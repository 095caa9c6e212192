//! Probabilistic query workload over compressed uncertain trajectories,
//! with answers cross-checked against the uncompressed oracle.
//!
//! Run: `cargo run --release --example query_workload`

use std::sync::Arc;
use std::time::Instant;

use utcq::core::oracle;
use utcq::core::params::CompressParams;
use utcq::core::query::{PageRequest, QueryTarget};
use utcq::core::stiu::StiuParams;
use utcq::core::Store;
use utcq::network::Rect;

fn main() {
    let profile = utcq::datagen::profile::cd();
    let (net, ds) = utcq::datagen::generate(&profile, 150, 5);
    let params = CompressParams::with_interval(ds.default_interval);
    let store = Store::build(
        Arc::new(net.clone()),
        &ds,
        params,
        StiuParams {
            partition_s: 900,
            grid_n: 32,
        },
    )
    .unwrap();
    let (s_bits, t_bits) = store.snapshots()[0]
        .stiu()
        .size_bits(params.p_codec().width());
    println!(
        "store: {} trajectories compressed at ratio {:.2}; StIU index {} B spatial + {} B temporal",
        ds.trajectories.len(),
        store.ratios().total,
        s_bits / 8,
        t_bits / 8
    );

    // A mixed workload, verified against the oracle.
    let mut where_checked = 0;
    let mut when_checked = 0;
    let mut range_agree = 0;
    let mut range_total = 0;
    let t0 = Instant::now();
    for (k, tu) in ds.trajectories.iter().enumerate().take(100) {
        let mid = (tu.times[0] + tu.times[tu.times.len() - 1]) / 2;
        let got = store
            .where_query(tu.id, mid, 0.25, PageRequest::all())
            .unwrap()
            .into_items();
        let want = oracle::where_query(&net, tu, mid, 0.25);
        assert_eq!(got.len(), want.len(), "where answers must agree");
        where_checked += got.len();

        let edge = tu.top_instance().path[0];
        let got = store
            .when_query(tu.id, edge, 0.9, 0.25, PageRequest::all())
            .unwrap()
            .into_items();
        let want = oracle::when_query(&net, tu, edge, 0.9, 0.25);
        assert_eq!(got.len(), want.len(), "when answers must agree");
        when_checked += got.len();

        if k % 5 == 0 {
            let b = net.bounding_rect();
            let re = Rect::new(
                b.min_x + (k % 4) as f64 * b.width() / 4.0,
                b.min_y,
                b.min_x + ((k % 4) + 1) as f64 * b.width() / 4.0,
                b.max_y,
            );
            let got = store
                .range_query(&re, mid, 0.3, PageRequest::all())
                .unwrap()
                .into_items();
            let mut want = oracle::range_query(&net, &ds, &re, mid, 0.3);
            want.sort_unstable(); // store answers are ascending by id
            range_total += 1;
            if got == want {
                range_agree += 1;
            }
        }
    }
    println!(
        "verified {} where answers, {} when answers, {}/{} range queries agree — in {:?}",
        where_checked,
        when_checked,
        range_agree,
        range_total,
        t0.elapsed()
    );
}

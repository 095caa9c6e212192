//! Quickstart: generate a synthetic uncertain-trajectory dataset, build
//! a store through incremental ingest, query it with pagination, persist
//! it as a self-contained container, and reopen it with zero
//! side-channel arguments.
//!
//! Run: `cargo run --release --example quickstart`

use std::sync::Arc;

use utcq::core::params::CompressParams;
use utcq::core::query::{PageRequest, QueryTarget};
use utcq::core::stiu::StiuParams;
use utcq::core::store::{Store, StoreBuilder};

fn main() {
    // 1. A synthetic road network + uncertain trajectories (the stand-in
    //    for the paper's probabilistically map-matched taxi data).
    let profile = utcq::datagen::profile::cd();
    let (net, mut ds) = utcq::datagen::generate(&profile, 50, 42);
    println!(
        "dataset: {} trajectories, {} instances, network {} vertices / {} edges",
        ds.trajectories.len(),
        ds.instance_count(),
        net.vertex_count(),
        net.edge_count()
    );

    // 2. Build the store incrementally: batches arrive over time and only
    //    the new cohort is compressed and indexed — earlier batches are
    //    never recompressed.
    let mut late_batch = ds.clone();
    late_batch.trajectories = ds.trajectories.split_off(30);
    let params = CompressParams::with_interval(ds.default_interval);
    let store = StoreBuilder::new(Arc::new(net), params)
        .stiu_params(StiuParams::default())
        .ingest(&ds)
        .expect("first batch compresses")
        .ingest(&late_batch)
        .expect("second batch compresses")
        .finish()
        .expect("store finalizes");
    let r = store.ratios();
    println!(
        "compression ratios — total {:.2} (T {:.2}, E {:.2}, D {:.2}, T' {:.2}, p {:.2})",
        r.total, r.t, r.e, r.d, r.tflag, r.p
    );

    // 3. Query the compressed data directly; answers come in pages.
    let tu = &ds.trajectories[0];
    let mid = (tu.times[0] + tu.times[tu.times.len() - 1]) / 2;
    let page = store
        .where_query(tu.id, mid, 0.2, PageRequest::first(16))
        .unwrap();
    println!(
        "where(Tu{}, t={mid}, α=0.2): {} instance locations (has_more={})",
        tu.id,
        page.items.len(),
        page.has_more
    );
    for h in page.items.iter().take(3) {
        println!(
            "  instance {} (p={:.3}) at edge {:?} + {:.1} m",
            h.instance, h.prob, h.loc.edge, h.loc.ndist
        );
    }

    let probe = tu.top_instance().path[tu.top_instance().path.len() / 2];
    let whens = store
        .when_query(tu.id, probe, 0.5, 0.1, PageRequest::default())
        .unwrap();
    println!(
        "when(Tu{}, mid-path edge, α=0.1): {} passing times",
        tu.id,
        whens.items.len()
    );

    let bounds = store.network().bounding_rect();
    let re = utcq::network::Rect::new(
        bounds.min_x,
        bounds.min_y,
        bounds.min_x + bounds.width() * 0.3,
        bounds.min_y + bounds.height() * 0.3,
    );
    let in_range = store
        .range_query(&re, mid, 0.3, PageRequest::all())
        .unwrap();
    println!(
        "range(SW corner, t={mid}, α=0.3): {} trajectories",
        in_range.items.len()
    );

    // 4. Persist as a self-contained v7 container and reopen: network,
    //    dataset and index all travel inside the file.
    let path = std::env::temp_dir().join("utcq-quickstart.utcq");
    store.save(&path).expect("container writes");
    let reopened = Store::open(&path).expect("container reopens");
    let again = reopened
        .where_query(tu.id, mid, 0.2, PageRequest::first(16))
        .unwrap();
    assert_eq!(
        again.items, page.items,
        "reopened store answers identically"
    );
    println!(
        "reopened {} ({} trajectories) and got identical answers",
        path.display(),
        reopened.len()
    );

    // 5. Decompress losslessly (up to the PDDP error bounds).
    let back =
        utcq::core::decompress_dataset(store.network(), store.snapshots()[0].compressed()).unwrap();
    utcq::core::decompress::check_lossy_roundtrip(
        &ds.trajectories[0],
        &back.trajectories[0],
        params.eta_d,
        params.eta_p,
    )
    .expect("round-trip within error bounds");
    println!(
        "decompression verified within ηD = {} / ηp = {}",
        params.eta_d, params.eta_p
    );
    std::fs::remove_file(&path).ok();
}

//! The paper's worked examples, end-to-end through the public API.
//!
//! Everything here is cross-checked against numbers printed in the paper:
//! Table 2 (TED representation), Table 3 (improved TED representation),
//! Table 4 (referential representation), Example 1 (FJD), Example 2
//! (Algorithm 1), Examples 3–4 (queries), and the §4.1/§4.4 SIAR and
//! Exp-Golomb worked examples.

use std::sync::Arc;

use utcq::core::params::CompressParams;
use utcq::core::query::{PageRequest, QueryTarget};
use utcq::core::stiu::StiuParams;
use utcq::core::Store;
use utcq::network::Rect;
use utcq::traj::paper_fixture::{self, hms};
use utcq::traj::{Dataset, TedView};

fn paper_store(fx: &utcq::traj::paper_fixture::PaperFixture) -> Store {
    let ds = Dataset {
        name: "paper".into(),
        default_interval: paper_fixture::DEFAULT_INTERVAL,
        trajectories: vec![fx.tu.clone()],
    };
    Store::build(
        Arc::new(fx.example.net.clone()),
        &ds,
        CompressParams::with_interval(paper_fixture::DEFAULT_INTERVAL),
        StiuParams {
            partition_s: 900, // the paper's 15-minute example partition
            grid_n: 4,
        },
    )
    .unwrap()
}

#[test]
fn table3_representation() {
    let fx = paper_fixture::build();
    let views: Vec<TedView> = fx
        .tu
        .instances
        .iter()
        .map(|i| TedView::from_instance(&fx.example.net, i))
        .collect();
    assert_eq!(views[0].entries, vec![1, 2, 1, 2, 2, 0, 4, 1, 0]);
    assert_eq!(views[1].entries, vec![1, 1, 1, 2, 2, 0, 4, 1, 0]);
    assert_eq!(views[2].entries, vec![1, 2, 1, 2, 2, 0, 4, 1, 2]);
}

#[test]
fn siar_example_bit_lengths() {
    // §4.4: deviations ⟨0, 1, 0, −1, 0, 0⟩ encode as 12 bits.
    let fx = paper_fixture::build();
    let buf = utcq::core::siar::encode(&fx.tu.times, 240).unwrap();
    // 1 bit day + 17 bits second-of-day + 12 bits of deviations.
    assert_eq!(buf.len_bits(), 30);
}

#[test]
fn compressed_structure_matches_example2() {
    // Algorithm 1 keeps Tu¹₁ as the only reference.
    let fx = paper_fixture::build();
    let store = paper_store(&fx);
    let part = &store.snapshots()[0];
    let ct = part.compressed().trajectories.get(0).unwrap();
    assert_eq!(ct.ref_count(), 1);
    assert_eq!(ct.ref_row(0).unwrap().orig_idx, 0);
    assert_eq!(ct.nrefs().len(), 2);
}

#[test]
fn example3_queries_on_compressed_data() {
    let fx = paper_fixture::build();
    let store = paper_store(&fx);
    // where(Tu¹, 5:21:25, 0.25) = ⟨(v6→v7), 150⟩.
    let hits = store
        .where_query(1, hms(5, 21, 25), 0.25, PageRequest::all())
        .unwrap()
        .into_items();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].loc.edge, fx.example.edge(6, 7));
    assert!((hits[0].loc.ndist - 150.0).abs() < 1.6);
    // when(Tu¹, ⟨(v6→v7), 0.75⟩, 0.25) = 5:21:25.
    let hits = store
        .when_query(1, fx.example.edge(6, 7), 0.75, 0.25, PageRequest::all())
        .unwrap()
        .into_items();
    assert_eq!(hits.len(), 1);
    assert!((hits[0].time - hms(5, 21, 25) as f64).abs() < 3.5);
}

#[test]
fn example4_range_queries() {
    let fx = paper_fixture::build();
    let store = paper_store(&fx);
    let t = hms(5, 5, 25);
    // A region covering the whole corridor returns Tu¹ at α = 0.5 …
    let corridor = Rect::new(-10.0, -10.0, 70.0, 10.0);
    assert_eq!(
        store
            .range_query(&corridor, t, 0.5, PageRequest::all())
            .unwrap()
            .into_items(),
        vec![1]
    );
    // … while RE₁ far from every instance returns nothing (Lemma 4).
    let re1 = Rect::new(100.0, 100.0, 120.0, 120.0);
    assert!(store
        .range_query(&re1, t, 0.5, PageRequest::all())
        .unwrap()
        .items
        .is_empty());
}

#[test]
fn ted_baseline_on_paper_example() {
    let fx = paper_fixture::build();
    let ds = Dataset {
        name: "paper".into(),
        default_interval: paper_fixture::DEFAULT_INTERVAL,
        trajectories: vec![fx.tu.clone()],
    };
    let tds = utcq::ted::compress_dataset(&fx.example.net, &ds, &utcq::ted::TedParams::default())
        .unwrap();
    // TED keeps the T' bit-strings verbatim (ratio 1)…
    assert_eq!(tds.compressed.tflag, tds.raw.tflag);
    // …and its time pairs keep indices 0,1,2,3,4,6 (Table 2).
    let pairs = utcq::ted::time::kept_pairs(&fx.tu.times);
    let idx: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    assert_eq!(idx, vec![0, 1, 2, 3, 4, 6]);
    // Decompression is exact for paths and distances (Table 3's rds are
    // dyadic at ηD = 1/128); probabilities quantize within ηp.
    let back = utcq::ted::decompress_dataset(&fx.example.net, &tds).unwrap();
    for (a, b) in back.trajectories[0].instances.iter().zip(&fx.tu.instances) {
        assert_eq!(a.path, b.path);
        assert_eq!(a.positions, b.positions);
        assert!((a.prob - b.prob).abs() <= 1.0 / 512.0);
    }
}

//! Compressed query answers must match the uncompressed oracle up to the
//! PDDP error bounds — the property behind the paper's Fig. 11 (average
//! difference ≈ 0, F1 ≈ 1).

use std::sync::Arc;

use utcq_core::params::CompressParams;
use utcq_core::query::{PageRequest, QueryTarget};
use utcq_core::shard::{ByRegion, ByTime, ShardPolicy};
use utcq_core::stiu::StiuParams;
use utcq_core::{decompress::check_lossy_roundtrip, oracle};
use utcq_core::{Store, StoreBuilder};
use utcq_network::{Rect, RoadNetwork};
use utcq_traj::{Dataset, UncertainTrajectory};

fn setup(seed: u64, n: usize) -> (RoadNetwork, Dataset) {
    utcq_datagen::generate(&utcq_datagen::profile::tiny(), n, seed)
}

fn builder(net: &RoadNetwork, ds: &Dataset) -> StoreBuilder {
    StoreBuilder::new(
        Arc::new(net.clone()),
        CompressParams::with_interval(ds.default_interval),
    )
    .stiu_params(StiuParams {
        partition_s: 600,
        grid_n: 16,
    })
}

fn store(net: &RoadNetwork, ds: &Dataset) -> Store {
    builder(net, ds).ingest(ds).unwrap().finish().unwrap()
}

fn sharded(net: &RoadNetwork, ds: &Dataset, policy: Arc<dyn ShardPolicy>, n: u32) -> Store {
    let st = builder(net, ds)
        .shard_by(policy, n)
        .unwrap()
        .ingest(ds)
        .unwrap()
        .finish()
        .unwrap();
    let occupied = st.snapshots().iter().filter(|p| !p.is_empty()).count();
    assert!(occupied > 1, "every trajectory routed to one shard");
    st
}

/// The same data as a single store, a 3-shard `ByTime` store and a
/// 2-shard `ByRegion` store: the oracle checks run on every shape.
fn shapes(net: &RoadNetwork, ds: &Dataset) -> Vec<Box<dyn QueryTarget>> {
    vec![
        Box::new(store(net, ds)),
        Box::new(sharded(net, ds, Arc::new(ByTime { interval_s: 600 }), 3)),
        Box::new(sharded(net, ds, Arc::new(ByRegion::default()), 2)),
    ]
}

/// Compares *where* answers on `trajs`; returns the hits compared.
fn check_where<'a>(
    net: &RoadNetwork,
    st: &dyn QueryTarget,
    trajs: impl Iterator<Item = &'a UncertainTrajectory>,
) -> usize {
    let mut checked = 0usize;
    for tu in trajs {
        let span = tu.times[tu.times.len() - 1] - tu.times[0];
        for k in 0..5 {
            let t = tu.times[0] + span * k / 4;
            for &alpha in &[0.0, 0.2, 0.5] {
                let want = oracle::where_query(net, tu, t, alpha);
                let got = st
                    .where_query(tu.id, t, alpha, PageRequest::all())
                    .unwrap()
                    .into_items();
                // Probability quantization can flip borderline α
                // comparisons; filter those out identically on both sides
                // using the exact probability.
                let borderline =
                    |w: u32| (tu.instances[w as usize].prob - alpha).abs() <= 2.0 / 512.0;
                let want_core: Vec<_> = want.iter().filter(|h| !borderline(h.instance)).collect();
                let got_core: Vec<_> = got.iter().filter(|h| !borderline(h.instance)).collect();
                assert_eq!(want_core.len(), got_core.len(), "t={t} alpha={alpha}");
                for (w, g) in want_core.iter().zip(&got_core) {
                    assert_eq!(w.instance, g.instance);
                    // Average-difference metric: the location error is
                    // bounded by ηD accumulated over interpolation.
                    let pw = net.point_on_edge(w.loc.edge, w.loc.ndist);
                    let pg = net.point_on_edge(g.loc.edge, g.loc.ndist);
                    let err = pw.dist(pg);
                    assert!(err < 25.0, "where error {err} m at t={t}");
                    checked += 1;
                }
            }
        }
    }
    checked
}

#[test]
fn where_matches_oracle() {
    let (net, ds) = setup(21, 20);
    for st in shapes(&net, &ds) {
        let checked = check_where(&net, st.as_ref(), ds.trajectories.iter());
        assert!(checked > 50, "too few comparisons: {checked}");
    }
}

/// Compares *when* answers on `trajs`; returns the hits compared.
fn check_when<'a>(
    net: &RoadNetwork,
    st: &dyn QueryTarget,
    trajs: impl Iterator<Item = &'a UncertainTrajectory>,
) -> usize {
    let mut checked = 0usize;
    for tu in trajs {
        // Query the middle edge of the most probable instance.
        let inst = tu.top_instance();
        let edge = inst.path[inst.path.len() / 2];
        for &alpha in &[0.0, 0.3] {
            let want = oracle::when_query(net, tu, edge, 0.5, alpha);
            let got = st
                .when_query(tu.id, edge, 0.5, alpha, PageRequest::all())
                .unwrap()
                .into_items();
            // Decide "borderline α" per instance from the *exact*
            // probability, so both sides filter identically (probability
            // quantization may flip the comparison either way).
            let borderline = |w: u32| (tu.instances[w as usize].prob - alpha).abs() <= 2.0 / 512.0;
            let mut want_core: Vec<_> = want.iter().filter(|h| !borderline(h.instance)).collect();
            let mut got_core: Vec<_> = got.iter().filter(|h| !borderline(h.instance)).collect();
            // Quantized times can flip the order of near-simultaneous
            // hits; align by (instance, time) instead.
            want_core.sort_by(|a, b| a.instance.cmp(&b.instance).then(a.time.total_cmp(&b.time)));
            got_core.sort_by(|a, b| a.instance.cmp(&b.instance).then(a.time.total_cmp(&b.time)));
            assert_eq!(
                want_core.len(),
                got_core.len(),
                "traj={} alpha={alpha}",
                tu.id
            );
            for (w, g) in want_core.iter().zip(&got_core) {
                assert_eq!(w.instance, g.instance);
                assert!(
                    (w.time - g.time).abs() < 20.0,
                    "when error {} s",
                    (w.time - g.time).abs()
                );
                checked += 1;
            }
        }
    }
    checked
}

#[test]
fn when_matches_oracle() {
    let (net, ds) = setup(22, 20);
    for st in shapes(&net, &ds) {
        let checked = check_when(&net, st.as_ref(), ds.trajectories.iter());
        assert!(checked > 20, "too few comparisons: {checked}");
    }
}

/// Compares *range* answers over a grid of regions.
fn check_range(net: &RoadNetwork, ds: &Dataset, st: &dyn QueryTarget) {
    let bounds = net.bounding_rect();
    let mut agree = 0usize;
    let mut total = 0usize;
    for k in 0..40 {
        let fx = (k % 8) as f64 / 8.0;
        let fy = (k % 5) as f64 / 5.0;
        let re = Rect::new(
            bounds.min_x + fx * bounds.width(),
            bounds.min_y + fy * bounds.height(),
            bounds.min_x + (fx + 0.25) * bounds.width(),
            bounds.min_y + (fy + 0.25) * bounds.height(),
        );
        let tq = ds.trajectories[k % ds.trajectories.len()].times[0] + 30;
        for &alpha in &[0.05, 0.3, 0.7] {
            let mut want = oracle::range_query(net, ds, &re, tq, alpha);
            let mut got = st
                .range_query(&re, tq, alpha, PageRequest::all())
                .unwrap()
                .into_items();
            want.sort_unstable();
            got.sort_unstable();
            total += 1;
            if want == got {
                agree += 1;
            } else {
                // Disagreements must stem from borderline probability
                // masses near α (quantization) — check symmetric diff is
                // small.
                let wset: std::collections::HashSet<_> = want.iter().collect();
                let gset: std::collections::HashSet<_> = got.iter().collect();
                let diff = wset.symmetric_difference(&gset).count();
                assert!(diff <= 2, "range answers diverge: {want:?} vs {got:?}");
            }
        }
    }
    // F1-style agreement should be near-perfect.
    assert!(
        agree as f64 / total as f64 > 0.9,
        "agreement {agree}/{total}"
    );
}

#[test]
fn range_matches_oracle() {
    let (net, ds) = setup(23, 25);
    for st in shapes(&net, &ds) {
        check_range(&net, &ds, st.as_ref());
    }
}

#[test]
fn an_extra_when_crossing_lies_within_eta_d_of_the_exact_rd() {
    // Seed 26's `check_when` mismatch (trajectory 1196, α = 0: the
    // oracle finds 2 hits, the store 3), minimised to its one instance
    // and one edge (edge 38 of the seed-26 network): the instance's last
    // sample lies on the query edge at exact rd 0.49953, just short of
    // the query's rd 0.5, and ηD = 1/128 quantizes it to exactly 0.5. The store reports the crossing
    // at that sample's time and the oracle reports none: a difference
    // of 0.00047 in rd, within ηD, not a bug (`docs/CORRECTNESS.md`).
    let net = utcq_datagen::generate_network(&utcq_datagen::profile::tiny(), 26);
    let edge = utcq_network::EdgeId(38);
    let exact = [0.14736911152318943, 0.4995309092332161];
    let tu = UncertainTrajectory {
        id: 1196,
        times: vec![26290, 26301],
        instances: vec![utcq_traj::Instance {
            path: vec![edge],
            positions: exact
                .map(|rd| utcq_traj::PathPosition { path_idx: 0, rd })
                .to_vec(),
            prob: 1.0,
        }],
    };
    let ds = Dataset {
        name: "seed 26".into(),
        default_interval: 10,
        trajectories: vec![tu.clone()],
    };
    let st = store(&net, &ds);
    let (rd, alpha) = (0.5, 0.0);
    assert!(oracle::when_query(&net, &tu, edge, rd, alpha).is_empty());
    let got = st
        .when_query(tu.id, edge, rd, alpha, PageRequest::all())
        .unwrap()
        .into_items();
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!(got[0].time, 26301.0, "at the last sample");
    // The decoded sample sits on the query point; the exact one within
    // ηD of it.
    let eta_d = CompressParams::with_interval(10).eta_d;
    let back = utcq_core::decompress_dataset(&net, st.snapshots()[0].compressed()).unwrap();
    let decoded = back.trajectories[0].instances[0].positions[1].rd;
    assert_eq!(decoded, rd);
    assert!((exact[1] - rd).abs() <= eta_d && exact[1] < rd);
}

/// Three sealed segments of 1,024 and a partial tail.
const ACROSS_SEALS: usize = 3 * 1_024 + 100;

/// The three comparisons on trajectories at and around every segment
/// boundary of the [`ACROSS_SEALS`] dataset.
fn check_near_seals(net: &RoadNetwork, ds: &Dataset, st: &dyn QueryTarget) {
    let n = ds.trajectories.len();
    let near_seals = (0..n).filter(|j| j % 97 == 0 || (j + 2) % 1_024 < 4 || j + 1 == n);
    let sample = || near_seals.clone().map(|j| &ds.trajectories[j]);
    assert!(check_where(net, st, sample()) > 50);
    assert!(check_when(net, st, sample()) > 20);
    check_range(net, ds, st);
}

#[test]
fn queries_match_oracle_across_segments() {
    let (net, ds) = setup(25, ACROSS_SEALS);
    let st = store(&net, &ds);
    let part = &st.snapshots()[0];
    assert_eq!(part.compressed().trajectories.segments().count(), 4);
    check_near_seals(&net, &ds, &st);
}

#[test]
fn sharded_store_grown_live_across_a_seal_matches_oracle() {
    // The same data through two shards, 600 trajectories at build and
    // the rest ingested live: every partition seals its first segment
    // during a live publish.
    let (net, ds) = setup(25, ACROSS_SEALS);
    let mut initial = ds.clone();
    let late = initial.trajectories.split_off(600);
    let st = sharded(&net, &initial, Arc::new(ByRegion::default()), 2);
    for batch in late.chunks(256) {
        let batch = Dataset {
            trajectories: batch.to_vec(),
            ..initial.clone()
        };
        st.ingest(&batch).unwrap();
    }
    assert_eq!(st.len(), ACROSS_SEALS);
    for part in st.snapshots() {
        assert!(part.compressed().trajectories.segments().count() > 1);
    }
    check_near_seals(&net, &ds, &st);
}

#[test]
fn end_to_end_roundtrip_large() {
    let (net, ds) = setup(24, 60);
    let params = CompressParams::with_interval(ds.default_interval);
    let cds = utcq_core::compress_dataset(&net, &ds, &params).unwrap();
    let back = utcq_core::decompress_dataset(&net, &cds).unwrap();
    for (a, b) in ds.trajectories.iter().zip(&back.trajectories) {
        check_lossy_roundtrip(a, b, params.eta_d, params.eta_p).unwrap();
    }
    // And the headline: it actually compresses.
    let r = cds.ratios();
    assert!(r.total > 2.0, "total ratio {}", r.total);
}

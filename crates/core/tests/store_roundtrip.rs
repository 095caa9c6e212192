//! Persistence and ingest-equivalence properties of the [`Store`] façade:
//!
//! * a store saved to a container and reopened answers every query
//!   type identically (randomized over seeds);
//! * a reopened store holds the built index field for field — also the
//!   parts the container does not store and the reader derives — and
//!   saves back to the same bytes, for every profile and store shape;
//! * the container is smaller than half the raw data;
//! * a legacy v1 container still opens through the compatibility path
//!   and answers identically;
//! * two-batch incremental ingest is equivalent to single-batch ingest —
//!   identical query answers for *where*/*when*/*range*. (Reference
//!   selection is per-trajectory, so in this implementation even the
//!   compressed sizes match exactly; the equivalence test asserts answer
//!   equality, the part the public API guarantees, and checks the ratio
//!   against an exact-match tolerance of zero separately.)

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use utcq_bitio::pddp::PddpCodec;
use utcq_core::compressed::CompressedTrajectory;
use utcq_core::plan::{Slot, TrajPlan};
use utcq_core::query::{PageRequest, QueryTarget};
use utcq_core::segment::TrajView;
use utcq_core::shard::ByTime;
use utcq_core::stiu::TrajIndex;
use utcq_core::storage::StorageError;
use utcq_core::{CompressParams, Error, Partition, StiuParams, Store, StoreBuilder};
use utcq_datagen::profile;
use utcq_network::{Rect, RoadNetwork};
use utcq_traj::Dataset;

fn setup(seed: u64, n: usize) -> (RoadNetwork, Dataset) {
    utcq_datagen::generate(&utcq_datagen::profile::tiny(), n, seed)
}

fn build_store(net: &RoadNetwork, ds: &Dataset) -> Store {
    Store::build(
        Arc::new(net.clone()),
        ds,
        CompressParams::with_interval(ds.default_interval),
        StiuParams {
            partition_s: 600,
            grid_n: 16,
        },
    )
    .unwrap()
}

/// Asserts that two stores answer a deterministic mixed workload
/// identically (exact equality — both run the same compressed payload).
fn assert_equal_answers(a: &Store, b: &Store, ds: &Dataset, rng: &mut StdRng) {
    let bounds = a.network().bounding_rect();
    for tu in &ds.trajectories {
        let span = tu.times[tu.times.len() - 1] - tu.times[0];
        let t = tu.times[0] + rng.gen_range(0..=span.max(1));
        for alpha in [0.0, 0.25, 0.6] {
            let wa = a.where_query(tu.id, t, alpha, PageRequest::all()).unwrap();
            let wb = b.where_query(tu.id, t, alpha, PageRequest::all()).unwrap();
            assert_eq!(wa.items, wb.items, "where tu={} t={t} α={alpha}", tu.id);

            let inst = tu.top_instance();
            let edge = inst.path[rng.gen_range(0..inst.path.len())];
            let rd = rng.gen_range(0.1..0.9);
            let na = a
                .when_query(tu.id, edge, rd, alpha, PageRequest::all())
                .unwrap();
            let nb = b
                .when_query(tu.id, edge, rd, alpha, PageRequest::all())
                .unwrap();
            assert_eq!(na.items, nb.items, "when tu={} α={alpha}", tu.id);
        }
    }
    for k in 0..10 {
        let fx = (k % 4) as f64 / 4.0;
        let re = Rect::new(
            bounds.min_x + fx * bounds.width(),
            bounds.min_y,
            bounds.min_x + (fx + 0.3) * bounds.width(),
            bounds.max_y,
        );
        let tq = ds.trajectories[k % ds.trajectories.len()].times[0] + 30;
        for alpha in [0.05, 0.4] {
            let ra = a.range_query(&re, tq, alpha, PageRequest::all()).unwrap();
            let rb = b.range_query(&re, tq, alpha, PageRequest::all()).unwrap();
            assert_eq!(ra.items, rb.items, "range k={k} α={alpha}");
        }
    }
}

#[test]
fn reopened_v2_store_answers_identically() {
    // Property, randomized over seeds: open(save(store)) ≡ store for all
    // three query types.
    let mut rng = StdRng::seed_from_u64(0x0C0FFEE);
    for _ in 0..4 {
        let seed = rng.gen_range(0u64..10_000);
        let (net, ds) = setup(seed, 12);
        let store = build_store(&net, &ds);

        let mut bytes = Vec::new();
        store.write(&mut bytes).unwrap();
        let reopened = Store::read(&mut bytes.as_slice()).unwrap();
        assert_eq!(reopened.len(), store.len(), "seed {seed}");
        assert_eq!(
            reopened.snapshots()[0].compressed().compressed,
            store.snapshots()[0].compressed().compressed,
            "seed {seed}"
        );
        assert_equal_answers(&store, &reopened, &ds, &mut rng);
    }
}

#[test]
fn v2_file_roundtrip_via_paths() {
    let (net, ds) = setup(77, 10);
    let store = build_store(&net, &ds);
    let path = std::env::temp_dir().join("utcq-test-roundtrip.utcq");
    store.save(&path).unwrap();
    let reopened = Store::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut rng = StdRng::seed_from_u64(1);
    assert_equal_answers(&store, &reopened, &ds, &mut rng);
}

#[test]
fn empty_network_store_roundtrips_and_answers_empty() {
    // `RoadNetwork::read_from` accepts V=0,E=0, so a container can embed
    // a network without vertices: it must build, save and reopen, never
    // panic, and answer every query with the empty set.
    let net = Arc::new(utcq_network::NetworkBuilder::new().build());
    let store = StoreBuilder::new(net, CompressParams::default())
        .finish()
        .unwrap();
    let mut bytes = Vec::new();
    store.write(&mut bytes).unwrap();
    let reopened = Store::read(&mut bytes.as_slice()).unwrap();
    for s in [&store, &reopened] {
        assert!(s.is_empty());
        assert_eq!(s.network().vertex_count(), 0);
        let everywhere = s.network().bounding_rect();
        assert!(s
            .range_query(&everywhere, 0, 0.0, PageRequest::all())
            .unwrap()
            .items
            .is_empty());
        assert!(s
            .where_query(1, 0, 0.0, PageRequest::all())
            .unwrap()
            .items
            .is_empty());
    }
}

#[test]
fn v1_container_opens_through_compat_path() {
    // Fixture: a v1 (dataset-only) container written by the legacy
    // writer must still load — with the network supplied out of band —
    // and answer queries identically to the originally built store.
    let (net, ds) = setup(55, 12);
    let store = build_store(&net, &ds);
    let path = std::env::temp_dir().join("utcq-test-v1-fixture.utcq");
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        utcq_legacy::container::save_v1(store.snapshots()[0].compressed(), &mut f).unwrap();
    }

    // The core opener refuses with the error that names `utcq migrate`…
    match Store::open(&path) {
        Err(Error::Storage(StorageError::NeedsMigrate { version: 1, .. })) => {}
        other => panic!("expected NeedsMigrate, got {other:?}"),
    }

    // …and the migration succeeds and agrees.
    let stiu = StiuParams {
        partition_s: 600,
        grid_n: 16,
    };
    let reopened = utcq_legacy::open(&std::fs::read(&path).unwrap(), || (net.clone(), stiu));
    let reopened = reopened.unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(reopened.len(), store.len());
    let mut rng = StdRng::seed_from_u64(2);
    assert_equal_answers(&store, &reopened, &ds, &mut rng);
}

#[test]
fn incremental_ingest_equals_single_batch() {
    // ingest(a).ingest(b) ≡ ingest(a ++ b) for all three query types.
    let mut rng = StdRng::seed_from_u64(0x1261);
    for round in 0..3 {
        let (net, ds) = setup(9000 + round, 14);
        let net = Arc::new(net);
        let params = CompressParams::with_interval(ds.default_interval);
        let stiu = StiuParams {
            partition_s: 600,
            grid_n: 16,
        };

        let split = rng.gen_range(1..ds.trajectories.len());
        let mut batch_a = ds.clone();
        let mut batch_b = ds.clone();
        batch_b.trajectories = batch_a.trajectories.split_off(split);

        let incremental = StoreBuilder::new(Arc::clone(&net), params)
            .stiu_params(stiu)
            .ingest(&batch_a)
            .unwrap()
            .ingest(&batch_b)
            .unwrap()
            .finish()
            .unwrap();
        let single = StoreBuilder::new(Arc::clone(&net), params)
            .stiu_params(stiu)
            .ingest(&ds)
            .unwrap()
            .finish()
            .unwrap();

        assert_eq!(incremental.len(), single.len());
        // Reference selection is per-trajectory, so batching cannot
        // change the compressed representation at all: the ratio
        // tolerance is exactly zero in this implementation.
        assert_eq!(
            incremental.snapshots()[0].compressed().compressed,
            single.snapshots()[0].compressed().compressed,
            "round {round}: compressed footprints diverge"
        );
        assert_eq!(incremental.ratios().total, single.ratios().total);

        assert_equal_answers(&incremental, &single, &ds, &mut rng);
    }
}

#[test]
fn ingest_order_does_not_change_answers() {
    // b-then-a produces different internal positions than a-then-b, but
    // identical query answers (range answers are sorted by id).
    let (net, ds) = setup(4321, 12);
    let net = Arc::new(net);
    let params = CompressParams::with_interval(ds.default_interval);
    let split = ds.trajectories.len() / 2;
    let mut batch_a = ds.clone();
    let mut batch_b = ds.clone();
    batch_b.trajectories = batch_a.trajectories.split_off(split);

    let ab = StoreBuilder::new(Arc::clone(&net), params)
        .ingest(&batch_a)
        .unwrap()
        .ingest(&batch_b)
        .unwrap()
        .finish()
        .unwrap();
    let ba = StoreBuilder::new(Arc::clone(&net), params)
        .ingest(&batch_b)
        .unwrap()
        .ingest(&batch_a)
        .unwrap()
        .finish()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    assert_equal_answers(&ab, &ba, &ds, &mut rng);
}

/// Every field of an index node as tuple rows, and the probability
/// bounds of every cell of every group by bit pattern.
type NodeFields = (
    Vec<(u32, u32, bool, u64, u64)>,
    Vec<(u32, utcq_network::CellId)>,
);

fn node_fields(n: TrajIndex<'_>, ct: &TrajView<'_>, params: &CompressParams) -> NodeFields {
    let mut starts = Vec::new();
    n.group_starts(&mut starts);
    let mut refs = Vec::new();
    for (r, group) in (0..).zip(n.groups()) {
        for (k, (cell, enters)) in group.cells().enumerate() {
            let (p_total, p_max) = n.bounds(&starts, ct, &params.p_codec(), r, k);
            refs.push((cell.0, r, enters, p_total.to_bits(), p_max.to_bits()));
        }
    }
    (refs, n.nref_tuples(ct.nref_owners()))
}

/// Asserts that `reopened` holds exactly the store `built` is: every
/// trajectory's rows, stream bits and plan in the same segments, every
/// index node field for field (the probability bounds by bit pattern),
/// the temporal tuple counts the reader derives (as Fig. 9's size
/// model), every interval's postings, the ratios.
fn assert_same_index(built: &[Arc<Partition>], reopened: &[Arc<Partition>], what: &str) {
    assert_eq!(built.len(), reopened.len(), "{what}: partitions");
    for (a, b) in built.iter().zip(reopened) {
        assert_eq!(
            a.compressed().ratios(),
            b.compressed().ratios(),
            "{what}: ratios"
        );
        let (ta, tb) = (&a.compressed().trajectories, &b.compressed().trajectories);
        assert_eq!(
            ta.segments().count(),
            tb.segments().count(),
            "{what}: segments"
        );
        assert_eq!(ta.len(), tb.len(), "{what}: trajectories");
        let p_codec = a.compressed().params.p_codec();
        for (j, (x, y)) in ta.iter().zip(tb).enumerate() {
            let rows = |t: TrajView<'_>| {
                let plan = t.plan(&p_codec);
                let order = plan.by_prob_desc();
                format!("{t:?} {order:?}")
            };
            assert_eq!(rows(x), rows(y), "{what}: trajectory {j}");
        }
        let fields = |s: &Partition, j: usize| {
            let (node, ct) = (s.stiu().trajs.get(j), s.compressed().trajectories.get(j));
            node_fields(node.unwrap(), &ct.unwrap(), &s.compressed().params)
        };
        assert_eq!(a.stiu().trajs.len(), b.stiu().trajs.len(), "{what}: nodes");
        for j in 0..a.stiu().trajs.len() {
            assert_eq!(fields(a, j), fields(b, j), "{what}: node {j}");
        }
        let (a, b) = (a.stiu(), b.stiu());
        assert_eq!(a.params, b.params, "{what}");
        assert_eq!(a.size_bits(8), b.size_bits(8), "{what}: size model");
        let keys = a.intervals();
        assert_eq!(keys, b.intervals(), "{what}: intervals");
        for t in keys.iter().map(|k| k * a.params.partition_s) {
            let (pa, pb) = (a.trajs_in_interval(t), b.trajs_in_interval(t));
            assert_eq!(pa, pb, "{what}: interval at {t}");
        }
    }
}

#[test]
fn reopened_index_equals_built_index_and_rewrites_identically() {
    // open(write(s)) == s down to the derived fields, and
    // write(open(write(s))) == write(s), for every profile and for the
    // three ways a store comes to be: built offline, grown live across a
    // chunk boundary (1,000 built + 3 x 20 ingested straddles
    // CHUNK = 1,024), and sharded.
    let mut profiles = utcq_datagen::profile::all();
    profiles.push(utcq_datagen::profile::tiny());
    for (i, profile) in profiles.iter().enumerate() {
        let (net, ds) = utcq_datagen::generate(profile, 1_060, 40 + i as u64);
        let net = Arc::new(net);
        let params = CompressParams::with_interval(ds.default_interval);
        let slice = |range: std::ops::Range<usize>| Dataset {
            trajectories: ds.trajectories[range].to_vec(),
            ..ds.clone()
        };

        let offline = Store::build(
            Arc::clone(&net),
            &slice(0..150),
            params,
            StiuParams::default(),
        );
        let live = Store::build(
            Arc::clone(&net),
            &slice(0..1_000),
            params,
            StiuParams::default(),
        );
        let (offline, live) = (offline.unwrap(), live.unwrap());
        for at in [1_000, 1_020, 1_040] {
            live.ingest(&slice(at..at + 20)).unwrap();
        }
        for (shape, store) in [("offline", &offline), ("live-grown", &live)] {
            let what = format!("{} {shape}", profile.name);
            let mut bytes = Vec::new();
            store.write(&mut bytes).unwrap();
            let reopened = Store::read(&mut bytes.as_slice()).unwrap();
            assert_same_index(&store.snapshots(), &reopened.snapshots(), &what);
            let mut again = Vec::new();
            reopened.write(&mut again).unwrap();
            assert!(again == bytes, "{what}: rewrite differs");
        }

        let what = format!("{} 3-shard", profile.name);
        let sharded = StoreBuilder::new(Arc::clone(&net), params)
            .shard_by(Arc::new(ByTime { interval_s: 1_800 }), 3)
            .unwrap()
            .ingest(&slice(0..200))
            .unwrap()
            .finish()
            .unwrap();
        let mut bytes = Vec::new();
        sharded.write(&mut bytes).unwrap();
        let reopened = Store::read(&mut bytes.as_slice()).unwrap();
        assert_same_index(&sharded.snapshots(), &reopened.snapshots(), &what);
        let mut again = Vec::new();
        reopened.write(&mut again).unwrap();
        assert!(again == bytes, "{what}: rewrite differs");
    }
}

#[test]
fn segment_views_equal_the_compressor_and_index_builder_output() {
    // Whatever way a store comes to hold a trajectory (appended by the
    // offline builder, parsed from a container, appended by live
    // publishes that copy the tail and cross a seal), every view of it
    // equals what `compress_trajectory` and `stiu::build` produce for
    // the same input: rows, streams, plan and index node. `hz` gives up
    // to 96 instances and several references per trajectory, whose
    // framing the seal repacks.
    for profile in [profile::tiny(), profile::cd(), profile::hz()] {
        let (net, ds) = utcq_datagen::generate(&profile, 1_060, 17);
        let net = Arc::new(net);
        let params = CompressParams::with_interval(ds.default_interval);
        let stiu_params = StiuParams::default();
        let slice = |range: std::ops::Range<usize>| Dataset {
            trajectories: ds.trajectories[range].to_vec(),
            ..ds.clone()
        };
        let cds = utcq_core::compress_dataset(&net, &ds, &params).unwrap();
        let index = utcq_core::stiu::build(&net, &ds, &cds, stiu_params);

        let offline = Store::build(Arc::clone(&net), &ds, params, stiu_params).unwrap();
        let mut bytes = Vec::new();
        offline.write(&mut bytes).unwrap();
        let reopened = Store::read(&mut bytes.as_slice()).unwrap();
        let live = Store::build(Arc::clone(&net), &slice(0..1_000), params, stiu_params).unwrap();
        for at in [1_000, 1_020, 1_040] {
            live.ingest(&slice(at..at + 20)).unwrap();
        }

        let p_codec = params.p_codec();
        for (shape, store) in [("offline", offline), ("reopened", reopened), ("live", live)] {
            let what = format!("{} {shape}", profile.name);
            let snap = store.snapshots().remove(0);
            let (trajectories, nodes) = (&snap.compressed().trajectories, &snap.stiu().trajs);
            assert_eq!((trajectories.len(), nodes.len()), (1_060, 1_060), "{what}");
            assert_eq!(trajectories.segments().count(), 2, "{what}: sealed + tail");
            for (j, tu) in ds.trajectories.iter().enumerate() {
                let (ct, _) = utcq_core::compress_trajectory(&net, tu, &params).unwrap();
                let view = trajectories.get(j).unwrap();
                assert_eq!((view.id, view.n_times), (ct.id, ct.n_times), "{what} {j}");
                assert_eq!(view.t_bits(), ct.t_bits.as_slice(), "{what} {j}: T");
                assert_eq!(view.ref_count(), ct.refs.len(), "{what} {j}");
                for (i, (row, r)) in view.refs().zip(&ct.refs).enumerate() {
                    let fields = (row.orig_idx, row.sv, row.n_entries, row.p_code);
                    assert_eq!(fields, (r.orig_idx, r.sv, r.n_entries, r.p_code));
                    assert_eq!(view.ref_row(i), Some(row), "{what} {j}: ref {i}");
                    let owned = [&r.e_bits, &r.tflag_bits, &r.d_bits].map(|b| b.as_slice());
                    assert_eq!(view.ref_streams(i), owned, "{what} {j}: ref {i}");
                }
                assert_eq!(view.nrefs().len(), ct.nrefs.len(), "{what} {j}");
                for (i, (row, n)) in view.nrefs().zip(&ct.nrefs).enumerate() {
                    let fields = (row.orig_idx, row.ref_idx, row.p_code);
                    assert_eq!(fields, (n.orig_idx, n.ref_idx, n.p_code));
                    assert_eq!(view.nref_row(i), Some(row), "{what} {j}: nref {i}");
                    let owned = [&n.e_com, &n.t_com, &n.d_com].map(|b| b.as_slice());
                    assert_eq!(view.nref_streams(i), owned, "{what} {j}: nref {i}");
                }
                assert_plan_is_the_compressors(view.plan(&p_codec), &ct, &p_codec, &what, j);
                let (node, expect) = (nodes.get(j).unwrap(), index.trajs.get(j).unwrap());
                let ct = cds.trajectories.get(j).unwrap();
                let fields = [node, expect].map(|n| node_fields(n, &ct, &params));
                assert_eq!(fields[0], fields[1], "{what}: node {j}");
            }
        }
    }
}

/// A view's plan, derived from its role bits and probability codes,
/// against the compressor's own instances: the slot of every
/// `orig_idx`, its dequantized probability and the probability order.
fn assert_plan_is_the_compressors(
    plan: TrajPlan<'_>,
    ct: &CompressedTrajectory,
    p_codec: &PddpCodec,
    what: &str,
    j: usize,
) {
    let n = ct.instance_count();
    assert_eq!(plan.instance_count(), n, "{what} {j}");
    let mut probs = vec![f64::NAN; n];
    let refs = ct.refs.iter().map(|r| (r.orig_idx, r.p_code));
    let nrefs = ct.nrefs.iter().map(|m| (m.orig_idx, m.p_code));
    let slots = (0..).map(Slot::Ref).zip(refs);
    for (slot, (orig_idx, p_code)) in slots.chain((0..).map(Slot::NRef).zip(nrefs)) {
        assert_eq!(plan.slot(orig_idx).unwrap(), slot, "{what} {j}: {orig_idx}");
        probs[orig_idx as usize] = p_codec.dequantize(p_code);
        assert_eq!(plan.prob(orig_idx).unwrap(), probs[orig_idx as usize]);
    }
    assert!(plan.slot(n as u32).is_err(), "{what} {j}");
    assert_eq!(Vec::from_iter(plan.probs()), probs, "{what} {j}");
    let mut order = Vec::from_iter((0..).zip(probs.iter().copied()));
    order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    assert_eq!(plan.by_prob_desc(), order, "{what} {j}");
}

#[test]
fn container_is_smaller_than_half_the_raw_data() {
    // The point of the system: at 2,000 Chengdu-like trajectories (the
    // embedded network included) the container is below half the raw
    // size by the paper's accounting; it was 1.1x before bit-packing.
    let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::cd(), 2_000, 7);
    let params = CompressParams::with_interval(ds.default_interval);
    let store = Store::build(Arc::new(net), &ds, params, StiuParams::default()).unwrap();
    let mut bytes = Vec::new();
    store.write(&mut bytes).unwrap();
    let raw_bytes = store.snapshots()[0].compressed().raw.total() / 8;
    assert!(
        (bytes.len() as u64) * 2 < raw_bytes,
        "container {} B vs raw {raw_bytes} B",
        bytes.len()
    );
}

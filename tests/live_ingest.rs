//! Live-ingest acceptance tests for the snapshot-based store:
//!
//! * **byte-identity** — a store of either shape grown through live
//!   [`Store::ingest`] serializes to the *same container bytes* as
//!   an offline [`StoreBuilder`] run over the same batches in the same
//!   order (publishing epochs adds nothing to the on-disk state);
//! * **snapshot isolation** — a pinned snapshot, the whole store at
//!   one epoch at any partition count (and a paginated walk running on
//!   it), keeps answering with pre-ingest answers while new queries on
//!   the store see the post-ingest epoch;
//! * **cursor stability** — cursors minted before an ingest stay valid
//!   after it (ingest only appends);
//! * **concurrency** — threads querying while batches ingest never
//!   block, never error, and always see either the old or the new
//!   epoch, never a torn one (the loom-free stress test CI runs).

use std::sync::Arc;

use utcq::core::shard::{ByRegion, ByTime, ShardPolicy};
use utcq::core::storage;
use utcq::core::wal::Wal;
use utcq::core::{
    CompressParams, Error, Page, PageRequest, QueryTarget, RangeQuery, StiuParams, Store,
    StoreBuilder, WalConfig,
};
use utcq::datagen::{generate_network, generate_on_network, GenOptions};
use utcq::network::{EdgeId, Rect, RoadNetwork};
use utcq::traj::Dataset;

const STIU: StiuParams = StiuParams {
    partition_s: 900,
    grid_n: 8,
};

/// A tiny dataset split into three arrival batches.
fn batches(n: usize, seed: u64) -> (Arc<RoadNetwork>, Vec<Dataset>) {
    let (net, mut ds) = utcq::datagen::generate(&utcq::datagen::profile::tiny(), n, seed);
    let third = n / 3;
    let mut b2 = ds.clone();
    let mut b3 = ds.clone();
    let tail = ds.trajectories.split_off(third);
    b2.trajectories = tail;
    b3.trajectories = b2.trajectories.split_off(third);
    (Arc::new(net), vec![ds, b2, b3])
}

fn params(ds: &Dataset) -> CompressParams {
    CompressParams::with_interval(ds.default_interval)
}

/// A dataset big enough to cross 1024-trajectory chunk-seal boundaries
/// while staying affordable under a debug build: short paths, at most
/// two instances, at most four samples.
fn cheap_dataset(n: usize, seed: u64) -> (Arc<RoadNetwork>, Dataset) {
    let mut p = utcq::datagen::profile::tiny();
    p.avg_instances = 1.5;
    p.max_instances = 2;
    p.avg_edges = 4.0;
    p.max_edges = 8;
    let net = generate_network(&p, seed ^ 0x9E37);
    let ds = generate_on_network(
        &net,
        &p,
        &GenOptions {
            n_trajectories: n,
            seed,
            min_instances: 1,
            max_samples: 4,
            variants: Default::default(),
        },
    );
    assert_eq!(ds.trajectories.len(), n, "generator fell short");
    (Arc::new(net), ds)
}

fn container_bytes_single(store: &Store) -> Vec<u8> {
    let mut bytes = Vec::new();
    store.write(&mut bytes).unwrap();
    bytes
}

/// A builder over `parts` partitions: routed `ByTime` past one, plain at
/// one.
fn builder(net: &Arc<RoadNetwork>, p: CompressParams, parts: u32) -> StoreBuilder {
    let b = StoreBuilder::new(Arc::clone(net), p).stiu_params(STIU);
    match parts {
        1 => b,
        n => b.shard_by(Arc::new(ByTime { interval_s: 120 }), n).unwrap(),
    }
}

/// Walks a paginated answer one item per page, running `between` once
/// after the first page.
fn walk<T>(mut page: impl FnMut(PageRequest) -> Page<T>, between: impl FnOnce()) -> Vec<T> {
    let mut between = Some(between);
    let mut items = Vec::new();
    let mut req = PageRequest::first(1);
    loop {
        let p = page(req);
        items.extend(p.items);
        if let Some(f) = between.take() {
            f();
        }
        match p.next_cursor {
            Some(c) => req = PageRequest::after(c, 1),
            None => return items,
        }
    }
}

#[test]
fn live_ingest_matches_offline_build_byte_for_byte() {
    let (net, batches) = batches(9, 41);
    let p = params(&batches[0]);

    // Offline: all three batches through the builder.
    let offline = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .ingest(&batches[0])
        .unwrap()
        .ingest(&batches[1])
        .unwrap()
        .ingest(&batches[2])
        .unwrap()
        .finish()
        .unwrap();

    // Live: first batch offline, the rest through the live writer.
    let live = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .ingest(&batches[0])
        .unwrap()
        .finish()
        .unwrap();
    let r1 = live.ingest(&batches[1]).unwrap();
    let r2 = live.ingest(&batches[2]).unwrap();
    assert_eq!(r1.epoch, 1);
    assert_eq!(r2.epoch, 2);
    assert_eq!(r2.total, 9);

    assert_eq!(
        container_bytes_single(&live),
        container_bytes_single(&offline),
        "published snapshots must be byte-identical to the offline build"
    );
}

#[test]
fn sharded_live_ingest_matches_offline_build_byte_for_byte() {
    let (net, batches) = batches(9, 42);
    let p = params(&batches[0]);
    let policy = || Arc::new(ByTime { interval_s: 120 });

    let offline = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .shard_by(policy(), 3)
        .unwrap()
        .ingest(&batches[0])
        .unwrap()
        .ingest(&batches[1])
        .unwrap()
        .ingest(&batches[2])
        .unwrap()
        .finish()
        .unwrap();

    let live = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .shard_by(policy(), 3)
        .unwrap()
        .ingest(&batches[0])
        .unwrap()
        .finish()
        .unwrap();
    live.ingest(&batches[1]).unwrap();
    let report = live.ingest(&batches[2]).unwrap();
    assert_eq!(report.total, 9);
    assert_eq!(live.epoch(), 2);

    let mut live_bytes = Vec::new();
    live.write(&mut live_bytes).unwrap();
    let mut offline_bytes = Vec::new();
    offline.write(&mut offline_bytes).unwrap();
    assert_eq!(
        live_bytes, offline_bytes,
        "sharded live ingest must serialize identically to the offline build"
    );

    // And the container reopens with everything routed.
    let reopened = Store::read(&mut live_bytes.as_slice()).unwrap();
    assert_eq!(reopened.len(), 9);
}

#[test]
fn options_set_after_the_first_ingest_apply_to_an_epoch_zero_store() {
    // The builder grows its store by the live publish step at epoch 0:
    // `name` and `cache_bytes` still apply at `finish`, the finished
    // store is at epoch 0, and the first live batch publishes and logs 1.
    let (net, mut parts) = batches(48, 17);
    let mut late = parts[2].clone();
    late.trajectories = parts[2].trajectories.split_off(8);
    let dir = std::env::temp_dir().join(format!("utcq-live-opts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for n in [1, 3] {
        let mut b = StoreBuilder::new(Arc::clone(&net), params(&late)).stiu_params(STIU);
        if n > 1 {
            b = b.shard_by(Arc::new(ByTime { interval_s: 600 }), n).unwrap();
        }
        let b = b
            .ingest(&parts[0])
            .unwrap()
            .name("renamed")
            .cache_bytes(12_345);
        let store = b.ingest(&parts[1]).unwrap().ingest(&parts[2]).unwrap();
        let store = store.finish().unwrap();
        assert_eq!((store.cache_bytes(), store.epoch()), (12_345, 0), "{n}");
        for part in store.snapshots() {
            assert_eq!(part.compressed().name, "renamed");
        }
        let log = dir.join(format!("{n}.wal"));
        store.attach_wal(WalConfig::new(&log)).unwrap();
        assert_eq!(store.ingest(&late).unwrap().epoch, 1, "{n}");
        let (_, records) = Wal::open(&WalConfig::new(&log)).unwrap();
        assert_eq!(Vec::from_iter(records.iter().map(|r| r.epoch)), [1], "{n}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn live_name_adoption_matches_builder_even_on_empty_sub_batches() {
    // The offline builder adopts a batch's name on *every* shard (and
    // from batches that route nothing to a shard, or are empty
    // outright); the live path must serialize identically in those
    // corners too.
    let (net, mut batches) = batches(9, 48);
    let p = params(&batches[0]);
    batches[0].name = String::new(); // bootstrap unnamed
    batches[1].name = "late-name".into();
    let named_but_empty = Dataset {
        name: "late-name".into(),
        default_interval: batches[0].default_interval,
        trajectories: Vec::new(),
    };

    // Single store: an empty-but-named live batch adopts the label.
    let single_offline = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .ingest(&batches[0])
        .unwrap()
        .ingest(&named_but_empty)
        .unwrap()
        .finish()
        .unwrap();
    let single_live = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .ingest(&batches[0])
        .unwrap()
        .finish()
        .unwrap();
    single_live.ingest(&named_but_empty).unwrap();
    assert_eq!(
        container_bytes_single(&single_live),
        container_bytes_single(&single_offline),
        "empty named batch must adopt the label like the builder does"
    );

    // Sharded: batch 1's trajectories cannot cover every shard of a
    // 7-shard store, so some shards see an empty-but-named sub-batch.
    let policy = || Arc::new(ByTime { interval_s: 120 });
    let offline = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .shard_by(policy(), 7)
        .unwrap()
        .ingest(&batches[0])
        .unwrap()
        .ingest(&batches[1])
        .unwrap()
        .finish()
        .unwrap();
    let live = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .shard_by(policy(), 7)
        .unwrap()
        .ingest(&batches[0])
        .unwrap()
        .finish()
        .unwrap();
    live.ingest(&batches[1]).unwrap();
    let mut live_bytes = Vec::new();
    live.write(&mut live_bytes).unwrap();
    let mut offline_bytes = Vec::new();
    offline.write(&mut offline_bytes).unwrap();
    assert_eq!(
        live_bytes, offline_bytes,
        "shards with empty sub-batches must still adopt the batch name"
    );
}

/// A batch that names an edge past the network, or is malformed on it,
/// is refused before any of it is routed (`ByRegion` reads a trajectory's
/// first position) or compressed: the epoch and the contents stay, on the
/// live path and in the builder alike. So is a batch with a duplicate id,
/// at one partition and at three, and a container whose two partitions
/// share ids does not open.
#[test]
fn a_batch_off_the_network_is_refused_with_the_epoch_unchanged() {
    let (net, batches) = batches(9, 49);
    let p = params(&batches[0]);
    let builder = || StoreBuilder::new(Arc::clone(&net), p);
    let plain = builder().ingest(&batches[0]).unwrap().finish().unwrap();
    let by_region = (builder().shard_by(Arc::new(ByRegion { grid_n: 4 }), 3))
        .and_then(|b| b.ingest(&batches[0])?.finish())
        .unwrap();
    let mut stray = batches[1].clone();
    for inst in &mut stray.trajectories[1].instances {
        inst.path[0] = EdgeId(net.edge_count() as u32 + 5);
    }
    let mut malformed = batches[1].clone();
    malformed.trajectories[2].instances.clear();
    for (bad, at) in [(&stray, 1), (&malformed, 2)] {
        for store in [&plain, &by_region] {
            let (epoch, len) = (store.epoch(), store.len());
            let e = store.ingest(bad).unwrap_err();
            assert!(
                matches!(e, Error::InvalidTrajectory { at: a, .. } if a == at),
                "{e}"
            );
            assert_eq!((store.epoch(), store.len()), (epoch, len));
        }
        let e = builder()
            .ingest(bad)
            .err()
            .expect("the builder refuses it too");
        assert!(
            matches!(e, Error::InvalidTrajectory { at: a, .. } if a == at),
            "{e}"
        );
    }

    // Duplicate ids are refused at ingest at every partition count, live
    // and in the builder: an id the store holds, and two trajectories of
    // one batch that share an id and route to different partitions.
    let region = ByRegion { grid_n: 4 };
    let held = batches[0].trajectories[0].id;
    let mut stored_again = batches[1].clone();
    stored_again.trajectories[0].id = held;
    let mut twice = batches[1].clone();
    twice
        .trajectories
        .extend(batches[2].trajectories.iter().cloned());
    let routes: Vec<u32> = (twice.trajectories.iter())
        .map(|tu| region.route(&net, tu, 3))
        .collect();
    let other = (1..routes.len()).find(|&k| routes[k] != routes[0]);
    let other = other.expect("the batch spans two partitions");
    let twin = twice.trajectories[0].id;
    twice.trajectories[other].id = twin;
    for (bad, id) in [(&stored_again, held), (&twice, twin)] {
        for store in [&plain, &by_region] {
            let (epoch, len) = (store.epoch(), store.len());
            let e = store.ingest(bad).unwrap_err();
            assert!(matches!(e, Error::DuplicateTrajectory(d) if d == id), "{e}");
            assert_eq!((store.epoch(), store.len()), (epoch, len));
        }
        let by_region_builder = builder().shard_by(Arc::new(region), 3).unwrap();
        for b in [builder(), by_region_builder] {
            let b = b.ingest(&batches[0]).unwrap();
            let e = b
                .ingest(bad)
                .err()
                .expect("the builder refuses it at ingest");
            assert!(matches!(e, Error::DuplicateTrajectory(d) if d == id), "{e}");
        }
    }
    // A container whose two partitions share their ids does not open.
    let (part, net) = (&plain.snapshots()[0], plain.network());
    let mut bytes = Vec::new();
    let head = storage::Head {
        kind: storage::ROUTING_CUSTOM,
        param: 0,
        parts: 2,
    };
    storage::write_head(head, net, &mut bytes).unwrap();
    for _ in 0..2 {
        storage::write_body(net, part.compressed(), part.stiu(), &mut bytes).unwrap();
    }
    let e = Store::read(&mut bytes.as_slice()).unwrap_err();
    assert!(matches!(e, Error::DuplicateTrajectory(_)), "{e}");
}

/// A pinned snapshot is the whole store at its epoch, at one partition
/// and at three: a paginated walk on it completes with pre-ingest answers
/// across an ingest, its length and range answers stay, and it knows no
/// post-ingest trajectory, while the store sees the new epoch.
#[test]
fn pinned_snapshot_keeps_pre_ingest_answers() {
    let (net, batches) = batches(9, 43);
    let p = params(&batches[0]);
    for parts in [1, 3] {
        let store = builder(&net, p, parts)
            .ingest(&batches[0])
            .unwrap()
            .finish()
            .unwrap();
        let pre_len = store.len();
        let probe_id = batches[0].trajectories[0].id;
        let times = store.decode_times(probe_id).unwrap().unwrap();
        let mid = (times[0] + times[times.len() - 1]) / 2;
        let bounds = net.bounding_rect();

        // Pin the pre-ingest epoch and collect its ground truth.
        let pinned = store.snapshot();
        let pre_range = pinned
            .range_query(&bounds, mid, 0.0, PageRequest::all())
            .unwrap()
            .into_items();
        let full_where = pinned
            .where_query(probe_id, mid, 0.0, PageRequest::all())
            .unwrap()
            .into_items();

        // Walk the pinned snapshot one item per page, ingesting the
        // remaining batches after the first page.
        let walked = walk(
            |req| pinned.where_query(probe_id, mid, 0.0, req).unwrap(),
            || {
                store.ingest(&batches[1]).unwrap();
                store.ingest(&batches[2]).unwrap();
            },
        );
        assert_eq!(
            walked, full_where,
            "{parts} partitions: a walk on the pinned snapshot completes with pre-ingest answers"
        );

        // The pinned view still answers as of its epoch …
        assert_eq!(pinned.len(), pre_len, "{parts} partitions");
        assert_eq!(
            pinned
                .range_query(&bounds, mid, 0.0, PageRequest::all())
                .unwrap()
                .into_items(),
            pre_range,
            "{parts} partitions"
        );
        let new_id = batches[1].trajectories[0].id;
        assert!(pinned
            .where_query(new_id, mid, 0.0, PageRequest::all())
            .unwrap()
            .items
            .is_empty());
        assert!(pinned.locate(new_id).is_none());
        assert!(pinned.decode_times(new_id).unwrap().is_none());

        // … while the store sees the new epoch.
        assert_eq!(store.len(), 9);
        assert!(store.locate(new_id).is_some());
        let new_times = store.decode_times(new_id).unwrap().unwrap();
        let new_mid = (new_times[0] + new_times[new_times.len() - 1]) / 2;
        assert!(!store
            .where_query(new_id, new_mid, 0.0, PageRequest::all())
            .unwrap()
            .items
            .is_empty());
    }
}

/// The pinned view of a 3-partition store is the whole store: its length,
/// a `where` answer for every id, paginated where/when/range walks across
/// an ingest, and its own save (a v3 container with as many partitions
/// that answers alike). The README's live-ingest example holds.
#[test]
fn a_pinned_view_is_the_whole_store() {
    let (net, mut ds) = utcq::datagen::generate(&utcq::datagen::profile::tiny(), 60, 7);
    let net = Arc::new(net);
    let tonight_batch = Dataset {
        trajectories: ds.trajectories.split_off(40),
        ..ds.clone()
    };
    let store = StoreBuilder::new(Arc::clone(&net), params(&ds))
        .shard_by(Arc::new(ByTime { interval_s: 600 }), 3)
        .unwrap()
        .ingest(&ds)
        .unwrap()
        .finish()
        .unwrap();
    let occupied = store.snapshots().iter().filter(|p| !p.is_empty()).count();
    assert_eq!(occupied, 3, "every partition holds some");
    let probes: Vec<(u64, i64, EdgeId)> = (ds.trajectories.iter())
        .map(|tu| {
            let mid = (tu.times[0] + tu.times[tu.times.len() - 1]) / 2;
            (tu.id, mid, tu.top_instance().path[0])
        })
        .collect();
    let re = net.bounding_rect();
    // Every paginated walk of the probes, one item per page; `between`
    // runs after the first page of the first walk.
    let walks = |t: &dyn QueryTarget, between: &dyn Fn()| {
        let mut first = true;
        let mut out = Vec::new();
        for &(id, t_mid, edge) in &probes {
            let once = || {
                if std::mem::take(&mut first) {
                    between();
                }
            };
            let wheres = walk(|r| t.where_query(id, t_mid, 0.0, r).unwrap(), once);
            let whens = walk(|r| t.when_query(id, edge, 0.5, 0.0, r).unwrap(), || ());
            let range = walk(|r| t.range_query(&re, t_mid, 0.2, r).unwrap(), || ());
            out.push((wheres, whens, range));
        }
        out
    };
    let pinned = store.snapshot();
    let before = walks(&*pinned, &|| ());
    assert!(before.iter().all(|(wheres, _, _)| !wheres.is_empty()));

    let ingest = || {
        store.ingest(&tonight_batch).unwrap();
    };
    assert_eq!(walks(&*pinned, &ingest), before, "walks across the ingest");
    assert_eq!(store.epoch(), 1, "the ingest ran");
    assert_eq!(pinned.len(), 40);
    for &(id, t_mid, _) in &probes {
        let page = pinned.where_query(id, t_mid, 0.0, PageRequest::all());
        assert!(!page.unwrap().items.is_empty(), "pinned where on {id}");
    }

    let path = std::env::temp_dir().join("utcq-pinned-view.utcq");
    pinned.save(&path).unwrap();
    let head = storage::read_head(&mut std::fs::read(&path).unwrap().as_slice()).unwrap();
    assert_eq!((head.kind, head.parts), (storage::ROUTING_TIME, 3));
    let reopened = Store::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!((reopened.shard_count(), reopened.len()), (3, 40));
    assert_eq!(walks(&reopened, &|| ()), before, "the saved view");

    // README.md, "Live ingest", at three partitions.
    let pinned = reopened.snapshot();
    reopened.ingest(&tonight_batch).unwrap();
    let grown = pinned.len() + tonight_batch.trajectories.len();
    assert_eq!(grown, reopened.len());
}

#[test]
fn cursors_minted_before_ingest_stay_valid_after() {
    let (net, batches) = batches(9, 44);
    let p = params(&batches[0]);
    let store = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .ingest(&batches[0])
        .unwrap()
        .finish()
        .unwrap();
    let probe_id = batches[0].trajectories[0].id;
    let times = store.decode_times(probe_id).unwrap().unwrap();
    let mid = (times[0] + times[times.len() - 1]) / 2;

    let full = store
        .where_query(probe_id, mid, 0.0, PageRequest::all())
        .unwrap()
        .into_items();
    let page1 = store
        .where_query(probe_id, mid, 0.0, PageRequest::first(1))
        .unwrap();
    let cursor = page1.next_cursor.expect("more than one instance");

    store.ingest(&batches[1]).unwrap();

    // The pre-ingest cursor resumes cleanly on the post-ingest store:
    // appends cannot change an existing trajectory's answer.
    let rest = store
        .where_query(probe_id, mid, 0.0, PageRequest::after(cursor, 1024))
        .unwrap();
    let mut walked = page1.items;
    walked.extend(rest.items);
    assert_eq!(walked, full);
}

/// The loom-free concurrency stress test CI runs: reader threads hammer
/// where/when/range against ids of the first batch (whose answers are
/// invariant under append-only ingest) while the writer publishes the
/// remaining batches; every answer must equal the pre-ingest baseline
/// and nothing may error or deadlock.
#[test]
fn concurrent_ingest_and_queries_stress() {
    let (net, all) = batches(12, 45);
    let p = params(&all[0]);
    let store = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .ingest(&all[0])
        .unwrap()
        .finish()
        .unwrap();

    // Baselines for the first batch's trajectories.
    struct Probe {
        id: u64,
        mid: i64,
        edge: utcq::network::EdgeId,
        where_hits: usize,
        when_hits: usize,
    }
    let probes: Vec<Probe> = all[0]
        .trajectories
        .iter()
        .map(|tu| {
            let mid = (tu.times[0] + tu.times[tu.times.len() - 1]) / 2;
            let edge = tu.top_instance().path[0];
            let where_hits = store
                .where_query(tu.id, mid, 0.0, PageRequest::all())
                .unwrap()
                .items
                .len();
            let when_hits = store
                .when_query(tu.id, edge, 0.5, 0.0, PageRequest::all())
                .unwrap()
                .items
                .len();
            Probe {
                id: tu.id,
                mid,
                edge,
                where_hits,
                when_hits,
            }
        })
        .collect();

    let total: usize = all.iter().map(|b| b.trajectories.len()).sum();
    std::thread::scope(|scope| {
        let store = &store;
        let probes = &probes;
        let writer = scope.spawn(move || {
            for batch in &all[1..] {
                store.ingest(batch).unwrap();
            }
        });
        for t in 0..4 {
            scope.spawn(move || {
                for round in 0..60 {
                    let probe = &probes[(t * 13 + round) % probes.len()];
                    let w = store
                        .where_query(probe.id, probe.mid, 0.0, PageRequest::all())
                        .unwrap();
                    assert_eq!(w.items.len(), probe.where_hits, "id {}", probe.id);
                    let n = store
                        .when_query(probe.id, probe.edge, 0.5, 0.0, PageRequest::all())
                        .unwrap();
                    assert_eq!(n.items.len(), probe.when_hits, "id {}", probe.id);
                    // Range answers grow monotonically but must always
                    // contain every pre-ingest match they contained.
                    let bounds = store.network().bounding_rect();
                    let r = store
                        .range_query(&bounds, probe.mid, 0.0, PageRequest::all())
                        .unwrap();
                    assert!(r.items.windows(2).all(|w| w[0] < w[1]), "ids ascend");
                }
            });
        }
        writer.join().unwrap();
    });
    assert_eq!(store.len(), total);
}

/// The same stress shape across the sharded facade: per-shard
/// compression fan-out, facade republication, concurrent readers.
#[test]
fn concurrent_sharded_ingest_and_queries_stress() {
    let (net, all) = batches(12, 46);
    let p = params(&all[0]);
    let store = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .shard_by(Arc::new(ByTime { interval_s: 120 }), 3)
        .unwrap()
        .ingest(&all[0])
        .unwrap()
        .finish()
        .unwrap();

    let first = &all[0].trajectories;
    let baseline: Vec<(u64, i64, usize)> = first
        .iter()
        .map(|tu| {
            let mid = (tu.times[0] + tu.times[tu.times.len() - 1]) / 2;
            let hits = store
                .where_query(tu.id, mid, 0.0, PageRequest::all())
                .unwrap()
                .items
                .len();
            (tu.id, mid, hits)
        })
        .collect();

    let total: usize = all.iter().map(|b| b.trajectories.len()).sum();
    std::thread::scope(|scope| {
        let store = &store;
        let baseline = &baseline;
        let writer = scope.spawn(move || {
            for batch in &all[1..] {
                store.ingest(batch).unwrap();
            }
        });
        for t in 0..4 {
            scope.spawn(move || {
                for round in 0..60 {
                    let (id, mid, hits) = baseline[(t * 7 + round) % baseline.len()];
                    let w = store.where_query(id, mid, 0.0, PageRequest::all()).unwrap();
                    assert_eq!(w.items.len(), hits, "id {id}");
                    let bounds = store.network().bounding_rect();
                    let r = store
                        .range_query(&bounds, mid, 0.0, PageRequest::all())
                        .unwrap();
                    assert!(r.items.windows(2).all(|w| w[0] < w[1]));
                }
            });
        }
        writer.join().unwrap();
    });
    assert_eq!(store.len(), total);

    // A consistent checkpoint taken after the dust settles reopens whole.
    let mut bytes = Vec::new();
    store.write(&mut bytes).unwrap();
    assert_eq!(Store::read(&mut bytes.as_slice()).unwrap().len(), total);
}

/// Epoch-keyed decode-cache entries: post-ingest queries repopulate
/// under the new epoch and answers stay byte-identical to a cold store.
#[test]
fn cache_stays_correct_across_epochs() {
    let (net, batches) = batches(9, 47);
    let p = params(&batches[0]);
    let store = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .ingest(&batches[0])
        .unwrap()
        .finish()
        .unwrap();
    let probe_id = batches[0].trajectories[0].id;
    let times = store.decode_times(probe_id).unwrap().unwrap();
    let mid = (times[0] + times[times.len() - 1]) / 2;

    // Warm the epoch-0 cache, ingest, then query again: the epoch-1
    // lookups miss (different keys) but answer identically.
    let warm = store
        .where_query(probe_id, mid, 0.0, PageRequest::all())
        .unwrap()
        .into_items();
    store.ingest(&batches[1]).unwrap();
    let after = store
        .where_query(probe_id, mid, 0.0, PageRequest::all())
        .unwrap()
        .into_items();
    assert_eq!(warm, after);

    // Against a from-scratch store over both batches (cache cold), the
    // answers are also identical.
    let fresh = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .ingest(&batches[0])
        .unwrap()
        .ingest(&batches[1])
        .unwrap()
        .finish()
        .unwrap();
    let cold = fresh
        .where_query(probe_id, mid, 0.0, PageRequest::all())
        .unwrap()
        .into_items();
    assert_eq!(after, cold);
}

/// Batch-partition invariance: however a workload is sliced into ingest
/// batches, the published store serializes byte-identically to a
/// one-shot offline build. Seeded random partitions (batch sizes
/// 1..=64) over 1200 trajectories deliberately cross the 1024 chunk
/// seal at different offsets, for both store shapes.
#[test]
fn random_batch_partitions_match_one_shot_build() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let (net, full) = cheap_dataset(1_200, 51);
    let p = params(&full);
    let policy = || Arc::new(ByTime { interval_s: 120 });

    let offline_single = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .ingest(&full)
        .unwrap()
        .finish()
        .unwrap();
    let single_bytes = container_bytes_single(&offline_single);
    let offline_sharded = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .shard_by(policy(), 3)
        .unwrap()
        .ingest(&full)
        .unwrap()
        .finish()
        .unwrap();
    let mut sharded_bytes = Vec::new();
    offline_sharded.write(&mut sharded_bytes).unwrap();

    for partition_seed in [61u64, 62] {
        let mut rng = StdRng::seed_from_u64(partition_seed);
        let mut batches = Vec::new();
        let mut i = 0;
        while i < full.trajectories.len() {
            let take = rng.gen_range(1..=64usize).min(full.trajectories.len() - i);
            batches.push(Dataset {
                name: full.name.clone(),
                default_interval: full.default_interval,
                trajectories: full.trajectories[i..i + take].to_vec(),
            });
            i += take;
        }

        // Replay every batch through the live single-store writer,
        // bootstrapping from an empty store.
        let live = StoreBuilder::new(Arc::clone(&net), p)
            .stiu_params(STIU)
            .finish()
            .unwrap();
        for b in &batches {
            live.ingest(b).unwrap();
        }
        assert_eq!(live.len(), full.trajectories.len());
        assert_eq!(
            container_bytes_single(&live),
            single_bytes,
            "partition seed {partition_seed}: live batching must not leak into the container"
        );

        // And through the sharded facade.
        let live_sharded = StoreBuilder::new(Arc::clone(&net), p)
            .stiu_params(STIU)
            .shard_by(policy(), 3)
            .unwrap()
            .finish()
            .unwrap();
        for b in &batches {
            live_sharded.ingest(b).unwrap();
        }
        let mut live_bytes = Vec::new();
        live_sharded.write(&mut live_bytes).unwrap();
        assert_eq!(
            live_bytes, sharded_bytes,
            "partition seed {partition_seed}: sharded live batching must not leak into the container"
        );
    }
}

/// Mid-walk stress across chunk seals: a paginated walk pinned before
/// three publishes — each of which seals a 1024-trajectory chunk —
/// still yields exactly the pre-ingest item sequence, and the decode
/// cache answers identically to a cold store over the chunked state.
#[test]
fn pinned_walk_survives_chunk_sealing_publishes() {
    let (net, mut full) = cheap_dataset(4_072, 52);
    let p = params(&full);

    // base = 1000, then 1024-sized batches: each publish crosses (and
    // seals) exactly one chunk boundary — 1024, 2048, then 3072.
    let split = |ds: &mut Dataset, at: usize| Dataset {
        name: ds.name.clone(),
        default_interval: ds.default_interval,
        trajectories: ds.trajectories.split_off(at),
    };
    let mut rest = split(&mut full, 1_000);
    let mut b2 = split(&mut rest, 1_024);
    let b3 = split(&mut b2, 1_024);
    let (base, b1) = (full, rest);

    // One live store at one partition and one at three, each pinned at
    // the base.
    let stores = [1, 3].map(|parts| {
        let b = builder(&net, p, parts).ingest(&base).unwrap();
        b.finish().unwrap()
    });
    let pins = stores.each_ref().map(Store::snapshot);
    let probe_id = base.trajectories[0].id;
    let times = stores[0].decode_times(probe_id).unwrap().unwrap();
    let mid = (times[0] + times[times.len() - 1]) / 2;
    let full_where = pins[0]
        .where_query(probe_id, mid, 0.0, PageRequest::all())
        .unwrap()
        .into_items();
    let warm = stores[0]
        .where_query(probe_id, mid, 0.0, PageRequest::all())
        .unwrap()
        .into_items();

    // Walk one item per page; the three sealing publishes land after
    // the first page.
    for (store, pinned) in stores.iter().zip(&pins) {
        let parts = store.shard_count();
        let walked = walk(
            |req| pinned.where_query(probe_id, mid, 0.0, req).unwrap(),
            || {
                for (i, b) in [&b1, &b2, &b3].into_iter().enumerate() {
                    let report = store.ingest(b).unwrap();
                    assert_eq!(report.epoch, i as u64 + 1);
                }
            },
        );
        assert_eq!(
            walked, full_where,
            "{parts} partitions: a pinned walk across chunk-sealing publishes yields pre-ingest answers"
        );
        assert_eq!(pinned.len(), 1_000, "{parts} partitions");
        assert_eq!(store.len(), 4_072, "{parts} partitions");
    }
    let (store, pinned) = (&stores[0], &pins[0]);

    // Cross-epoch decode-cache equivalence over the chunked state: the
    // warmed store answers like before the publishes, and like a
    // one-shot cold store over all four chunks.
    let after = store
        .where_query(probe_id, mid, 0.0, PageRequest::all())
        .unwrap()
        .into_items();
    assert_eq!(warm, after);
    let fresh = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .ingest(&base)
        .unwrap()
        .ingest(&b1)
        .unwrap()
        .ingest(&b2)
        .unwrap()
        .ingest(&b3)
        .unwrap()
        .finish()
        .unwrap();
    let cold = fresh
        .where_query(probe_id, mid, 0.0, PageRequest::all())
        .unwrap()
        .into_items();
    assert_eq!(after, cold);
    let new_id = b3.trajectories[0].id;
    assert!(pinned.locate(new_id).is_none());
    assert!(store.locate(new_id).is_some());

    // The range path over sealed segments: the live-grown store, the
    // offline build, its reopened v2 bytes, a 3-shard store and its
    // reopened v3 bytes page identically at a `tq` in every interval
    // the index holds — walked with limits 1 and 7 first, then
    // unpaginated.
    let v2 = Store::read(&mut container_bytes_single(&fresh).as_slice()).unwrap();
    let sharded = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .shard_by(Arc::new(ByTime { interval_s: 120 }), 3)
        .unwrap()
        .ingest(&base)
        .unwrap()
        .ingest(&b1)
        .unwrap()
        .ingest(&b2)
        .unwrap()
        .ingest(&b3)
        .unwrap()
        .finish()
        .unwrap();
    let mut v3_bytes = Vec::new();
    sharded.write(&mut v3_bytes).unwrap();
    let v3 = Store::read(&mut v3_bytes.as_slice()).unwrap();
    let targets: [(&str, &dyn QueryTarget); 6] = [
        ("live", store),
        ("offline", &fresh),
        ("v2", &v2),
        ("sharded", &sharded),
        ("v3", &v3),
        ("live sharded", &stores[1]),
    ];
    let b = net.bounding_rect();
    let re = Rect::new(b.min_x, b.min_y, b.min_x + 0.6 * b.width(), b.max_y);
    let alpha = 0.3;
    let keys = fresh.snapshots()[0].stiu().intervals();
    assert!(keys.len() > 1, "the walk below must cross intervals");
    let queries: Vec<RangeQuery> = keys
        .iter()
        .map(|k| RangeQuery {
            re,
            tq: k * STIU.partition_s + STIU.partition_s / 2,
            alpha,
        })
        .collect();
    let range_walk = |t: &dyn QueryTarget, tq: i64, limit: usize| {
        let mut pages = Vec::new();
        let mut req = PageRequest::first(limit);
        loop {
            let page = t.range_query(&re, tq, alpha, req).unwrap();
            let next = page.next_cursor;
            pages.push((page.items, page.has_more));
            match next {
                Some(c) => req = PageRequest::after(c, limit),
                None => return pages,
            }
        }
    };
    let mut whole = Vec::new();
    let mut hits = 0;
    for q in &queries {
        for limit in [1, 7, usize::MAX] {
            let want = range_walk(targets[0].1, q.tq, limit);
            for (name, t) in &targets[1..] {
                assert_eq!(
                    range_walk(*t, q.tq, limit),
                    want,
                    "{name} tq {} limit {limit}",
                    q.tq
                );
            }
            // The views pinned at the base agree at both partition counts.
            let base_pages = range_walk(&**pinned, q.tq, limit);
            assert_eq!(range_walk(&*pins[1], q.tq, limit), base_pages, "pinned");
            if limit == usize::MAX {
                assert_eq!(want.len(), 1, "an unpaginated answer is one page");
                hits += want[0].0.len();
                whole.push(want[0].0.clone());
            }
        }
    }
    assert!(hits > 0, "the probe region must match something");
    for (name, t) in [targets[0], targets[3]] {
        assert_eq!(t.par_range_query(&queries).unwrap(), whole, "{name}");
    }
}

/// A paginated **range** walk that straddles a live ingest, with the
/// decode cache warm on both sides of the publish.
///
/// * A walk on the *store* resumes with its pre-ingest cursor and sees
///   the post-ingest epoch from that point on (keyset semantics: the
///   remainder equals the fresh full answer past the cursor).
/// * A walk on a *pinned snapshot* completes entirely in the
///   pre-ingest epoch, reading through the same cache as the store.
/// * A live-grown store answers the warm range workload byte-identical
///   to an offline build over the same batches.
#[test]
fn paginated_range_walk_resumes_across_mid_walk_ingest() {
    let (net, mut batches) = batches(12, 46);
    // The generator scatters start times across a day, so spans rarely
    // overlap and no instant matches more than one trajectory. Shift
    // every span onto a common window (a constant shift keeps the time
    // sequence strictly increasing and the trajectory valid) so the
    // walk has several pages to straddle the ingest with.
    for b in &mut batches {
        for (i, tu) in b.trajectories.iter_mut().enumerate() {
            let shift = 10_000 + (i as i64 % 3) * 40 - tu.times[0];
            for t in &mut tu.times {
                *t += shift;
            }
        }
    }
    let p = params(&batches[0]);
    let store = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .ingest(&batches[0])
        .unwrap()
        .finish()
        .unwrap();
    let bounds = net.bounding_rect();
    let tq = 10_150;

    // Warm the decode cache with the complete pre-ingest answer.
    let pre_full = store
        .range_query(&bounds, tq, 0.0, PageRequest::all())
        .unwrap()
        .into_items();
    assert!(
        pre_full.len() >= 2,
        "need a multi-page answer to straddle the ingest"
    );
    let pinned = store.snapshot();

    // First page on the store and first page on the pinned snapshot.
    let store_p1 = store
        .range_query(&bounds, tq, 0.0, PageRequest::first(1))
        .unwrap();
    let store_cursor = store_p1.next_cursor.expect("more than one match");
    let pin_p1 = pinned
        .range_query(&bounds, tq, 0.0, PageRequest::first(1))
        .unwrap();
    let pin_cursor = pin_p1.next_cursor.expect("more than one match");

    // Publish two more batches mid-walk and warm the cache with the
    // *new* epoch's complete answer too.
    store.ingest(&batches[1]).unwrap();
    store.ingest(&batches[2]).unwrap();
    let post_full = store
        .range_query(&bounds, tq, 0.0, PageRequest::all())
        .unwrap()
        .into_items();
    assert!(
        post_full.len() > pre_full.len(),
        "ingest must add matches for the test to bite"
    );

    // The store walk resumes on the new epoch: keyset remainder.
    let mut store_walked = store_p1.items.clone();
    let mut req = PageRequest::after(store_cursor, 1);
    loop {
        let page = store.range_query(&bounds, tq, 0.0, req).unwrap();
        store_walked.extend(page.items);
        match page.next_cursor {
            Some(c) => req = PageRequest::after(c, 1),
            None => break,
        }
    }
    let last_pre = store_p1.items[0];
    let expect: Vec<u64> = store_p1
        .items
        .iter()
        .copied()
        .chain(post_full.iter().copied().filter(|&id| id > last_pre))
        .collect();
    assert_eq!(
        store_walked, expect,
        "resumed store walk = first page + post-ingest remainder past the cursor"
    );

    // The pinned walk stays entirely in the pre-ingest epoch.
    let mut pin_walked = pin_p1.items.clone();
    let mut req = PageRequest::after(pin_cursor, 1);
    loop {
        let page = pinned.range_query(&bounds, tq, 0.0, req).unwrap();
        pin_walked.extend(page.items);
        match page.next_cursor {
            Some(c) => req = PageRequest::after(c, 1),
            None => break,
        }
    }
    assert_eq!(
        pin_walked, pre_full,
        "pinned walk must never observe the newer epoch's matches"
    );

    // Live-grown vs offline-built, warm cache on both: byte-identical.
    let offline = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .ingest(&batches[0])
        .unwrap()
        .ingest(&batches[1])
        .unwrap()
        .ingest(&batches[2])
        .unwrap()
        .finish()
        .unwrap();
    offline
        .range_query(&bounds, tq, 0.0, PageRequest::all())
        .unwrap();
    for alpha in [0.0, 0.3, 1.0] {
        let a = store
            .range_query(&bounds, tq, alpha, PageRequest::all())
            .unwrap()
            .into_items();
        let b = offline
            .range_query(&bounds, tq, alpha, PageRequest::all())
            .unwrap()
            .into_items();
        assert_eq!(a, b, "live vs offline warm range (alpha {alpha})");
    }
}

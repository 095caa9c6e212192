//! Publish-cost acceptance test: ingesting a batch into a live store
//! must copy O(batch) bytes, not O(store).
//!
//! The snapshot layer shares sealed segments (`utcq::core::segment`,
//! `utcq::core::chunk`) across epochs, so preparing the next epoch
//! clones segment *directories* and copy-on-writes only the unsealed
//! tails. Every such copy reports through `utcq::core::hooks::copied`
//! what it copied: the bytes in use of each flat table of the tail (the
//! trajectory, instance and plan rows, the stream arena and its offsets,
//! the three tuple tables, the interval postings, the id map's hash
//! table, and a partitioned store's id → partition map), which is
//! everything a publish copies. This test grows stores to 1k / 10k / 50k
//! trajectories, in one partition and in three (`ByTime`), publishes one
//! identical-shaped batch into each, and asserts the copied-byte counts
//! do not scale with the store (a 50k-store publish must stay within 2x
//! of the 1k-store publish). A partition the batch does not touch keeps
//! its very snapshot.
//!
//! The same test also re-checks the container invariant under segmenting:
//! a store grown across the 1024-trajectory segment-seal boundary by live
//! ingest serializes byte-identically to an offline build, in one
//! partition and in three.
//!
//! Everything lives in ONE `#[test]` on purpose: the copied-bytes
//! counter is process-global and tests in a binary run on parallel
//! threads, so concurrent ingests would pollute a differenced reading.

use std::sync::Arc;

use utcq::core::hooks;
use utcq::core::shard::{ByTime, ShardPolicy};
use utcq::core::{CompressParams, QueryTarget, StiuParams, Store, StoreBuilder};
use utcq::datagen::{generate_network, generate_on_network, profile, GenOptions};
use utcq::network::RoadNetwork;
use utcq::traj::{Dataset, UncertainTrajectory};

const STIU: StiuParams = StiuParams {
    partition_s: 900,
    grid_n: 8,
};

/// Batch published into each store; identical shape at every store size
/// so the copied-byte counts are comparable.
const BATCH: usize = 64;

/// A deliberately cheap profile: the 50k-trajectory store must be
/// affordable under a debug build, and publish cost does not depend on
/// how interesting the trajectories are.
fn cheap_profile() -> utcq::datagen::DatasetProfile {
    let mut p = profile::tiny();
    p.avg_instances = 1.5;
    p.max_instances = 2;
    p.avg_edges = 4.0;
    p.max_edges = 8;
    p
}

/// One dataset of `n + BATCH` trajectories split into a base (`n`) and
/// an ingest batch (`BATCH`); splitting one generation keeps ids unique
/// across the pair.
fn base_and_batch(net: &RoadNetwork, n: usize, seed: u64) -> (Dataset, Dataset) {
    let p = cheap_profile();
    let mut base = generate_on_network(
        net,
        &p,
        &GenOptions {
            n_trajectories: n + BATCH,
            seed,
            min_instances: 1,
            max_samples: 4,
            variants: Default::default(),
        },
    );
    assert_eq!(base.trajectories.len(), n + BATCH, "generator fell short");
    let tail = base.trajectories.split_off(n);
    let batch = Dataset {
        name: base.name.clone(),
        default_interval: base.default_interval,
        trajectories: tail,
    };
    (base, batch)
}

fn build_store(net: &Arc<RoadNetwork>, base: &Dataset) -> Store {
    StoreBuilder::new(
        Arc::clone(net),
        CompressParams::with_interval(base.default_interval),
    )
    .stiu_params(STIU)
    .ingest(base)
    .unwrap()
    .finish()
    .unwrap()
}

/// How the partitioned stores route: three partitions by start hour.
const BY_HOUR: ByTime = ByTime { interval_s: 3_600 };

fn build_partitioned(net: &Arc<RoadNetwork>, base: &Dataset) -> Store {
    StoreBuilder::new(
        Arc::clone(net),
        CompressParams::with_interval(base.default_interval),
    )
    .stiu_params(STIU)
    .shard_by(Arc::new(BY_HOUR), 3)
    .unwrap()
    .ingest(base)
    .unwrap()
    .finish()
    .unwrap()
}

/// Publishes `batch` into a partitioned store and checks that exactly
/// the partitions it routes to got a new snapshot; returns how many kept
/// theirs.
fn publish_keeping_untouched(net: &RoadNetwork, store: &Store, batch: &Dataset) -> usize {
    let before = store.snapshots();
    store.ingest(batch).unwrap();
    let after = store.snapshots();
    let mut kept = 0;
    for (s, (old, new)) in before.iter().zip(&after).enumerate() {
        let routes = |tu: &UncertainTrajectory| BY_HOUR.route(net, tu, 3) == s as u32;
        let touched = batch.trajectories.iter().any(routes);
        assert_eq!(Arc::ptr_eq(old, new), !touched, "partition {s}");
        kept += usize::from(!touched);
    }
    kept
}

/// Copied bytes attributable to publishing `batch` into `store`.
fn copied_during_publish(store: &Store, batch: &Dataset) -> u64 {
    let before = hooks::copied_bytes();
    store.ingest(batch).unwrap();
    hooks::copied_bytes() - before
}

#[test]
fn publish_copies_o_batch_not_o_store() {
    let net = Arc::new(generate_network(&cheap_profile(), 7));

    // --- Copy-cost ladder: 1k, 10k, 50k, in 1 and in 3 partitions ----
    let mut copied = Vec::new();
    for (n, seed) in [(1_000usize, 11u64), (10_000, 12), (50_000, 13)] {
        let (base, batch) = base_and_batch(&net, n, seed);
        let single = build_store(&net, &base);
        let partitioned = build_partitioned(&net, &base);
        let before = hooks::copied_bytes();
        publish_keeping_untouched(&net, &partitioned, &batch);
        let partitioned_bytes = hooks::copied_bytes() - before;
        let bytes = [copied_during_publish(&single, &batch), partitioned_bytes];
        for store in [&single, &partitioned] {
            assert_eq!(store.len(), n + BATCH);
        }
        assert!(
            bytes.iter().all(|&b| b > 0),
            "publishing into a shared snapshot must CoW at least the tail chunk"
        );
        copied.push((n, bytes));
        // One more trajectory touches one partition; the other two keep
        // their snapshots.
        let mut one = batch.clone();
        one.trajectories.truncate(1);
        one.trajectories[0].id = u64::MAX;
        assert_eq!(publish_keeping_untouched(&net, &partitioned, &one), 2);
    }
    let at = |n: usize| copied.iter().find(|(m, _)| *m == n).unwrap().1;
    for (shape, k) in [("1-partition", 0), ("3-partition", 1)] {
        for n in [10_000, 50_000] {
            assert!(
                at(n)[k] <= 2 * at(1_000)[k],
                "{shape} publish copy cost scales with the store, not the batch: \
                 1k-store publish copied {} bytes, {n}-store publish copied {} bytes",
                at(1_000)[k],
                at(n)[k]
            );
        }
    }

    // --- Byte-identity across the chunk-seal boundary ----------------
    // A 1000-trajectory base plus a 64-trajectory live batch crosses
    // the 1024 seal: the live-grown chunk layout must serialize exactly
    // like the offline build.
    let (base, batch) = base_and_batch(&net, 1_000, 21);
    let p = CompressParams::with_interval(base.default_interval);

    let offline = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .ingest(&base)
        .unwrap()
        .ingest(&batch)
        .unwrap()
        .finish()
        .unwrap();
    let live = build_store(&net, &base);
    live.ingest(&batch).unwrap();
    let (mut live_bytes, mut offline_bytes) = (Vec::new(), Vec::new());
    live.write(&mut live_bytes).unwrap();
    offline.write(&mut offline_bytes).unwrap();
    assert_eq!(
        live_bytes, offline_bytes,
        "live growth across a chunk seal must serialize like the offline build"
    );
    assert_eq!(
        Store::read(&mut live_bytes.as_slice()).unwrap().len(),
        1_064
    );

    // Same invariant for a partitioned store.
    let policy = || Arc::new(BY_HOUR);
    let sharded_offline = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .shard_by(policy(), 3)
        .unwrap()
        .ingest(&base)
        .unwrap()
        .ingest(&batch)
        .unwrap()
        .finish()
        .unwrap();
    let sharded_live = StoreBuilder::new(Arc::clone(&net), p)
        .stiu_params(STIU)
        .shard_by(policy(), 3)
        .unwrap()
        .ingest(&base)
        .unwrap()
        .finish()
        .unwrap();
    sharded_live.ingest(&batch).unwrap();
    let (mut sl, mut so) = (Vec::new(), Vec::new());
    sharded_live.write(&mut sl).unwrap();
    sharded_offline.write(&mut so).unwrap();
    assert_eq!(
        sl, so,
        "sharded live growth must serialize like the offline build"
    );
    assert_eq!(Store::read(&mut sl.as_slice()).unwrap().len(), 1_064);
}

//! Golden digests of written containers.
//!
//! The v8 container a [`StoreBuilder`] writes for `generate(profile, n,
//! 7)` folds into one FNV-1a digest per store shape: `dk`, `cd`, `hz`
//! and `tiny` at one partition with 2,100 trajectories (two sealed
//! segments and a tail), and `cd` at two `ByTime` partitions that each
//! seal at least two segments. The same bytes must come out of a store
//! grown by `Store::ingest` in batches of 500 and out of a store
//! reopened and saved again. A change meant to keep the container's
//! bytes (a new in-memory layout, a faster writer) must leave every
//! digest as it is.

use std::sync::Arc;

use utcq_core::{ByTime, CompressParams, Store, StoreBuilder};
use utcq_datagen::{generate, profile, DatasetProfile};
use utcq_traj::Dataset;

const SEED: u64 = 7;
const BATCH: usize = 500;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn written(store: &Store) -> Vec<u8> {
    let mut bytes = Vec::new();
    store.write(&mut bytes).unwrap();
    bytes
}

/// A builder over `ds`'s network, routed to `shards` time partitions if
/// given.
fn builder(
    net: &Arc<utcq_network::RoadNetwork>,
    ds: &Dataset,
    shards: Option<u32>,
) -> StoreBuilder {
    let params = CompressParams::with_interval(ds.default_interval);
    let b = StoreBuilder::new(Arc::clone(net), params).name(&ds.name);
    match shards {
        Some(n) => b.shard_by(Arc::new(ByTime::default()), n).unwrap(),
        None => b,
    }
}

/// The digest of the container of `n` trajectories of `p`, checked to be
/// the one a store grown batch by batch and a reopened store write too.
/// Every partition must hold at least `sealed` full segments.
fn digest(p: &DatasetProfile, n: usize, shards: Option<u32>, sealed: usize) -> u64 {
    let (net, ds) = generate(p, n, SEED);
    assert_eq!(ds.trajectories.len(), n);
    let net = Arc::new(net);
    let store = builder(&net, &ds, shards)
        .ingest(&ds)
        .unwrap()
        .finish()
        .unwrap();
    for part in store.snapshots() {
        let len = part.len();
        assert!(
            len >= sealed * utcq_core::chunk::CHUNK,
            "partition of {len}"
        );
    }
    let bytes = written(&store);

    let grown = builder(&net, &ds, shards).finish().unwrap();
    for batch in ds.trajectories.chunks(BATCH) {
        let batch = Dataset {
            name: ds.name.clone(),
            default_interval: ds.default_interval,
            trajectories: batch.to_vec(),
        };
        grown.ingest(&batch).unwrap();
    }
    assert!(written(&grown) == bytes, "grown by ingest");

    let reopened = Store::read(&mut bytes.as_slice()).unwrap();
    assert!(written(&reopened) == bytes, "reopened and saved again");
    fnv(&bytes)
}

#[test]
fn dk_container_is_pinned() {
    assert_eq!(
        digest(&profile::dk(), 2_100, None, 2),
        0x30d2_29f8_bf64_e460
    );
}

#[test]
fn cd_container_is_pinned() {
    assert_eq!(
        digest(&profile::cd(), 2_100, None, 2),
        0x0655_b05b_2820_45a8
    );
}

#[test]
fn hz_container_is_pinned() {
    assert_eq!(
        digest(&profile::hz(), 2_100, None, 2),
        0x3d79_f8cc_4910_acaa
    );
}

#[test]
fn tiny_container_is_pinned() {
    assert_eq!(
        digest(&profile::tiny(), 2_100, None, 2),
        0x7b47_e4bc_e7e4_3b10
    );
}

#[test]
fn cd_two_partition_container_is_pinned() {
    assert_eq!(
        digest(&profile::cd(), 4_400, Some(2), 2),
        0xccd5_7c22_df83_4acf
    );
}

//! Routing policies and the cursor rule of a partitioned store.
//!
//! [`crate::StoreBuilder::shard_by`] gives a [`crate::Store`] N
//! partitions and a [`ShardPolicy`] that places each trajectory at
//! ingest time — by time interval ([`ByTime`]) or by road-network region
//! ([`ByRegion`]); such a store saves as a v3 container whose directory
//! records the policy ([`ShardSpec`]). Each partition is a complete
//! [`crate::Snapshot`], so a batch compresses per partition in parallel.
//! **where/when** run on the owning partition; **range** merges every
//! partition's candidates into one id-ascending scan, so answers and
//! page boundaries do not depend on the partitioning
//! (`tests/shard_equivalence.rs`).
//!
//! Cursors are opaque `u64`s, one rule for every partition count:
//!
//! * **where/when** — the owning partition in the high 16 bits, the
//!   partition-local offset in the low 48 (with one partition, the offset
//!   itself). A cursor whose tag is not the owning partition fails with
//!   [`crate::Error::InvalidCursor`] instead of paginating wrong.
//! * **range** — keyset-style, the last returned trajectory id, so
//!   interchangeable between stores over the same dataset.
//!
//! Routing of an ingested id never changes and ingest only appends, so
//! cursors minted before a live ingest stay valid after it.

use std::sync::Arc;

use utcq_network::{Grid, RoadNetwork};
use utcq_traj::UncertainTrajectory;

use crate::error::Error;
use crate::storage::{ShardDirectory, POLICY_CUSTOM, POLICY_REGION, POLICY_TIME};

/// Maximum number of partitions a store may have (the partition tag of
/// a where/when cursor is 16 bits).
pub const MAX_SHARDS: u32 = 1 << 16;

/// Rejects a partition count outside `1..=MAX_SHARDS`.
pub(crate) fn check_shard_count(n: usize) -> Result<(), Error> {
    match n {
        0 => Err(Error::ShardConfig("shard count must be at least 1")),
        n if n > MAX_SHARDS as usize => Err(Error::ShardConfig("shard count exceeds 65536")),
        _ => Ok(()),
    }
}

/// Bits of a where/when cursor holding the partition-local cursor.
const LOCAL_CURSOR_BITS: u32 = 48;
const LOCAL_CURSOR_MASK: u64 = (1 << LOCAL_CURSOR_BITS) - 1;

/// The store-wide cursor of `local` on partition `shard`.
pub(crate) fn encode_cursor(shard: u32, local: u64) -> u64 {
    debug_assert!(local <= LOCAL_CURSOR_MASK, "local cursor overflows 48 bits");
    (u64::from(shard) << LOCAL_CURSOR_BITS) | (local & LOCAL_CURSOR_MASK)
}

/// The `(partition, local cursor)` a store-wide cursor names.
pub(crate) fn decode_cursor(global: u64) -> (u32, u64) {
    (
        (global >> LOCAL_CURSOR_BITS) as u32,
        global & LOCAL_CURSOR_MASK,
    )
}

/// Routes trajectories to partitions at ingest time.
///
/// A policy must be **deterministic** — the same trajectory must route
/// to the same partition on every call — because duplicate-id detection
/// and the store's id map rely on a stable placement. Built-in policies
/// ([`ByTime`], [`ByRegion`]) also serialize into the v3 shard
/// directory; custom implementations are recorded as `custom` (the
/// container still opens and queries — but a reopened custom-policy
/// store cannot route new batches, so [`crate::Store::ingest`]
/// rejects it). A store checks a batch (edges, shape, interval) before
/// it routes any of it.
pub trait ShardPolicy: Send + Sync {
    /// The partition (in `0..n_shards`) that should own `tu`.
    fn route(&self, net: &RoadNetwork, tu: &UncertainTrajectory, n_shards: u32) -> u32;

    /// The serializable spec of a built-in policy; `None` for custom
    /// policies.
    fn spec(&self) -> Option<ShardSpec> {
        None
    }
}

/// Serializable description of a built-in [`ShardPolicy`] — what the v3
/// shard directory records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSpec {
    /// [`ByTime`] with the given bucket width in seconds.
    ByTime {
        /// Time-bucket width in seconds.
        interval_s: i64,
    },
    /// [`ByRegion`] with the given routing-grid dimension.
    ByRegion {
        /// Routing grid dimension (`grid_n × grid_n` cells).
        grid_n: u32,
    },
}

impl ShardSpec {
    /// Instantiates the policy this spec describes.
    ///
    /// ```
    /// use utcq_core::shard::ShardSpec;
    /// let policy = ShardSpec::ByTime { interval_s: 900 }.policy();
    /// assert_eq!(policy.spec(), Some(ShardSpec::ByTime { interval_s: 900 }));
    /// ```
    pub fn policy(self) -> Arc<dyn ShardPolicy> {
        match self {
            ShardSpec::ByTime { interval_s } => Arc::new(ByTime { interval_s }),
            ShardSpec::ByRegion { grid_n } => Arc::new(ByRegion { grid_n }),
        }
    }

    pub(crate) fn directory(spec: Option<ShardSpec>) -> ShardDirectory {
        let (kind, param) = match spec {
            Some(ShardSpec::ByTime { interval_s }) => (POLICY_TIME, interval_s),
            Some(ShardSpec::ByRegion { grid_n }) => (POLICY_REGION, i64::from(grid_n)),
            None => (POLICY_CUSTOM, 0),
        };
        ShardDirectory { kind, param }
    }

    pub(crate) fn from_directory(dir: ShardDirectory) -> Option<ShardSpec> {
        match dir.kind {
            POLICY_TIME => Some(ShardSpec::ByTime {
                interval_s: dir.param.max(1),
            }),
            POLICY_REGION => Some(ShardSpec::ByRegion {
                grid_n: u32::try_from(dir.param).unwrap_or(1).max(1),
            }),
            _ => None,
        }
    }
}

/// Time-interval routing: trajectories whose first sample falls in the
/// same `interval_s`-second bucket land on the same partition; buckets
/// round-robin across partitions, so contiguous time ranges spread
/// evenly.
#[derive(Debug, Clone, Copy)]
pub struct ByTime {
    /// Bucket width in seconds (clamped to ≥ 1).
    pub interval_s: i64,
}

impl Default for ByTime {
    /// Hour-wide buckets.
    fn default() -> Self {
        Self { interval_s: 3600 }
    }
}

impl ShardPolicy for ByTime {
    fn route(&self, _net: &RoadNetwork, tu: &UncertainTrajectory, n_shards: u32) -> u32 {
        let t0 = tu.times.first().copied().unwrap_or(0);
        t0.div_euclid(self.interval_s.max(1))
            .rem_euclid(i64::from(n_shards)) as u32
    }

    fn spec(&self) -> Option<ShardSpec> {
        Some(ShardSpec::ByTime {
            interval_s: self.interval_s,
        })
    }
}

/// Region routing: a coarse `grid_n × grid_n` grid over the network's
/// bounding rectangle; a trajectory lands on the partition of the cell
/// its most probable instance starts in, so trajectories beginning in
/// the same area co-locate.
#[derive(Debug, Clone, Copy)]
pub struct ByRegion {
    /// Routing grid dimension (clamped to ≥ 1). Independent of the StIU
    /// grid — this one only routes.
    pub grid_n: u32,
}

impl Default for ByRegion {
    /// An 8 × 8 routing grid.
    fn default() -> Self {
        Self { grid_n: 8 }
    }
}

impl ShardPolicy for ByRegion {
    fn route(&self, net: &RoadNetwork, tu: &UncertainTrajectory, n_shards: u32) -> u32 {
        if tu.instances.is_empty() {
            return 0;
        }
        let grid = Grid::over_network(net, self.grid_n.max(1));
        let inst = tu.top_instance();
        let loc = inst.location(net, 0);
        let cell = grid.cell_of(net.point_on_edge(loc.edge, loc.ndist));
        cell.0 % n_shards
    }

    fn spec(&self) -> Option<ShardSpec> {
        Some(ShardSpec::ByRegion {
            grid_n: self.grid_n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CompressParams;
    use crate::query::{PageRequest, QueryTarget};
    use crate::stiu::StiuParams;
    use crate::store::{Store, StoreBuilder};
    use utcq_network::Rect;
    use utcq_traj::{paper_fixture, Dataset};

    fn paper_dataset() -> (Arc<RoadNetwork>, Dataset) {
        let fx = paper_fixture::build();
        let ds = Dataset {
            name: "paper".into(),
            default_interval: paper_fixture::DEFAULT_INTERVAL,
            trajectories: vec![fx.tu.clone()],
        };
        (Arc::new(fx.example.net.clone()), ds)
    }

    fn sharded(n: u32) -> Store {
        let (net, ds) = paper_dataset();
        StoreBuilder::new(
            net,
            CompressParams::with_interval(paper_fixture::DEFAULT_INTERVAL),
        )
        .stiu_params(StiuParams {
            partition_s: 900,
            grid_n: 4,
        })
        .shard_by(Arc::new(ByTime::default()), n)
        .unwrap()
        .ingest(&ds)
        .unwrap()
        .finish()
        .unwrap()
    }

    #[test]
    fn sharded_store_is_send_sync_and_static() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        // What partitioning adds to a `Store`: the policy it keeps.
        assert_send_sync::<Arc<dyn ShardPolicy>>();
    }

    #[test]
    fn cursor_roundtrip() {
        for (shard, local) in [(0u32, 0u64), (1, 7), (65535, LOCAL_CURSOR_MASK)] {
            let g = encode_cursor(shard, local);
            assert_eq!(decode_cursor(g), (shard, local));
        }
        // Partition 0's cursors are the local offsets themselves.
        assert_eq!(encode_cursor(0, 5), 5);
    }

    #[test]
    fn routes_are_stable_and_in_range() {
        let (net, ds) = paper_dataset();
        for n in [1u32, 2, 7] {
            for policy in [
                Arc::new(ByTime::default()) as Arc<dyn ShardPolicy>,
                Arc::new(ByRegion::default()),
            ] {
                let a = policy.route(&net, &ds.trajectories[0], n);
                let b = policy.route(&net, &ds.trajectories[0], n);
                assert_eq!(a, b);
                assert!(a < n);
            }
        }
    }

    #[test]
    fn paper_examples_answer_identically_through_shards() {
        let store = sharded(3);
        assert_eq!(store.len(), 1);
        assert_eq!(store.shard_count(), 3);
        let fx = paper_fixture::build();
        let hits = store
            .where_query(1, paper_fixture::hms(5, 21, 25), 0.25, PageRequest::all())
            .unwrap()
            .into_items();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].loc.edge, fx.example.edge(6, 7));
        let t = paper_fixture::hms(5, 5, 25);
        let all = Rect::new(-10.0, -10.0, 70.0, 10.0);
        assert_eq!(
            store
                .range_query(&all, t, 0.5, PageRequest::all())
                .unwrap()
                .into_items(),
            vec![1]
        );
    }

    #[test]
    fn unknown_id_is_empty_not_an_error() {
        let store = sharded(2);
        let page = store.where_query(99, 0, 0.0, PageRequest::all()).unwrap();
        assert!(page.items.is_empty() && !page.has_more);
    }

    #[test]
    fn foreign_shard_cursor_is_rejected() {
        for n in [1, 2] {
            let store = sharded(n);
            let shard = store.traj_shard(1).unwrap();
            let foreign = encode_cursor(shard + 1, 0);
            let r = store.where_query(
                1,
                paper_fixture::hms(5, 5, 0),
                0.0,
                PageRequest::after(foreign, 2),
            );
            assert!(matches!(r, Err(Error::InvalidCursor)), "{n} partitions");
        }
    }

    #[test]
    fn zero_shards_rejected() {
        let (net, _) = paper_dataset();
        let r = StoreBuilder::new(
            net,
            CompressParams::with_interval(paper_fixture::DEFAULT_INTERVAL),
        )
        .shard_by(Arc::new(ByTime::default()), 0);
        assert!(matches!(r, Err(Error::ShardConfig(_))));
    }

    #[test]
    fn shard_by_after_ingest_rejected() {
        let (net, ds) = paper_dataset();
        let b = StoreBuilder::new(
            net,
            CompressParams::with_interval(paper_fixture::DEFAULT_INTERVAL),
        )
        .ingest(&ds)
        .unwrap();
        assert!(matches!(
            b.shard_by(Arc::new(ByTime::default()), 2),
            Err(Error::ShardConfig(_))
        ));
    }

    #[test]
    fn live_sharded_ingest_rejects_duplicates_atomically() {
        let store = sharded(2);
        let (_, ds) = paper_dataset();
        let epoch_before = store.epoch();
        assert!(matches!(
            store.ingest(&ds),
            Err(Error::DuplicateTrajectory(1))
        ));
        assert_eq!(store.epoch(), epoch_before);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn v3_roundtrip_through_bytes() {
        let store = sharded(3);
        let mut bytes = Vec::new();
        store.write(&mut bytes).unwrap();
        assert_eq!(bytes[4], crate::storage::VERSION_V3);
        let reopened = Store::read(&mut bytes.as_slice()).unwrap();
        assert_eq!(reopened.shard_count(), 3);
        assert_eq!(reopened.len(), store.len());
        assert_eq!(
            reopened.policy_spec(),
            Some(ShardSpec::ByTime { interval_s: 3600 })
        );
        // The shared-network path: every partition holds the same Arc.
        for s in reopened.snapshots() {
            assert!(Arc::ptr_eq(s.network(), reopened.network()));
        }
    }

    #[test]
    fn reopened_builtin_policy_routes_new_batches() {
        let store = sharded(3);
        let mut bytes = Vec::new();
        store.write(&mut bytes).unwrap();
        let reopened = Store::read(&mut bytes.as_slice()).unwrap();
        // A ByTime spec survived the roundtrip, so live ingest works.
        let fx = paper_fixture::build();
        let mut tu = fx.tu.clone();
        tu.id = 77;
        let batch = Dataset {
            name: "late".into(),
            default_interval: paper_fixture::DEFAULT_INTERVAL,
            trajectories: vec![tu],
        };
        let report = reopened.ingest(&batch).unwrap();
        assert_eq!(report.ingested, 1);
        assert_eq!(report.total, 2);
        assert!(reopened.traj_shard(77).is_some());
    }

    #[test]
    fn shards_with_different_networks_rejected() {
        // Same vertex/edge counts, different geometry: a count-only
        // check would let partition 1 silently answer against partition
        // 0's coordinates.
        let blob_with = |spacing: f64, stiu: StiuParams| {
            let net = Arc::new(utcq_network::gen::line(5, spacing));
            let store = StoreBuilder::new(net, CompressParams::default())
                .stiu_params(stiu)
                .finish()
                .unwrap();
            let mut b = Vec::new();
            store.write(&mut b).unwrap();
            b
        };
        let v3 = |blobs: &[Vec<u8>]| {
            let mut bytes = Vec::new();
            let dir = ShardDirectory { kind: 0, param: 0 };
            crate::storage::save_v3(dir, blobs, &mut bytes).unwrap();
            Store::read(&mut bytes.as_slice())
        };
        let plain = StiuParams::default();
        assert!(matches!(
            v3(&[blob_with(100.0, plain), blob_with(120.0, plain)]),
            Err(Error::CorruptStore("shards embed different networks"))
        ));
        // Same network, different StIU parameters: the interval keys and
        // grid cells of the two partitions would be incompatible.
        for other in [
            StiuParams {
                partition_s: 600,
                ..plain
            },
            StiuParams {
                grid_n: 16,
                ..plain
            },
        ] {
            assert!(matches!(
                v3(&[blob_with(100.0, plain), blob_with(100.0, other)]),
                Err(Error::CorruptStore("shards disagree on StIU parameters"))
            ));
        }
        // Identical networks still open.
        let ok = v3(&[blob_with(100.0, plain), blob_with(100.0, plain)]);
        assert_eq!(ok.unwrap().shard_count(), 2);
    }

    #[test]
    fn v2_opens_as_single_shard() {
        let (net, ds) = paper_dataset();
        let single = Store::build(
            net,
            &ds,
            CompressParams::with_interval(paper_fixture::DEFAULT_INTERVAL),
            StiuParams {
                partition_s: 900,
                grid_n: 4,
            },
        )
        .unwrap();
        let mut bytes = Vec::new();
        single.write(&mut bytes).unwrap();
        let reopened = Store::read(&mut bytes.as_slice()).unwrap();
        assert_eq!(reopened.shard_count(), 1);
        assert_eq!(reopened.policy_spec(), None);
        assert_eq!(reopened.len(), single.len());
    }
}

//! Sharding: N partitions behind one query facade.
//!
//! A [`ShardedStore`] holds N partitions and presents the exact
//! `where`/`when`/`range` + pagination surface of a single store (both
//! implement [`QueryTarget`]). Trajectories are routed to partitions at
//! ingest time by a pluggable [`ShardPolicy`] — by time interval
//! ([`ByTime`]) or by road-network region ([`ByRegion`]) — and each
//! partition is a complete, self-contained [`Snapshot`]: its own
//! compressed dataset, StIU index, query plans and decode cache. Ingest,
//! compression and queries therefore parallelize per shard instead of
//! serializing on one `CompressedDataset`.
//!
//! # Live ingest: one state, one swap
//!
//! Everything a read needs — one immutable snapshot per partition (see
//! [`crate::snapshot`]), the id routing map and the prebuilt range
//! index — is one **facade state** behind one `Swap`, written under one
//! [`WriterCore`]. [`LiveStore::ingest`] routes a batch, compresses each
//! sub-batch into a prepared copy of its partition (fanned out across
//! partitions on the shared work-queue model — per-partition
//! compression is the parallelism the partitioning buys), logs the
//! batch once, and swaps in a state carrying the extended partitions
//! beside the untouched ones. Queries never block on ingest: each pins
//! one state and runs entirely on it. A batch therefore becomes visible
//! on every partition at once, and [`LiveStore::snapshots`] and
//! [`LiveStore::info`] are always a cut at a batch boundary.
//!
//! # Query execution
//!
//! * **where/when** target a single trajectory: the facade resolves the
//!   owning shard through its id map and delegates — a one-shard
//!   fan-out.
//! * **range** looks `tq`'s partition up in the facade's prebuilt range
//!   index — the shards' interval postings merged into one globally
//!   id-ascending candidate list — and hands it to the one scan loop
//!   (`crate::query::range_scan`), which evaluates candidates in that
//!   order against their owning shard's engine until the page limit
//!   fills. A single store runs the same loop over its own postings, so
//!   answers and page boundaries are identical.
//! * **par_range_query** is the provided [`QueryTarget`] method: whole
//!   queries pulled from the shared atomic-counter work queue
//!   (`crate::query::par_run`); a worker touches the shards *inside*
//!   its query, so sharding never multiplies thread pools.
//!
//! Every shard of one facade shares one road network and one
//! [`crate::stiu::StiuParams`] (constructors and the v3 open reject
//! disagreement), which is what lets the range index merge interval
//! keys across shards and the scan resolve a query's grid cells once.
//!
//! Merging moves hit values (`WhereHit`/`WhenHit`/`u64` ids) between
//! pages; decoded artifacts stay behind each shard's cache `Arc`s and
//! are never cloned across the merge.
//!
//! # Cursor encoding
//!
//! Cursors stay opaque `u64`s but are *global*:
//!
//! * **where/when** cursors encode `(shard, local_cursor)` — the owning
//!   shard in the high 16 bits, the shard-local offset cursor in the low
//!   48. A cursor presented to a store whose routing disagrees (or with
//!   a foreign shard tag) fails with [`Error::InvalidCursor`] instead of
//!   silently paginating wrong.
//! * **range** cursors are keyset-style — the last returned trajectory
//!   id, exactly as in the single store. They carry no shard tag, so
//!   range cursors are interchangeable between a [`crate::Store`] and any
//!   [`ShardedStore`] over the same dataset.
//!
//! Routing of an already-ingested id never changes and ingest only
//! appends, so cursors minted before a live ingest stay valid after it.
//!
//! # Persistence
//!
//! [`ShardedStore::save`] writes a v3 container: a shard directory
//! (policy kind + parameter) followed by one embedded, fully
//! self-contained v6 container per shard (see [`crate::storage`]). The
//! partitions all come from one pinned state, so a checkpoint taken
//! while batches stream in is always a batch-consistent cut.
//! [`ShardedStore::open`] reads v3 one shard blob at a time and also
//! accepts a plain v6, v5, v4 or v2 container as a single-shard store; the
//! embedded network is shared across shards behind one `Arc`.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;
use std::sync::Arc;

use utcq_network::{EdgeId, Grid, Rect, RoadNetwork};
use utcq_traj::{Dataset, UncertainTrajectory};

use crate::cache::CacheStats;
use crate::error::Error;
use crate::live::{Held, LiveStore, WriterCore};
use crate::opened::{policy_label, InfoReport};
use crate::query::{
    par_run, range_scan, Page, PageRequest, QueryTarget, RangeCandidate, WhenHit, WhereHit,
};
use crate::snapshot::{Snapshot, Swap};
use crate::storage::{self, ShardDirectory, POLICY_CUSTOM, POLICY_REGION, POLICY_TIME};
use crate::store::{IngestReport, StoreBuilder};

/// Maximum number of shards a store may have (the shard tag of a
/// where/when cursor is 16 bits).
pub const MAX_SHARDS: u32 = 1 << 16;

/// Rejects a shard count outside `1..=MAX_SHARDS`.
pub(crate) fn check_shard_count(n: usize) -> Result<(), Error> {
    match n {
        0 => Err(Error::ShardConfig("shard count must be at least 1")),
        n if n > MAX_SHARDS as usize => Err(Error::ShardConfig("shard count exceeds 65536")),
        _ => Ok(()),
    }
}

/// Bits of a global where/when cursor holding the shard-local cursor.
const LOCAL_CURSOR_BITS: u32 = 48;
const LOCAL_CURSOR_MASK: u64 = (1 << LOCAL_CURSOR_BITS) - 1;

fn encode_cursor(shard: u32, local: u64) -> u64 {
    debug_assert!(local <= LOCAL_CURSOR_MASK, "local cursor overflows 48 bits");
    (u64::from(shard) << LOCAL_CURSOR_BITS) | (local & LOCAL_CURSOR_MASK)
}

fn decode_cursor(global: u64) -> (u32, u64) {
    (
        (global >> LOCAL_CURSOR_BITS) as u32,
        global & LOCAL_CURSOR_MASK,
    )
}

/// Routes trajectories to shards at ingest time.
///
/// A policy must be **deterministic** — the same trajectory must route
/// to the same shard on every call — because duplicate-id detection and
/// the facade's id map rely on a stable placement. Built-in policies
/// ([`ByTime`], [`ByRegion`]) also serialize into the v3 shard
/// directory; custom implementations are recorded as `custom` (the
/// container still opens and queries — but a reopened custom-policy
/// store cannot route new batches, so [`LiveStore::ingest`] rejects
/// it).
pub trait ShardPolicy: Send + Sync {
    /// The shard (in `0..n_shards`) that should own `tu`.
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

    fn directory(spec: Option<ShardSpec>) -> ShardDirectory {
        match spec {
            Some(ShardSpec::ByTime { interval_s }) => ShardDirectory {
                kind: POLICY_TIME,
                param: interval_s,
            },
            Some(ShardSpec::ByRegion { grid_n }) => ShardDirectory {
                kind: POLICY_REGION,
                param: i64::from(grid_n),
            },
            None => ShardDirectory {
                kind: POLICY_CUSTOM,
                param: 0,
            },
        }
    }

    fn from_directory(dir: ShardDirectory) -> Option<ShardSpec> {
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
/// same `interval_s`-second bucket land on the same shard; buckets
/// round-robin across shards, so contiguous time ranges spread evenly.
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
/// bounding rectangle; a trajectory lands on the shard of the cell its
/// most probable instance starts in, so trajectories beginning in the
/// same area co-locate.
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

/// Incremental construction of a [`ShardedStore`] — the sharded
/// counterpart of [`StoreBuilder`], reached through
/// [`StoreBuilder::shard_by`], which hands over the finished
/// configuration: every option is set on the [`StoreBuilder`] before.
///
/// Each [`ingest`](Self::ingest) routes the batch's trajectories
/// individually (no payload copies) to per-shard [`StoreBuilder`]s, so
/// only each trajectory's owning shard compresses and indexes it.
pub struct ShardedStoreBuilder {
    pub(crate) net: Arc<RoadNetwork>,
    pub(crate) policy: Arc<dyn ShardPolicy>,
    /// One configured, still empty builder per shard.
    pub(crate) builders: Vec<StoreBuilder>,
}

impl ShardedStoreBuilder {
    /// Routes and ingests one batch: each trajectory is compressed and
    /// indexed by its owning shard only.
    pub fn ingest(mut self, batch: &Dataset) -> Result<Self, Error> {
        let n = self.builders.len() as u32;
        for sb in &mut self.builders {
            sb.check_batch(batch)?;
        }
        for tu in &batch.trajectories {
            let shard = self.policy.route(&self.net, tu, n);
            let sb = self
                .builders
                .get_mut(shard as usize)
                .ok_or(Error::ShardConfig("policy routed past the shard count"))?;
            sb.ingest_traj(tu)?;
        }
        Ok(self)
    }

    /// Finalizes every shard and assembles the facade. The finished
    /// store keeps the policy object, so [`LiveStore::ingest`] can
    /// route further batches — including through custom policies that
    /// have no serializable spec.
    pub fn finish(self) -> Result<ShardedStore, Error> {
        let parts = self
            .builders
            .into_iter()
            .map(|b| b.into_snapshot().map(Arc::new))
            .collect::<Result<_, _>>()?;
        let spec = self.policy.spec();
        ShardedStore::assemble(parts, spec, Some(self.policy))
    }
}

/// The whole read state of a sharded store, epoch-swapped as one unit
/// (see the [module docs](self)): a batch becomes visible exactly when
/// the state carrying it publishes.
struct FacadeState {
    /// Publication counter; 0 for the assembled/opened state.
    epoch: u64,
    /// One frozen snapshot per shard, in directory order.
    parts: Vec<Arc<Snapshot>>,
    /// Trajectory id → owning shard, across all shards.
    id_to_shard: HashMap<u64, u32>,
    /// Facade-level range acceleration: the shards' temporal interval
    /// postings merged into id-ascending candidate lists, so a range
    /// query resolves its global candidate sequence with one lookup and
    /// zero sorting. Rebuilt at each publish (the rebuild is linear in
    /// the store and runs on the writer path, next to the much more
    /// expensive batch compression).
    range_index: RangeIndex,
}

impl FacadeState {
    /// Builds the state over one snapshot per shard, validating that no
    /// trajectory id appears in two partitions.
    fn build(epoch: u64, parts: Vec<Arc<Snapshot>>) -> Result<Self, Error> {
        let mut id_to_shard = HashMap::with_capacity(parts.iter().map(|s| s.len()).sum());
        for (s, snap) in parts.iter().enumerate() {
            for ct in &snap.compressed().trajectories {
                if id_to_shard.insert(ct.id, s as u32).is_some() {
                    return Err(Error::DuplicateTrajectory(ct.id));
                }
            }
        }
        let range_index = RangeIndex::build(&parts);
        Ok(Self {
            epoch,
            parts,
            id_to_shard,
            range_index,
        })
    }
}

/// See [`FacadeState::range_index`].
struct RangeIndex {
    /// The shards' common temporal partition width.
    partition_s: i64,
    /// Interval key → candidates ascending by trajectory id.
    postings: HashMap<i64, Vec<RangeCandidate>>,
}

impl RangeIndex {
    /// Merges the shards' interval postings (the shards of one facade
    /// share one `StiuParams`, so their interval keys are compatible).
    fn build(snaps: &[Arc<Snapshot>]) -> Self {
        let mut postings: HashMap<i64, Vec<RangeCandidate>> = HashMap::new();
        for (s, snap) in snaps.iter().enumerate() {
            snap.stiu().interval_trajs.for_each_posting(|key, j| {
                if let Some(c) = snap.range_candidate(s as u32, j) {
                    postings.entry(key).or_default().push(c);
                }
            });
        }
        for list in postings.values_mut() {
            list.sort_unstable_by_key(|c| c.id);
        }
        Self {
            // bounds: a facade is only ever built over ≥ 1 shard
            partition_s: snaps[0].stiu().params.partition_s,
            postings,
        }
    }

    /// The id-ascending candidates of `tq`'s partition.
    fn candidates(&self, tq: i64) -> &[RangeCandidate] {
        self.postings
            .get(&tq.div_euclid(self.partition_s))
            .map_or(&[], Vec::as_slice)
    }
}

/// N partitions behind the single-store query surface.
///
/// See the [module docs](self) for execution, cursor, live-ingest and
/// persistence semantics. Equivalence with a single store over the same
/// dataset is asserted by `tests/shard_equivalence.rs`; live-vs-offline
/// build equivalence by `tests/live_ingest.rs`.
///
/// ```
/// use std::sync::Arc;
/// use utcq_core::shard::ByTime;
/// use utcq_core::{CompressParams, LiveStore, PageRequest, QueryTarget, StoreBuilder};
/// # fn main() -> Result<(), utcq_core::Error> {
/// let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 6, 7);
/// let store = StoreBuilder::new(
///     Arc::new(net),
///     CompressParams::with_interval(ds.default_interval),
/// )
/// .shard_by(Arc::new(ByTime::default()), 3)?
/// .ingest(&ds)?
/// .finish()?;
/// assert_eq!(store.shard_count(), 3);
/// assert_eq!(store.len(), 6);
///
/// // The exact same query surface as a single store.
/// let parts = store.snapshots();
/// let owner = &parts[store.traj_shard(0).unwrap() as usize];
/// let t0 = owner.decode_times(owner.traj_index(0).unwrap())?[0];
/// let page = store.where_query(0, t0, 0.0, PageRequest::default())?;
/// assert!(!page.items.is_empty());
/// # Ok(()) }
/// ```
pub struct ShardedStore {
    /// The road network every partition shares.
    net: Arc<RoadNetwork>,
    spec: Option<ShardSpec>,
    /// The live routing policy; `None` for custom-policy containers
    /// reopened from disk (they query fine but cannot route new
    /// batches).
    policy: Option<Arc<dyn ShardPolicy>>,
    /// The current state — queries pin it, ingest swaps it.
    state: Swap<FacadeState>,
    /// The writer lock, epoch counter and WAL slot (whole batches; see
    /// [`crate::live`]).
    core: WriterCore,
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shard_count())
            .field("trajectories", &self.len())
            .field("policy", &self.spec)
            .finish_non_exhaustive()
    }
}

impl ShardedStore {
    /// Assembles a store over one epoch-0 snapshot per shard, validating
    /// that no trajectory id appears in two partitions. `policy` is
    /// `None` for a custom-policy container: queryable, not
    /// live-ingestable.
    fn assemble(
        parts: Vec<Arc<Snapshot>>,
        spec: Option<ShardSpec>,
        policy: Option<Arc<dyn ShardPolicy>>,
    ) -> Result<Self, Error> {
        check_shard_count(parts.len())?;
        // One network and one StIU parameter set per facade: the range
        // index merges the shards' interval keys and the scan resolves
        // a query's grid cells once for all of them. The network check
        // is structural — shards assembled from different networks with
        // coincidentally equal counts must not silently answer against
        // shard 0's geometry.
        // bounds: windows(2) yields exactly-2-element slices
        for w in parts.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if !Arc::ptr_eq(a.network(), b.network()) && a.network() != b.network() {
                return Err(Error::CorruptStore("shards embed different networks"));
            }
            if a.stiu().params != b.stiu().params {
                return Err(Error::CorruptStore("shards disagree on StIU parameters"));
            }
        }
        let net = Arc::clone(parts[0].network()); // bounds: check_shard_count rejects zero
        Ok(Self {
            net,
            spec,
            policy,
            state: Swap::new(Arc::new(FacadeState::build(0, parts)?)),
            core: WriterCore::new(),
        })
    }

    /// Opens a sharded v3 container (or a plain self-contained container as a
    /// single-shard store). v1 containers fail with
    /// [`Error::NeedsNetwork`], as with [`crate::Store::open`].
    ///
    /// ```no_run
    /// # fn main() -> Result<(), utcq_core::Error> {
    /// let store = utcq_core::ShardedStore::open("data.utcq")?;
    /// println!("{} shards, policy {:?}", store.shard_count(), store.policy_spec());
    /// # Ok(()) }
    /// ```
    pub fn open(path: impl AsRef<Path>) -> Result<Self, Error> {
        let f = File::open(path)?;
        Self::read(&mut BufReader::new(f))
    }

    /// Reads a v3 (or plain self-contained) container from an arbitrary
    /// reader, one shard blob at a time.
    ///
    /// The embedded road network is deserialized from the first shard
    /// and shared across all shards behind one `Arc`; the other shards'
    /// embedded copies are validated against it and dropped.
    pub fn read(r: &mut impl Read) -> Result<Self, Error> {
        let (dir, blobs) = match storage::load_v3(r) {
            Ok(parts) => parts,
            Err(storage::StorageError::LegacyVersion) => return Err(Error::NeedsNetwork),
            Err(e) => return Err(e.into()),
        };
        let mut shared_net: Option<Arc<RoadNetwork>> = None;
        let mut parts = Vec::with_capacity(blobs.len());
        for blob in blobs {
            let (net, cds, stiu) = storage::load_full(&mut blob.as_slice())?;
            // Structurally equal copies collapse onto the first shard's
            // `Arc`; a differing one is rejected by `assemble`.
            let net = match &shared_net {
                Some(first) if **first == net => Arc::clone(first),
                _ => Arc::new(net),
            };
            shared_net.get_or_insert_with(|| Arc::clone(&net));
            parts.push(Arc::new(Snapshot::assemble(net, cds, stiu)?));
        }
        let spec = dir.and_then(ShardSpec::from_directory);
        let store = Self::assemble(parts, spec, spec.map(ShardSpec::policy))?;
        // Per-shard assembly defaults each cache to the full default
        // budget; a sharded store's default is a *total* budget split
        // across shards, matching what the builder configures.
        store.set_cache_bytes(crate::cache::DEFAULT_CACHE_BYTES);
        Ok(store)
    }

    /// Persists the store as a v3 container. Safe to call while other
    /// threads ingest: every partition comes from one pinned state, so
    /// the checkpoint is a batch-consistent cut.
    ///
    /// ```no_run
    /// # fn demo(store: utcq_core::ShardedStore) -> Result<(), utcq_core::Error> {
    /// store.save("sharded.utcq")?;
    /// let reopened = utcq_core::ShardedStore::open("sharded.utcq")?;
    /// assert_eq!(reopened.shard_count(), store.shard_count());
    /// # Ok(()) }
    /// ```
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), Error> {
        crate::wal::atomic_write(path.as_ref(), |w| self.write(w))
    }

    /// Writes the v3 container to an arbitrary writer (a consistent cut;
    /// see [`ShardedStore::save`]).
    pub fn write(&self, w: &mut impl Write) -> Result<(), Error> {
        let state = self.state.load();
        let mut blobs = Vec::with_capacity(state.parts.len());
        for snap in &state.parts {
            let mut blob = Vec::new();
            snap.write(&mut blob)?;
            blobs.push(blob);
        }
        storage::save_v3(ShardSpec::directory(self.spec), &blobs, w)?;
        Ok(())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.state.load().parts.len()
    }

    /// The routing policy recorded for this store (`None` when it was
    /// built with a custom policy or opened from a single-store container).
    pub fn policy_spec(&self) -> Option<ShardSpec> {
        self.spec
    }

    /// The shard owning trajectory `id`, if ingested.
    pub fn traj_shard(&self, id: u64) -> Option<u32> {
        self.state.load().id_to_shard.get(&id).copied()
    }

    /// Component-wise and total compression ratios aggregated across
    /// shards.
    pub fn ratios(&self) -> crate::compress::Ratios {
        let (raw, compressed) = crate::opened::summed_sizes(&self.state.load().parts);
        crate::compress::Ratios::from_sizes(&raw, &compressed)
    }

    /// Runs a single-trajectory query on the snapshot of the shard that
    /// owns `traj_id` — the one-shard fan-out of **where** and **when**.
    /// The incoming global cursor is translated to the shard's local
    /// one (a cursor minted for a different shard is rejected) and the
    /// answer's cursor re-tagged as global; items are moved, never
    /// cloned. An unknown id yields an empty page.
    fn on_owner<T>(
        &self,
        traj_id: u64,
        page: PageRequest,
        run: impl FnOnce(&Snapshot, PageRequest) -> Result<Page<T>, Error>,
    ) -> Result<Page<T>, Error> {
        let state = self.state.load();
        let Some(&shard) = state.id_to_shard.get(&traj_id) else {
            return Ok(Page::slice(Vec::new(), page));
        };
        let cursor = match page.cursor.map(decode_cursor) {
            Some((tag, _)) if tag != shard => return Err(Error::InvalidCursor),
            Some((_, local)) => Some(local),
            None => None,
        };
        let local = PageRequest {
            limit: page.limit,
            cursor,
        };
        // bounds: the id map only holds in-range shard indices
        let answer = run(&state.parts[shard as usize], local)?;
        Ok(Page {
            items: answer.items,
            next_cursor: answer.next_cursor.map(|c| encode_cursor(shard, c)),
            has_more: answer.has_more,
        })
    }
}

impl QueryTarget for ShardedStore {
    /// Trajectories currently visible through the facade.
    fn len(&self) -> usize {
        self.state.load().id_to_shard.len()
    }

    fn network(&self) -> &Arc<RoadNetwork> {
        &self.net
    }

    fn where_query(
        &self,
        traj_id: u64,
        t: i64,
        alpha: f64,
        page: PageRequest,
    ) -> Result<Page<WhereHit>, Error> {
        self.on_owner(traj_id, page, |snap, local| {
            snap.where_query(traj_id, t, alpha, local)
        })
    }

    fn when_query(
        &self,
        traj_id: u64,
        edge: EdgeId,
        rd: f64,
        alpha: f64,
        page: PageRequest,
    ) -> Result<Page<WhenHit>, Error> {
        self.on_owner(traj_id, page, |snap, local| {
            snap.when_query(traj_id, edge, rd, alpha, local)
        })
    }

    /// The facade's prebuilt range index names the globally
    /// id-ascending candidates of `tq`'s partition, and the shared scan
    /// loop (`crate::query::range_scan`) evaluates them in that order
    /// against their owning shard until the page fills — byte-identical
    /// answers and page boundaries to a single store over the same
    /// dataset. The keyset cursor (last returned id) is shard-agnostic.
    fn range_query(
        &self,
        re: &Rect,
        tq: i64,
        alpha: f64,
        page: PageRequest,
    ) -> Result<Page<u64>, Error> {
        let state = self.state.load();
        let engines: Vec<_> = state.parts.iter().map(|s| s.engine()).collect();
        let candidates = state.range_index.candidates(tq);
        range_scan(&engines, candidates, re, tq, alpha, page)
    }

    fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.state.load().parts {
            let st = s.cache_stats();
            total.hits += st.hits;
            total.misses += st.misses;
            total.evictions += st.evictions;
            total.negative_hits += st.negative_hits;
            total.entries += st.entries;
            total.negative_entries += st.negative_entries;
            total.bytes += st.bytes;
            total.budget_bytes += st.budget_bytes;
        }
        total
    }

    fn set_cache_bytes(&self, total_bytes: usize) {
        let state = self.state.load();
        let per_shard = total_bytes / state.parts.len();
        for s in &state.parts {
            s.set_cache_bytes(per_shard);
        }
    }

    fn clear_cache(&self) {
        for s in &self.state.load().parts {
            s.clear_cache();
        }
    }
}

impl LiveStore for ShardedStore {
    fn writer(&self) -> &WriterCore {
        &self.core
    }

    fn contains_all(&self, tus: &[UncertainTrajectory]) -> bool {
        let state = self.state.load();
        tus.iter().all(|t| state.id_to_shard.contains_key(&t.id))
    }

    /// Routing duplicates the single-store validation up front (against
    /// the current state and within the batch); then each shard's
    /// sub-batch compresses into a *prepared, unpublished* copy of its
    /// partition on the shared work-queue model — per-shard compression
    /// is exactly the parallelism the partitioning buys. Only when
    /// **every** sub-batch compressed is the batch logged and one new
    /// state (extended partitions, routing map, range index) swapped in
    /// — the batch's visibility point. A failure anywhere discards every
    /// prepared copy, so batches are **all-or-nothing across shards**.
    ///
    /// Fails with [`Error::ShardConfig`] on a store reopened from a
    /// custom-policy container (no way to route).
    fn publish_locked(&self, held: &Held<'_>, batch: &Dataset) -> Result<IngestReport, Error> {
        let Some(policy) = &self.policy else {
            return Err(Error::ShardConfig(
                "live ingest needs a routing policy (custom-policy containers are read-only)",
            ));
        };
        let state = self.state.load();
        let expected = self.default_interval();
        if batch.default_interval != expected {
            return Err(Error::IntervalMismatch {
                expected,
                got: batch.default_interval,
            });
        }
        let mut seen = std::collections::HashSet::with_capacity(batch.trajectories.len());
        for tu in &batch.trajectories {
            if state.id_to_shard.contains_key(&tu.id) || !seen.insert(tu.id) {
                return Err(Error::DuplicateTrajectory(tu.id));
            }
        }
        let n = state.parts.len() as u32;
        let mut routed: Vec<Vec<&UncertainTrajectory>> = vec![Vec::new(); n as usize];
        for tu in &batch.trajectories {
            let shard = policy.route(&self.net, tu, n);
            routed
                .get_mut(shard as usize)
                .ok_or(Error::ShardConfig("policy routed past the shard count"))?
                .push(tu);
        }
        // Compress per shard on the shared work queue into prepared,
        // unpublished states. An error on any shard returns here with
        // nothing published.
        let prepared = par_run(state.parts.len(), |s| {
            // bounds: par_run yields s < parts.len(); routed has one slot per shard
            state.parts[s].prepare_trajs(batch.default_interval, &batch.name, &routed[s])
        })?;
        if prepared.iter().all(Option::is_none) {
            return Ok(IngestReport {
                ingested: 0,
                total: state.id_to_shard.len(),
                epoch: state.epoch,
            });
        }
        // The batch will publish: log it first, so that a crash from
        // here on replays it under the epoch allocated here.
        let epoch = self.core.log(held, batch)?;
        let parts = prepared
            .into_iter()
            .zip(&state.parts)
            .map(|(p, cur)| match p {
                Some(next) => Arc::new(cur.successor(next, epoch)),
                None => Arc::clone(cur),
            })
            .collect();
        let next = FacadeState::build(epoch, parts)?;
        let total = next.id_to_shard.len();
        self.state.store(Arc::new(next));
        Ok(IngestReport {
            ingested: batch.trajectories.len(),
            total,
            epoch,
        })
    }

    fn epoch(&self) -> u64 {
        self.state.load().epoch
    }

    fn write_cut(&self, _held: &Held<'_>, mut w: &mut dyn Write) -> Result<(), Error> {
        self.write(&mut w)
    }

    fn snapshots(&self) -> Vec<Arc<Snapshot>> {
        self.state.load().parts.clone()
    }

    fn info(&self) -> InfoReport {
        InfoReport::over(&self.state.load().parts, Some(policy_label(self.spec)))
    }

    fn default_interval(&self) -> i64 {
        // bounds: constructors reject zero shards
        self.state.load().parts[0]
            .compressed()
            .params
            .default_interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CompressParams;
    use crate::stiu::StiuParams;
    use crate::store::Store;
    use utcq_traj::paper_fixture;

    fn paper_dataset() -> (Arc<RoadNetwork>, Dataset) {
        let fx = paper_fixture::build();
        let ds = Dataset {
            name: "paper".into(),
            default_interval: paper_fixture::DEFAULT_INTERVAL,
            trajectories: vec![fx.tu.clone()],
        };
        (Arc::new(fx.example.net.clone()), ds)
    }

    fn sharded(n: u32) -> ShardedStore {
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
        assert_send_sync::<ShardedStore>();
        assert_send_sync::<ShardedStoreBuilder>();
    }

    #[test]
    fn cursor_roundtrip() {
        for (shard, local) in [(0u32, 0u64), (1, 7), (65535, LOCAL_CURSOR_MASK)] {
            let g = encode_cursor(shard, local);
            assert_eq!(decode_cursor(g), (shard, local));
        }
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
        let store = sharded(2);
        let shard = store.traj_shard(1).unwrap();
        let foreign = encode_cursor(shard + 1, 0);
        let r = store.where_query(
            1,
            paper_fixture::hms(5, 5, 0),
            0.0,
            PageRequest::after(foreign, 2),
        );
        assert!(matches!(r, Err(Error::InvalidCursor)));
    }

    #[test]
    fn zero_shards_rejected() {
        let (net, ds) = paper_dataset();
        let r = StoreBuilder::new(
            net,
            CompressParams::with_interval(paper_fixture::DEFAULT_INTERVAL),
        )
        .shard_by(Arc::new(ByTime::default()), 0);
        assert!(matches!(r, Err(Error::ShardConfig(_))));
        let _ = ds;
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
        let reopened = ShardedStore::read(&mut bytes.as_slice()).unwrap();
        assert_eq!(reopened.shard_count(), 3);
        assert_eq!(reopened.len(), store.len());
        assert_eq!(
            reopened.policy_spec(),
            Some(ShardSpec::ByTime { interval_s: 3600 })
        );
        // The shared-network path: every shard holds the same Arc.
        for s in reopened.snapshots() {
            assert!(Arc::ptr_eq(s.network(), reopened.network()));
        }
        // A single-store open of the same bytes is redirected.
        assert!(matches!(
            Store::read(&mut bytes.as_slice()),
            Err(Error::ShardedContainer)
        ));
    }

    #[test]
    fn reopened_builtin_policy_routes_new_batches() {
        let store = sharded(3);
        let mut bytes = Vec::new();
        store.write(&mut bytes).unwrap();
        let reopened = ShardedStore::read(&mut bytes.as_slice()).unwrap();
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
        // check would let shard 1 silently answer against shard 0's
        // coordinates.
        let blob = |spacing: f64| {
            let net = Arc::new(utcq_network::gen::line(5, spacing));
            let store = StoreBuilder::new(net, CompressParams::default())
                .finish()
                .unwrap();
            let mut b = Vec::new();
            store.write(&mut b).unwrap();
            b
        };
        let mut bytes = Vec::new();
        crate::storage::save_v3(
            crate::storage::ShardDirectory { kind: 0, param: 0 },
            &[blob(100.0), blob(120.0)],
            &mut bytes,
        )
        .unwrap();
        assert!(matches!(
            ShardedStore::read(&mut bytes.as_slice()),
            Err(Error::CorruptStore("shards embed different networks"))
        ));
        // Same network, different StIU parameters: the interval keys and
        // grid cells of the two shards would be incompatible.
        let blob_with = |stiu: StiuParams| {
            let net = Arc::new(utcq_network::gen::line(5, 100.0));
            let store = StoreBuilder::new(net, CompressParams::default())
                .stiu_params(stiu)
                .finish()
                .unwrap();
            let mut b = Vec::new();
            store.write(&mut b).unwrap();
            b
        };
        for other in [
            StiuParams {
                partition_s: 600,
                ..StiuParams::default()
            },
            StiuParams {
                grid_n: 16,
                ..StiuParams::default()
            },
        ] {
            let mut bytes = Vec::new();
            crate::storage::save_v3(
                crate::storage::ShardDirectory { kind: 0, param: 0 },
                &[blob_with(StiuParams::default()), blob_with(other)],
                &mut bytes,
            )
            .unwrap();
            assert!(matches!(
                ShardedStore::read(&mut bytes.as_slice()),
                Err(Error::CorruptStore("shards disagree on StIU parameters"))
            ));
        }
        // Identical networks still open.
        let mut ok = Vec::new();
        crate::storage::save_v3(
            crate::storage::ShardDirectory { kind: 0, param: 0 },
            &[blob(100.0), blob(100.0)],
            &mut ok,
        )
        .unwrap();
        assert_eq!(
            ShardedStore::read(&mut ok.as_slice())
                .unwrap()
                .shard_count(),
            2
        );
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
        let sharded = ShardedStore::read(&mut bytes.as_slice()).unwrap();
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.policy_spec(), None);
        assert_eq!(sharded.len(), single.len());
    }
}

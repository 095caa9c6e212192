//! The store — the public entry point of `utcq_core`: N ≥ 1 partitions
//! behind one query, ingest and durability surface.
//!
//! [`Store`] owns its road network through an [`Arc`], so it is
//! `Send + Sync`. It is built through [`StoreBuilder`] — each batch is
//! compressed and indexed as it arrives, into one partition or, after
//! [`StoreBuilder::shard_by`], into the one a routing policy picks
//! ([`crate::shard`]) — or opened with [`Store::open`] from a v8
//! container: one road network, then one body per partition
//! ([`Store::open_durable`] also replays and keeps a write-ahead log).
//! [`Store::info`] returns the one [`InfoReport`] that `utcq info` and
//! the serve `info` response render; the `render_*` tables `utcq info`
//! prints under it are here too.
//!
//! All read state is one immutable [`Snapshot`] behind an `Arc`: every
//! partition at one epoch and the store's one id map, id → (partition,
//! position); every query pins it, and [`Store::snapshot`] hands it out
//! as a read view. A store grows by one step, `Snapshot::extend`: it
//! compresses and indexes a batch's trajectories on every core and
//! appends them, in batch order, to the partitions they are routed to.
//! A [`StoreBuilder`] runs it on the epoch-0 snapshot it alone holds; a
//! [`Store::ingest`] runs it on a copy of the current snapshot (the
//! partitions it writes become private clones, untouched ones keep
//! their `Arc`s), then logs the batch, stamps the epoch and publishes
//! with one swap. Queries never take the writer lock, and a published
//! store is byte-identical to an offline [`StoreBuilder`] build of the
//! same batches (`tests/live_ingest.rs`). The read surface is
//! [`QueryTarget`] (import it to query a `Store`); ingest and durability
//! are inherent methods (written in `live.rs`).
//!
//! Each partition brings its query plans ([`crate::plan::TrajPlan`]);
//! the store has one decode cache ([`crate::cache::DecodeCache`]) with
//! the whole budget, which every partition reads through. Cache keys
//! carry the partition and the position: a store only appends, so an
//! entry decoded through any snapshot serves every other, and a publish
//! leaves the cache alone.

use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;
use std::sync::Arc;

use utcq_network::{EdgeId, Rect, RoadNetwork};
use utcq_traj::size::SizeBreakdown;
use utcq_traj::{Dataset, UncertainTrajectory};

use crate::cache::{CacheStats, DecodeCache, DEFAULT_CACHE_BYTES};
use crate::chunk::SharedIdMap;
use crate::compress::{CompressedDataset, Ratios};
use crate::error::Error;
use crate::live::{Held, WriterCore};
use crate::params::CompressParams;
use crate::query::{Page, PageRequest, QueryTarget, WhenHit, WhereHit};
use crate::shard::{check_shard_count, ShardPolicy, ShardSpec};
use crate::snapshot::{Partition, Routing, Snapshot, Swap};
use crate::stiu::{Stiu, StiuParams};
use crate::storage;
use crate::wal::WalConfig;

/// What one [`Store::ingest`] publication did — echoed verbatim by
/// the serve protocol's `ingest` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Trajectories added by this batch.
    pub ingested: usize,
    /// Trajectories in the store after the publish.
    pub total: usize,
    /// The store epoch the batch was published as.
    pub epoch: u64,
}

/// A compressed dataset in N ≥ 1 partitions plus their StIU indexes,
/// owning the road network (see the [module docs](self)).
pub struct Store {
    net: Arc<RoadNetwork>,
    /// The current state — queries pin it, a publish swaps it.
    state: Swap<Snapshot>,
    /// The decode cache every partition reads through.
    cache: Arc<DecodeCache>,
    /// Writer lock, epoch counter and WAL slot (see `live.rs`).
    pub(crate) core: WriterCore,
}

/// Incremental construction of a [`Store`]: each `ingest` compresses and
/// indexes only the new batch, and ingest order does not change answers
/// (`tests/store_roundtrip.rs`). The builder grows an epoch-0
/// [`Snapshot`] by the step [`Store::ingest`] publishes with, so the
/// finished store keeps accepting batches exactly as it was built.
///
/// ```no_run
/// # fn demo(net: std::sync::Arc<utcq_network::RoadNetwork>,
/// #         batch_a: utcq_traj::Dataset, batch_b: utcq_traj::Dataset)
/// #         -> Result<(), utcq_core::Error> {
/// use utcq_core::store::StoreBuilder;
/// use utcq_core::CompressParams;
///
/// let store = StoreBuilder::new(net, CompressParams::default())
///     .ingest(&batch_a)?
///     .ingest(&batch_b)?
///     .finish()?;
/// # let _ = store; Ok(())
/// # }
/// ```
pub struct StoreBuilder {
    /// The store being built, held by nothing else.
    snapshot: Snapshot,
    /// Applied with the first trajectory ([`StoreBuilder::stiu_params`]).
    stiu_params: StiuParams,
    /// Applied by [`StoreBuilder::finish`].
    name: Option<String>,
    cache_bytes: usize,
}

impl StoreBuilder {
    /// A one-partition builder with default index parameters.
    pub fn new(net: Arc<RoadNetwork>, params: CompressParams) -> Self {
        let stiu_params = StiuParams::default();
        let part = Partition {
            cds: CompressedDataset::empty(&net, "", params),
            stiu: Stiu::over(&net, stiu_params),
            cache: Arc::new(DecodeCache::with_budget(DEFAULT_CACHE_BYTES)),
            net,
            partition: 0,
        };
        let snapshot = Snapshot {
            epoch: 0,
            parts: vec![Arc::new(part)],
            ids: SharedIdMap::new(),
            routing: Routing::Single,
        };
        Self {
            snapshot,
            stiu_params,
            name: None,
            cache_bytes: DEFAULT_CACHE_BYTES,
        }
    }

    /// Overrides the decode-cache byte budget of the finished store, one
    /// cache for all of its partitions (default [`DEFAULT_CACHE_BYTES`];
    /// `0` disables caching).
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Overrides the StIU index parameters of every partition. Must be
    /// called before the first [`ingest`](Self::ingest); afterwards the
    /// grid is already fixed and the call is ignored.
    pub fn stiu_params(mut self, p: StiuParams) -> Self {
        if self.snapshot.is_empty() {
            self.stiu_params = p;
        }
        self
    }

    /// Overrides the dataset label (defaults to the first batch's name).
    pub fn name(mut self, name: &str) -> Self {
        self.name = Some(name.to_string());
        self
    }

    /// Routes every trajectory to one of `n_shards` partitions by
    /// `policy`; the finished store keeps the policy for live batches and
    /// records it in its container (with `n_shards = 1` too). Other
    /// options apply to every partition. A call after the first
    /// [`ingest`](Self::ingest) fails with [`Error::ShardConfig`].
    pub fn shard_by(mut self, policy: Arc<dyn ShardPolicy>, n_shards: u32) -> Result<Self, Error> {
        if !self.snapshot.is_empty() {
            return Err(Error::ShardConfig("shard_by after the first ingest"));
        }
        check_shard_count(n_shards as usize)?;
        // An empty partition, which may have adopted a batch's name.
        let first = self.snapshot.first();
        let fresh = |partition| {
            Arc::new(Partition {
                partition,
                ..first.clone()
            })
        };
        self.snapshot.parts = (0..n_shards).map(fresh).collect();
        self.snapshot.routing = Routing::Policy(Some(policy));
        Ok(self)
    }

    /// Gives every partition an index with the builder's parameters
    /// while none holds a trajectory yet.
    fn fix_index(&mut self) -> Result<(), Error> {
        let first = self.snapshot.first();
        if first.stiu.params == self.stiu_params {
            return Ok(());
        }
        let index = Stiu::new(&first.net, self.stiu_params)?;
        for part in &mut self.snapshot.parts {
            Arc::make_mut(part).stiu = index.blank();
        }
        Ok(())
    }

    /// Compresses and indexes one batch of trajectories into their
    /// partitions, appending to whatever was ingested before, by the
    /// step of [`Store::ingest`]: the trajectories compress on the work
    /// queue and are appended in batch order. A batch that repeats an
    /// id, or names one ingested before, fails with
    /// [`Error::DuplicateTrajectory`] before any of it is compressed.
    pub fn ingest(mut self, batch: &Dataset) -> Result<Self, Error> {
        if !batch.trajectories.is_empty() {
            self.fix_index()?;
        }
        self.snapshot.extend(batch)?;
        Ok(self)
    }

    /// Applies the options and assembles the store at epoch 0. Attach a
    /// write-ahead log afterwards with [`Store::attach_wal`].
    pub fn finish(mut self) -> Result<Store, Error> {
        self.fix_index()?;
        if let Some(name) = &self.name {
            for part in &mut self.snapshot.parts {
                Arc::make_mut(part).cds.name.clone_from(name);
            }
        }
        self.snapshot.set_cache_bytes(self.cache_bytes);
        Store::assemble(self.snapshot)
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("snapshot", &self.snapshot())
            .field("policy", &self.policy_spec())
            .finish_non_exhaustive()
    }
}

/// Hands the heap pages freed so far back to the OS (glibc's
/// `malloc_trim`). Without it, what an open read through and what its
/// caller freed before stays resident or not by where the allocator's
/// free chunks happen to lie: the same build and open of a
/// 100k-trajectory store left its process at two levels 12 MB apart, by
/// chance (2-vCPU Linux guest). Costs 1–13 ms on that store.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_freed_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: takes a byte count; walks only the allocator's free lists.
    unsafe { malloc_trim(0) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_freed_heap() {}

/// The id map of opened partitions, rejecting an id that is stored
/// twice, in one partition or across two.
fn derive_ids(parts: &[Arc<Partition>]) -> Result<SharedIdMap, Error> {
    let stored = || {
        (0u32..).zip(parts).flat_map(|(p, part)| {
            let rows = (0u32..).zip(part.cds.trajectories.iter());
            rows.map(move |(j, ct)| (ct.id, (p, j)))
        })
    };
    // Sized exactly: at open, this sort is the heap's high-water mark.
    let mut sorted = Vec::with_capacity(parts.iter().map(|part| part.len()).sum());
    sorted.extend(stored().map(|(id, _)| id));
    sorted.sort_unstable();
    // bounds: windows(2) yields exactly-2-element slices
    if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
        return Err(Error::DuplicateTrajectory(w[0]));
    }
    let mut ids = SharedIdMap::new();
    for (id, at) in stored() {
        ids.insert(id, at);
    }
    Ok(ids)
}

impl Store {
    /// Compresses a dataset and builds its index in one step —
    /// equivalent to a single-batch [`StoreBuilder`] run.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use utcq_core::{CompressParams, QueryTarget, StiuParams, Store};
    /// # fn main() -> Result<(), utcq_core::Error> {
    /// let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 4, 7);
    /// let store = Store::build(
    ///     Arc::new(net),
    ///     &ds,
    ///     CompressParams::with_interval(ds.default_interval),
    ///     StiuParams::default(),
    /// )?;
    /// assert_eq!(store.len(), 4);
    /// assert!(store.ratios().total > 1.0);
    /// # Ok(()) }
    /// ```
    pub fn build(
        net: Arc<RoadNetwork>,
        ds: &Dataset,
        params: CompressParams,
        stiu_params: StiuParams,
    ) -> Result<Self, Error> {
        StoreBuilder::new(net, params)
            .stiu_params(stiu_params)
            .ingest(ds)?
            .finish()
    }

    /// A store over an epoch-0 snapshot, whose partitions all read
    /// through one decode cache. The partitions share one road network
    /// (one `Arc`: a container stores it once) and one [`StiuParams`], so
    /// the range scan merges their interval keys and resolves a query's
    /// cells once.
    fn assemble(state: Snapshot) -> Result<Self, Error> {
        check_shard_count(state.parts.len())?;
        // bounds: windows(2) yields exactly-2-element slices
        for w in state.parts.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if !Arc::ptr_eq(&a.net, &b.net) {
                return Err(Error::CorruptStore("shards embed different networks"));
            }
            if a.stiu.params != b.stiu.params {
                return Err(Error::CorruptStore("shards disagree on StIU parameters"));
            }
        }
        let first = state.first();
        let (net, cache) = (Arc::clone(&first.net), Arc::clone(&first.cache));
        Ok(Self {
            net,
            cache,
            state: Swap::new(Arc::new(state)),
            core: WriterCore::new(),
        })
    }

    /// [`Store::assemble`] over opened partitions, deriving their id map.
    fn opened(parts: Vec<Arc<Partition>>, routing: Routing) -> Result<Self, Error> {
        let ids = derive_ids(&parts)?;
        Self::assemble(Snapshot {
            epoch: 0,
            parts,
            ids,
            routing,
        })
    }

    /// Opens a v8 container as its partitions under the recorded
    /// routing. An older container fails with
    /// [`storage::StorageError::NeedsMigrate`]: `utcq migrate` rewrites it
    /// as v8. Once the container is read, the process's
    /// freed heap pages go back to the OS (on glibc), so what stays
    /// resident is what is held.
    ///
    /// ```no_run
    /// use utcq_core::QueryTarget;
    /// # fn main() -> Result<(), utcq_core::Error> {
    /// let store = utcq_core::Store::open("data.utcq")?;
    /// println!("{} trajectories in {} partitions", store.len(), store.shard_count());
    /// # Ok(()) }
    /// ```
    pub fn open(path: impl AsRef<Path>) -> Result<Self, Error> {
        let f = File::open(path)?;
        let store = Self::read(&mut BufReader::new(f))?;
        release_freed_heap();
        Ok(store)
    }

    /// Opens a container with a write-ahead log sidecar — the one
    /// durable opener: any batches in the log are replayed on top of the
    /// container (byte-identical to having ingested them live), a torn
    /// final record is truncated away, and later [`Store::ingest`] calls
    /// append to the log before publishing. The container path becomes
    /// the checkpoint target unless `cfg` names another.
    ///
    /// ```no_run
    /// use utcq_core::{QueryTarget, Store, WalConfig};
    /// # fn main() -> Result<(), utcq_core::Error> {
    /// let store = Store::open_durable("data.utcq", WalConfig::new("data.wal"))?;
    /// println!("{} trajectories at epoch {}", store.len(), store.epoch());
    /// # Ok(()) }
    /// ```
    pub fn open_durable(path: impl AsRef<Path>, mut cfg: WalConfig) -> Result<Self, Error> {
        let store = Self::open(&path)?;
        if cfg.checkpoint_to.is_none() {
            cfg.checkpoint_to = Some(path.as_ref().to_path_buf());
        }
        store.attach_wal(cfg)?;
        Ok(store)
    }

    /// Reads a container from an arbitrary reader (see [`Store::open`]),
    /// in one pass at any partition count: the head, the one road network
    /// every partition shares, then each partition's body, parsed
    /// straight from `r` (no body is held in memory).
    pub fn read(r: &mut impl Read) -> Result<Self, Error> {
        let head = storage::read_head(r)?;
        let net = Arc::new(storage::read_network(r)?);
        let cache = Arc::new(DecodeCache::with_budget(DEFAULT_CACHE_BYTES));
        let mut parts = Vec::new();
        for p in 0..head.parts {
            let (cds, stiu) = storage::read_body(r, &net)?;
            let part = Partition::assemble(Arc::clone(&net), cds, stiu, Arc::clone(&cache), p)?;
            parts.push(Arc::new(part));
        }
        storage::read_end(r)?;
        let routing = match head.kind {
            storage::ROUTING_SINGLE => Routing::Single,
            kind => {
                Routing::Policy(ShardSpec::from_routing(kind, head.param).map(ShardSpec::policy))
            }
        };
        Self::opened(parts, routing)
    }

    /// Persists the current state (see [`Snapshot::save`]). Safe to call
    /// while other threads ingest: the write runs on the pinned state, so
    /// the container is a batch-consistent cut.
    ///
    /// ```no_run
    /// use utcq_core::QueryTarget;
    /// # fn demo(store: utcq_core::Store) -> Result<(), utcq_core::Error> {
    /// store.save("data.utcq")?;
    /// let reopened = utcq_core::Store::open("data.utcq")?;
    /// assert_eq!(reopened.len(), store.len());
    /// # Ok(()) }
    /// ```
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), Error> {
        self.snapshot().save(path)
    }

    /// Writes the current state's container to an arbitrary writer (see
    /// [`Snapshot::write`]).
    pub fn write(&self, w: &mut impl Write) -> Result<(), Error> {
        self.snapshot().write(w).map(drop)
    }

    /// Pins the current epoch of the whole store — every partition and
    /// the id map: a read view ingest cannot change, for multi-page
    /// walks or a live [`Snapshot::save`].
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.state.load()
    }

    /// The compression parameters the store was built with (every
    /// partition carries them).
    pub fn params(&self) -> CompressParams {
        self.state.load().parts[0].cds.params // bounds: a store has ≥ 1 partition
    }

    /// Component-wise and total compression ratios of the current state,
    /// across partitions.
    pub fn ratios(&self) -> Ratios {
        let (raw, compressed) = summed_sizes(&self.state.load().parts);
        Ratios::from_sizes(&raw, &compressed)
    }

    /// The partition and position of trajectory `id` in the current
    /// epoch (see [`Snapshot::locate`]).
    pub fn locate(&self, id: u64) -> Option<(u32, u32)> {
        self.state.load().locate(id)
    }

    /// Decodes the full time sequence of trajectory `id` in the current
    /// epoch (memoized in the decode cache); `None` for an id the store
    /// does not hold.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use utcq_core::{CompressParams, StiuParams, Store};
    /// # fn main() -> Result<(), utcq_core::Error> {
    /// # let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 3, 7);
    /// # let store = Store::build(Arc::new(net), &ds,
    /// #     CompressParams::with_interval(ds.default_interval), StiuParams::default())?;
    /// let times = store.decode_times(0)?.expect("trajectory 0 is stored");
    /// assert!(times.windows(2).all(|w| w[0] <= w[1]));
    /// assert!(store.decode_times(99)?.is_none());
    /// # Ok(()) }
    /// ```
    pub fn decode_times(&self, id: u64) -> Result<Option<Arc<Vec<i64>>>, Error> {
        self.state.load().decode_times(id)
    }

    /// The decode cache's byte budget (`0` = disabled).
    pub fn cache_bytes(&self) -> usize {
        self.cache.budget()
    }

    /// Number of partitions.
    pub fn shard_count(&self) -> usize {
        self.state.load().parts.len()
    }

    /// Whether the store was built or opened with a routing policy (and
    /// so records it in its v8 head), even one it cannot name.
    pub(crate) fn has_policy(&self) -> bool {
        matches!(self.state.load().routing, Routing::Policy(_))
    }

    /// The routing policy recorded for this store (`None` without one,
    /// or for a custom policy).
    pub fn policy_spec(&self) -> Option<ShardSpec> {
        match &self.state.load().routing {
            Routing::Policy(Some(policy)) => policy.spec(),
            _ => None,
        }
    }
}

/// Every query pins the current snapshot for its duration and runs on
/// that frozen epoch.
impl QueryTarget for Store {
    fn len(&self) -> usize {
        self.state.load().len()
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
        self.state.load().where_query(traj_id, t, alpha, page)
    }

    fn when_query(
        &self,
        traj_id: u64,
        edge: EdgeId,
        rd: f64,
        alpha: f64,
        page: PageRequest,
    ) -> Result<Page<WhenHit>, Error> {
        self.state.load().when_query(traj_id, edge, rd, alpha, page)
    }

    fn range_query(
        &self,
        re: &Rect,
        tq: i64,
        alpha: f64,
        page: PageRequest,
    ) -> Result<Page<u64>, Error> {
        self.state.load().range_query(re, tq, alpha, page)
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn set_cache_bytes(&self, bytes: usize) {
        self.cache.set_budget(bytes);
    }

    fn clear_cache(&self) {
        self.cache.clear();
    }
}

/// The read-side description of a live store, and the one publish path
/// its live methods (`live.rs`) run under the writer lock.
impl Store {
    /// The current publish epoch — what a follower resumes from.
    pub fn epoch(&self) -> u64 {
        self.state.load().epoch
    }

    /// The current epoch's partitions, in directory order (those of
    /// [`Store::snapshot`]): every batch is in all of them or in none.
    pub fn snapshots(&self) -> Vec<Arc<Partition>> {
        self.state.load().parts.clone()
    }

    /// The shared description `utcq info` and the serve `info` response
    /// both render.
    pub fn info(&self) -> InfoReport {
        let label = self.has_policy().then(|| policy_label(self.policy_spec()));
        InfoReport::over(&self.state.load().parts, label)
    }

    /// The default sample interval the store was compressed with — what
    /// an `ingest` request's trajectories are validated against.
    pub fn default_interval(&self) -> i64 {
        self.params().default_interval
    }

    /// Whether every one of `tus` is already stored (by id).
    pub(crate) fn contains_all(&self, tus: &[UncertainTrajectory]) -> bool {
        let state = self.state.load();
        tus.iter().all(|t| state.ids.contains(t.id))
    }

    /// Compresses, indexes and publishes `batch` as the next epoch with
    /// the writer lock held: extends a copy of the current snapshot
    /// ([`Snapshot::extend`], the step [`StoreBuilder::ingest`] runs
    /// too). Only when **every** trajectory compressed is the batch
    /// logged (`WriterCore::log`), the copy stamped with the epoch the
    /// log allocated, and the copy swapped
    /// in, so batches are all-or-nothing across partitions; a batch that
    /// changes nothing reports the current epoch.
    pub(crate) fn publish_locked(
        &self,
        held: &Held<'_>,
        batch: &Dataset,
    ) -> Result<IngestReport, Error> {
        let state = self.state.load();
        let mut next = Snapshot::clone(&state);
        // An error returns here with nothing published.
        if !next.extend(batch)? {
            return Ok(IngestReport {
                ingested: 0,
                total: state.len(),
                epoch: state.epoch,
            });
        }
        // The batch will publish: log it first, so that a crash from
        // here on replays it under the epoch allocated here.
        let epoch = self.core.log(held, batch)?;
        next.epoch = epoch;
        let total = next.len();
        self.state.store(Arc::new(next));
        Ok(IngestReport {
            ingested: batch.trajectories.len(),
            total,
            epoch,
        })
    }
}

// ---------------------------------------------------------------------
// The report `utcq info` prints and the serve `info` response carries.

/// Raw and compressed footprints summed across partitions.
fn summed_sizes(parts: &[Arc<Partition>]) -> (SizeBreakdown, SizeBreakdown) {
    let mut raw = SizeBreakdown::default();
    let mut compressed = SizeBreakdown::default();
    for part in parts {
        raw.add(&part.compressed().raw);
        compressed.add(&part.compressed().compressed);
    }
    (raw, compressed)
}

/// The human-readable label of a recorded shard policy — `utcq info`'s
/// `policy` field and the serve `info` response both use it.
fn policy_label(spec: Option<ShardSpec>) -> String {
    match spec {
        Some(ShardSpec::ByTime { interval_s }) => format!("time(interval_s={interval_s})"),
        Some(ShardSpec::ByRegion { grid_n }) => format!("region(grid_n={grid_n})"),
        None => "custom".to_string(),
    }
}

/// The "format" line `utcq info` prints under the report: what the
/// file's head records ([`crate::storage::read_head`]).
pub fn render_format(head: &storage::Head) -> String {
    let (version, routing) = (storage::VERSION, storage::routing_name(head.kind));
    let (n, s) = (head.parts, if head.parts == 1 { "" } else { "s" });
    format!("  format:           v{version}, {n} partition{s}, routing {routing}\n")
}

/// The "container sections" table `utcq info` prints under the report:
/// bytes and bytes per trajectory of each part of the container `snap`
/// saves as, the dataset framing field by field. The snapshot is written
/// into a sink and the writer's own counters are read, so the table
/// cannot drift from the format.
pub fn render_sections(snap: &Snapshot) -> Result<String, Error> {
    let s = snap.write(&mut std::io::sink())?;
    let mut rows = vec![("network", s.network), ("payload bits", s.payload)];
    // `framing` has a slot per field of `storage::FRAMING`.
    rows.extend(storage::FRAMING.into_iter().zip(s.framing));
    rows.extend([
        ("temporal", s.temporal),
        ("ref tuples", s.ref_tuples),
        ("nref tuples", s.nref_tuples),
    ]);
    let rows = rows
        .into_iter()
        .map(|(label, bits)| (label, bits as f64 / 8.0));
    let rows = Vec::from_iter(rows);
    let title = "container sections (as written)";
    Ok(render_table(title, &rows, snap.len()))
}

/// The "resident" table `utcq info` prints under the sections: heap
/// bytes and bytes per trajectory of each part a store keeps in memory
/// once opened, its partitions' summed and its id map once
/// ([`Snapshot::resident`]; the road network and the decode cache are
/// not counted).
pub fn render_resident(snap: &Snapshot) -> String {
    let rows = snap.resident().0.into_iter();
    let rows = Vec::from_iter(rows.map(|(part, bytes)| (part, bytes as f64)));
    render_table("resident (heap, once opened)", &rows, snap.len())
}

/// `title`, one line per `(label, bytes)` row, and their total.
fn render_table(title: &str, rows: &[(&str, f64)], trajectories: usize) -> String {
    use std::fmt::Write as _;
    let total = rows.iter().map(|(_, bytes)| bytes).sum();
    let mut out = format!("{title}:\n");
    for (label, bytes) in rows.iter().copied().chain([("total", total)]) {
        let _ = writeln!(
            out,
            "  {:<19} {bytes:>12.0} B {:>9.1} B/trajectory",
            format!("{label}:"),
            bytes / trajectories.max(1) as f64
        );
    }
    out
}

/// Per-shard occupancy line of an [`InfoReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardInfo {
    /// Trajectories owned by this shard.
    pub trajectories: usize,
    /// The shard's total compression ratio.
    pub ratio: f64,
}

/// The sharding section of an [`InfoReport`] — present only for a store
/// with a routing policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardingInfo {
    /// Routing policy label, e.g. `time(interval_s=120)`.
    pub policy: String,
    /// Per-shard occupancy, in directory order.
    pub shards: Vec<ShardInfo>,
}

/// Everything `utcq info` prints and the serve `info` response carries —
/// derived once from the container, rendered two ways.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InfoReport {
    /// Dataset label recorded in the container.
    pub name: String,
    /// Total trajectories (across shards, for a sharded container).
    pub trajectories: usize,
    /// Total instances across all trajectories.
    pub instances: usize,
    /// Error bound `ηD`.
    pub eta_d: f64,
    /// Error bound `ηp`.
    pub eta_p: f64,
    /// Pivot count used at compression time.
    pub n_pivots: usize,
    /// Uncompressed footprint in KiB.
    pub raw_kib: u64,
    /// Compressed footprint in KiB.
    pub compressed_kib: u64,
    /// Total compression ratio.
    pub ratio: f64,
    /// The sharding section; `None` for single-store containers.
    pub sharding: Option<ShardingInfo>,
}

impl InfoReport {
    /// A report over every partition of a store; `policy` is the
    /// routing-policy label of a sharded one. Parameters and the dataset
    /// label are every partition's, totals span all of them.
    fn over(parts: &[Arc<Partition>], policy: Option<String>) -> Self {
        let Some(first) = parts.first().map(|part| part.compressed()) else {
            return InfoReport::default();
        };
        let cds = || parts.iter().map(|part| part.compressed());
        let (raw, compressed) = summed_sizes(parts);
        InfoReport {
            name: first.name.clone(),
            trajectories: cds().map(|cds| cds.trajectories.len()).sum(),
            instances: cds()
                .flat_map(|cds| &cds.trajectories)
                .map(|t| t.instance_count())
                .sum(),
            eta_d: first.params.eta_d,
            eta_p: first.params.eta_p,
            n_pivots: first.params.n_pivots,
            raw_kib: raw.total() / 8 / 1024,
            compressed_kib: compressed.total() / 8 / 1024,
            ratio: Ratios::from_sizes(&raw, &compressed).total,
            sharding: policy.map(|policy| ShardingInfo {
                policy,
                shards: parts
                    .iter()
                    .map(|part| ShardInfo {
                        trajectories: part.len(),
                        ratio: part.compressed().ratios().total,
                    })
                    .collect(),
            }),
        }
    }

    /// The exact text `utcq info` prints. Kept here — next to the
    /// struct the serve response serializes — so the two presentations
    /// cannot drift apart.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "container: dataset '{}' ({})", self.name, self.shape());
        let _ = writeln!(out, "  trajectories:     {}", self.trajectories);
        let _ = writeln!(out, "  instances:        {}", self.instances);
        let _ = writeln!(
            out,
            "  ηD = {}, ηp = {}, pivots = {}",
            self.eta_d, self.eta_p, self.n_pivots
        );
        let _ = writeln!(out, "  raw:              {} KiB", self.raw_kib);
        let _ = writeln!(out, "  compressed:       {} KiB", self.compressed_kib);
        let _ = writeln!(out, "  ratio:            {:.2}", self.ratio);
        if let Some(sh) = &self.sharding {
            let _ = writeln!(
                out,
                "  shards:           {} (policy {})",
                sh.shards.len(),
                sh.policy
            );
            for (i, s) in sh.shards.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  shard {i}: {} trajectories, ratio {:.2}",
                    s.trajectories, s.ratio
                );
            }
        }
        out
    }

    /// `"single"` or `"sharded"` (the store has a routing policy) — the
    /// label `utcq info` and the serve protocol's `info` response print.
    pub fn shape(&self) -> &'static str {
        if self.sharding.is_some() {
            "sharded"
        } else {
            "single"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utcq_traj::paper_fixture;

    fn paper_store(fx: &paper_fixture::PaperFixture) -> Store {
        paper_store_in(fx, 1)
    }

    /// The paper's trajectory in a store of `n` partitions: routed by
    /// time when `n > 1`, with no policy at 1.
    fn paper_store_in(fx: &paper_fixture::PaperFixture, n: u32) -> Store {
        let ds = Dataset {
            name: "paper".into(),
            default_interval: paper_fixture::DEFAULT_INTERVAL,
            trajectories: vec![fx.tu.clone()],
        };
        let builder = StoreBuilder::new(
            Arc::new(fx.example.net.clone()),
            CompressParams::with_interval(paper_fixture::DEFAULT_INTERVAL),
        )
        .stiu_params(StiuParams {
            partition_s: 900,
            grid_n: 4,
        });
        let builder = match n {
            1 => builder,
            n => builder
                .shard_by(Arc::new(crate::shard::ByTime::default()), n)
                .unwrap(),
        };
        builder.ingest(&ds).unwrap().finish().unwrap()
    }

    #[test]
    fn store_is_send_sync_and_static() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Store>();
        assert_send_sync::<StoreBuilder>();
        assert_send_sync::<Snapshot>();
    }

    #[test]
    fn example3_where_on_compressed() {
        // where(Tu¹, 5:21:25, 0.25) → ⟨v6→v7, 150⟩ from Tu¹₁ only.
        let fx = paper_fixture::build();
        let store = paper_store(&fx);
        let hits = store
            .where_query(1, paper_fixture::hms(5, 21, 25), 0.25, PageRequest::all())
            .unwrap()
            .into_items();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].instance, 0);
        assert_eq!(hits[0].loc.edge, fx.example.edge(6, 7));
        assert!((hits[0].loc.ndist - 150.0).abs() < 1.6); // ηD on a 200 m edge
    }

    #[test]
    fn where_alpha_zero_returns_all() {
        let fx = paper_fixture::build();
        let store = paper_store(&fx);
        let hits = store
            .where_query(1, paper_fixture::hms(5, 5, 0), 0.0, PageRequest::all())
            .unwrap();
        assert_eq!(hits.items.len(), 3);
        assert!(!hits.has_more);
        assert_eq!(hits.next_cursor, None);
    }

    #[test]
    fn where_pagination_walks_the_full_answer() {
        let fx = paper_fixture::build();
        let store = paper_store(&fx);
        let t = paper_fixture::hms(5, 5, 0);
        let all = store
            .where_query(1, t, 0.0, PageRequest::all())
            .unwrap()
            .into_items();
        assert_eq!(all.len(), 3);

        let mut walked = Vec::new();
        let mut req = PageRequest::first(2);
        loop {
            let page = store.where_query(1, t, 0.0, req).unwrap();
            let done = !page.has_more;
            if page.has_more {
                assert_eq!(page.items.len(), 2);
                req = PageRequest::after(page.next_cursor.unwrap(), 2);
            }
            walked.extend(page.items);
            if done {
                break;
            }
        }
        assert_eq!(walked, all);
    }

    #[test]
    fn where_outside_span_is_empty() {
        let fx = paper_fixture::build();
        let store = paper_store(&fx);
        for t in [paper_fixture::hms(4, 0, 0), paper_fixture::hms(6, 0, 0)] {
            let page = store.where_query(1, t, 0.0, PageRequest::all()).unwrap();
            assert!(page.items.is_empty() && !page.has_more);
        }
        assert!(store
            .where_query(99, 0, 0.0, PageRequest::all())
            .unwrap()
            .items
            .is_empty());
    }

    #[test]
    fn example3_when_on_compressed() {
        // when(Tu¹, ⟨v6→v7, 0.75⟩, 0.25) → 5:21:25 from Tu¹₁ (and Tu¹₂?
        // both traverse (v6→v7), but Tu¹₂.p = 0.2 < 0.25).
        let fx = paper_fixture::build();
        let store = paper_store(&fx);
        let hits = store
            .when_query(1, fx.example.edge(6, 7), 0.75, 0.25, PageRequest::all())
            .unwrap()
            .into_items();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].instance, 0);
        let want = paper_fixture::hms(5, 21, 25) as f64;
        assert!((hits[0].time - want).abs() < 3.5, "time {}", hits[0].time);
    }

    #[test]
    fn when_low_alpha_includes_nonreferences() {
        let fx = paper_fixture::build();
        let store = paper_store(&fx);
        let hits = store
            .when_query(1, fx.example.edge(6, 7), 0.75, 0.01, PageRequest::all())
            .unwrap();
        // All three instances traverse (v6→v7).
        assert_eq!(hits.items.len(), 3);
    }

    #[test]
    fn when_region_miss_is_answered_from_the_index() {
        // A location on the stub edges is never visited: the index alone
        // answers, so neither the first call nor a repeat decodes
        // anything or leaves anything in the cache.
        let fx = paper_fixture::build();
        let e49 = fx
            .example
            .net
            .find_edge(fx.example.vertex(4), utcq_network::VertexId(10))
            .expect("stub edge");
        for n in [1, 3] {
            let store = paper_store_in(&fx, n);
            let before = store.cache_stats();
            for call in 0..2 {
                let hits = store
                    .when_query(1, e49, 0.5, 0.0, PageRequest::all())
                    .unwrap();
                assert!(hits.items.is_empty() && !hits.has_more, "{n}: {call}");
                let s = store.cache_stats();
                assert_eq!(
                    (s.hits, s.misses, s.entries),
                    (before.hits, before.misses, before.entries),
                    "{n} partition(s), call {call}"
                );
            }
        }
    }

    #[test]
    fn example4_range_queries() {
        // range over a region covering the whole corridor at 5:05:25
        // with α = 0.5 → Tu¹; a far-away region → ∅.
        let fx = paper_fixture::build();
        let store = paper_store(&fx);
        let t = paper_fixture::hms(5, 5, 25);
        let all = Rect::new(-10.0, -10.0, 70.0, 10.0);
        assert_eq!(
            store
                .range_query(&all, t, 0.5, PageRequest::all())
                .unwrap()
                .into_items(),
            vec![1]
        );
        let far = Rect::new(100.0, 100.0, 120.0, 120.0);
        assert!(store
            .range_query(&far, t, 0.5, PageRequest::all())
            .unwrap()
            .items
            .is_empty());
    }

    #[test]
    fn range_alpha_prunes() {
        // At 5:09:00 a region around the v10 detour only holds Tu¹₂
        // (p = 0.2).
        let fx = paper_fixture::build();
        let store = paper_store(&fx);
        let t = paper_fixture::hms(5, 9, 0);
        let detour_region = Rect::new(10.0, 4.0, 22.0, 12.0);
        let hit = store
            .range_query(&detour_region, t, 0.1, PageRequest::all())
            .unwrap();
        let miss = store
            .range_query(&detour_region, t, 0.5, PageRequest::all())
            .unwrap();
        assert_eq!(hit.items, vec![1]);
        assert!(miss.items.is_empty());
    }

    #[test]
    fn range_outside_time_span() {
        let fx = paper_fixture::build();
        let store = paper_store(&fx);
        let all = Rect::new(-10.0, -10.0, 70.0, 10.0);
        assert!(store
            .range_query(&all, paper_fixture::hms(7, 0, 0), 0.1, PageRequest::all())
            .unwrap()
            .items
            .is_empty());
    }

    #[test]
    fn par_range_matches_sequential() {
        use crate::query::RangeQuery;
        let fx = paper_fixture::build();
        let store = paper_store(&fx);
        let t = paper_fixture::hms(5, 5, 25);
        let queries: Vec<RangeQuery> = (0..8)
            .map(|i| RangeQuery {
                re: Rect::new(-10.0, -10.0, 20.0 + 10.0 * i as f64, 10.0),
                tq: t,
                alpha: 0.3,
            })
            .collect();
        let par = store.par_range_query(&queries).unwrap();
        for (q, got) in queries.iter().zip(&par) {
            let want = store
                .range_query(&q.re, q.tq, q.alpha, PageRequest::all())
                .unwrap()
                .into_items();
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn duplicate_ingest_is_rejected() {
        let fx = paper_fixture::build();
        let ds = Dataset {
            name: "paper".into(),
            default_interval: paper_fixture::DEFAULT_INTERVAL,
            trajectories: vec![fx.tu.clone()],
        };
        let net = Arc::new(fx.example.net.clone());
        let b = StoreBuilder::new(
            net,
            CompressParams::with_interval(paper_fixture::DEFAULT_INTERVAL),
        )
        .ingest(&ds)
        .unwrap();
        assert!(matches!(b.ingest(&ds), Err(Error::DuplicateTrajectory(1))));
    }

    #[test]
    fn live_duplicate_ingest_publishes_nothing() {
        let fx = paper_fixture::build();
        let ds = Dataset {
            name: "paper".into(),
            default_interval: paper_fixture::DEFAULT_INTERVAL,
            trajectories: vec![fx.tu.clone()],
        };
        let store = paper_store(&fx);
        let before = store.snapshot();
        assert!(matches!(
            store.ingest(&ds),
            Err(Error::DuplicateTrajectory(1))
        ));
        let after = store.snapshot();
        assert!(
            Arc::ptr_eq(&before, &after),
            "failed batch must not publish"
        );
        assert_eq!(after.epoch(), 0);
    }

    #[test]
    fn interval_mismatch_is_rejected() {
        let fx = paper_fixture::build();
        let ds = Dataset {
            name: "paper".into(),
            default_interval: paper_fixture::DEFAULT_INTERVAL + 1,
            trajectories: vec![fx.tu.clone()],
        };
        let net = Arc::new(fx.example.net.clone());
        let r = StoreBuilder::new(
            net,
            CompressParams::with_interval(paper_fixture::DEFAULT_INTERVAL),
        )
        .ingest(&ds);
        assert!(matches!(r, Err(Error::IntervalMismatch { .. })));
        // The live path enforces the same invariant.
        let store = paper_store(&fx);
        assert!(matches!(
            store.ingest(&ds),
            Err(Error::IntervalMismatch { .. })
        ));
    }

    #[test]
    fn empty_live_batch_keeps_the_epoch() {
        let fx = paper_fixture::build();
        let store = paper_store(&fx);
        let empty = Dataset {
            name: String::new(),
            default_interval: paper_fixture::DEFAULT_INTERVAL,
            trajectories: Vec::new(),
        };
        let report = store.ingest(&empty).unwrap();
        assert_eq!((report.ingested, report.total, report.epoch), (0, 1, 0));
        assert_eq!(store.snapshot().epoch(), 0, "no pointless publish");
    }

    #[test]
    fn empty_store_answers_empty() {
        let fx = paper_fixture::build();
        let net = Arc::new(fx.example.net.clone());
        let store = StoreBuilder::new(
            net,
            CompressParams::with_interval(paper_fixture::DEFAULT_INTERVAL),
        )
        .finish()
        .unwrap();
        assert!(store.is_empty());
        assert!(store
            .where_query(1, 0, 0.0, PageRequest::all())
            .unwrap()
            .items
            .is_empty());
        let re = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert!(store
            .range_query(&re, 0, 0.0, PageRequest::all())
            .unwrap()
            .items
            .is_empty());
    }

    #[test]
    fn info_report_matches_shapes() {
        let fx = paper_fixture::build();
        let (single, sharded) = (paper_store(&fx), paper_store_in(&fx, 2));
        let (ia, ib) = (single.info(), sharded.info());
        assert_eq!(ia.shape(), "single");
        assert_eq!(ib.shape(), "sharded");
        assert_eq!(ia.trajectories, ib.trajectories);
        assert_eq!(ia.instances, ib.instances);
        assert_eq!(ib.sharding.as_ref().unwrap().shards.len(), 2);
        assert!(ib
            .sharding
            .as_ref()
            .unwrap()
            .policy
            .starts_with("time(interval_s="));
        let text = ib.render();
        assert!(text.contains("sharded"), "{text}");
        assert!(text.contains("shard 0:"), "{text}");
    }

    #[test]
    fn policy_labels() {
        assert_eq!(
            policy_label(Some(ShardSpec::ByTime { interval_s: 120 })),
            "time(interval_s=120)"
        );
        assert_eq!(
            policy_label(Some(ShardSpec::ByRegion { grid_n: 8 })),
            "region(grid_n=8)"
        );
        assert_eq!(policy_label(None), "custom");
    }

    #[test]
    fn format_line_names_every_routing_kind() {
        let line = |kind, parts| {
            render_format(&storage::Head {
                kind,
                param: 0,
                parts,
            })
        };
        let kinds = [
            (storage::ROUTING_CUSTOM, "custom"),
            (storage::ROUTING_TIME, "time"),
            (storage::ROUTING_REGION, "region"),
            (storage::ROUTING_SINGLE, "single"),
            (4, "?"),
            (u8::MAX, "?"),
        ];
        for (kind, name) in kinds {
            assert_eq!(
                line(kind, 4),
                format!("  format:           v8, 4 partitions, routing {name}\n")
            );
        }
        assert_eq!(
            line(storage::ROUTING_SINGLE, 1),
            "  format:           v8, 1 partition, routing single\n"
        );
    }
}

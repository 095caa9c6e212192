//! The store — the public entry point of `utcq_core`: N ≥ 1 partitions
//! behind one query, ingest and durability surface.
//!
//! [`Store`] owns its road network through an [`Arc`], so it is
//! `Send + Sync`. It is built through [`StoreBuilder`] — each batch is
//! compressed and indexed as it arrives, into one partition or, after
//! [`StoreBuilder::shard_by`], into the one a routing policy picks
//! ([`crate::shard`]) — or opened with [`Store::open`] from a
//! self-contained (v7) or sharded (v3) container.
//!
//! All read state is one immutable [`Snapshot`] behind an `Arc`: every
//! partition at one epoch and the store's one id map, id → (partition,
//! position); every query pins it, and [`Store::snapshot`] hands it out
//! as a read view. A [`Store::ingest`] compresses and indexes a batch's
//! trajectories on every core and appends them, in batch order, to
//! private clones of their partitions, then publishes the next epoch
//! with one swap; untouched partitions keep their `Arc`s.
//! Queries never take the writer lock, and a published store is
//! byte-identical to an offline [`StoreBuilder`] build of the same
//! batches (`tests/live_ingest.rs`). The read surface is [`QueryTarget`]
//! (import it to query a `Store`); ingest and durability are inherent
//! methods (written in `live.rs`).
//!
//! Each partition brings its query plans ([`crate::plan::TrajPlan`]);
//! the store has one decode cache ([`crate::cache::DecodeCache`]) with
//! the whole budget, which every partition reads through. Cache keys
//! carry the partition and the minting epoch, and each publish drops
//! what it superseded, once; the complete match sets of range queries
//! are keyed by the store's epoch.

use std::collections::HashSet;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;
use std::sync::Arc;

use utcq_network::{EdgeId, Rect, RoadNetwork};
use utcq_traj::{Dataset, UncertainTrajectory};

use crate::cache::{CacheStats, DecodeCache, DEFAULT_CACHE_BYTES};
use crate::chunk::SharedIdMap;
use crate::compress::Ratios;
use crate::error::Error;
use crate::live::{Held, WriterCore};
use crate::opened::{policy_label, summed_sizes, InfoReport};
use crate::params::CompressParams;
use crate::query::{par_in_order, Page, PageRequest, QueryTarget, WhenHit, WhereHit};
use crate::shard::{check_shard_count, ShardPolicy, ShardSpec};
use crate::snapshot::{prepare, Partition, PartitionState, Prepared, Routing, Snapshot, Swap};
use crate::stiu::{Stiu, StiuParams};
use crate::storage::{self, StorageError, VERSION_V3};

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

/// What the builder and the live path check before routing any of a
/// batch: each edge exists, each trajectory is well-formed on `net`
/// ([`UncertainTrajectory::validate`]), and the interval is the store's.
fn check_batch(net: &RoadNetwork, interval: i64, batch: &Dataset) -> Result<(), Error> {
    let edges = net.edge_count();
    for (at, tu) in batch.trajectories.iter().enumerate() {
        let invalid = |detail| Error::InvalidTrajectory { at, detail };
        // Bounds come first: the validator assumes edge ids resolve.
        let path = tu.instances.iter().flat_map(|inst| &inst.path);
        if let Some(e) = path.into_iter().find(|e| e.0 as usize >= edges) {
            let detail = format!("edge {} does not exist (network has {edges} edges)", e.0);
            return Err(invalid(detail));
        }
        tu.validate(net).map_err(invalid)?;
    }
    if batch.default_interval != interval {
        return Err(Error::IntervalMismatch {
            expected: interval,
            got: batch.default_interval,
        });
    }
    Ok(())
}

/// The one duplicate check: a batch may not repeat an id, nor name one
/// the store's id map holds.
fn check_new_ids(ids: &SharedIdMap, batch: &Dataset) -> Result<(), Error> {
    let mut seen = HashSet::with_capacity(batch.trajectories.len());
    for tu in &batch.trajectories {
        if ids.contains(tu.id) || !seen.insert(tu.id) {
            return Err(Error::DuplicateTrajectory(tu.id));
        }
    }
    Ok(())
}

/// The partition among `n` that `policy` places `tu` on (0 without a
/// policy).
fn route(
    policy: Option<&dyn ShardPolicy>,
    net: &RoadNetwork,
    tu: &UncertainTrajectory,
    n: u32,
) -> Result<u32, Error> {
    match policy.map_or(0, |p| p.route(net, tu, n)) {
        s if s < n => Ok(s),
        _ => Err(Error::ShardConfig("policy routed past the shard count")),
    }
}

/// The partition among `n` that `policy` places each of `tus` on.
fn routes(
    policy: Option<&dyn ShardPolicy>,
    net: &RoadNetwork,
    tus: &[UncertainTrajectory],
    n: u32,
) -> Result<Vec<u32>, Error> {
    tus.iter().map(|tu| route(policy, net, tu, n)).collect()
}

/// Runs a checked batch `tus` through the one per-trajectory path of
/// every ingest: [`prepare`] on the work queue against `index`'s grid,
/// then, on the calling thread and in batch order, `append` to the
/// partition `routes` names, which returns the trajectory's position
/// there for `ids`. Fails with the first error in batch order.
fn ingest_in_order(
    net: &RoadNetwork,
    params: &CompressParams,
    index: &Stiu,
    tus: &[UncertainTrajectory],
    routes: &[u32],
    ids: &mut SharedIdMap,
    mut append: impl FnMut(u32, &Prepared) -> Result<u32, Error>,
) -> Result<(), Error> {
    let missing = || Error::CorruptStore("trajectory past the batch");
    par_in_order(
        tus.len(),
        |i| {
            let tu = tus.get(i).ok_or_else(missing)?;
            prepare(net, params, index, tu)
        },
        |i, prepared| {
            let (tu, &s) = tus.get(i).zip(routes.get(i)).ok_or_else(missing)?;
            let j = append(s, prepared)?;
            ids.insert(tu.id, (s, j));
            Ok(())
        },
    )
}

/// Incremental construction of a [`Store`]: each `ingest` compresses and
/// indexes only the new batch, and ingest order does not change answers
/// (`tests/store_roundtrip.rs`). The finished store keeps accepting
/// batches through [`Store::ingest`], which runs the same
/// per-trajectory path.
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
    net: Arc<RoadNetwork>,
    params: CompressParams,
    stiu_params: StiuParams,
    name: Option<String>,
    /// One state per partition.
    parts: Vec<PartitionState>,
    /// The finished store's id map, extended per batch.
    ids: SharedIdMap,
    /// Set by [`StoreBuilder::shard_by`].
    policy: Option<Arc<dyn ShardPolicy>>,
    cache_bytes: usize,
}

impl StoreBuilder {
    /// A one-partition builder with default index parameters.
    pub fn new(net: Arc<RoadNetwork>, params: CompressParams) -> Self {
        let parts = vec![PartitionState::new(&net, params)];
        Self {
            net,
            params,
            stiu_params: StiuParams::default(),
            name: None,
            parts,
            ids: SharedIdMap::new(),
            policy: None,
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
        if self.parts.iter().all(|part| part.stiu.is_none()) {
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
    /// saves as v3 (with `n_shards = 1` too). Other options apply to
    /// every partition. A call after the first [`ingest`](Self::ingest)
    /// fails with [`Error::ShardConfig`].
    pub fn shard_by(mut self, policy: Arc<dyn ShardPolicy>, n_shards: u32) -> Result<Self, Error> {
        if self.parts.iter().any(PartitionState::has_ingested) {
            return Err(Error::ShardConfig("shard_by after the first ingest"));
        }
        check_shard_count(n_shards as usize)?;
        let fresh = |_| PartitionState::new(&self.net, self.params);
        self.parts = (0..n_shards).map(fresh).collect();
        self.policy = Some(policy);
        Ok(self)
    }

    /// Compresses and indexes one batch of trajectories into their
    /// partitions, appending to whatever was ingested before: the
    /// trajectories compress on the work queue and are appended in batch
    /// order. A batch that repeats an id, or names one ingested before,
    /// fails with [`Error::DuplicateTrajectory`] before any of it is
    /// compressed.
    pub fn ingest(mut self, batch: &Dataset) -> Result<Self, Error> {
        check_batch(&self.net, self.params.default_interval, batch)?;
        check_new_ids(&self.ids, batch)?;
        if self.name.is_none() && !batch.name.is_empty() {
            self.name = Some(batch.name.clone());
        }
        let tus = &batch.trajectories;
        if tus.is_empty() {
            return Ok(self);
        }
        let n = self.parts.len() as u32;
        let routes = routes(self.policy.as_deref(), &self.net, tus, n)?;
        // Every partition gets its index with the first trajectory; the
        // index parameters, grid and edge cells are fixed from then on.
        let index = match self.parts.iter().find_map(|part| part.stiu.as_ref()) {
            Some(stiu) => stiu.blank(),
            None => Stiu::new(&self.net, self.stiu_params)?,
        };
        for part in &mut self.parts {
            part.stiu.get_or_insert_with(|| index.blank());
        }
        let parts = &mut self.parts;
        let missing = || Error::CorruptStore("routed past the partitions");
        ingest_in_order(
            &self.net,
            &self.params,
            &index,
            tus,
            &routes,
            &mut self.ids,
            |s, p| parts.get_mut(s as usize).ok_or_else(missing)?.append(p),
        )?;
        Ok(self)
    }

    /// Freezes every partition as epoch 0 and assembles the store.
    /// Attach a write-ahead log afterwards with [`Store::attach_wal`].
    pub fn finish(self) -> Result<Store, Error> {
        let name = self.name.unwrap_or_default();
        let cache = Arc::new(DecodeCache::with_budget(self.cache_bytes));
        // Not `collect`: it would keep the states' far larger buffer.
        let mut parts = Vec::with_capacity(self.parts.len());
        for (p, mut state) in (0..).zip(self.parts) {
            state.cds.name = name.clone();
            let (net, cache) = (Arc::clone(&self.net), Arc::clone(&cache));
            let index = || Stiu::new(&self.net, self.stiu_params);
            parts.push(Arc::new(state.into_partition(net, index, cache, p, 0)?));
        }
        let routing = self
            .policy
            .map_or(Routing::Single, |p| Routing::Policy(Some(p)));
        Store::assemble(parts, self.ids, routing)
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
    let mut sorted: Vec<u64> = stored().map(|(id, _)| id).collect();
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

    /// A store over epoch-0 partitions, in partition order, all reading
    /// through one decode cache, and their id map. The partitions share
    /// one road network (compared structurally, not by counts) and one
    /// [`StiuParams`], so the range scan merges their interval keys and
    /// resolves a query's cells once.
    fn assemble(
        parts: Vec<Arc<Partition>>,
        ids: SharedIdMap,
        routing: Routing,
    ) -> Result<Self, Error> {
        check_shard_count(parts.len())?;
        // bounds: windows(2) yields exactly-2-element slices
        for w in parts.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if !Arc::ptr_eq(&a.net, &b.net) && a.net != b.net {
                return Err(Error::CorruptStore("shards embed different networks"));
            }
            if a.stiu.params != b.stiu.params {
                return Err(Error::CorruptStore("shards disagree on StIU parameters"));
            }
        }
        let first = &parts[0]; // bounds: check_shard_count rejects zero partitions
        let (net, cache) = (Arc::clone(&first.net), Arc::clone(&first.cache));
        let state = Snapshot {
            epoch: 0,
            parts,
            ids,
            routing,
        };
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
        Self::assemble(parts, ids, routing)
    }

    /// Opens a container: a v7 one as one partition, a sharded v3 one as
    /// its partitions under the recorded policy. An older container
    /// fails with [`StorageError::NeedsMigrate`]: `utcq migrate` rewrites
    /// it as one of these. Once the container is read, the process's
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

    /// Reads a container from an arbitrary reader (see [`Store::open`]).
    /// A v3 container is read one shard blob at a time; the embedded road
    /// network is deserialized once per blob, and structurally equal
    /// copies share the first one's `Arc`.
    pub fn read(r: &mut impl Read) -> Result<Self, Error> {
        let mut head = [0u8; 5];
        r.read_exact(&mut head).map_err(StorageError::from)?;
        let mut r = head.as_slice().chain(r);
        let cache = Arc::new(DecodeCache::with_budget(DEFAULT_CACHE_BYTES));
        // bounds: head is a [u8; 5]
        if head[4] != VERSION_V3 {
            let (net, cds, stiu) = storage::load_full(&mut r)?;
            let part = Partition::assemble(Arc::new(net), cds, stiu, cache, 0)?;
            return Self::opened(vec![Arc::new(part)], Routing::Single);
        }
        let (dir, blobs) = storage::load_v3(&mut r)?;
        let mut shared: Option<Arc<RoadNetwork>> = None;
        let mut parts = Vec::with_capacity(blobs.len());
        for (p, blob) in (0..).zip(blobs) {
            let (net, cds, stiu) = storage::load_full(&mut blob.as_slice())?;
            // A differing copy is rejected by `assemble`.
            let net = match &shared {
                Some(first) if **first == net => Arc::clone(first),
                _ => Arc::new(net),
            };
            shared.get_or_insert_with(|| Arc::clone(&net));
            let part = Partition::assemble(net, cds, stiu, Arc::clone(&cache), p)?;
            parts.push(Arc::new(part));
        }
        let spec = dir.and_then(ShardSpec::from_directory);
        Self::opened(parts, Routing::Policy(spec.map(ShardSpec::policy)))
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
        self.snapshot().write(w)
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
    /// so saves as v3), even one it cannot name.
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
    /// the writer lock held. Checks the batch and its ids against the id
    /// map and routes it; the trajectories then compress on the shared
    /// work queue and are appended, in batch order, to private copies of
    /// their partitions. Only when **every** trajectory compressed is the
    /// batch logged (`WriterCore::log`) and one new snapshot swapped in,
    /// so batches are all-or-nothing across partitions; a batch that
    /// changes nothing reports the current epoch. A store reopened from a
    /// custom-policy container cannot route: [`Error::ShardConfig`].
    pub(crate) fn publish_locked(
        &self,
        held: &Held<'_>,
        batch: &Dataset,
    ) -> Result<IngestReport, Error> {
        let state = self.state.load();
        check_batch(&self.net, self.default_interval(), batch)?;
        let policy =
            match &state.routing {
                Routing::Single => None,
                Routing::Policy(Some(policy)) => Some(policy.as_ref()),
                Routing::Policy(None) => return Err(Error::ShardConfig(
                    "live ingest needs a routing policy (custom-policy containers are read-only)",
                )),
            };
        check_new_ids(&state.ids, batch)?;
        let tus = &batch.trajectories;
        let routes = routes(policy, &self.net, tus, state.parts.len() as u32)?;
        crate::hooks::point("snapshot.prepare");
        let first = state
            .parts
            .first()
            .ok_or(Error::CorruptStore("a store without partitions"))?;
        let mut next: Vec<Option<PartitionState>> = (0u32..)
            .zip(&state.parts)
            .map(|(p, part)| part.writable(&batch.name, routes.contains(&p)))
            .collect();
        let mut ids = state.ids.clone();
        let missing = || Error::CorruptStore("routed past the partitions");
        // An error returns here with nothing published.
        ingest_in_order(
            &self.net,
            &first.cds.params,
            &first.stiu,
            tus,
            &routes,
            &mut ids,
            |s, p| {
                let share = next.get_mut(s as usize).and_then(Option::as_mut);
                share.ok_or_else(missing)?.append(p)
            },
        )?;
        if next.iter().all(Option::is_none) {
            return Ok(IngestReport {
                ingested: 0,
                total: state.len(),
                epoch: state.epoch,
            });
        }
        // The batch will publish: log it first, so that a crash from
        // here on replays it under the epoch allocated here.
        let epoch = self.core.log(held, batch)?;
        let parts: Vec<Arc<Partition>> = (state.parts.iter())
            .zip(next)
            .map(|(cur, p)| match p {
                Some(next) => Arc::new(cur.successor(next, epoch)),
                None => Arc::clone(cur),
            })
            .collect();
        let epochs: Vec<u64> = parts.iter().map(|part| part.epoch()).collect();
        let next = Snapshot {
            epoch,
            parts,
            ids,
            routing: state.routing.clone(),
        };
        let total = next.len();
        self.state.store(Arc::new(next));
        // What the publish superseded: the moved partitions' entries and
        // the store's range results.
        self.cache.retire_before(&epochs, epoch);
        Ok(IngestReport {
            ingested: batch.trajectories.len(),
            total,
            epoch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utcq_traj::paper_fixture;

    fn paper_store(fx: &paper_fixture::PaperFixture) -> Store {
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
                partition_s: 900,
                grid_n: 4,
            },
        )
        .unwrap()
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
    fn when_region_miss_is_empty_and_negatively_cached() {
        // A location on the stub edges is never visited.
        let fx = paper_fixture::build();
        let store = paper_store(&fx);
        let e49 = fx
            .example
            .net
            .find_edge(fx.example.vertex(4), utcq_network::VertexId(10))
            .expect("stub edge");
        let hits = store
            .when_query(1, e49, 0.5, 0.0, PageRequest::all())
            .unwrap();
        assert!(hits.items.is_empty());
        let after_first = store.cache_stats();
        assert_eq!(after_first.negative_entries, 1, "{after_first:?}");
        // The repeat answers from the negative entry.
        let hits = store
            .when_query(1, e49, 0.5, 0.0, PageRequest::all())
            .unwrap();
        assert!(hits.items.is_empty());
        let after_second = store.cache_stats();
        assert_eq!(after_second.negative_hits, after_first.negative_hits + 1);
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
}

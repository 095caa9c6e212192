//! The owned, thread-safe store façade — the public entry point of
//! `utcq_core`.
//!
//! [`Store`] owns its road network through an [`Arc`], so it has no
//! lifetime parameter, is `Send + Sync`, and can be shared across worker
//! threads or wrapped in a service handle. It is constructed either
//!
//! * incrementally, through [`StoreBuilder`] — batches of newly arrived
//!   trajectories are compressed and indexed *as they are ingested*;
//!   pivot/reference selection runs only over each new cohort (it is
//!   per-trajectory, §4.3) and the StIU postings merge into the index in
//!   place, so earlier batches are never recompressed; or
//! * from disk, through [`Store::open`] on a self-contained (v5, v4 or v2) container
//!   (embedded network + dataset + StIU index), or [`Store::open_v1`]
//!   for legacy containers that need the network supplied out of band.
//!
//! # Snapshots and live ingest
//!
//! Since the snapshot refactor, `Store` is a **thin handle**: all read
//! state (compressed dataset, StIU index, query plans, id map) lives in
//! an immutable, epoch-stamped [`Snapshot`] behind an `Arc`, and every
//! query pins the current snapshot for its duration. That makes the
//! store *live*: [`LiveStore::ingest`] accepts new batches concurrently
//! with queries — the batch compresses and indexes off the query path
//! against a private clone of the current state, then publishes
//! atomically as the next epoch. Queries never block on ingest (they
//! never take the writer lock), in-flight queries and pinned snapshots
//! keep their epoch, and a published store is byte-identical to an
//! offline [`StoreBuilder`] build of the same batches
//! (`tests/live_ingest.rs` asserts both). [`Store::snapshot`] exposes
//! the pinning primitive directly for multi-page walks and live
//! checkpoints ([`Snapshot::save`]).
//!
//! The read surface is declared once, on [`QueryTarget`] (import the
//! trait to query a `Store`); its entry points are paginated and
//! limit-bounded: each takes a [`PageRequest`] and returns a [`Page`]
//! with `has_more`/cursor semantics, so a service can stream large
//! answers without unbounded allocations. Ingest only appends, so
//! cursors minted against an older epoch stay valid against newer ones.
//! [`QueryTarget::par_range_query`] evaluates a batch of range queries
//! across all available cores, pulling work from a shared
//! atomic-counter queue so skewed batches still balance.
//!
//! # Query acceleration layers
//!
//! The store owns two layers the query engine runs on:
//!
//! * a shared, bounded, thread-safe **decode cache**
//!   ([`crate::cache::DecodeCache`]): decoded references, fully decoded
//!   instances and time sequences are memoized behind `Arc`s across
//!   queries and across threads, with a configurable byte budget
//!   ([`StoreBuilder::cache_bytes`], [`QueryTarget::set_cache_bytes`];
//!   `0` disables caching) and hit/miss/eviction counters
//!   ([`QueryTarget::cache_stats`]). The cache is shared across epochs,
//!   but its keys carry the minting epoch, so entries of superseded
//!   snapshots never alias, and each publish drops them;
//! * per-trajectory **query plans** ([`crate::plan::TrajPlan`]), built
//!   once at `build`/`open`/`ingest` time: `orig_idx → slot` lookup
//!   tables and probability-sorted member lists that replace the
//!   per-call linear scans and sorts the hot paths used to do.
//!
//! Cached and uncached stores return identical answers — the cache only
//! memoizes deterministic decodes (`tests/cache_equivalence.rs` asserts
//! this on randomized stores).

use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;
use std::sync::Arc;

use utcq_network::{EdgeId, Rect, RoadNetwork};
use utcq_traj::{Dataset, UncertainTrajectory};

use crate::cache::{CacheStats, DecodeCache, DEFAULT_CACHE_BYTES};
use crate::compress::Ratios;
use crate::compressed::edge_number_width;
use crate::error::Error;
use crate::live::{Held, LiveStore, WriterCore};
use crate::opened::InfoReport;
use crate::params::CompressParams;
use crate::query::{Page, PageRequest, QueryTarget, WhenHit, WhereHit};
use crate::snapshot::{PartitionState, Snapshot, Swap};
use crate::stiu::StiuParams;

/// What one [`LiveStore::ingest`] publication did — echoed verbatim by
/// the serve protocol's `ingest` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Trajectories added by this batch.
    pub ingested: usize,
    /// Trajectories in the store after the publish.
    pub total: usize,
    /// The epoch the batch was published as (the snapshot epoch for a
    /// single store, the facade epoch for a sharded one).
    pub epoch: u64,
}

/// A compressed dataset plus its StIU index, owning the road network —
/// ready for querying, live ingest, persisting, and sharing across
/// threads. See the [module docs](self) for the snapshot/epoch model.
pub struct Store {
    net: Arc<RoadNetwork>,
    /// The current epoch — queries pin it, [`LiveStore::ingest`] swaps it.
    snap: Swap<Snapshot>,
    /// Writer lock, epoch counter and WAL slot (see [`crate::live`]).
    core: WriterCore,
}

/// Incremental construction of a [`Store`].
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
///
/// Each `ingest` compresses and indexes only the new batch: reference
/// selection is per-trajectory, and the new StIU postings merge into the
/// existing index in place. Ingest order does not change query answers
/// (only the interleaving of internal positions), which
/// `tests/store_roundtrip.rs` asserts. The finished store keeps
/// accepting batches through [`LiveStore::ingest`] — the builder is the
/// offline bootstrap of the same per-trajectory path the live writer
/// runs.
pub struct StoreBuilder {
    net: Arc<RoadNetwork>,
    params: CompressParams,
    stiu_params: StiuParams,
    name: Option<String>,
    state: PartitionState,
    cache_bytes: usize,
}

impl StoreBuilder {
    /// A builder with default index parameters.
    pub fn new(net: Arc<RoadNetwork>, params: CompressParams) -> Self {
        let state = PartitionState::new(&net, params);
        Self {
            net,
            params,
            stiu_params: StiuParams::default(),
            name: None,
            state,
            cache_bytes: DEFAULT_CACHE_BYTES,
        }
    }

    /// Overrides the decode-cache byte budget of the finished store
    /// (default [`DEFAULT_CACHE_BYTES`]; `0` disables caching).
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Overrides the StIU index parameters. Must be called before the
    /// first [`ingest`](Self::ingest); afterwards the grid is already
    /// fixed and the call is ignored.
    pub fn stiu_params(mut self, p: StiuParams) -> Self {
        if self.state.stiu.is_none() {
            self.stiu_params = p;
        }
        self
    }

    /// Overrides the dataset label (defaults to the first batch's name).
    pub fn name(mut self, name: &str) -> Self {
        self.name = Some(name.to_string());
        self
    }

    /// Compresses and indexes one batch of trajectories, appending to
    /// whatever was ingested before. Only the new cohort is processed.
    pub fn ingest(mut self, batch: &Dataset) -> Result<Self, Error> {
        self.check_batch(batch)?;
        for tu in &batch.trajectories {
            self.ingest_traj(tu)?;
        }
        Ok(self)
    }

    /// Validates a batch's metadata against the builder's configuration
    /// and adopts its name if none is set yet. Shared with the sharded
    /// builder, which routes the batch's trajectories individually.
    pub(crate) fn check_batch(&mut self, batch: &Dataset) -> Result<(), Error> {
        if batch.default_interval != self.params.default_interval {
            return Err(Error::IntervalMismatch {
                expected: self.params.default_interval,
                got: batch.default_interval,
            });
        }
        if self.name.is_none() && !batch.name.is_empty() {
            self.name = Some(batch.name.clone());
        }
        Ok(())
    }

    /// Compresses and indexes a single trajectory — the per-item step of
    /// [`ingest`](Self::ingest), also driven directly by
    /// [`crate::shard::ShardedStoreBuilder`] so routing a batch across
    /// shards never copies trajectory payloads.
    pub(crate) fn ingest_traj(&mut self, tu: &UncertainTrajectory) -> Result<(), Error> {
        self.state.ingest_traj(&self.net, self.stiu_params, tu)
    }

    /// Converts this (still empty) builder into a sharded builder that
    /// routes every ingested trajectory to one of `n_shards` partitions
    /// according to `policy`. Every option set so far is handed over:
    /// the compression parameters, StIU parameters and dataset name
    /// apply to each shard, and the decode-cache budget becomes the
    /// *total* across shards (each shard gets an equal slice, as with
    /// [`QueryTarget::set_cache_bytes`] on the finished store).
    ///
    /// Must be called before the first [`ingest`](Self::ingest) — once a
    /// trajectory is compressed into the single-store layout it cannot
    /// be re-routed, so a late call fails with [`Error::ShardConfig`].
    pub fn shard_by(
        self,
        policy: Arc<dyn crate::shard::ShardPolicy>,
        n_shards: u32,
    ) -> Result<crate::shard::ShardedStoreBuilder, Error> {
        if self.state.has_ingested() {
            return Err(Error::ShardConfig("shard_by after the first ingest"));
        }
        crate::shard::check_shard_count(n_shards as usize)?;
        let builders = (0..n_shards)
            .map(|_| Self {
                net: Arc::clone(&self.net),
                params: self.params,
                stiu_params: self.stiu_params,
                name: self.name.clone(),
                state: PartitionState::new(&self.net, self.params),
                cache_bytes: self.cache_bytes / n_shards as usize,
            })
            .collect();
        Ok(crate::shard::ShardedStoreBuilder {
            net: self.net,
            policy,
            builders,
        })
    }

    /// Finalizes the store. Attach a write-ahead log afterwards with
    /// [`LiveStore::attach_wal`].
    pub fn finish(self) -> Result<Store, Error> {
        Ok(Store::from_snapshot(self.into_snapshot()))
    }

    /// Freezes what was ingested as an epoch-0 snapshot with its own
    /// decode cache — a store's initial state, or one partition of a
    /// sharded one.
    pub(crate) fn into_snapshot(self) -> Snapshot {
        let mut state = self.state;
        state.cds.name = self.name.unwrap_or_default();
        let cache = Arc::new(DecodeCache::with_budget(self.cache_bytes));
        state.into_snapshot(self.net, self.stiu_params, cache, 0)
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Store")
            .field("name", &snap.compressed().name)
            .field("epoch", &snap.epoch())
            .field("trajectories", &snap.len())
            .field("vertices", &self.net.vertex_count())
            .field("edges", &self.net.edge_count())
            .finish_non_exhaustive()
    }
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

    /// Wraps an initial (epoch 0) snapshot in a store handle.
    fn from_snapshot(snap: Snapshot) -> Self {
        Self {
            net: Arc::clone(snap.network()),
            snap: Swap::new(Arc::new(snap)),
            core: WriterCore::new(),
        }
    }

    /// Opens a self-contained (v5, v4 or v2) container: network, dataset and index
    /// all come from the file — no side-channel arguments.
    ///
    /// A v1 container fails with [`Error::NeedsNetwork`]; open those with
    /// [`Store::open_v1`]. A sharded v3 container fails with
    /// [`Error::ShardedContainer`]; open those with
    /// [`crate::shard::ShardedStore::open`] (or let [`crate::Opened`]
    /// pick the shape).
    ///
    /// ```no_run
    /// use utcq_core::QueryTarget;
    /// # fn main() -> Result<(), utcq_core::Error> {
    /// let store = utcq_core::Store::open("data.utcq")?;
    /// println!("{} trajectories", store.len());
    /// # Ok(()) }
    /// ```
    pub fn open(path: impl AsRef<Path>) -> Result<Self, Error> {
        let f = File::open(path)?;
        Self::read(&mut BufReader::new(f))
    }

    /// Reads a self-contained (v5, v4 or v2) container from an arbitrary reader.
    pub fn read(r: &mut impl Read) -> Result<Self, Error> {
        let (net, cds, stiu) = match crate::storage::load_full(r) {
            Ok(parts) => parts,
            // Only a *valid* v1 container maps to the "supply a network"
            // guidance; garbage or unknown versions stay storage errors.
            Err(crate::storage::StorageError::LegacyVersion) => return Err(Error::NeedsNetwork),
            Err(crate::storage::StorageError::Sharded) => return Err(Error::ShardedContainer),
            Err(e) => return Err(e.into()),
        };
        Snapshot::assemble(Arc::new(net), cds, stiu).map(Self::from_snapshot)
    }

    /// Opens a legacy v1 container against an externally supplied
    /// network — the compatibility path. The StIU index is not part of
    /// v1 containers, so it is rebuilt from the (lossily) decompressed
    /// trajectories; the structural components that index construction
    /// reads (edge sequences, time sequences) decompress exactly, so the
    /// rebuilt index matches one built at compression time.
    ///
    /// ```no_run
    /// use std::sync::Arc;
    /// use utcq_core::{StiuParams, Store};
    /// # fn main() -> Result<(), utcq_core::Error> {
    /// // v1 files carry no network; supply the one they were built on.
    /// let net = utcq_datagen::generate_network(&utcq_datagen::profile::tiny(), 1);
    /// let store = Store::open_v1("legacy.utcq", Arc::new(net), StiuParams::default())?;
    /// # let _ = store; Ok(()) }
    /// ```
    pub fn open_v1(
        path: impl AsRef<Path>,
        net: Arc<RoadNetwork>,
        stiu_params: StiuParams,
    ) -> Result<Self, Error> {
        let f = File::open(path)?;
        let cds = crate::storage::load(&mut BufReader::new(f))?;
        let expect = edge_number_width(net.max_out_degree());
        if cds.w_e != expect {
            return Err(Error::NetworkMismatch {
                expected: cds.w_e,
                got: expect,
            });
        }
        let ds = crate::decompress::decompress_dataset(&net, &cds)?;
        let stiu = crate::stiu::build(&net, &ds, &cds, stiu_params);
        Snapshot::assemble(net, cds, stiu).map(Self::from_snapshot)
    }

    /// Persists the current snapshot as a self-contained v5 container.
    /// Safe to call while other threads ingest: the write runs on the
    /// pinned snapshot, so the container is a consistent epoch.
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
        crate::wal::atomic_write(path.as_ref(), |w| self.write(w))
    }

    /// Writes the current snapshot's v5 container to an arbitrary writer.
    pub fn write(&self, w: &mut impl Write) -> Result<(), Error> {
        self.snapshot().write(w)
    }

    /// Pins the current epoch: the returned [`Snapshot`] is a consistent
    /// read view that concurrent [`LiveStore::ingest`] calls cannot change.
    /// Hold it across a multi-page walk for stable answers, or hand it
    /// to [`Snapshot::save`] for a live checkpoint.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.snap.load()
    }

    /// The compression parameters the store was built with.
    pub fn params(&self) -> CompressParams {
        self.snapshot().compressed().params
    }

    /// Component-wise and total compression ratios of the current
    /// snapshot.
    pub fn ratios(&self) -> Ratios {
        self.snapshot().ratios()
    }

    /// Looks up a trajectory's position by id (in the current epoch).
    pub fn traj_index(&self, id: u64) -> Option<u32> {
        self.snapshot().traj_index(id)
    }

    /// Decodes the full time sequence of the trajectory at position `j`
    /// (memoized in the decode cache).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use utcq_core::{CompressParams, StiuParams, Store};
    /// # fn main() -> Result<(), utcq_core::Error> {
    /// # let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 3, 7);
    /// # let store = Store::build(Arc::new(net), &ds,
    /// #     CompressParams::with_interval(ds.default_interval), StiuParams::default())?;
    /// // Positions come from `traj_index`; ids from ingest order.
    /// let j = store.traj_index(0).unwrap();
    /// let times = store.decode_times(j)?;
    /// assert!(times.windows(2).all(|w| w[0] <= w[1]));
    /// # Ok(()) }
    /// ```
    pub fn decode_times(&self, j: u32) -> Result<Arc<Vec<i64>>, Error> {
        self.snapshot().decode_times(j)
    }

    /// The decode cache's byte budget (`0` = disabled).
    pub fn cache_bytes(&self) -> usize {
        self.snapshot().cache.budget()
    }
}

/// Every query pins the current snapshot for its duration and runs on
/// that frozen epoch.
impl QueryTarget for Store {
    fn len(&self) -> usize {
        self.snapshot().len()
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
        self.snapshot().where_query(traj_id, t, alpha, page)
    }

    fn when_query(
        &self,
        traj_id: u64,
        edge: EdgeId,
        rd: f64,
        alpha: f64,
        page: PageRequest,
    ) -> Result<Page<WhenHit>, Error> {
        self.snapshot().when_query(traj_id, edge, rd, alpha, page)
    }

    fn range_query(
        &self,
        re: &Rect,
        tq: i64,
        alpha: f64,
        page: PageRequest,
    ) -> Result<Page<u64>, Error> {
        self.snapshot().range_query(re, tq, alpha, page)
    }

    fn cache_stats(&self) -> CacheStats {
        self.snapshot().cache_stats()
    }

    fn set_cache_bytes(&self, bytes: usize) {
        self.snapshot().set_cache_bytes(bytes);
    }

    fn clear_cache(&self) {
        self.snapshot().clear_cache();
    }
}

impl LiveStore for Store {
    fn writer(&self) -> &WriterCore {
        &self.core
    }

    fn contains_all(&self, tus: &[UncertainTrajectory]) -> bool {
        let snap = self.snap.load();
        tus.iter().all(|t| snap.traj_index(t.id).is_some())
    }

    fn publish_locked(&self, held: &Held<'_>, batch: &Dataset) -> Result<IngestReport, Error> {
        let tus: Vec<&UncertainTrajectory> = batch.trajectories.iter().collect();
        let cur = self.snap.load();
        let Some(state) = cur.prepare_trajs(batch.default_interval, &batch.name, &tus)? else {
            return Ok(IngestReport {
                ingested: 0,
                total: cur.len(),
                epoch: cur.epoch(),
            });
        };
        let epoch = self.core.log(held, batch)?;
        let snap = cur.successor(state, epoch);
        let total = snap.len();
        self.snap.store(Arc::new(snap));
        Ok(IngestReport {
            ingested: tus.len(),
            total,
            epoch,
        })
    }

    fn epoch(&self) -> u64 {
        self.snap.load().epoch()
    }

    fn write_cut(&self, _held: &Held<'_>, mut w: &mut dyn Write) -> Result<(), Error> {
        self.write(&mut w)
    }

    fn snapshots(&self) -> Vec<Arc<Snapshot>> {
        vec![self.snapshot()]
    }

    fn info(&self) -> InfoReport {
        InfoReport::over(&self.snapshots(), None)
    }

    fn default_interval(&self) -> i64 {
        self.params().default_interval
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

//! Immutable, epoch-stamped read state — what every query runs on.
//!
//! A [`Snapshot`] is a whole store frozen at one publish epoch: one
//! [`Partition`] per store partition (its compressed dataset, with the
//! trajectories and their query plans in flat segments,
//! [`crate::segment`], and its StIU index) and the store's one id map,
//! trajectory id → (partition, position), all behind one `Arc`.
//! Snapshots are **immutable** — nothing in this module takes `&mut
//! self` after construction — so an `Arc<Snapshot>` can be handed to any
//! number of query threads, pinned across a paginated walk, or
//! serialized to a container file while a writer publishes newer epochs
//! next to it.
//!
//! # Epoch lifecycle
//!
//! The owning [`crate::store::Store`] swaps its current snapshot through
//! a `Swap` — a hand-rolled `ArcSwap` on `Mutex<Arc<_>>` (the lock is
//! held only for the pointer clone/store, never across a query). A live
//! ingest:
//!
//! 1. takes the store's writer lock (writers serialize; readers never
//!    touch that lock),
//! 2. clones each touched partition's state into a `PartitionState`
//!    (`Partition::writable`), compresses and indexes the batch's
//!    trajectories on the work queue (`prepare`) and appends them to
//!    their partitions' states in batch order
//!    (`PartitionState::append`) — all **off the query path**,
//! 3. freezes the result as a new `Arc<Partition>` with the batch's
//!    epoch (`Partition::successor`) and publishes it, beside the
//!    untouched partitions and the id map extended by the batch, as the
//!    next snapshot with one swap.
//!
//! In-flight queries and pinned snapshots keep answering from the epoch
//! they loaded; the next query observes the new one. Ingest only ever
//! *appends* trajectories, so positions, page cursors and range keyset
//! cursors minted against an older epoch remain valid against newer
//! ones.
//!
//! The decode cache is the store's, shared across partitions and epochs
//! (every partition of a store holds the same `Arc<DecodeCache>` and its
//! partition number), but cache keys carry the partition and the epoch
//! that minted them: entries of superseded epochs stop hitting
//! immediately — no cross-epoch aliasing even if a future writer stops
//! being append-only — and the store's publish drops them, so the
//! cache's footprint under ingest does not grow with the number of
//! reads served since the last eviction.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

use utcq_network::{EdgeId, Rect, RoadNetwork};
use utcq_traj::UncertainTrajectory;

use crate::cache::{CacheStats, DecodeCache};
use crate::chunk::SharedIdMap;
use crate::compress::{Compressed, CompressedDataset};
use crate::error::Error;
use crate::params::CompressParams;
use crate::query::{
    range_scan, Page, PageRequest, QueryEngine, QueryTarget, RangeCandidate, WhenHit, WhereHit,
};
use crate::segment::Resident;
use crate::shard::{decode_cursor, encode_cursor, ShardPolicy, ShardSpec};
use crate::stiu::{build_node, NodeSegment, Stiu, MAX_SPAN_PARTITIONS};
use crate::storage::{self, Sections};

/// A hand-rolled `ArcSwap`: the one mutable cell of a live store. The
/// mutex guards only the pointer swap — `load` is a lock + `Arc` clone
/// (tens of nanoseconds), never held across a query or a decode.
///
/// Public so the `utcq_audit` model checker can drive the primitive
/// directly; everything else in the workspace reaches it through
/// [`crate::store::Store`].
pub struct Swap<T> {
    slot: Mutex<Arc<T>>,
}

impl<T> Swap<T> {
    /// A swap holding `value`.
    pub fn new(value: Arc<T>) -> Self {
        Self {
            slot: Mutex::new(value),
        }
    }

    /// Adopts the slot even after a panic between lock and unlock: the
    /// guarded state is a single pointer, which a dying writer can
    /// never leave half-swapped.
    fn slot_lock(&self) -> std::sync::MutexGuard<'_, Arc<T>> {
        match self.slot.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The current value. Cheap and wait-free in practice: the critical
    /// section is a single refcount increment.
    pub fn load(&self) -> Arc<T> {
        crate::hooks::point("swap.load");
        let pinned = Arc::clone(&self.slot_lock());
        crate::hooks::point("swap.loaded");
        pinned
    }

    /// Publishes a new value; readers that already loaded the old one
    /// keep it alive until they drop it.
    pub fn store(&self, value: Arc<T>) {
        crate::hooks::point("swap.store");
        *self.slot_lock() = value;
        crate::hooks::point("swap.stored");
    }
}

/// How a store places trajectories on its partitions, and so which
/// container it writes.
#[derive(Clone)]
pub(crate) enum Routing {
    /// No policy: one partition, saved as v7.
    Single,
    /// A routing policy, saved as v3; `None` for a reopened custom-policy
    /// container, which cannot place new batches.
    Policy(Option<Arc<dyn ShardPolicy>>),
}

/// A whole store at one publish epoch: every partition as that epoch
/// left it and the store's one id map, cheaply shareable behind an
/// `Arc`.
///
/// Obtained from [`crate::store::Store::snapshot`]. A pinned snapshot is
/// a *consistent read view* of the whole store: queries, paginated walks
/// and container writes against it are unaffected by concurrent
/// [`crate::store::Store::ingest`] calls publishing newer epochs, at
/// any partition count.
///
/// ```
/// use std::sync::Arc;
/// use utcq_core::{ByTime, CompressParams, QueryTarget, StoreBuilder};
/// # fn main() -> Result<(), utcq_core::Error> {
/// # let (net, mut ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 6, 7);
/// # let mut late = ds.clone();
/// # late.trajectories = ds.trajectories.split_off(3);
/// let store = StoreBuilder::new(Arc::new(net), CompressParams::with_interval(ds.default_interval))
///     .shard_by(Arc::new(ByTime { interval_s: 600 }), 3)?
///     .ingest(&ds)?
///     .finish()?;
/// let pinned = store.snapshot();          // consistent view at epoch 0
/// store.ingest(&late)?;                   // publishes epoch 1
/// assert_eq!(pinned.len(), 3);            // the pinned view is unchanged
/// assert_eq!(store.len(), 6);             // new queries see the new epoch
/// assert_eq!(store.snapshot().epoch(), 1);
/// # Ok(()) }
/// ```
pub struct Snapshot {
    /// The store's publish epoch; 0 for the built or opened state.
    pub(crate) epoch: u64,
    /// One partition per store partition, in directory order (a
    /// partition a batch did not touch keeps its `Arc` and its epoch).
    /// Never empty.
    pub(crate) parts: Vec<Arc<Partition>>,
    /// The store's only id map: trajectory id → (partition, position).
    pub(crate) ids: SharedIdMap,
    pub(crate) routing: Routing,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.epoch)
            .field("partitions", &self.parts)
            .finish_non_exhaustive()
    }
}

impl Snapshot {
    /// The store epoch this snapshot was published as.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Every partition, in directory order.
    pub fn partitions(&self) -> &[Arc<Partition>] {
        &self.parts
    }

    fn first(&self) -> &Partition {
        &self.parts[0] // bounds: Store::assemble rejects zero partitions
    }

    /// The partition and position of trajectory `id`, if stored.
    pub fn locate(&self, id: u64) -> Option<(u32, u32)> {
        self.ids.get(id)
    }

    /// The partition the id map names, checked.
    fn part(&self, p: u32) -> Result<&Partition, Error> {
        let missing = Error::CorruptStore("id map names a missing partition");
        self.parts
            .get(p as usize)
            .map(|part| &**part)
            .ok_or(missing)
    }

    /// Decodes the full time sequence of trajectory `id` (memoized in the
    /// store's decode cache); `None` if the snapshot has no such
    /// trajectory.
    pub fn decode_times(&self, id: u64) -> Result<Option<Arc<Vec<i64>>>, Error> {
        let Some((p, j)) = self.locate(id) else {
            return Ok(None);
        };
        let part = self.part(p)?;
        let missing = Error::CorruptStore("trajectory position out of range");
        let ct = part.cds.trajectories.get(j as usize).ok_or(missing)?;
        part.engine().times(j, &ct).map(Some)
    }

    /// Heap bytes this snapshot keeps resident, by part, in the order
    /// `utcq info` lists them: every partition's parts summed, then the
    /// id map (the road network and the decode cache are not counted).
    pub fn resident(&self) -> Resident {
        let mut census = Resident::default();
        for (part, bytes) in self.parts.iter().flat_map(|p| p.resident().0) {
            census.add(part, bytes);
        }
        census.add("id map", self.ids.heap_bytes());
        census
    }

    /// Persists this snapshot's container (see [`Snapshot::write`]) —
    /// the checkpoint path of a live store: the write runs entirely on the
    /// frozen state, so a server can keep ingesting while it runs.
    /// Crash-safe: the container lands via tmp file + rename + parent
    /// directory fsync, never as a torn in-place overwrite.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), Error> {
        crate::wal::atomic_write(path.as_ref(), |w| self.write(w))
    }

    /// Writes the container to an arbitrary writer: v7 for a store
    /// without a routing policy, v3 (the policy's shard directory, then
    /// one v7 container per partition) for one with.
    pub fn write(&self, w: &mut impl Write) -> Result<(), Error> {
        let policy = match &self.routing {
            Routing::Single => return self.first().write_counted(w).map(drop),
            Routing::Policy(policy) => policy.as_ref(),
        };
        let mut blobs = Vec::with_capacity(self.parts.len());
        for part in &self.parts {
            let mut blob = Vec::new();
            part.write_counted(&mut blob)?;
            blobs.push(blob);
        }
        let dir = ShardSpec::directory(policy.and_then(|p| p.spec()));
        storage::save_v3(dir, &blobs, w)?;
        Ok(())
    }

    /// Runs **where** or **when** on the partition holding `traj_id`,
    /// whose tag the cursor must carry (see [`crate::shard`]). An unknown
    /// id yields an empty page.
    fn on_owner<T>(
        &self,
        traj_id: u64,
        page: PageRequest,
        run: impl FnOnce(QueryEngine<'_>, u32) -> Result<Vec<T>, Error>,
    ) -> Result<Page<T>, Error> {
        let Some((p, j)) = self.locate(traj_id) else {
            return Ok(Page::slice(Vec::new(), page));
        };
        let cursor = match page.cursor.map(decode_cursor) {
            Some((tag, _)) if tag != p => return Err(Error::InvalidCursor),
            cursor => cursor.map(|(_, local)| local),
        };
        let local = PageRequest {
            limit: page.limit,
            cursor,
        };
        let answer = Page::slice(run(self.part(p)?.engine(), j)?, local);
        Ok(Page {
            items: answer.items,
            next_cursor: answer.next_cursor.map(|c| encode_cursor(p, c)),
            has_more: answer.has_more,
        })
    }
}

/// The one read path: where/when through the id map to the owning
/// partition, range over every partition at the snapshot's epoch.
impl QueryTarget for Snapshot {
    fn len(&self) -> usize {
        self.parts.iter().map(|part| part.len()).sum()
    }

    fn network(&self) -> &Arc<RoadNetwork> {
        &self.first().net
    }

    fn where_query(
        &self,
        traj_id: u64,
        t: i64,
        alpha: f64,
        page: PageRequest,
    ) -> Result<Page<WhereHit>, Error> {
        self.on_owner(traj_id, page, |engine, j| engine.where_query(j, t, alpha))
    }

    fn when_query(
        &self,
        traj_id: u64,
        edge: EdgeId,
        rd: f64,
        alpha: f64,
        page: PageRequest,
    ) -> Result<Page<WhenHit>, Error> {
        self.on_owner(traj_id, page, |engine, j| {
            engine.when_query(j, edge, rd, alpha)
        })
    }

    /// The candidates are every partition's interval postings at `tq`,
    /// merged id-ascending (ids are unique across partitions) for the one
    /// scan loop (`crate::query::range_scan`). A repeated shape is served
    /// from the store's [`crate::cache::DecodeCache`], which keeps the
    /// complete match set under (epoch, shape) once a scan ran
    /// unpaginated to the end.
    fn range_query(
        &self,
        re: &Rect,
        tq: i64,
        alpha: f64,
        page: PageRequest,
    ) -> Result<Page<u64>, Error> {
        let candidates = || self.parts.iter().flat_map(|p| p.range_candidates(tq));
        let cache = &self.first().cache;
        if let Some(ids) = cache.range_result(self.epoch, re, tq, alpha) {
            return Ok(page_of_range_result(&ids, page, |last| {
                candidates().any(|c| c.id > last)
            }));
        }
        let mut list: Vec<RangeCandidate> = candidates().collect();
        list.sort_unstable_by_key(|c| c.id);
        let engines: Vec<QueryEngine<'_>> = self.parts.iter().map(|p| p.engine()).collect();
        let out = range_scan(&engines, &list, re, tq, alpha, page)?;
        if page.cursor.is_none() && !out.has_more {
            // The scan started at the beginning and consumed every
            // candidate: `items` is the complete match set of the shape.
            let ids = Arc::new(out.items.clone());
            cache.note_range_result(self.epoch, re, tq, alpha, ids);
        }
        Ok(out)
    }

    fn cache_stats(&self) -> CacheStats {
        self.first().cache.stats()
    }

    fn set_cache_bytes(&self, bytes: usize) {
        self.first().cache.set_budget(bytes);
    }

    fn clear_cache(&self) {
        self.first().cache.clear();
    }
}

/// One page of a cached complete match set, byte-identical to what the
/// scan would produce for the same request — including `has_more`,
/// whose contract is "more *candidates* remain past the last returned
/// id" (matching or not): `more_after(last)` probes the interval index
/// without evaluating anything.
fn page_of_range_result(
    ids: &[u64],
    page: PageRequest,
    more_after: impl FnOnce(u64) -> bool,
) -> Page<u64> {
    let start = match page.cursor {
        Some(a) => ids.partition_point(|&id| id <= a),
        None => 0,
    };
    let limit = page.limit.max(1);
    // bounds: partition_point returns ≤ ids.len()
    let items: Vec<u64> = ids[start..].iter().take(limit).copied().collect();
    let has_more = items.len() >= limit && items.last().is_some_and(|&last| more_after(last));
    Page {
        next_cursor: items.last().copied().filter(|_| has_more),
        items,
        has_more,
    }
}

/// One store partition as one epoch left it: its compressed dataset
/// (with its query plans) and its StIU index. A partition is data, not a
/// query target: queries address the whole store through a
/// [`Snapshot`], whose id map finds a trajectory's partition.
pub struct Partition {
    pub(crate) net: Arc<RoadNetwork>,
    pub(crate) cds: CompressedDataset,
    pub(crate) stiu: Stiu,
    /// The store's decode cache, shared across partitions and epochs.
    pub(crate) cache: Arc<DecodeCache>,
    /// This partition's number in its store — part of every cache key.
    pub(crate) partition: u32,
    /// The store epoch that last published this partition; 0 for the
    /// state a store was built or opened with. Part of every cache key.
    pub(crate) epoch: u64,
}

impl std::fmt::Debug for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Partition")
            .field("name", &self.cds.name)
            .field("epoch", &self.epoch)
            .field("trajectories", &self.cds.trajectories.len())
            .finish_non_exhaustive()
    }
}

impl Partition {
    /// The store epoch that last published this partition.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The compressed dataset of this partition.
    pub fn compressed(&self) -> &CompressedDataset {
        &self.cds
    }

    /// The StIU index of this partition.
    pub fn stiu(&self) -> &Stiu {
        &self.stiu
    }

    /// Number of trajectories in this partition.
    pub fn len(&self) -> usize {
        self.cds.trajectories.len()
    }

    /// Whether this partition holds no trajectories.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes this partition keeps resident, by part (the id map is
    /// the store's: [`Snapshot::resident`] adds it once).
    pub(crate) fn resident(&self) -> Resident {
        let mut census = Resident::default();
        for part in ["stream arena", "offset tables", "rows and plans"] {
            census.add(part, 0);
        }
        self.cds.trajectories.resident(&mut census);
        self.stiu.trajs.resident(&mut census);
        census.add("postings", self.stiu.interval_trajs.heap_bytes());
        census
    }

    /// Writes this partition as a self-contained v7 container, returning
    /// the writer's own account of where the bits went (`utcq info` runs
    /// it into a sink).
    pub fn write_counted(&self, w: &mut impl Write) -> Result<Sections, Error> {
        Ok(storage::save_v7(&self.net, &self.cds, &self.stiu, w)?)
    }

    pub(crate) fn engine(&self) -> QueryEngine<'_> {
        QueryEngine {
            net: &self.net,
            cds: &self.cds,
            stiu: &self.stiu,
            cache: &self.cache,
            partition: self.partition,
            epoch: self.epoch,
        }
    }

    /// This partition's **range** candidates at `tq` in index (position)
    /// order: the StIU interval postings with each trajectory's id and
    /// pruning bound resolved.
    fn range_candidates(&self, tq: i64) -> impl Iterator<Item = RangeCandidate> + '_ {
        let rows = &self.cds.trajectories;
        let candidate = move |pos: u32| {
            let (id, mass) = rows.id_and_mass(pos as usize)?;
            Some(RangeCandidate {
                id,
                partition: self.partition,
                pos,
                mass,
            })
        };
        self.stiu
            .trajs_in_interval(tq)
            .into_iter()
            .filter_map(candidate)
    }

    /// Assembles an epoch-0 partition number `partition` from opened
    /// parts, validating cross-references (the per-trajectory query plans
    /// were built as the trajectories were appended), reading through
    /// the store's `cache`.
    pub(crate) fn assemble(
        net: Arc<RoadNetwork>,
        cds: CompressedDataset,
        stiu: Stiu,
        cache: Arc<DecodeCache>,
        partition: u32,
    ) -> Result<Self, Error> {
        if stiu.trajs.len() != cds.trajectories.len() {
            return Err(Error::CorruptStore("index/dataset trajectory counts"));
        }
        Ok(Self {
            net,
            cds,
            stiu,
            cache,
            partition,
            epoch: 0,
        })
    }

    /// The private, writable copy of this partition that a batch
    /// appends its share to (`routed`: the batch routes trajectories
    /// here), or `None` when the batch changes nothing here: no
    /// trajectory, and no name to adopt. The caller serializes writers
    /// and freezes the state with [`Partition::successor`] once the
    /// batch is logged. Splitting the append from the publish is what
    /// makes a batch all-or-nothing across partitions.
    pub(crate) fn writable(&self, name: &str, routed: bool) -> Option<PartitionState> {
        // Match StoreBuilder's name adoption (it adopts from every
        // batch, even an empty one) so live and offline builds
        // serialize identically in all cases.
        let adopt_name = self.cds.name.is_empty() && !name.is_empty();
        if !routed && !adopt_name {
            return None;
        }
        let mut state = PartitionState::from_partition(self);
        if adopt_name {
            state.cds.name = name.to_string();
        }
        Some(state)
    }

    /// Freezes a state from [`Partition::writable`] as
    /// `epoch` of the same partition, sharing this partition's network
    /// and decode cache.
    pub(crate) fn successor(&self, state: PartitionState, epoch: u64) -> Self {
        let (net, cache) = (Arc::clone(&self.net), Arc::clone(&self.cache));
        let same_index = || Ok::<_, std::convert::Infallible>(self.stiu.clone());
        let Ok(next) = state.into_partition(net, same_index, cache, self.partition, epoch);
        next
    }
}

/// One trajectory compressed and indexed but not yet stored: what
/// [`prepare`] makes on a worker of a batch's work queue and
/// [`PartitionState::append`] copies into its partition's tail segments.
pub(crate) struct Prepared {
    compressed: Compressed,
    node: NodeSegment,
}

/// Compresses and indexes one trajectory for a store whose index is
/// like `index` (its parameters, grid and edge cells) — the
/// per-trajectory step of every ingest path (builder, live store, WAL
/// replay), pure and so run on the work queue. Refuses a trajectory
/// whose samples span [`MAX_SPAN_PARTITIONS`] or more index intervals.
pub(crate) fn prepare(
    net: &RoadNetwork,
    params: &CompressParams,
    index: &Stiu,
    tu: &UncertainTrajectory,
) -> Result<Prepared, Error> {
    // `abs_diff` cannot overflow however far apart the samples.
    let too_long = |(first, last): (i64, i64)| last.abs_diff(first) >= MAX_SPAN_PARTITIONS;
    if index.params.span(&tu.times).is_some_and(too_long) {
        return Err(Error::SpanTooLong(tu.id));
    }
    let compressed = Compressed::of(net, tu, params)?;
    let node = build_node(net, tu, &compressed.view()?, index, params.default_interval)?;
    Ok(Prepared { compressed, node })
}

/// The writer-side, mutable counterpart of a [`Partition`]: what a
/// [`crate::store::StoreBuilder`] accumulates batch by batch, and what a
/// live [`crate::store::Store::ingest`] clones out of the current
/// partition, extends, and publishes back.
///
/// Both fill it the same way: every trajectory goes through
/// [`prepare`] and then, in batch order, [`PartitionState::append`],
/// which is why a live-ingested store and an offline
/// `StoreBuilder`-built store over the same batches serialize to
/// byte-identical containers (`tests/live_ingest.rs` and
/// `tests/parallel_ingest.rs` assert this).
pub(crate) struct PartitionState {
    pub(crate) cds: CompressedDataset,
    /// Deferred until the first trajectory so `stiu_params` stays
    /// configurable on an empty builder.
    pub(crate) stiu: Option<Stiu>,
}

impl PartitionState {
    /// A fresh, empty state for the given compression parameters.
    pub(crate) fn new(net: &RoadNetwork, params: CompressParams) -> Self {
        Self {
            cds: CompressedDataset::empty(net, "", params),
            stiu: None,
        }
    }

    /// Clones a partition's frozen state back into mutable form — the
    /// copy-out step of a live ingest (off the query path; readers keep
    /// the partition untouched). O(batch), not O(store): every container
    /// is structurally shared ([`crate::segment`], [`crate::chunk`]), so
    /// this clone copies segment directories only; appending the batch
    /// then copies at most each container's tail segment once
    /// (copy-on-write), never the sealed ones.
    pub(crate) fn from_partition(part: &Partition) -> Self {
        Self {
            cds: part.cds.clone(),
            stiu: Some(part.stiu.clone()),
        }
    }

    /// Whether any trajectory has been ingested yet.
    pub(crate) fn has_ingested(&self) -> bool {
        !self.cds.trajectories.is_empty()
    }

    /// Stores a trajectory [`prepare`]d for this partition's store at
    /// the end and returns its position: copies only, on the thread that
    /// owns the state. The store's id map has refused a duplicate id
    /// already.
    pub(crate) fn append(&mut self, prepared: &Prepared) -> Result<u32, Error> {
        let stiu = self
            .stiu
            .as_mut()
            .ok_or(Error::CorruptStore("partition without an index"))?;
        let j = self.cds.append(&prepared.compressed)?;
        stiu.append(&prepared.node)?;
        Ok(j)
    }

    /// Freezes the state into an immutable partition number `partition`
    /// at `epoch`, whose index `stiu` makes if nothing was ingested yet.
    pub(crate) fn into_partition<E>(
        self,
        net: Arc<RoadNetwork>,
        stiu: impl FnOnce() -> Result<Stiu, E>,
        cache: Arc<DecodeCache>,
        partition: u32,
        epoch: u64,
    ) -> Result<Partition, E> {
        let stiu = match self.stiu {
            Some(s) => s,
            None => stiu()?,
        };
        Ok(Partition {
            net,
            cds: self.cds,
            stiu,
            cache,
            partition,
            epoch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_publishes_and_pins() {
        let swap = Swap::new(Arc::new(1u32));
        let pinned = swap.load();
        swap.store(Arc::new(2u32));
        assert_eq!(*pinned, 1, "pinned value survives a publish");
        assert_eq!(*swap.load(), 2, "new loads see the new value");
    }

    #[test]
    fn swap_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Swap<Snapshot>>();
        assert_send_sync::<Snapshot>();
        assert_send_sync::<Partition>();
    }
}

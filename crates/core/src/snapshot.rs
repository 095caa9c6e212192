//! Immutable, epoch-stamped read state — what every query runs on.
//!
//! A [`Snapshot`] is the complete read path of one store partition
//! frozen at a point in time: the compressed dataset (its trajectories
//! and their query plans in flat segments, [`crate::segment`]), its StIU
//! index and the id map, all behind one `Arc`.
//! Snapshots are **immutable** — nothing in this module takes `&mut
//! self` after construction — so an `Arc<Snapshot>` can be handed to any
//! number of query threads, pinned across a paginated walk, or
//! serialized to a container file while a writer publishes newer epochs
//! next to it.
//!
//! # Epoch lifecycle
//!
//! The owning [`crate::store::Store`] keeps one snapshot per partition
//! inside the single state it swaps through a `Swap` — a hand-rolled
//! `ArcSwap` on `Mutex<Arc<_>>` (the lock is held only for the pointer
//! clone/store, never across a query). A live ingest:
//!
//! 1. takes the store's writer lock (writers serialize; readers never
//!    touch that lock),
//! 2. clones each touched snapshot's state into a `PartitionState`
//!    (`Snapshot::prepare_trajs`), compresses and indexes the new
//!    batch into it — all **off the query path**,
//! 3. freezes the result as a new `Arc<Snapshot>` with the batch's
//!    epoch (`Snapshot::successor`) and publishes it, beside the
//!    untouched partitions' snapshots, with one swap.
//!
//! In-flight queries and pinned snapshots keep answering from the epoch
//! they loaded; the next query observes the new one. Ingest only ever
//! *appends* trajectories, so positions, page cursors and range keyset
//! cursors minted against an older epoch remain valid against newer
//! ones.
//!
//! The decode cache is shared across epochs (every snapshot of one
//! partition holds the same `Arc<DecodeCache>`), but cache keys
//! carry the epoch that minted them: entries of superseded epochs stop
//! hitting immediately — no cross-epoch aliasing even if a future
//! writer stops being append-only — and `Snapshot::successor` drops
//! them, so the cache's footprint under ingest does not grow with the
//! number of reads served since the last eviction.

use std::borrow::Borrow;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

use utcq_network::{EdgeId, Rect, RoadNetwork};
use utcq_traj::UncertainTrajectory;

use crate::cache::{CacheStats, DecodeCache};
use crate::chunk::SharedIdMap;
use crate::compress::{compress_trajectory, CompressedDataset, Ratios};
use crate::error::Error;
use crate::query::{
    range_scan, Page, PageRequest, QueryEngine, QueryTarget, RangeCandidate, WhenHit, WhereHit,
};
use crate::segment::Resident;
use crate::stiu::{Stiu, StiuParams, MAX_SPAN_PARTITIONS};
use crate::storage::Sections;

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

/// One immutable epoch of a store partition: compressed dataset (with
/// its query plans) + StIU index + id map, cheaply shareable behind an
/// `Arc`.
///
/// Obtained from [`crate::store::Store::snapshot`] or
/// [`crate::live::LiveStore::snapshots`]. A pinned snapshot
/// is a *consistent read view*: queries, paginated walks and container
/// writes against it are unaffected by concurrent
/// [`crate::live::LiveStore::ingest`] calls publishing newer epochs.
///
/// ```
/// use std::sync::Arc;
/// use utcq_core::{CompressParams, LiveStore, QueryTarget, StiuParams, Store};
/// # fn main() -> Result<(), utcq_core::Error> {
/// # let (net, mut ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 6, 7);
/// # let mut late = ds.clone();
/// # late.trajectories = ds.trajectories.split_off(3);
/// let store = Store::build(Arc::new(net), &ds,
///     CompressParams::with_interval(ds.default_interval), StiuParams::default())?;
/// let pinned = store.snapshot();          // consistent view at epoch 0
/// store.ingest(&late)?;                   // publishes epoch 1
/// assert_eq!(pinned.len(), 3);            // the pinned view is unchanged
/// assert_eq!(store.len(), 6);             // new queries see the new epoch
/// assert_eq!(store.snapshot().epoch(), 1);
/// # Ok(()) }
/// ```
pub struct Snapshot {
    pub(crate) net: Arc<RoadNetwork>,
    pub(crate) cds: CompressedDataset,
    pub(crate) stiu: Stiu,
    pub(crate) id_to_idx: SharedIdMap,
    /// The partition's decode cache, shared across epochs.
    pub(crate) cache: Arc<DecodeCache>,
    /// The store epoch that published this snapshot; 0 for the state a
    /// store was built or opened with.
    pub(crate) epoch: u64,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("name", &self.cds.name)
            .field("epoch", &self.epoch)
            .field("trajectories", &self.cds.trajectories.len())
            .finish_non_exhaustive()
    }
}

impl Snapshot {
    /// The publication counter of this snapshot within its store.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The compressed dataset frozen in this snapshot.
    pub fn compressed(&self) -> &CompressedDataset {
        &self.cds
    }

    /// The StIU index frozen in this snapshot.
    pub fn stiu(&self) -> &Stiu {
        &self.stiu
    }

    /// Component-wise and total compression ratios.
    pub fn ratios(&self) -> Ratios {
        self.cds.ratios()
    }

    /// Looks up a trajectory's position by id.
    pub fn traj_index(&self, id: u64) -> Option<u32> {
        self.id_to_idx.get(id)
    }

    /// Decodes the full time sequence of the trajectory at position `j`
    /// (memoized in the shared decode cache under this epoch).
    pub fn decode_times(&self, j: u32) -> Result<Arc<Vec<i64>>, Error> {
        let ct = self
            .cds
            .trajectories
            .get(j as usize)
            .ok_or(Error::CorruptStore("trajectory position out of range"))?;
        self.engine().times(j, &ct)
    }

    /// Heap bytes this snapshot keeps resident, by part, in the order
    /// `utcq info` lists them (the road network and the decode cache are
    /// the store's, not counted).
    pub fn resident(&self) -> Resident {
        let mut census = Resident::default();
        for part in ["stream arena", "offset tables", "rows and plans"] {
            census.add(part, 0);
        }
        self.cds.trajectories.resident(&mut census);
        self.stiu.trajs.resident(&mut census);
        census.add("id map", self.id_to_idx.heap_bytes());
        census.add("postings", self.stiu.interval_trajs.heap_bytes());
        census
    }

    /// Persists this snapshot as a self-contained v6 container — the
    /// checkpoint path of a live store: the write runs entirely on the
    /// frozen state, so a server can keep ingesting while it runs.
    /// Crash-safe: the container lands via tmp file + rename + parent
    /// directory fsync, never as a torn in-place overwrite.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), Error> {
        crate::wal::atomic_write(path.as_ref(), |w| self.write(w))
    }

    /// Writes the v6 container to an arbitrary writer.
    pub fn write(&self, w: &mut impl Write) -> Result<(), Error> {
        self.write_counted(w).map(drop)
    }

    /// [`Snapshot::write`], returning the writer's own account of where
    /// the bits went (`utcq info` runs it into a sink).
    pub fn write_counted(&self, w: &mut impl Write) -> Result<Sections, Error> {
        Ok(crate::storage::save_v6(
            &self.net, &self.cds, &self.stiu, w,
        )?)
    }

    pub(crate) fn engine(&self) -> QueryEngine<'_> {
        QueryEngine {
            net: &self.net,
            cds: &self.cds,
            stiu: &self.stiu,
            cache: &self.cache,
            epoch: self.epoch,
        }
    }

    /// This snapshot's **range** candidates at `tq` in index (position)
    /// order, scanned as partition `partition` of its store: the StIU
    /// interval postings with each trajectory's id and pruning bound
    /// resolved.
    fn range_candidates(
        &self,
        partition: u32,
        tq: i64,
    ) -> impl Iterator<Item = RangeCandidate> + '_ {
        let rows = &self.cds.trajectories;
        let candidate = move |pos: u32| {
            let (id, mass) = rows.id_and_mass(pos as usize)?;
            Some(RangeCandidate {
                id,
                partition,
                pos,
                mass,
            })
        };
        self.stiu
            .trajs_in_interval(tq)
            .into_iter()
            .filter_map(candidate)
    }

    /// Assembles an epoch-0 snapshot from opened parts, validating
    /// cross-references (the per-trajectory query plans were built as
    /// the trajectories were appended), with a fresh decode cache of
    /// `cache_bytes`.
    pub(crate) fn assemble(
        net: Arc<RoadNetwork>,
        cds: CompressedDataset,
        stiu: Stiu,
        cache_bytes: usize,
    ) -> Result<Self, Error> {
        if stiu.trajs.len() != cds.trajectories.len() {
            return Err(Error::CorruptStore("index/dataset trajectory counts"));
        }
        let mut id_to_idx = SharedIdMap::new();
        for (i, ct) in cds.trajectories.iter().enumerate() {
            if id_to_idx.contains(ct.id) {
                return Err(Error::DuplicateTrajectory(ct.id));
            }
            id_to_idx.insert(ct.id, i as u32);
        }
        Ok(Self {
            net,
            cds,
            stiu,
            id_to_idx,
            cache: Arc::new(DecodeCache::with_budget(cache_bytes)),
            epoch: 0,
        })
    }

    /// Builds — without publishing — the state that appending `tus`
    /// to this snapshot would produce, against a private clone of it;
    /// `Ok(None)` when nothing would change (empty batch with no name
    /// to adopt). The caller serializes writers and freezes the state
    /// with [`Snapshot::successor`] once the batch is logged. Splitting
    /// prepare from publish is what makes a batch all-or-nothing across
    /// partitions. The store has checked the batch already.
    pub(crate) fn prepare_trajs(
        &self,
        name: &str,
        tus: &[&UncertainTrajectory],
    ) -> Result<Option<PartitionState>, Error> {
        crate::hooks::point("snapshot.prepare");
        // Match StoreBuilder's name adoption (it adopts from every
        // batch, even an empty one) so live and offline builds
        // serialize identically in all cases.
        let adopt_name = self.cds.name.is_empty() && !name.is_empty();
        if tus.is_empty() && !adopt_name {
            return Ok(None);
        }
        let mut state = PartitionState::from_snapshot(self);
        if adopt_name {
            state.cds.name = name.to_string();
        }
        for tu in tus {
            state.ingest_traj(&self.net, self.stiu.params, tu)?;
        }
        Ok(Some(state))
    }

    /// Freezes a state prepared by [`Snapshot::prepare_trajs`] as
    /// `epoch`, sharing this snapshot's network and decode cache, whose
    /// entries of earlier epochs it drops.
    pub(crate) fn successor(&self, state: PartitionState, epoch: u64) -> Self {
        self.cache.retire_before(epoch, epoch);
        let (net, cache) = (Arc::clone(&self.net), Arc::clone(&self.cache));
        let same_index = || Ok::<_, std::convert::Infallible>(self.stiu.clone());
        let Ok(next) = state.into_snapshot(net, same_index, cache, epoch);
        next
    }
}

impl QueryTarget for Snapshot {
    fn len(&self) -> usize {
        self.cds.trajectories.len()
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
        let Some(j) = self.traj_index(traj_id) else {
            return Ok(Page::slice(Vec::new(), page));
        };
        Ok(Page::slice(self.engine().where_query(j, t, alpha)?, page))
    }

    fn when_query(
        &self,
        traj_id: u64,
        edge: EdgeId,
        rd: f64,
        alpha: f64,
        page: PageRequest,
    ) -> Result<Page<WhenHit>, Error> {
        let Some(j) = self.traj_index(traj_id) else {
            return Ok(Page::slice(Vec::new(), page));
        };
        Ok(Page::slice(
            self.engine().when_query(j, edge, rd, alpha)?,
            page,
        ))
    }

    /// This snapshot alone, read as a one-partition store at its epoch.
    fn range_query(
        &self,
        re: &Rect,
        tq: i64,
        alpha: f64,
        page: PageRequest,
    ) -> Result<Page<u64>, Error> {
        range_over(std::slice::from_ref(self), self.epoch, re, tq, alpha, page)
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

/// **range** over `parts` read as one store at its publish `epoch` — the
/// one range path: a store runs it over its partitions, a pinned snapshot
/// over itself. The candidates are every partition's interval postings
/// at `tq`, merged id-ascending (ids are unique across partitions) for
/// the one scan loop (`crate::query::range_scan`). A repeated shape is
/// served from the [`crate::cache::DecodeCache`] of the first partition,
/// which keeps the complete match set under (`epoch`, partition count)
/// once a scan ran unpaginated to the end.
pub(crate) fn range_over<P: Borrow<Snapshot>>(
    parts: &[P],
    epoch: u64,
    re: &Rect,
    tq: i64,
    alpha: f64,
    page: PageRequest,
) -> Result<Page<u64>, Error> {
    let candidates = || {
        let parts = parts.iter().enumerate();
        parts.flat_map(move |(s, p)| p.borrow().range_candidates(s as u32, tq))
    };
    let Some(first) = parts.first() else {
        return Ok(Page::slice(Vec::new(), page));
    };
    let (cache, scope) = (&first.borrow().cache, parts.len() as u32);
    if let Some(ids) = cache.range_result(epoch, scope, re, tq, alpha) {
        return Ok(page_of_range_result(&ids, page, |last| {
            candidates().any(|c| c.id > last)
        }));
    }
    let mut list: Vec<RangeCandidate> = candidates().collect();
    list.sort_unstable_by_key(|c| c.id);
    let engines: Vec<QueryEngine<'_>> = parts.iter().map(|p| p.borrow().engine()).collect();
    let out = range_scan(&engines, &list, re, tq, alpha, page)?;
    if page.cursor.is_none() && !out.has_more {
        // The scan started at the beginning and consumed every
        // candidate: `items` is the complete match set of the shape.
        let ids = Arc::new(out.items.clone());
        cache.note_range_result(epoch, scope, re, tq, alpha, ids);
    }
    Ok(out)
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

/// The writer-side, mutable counterpart of a [`Snapshot`]: what a
/// [`crate::store::StoreBuilder`] accumulates batch by batch, and what a
/// live [`crate::live::LiveStore::ingest`] clones out of the current
/// snapshot, extends, and publishes back.
///
/// Both construction paths funnel through [`PartitionState::ingest_traj`],
/// which is why a live-ingested store and an offline
/// `StoreBuilder`-built store over the same batches serialize to
/// byte-identical containers (`tests/live_ingest.rs` asserts this).
pub(crate) struct PartitionState {
    pub(crate) cds: CompressedDataset,
    /// Deferred until the first trajectory so `stiu_params` stays
    /// configurable on an empty builder.
    pub(crate) stiu: Option<Stiu>,
    pub(crate) id_to_idx: SharedIdMap,
}

impl PartitionState {
    /// A fresh, empty state for the given compression parameters.
    pub(crate) fn new(net: &RoadNetwork, params: crate::params::CompressParams) -> Self {
        let w_e = crate::compressed::edge_number_width(net.max_out_degree());
        Self {
            cds: CompressedDataset {
                name: String::new(),
                params,
                w_e,
                trajectories: Default::default(),
                compressed: Default::default(),
                raw: Default::default(),
            },
            stiu: None,
            id_to_idx: SharedIdMap::new(),
        }
    }

    /// Clones a snapshot's frozen state back into mutable form — the
    /// copy-out step of a live ingest (off the query path; readers keep
    /// the snapshot untouched). O(batch), not O(store): every container
    /// is structurally shared ([`crate::segment`], [`crate::chunk`]), so
    /// this clone copies segment directories only; appending the batch
    /// then copies at most each container's tail segment once
    /// (copy-on-write), never the sealed ones.
    pub(crate) fn from_snapshot(snap: &Snapshot) -> Self {
        Self {
            cds: snap.cds.clone(),
            stiu: Some(snap.stiu.clone()),
            id_to_idx: snap.id_to_idx.clone(),
        }
    }

    /// Whether any trajectory has been ingested yet.
    pub(crate) fn has_ingested(&self) -> bool {
        !self.cds.trajectories.is_empty()
    }

    /// Compresses and indexes a single trajectory — the shared per-item
    /// step of every ingest path (builder, sharded builder, live store).
    pub(crate) fn ingest_traj(
        &mut self,
        net: &RoadNetwork,
        stiu_params: StiuParams,
        tu: &UncertainTrajectory,
    ) -> Result<(), Error> {
        let params = self.cds.params;
        let stiu = match &mut self.stiu {
            Some(stiu) => stiu,
            None => self.stiu.insert(Stiu::new(net, stiu_params)?),
        };
        let p_codec = params.p_codec();
        let j = self.cds.trajectories.len() as u32;
        if self.id_to_idx.contains(tu.id) {
            return Err(Error::DuplicateTrajectory(tu.id));
        }
        // `abs_diff` cannot overflow however far apart the samples.
        let too_long = |(first, last): (i64, i64)| last.abs_diff(first) >= MAX_SPAN_PARTITIONS;
        if stiu.params.span(&tu.times).is_some_and(too_long) {
            return Err(Error::SpanTooLong(tu.id));
        }
        let (ct, size) = compress_trajectory(net, tu, &params)?;
        self.cds.compressed.add(&size);
        self.cds.raw.add(&utcq_traj::size::uncompressed_bits(tu));
        self.cds.trajectories.push(&ct, &p_codec)?;
        let missing = Error::CorruptStore("appended trajectory not stored");
        let stored = self.cds.trajectories.get(j as usize).ok_or(missing)?;
        stiu.push(net, tu, &stored)?;
        self.id_to_idx.insert(tu.id, j);
        Ok(())
    }

    /// Freezes the state into an immutable snapshot at `epoch`, whose
    /// index `stiu` makes if nothing was ingested yet.
    pub(crate) fn into_snapshot<E>(
        self,
        net: Arc<RoadNetwork>,
        stiu: impl FnOnce() -> Result<Stiu, E>,
        cache: Arc<DecodeCache>,
        epoch: u64,
    ) -> Result<Snapshot, E> {
        let stiu = match self.stiu {
            Some(s) => s,
            None => stiu()?,
        };
        Ok(Snapshot {
            net,
            cds: self.cds,
            stiu,
            id_to_idx: self.id_to_idx,
            cache,
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
    }
}

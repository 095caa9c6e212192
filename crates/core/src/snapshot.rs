//! Immutable, epoch-stamped read state — what every query runs on.
//!
//! A [`Snapshot`] is a whole store frozen at one publish epoch: one
//! [`Partition`] per store partition (its compressed dataset, with the
//! trajectories in flat segments, [`crate::segment`], and its StIU
//! index) and the store's one id map,
//! trajectory id → (partition, position), all behind one `Arc`. A
//! published snapshot is **immutable**, so an `Arc<Snapshot>` can be
//! handed to any number of query threads, pinned across a paginated
//! walk, or serialized to a container file while a writer publishes
//! newer epochs next to it.
//!
//! # Growing a snapshot
//!
//! A store grows one way: `Snapshot::extend` adds a batch to a private
//! copy of a snapshot (a clone is one refcount bump per partition). It
//! checks and routes the batch, compresses and indexes its trajectories
//! on the work queue (`prepare`) and appends them in batch order to the
//! partitions they are routed to (`Partition::append`). A partition
//! being written becomes its own copy on the first write
//! (`Arc::make_mut`; a clone of a `Partition` again bumps refcounts, and
//! its first append copies each tail segment once). A
//! [`crate::store::StoreBuilder`] extends its epoch-0 snapshot, which it
//! alone holds, so nothing is copied.
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
//! 2. extends a copy of the current snapshot by the batch — all **off
//!    the query path**,
//! 3. logs the batch, stamps the copy with the epoch the log
//!    allocated, and publishes it with one swap; untouched partitions
//!    keep their `Arc`s.
//!
//! In-flight queries and pinned snapshots keep answering from the epoch
//! they loaded; the next query observes the new one. Ingest only ever
//! *appends* trajectories, so positions, page cursors and range keyset
//! cursors minted against an older epoch remain valid against newer
//! ones.
//!
//! The decode cache is the store's, shared across partitions and epochs
//! (every partition of a store holds the same `Arc<DecodeCache>` and its
//! partition number). Its keys carry the partition and the position, and
//! because ingest only appends, an entry decoded through one snapshot
//! serves every other (see [`crate::cache`]); a publish leaves it alone.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

use std::collections::HashSet;

use utcq_network::{EdgeId, Rect, RoadNetwork};
use utcq_traj::{Dataset, UncertainTrajectory};

use crate::cache::{CacheStats, DecodeCache};
use crate::chunk::SharedIdMap;
use crate::compress::{Compressed, CompressedDataset};
use crate::error::Error;
use crate::par::par_in_order;
use crate::params::CompressParams;
use crate::query::{
    range_scan, Page, PageRequest, QueryEngine, QueryTarget, RangeCandidate, WhenHit, WhereHit,
};
use crate::segment::Resident;
use crate::shard::{decode_cursor, encode_cursor, ShardPolicy, ShardSpec};
use crate::stiu::{build_node, NodeSegment, Stiu, TimeSpan, MAX_SPAN_PARTITIONS};
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
    /// No policy: one partition (routing kind `single`).
    Single,
    /// A routing policy; `None` for a reopened custom-policy container,
    /// which cannot place new batches.
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
#[derive(Clone)]
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

    pub(crate) fn first(&self) -> &Partition {
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
        crate::wal::atomic_write(path.as_ref(), |w| self.write(w).map(drop))
    }

    /// Writes the container to an arbitrary writer in one pass: a v8
    /// head (the routing and the partition count), the store's one road
    /// network, then each partition's body, straight to `w` — no
    /// partition is written twice or held in memory. Returns where the
    /// bits went (`utcq info` writes into a sink for its table).
    pub fn write(&self, w: &mut impl Write) -> Result<Sections, Error> {
        let (kind, param) = match &self.routing {
            Routing::Single => (storage::ROUTING_SINGLE, 0),
            Routing::Policy(policy) => ShardSpec::routing(policy.as_ref().and_then(|p| p.spec())),
        };
        let parts = u32::try_from(self.parts.len())
            .map_err(|_| Error::ShardConfig("more partitions than a container holds"))?;
        let net = &self.first().net;
        let head = storage::Head { kind, param, parts };
        let mut sections = Sections {
            network: storage::write_head(head, net, w)?,
            ..Sections::default()
        };
        for part in &self.parts {
            sections += storage::write_body(net, &part.cds, &part.stiu, w)?;
        }
        Ok(sections)
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

impl Snapshot {
    /// Extends this snapshot by `batch`: the one write step of every
    /// ingest path (builder, live store, WAL replay, followers). Checks
    /// the batch and its ids against the id map and routes it; the
    /// trajectories are [`prepare`]d on the work queue and appended, in
    /// batch order, to the partitions they are routed to (each becomes
    /// its own copy on the first write), and the id map is extended. A
    /// partition without a name adopts the batch's, even from a batch
    /// without trajectories. The epoch is left as it is: a live publish
    /// stamps the snapshot afterwards. Returns whether
    /// anything changed. After an error the snapshot must be dropped: a
    /// partition may hold part of the batch. A store reopened from a
    /// custom-policy container cannot route: [`Error::ShardConfig`].
    pub(crate) fn extend(&mut self, batch: &Dataset) -> Result<bool, Error> {
        let first = self.first();
        let (net, params, index) = (Arc::clone(&first.net), first.cds.params, first.stiu.blank());
        check_batch(&net, params.default_interval, batch)?;
        let policy =
            match &self.routing {
                Routing::Single => None,
                Routing::Policy(Some(policy)) => Some(policy.as_ref()),
                Routing::Policy(None) => return Err(Error::ShardConfig(
                    "live ingest needs a routing policy (custom-policy containers are read-only)",
                )),
            };
        check_new_ids(&self.ids, batch)?;
        let tus = &batch.trajectories;
        let routes = routes(policy, &net, tus, self.parts.len() as u32)?;
        crate::hooks::point("snapshot.prepare");
        let mut changed = !tus.is_empty();
        if !batch.name.is_empty() {
            for part in self.parts.iter_mut().filter(|p| p.cds.name.is_empty()) {
                Arc::make_mut(part).cds.name.clone_from(&batch.name);
                changed = true;
            }
        }
        let (parts, ids) = (&mut self.parts, &mut self.ids);
        let missing = || Error::CorruptStore("trajectory past the batch");
        par_in_order(
            tus.len(),
            |i| prepare(&net, &params, &index, tus.get(i).ok_or_else(missing)?),
            |i, prepared| {
                let (tu, &s) = tus.get(i).zip(routes.get(i)).ok_or_else(missing)?;
                let routed = Error::CorruptStore("routed past the partitions");
                let part = Arc::make_mut(parts.get_mut(s as usize).ok_or(routed)?);
                ids.insert(tu.id, (s, part.append(prepared)?));
                Ok(())
            },
        )?;
        Ok(changed)
    }
}

/// What every ingest checks before routing any of a batch: each edge
/// exists, each trajectory is well-formed on `net`
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

/// The partition among `n` that `policy` places each of `tus` on (0
/// without a policy).
fn routes(
    policy: Option<&dyn ShardPolicy>,
    net: &RoadNetwork,
    tus: &[UncertainTrajectory],
    n: u32,
) -> Result<Vec<u32>, Error> {
    let route = |tu| match policy.map_or(0, |p| p.route(net, tu, n)) {
        s if s < n => Ok(s),
        _ => Err(Error::ShardConfig("policy routed past the shard count")),
    };
    tus.iter().map(route).collect()
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
    /// scan loop (`crate::query::range_scan`).
    fn range_query(
        &self,
        re: &Rect,
        tq: i64,
        alpha: f64,
        page: PageRequest,
    ) -> Result<Page<u64>, Error> {
        let mut list: Vec<RangeCandidate> = self
            .parts
            .iter()
            .flat_map(|p| p.range_candidates(tq))
            .collect();
        list.sort_unstable_by_key(|c| c.id);
        let engines: Vec<QueryEngine<'_>> = self.parts.iter().map(|p| p.engine()).collect();
        range_scan(&engines, &list, re, tq, alpha, page)
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

/// One store partition as one epoch left it: its compressed dataset
/// (with its query plans) and its StIU index. A partition is data, not a
/// query target: queries address the whole store through a
/// [`Snapshot`], whose id map finds a trajectory's partition. A clone
/// shares every segment (refcount bumps only).
#[derive(Clone)]
pub struct Partition {
    pub(crate) net: Arc<RoadNetwork>,
    pub(crate) cds: CompressedDataset,
    pub(crate) stiu: Stiu,
    /// The store's decode cache, shared across partitions and epochs.
    pub(crate) cache: Arc<DecodeCache>,
    /// This partition's number in its store — part of every cache key.
    pub(crate) partition: u32,
}

impl std::fmt::Debug for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Partition")
            .field("name", &self.cds.name)
            .field("trajectories", &self.cds.trajectories.len())
            .finish_non_exhaustive()
    }
}

impl Partition {
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
        for part in ["blocks", "offset tables", "rows and plans"] {
            census.add(part, 0);
        }
        self.cds.trajectories.resident(&mut census);
        self.stiu.trajs.resident(&mut census);
        // Each node segment counts its postings; a partition without one
        // still lists the row.
        census.add("postings", 0);
        census
    }

    pub(crate) fn engine(&self) -> QueryEngine<'_> {
        QueryEngine {
            net: &self.net,
            cds: &self.cds,
            stiu: &self.stiu,
            cache: &self.cache,
            partition: self.partition,
        }
    }

    /// This partition's **range** candidates at `tq` in index (position)
    /// order: the StIU interval postings with each trajectory's id
    /// resolved.
    fn range_candidates(&self, tq: i64) -> impl Iterator<Item = RangeCandidate> + '_ {
        let rows = &self.cds.trajectories;
        let candidate = move |pos: u32| {
            Some(RangeCandidate {
                id: rows.id(pos as usize)?,
                partition: self.partition,
                pos,
            })
        };
        self.stiu
            .trajs_in_interval(tq)
            .into_iter()
            .filter_map(candidate)
    }

    /// Assembles an epoch-0 partition number `partition` from opened
    /// parts, validating cross-references (each trajectory's instance
    /// order and fields were checked as it was appended), reading through
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
        })
    }

    /// Stores a trajectory [`prepare`]d for this partition's store at
    /// the end and returns its position: copies only, on the thread that
    /// extends the snapshot. The id map has refused a duplicate id
    /// already.
    fn append(&mut self, prepared: &Prepared) -> Result<u32, Error> {
        let j = self.cds.append(&prepared.compressed)?;
        self.stiu.append(&prepared.node)?;
        Ok(j)
    }
}

/// One trajectory compressed and indexed but not yet stored: what
/// [`prepare`] makes on a worker of a batch's work queue and
/// [`Partition::append`] copies into its partition's tail segments.
struct Prepared {
    compressed: Compressed,
    node: (NodeSegment, TimeSpan),
}

/// Compresses and indexes one trajectory for a store whose index is
/// like `index` (its parameters, grid and edge cells) — the
/// per-trajectory step of [`Snapshot::extend`], pure and so run on the
/// work queue. Refuses a trajectory whose samples span
/// [`MAX_SPAN_PARTITIONS`] or more index intervals.
fn prepare(
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

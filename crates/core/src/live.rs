//! The one writer core: what makes a store shape *live* and *durable*.
//!
//! Every live shape publishes the same way — batch in, next epoch out —
//! so the mechanism around the publish is written once here and
//! embedded by both [`crate::store::Store`] and
//! [`crate::shard::ShardedStore`]:
//!
//! * [`WriterCore`] owns the writer lock, the publish-epoch counter and
//!   the write-ahead-log slot. Lock order, everywhere: **writer lock,
//!   then the WAL slot**.
//! * [`LiveStore`] is the live handle. A shape implements a small seam
//!   (*are all these ids present*, *prepare and publish this batch
//!   under the held lock*, *current publish epoch*, *write a consistent
//!   cut*) plus its read-side description; `ingest`, the WAL
//!   attach/replay loop, `checkpoint` and the `tail`/dedup reads are
//!   provided on top of that seam and exist nowhere else.
//!
//! Append-before-publish: a shape's [`LiveStore::publish_locked`]
//! prepares the batch off the read path, calls `WriterCore::log` —
//! which allocates the next epoch and appends the record to the log
//! (rolling the allocation back if the append fails, so log epochs stay
//! gap-free 1, 2, 3…) — and only then swaps the new state in. See
//! `docs/DURABILITY.md`.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use utcq_traj::{Dataset, UncertainTrajectory};

use crate::error::Error;
use crate::opened::InfoReport;
use crate::query::QueryTarget;
use crate::snapshot::Snapshot;
use crate::store::IngestReport;
use crate::wal::{self, CheckpointReport, Record, Sidecar, TailRead, WalConfig};

/// The writer-side state every live store shape embeds.
pub struct WriterCore {
    /// Serializes writers (ingest, replay, checkpoint); queries never
    /// touch it.
    writer: Mutex<()>,
    /// Epoch the next publish will carry (the initial state is epoch 0).
    next_epoch: AtomicU64,
    /// The attached write-ahead log, if any. Taken only by writers,
    /// always after the writer lock.
    wal: Mutex<Option<Sidecar>>,
}

/// Proof that the writer lock of a [`WriterCore`] is held — only this
/// module can mint one, so the seam methods that take it cannot be
/// called outside a serialized writer section.
pub struct Held<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

impl WriterCore {
    pub(crate) fn new() -> Self {
        Self {
            writer: Mutex::new(()),
            next_epoch: AtomicU64::new(1),
            wal: Mutex::new(None),
        }
    }

    /// Takes the writer lock. A panic mid-batch leaves only discarded
    /// private state behind, so a poisoned lock is safe to adopt.
    pub(crate) fn hold(&self) -> Held<'_> {
        Held(self.writer.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Adopts the WAL slot even after a writer panic: the sidecar is
    /// only ever mutated append-wise, and an interrupted append shows
    /// up as a torn tail on the next open, not as broken memory state.
    fn wal(&self) -> MutexGuard<'_, Option<Sidecar>> {
        self.wal.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Allocates the epoch `batch` will publish as — the only place an
    /// epoch is allocated — and, with a WAL attached, appends its record
    /// (synced per the fsync policy) *before* the caller makes the batch
    /// visible. A failed append publishes nothing, so the allocation
    /// rolls back and the log and the epoch sequence stay gap-free.
    pub(crate) fn log(&self, _held: &Held<'_>, batch: &Dataset) -> Result<u64, Error> {
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        if let Some(sc) = self.wal().as_mut() {
            // The one owned copy of the batch: the feed keeps it.
            let rec = Record {
                epoch,
                name: batch.name.clone(),
                default_interval: batch.default_interval,
                trajectories: batch.trajectories.clone(),
            };
            if let Err(e) = sc.append_live(rec) {
                self.next_epoch.fetch_sub(1, Ordering::Relaxed);
                return Err(e);
            }
        }
        Ok(epoch)
    }
}

/// One live handle over every store shape: the [`QueryTarget`] read
/// surface plus live ingest, durability and self-description.
///
/// The required methods are the per-shape seam; everything provided is
/// the single implementation of that mechanism.
pub trait LiveStore: QueryTarget {
    /// The embedded writer core.
    fn writer(&self) -> &WriterCore;

    /// Whether every one of `tus` is already stored (by id).
    fn contains_all(&self, tus: &[UncertainTrajectory]) -> bool;

    /// Compresses, indexes and publishes `batch` as the next epoch with
    /// the writer lock held: prepare off the read path, then
    /// `WriterCore::log`, then swap. A failed batch publishes nothing;
    /// a batch that changes nothing reports the current epoch.
    fn publish_locked(&self, held: &Held<'_>, batch: &Dataset) -> Result<IngestReport, Error>;

    /// The current publish epoch — what a follower resumes from.
    fn epoch(&self) -> u64;

    /// Writes the container of the current state; with the writer lock
    /// held that is a batch-consistent cut.
    fn write_cut(&self, held: &Held<'_>, w: &mut dyn Write) -> Result<(), Error>;

    /// One pinned snapshot per underlying partition, in shard order,
    /// all taken from one published state: every batch is either in
    /// the set entirely or not at all.
    fn snapshots(&self) -> Vec<Arc<Snapshot>>;

    /// The shared description `utcq info` and the serve `info` response
    /// both render.
    fn info(&self) -> InfoReport;

    /// The default sample interval the store was compressed with — what
    /// an `ingest` request's trajectories are validated against.
    fn default_interval(&self) -> i64;

    /// Compresses, indexes and **publishes** one batch concurrently
    /// with queries. Writers serialize on the core's lock; queries
    /// never block, and in-flight queries keep the epoch they pinned.
    /// The published state is byte-identical to an offline
    /// [`crate::store::StoreBuilder`] run over the same batches.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use utcq_core::{CompressParams, LiveStore, StiuParams, Store};
    /// # fn main() -> Result<(), utcq_core::Error> {
    /// # let (net, mut ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 6, 7);
    /// # let mut late = ds.clone();
    /// # late.trajectories = ds.trajectories.split_off(3);
    /// let store = Store::build(Arc::new(net), &ds,
    ///     CompressParams::with_interval(ds.default_interval), StiuParams::default())?;
    /// let report = store.ingest(&late)?;     // live: no rebuild, no restart
    /// assert_eq!((report.ingested, report.total, report.epoch), (3, 6, 1));
    /// # Ok(()) }
    /// ```
    fn ingest(&self, batch: &Dataset) -> Result<IngestReport, Error> {
        self.publish_locked(&self.writer().hold(), batch)
    }

    /// Attaches a write-ahead log, replaying any records already in the
    /// file through [`LiveStore::publish_locked`] (byte-identical to
    /// having ingested them live). Returns the replayed batch count.
    ///
    /// Replay tolerates a checkpoint that crashed between the container
    /// save and the log truncation: a prefix of records whose
    /// trajectories are all already present is skipped and the log is
    /// rewritten without it (completing the interrupted truncation).
    /// Anything else that disagrees with the container is corruption.
    fn attach_wal(&self, cfg: WalConfig) -> Result<usize, Error> {
        let core = self.writer();
        let held = core.hold();
        if core.wal().is_some() {
            return Err(Error::CorruptStore("a wal is already attached"));
        }
        let (log, records) = wal::Wal::open(&cfg)?;
        let mut sc = Sidecar::new(log, &cfg);
        let mut skipped = 0u64;
        let mut applied: Vec<Record> = Vec::new();
        for (expect, rec) in (1u64..).zip(records) {
            if rec.epoch != expect {
                return Err(Error::CorruptStore("wal record epochs are not sequential"));
            }
            if !rec.trajectories.is_empty() && self.contains_all(&rec.trajectories) {
                if !applied.is_empty() {
                    return Err(Error::CorruptStore("wal batch overlaps the container"));
                }
                skipped += 1;
                continue;
            }
            // The record's payload moves through the publish and on
            // into the feed; the slot is still empty, so nothing is
            // appended back to the file.
            let live = rec.epoch - skipped;
            let batch = Dataset {
                name: rec.name,
                default_interval: rec.default_interval,
                trajectories: rec.trajectories,
            };
            let report = self.publish_locked(&held, &batch)?;
            if report.epoch != live {
                // A no-op replay (name already adopted by the saved
                // container) in the skipped prefix; anything past an
                // applied record must line up exactly.
                if report.ingested == 0 && applied.is_empty() {
                    skipped += 1;
                    continue;
                }
                return Err(Error::CorruptStore(
                    "wal replay produced an unexpected epoch",
                ));
            }
            applied.push(Record {
                epoch: live,
                name: batch.name,
                default_interval: batch.default_interval,
                trajectories: batch.trajectories,
            });
        }
        if skipped > 0 {
            // Finish the interrupted checkpoint: drop the absorbed
            // prefix from disk and renumber the survivors.
            sc.wal.truncate()?;
            for rec in &applied {
                sc.wal.append(rec)?;
            }
        }
        let n = applied.len();
        for rec in applied {
            sc.push_feed(rec);
        }
        *core.wal() = Some(sc);
        Ok(n)
    }

    /// Crash-safe checkpoint: saves a batch-consistent cut to the
    /// recorded checkpoint target (tmp file + rename + directory
    /// fsync), then truncates the log — after which a reopen replays
    /// from the fresh container alone. `Ok(None)` when no WAL (or no
    /// target path) is attached. Serializes with writers; queries never
    /// block.
    fn checkpoint(&self) -> Result<Option<CheckpointReport>, Error> {
        let core = self.writer();
        let held = core.hold();
        let epoch = self.epoch();
        let mut guard = core.wal();
        let Some(sc) = guard.as_mut() else {
            return Ok(None);
        };
        let Some(target) = sc.checkpoint_to.clone() else {
            return Ok(None);
        };
        let log_bytes = sc.wal.len_bytes();
        wal::atomic_write(&target, |w| self.write_cut(&held, w))?;
        sc.checkpointed(epoch)?;
        Ok(Some(CheckpointReport { epoch, log_bytes }))
    }

    /// Current size of the attached log in bytes; `None` without a WAL.
    fn wal_bytes(&self) -> Option<u64> {
        self.writer().wal().as_ref().map(|sc| sc.wal.len_bytes())
    }

    /// Batches published after epoch `from` (capped at `max`), from the
    /// in-memory feed of the attached WAL; `None` without a WAL. Serves
    /// the `tail` wire op.
    fn wal_tail(&self, from: u64, max: usize) -> Option<TailRead> {
        let current = self.epoch();
        let wal = self.writer().wal();
        wal.as_ref().map(|sc| sc.records_since(from, max, current))
    }

    /// If the attached WAL recorded exactly this batch (trajectories
    /// compared in full), its publish epoch and size — lets the serve
    /// layer answer a re-sent batch idempotently instead of failing on
    /// duplicates.
    fn wal_dedup(&self, tus: &[UncertainTrajectory]) -> Option<(u64, usize)> {
        let wal = self.writer().wal();
        wal.as_ref().and_then(|sc| sc.dedup_epoch(tus))
    }
}

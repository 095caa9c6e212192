//! The writer core: what makes a [`crate::store::Store`] *live* and
//! *durable*.
//!
//! A store publishes batch in, next epoch out; the mechanism around the
//! publish is written here, apart from the store's read state:
//!
//! * `WriterCore` owns the writer lock, the publish-epoch counter and
//!   the write-ahead-log slot. Lock order, everywhere: **writer lock,
//!   then the WAL slot**.
//! * The store's live methods — [`Store::ingest`], the WAL
//!   attach/replay loop, [`Store::checkpoint`] and the `tail`/dedup
//!   reads — take that lock and call the store's one publish path
//!   (`Store::publish_locked`); they exist nowhere else.
//!
//! Append-before-publish: `Store::publish_locked` prepares the batch off
//! the read path, calls `WriterCore::log` — which allocates the next
//! epoch and appends the record to the log (rolling the allocation back
//! if the append fails, so log epochs stay gap-free 1, 2, 3…) — and only
//! then swaps the new state in. See `docs/DURABILITY.md`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use utcq_traj::{Dataset, UncertainTrajectory};

use crate::error::Error;
use crate::store::{IngestReport, Store};
use crate::wal::{self, CheckpointReport, Sidecar, TailRead, WalConfig};

/// The writer-side state a store embeds.
pub(crate) struct WriterCore {
    /// Serializes writers (ingest, replay, checkpoint); queries never
    /// touch it.
    writer: Mutex<()>,
    /// Epoch the next publish will carry (the initial state is epoch 0).
    next_epoch: AtomicU64,
    /// The attached write-ahead log, if any. Taken only by writers,
    /// always after the writer lock.
    wal: Mutex<Option<Sidecar>>,
}

/// Proof that the writer lock of a `WriterCore` is held — only this
/// module can mint one, so the store's publish path, which takes it,
/// cannot run outside a serialized writer section.
pub(crate) struct Held<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

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
            // Encoded once: the feed keeps the bytes the file got.
            if let Err(e) = sc.append_live(epoch, batch) {
                self.next_epoch.fetch_sub(1, Ordering::Relaxed);
                return Err(e);
            }
        }
        Ok(epoch)
    }
}

/// The live methods of a [`Store`]: ingest and durability, each taking
/// the writer lock around the store's one publish path.
impl Store {
    /// Compresses, indexes and **publishes** one batch concurrently
    /// with queries. Writers serialize on the core's lock; queries
    /// never block, and in-flight queries keep the epoch they pinned.
    /// The published state is byte-identical to an offline
    /// [`crate::store::StoreBuilder`] run over the same batches.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use utcq_core::{CompressParams, StiuParams, Store};
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
    pub fn ingest(&self, batch: &Dataset) -> Result<IngestReport, Error> {
        self.publish_locked(&self.core.hold(), batch)
    }

    /// Attaches a write-ahead log, replaying any records already in the
    /// file through the publish path of [`Store::ingest`] (byte-identical
    /// to having ingested them live). Returns the replayed batch count.
    ///
    /// Replay tolerates a checkpoint that crashed between the container
    /// save and the log truncation: a prefix of records whose
    /// trajectories are all already present is skipped and the log is
    /// rewritten without it (completing the interrupted truncation).
    /// Anything else that disagrees with the container is corruption.
    pub fn attach_wal(&self, cfg: WalConfig) -> Result<usize, Error> {
        let core = &self.core;
        let held = core.hold();
        if core.wal().is_some() {
            return Err(Error::CorruptStore("a wal is already attached"));
        }
        let (log, payloads) = wal::Wal::open_payloads(&cfg)?;
        let mut sc = Sidecar::new(log, &cfg);
        let mut skipped = 0u64;
        // The applied batches, as the feed keeps them: live epoch and
        // the payload the file holds.
        let mut applied: Vec<(u64, wal::Payload)> = Vec::new();
        for (expect, payload) in (1u64..).zip(payloads) {
            let rec = wal::decode_payload(&payload)?;
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
            // The slot is still empty, so the publish appends nothing
            // back to the file.
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
            applied.push((live, payload));
        }
        if skipped > 0 {
            // Finish the interrupted checkpoint: drop the absorbed
            // prefix from disk and renumber the survivors.
            sc.wal.rewrite(&mut applied)?;
        }
        let n = applied.len();
        for (live, payload) in applied {
            sc.push_feed(live, payload);
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
    pub fn checkpoint(&self) -> Result<Option<CheckpointReport>, Error> {
        let core = &self.core;
        let _held = core.hold();
        let epoch = self.epoch();
        let mut guard = core.wal();
        let Some(sc) = guard.as_mut() else {
            return Ok(None);
        };
        let Some(target) = sc.checkpoint_to.clone() else {
            return Ok(None);
        };
        let log_bytes = sc.wal.len_bytes();
        // The writer lock is held: the container is a batch-consistent
        // cut.
        wal::atomic_write(&target, |w| self.write(w))?;
        sc.checkpointed(epoch)?;
        Ok(Some(CheckpointReport { epoch, log_bytes }))
    }

    /// Current size of the attached log in bytes; `None` without a WAL.
    pub fn wal_bytes(&self) -> Option<u64> {
        self.core.wal().as_ref().map(|sc| sc.wal.len_bytes())
    }

    /// Batches published after epoch `from` (capped at `max`), from the
    /// in-memory feed of the attached WAL; `None` without a WAL. Serves
    /// the `tail` wire op.
    pub fn wal_tail(&self, from: u64, max: usize) -> Option<TailRead> {
        let current = self.epoch();
        let wal = self.core.wal();
        wal.as_ref().map(|sc| sc.records_since(from, max, current))
    }

    /// If the attached WAL recorded exactly this batch (trajectories
    /// compared in full), its publish epoch and size — lets the serve
    /// layer answer a re-sent batch idempotently instead of failing on
    /// duplicates.
    pub fn wal_dedup(&self, tus: &[UncertainTrajectory]) -> Option<(u64, usize)> {
        let wal = self.core.wal();
        wal.as_ref().and_then(|sc| sc.dedup_epoch(tus))
    }
}

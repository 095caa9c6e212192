//! Crash-point fault injection over the core's hook points.
//!
//! The core is instrumented with `utcq_core::hooks::point` calls at the
//! durability-critical instants (`wal.before_append`, `wal.appended`,
//! `wal.synced`, `save.before_rename`, the publish points). The
//! schedule explorer uses them to interleave threads; this module uses
//! the same points to **kill** the code mid-operation: [`crash_at`]
//! arms one label for the calling thread and the shared hook dispatcher
//! unwinds the operation the moment it is hit — simulating a process
//! that died at exactly that instant, while the files it was writing
//! stay behind in whatever state they were in.
//!
//! The tests in this module are the crash-point matrix for the
//! write-ahead-log path: for every injected crash the container must
//! reopen, replay, and end up **byte-identical** to a store that ran
//! the same history without crashing, with monotonic epochs throughout.
//! (`ingest` is all-or-nothing under crashes: a batch whose record hit
//! the log replays on reopen even though the client never saw the ack —
//! the documented leader-side window, see `docs/DURABILITY.md`.)

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

thread_local! {
    static CRASH_AT: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// Panic payload marking an injected crash (as opposed to a genuine
/// panic in the code under test, which must propagate).
struct CrashMarker(#[allow(dead_code)] &'static str);

/// Called by the shared hook dispatcher on every `hooks::point`; kills
/// the calling thread when its armed label matches. No-op everywhere
/// else — in particular for scheduler virtual threads and ordinary
/// tests, whose `CRASH_AT` slot is `None`.
pub(crate) fn hit(label: &'static str) {
    if CRASH_AT.with(|c| c.get()) == Some(label) {
        CRASH_AT.with(|c| c.set(None));
        std::panic::panic_any(CrashMarker(label));
    }
}

/// Runs `f`, crashing it at the first hook point named `label`.
///
/// Returns `Some(result)` when `f` completed without reaching the
/// point (the label never fired), `None` when the injected crash cut
/// it short. A genuine panic inside `f` is re-raised unchanged.
///
/// The crash only unwinds the operation — the in-memory store object
/// survives (its locks are poison-adopted by design). To model the
/// process dying, drop the store afterwards and reopen from disk; the
/// tests below do exactly that.
pub fn crash_at<R>(label: &'static str, f: impl FnOnce() -> R) -> Option<R> {
    crate::sched::ensure_hooks_installed();
    CRASH_AT.with(|c| c.set(Some(label)));
    let r = crate::quiet::with_quiet_panics(|| catch_unwind(AssertUnwindSafe(f)));
    CRASH_AT.with(|c| c.set(None));
    match r {
        Ok(v) => Some(v),
        Err(p) if p.downcast_ref::<CrashMarker>().is_some() => None,
        Err(p) => resume_unwind(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;
    use utcq_core::shard::ByTime;
    use utcq_core::{CompressParams, QueryTarget, Store, StoreBuilder, WalConfig};
    use utcq_datagen::profile;
    use utcq_traj::Dataset;

    /// A scratch directory unique to one test.
    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("utcq-crash-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk tmp dir");
        dir
    }

    /// Two ingest batches over a tiny synthetic dataset.
    fn two_batches() -> (Arc<utcq_network::RoadNetwork>, Dataset, Dataset) {
        let (net, mut a) = utcq_datagen::generate(&profile::tiny(), 6, 11);
        let mut b = a.clone();
        b.trajectories = a.trajectories.split_off(3);
        (Arc::new(net), a, b)
    }

    /// The offline build of one store shape.
    type Build = fn(&Arc<utcq_network::RoadNetwork>, &Dataset) -> Store;

    fn builder(net: &Arc<utcq_network::RoadNetwork>, ds: &Dataset) -> StoreBuilder {
        StoreBuilder::new(
            Arc::clone(net),
            CompressParams::with_interval(ds.default_interval),
        )
    }

    fn build(net: &Arc<utcq_network::RoadNetwork>, ds: &Dataset) -> Store {
        let b = builder(net, ds).ingest(ds).expect("ingest");
        b.finish().expect("build store")
    }

    fn build_sharded(net: &Arc<utcq_network::RoadNetwork>, ds: &Dataset) -> Store {
        let b = builder(net, ds)
            .shard_by(Arc::new(ByTime { interval_s: 120 }), 3)
            .and_then(|b| b.ingest(ds))
            .expect("ingest");
        b.finish().expect("build sharded store")
    }

    fn save(store: &Store, path: &Path) {
        store.save(path).expect("save");
    }

    /// Saves `store` and returns the container bytes — the
    /// byte-identity probe every crash case is judged by.
    fn container_bytes(store: &Store, dir: &Path, name: &str) -> Vec<u8> {
        let p = dir.join(name);
        save(store, &p);
        std::fs::read(&p).expect("read saved container")
    }

    /// The crash-point matrix: for each store shape and label, crash one
    /// ingest there, reopen, and check the recovered state against the
    /// no-crash reference for that label's durability class.
    #[test]
    fn ingest_crash_points_recover_byte_identical() {
        // Labels before the record is in the file lose the batch;
        // labels after keep it (fsync'd or still in the OS cache — a
        // same-machine restart reads both).
        let cases: &[(&str, bool)] = &[
            ("wal.before_append", false),
            ("wal.appended", true),
            ("wal.synced", true),
        ];
        let shapes: [(&str, Build); 2] = [("single", build), ("sharded", build_sharded)];
        for (shape, build) in shapes {
            for &(label, survives) in cases {
                let dir = tmp_dir(&format!("{}-{shape}", label.replace('.', "-")));
                let (net, a, b) = two_batches();
                let container = dir.join("c.utcq");
                save(&build(&net, &a), &container);

                let wal_cfg = || WalConfig::new(dir.join("log.wal"));
                let store = Store::open_durable(&container, wal_cfg()).expect("open durable");
                let epoch_before = store.epoch();
                let crashed = crash_at(label, || store.ingest(&b));
                assert!(crashed.is_none(), "{shape} {label}: crash point must fire");
                drop(store);

                // The process "died"; reopen from disk and replay.
                let reopened = Store::open_durable(&container, wal_cfg()).expect("reopen");
                let recovered = container_bytes(&reopened, &dir, "recovered.utcq");

                // Reference: the same history executed without a crash.
                let reference = Store::open(&container).expect("reference open");
                if survives {
                    reference.ingest(&b).expect("reference ingest");
                }
                let expected = container_bytes(&reference, &dir, "reference.utcq");
                assert_eq!(
                    recovered, expected,
                    "{shape} {label}: recovered container must be byte-identical to the reference"
                );

                // Epochs stay monotonic: exactly one epoch per surviving
                // batch, none for a lost one.
                let want_epoch = epoch_before + u64::from(survives);
                assert_eq!(reopened.epoch(), want_epoch, "{shape} {label}");
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    /// A torn final record (the classic power-cut shape: the frame
    /// header landed, the payload didn't finish) is truncated away on
    /// open — the batch is lost, everything before it replays.
    #[test]
    fn torn_final_record_truncates_to_the_last_full_batch() {
        let dir = tmp_dir("torn");
        let (net, a, b) = two_batches();
        let container = dir.join("c.utcq");
        save(&build(&net, &a), &container);
        let wal_path = dir.join("log.wal");

        let store = Store::open_durable(&container, WalConfig::new(&wal_path)).expect("open");
        store.ingest(&b).expect("ingest");
        drop(store);

        // Tear the tail mid-record.
        let bytes = std::fs::read(&wal_path).expect("read wal");
        std::fs::write(&wal_path, &bytes[..bytes.len() - 7]).expect("tear");

        let reopened = Store::open_durable(&container, WalConfig::new(&wal_path)).expect("reopen");
        let recovered = container_bytes(&reopened, &dir, "recovered.utcq");
        let expected = container_bytes(&Store::open(&container).expect("ref"), &dir, "ref.utcq");
        assert_eq!(recovered, expected, "torn batch must be dropped cleanly");
        assert_eq!(reopened.epoch(), 0);
        // And the truncation is physical: a second reopen starts from a
        // clean, header-only-or-full-records file with no torn tail.
        drop(reopened);
        let scanned = utcq_core::wal::scan(&std::fs::read(&wal_path).expect("reread"))
            .expect("scan truncated log");
        assert!(!scanned.torn, "open must have truncated the torn tail");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Crash between the checkpoint's tmp-file write and its rename:
    /// the old container stays intact, the log is not truncated, and a
    /// reopen replays the full history.
    #[test]
    fn mid_checkpoint_rename_crash_keeps_log_and_container_consistent() {
        let dir = tmp_dir("ckpt-rename");
        let (net, a, b) = two_batches();
        let container = dir.join("c.utcq");
        save(&build(&net, &a), &container);
        let wal_cfg = || WalConfig::new(dir.join("log.wal")).checkpoint_to(&container);

        let store = Store::open_durable(&container, wal_cfg()).expect("open");
        store.ingest(&b).expect("ingest");
        let log_bytes = store.wal_bytes().expect("wal attached");
        let crashed = crash_at("save.before_rename", || store.checkpoint());
        assert!(crashed.is_none(), "crash point must fire");
        drop(store);

        // Neither side of the checkpoint happened: same log, and the
        // container still opens to the pre-checkpoint state.
        let reopened = Store::open_durable(&container, wal_cfg()).expect("reopen");
        assert_eq!(
            reopened.wal_bytes(),
            Some(log_bytes),
            "interrupted checkpoint must not truncate the log"
        );
        assert_eq!(reopened.epoch(), 1, "batch replays");
        let recovered = container_bytes(&reopened, &dir, "recovered.utcq");
        let reference = Store::open(&container).expect("ref");
        reference.ingest(&b).expect("reference ingest");
        let expected = container_bytes(&reference, &dir, "ref.utcq");
        assert_eq!(recovered, expected);

        // A completed checkpoint afterwards truncates and the next
        // open replays nothing.
        let report = reopened.checkpoint().expect("checkpoint").expect("report");
        assert_eq!(report.epoch, 1);
        drop(reopened);
        let fresh = Store::open_durable(&container, wal_cfg()).expect("post-checkpoint open");
        assert_eq!(fresh.epoch(), 0, "log was truncated");
        assert_eq!(fresh.len(), 6, "checkpointed container holds both batches");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A reopen that completes an interrupted checkpoint (the container
    /// holds b1, the log holds b1 and b2) rewrites the log without b1.
    /// It appends nothing, so of the durability points only the
    /// rename's is reached; crashed there, it loses nothing: the next
    /// reopen holds b0, b1 and b2. (A rewrite that truncated the log
    /// before re-appending b2 lost it at `wal.before_append`.)
    #[test]
    fn completing_a_checkpoint_at_reopen_loses_no_batch_at_any_crash_point() {
        let labels = [
            "wal.before_append",
            "wal.appended",
            "wal.synced",
            "save.before_rename",
        ];
        let shapes: [(&str, Build); 2] = [("single", build), ("sharded", build_sharded)];
        for (shape, build) in shapes {
            for label in labels {
                let dir = tmp_dir(&format!("rewrite-{}-{shape}", label.replace('.', "-")));
                let (net, mut b0, b2) = two_batches();
                let mut b1 = b0.clone();
                b1.trajectories = b0.trajectories.split_off(2);
                let container = dir.join("c.utcq");
                save(&build(&net, &b0), &container);
                let wal_cfg = || WalConfig::new(dir.join("log.wal"));

                // A checkpoint whose truncation never happened: the
                // container holds b1 and the log still carries it.
                let store = Store::open_durable(&container, wal_cfg()).expect("open durable");
                store.ingest(&b1).expect("ingest b1");
                save(&store, &container);
                store.ingest(&b2).expect("ingest b2");
                let expected = container_bytes(&store, &dir, "expected.utcq");
                drop(store);

                let crashed = crash_at(label, || Store::open_durable(&container, wal_cfg()));
                let fires = label == "save.before_rename";
                assert_eq!(crashed.is_none(), fires, "{shape} {label}");
                let reopened = Store::open_durable(&container, wal_cfg()).expect("reopen");
                assert_eq!(reopened.len(), 6, "{shape} {label}");
                assert_eq!(reopened.epoch(), 1, "{shape} {label}: b2 replays");
                let recovered = container_bytes(&reopened, &dir, "recovered.utcq");
                assert!(recovered == expected, "{shape} {label}: b0+b1+b2");
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    /// A label that never fires leaves the operation untouched and
    /// returns its result; genuine panics still propagate.
    #[test]
    fn unfired_labels_and_real_panics_pass_through() {
        assert_eq!(crash_at("no.such.label", || 41 + 1), Some(42));
        // No outer with_quiet_panics here: crash_at takes the hook lock
        // itself, and resume_unwind bypasses the hook anyway.
        let r = catch_unwind(AssertUnwindSafe(|| {
            crash_at("no.such.label", || panic!("genuine"))
        }));
        let msg = crate::quiet::payload_msg(r.expect_err("must propagate"));
        assert!(msg.contains("genuine"), "{msg}");
    }
}

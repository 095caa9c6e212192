//! The batch ingest runs on every core: a batch's trajectories are
//! compressed and indexed on the work queue and appended in batch order.
//! This binary checks what that must not change, and the one rule the
//! parallel path adds:
//!
//! * **bytes** — 3,000 Chengdu-profile trajectories ingested as 3
//!   batches of 1,000 write the same container as the same trajectories
//!   ingested one per batch (a one-item batch runs serially), at 1
//!   partition and at 4 `ByTime` partitions, built offline or grown live;
//! * **error precedence** — of two bad trajectories in a batch, the one
//!   earlier in the batch is reported, by the builder and by a live
//!   store, which then publishes nothing;
//! * **freed on a worker** — a counting `#[global_allocator]` tags every
//!   block with the thread that allocated it. Over a builder ingest and a
//!   live ingest of 1,000 trajectories, at most 4 blocks per worker
//!   allocated on a worker are freed on the calling thread, and at most
//!   1 KiB of them is still live afterwards. (Freed on the calling
//!   thread, glibc's worker arenas grew with every batch.)
//!
//! Everything lives in ONE `#[test]`: the counters are process-global
//! and the tests of a binary run on parallel threads. CI also runs this
//! binary pinned to one core, where every batch takes the serial path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;

use utcq::core::{ByTime, CompressParams, Error, QueryTarget, Store, StoreBuilder};
use utcq::datagen::{generate_network, generate_on_network, profile, GenOptions};
use utcq::network::RoadNetwork;
use utcq::traj::{Dataset, UncertainTrajectory};

/// A block's tag, in the `TAG_BYTES` before it.
const UNTAGGED: u8 = 0;
const ON_CALLER: u8 = 1;
const ON_WORKER: u8 = 2;
const TAG_BYTES: usize = 16;

thread_local! {
    /// Set on the test's own thread: every other thread allocating while
    /// the allocator is armed is a worker.
    static IS_CALLER: Cell<bool> = const { Cell::new(false) };
}

/// Whether allocations are tagged now.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Bytes of worker-allocated blocks live now.
static WORKER_LIVE: AtomicIsize = AtomicIsize::new(0);
/// Worker-allocated blocks freed on the calling thread.
static FREED_BY_CALLER: AtomicUsize = AtomicUsize::new(0);

struct Tagging;

fn on_caller() -> bool {
    IS_CALLER.try_with(Cell::get).unwrap_or(false)
}

/// The layout of a block with its tag in front, and where the caller's
/// part starts.
fn tagged(layout: Layout) -> (Layout, usize) {
    let front = layout.align().max(TAG_BYTES);
    let full = Layout::from_size_align(layout.size() + front, layout.align())
        .expect("a tagged layout no larger than the address space");
    (full, front)
}

// SAFETY: every block is `System`'s, grown by `front` bytes in front
// (`front` a multiple of the alignment, so the caller's part keeps it);
// the tag byte sits inside that front part, which the caller never sees,
// and `dealloc` / `realloc` undo the same offset with the same layout.
unsafe impl GlobalAlloc for Tagging {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let (full, front) = tagged(layout);
        // SAFETY: `full` has a nonzero size (`front` ≥ 16).
        let base = unsafe { System.alloc(full) };
        if base.is_null() {
            return base;
        }
        let tag = match (ARMED.load(Ordering::Relaxed), on_caller()) {
            (false, _) => UNTAGGED,
            (true, true) => ON_CALLER,
            (true, false) => ON_WORKER,
        };
        if tag == ON_WORKER {
            WORKER_LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        // SAFETY: `base` is valid for `full.size()` > `front` bytes.
        unsafe {
            base.add(front - 1).write(tag);
            base.add(front)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let (full, front) = tagged(layout);
        // SAFETY: `ptr` came from `alloc`/`realloc` with this layout, so
        // the block starts `front` bytes before it.
        let base = unsafe { ptr.sub(front) };
        // SAFETY: the tag byte is inside the block.
        if unsafe { base.add(front - 1).read() } == ON_WORKER {
            WORKER_LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
            if on_caller() {
                FREED_BY_CALLER.fetch_add(1, Ordering::Relaxed);
            }
        }
        // SAFETY: `base` was allocated by `System` with `full`.
        unsafe { System.dealloc(base, full) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let (full, front) = tagged(layout);
        // SAFETY: as in `dealloc`.
        let base = unsafe { ptr.sub(front) };
        // SAFETY: the tag byte is inside the block; `realloc` keeps it.
        let tag = unsafe { base.add(front - 1).read() };
        // SAFETY: `base` was allocated by `System` with `full`, and the
        // new size is the caller's nonzero size plus `front`.
        let grown = unsafe { System.realloc(base, full, new_size + front) };
        if grown.is_null() {
            return grown;
        }
        if tag == ON_WORKER {
            let delta = new_size as isize - layout.size() as isize;
            WORKER_LIVE.fetch_add(delta, Ordering::Relaxed);
        }
        // SAFETY: the block is `new_size + front` bytes long.
        unsafe { grown.add(front) }
    }
}

#[global_allocator]
static ALLOCATOR: Tagging = Tagging;

/// What ran on a worker during `run`: worker-allocated blocks the
/// calling thread freed, and worker bytes still live afterwards.
fn on_workers<T>(run: impl FnOnce() -> T) -> (T, usize, isize) {
    let (freed, live) = (
        FREED_BY_CALLER.load(Ordering::SeqCst),
        WORKER_LIVE.load(Ordering::SeqCst),
    );
    ARMED.store(true, Ordering::SeqCst);
    let out = run();
    ARMED.store(false, Ordering::SeqCst);
    let freed = FREED_BY_CALLER.load(Ordering::SeqCst) - freed;
    (out, freed, WORKER_LIVE.load(Ordering::SeqCst) - live)
}

const N: usize = 3_000;
const BATCH: usize = 1_000;
const PARTITIONS: u32 = 4;

fn cd_trajectories(n: usize, seed: u64) -> (Arc<RoadNetwork>, Dataset) {
    let p = profile::cd();
    let net = generate_network(&p, seed);
    let opts = GenOptions {
        n_trajectories: n,
        seed,
        ..GenOptions::default()
    };
    let ds = generate_on_network(&net, &p, &opts);
    assert_eq!(ds.trajectories.len(), n, "generator fell short");
    (Arc::new(net), ds)
}

/// `ds` cut into batches of `size`.
fn batches(ds: &Dataset, size: usize) -> Vec<Dataset> {
    let batch = |tus: &[UncertainTrajectory]| Dataset {
        name: ds.name.clone(),
        default_interval: ds.default_interval,
        trajectories: tus.to_vec(),
    };
    ds.trajectories.chunks(size).map(batch).collect()
}

/// A builder with `parts` partitions (`None`: one, without a policy).
fn builder(net: &Arc<RoadNetwork>, ds: &Dataset, parts: Option<u32>) -> StoreBuilder {
    let b = StoreBuilder::new(
        Arc::clone(net),
        CompressParams::with_interval(ds.default_interval),
    );
    match parts {
        None => b,
        Some(n) => b
            .shard_by(Arc::new(ByTime { interval_s: 3600 }), n)
            .unwrap(),
    }
}

fn built(net: &Arc<RoadNetwork>, batches: &[Dataset], parts: Option<u32>) -> Store {
    let b = batches
        .iter()
        .fold(builder(net, &batches[0], parts), |b, batch| {
            b.ingest(batch).unwrap()
        });
    b.finish().unwrap()
}

fn grown_live(net: &Arc<RoadNetwork>, batches: &[Dataset], parts: Option<u32>) -> Store {
    let store = builder(net, &batches[0], parts).finish().unwrap();
    for batch in batches {
        store.ingest(batch).unwrap();
    }
    store
}

fn container(store: &Store) -> Vec<u8> {
    let mut bytes = Vec::new();
    store.write(&mut bytes).unwrap();
    bytes
}

/// `batch` with the trajectories at `bad` stretched past the index's
/// longest span: valid trajectories the index refuses.
fn with_spans_too_long(batch: &Dataset, bad: &[usize]) -> Dataset {
    let mut out = batch.clone();
    for &at in bad {
        let times = &mut out.trajectories[at].times;
        *times.last_mut().unwrap() += (1 << 16) * 3_600;
    }
    out
}

#[test]
fn batches_ingest_on_every_core_with_the_serial_bytes() {
    IS_CALLER.with(|c| c.set(true));
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let (net, ds) = cd_trajectories(N, 7);
    let (thousands, ones) = (batches(&ds, BATCH), batches(&ds, 1));

    // Bytes: the batch size, the partition count and the path (offline
    // or live) do not move one byte.
    for parts in [None, Some(PARTITIONS)] {
        let serial = container(&built(&net, &ones, parts));
        assert_eq!(
            container(&built(&net, &thousands, parts)),
            serial,
            "{parts:?} built"
        );
        assert_eq!(
            container(&grown_live(&net, &thousands, parts)),
            serial,
            "{parts:?} live"
        );
    }

    // Error precedence: positions 3 and 700 both fail; 3 is reported.
    let bad = with_spans_too_long(&thousands[0], &[3, 700]);
    let first = bad.trajectories[3].id;
    for parts in [None, Some(PARTITIONS)] {
        let err = builder(&net, &bad, parts).ingest(&bad).err();
        assert!(
            matches!(err, Some(Error::SpanTooLong(id)) if id == first),
            "{parts:?} builder: {err:?}"
        );
        let store = grown_live(&net, &thousands[1..2], parts);
        let (epoch, len) = (store.epoch(), store.len());
        let err = store.ingest(&bad).err();
        assert!(
            matches!(err, Some(Error::SpanTooLong(id)) if id == first),
            "{parts:?} live: {err:?}"
        );
        assert_eq!(
            (store.epoch(), store.len()),
            (epoch, len),
            "{parts:?}: published"
        );
    }

    // Freed on a worker: the builder's ingest, then a live one.
    let bound = 4 * workers;
    let b = builder(&net, &thousands[0], Some(PARTITIONS));
    let (b, freed, live) = on_workers(|| b.ingest(&thousands[0]).unwrap());
    assert!(
        freed <= bound,
        "builder: {freed} worker blocks freed by the caller (≤ {bound})"
    );
    assert!(live <= 1024, "builder: {live} worker bytes still live");
    let store = b.finish().unwrap();
    let (_, freed, live) = on_workers(|| store.ingest(&thousands[1]).unwrap());
    assert!(
        freed <= bound,
        "live: {freed} worker blocks freed by the caller (≤ {bound})"
    );
    assert!(live <= 1024, "live: {live} worker bytes still live");
}

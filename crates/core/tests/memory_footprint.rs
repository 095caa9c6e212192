//! What a store costs in memory, counted by the allocator itself.
//!
//! A counting `#[global_allocator]` (which is why this is a test binary
//! of its own) watches a 5,000-trajectory Chengdu-profile store come to
//! be in three ways, and the checks are on bytes and blocks actually
//! live, the road network and decode cache aside:
//!
//! * (a) an opened store holds at most 237 B and 0.1 heap blocks per
//!   trajectory: flat segments, not an object graph per trajectory,
//!   each sealed segment's records the very block the container holds, and region
//!   tables as small as the container's (one word per group cell, one
//!   bit per non-reference cell);
//! * (b) built offline, reopened, or grown live across a seal boundary,
//!   the same data costs the same (within 2 %);
//! * (c) the store's own census (`Snapshot::resident`, what `utcq info`
//!   prints) agrees with the allocator within 5 %, also on the small
//!   checked-in fixture;
//! * (d) a publish copies the tail segment with a number of allocations
//!   that does not depend on how many trajectories the tail holds;
//! * (e) a 3-partition store is written and read one partition at a
//!   time, no partition's body held whole: writing its container raises
//!   the heap above what stays live by less than 1.5 times its largest
//!   partition's body, and reading it by less than half;
//! * (f) a durable store keeps a few words per logged batch, not a copy
//!   of its log: fed the same batches, it holds at most 64 B per batch
//!   more than the same store without a log.
//!
//! Everything lives in ONE `#[test]`: the counters are process-global
//! and the tests of a binary run on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;

use utcq_core::storage;
use utcq_core::{ByTime, CompressParams, Partition, QueryTarget, Store, StoreBuilder};
use utcq_datagen::{generate_network, generate_on_network, profile, GenOptions};
use utcq_traj::Dataset;

struct Counting;

/// Bytes and blocks live now, the most bytes live since [`PEAK`] was
/// last reset, and allocator calls so far.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// Adds `bytes` (which may be negative) to the live bytes and raises
/// the peak to them.
fn grow(bytes: isize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every request is passed through to `System` unchanged and its
// result returned unchanged; the counters are only side effects.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(bytes, blocks)` live now.
fn live() -> (isize, isize) {
    (
        LIVE_BYTES.load(Ordering::Relaxed),
        LIVE_BLOCKS.load(Ordering::Relaxed),
    )
}

/// Heap cost per trajectory of a store.
#[derive(Debug, Clone, Copy)]
struct Cost {
    /// Live bytes, by the allocator.
    bytes: f64,
    /// Live blocks, by the allocator.
    blocks: f64,
    /// Bytes by the store's own census.
    census: f64,
}

/// Runs `run` and returns what it returned with how far the heap rose
/// above what it holds once `run` is done (what it returned included):
/// its transient bytes.
fn transient<T>(run: impl FnOnce() -> T) -> (T, isize) {
    PEAK.store(live().0, Ordering::Relaxed);
    let made = run();
    (made, PEAK.load(Ordering::Relaxed) - live().0)
}

/// Runs `make` and returns what it made with the `(bytes, blocks)` that
/// added to the heap.
fn measured<T>(make: impl FnOnce() -> T) -> (T, (isize, isize)) {
    let before = live();
    let made = make();
    let after = live();
    (made, (after.0 - before.0, after.1 - before.1))
}

/// The per-trajectory cost of a store: what dropping all of it but its
/// road network frees, less what an empty store over that network and
/// with its index parameters holds (the cache shards, the writer core,
/// the grid's edge-cell table: nothing that grows with the data).
fn cost(store: Store) -> Cost {
    let (params, stiu) = (store.params(), store.snapshots()[0].stiu().params);
    let census = store.snapshot().resident().total() as f64;
    let (net, n) = (Arc::clone(store.network()), store.len() as f64);
    let ((), freed) = measured(|| drop(store));
    let empty = || StoreBuilder::new(net, params).stiu_params(stiu).finish();
    let (empty, fixed) = measured(|| empty().unwrap());
    drop(empty);
    Cost {
        bytes: (-freed.0 - fixed.0) as f64 / n,
        blocks: (-freed.1 - fixed.1) as f64 / n,
        census: census / n,
    }
}

/// Allocator calls made by publishing `batch` into `store`.
fn publish_calls(store: &Store, batch: &Dataset) -> usize {
    let before = CALLS.load(Ordering::Relaxed);
    store.ingest(batch).unwrap();
    CALLS.load(Ordering::Relaxed) - before
}

fn container(store: &Store) -> Vec<u8> {
    let mut bytes = Vec::new();
    store.write(&mut bytes).unwrap();
    bytes
}

fn reopen(mut container: &[u8]) -> Store {
    Store::read(&mut container).unwrap()
}

#[test]
fn a_store_costs_flat_segments_not_an_object_graph() {
    const N: usize = 5_000;
    const BATCH: usize = 32;
    let p = profile::cd();
    let net = Arc::new(generate_network(&p, 7));
    let opts = GenOptions {
        n_trajectories: N + BATCH,
        seed: 7,
        ..GenOptions::default()
    };
    let ds = generate_on_network(&net, &p, &opts);
    assert_eq!(ds.trajectories.len(), N + BATCH);
    let params = CompressParams::with_interval(ds.default_interval);
    let slice = |range: std::ops::Range<usize>| Dataset {
        trajectories: ds.trajectories[range].to_vec(),
        ..ds.clone()
    };
    let build = |upto: usize| {
        let builder = StoreBuilder::new(Arc::clone(&net), params);
        builder.ingest(&slice(0..upto)).unwrap().finish().unwrap()
    };

    // Built offline, and its container reopened.
    let store = build(N);
    let offline = container(&store);
    let built = cost(store);
    let reopened = cost(reopen(&offline));

    // Grown live: 4,000 built, the rest published in batches of 32, so
    // every publish copies the tail, which seals at 4,096. On the way,
    // at 4,104 trajectories (8 in the tail), a copy is set aside for (d).
    let store = build(4_000);
    let mut nearly_empty_tail = Vec::new();
    let starts = (4_000..4_096).step_by(BATCH);
    for at in starts.chain((4_104..N).step_by(BATCH)) {
        if at == 4_104 {
            store.ingest(&slice(4_096..4_104)).unwrap();
            nearly_empty_tail = container(&store);
        }
        store.ingest(&slice(at..(at + BATCH).min(N))).unwrap();
    }
    assert!(container(&store) == offline, "live growth == offline build");
    let live_grown = cost(store);

    // (a) flat: under 237 B in 0.02 blocks per trajectory, 226 B
    // measured plus 5 % (it was 1,455 B in 17.6 blocks as an object
    // graph, about 1 KB while the region tuples carried their resume
    // fields, 752 B while they were rows with two f64 bounds each, 376 B
    // while every instance had a row and a plan row of its own, 295 B
    // while every node kept its temporal tuples, 268 B while the streams
    // sat byte-aligned in an arena beside a framing string, one offset
    // per stream).
    let Cost { bytes, blocks, .. } = reopened;
    assert!(bytes <= 237.0, "opened store: {bytes:.1} B/trajectory");
    assert!(blocks <= 0.1, "opened store: {blocks:.3} blocks/trajectory");

    // (b) the same however the store came to be.
    for (how, other) in [("built", built), ("live-grown", live_grown)] {
        assert!(
            (other.bytes - bytes).abs() <= 0.02 * bytes,
            "{how} store: {:.1} B/trajectory vs {bytes:.1} reopened",
            other.bytes
        );
    }

    // (c) the census is the allocator's count.
    for (how, Cost { bytes, census, .. }) in [("built", built), ("reopened", reopened)] {
        assert!(
            (census - bytes).abs() <= 0.05 * bytes,
            "{how} store: census {census:.1} vs allocator {bytes:.1} B/trajectory"
        );
    }

    // (d) a publish copies a 904-trajectory tail with as many allocator
    // calls as an 8-trajectory one (it made ~12 more per trajectory).
    let batch = slice(N..N + BATCH);
    let (full_tail, empty_tail) = (reopen(&offline), reopen(&nearly_empty_tail));
    assert_eq!(
        (full_tail.len() % 1_024, empty_tail.len() % 1_024),
        (904, 8)
    );
    let calls = (
        publish_calls(&full_tail, &batch),
        publish_calls(&empty_tail, &batch),
    );
    assert!(
        calls.0.abs_diff(calls.1) <= 64,
        "allocator calls of a publish into a 904- / an 8-trajectory tail: {calls:?}"
    );

    // (e) one partition at a time: 3 partitions of ~1,700 trajectories,
    // written and read with no partition's body held whole. A v3 writer
    // once held all three (6.5 times the largest); the reader held them
    // all before it parsed the first, so while it parsed the last, when
    // the heap peaks, it held that one (0.93 times). A body is all a
    // partition adds to a file (the network is the file's, once): 130.7
    // KB here, where a v7 blob with its network was 224.9 KB. Reading
    // then peaks at the id map's duplicate check (0.44 times, sized
    // exactly; 0.63 when it grew by doubling).
    let sharded = StoreBuilder::new(Arc::clone(&net), params)
        .shard_by(Arc::new(ByTime { interval_s: 600 }), 3)
        .unwrap()
        .ingest(&slice(0..N))
        .unwrap()
        .finish()
        .unwrap();
    let parts = sharded.snapshots();
    let body = |part: &Arc<Partition>| {
        let mut body = Vec::new();
        storage::write_body(&net, part.compressed(), part.stiu(), &mut body).unwrap();
        body.len()
    };
    let largest = parts.iter().map(body).max().unwrap() as f64;
    let bytes = container(&sharded);
    let ((), written) = transient(|| sharded.write(&mut io::sink()).unwrap());
    let (read, opened) = transient(|| reopen(&bytes));
    assert_eq!((read.len(), read.shard_count()), (N, 3));
    for (what, raised, bound) in [("writing", written, 1.5), ("reading", opened, 0.5)] {
        assert!(
            (raised as f64) < bound * largest,
            "{what} a 3-partition store raised the heap {raised} B past what it keeps, \
             its largest partition is {largest} B"
        );
    }

    // (f) a few words per logged batch: 16 batches of 32, with and
    // without a log (whose payloads, ~7 KB a batch here, the feed once
    // kept a copy of).
    let log = std::env::temp_dir().join(format!("utcq-footprint-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let grown = |durable: bool| {
        let store = build(1_000);
        if durable {
            let cfg = utcq_core::WalConfig::new(&log).fsync(utcq_core::FsyncPolicy::Never);
            store.attach_wal(cfg).unwrap();
        }
        let ((), (bytes, _)) = measured(|| {
            for at in (1_000..1_512).step_by(BATCH) {
                store.ingest(&slice(at..at + BATCH)).unwrap();
            }
        });
        drop(store);
        bytes
    };
    let (plain, durable) = (grown(false), grown(true));
    let _ = std::fs::remove_file(&log);
    assert!(
        durable - plain <= 16 * 64,
        "16 logged batches held {durable} B against {plain} B without a log"
    );

    // (c) again where fixed costs weigh most: the small fixture that
    // `utcq info` is demonstrated on.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/tiny_v8.utcq"
    );
    let Cost { bytes, census, .. } = cost(reopen(&std::fs::read(fixture).unwrap()));
    assert!(
        (census - bytes).abs() <= 0.05 * bytes,
        "fixture: census {census:.1} vs allocator {bytes:.1} B/trajectory"
    );
}

//! What a store costs in memory, counted by the allocator itself.
//!
//! A counting `#[global_allocator]` (which is why this is a test binary
//! of its own) watches a 5,000-trajectory Chengdu-profile store come to
//! be in three ways, and the checks are on bytes and blocks actually
//! live, the road network and decode cache aside:
//!
//! * (a) an opened store holds at most 450 B and 0.1 heap blocks per
//!   trajectory: flat segments, not an object graph per trajectory, and
//!   region tables as small as the container's (one word per group cell,
//!   one bit per non-reference cell);
//! * (b) built offline, reopened, or grown live across a seal boundary,
//!   the same data costs the same (within 2 %);
//! * (c) the store's own census (`Snapshot::resident`, what `utcq info`
//!   prints) agrees with the allocator within 5 %, also on the small
//!   checked-in fixture;
//! * (d) a publish copies the tail segment with a number of allocations
//!   that does not depend on how many trajectories the tail holds.
//!
//! Everything lives in ONE `#[test]`: the counters are process-global
//! and the tests of a binary run on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;

use utcq_core::{CompressParams, QueryTarget, Store, StoreBuilder};
use utcq_datagen::{generate_network, generate_on_network, profile, GenOptions};
use utcq_traj::Dataset;

struct Counting;

/// Bytes and blocks live now, and allocator calls so far.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every request is passed through to `System` unchanged and its
// result returned unchanged; the counters are only side effects.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
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
        let grown = new_size as isize - layout.size() as isize;
        LIVE_BYTES.fetch_add(grown, Ordering::Relaxed);
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

/// Runs `make` and returns what it made with the `(bytes, blocks)` that
/// added to the heap.
fn measured<T>(make: impl FnOnce() -> T) -> (T, (isize, isize)) {
    let before = live();
    let made = make();
    let after = live();
    (made, (after.0 - before.0, after.1 - before.1))
}

/// The per-trajectory cost of a store: what dropping all of it but its
/// road network frees, less what an empty store over that network holds
/// (the cache shards, the writer core: nothing that grows with the data).
fn cost(store: Store) -> Cost {
    let params = store.snapshot().compressed().params;
    let census = store.snapshot().resident().total() as f64;
    let (net, n) = (Arc::clone(store.network()), store.len() as f64);
    let ((), freed) = measured(|| drop(store));
    let (empty, fixed) = measured(|| StoreBuilder::new(net, params).finish().unwrap());
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

    // (a) flat: under 450 B in 0.02 blocks per trajectory (it was
    // 1,455 B in 17.6 blocks as an object graph, about 1 KB while the
    // region tuples carried their resume fields, 752 B while they were
    // rows with two f64 bounds each).
    let Cost { bytes, blocks, .. } = reopened;
    assert!(bytes <= 450.0, "opened store: {bytes:.1} B/trajectory");
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

    // (c) again where fixed costs weigh most: the small fixture that
    // `utcq info` is demonstrated on.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/tiny_v6.utcq"
    );
    let Cost { bytes, census, .. } = cost(reopen(&std::fs::read(fixture).unwrap()));
    assert!(
        (census - bytes).abs() <= 0.05 * bytes,
        "fixture: census {census:.1} vs allocator {bytes:.1} B/trajectory"
    );
}

//! Shared, bounded, thread-safe decode cache.
//!
//! Queries on the compressed form repeatedly decode the same artifacts:
//! a reference's streams serve every member of its `Rrs`, a trajectory's
//! time sequence serves every *when* query against it, and a fully
//! reconstructed [`Instance`] serves every query that needs its path.
//! Before this module existed those decodes were repaid on every call —
//! the per-reference cache in `query.rs` died with each query.
//!
//! [`DecodeCache`] memoizes the decoded artifact kinds behind `Arc`s:
//!
//! * `(traj, ref_idx) → Arc<DecodedRef>` — a reference's decoded streams;
//! * `(traj, orig_idx) → Arc<Instance>` — a fully decoded instance;
//! * `traj → Arc<Vec<i64>>` — a trajectory's decoded time sequence;
//! * `(traj, no) → Arc<Vec<i64>>` — a *partial* time window resumed
//!   mid-stream at the temporal tuple whose first sample index is `no`
//!   (the `bracket` step of the *where*/*range* paths, which previously
//!   re-paid the partial decode on every call);
//! * `(traj, cell) → ∅` — a **negative** entry recording that the
//!   trajectory never enters the StIU cell, so a repeated region-miss
//!   *when* query answers without re-scanning the region tuples.
//!   Negative entries carry no payload but are charged the fixed
//!   per-entry overhead, so they compete for the byte budget like any
//!   other entry and retire through the same LRU;
//! * `(RE, tq, α) → Arc<Vec<u64>>` — the **complete** match set of a
//!   range query shape (exact bit-pattern key, never a lossy hash),
//!   stored only when a scan ran unpaginated to the end; empty match
//!   sets store as payload-free negative entries. Repeated range probes
//!   of a warm shape skip the whole candidate scan.
//!
//! A store has one cache, shared by all of its partitions, so every key
//! also carries the **partition** it belongs to (`traj` is a position
//! within that partition), and the **epoch** that minted it (see
//! [`crate::snapshot`]): the partition snapshot's for a trajectory's
//! artifacts; for a range result, the epoch of what was queried — a
//! store of several partitions (partition `WHOLE_STORE`) or one
//! partition alone. After a live ingest publishes a new epoch, entries
//! of superseded epochs stop matching — no cross-epoch aliasing even if
//! a future writer stops being append-only — and the publish drops them
//! (`DecodeCache::retire_before`), so what the cache holds under ingest
//! is one epoch's working set, not every read since the last eviction.
//!
//! The cache is **sharded**: keys hash to one of [`SHARD_COUNT`]
//! [`RwLock`]-protected shards, so concurrent queries (e.g. under
//! [`crate::query::QueryTarget::par_range_query`]) contend only when they touch
//! the same shard. Hits take the shard's *read* lock — recency is
//! maintained with a per-entry atomic tick, so a hit never needs write
//! access. Misses decode outside any lock and then take the write lock to
//! insert, evicting least-recently-used entries until the shard is back
//! under its byte budget.
//!
//! The budget is a total across shards (each shard gets an equal slice)
//! and is reconfigurable at runtime through [`DecodeCache::set_budget`];
//! a budget of `0` disables caching entirely (every lookup decodes).
//! [`DecodeCache::stats`] exposes hit/miss/eviction counters plus the
//! live entry count and byte footprint — surfaced publicly as
//! [`crate::query::QueryTarget::cache_stats`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use utcq_traj::Instance;

use crate::compressed::DecodedRef;
use crate::error::Error;

/// Number of lock shards. A small power of two: enough to keep a
/// machine's worth of query threads from serializing on one lock, small
/// enough that tiny byte budgets still leave each shard a usable slice.
pub const SHARD_COUNT: usize = 16;

/// Default cache budget: 64 MiB, a laptop-friendly slice that still holds
/// the full decoded working set of the bundled benchmark datasets.
pub const DEFAULT_CACHE_BYTES: usize = 64 * 1024 * 1024;

/// Which decoded artifact of which trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    /// Decoded streams of `refs[ref_idx]` of trajectory `traj`.
    Ref { traj: u32, ref_idx: u32 },
    /// Fully decoded instance `orig_idx` of trajectory `traj`.
    Instance { traj: u32, orig_idx: u32 },
    /// Decoded time sequence of trajectory `traj`.
    Times { traj: u32 },
    /// Partial time window of trajectory `traj`, resumed mid-stream at
    /// the temporal tuple whose first sample index is `no`.
    Window { traj: u32, no: u32 },
    /// Negative entry: trajectory `traj` has no region tuple in StIU
    /// cell `cell` — a *when* query there is answer-free.
    WhenMiss { traj: u32, cell: u32 },
    /// The complete match set of one **range** query shape. The shape is
    /// stored *exactly* — the rectangle's four coordinate bit patterns,
    /// the query time, and α's bit pattern — never a lossy hash, which
    /// could collide two shapes and serve a wrong answer.
    RangeResult {
        re_bits: [u64; 4],
        tq: i64,
        alpha_bits: u64,
    },
}

impl Kind {
    /// The key of **range**(RE, tq, α), by bit pattern: two α values
    /// (or rectangles) alias iff they are bit-identical, so e.g. NaN α
    /// keys consistently and `0.0`/`-0.0` are distinct shapes (both
    /// compute the same answer, so the split is merely one redundant
    /// entry, never a wrong one).
    fn range_result(re: &utcq_network::Rect, tq: i64, alpha: f64) -> Self {
        Kind::RangeResult {
            re_bits: [
                re.min_x.to_bits(),
                re.min_y.to_bits(),
                re.max_x.to_bits(),
                re.max_y.to_bits(),
            ],
            tq,
            alpha_bits: alpha.to_bits(),
        }
    }
}

/// The `partition` of a range result over a store of several
/// partitions — no partition's index (a store has at most
/// [`crate::shard::MAX_SHARDS`]).
pub(crate) const WHOLE_STORE: u32 = u32::MAX;

/// Cache key: an artifact kind of one partition (or [`WHOLE_STORE`]),
/// stamped with the epoch that minted it. Entries of superseded epochs
/// stop matching and are dropped when the next epoch publishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    epoch: u64,
    partition: u32,
    kind: Kind,
}

/// Cached value, one variant per key kind.
#[derive(Debug, Clone)]
enum Value {
    Ref(Arc<DecodedRef>),
    Instance(Arc<Instance>),
    Times(Arc<Vec<i64>>),
    /// Complete, id-ascending match set of a range query shape
    /// (`Kind::RangeResult`); empty sets store as `Value::Negative`.
    RangeIds(Arc<Vec<u64>>),
    /// Payload-free negative entry (`Kind::WhenMiss`, or an empty
    /// `Kind::RangeResult` match set).
    Negative,
}

struct Entry {
    value: Value,
    /// Estimated heap footprint, fixed at insert time.
    bytes: usize,
    /// Last-access tick; updated under the shard's *read* lock.
    tick: AtomicU64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Key, Entry>,
    /// Sum of `Entry::bytes` currently resident in this shard.
    bytes: usize,
    /// Resident `Value::Negative` entries, maintained on insert/evict
    /// so `stats()` never walks the map.
    negatives: usize,
}

impl Shard {
    /// Evicts least-recently-used entries until `bytes + incoming` fits
    /// in `budget`. Returns the number of evictions.
    ///
    /// Eviction is batched: one recency-sorted pass drains down to a low
    /// watermark (7/8 of the budget) rather than exactly to the line, so
    /// the O(n log n) scan is amortized over the many inserts that
    /// follow instead of being repaid on every miss of a full shard.
    fn make_room(&mut self, incoming: usize, budget: usize) -> u64 {
        if self.bytes + incoming <= budget || self.map.is_empty() {
            return 0;
        }
        let watermark = (budget - budget / 8).saturating_sub(incoming);
        let mut by_age: Vec<(Key, u64, usize)> = self
            .map
            .iter()
            .map(|(&k, e)| (k, e.tick.load(Ordering::Relaxed), e.bytes))
            .collect();
        by_age.sort_unstable_by_key(|&(_, tick, _)| tick);
        let mut evicted = 0;
        for (key, _, _) in by_age {
            if self.bytes <= watermark {
                break;
            }
            if let Some(e) = self.map.remove(&key) {
                self.bytes -= e.bytes;
                if matches!(e.value, Value::Negative) {
                    self.negatives -= 1;
                }
                evicted += 1;
            }
        }
        evicted
    }
}

/// Point-in-time counters of a [`DecodeCache`], returned by
/// [`crate::query::QueryTarget::cache_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to decode.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Region-miss *when* queries answered from a negative entry
    /// (counted within `hits` as well).
    pub negative_hits: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Negative entries currently resident (counted within `entries`).
    pub negative_entries: usize,
    /// Estimated bytes currently resident.
    pub bytes: usize,
    /// Configured byte budget (`0` = caching disabled).
    pub budget_bytes: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The one-line summary every front end prints — `utcq query
    /// --cache-stats`, the serve process at shutdown — so the CLI and
    /// server presentations of the same counters cannot drift.
    ///
    /// ```
    /// let line = utcq_core::CacheStats::default().render();
    /// assert!(line.starts_with("decode cache:"));
    /// ```
    pub fn render(&self) -> String {
        format!(
            "decode cache: {} hits / {} misses ({:.1}% hit rate), {} entries ({} negative), {} / {} bytes, {} evictions",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.negative_entries,
            self.bytes,
            self.budget_bytes,
            self.evictions
        )
    }
}

/// The shared decode cache. One per [`crate::store::Store`], shared by
/// every partition's [`crate::snapshot::Snapshot`] of every epoch; cheap
/// to share by reference across query threads (`Send + Sync`).
pub struct DecodeCache {
    shards: Vec<RwLock<Shard>>,
    /// Total byte budget; each shard gets `budget / SHARD_COUNT`.
    budget: AtomicUsize,
    /// Global logical clock for LRU recency.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    negative_hits: AtomicU64,
}

impl std::fmt::Debug for DecodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl DecodeCache {
    /// A cache with the given total byte budget (`0` disables caching).
    pub fn with_budget(budget_bytes: usize) -> Self {
        Self {
            shards: (0..SHARD_COUNT).map(|_| RwLock::default()).collect(),
            budget: AtomicUsize::new(budget_bytes),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            negative_hits: AtomicU64::new(0),
        }
    }

    /// The configured total byte budget.
    pub fn budget(&self) -> usize {
        self.budget.load(Ordering::Relaxed)
    }

    /// Reconfigures the byte budget at runtime, evicting down to the new
    /// limit immediately. A budget of `0` disables caching and drops all
    /// entries.
    pub fn set_budget(&self, budget_bytes: usize) {
        self.budget.store(budget_bytes, Ordering::Relaxed);
        let per_shard = budget_bytes / SHARD_COUNT;
        for shard in &self.shards {
            let mut s = shard.write().expect("cache lock poisoned");
            if budget_bytes == 0 {
                self.evictions
                    .fetch_add(s.map.len() as u64, Ordering::Relaxed);
                s.map.clear();
                s.bytes = 0;
                s.negatives = 0;
            } else {
                let evicted = s.make_room(0, per_shard);
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
    }

    /// Drops every entry (counters survive). Used by benchmarks to
    /// measure cold-cache behavior on a warm process.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.write().expect("cache lock poisoned");
            s.map.clear();
            s.bytes = 0;
            s.negatives = 0;
        }
    }

    /// Drops every entry minted before the current epoch of what it
    /// belongs to: `epochs[p]` for partition `p`, `store` for a
    /// [`WHOLE_STORE`] range result — called once per publish, since no
    /// current reader can hit them again. Not counted as evictions (those
    /// keep the budget). A reader still pinned to an older epoch just
    /// decodes again; what it inserts meanwhile goes at the next publish.
    pub(crate) fn retire_before(&self, epochs: &[u64], store: u64) {
        for shard in &self.shards {
            let mut guard = shard.write().expect("cache lock poisoned");
            let s = &mut *guard;
            s.map.retain(|key, e| {
                let partition = epochs.get(key.partition as usize);
                let keep = key.epoch >= partition.copied().unwrap_or(store);
                if !keep {
                    s.bytes -= e.bytes;
                    if matches!(e.value, Value::Negative) {
                        s.negatives -= 1;
                    }
                }
                keep
            });
        }
    }

    /// Current counters and footprint. O(shard count): every per-entry
    /// quantity is maintained incrementally under the shard locks.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut negative_entries = 0;
        let mut bytes = 0;
        for shard in &self.shards {
            let s = shard.read().expect("cache lock poisoned");
            entries += s.map.len();
            negative_entries += s.negatives;
            bytes += s.bytes;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            negative_hits: self.negative_hits.load(Ordering::Relaxed),
            entries,
            negative_entries,
            bytes,
            budget_bytes: self.budget(),
        }
    }

    fn shard_of(&self, key: &Key) -> &RwLock<Shard> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARD_COUNT]
    }

    /// The memoization primitive: returns the cached value for `key`, or
    /// decodes it with `decode`, inserts, and returns it. With a zero
    /// budget this is a plain call to `decode`.
    fn get_or_insert(
        &self,
        key: Key,
        decode: impl FnOnce() -> Result<Value, Error>,
    ) -> Result<Value, Error> {
        let budget = self.budget();
        if budget == 0 {
            return decode();
        }
        let shard = self.shard_of(&key);
        if let Some(entry) = shard.read().expect("cache lock poisoned").map.get(&key) {
            entry.tick.store(
                self.clock.fetch_add(1, Ordering::Relaxed),
                Ordering::Relaxed,
            );
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(entry.value.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Decode outside any lock: a racing thread may decode the same
        // key concurrently; the loser's insert below just finds the
        // winner's entry and reuses it.
        let value = decode()?;
        self.insert(key, value.clone());
        Ok(value)
    }

    /// Inserts an already-computed value, evicting to stay under budget.
    /// Finding a racing winner's entry leaves it in place.
    fn insert(&self, key: Key, value: Value) {
        let bytes = value_bytes(&value);
        let shard = self.shard_of(&key);
        let mut s = shard.write().expect("cache lock poisoned");
        // Re-read the budget under the write lock: a concurrent
        // set_budget may have shrunk (or zeroed) it since the snapshot
        // above, and inserting against the stale value would strand an
        // entry no future lookup could ever reach or evict.
        let per_shard = self.budget() / SHARD_COUNT;
        if s.map.contains_key(&key) {
            return;
        }
        if bytes > per_shard {
            // Larger than the whole shard budget: serve it uncached
            // rather than flushing everything for a single entry.
            return;
        }
        let evicted = s.make_room(bytes, per_shard);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        s.bytes += bytes;
        if matches!(value, Value::Negative) {
            s.negatives += 1;
        }
        s.map.insert(
            key,
            Entry {
                value,
                bytes,
                tick: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
            },
        );
    }

    /// Cached decode of reference `ref_idx` of trajectory `traj`.
    pub(crate) fn ref_or_decode(
        &self,
        epoch: u64,
        partition: u32,
        traj: u32,
        ref_idx: u32,
        decode: impl FnOnce() -> Result<DecodedRef, Error>,
    ) -> Result<Arc<DecodedRef>, Error> {
        let key = Key {
            epoch,
            partition,
            kind: Kind::Ref { traj, ref_idx },
        };
        match self.get_or_insert(key, || Ok(Value::Ref(Arc::new(decode()?))))? {
            Value::Ref(r) => Ok(r),
            _ => Err(Error::CorruptStore("cache key/value kind mismatch")),
        }
    }

    /// Cached decode of instance `orig_idx` of trajectory `traj`.
    pub(crate) fn instance_or_decode(
        &self,
        epoch: u64,
        partition: u32,
        traj: u32,
        orig_idx: u32,
        decode: impl FnOnce() -> Result<Instance, Error>,
    ) -> Result<Arc<Instance>, Error> {
        let key = Key {
            epoch,
            partition,
            kind: Kind::Instance { traj, orig_idx },
        };
        match self.get_or_insert(key, || Ok(Value::Instance(Arc::new(decode()?))))? {
            Value::Instance(i) => Ok(i),
            _ => Err(Error::CorruptStore("cache key/value kind mismatch")),
        }
    }

    /// Cached partial time-decode window of trajectory `traj`, resumed
    /// at the temporal tuple whose first sample index is `no` (`no`
    /// uniquely identifies the resume point within a trajectory).
    pub(crate) fn window_or_decode(
        &self,
        epoch: u64,
        partition: u32,
        traj: u32,
        no: u32,
        decode: impl FnOnce() -> Result<Vec<i64>, Error>,
    ) -> Result<Arc<Vec<i64>>, Error> {
        let key = Key {
            epoch,
            partition,
            kind: Kind::Window { traj, no },
        };
        match self.get_or_insert(key, || Ok(Value::Times(Arc::new(decode()?))))? {
            Value::Times(t) => Ok(t),
            _ => Err(Error::CorruptStore("cache key/value kind mismatch")),
        }
    }

    /// Cached decode of the time sequence of trajectory `traj`.
    pub(crate) fn times_or_decode(
        &self,
        epoch: u64,
        partition: u32,
        traj: u32,
        decode: impl FnOnce() -> Result<Vec<i64>, Error>,
    ) -> Result<Arc<Vec<i64>>, Error> {
        let key = Key {
            epoch,
            partition,
            kind: Kind::Times { traj },
        };
        match self.get_or_insert(key, || Ok(Value::Times(Arc::new(decode()?))))? {
            Value::Times(t) => Ok(t),
            _ => Err(Error::CorruptStore("cache key/value kind mismatch")),
        }
    }

    /// Whether a negative entry records that trajectory `traj` never
    /// enters StIU cell `cell` (at `epoch`). A `true` answer counts as a
    /// hit *and* a negative hit; a `false` answer counts nothing — the
    /// caller is about to scan the region tuples, not decode.
    pub(crate) fn when_miss_hit(&self, epoch: u64, partition: u32, traj: u32, cell: u32) -> bool {
        if self.budget() == 0 {
            return false;
        }
        let key = Key {
            epoch,
            partition,
            kind: Kind::WhenMiss { traj, cell },
        };
        let shard = self.shard_of(&key);
        if let Some(entry) = shard.read().expect("cache lock poisoned").map.get(&key) {
            entry.tick.store(
                self.clock.fetch_add(1, Ordering::Relaxed),
                Ordering::Relaxed,
            );
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.negative_hits.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Records that trajectory `traj` never enters StIU cell `cell` (at
    /// `epoch`) — called by the *when* path after an empty region scan.
    pub(crate) fn note_when_miss(&self, epoch: u64, partition: u32, traj: u32, cell: u32) {
        if self.budget() == 0 {
            return;
        }
        self.insert(
            Key {
                epoch,
                partition,
                kind: Kind::WhenMiss { traj, cell },
            },
            Value::Negative,
        );
    }

    /// The cached complete match set of **range**(RE, tq, α) over
    /// `partition` (or [`WHOLE_STORE`]) at `epoch`, id-ascending, if a
    /// prior query stored it. An empty match set hits too (stored as a
    /// negative entry, so it counts a negative hit like a *when* region
    /// miss). `None` means the caller runs the scan.
    pub(crate) fn range_result(
        &self,
        epoch: u64,
        partition: u32,
        re: &utcq_network::Rect,
        tq: i64,
        alpha: f64,
    ) -> Option<Arc<Vec<u64>>> {
        if self.budget() == 0 {
            return None;
        }
        let key = Key {
            epoch,
            partition,
            kind: Kind::range_result(re, tq, alpha),
        };
        let shard = self.shard_of(&key);
        let guard = shard.read().expect("cache lock poisoned");
        let entry = guard.map.get(&key)?;
        entry.tick.store(
            self.clock.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.hits.fetch_add(1, Ordering::Relaxed);
        match &entry.value {
            Value::RangeIds(ids) => Some(Arc::clone(ids)),
            Value::Negative => {
                self.negative_hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::new(Vec::new()))
            }
            _ => None,
        }
    }

    /// Records the complete match set of **range**(RE, tq, α) over
    /// `partition` (or [`WHOLE_STORE`]) at `epoch` — called only when the
    /// scan ran unpaginated to the end (no cursor, no further
    /// candidates), so `ids` is the whole answer. Empty sets store
    /// payload-free as negative entries.
    pub(crate) fn note_range_result(
        &self,
        epoch: u64,
        partition: u32,
        re: &utcq_network::Rect,
        tq: i64,
        alpha: f64,
        ids: Arc<Vec<u64>>,
    ) {
        if self.budget() == 0 {
            return;
        }
        let key = Key {
            epoch,
            partition,
            kind: Kind::range_result(re, tq, alpha),
        };
        let value = if ids.is_empty() {
            Value::Negative
        } else {
            Value::RangeIds(ids)
        };
        self.insert(key, value);
    }
}

/// Fixed per-entry overhead charged on top of the payload estimate:
/// hash-map slot, `Entry` bookkeeping, `Arc` control block. Negative
/// entries are charged exactly this.
const ENTRY_OVERHEAD: usize = 96;

fn value_bytes(v: &Value) -> usize {
    ENTRY_OVERHEAD
        + match v {
            Value::Ref(r) => r.heap_bytes(),
            Value::Instance(i) => {
                i.path.capacity() * std::mem::size_of::<utcq_network::EdgeId>()
                    + i.positions.capacity() * std::mem::size_of::<utcq_traj::PathPosition>()
            }
            Value::Times(t) => t.len() * std::mem::size_of::<i64>(),
            Value::RangeIds(ids) => ids.len() * std::mem::size_of::<u64>(),
            Value::Negative => 0,
        }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times_entry(cache: &DecodeCache, traj: u32, len: usize) -> Arc<Vec<i64>> {
        cache
            .times_or_decode(0, 0, traj, || Ok((0..len as i64).collect()))
            .unwrap()
    }

    #[test]
    fn hit_after_miss() {
        let cache = DecodeCache::with_budget(1 << 20);
        let a = times_entry(&cache, 1, 8);
        let b = cache
            .times_or_decode(0, 0, 1, || panic!("second lookup must not decode"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn epochs_partition_the_key_space() {
        let cache = DecodeCache::with_budget(1 << 20);
        let old = cache.times_or_decode(0, 0, 1, || Ok(vec![1, 2])).unwrap();
        // The same trajectory under a newer epoch is a distinct entry —
        // stale decodes can never serve a post-ingest snapshot.
        let new = cache
            .times_or_decode(1, 0, 1, || Ok(vec![1, 2, 3]))
            .unwrap();
        assert_eq!(old.len(), 2);
        assert_eq!(new.len(), 3);
        let again = cache
            .times_or_decode(1, 0, 1, || panic!("epoch-1 entry must be cached"))
            .unwrap();
        assert!(Arc::ptr_eq(&new, &again));
        assert_eq!(cache.stats().entries, 2);
        // Publishing epoch 1 drops everything epoch 0 minted, without
        // counting evictions; epoch 1's entry stays.
        cache.note_when_miss(0, 0, 7, 3);
        cache.retire_before(&[1], 1);
        let s = cache.stats();
        assert_eq!((s.entries, s.negative_entries, s.evictions), (1, 0, 0));
        assert_eq!(s.bytes, value_bytes(&Value::Times(new)));
        cache
            .times_or_decode(1, 0, 1, || panic!("epoch-1 entry must survive"))
            .unwrap();
    }

    #[test]
    fn window_entries_are_keyed_independently() {
        let cache = DecodeCache::with_budget(1 << 20);
        // Full times and a partial window of the same trajectory coexist.
        let full = times_entry(&cache, 1, 8);
        let win = cache
            .window_or_decode(0, 0, 1, 3, || Ok(vec![3, 4, 5]))
            .unwrap();
        assert_eq!(full.len(), 8);
        assert_eq!(*win, vec![3, 4, 5]);
        // Second lookup of the window is a hit, not a re-decode.
        let win2 = cache
            .window_or_decode(0, 0, 1, 3, || panic!("window must be cached"))
            .unwrap();
        assert!(Arc::ptr_eq(&win, &win2));
        // A different resume point is a distinct entry.
        let other = cache
            .window_or_decode(0, 0, 1, 5, || Ok(vec![5, 6]))
            .unwrap();
        assert_eq!(*other, vec![5, 6]);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 3, 3));
    }

    #[test]
    fn negative_entries_hit_and_account() {
        let cache = DecodeCache::with_budget(1 << 20);
        assert!(!cache.when_miss_hit(0, 0, 7, 3), "cold probe misses");
        cache.note_when_miss(0, 0, 7, 3);
        assert!(cache.when_miss_hit(0, 0, 7, 3), "recorded miss hits");
        assert!(!cache.when_miss_hit(1, 0, 7, 3), "new epoch does not alias");
        assert!(
            !cache.when_miss_hit(0, 0, 7, 4),
            "other cell does not alias"
        );
        let s = cache.stats();
        assert_eq!(s.negative_hits, 1);
        assert_eq!(s.negative_entries, 1);
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, ENTRY_OVERHEAD, "negative entries are payload-free");
        // Zero budget disables negative caching like everything else.
        cache.set_budget(0);
        cache.note_when_miss(0, 0, 7, 3);
        assert!(!cache.when_miss_hit(0, 0, 7, 3));
    }

    #[test]
    fn partitions_partition_the_key_space() {
        let cache = DecodeCache::with_budget(1 << 20);
        // Position 1 of partition 0 and position 1 of partition 1 are
        // different trajectories.
        let a = cache.times_or_decode(0, 0, 1, || Ok(vec![1, 2])).unwrap();
        let b = cache.times_or_decode(0, 1, 1, || Ok(vec![7])).unwrap();
        assert_eq!((a.len(), b.len()), (2, 1));
        cache.note_when_miss(0, 0, 1, 3);
        assert!(!cache.when_miss_hit(0, 1, 1, 3), "other partition");
        // A publish that moved only partition 0 to epoch 1 leaves
        // partition 1's epoch-0 entries in place.
        cache.retire_before(&[1, 0], 1);
        let s = cache.stats();
        assert_eq!((s.entries, s.negative_entries, s.evictions), (1, 0, 0));
        cache
            .times_or_decode(0, 1, 1, || panic!("partition 1 kept its epoch"))
            .unwrap();
    }

    #[test]
    fn range_results_key_on_exact_shape_and_epoch() {
        let cache = DecodeCache::with_budget(1 << 20);
        let re = utcq_network::Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(cache.range_result(0, WHOLE_STORE, &re, 900, 0.3).is_none());
        cache.note_range_result(0, WHOLE_STORE, &re, 900, 0.3, Arc::new(vec![3, 7, 11]));
        assert_eq!(
            *cache.range_result(0, WHOLE_STORE, &re, 900, 0.3).unwrap(),
            [3, 7, 11]
        );
        // Any shape component differing is a distinct key.
        let hit = |epoch, partition, re: &utcq_network::Rect, tq, alpha| {
            cache
                .range_result(epoch, partition, re, tq, alpha)
                .is_some()
        };
        assert!(!hit(1, WHOLE_STORE, &re, 900, 0.3), "epoch");
        assert!(!hit(0, 0, &re, 900, 0.3), "one partition alone");
        assert!(!hit(0, WHOLE_STORE, &re, 901, 0.3), "tq");
        assert!(!hit(0, WHOLE_STORE, &re, 900, 0.31), "alpha");
        let other = utcq_network::Rect::new(0.0, 0.0, 10.0, 10.5);
        assert!(!hit(0, WHOLE_STORE, &other, 900, 0.3), "rect");
        // Two partitions queried alone at one epoch keep two answers.
        cache.note_range_result(0, 0, &re, 900, 0.3, Arc::new(vec![3]));
        cache.note_range_result(0, 1, &re, 900, 0.3, Arc::new(vec![7, 11]));
        assert_eq!(*cache.range_result(0, 0, &re, 900, 0.3).unwrap(), [3]);
        assert_eq!(*cache.range_result(0, 1, &re, 900, 0.3).unwrap(), [7, 11]);
        // Empty answers are remembered as negative entries and hit.
        cache.note_range_result(0, WHOLE_STORE, &re, 1800, 0.3, Arc::new(Vec::new()));
        assert!(cache
            .range_result(0, WHOLE_STORE, &re, 1800, 0.3)
            .unwrap()
            .is_empty());
        let s = cache.stats();
        assert_eq!(s.negative_entries, 1);
        assert_eq!(s.negative_hits, 1);
        // A publish that moved the store to epoch 1 and left both
        // partitions at 0 retires the store's results only: the
        // partitions' results and decodes stay.
        times_entry(&cache, 1, 8);
        cache.retire_before(&[0, 0], 1);
        assert!(!hit(0, WHOLE_STORE, &re, 900, 0.3));
        assert!(hit(0, 0, &re, 900, 0.3) && hit(0, 1, &re, 900, 0.3));
        assert_eq!(cache.stats().entries, 3);
        // Zero budget bypasses reads and writes.
        cache.set_budget(0);
        assert!(!hit(0, 0, &re, 900, 0.3));
        cache.note_range_result(0, WHOLE_STORE, &re, 900, 0.3, Arc::new(vec![1]));
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn zero_budget_bypasses() {
        let cache = DecodeCache::with_budget(0);
        times_entry(&cache, 1, 8);
        times_entry(&cache, 1, 8); // decodes again, no memoization
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (0, 0, 0, 0));
    }

    #[test]
    fn tiny_budget_evicts_lru() {
        // Budget for roughly one small entry per shard.
        let cache = DecodeCache::with_budget(SHARD_COUNT * 200);
        for traj in 0..64 {
            times_entry(&cache, traj, 8);
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "{s:?}");
        assert!(s.entries <= SHARD_COUNT, "{s:?}");
        assert!(s.bytes <= cache.budget(), "{s:?}");
    }

    #[test]
    fn oversized_entry_is_served_uncached() {
        let cache = DecodeCache::with_budget(SHARD_COUNT * 64);
        let v = times_entry(&cache, 1, 10_000); // far over a shard budget
        assert_eq!(v.len(), 10_000);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn set_budget_shrinks_in_place() {
        let cache = DecodeCache::with_budget(1 << 20);
        for traj in 0..32 {
            times_entry(&cache, traj, 64);
        }
        assert_eq!(cache.stats().entries, 32);
        cache.set_budget(SHARD_COUNT * 250);
        let s = cache.stats();
        assert!(s.bytes <= SHARD_COUNT * 250, "{s:?}");
        cache.set_budget(0);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = DecodeCache::with_budget(1 << 20);
        times_entry(&cache, 1, 8);
        times_entry(&cache, 1, 8);
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes), (0, 0));
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn recency_protects_hot_entries() {
        // One shard's worth of keys would race; use a single traj id per
        // shard-agnostic check: insert A, touch it, then flood — A's high
        // tick should survive longer than untouched peers on its shard.
        let cache = DecodeCache::with_budget(SHARD_COUNT * 400);
        times_entry(&cache, 0, 8);
        for _ in 0..4 {
            times_entry(&cache, 0, 8); // keep traj 0 hot
            for traj in 1..40 {
                times_entry(&cache, traj, 8);
            }
        }
        // traj 0 was touched every round; it should still be resident.
        cache
            .times_or_decode(0, 0, 0, || panic!("hot entry was evicted"))
            .map(|_| ())
            .unwrap();
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache = Arc::new(DecodeCache::with_budget(1 << 20));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let c = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    let traj = (t * 7 + i) % 16;
                    let v = c
                        .times_or_decode(0, 0, traj, || Ok(vec![i64::from(traj); 4]))
                        .unwrap();
                    assert_eq!(*v, vec![i64::from(traj); 4]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert!(s.hits > 0 && s.misses >= 16, "{s:?}");
    }
}

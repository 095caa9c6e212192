//! Shared, bounded, thread-safe decode cache.
//!
//! Queries on the compressed form repeatedly decode the same artifacts:
//! a reference's streams serve every member of its `Rrs`, a trajectory's
//! time sequence serves every *when* query against it, and a fully
//! reconstructed [`Instance`] serves every query that needs its path.
//! Before this module existed those decodes were repaid on every call —
//! the per-reference cache in `query.rs` died with each query.
//!
//! [`DecodeCache`] memoizes three decoded artifact kinds behind `Arc`s:
//!
//! * `(traj, ref_idx) → Arc<DecodedRef>` — a reference's decoded streams;
//! * `(traj, orig_idx) → Arc<Instance>` — a fully decoded instance;
//! * `traj → Arc<Vec<i64>>` — a trajectory's decoded time sequence,
//!   which *when* reads whole and *where*/*range* bracket their query
//!   time in.
//!
//! Every entry is a decoded artifact of one trajectory; query answers
//! are never cached (a *when* on a cell the trajectory never enters is
//! answered from the StIU index alone, and every range page comes from
//! the scan).
//!
//! A store has one cache, shared by all of its partitions, so every key
//! also carries the **partition** it belongs to (`traj` is a position
//! within that partition). A store only appends: a publish adds
//! trajectories at new positions and never rewrites or reuses one, so a
//! (partition, position) names one trajectory for the store's whole
//! life, and an entry decoded through any snapshot is valid through
//! every other, older or newer. Entries therefore outlive publishes and
//! leave only when evicted or cleared.
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
}

/// Cache key: an artifact kind of one partition (valid through every
/// snapshot of the store, see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    partition: u32,
    kind: Kind,
}

/// Cached value, one variant per key kind.
#[derive(Debug, Clone)]
enum Value {
    Ref(Arc<DecodedRef>),
    Instance(Arc<Instance>),
    Times(Arc<Vec<i64>>),
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
    /// Entries currently resident.
    pub entries: usize,
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
            "decode cache: {} hits / {} misses ({:.1}% hit rate), {} entries, {} / {} bytes, {} evictions",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.bytes,
            self.budget_bytes,
            self.evictions
        )
    }
}

/// The shared decode cache. One per [`crate::store::Store`], shared by
/// every [`crate::snapshot::Partition`] of every snapshot; cheap
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
        }
    }

    /// Current counters and footprint. O(shard count): every per-entry
    /// quantity is maintained incrementally under the shard locks.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut bytes = 0;
        for shard in &self.shards {
            let s = shard.read().expect("cache lock poisoned");
            entries += s.map.len();
            bytes += s.bytes;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
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
        partition: u32,
        traj: u32,
        ref_idx: u32,
        decode: impl FnOnce() -> Result<DecodedRef, Error>,
    ) -> Result<Arc<DecodedRef>, Error> {
        let key = Key {
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
        partition: u32,
        traj: u32,
        orig_idx: u32,
        decode: impl FnOnce() -> Result<Instance, Error>,
    ) -> Result<Arc<Instance>, Error> {
        let key = Key {
            partition,
            kind: Kind::Instance { traj, orig_idx },
        };
        match self.get_or_insert(key, || Ok(Value::Instance(Arc::new(decode()?))))? {
            Value::Instance(i) => Ok(i),
            _ => Err(Error::CorruptStore("cache key/value kind mismatch")),
        }
    }

    /// Cached decode of the time sequence of trajectory `traj`.
    pub(crate) fn times_or_decode(
        &self,
        partition: u32,
        traj: u32,
        decode: impl FnOnce() -> Result<Vec<i64>, Error>,
    ) -> Result<Arc<Vec<i64>>, Error> {
        let key = Key {
            partition,
            kind: Kind::Times { traj },
        };
        match self.get_or_insert(key, || Ok(Value::Times(Arc::new(decode()?))))? {
            Value::Times(t) => Ok(t),
            _ => Err(Error::CorruptStore("cache key/value kind mismatch")),
        }
    }
}

/// Fixed per-entry overhead charged on top of the payload estimate:
/// hash-map slot, `Entry` bookkeeping, `Arc` control block.
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
        }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times_entry(cache: &DecodeCache, traj: u32, len: usize) -> Arc<Vec<i64>> {
        cache
            .times_or_decode(0, traj, || Ok((0..len as i64).collect()))
            .unwrap()
    }

    #[test]
    fn hit_after_miss() {
        let cache = DecodeCache::with_budget(1 << 20);
        let a = times_entry(&cache, 1, 8);
        let b = cache
            .times_or_decode(0, 1, || panic!("second lookup must not decode"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn partitions_partition_the_key_space() {
        let cache = DecodeCache::with_budget(1 << 20);
        // Position 1 of partition 0 and position 1 of partition 1 are
        // different trajectories.
        let a = cache.times_or_decode(0, 1, || Ok(vec![1, 2])).unwrap();
        let b = cache.times_or_decode(1, 1, || Ok(vec![7])).unwrap();
        assert_eq!((a.len(), b.len()), (2, 1));
        let again = cache
            .times_or_decode(1, 1, || panic!("partition 1's entry must be cached"))
            .unwrap();
        assert!(Arc::ptr_eq(&b, &again));
        assert_eq!(cache.stats().entries, 2);
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
        // A 400 B shard holds two 8-sample entries (160 B each). Every
        // flood key lands in the hot entry's own shard, so each insert
        // past the second evicts one entry: the one touched before each
        // insert must outlive the untouched peers inserted after it,
        // whatever shards the hasher picks.
        let cache = DecodeCache::with_budget(SHARD_COUNT * 400);
        let shard = |traj| {
            let kind = Kind::Times { traj };
            cache.shard_of(&Key { partition: 0, kind }) as *const RwLock<Shard>
        };
        let hot = shard(0);
        let flood: Vec<u32> = (1..)
            .filter(|&traj| std::ptr::eq(shard(traj), hot))
            .take(8)
            .collect();
        times_entry(&cache, 0, 8);
        for &traj in &flood {
            times_entry(&cache, 0, 8); // keep traj 0 hot
            times_entry(&cache, traj, 8);
        }
        assert_eq!(cache.stats().evictions, flood.len() as u64 - 1);
        // traj 0 was touched before every insert; it is still resident.
        cache
            .times_or_decode(0, 0, || panic!("hot entry was evicted"))
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
                        .times_or_decode(0, traj, || Ok(vec![i64::from(traj); 4]))
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

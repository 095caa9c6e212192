//! Structurally shared containers for O(batch) snapshot publication.
//!
//! A live ingest publishes a new epoch by cloning the current
//! snapshot's state, appending the batch, and swapping the result in
//! (`PartitionState::from_snapshot` in `snapshot.rs`). With plain
//! `Vec`/`HashMap` state, that clone is O(store): every compressed
//! trajectory, query plan, index node and posting list is copied per
//! batch, so publish latency grows with store size. The containers in
//! this module make the clone O(batch) instead:
//!
//! * [`ChunkedVec`] — an append-only vector split into fixed-size
//!   chunks, each behind an `Arc`. Cloning copies only the chunk
//!   *directory* (one pointer per [`CHUNK`] elements); sealed chunks are
//!   shared by pointer across epochs forever. Appending to a shared tail
//!   chunk copies just that tail (≤ `CHUNK - 1` elements) once per
//!   publish — the copy-on-write event.
//! * [`SharedIdMap`] — the `id → position` map as sealed map segments
//!   (one per chunk of trajectories) plus a copy-on-write tail segment.
//! * [`IntervalMap`] — the StIU's `interval → postings` map, segmented
//!   the same way: a batch extends the tail segment without rewriting
//!   the postings of previously sealed chunks, even for hot intervals.
//!
//! All three seal at the *same* trajectory count (a pure function of the
//! element count, never of batch boundaries), so a store grown live, a
//! store built offline and a store loaded from a container agree on the
//! chunk layout (a container load appends element by element, like any
//! other growth). Serialization ([`crate::storage`]) reads the logical
//! sequence through iterators; chunking is an in-memory representation
//! only.
//!
//! Every copy-on-write event reports its (shallow) byte count to
//! [`crate::hooks::copied`], which `tests/publish_cost.rs` and the
//! benchmark's `publish.copied_bytes_per_batch` probe use to prove
//! publish copies stay O(batch). Sealing a segment moves its `Arc` into
//! the directory and copies nothing.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Elements per sealed chunk. The chunk layout is a pure function of
/// the element count: element `i` lives in chunk `i / CHUNK`, and a
/// chunk seals exactly when element `(k + 1) * CHUNK` arrives — never at
/// a batch boundary — so live-grown, offline-built and loaded stores
/// are structurally identical.
pub const CHUNK: usize = 1024;

/// An append-only vector of `Arc`'d fixed-size chunks. Cloning is
/// O(len / CHUNK) pointer copies; pushing after a clone copies at most
/// the shared tail chunk once (reported to [`crate::hooks::copied`]).
pub struct ChunkedVec<T> {
    /// The chunk directory: all chunks are full ([`CHUNK`] elements)
    /// except possibly the last, which is the append tail.
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> ChunkedVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        Self {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Chunks a plain vector — the container-load path. The layout is
    /// identical to pushing the elements one by one.
    pub fn from_vec(items: Vec<T>) -> Self {
        let len = items.len();
        let mut chunks = Vec::with_capacity(len.div_ceil(CHUNK));
        let mut it = items.into_iter();
        loop {
            let chunk: Vec<T> = it.by_ref().take(CHUNK).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(Arc::new(chunk));
        }
        Self { chunks, len }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at position `i`, if any.
    pub fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    /// Iterates the elements in order.
    pub fn iter(&self) -> ChunkedIter<'_, T> {
        ChunkedIter {
            chunks: self.chunks.iter(),
            cur: [].iter(),
        }
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// Appends an element. If the tail chunk is shared with another
    /// epoch, it is copied out first (the per-publish copy-on-write
    /// event, reported to [`crate::hooks::copied`]); sealed chunks are
    /// never touched.
    pub fn push(&mut self, value: T) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        let tail_at = self.chunks.len() - 1;
        // bounds: a tail chunk was just ensured above
        let tail = &mut self.chunks[tail_at];
        if Arc::get_mut(tail).is_none() {
            crate::hooks::copied(std::mem::size_of::<T>() * tail.len());
            *tail = Arc::new((**tail).clone());
        }
        if let Some(chunk) = Arc::get_mut(tail) {
            chunk.push(value);
            self.len += 1;
        }
    }
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Clone for ChunkedVec<T> {
    /// Clones the chunk directory only: refcount bumps, no element
    /// copies.
    fn clone(&self) -> Self {
        Self {
            chunks: self.chunks.clone(),
            len: self.len,
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ChunkedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for ChunkedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T> std::ops::Index<usize> for ChunkedVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        // bounds: same contract as `Vec` indexing — callers index `< len`
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

/// Iterator over a [`ChunkedVec`]'s elements in order.
pub struct ChunkedIter<'a, T> {
    chunks: std::slice::Iter<'a, Arc<Vec<T>>>,
    cur: std::slice::Iter<'a, T>,
}

impl<'a, T> Iterator for ChunkedIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(item) = self.cur.next() {
                return Some(item);
            }
            self.cur = self.chunks.next()?.iter();
        }
    }
}

impl<'a, T> IntoIterator for &'a ChunkedVec<T> {
    type Item = &'a T;
    type IntoIter = ChunkedIter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Shallow per-entry cost of an id-map segment, for copy accounting.
const ID_ENTRY_BYTES: usize = std::mem::size_of::<u64>() + std::mem::size_of::<u32>();

/// `trajectory id → position`, as sealed `Arc`'d segments (one per
/// [`CHUNK`] insertions, in lockstep with the trajectory chunks) plus a
/// copy-on-write tail segment. Cloning bumps refcounts; inserting after
/// a clone copies at most the tail segment once.
///
/// Keys must be unique across the whole map (callers reject duplicate
/// trajectory ids before inserting), and exactly one insertion happens
/// per trajectory — that keeps the segment boundaries aligned with the
/// trajectory chunk boundaries.
#[derive(Debug, Clone)]
pub struct SharedIdMap {
    segments: Vec<Arc<HashMap<u64, u32>>>,
    tail: Arc<HashMap<u64, u32>>,
}

impl SharedIdMap {
    /// An empty map.
    pub fn new() -> Self {
        Self {
            segments: Vec::new(),
            tail: Arc::new(HashMap::new()),
        }
    }

    /// The position of trajectory `id`, if present.
    pub fn get(&self, id: u64) -> Option<u32> {
        if let Some(&idx) = self.tail.get(&id) {
            return Some(idx);
        }
        self.segments.iter().rev().find_map(|s| s.get(&id).copied())
    }

    /// Whether trajectory `id` is present.
    pub fn contains(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Number of entries across all segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum::<usize>() + self.tail.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty() && self.tail.is_empty()
    }

    /// Inserts a (unique) id. Copies the tail segment out first if it is
    /// shared with another epoch, and seals it once it reaches
    /// [`CHUNK`] entries.
    pub fn insert(&mut self, id: u64, idx: u32) {
        if Arc::get_mut(&mut self.tail).is_none() {
            crate::hooks::copied(self.tail.len() * ID_ENTRY_BYTES);
            self.tail = Arc::new((*self.tail).clone());
        }
        if let Some(m) = Arc::get_mut(&mut self.tail) {
            m.insert(id, idx);
        }
        if self.tail.len() == CHUNK {
            let sealed = std::mem::replace(&mut self.tail, Arc::new(HashMap::new()));
            self.segments.push(sealed);
        }
    }
}

impl Default for SharedIdMap {
    fn default() -> Self {
        Self::new()
    }
}

/// One trajectory chunk's `interval → ascending global positions`.
type IntervalPostings = HashMap<i64, Vec<u32>>;

/// The StIU's `interval → posting list` map, segmented by trajectory
/// chunk: segment `k` holds the postings of trajectories in chunk `k`.
/// A batch only ever touches the tail segment (copy-on-write, like
/// [`SharedIdMap`]), so the postings of sealed chunks are shared across
/// epochs even for intervals the batch also lands in.
///
/// Sealed segments and the tail have one shape — plain position lists
/// in insertion (ascending) order — so sealing moves the tail's `Arc`
/// into the directory and copies nothing. Chaining the segments' lists
/// for a key yields exactly what a single flat map would hold, which is
/// what queries and serialization read ([`IntervalMap::postings`]).
#[derive(Debug, Clone)]
pub struct IntervalMap {
    segments: Vec<Arc<IntervalPostings>>,
    tail: Arc<IntervalPostings>,
}

impl IntervalMap {
    /// An empty map.
    pub fn new() -> Self {
        Self {
            segments: Vec::new(),
            tail: Arc::default(),
        }
    }

    /// Registers trajectory `j` under every interval in
    /// `first..=last`. Must be called with strictly ascending `j`, once
    /// per trajectory — sealing is driven by `j` so the segment layout
    /// stays a pure function of the trajectory count.
    pub fn register(&mut self, j: u32, first: i64, last: i64) {
        while self.segments.len() < j as usize / CHUNK {
            self.segments.push(std::mem::take(&mut self.tail));
        }
        if Arc::get_mut(&mut self.tail).is_none() {
            let bytes: usize = self
                .tail
                .values()
                .map(|v| std::mem::size_of::<i64>() + v.len() * std::mem::size_of::<u32>())
                .sum();
            crate::hooks::copied(bytes);
            self.tail = Arc::new((*self.tail).clone());
        }
        if let Some(m) = Arc::get_mut(&mut self.tail) {
            for interval in first..=last {
                m.entry(interval).or_default().push(j);
            }
        }
    }

    /// Every segment in trajectory order, the tail last.
    fn all_segments(&self) -> impl Iterator<Item = &IntervalPostings> {
        self.segments
            .iter()
            .chain(std::iter::once(&self.tail))
            .map(|s| &**s)
    }

    /// The merged posting list of `key`, ascending by position — what a
    /// single flat map would hold.
    pub fn postings(&self, key: i64) -> Vec<u32> {
        let mut out = Vec::new();
        for js in self.all_segments().filter_map(|seg| seg.get(&key)) {
            out.extend_from_slice(js);
        }
        out
    }

    /// Visits every `(interval, global position)` posting. The order
    /// within one interval is ascending by position.
    pub fn for_each_posting(&self, mut f: impl FnMut(i64, u32)) {
        for seg in self.all_segments() {
            for (&key, js) in seg {
                for &j in js {
                    f(key, j);
                }
            }
        }
    }

    /// Number of distinct intervals.
    pub fn len(&self) -> usize {
        self.all_segments()
            .flat_map(|seg| seg.keys())
            .collect::<HashSet<_>>()
            .len()
    }

    /// Whether no interval holds any posting.
    pub fn is_empty(&self) -> bool {
        self.all_segments().all(|seg| seg.is_empty())
    }

    /// The distinct intervals, ascending.
    pub fn sorted_keys(&self) -> Vec<i64> {
        let mut keys: Vec<i64> = self
            .all_segments()
            .flat_map(|seg| seg.keys().copied())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}

impl Default for IntervalMap {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_vec_matches_vec_semantics() {
        let n = 2 * CHUNK + 37;
        let plain: Vec<u32> = (0..n as u32).collect();
        let mut grown = ChunkedVec::new();
        for &x in &plain {
            grown.push(x);
        }
        let converted = ChunkedVec::from_vec(plain.clone());
        assert_eq!(grown.len(), n);
        assert_eq!(grown, converted);
        assert_eq!(grown.iter().copied().collect::<Vec<_>>(), plain);
        assert_eq!(grown.get(0), Some(&0));
        assert_eq!(grown.get(n - 1), Some(&(n as u32 - 1)));
        assert_eq!(grown.get(n), None);
        assert_eq!(grown[CHUNK], CHUNK as u32);
        assert_eq!(grown.chunks.len(), converted.chunks.len());
    }

    #[test]
    fn clone_shares_sealed_chunks_and_cow_copies_the_tail() {
        let mut a = ChunkedVec::from_vec((0..CHUNK as u32 + 10).collect());
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.chunks[0], &b.chunks[0]));
        assert!(Arc::ptr_eq(&a.chunks[1], &b.chunks[1]));
        a.push(9999);
        // The sealed chunk stays shared; the tail was copied out.
        assert!(Arc::ptr_eq(&a.chunks[0], &b.chunks[0]));
        assert!(!Arc::ptr_eq(&a.chunks[1], &b.chunks[1]));
        assert_eq!(b.len(), CHUNK + 10, "the clone is unaffected");
        assert_eq!(a.len(), CHUNK + 11);
        assert_eq!(a[CHUNK + 10], 9999);
    }

    #[test]
    fn shared_id_map_seals_and_resolves() {
        let mut m = SharedIdMap::new();
        let n = CHUNK as u32 + 100;
        for i in 0..n {
            assert!(!m.contains(u64::from(i) * 7));
            m.insert(u64::from(i) * 7, i);
        }
        assert_eq!(m.segments.len(), 1, "one segment sealed at CHUNK");
        assert_eq!(m.len(), n as usize);
        for i in 0..n {
            assert_eq!(m.get(u64::from(i) * 7), Some(i));
        }
        assert_eq!(m.get(1), None);
    }

    #[test]
    fn interval_map_merges_across_segments() {
        let mut grown = IntervalMap::new();
        let n = CHUNK as u32 + 50;
        let mut merged: HashMap<i64, Vec<u32>> = HashMap::new();
        for j in 0..n {
            let (first, last) = (i64::from(j % 5), i64::from(j % 5) + 1);
            grown.register(j, first, last);
            for k in first..=last {
                merged.entry(k).or_default().push(j);
            }
        }
        assert_eq!(grown.segments.len(), 1);
        assert_eq!(grown.len(), merged.len());
        let mut keys: Vec<i64> = merged.keys().copied().collect();
        keys.sort_unstable();
        assert_eq!(grown.sorted_keys(), keys);
        for (&k, v) in &merged {
            assert_eq!(&grown.postings(k), v, "interval {k}");
        }
        assert_eq!(grown.postings(999), Vec::<u32>::new());
    }

    #[test]
    fn interval_map_union_matches_per_key_merge() {
        let mut m = IntervalMap::new();
        let n = 2 * CHUNK as u32 + 77;
        for j in 0..n {
            let first = i64::from(j % 7);
            m.register(j, first, first + 2);
        }
        let mut visited: Vec<(i64, u32)> = Vec::new();
        m.for_each_posting(|k, j| visited.push((k, j)));
        for (first, last) in [(0i64, 0i64), (0, 3), (2, 8), (-5, -1), (5, 40)] {
            let mut expect: Vec<u32> = visited
                .iter()
                .filter(|(k, _)| (first..=last).contains(k))
                .map(|&(_, j)| j)
                .collect();
            expect.sort_unstable();
            expect.dedup();
            let mut got: Vec<u32> = (first..=last).flat_map(|k| m.postings(k)).collect();
            got.sort_unstable();
            got.dedup();
            assert_eq!(got, expect, "union {first}..={last}");
        }
    }

    #[test]
    fn interval_map_clone_shares_sealed_segments() {
        let mut a = IntervalMap::new();
        for j in 0..CHUNK as u32 + 10 {
            a.register(j, 0, 0);
        }
        let b = a.clone();
        a.register(CHUNK as u32 + 10, 0, 0);
        assert!(Arc::ptr_eq(&a.segments[0], &b.segments[0]));
        assert_eq!(b.postings(0).len(), CHUNK + 10, "the clone is unaffected");
        assert_eq!(a.postings(0).len(), CHUNK + 11);
    }
}

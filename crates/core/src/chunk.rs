//! The two lookup maps of a snapshot, structurally shared for O(batch)
//! publication.
//!
//! A live ingest publishes a new epoch by cloning the current state,
//! appending the batch, and swapping the result in
//! (`PartitionState::from_partition` in `snapshot.rs`). The trajectories
//! and their index nodes live in [`crate::segment`]; beside them a
//! snapshot keeps two maps, segmented the same way:
//!
//! * [`SharedIdMap`] — the store's one `id → (partition, position)` map
//!   as sealed map segments (one per [`CHUNK`] trajectories of the
//!   store) plus a copy-on-write tail segment.
//! * [`IntervalMap`] — a partition's StIU `interval → postings` map: a
//!   batch extends the tail segment without rewriting the postings of
//!   previously sealed segments, even for hot intervals.
//!
//! Both seal at a fixed count of what they hold (a pure function of the
//! element count, never of batch boundaries), so a store grown live, a
//! store built offline and a store loaded from a container agree on the
//! layout. Neither is stored in a container: they are derived from the
//! trajectories and nodes at open.
//!
//! Every copy-on-write event reports the bytes it copied to
//! [`crate::hooks::copied`], which `tests/publish_cost.rs` and the
//! benchmark's `publish.copied_bytes_per_batch` probe use to prove
//! publish copies stay O(batch). Sealing a segment moves its `Arc` into
//! the directory and copies nothing.

use std::collections::HashMap;
use std::sync::Arc;

use crate::segment::{arc_bytes, copy_vec, vec_bytes};

/// Trajectories per sealed segment. The layout is a pure function of
/// the trajectory count: trajectory `i` lives in segment `i / CHUNK`, and
/// a segment seals exactly when trajectory `(k + 1) * CHUNK` arrives —
/// never at a batch boundary — so live-grown, offline-built and loaded
/// stores are structurally identical. Also the records per container block.
pub const CHUNK: usize = 1024;

/// Heap bytes behind a map of `Copy` entries: per bucket the entry and
/// one control byte, plus one group of control bytes (how the standard
/// library's table is laid out; it keeps 1/8 of the buckets free).
fn map_bytes<K, V>(m: &HashMap<K, V>) -> usize {
    if m.capacity() == 0 {
        return 0;
    }
    let buckets = (m.capacity() + 1).next_power_of_two();
    buckets * (std::mem::size_of::<(K, V)>() + 1) + 16
}

/// Where a trajectory is stored: `(partition, position)`.
type Location = (u32, u32);

/// `trajectory id → (partition, position)`, as sealed `Arc`'d segments
/// (one per [`CHUNK`] insertions) plus a copy-on-write tail segment.
/// Cloning bumps refcounts; inserting after a clone copies at most the
/// tail segment once.
///
/// Keys must be unique across the whole map (callers reject duplicate
/// trajectory ids before inserting), and exactly one insertion happens
/// per trajectory, so the segment boundaries are a function of the
/// store's trajectory count.
#[derive(Debug, Clone)]
pub struct SharedIdMap {
    segments: Vec<Arc<HashMap<u64, Location>>>,
    tail: Arc<HashMap<u64, Location>>,
}

impl SharedIdMap {
    /// An empty map.
    pub fn new() -> Self {
        Self {
            segments: Vec::new(),
            tail: Arc::new(HashMap::new()),
        }
    }

    /// The partition and position of trajectory `id`, if present.
    pub fn get(&self, id: u64) -> Option<Location> {
        if let Some(&idx) = self.tail.get(&id) {
            return Some(idx);
        }
        self.segments.iter().rev().find_map(|s| s.get(&id).copied())
    }

    /// Whether trajectory `id` is present.
    pub fn contains(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Inserts a (unique) id. Copies the tail segment out first if it is
    /// shared with another epoch, and seals it once it reaches
    /// [`CHUNK`] entries.
    pub fn insert(&mut self, id: u64, at: Location) {
        if Arc::get_mut(&mut self.tail).is_none() {
            // Cloning a table of `Copy` entries copies the table.
            crate::hooks::copied(map_bytes(&self.tail));
            self.tail = Arc::new((*self.tail).clone());
        }
        if let Some(m) = Arc::get_mut(&mut self.tail) {
            m.insert(id, at);
        }
        if self.tail.len() == CHUNK {
            let sealed = std::mem::replace(&mut self.tail, Arc::new(HashMap::new()));
            self.segments.push(sealed);
        }
    }

    /// Heap bytes behind the map.
    pub fn heap_bytes(&self) -> usize {
        let header = arc_bytes::<HashMap<u64, Location>>();
        let maps = self.segments.iter().chain([&self.tail]);
        vec_bytes(&self.segments) + maps.map(|m| header + map_bytes(m)).sum::<usize>()
    }
}

impl Default for SharedIdMap {
    fn default() -> Self {
        Self::new()
    }
}

/// One segment's postings: `(interval, global position)` pairs.
type IntervalPostings = Vec<(i64, u32)>;

/// The StIU's `interval → posting list` map, segmented like the
/// trajectories: segment `k` holds the postings of the trajectories of
/// segment `k`. A batch only ever touches the tail segment
/// (copy-on-write, like [`SharedIdMap`]), so the postings of sealed
/// segments are shared across epochs even for intervals the batch also
/// lands in.
///
/// Each segment is one flat table. The tail is in arrival order, that
/// is by position; sealing sorts it by `(interval, position)`, so a
/// sealed segment answers a key by binary search and the tail by a scan
/// of its at most [`CHUNK`] trajectories' postings. Either way an
/// interval's postings come out ascending by position, and chaining the
/// segments' yields exactly what a single flat map would hold, which is
/// what queries read ([`IntervalMap::postings`]).
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
            // Sorting in place, unless an older epoch still reads the
            // tail: then a sorted copy, once per sealed segment.
            let mut sealed = std::mem::take(&mut self.tail);
            if Arc::get_mut(&mut sealed).is_none() {
                crate::hooks::copied(std::mem::size_of_val(sealed.as_slice()));
            }
            let list = Arc::make_mut(&mut sealed);
            list.sort_unstable();
            list.shrink_to_fit();
            self.segments.push(sealed);
        }
        if Arc::get_mut(&mut self.tail).is_none() {
            let mut copied = 0;
            self.tail = Arc::new(copy_vec(&self.tail, &mut copied));
            crate::hooks::copied(copied);
        }
        if let Some(list) = Arc::get_mut(&mut self.tail) {
            list.extend((first..=last).map(|interval| (interval, j)));
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
        for seg in &self.segments {
            let run = seg.get(seg.partition_point(|&(k, _)| k < key)..);
            let run = run.unwrap_or_default().iter();
            out.extend(run.take_while(|&&(k, _)| k == key).map(|&(_, j)| j));
        }
        let tail = self.tail.iter().filter(|&&(k, _)| k == key);
        out.extend(tail.map(|&(_, j)| j));
        out
    }

    /// Number of distinct intervals.
    pub fn len(&self) -> usize {
        self.sorted_keys().len()
    }

    /// Whether no interval holds any posting.
    pub fn is_empty(&self) -> bool {
        self.all_segments().all(|seg| seg.is_empty())
    }

    /// The distinct intervals, ascending.
    pub fn sorted_keys(&self) -> Vec<i64> {
        let mut keys: Vec<i64> = self.all_segments().flatten().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Heap bytes behind the map.
    pub fn heap_bytes(&self) -> usize {
        let header = arc_bytes::<IntervalPostings>();
        let lists = self.all_segments().map(|seg| header + vec_bytes(seg));
        vec_bytes(&self.segments) + lists.sum::<usize>()
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
    fn shared_id_map_seals_and_resolves() {
        let mut m = SharedIdMap::new();
        let n = CHUNK as u32 + 100;
        for i in 0..n {
            assert!(!m.contains(u64::from(i) * 7));
            m.insert(u64::from(i) * 7, (i % 3, i));
        }
        assert_eq!(m.segments.len(), 1, "one segment sealed at CHUNK");
        for i in 0..n {
            assert_eq!(m.get(u64::from(i) * 7), Some((i % 3, i)));
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
        let visited: Vec<(i64, u32)> = m.all_segments().flatten().copied().collect();
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

//! The store's id map, structurally shared for O(batch) publication.
//!
//! A live ingest publishes a new epoch by extending a copy of the
//! current snapshot and swapping it in (`Snapshot::extend` in
//! `snapshot.rs`). The trajectories, their index nodes and the nodes'
//! interval postings live in [`crate::segment`]; beside them a snapshot
//! keeps [`SharedIdMap`], the store's one `id → (partition, position)`
//! map, as sealed map segments (one per [`CHUNK`] trajectories of the
//! store) plus a copy-on-write tail segment.
//!
//! It seals at a fixed count of what it holds (a pure function of the
//! trajectory count, never of batch boundaries), so a store grown live,
//! a store built offline and a store loaded from a container agree on
//! the layout. It is not stored in a container: it is derived from the
//! trajectories at open.
//!
//! Copying the tail reports the bytes it copied to
//! [`crate::hooks::copied`], which `tests/publish_cost.rs` and the
//! benchmark's `publish.copied_bytes_per_batch` probe use to prove
//! publish copies stay O(batch). Sealing a segment moves its `Arc` into
//! the directory and copies nothing.

use std::collections::HashMap;
use std::sync::Arc;

use crate::segment::{arc_bytes, vec_bytes};

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
}

//! Probabilistic queries over compressed uncertain trajectories (§5.3–5.4).
//!
//! This module holds the query *engine*: hit types, pagination
//! primitives, and the per-trajectory evaluation routines shared by the
//! public façade ([`crate::store::Store`]). All three query types operate
//! on the compressed form, decompressing only what the StIU index says is
//! necessary:
//!
//! * **where**(Tuʲ, t, α) — the temporal index resumes time decoding
//!   mid-stream near `t`; only instances with `p ≥ α` are decoded and
//!   interpolated (Definition 10).
//! * **when**(Tuʲ, ⟨edge, rd⟩, α) — the spatial index's region groups
//!   decide whether the trajectory reaches the query region at all, and
//!   Lemma 1 (`p_max < α`) skips decompressing a reference's entire
//!   non-reference set (Definition 11).
//! * **range**(Tu, RE, tq, α) — the interval map and region groups
//!   produce candidates; a Lemma 4 probability bound prunes whole
//!   trajectories, and Lemma 2/3 subpath tests decide most instances
//!   without touching their `D` streams (Definition 12).
//!
//! The bounds both lemmas read are derived per cell where they are read
//! ([`crate::stiu::TrajIndex::bounds`]), for the query cell or the cells
//! inside RE only.
//!
//! The engine itself is a borrowed view over the store's parts plus two
//! shared acceleration layers the store owns:
//!
//! * the [`crate::cache::DecodeCache`] — decoded references, instances,
//!   time streams and partial `bracket` time windows are memoized
//!   *across* queries behind `Arc`s, so a
//!   repeated or concurrent workload stops re-paying decode costs (each
//!   query additionally keeps a tiny per-call reference map so a cache
//!   sized to zero still reuses a reference across its `Rrs` within one
//!   call);
//! * the per-trajectory [`crate::plan::TrajPlan`] — `orig_idx → slot`
//!   lookup, precomputed probabilities, and the probability-descending
//!   member order, replacing the per-call linear scans and sorts the
//!   engine used to do.
//!
//! A trajectory, its index node and its plan are borrowed views into
//! the store's flat segments ([`crate::segment`]): the engine decodes
//! straight from the segment's stream arena.
//!
//! Nothing here panics on corrupt input: structural inconsistencies in a
//! container surface as [`Error::CorruptStore`].

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use utcq_network::{EdgeId, Point, Rect, RoadNetwork, VertexId};
use utcq_traj::interp::{path_distance, position_at_distance};
use utcq_traj::{Instance, MappedLocation};

use crate::cache::DecodeCache;
use crate::compress::CompressedDataset;
use crate::compressed::{untrim_flags, DecodedRef};
use crate::error::Error;
use crate::plan::Slot;
use crate::segment::TrajView;
use crate::siar;
use crate::stiu::{Stiu, TrajIndex};

/// One *where* answer: an instance's location at the query time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhereHit {
    /// Original instance index within the trajectory.
    pub instance: u32,
    /// Instance probability (dequantized).
    pub prob: f64,
    /// The mapped location at the query time.
    pub loc: MappedLocation,
}

/// One *when* answer: a time at which an instance passed the location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhenHit {
    /// Original instance index within the trajectory.
    pub instance: u32,
    /// Instance probability (dequantized).
    pub prob: f64,
    /// Passing time in seconds (interpolated, hence fractional).
    pub time: f64,
}

/// A batched *range* query for [`QueryTarget::par_range_query`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeQuery {
    /// The query region `RE`.
    pub re: Rect,
    /// The query time `tq`.
    pub tq: i64,
    /// The probability threshold `α`.
    pub alpha: f64,
}

/// Default [`PageRequest::limit`]: large enough that per-trajectory
/// queries (bounded by instance counts) are returned whole, small enough
/// that a hostile `range` query cannot materialize an unbounded answer.
pub const DEFAULT_PAGE_LIMIT: usize = 1024;

/// Cursor + limit for the paginated query entry points.
///
/// Cursors are opaque offsets minted by the previous [`Page`]; answers
/// are deterministic for a fixed store, so walking pages with the
/// returned `next_cursor` enumerates the full answer exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRequest {
    /// Maximum number of items in the returned page.
    pub limit: usize,
    /// Resume position from the previous page's [`Page::next_cursor`];
    /// `None` starts from the beginning.
    pub cursor: Option<u64>,
}

impl Default for PageRequest {
    fn default() -> Self {
        Self {
            limit: DEFAULT_PAGE_LIMIT,
            cursor: None,
        }
    }
}

impl PageRequest {
    /// First page with a custom limit.
    pub fn first(limit: usize) -> Self {
        Self {
            limit,
            cursor: None,
        }
    }

    /// The page following a cursor minted by [`Page::next_cursor`].
    pub fn after(cursor: u64, limit: usize) -> Self {
        Self {
            limit,
            cursor: Some(cursor),
        }
    }

    /// No pagination: the whole answer in one page.
    pub fn all() -> Self {
        Self {
            limit: usize::MAX,
            cursor: None,
        }
    }
}

/// One page of query answers.
#[derive(Debug, Clone, PartialEq)]
pub struct Page<T> {
    /// The answers in this page (at most the requested limit).
    pub items: Vec<T>,
    /// Cursor for the next page; `None` when this page is the last.
    pub next_cursor: Option<u64>,
    /// Whether further answers remain past this page.
    pub has_more: bool,
}

impl<T> Page<T> {
    /// Unwraps the page into its items.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }

    /// Slices a fully materialized answer into the requested page, in
    /// place: the tail is truncated and the head drained out of the same
    /// allocation — no second vector, no per-item copy pass.
    pub(crate) fn slice(full: Vec<T>, req: PageRequest) -> Self {
        let len = full.len();
        let start = (req.cursor.unwrap_or(0) as usize).min(len);
        // A zero limit could never progress; serve at least one item.
        let end = start.saturating_add(req.limit.max(1)).min(len);
        let mut items = full;
        items.truncate(end);
        if start > 0 {
            items.drain(..start);
        }
        // A small page sliced out of a large answer would otherwise pin
        // the full answer's allocation for the page's lifetime.
        if items.capacity() > items.len().saturating_mul(2).max(64) {
            items.shrink_to_fit();
        }
        let has_more = end < len;
        Page {
            items,
            next_cursor: has_more.then_some(end as u64),
            has_more,
        }
    }
}

/// The query surface — the one declaration of the paper's read API
/// (Definitions 10 to 12).
///
/// An epoch-pinned [`crate::snapshot::Snapshot`] and the
/// [`crate::store::Store`] of any partition count each implement it
/// exactly once and have no inherent twins of these methods (import the
/// trait to query a concrete store), so services, benchmarks and the CLI
/// are written against `&dyn QueryTarget` and stay agnostic of the
/// physical layout. The contract is strict: for the same dataset, every
/// implementation must return byte-identical answers and identical
/// paginated *item* sequences (where/when cursors carry the partition
/// they were minted by; see `crate::shard`).
///
/// ```
/// use std::sync::Arc;
/// use utcq_core::shard::ByTime;
/// use utcq_core::{CompressParams, PageRequest, QueryTarget, StoreBuilder};
/// # fn main() -> Result<(), utcq_core::Error> {
/// // Ids inside the whole network at `tq`, whatever the store shape.
/// fn everywhere(target: &impl QueryTarget, tq: i64) -> Result<Vec<u64>, utcq_core::Error> {
///     let re = target.network().bounding_rect();
///     Ok(target.range_query(&re, tq, 0.0, PageRequest::all())?.into_items())
/// }
///
/// let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 6, 7);
/// let (net, tq) = (Arc::new(net), ds.trajectories[0].times[0]);
/// let builder = || StoreBuilder::new(
///     Arc::clone(&net), CompressParams::with_interval(ds.default_interval));
/// let store = builder().ingest(&ds)?.finish()?;
/// let sharded = builder().shard_by(Arc::new(ByTime::default()), 3)?.ingest(&ds)?.finish()?;
///
/// let want = everywhere(&store, tq)?;
/// assert!(!want.is_empty());
/// assert_eq!(everywhere(&*store.snapshot(), tq)?, want); // a pinned epoch
/// assert_eq!(everywhere(&sharded, tq)?, want);           // three partitions
/// # Ok(()) }
/// ```
pub trait QueryTarget: Send + Sync {
    /// Number of trajectories queryable (in a live store's current epoch).
    fn len(&self) -> usize;

    /// Whether the target holds no trajectories.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The road network the trajectories are mapped onto.
    fn network(&self) -> &Arc<RoadNetwork>;

    /// Probabilistic **where** query (Definition 10): the locations of
    /// `traj_id`'s instances with probability ≥ `alpha` at time `t`.
    ///
    /// Unknown trajectory ids and out-of-span times yield an empty page,
    /// matching the paper's query semantics (the answer set is empty).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use utcq_core::{CompressParams, PageRequest, QueryTarget, StiuParams, Store};
    /// # fn main() -> Result<(), utcq_core::Error> {
    /// # let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 3, 7);
    /// # let store = Store::build(Arc::new(net), &ds,
    /// #     CompressParams::with_interval(ds.default_interval), StiuParams::default())?;
    /// let t0 = store.decode_times(store.traj_index(0).unwrap())?[0];
    /// // Walk the full answer two hits per page.
    /// let mut req = PageRequest::first(2);
    /// loop {
    ///     let page = store.where_query(0, t0, 0.0, req)?;
    ///     for hit in &page.items {
    ///         println!("instance {} (p={}) at {:?}", hit.instance, hit.prob, hit.loc);
    ///     }
    ///     match page.next_cursor {
    ///         Some(c) => req = PageRequest::after(c, 2),
    ///         None => break,
    ///     }
    /// }
    /// # Ok(()) }
    /// ```
    fn where_query(
        &self,
        traj_id: u64,
        t: i64,
        alpha: f64,
        page: PageRequest,
    ) -> Result<Page<WhereHit>, Error>;

    /// Probabilistic **when** query (Definition 11): the times at which
    /// `traj_id`'s instances with probability ≥ `alpha` pass `⟨edge, rd⟩`.
    ///
    /// An unknown trajectory id, or an `edge` the road network does not
    /// have, yields an empty page (the answer set is empty).
    ///
    /// ```no_run
    /// use utcq_core::{PageRequest, QueryTarget};
    /// use utcq_network::EdgeId;
    /// # fn demo(store: &utcq_core::Store) -> Result<(), utcq_core::Error> {
    /// // When does trajectory 7 pass the midpoint of edge 117?
    /// let page = store.when_query(7, EdgeId(117), 0.5, 0.25, PageRequest::first(64))?;
    /// for hit in &page.items {
    ///     println!("instance {} passes at t={}s", hit.instance, hit.time);
    /// }
    /// # Ok(()) }
    /// ```
    fn when_query(
        &self,
        traj_id: u64,
        edge: EdgeId,
        rd: f64,
        alpha: f64,
        page: PageRequest,
    ) -> Result<Page<WhenHit>, Error>;

    /// Probabilistic **range** query (Definition 12): ids of trajectories
    /// inside `re` at `tq` with accumulated probability ≥ `alpha`,
    /// ascending. Pagination is keyset-style over the sorted ids (the
    /// cursor is the last returned id, identical across implementations),
    /// so pages stay consistent under concurrent reads (and, since ingest
    /// only appends, under concurrent writes).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use utcq_core::{CompressParams, PageRequest, QueryTarget, StiuParams, Store};
    /// # fn main() -> Result<(), utcq_core::Error> {
    /// # let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 3, 7);
    /// # let store = Store::build(Arc::new(net), &ds,
    /// #     CompressParams::with_interval(ds.default_interval), StiuParams::default())?;
    /// let tq = store.decode_times(0)?[0];
    /// let everywhere = store.network().bounding_rect();
    /// let page = store.range_query(&everywhere, tq, 0.2, PageRequest::all())?;
    /// assert!(page.items.windows(2).all(|w| w[0] < w[1]), "ids ascend");
    /// # Ok(()) }
    /// ```
    fn range_query(
        &self,
        re: &Rect,
        tq: i64,
        alpha: f64,
        page: PageRequest,
    ) -> Result<Page<u64>, Error>;

    /// Evaluates a batch of **range** queries in parallel across the
    /// available cores; answers are unpaginated, in input order. Whole
    /// queries are pulled from one shared atomic-counter work queue, so
    /// a skewed batch (a few expensive queries amid many cheap ones)
    /// keeps every thread busy until the queue drains; each query is
    /// exactly [`QueryTarget::range_query`] with [`PageRequest::all`].
    ///
    /// ```no_run
    /// use utcq_core::{QueryTarget, RangeQuery};
    /// # fn demo(store: &utcq_core::Store, batch: Vec<RangeQuery>) -> Result<(), utcq_core::Error> {
    /// let answers = store.par_range_query(&batch)?; // one Vec<id> per query, input order
    /// assert_eq!(answers.len(), batch.len());
    /// # Ok(()) }
    /// ```
    fn par_range_query(&self, queries: &[RangeQuery]) -> Result<Vec<Vec<u64>>, Error> {
        par_run(queries.len(), |i| {
            let q = &queries[i]; // bounds: par_run yields i < queries.len()
            self.range_query(&q.re, q.tq, q.alpha, PageRequest::all())
                .map(Page::into_items)
        })
    }

    /// Hit/miss/eviction counters and footprint of the decode cache — the
    /// one cache of the store, which all of its partitions (and any
    /// snapshot pinned from it) share.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use utcq_core::{CompressParams, PageRequest, QueryTarget, StiuParams, Store};
    /// # fn main() -> Result<(), utcq_core::Error> {
    /// # let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 3, 7);
    /// # let store = Store::build(Arc::new(net), &ds,
    /// #     CompressParams::with_interval(ds.default_interval), StiuParams::default())?;
    /// let t0 = store.decode_times(0)?[0];
    /// store.where_query(0, t0, 0.0, PageRequest::default())?; // cold: misses
    /// store.where_query(0, t0, 0.0, PageRequest::default())?; // warm: hits
    /// let stats = store.cache_stats();
    /// assert!(stats.hits > 0 && stats.misses > 0);
    /// println!("{}", stats.render());
    /// # Ok(()) }
    /// ```
    fn cache_stats(&self) -> crate::cache::CacheStats;

    /// Reconfigures the decode-cache byte budget at runtime, evicting
    /// down to the new limit immediately (`0` disables caching).
    ///
    /// ```
    /// use utcq_core::QueryTarget;
    /// # fn demo(store: &utcq_core::Store) {
    /// store.set_cache_bytes(16 * 1024 * 1024); // 16 MiB
    /// assert_eq!(store.cache_bytes(), 16 * 1024 * 1024);
    /// store.set_cache_bytes(0); // disable caching entirely
    /// # }
    /// ```
    fn set_cache_bytes(&self, bytes: usize);

    /// Drops every cached decode (the budget and counters survive). Benchmarks use this to measure cold-cache
    /// latencies.
    fn clear_cache(&self);
}

/// Runs `run_one(0..n)` across the available cores, pulling indices from
/// a shared atomic counter — the work-queue threading model every
/// parallel query path in this crate uses. A skewed batch (a few
/// expensive items amid many cheap ones) keeps every thread busy until
/// the queue drains; results come back in input order.
///
/// Single shared queue, single pool: a sharded range query touches its
/// shards *inside* `run_one`, so sharding never multiplies the thread
/// count.
pub(crate) fn par_run<T: Send>(
    n: usize,
    run_one: impl Fn(usize) -> Result<T, Error> + Sync,
) -> Result<Vec<T>, Error> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if threads <= 1 {
        return (0..n).map(run_one).collect();
    }
    // Indexed answers collected per worker, merged in input order.
    type Answered<T> = Vec<(usize, Result<T, Error>)>;
    let next = AtomicUsize::new(0);
    let mut answered: Vec<Answered<T>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return local;
                        }
                        local.push((i, run_one(i)));
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => answered.push(local),
                // A worker panic is a bug in `run_one`; re-raise the
                // original payload on the caller instead of minting a
                // second panic here.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, r) in answered.into_iter().flatten() {
        out[i] = Some(r?); // bounds: the atomic queue only hands out i < n
    }
    out.into_iter()
        .map(|r| r.ok_or(Error::CorruptStore("parallel run left an index unanswered")))
        .collect()
}

/// Borrowed view over a store's parts — the engine the façade delegates
/// to.
#[derive(Clone, Copy)]
pub(crate) struct QueryEngine<'a> {
    pub net: &'a RoadNetwork,
    pub cds: &'a CompressedDataset,
    pub stiu: &'a Stiu,
    pub cache: &'a DecodeCache,
    /// The store partition this engine reads — every cache key this
    /// engine mints carries it, since the store's partitions share one
    /// cache and a position names a trajectory only within a partition.
    pub partition: u32,
    /// Epoch of the snapshot this engine reads — every cache key this
    /// engine mints carries it, so entries of superseded epochs can
    /// never serve a newer snapshot (or vice versa).
    pub epoch: u64,
}

/// Per-call scratch map of decoded references: the first lookup of each
/// reference within a query goes through the shared cache (or decodes);
/// subsequent members of the same `Rrs` reuse the `Arc` without touching
/// a lock — and a disabled cache still decodes each reference only once
/// per call.
type LocalRefs = HashMap<u32, Arc<DecodedRef>>;

impl<'a> QueryEngine<'a> {
    /// The compressed trajectory at position `j` (its query plan with
    /// it), checked.
    fn traj(&self, j: u32) -> Result<TrajView<'a>, Error> {
        let missing = Error::CorruptStore("trajectory position out of range");
        self.cds.trajectories.get(j as usize).ok_or(missing)
    }

    /// The index node at position `j`, checked.
    fn node(&self, j: u32) -> Result<TrajIndex<'a>, Error> {
        let missing = Error::CorruptStore("index node missing for trajectory");
        self.stiu.trajs.get(j as usize).ok_or(missing)
    }

    /// The full time sequence of the trajectory at position `j`,
    /// memoized in the shared cache.
    pub fn times(&self, j: u32, ct: &TrajView<'_>) -> Result<Arc<Vec<i64>>, Error> {
        self.cache
            .times_or_decode(self.epoch, self.partition, j, || {
                Ok(siar::decode(
                    ct.t_bits(),
                    ct.n_times as usize,
                    self.cds.params.default_interval,
                )?)
            })
    }

    /// The decoded streams of reference `ref_idx` of trajectory `j`:
    /// per-call map first, shared cache second, decode last.
    fn ref_decoded(
        &self,
        j: u32,
        ct: &TrajView<'_>,
        ref_idx: u32,
        local: &mut LocalRefs,
    ) -> Result<Arc<DecodedRef>, Error> {
        if let Some(d) = local.get(&ref_idx) {
            return Ok(Arc::clone(d));
        }
        let d = self
            .cache
            .ref_or_decode(self.epoch, self.partition, j, ref_idx, || {
                if ref_idx as usize >= ct.refs.len() {
                    return Err(Error::CorruptStore("reference index out of range"));
                }
                let d_codec = self.cds.params.d_codec();
                Ok(ct.decode_ref(ref_idx as usize, self.cds.w_e, &d_codec)?)
            })?;
        local.insert(ref_idx, Arc::clone(&d));
        Ok(d)
    }

    /// Decodes one instance (by original index) into an [`Instance`].
    /// The plan resolves the instance's compressed slot in O(1); the
    /// shared cache serves repeated decodes across queries, and one
    /// reference decode serves its whole `Rrs` — the advantage of the
    /// referential grouping.
    fn decode_instance(
        &self,
        j: u32,
        ct: &TrajView<'_>,
        orig_idx: u32,
        local: &mut LocalRefs,
    ) -> Result<Arc<Instance>, Error> {
        self.cache
            .instance_or_decode(self.epoch, self.partition, j, orig_idx, || {
                let d_codec = self.cds.params.d_codec();
                enum Decoded {
                    Shared(Arc<DecodedRef>),
                    Own(DecodedRef),
                }
                let (sv, dec): (VertexId, Decoded) = match ct.plan.slot(orig_idx)? {
                    Slot::Ref(pos) => {
                        let r = ct
                            .refs
                            .get(pos as usize)
                            .ok_or(Error::CorruptStore("plan slot points past refs"))?;
                        (r.sv, Decoded::Shared(self.ref_decoded(j, ct, pos, local)?))
                    }
                    Slot::NRef(pos) => {
                        let n = ct
                            .nrefs
                            .get(pos as usize)
                            .ok_or(Error::CorruptStore("plan slot points past nrefs"))?;
                        let r = ct
                            .refs
                            .get(n.ref_idx as usize)
                            .ok_or(Error::CorruptStore("non-reference points past refs"))?;
                        let dref = self.ref_decoded(j, ct, n.ref_idx, local)?;
                        let own = ct.decode_nref(pos as usize, &dref, self.cds.w_e, &d_codec)?;
                        (r.sv, Decoded::Own(own))
                    }
                };
                let dec = match &dec {
                    Decoded::Shared(d) => d.as_ref(),
                    Decoded::Own(d) => d,
                };
                let view = utcq_traj::TedView {
                    sv,
                    entries: dec.entries.clone(),
                    flags: untrim_flags(&dec.trimmed_flags, dec.entries.len()),
                    rds: dec.d_codes.iter().map(|&c| d_codec.dequantize(c)).collect(),
                    prob: ct.plan.prob(orig_idx)?,
                };
                Ok(view
                    .to_instance(self.net)
                    .map_err(crate::decompress::DecompressError::View)?)
            })
    }

    /// Brackets `t` in the trajectory's time sequence via the temporal
    /// index: `Ok(Some((lo, hi, t_lo, t_hi)))` when `t` falls inside the
    /// span, `Ok(None)` when it precedes or follows every sample.
    ///
    /// The partially decoded window (resumed mid-stream at the covering
    /// temporal tuple) is memoized in the shared cache under
    /// `(j, tuple.no)`, so repeated *where*/*range* probes near the same
    /// time stop re-paying the partial decode.
    fn bracket(
        &self,
        j: u32,
        ct: &TrajView<'_>,
        node: &TrajIndex<'_>,
        t: i64,
    ) -> Result<Option<(usize, usize, i64, i64)>, Error> {
        let Some(tt) = node.temporal_at(t) else {
            return Ok(None); // t precedes the trajectory
        };
        // Resume time decoding mid-stream until we bracket t.
        let ts = self.cds.params.default_interval;
        let remaining = (ct.n_times as u64)
            .checked_sub(1 + u64::from(tt.no))
            .ok_or(Error::CorruptStore("temporal tuple past the sample count"))?;
        let window = self
            .cache
            .window_or_decode(self.epoch, self.partition, j, tt.no, || {
                Ok(siar::decode_from(
                    ct.t_bits(),
                    tt.pos as usize,
                    tt.start,
                    ts,
                    remaining as usize,
                )?)
            })?;
        let hi_local = window.partition_point(|&x| x < t);
        if hi_local >= window.len() {
            return Ok(None); // t is past the last sample
        }
        // bounds: hi_local < window.len() checked just above
        Ok(Some(if window[hi_local] == t {
            let g = tt.no as usize + hi_local;
            (g, g, t, t)
        } else {
            if hi_local == 0 {
                // temporal_at guarantees start <= t; a window that opens
                // past t means the index tuple is inconsistent.
                return Err(Error::CorruptStore("temporal tuple opens past query time"));
            }
            let g = tt.no as usize + hi_local;
            // bounds: 0 < hi_local < window.len() established above
            (g - 1, g, window[hi_local - 1], window[hi_local])
        }))
    }

    /// Probabilistic **where** query (Definition 10) on the trajectory at
    /// position `j`, fully materialized.
    pub fn where_query(&self, j: u32, t: i64, alpha: f64) -> Result<Vec<WhereHit>, Error> {
        let (ct, node) = (self.traj(j)?, self.node(j)?);
        let Some((lo, hi, t_lo, t_hi)) = self.bracket(j, &ct, &node, t)? else {
            return Ok(Vec::new());
        };
        let mut hits = Vec::new();
        let mut local = LocalRefs::new();
        for (orig_idx, prob) in ct.plan.probs().enumerate() {
            if prob < alpha {
                continue;
            }
            let orig_idx = orig_idx as u32;
            let inst = self.decode_instance(j, &ct, orig_idx, &mut local)?;
            let loc = interpolate(self.net, &inst, lo, hi, t_lo, t_hi, t)?;
            hits.push(WhereHit {
                instance: orig_idx,
                prob,
                loc,
            });
        }
        Ok(hits)
    }

    /// Probabilistic **when** query (Definition 11) with Lemma 1
    /// filtering, on the trajectory at position `j`, fully materialized.
    pub fn when_query(
        &self,
        j: u32,
        edge: utcq_network::EdgeId,
        rd: f64,
        alpha: f64,
    ) -> Result<Vec<WhenHit>, Error> {
        let (ct, node) = (self.traj(j)?, self.node(j)?);
        if edge.idx() >= self.net.edge_count() {
            // No instance passes an edge the network does not have.
            return Ok(Vec::new());
        }
        let query_pt = self
            .net
            .point_on_edge(edge, rd * self.net.edge_length(edge));
        let cell = self.stiu.grid.cell_of(query_pt);

        // Negative cache: a recorded region miss answers without even
        // scanning the region words again.
        if self
            .cache
            .when_miss_hit(self.epoch, self.partition, j, cell.0)
        {
            return Ok(Vec::new());
        }
        if !node.groups().any(|g| g.position(cell).is_some()) {
            // No instance of this trajectory enters the query region:
            // answer without touching the compressed payload at all —
            // and remember that, so the next probe of this cell skips
            // the group scan too.
            self.cache
                .note_when_miss(self.epoch, self.partition, j, cell.0);
            return Ok(Vec::new());
        }
        let times = self.times(j, &ct)?;
        let mut hits = Vec::new();
        let mut local = LocalRefs::new();
        let mut starts = Vec::new();
        node.group_starts(&mut starts);
        let p_codec = self.cds.params.p_codec();
        for (r, group) in (0..).zip(node.groups()) {
            let Some(k) = group.position(cell) else {
                continue;
            };
            let cref = ct
                .refs
                .get(r as usize)
                .ok_or(Error::CorruptStore("region group points past refs"))?;
            let ref_p = ct.plan.prob(cref.orig_idx)?;
            if group.enters(k) && ref_p >= alpha {
                let inst = self.decode_instance(j, &ct, cref.orig_idx, &mut local)?;
                for time in utcq_traj::interp::times_at_location(self.net, &inst, &times, edge, rd)
                {
                    hits.push(WhenHit {
                        instance: cref.orig_idx,
                        prob: ref_p,
                        time,
                    });
                }
            }
            // Lemma 1: if p_max < α, none of the reference's
            // non-references can contribute — skip their decompression.
            let (_, p_max) = node.bounds(&starts, &ct, &p_codec, r, k);
            if p_max < alpha {
                continue;
            }
            for (_, cnref) in node.members(&starts, ct.nrefs, r, k) {
                let p = ct.plan.prob(cnref.orig_idx)?;
                if p < alpha {
                    continue;
                }
                let inst = self.decode_instance(j, &ct, cnref.orig_idx, &mut local)?;
                for time in utcq_traj::interp::times_at_location(self.net, &inst, &times, edge, rd)
                {
                    hits.push(WhenHit {
                        instance: cnref.orig_idx,
                        prob: p,
                        time,
                    });
                }
            }
        }
        hits.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.instance.cmp(&b.instance)));
        hits.dedup_by(|a, b| a.instance == b.instance && (a.time - b.time).abs() < 1e-9);
        Ok(hits)
    }

    /// Does the trajectory at position `j` match **range**(RE, tq, α)
    /// (Definition 12)? Applies the Lemma 2–4 filters, against the
    /// scan's scratch: every accumulation order below is a
    /// deterministic function of the trajectory's structure, so reusing
    /// the allocations across candidates cannot change an answer.
    fn range_matches_with(
        &self,
        j: u32,
        cells: &HashSet<utcq_network::CellId>,
        re: &Rect,
        tq: i64,
        alpha: f64,
        scratch: &mut RangeScratch,
    ) -> Result<bool, Error> {
        scratch.reset();
        // Most candidates are decided by their index node alone: the
        // trajectory's rows are read only once one of its cells is in RE.
        let node = self.node(j)?;
        let mut ct = None;

        // Collect per-group total bounds over the query cells.
        // Iterating the trajectory's (few) group cells against the cell
        // set keeps this O(cells) however fine the grid is. Groups
        // accumulate in reference order, each group's cells ascending,
        // so the Lemma 4 sum below adds terms in a deterministic order.
        for (r, group) in (0..).zip(node.groups()) {
            for (k, (cell, enters)) in group.cells().enumerate() {
                if !cells.contains(&cell) {
                    continue;
                }
                let (ct, p_codec) = match ct {
                    Some(found) => found,
                    None => {
                        node.group_starts(&mut scratch.starts);
                        *ct.insert((self.traj(j)?, self.cds.params.p_codec()))
                    }
                };
                let (p_total, _) = node.bounds(&scratch.starts, &ct, &p_codec, r, k);
                match scratch.group_bound.last_mut() {
                    Some((last, b)) if *last == r => *b += p_total,
                    _ => scratch.group_bound.push((r, p_total)),
                }
                if enters {
                    scratch.passing_refs.push(r);
                }
                let members = node.members(&scratch.starts, ct.nrefs, r, k);
                scratch.passing_nrefs.extend(members.map(|(m, _)| m));
            }
        }
        let Some((ct, _)) = ct else {
            return Ok(false); // trajectory never enters RE
        };
        // Lemma 4: an upper bound below α prunes the trajectory.
        let bound: f64 = scratch.group_bound.iter().map(|(_, b)| b.min(1.0)).sum();
        if bound < alpha {
            return Ok(false);
        }
        scratch.passing_refs.dedup();
        scratch.passing_nrefs.sort_unstable();
        scratch.passing_nrefs.dedup();

        // Bracket tq in the time sequence.
        let Some((lo, hi, t_lo, t_hi)) = self.bracket(j, &ct, &node, tq)? else {
            return Ok(false);
        };

        // Instances that pass RE cells, most probable first (Lemma 3
        // early accept). The plan's precomputed probability-descending
        // order replaces the per-call sort: membership is a set filter.
        for &r in &scratch.passing_refs {
            let cref = ct
                .refs
                .get(r as usize)
                .ok_or(Error::CorruptStore("region group points past refs"))?;
            scratch.passing.insert(cref.orig_idx);
        }
        for &m in &scratch.passing_nrefs {
            let cnref = ct
                .nrefs
                .get(m as usize)
                .ok_or(Error::CorruptStore("membership bit points past nrefs"))?;
            scratch.passing.insert(cnref.orig_idx);
        }
        let passing = &scratch.passing;
        let members = ct
            .plan
            .by_prob_desc()
            .filter(|(orig_idx, _)| passing.contains(orig_idx));

        let mut acc = 0.0;
        let mut remaining: f64 = members.clone().map(|(_, p)| p).sum();
        for (orig_idx, p) in members {
            if acc >= alpha {
                break; // Lemma 3: already enough probability mass
            }
            if acc + remaining < alpha {
                break; // cannot reach α anymore
            }
            remaining -= p;
            let inst = self.decode_instance(j, &ct, orig_idx, &mut scratch.local)?;
            if instance_overlaps(self.net, &inst, re, lo, hi, t_lo, t_hi, tq)? {
                acc += p;
            }
        }
        Ok(acc >= alpha)
    }
}

/// Reusable allocations of one range scan, cleared between candidates.
struct RangeScratch {
    /// The candidate node's [`TrajIndex::group_starts`].
    starts: Vec<u32>,
    /// `(ref_idx, Σ p_total)` per group touching RE, in reference order.
    group_bound: Vec<(u32, f64)>,
    passing_refs: Vec<u32>,
    passing_nrefs: Vec<u32>,
    /// Original indices of instances whose cell passes RE.
    passing: HashSet<u32>,
    local: LocalRefs,
}

impl RangeScratch {
    fn new() -> Self {
        Self {
            starts: Vec::new(),
            group_bound: Vec::new(),
            passing_refs: Vec::new(),
            passing_nrefs: Vec::new(),
            passing: HashSet::new(),
            local: LocalRefs::new(),
        }
    }

    /// Empties every collection, keeping their capacity.
    fn reset(&mut self) {
        self.group_bound.clear();
        self.passing_refs.clear();
        self.passing_nrefs.clear();
        self.passing.clear();
        self.local.clear();
    }
}

/// One **range** candidate: a trajectory the StIU temporal index places
/// in `tq`'s partition, with the store partition that owns it, its
/// position there, and its probability-mass pruning bound
/// ([`crate::plan::TrajPlan::prob_mass`]) carried inline.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RangeCandidate {
    pub id: u64,
    pub partition: u32,
    pub pos: u32,
    pub mass: f64,
}

/// The range scan (Definition 12, §5.4) — the one loop every range
/// entry point runs. `candidates` are ascending by trajectory id (ids
/// are unique across partitions, so that is a total order) and carry
/// the index of their owning engine in `partitions`; the engines share
/// one network and one StIU grid, so the query's cell set is resolved
/// once. Evaluation resumes past the keyset cursor and stops when the
/// page fills: `has_more` means more *candidates* remain — whether they
/// match is decided when the next page evaluates them — which is what
/// makes page boundaries identical however the store is partitioned.
pub(crate) fn range_scan(
    partitions: &[QueryEngine<'_>],
    candidates: &[RangeCandidate],
    re: &Rect,
    tq: i64,
    alpha: f64,
    page: PageRequest,
) -> Result<Page<u64>, Error> {
    let start = match page.cursor {
        Some(after) => candidates.partition_point(|c| c.id <= after),
        None => 0,
    };
    let limit = page.limit.max(1); // a zero limit could never progress
    let mut items = Vec::new();
    let mut has_more = false;
    let mut cells: Option<HashSet<utcq_network::CellId>> = None;
    let mut scratch = RangeScratch::new();
    // bounds: partition_point returns ≤ candidates.len()
    for c in &candidates[start..] {
        if items.len() >= limit {
            has_more = true;
            break;
        }
        // Probability-mass prune: the trajectory cannot accumulate α,
        // so skip the evaluation entirely. The candidate still occupies
        // its slot in the pagination walk — identical page boundaries
        // to evaluating and rejecting it.
        if range_pruned(c.mass, alpha) {
            continue;
        }
        let engine = partitions
            .get(c.partition as usize)
            .ok_or(Error::CorruptStore("range candidate past the partitions"))?;
        let cells = cells
            .get_or_insert_with(|| engine.stiu.grid.cells_overlapping(re).into_iter().collect());
        if engine.range_matches_with(c.pos, cells, re, tq, alpha, &mut scratch)? {
            items.push(c.id);
        }
    }
    Ok(Page {
        next_cursor: items.last().copied().filter(|_| has_more),
        items,
        has_more,
    })
}

/// Float slack for the probability-mass prune: `range_matches_with`
/// sums a subset of the plan's probabilities in Lemma 3 order while
/// [`crate::plan::TrajPlan::prob_mass`] sums all of them in original
/// order, so the two can differ by accumulated ulps near the boundary.
/// Pruning only when α exceeds the mass by more than the slack keeps
/// the skip strictly conservative.
const RANGE_PRUNE_SLACK: f64 = 1e-9;

/// Whether the probability-mass bound rules a trajectory out before any
/// decode: even if every instance overlapped RE, the accumulator could
/// never reach α. A NaN α compares `false` here, so it never prunes —
/// and never matches, identically to the unpruned path.
fn range_pruned(mass: f64, alpha: f64) -> bool {
    alpha > mass + RANGE_PRUNE_SLACK
}

/// Location of an instance at time `t ∈ [t_lo, t_hi]`, interpolating
/// between samples `lo` and `hi` at constant speed along the path.
fn interpolate(
    net: &RoadNetwork,
    inst: &Instance,
    lo: usize,
    hi: usize,
    t_lo: i64,
    t_hi: i64,
    t: i64,
) -> Result<MappedLocation, Error> {
    if lo >= inst.positions.len() || hi >= inst.positions.len() {
        return Err(Error::CorruptStore("sample index past instance positions"));
    }
    if lo == hi || t_hi == t_lo {
        return Ok(inst.location(net, lo));
    }
    // bounds: lo/hi < positions.len() checked at function entry
    let d0 = path_distance(net, &inst.path, inst.positions[lo]);
    let d1 = path_distance(net, &inst.path, inst.positions[hi]);
    let frac = (t - t_lo) as f64 / (t_hi - t_lo) as f64;
    let pos = position_at_distance(net, &inst.path, d0 + frac * (d1 - d0));
    let e = *inst
        .path
        .get(pos.path_idx as usize)
        .ok_or(Error::CorruptStore("interpolated position past the path"))?;
    Ok(MappedLocation {
        edge: e,
        ndist: pos.rd * net.edge_length(e),
    })
}

/// Does the instance overlap `re` at `tq`? Implements Lemma 2: if the
/// subpath between the bracketing samples lies entirely inside `re` the
/// answer is yes; if it never intersects `re` the answer is no; otherwise
/// the exact interpolated location decides.
#[allow(clippy::too_many_arguments)]
fn instance_overlaps(
    net: &RoadNetwork,
    inst: &Instance,
    re: &Rect,
    lo: usize,
    hi: usize,
    t_lo: i64,
    t_hi: i64,
    tq: i64,
) -> Result<bool, Error> {
    let polyline = subpath_polyline(net, inst, lo, hi)?;
    let all_inside = polyline.iter().all(|&p| re.contains(p));
    if all_inside {
        return Ok(true);
    }
    let any_intersecting = polyline
        .windows(2)
        .any(|w| re.intersects_segment(w[0], w[1])) // bounds: windows(2) yields 2-slices
        || (polyline.len() == 1 && re.contains(polyline[0])); // bounds: len() == 1 checked
    if !any_intersecting {
        return Ok(false);
    }
    // Inconclusive: interpolate the exact location.
    let loc = interpolate(net, inst, lo, hi, t_lo, t_hi, tq)?;
    Ok(re.contains(net.point_on_edge(loc.edge, loc.ndist)))
}

/// The planar polyline of the subpath between samples `lo` and `hi`.
fn subpath_polyline(
    net: &RoadNetwork,
    inst: &Instance,
    lo: usize,
    hi: usize,
) -> Result<Vec<Point>, Error> {
    let (a, b) = match (inst.positions.get(lo), inst.positions.get(hi)) {
        (Some(&a), Some(&b)) => (a, b),
        _ => return Err(Error::CorruptStore("sample index past instance positions")),
    };
    if (b.path_idx as usize) >= inst.path.len() {
        return Err(Error::CorruptStore("sample position past the path"));
    }
    let la = inst.location(net, lo);
    let lb = inst.location(net, hi);
    let mut pts = vec![net.point_on_edge(la.edge, la.ndist)];
    for j in a.path_idx..b.path_idx {
        // bounds: j < b.path_idx, validated against path.len() above
        pts.push(net.coord(net.edge_to(inst.path[j as usize])));
    }
    pts.push(net.point_on_edge(lb.edge, lb.ndist));
    Ok(pts)
}

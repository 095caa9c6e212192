//! UTCQ: Uncertain Trajectory Compression and Querying.
//!
//! The primary contribution of *"Compression of Uncertain Trajectories in
//! Road Networks"* (Li, Huang, Chen, Jensen, Pedersen — PVLDB 13(7),
//! 2020), reimplemented in full:
//!
//! * [`siar`] — Sample-Interval Adaptive Representation of time
//!   sequences with the improved (signed) Exp-Golomb code (§4.1, §4.4);
//! * [`factor`] — the referential representation of edge sequences
//!   (`(S,L,M)` factors), time-flag bit-strings (`(S,L)` with inferred
//!   mismatches) and relative distances (`(pos, rd)` patches) (§4.2);
//! * [`pivot`] / [`reference`](mod@reference) — pivot selection, the Fine-grained
//!   Jaccard Distance (Eqs. 1–2), the score function (Eq. 3) and the
//!   greedy reference-selection Algorithm 1 (§4.3);
//! * [`compressed`] / [`compress`] / [`decompress`] — binary encoding of
//!   references and non-references with PDDP-coded floats, plus the exact
//!   (modulo `ηD`/`ηp`) inverse (§4.4);
//! * [`flagarr`] — flag/original arrays and partial `T'` decompression
//!   (§5.1, Formulas 4–6);
//! * [`stiu`] — the Spatio-temporal Information based Uncertain
//!   Trajectory Index (§5.2);
//! * [`query`] — probabilistic *where*, *when* and *range* query engine
//!   with the filtering Lemmas 1–4 (§5.3–5.4), the [`query::Page`] /
//!   [`query::PageRequest`] pagination primitives, and the
//!   [`query::QueryTarget`] trait — the one declaration of the read
//!   surface, implemented once by every store shape (import it to
//!   query a concrete store), so services can stay agnostic of
//!   physical layout;
//! * [`cache`] — the shared, bounded, thread-safe decode cache
//!   ([`cache::DecodeCache`], one per store, keyed by partition and
//!   position, valid at every epoch) that memoizes decoded references,
//!   instances and time sequences across queries, with hit/miss
//!   statistics ([`cache::CacheStats`]);
//! * [`plan`] — per-trajectory query plans ([`plan::TrajPlan`]: an
//!   instance's slot, its probability, the probability order), derived
//!   from the trajectory's role bits and probability codes;
//! * [`segment`] — the in-memory form of a store: flat, append-only
//!   tables per 1,024 trajectories behind `Arc`s (the records as the
//!   container block holds them, and where each record and instance
//!   starts; [`stiu`] keeps the index half), read through
//!   borrowed views ([`segment::TrajView`]) and shared across epochs;
//! * [`snapshot`] — the immutable, epoch-stamped read state every query
//!   runs on: a [`Snapshot`] is the whole store at one epoch (its
//!   [`Partition`]s and its one id map), epoch-swapped behind one `Arc`
//!   so live ingest never blocks a reader;
//! * [`store`] — the façade: an owned, `Send + Sync` [`Store`] of N ≥ 1
//!   partitions, built incrementally through [`StoreBuilder`] and kept
//!   **live** afterwards ([`Store::ingest`] publishes new epochs
//!   concurrently with queries; [`Store::attach_wal`],
//!   [`Store::checkpoint`] and the `tail` reads make it durable — the
//!   writer lock, publish-epoch counter and WAL slot they share live in
//!   the private `live` module), persisted as one v8 container at any
//!   partition count ([`Store::open`], or [`Store::open_durable`] with a
//!   write-ahead log), queried through paginated entry points backed by
//!   the decode cache and query plans, and described by the one
//!   [`InfoReport`] both `utcq info` and the serve protocol render;
//! * [`shard`] — the routing policies ([`shard::ShardPolicy`]:
//!   time-interval or road-network-region) that
//!   [`StoreBuilder::shard_by`] places trajectories with, and the
//!   cursor rule; answers do not depend on the partitioning, which
//!   `tests/shard_equivalence.rs` asserts;
//! * [`wire`] — the serve wire protocol: hand-rolled newline-delimited
//!   JSON requests/responses (documented in `PROTOCOL.md`), with
//!   [`wire::execute`] as the single executor behind both the TCP
//!   server and the CLI's offline client mode;
//! * [`serve`] — the long-lived query server: a [`serve::Server`]
//!   built on nonblocking `epoll` readiness loops ([`poll`]), each
//!   owning its connections' state machines ([`conn`]) and executing
//!   their requests in order, with protocol pipelining and graceful
//!   shutdown, keeping the decode cache and query plans warm across
//!   requests;
//! * [`error`] — the unified [`Error`] type every public fallible
//!   function returns;
//! * [`oracle`] — brute-force answers on uncompressed data, used as
//!   ground truth for accuracy experiments (Fig. 11);
//! * [`storage`] — the binary container format (v8: a head with the
//!   routing policy and partition count, one road network, then one
//!   body per partition) for persisting compressed datasets; older
//!   versions are read only by `utcq migrate` (the `utcq_legacy` crate);
//! * [`wal`] — the write-ahead log behind [`Store::attach_wal`]: every
//!   accepted live batch is appended (CRC32-checksummed, length-prefixed)
//!   and fsynced *before* the epoch publish, replayed on open, truncated
//!   by crash-safe checkpoints, and re-served to followers through the
//!   `tail` wire op (see `docs/DURABILITY.md`).
//!
//! # Partitions
//!
//! A [`Store`] holds N ≥ 1 partitions, each a complete [`Partition`]
//! (compressed dataset, StIU index, query plans), one id map
//! (trajectory id → partition and position) and one decode cache they
//! all read through:
//!
//! | | without a policy | [`StoreBuilder::shard_by`] |
//! |---|---|---|
//! | partitions | one | N, placed by a [`shard::ShardPolicy`] |
//! | container | v8 (`UTCQ` 8), routing kind `single` | v8, the policy's routing kind |
//! | `where`/`when` | the partition the id map names | same |
//! | `range` | the partitions' candidates merged id-ascending | same |
//! | cursors | partition in the high 16 bits / keyset ids | same |
//!
//! Partitioning is invisible in answers: answers and paginated item
//! sequences are identical at every N, and with one partition a
//! where/when cursor is the plain offset (see [`shard`]).
//!
//! # Quick start
//!
//! Build a store incrementally (batches compress and index only the new
//! cohort), query it with pagination, persist it, and reopen it with no
//! side-channel arguments:
//!
//! ```
//! use std::sync::Arc;
//! use utcq_core::query::{PageRequest, QueryTarget};
//! use utcq_core::store::StoreBuilder;
//! use utcq_core::{CompressParams, Store, StiuParams};
//!
//! // Generate a small synthetic dataset (stand-in for the paper's taxi
//! // logs) and split it into two arrival batches.
//! let (net, mut ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 10, 7);
//! let mut batch_b = ds.clone();
//! batch_b.trajectories = ds.trajectories.split_off(5);
//!
//! let store = StoreBuilder::new(
//!     Arc::new(net),
//!     CompressParams::with_interval(ds.default_interval),
//! )
//! .stiu_params(StiuParams::default())
//! .ingest(&ds)?
//! .ingest(&batch_b)?
//! .finish()?;
//! assert_eq!(store.len(), 10);
//! assert!(store.ratios().total > 1.0);
//!
//! // Query the compressed form directly; answers arrive in pages.
//! let tu_id = 0;
//! let t0 = store.decode_times(tu_id)?.expect("a stored id")[0];
//! let page = store.where_query(tu_id, t0, 0.0, PageRequest::default())?;
//! assert!(!page.items.is_empty());
//!
//! // Persist as a self-contained v8 container and reopen: the network
//! // and index travel inside the file.
//! let path = std::env::temp_dir().join("utcq-quickstart.utcq");
//! store.save(&path)?;
//! let reopened = Store::open(&path)?;
//! assert_eq!(reopened.len(), store.len());
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), utcq_core::Error>(())
//! ```
//!
//! # Sharded quick start
//!
//! The same pipeline, partitioned: route trajectories across four
//! partitions by time interval, query through the identical surface,
//! and persist in the same v8 container, one body per partition:
//!
//! ```
//! use std::sync::Arc;
//! use utcq_core::query::PageRequest;
//! use utcq_core::shard::ByTime;
//! use utcq_core::store::StoreBuilder;
//! use utcq_core::{CompressParams, QueryTarget, Store};
//!
//! let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 10, 7);
//! let store = StoreBuilder::new(
//!     Arc::new(net),
//!     CompressParams::with_interval(ds.default_interval),
//! )
//! .shard_by(Arc::new(ByTime::default()), 4)?
//! .ingest(&ds)?
//! .finish()?;
//! assert_eq!(store.len(), 10);
//!
//! // The same paginated queries, with byte-identical answers.
//! let target: &dyn QueryTarget = &store;
//! let (partition, _position) = store.locate(0).expect("a stored id");
//! assert!(partition < 4);
//! let t0 = store.decode_times(0)?.expect("a stored id")[0];
//! let page = target.where_query(0, t0, 0.0, PageRequest::default())?;
//! assert!(!page.items.is_empty());
//!
//! // v8 container: the policy and one network in its head, then four
//! // partition bodies.
//! let path = std::env::temp_dir().join("utcq-sharded-quickstart.utcq");
//! store.save(&path)?;
//! let reopened = Store::open(&path)?;
//! assert_eq!(reopened.shard_count(), 4);
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), utcq_core::Error>(())
//! ```

pub mod cache;
pub mod chunk;
pub mod compress;
pub mod compressed;
pub mod conn;
pub mod decompress;
pub mod error;
pub mod factor;
pub mod flagarr;
#[doc(hidden)]
pub mod harness;
pub mod hooks;
mod live;
pub mod oracle;
mod par;
pub mod params;
pub mod pivot;
pub mod plan;
pub mod poll;
pub mod query;
pub mod reference;
pub mod segment;
pub mod serve;
pub mod shard;
pub mod siar;
pub mod snapshot;
pub mod stiu;
pub mod storage;
pub mod store;
pub mod wal;
pub mod wire;

pub use cache::{CacheStats, DEFAULT_CACHE_BYTES};
pub use compress::{compress_dataset, compress_trajectory, CompressedDataset, Ratios};
pub use decompress::{decompress_dataset, decompress_trajectory};
pub use error::Error;
#[doc(hidden)]
pub use harness::Opened;
pub use params::CompressParams;
pub use query::{Page, PageRequest, QueryTarget, RangeQuery, WhenHit, WhereHit};
pub use serve::{Server, ServerHandle};
pub use shard::{ByRegion, ByTime, ShardPolicy, ShardSpec};
pub use snapshot::{Partition, Snapshot};
pub use stiu::StiuParams;
pub use store::{InfoReport, IngestReport, Store, StoreBuilder};
pub use wal::{CheckpointReport, FsyncPolicy, WalConfig};

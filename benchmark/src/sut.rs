//! The binding surface: every call the benchmark makes into the system
//! under test lives in this file, so a later API change is absorbed in
//! one place and the rest of the benchmark never names a system item.
//! (The types re-exported below are used elsewhere through their public
//! fields and, for [`Json`], its `parse`/`get`/`as_*` accessors, with
//! which the benchmark reads `BENCHMARK.json` and its own result lines.)
//!
//! The functions are deliberately thin — they time nothing and decide
//! nothing. A system error here aborts the run (non-zero exit): the
//! workloads are chosen so that no operation fails.
//!
//! Not bound, because ROADMAP slates them for merging:
//! `wire::handle_line_writable`, `ShardedStoreBuilder` by name,
//! `Store::open_v1`, `attach_wal`. Writes go through the server.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

use utcq_bitio::pddp::PddpCodec;
use utcq_bitio::{golomb, BitBuf, BitWriter};
use utcq_core::decompress::check_lossy_roundtrip;
use utcq_core::store::StoreBuilder;
use utcq_core::wal::{Record, Wal};
use utcq_core::wire::{self, Request};
use utcq_core::{
    hooks, plan, siar, stiu, ByTime, CompressParams, FsyncPolicy, Server, ServerHandle, StiuParams,
    Store, WalConfig,
};
use utcq_datagen::{generate_network, generate_on_network, profile, GenOptions};
use utcq_network::RoadNetwork;

pub use utcq_core::compress::CompressedDataset;
pub use utcq_core::stiu::Stiu;
pub use utcq_core::wire::{Json, ParsedRequest};
pub use utcq_core::Opened;
pub use utcq_traj::{Dataset, UncertainTrajectory};

/// The WAL flush policy of `live_ingest_mixed` — the shipped default
/// (`WalConfig::new`), recorded beside every result.
pub const FSYNC_POLICY: &str = "always";

/// The profile every workload draws from: the paper's Chengdu-like
/// data (10 s interval, ~3 instances per trajectory).
pub const PROFILE: &str = "cd";

/// Seed of the trajectory corpus. Fixed, like the paper's datasets:
/// `--seed` draws arrival order and requests *from* the corpus, so
/// `compression_ratio` and `stored_bytes_per_raw_byte` repeat exactly.
/// (A corpus per seed moves the ratio by ±0.3 % at 80k trajectories —
/// three times the 0.1 % bound that makes a codec regression visible.)
pub const CORPUS_SEED: u64 = 7;

// ---------------------------------------------------------------------
// Inputs: corpus, batches, request lines.

pub struct Corpus {
    pub net: Arc<RoadNetwork>,
    pub trajs: Vec<UncertainTrajectory>,
    pub interval: i64,
}

/// Generates the road network and the first `n` corpus trajectories.
pub fn corpus(n: usize) -> Corpus {
    let p = profile::cd();
    let net = Arc::new(generate_network(&p, CORPUS_SEED));
    let ds = generate_on_network(
        &net,
        &p,
        &GenOptions {
            n_trajectories: n,
            seed: CORPUS_SEED,
            ..GenOptions::default()
        },
    );
    assert_eq!(ds.trajectories.len(), n, "datagen fell short of {n}");
    Corpus {
        net,
        trajs: ds.trajectories,
        interval: ds.default_interval,
    }
}

/// Wraps trajectories as one arrival batch.
pub fn batch(interval: i64, trajectories: Vec<UncertainTrajectory>) -> Dataset {
    Dataset {
        name: PROFILE.to_string(),
        default_interval: interval,
        trajectories,
    }
}

/// Uncompressed footprint in bytes (the paper's raw size accounting).
pub fn raw_bytes(trajs: &[UncertainTrajectory]) -> u64 {
    trajs
        .iter()
        .map(|t| utcq_traj::size::uncompressed_bits(t).total())
        .sum::<u64>()
        / 8
}

/// What a request generator needs to know about one trajectory.
pub struct Anchor {
    pub id: u64,
    pub t_first: i64,
    pub t_last: i64,
    /// Edges of the most probable instance's path.
    pub edges: Vec<u32>,
}

pub fn anchor(tu: &UncertainTrajectory) -> Anchor {
    Anchor {
        id: tu.id,
        t_first: tu.times[0],
        t_last: tu.times[tu.times.len() - 1],
        edges: tu.top_instance().path.iter().map(|e| e.0).collect(),
    }
}

/// `[min_x, min_y, max_x, max_y]` of the road network.
pub fn extent(net: &RoadNetwork) -> [f64; 4] {
    let r = net.bounding_rect();
    [r.min_x, r.min_y, r.max_x, r.max_y]
}

pub fn where_line(traj: u64, t: i64, alpha: f64) -> String {
    format!("{{\"op\":\"where\",\"traj\":{traj},\"t\":{t},\"alpha\":{alpha}}}")
}

pub fn when_line(traj: u64, edge: u32, rd: f64, alpha: f64) -> String {
    format!("{{\"op\":\"when\",\"traj\":{traj},\"edge\":{edge},\"rd\":{rd},\"alpha\":{alpha}}}")
}

pub fn range_line(rect: [f64; 4], tq: i64, alpha: f64, limit: usize) -> String {
    format!(
        "{{\"op\":\"range\",\"min_x\":{},\"min_y\":{},\"max_x\":{},\"max_y\":{},\"tq\":{tq},\"alpha\":{alpha},\"limit\":{limit}}}",
        rect[0], rect[1], rect[2], rect[3]
    )
}

/// One `ingest` request line in the shape PROTOCOL.md documents. Floats
/// print in Rust's shortest round-trip form, so the server rebuilds the
/// trajectories bit for bit.
pub fn ingest_line(trajs: &[UncertainTrajectory]) -> String {
    let mut out = String::with_capacity(trajs.len() * 4096);
    out.push_str("{\"op\":\"ingest\",\"trajectories\":[");
    for (i, tu) in trajs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"id\":{},\"times\":[", tu.id);
        for (j, t) in tu.times.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{t}");
        }
        out.push_str("],\"instances\":[");
        for (w, inst) in tu.instances.iter().enumerate() {
            if w > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"prob\":{},\"path\":[", inst.prob);
            for (j, e) in inst.path.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", e.0);
            }
            out.push_str("],\"positions\":[");
            for (j, p) in inst.positions.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{}]", p.path_idx, p.rd);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// The reply PROTOCOL.md promises for an accepted `ingest`.
pub fn ingest_ack(ingested: usize, total: usize, epoch: u64) -> String {
    format!(
        "{{\"ok\":true,\"op\":\"ingest\",\"ingested\":{ingested},\"total\":{total},\"epoch\":{epoch}}}"
    )
}

// ---------------------------------------------------------------------
// store / builder / storage.

fn params(interval: i64) -> CompressParams {
    CompressParams::with_interval(interval)
}

pub fn builder(c: &Corpus) -> StoreBuilder {
    StoreBuilder::new(Arc::clone(&c.net), params(c.interval))
}

pub fn builder_ingest(b: StoreBuilder, batch: &Dataset) -> StoreBuilder {
    b.ingest(batch).expect("StoreBuilder::ingest")
}

pub fn builder_finish(b: StoreBuilder) -> Store {
    b.finish().expect("StoreBuilder::finish")
}

/// Offline single-store build with a decode-cache budget.
pub fn build_single<'a>(
    c: &Corpus,
    batches: impl IntoIterator<Item = &'a Dataset>,
    cache_bytes: usize,
) -> Store {
    let mut b = builder(c).cache_bytes(cache_bytes);
    for batch in batches {
        b = builder_ingest(b, batch);
    }
    builder_finish(b)
}

/// Offline sharded build (`ByTime`, hour buckets) saved as a v3
/// container at `path`; `cache_bytes` is the total across shards.
pub fn build_sharded_to<'a>(
    c: &Corpus,
    batches: impl IntoIterator<Item = &'a Dataset>,
    shards: u32,
    cache_bytes: usize,
    path: &Path,
) {
    let mut b = builder(c)
        .cache_bytes(cache_bytes)
        .shard_by(Arc::new(ByTime::default()), shards)
        .expect("StoreBuilder::shard_by");
    for batch in batches {
        b = b.ingest(batch).expect("sharded ingest");
    }
    let store = b.finish().expect("sharded finish");
    store.save(path).expect("ShardedStore::save");
}

/// The v2 container bytes of a single store.
pub fn store_bytes(store: &Store) -> Vec<u8> {
    let mut out = Vec::new();
    store.write(&mut out).expect("Store::write");
    out
}

pub fn store_save(store: &Store, path: &Path) {
    store.save(path).expect("Store::save");
}

/// Container bytes of a live single-store handle (v2).
pub fn opened_bytes(opened: &Opened) -> Vec<u8> {
    match opened {
        Opened::Single(s) => store_bytes(s),
        Opened::Sharded(_) => panic!("opened_bytes: single-store containers only"),
    }
}

pub fn open(path: &Path) -> Opened {
    Opened::open(path).expect("Opened::open")
}

/// Opens `path` with a write-ahead log at `wal` (fsync `Always`),
/// replaying whatever the log holds.
pub fn open_durable(path: &Path, wal: &Path) -> Opened {
    let cfg = WalConfig::new(wal).fsync(FsyncPolicy::Always);
    Opened::open_durable(path, cfg).expect("Opened::open_durable")
}

pub fn len(opened: &Opened) -> usize {
    opened.target().len()
}

/// `ratios().total` of everything the handle holds (paper Table 8).
pub fn compression_ratio(opened: &Opened) -> f64 {
    opened.info().ratio
}

/// Publishes one batch into a live handle (no server, no WAL unless the
/// handle was opened durable); returns the epoch.
pub fn ingest(opened: &Opened, batch: &Dataset) -> u64 {
    opened.ingest(batch).expect("Opened::ingest").epoch
}

/// Copy-on-write bytes recorded since process start (an exact count).
pub fn copied_bytes() -> u64 {
    hooks::copied_bytes()
}

#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub bytes: u64,
}

impl CacheCounters {
    pub fn since(self, earlier: CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            bytes: self.bytes,
        }
    }

    pub fn hit_rate(self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

pub fn cache_counters(opened: &Opened) -> CacheCounters {
    let s = opened.target().cache_stats();
    CacheCounters {
        hits: s.hits,
        misses: s.misses,
        evictions: s.evictions,
        bytes: s.bytes as u64,
    }
}

pub fn set_cache_bytes(opened: &Opened, bytes: usize) {
    opened.target().set_cache_bytes(bytes);
}

pub fn clear_cache(opened: &Opened) {
    opened.target().clear_cache();
}

// ---------------------------------------------------------------------
// compress / decompress / stiu / plan, called as bare layers.

pub fn compress_dataset(net: &RoadNetwork, ds: &Dataset) -> CompressedDataset {
    utcq_core::compress_dataset(net, ds, &params(ds.default_interval)).expect("compress_dataset")
}

pub fn compressed_bits(cds: &CompressedDataset) -> u64 {
    cds.compressed.total()
}

pub fn decompress_dataset(net: &RoadNetwork, cds: &CompressedDataset) -> Dataset {
    utcq_core::decompress_dataset(net, cds).expect("decompress_dataset")
}

/// Decompresses everything a reopened container holds, in stored order.
pub fn decompress_opened(opened: &Opened) -> Vec<UncertainTrajectory> {
    let net = Arc::clone(opened.target().network());
    let mut out = Vec::with_capacity(len(opened));
    for snap in opened.snapshots() {
        out.extend(decompress_dataset(&net, snap.compressed()).trajectories);
    }
    out
}

/// Trajectories of `back` that are not `original` up to the configured
/// PDDP error bounds (the codec's only lossy step); a missing or extra
/// trajectory counts too.
pub fn roundtrip_violations<'a>(
    original: impl Iterator<Item = &'a UncertainTrajectory>,
    back: &[UncertainTrajectory],
) -> u64 {
    let p = CompressParams::default();
    let mut back = back.iter();
    let mut bad = 0u64;
    for a in original {
        let same = back
            .next()
            .is_some_and(|b| a.id == b.id && check_lossy_roundtrip(a, b, p.eta_d, p.eta_p).is_ok());
        bad += u64::from(!same);
    }
    bad + back.count() as u64
}

pub fn stiu_build(net: &RoadNetwork, ds: &Dataset, cds: &CompressedDataset) -> Stiu {
    stiu::build(net, ds, cds, StiuParams::default())
}

/// Index size in bytes by the paper's Fig. 9 field widths.
pub fn stiu_bytes(index: &Stiu, cds: &CompressedDataset) -> u64 {
    let (s, t) = index.size_bits(cds.params.p_codec().width());
    (s + t) / 8
}

/// Builds every trajectory's query plan; returns how many.
pub fn build_plans(cds: &CompressedDataset) -> usize {
    plan::build_plans(&cds.trajectories, &cds.params.p_codec())
        .expect("build_plans")
        .len()
}

// ---------------------------------------------------------------------
// bitio codecs and SIAR, per value.

pub fn golomb_encode(values: &[i64]) -> BitBuf {
    let mut w = BitWriter::new();
    for &v in values {
        golomb::encode_deviation(&mut w, v).expect("golomb encode");
    }
    w.finish()
}

pub fn golomb_decode(buf: &BitBuf, n: usize) -> i64 {
    let mut r = buf.reader();
    let mut sum = 0i64;
    for _ in 0..n {
        sum = sum.wrapping_add(golomb::decode_deviation(&mut r).expect("golomb decode"));
    }
    sum
}

fn d_codec() -> PddpCodec {
    CompressParams::default().d_codec()
}

pub fn pddp_encode(values: &[f64]) -> BitBuf {
    let codec = d_codec();
    let mut w = BitWriter::new();
    for &v in values {
        codec.encode(&mut w, v).expect("pddp encode");
    }
    w.finish()
}

pub fn pddp_decode(buf: &BitBuf, n: usize) -> f64 {
    let codec = d_codec();
    let mut r = buf.reader();
    let mut sum = 0.0;
    for _ in 0..n {
        sum += codec.decode(&mut r).expect("pddp decode");
    }
    sum
}

pub fn write_bits(values: &[u64], width: u32) -> BitBuf {
    let mut w = BitWriter::new();
    for &v in values {
        w.write_bits(v, width).expect("write_bits");
    }
    w.finish()
}

pub fn read_bits(buf: &BitBuf, n: usize, width: u32) -> u64 {
    let mut r = buf.reader();
    let mut sum = 0u64;
    for _ in 0..n {
        sum = sum.wrapping_add(r.read_bits(width).expect("read_bits"));
    }
    sum
}

pub fn siar_encode(times: &[i64], interval: i64) -> BitBuf {
    siar::encode(times, interval).expect("siar encode")
}

pub fn siar_decode(buf: &BitBuf, n: usize, interval: i64) -> Vec<i64> {
    siar::decode(buf, n, interval).expect("siar decode")
}

// ---------------------------------------------------------------------
// wire, in process.

pub fn parse_request(line: &str) -> ParsedRequest {
    wire::parse_request(line).expect("parse_request")
}

/// The direct `QueryTarget` call behind a parsed point/range request;
/// returns the number of items in the answer page.
pub fn execute(opened: &Opened, parsed: &ParsedRequest) -> usize {
    let target = opened.target();
    match &parsed.request {
        Request::Where {
            traj,
            t,
            alpha,
            page,
        } => items(target.where_query(*traj, *t, *alpha, *page)),
        Request::When {
            traj,
            edge,
            rd,
            alpha,
            page,
        } => items(target.when_query(*traj, *edge, *rd, *alpha, *page)),
        Request::Range {
            re,
            tq,
            alpha,
            page,
        } => items(target.range_query(re, *tq, *alpha, *page)),
        other => panic!("execute: not a query request: {other:?}"),
    }
}

fn items<T>(page: Result<utcq_core::Page<T>, utcq_core::Error>) -> usize {
    page.expect("query").items.len()
}

/// Number of ingest trajectories a parsed `ingest` line carries.
#[cfg(test)]
pub fn parsed_ingest_len(parsed: &ParsedRequest) -> usize {
    match &parsed.request {
        Request::Ingest { trajectories, .. } => trajectories.len(),
        other => panic!("not an ingest request: {other:?}"),
    }
}

/// The read-only executor: the reply line for `line`.
pub fn handle_line(opened: &Opened, line: &str) -> String {
    wire::handle_line(opened, line).line
}

pub fn json_parse(text: &str) -> Json {
    Json::parse(text).expect("Json::parse")
}

pub fn json_write(value: &Json, out: &mut String) {
    value.write(out);
}

// ---------------------------------------------------------------------
// serve.

/// A server running on its own thread over an ephemeral loopback port.
pub struct Served {
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<()>,
}

pub fn serve(opened: Arc<Opened>, workers: usize, writable: bool) -> Served {
    let server = Server::bind(opened, "127.0.0.1:0", workers)
        .expect("Server::bind")
        .writable(writable);
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("Server::run"));
    Served {
        addr,
        handle,
        thread,
    }
}

impl Served {
    /// Graceful shutdown; returns once every worker has drained.
    pub fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("server thread");
    }
}

// ---------------------------------------------------------------------
// wal, as a bare layer.

pub type WalRecord = Record;

pub fn wal_record(epoch: u64, batch: &Dataset) -> WalRecord {
    Record {
        epoch,
        name: batch.name.clone(),
        default_interval: batch.default_interval,
        trajectories: batch.trajectories.clone(),
    }
}

pub struct WalFile(Wal);

/// Opens (creating if absent) the log at `path`; returns the handle and
/// how many trajectories its existing records replayed.
pub fn wal_open(path: &Path, fsync_always: bool) -> (WalFile, usize) {
    let policy = if fsync_always {
        FsyncPolicy::Always
    } else {
        FsyncPolicy::Never
    };
    let (wal, records) = Wal::open(&WalConfig::new(path).fsync(policy)).expect("Wal::open");
    let replayed = records.iter().map(|r| r.trajectories.len()).sum();
    (WalFile(wal), replayed)
}

impl WalFile {
    pub fn append(&mut self, rec: &WalRecord) {
        self.0.append(rec).expect("Wal::append");
    }
}

//! `live_ingest_mixed`: durable writes beside reads.
//!
//! Every pass reopens the same 20k-trajectory base container with a
//! fresh write-ahead log (fsync `Always`, the shipped default) behind a
//! writable two-worker server. Connection A sends 400 `ingest` lines of
//! 32 trajectories back to back; connection B does depth-1 point reads
//! for as long as A runs. The layers of `serve_point_hot` work
//! differently here: `wire` parses ~100 KB lines, every publish bumps
//! the epoch under the cache, `store`/`chunk` copy on write and `wal`
//! appends and fsyncs beside the readers.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use super::{exchanges, replay_chain, Measured, MIB};
use crate::client::{self, Conn, Exchange};
use crate::method::{self, timed, Config, Pass};
use crate::report::Outcome;
use crate::trace::{Trace, NONE};
use crate::{inputs, stats, sut};

/// Trajectories per `ingest` line (~100 KB, under the 1 MiB line cap).
pub const INGEST_BATCH: usize = 32;
const WORKERS: usize = 2;

/// One newline-terminated `ingest` request line per batch.
pub fn ingest_requests(batches: &[sut::Dataset]) -> Vec<Vec<u8>> {
    batches
        .iter()
        .map(|b| {
            let mut line = sut::ingest_line(&b.trajectories).into_bytes();
            line.push(b'\n');
            line
        })
        .collect()
}

/// The fixed work of one pass, shared with the layer probes.
pub struct LiveInputs<'a> {
    pub base_path: &'a Path,
    pub base_len: usize,
    /// Newline-terminated `ingest` request lines.
    pub ingest_lines: &'a [Vec<u8>],
    /// Point reads on base trajectories with their expected replies.
    pub reads: &'a [Exchange],
    pub read_order: &'a [u32],
}

pub struct LivePass {
    pub opened: Arc<sut::Opened>,
    pub secs: f64,
    pub cpu_secs: f64,
    pub ack_us: Vec<f64>,
    pub read_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Decode-cache activity while the ingest ran.
    pub cache: sut::CacheCounters,
}

/// Opens the base durably with a fresh log at `wal`, serves it
/// writable, and runs writer A against reader B.
pub fn ingest_pass(inp: &LiveInputs<'_>, wal: &Path, trace: &mut Trace, number: u32) -> LivePass {
    let _ = std::fs::remove_file(wal);
    let opened = Arc::new(sut::open_durable(inp.base_path, wal));
    sut::set_cache_bytes(&opened, 64 * MIB);
    let server = sut::serve(Arc::clone(&opened), WORKERS, true);
    let addr = server.addr;
    let stop = AtomicBool::new(false);
    let cache_before = sut::cache_counters(&opened);
    let root = trace.begin("pass", number, NONE);
    let mut ack_us = Vec::with_capacity(inp.ingest_lines.len());
    let mut failed = 0u64;
    let mut reader_trace = Trace::new(trace.origin(), if trace.is_on() { 1 << 17 } else { 0 });
    reader_trace.set_on(trace.is_on());
    let (reader_out, secs, cpu_secs) = std::thread::scope(|s| {
        let stop = &stop;
        let reader = s.spawn(move || {
            let mut conn = Conn::connect(addr);
            let mut read_us = Vec::with_capacity(1 << 17);
            let failed = client::run_depth1_until(
                &mut conn,
                inp.reads,
                inp.read_order,
                stop,
                &mut read_us,
                &mut reader_trace,
            );
            (failed, read_us, reader_trace)
        });
        let mut conn = Conn::connect(addr);
        let ((), secs, cpu_secs) = timed(|| {
            for (k, line) in inp.ingest_lines.iter().enumerate() {
                let t = Instant::now();
                let span = trace.begin("ingest.ack", k as u32, root);
                conn.send(line);
                let epoch = k as u64 + 1;
                let total = inp.base_len + INGEST_BATCH * (k + 1);
                let ack = sut::ingest_ack(INGEST_BATCH, total, epoch);
                failed += u64::from(conn.recv_line() != ack.as_bytes());
                trace.end(span);
                ack_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        });
        stop.store(true, Ordering::Release);
        (reader.join().expect("reader thread"), secs, cpu_secs)
    });
    let cache = sut::cache_counters(&opened).since(cache_before);
    server.stop();
    let (read_failed, read_us, reader_trace) = reader_out;
    trace.absorb(reader_trace, root);
    trace.end(root);
    LivePass {
        opened,
        secs,
        cpu_secs,
        attempted: (inp.ingest_lines.len() * INGEST_BATCH + read_us.len()) as u64,
        failed: failed * INGEST_BATCH as u64 + read_failed,
        ack_us,
        read_us,
        cache,
    }
}

struct Setup {
    corpus: sut::Corpus,
    /// The stored base, in batches of 1,000.
    base: Vec<sut::Dataset>,
    /// What arrives over the wire, in batches of [`INGEST_BATCH`].
    arriving: Vec<sut::Dataset>,
    ingest_lines: Vec<Vec<u8>>,
    read_lines: Vec<String>,
}

pub fn run(cfg: &Config, trace: &mut Trace) -> Outcome {
    let base_n = cfg.size(20_000, 1_500);
    let n_lines = cfg.size(400, 12);
    let base_path = cfg.scratch_file("live-base.utcq");
    let (s, setup_secs) = method::repeat_setup(cfg.setup_reps(5), || {
        // Which trajectories are stored and which arrive is fixed (so
        // the log's bytes repeat under every seed); the seed orders both.
        let mut corpus = sut::corpus(base_n + n_lines * INGEST_BATCH);
        let mut trajs = std::mem::take(&mut corpus.trajs);
        let mut arriving = trajs.split_off(base_n);
        inputs::shuffle(&mut trajs, &mut inputs::rng(cfg.seed, "arrival.base"));
        inputs::shuffle(&mut arriving, &mut inputs::rng(cfg.seed, "arrival.live"));
        let base = inputs::into_batches(trajs, corpus.interval, 1_000);
        let arriving = inputs::into_batches(arriving, corpus.interval, INGEST_BATCH);
        let store = sut::build_single(&corpus, &base, 64 * MIB);
        sut::store_save(&store, &base_path);
        drop(store);
        let ingest_lines = ingest_requests(&arriving);
        let pool: Vec<&sut::UncertainTrajectory> = inputs::trajectories(&base).collect();
        let read_lines = inputs::point_lines(
            &pool,
            cfg.size(1_024, 128),
            cfg.size(4_096, 512),
            &mut inputs::rng(cfg.seed, "points"),
        );
        Setup {
            corpus,
            base,
            arriving,
            ingest_lines,
            read_lines,
        }
    });
    let all_batches = || s.base.iter().chain(&s.arriving);
    let inputs_sha = inputs::sha(all_batches(), &[&s.read_lines]);
    let raw_bytes = super::raw_bytes(all_batches());
    let total_len = base_n + n_lines * INGEST_BATCH;

    // What the live store must serialize to after the last ack: an
    // offline build of the same batches in the same order.
    let offline_bytes = sut::store_bytes(&sut::build_single(&s.corpus, all_batches(), 0));
    let reads = exchanges(&sut::open(&base_path), &s.read_lines);
    let read_order = inputs::draw(
        reads.len(),
        cfg.size(1 << 16, 1 << 10),
        &mut inputs::rng(cfg.seed, "order.reads"),
    );
    let live_inputs = LiveInputs {
        base_path: &base_path,
        base_len: base_n,
        ingest_lines: &s.ingest_lines,
        reads: &reads,
        read_order: &read_order,
    };

    let wal = cfg.scratch_file("live.wal");
    let mut last: Option<LivePass> = None;
    let mut cache = sut::CacheCounters::default();
    let mut cache_ops = 0.0;
    let mut open_rates = Vec::new();
    let base_bytes = method::file_len(&base_path);
    let phase = method::run_passes(cfg, |number, traced| {
        drop(last.take());
        trace.set_on(traced);
        let mut p = ingest_pass(&live_inputs, &wal, trace, number);
        trace.set_on(false);
        // Output checks: every trajectory arrived and the live store is
        // byte-identical to the offline build.
        let intact =
            sut::len(&p.opened) == total_len && sut::opened_bytes(&p.opened) == offline_bytes;
        // Recovery: the base container plus this pass's log must
        // restore every acked trajectory.
        let replay_bytes = base_bytes + method::file_len(&wal);
        let (recovered, rate) =
            method::open_rates(replay_bytes, 1, || sut::open_durable(&base_path, &wal));
        if number > 0 && !traced {
            open_rates.extend(rate);
        }
        let restored = sut::len(&recovered) == total_len;
        drop(recovered);
        if number > 0 {
            cache.hits += p.cache.hits;
            cache.misses += p.cache.misses;
            cache.evictions += p.cache.evictions;
            cache.bytes = p.cache.bytes;
            cache_ops += p.read_us.len() as f64;
        }
        let pass = Pass {
            secs: p.secs,
            cpu_secs: p.cpu_secs,
            latency_p50_us: stats::percentile(&mut p.read_us, 0.5),
            latency_samples: p.read_us.len(),
            attempted: p.attempted + 2,
            failed: p.failed + u64::from(!intact) + u64::from(!restored),
        };
        last = Some(p);
        pass
    });
    let last = last.expect("at least the warm-up pass ran");
    let compression_ratio = sut::compression_ratio(&last.opened);
    if cfg.trace {
        let replay: Vec<&str> = s.read_lines.iter().map(String::as_str).collect();
        replay_chain(&last.opened, &replay, false, trace, &[]);
    }
    drop(last);

    let stored_bytes = offline_bytes.len() as u64 + method::file_len(&wal);

    let passes = phase.passes.len();
    Measured {
        workload: "live_ingest_mixed",
        setup_secs,
        ops_per_pass: (n_lines * INGEST_BATCH) as f64,
        open_rates,
        compression_ratio,
        stored_bytes,
        raw_bytes,
        cache,
        cache_ops,
        check_additivity: false,
        context: vec![
            ("inputs_sha256", inputs_sha),
            ("base_trajectories", base_n.to_string()),
            ("ingest_lines", n_lines.to_string()),
            ("trajectories_per_line", INGEST_BATCH.to_string()),
            ("server_workers", WORKERS.to_string()),
            ("wal_bytes", method::file_len(&wal).to_string()),
            (
                "latency_sample",
                "depth-1 read round trip while ingest runs".into(),
            ),
            ("passes", passes.to_string()),
        ],
        phase,
    }
    .report(cfg, trace)
}

//! Offline query-latency harness emitting a machine-readable
//! `BENCH_queries.json`, so successive PRs leave a perf trajectory.
//!
//! Measures the **median** ns/op for the three probabilistic query types
//! in three cache modes on one shared [`utcq_core::Store`]:
//!
//! * **cold** — the decode cache is cleared before every pass: each pass
//!   re-pays every reference/instance/time-stream decode;
//! * **warm** — the cache keeps the workload's decoded working set (the
//!   steady state of a serving process);
//! * **nocache** — the cache budget is set to `0`: the pure overhead
//!   floor with no memoization at all.
//!
//! A second section runs the same warm workload on a
//! [`utcq_core::ShardedStore`]
//! (`UTCQ_SHARDS` partitions, default 4, `ByTime` routing) and compares
//! `par_range_query` throughput 1-shard vs N-shard, so the JSON tracks
//! what the sharding layer costs (fan-out/merge) and buys (independent
//! partitions) release over release.
//!
//! An `"open"` section times `ShardedStore::read_with` on the same v3
//! container bytes with sequential vs parallel per-shard blob
//! deserialization (interleaved), tracking what the work-queue open
//! buys release over release. Since tiny containers fall back to a
//! sequential open regardless of the flag (see
//! `utcq_core::shard::PARALLEL_OPEN_MIN_BYTES`), the section also
//! reports `"parallel_effective"` — which path actually ran. A paired
//! `"open_large"` section repeats the measurement on a container of
//! cheap trajectories sized *past* the threshold, so both the
//! sequential fallback and the real parallel open are exercised every
//! run.
//!
//! An `"ingest"` section times the live writer path — median ns per
//! published batch with durability off, a write-ahead log at
//! `FsyncPolicy::EveryN(8)`, and at `FsyncPolicy::Always` — tracking
//! what the log's append+sync window costs release over release.
//!
//! A third section (`"serve"` — bench_serve) round-trips the warm
//! where/when workloads through an in-process
//! `utcq_core::serve::Server` over one loopback TCP connection,
//! measuring the request→response median latency and throughput of the
//! `PROTOCOL.md` wire path on top of the warm store.
//!
//! A `"serve_load"` section measures the production-concurrency path:
//! single-connection **pipelined** throughput ([`PIPELINE_DEPTH`]
//! requests in flight before the first response is read), and an
//! **open-loop** traffic replay — [`LOAD_CONNS`] connections offering a
//! fixed aggregate rate on an absolute schedule (never throttled by
//! response latency, so server-side queueing shows up as client-observed
//! latency) while [`LOAD_IDLE_CONNS`] additional connections sit idle —
//! reporting achieved qps and p50/p99/p999 latency.
//! `UTCQ_BENCH_LOAD_QPS` overrides the offered rate;
//! `UTCQ_BENCH_P99_BOUND_MS`, when set, turns the measured p99 into a
//! CI gate (non-zero exit past the bound).
//!
//! ```text
//! cargo run --release -p utcq_bench --bin bench_queries \
//!     [-- --smoke] [--out FILE] [--baseline FILE]
//! ```
//!
//! `--smoke` (or `UTCQ_BENCH_SMOKE=1`) runs one pass per mode — the CI
//! mode that only proves the harness works. `UTCQ_TRAJS` scales the
//! dataset (default 80 trajectories); `UTCQ_SHARDS` the shard count.
//!
//! `--baseline FILE` diffs the freshly measured warm where/when medians
//! against a previously committed `BENCH_queries.json` and exits
//! non-zero on a > [`REGRESSION_FACTOR`]× regression — the CI gate that
//! keeps the perf trajectory monotone-ish.
//!
//! Two absolute gates cover the range overhaul:
//! `UTCQ_BENCH_RANGE_WARM_BOUND` (ns/op ceiling on the warm range
//! median — the range-result cache must keep carrying the warm path)
//! and `UTCQ_BENCH_PAR_RANGE_RATIO_BOUND` (floor on
//! `nshard_over_1shard` — the sharded batch engine must keep beating
//! the per-query path).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use utcq_bench::{datasets, workload};
use utcq_core::query::PageRequest;
use utcq_core::shard::ByTime;
use utcq_core::stiu::StiuParams;
use utcq_core::{LiveStore, Opened, QueryTarget, RangeQuery, ShardedStore, Store, StoreBuilder};

const SEED: u64 = 3000;

/// A fresh measurement must stay within this factor of the baseline's
/// warm where/when medians. The committed baseline carries absolute
/// ns/op from whatever machine produced it, so the factor doubles as
/// hardware headroom; `UTCQ_BENCH_BASELINE_FACTOR` overrides it when a
/// CI runner class is persistently slower than the baseline machine.
const REGRESSION_FACTOR: f64 = 2.0;

fn regression_factor() -> f64 {
    std::env::var("UTCQ_BENCH_BASELINE_FACTOR")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(REGRESSION_FACTOR)
}

struct ModeResult {
    cold_ns: f64,
    warm_ns: f64,
    nocache_ns: f64,
}

impl ModeResult {
    fn warm_speedup(&self) -> f64 {
        if self.warm_ns > 0.0 {
            self.cold_ns / self.warm_ns
        } else {
            0.0
        }
    }
}

/// Smoke mode still takes this many samples per mode: the regression
/// gate compares medians, and a median of one sample would reintroduce
/// exactly the single-deschedule flakiness the median exists to absorb.
const SMOKE_PASSES: usize = 7;

/// Median of a sample set (ns/op). The one definition both [`measure`]
/// and [`measure_pair`] — and therefore the CI regression gate — use.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Median ns/op of `pass` (which runs `ops` queries), measured over
/// enough passes to fill the target time (a fixed handful in smoke
/// mode). `prepare` runs before *each* pass, outside the timed region.
/// The median (not the mean) is what the regression gate compares: one
/// descheduled pass must not fail CI.
fn measure(ops: usize, smoke: bool, mut prepare: impl FnMut(), mut pass: impl FnMut()) -> f64 {
    let target = if smoke {
        Duration::ZERO // sample count governed by SMOKE_PASSES instead
    } else {
        Duration::from_millis(400)
    };
    // Untimed warmup pass: page in code and (for warm modes) the cache.
    prepare();
    pass();
    let mut spent = Duration::ZERO;
    let mut samples: Vec<f64> = Vec::new();
    loop {
        prepare();
        let t0 = Instant::now();
        pass();
        let dt = t0.elapsed();
        spent += dt;
        samples.push(dt.as_nanos() as f64 / ops as f64);
        if (spent >= target && samples.len() >= SMOKE_PASSES) || samples.len() >= 50_000 {
            break;
        }
    }
    median(samples)
}

/// Median ns/op of two alternatives measured **interleaved** (A, B, A,
/// B, …): slow drift of the host (frequency scaling, noisy neighbors)
/// hits both sample sets equally, so their *ratio* stays meaningful
/// even when absolute numbers wander between runs.
fn measure_pair(
    ops: usize,
    smoke: bool,
    mut pass_a: impl FnMut(),
    mut pass_b: impl FnMut(),
) -> (f64, f64) {
    let target = if smoke {
        Duration::ZERO
    } else {
        Duration::from_millis(800)
    };
    pass_a();
    pass_b(); // untimed warmup
    let mut spent = Duration::ZERO;
    let mut samples_a: Vec<f64> = Vec::new();
    let mut samples_b: Vec<f64> = Vec::new();
    loop {
        let t0 = Instant::now();
        pass_a();
        let da = t0.elapsed();
        let t1 = Instant::now();
        pass_b();
        let db = t1.elapsed();
        spent += da + db;
        samples_a.push(da.as_nanos() as f64 / ops as f64);
        samples_b.push(db.as_nanos() as f64 / ops as f64);
        if (spent >= target && samples_a.len() >= SMOKE_PASSES) || samples_a.len() >= 50_000 {
            break;
        }
    }
    (median(samples_a), median(samples_b))
}

/// Requests written per flush before reading responses back on the
/// pipelined single-connection measurement.
const PIPELINE_DEPTH: usize = 64;

/// Active (request-sending) connections in the open-loop replay.
const LOAD_CONNS: usize = 16;

/// Additional connections held open but silent for the whole replay —
/// the event loop must keep them for free.
const LOAD_IDLE_CONNS: usize = 64;

/// One request→response per flush: the sequential wire round-trip.
fn serve_roundtrip(
    reader: &mut impl std::io::BufRead,
    writer: &mut impl std::io::Write,
    lines: &[String],
) {
    let mut response = String::new();
    for line in lines {
        writer.write_all(line.as_bytes()).expect("serve send");
        writer.write_all(b"\n").expect("serve send");
        writer.flush().expect("serve flush");
        response.clear();
        reader.read_line(&mut response).expect("serve recv");
        assert!(response.contains("\"ok\":true"), "serve error: {response}");
    }
}

/// `depth` requests per flush, responses read back afterwards — the
/// protocol-pipelining path (`PROTOCOL.md`: responses arrive in request
/// order, so a plain counted read-back is enough).
fn serve_pipelined(
    reader: &mut impl std::io::BufRead,
    writer: &mut impl std::io::Write,
    lines: &[String],
    depth: usize,
) {
    let mut response = String::new();
    for chunk in lines.chunks(depth) {
        for line in chunk {
            writer.write_all(line.as_bytes()).expect("serve send");
            writer.write_all(b"\n").expect("serve send");
        }
        writer.flush().expect("serve flush");
        for _ in chunk {
            response.clear();
            reader.read_line(&mut response).expect("serve recv");
            assert!(response.contains("\"ok\":true"), "serve error: {response}");
        }
    }
}

struct LoadReport {
    target_qps: f64,
    achieved_qps: f64,
    sent: usize,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
}

/// Open-loop traffic replay against a running server.
///
/// `conns` writer threads each offer `target_qps / conns` on an
/// **absolute** schedule (requests due at `start + i/rate`, sent in
/// catch-up batches on a ~1 ms tick, self-correcting for sleep
/// overshoot) and never wait for responses — so when the server falls
/// behind, the offered rate stays fixed and the backlog surfaces as
/// client-observed latency, exactly what a closed-loop harness hides.
/// A paired reader thread per connection timestamps responses against
/// the matching send time (responses are in request order). `idle`
/// extra connections stay open and silent throughout. Returns achieved
/// throughput plus p50/p99/p999 of the per-request latency.
fn open_loop_load(
    addr: std::net::SocketAddr,
    lines: &[String],
    conns: usize,
    idle: usize,
    target_qps: f64,
    duration: Duration,
) -> LoadReport {
    use std::collections::VecDeque;
    use std::io::{BufRead as _, BufReader, BufWriter, Write as _};
    use std::net::{Shutdown, TcpStream};
    use std::sync::Mutex;

    let idle_conns: Vec<TcpStream> = (0..idle)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();
    let per_conn_qps = target_qps / conns as f64;
    let start = Instant::now();
    let mut latencies_us: Vec<f64> = Vec::new();
    let mut sent_total = 0usize;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for c in 0..conns {
            handles.push(s.spawn(move || {
                let stream = TcpStream::connect(addr).expect("load connect");
                stream.set_nodelay(true).ok();
                let reader_stream = stream.try_clone().expect("clone load stream");
                // Send timestamps, popped in order by the reader —
                // valid because responses arrive in request order.
                let pending: Mutex<VecDeque<Instant>> = Mutex::new(VecDeque::new());
                let mut sent = 0usize;
                let mut lat_us: Vec<f64> = Vec::new();
                std::thread::scope(|s2| {
                    let pending = &pending;
                    let reader_handle = s2.spawn(move || {
                        let mut reader = BufReader::new(reader_stream);
                        let mut line = String::new();
                        let mut lat: Vec<f64> = Vec::new();
                        loop {
                            line.clear();
                            match reader.read_line(&mut line) {
                                Ok(0) => break, // server closed after our half-close
                                Ok(_) => {
                                    let ts = pending
                                        .lock()
                                        .unwrap()
                                        .pop_front()
                                        .expect("response without request");
                                    lat.push(ts.elapsed().as_secs_f64() * 1e6);
                                    assert!(line.contains("\"ok\":true"), "load error: {line}");
                                }
                                Err(e) => panic!("load recv: {e}"),
                            }
                        }
                        lat
                    });
                    let mut writer = BufWriter::new(&stream);
                    loop {
                        let elapsed = start.elapsed();
                        if elapsed >= duration {
                            break;
                        }
                        let due = (elapsed.as_secs_f64() * per_conn_qps) as usize;
                        let mut wrote = false;
                        while sent < due {
                            let line = &lines[(sent * conns + c) % lines.len()];
                            pending.lock().unwrap().push_back(Instant::now());
                            writer.write_all(line.as_bytes()).expect("load send");
                            writer.write_all(b"\n").expect("load send");
                            sent += 1;
                            wrote = true;
                        }
                        if wrote {
                            writer.flush().expect("load flush");
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    writer.flush().expect("load flush");
                    drop(writer);
                    // Half-close: the server drains our in-flight
                    // requests, flushes every response, then closes —
                    // the reader's EOF doubles as "all responses in".
                    stream.shutdown(Shutdown::Write).expect("load half-close");
                    lat_us = reader_handle.join().expect("load reader");
                });
                assert_eq!(lat_us.len(), sent, "connection lost responses under load");
                (sent, lat_us)
            }));
        }
        for h in handles {
            let (n, lat) = h.join().expect("load conn");
            sent_total += n;
            latencies_us.extend(lat);
        }
    });
    let wall = start.elapsed().as_secs_f64();
    drop(idle_conns);
    latencies_us.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if latencies_us.is_empty() {
            return 0.0;
        }
        // bounds: index is (len-1)*p with p ≤ 1, so < len.
        latencies_us[((latencies_us.len() - 1) as f64 * p).round() as usize]
    };
    LoadReport {
        target_qps,
        achieved_qps: if wall > 0.0 {
            sent_total as f64 / wall
        } else {
            0.0
        },
        sent: sent_total,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        p999_us: pct(0.999),
    }
}

/// Extracts `"field": <number>` from the `"section"` object of a flat
/// JSON document — enough structure awareness for our own emitter's
/// output, with no JSON dependency.
fn extract(json: &str, section: &str, field: &str) -> Option<f64> {
    let sec = json.find(&format!("\"{section}\""))?;
    let rest = &json[sec..];
    let f = rest.find(&format!("\"{field}\""))?;
    let rest = &rest[f + field.len() + 2..];
    let colon = rest.find(':')?;
    let tail = rest[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Compares fresh warm where/when medians against a baseline file.
/// Returns the failure messages (empty = pass).
fn baseline_regressions(
    baseline_json: &str,
    fresh: &[(&str, ModeResult)],
    factor: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for kind in ["where", "when"] {
        let Some(base) = extract(baseline_json, kind, "warm_ns_per_op") else {
            failures.push(format!("baseline has no warm {kind} median"));
            continue;
        };
        let Some((_, fresh_r)) = fresh.iter().find(|(n, _)| *n == kind) else {
            continue;
        };
        let ratio = fresh_r.warm_ns / base;
        if ratio > factor {
            failures.push(format!(
                "warm {kind} median regressed {ratio:.2}x ({:.1} ns/op vs baseline {base:.1} ns/op, limit {factor}x)",
                fresh_r.warm_ns
            ));
        } else {
            eprintln!(
                "baseline gate: warm {kind} {:.1} ns/op vs {base:.1} ns/op ({ratio:.2}x) ok",
                fresh_r.warm_ns
            );
        }
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke")
        || std::env::var("UTCQ_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_queries.json".to_string());
    let baseline_path = flag_value("--baseline");

    let profile = utcq_datagen::profile::cd();
    let n_trajs = std::env::var("UTCQ_TRAJS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(80);
    let n_shards: u32 = std::env::var("UTCQ_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
        .max(2);
    eprintln!(
        "building dataset ({} trajectories, profile {})…",
        n_trajs, profile.name
    );
    let built = datasets::build_n(&profile, n_trajs, SEED);
    let stiu = StiuParams {
        partition_s: 900,
        grid_n: 32,
    };
    let store = Store::build(
        Arc::new(built.net.clone()),
        &built.ds,
        datasets::paper_params(&profile),
        stiu,
    )
    .expect("store build");
    eprintln!("building {n_shards}-shard store…");
    let sharded = StoreBuilder::new(
        Arc::new(built.net.clone()),
        datasets::paper_params(&profile),
    )
    .stiu_params(stiu)
    .shard_by(Arc::new(ByTime { interval_s: 900 }), n_shards)
    .expect("shard config")
    .ingest(&built.ds)
    .expect("sharded ingest")
    .finish()
    .expect("sharded store build");
    let default_budget = store.cache_bytes();

    let wq = workload::where_queries(&built.ds, 64, 301);
    let nq = workload::when_queries(&built.ds, 64, 302);
    let rq = workload::range_queries(&built.net, &built.ds, 32, 303);
    let ranges: Vec<RangeQuery> = rq
        .iter()
        .map(|q| RangeQuery {
            re: q.re,
            tq: q.tq,
            alpha: q.alpha,
        })
        .collect();

    // The same workload, runnable against any QueryTarget.
    let run_where = |t: &dyn QueryTarget| {
        for q in &wq {
            t.where_query(q.traj_id, q.t, q.alpha, PageRequest::all())
                .unwrap();
        }
    };
    let run_when = |t: &dyn QueryTarget| {
        for q in &nq {
            t.when_query(q.traj_id, q.edge, q.rd, q.alpha, PageRequest::all())
                .unwrap();
        }
    };
    let run_range = |t: &dyn QueryTarget| {
        for q in &rq {
            t.range_query(&q.re, q.tq, q.alpha, PageRequest::all())
                .unwrap();
        }
    };

    let mut results: Vec<(&str, ModeResult)> = Vec::new();
    for (name, ops, run) in [
        ("where", wq.len(), &run_where as &dyn Fn(&dyn QueryTarget)),
        ("when", nq.len(), &run_when),
        ("range", rq.len(), &run_range),
    ] {
        eprintln!("measuring {name}…");
        store.set_cache_bytes(default_budget);
        let cold_ns = measure(ops, smoke, || store.clear_cache(), || run(&store));
        let warm_ns = measure(ops, smoke, || {}, || run(&store));
        store.set_cache_bytes(0);
        let nocache_ns = measure(ops, smoke, || {}, || run(&store));
        store.set_cache_bytes(default_budget);
        results.push((
            name,
            ModeResult {
                cold_ns,
                warm_ns,
                nocache_ns,
            },
        ));
    }

    // Sharded section: warm medians for the three query types, plus
    // par_range throughput 1-shard vs N-shard on the same batch.
    let mut sharded_warm: Vec<(&str, f64)> = Vec::new();
    for (name, ops, run) in [
        ("where", wq.len(), &run_where as &dyn Fn(&dyn QueryTarget)),
        ("when", nq.len(), &run_when),
        ("range", rq.len(), &run_range),
    ] {
        eprintln!("measuring sharded {name}…");
        sharded_warm.push((name, measure(ops, smoke, || {}, || run(&sharded))));
    }
    eprintln!("measuring par_range 1-shard vs {n_shards}-shard (interleaved)…");
    let (par_single_ns, par_sharded_ns) = measure_pair(
        ranges.len(),
        smoke,
        || {
            store.par_range_query(&ranges).unwrap();
        },
        || {
            sharded.par_range_query(&ranges).unwrap();
        },
    );
    let qps = |ns: f64| if ns > 0.0 { 1e9 / ns } else { 0.0 };

    // Sharded container open: sequential vs parallel per-shard blob
    // deserialization on the same bytes, interleaved so host drift
    // cancels out of the ratio.
    eprintln!("measuring {n_shards}-shard v3 open (sequential vs parallel, interleaved)…");
    let mut v3_bytes = Vec::new();
    sharded.write(&mut v3_bytes).expect("serialize v3");
    let (open_seq_ns, open_par_ns) = measure_pair(
        1,
        smoke,
        || {
            ShardedStore::read_with(&mut v3_bytes.as_slice(), false).expect("sequential open");
        },
        || {
            ShardedStore::read_with(&mut v3_bytes.as_slice(), true).expect("parallel open");
        },
    );
    // Which path the parallel-permitted open actually took: tiny
    // containers fall back to sequential (PARALLEL_OPEN_MIN_BYTES),
    // where spawning per-shard threads used to *lose* time.
    let (_, open_parallel_effective) =
        ShardedStore::read_with_report(&mut v3_bytes.as_slice(), true).expect("open probe");

    // The query-workload container above is a few hundred KB — far
    // below `PARALLEL_OPEN_MIN_BYTES` — so the section above always
    // exercises the sequential fallback. This second entry builds a
    // container of cheap trajectories sized past the threshold so the
    // parallel per-shard open actually runs, and the gate can see both
    // paths. Trajectory count is fixed (not `UTCQ_TRAJS`-scaled): the
    // point is crossing the byte threshold, and cheap trajectories keep
    // the build a few hundred ms even in smoke mode.
    const OPEN_LARGE_TRAJS: usize = 12_000;
    eprintln!(
        "measuring {n_shards}-shard large open ({OPEN_LARGE_TRAJS} cheap trajectories, \
         sequential vs parallel, interleaved)…"
    );
    let large_bytes = {
        let mut cheap = utcq_datagen::profile::tiny();
        cheap.avg_instances = 1.5;
        cheap.max_instances = 2;
        cheap.avg_edges = 4.0;
        cheap.max_edges = 8;
        let open_net = Arc::new(utcq_datagen::generate_network(&cheap, SEED ^ 0x0e));
        let ds = utcq_datagen::generate_on_network(
            &open_net,
            &cheap,
            &utcq_datagen::GenOptions {
                n_trajectories: OPEN_LARGE_TRAJS,
                seed: SEED ^ 0x0f,
                min_instances: 1,
                max_samples: 4,
                variants: Default::default(),
            },
        );
        let large = StoreBuilder::new(
            Arc::clone(&open_net),
            utcq_core::CompressParams::with_interval(ds.default_interval),
        )
        .stiu_params(stiu)
        .shard_by(Arc::new(ByTime { interval_s: 900 }), n_shards)
        .expect("large shard config")
        .ingest(&ds)
        .expect("large sharded ingest")
        .finish()
        .expect("large sharded build");
        let mut bytes = Vec::new();
        large.write(&mut bytes).expect("serialize large v3");
        bytes
    };
    let (open_large_seq_ns, open_large_par_ns) = measure_pair(
        1,
        smoke,
        || {
            ShardedStore::read_with(&mut large_bytes.as_slice(), false)
                .expect("large sequential open");
        },
        || {
            ShardedStore::read_with(&mut large_bytes.as_slice(), true)
                .expect("large parallel open");
        },
    );
    let (_, open_large_parallel_effective) =
        ShardedStore::read_with_report(&mut large_bytes.as_slice(), true)
            .expect("large open probe");
    assert!(
        open_large_parallel_effective,
        "open_large container ({} bytes) unexpectedly below the parallel-open threshold",
        large_bytes.len()
    );

    // bench_ingest: the live writer path with the write-ahead log off
    // vs on — what publishing a batch costs under each fsync policy.
    // Each pass reopens a fresh copy of the base container (untimed)
    // and then ingests the same batch sequence (timed), so the ns/batch
    // medians isolate the append+sync+publish cost.
    eprintln!("measuring ingest (durability off vs EveryN(8) vs Always)…");
    let ingest_dir = std::env::temp_dir().join(format!("utcq-bench-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ingest_dir);
    std::fs::create_dir_all(&ingest_dir).expect("mk ingest scratch");
    let mut ingest_base = built.ds.clone();
    let ingest_tail = ingest_base
        .trajectories
        .split_off(ingest_base.trajectories.len() / 2);
    let ingest_batch_size = (ingest_tail.len() / 8).max(1);
    let ingest_batches: Vec<utcq_traj::Dataset> = ingest_tail
        .chunks(ingest_batch_size)
        .map(|c| utcq_traj::Dataset {
            name: built.ds.name.clone(),
            default_interval: built.ds.default_interval,
            trajectories: c.to_vec(),
        })
        .collect();
    let base_path = ingest_dir.join("base.utcq");
    Store::build(
        Arc::new(built.net.clone()),
        &ingest_base,
        datasets::paper_params(&profile),
        stiu,
    )
    .expect("ingest base build")
    .save(&base_path)
    .expect("save ingest base");
    let wal_path = ingest_dir.join("log.wal");
    let measure_ingest = |fsync: Option<utcq_core::FsyncPolicy>| -> f64 {
        let slot: std::cell::RefCell<Option<Opened>> = std::cell::RefCell::new(None);
        measure(
            ingest_batches.len(),
            smoke,
            || {
                slot.borrow_mut().take();
                let _ = std::fs::remove_file(&wal_path);
                let store = match fsync {
                    None => Opened::open(&base_path).expect("open ingest base"),
                    Some(p) => Opened::open_durable(
                        &base_path,
                        utcq_core::WalConfig::new(&wal_path).fsync(p),
                    )
                    .expect("open durable ingest base"),
                };
                *slot.borrow_mut() = Some(store);
            },
            || {
                let s = slot.borrow();
                let s = s.as_ref().expect("prepared store");
                for b in &ingest_batches {
                    s.ingest(b).expect("bench ingest");
                }
            },
        )
    };
    let ingest_off_ns = measure_ingest(None);
    let ingest_every_ns = measure_ingest(Some(utcq_core::FsyncPolicy::EveryN(8)));
    let ingest_always_ns = measure_ingest(Some(utcq_core::FsyncPolicy::Always));
    let _ = std::fs::remove_dir_all(&ingest_dir);

    // bench_publish: what publishing one 64-trajectory batch costs as
    // the store grows 1k → 10k → 50k. The chunked snapshots share
    // sealed storage across epochs, so both the median ns and the
    // copied bytes (reported by `utcq_core::hooks::copied_bytes`) must
    // stay O(batch) — flat in store size. The copied-bytes ratio is
    // deterministic, which is what `UTCQ_BENCH_PUBLISH_RATIO_BOUND`
    // gates on in CI. Trajectories are deliberately cheap (short, few
    // instances): publish cost depends on the snapshot's shape, not on
    // how interesting the data is.
    eprintln!("measuring publish cost at 1k/10k/50k trajectories…");
    const PUBLISH_BATCH: usize = 64;
    const PUBLISH_BATCHES: usize = 8; // per timed pass; ids stay distinct
    let publish_sizes: [usize; 3] = [1_000, 10_000, 50_000];
    let mut publish_ns: Vec<f64> = Vec::new();
    let mut publish_copied: Vec<u64> = Vec::new();
    {
        let mut cheap = utcq_datagen::profile::tiny();
        cheap.avg_instances = 1.5;
        cheap.max_instances = 2;
        cheap.avg_edges = 4.0;
        cheap.max_edges = 8;
        let publish_net = Arc::new(utcq_datagen::generate_network(&cheap, SEED ^ 0x50));
        for (i, &n) in publish_sizes.iter().enumerate() {
            let mut base = utcq_datagen::generate_on_network(
                &publish_net,
                &cheap,
                &utcq_datagen::GenOptions {
                    n_trajectories: n + PUBLISH_BATCH * PUBLISH_BATCHES,
                    seed: SEED + i as u64,
                    min_instances: 1,
                    max_samples: 4,
                    variants: Default::default(),
                },
            );
            let tail = base.trajectories.split_off(n);
            let publish_batches: Vec<utcq_traj::Dataset> = tail
                .chunks(PUBLISH_BATCH)
                .map(|c| utcq_traj::Dataset {
                    name: base.name.clone(),
                    default_interval: base.default_interval,
                    trajectories: c.to_vec(),
                })
                .collect();
            let params = utcq_core::CompressParams::with_interval(base.default_interval);
            let built =
                Store::build(Arc::clone(&publish_net), &base, params, stiu).expect("publish build");
            let mut base_bytes = Vec::new();
            built
                .write(&mut base_bytes)
                .expect("serialize publish base");
            drop(built);

            // Copied bytes per publish: exact, differenced around one
            // ingest on a fresh reopen (main is single-threaded here,
            // so nothing else touches the process-global counter).
            let fresh = Store::read(&mut base_bytes.as_slice()).expect("reopen publish base");
            let before = utcq_core::hooks::copied_bytes();
            fresh.ingest(&publish_batches[0]).expect("bench publish");
            publish_copied.push(utcq_core::hooks::copied_bytes() - before);
            drop(fresh);

            let slot: std::cell::RefCell<Option<Store>> = std::cell::RefCell::new(None);
            publish_ns.push(measure(
                PUBLISH_BATCHES,
                smoke,
                || {
                    slot.borrow_mut().take();
                    *slot.borrow_mut() =
                        Some(Store::read(&mut base_bytes.as_slice()).expect("reopen publish base"));
                },
                || {
                    let s = slot.borrow();
                    let s = s.as_ref().expect("prepared store");
                    for b in &publish_batches {
                        s.ingest(b).expect("bench publish");
                    }
                },
            ));
        }
    }
    let publish_ratio = if publish_copied[0] > 0 {
        publish_copied[2] as f64 / publish_copied[0] as f64
    } else {
        0.0
    };

    // Leave the cache warm so the reported stats describe steady state.
    run_where(&store);
    run_when(&store);
    run_range(&store);
    let stats = store.cache_stats();
    let store_len = store.len();

    // bench_serve: the same warm where/when workloads, but every query
    // round-trips the PROTOCOL.md wire format over one TCP connection
    // to an in-process `utcq_core::serve::Server` — so the JSON tracks
    // what the serving layer (JSON encode/decode + loopback socket)
    // adds on top of the warm store, release over release.
    eprintln!("measuring serve round-trips (in-process server)…");
    let where_lines: Vec<String> = wq
        .iter()
        .map(|q| {
            format!(
                r#"{{"op":"where","traj":{},"t":{},"alpha":{}}}"#,
                q.traj_id, q.t, q.alpha
            )
        })
        .collect();
    let when_lines: Vec<String> = nq
        .iter()
        .map(|q| {
            format!(
                r#"{{"op":"when","traj":{},"edge":{},"rd":{},"alpha":{}}}"#,
                q.traj_id, q.edge.0, q.rd, q.alpha
            )
        })
        .collect();
    let opened = Arc::new(utcq_core::Opened::Single(Box::new(store)));
    let server =
        utcq_core::serve::Server::bind(Arc::clone(&opened), "127.0.0.1:0", 4).expect("bind serve");
    let addr = server.local_addr();
    let runner = std::thread::spawn(move || server.run().expect("serve run"));
    let stream = std::net::TcpStream::connect(addr).expect("connect serve");
    stream.set_nodelay(true).ok();
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone serve stream"));
    let mut writer = std::io::BufWriter::new(stream);
    let serve_where_ns = measure(
        wq.len(),
        smoke,
        || {},
        || serve_roundtrip(&mut reader, &mut writer, &where_lines),
    );
    let serve_when_ns = measure(
        nq.len(),
        smoke,
        || {},
        || serve_roundtrip(&mut reader, &mut writer, &when_lines),
    );

    // bench_serve_load: the same connection, but PIPELINE_DEPTH
    // requests in flight per flush — amortizing the per-request
    // round-trip that dominates the sequential numbers above.
    eprintln!("measuring pipelined serve throughput (depth {PIPELINE_DEPTH})…");
    let mut load_lines: Vec<String> = Vec::with_capacity(where_lines.len() + when_lines.len());
    for (w, n) in where_lines.iter().zip(when_lines.iter()) {
        load_lines.push(w.clone());
        load_lines.push(n.clone());
    }
    let pipelined_ns = measure(
        load_lines.len(),
        smoke,
        || {},
        || serve_pipelined(&mut reader, &mut writer, &load_lines, PIPELINE_DEPTH),
    );

    // Open-loop replay: fixed offered rate across LOAD_CONNS active
    // connections with LOAD_IDLE_CONNS idle ones held open.
    let load_target_qps: f64 = std::env::var("UTCQ_BENCH_LOAD_QPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 2_000.0 } else { 40_000.0 });
    let load_duration = if smoke {
        Duration::from_millis(300)
    } else {
        Duration::from_secs(2)
    };
    eprintln!(
        "measuring open-loop load ({LOAD_CONNS} conns + {LOAD_IDLE_CONNS} idle, \
         target {load_target_qps:.0} qps, {load_duration:?})…"
    );
    let load = open_loop_load(
        addr,
        &load_lines,
        LOAD_CONNS,
        LOAD_IDLE_CONNS,
        load_target_qps,
        load_duration,
    );

    serve_roundtrip(
        &mut reader,
        &mut writer,
        &[r#"{"op":"shutdown"}"#.to_string()],
    );
    drop(reader);
    drop(writer);
    runner.join().expect("serve thread");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"dataset\": {{\"profile\": \"{}\", \"trajectories\": {}, \"seed\": {}}},",
        profile.name, store_len, SEED
    );
    let _ = writeln!(
        json,
        "  \"workload\": {{\"where_queries\": {}, \"when_queries\": {}, \"range_queries\": {}}},",
        wq.len(),
        nq.len(),
        rq.len()
    );
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"stat\": \"median\",");
    let _ = writeln!(json, "  \"cache_budget_bytes\": {default_budget},");
    let _ = writeln!(json, "  \"results\": {{");
    for (i, (name, r)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"{name}\": {{\"cold_ns_per_op\": {:.1}, \"warm_ns_per_op\": {:.1}, \
             \"nocache_ns_per_op\": {:.1}, \"warm_speedup\": {:.2}}}{comma}",
            r.cold_ns,
            r.warm_ns,
            r.nocache_ns,
            r.warm_speedup()
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"sharded\": {{\"shards\": {n_shards}, \"policy\": \"time\", \
         \"where_warm_ns_per_op\": {:.1}, \"when_warm_ns_per_op\": {:.1}, \
         \"range_warm_ns_per_op\": {:.1}}},",
        sharded_warm[0].1, sharded_warm[1].1, sharded_warm[2].1
    );
    let _ = writeln!(
        json,
        "  \"par_range\": {{\"batch\": {}, \"qps_1shard\": {:.1}, \"qps_nshard\": {:.1}, \
         \"nshard_over_1shard\": {:.3}}},",
        ranges.len(),
        qps(par_single_ns),
        qps(par_sharded_ns),
        if par_sharded_ns > 0.0 {
            par_single_ns / par_sharded_ns
        } else {
            0.0
        }
    );
    let _ = writeln!(
        json,
        "  \"open\": {{\"shards\": {n_shards}, \"container_bytes\": {}, \
         \"parallel_effective\": {open_parallel_effective}, \
         \"sequential_ms\": {:.3}, \"parallel_ms\": {:.3}, \"speedup\": {:.2}}},",
        v3_bytes.len(),
        open_seq_ns / 1e6,
        open_par_ns / 1e6,
        if open_par_ns > 0.0 {
            open_seq_ns / open_par_ns
        } else {
            0.0
        }
    );
    let _ = writeln!(
        json,
        "  \"open_large\": {{\"shards\": {n_shards}, \"trajectories\": {OPEN_LARGE_TRAJS}, \
         \"container_bytes\": {}, \"parallel_effective\": {open_large_parallel_effective}, \
         \"sequential_ms\": {:.3}, \"parallel_ms\": {:.3}, \"speedup\": {:.2}}},",
        large_bytes.len(),
        open_large_seq_ns / 1e6,
        open_large_par_ns / 1e6,
        if open_large_par_ns > 0.0 {
            open_large_seq_ns / open_large_par_ns
        } else {
            0.0
        }
    );
    let _ = writeln!(
        json,
        "  \"serve\": {{\"transport\": \"tcp-loopback\", \
         \"where_roundtrip_ns_per_op\": {:.1}, \"when_roundtrip_ns_per_op\": {:.1}, \
         \"where_qps\": {:.1}, \"when_qps\": {:.1}}},",
        serve_where_ns,
        serve_when_ns,
        qps(serve_where_ns),
        qps(serve_when_ns)
    );
    let _ = writeln!(
        json,
        "  \"serve_load\": {{\"pipeline_depth\": {PIPELINE_DEPTH}, \
         \"single_conn_pipelined_qps\": {:.1}, \"pipelined_over_sequential\": {:.2}, \
         \"connections\": {LOAD_CONNS}, \"idle_connections\": {LOAD_IDLE_CONNS}, \
         \"target_qps\": {:.1}, \"achieved_qps\": {:.1}, \"requests\": {}, \
         \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}}},",
        qps(pipelined_ns),
        if pipelined_ns > 0.0 {
            // Same-machine ratio vs the sequential round-trips above on
            // the same where/when mix — robust to host speed drift.
            (serve_where_ns + serve_when_ns) / 2.0 / pipelined_ns
        } else {
            0.0
        },
        load.target_qps,
        load.achieved_qps,
        load.sent,
        load.p50_us,
        load.p99_us,
        load.p999_us
    );
    let _ = writeln!(
        json,
        "  \"ingest\": {{\"batches\": {}, \"trajs_per_batch\": {}, \
         \"off_ns_per_batch\": {:.1}, \"wal_every8_ns_per_batch\": {:.1}, \
         \"wal_always_ns_per_batch\": {:.1}}},",
        ingest_batches.len(),
        ingest_batch_size,
        ingest_off_ns,
        ingest_every_ns,
        ingest_always_ns
    );
    let _ = writeln!(
        json,
        "  \"publish\": {{\"batch_trajs\": {PUBLISH_BATCH}, \
         \"store_sizes\": [{}, {}, {}], \
         \"ns_per_publish\": [{:.1}, {:.1}, {:.1}], \
         \"copied_bytes_per_publish\": [{}, {}, {}], \
         \"copied_ratio_50k_over_1k\": {:.3}}},",
        publish_sizes[0],
        publish_sizes[1],
        publish_sizes[2],
        publish_ns[0],
        publish_ns[1],
        publish_ns[2],
        publish_copied[0],
        publish_copied[1],
        publish_copied[2],
        publish_ratio
    );
    let _ = writeln!(
        json,
        "  \"cache_stats\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
         \"entries\": {}, \"bytes\": {}, \"hit_rate\": {:.4}}}",
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.entries,
        stats.bytes,
        stats.hit_rate()
    );
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write BENCH_queries.json");
    print!("{json}");
    eprintln!("wrote {out_path}");
    for (name, r) in &results {
        eprintln!(
            "  {name:>5}: cold {:>10.0} ns/op | warm {:>10.0} ns/op | speedup {:.2}x",
            r.cold_ns,
            r.warm_ns,
            r.warm_speedup()
        );
    }
    eprintln!(
        "  par_range: 1-shard {:.0} qps | {n_shards}-shard {:.0} qps",
        qps(par_single_ns),
        qps(par_sharded_ns)
    );
    eprintln!(
        "  serve rt: where {:.0} ns/op ({:.0} qps) | when {:.0} ns/op ({:.0} qps)",
        serve_where_ns,
        qps(serve_where_ns),
        serve_when_ns,
        qps(serve_when_ns)
    );
    eprintln!(
        "  serve load: pipelined {:.0} qps | open-loop {:.0}/{:.0} qps | \
         p50 {:.0} µs p99 {:.0} µs p999 {:.0} µs",
        qps(pipelined_ns),
        load.achieved_qps,
        load.target_qps,
        load.p50_us,
        load.p99_us,
        load.p999_us
    );
    if let Some(bound_ms) = std::env::var("UTCQ_BENCH_P99_BOUND_MS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        let p99_ms = load.p99_us / 1000.0;
        if p99_ms > bound_ms {
            eprintln!("LOAD REGRESSION: open-loop p99 {p99_ms:.2} ms exceeds bound {bound_ms} ms");
            std::process::exit(1);
        }
        eprintln!("load gate: open-loop p99 {p99_ms:.3} ms within {bound_ms} ms");
    }
    eprintln!(
        "  ingest: off {:.0} ns/batch | wal every-8 {:.0} ns/batch | wal always {:.0} ns/batch",
        ingest_off_ns, ingest_every_ns, ingest_always_ns
    );
    eprintln!(
        "  publish: 1k {:.0} ns | 10k {:.0} ns | 50k {:.0} ns | \
         copied {} / {} / {} B (50k/1k ratio {:.2})",
        publish_ns[0],
        publish_ns[1],
        publish_ns[2],
        publish_copied[0],
        publish_copied[1],
        publish_copied[2],
        publish_ratio
    );
    if let Some(bound) = std::env::var("UTCQ_BENCH_RANGE_WARM_BOUND")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        // bounds: the results vec is built from a fixed 3-entry list
        let range_warm = results
            .iter()
            .find(|(n, _)| *n == "range")
            .unwrap()
            .1
            .warm_ns;
        if range_warm > bound {
            eprintln!(
                "RANGE REGRESSION: warm range median {range_warm:.1} ns/op exceeds \
                 bound {bound} ns/op — the epoch-keyed range-result cache is not \
                 carrying the warm path"
            );
            std::process::exit(1);
        }
        eprintln!("range gate: warm range {range_warm:.1} ns/op within {bound} ns/op");
    }
    let par_range_ratio = if par_sharded_ns > 0.0 {
        par_single_ns / par_sharded_ns
    } else {
        0.0
    };
    if let Some(bound) = std::env::var("UTCQ_BENCH_PAR_RANGE_RATIO_BOUND")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        if par_range_ratio < bound {
            eprintln!(
                "PAR_RANGE REGRESSION: nshard_over_1shard {par_range_ratio:.3} fell \
                 below bound {bound} — the sharded batch engine (candidate index + \
                 cell filters + sub-unit scheduling) is not beating the per-query path"
            );
            std::process::exit(1);
        }
        eprintln!("par_range gate: nshard_over_1shard {par_range_ratio:.3} at or above {bound}");
    }
    if let Some(bound) = std::env::var("UTCQ_BENCH_PUBLISH_RATIO_BOUND")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        if publish_ratio > bound {
            eprintln!(
                "PUBLISH REGRESSION: a 50k-store publish copies {publish_ratio:.2}x \
                 the bytes of a 1k-store publish (bound {bound}) — copy cost is \
                 scaling with the store, not the batch"
            );
            std::process::exit(1);
        }
        eprintln!("publish gate: copied-bytes ratio {publish_ratio:.2} within {bound}");
    }
    eprintln!(
        "  v3 open: sequential {:.2} ms | parallel {:.2} ms ({:.2}x)",
        open_seq_ns / 1e6,
        open_par_ns / 1e6,
        if open_par_ns > 0.0 {
            open_seq_ns / open_par_ns
        } else {
            0.0
        }
    );
    eprintln!(
        "  v3 open large ({:.1} MiB): sequential {:.2} ms | parallel {:.2} ms ({:.2}x, effective {})",
        large_bytes.len() as f64 / (1024.0 * 1024.0),
        open_large_seq_ns / 1e6,
        open_large_par_ns / 1e6,
        if open_large_par_ns > 0.0 {
            open_large_seq_ns / open_large_par_ns
        } else {
            0.0
        },
        open_large_parallel_effective
    );

    if let Some(path) = baseline_path {
        let baseline =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let failures = baseline_regressions(&baseline, &results, regression_factor());
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("REGRESSION: {f}");
            }
            std::process::exit(1);
        }
        eprintln!("baseline gate passed ({path})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "results": {
    "where": {"cold_ns_per_op": 1611.0, "warm_ns_per_op": 293.3, "warm_speedup": 5.49},
    "when": {"cold_ns_per_op": 2636.1, "warm_ns_per_op": 514.9, "warm_speedup": 5.12}
  }
}"#;

    #[test]
    fn extract_reads_nested_fields() {
        assert_eq!(extract(SAMPLE, "where", "warm_ns_per_op"), Some(293.3));
        assert_eq!(extract(SAMPLE, "when", "warm_ns_per_op"), Some(514.9));
        assert_eq!(extract(SAMPLE, "when", "cold_ns_per_op"), Some(2636.1));
        assert_eq!(extract(SAMPLE, "range", "warm_ns_per_op"), None);
        assert_eq!(extract(SAMPLE, "where", "missing"), None);
    }

    #[test]
    fn regression_gate_trips_only_past_the_factor() {
        let fresh_ok = vec![
            (
                "where",
                ModeResult {
                    cold_ns: 0.0,
                    warm_ns: 293.3 * 1.9,
                    nocache_ns: 0.0,
                },
            ),
            (
                "when",
                ModeResult {
                    cold_ns: 0.0,
                    warm_ns: 514.9,
                    nocache_ns: 0.0,
                },
            ),
        ];
        assert!(baseline_regressions(SAMPLE, &fresh_ok, 2.0).is_empty());
        let fresh_bad = vec![(
            "where",
            ModeResult {
                cold_ns: 0.0,
                warm_ns: 293.3 * 2.5,
                nocache_ns: 0.0,
            },
        )];
        let failures = baseline_regressions(SAMPLE, &fresh_bad, 2.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("where"), "{failures:?}");
    }
}

//! The per-layer probes of a traced run: each layer is measured from
//! outside, by timing calls into its public functions on a fixed
//! 20k-trajectory rung of the corpus (the `serve_point_hot` shape), so
//! the numbers mean the same thing whichever workload's traced run
//! printed them. Every probe also leaves a span in the trace.
//!
//! Not measured here: `cache.hit_rate`, `cache.evictions_per_kop`,
//! `cache.bytes` and `trace.overhead_pct`, which belong to the
//! workload whose passes ran before the probes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::client::{self, Conn};
use crate::method::Config;
use crate::trace::{Trace, NONE};
use crate::workloads::live::{self, LiveInputs, INGEST_BATCH};
use crate::workloads::{exchanges, MIB};
use crate::{inputs, stats, sut};

/// Offered rate of the open-loop probe, requests per second.
const OPEN_LOOP_RATE: f64 = 20_000.0;

pub struct Probes {
    pub values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

/// Seconds of `f`, recorded as a span named `name`.
fn span_secs<T>(trace: &mut Trace, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    trace.set_on(true);
    let t = Instant::now();
    let out = trace.span(name, 0, NONE, f);
    let secs = t.elapsed().as_secs_f64();
    trace.set_on(false);
    (out, secs)
}

/// Median seconds of `reps` runs of `f` (one span per run).
fn median_secs<T>(
    trace: &mut Trace,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, s) = span_secs(trace, name, &mut f);
            std::hint::black_box(out);
            s
        })
        .collect();
    stats::median(&secs)
}

pub fn probe(cfg: &Config, trace: &mut Trace) -> Probes {
    let mut v: Vec<(&'static str, f64)> = Vec::with_capacity(64);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let reps = cfg.size(5, 2);
    let base_n = cfg.size(20_000, 1_500);
    let n_ingest = cfg.size(64, 8);
    // Nanoseconds per item of a sweep over `n` items.
    let per = |secs: f64, n: usize| secs * 1e9 / n as f64;

    // --- harness: datagen -------------------------------------------
    let total_n = base_n + n_ingest * INGEST_BATCH;
    let (mut corpus, secs) = span_secs(trace, "probe.datagen.corpus", || sut::corpus(total_n));
    v.push(("datagen.trajs_per_s", total_n as f64 / secs));
    let extent = sut::extent(&corpus.net);
    let interval = corpus.interval;
    let mut trajs = std::mem::take(&mut corpus.trajs);
    let arriving = inputs::into_batches(trajs.split_off(base_n), interval, INGEST_BATCH);
    let dataset = sut::batch(interval, trajs);
    let base = &dataset.trajectories;

    // --- storage: one container, written and read --------------------
    let single_path = cfg.scratch_file("probe-single.utcq");
    let sharded_path = cfg.scratch_file("probe-sharded.utcq");
    let store = sut::build_single(&corpus, [&dataset], 64 * MIB);
    let mut container = Vec::new();
    let secs = median_secs(trace, "probe.storage.write", reps, || {
        container = sut::store_bytes(&store)
    });
    v.push((
        "storage.write_mb_per_s",
        container.len() as f64 / 1e6 / secs,
    ));
    v.push((
        "storage.container_bytes_per_traj",
        container.len() as f64 / base_n as f64,
    ));
    std::fs::write(&single_path, &container).expect("write the probe container");
    drop((store, container));
    let single_bytes = crate::method::file_len(&single_path);
    let single_open = median_secs(trace, "probe.storage.open", reps, || {
        sut::open(&single_path)
    });
    v.push((
        "storage.read_mb_per_s",
        single_bytes as f64 / 1e6 / single_open,
    ));

    // --- the request lines every serve/wire/query probe shares -------
    let pool: Vec<&sut::UncertainTrajectory> = base.iter().collect();
    let n_anchor = cfg.size(1_024, 128);
    let lines = inputs::point_lines(
        &pool,
        n_anchor,
        4 * n_anchor,
        &mut inputs::rng(cfg.seed, "points"),
    );
    let range_lines = inputs::range_lines(
        extent,
        &pool,
        cfg.size(200, 20),
        &mut inputs::rng(cfg.seed, "ranges"),
    );
    let single = Arc::new(sut::open(&single_path));
    let set = exchanges(&single, &lines);

    // --- serve: one worker, one connection. First among the timed
    // probes, so that it runs within seconds of the workload's own
    // passes and sees the same host state (the additivity check
    // compares the two).
    let server = sut::serve(Arc::clone(&single), 1, false);
    let order = inputs::draw(
        set.len(),
        cfg.size(11_000, 1_100),
        &mut inputs::rng(cfg.seed, "order.probe"),
    );
    let (warm, measured) = order.split_at(order.len() / 11);
    let mut conn = Conn::connect(server.addr);
    let mut rtt_us = Vec::with_capacity(order.len());
    failed += client::run_depth1(&mut conn, &set, warm, &mut rtt_us, trace, NONE);
    rtt_us.clear();
    // One span for the sweep: per-request `serve.rtt` spans belong to
    // the workload's own passes.
    let (probe_failed, _) = span_secs(trace, "probe.serve.depth1", || {
        client::run_depth1(
            &mut conn,
            &set,
            measured,
            &mut rtt_us,
            &mut Trace::new(Instant::now(), 0),
            NONE,
        )
    });
    failed += probe_failed;
    attempted += order.len() as u64;
    drop(conn);
    let rtt_p50 = stats::percentile(&mut rtt_us, 0.5);
    v.push(("serve.rtt_depth1_us", rtt_p50));
    v.push((
        "serve.closed_p99_us",
        stats::percentile_sorted(&rtt_us, 0.99),
    ));
    let open_loop = client::run_open_loop(
        server.addr,
        &set,
        &order,
        OPEN_LOOP_RATE,
        Duration::from_secs_f64(if cfg.quick { 0.3 } else { 2.0 }),
    );
    attempted += open_loop.sent as u64;
    failed += open_loop.failed;
    v.push((
        "serve.open_loop_p50_us",
        stats::percentile_sorted(&open_loop.latencies_us, 0.5),
    ));
    v.push((
        "serve.open_loop_p99_us",
        stats::percentile_sorted(&open_loop.latencies_us, 0.99),
    ));
    v.push((
        "serve.open_loop_p999_us",
        stats::percentile_sorted(&open_loop.latencies_us, 0.999),
    ));
    v.push((
        "serve.open_loop_late_us",
        stats::percentile_sorted(&open_loop.late_us, 0.99),
    ));
    server.stop();

    // --- shard facade, query engine, wire ----------------------------
    // The same data in 4 shards: the v3 open decodes shards in parallel
    // above 8 MiB, the v2 open cannot.
    sut::build_sharded_to(&corpus, [&dataset], 4, 64 * MIB, &sharded_path);
    let sharded_bytes = crate::method::file_len(&sharded_path);
    let sharded_open = median_secs(trace, "probe.shard.open", reps, || sut::open(&sharded_path));
    v.push((
        "shard.open_parallel_speedup",
        (sharded_bytes as f64 / sharded_open) / (single_bytes as f64 / single_open),
    ));

    let sharded = sut::open(&sharded_path);
    let parsed: Vec<_> = lines.iter().map(|l| sut::parse_request(l)).collect();
    // Lines 2k / 2k+1 are a `where` / `when` on anchor k: the first
    // 2·n_anchor lines touch every anchor trajectory exactly once each.
    let first_touch = |odd: usize| parsed[..2 * n_anchor].iter().skip(odd).step_by(2);
    let sweep = |trace: &mut Trace, name: &'static str, opened: &sut::Opened, odd, cold| {
        if cold {
            sut::clear_cache(opened);
        }
        let runs = if cold { 1 } else { reps };
        let secs = median_secs(trace, name, runs, || {
            for p in first_touch(odd) {
                std::hint::black_box(sut::execute(opened, p));
            }
        });
        per(secs, n_anchor)
    };
    let where_cold = sweep(trace, "probe.query.where_cold", &single, 0, true);
    let where_warm = sweep(trace, "probe.query.where_warm", &single, 0, false);
    let when_cold = sweep(trace, "probe.query.when_cold", &single, 1, true);
    let when_warm = sweep(trace, "probe.query.when_warm", &single, 1, false);
    v.push(("query.where_warm_ns", where_warm));
    v.push(("query.when_warm_ns", when_warm));
    v.push(("query.where_cold_ns", where_cold));
    v.push(("query.when_cold_ns", when_cold));
    sweep(trace, "probe.shard.where_cold", &sharded, 0, true);
    let sharded_where_warm = sweep(trace, "probe.shard.where_warm", &sharded, 0, false);
    v.push(("shard.where_route_ns", sharded_where_warm - where_warm));

    let parsed_ranges: Vec<_> = range_lines.iter().map(|l| sut::parse_request(l)).collect();
    let range_sweep = |trace: &mut Trace, name: &'static str, opened: &sut::Opened| {
        sut::clear_cache(opened);
        let mut ids = 0usize;
        let ((), secs) = span_secs(trace, name, || {
            for p in &parsed_ranges {
                ids += sut::execute(opened, p);
            }
        });
        (secs * 1e6 / parsed_ranges.len() as f64, ids)
    };
    let (range_cold_us, ids) = range_sweep(trace, "probe.query.range_cold", &single);
    let (sharded_range_us, sharded_ids) = range_sweep(trace, "probe.shard.range_cold", &sharded);
    v.push(("query.range_cold_us", range_cold_us));
    // Seen from outside: stored trajectories per id a range returns.
    v.push((
        "query.range_candidates_per_hit",
        (base_n * parsed_ranges.len()) as f64 / ids.max(1) as f64,
    ));
    v.push(("shard.range_fanout_us", sharded_range_us - range_cold_us));
    attempted += 1;
    failed += u64::from(ids != sharded_ids);
    drop(sharded);

    // wire: parse alone, the whole executor, and what is left between.
    let n_lines = lines.len();
    // The three sweeps alternate (parse, exec, handle, parse, …) and
    // what is left between them is taken round by round: the check
    // below compares them, and the host's speed can change by a third
    // between one block of sweeps and the next.
    let (mut parse_secs, mut exec_secs, mut handle_secs) = (Vec::new(), Vec::new(), Vec::new());
    for p in &parsed {
        // Untimed: the cold sweeps above touched only half the lines.
        std::hint::black_box(sut::execute(&single, p));
    }
    for _ in 0..3 * reps {
        parse_secs.push(
            span_secs(trace, "probe.wire.parse_request", || {
                for l in &lines {
                    std::hint::black_box(sut::parse_request(l));
                }
            })
            .1,
        );
        exec_secs.push(
            span_secs(trace, "probe.query.exec_warm", || {
                for p in &parsed {
                    std::hint::black_box(sut::execute(&single, p));
                }
            })
            .1,
        );
        handle_secs.push(
            span_secs(trace, "probe.wire.handle_line", || {
                for l in &lines {
                    std::hint::black_box(sut::handle_line(&single, l));
                }
            })
            .1,
        );
    }
    let left_secs: Vec<f64> = (0..handle_secs.len())
        .map(|i| handle_secs[i] - parse_secs[i] - exec_secs[i])
        .collect();
    let parse_ns = per(stats::median(&parse_secs), n_lines);
    let handle_ns = per(stats::median(&handle_secs), n_lines);
    let left_ns = per(stats::median(&left_secs), n_lines);
    v.push(("wire.parse_request_ns", parse_ns));
    v.push(("wire.handle_line_ns", handle_ns));
    v.push(("serve.transport_us", rtt_p50 - handle_ns / 1e3));
    v.push(("wire.serialize_dispatch_ns", left_ns));
    // The executor cannot be cheaper than its parts.
    attempted += 1;
    if left_ns < 0.0 {
        println!(
            "FAILED check: handle_line is {:.0} ns cheaper than parse + exec (median of {} rounds)",
            -left_ns,
            left_secs.len()
        );
        failed += 1;
    }
    let reply_bytes: usize = set.iter().map(|e| e.expected.len()).sum();
    v.push((
        "wire.reply_bytes_per_op",
        reply_bytes as f64 / n_lines as f64,
    ));
    let replies: Vec<_> = set
        .iter()
        .map(|e| sut::json_parse(std::str::from_utf8(&e.expected).expect("utf-8 reply")))
        .collect();
    let mut out = String::with_capacity(1 << 12);
    let secs = median_secs(trace, "probe.wire.json_write", reps, || {
        for r in &replies {
            out.clear();
            sut::json_write(r, &mut out);
        }
    });
    v.push(("wire.json_write_ns", per(secs, n_lines)));
    drop(replies);
    let ingest_lines = live::ingest_requests(&arriving);
    let secs = median_secs(trace, "probe.wire.parse_ingest", reps.min(3), || {
        for l in &ingest_lines {
            let text = std::str::from_utf8(&l[..l.len() - 1]).expect("utf-8 line");
            std::hint::black_box(sut::parse_request(text));
        }
    });
    v.push((
        "wire.parse_ingest_us_per_traj",
        secs * 1e6 / (n_ingest * INGEST_BATCH) as f64,
    ));
    drop(single);

    // --- bitio: the codecs on the corpus's own values ---------------
    let devs: Vec<i64> = base
        .iter()
        .flat_map(|t| t.times.windows(2).map(move |w| w[1] - w[0] - interval))
        .collect();
    let rds: Vec<f64> = base
        .iter()
        .flat_map(|t| t.instances.iter())
        .flat_map(|i| i.positions.iter().map(|p| p.rd))
        .collect();
    // The paper's 17-bit second-of-day timestamps.
    let secs_of_day: Vec<u64> = base
        .iter()
        .flat_map(|t| t.times.iter().map(|t| t.rem_euclid(86_400) as u64))
        .collect();
    let buf = sut::golomb_encode(&devs);
    v.push((
        "bitio.golomb_encode_ns",
        per(
            median_secs(trace, "probe.bitio.golomb_encode", reps, || {
                sut::golomb_encode(&devs)
            }),
            devs.len(),
        ),
    ));
    v.push((
        "bitio.golomb_decode_ns",
        per(
            median_secs(trace, "probe.bitio.golomb_decode", reps, || {
                sut::golomb_decode(&buf, devs.len())
            }),
            devs.len(),
        ),
    ));
    let buf = sut::pddp_encode(&rds);
    v.push((
        "bitio.pddp_encode_ns",
        per(
            median_secs(trace, "probe.bitio.pddp_encode", reps, || {
                sut::pddp_encode(&rds)
            }),
            rds.len(),
        ),
    ));
    v.push((
        "bitio.pddp_decode_ns",
        per(
            median_secs(trace, "probe.bitio.pddp_decode", reps, || {
                sut::pddp_decode(&buf, rds.len())
            }),
            rds.len(),
        ),
    ));
    let buf = sut::write_bits(&secs_of_day, 17);
    v.push((
        "bitio.write_bits_ns",
        per(
            median_secs(trace, "probe.bitio.write_bits", reps, || {
                sut::write_bits(&secs_of_day, 17)
            }),
            secs_of_day.len(),
        ),
    ));
    v.push((
        "bitio.read_bits_ns",
        per(
            median_secs(trace, "probe.bitio.read_bits", reps, || {
                sut::read_bits(&buf, secs_of_day.len(), 17)
            }),
            secs_of_day.len(),
        ),
    ));

    // --- siar ---------------------------------------------------------
    let points: usize = base.iter().map(|t| t.times.len()).sum();
    let encoded: Vec<_> = base
        .iter()
        .map(|t| sut::siar_encode(&t.times, interval))
        .collect();
    let secs = median_secs(trace, "probe.siar.encode", reps, || {
        for t in base {
            std::hint::black_box(sut::siar_encode(&t.times, interval));
        }
    });
    v.push(("siar.encode_ns_per_point", per(secs, points)));
    let secs = median_secs(trace, "probe.siar.decode", reps, || {
        for (t, buf) in base.iter().zip(&encoded) {
            std::hint::black_box(sut::siar_decode(buf, t.times.len(), interval));
        }
    });
    v.push(("siar.decode_ns_per_point", per(secs, points)));
    drop(encoded);

    // --- compress / decompress / stiu / plan -------------------------
    let (cds, secs) = span_secs(trace, "probe.compress.dataset", || {
        sut::compress_dataset(&corpus.net, &dataset)
    });
    v.push(("compress.dataset_trajs_per_s", base_n as f64 / secs));
    v.push((
        "compress.bits_per_traj",
        sut::compressed_bits(&cds) as f64 / base_n as f64,
    ));
    let (back, secs) = span_secs(trace, "probe.decompress.dataset", || {
        sut::decompress_dataset(&corpus.net, &cds)
    });
    v.push(("decompress.trajs_per_s", base_n as f64 / secs));
    let violations = sut::roundtrip_violations(base.iter(), &back.trajectories);
    v.push(("decompress.roundtrip_violations", violations as f64));
    attempted += base_n as u64;
    failed += violations;
    drop(back);
    let (index, secs) = span_secs(trace, "probe.stiu.build", || {
        sut::stiu_build(&corpus.net, &dataset, &cds)
    });
    v.push(("stiu.build_trajs_per_s", base_n as f64 / secs));
    v.push((
        "stiu.bytes_per_traj",
        sut::stiu_bytes(&index, &cds) as f64 / base_n as f64,
    ));
    drop(index);
    let secs = median_secs(trace, "probe.plan.build", reps, || sut::build_plans(&cds));
    v.push(("plan.build_ns_per_traj", per(secs, base_n)));
    drop(cds);

    // --- wal, as a bare log --------------------------------------------
    let records: Vec<_> = arriving
        .iter()
        .enumerate()
        .map(|(k, b)| sut::wal_record(k as u64 + 1, b))
        .collect();
    let arriving_raw: u64 = arriving
        .iter()
        .map(|b| sut::raw_bytes(&b.trajectories))
        .sum();
    let wal_path = cfg.scratch_file("probe.wal");
    let append_us = |trace: &mut Trace, name: &'static str, fsync: bool| {
        let _ = std::fs::remove_file(&wal_path);
        let (mut wal, _) = sut::wal_open(&wal_path, fsync);
        let mut us: Vec<f64> = records
            .iter()
            .map(|r| span_secs(trace, name, || wal.append(r)).1 * 1e6)
            .collect();
        stats::percentile(&mut us, 0.5)
    };
    v.push((
        "wal.append_nosync_us",
        append_us(trace, "probe.wal.append_nosync", false),
    ));
    v.push((
        "wal.append_fsync_us",
        append_us(trace, "probe.wal.append_fsync", true),
    ));
    v.push((
        "wal.bytes_per_raw_byte",
        crate::method::file_len(&wal_path) as f64 / arriving_raw as f64,
    ));
    let ((_, replayed), secs) = span_secs(trace, "probe.wal.replay", || {
        sut::wal_open(&wal_path, false)
    });
    v.push(("wal.replay_trajs_per_s", replayed as f64 / secs));
    attempted += 1;
    failed += u64::from(replayed != n_ingest * INGEST_BATCH);
    drop(records);

    // --- publish: live ingest with no log and no server ---------------
    let live = sut::open(&single_path);
    let copied_before = sut::copied_bytes();
    let mut publish_us: Vec<f64> = arriving
        .iter()
        .map(|b| span_secs(trace, "probe.publish.ingest", || sut::ingest(&live, b)).1 * 1e6)
        .collect();
    let copied = sut::copied_bytes() - copied_before;
    v.push((
        "publish.ingest_us_per_batch",
        stats::percentile(&mut publish_us, 0.5),
    ));
    v.push((
        "publish.copied_bytes_per_batch",
        copied as f64 / n_ingest as f64,
    ));
    drop(live);

    // --- the whole write path: a small `live_ingest_mixed` pass -------
    let mut pass = live::ingest_pass(
        &LiveInputs {
            base_path: &single_path,
            base_len: base_n,
            ingest_lines: &ingest_lines,
            reads: &set,
            read_order: &order,
        },
        &wal_path,
        trace,
        0,
    );
    attempted += pass.attempted;
    failed += pass.failed;
    v.push((
        "ingest.ack_p50_us",
        stats::percentile(&mut pass.ack_us, 0.5),
    ));
    v.push((
        "ingest.ack_p99_us",
        stats::percentile_sorted(&pass.ack_us, 0.99),
    ));
    v.push((
        "read_under_ingest.p99_us",
        stats::percentile(&mut pass.read_us, 0.99),
    ));
    v.push(("cache.hit_rate_under_ingest", pass.cache.hit_rate()));
    Probes {
        values: v,
        attempted,
        failed,
    }
}

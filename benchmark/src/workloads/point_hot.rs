//! `serve_point_hot`: point reads whose working set fits the cache.
//!
//! 4,096 distinct `where`/`when` lines over 1,024 trajectories against
//! a 20k-trajectory single store with a 64 MiB decode cache, served by
//! one worker to one connection. The engine answers in well under a
//! microsecond, so the round trip is wire, conn, poll and syscalls.

use std::sync::Arc;

use super::{check_precondition, exchanges, opens_in_a_row, raw_bytes, Measured, ServedReads, MIB};
use crate::method::{self, Config};
use crate::report::Outcome;
use crate::trace::Trace;
use crate::{inputs, sut};

/// Outstanding requests in the throughput part.
const WINDOW: usize = 32;
/// Lowest cache hit rate this workload may run at.
const MIN_HIT_RATE: f64 = 0.95;

struct PointSetup {
    served: Arc<sut::Opened>,
    lines: Vec<String>,
    raw_bytes: u64,
    inputs_sha: String,
}

/// Generates the inputs, builds and saves the store, opens it to serve.
fn setup(cfg: &Config, n: usize, path: &std::path::Path) -> PointSetup {
    let mut corpus = sut::corpus(n);
    let batches = inputs::arrival_batches(&mut corpus, cfg.seed, 1_000);
    let store = sut::build_single(&corpus, &batches, 64 * MIB);
    sut::store_save(&store, path);
    drop(store);
    let served = Arc::new(sut::open(path));
    sut::set_cache_bytes(&served, 64 * MIB);
    let pool: Vec<&sut::UncertainTrajectory> = inputs::trajectories(&batches).collect();
    let lines = inputs::point_lines(
        &pool,
        cfg.size(1_024, 128),
        cfg.size(4_096, 512),
        &mut inputs::rng(cfg.seed, "points"),
    );
    PointSetup {
        served,
        raw_bytes: raw_bytes(&batches),
        inputs_sha: inputs::sha(&batches, &[&lines]),
        lines,
    }
}

pub fn run(cfg: &Config, trace: &mut Trace) -> Outcome {
    let n = cfg.size(20_000, 1_500);
    let path = cfg.scratch_file("point.utcq");
    let (s, setup_secs) = method::repeat_setup(cfg.setup_reps(5), || setup(cfg, n, &path));
    let set = exchanges(&sut::open(&path), &s.lines);
    let order_tput = inputs::draw(
        set.len(),
        cfg.size(120_000, 8_000),
        &mut inputs::rng(cfg.seed, "order.throughput"),
    );
    let order_lat = inputs::draw(
        set.len(),
        cfg.size(20_000, 1_500),
        &mut inputs::rng(cfg.seed, "order.latency"),
    );

    let reads = ServedReads {
        served: &s.served,
        lines: &s.lines,
        set: &set,
        order_tput: &order_tput,
        order_lat: &order_lat,
        window: WINDOW,
        workers: 1,
        cold: false,
    };
    let (mut phase, cache) = reads.run(cfg, trace);
    let open_rates = opens_in_a_row(cfg, &path);
    // The precondition that makes this the workload it claims to be.
    check_precondition(
        &mut phase,
        cache.hit_rate() >= MIN_HIT_RATE,
        &format!("cache hit rate {:.4} < {MIN_HIT_RATE}", cache.hit_rate()),
    );

    let passes = phase.passes.len();
    Measured {
        workload: "serve_point_hot",
        setup_secs,
        ops_per_pass: order_tput.len() as f64,
        open_rates,
        compression_ratio: sut::compression_ratio(&s.served),
        stored_bytes: method::file_len(&path),
        raw_bytes: s.raw_bytes,
        cache,
        cache_ops: (reads.ops_per_pass() * (passes + phase.traced.len())) as f64,
        check_additivity: true,
        context: vec![
            ("inputs_sha256", s.inputs_sha),
            ("trajectories", n.to_string()),
            ("distinct_lines", set.len().to_string()),
            ("window", WINDOW.to_string()),
            ("server_workers", "1".into()),
            ("cache_hit_rate", format!("{:.4}", cache.hit_rate())),
            ("latency_sample", "depth-1 round trip".into()),
            ("passes", passes.to_string()),
        ],
        phase,
    }
    .report(cfg, trace)
}

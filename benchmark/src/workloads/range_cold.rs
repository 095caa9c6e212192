//! `serve_range_cold`: a working set far larger than the cache.
//!
//! 100k trajectories in 4 `ByTime` shards (a v3 container well above
//! the parallel-open threshold), an 8 MiB decode cache cleared before
//! every pass, and a request mix that is 70 % `range`. Time goes to
//! StIU postings, partial decode, probability pruning, shard fan-out
//! and cache miss + evict; transport is a rounding error.

use std::sync::Arc;
use std::time::Instant;

use super::{check_precondition, exchanges, opens_in_a_row, raw_bytes, Measured, ServedReads, MIB};
use crate::method::{self, Config};
use crate::report::Outcome;
use crate::trace::Trace;
use crate::{inputs, sut, sys};

const SHARDS: u32 = 4;
const CACHE_BYTES: usize = 8 * MIB;
const WINDOW: usize = 4;
/// Highest cache hit rate this workload may run at.
const MAX_HIT_RATE: f64 = 0.30;

pub fn run(cfg: &Config, trace: &mut Trace) -> Outcome {
    let n = cfg.size(100_000, 3_000);
    let n_tput = cfg.size(600, 150);
    let n_lat = cfg.size(150, 30);
    let path = cfg.scratch_file("range.utcq");
    let ((lines, raw_bytes, inputs_sha), setup_secs) =
        method::repeat_setup(cfg.setup_reps(3), || {
            let mut corpus = sut::corpus(n);
            let extent = sut::extent(&corpus.net);
            let batches = inputs::arrival_batches(&mut corpus, cfg.seed, 1_000);
            sut::build_sharded_to(&corpus, &batches, SHARDS, CACHE_BYTES, &path);
            let pool: Vec<&sut::UncertainTrajectory> = inputs::trajectories(&batches).collect();
            let lines = inputs::range_mix_lines(
                extent,
                &pool,
                n_tput + n_lat,
                &mut inputs::rng(cfg.seed, "range-mix"),
            );
            // The trajectories are dropped here, before the store is
            // opened, so peak memory is the larger of building and
            // serving, not their sum.
            let sha = inputs::sha(&batches, &[&lines]);
            (lines, raw_bytes(&batches), sha)
        });
    // The store is opened once, after the repetitions, and the open's
    // seconds are added to each of them: every parallel open leaves a
    // different amount of memory retained by the allocator behind
    // (`NOISE.md`), and repeating it here would carry that into
    // `peak_rss_mb`.
    let t = Instant::now();
    let served = Arc::new(sut::open(&path));
    let open_secs = t.elapsed().as_secs_f64();
    let setup_secs: Vec<f64> = setup_secs.iter().map(|s| s + open_secs).collect();
    sut::set_cache_bytes(&served, CACHE_BYTES);
    let set = exchanges(&sut::open(&path), &lines);
    // Every distinct request once per pass: first the windowed part,
    // then the depth-1 part.
    let order_tput: Vec<u32> = (0..n_tput as u32).collect();
    let order_lat: Vec<u32> = (n_tput as u32..(n_tput + n_lat) as u32).collect();

    let workers = sys::nproc();
    let reads = ServedReads {
        served: &served,
        lines: &lines,
        set: &set,
        order_tput: &order_tput,
        order_lat: &order_lat,
        window: WINDOW,
        workers,
        cold: true,
    };
    let (mut phase, cache) = reads.run(cfg, trace);
    let open_rates = opens_in_a_row(cfg, &path);
    check_precondition(
        &mut phase,
        cache.hit_rate() <= MAX_HIT_RATE,
        &format!("cache hit rate {:.4} > {MAX_HIT_RATE}", cache.hit_rate()),
    );

    let passes = phase.passes.len();
    Measured {
        workload: "serve_range_cold",
        setup_secs,
        ops_per_pass: n_tput as f64,
        open_rates,
        compression_ratio: sut::compression_ratio(&served),
        stored_bytes: method::file_len(&path),
        raw_bytes,
        cache,
        cache_ops: (reads.ops_per_pass() * (passes + phase.traced.len())) as f64,
        check_additivity: false,
        context: vec![
            ("inputs_sha256", inputs_sha),
            ("trajectories", n.to_string()),
            ("shards", SHARDS.to_string()),
            ("cache_bytes", CACHE_BYTES.to_string()),
            ("distinct_lines", set.len().to_string()),
            ("window", WINDOW.to_string()),
            ("server_workers", workers.to_string()),
            ("cache_hit_rate", format!("{:.4}", cache.hit_rate())),
            ("latency_sample", "depth-1 round trip".into()),
            ("passes", passes.to_string()),
        ],
        phase,
    }
    .report(cfg, trace)
}

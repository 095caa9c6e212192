//! `bulk_compress`: the offline archive job, the paper's core use.
//!
//! A pass builds a fresh store from 80 batches of 1,000 trajectories,
//! writes the container to memory, reopens it and decompresses every
//! trajectory. Throughput counts the build part only; the rest of the
//! pass is there to check the output (container bytes identical across
//! passes, lossy round trip within `ηD`/`ηp`) and to give the trace its
//! `storage` and `decompress` spans.

use std::time::Instant;

use super::Measured;
use crate::method::{self, timed, Config, Pass};
use crate::report::Outcome;
use crate::trace::{Trace, NONE};
use crate::{inputs, stats, sut};

pub fn run(cfg: &Config, trace: &mut Trace) -> Outcome {
    let n = cfg.size(80_000, 2_000);
    let batch_size = cfg.size(1_000, 100);
    let ((corpus, batches), setup_secs) = method::repeat_setup(cfg.setup_reps(5), || {
        let mut corpus = sut::corpus(n);
        let batches = inputs::arrival_batches(&mut corpus, cfg.seed, batch_size);
        (corpus, batches)
    });
    let inputs_sha = inputs::sha(&batches, &[]);
    let raw_bytes = super::raw_bytes(&batches);
    let path = cfg.scratch_file("bulk.utcq");

    let mut first_container: Option<Vec<u8>> = None;
    let mut ratio = 0.0;
    let mut cache = sut::CacheCounters::default();
    let mut open_rates = Vec::new();
    let phase = method::run_passes(cfg, |number, traced| {
        trace.set_on(traced);
        let root = trace.begin("pass", number, NONE);
        let mut ingest_us = Vec::with_capacity(batches.len());
        let (store, secs, cpu_secs) = timed(|| {
            let mut b = sut::builder(&corpus);
            for (i, batch) in batches.iter().enumerate() {
                let t = Instant::now();
                b = trace.span("store.ingest", i as u32, root, || {
                    sut::builder_ingest(b, batch)
                });
                ingest_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            trace.span("store.finish", number, root, || sut::builder_finish(b))
        });
        let bytes = trace.span("storage.write", number, root, || sut::store_bytes(&store));
        drop(store);
        std::fs::write(&path, &bytes).expect("write the container");
        let (reopened, rate) = method::open_rates(bytes.len() as u64, 1, || {
            trace.span("storage.open", number, root, || sut::open(&path))
        });
        if number > 0 && !traced {
            open_rates.extend(rate);
        }
        let back = trace.span("decompress.dataset", number, root, || {
            sut::decompress_opened(&reopened)
        });
        trace.end(root);
        trace.set_on(false);

        let violations = sut::roundtrip_violations(inputs::trajectories(&batches), &back);
        let identical = match &first_container {
            Some(first) => *first == bytes,
            None => {
                first_container = Some(bytes);
                true
            }
        };
        ratio = sut::compression_ratio(&reopened);
        cache = sut::cache_counters(&reopened);
        Pass {
            secs,
            cpu_secs,
            latency_p50_us: stats::percentile(&mut ingest_us, 0.5),
            latency_samples: batches.len(),
            // One op per trajectory (compressed, indexed, round-tripped)
            // plus one for the container's byte identity.
            attempted: n as u64 + 1,
            failed: violations + u64::from(!identical),
        }
    });

    let stored_bytes = method::file_len(&path);
    Measured {
        workload: "bulk_compress",
        setup_secs,
        ops_per_pass: n as f64,
        open_rates,
        compression_ratio: ratio,
        stored_bytes,
        raw_bytes,
        cache,
        cache_ops: n as f64,
        check_additivity: false,
        context: vec![
            ("inputs_sha256", inputs_sha),
            ("trajectories", n.to_string()),
            ("batches", batches.len().to_string()),
            (
                "latency_sample",
                format!("one {batch_size}-trajectory StoreBuilder::ingest"),
            ),
            ("passes", phase.passes.len().to_string()),
        ],
        phase,
    }
    .report(cfg, trace)
}

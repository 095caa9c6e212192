//! The four workloads and what they share: turning request lines into
//! checked exchanges, replaying served requests in process for the
//! trace, and assembling the eight end-to-end metrics.

pub mod bulk;
pub mod live;
pub mod point_hot;
pub mod range_cold;

use std::path::Path;
use std::sync::Arc;

use crate::client::{self, Conn, Exchange};
use crate::layers;
use crate::method::{self, timed, Config, Pass, Phase};
use crate::report::{self, Metric, Outcome};
use crate::stats::Summary;
use crate::sut::{self, CacheCounters, Opened};
use crate::trace::{SpanId, Trace, NONE};
use crate::{stats, sys};

pub const MIB: usize = 1024 * 1024;

pub fn run(workload: &str, cfg: &Config) -> Outcome {
    let mut trace = Trace::new(std::time::Instant::now(), cfg.size(400_000, 40_000));
    let outcome = match workload {
        "bulk_compress" => bulk::run(cfg, &mut trace),
        "serve_point_hot" => point_hot::run(cfg, &mut trace),
        "serve_range_cold" => range_cold::run(cfg, &mut trace),
        "live_ingest_mixed" => live::run(cfg, &mut trace),
        other => panic!("unknown workload '{other}'"),
    };
    if cfg.trace {
        let path = cfg.out.join(format!("trace-{workload}.json"));
        trace
            .write_json(&path, workload)
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        print!("{}", render_layers(&trace));
        println!(
            "trace: {} spans ({} dropped) -> {}",
            trace.spans().len(),
            trace.dropped(),
            path.display()
        );
    }
    outcome
}

/// The self-time table derived from the spans.
fn render_layers(trace: &Trace) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "  span                          count     total_ms      self_ms   self_us/span\n",
    );
    for (name, l) in trace.layers() {
        let _ = writeln!(
            out,
            "  {name:<26} {:>8} {:>12.3} {:>12.3} {:>14.3}",
            l.count,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            l.self_ns as f64 / 1e3 / l.count.max(1) as f64
        );
    }
    out
}

/// MB/s of `Opened::open` calls in a row on the container the served
/// read workloads serve, made once the passes are over (so that they
/// add nothing to `peak_rss_mb`).
pub fn opens_in_a_row(cfg: &Config, path: &Path) -> Vec<f64> {
    method::open_rates(method::file_len(path), cfg.size(7, 2), || sut::open(path)).1
}

/// Pairs every request line with the reply `wire::handle_line` gives on
/// `reference` — a second `Opened` of the container being served — on
/// up to `nproc` threads. Answers do not depend on cache state.
pub fn exchanges(reference: &Opened, lines: &[String]) -> Vec<Exchange> {
    let threads = sys::nproc().min(lines.len()).max(1);
    let chunk = lines.len().div_ceil(threads);
    let mut out = Vec::with_capacity(lines.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = lines
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|line| Exchange {
                            request: line.as_bytes().to_vec(),
                            expected: sut::handle_line(reference, line).into_bytes(),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("expected-reply thread"));
        }
    });
    out
}

/// The timed phase the two served read workloads share: one connection
/// to an in-process server, every pass a windowed closed loop
/// (throughput, CPU) then a depth-1 loop (latency).
pub struct ServedReads<'a> {
    pub served: &'a Arc<Opened>,
    pub lines: &'a [String],
    pub set: &'a [Exchange],
    pub order_tput: &'a [u32],
    pub order_lat: &'a [u32],
    pub window: usize,
    pub workers: usize,
    /// Clear the decode cache before every pass and replay sweep.
    pub cold: bool,
}

impl ServedReads<'_> {
    pub fn ops_per_pass(&self) -> usize {
        self.order_tput.len() + self.order_lat.len()
    }

    /// Runs the passes; returns them with the decode-cache activity of
    /// the measured ones. Under `--trace` the latency lines of the last
    /// traced pass are then replayed in process ([`replay_chain`]).
    pub fn run(&self, cfg: &Config, trace: &mut Trace) -> (Phase, CacheCounters) {
        let server = sut::serve(Arc::clone(self.served), self.workers, false);
        let mut conn = Conn::connect(server.addr);
        let mut cache_before = CacheCounters::default();
        let mut last_rtt_base = 0usize;
        let phase = method::run_passes(cfg, |number, traced| {
            if number == 1 {
                cache_before = sut::cache_counters(self.served);
            }
            if self.cold {
                sut::clear_cache(self.served);
            }
            let ((_, failed_tput), secs, cpu_secs) =
                timed(|| client::run_windowed(&mut conn, self.set, self.order_tput, self.window));
            trace.set_on(traced);
            let root = trace.begin("pass", number, NONE);
            if traced {
                last_rtt_base = trace.spans().len();
            }
            let mut rtt_us = Vec::with_capacity(self.order_lat.len());
            let failed_lat = client::run_depth1(
                &mut conn,
                self.set,
                self.order_lat,
                &mut rtt_us,
                trace,
                root,
            );
            trace.end(root);
            trace.set_on(false);
            Pass {
                secs,
                cpu_secs,
                latency_p50_us: stats::percentile(&mut rtt_us, 0.5),
                latency_samples: self.order_lat.len(),
                attempted: self.ops_per_pass() as u64,
                failed: failed_tput + failed_lat,
            }
        });
        let cache = sut::cache_counters(self.served).since(cache_before);
        drop(conn);
        server.stop();
        if cfg.trace {
            let replayed = self.order_lat.len().min(self.set.len());
            let lines: Vec<&str> = self.order_lat[..replayed]
                .iter()
                .map(|&i| self.lines[i as usize].as_str())
                .collect();
            let parents: Vec<SpanId> = (0..replayed)
                .map(|i| (last_rtt_base + i) as SpanId)
                .collect();
            replay_chain(self.served, &lines, self.cold, trace, &parents);
        }
        (phase, cache)
    }
}

/// Counts a workload's cache precondition as one more operation.
pub fn check_precondition(phase: &mut Phase, holds: bool, what: &str) {
    phase.attempted += 1;
    if !holds {
        println!("FAILED precondition: {what}");
        phase.failed += 1;
    }
}

/// Uncompressed bytes of every trajectory in `batches`.
pub fn raw_bytes<'a>(batches: impl IntoIterator<Item = &'a sut::Dataset>) -> u64 {
    batches
        .into_iter()
        .map(|b| sut::raw_bytes(&b.trajectories))
        .sum()
}

/// Attributes served requests by replaying them in process:
/// `wire.handle_line` per line, then `wire.parse_request` and the
/// direct `query.exec` as separate calls charged to it. `parents[i]`
/// is the `serve.rtt` span of the same request, so the round trip's
/// self time is transport. `cold` clears the decode cache before each
/// sweep (the range workload's state); otherwise the cache is as the
/// passes left it.
pub fn replay_chain(
    opened: &Opened,
    lines: &[&str],
    cold: bool,
    trace: &mut Trace,
    parents: &[SpanId],
) {
    trace.set_on(true);
    if cold {
        sut::clear_cache(opened);
    }
    let handles: Vec<SpanId> = lines
        .iter()
        .enumerate()
        .map(|(i, line)| {
            let parent = parents.get(i).copied().unwrap_or(NONE);
            let id = trace.begin("wire.handle_line", i as u32, parent);
            std::hint::black_box(sut::handle_line(opened, line));
            trace.end(id);
            id
        })
        .collect();
    if cold {
        sut::clear_cache(opened);
    }
    for (i, line) in lines.iter().enumerate() {
        let id = trace.begin("wire.parse_request", i as u32, handles[i]);
        let parsed = sut::parse_request(line);
        trace.end(id);
        let id = trace.begin("query.exec", i as u32, handles[i]);
        std::hint::black_box(sut::execute(opened, &parsed));
        trace.end(id);
    }
    trace.set_on(false);
}

/// What a workload hands over to be reported, besides its passes.
pub struct Measured {
    pub workload: &'static str,
    pub setup_secs: Vec<f64>,
    pub phase: Phase,
    /// Fixed number of throughput ops in one pass.
    pub ops_per_pass: f64,
    /// MB/s of every `Opened::open` (`open_durable` on the live
    /// workload) of the workload's own saved container.
    pub open_rates: Vec<f64>,
    pub compression_ratio: f64,
    pub stored_bytes: u64,
    pub raw_bytes: u64,
    /// Decode-cache activity over the measured passes.
    pub cache: CacheCounters,
    /// Requests behind `cache` (for evictions per thousand ops).
    pub cache_ops: f64,
    /// Whether the traced run must find `latency_p50_us` within 10 % of
    /// the probes' `serve.transport_us` + `wire.handle_line_ns` (the
    /// point workload: its round trip is transport plus the executor,
    /// nothing else).
    pub check_additivity: bool,
    pub context: Vec<(&'static str, String)>,
}

impl Measured {
    /// [`report::WORKLOAD_METRICS`], from the untraced passes.
    fn workload_metrics(&self) -> Vec<Metric> {
        let passes = self.phase.passes.len();
        vec![
            metric("setup_s", Summary::of(&self.setup_secs), 0),
            metric(
                "throughput_per_s",
                self.phase.throughput(self.ops_per_pass),
                passes,
            ),
            metric(
                "latency_p50_us",
                self.phase.latency_p50_us(),
                self.phase.latency_samples(),
            ),
            metric(
                "cpu_us_per_op",
                self.phase.cpu_us_per_op(self.ops_per_pass),
                passes,
            ),
            metric(
                "compression_ratio",
                Summary::exact(self.compression_ratio),
                0,
            ),
            metric(
                "stored_bytes_per_raw_byte",
                Summary::exact(self.stored_bytes as f64 / self.raw_bytes as f64),
                0,
            ),
            metric(
                "open_mb_per_s",
                Summary::of(&self.open_rates),
                self.open_rates.len(),
            ),
            metric("peak_rss_mb", Summary::exact(self.phase.peak_rss_mb), 0),
        ]
    }

    /// The untraced run reports the workload metrics. The traced run
    /// reports the ungated ones among them (from its untraced passes;
    /// gated numbers only ever come from untraced runs), the layer
    /// probes, this workload's cache counters and the tracing overhead.
    pub fn report(self, cfg: &Config, trace: &mut Trace) -> Outcome {
        let mut metrics = self.workload_metrics();
        let mut attempted = self.phase.attempted;
        let mut failed = self.phase.failed;
        let mut context = self.context;
        if cfg.trace {
            metrics.retain(|m| report::tables().gated(m.name).is_none());
            let probes = layers::probe(cfg, trace);
            attempted += probes.attempted;
            failed += probes.failed;
            let probed = |name: &str| {
                let found = probes.values.iter().find(|(n, _)| *n == name);
                found.expect("probe metric").1
            };
            if self.check_additivity {
                // Two independent measurements: the depth-1 round trip
                // of this workload's untraced passes against transport
                // + executor as the probes measured them on a server
                // and connection of their own. Reported, not counted
                // as a failed operation: in the sandbox the benchmark
                // was built in the two differ by 5–12 % from run to
                // run (`NOISE.md`), and a run must not fail at random.
                let latency = self.phase.latency_p50_us().value;
                let sum = probed("serve.transport_us") + probed("wire.handle_line_ns") / 1e3;
                let gap = (latency - sum).abs() / latency;
                println!(
                    "additivity {}: latency_p50_us {latency:.3} vs serve.transport_us + wire.handle_line_ns = {sum:.3} us ({:.1} % apart, criterion 10 %)",
                    if gap <= 0.10 { "holds" } else { "NOT MET" },
                    gap * 100.0
                );
                context.push(("additivity_gap", format!("{gap:.4}")));
            }
            let kops = (self.cache_ops / 1e3).max(1e-9);
            metrics.extend(
                probes
                    .values
                    .into_iter()
                    .map(|(name, v)| metric(name, Summary::exact(v), 0)),
            );
            metrics.extend([
                metric("cache.hit_rate", Summary::exact(self.cache.hit_rate()), 0),
                metric(
                    "cache.evictions_per_kop",
                    Summary::exact(self.cache.evictions as f64 / kops),
                    0,
                ),
                metric("cache.bytes", Summary::exact(self.cache.bytes as f64), 0),
                metric(
                    "trace.overhead_pct",
                    Summary::exact(self.phase.trace_overhead_pct()),
                    self.phase.traced.len(),
                ),
            ]);
        }
        Outcome {
            workload: self.workload,
            attempted,
            failed,
            metrics,
            context,
        }
    }
}

pub fn metric(name: &'static str, value: Summary, samples: usize) -> Metric {
    Metric {
        name,
        value,
        samples,
    }
}

//! The method every workload shares: repeated set-up, one discarded
//! warm-up pass, then P passes of identical fixed work, every timing
//! reported as the median over passes.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::stats::Summary;
use crate::sys;

/// Fewest and most measured passes. `--seconds` picks P in between from
/// the warm-up pass's duration; the work per pass never changes.
pub const MIN_PASSES: usize = 5;
pub const MAX_PASSES: usize = 9;

pub struct Config {
    pub seed: u64,
    /// Budget of the timed phase in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke sizes: seconds instead of minutes, never compared.
    pub quick: bool,
    /// Where `trace-<workload>.json` goes.
    pub out: PathBuf,
    /// Private directory for containers and logs, removed at exit.
    pub scratch: PathBuf,
}

impl Config {
    /// `full` normally, `quick` under `--quick`.
    pub fn size(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Set-up repetitions behind `setup_s`: `full` in a measured run,
    /// one where the metric is not reported (traced) or not compared.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.quick || self.trace {
            1
        } else {
            full
        }
    }

    pub fn scratch_file(&self, name: &str) -> PathBuf {
        self.scratch.join(name)
    }
}

/// Runs the set-up `reps` times (each result dropped before the next is
/// built, so peak memory is one set-up's) and returns the last result
/// with the per-repetition seconds.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), secs)
}

/// What one pass measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    /// Seconds of the throughput part (fixed work).
    pub secs: f64,
    /// Process CPU seconds spent in the throughput part.
    pub cpu_secs: f64,
    /// p50 of the pass's latency sample, µs.
    pub latency_p50_us: f64,
    /// Size of that latency sample.
    pub latency_samples: usize,
    pub attempted: u64,
    pub failed: u64,
}

/// Times `f` on the wall and on the process CPU clock.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    (out, secs, sys::cpu_seconds() - cpu0)
}

pub struct Phase {
    /// `VmHWM` (MB) when the warm-up pass ended: what set-up and one
    /// complete pass need. The measured passes repeat that work, and
    /// what the allocator retains from one repetition to the next
    /// ratchets the high-water mark up by an amount that differs from
    /// run to run (`NOISE.md`).
    pub peak_rss_mb: f64,
    /// Untraced measured passes, in order.
    pub passes: Vec<Pass>,
    /// Traced passes (only under `--trace`), interleaved with the above.
    pub traced: Vec<Pass>,
    pub attempted: u64,
    pub failed: u64,
}

/// The timed phase: a discarded warm-up pass, then measured passes.
/// `pass(number, traced)` must do identical work every call. Under
/// `--trace` untraced and traced passes alternate (U T U T …) so the
/// overhead is a same-process, same-minute comparison.
pub fn run_passes(cfg: &Config, mut pass: impl FnMut(u32, bool) -> Pass) -> Phase {
    let t = Instant::now();
    let warm = pass(0, false);
    let warm_wall = t.elapsed().as_secs_f64().max(1e-3);
    let fit = (cfg.seconds / warm_wall) as usize;
    let mut phase = Phase {
        peak_rss_mb: sys::peak_rss_mb(),
        passes: Vec::new(),
        traced: Vec::new(),
        attempted: warm.attempted,
        failed: warm.failed,
    };
    let (untraced, traced) = match (cfg.quick, cfg.trace) {
        (true, false) => (2, 0),
        (true, true) => (1, 1),
        (false, false) => (fit.clamp(MIN_PASSES, MAX_PASSES), 0),
        (false, true) => {
            let pairs = (fit / 2).clamp(2, 4);
            (pairs, pairs)
        }
    };
    let mut number = 0;
    for i in 0..untraced.max(traced) {
        for is_traced in [false, true] {
            if i < if is_traced { traced } else { untraced } {
                number += 1;
                let p = pass(number, is_traced);
                phase.attempted += p.attempted;
                phase.failed += p.failed;
                if is_traced {
                    phase.traced.push(p);
                } else {
                    phase.passes.push(p);
                }
            }
        }
    }
    phase
}

impl Phase {
    fn secs(passes: &[Pass]) -> Vec<f64> {
        passes.iter().map(|p| p.secs).collect()
    }

    /// Fixed work ÷ pass time, per untraced pass.
    pub fn throughput(&self, ops_per_pass: f64) -> Summary {
        let per_pass: Vec<f64> = Self::secs(&self.passes)
            .iter()
            .map(|s| ops_per_pass / s)
            .collect();
        Summary::of(&per_pass)
    }

    pub fn latency_p50_us(&self) -> Summary {
        let p50s: Vec<f64> = self.passes.iter().map(|p| p.latency_p50_us).collect();
        Summary::of(&p50s)
    }

    /// Process CPU in a pass's throughput part ÷ ops, µs. The clock
    /// ticks at 10 ms; every workload's throughput part burns ≥ 0.7 s.
    pub fn cpu_us_per_op(&self, ops_per_pass: f64) -> Summary {
        let per_pass: Vec<f64> = self
            .passes
            .iter()
            .map(|p| p.cpu_secs * 1e6 / ops_per_pass)
            .collect();
        Summary::of(&per_pass)
    }

    pub fn latency_samples(&self) -> usize {
        self.passes.iter().map(|p| p.latency_samples).sum()
    }

    /// Throughput lost with tracing on, in percent of the untraced
    /// median (negative = the traced passes happened to run faster).
    pub fn trace_overhead_pct(&self) -> f64 {
        if self.traced.is_empty() || self.passes.is_empty() {
            return 0.0;
        }
        let u = crate::stats::median(&Self::secs(&self.passes));
        let t = crate::stats::median(&Self::secs(&self.traced));
        (1.0 - u / t) * 100.0
    }
}

/// Opens the file(s) totalling `bytes` `reps` times, each handle
/// dropped before the next open; returns the last handle and every
/// open's MB/s.
pub fn open_rates<T>(bytes: u64, reps: usize, mut open: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut rates = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(open());
        rates.push(bytes as f64 / 1e6 / t.elapsed().as_secs_f64());
    }
    (last.expect("at least one open"), rates)
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path)
        .unwrap_or_else(|e| panic!("stat {}: {e}", path.display()))
        .len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seconds: f64, trace: bool) -> Config {
        Config {
            seed: 1,
            seconds,
            trace,
            quick: false,
            out: PathBuf::new(),
            scratch: PathBuf::new(),
        }
    }

    #[test]
    fn pass_count_is_clamped_and_warm_up_is_discarded() {
        let mut calls = Vec::new();
        let phase = run_passes(&cfg(0.0, false), |n, traced| {
            calls.push((n, traced));
            Pass {
                secs: 1.0,
                attempted: 10,
                ..Pass::default()
            }
        });
        assert_eq!(phase.passes.len(), MIN_PASSES);
        assert_eq!(calls[0], (0, false));
        assert_eq!(phase.attempted, 10 * (MIN_PASSES as u64 + 1));
        let phase = run_passes(&cfg(1e9, false), |_, _| Pass {
            secs: 1.0,
            ..Pass::default()
        });
        assert_eq!(phase.passes.len(), MAX_PASSES);
    }

    #[test]
    fn traced_runs_alternate_untraced_and_traced() {
        let mut order = Vec::new();
        let phase = run_passes(&cfg(0.0, true), |_, traced| {
            order.push(traced);
            Pass {
                secs: if traced { 1.25 } else { 1.0 },
                ..Pass::default()
            }
        });
        assert_eq!(order, [false, false, true, false, true]);
        assert!((phase.trace_overhead_pct() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_setup_keeps_the_last_result() {
        let mut n = 0;
        let (v, secs) = repeat_setup(3, || {
            n += 1;
            n
        });
        assert_eq!((v, secs.len()), (3, 3));
    }
}

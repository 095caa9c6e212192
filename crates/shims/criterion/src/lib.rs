//! Offline shim for the subset of the `criterion` 0.5 API this workspace
//! uses, so the benches under `crates/bench/benches/` build and run
//! without network access.
//!
//! The build environment cannot fetch crates.io, so the workspace
//! resolves `criterion` to this path crate. It provides [`Criterion`]
//! with [`bench_function`](Criterion::bench_function) and
//! [`benchmark_group`](Criterion::benchmark_group), [`BenchmarkId`],
//! [`black_box`], and the [`criterion_group!`]/[`criterion_main!`]
//! macros. Timing is deliberately simple — warm up, then run batches
//! until a target measurement time elapses, report the mean — which is
//! plenty for a relative look at one kernel; tracked numbers come from
//! the system benchmark (`BENCHMARK.json`, `benchmark/`).
//!
//! Environment knobs:
//!
//! * `UTCQ_BENCH_SMOKE=1` — one warmup + one measured iteration per
//!   bench: the CI smoke mode that only proves the harness still runs;
//! * `UTCQ_BENCH_MS=<millis>` — target measurement time per bench
//!   (default 200 ms);
//! * `UTCQ_BENCH_JSON=<path>` — append one JSON line per bench
//!   (`{"name": …, "ns_per_iter": …, "iters": …}`) for machine
//!   consumption.

use std::io::Write as _;
use std::time::{Duration, Instant};

/// An opaque value barrier: prevents the optimizer from deleting a
/// benchmarked computation. Same contract as `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// One recorded measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Full benchmark id (`group/function` or plain function name).
    pub name: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Number of measured iterations.
    pub iters: u64,
}

/// Shim of `criterion::Criterion`: runs benchmarks immediately and
/// prints one line per result.
pub struct Criterion {
    results: Vec<Measurement>,
    smoke: bool,
    target: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        let smoke = std::env::var("UTCQ_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
        let target_ms = std::env::var("UTCQ_BENCH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200u64);
        Self {
            results: Vec::new(),
            smoke,
            target: Duration::from_millis(target_ms),
        }
    }
}

impl Criterion {
    /// Compatibility no-op (the real crate parses CLI filters here; the
    /// shim runs everything).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Measures one benchmark closure. Takes `&str` like the real
    /// criterion 0.5 `bench_function`, so bench sources stay drop-in
    /// compatible if the shim is ever swapped for the real crate.
    pub fn bench_function(
        &mut self,
        name: &str,
        mut routine: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let name = name.to_string();
        let mut b = Bencher {
            smoke: self.smoke,
            target: self.target,
            measured: None,
        };
        routine(&mut b);
        let (ns_per_iter, iters) = b.measured.unwrap_or((0.0, 0));
        println!("bench {name:<50} {ns_per_iter:>14.1} ns/iter  ({iters} iters)");
        self.results.push(Measurement {
            name,
            ns_per_iter,
            iters,
        });
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.to_string(),
        }
    }

    /// All measurements recorded so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Writes results as JSON lines to `UTCQ_BENCH_JSON` when set.
    /// Called by [`criterion_main!`]; harmless to call twice.
    pub fn finalize(&self) {
        let Ok(path) = std::env::var("UTCQ_BENCH_JSON") else {
            return;
        };
        let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        else {
            eprintln!("criterion shim: cannot open {path}");
            return;
        };
        for m in &self.results {
            let _ = writeln!(
                f,
                "{{\"name\":\"{}\",\"ns_per_iter\":{:.1},\"iters\":{}}}",
                m.name.replace('"', "'"),
                m.ns_per_iter,
                m.iters
            );
        }
    }
}

/// Shim of `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'c> {
    c: &'c mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Compatibility no-op (the shim sizes runs by wall-clock, not
    /// sample count).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Measures one parameterized benchmark within the group.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.0);
        self.c.bench_function(&full, |b| routine(b, input));
        self
    }

    /// Closes the group (no-op; results were recorded eagerly).
    pub fn finish(self) {}
}

/// Shim of `criterion::BenchmarkId`.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// A two-part id rendered as `function/parameter`.
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        Self(format!("{function}/{parameter}"))
    }
}

/// Shim of `criterion::Bencher`: measures the closure passed to
/// [`Bencher::iter`].
pub struct Bencher {
    smoke: bool,
    target: Duration,
    measured: Option<(f64, u64)>,
}

impl Bencher {
    /// Times `routine`, storing mean ns/iteration.
    pub fn iter<T>(&mut self, mut routine: impl FnMut() -> T) {
        // Warmup: one call always (pays lazy-init costs), more only in
        // full mode.
        black_box(routine());
        if self.smoke {
            let t0 = Instant::now();
            black_box(routine());
            let dt = t0.elapsed();
            self.measured = Some((dt.as_nanos() as f64, 1));
            return;
        }
        // Calibrate: how many iterations fit in ~1/10 of the target?
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let batch = ((self.target.as_nanos() / 10 / once.as_nanos()).clamp(1, 1 << 20)) as u64;
        let mut iters = 0u64;
        let mut spent = Duration::ZERO;
        while spent < self.target {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            spent += t.elapsed();
            iters += batch;
        }
        self.measured = Some((spent.as_nanos() as f64 / iters as f64, iters));
    }
}

/// Shim of `criterion::criterion_group!`: defines a function running the
/// listed benchmarks against a fresh [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $( $target(&mut c); )+
            c.finalize();
        }
    };
}

/// Shim of `criterion::criterion_main!`: the bench entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_a_measurement() {
        std::env::set_var("UTCQ_BENCH_SMOKE", "1");
        let mut c = Criterion::default();
        c.bench_function("shim/self_test", |b| b.iter(|| black_box(2 + 2)));
        assert_eq!(c.results().len(), 1);
        let m = &c.results()[0];
        assert_eq!(m.name, "shim/self_test");
        assert!(m.iters >= 1);
    }

    #[test]
    fn groups_prefix_names() {
        std::env::set_var("UTCQ_BENCH_SMOKE", "1");
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("grp");
            g.sample_size(10);
            g.bench_with_input(BenchmarkId::new("f", "x"), &3u32, |b, &x| {
                b.iter(|| black_box(x * 2))
            });
            g.finish();
        }
        assert_eq!(c.results()[0].name, "grp/f/x");
    }
}

//! `compare` — the system benchmark (`benchmark/`, declared by
//! `BENCHMARK.json`) run on two revisions side by side, as paired runs.
//!
//! ```text
//! cargo run --release -p utcq_bench --bin compare -- \
//!     --a <rev> --b <rev> [--workload W|all] [--pairs N] [--seed S] [--trace]
//! ```
//!
//! Each revision is extracted with `git archive` into
//! `target/compare/<sha>/` (the tree as committed, nothing of the
//! working copy) and its benchmark built there once, with
//! `CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1` so the build does not vary
//! with codegen partitioning. Then, per workload, the two harnesses run
//! `--pairs` pairs (default 10), A B, B A, A B, …: which side runs
//! first alternates. Each run is a fresh process (`--workload W --seed
//! S`, with `--trace 1` if asked) started in its own tree. A run's second-to-last stdout line carries all its metrics
//! with their quartiles over passes.
//!
//! The one JSON object printed on stdout holds, per workload and metric:
//! each side's median and quartiles over its runs; the paired
//! differences `b − a` (absolute and relative to `a`) as their median
//! and quartiles; how many of the pairs B won (by the metric's direction
//! in `BENCHMARK.json`); and the metric's `BENCHMARK.json` bound, `null`
//! for a metric with none. `--a X --b X` is the A/A self-check: every
//! bounded metric's median relative difference should sit inside its
//! bound. Progress goes to stderr.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use utcq_core::wire::Json;

const WORKLOADS: [&str; 4] = [
    "bulk_compress",
    "serve_point_hot",
    "serve_range_cold",
    "live_ingest_mixed",
];

struct Opts {
    a: String,
    b: String,
    workloads: Vec<String>,
    pairs: usize,
    seed: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: compare --a <rev> --b <rev> [--workload W|all] [--pairs N] [--seed S] [--trace]"
    );
    std::process::exit(2)
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        a: String::new(),
        b: String::new(),
        workloads: WORKLOADS.map(String::from).to_vec(),
        pairs: 10,
        seed: 7,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--trace" {
            opts.trace = true;
            continue;
        }
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--a" => opts.a = value,
            "--b" => opts.b = value,
            "--workload" if value == "all" => {}
            "--workload" => opts.workloads = vec![value],
            "--pairs" => opts.pairs = value.parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if opts.a.is_empty() || opts.b.is_empty() || opts.pairs == 0 {
        usage();
    }
    opts
}

/// Runs `cmd`, failing with its stderr if it fails; returns its stdout.
fn run(cmd: &mut Command, what: &str) -> Result<String, String> {
    let out = cmd
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("{what}: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{what} failed: {}", err.trim()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The repository's top directory.
fn toplevel() -> Result<PathBuf, String> {
    let out = run(
        Command::new("git").args(["rev-parse", "--show-toplevel"]),
        "git rev-parse",
    )?;
    Ok(PathBuf::from(out.trim()))
}

/// The benchmark harness of `rev`, extracted and built under
/// `target/compare/<sha>/` (reused when already built). Returns the
/// commit's sha, its tree and the harness binary.
fn harness(top: &Path, rev: &str) -> Result<(String, PathBuf, PathBuf), String> {
    let spec = format!("{rev}^{{commit}}");
    let sha = run(
        Command::new("git")
            .current_dir(top)
            .args(["rev-parse", "--verify", &spec]),
        "git rev-parse",
    )?;
    let sha = sha.trim().to_string();
    let tree = top.join("target/compare").join(&sha);
    let bin = tree.join(".bench_build/release/utcq_benchmark");
    if bin.exists() {
        return Ok((sha, tree, bin));
    }
    std::fs::create_dir_all(&tree).map_err(|e| format!("{}: {e}", tree.display()))?;
    eprintln!("compare: extracting {sha} into {}", tree.display());
    let archive = format!(
        "git -C '{}' archive {sha} | tar -x -C '{}'",
        top.display(),
        tree.display()
    );
    run(Command::new("sh").args(["-c", &archive]), "git archive")?;
    eprintln!("compare: building the benchmark of {sha}");
    run(
        Command::new("cargo")
            .current_dir(&tree)
            .env("CARGO_PROFILE_RELEASE_CODEGEN_UNITS", "1")
            .env("CARGO_TARGET_DIR", tree.join(".bench_build"))
            .args(["build", "--release", "--quiet", "--manifest-path"])
            .arg(tree.join("benchmark/Cargo.toml")),
        "cargo build",
    )?;
    Ok((sha, tree, bin))
}

/// One run of a harness: every metric of its second-to-last stdout line
/// by name (the value, the median over passes) and its failed
/// operations.
struct Run {
    metrics: Vec<(String, f64, String)>,
    ops_failed: f64,
    /// The run's recorded context ([`CONTEXT`]).
    context: Vec<(String, Json)>,
}

/// The context fields of a run's line that a baseline row records.
const CONTEXT: [&str; 5] = [
    "git_commit",
    "rustc",
    "corpus_seed",
    "inputs_sha256",
    "fsync_policy",
];

fn one_run(tree: &Path, bin: &Path, workload: &str, opts: &Opts) -> Result<Run, String> {
    let trace = if opts.trace { "1" } else { "0" };
    let seed = opts.seed.to_string();
    let out = run(
        Command::new(bin).current_dir(tree).args([
            "--workload",
            workload,
            "--seed",
            &seed,
            "--trace",
            trace,
        ]),
        workload,
    )?;
    let lines: Vec<&str> = out.lines().filter(|l| !l.trim().is_empty()).collect();
    let line = lines.iter().rev().nth(1).ok_or("no result line")?;
    let json = Json::parse(line)?;
    let mut metrics = Vec::new();
    if let Some(Json::Obj(pairs)) = json.get("metrics") {
        for (name, m) in pairs {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            if let Some(value) = value {
                metrics.push((name.clone(), value, unit.to_string()));
            }
        }
    }
    let ops_failed = json.get("ops_failed").and_then(Json::as_f64).unwrap_or(0.0);
    let field = |key: &str| Some((key.to_string(), json.get(key)?.clone()));
    Ok(Run {
        metrics,
        ops_failed,
        context: CONTEXT.iter().filter_map(|key| field(key)).collect(),
    })
}

/// Median and quartiles (linear interpolation between order statistics).
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let x = q * (v.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
    };
    [at(0.5), at(0.25), at(0.75)]
}

fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { 0.0 })
}

fn stats(values: &[f64]) -> Json {
    let [median, q1, q3] = quartiles(values);
    Json::Obj(vec![
        ("median".into(), num(median)),
        ("q1".into(), num(q1)),
        ("q3".into(), num(q3)),
    ])
}

/// `(better, bound)` of a metric in `BENCHMARK.json`.
fn declared(bench: &Json, name: &str) -> (Option<String>, Option<f64>) {
    for list in ["end_to_end", "per_layer"] {
        if let Some(Json::Arr(items)) = bench.get(list) {
            for m in items {
                if m.get("name").and_then(Json::as_str) == Some(name) {
                    let better = m.get("better").and_then(Json::as_str).map(String::from);
                    return (better, m.get("bound").and_then(Json::as_f64));
                }
            }
        }
    }
    (None, None)
}

/// The comparison of one workload's runs, A's and B's in pair order.
fn compare(bench: &Json, a: &[Run], b: &[Run]) -> Json {
    let mut out = vec![
        ("a_context".into(), Json::Obj(a[0].context.clone())),
        ("b_context".into(), Json::Obj(b[0].context.clone())),
    ];
    let failed = |runs: &[Run]| runs.iter().map(|r| r.ops_failed).sum::<f64>();
    out.push((
        "ops_failed".into(),
        Json::Obj(vec![
            ("a".into(), num(failed(a))),
            ("b".into(), num(failed(b))),
        ]),
    ));
    let mut metrics = Vec::new();
    for (name, _, unit) in &a[0].metrics {
        let values = |runs: &[Run]| -> Option<Vec<f64>> {
            let value = |r: &Run| r.metrics.iter().find(|m| &m.0 == name).map(|m| m.1);
            runs.iter().map(value).collect()
        };
        let (Some(va), Some(vb)) = (values(a), values(b)) else {
            continue;
        };
        let diffs: Vec<f64> = va.iter().zip(&vb).map(|(a, b)| b - a).collect();
        let rel: Vec<f64> = va.iter().zip(&vb).map(|(a, b)| (b - a) / a).collect();
        let (better, bound) = declared(bench, name);
        let wins = match better.as_deref() {
            Some("lower") => diffs.iter().filter(|d| **d < 0.0).count(),
            Some("higher") => diffs.iter().filter(|d| **d > 0.0).count(),
            _ => 0,
        };
        metrics.push((
            name.clone(),
            Json::Obj(vec![
                ("unit".into(), Json::Str(unit.clone())),
                ("better".into(), better.map_or(Json::Null, Json::Str)),
                ("bound".into(), bound.map_or(Json::Null, num)),
                ("a".into(), stats(&va)),
                ("b".into(), stats(&vb)),
                ("diff".into(), stats(&diffs)),
                ("rel_diff".into(), stats(&rel)),
                ("b_wins".into(), num(wins as f64)),
                ("pairs".into(), num(diffs.len() as f64)),
            ]),
        ));
    }
    out.push(("metrics".into(), Json::Obj(metrics)));
    Json::Obj(out)
}

fn main() {
    let opts = parse_opts();
    if let Err(e) = compare_revs(&opts) {
        eprintln!("compare: {e}");
        std::process::exit(1);
    }
}

fn compare_revs(opts: &Opts) -> Result<(), String> {
    let top = toplevel()?;
    let bench = std::fs::read_to_string(top.join("BENCHMARK.json")).map_err(|e| e.to_string())?;
    let bench = Json::parse(&bench)?;
    let (sha_a, tree_a, bin_a) = harness(&top, &opts.a)?;
    let (sha_b, tree_b, bin_b) = harness(&top, &opts.b)?;
    let mut workloads = Vec::new();
    for w in &opts.workloads {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for pair in 1..=opts.pairs {
            eprintln!("compare: {w} pair {pair}/{}", opts.pairs);
            // Which side runs first alternates, so a drift of the box
            // within a pair favours neither.
            if pair % 2 == 1 {
                a.push(one_run(&tree_a, &bin_a, w, opts)?);
                b.push(one_run(&tree_b, &bin_b, w, opts)?);
            } else {
                b.push(one_run(&tree_b, &bin_b, w, opts)?);
                a.push(one_run(&tree_a, &bin_a, w, opts)?);
            }
        }
        workloads.push((w.clone(), compare(&bench, &a, &b)));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = Json::Obj(vec![
        ("a".into(), Json::Str(sha_a)),
        ("b".into(), Json::Str(sha_b)),
        ("pairs".into(), num(opts.pairs as f64)),
        ("seed".into(), num(opts.seed as f64)),
        ("trace".into(), Json::Bool(opts.trace)),
        ("nproc".into(), num(nproc as f64)),
        (
            "profile".into(),
            Json::Str("release, CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1".into()),
        ),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    let mut text = String::new();
    report.write(&mut text);
    println!("{text}");
    Ok(())
}

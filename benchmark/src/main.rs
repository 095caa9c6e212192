//! The system benchmark of the UTCQ reproduction: four workloads,
//! eight end-to-end metrics, an outside-in layer trace and an A/A
//! noise gate. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]] \
//!     [--out DIR] [--quick] [--aa N]
//! ```

mod aa;
mod client;
mod inputs;
mod layers;
mod method;
mod report;
mod stats;
mod sut;
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use method::Config;
use report::tables;
use sut::Json;

const DEFAULT_SEED: u64 = 7;

const USAGE: &str = "usage: utcq_benchmark --workload <bulk_compress|serve_point_hot|\
serve_range_cold|live_ingest_mixed|all> [--seed N] [--seconds S] [--trace [0|1]] \
[--out DIR] [--quick] [--aa N]";

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
    pub aa: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: tables().run_seconds,
        trace: false,
        quick: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        aa: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--aa" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--aa: {e}"))?;
                if n < 5 && !argv.iter().any(|a| a == "--quick") {
                    return Err("--aa needs at least 5 runs per set".into());
                }
                args.aa = Some(n);
            }
            "--quick" => args.quick = true,
            // `--trace` alone switches tracing on; the acceptance driver
            // passes `--trace 0` / `--trace 1`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    match (&args.workload, args.aa) {
        (None, None) => Err("--workload is required".into()),
        (Some(w), _) if w != "all" && !tables().is_workload(w) => {
            Err(format!("unknown workload '{w}'"))
        }
        _ => Ok(args),
    }
}

/// Removes the run's private directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One workload in this process. Returns whether every answer was right.
fn run_one(workload: &str, args: &Args) -> bool {
    std::fs::create_dir_all(&args.out)
        .unwrap_or_else(|e| panic!("create {}: {e}", args.out.display()));
    let scratch = Scratch(args.out.join(format!("scratch-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).expect("create the scratch directory");
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        out: args.out.clone(),
        scratch: scratch.0.clone(),
    };
    let mut outcome = workloads::run(workload, &cfg);
    let mut context = report::environment(&cfg);
    context.append(&mut outcome.context);
    outcome.context = context;
    print!("{}", report::render_table(&outcome));
    println!("{}", report::render_detail(&outcome));
    println!("{}", report::contract_of(&outcome, cfg.trace));
    outcome.correct()
}

/// One workload in a fresh child process, so `peak_rss_mb` is its own
/// high-water mark. Echoes the child's output; returns its last two
/// lines parsed: the detail line and the contract line.
pub fn run_child(workload: &str, args: &Args, seed: u64) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let mut last = stdout.lines().rev().map(Json::parse);
    let (Some(Ok(contract)), Some(Ok(detail))) = (last.next(), last.next()) else {
        return Err(format!(
            "{workload}: no result line (exit {})",
            output.status
        ));
    };
    let count = |key: &str| contract.get(key).and_then(Json::as_u64).unwrap_or(0);
    if !output.status.success() || contract.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload}: {} of {} operations failed (exit {})",
            count("failed"),
            count("attempted"),
            output.status
        ));
    }
    Ok((detail, contract))
}

/// Every workload, each in its own process; one combined last line.
fn run_all(args: &Args) -> bool {
    let mut ok = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for (workload, _) in &tables().workloads {
        match run_child(workload, args, args.seed) {
            Ok((_, contract)) => {
                let count = |key: &str| contract.get(key).and_then(Json::as_u64).unwrap_or(0);
                attempted += count("attempted");
                failed += count("failed");
                for (name, value) in report::metrics_of(&contract) {
                    let unit = report::unit_of(&name);
                    metrics.push((format!("{workload}.{name}"), value, unit));
                }
            }
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
    }
    println!(
        "{}",
        report::render_contract(ok, attempted, failed, &metrics)
    );
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!(
            "error: this is a debug build; measure optimized code only (cargo run --release)"
        );
        return ExitCode::from(2);
    }
    let ok = match (args.aa, args.workload.as_deref()) {
        (Some(n), _) => aa::run(&args, n),
        (None, Some("all")) => run_all(&args),
        (None, Some(workload)) => run_one(workload, &args),
        (None, None) => unreachable!("parse_args requires --workload or --aa"),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn driver_style_arguments_parse() {
        let a = parse("--workload serve_point_hot --seed 11 --seconds 12 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_point_hot"));
        assert_eq!((a.seed, a.seconds, a.trace), (11, 12.0, false));
        assert!(parse("--workload all --trace 1").unwrap().trace);
        assert!(parse("--workload all --trace --quick").unwrap().trace);
        assert!(parse("--trace --workload bulk_compress").unwrap().trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload all --seed x").is_err());
        assert!(parse("--workload all --frobnicate").is_err());
        assert!(parse("--aa 2").is_err());
        assert!(parse("--aa 5").is_ok());
    }
}

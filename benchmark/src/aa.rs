//! The A/A self-check: the same build measured twice must agree with
//! itself before anyone compares two builds with it.
//!
//! Every workload is run `n` times in each of two interleaved sets
//! (A B A B …, a fresh process per run, run `i` of both sets on seed
//! `base + i`). For each workload × workload metric the table gives
//! both medians with quartiles, each set's spread (interquartile
//! distance ÷ median, the acceptance driver's measure) and, for the
//! gated metrics, the gap between the two medians as a fraction of the
//! bound. The check fails if a gated gap exceeds half its bound, or if a
//! gated spread other than `setup_s`'s exceeds its bound — the two
//! conditions under which the acceptance driver would refuse the
//! benchmark. The ungated rows show why those metrics are not gated.

use std::fmt::Write as _;

use crate::report::{self, tables, WORKLOAD_METRICS};
use crate::stats::{self, Summary};
use crate::Args;

/// Largest allowed gap between the two sets, as a share of the bound.
const MAX_GAP_OF_BOUND: f64 = 0.5;

pub fn run(args: &Args, n: usize) -> bool {
    let workloads = &tables().workloads;
    // values[workload][metric][set] -> one value per run.
    let mut values = vec![vec![[Vec::new(), Vec::new()]; WORKLOAD_METRICS.len()]; workloads.len()];
    let mut ok = true;
    for round in 0..n {
        for (w, (workload, _)) in workloads.iter().enumerate() {
            for set in 0..2 {
                eprintln!(
                    "a/a: round {} of {n}, {workload}, set {}",
                    round + 1,
                    ["A", "B"][set]
                );
                match crate::run_child(workload, args, args.seed + round as u64) {
                    Ok((detail, _)) => {
                        let measured = report::metrics_of(&detail);
                        for (m, name) in WORKLOAD_METRICS.iter().enumerate() {
                            let value = measured.iter().find(|(n, _)| n == name);
                            values[w][m][set].push(value.expect("every workload metric").1);
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        ok = false;
                    }
                }
            }
        }
    }
    if !ok {
        return false;
    }
    let (table, failures) = render(&values);
    print!("{table}");
    let path = args.out.join("NOISE.md");
    if let Err(e) = std::fs::write(&path, &table) {
        eprintln!("write {}: {e}", path.display());
    }
    for f in &failures {
        eprintln!("a/a FAILED: {f}");
    }
    failures.is_empty()
}

/// The markdown table and what in it fails the check.
fn render(values: &[Vec<[Vec<f64>; 2]>]) -> (String, Vec<String>) {
    let mut out = String::new();
    let mut failures = Vec::new();
    let _ = writeln!(
        out,
        "| workload | metric | median A (q1–q3) | median B (q1–q3) | spread A | spread B | bound | gap | gap ÷ bound |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    for (w, (workload, _)) in tables().workloads.iter().enumerate() {
        for (m, name) in WORKLOAD_METRICS.iter().enumerate() {
            let def = tables().def(name);
            let [a, b] = &values[w][m];
            let (sa, sb) = (Summary::of(a), Summary::of(b));
            let (spread_a, spread_b) = (stats::spread(a), stats::spread(b));
            let gap = (sa.value - sb.value).abs() / sa.value.abs().max(f64::MIN_POSITIVE);
            let gate = match tables().gated(name).and_then(|d| d.bound) {
                Some(bound) => {
                    if gap > MAX_GAP_OF_BOUND * bound {
                        failures.push(format!(
                            "{workload} {name}: the medians differ by {:.2} % (half the bound: {:.2} %)",
                            gap * 100.0,
                            MAX_GAP_OF_BOUND * bound * 100.0
                        ));
                    }
                    let spread = spread_a.max(spread_b);
                    if *name != "setup_s" && spread > bound {
                        failures.push(format!(
                            "{workload} {name}: a spread of {:.2} % exceeds the bound of {:.2} %",
                            spread * 100.0,
                            bound * 100.0
                        ));
                    }
                    format!(
                        "{:.1} % | {:.3} % | {:.2}",
                        bound * 100.0,
                        gap * 100.0,
                        gap / bound
                    )
                }
                None => format!("ungated | {:.3} % | —", gap * 100.0),
            };
            let _ = writeln!(
                out,
                "| {workload} | {name} ({}, {} is better) | {:.5} ({:.5}–{:.5}) | {:.5} ({:.5}–{:.5}) | {:.2} % | {:.2} % | {gate} |",
                def.unit,
                def.better,
                sa.value,
                sa.q1,
                sa.q3,
                sb.value,
                sb.q1,
                sb.q3,
                spread_a * 100.0,
                spread_b * 100.0,
            );
        }
    }
    (out, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_and_spreads_are_measured_against_the_bound() {
        let same = [vec![10.0, 10.0, 10.0], vec![10.0, 10.0, 10.0]];
        let mut values = vec![vec![same; WORKLOAD_METRICS.len()]; tables().workloads.len()];
        let (table, failures) = render(&values);
        assert!(failures.is_empty());
        assert_eq!(
            table.lines().count(),
            2 + tables().workloads.len() * WORKLOAD_METRICS.len()
        );
        let at = |name: &str| WORKLOAD_METRICS.iter().position(|m| *m == name).unwrap();
        // A gap of 0.6 × the bound of a gated metric fails, ...
        let bound = tables().gated("compression_ratio").unwrap().bound.unwrap();
        values[0][at("compression_ratio")] = [vec![100.0; 3], vec![100.0 * (1.0 - 0.6 * bound); 3]];
        assert_eq!(render(&values).1.len(), 1);
        // ... as does a spread beyond it — except set-up's.
        values[0][at("compression_ratio")] = [vec![99.0, 100.0, 101.0], vec![99.0, 100.0, 101.0]];
        assert_eq!(render(&values).1.len(), 1);
        values[0][at("compression_ratio")] = [vec![10.0; 3], vec![10.0; 3]];
        values[0][at("setup_s")] = [vec![5.0, 10.0, 15.0], vec![5.0, 10.0, 15.0]];
        assert!(render(&values).1.is_empty());
    }
}

//! Metric names, units, directions and bounds — read from
//! `BENCHMARK.json`, the one place they are written — and the printing
//! of a workload's result: a table for people, one detailed JSON line,
//! and the contract line the acceptance driver reads last.

use std::fmt::Write as _;
use std::sync::OnceLock;

use crate::stats::Summary;
use crate::sut::{self, Json};
use crate::sys;

/// What every run of every workload measures about the workload itself,
/// whichever list of `BENCHMARK.json` a name currently stands in: the
/// gated `end_to_end` list (reported by the untraced run) or, once
/// demoted because it does not repeat, the ungated `per_layer` list
/// (reported by the traced run from its untraced passes).
pub const WORKLOAD_METRICS: [&str; 8] = [
    "setup_s",
    "throughput_per_s",
    "latency_p50_us",
    "cpu_us_per_op",
    "compression_ratio",
    "stored_bytes_per_raw_byte",
    "open_mb_per_s",
    "peak_rss_mb",
];

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for the ungated per-layer metrics.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json` as the benchmark uses it.
pub struct Tables {
    pub run_seconds: f64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

pub fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        Tables::parse(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

impl Tables {
    fn parse(text: &str) -> Result<Tables, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(format!("'{key}' is not an array")),
        };
        let text_of = |item: &Json, key: &str| {
            let field = item.get(key).and_then(Json::as_str);
            field
                .map(str::to_string)
                .ok_or_else(|| format!("an entry lacks '{key}'"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: text_of(m, "better")?,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Tables {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("'run_seconds' is not a number")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn is_workload(&self, name: &str) -> bool {
        self.workloads.iter().any(|(w, _)| w == name)
    }

    /// The gated definition of `name`, if it stands in `end_to_end`.
    pub fn gated(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end.iter().find(|m| m.name == name)
    }

    pub fn def(&self, name: &str) -> &MetricDef {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not in BENCHMARK.json"))
    }
}

pub fn unit_of(name: &str) -> &'static str {
    &tables().def(name).unit
}

/// One reported number with what it was reduced from.
pub struct Metric {
    pub name: &'static str,
    pub value: Summary,
    /// Raw samples behind the per-pass values (requests timed, calls
    /// timed); 0 where the number is a count or a size.
    pub samples: usize,
}

pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Everything this run measured, in table order.
    pub metrics: Vec<Metric>,
    /// Recorded beside the result: inputs SHA, sizes, pass counts, ….
    pub context: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics of the contract line: every name of `list`, in its
    /// order; a listed metric this run did not measure is a bug.
    fn listed<'a>(&'a self, list: &'a [MetricDef]) -> impl Iterator<Item = &'a Metric> {
        list.iter().map(|def| {
            let found = self.metrics.iter().find(|m| m.name == def.name);
            found.unwrap_or_else(|| panic!("{}: '{}' was not measured", self.workload, def.name))
        })
    }
}

/// Machine shape and provenance recorded beside every result.
pub fn environment(cfg: &crate::method::Config) -> Vec<(&'static str, String)> {
    vec![
        ("nproc", sys::nproc().to_string()),
        ("seed", cfg.seed.to_string()),
        ("corpus_seed", sut::CORPUS_SEED.to_string()),
        ("profile", sut::PROFILE.to_string()),
        ("git_commit", sys::git_commit()),
        ("rustc", sys::rustc_version().to_string()),
        ("fsync_policy", sut::FSYNC_POLICY.to_string()),
        ("quick", cfg.quick.to_string()),
        ("traced", cfg.trace.to_string()),
    ]
}

/// The table people read.
pub fn render_table(o: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} — attempted {} failed {} ==",
        o.workload, o.attempted, o.failed
    );
    for m in &o.metrics {
        let gate = match tables().gated(m.name).and_then(|d| d.bound) {
            Some(bound) => format!("bound {:.1} %", bound * 100.0),
            None => "ungated".to_string(),
        };
        let _ = writeln!(
            out,
            "  {:<34} {:>16.4} {:<6} q1 {:.4} q3 {:.4} (n={}, samples={}, {gate})",
            m.name,
            m.value.value,
            unit_of(m.name),
            m.value.q1,
            m.value.q3,
            m.value.n,
            m.samples
        );
    }
    for (k, v) in &o.context {
        let _ = writeln!(out, "  # {k}: {v}");
    }
    out
}

fn num(v: f64) -> Json {
    // JSON has no NaN/inf, and a metric that is one is a bug worth
    // failing on.
    assert!(v.is_finite(), "non-finite metric value");
    Json::Num(v)
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

fn line(value: Json) -> String {
    let mut out = String::new();
    sut::json_write(&value, &mut out);
    out
}

/// Everything on one line: every metric measured with its quartiles,
/// pass and sample counts, and the context.
pub fn render_detail(o: &Outcome) -> String {
    let mut fields = vec![
        ("workload".to_string(), text(o.workload)),
        ("ops_attempted".to_string(), num(o.attempted as f64)),
        ("ops_failed".to_string(), num(o.failed as f64)),
    ];
    for (k, v) in &o.context {
        // `"quick": true` reads as the flag it is.
        let value = match v.as_str() {
            "true" => Json::Bool(true),
            "false" => Json::Bool(false),
            other => text(other),
        };
        fields.push((k.to_string(), value));
    }
    let metrics = o.metrics.iter().map(|m| {
        let fields = vec![
            ("value".to_string(), num(m.value.value)),
            ("unit".to_string(), text(unit_of(m.name))),
            ("q1".to_string(), num(m.value.q1)),
            ("q3".to_string(), num(m.value.q3)),
            ("passes".to_string(), num(m.value.n as f64)),
            ("samples".to_string(), num(m.samples as f64)),
        ];
        (m.name.to_string(), Json::Obj(fields))
    });
    fields.push(("metrics".to_string(), Json::Obj(metrics.collect())));
    line(Json::Obj(fields))
}

/// The last line of standard output, in the acceptance contract's form.
pub fn render_contract(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let metrics = metrics.iter().map(|(name, value, unit)| {
        let fields = vec![
            ("value".to_string(), num(*value)),
            ("unit".to_string(), text(unit)),
        ];
        (name.clone(), Json::Obj(fields))
    });
    line(Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), num(attempted.max(1) as f64)),
        ("failed".to_string(), num(failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics.collect())),
    ]))
}

/// The contract line of a run: the `end_to_end` metrics of an untraced
/// run, the `per_layer` metrics of a traced one.
pub fn contract_of(o: &Outcome, traced: bool) -> String {
    let t = tables();
    let list = if traced { &t.per_layer } else { &t.end_to_end };
    let metrics: Vec<(String, f64, &str)> = o
        .listed(list)
        .map(|m| (m.name.to_string(), m.value.value, unit_of(m.name)))
        .collect();
    render_contract(o.correct(), o.attempted, o.failed, &metrics)
}

/// `(name, value)` of every metric on a detail or contract line.
pub fn metrics_of(line: &Json) -> Vec<(String, f64)> {
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        return Vec::new();
    };
    metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_round_trips() {
        let line = render_contract(
            true,
            1000,
            0,
            &[
                ("latency_p50_us".into(), 27.125, "us"),
                ("setup_s".into(), 1.5e-3, "s"),
            ],
        );
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{"));
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(
            metrics_of(&parsed),
            [
                ("latency_p50_us".to_string(), 27.125),
                ("setup_s".to_string(), 0.0015)
            ]
        );
        assert!(metrics_of(&Json::Null).is_empty());
    }

    #[test]
    fn attempted_is_at_least_one() {
        assert!(render_contract(false, 0, 0, &[]).contains("\"attempted\":1,"));
    }

    /// What the acceptance contract demands of `BENCHMARK.json`, and
    /// that each of [`WORKLOAD_METRICS`] stands in exactly one list.
    #[test]
    fn benchmark_json_is_well_formed() {
        let t = tables();
        assert!((1.0..=60.0).contains(&t.run_seconds) && t.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&t.workloads.len()));
        assert!((1..=16).contains(&t.end_to_end.len()));
        assert!((1..=128).contains(&t.per_layer.len()));
        let well_formed = |n: &str, max: usize, extra: &str| {
            !n.is_empty()
                && n.len() <= max
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<&str> = t.workloads.iter().map(|(n, _)| n.as_str()).collect();
        for m in t.end_to_end.iter().chain(&t.per_layer) {
            assert!(well_formed(&m.unit, 16, "_/%.-"), "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
            names.push(&m.name);
        }
        for m in &t.end_to_end {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(t.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(t.workloads.iter().all(|(_, why)| why.len() <= 200));
        assert!(names.iter().all(|n| well_formed(n, 64, "_.-")));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let setup = t.gated("setup_s").expect("setup_s is gated");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        for name in WORKLOAD_METRICS {
            t.def(name);
        }
    }
}

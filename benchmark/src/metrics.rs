//! Metric definitions, read from `BENCHMARK.json` so that the names, units
//! and bounds exist in one place, and the report a run prints.

use crate::stats::{summarize, Summary};
use serde_json::{json, Value};

/// `BENCHMARK.json` as of the build.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The declared metrics and workloads.
pub struct Declared {
    pub end_to_end: Vec<Def>,
    pub per_layer: Vec<Def>,
    pub workloads: Vec<String>,
    pub run_seconds: u64,
}

/// A metric name is made of letters, digits, `_`, `.` and `-`, starts with a
/// letter or digit and has at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn defs(doc: &Value, key: &str) -> Result<Vec<Def>, String> {
    let list = doc[key].as_array().ok_or_else(|| format!("BENCHMARK.json: `{key}` missing"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m[k].as_str().map(str::to_string).ok_or_else(|| format!("{key}: `{k}` missing"))
            };
            let name = field("name")?;
            if !valid_name(&name) {
                return Err(format!("{key}: invalid metric name `{name}`"));
            }
            let better = field("better")?;
            if better != "higher" && better != "lower" {
                return Err(format!("{name}: `better` is `{better}`"));
            }
            Ok(Def {
                name,
                unit: field("unit")?,
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

/// Parse a `BENCHMARK.json` document.
pub fn parse_declared(text: &str) -> Result<Declared, String> {
    let doc = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads = doc["workloads"]
        .as_array()
        .ok_or("BENCHMARK.json: `workloads` missing")?
        .iter()
        .filter_map(|w| w["name"].as_str().map(str::to_string))
        .collect();
    Ok(Declared {
        end_to_end: defs(&doc, "end_to_end")?,
        per_layer: defs(&doc, "per_layer")?,
        workloads,
        run_seconds: doc["run_seconds"].as_i64().unwrap_or(10) as u64,
    })
}

/// The definitions compiled into this binary.
pub fn declared() -> Declared {
    parse_declared(BENCHMARK_JSON).expect("the BENCHMARK.json this binary was built with is valid")
}

/// The outcome of one run: operation counts plus every sample of every
/// metric, in declaration order.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// False when a result differed from the oracle, a repetition failed, or
    /// an exact quantity did not repeat.
    pub correct: bool,
    samples: Vec<(Def, Vec<f64>)>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        let d = declared();
        let defs = if trace { d.per_layer } else { d.end_to_end };
        Report {
            workload: workload.to_string(),
            seed,
            trace,
            attempted: 0,
            failed: 0,
            correct: true,
            samples: defs.into_iter().map(|d| (d, Vec::new())).collect(),
        }
    }

    /// Add one sample of a declared metric. The reported value is the median
    /// of a metric's samples.
    pub fn record(&mut self, name: &str, value: f64) {
        let slot = self
            .samples
            .iter_mut()
            .find(|(d, _)| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in BENCHMARK.json"));
        slot.1.push(value);
    }

    /// Declared metrics with no sample yet.
    pub fn missing(&self) -> Vec<&str> {
        self.samples.iter().filter(|(_, v)| v.is_empty()).map(|(d, _)| d.name.as_str()).collect()
    }

    pub fn summaries(&self) -> impl Iterator<Item = (&Def, Summary)> {
        self.samples.iter().filter(|(_, v)| !v.is_empty()).map(|(d, v)| (d, summarize(v)))
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {} seed {} ({}): {} of {} operations failed\n",
            self.workload,
            self.seed,
            if self.trace { "traced phase, per-layer" } else { "timed phase, end-to-end" },
            self.failed,
            self.attempted
        );
        for (d, s) in self.summaries() {
            out.push_str(&format!("  {:<36} {:>16.6} {:<8}", d.name, s.median, d.unit));
            if s.n > 1 {
                out.push_str(&format!(" q1 {:.6} q3 {:.6} n {}", s.q1, s.q3, s.n));
            }
            out.push('\n');
        }
        out
    }

    /// The `metrics` object: value and unit, plus quartiles and sample count
    /// when `detailed`.
    fn metrics_json(&self, detailed: bool) -> Value {
        let metrics = self.summaries().map(|(d, s)| {
            let mut fields = vec![
                ("value".to_string(), Value::from(s.median)),
                ("unit".to_string(), Value::from(d.unit.clone())),
            ];
            if detailed {
                fields.push(("q1".to_string(), Value::from(s.q1)));
                fields.push(("q3".to_string(), Value::from(s.q3)));
                fields.push(("n".to_string(), Value::from(s.n as u64)));
            }
            (d.name.clone(), Value::Object(fields))
        });
        Value::Object(metrics.collect())
    }

    /// The one-line result the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics_json(false),
        })
        .to_string()
    }

    /// The result with quartiles and sample counts, for `--out` files and
    /// `compare`.
    pub fn detailed(&self) -> Value {
        json!({
            "workload": self.workload.clone(),
            "seed": self.seed,
            "trace": self.trace,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics_json(true),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_validated() {
        for good in ["setup_s", "exec.work.join", "a", "9lives", "x-y_z.0"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".hidden", "-x", "has space", "unit/s", "pct%", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_meets_the_contract() {
        let d = declared();
        assert_eq!(
            d.workloads,
            crate::workloads::SPECS.iter().map(|s| s.name.to_string()).collect::<Vec<_>>()
        );
        assert!((1..=60).contains(&d.run_seconds));
        assert!((1..=16).contains(&d.end_to_end.len()));
        assert!((1..=128).contains(&d.per_layer.len()));
        let mut names: Vec<&str> =
            d.end_to_end.iter().chain(&d.per_layer).map(|m| m.name.as_str()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        for m in &d.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = d.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn bad_documents_are_rejected() {
        assert!(parse_declared("{").is_err());
        assert!(parse_declared(r#"{"workloads": [], "end_to_end": []}"#).is_err());
        let bad_name = r#"{"workloads": [], "per_layer": [],
            "end_to_end": [{"name": "a b", "unit": "s", "better": "lower", "bound": 0.1}]}"#;
        assert!(parse_declared(bad_name).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("lazy_batch", 1, false);
        r.attempted = 10;
        r.record("setup_s", 0.5);
        r.record("setup_s", 0.7);
        r.record("setup_s", 0.6);
        let doc = serde_json::from_str(&r.result_line()).unwrap();
        let Value::Object(fields) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc["metrics"]["setup_s"]["value"].as_f64(), Some(0.6));
        assert_eq!(doc["metrics"]["setup_s"]["unit"], "s");
        assert!(r.missing().contains(&"run_s"));
    }
}

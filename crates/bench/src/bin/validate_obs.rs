//! Validate observability artifacts emitted by `examples/quickstart
//! --trace-out --metrics-out`.
//!
//! ```text
//! cargo run -p ishare-bench --bin validate_obs -- trace.json metrics.json [metrics.prom]
//! ```
//!
//! Checks, in order:
//!
//! * both files parse as JSON through the vendored `serde_json` stub,
//! * the trace has a non-empty `traceEvents` array whose events carry valid
//!   `ph`/`ts`/`dur` fields (`ph: "X"` spans, `ph: "M"` metadata, `ph: "C"`
//!   slack counters only),
//! * spans on the same `tid` (track) do not overlap,
//! * the metrics report's `breakdown_total` and the sum of its per-kind
//!   entries both match `total_work` within 1e-6 relative error,
//! * with a third argument: the file is a well-formed Prometheus text
//!   exposition (`ishare_`-prefixed families, every sample line numeric,
//!   every family preceded by a `# TYPE` header).
//!
//! Exits 0 if everything holds, 1 with a message otherwise — this is the CI
//! smoke gate for the observability layer.

use std::collections::BTreeMap;

fn fail(msg: &str) -> ! {
    eprintln!("validate_obs: {msg}");
    std::process::exit(1);
}

fn load(path: &str) -> serde_json::Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    if text.trim().is_empty() {
        fail(&format!("{path} is empty"));
    }
    serde_json::from_str(&text).unwrap_or_else(|e| fail(&format!("{path} is not valid JSON: {e}")))
}

fn validate_trace(path: &str) -> usize {
    let trace = load(path);
    let events = trace
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| fail(&format!("{path}: missing `traceEvents` array")));
    if events.is_empty() {
        fail(&format!("{path}: `traceEvents` is empty"));
    }
    let mut spans_by_tid: BTreeMap<i64, Vec<(i64, i64)>> = BTreeMap::new();
    let mut span_count = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .unwrap_or_else(|| fail(&format!("{path}: event {i} has no `ph`")));
        match ph {
            "M" => continue,
            "C" => {
                // Counter events (slack tracks) carry ts + numeric args only.
                let ts = ev
                    .get("ts")
                    .and_then(|v| v.as_i64())
                    .unwrap_or_else(|| fail(&format!("{path}: counter event {i} lacks `ts`")));
                if ts < 0 {
                    fail(&format!("{path}: counter event {i} has negative ts"));
                }
                continue;
            }
            "X" => {}
            other => fail(&format!("{path}: event {i} has unexpected ph {other:?}")),
        }
        let field = |name: &str| {
            ev.get(name)
                .and_then(|v| v.as_i64())
                .unwrap_or_else(|| fail(&format!("{path}: event {i} lacks integer `{name}`")))
        };
        let (ts, dur, tid) = (field("ts"), field("dur"), field("tid"));
        if ts < 0 || dur < 0 {
            fail(&format!("{path}: event {i} has negative ts/dur"));
        }
        spans_by_tid.entry(tid).or_default().push((ts, ts + dur));
        span_count += 1;
    }
    if span_count == 0 {
        fail(&format!("{path}: no `ph: \"X\"` span events"));
    }
    for (tid, spans) in &mut spans_by_tid {
        spans.sort_unstable();
        for w in spans.windows(2) {
            if w[1].0 < w[0].1 {
                fail(&format!(
                    "{path}: overlapping spans on tid {tid}: [{}, {}) and [{}, {})",
                    w[0].0, w[0].1, w[1].0, w[1].1
                ));
            }
        }
    }
    span_count
}

fn validate_metrics(path: &str) -> f64 {
    let metrics = load(path);
    let number = |name: &str| {
        metrics
            .get(name)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| fail(&format!("{path}: missing numeric `{name}`")))
    };
    let total = number("total_work");
    let breakdown_total = number("breakdown_total");
    let kinds = metrics
        .get("work_by_kind")
        .unwrap_or_else(|| fail(&format!("{path}: missing `work_by_kind`")));
    let mut kind_sum = 0.0;
    match kinds {
        serde_json::Value::Object(map) => {
            for (k, v) in map {
                kind_sum += v
                    .as_f64()
                    .unwrap_or_else(|| fail(&format!("{path}: work_by_kind.{k} not numeric")));
            }
        }
        _ => fail(&format!("{path}: `work_by_kind` is not an object")),
    }
    let check = |label: &str, got: f64| {
        let tol = 1e-6 * total.abs().max(1.0);
        if (got - total).abs() > tol {
            fail(&format!("{path}: {label} {got} disagrees with total_work {total} (tol {tol})"));
        }
    };
    check("breakdown_total", breakdown_total);
    check("sum(work_by_kind)", kind_sum);
    total
}

/// A Prometheus 0.0.4 text exposition: `# TYPE` headers, `ishare_`-prefixed
/// families, numeric sample values. Returns the sample-line count.
fn validate_prom(path: &str) -> usize {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                fail(&format!("{path}:{}: malformed TYPE header", i + 1));
            };
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                fail(&format!("{path}:{}: unknown metric type {kind:?}", i + 1));
            }
            typed.insert(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((name_and_labels, value)) = line.rsplit_once(' ') else {
            fail(&format!("{path}:{}: sample line has no value", i + 1));
        };
        let name = name_and_labels.split('{').next().unwrap_or(name_and_labels);
        if !name.starts_with("ishare_") {
            fail(&format!("{path}:{}: family {name:?} lacks the ishare_ prefix", i + 1));
        }
        // Histogram series (`_bucket`/`_sum`/`_count`) belong to the base
        // family's TYPE header.
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| typed.contains(*b))
            .unwrap_or(name);
        if !typed.contains(base) {
            fail(&format!("{path}:{}: sample {name:?} has no preceding TYPE header", i + 1));
        }
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            fail(&format!("{path}:{}: non-numeric sample value {value:?}", i + 1));
        }
        samples += 1;
    }
    if samples == 0 {
        fail(&format!("{path}: no sample lines"));
    }
    samples
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (trace_path, metrics_path, prom_path) = match args.as_slice() {
        [t, m] => (t, m, None),
        [t, m, p] => (t, m, Some(p)),
        _ => {
            eprintln!("usage: validate_obs <trace.json> <metrics.json> [metrics.prom]");
            std::process::exit(2);
        }
    };
    let spans = validate_trace(trace_path);
    let total = validate_metrics(metrics_path);
    if let Some(p) = prom_path {
        let samples = validate_prom(p);
        println!("validate_obs: OK — {spans} spans, total work {total}, {samples} prom samples");
    } else {
        println!("validate_obs: OK — {spans} spans, total work {total}");
    }
}

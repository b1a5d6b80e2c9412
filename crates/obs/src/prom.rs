//! Prometheus text exposition (version 0.0.4) rendering of a
//! [`MetricsRegistry`] snapshot.
//!
//! `--metrics-out foo.prom` selects this format in the bench harness,
//! `figures`, and the quickstart example (any other extension writes the
//! JSON snapshot). The rendering is a pure function of the registry — names
//! iterate in `BTreeMap` order and numbers go through Rust's deterministic
//! `f64` display — so byte-identical registries produce byte-identical
//! expositions, and the cross-process determinism test can diff them
//! directly.
//!
//! Mapping:
//! * dotted metric names become underscore names under an `ishare_` prefix
//!   (`slo.q0.slack_remaining` → `ishare_slo_q0_slack_remaining`);
//! * counters render as `# TYPE ... counter`, gauges as `gauge`;
//! * histograms render cumulatively as `_bucket{le="..."}` series ending at
//!   `le="+Inf"`, plus `_sum` and `_count`, per the exposition format.

use crate::metrics::{Histogram, MetricsRegistry};
use std::fmt::Write as _;

/// Sanitize a dotted metric name into a Prometheus metric name:
/// `ishare_` prefix, every character outside `[a-zA-Z0-9_]` mapped to `_`.
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("ishare_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

fn render_histogram(out: &mut String, name: &str, h: &Histogram) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (bound, count) in h.bounds().iter().zip(h.bucket_counts()) {
        cumulative += count;
        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", fmt_value(*bound));
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{name}_sum {}", fmt_value(h.sum()));
    let _ = writeln!(out, "{name}_count {}", h.count());
}

/// Render the full registry as Prometheus text exposition.
pub fn prometheus_text(m: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, v) in m.counters() {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {}", fmt_value(v));
    }
    for (name, v) in m.gauges() {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {}", fmt_value(v));
    }
    for (name, h) in m.histograms() {
        render_histogram(&mut out, &prom_name(name), h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(prom_name("work.total"), "ishare_work_total");
        assert_eq!(prom_name("slo.q0.slack_remaining"), "ishare_slo_q0_slack_remaining");
        assert_eq!(prom_name("batch.sp3.fill"), "ishare_batch_sp3_fill");
    }

    #[test]
    fn exposition_renders_all_metric_types() {
        let mut m = MetricsRegistry::new();
        m.counter_add("work.total", 42.5);
        m.gauge_set("slo.q0.slack_remaining", 10.0);
        m.histogram_record_with("tick.work", &[1.0, 10.0], 0.5);
        m.histogram_record_with("tick.work", &[1.0, 10.0], 5.0);
        m.histogram_record_with("tick.work", &[1.0, 10.0], 50.0);
        let text = prometheus_text(&m);
        let want = "\
# TYPE ishare_work_total counter
ishare_work_total 42.5
# TYPE ishare_slo_q0_slack_remaining gauge
ishare_slo_q0_slack_remaining 10
# TYPE ishare_tick_work histogram
ishare_tick_work_bucket{le=\"1\"} 1
ishare_tick_work_bucket{le=\"10\"} 2
ishare_tick_work_bucket{le=\"+Inf\"} 3
ishare_tick_work_sum 55.5
ishare_tick_work_count 3
";
        assert_eq!(text, want);
    }

    #[test]
    fn exposition_is_deterministic() {
        let build = || {
            let mut m = MetricsRegistry::new();
            m.gauge_set("b.gauge", 2.0);
            m.counter_add("a.counter", 1.0);
            m.histogram_record("c.hist", 3.0);
            m
        };
        assert_eq!(prometheus_text(&build()), prometheus_text(&build()));
    }

    #[test]
    fn empty_registry_renders_empty() {
        assert_eq!(prometheus_text(&MetricsRegistry::new()), "");
    }
}

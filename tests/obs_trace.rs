//! Observability artifacts are well-formed: the Chrome trace produced by a
//! real run parses, carries valid span events, has non-overlapping spans per
//! track, and the metrics document round-trips through the JSON parser with
//! its work invariants intact.

use ishare::core::adapt::{AdaptController, AdaptOptions};
use ishare::obs::{Span, SpanKind};
use ishare::stream::{
    execute_adaptive_from_source_obs, execute_from_source_obs, execute_planned_deltas_with,
    ObsConfig, ObsReport, Source, SourceConfig, SourceOptions, SourceOutcome,
};
use ishare_common::{CostWeights, DataType, OpKind, QueryId, QuerySet, TableId, Value};
use ishare_expr::Expr;
use ishare_plan::{AggExpr, AggFunc, DagOp, SelectBranch, SharedDag, SharedPlan};
use ishare_storage::{Catalog, Field, Row, Schema, TableStats};
use std::collections::HashMap;

type DeltaFeeds = HashMap<TableId, Vec<(Row, i64)>>;

/// A two-query plan that `from_dag` cuts into three subplans (shared
/// scan+select trunk, one aggregate per query).
fn tiny_workload() -> (Catalog, SharedPlan, DeltaFeeds) {
    let mut c = Catalog::new();
    let t = c
        .add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
            TableStats::unknown(100.0, 2),
        )
        .unwrap();
    let qs = |ids: &[u16]| QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)));
    let mut d = SharedDag::new();
    let scan = d.add_node(DagOp::Input(t), vec![], qs(&[0, 1])).unwrap();
    let branches = vec![
        SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() },
        SelectBranch { queries: qs(&[1]), predicate: Expr::col(1).lt(Expr::lit(50i64)) },
    ];
    let sel = d.add_node(DagOp::Select { branches }, vec![scan], qs(&[0, 1])).unwrap();
    for q in 0..2u16 {
        let agg = d
            .add_node(
                DagOp::Aggregate {
                    group_by: vec![(Expr::col(0), "k".into())],
                    aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "a")],
                },
                vec![sel],
                qs(&[q]),
            )
            .unwrap();
        d.set_query_root(QueryId(q), agg).unwrap();
    }
    let plan = SharedPlan::from_dag(&d).unwrap();
    let feed: Vec<(Row, i64)> =
        (0..120).map(|i| (Row::new(vec![Value::Int(i % 5), Value::Int(i % 100)]), 1i64)).collect();
    (c, plan, [(t, feed)].into_iter().collect())
}

fn run_with_obs() -> (f64, ObsReport) {
    let (c, plan, data) = tiny_workload();
    let paces = vec![4u32; plan.len()];
    let opts = SourceOptions { obs: Some(ObsConfig::default()), ..Default::default() };
    let run = execute_planned_deltas_with(&plan, &paces, &c, &data, CostWeights::default(), opts)
        .unwrap();
    (run.total_work.get(), run.obs.unwrap())
}

fn check_chrome_trace(trace: &serde_json::Value) {
    let events = trace["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty(), "trace must contain events");
    let mut spans_by_tid: HashMap<i64, Vec<(i64, i64)>> = HashMap::new();
    let mut charged_by_query: HashMap<&str, f64> = HashMap::new();
    let mut saw_span = false;
    for ev in events {
        match ev["ph"].as_str().expect("ph field") {
            "M" => {
                assert_eq!(ev["name"].as_str(), Some("thread_name"));
                continue;
            }
            // Charged-work counter tracks: a timestamped series per query
            // that never decreases.
            "C" => {
                assert!(ev["ts"].as_i64().expect("counter ts") >= 0);
                let charged = ev["args"]["charged"].as_f64().expect("counters carry `charged`");
                let name = ev["name"].as_str().expect("counter name");
                let last = charged_by_query.insert(name, charged).unwrap_or(0.0);
                assert!(charged >= last, "{name}: charged work fell from {last} to {charged}");
                continue;
            }
            "X" => {}
            other => panic!("unexpected ph {other:?}"),
        }
        saw_span = true;
        let ts = ev["ts"].as_i64().expect("integer ts");
        let dur = ev["dur"].as_i64().expect("integer dur");
        let tid = ev["tid"].as_i64().expect("integer tid");
        assert!(ts >= 0 && dur >= 0, "ts/dur must be non-negative");
        assert!(ev["args"]["work"].as_f64().is_some(), "span args carry work");
        spans_by_tid.entry(tid).or_default().push((ts, ts + dur));
    }
    assert!(saw_span, "trace must contain at least one span");
    for (tid, spans) in &mut spans_by_tid {
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[1].0 >= w[0].1, "spans overlap on tid {tid}: {:?} then {:?}", w[0], w[1]);
        }
    }
}

/// Every tick rides on the one tick track, whose spans never overlap.
#[test]
fn chrome_trace_is_well_formed_sequential_and_parallel() {
    let trace = run_with_obs().1.chrome_trace();
    check_chrome_trace(&trace);
    let ticks = trace["traceEvents"].as_array().unwrap().iter().filter(|e| e["cat"] == "tick");
    assert!(ticks.map(|e| e["tid"].as_i64()).all(|tid| tid == Some(1)), "ticks off track 1");
}

#[test]
fn metrics_json_roundtrips_and_sums() {
    let (total, report) = run_with_obs();
    let doc = report.metrics_json();
    let text = serde_json::to_string_pretty(&doc).unwrap();
    let parsed = serde_json::from_str(&text).unwrap();
    assert_eq!(doc, parsed, "metrics JSON must round-trip through the parser");

    let tol = 1e-6 * total.abs().max(1.0);
    assert_eq!(parsed["total_work"].as_f64(), Some(total), "metrics carry the run's total work");
    let breakdown_total = parsed["breakdown_total"].as_f64().unwrap();
    assert!((breakdown_total - total).abs() <= tol);
    let kinds = match &parsed["work_by_kind"] {
        serde_json::Value::Object(fields) => fields,
        other => panic!("work_by_kind must be an object, got {other:?}"),
    };
    let kind_sum: f64 = kinds.iter().map(|(_, v)| v.as_f64().unwrap()).sum();
    assert!((kind_sum - total).abs() <= tol, "kind sum {kind_sum} != total {total}");
}

/// A subplan buffer holds only rows some reader has yet to read, so a
/// completed run leaves none resident: the query roots, which nothing
/// reads, never wrote theirs, and the shared trunk's readers took its rows.
#[test]
fn completed_run_leaves_no_buffered_rows() {
    let report = run_with_obs().1;
    let sum = |suffix: &str| -> f64 {
        let named = |n: &str| n.starts_with("buffer.sp") && n.ends_with(suffix);
        report.metrics.gauges().filter(|(n, _)| named(n)).map(|(_, v)| v).sum()
    };
    assert!(sum(".len") > 0.0, "the shared trunk's buffer carried rows");
    assert_eq!(sum(".len") - sum(".compacted"), 0.0, "rows resident after the run");
}

/// The Prometheus exposition of a real run: every family `ishare_`-prefixed
/// and typed by a `# TYPE` header before its first sample (histogram
/// `_bucket` / `_sum` / `_count` series under their base family), every
/// sample value numeric, and at least one sample.
#[test]
fn prometheus_text_is_well_formed() {
    let text = run_with_obs().1.prometheus();
    let mut typed: HashMap<String, String> = HashMap::new();
    let mut samples = 0;
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let [name, kind] = fields[..] else { panic!("malformed TYPE header {line:?}") };
            assert!(matches!(kind, "counter" | "gauge" | "histogram"), "unknown type in {line:?}");
            typed.insert(name.to_string(), kind.to_string());
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment {line:?}");
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        let name = series.split('{').next().unwrap();
        assert!(name.starts_with("ishare_"), "family {name:?} lacks the ishare_ prefix");
        let histogram_base = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suffix| name.strip_suffix(suffix))
            .find(|base| typed.get(*base).is_some_and(|k| k == "histogram"));
        let base = histogram_base.unwrap_or(name);
        assert!(typed.contains_key(base), "sample {name:?} has no preceding TYPE header");
        assert!(
            value.parse::<f64>().is_ok() || matches!(value, "+Inf" | "-Inf" | "NaN"),
            "non-numeric sample value in {line:?}"
        );
        samples += 1;
    }
    assert!(samples > 0, "no sample lines");
    assert!(typed.values().any(|k| k == "histogram"), "a run records histograms");
}

/// A source-fed run with SLO budgets grows the trace by the new tracks —
/// ingest poll spans, operator spans, per-query charged-work counters —
/// and the whole document still satisfies the well-formedness checks.
#[test]
fn slo_run_adds_aux_and_slack_tracks() {
    let (c, plan, data) = tiny_workload();
    let paces = vec![4u32; plan.len()];
    let budgets: std::collections::BTreeMap<QueryId, f64> =
        [(QueryId(0), 1e6), (QueryId(1), 1e6)].into_iter().collect();
    let mut source = Source::in_order(&data);
    let run = execute_from_source_obs(
        &plan,
        &paces,
        &c,
        &mut source,
        CostWeights::default(),
        SourceOptions { obs: Some(ObsConfig::default()), slo: Some(budgets), ..Default::default() },
    )
    .unwrap()
    .into_result()
    .unwrap();
    let report = run.obs.unwrap();

    let ledger = report.slack.as_ref().expect("slo budgets produce a ledger");
    ledger.verify().unwrap();
    assert_eq!(ledger.misses(), 0, "1e6 budgets are unmissable on 120 rows");
    let aux = |s: &Span| !matches!(s.kind, SpanKind::Tick { .. } | SpanKind::Wavefront { .. });
    assert!(report.trace.spans().iter().any(aux), "ingest/operator aux spans recorded");
    assert!(!report.trace.slack_points().is_empty(), "charged-work counter points recorded");
    // Each query's last counter point is what its account was charged.
    for (q, slot) in ledger.queries() {
        let points = report.trace.slack_points().iter();
        let last = points.rev().find(|p| p.query == q.0).expect("a point per query");
        assert_eq!(last.charged.to_bits(), slot.charged_total.to_bits(), "{q}: charged");
        assert!(slot.charged_total > 0.0, "{q}: nothing charged");
    }

    let doc = report.chrome_trace();
    check_chrome_trace(&doc);
    let events = doc["traceEvents"].as_array().unwrap();
    let count_ph = |ph: &str| events.iter().filter(|e| e["ph"].as_str() == Some(ph)).count();
    assert!(count_ph("C") > 0, "trace carries charged-work counter events");
    let cats: Vec<&str> = events.iter().filter_map(|e| e["cat"].as_str()).collect();
    for want in ["ingest", "operator", "slo"] {
        assert!(cats.contains(&want), "trace lacks category {want:?}");
    }
}

/// An adaptive, budgeted run pulled from a jittered source records one tick
/// span per execution, one wavefront and one ingest-poll span per front,
/// one adapt span per controller evaluation and one counter point per query
/// per front — and drops nothing.
#[test]
fn adaptive_source_fed_run_records_each_span_once() {
    let (c, plan, data) = tiny_workload();
    let paces = vec![4u32; plan.len()];
    let budgets: std::collections::BTreeMap<QueryId, f64> =
        [(QueryId(0), 1e6), (QueryId(1), 1e6)].into_iter().collect();
    let w = CostWeights::default();
    let mut ctrl =
        AdaptController::new(&plan, &c, w, &paces, budgets.clone(), AdaptOptions::default())
            .unwrap();
    let topology = SourceConfig { partitions: 2, capacity: 16, jitter: 5, seed: 3 };
    let mut source = Source::new(&data, topology).unwrap();
    let opts = SourceOptions {
        obs: Some(ObsConfig::default()),
        slo: Some(budgets.clone()),
        ..Default::default()
    };
    let outcome =
        execute_adaptive_from_source_obs(&plan, &c, &mut source, w, opts, &mut ctrl).unwrap();
    let SourceOutcome::Completed { result, log } = outcome else { panic!("the run was stopped") };
    let report = result.obs.as_ref().unwrap();

    let doc = report.chrome_trace();
    check_chrome_trace(&doc);
    let events = doc["traceEvents"].as_array().unwrap();
    let spans = |cat: &str| events.iter().filter(|e| e["ph"] == "X" && e["cat"] == cat).count();
    let fronts = log.len();
    assert!(fronts > 1, "a paced run has several fronts");
    assert_eq!(spans("tick"), result.executions);
    assert_eq!(spans("wavefront"), fronts);
    assert_eq!(spans("ingest"), fronts);
    assert_eq!(spans("adapt") as u64, ctrl.metrics().evaluations);
    let samples = events.iter().filter(|e| e["ph"] == "C").count();
    assert_eq!(samples, budgets.len() * fronts);
    assert_eq!(report.trace.slack_points().len(), samples);
    assert_eq!(report.trace.dropped(), 0);
}

/// Operator spans of one run, checked against the work they stand for:
/// each tick's operator spans follow its tick span, name distinct kinds in
/// breakdown order, each carry nonzero work and together carry the tick's
/// work, so none is dropped however short the tick; and per kind they sum
/// to the run's breakdown. Returns how many there are, i.e. the number of
/// (tick, kind) pairs with nonzero work.
fn operator_spans(report: &ObsReport) -> usize {
    let close = |tick: Option<(f64, f64)>| {
        if let Some((want, got)) = tick {
            assert!((got - want).abs() <= 1e-9 * want, "tick work {want}, operator spans {got}");
        }
    };
    let mut by_kind = [0.0f64; OpKind::COUNT];
    let (mut pairs, mut tick, mut last_kind) = (0, None, None);
    for span in report.trace.spans() {
        match span.kind {
            SpanKind::Operator(kind) => {
                let (_, sum) = tick.as_mut().expect("an operator span follows its tick");
                assert!(span.work > 0.0, "operator span without work: {span:?}");
                assert!(last_kind < Some(kind.index()), "kind repeated or out of order");
                last_kind = Some(kind.index());
                *sum += span.work;
                by_kind[kind.index()] += span.work;
                pairs += 1;
            }
            SpanKind::Tick { .. } => {
                close(tick.replace((span.work, 0.0)));
                last_kind = None;
            }
            _ => close(tick.take()),
        }
    }
    close(tick);
    let breakdown = report.breakdown();
    for kind in OpKind::ALL {
        let (got, want) = (by_kind[kind.index()], breakdown.get(kind));
        assert!((got - want).abs() <= 1e-9 * want, "{kind:?}: spans {got}, breakdown {want}");
    }
    pairs
}

/// One operator span per (tick, kind) with nonzero work, zero-length ones
/// included, so two observed runs of one input record the same count.
#[test]
fn operator_spans_count_every_kind_of_work_of_every_tick() {
    let (_, report) = run_with_obs();
    let pairs = operator_spans(&report);
    let doc = report.chrome_trace();
    let events = doc["traceEvents"].as_array().unwrap();
    let exported = events.iter().filter(|e| e["ph"] == "X" && e["cat"] == "operator").count();
    assert_eq!(exported, pairs);
    assert!(pairs > 0);
    assert_eq!(operator_spans(&run_with_obs().1), pairs, "operator span count moved between runs");
}

/// The deterministic metrics snapshot must serialize to the same bytes in a
/// different process: HashMap iteration order varies between processes
/// (random SipHash keys), and the snapshot's wall-clock filter plus BTreeMap
/// ordering are what make cross-run diffs meaningful.
#[test]
fn deterministic_snapshot_is_byte_identical_across_processes() {
    let (_, report) = run_with_obs();
    let snapshot = serde_json::to_string_pretty(&report.metrics.snapshot_deterministic()).unwrap();
    if std::env::var_os("ISHARE_OBS_SNAPSHOT_CHILD").is_some() {
        println!("SNAPSHOT_LEN:{}", snapshot.len());
        println!("SNAPSHOT_FNV:{:016x}", fnv(&snapshot));
        return;
    }
    let exe = std::env::current_exe().unwrap();
    let out = std::process::Command::new(exe)
        .args([
            "deterministic_snapshot_is_byte_identical_across_processes",
            "--exact",
            "--nocapture",
        ])
        .env("ISHARE_OBS_SNAPSHOT_CHILD", "1")
        .output()
        .unwrap();
    assert!(out.status.success(), "child test run failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let find = |marker: &str| {
        stdout
            .lines()
            .find_map(|l| l.split_once(marker).map(|(_, s)| s.to_string()))
            .unwrap_or_else(|| panic!("child printed no {marker}:\n{stdout}"))
    };
    assert_eq!(find("SNAPSHOT_LEN:"), format!("{}", snapshot.len()));
    assert_eq!(find("SNAPSHOT_FNV:"), format!("{:016x}", fnv(&snapshot)));
}

fn fnv(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

#[test]
fn trace_roundtrips_through_parser() {
    let (_, report) = run_with_obs();
    let doc = report.chrome_trace();
    let text = serde_json::to_string_pretty(&doc).unwrap();
    let parsed = serde_json::from_str(&text).unwrap();
    assert_eq!(doc, parsed);
}

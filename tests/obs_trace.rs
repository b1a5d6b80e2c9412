//! Observability artifacts are well-formed: the Chrome trace produced by a
//! real run parses, carries valid span events, has non-overlapping spans per
//! worker track, and the metrics document round-trips through the JSON
//! parser with its work invariants intact.

use ishare::stream::{
    execute_from_source_obs, execute_planned_deltas_with, ObsConfig, ObsReport, Source,
    SourceOptions,
};
use ishare_common::{CostWeights, DataType, QueryId, QuerySet, TableId, Value};
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
    let scan = d.add_node(DagOp::Scan { table: t }, vec![], qs(&[0, 1])).unwrap();
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
    let plan = SharedPlan::from_dag(&d, |_| false).unwrap();
    let feed: Vec<(Row, i64)> =
        (0..120).map(|i| (Row::new(vec![Value::Int(i % 5), Value::Int(i % 100)]), 1i64)).collect();
    (c, plan, [(t, feed)].into_iter().collect())
}

fn run_with_obs(threads: usize) -> (f64, ObsReport) {
    let (c, plan, data) = tiny_workload();
    let paces = vec![4u32; plan.len()];
    let opts =
        SourceOptions { obs: Some(ObsConfig::default()), workers: threads, ..Default::default() };
    let run = execute_planned_deltas_with(&plan, &paces, &c, &data, CostWeights::default(), opts)
        .unwrap();
    (run.total_work.get(), run.obs.unwrap())
}

fn check_chrome_trace(trace: &serde_json::Value) {
    let events = trace["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty(), "trace must contain events");
    let mut spans_by_tid: HashMap<i64, Vec<(i64, i64)>> = HashMap::new();
    let mut saw_span = false;
    for ev in events {
        match ev["ph"].as_str().expect("ph field") {
            "M" => {
                assert_eq!(ev["name"].as_str(), Some("thread_name"));
                continue;
            }
            // Slack counter tracks: a timestamped value series per query.
            "C" => {
                assert!(ev["ts"].as_i64().expect("counter ts") >= 0);
                assert!(
                    ev["args"]["remaining"].as_f64().is_some(),
                    "slack counters carry `remaining`"
                );
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

#[test]
fn chrome_trace_is_well_formed_sequential_and_parallel() {
    for threads in [1usize, 2, 4] {
        let (_, report) = run_with_obs(threads);
        check_chrome_trace(&report.chrome_trace());
    }
}

#[test]
fn metrics_json_roundtrips_and_sums() {
    let (total, report) = run_with_obs(2);
    let doc = report.metrics_json();
    let text = serde_json::to_string_pretty(&doc).unwrap();
    let parsed = serde_json::from_str(&text).unwrap();
    assert_eq!(doc, parsed, "metrics JSON must round-trip through the parser");

    let tol = 1e-6 * total.abs().max(1.0);
    let breakdown_total = parsed["breakdown_total"].as_f64().unwrap();
    assert!((breakdown_total - total).abs() <= tol);
    let kinds = match &parsed["work_by_kind"] {
        serde_json::Value::Object(fields) => fields,
        other => panic!("work_by_kind must be an object, got {other:?}"),
    };
    let kind_sum: f64 = kinds.iter().map(|(_, v)| v.as_f64().unwrap()).sum();
    assert!((kind_sum - total).abs() <= tol, "kind sum {kind_sum} != total {total}");
}

/// A source-fed run with SLO budgets grows the trace by the new tracks —
/// ingest poll spans, per-worker operator spans, per-query slack counters —
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
    assert!(!report.trace.aux_spans().is_empty(), "ingest/operator aux spans recorded");
    assert!(!report.trace.slack_points().is_empty(), "slack counter points recorded");

    let doc = report.chrome_trace();
    check_chrome_trace(&doc);
    let events = doc["traceEvents"].as_array().unwrap();
    let count_ph = |ph: &str| events.iter().filter(|e| e["ph"].as_str() == Some(ph)).count();
    assert!(count_ph("C") > 0, "trace carries slack counter events");
    let cats: Vec<&str> = events.iter().filter_map(|e| e["cat"].as_str()).collect();
    for want in ["ingest", "operator", "slo"] {
        assert!(cats.contains(&want), "trace lacks category {want:?}");
    }
}

/// The deterministic metrics snapshot must serialize to the same bytes in a
/// different process: HashMap iteration order varies between processes
/// (random SipHash keys), and the snapshot's wall-clock filter plus BTreeMap
/// ordering are what make cross-run diffs meaningful.
#[test]
fn deterministic_snapshot_is_byte_identical_across_processes() {
    let (_, report) = run_with_obs(2);
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
    let (_, report) = run_with_obs(1);
    let doc = report.chrome_trace();
    let text = serde_json::to_string_pretty(&doc).unwrap();
    let parsed = serde_json::from_str(&text).unwrap();
    assert_eq!(doc, parsed);
}

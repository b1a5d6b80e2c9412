//! Shared experiment machinery: workloads, latency goals, planned +
//! measured runs, and table printing.

use ishare_common::{CostWeights, QueryId, QuerySet, Result, Value};
use ishare_core::{plan_workload, Approach, FinalWorkConstraint, PlanningOptions};
use ishare_plan::LogicalPlan;
use ishare_storage::{DeltaBatch, DeltaRow, Row};
use ishare_stream::{
    execute_from_source_obs, execute_planned, insert_feeds, missed_latency_stats,
    MissedLatencyStats, ObsConfig, ObsReport, Source, SourceConfig, SourceOptions,
};
use ishare_tpch::{generate, TpchData};
use std::collections::BTreeMap;
use std::time::Duration;

/// The experiment environment: one generated TPC-H instance plus the
/// per-query measured batch baselines that latency goals derive from.
pub struct Env {
    /// Generated data + catalog.
    pub data: TpchData,
    /// Scale factor used.
    pub sf: f64,
    /// Seed used.
    pub seed: u64,
    /// Per-query measured batch final work (separate, one batch).
    batch_final_work: BTreeMap<String, f64>,
    /// Per-query measured batch latency (wall seconds of the one batch
    /// execution).
    batch_wall: BTreeMap<String, f64>,
}

impl Env {
    /// Generate the environment.
    pub fn new(sf: f64, seed: u64) -> Result<Env> {
        Ok(Env {
            data: generate(sf, seed)?,
            sf,
            seed,
            batch_final_work: BTreeMap::new(),
            batch_wall: BTreeMap::new(),
        })
    }

    /// Measured batch baseline of one named query (cached).
    pub fn batch_baseline(&mut self, name: &str, plan: &LogicalPlan) -> Result<(f64, f64)> {
        if let (Some(&w), Some(&s)) = (self.batch_final_work.get(name), self.batch_wall.get(name)) {
            return Ok((w, s));
        }
        let queries = vec![(QueryId(0), plan.clone())];
        let cons: BTreeMap<QueryId, FinalWorkConstraint> =
            [(QueryId(0), FinalWorkConstraint::Relative(1.0))].into_iter().collect();
        let opts = PlanningOptions { max_pace: 1, ..Default::default() };
        let planned =
            plan_workload(Approach::NoShareUniform, &queries, &cons, &self.data.catalog, &opts)?;
        let run = execute_planned(
            &planned.plan,
            planned.paces.as_slice(),
            &self.data.catalog,
            &self.data.data,
            CostWeights::default(),
        )?;
        let w = run.final_work[&QueryId(0)];
        let s = run.latency[&QueryId(0)].as_secs_f64();
        self.batch_final_work.insert(name.to_string(), w);
        self.batch_wall.insert(name.to_string(), s);
        Ok((w, s))
    }
}

/// A named workload: queries with relative final work constraints.
#[derive(Clone)]
pub struct Workload {
    /// Display name.
    pub name: String,
    /// Queries with stable names (for baseline caching) and plans.
    pub queries: Vec<(String, LogicalPlan)>,
    /// Relative constraint per query (aligned with `queries`).
    pub rel_constraints: Vec<f64>,
}

impl Workload {
    /// Build with a uniform relative constraint.
    pub fn uniform(
        name: impl Into<String>,
        queries: Vec<(String, LogicalPlan)>,
        frac: f64,
    ) -> Workload {
        let n = queries.len();
        Workload { name: name.into(), queries, rel_constraints: vec![frac; n] }
    }

    fn planner_inputs(
        &self,
    ) -> (Vec<(QueryId, LogicalPlan)>, BTreeMap<QueryId, FinalWorkConstraint>) {
        let queries: Vec<(QueryId, LogicalPlan)> = self
            .queries
            .iter()
            .enumerate()
            .map(|(i, (_, p))| (QueryId(i as u16), p.clone()))
            .collect();
        let cons = self
            .rel_constraints
            .iter()
            .enumerate()
            .map(|(i, &f)| (QueryId(i as u16), FinalWorkConstraint::Relative(f)))
            .collect();
        (queries, cons)
    }
}

/// One approach's planned + measured outcome on a workload.
#[derive(Debug, Clone)]
pub struct ApproachRun {
    /// Which approach.
    pub approach: Approach,
    /// Estimated total work at the chosen paces.
    pub est_total: f64,
    /// Measured total work (engine counters).
    pub measured_total: f64,
    /// Wall-clock of all incremental executions.
    pub total_wall: Duration,
    /// Optimization wall time.
    pub opt_time: Duration,
    /// Missed latency vs goals in *work units* (the cost-model metric).
    pub missed_work: MissedLatencyStats,
    /// Missed latency vs goals in *seconds* (measured wall).
    pub missed_wall: MissedLatencyStats,
    /// Subplan count of the executed plan.
    pub subplans: usize,
    /// Did the optimizer believe all constraints met?
    pub feasible: bool,
    /// End-to-end wall clock of the run (setup + feeding + execution).
    pub elapsed: Duration,
    /// Worker threads used (1 = the sequential reference driver).
    pub threads: usize,
}

/// Plan and execute one workload under one approach, measuring against the
/// paper's latency goals (`goal(q) = relative constraint × measured batch
/// latency of q`, Sec. 5.1). Runs on the sequential reference driver.
pub fn run_approach(
    env: &mut Env,
    workload: &Workload,
    approach: Approach,
    opts: &PlanningOptions,
) -> Result<ApproachRun> {
    run_approach_threaded(env, workload, approach, opts, 1)
}

/// [`run_approach`] with an explicit worker-thread count: `threads == 1`
/// uses the sequential driver, `threads > 1` the parallel driver (which is
/// bit-identical in every work number, so approach comparisons are
/// unaffected by the knob).
pub fn run_approach_threaded(
    env: &mut Env,
    workload: &Workload,
    approach: Approach,
    opts: &PlanningOptions,
    threads: usize,
) -> Result<ApproachRun> {
    Ok(run_approach_obs(env, workload, approach, opts, threads, None)?.0)
}

/// [`run_approach_threaded`] with opt-in observability: when `obs` is set,
/// the driver also returns an [`ObsReport`] (per-operator × per-subplan work
/// breakdown, metrics, tick/wavefront span trace) without perturbing any
/// measured work number.
pub fn run_approach_obs(
    env: &mut Env,
    workload: &Workload,
    approach: Approach,
    opts: &PlanningOptions,
    threads: usize,
    obs: Option<ObsConfig>,
) -> Result<(ApproachRun, Option<ObsReport>)> {
    run_approach_full(env, workload, approach, opts, threads, obs, None)
}

/// [`run_approach_obs`] with an optional ingest mode: when `ingest` is set,
/// the run pulls its input through an `ishare-ingest` [`Source`] (partitioned
/// bounded topics, jittered arrival under watermarks) instead of the
/// pre-materialized `Vec` feeds. The source path is bit-identical in every
/// work number, so approach comparisons and the scaling experiment's
/// identity assertions hold in either mode.
pub fn run_approach_full(
    env: &mut Env,
    workload: &Workload,
    approach: Approach,
    opts: &PlanningOptions,
    threads: usize,
    obs: Option<ObsConfig>,
    ingest: Option<SourceConfig>,
) -> Result<(ApproachRun, Option<ObsReport>)> {
    let (queries, cons) = workload.planner_inputs();
    let planned = plan_workload(approach, &queries, &cons, &env.data.catalog, opts)?;
    let feeds = insert_feeds(&env.data.data);
    let mut source = match ingest {
        Some(cfg) => Source::new(&feeds, cfg)?,
        None => Source::in_order(&feeds),
    };
    let mut run = execute_from_source_obs(
        &planned.plan,
        planned.paces.as_slice(),
        &env.data.catalog,
        &mut source,
        CostWeights::default(),
        SourceOptions { obs, workers: threads, ..Default::default() },
    )?
    .into_result()?;

    // Latency goals from measured batch baselines.
    let mut goals_work = BTreeMap::new();
    let mut goals_wall = BTreeMap::new();
    let mut tested_work = BTreeMap::new();
    let mut tested_wall = BTreeMap::new();
    for (i, (name, plan)) in workload.queries.iter().enumerate() {
        let q = QueryId(i as u16);
        let (bw, bs) = env.batch_baseline(name, plan)?;
        let frac = workload.rel_constraints[i];
        goals_work.insert(q, bw * frac);
        goals_wall.insert(q, bs * frac);
        tested_work.insert(q, run.final_work[&q]);
        tested_wall.insert(q, run.latency[&q].as_secs_f64());
    }

    let report = run.obs.take();
    Ok((
        ApproachRun {
            approach,
            est_total: planned.report.total_work.get(),
            measured_total: run.total_work.get(),
            total_wall: run.total_wall,
            opt_time: planned.opt_time,
            missed_work: missed_latency_stats(&goals_work, &tested_work),
            missed_wall: missed_latency_stats(&goals_wall, &tested_wall),
            subplans: planned.plan.len(),
            feasible: planned.feasible,
            elapsed: run.elapsed,
            threads,
        },
        report,
    ))
}

/// Write a JSON value to an explicit path (used by `--trace-out` /
/// `--metrics-out`), creating parent directories as needed.
pub fn write_json_file(path: &std::path::Path, value: &serde_json::Value) -> Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| {
                ishare_common::Error::InvalidConfig(format!("mkdir {parent:?}: {e}"))
            })?;
        }
    }
    let s = serde_json::to_string_pretty(value)
        .map_err(|e| ishare_common::Error::InvalidConfig(format!("serialize: {e}")))?;
    std::fs::write(path, s)
        .map_err(|e| ishare_common::Error::InvalidConfig(format!("write {path:?}: {e}")))?;
    println!("[saved {}]", path.display());
    Ok(())
}

/// Write an [`ObsReport`]'s metrics snapshot to `path`. A `.prom` extension
/// selects the Prometheus text exposition (`ishare_*` families, 0.0.4 text
/// format); anything else gets the JSON document `--metrics-out` has always
/// written.
pub fn write_metrics_file(path: &std::path::Path, report: &ObsReport) -> Result<()> {
    if path.extension().and_then(|e| e.to_str()) == Some("prom") {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| {
                    ishare_common::Error::InvalidConfig(format!("mkdir {parent:?}: {e}"))
                })?;
            }
        }
        std::fs::write(path, report.prometheus())
            .map_err(|e| ishare_common::Error::InvalidConfig(format!("write {path:?}: {e}")))?;
        println!("[saved {}]", path.display());
        Ok(())
    } else {
        write_json_file(path, &report.metrics_json())
    }
}

/// Print an aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths.get(i).copied().unwrap_or(8)));
        }
        s
    };
    println!("{}", fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Persist an experiment's JSON next to the printed output.
pub fn save_json(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(s) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(&path, s);
        println!("[saved {}]", path.display());
    }
}

/// One kernel-vs-reference micro timing: min-of-reps wall clock normalized
/// to nanoseconds per processed tuple.
#[derive(Debug, Clone)]
pub struct KernelTiming {
    /// Kernel name (e.g. `join_probe_insert`).
    pub name: String,
    /// Tuples processed per run (the ns/op denominator).
    pub ops: usize,
    /// Kernel datapath, ns per tuple (min over reps).
    pub kernel_ns_per_op: f64,
    /// Reference datapath, ns per tuple (min over reps).
    pub reference_ns_per_op: f64,
}

impl KernelTiming {
    /// Reference / kernel — how much faster the kernel is.
    pub fn speedup(&self) -> f64 {
        self.reference_ns_per_op / self.kernel_ns_per_op
    }
}

/// Input of the `join_insert_skewed` micro: `rows` left rows spread over
/// `keys` join keys — second column scrambled, so arrival order is not slot
/// order — and one right row per key. One execution inserts every left row
/// and then probes each slot once: the write-often, probe-seldom shape a lazy
/// pace produces. The right rows carry another query's bit, so each probe
/// reads its whole (consolidated) slot but emits nothing — output rows are
/// built by code every datapath shares and would otherwise be half the time.
/// A sparse key space (`join_probe_insert`: ≤ 3 entries per slot) cannot see
/// what an insert costs in a 2,000-entry slot.
pub fn skewed_join_input(rows: usize, keys: usize) -> (DeltaBatch, DeltaBatch) {
    let (n, k) = (rows as i64, keys as i64);
    let row = |a: i64, b: i64, mask: u64| DeltaRow {
        row: Row::new(vec![Value::Int(a), Value::Int(b)]),
        weight: 1,
        mask: QuerySet(mask),
    };
    let left = (0..n).map(|i| row(i % k, i * 7919 % n, 0b01)).collect();
    (left, (0..k).map(|i| row(i, i, 0b10)).collect())
}

/// Time `f` over `reps` runs (after one warm-up), returning the minimum
/// wall-clock seconds — the noise-robust statistic every experiment here
/// reports.
pub fn time_min_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Emit `results/BENCH_kernels.json`: per-kernel ns/op plus the engine-level
/// wall clock of the `figures scaling` workload on both datapaths — the
/// perf trajectory later PRs regress against.
pub fn save_kernel_bench(micro: &[KernelTiming], engine: &serde_json::Value) {
    let micro_json: Vec<serde_json::Value> = micro
        .iter()
        .map(|t| {
            serde_json::json!({
                "kernel": t.name.clone(),
                "ops": t.ops as u64,
                "kernel_ns_per_op": t.kernel_ns_per_op,
                "reference_ns_per_op": t.reference_ns_per_op,
                "speedup": t.speedup(),
            })
        })
        .collect();
    save_json(
        "BENCH_kernels",
        &serde_json::json!({ "micro": micro_json, "engine": engine.clone() }),
    );
}

/// JSON view of an [`ApproachRun`].
pub fn run_to_json(r: &ApproachRun) -> serde_json::Value {
    serde_json::json!({
        "approach": r.approach.label(),
        "est_total_work": r.est_total,
        "measured_total_work": r.measured_total,
        "total_wall_secs": r.total_wall.as_secs_f64(),
        "opt_time_secs": r.opt_time.as_secs_f64(),
        "missed_work": {
            "mean_pct": r.missed_work.mean_pct,
            "mean_abs": r.missed_work.mean_abs,
            "max_pct": r.missed_work.max_pct,
            "max_abs": r.missed_work.max_abs,
        },
        "missed_wall": {
            "mean_pct": r.missed_wall.mean_pct,
            "mean_secs": r.missed_wall.mean_abs,
            "max_pct": r.missed_wall.max_pct,
            "max_secs": r.missed_wall.max_abs,
        },
        "subplans": r.subplans,
        "feasible": r.feasible,
        "elapsed_secs": r.elapsed.as_secs_f64(),
        "threads": r.threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_tpch::query_by_name;

    #[test]
    fn workload_uniform_builds_aligned_constraints() {
        let mut env = Env::new(0.002, 3).unwrap();
        let q6 = query_by_name(&env.data.catalog, "q6").unwrap();
        let w = Workload::uniform("w", vec![("q6".into(), q6.plan.clone())], 0.25);
        assert_eq!(w.rel_constraints, vec![0.25]);
        let (qs, cons) = w.planner_inputs();
        assert_eq!(qs.len(), 1);
        assert!(matches!(
            cons[&QueryId(0)],
            FinalWorkConstraint::Relative(f) if (f - 0.25).abs() < 1e-12
        ));
        // Baselines are measured once and cached.
        let (w1, s1) = env.batch_baseline("q6", &q6.plan).unwrap();
        let (w2, s2) = env.batch_baseline("q6", &q6.plan).unwrap();
        assert_eq!(w1, w2);
        assert_eq!(s1, s2);
        assert!(w1 > 0.0);
    }

    #[test]
    fn run_approach_produces_consistent_measurements() {
        let mut env = Env::new(0.002, 4).unwrap();
        let q6 = query_by_name(&env.data.catalog, "q6").unwrap();
        let qa = query_by_name(&env.data.catalog, "qa").unwrap();
        let w =
            Workload::uniform("pair", vec![("q6".into(), q6.plan), ("qa".into(), qa.plan)], 0.5);
        let opts = PlanningOptions { max_pace: 10, ..Default::default() };
        let run = run_approach(&mut env, &w, Approach::IShare, &opts).unwrap();
        assert!(run.measured_total > 0.0);
        assert!(run.est_total > 0.0);
        assert!(run.subplans >= 2);
        // A feasible plan should have small missed work (cost-model noise
        // only).
        if run.feasible {
            assert!(run.missed_work.max_pct < 100.0, "{:?}", run.missed_work);
        }
    }

    #[test]
    fn json_roundtrip_shape() {
        let mut env = Env::new(0.002, 5).unwrap();
        let q6 = query_by_name(&env.data.catalog, "q6").unwrap();
        let w = Workload::uniform("solo", vec![("q6".into(), q6.plan)], 1.0);
        let opts = PlanningOptions { max_pace: 4, ..Default::default() };
        let run = run_approach(&mut env, &w, Approach::NoShareUniform, &opts).unwrap();
        let v = run_to_json(&run);
        assert_eq!(v["approach"], "NoShare-Uniform");
        assert!(v["measured_total_work"].as_f64().unwrap() > 0.0);
        assert!(v["missed_wall"]["max_pct"].is_number());
    }
}

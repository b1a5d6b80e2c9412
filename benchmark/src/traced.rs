//! The traced phase: per-layer metrics taken from outside the program, by
//! spans around the calls into each layer's public functions.
//!
//! Three parts: (a) the optimizer pipeline re-run stage by stage, (b) the
//! shadow wavefront loop, which must charge exactly the work the real run
//! charged, and (c) single variant runs and layer replays over the
//! workload's own rows and predicates. A metric that does not apply to a
//! workload reports 0.

use crate::api::*;
use crate::metrics::Report;
use crate::run::{self, Rep, Variant};
use crate::shadow::{shadow_run, RootKind, ShadowOut};
use crate::stats::{median, percentile};
use crate::timed::{check_results, oracle};
use crate::trace::Tracer;
use crate::workloads::{setup, Inputs, Kind, Spec};
use std::hint::black_box;
use std::time::Instant;

/// Untraced repetitions that give the traced phase its baseline: the first
/// is the cold run, the rest are the warm sample.
const BASELINE_REPS: usize = 3;

/// Pace vectors the estimator replay draws from the seed.
const PACE_VECTORS: usize = 200;

/// Rows per batch in the storage and expr replays.
const BATCH_ROWS: usize = 1024;

/// Most rows a replay reads.
const REPLAY_ROWS: usize = 64 * BATCH_ROWS;

fn err(msg: String) -> Error {
    Error::InvalidConfig(msg)
}

/// What part (a) learned about the plan that part (b) runs.
struct Pipeline {
    /// Plan and paces the shadow loop runs (the decomposed plan of
    /// `plan_workload`; on `live_churn` the initial queries' plan).
    plan: SharedPlan,
    paces: Vec<u32>,
    /// Resolved limits `L(q)` of that plan's queries.
    constraints: ConstraintMap,
    estimated_work: f64,
    feasible: bool,
    simulations: usize,
    memo_hits: usize,
    /// Wall of the pace search alone.
    pace_search_s: f64,
    /// Wall of the whole optimization as this part ran it.
    optimize_s: f64,
}

/// Part (a): the optimizer pipeline, one span per stage.
fn optimizer_pipeline(
    tr: &mut Tracer,
    spec: &Spec,
    inputs: &Inputs,
    report: &mut Report,
) -> Result<Pipeline> {
    let catalog = &inputs.data.catalog;
    let weights = CostWeights::default();
    let mqo = MqoConfig::default();
    let stages = tr.enter("core.pipeline");
    let normalized: Vec<(QueryId, LogicalPlan)> = tr
        .span("mqo.normalize", || inputs.queries.iter().map(|(q, p)| (*q, normalize(p))).collect());

    // The churn runner shares through a sealed incremental sharer and cuts
    // with `from_dag_with_roots`; the batch planner uses the batch calls.
    let mut sharer = IncrementalSharer::new(mqo.clone());
    let dag: SharedDag = if spec.kind == Kind::Churn {
        tr.span("mqo.build_dag", || -> Result<()> {
            for (q, lp) in &normalized {
                sharer.admit(*q, lp)?;
            }
            sharer.seal();
            Ok(())
        })?;
        sharer.dag().clone()
    } else {
        tr.span("mqo.build_dag", || build_shared_dag(&normalized, catalog, &mqo))?
    };
    let plan0 = tr.span("plan.from_dag", || -> Result<SharedPlan> {
        let plan = SharedPlan::from_dag_with_roots(&dag, |_| false, &[])?.0;
        plan.validate(catalog)?;
        Ok(plan)
    })?;
    let mut est = tr.span("cost.estimator_new", || PlanEstimator::new(&plan0, catalog, weights))?;
    // Each planner resolves against what it was handed: the batch planner
    // the normalized plans, the churn runner the plans as given.
    let to_resolve = if spec.kind == Kind::Churn { &inputs.queries } else { &normalized };
    let resolved = tr.span("core.resolve_constraints", || {
        resolve_constraints(to_resolve, &inputs.constraints, catalog, weights)
    })?;
    let search = tr.enter("core.find_paces");
    let outcome = find_pace_configuration(&mut est, &resolved, spec.max_pace)?;
    tr.exit(search);
    tr.exit(stages);

    let private =
        build_shared_dag(&normalized, catalog, &MqoConfig::no_sharing())?.nodes.len() as f64;
    let shared = dag.nodes.iter().filter(|n| !n.queries.is_empty()).count() as f64;
    report.record("mqo.build_dag_s", tr.total_secs("mqo.build_dag"));
    report.record("mqo.dag_nodes", shared);
    report.record("mqo.sharing_ratio", 1.0 - shared / private);
    report.record("plan.from_dag_s", tr.total_secs("plan.from_dag"));
    report.record("cost.estimator_new_s", tr.total_secs("cost.estimator_new"));
    report.record("core.resolve_constraints_s", tr.total_secs("core.resolve_constraints"));

    if spec.kind == Kind::Churn {
        // `mqo.admit_s`: the three admissions, each onto a clone of the
        // sealed sharer as the runner does, timing the merge alone.
        let mut admits = Vec::new();
        for ev in &inputs.script.events {
            if let ChurnOp::Admit { query, plan, .. } = &ev.op {
                let normalized = normalize(plan);
                let mut trial = sharer.clone();
                let admit = tr.enter("mqo.admit");
                trial.admit(*query, &normalized)?;
                tr.exit(admit);
                admits.push(tr.spans()[admit].secs());
                sharer = trial;
            }
        }
        report.record("mqo.admit_s", admits.iter().sum::<f64>() / admits.len().max(1) as f64);
        return Ok(Pipeline {
            plan: plan0,
            paces: outcome.paces.as_slice().to_vec(),
            constraints: resolved,
            estimated_work: outcome.report.total_work.get(),
            feasible: outcome.feasible,
            simulations: est.counters.simulations,
            memo_hits: est.counters.memo_hits,
            pace_search_s: tr.total_secs("core.find_paces"),
            optimize_s: tr.spans()[stages].secs(),
        });
    }
    report.record("mqo.admit_s", 0.0);

    // The full planner, without and with the decomposition pass.
    let options = run::planning_options(spec);
    let no_unshare = tr.enter("core.plan_no_unshare");
    plan_workload(
        Approach::IShareNoUnshare,
        &inputs.queries,
        &inputs.constraints,
        catalog,
        &options,
    )?;
    tr.exit(no_unshare);
    let full = tr.enter("core.plan_workload");
    let planned =
        plan_workload(Approach::IShare, &inputs.queries, &inputs.constraints, catalog, &options)?;
    tr.exit(full);
    Ok(Pipeline {
        paces: planned.paces.as_slice().to_vec(),
        estimated_work: planned.report.total_work.get(),
        feasible: planned.feasible,
        simulations: planned.estimator_counters.simulations,
        memo_hits: planned.estimator_counters.memo_hits,
        pace_search_s: tr.spans()[no_unshare].secs(),
        optimize_s: tr.spans()[full].secs(),
        constraints: planned.constraints,
        plan: planned.plan,
    })
}

/// SplitMix64, for the estimator replay's seeded pace vectors.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Mean wall of `PlanEstimator::estimate` (memo warm) and
/// `estimate_unmemoized` per call, over seeded pace vectors that respect the
/// plan (a parent never paces above its children).
fn estimator_replay(
    spec: &Spec,
    seed: u64,
    inputs: &Inputs,
    plan: &SharedPlan,
) -> Result<(f64, f64)> {
    let mut est = PlanEstimator::new(plan, &inputs.data.catalog, CostWeights::default())?;
    let mut draw = SplitMix(seed ^ 0x9ace);
    let topo = plan.topo_order()?;
    let vectors: Vec<Vec<u32>> = (0..PACE_VECTORS)
        .map(|_| {
            let mut paces = vec![1u32; plan.len()];
            for id in &topo {
                let cap = plan.subplans[id.index()]
                    .children()
                    .iter()
                    .map(|c| paces[c.index()])
                    .min()
                    .unwrap_or(spec.max_pace);
                paces[id.index()] = 1 + draw.below(u64::from(cap)) as u32;
            }
            paces
        })
        .collect();
    for v in &vectors {
        black_box(est.estimate(v)?);
    }
    let started = Instant::now();
    for v in &vectors {
        black_box(est.estimate(v)?);
    }
    let memo_us = started.elapsed().as_secs_f64() * 1e6 / PACE_VECTORS as f64;
    let started = Instant::now();
    for v in &vectors {
        black_box(est.estimate_unmemoized(v)?);
    }
    let cold_us = started.elapsed().as_secs_f64() * 1e6 / PACE_VECTORS as f64;
    Ok((memo_us, cold_us))
}

/// The select predicates the plan applies directly to `table`'s rows.
fn predicates_over(plan: &SharedPlan, table: TableId) -> Vec<CompiledPredicate> {
    let mut out = Vec::new();
    for sp in &plan.subplans {
        sp.root.visit(&mut |node: &OpTree| {
            let over_table = node
                .inputs
                .first()
                .is_some_and(|i| matches!(i.op, TreeOp::Input(InputSource::Base(t)) if t == table));
            if let (TreeOp::Select { branches }, true) = (&node.op, over_table) {
                out.extend(branches.iter().map(|b| CompiledPredicate::compile(&b.predicate)));
            }
        });
    }
    out
}

/// `storage` and `expr` replays over 1024-row lineitem batches.
fn batch_replays(inputs: &Inputs, plan: &SharedPlan, report: &mut Report) -> Result<()> {
    let lineitem = inputs.data.catalog.table_by_name("lineitem")?.id;
    let rows: Vec<&Row> = inputs.data.rows("lineitem")?.iter().take(REPLAY_ROWS).collect();
    let mask = plan.queries();
    let batches: Vec<DeltaBatch> = rows
        .chunks(BATCH_ROWS)
        .map(|chunk| {
            DeltaBatch::from_rows(
                chunk.iter().map(|r| DeltaRow { row: (*r).clone(), weight: 1, mask }).collect(),
            )
        })
        .collect();
    let n = rows.len().max(1) as f64;

    let started = Instant::now();
    let columnar: Vec<ColumnarBatch> =
        batches.iter().filter_map(ColumnarBatch::from_rows).collect();
    report.record("storage.rows_to_cols_ns_per_row", started.elapsed().as_secs_f64() * 1e9 / n);
    let started = Instant::now();
    for cb in &columnar {
        black_box(cb.to_rows());
    }
    report.record("storage.cols_to_rows_ns_per_row", started.elapsed().as_secs_f64() * 1e9 / n);

    let predicates = predicates_over(plan, lineitem);
    let evals = (predicates.len() as f64 * n).max(1.0);
    let started = Instant::now();
    let mut hits = 0usize;
    for p in &predicates {
        for r in &rows {
            hits += usize::from(p.matches(r.values())?);
        }
    }
    report.record("expr.pred_row_ns", started.elapsed().as_secs_f64() * 1e9 / evals);
    let started = Instant::now();
    let mut batch_hits = 0usize;
    let mut selected = Vec::with_capacity(BATCH_ROWS);
    let every_row: Vec<u32> = (0..BATCH_ROWS as u32).collect();
    for p in &predicates {
        for cb in &columnar {
            selected.clear();
            p.eval_batch(cb, &every_row[..cb.len()], &mut selected)?;
            batch_hits += selected.len();
        }
    }
    report.record("expr.pred_batch_ns", started.elapsed().as_secs_f64() * 1e9 / evals);
    if hits != batch_hits {
        return Err(err(format!("predicate replay: rows select {hits}, batches {batch_hits}")));
    }
    Ok(())
}

/// Part (b): the shadow loop, checked against the run it mirrors.
fn shadow_part(
    tr: &mut Tracer,
    spec: &Spec,
    inputs: &Inputs,
    pipeline: &Pipeline,
    baseline: &Rep,
) -> Result<(ShadowOut, f64)> {
    let catalog = &inputs.data.catalog;
    let weights = CostWeights::default();
    // What the shadow must reproduce, and the wall it is compared with. The
    // shadow loop has no churn surgery, so on `live_churn` it mirrors the
    // churn runner on an empty script.
    let (expect_work, mirrored_run_s) = if spec.kind == Kind::Churn {
        let mut source = Source::new(&inputs.feeds, inputs.source_cfg)?;
        let opts = ChurnOptions { max_pace: spec.max_pace, ..Default::default() };
        let started = Instant::now();
        let twin = execute_churn_from_source(
            &inputs.queries,
            &inputs.constraints,
            &ChurnScript::default(),
            catalog,
            &mut source,
            weights,
            &opts,
        )?
        .into_result()?;
        // The runner plans inside the call; the shadow does not.
        (twin.run.total_work, started.elapsed().as_secs_f64() - pipeline.optimize_s)
    } else {
        (baseline.run.total_work, baseline.run_s)
    };

    let mut ctrl = match spec.kind {
        Kind::Adaptive => Some(AdaptController::new(
            &pipeline.plan,
            catalog,
            weights,
            &pipeline.paces,
            pipeline.constraints.clone(),
            run::adapt_options(spec),
        )?),
        _ => None,
    };
    let mut source = Source::new(&inputs.feeds, inputs.source_cfg)?;
    let out = shadow_run(
        tr,
        &pipeline.plan,
        &pipeline.paces,
        catalog,
        &mut source,
        weights,
        spec.kind == Kind::Churn,
        ctrl.as_mut(),
    )?;
    if out.total_work.get().to_bits() != expect_work.get().to_bits() {
        return Err(err(format!(
            "shadow loop charged {} work units, the run it mirrors {}",
            out.total_work.get(),
            expect_work.get()
        )));
    }
    Ok((out, mirrored_run_s))
}

/// The per-layer metrics that come from the shadow loop's spans and counts.
fn record_shadow(
    report: &mut Report,
    tr: &Tracer,
    shadow: &ShadowOut,
    pipeline: &Pipeline,
    run_s: f64,
    mirrored_run_s: f64,
) {
    report.record("cost.est_over_measured", pipeline.estimated_work / shadow.total_work.get());
    let shadow_root = tr
        .spans()
        .iter()
        .position(|s| s.name == "stream.shadow_run")
        .expect("the shadow loop records its root span");
    let shadow_s = tr.spans()[shadow_root].secs();
    let uncovered_s = tr.self_secs(shadow_root);
    for (metric, span) in [
        ("ingest.advance_s", "ingest.advance"),
        ("ingest.commit_s", "ingest.commit"),
        ("storage.push_s", "storage.push"),
        ("storage.pull_s", "storage.pull"),
        ("storage.append_s", "storage.append"),
        ("storage.compact_s", "storage.compact"),
        ("exec.execute_s", "exec.execute"),
        ("exec.teardown_s", "exec.teardown"),
    ] {
        report.record(metric, tr.total_secs(span));
    }
    report.record("ingest.rows", shadow.rows as f64);
    report.record(
        "ingest.ns_per_row",
        tr.total_secs("ingest.advance") * 1e9 / shadow.rows.max(1) as f64,
    );
    report.record("ingest.stall_ticks", shadow.stall_ticks as f64);
    report.record("ingest.reorder_high_water", shadow.reorder_high_water as f64);
    report.record("storage.high_water_rows", shadow.high_water_rows as f64);
    report.record("storage.retained_rows", shadow.retained_rows as f64);
    for (metric, kind) in [
        ("exec.execute_join_root_s", RootKind::Join),
        ("exec.execute_agg_root_s", RootKind::Aggregate),
        ("exec.execute_other_root_s", RootKind::Other),
    ] {
        let secs = shadow.exec.iter().filter(|e| e.root == kind).fold(0.0, |acc, e| acc + e.secs);
        report.record(metric, secs);
    }
    let exec_us: Vec<f64> = shadow.exec.iter().map(|e| e.secs * 1e6).collect();
    report.record("exec.execute_p50_us", percentile(&exec_us, 50.0));
    report.record("exec.execute_p99_us", percentile(&exec_us, 99.0));
    report.record(
        "exec.ns_per_work_unit",
        tr.total_secs("exec.execute") * 1e9 / shadow.total_work.get(),
    );
    let work = |kinds: &[OpKind]| kinds.iter().map(|k| shadow.breakdown.get(*k)).sum::<f64>();
    report
        .record("exec.work.join", work(&[OpKind::JoinProbe, OpKind::JoinInsert, OpKind::JoinEmit]));
    report
        .record("exec.work.agg", work(&[OpKind::AggUpdate, OpKind::AggEmit, OpKind::MinmaxRescan]));
    report.record(
        "exec.work.scan_filter_project",
        work(&[OpKind::Scan, OpKind::Filter, OpKind::Project]),
    );
    report.record("exec.work.materialize", work(&[OpKind::Materialize]));
    report.record("exec.executions", shadow.executions as f64);
    report.record(
        "exec.rows_in_per_execution",
        shadow.rows_in as f64 / shadow.executions.max(1) as f64,
    );
    report.record("exec.state_rows", shadow.state_rows as f64);
    report.record("stream.wavefronts", shadow.wavefronts as f64);
    report.record("stream.rows_per_s", shadow.rows as f64 / run_s);
    report.record("stream.self_s", run_s - (shadow_s - uncovered_s));
    report.record("trace.overhead_pct", 100.0 * (shadow_s - mirrored_run_s) / mirrored_run_s);
    report.record("trace.residual_pct", 100.0 * uncovered_s / shadow_s);
}

/// One run each with obs on, `Vectorized`, two partitions and two workers.
fn record_variants(
    report: &mut Report,
    spec: &Spec,
    inputs: &Inputs,
    planned: Option<&PlannedExecution>,
    run_s: f64,
) -> Result<()> {
    let variant = |v: Variant| run::execute(spec, inputs, planned, v);
    let with_obs = variant(Variant { obs: true, ..Variant::TIMED })?;
    report.record("obs.overhead_pct", 100.0 * (with_obs.run_s - run_s) / run_s);
    let obs_report: &ObsReport = with_obs.run.obs.as_ref().expect("the run had obs on");
    // Tick and wavefront spans only: how many operator spans the report
    // adds depends on measured durations, so their number does not repeat.
    report.record("obs.trace_spans", obs_report.trace.spans().len() as f64);
    let started = Instant::now();
    black_box((obs_report.chrome_trace(), obs_report.prometheus(), obs_report.metrics_json()));
    report.record("obs.export_s", started.elapsed().as_secs_f64());
    report.record(
        "exec.vectorized_run_s",
        variant(Variant { mode: ExecMode::Vectorized, ..Variant::TIMED })?.run_s,
    );
    report.record(
        "exec.partitions2_run_s",
        variant(Variant { partitions: 2, ..Variant::TIMED })?.run_s,
    );
    report.record(
        "stream.workers2_run_s",
        match spec.kind {
            Kind::Static => variant(Variant { workers: 2, ..Variant::TIMED })?.run_s,
            // No pinned entry point runs these two on the parallel driver.
            Kind::Adaptive | Kind::Churn => 0.0,
        },
    );
    Ok(())
}

/// The traced phase of one run.
pub fn traced_phase(spec: &Spec, seed: u64, trace_path: &std::path::Path) -> Result<Report> {
    let mut report = Report::new(spec.name, seed, true);
    let mut tr = Tracer::new();
    let inputs = setup(spec, seed)?;
    let limits = run::limits(&inputs)?;
    tr.span("ingest.source_new", || Source::new(&inputs.feeds, inputs.source_cfg).map(black_box))?;
    report.record("ingest.source_new_s", tr.total_secs("ingest.source_new"));

    // Untraced baseline, checked against the oracle like every timed run.
    let (expected, reference_run_s) = oracle(spec, &inputs)?;
    let mut baseline: Vec<Rep> = Vec::new();
    let mut planned = None;
    for _ in 0..BASELINE_REPS {
        let (rep, p) = run::run_rep(spec, &inputs, Variant::TIMED)?;
        check_results(spec, &expected, &rep.run.results, &mut report);
        baseline.push(rep);
        planned = p;
    }
    let warm = &baseline[1..];
    let last = warm.last().expect("BASELINE_REPS > 1");
    let run_s = median(&warm.iter().map(|r| r.run_s).collect::<Vec<_>>());
    report.record("stream.cold_run_s", baseline[0].run_s);
    report.record(
        "stream.exec_wall_s",
        median(&warm.iter().map(|r| r.run.total_wall.as_secs_f64()).collect::<Vec<_>>()),
    );
    report.record(
        "stream.outside_tick_s",
        median(
            &warm
                .iter()
                .map(|r| (r.run.elapsed - r.run.total_wall).as_secs_f64())
                .collect::<Vec<_>>(),
        ),
    );
    let refresh: Vec<f64> = last.run.latency.values().map(|d| d.as_secs_f64()).collect();
    report.record("stream.final_refresh_sum_s", refresh.iter().sum::<f64>());
    report.record("stream.final_refresh_max_s", refresh.iter().copied().fold(0.0, f64::max));
    report.record("core.missed_work_pct", run::missed_work_pct(&last.run, &limits));
    report.record("core.adapt_reopt_s", last.adapt.reopt_s);
    report.record("core.adapt_switches", last.adapt.switches as f64);
    report.record("core.adapt_evaluations", last.adapt.evaluations as f64);
    report.record("stream.churn_handoff_rows", last.churn.handoff_rows as f64);
    report.record("stream.churn_reclaimed_rows", last.churn.reclaimed_rows as f64);
    report.record("stream.churn_quiesce_ticks", last.churn.quiesce_ticks as f64);

    // (a) Optimizer pipeline.
    tr.set_rep(1);
    let pipeline = optimizer_pipeline(&mut tr, spec, &inputs, &mut report)?;
    let optimize_s = if spec.kind == Kind::Churn {
        pipeline.optimize_s
    } else {
        median(&baseline.iter().map(|r| r.plan_s).collect::<Vec<_>>())
    };
    report.record("core.optimize_s", optimize_s);
    report.record("core.pace_search_s", pipeline.pace_search_s);
    report.record("core.decompose_s", (optimize_s - pipeline.pace_search_s).max(0.0));
    report.record("plan.subplans", pipeline.plan.len() as f64);
    report.record("core.pace_sum", pipeline.paces.iter().map(|&p| f64::from(p)).sum());
    report.record("core.pace_max", pipeline.paces.iter().copied().max().map_or(0.0, f64::from));
    report.record("core.feasible", f64::from(u8::from(pipeline.feasible)));
    report.record("cost.simulations", pipeline.simulations as f64);
    report.record("cost.memo_hits", pipeline.memo_hits as f64);
    report.record(
        "cost.memo_hit_ratio",
        pipeline.memo_hits as f64 / (pipeline.memo_hits + pipeline.simulations).max(1) as f64,
    );
    let (memo_us, cold_us) = estimator_replay(spec, seed, &inputs, &pipeline.plan)?;
    report.record("cost.estimate_memo_us", memo_us);
    report.record("cost.estimate_cold_us", cold_us);

    // (b) Shadow loop.
    tr.set_rep(2);
    let (shadow, mirrored_run_s) = shadow_part(&mut tr, spec, &inputs, &pipeline, last)?;
    if spec.kind != Kind::Churn {
        // Same plan, same queries: the shadow's answers face the oracle too.
        check_results(spec, &expected, &shadow.results, &mut report);
    }
    record_shadow(&mut report, &tr, &shadow, &pipeline, run_s, mirrored_run_s);

    // (c) Variant runs, one each, and layer replays.
    record_variants(&mut report, spec, &inputs, planned.as_ref(), run_s)?;
    report.record("exec.reference_run_s", reference_run_s);
    batch_replays(&inputs, &pipeline.plan, &mut report)?;

    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| err(format!("mkdir {}: {e}", dir.display())))?;
    }
    std::fs::write(trace_path, tr.to_json().to_string())
        .map_err(|e| err(format!("write {}: {e}", trace_path.display())))?;

    report.correct = report.failed == 0;
    Ok(report)
}

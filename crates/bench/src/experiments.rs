//! The paper's experiments (Sec. 5), one function per table/figure.

use crate::harness::{
    print_table, run_approach, run_to_json, save_json, ApproachRun, Env, Workload,
};
use ishare_common::{CostWeights, QueryId, Result};
use ishare_core::decompose::{bell_number, brute_force_split, cluster_split, LocalProblem};
use ishare_core::{plan_workload, Approach, FinalWorkConstraint, PlanningOptions};
use ishare_cost::{CostReport, StreamEstimate};
use ishare_plan::LogicalPlan;
use ishare_stream::MissedLatencyStats;
use ishare_tpch::queries::{all_queries, sharing_friendly_queries};
use ishare_tpch::{query_by_name, variant_plan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Experiment parameters (defaults match a laptop-scale reproduction; the
/// paper's SF 5 / max pace 100 setup is reachable by raising them).
#[derive(Debug, Clone)]
pub struct Params {
    /// TPC-H scale factor.
    pub sf: f64,
    /// Data seed.
    pub seed: u64,
    /// Max pace J.
    pub max_pace: u32,
    /// Number of random constraint sets for Fig. 9.
    pub random_sets: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params { sf: 0.005, seed: 42, max_pace: 100, random_sets: 3 }
    }
}

const MAIN_APPROACHES: [Approach; 4] = [
    Approach::NoShareUniform,
    Approach::NoShareNonuniform,
    Approach::ShareUniform,
    Approach::IShare,
];

const REL_FRACS: [f64; 4] = [1.0, 0.5, 0.2, 0.1];

fn opts(p: &Params) -> PlanningOptions {
    PlanningOptions { max_pace: p.max_pace, ..Default::default() }
}

fn named_all22(env: &Env) -> Result<Vec<(String, LogicalPlan)>> {
    Ok(all_queries(&env.data.catalog)?.into_iter().map(|q| (q.name, q.plan)).collect())
}

fn named_ten(env: &Env) -> Result<Vec<(String, LogicalPlan)>> {
    Ok(sharing_friendly_queries(&env.data.catalog)?.into_iter().map(|q| (q.name, q.plan)).collect())
}

/// Fig. 14's 20-query set: the ten sharing-friendly queries plus their
/// predicate variants.
fn named_twenty(env: &Env) -> Result<Vec<(String, LogicalPlan)>> {
    let base = named_ten(env)?;
    let mut out = base.clone();
    for (name, plan) in base {
        out.push((format!("{name}v"), variant_plan(&plan, 0)));
    }
    Ok(out)
}

fn missed_row(label: &str, s: &MissedLatencyStats, w: &MissedLatencyStats) -> Vec<String> {
    vec![
        label.to_string(),
        format!("{:.2}", s.mean_pct),
        format!("{:.4}", s.mean_abs),
        format!("{:.2}", s.max_pct),
        format!("{:.4}", s.max_abs),
        format!("{:.2}", w.mean_pct),
        format!("{:.0}", w.mean_abs),
        format!("{:.2}", w.max_pct),
        format!("{:.0}", w.max_abs),
    ]
}

const MISSED_HEADERS: [&str; 9] = [
    "approach",
    "wall mean %",
    "wall mean s",
    "wall max %",
    "wall max s",
    "work mean %",
    "work mean wu",
    "work max %",
    "work max wu",
];

fn merge_missed(stats: &[MissedLatencyStats]) -> MissedLatencyStats {
    if stats.is_empty() {
        return MissedLatencyStats::default();
    }
    let n = stats.len() as f64;
    MissedLatencyStats {
        mean_pct: stats.iter().map(|s| s.mean_pct).sum::<f64>() / n,
        mean_abs: stats.iter().map(|s| s.mean_abs).sum::<f64>() / n,
        max_pct: stats.iter().map(|s| s.max_pct).fold(0.0, f64::max),
        max_abs: stats.iter().map(|s| s.max_abs).fold(0.0, f64::max),
    }
}

/// Fig. 9 + the Random half of Table 1: random relative constraints over
/// the 22 TPC-H queries, three seeds.
pub fn fig9(p: &Params) -> Result<Vec<(Approach, Vec<ApproachRun>)>> {
    let mut env = Env::new(p.sf, p.seed)?;
    let queries = named_all22(&env)?;
    let mut per_approach: Vec<(Approach, Vec<ApproachRun>)> =
        MAIN_APPROACHES.iter().map(|a| (*a, Vec::new())).collect();
    for set in 0..p.random_sets {
        let mut rng = StdRng::seed_from_u64(p.seed + 1000 + set as u64);
        let fracs: Vec<f64> =
            (0..queries.len()).map(|_| REL_FRACS[rng.gen_range(0..REL_FRACS.len())]).collect();
        let workload = Workload {
            name: format!("random-{set}"),
            queries: queries.clone(),
            rel_constraints: fracs,
        };
        for (a, runs) in per_approach.iter_mut() {
            runs.push(run_approach(&mut env, &workload, *a, &opts(p))?);
        }
    }
    let rows: Vec<Vec<String>> = per_approach
        .iter()
        .map(|(a, runs)| {
            let totals: Vec<f64> = runs.iter().map(|r| r.measured_total).collect();
            let mean = totals.iter().sum::<f64>() / totals.len() as f64;
            let min = totals.iter().copied().fold(f64::INFINITY, f64::min);
            let max = totals.iter().copied().fold(0.0, f64::max);
            vec![
                a.label().to_string(),
                format!("{mean:.0}"),
                format!("{min:.0}"),
                format!("{max:.0}"),
                format!(
                    "{:.3}",
                    runs.iter().map(|r| r.total_wall.as_secs_f64()).sum::<f64>()
                        / runs.len() as f64
                ),
            ]
        })
        .collect();
    print_table(
        "Fig. 9 — total execution work, random relative constraints (22 queries)",
        &["approach", "mean work", "min work", "max work", "mean wall s"],
        &rows,
    );
    save_json(
        "fig9",
        &serde_json::json!({
            "params": format!("{p:?}"),
            "runs": per_approach.iter().map(|(a, runs)| serde_json::json!({
                "approach": a.label(),
                "sets": runs.iter().map(run_to_json).collect::<Vec<_>>(),
            })).collect::<Vec<_>>(),
        }),
    );
    Ok(per_approach)
}

/// Fig. 10: batch execution (everything at pace 1) — shared plan vs
/// executing each query independently.
pub fn fig10(p: &Params) -> Result<()> {
    let mut env = Env::new(p.sf, p.seed)?;
    let queries = named_all22(&env)?;
    let workload = Workload::uniform("batch", queries, 1.0);
    let batch_opts = PlanningOptions { max_pace: 1, ..Default::default() };
    let noshare = run_approach(&mut env, &workload, Approach::NoShareUniform, &batch_opts)?;
    let share = run_approach(&mut env, &workload, Approach::ShareUniform, &batch_opts)?;
    let reduction = 100.0 * (1.0 - share.measured_total / noshare.measured_total);
    print_table(
        "Fig. 10 — batch execution: shared plan vs independent queries (22 queries)",
        &["plan", "measured work", "wall s"],
        &[
            vec![
                "independent".into(),
                format!("{:.0}", noshare.measured_total),
                format!("{:.3}", noshare.total_wall.as_secs_f64()),
            ],
            vec![
                "shared (MQO)".into(),
                format!("{:.0}", share.measured_total),
                format!("{:.3}", share.total_wall.as_secs_f64()),
            ],
            vec!["reduction".into(), format!("{reduction:.1}%"), String::new()],
        ],
    );
    save_json(
        "fig10",
        &serde_json::json!({
            "independent": run_to_json(&noshare),
            "shared": run_to_json(&share),
            "reduction_pct": reduction,
        }),
    );
    Ok(())
}

/// Uniform-constraint sweep shared by Fig. 11 (22 queries) and Fig. 12 (10
/// queries).
fn uniform_sweep(
    p: &Params,
    title: &str,
    json_name: &str,
    queries: Vec<(String, LogicalPlan)>,
) -> Result<Vec<(Approach, Vec<ApproachRun>)>> {
    let mut env = Env::new(p.sf, p.seed)?;
    let mut per_approach: Vec<(Approach, Vec<ApproachRun>)> =
        MAIN_APPROACHES.iter().map(|a| (*a, Vec::new())).collect();
    for &frac in &REL_FRACS {
        let workload = Workload::uniform(format!("uniform-{frac}"), queries.clone(), frac);
        for (a, runs) in per_approach.iter_mut() {
            runs.push(run_approach(&mut env, &workload, *a, &opts(p))?);
        }
    }
    let mut rows = Vec::new();
    for (a, runs) in &per_approach {
        for (i, run) in runs.iter().enumerate() {
            rows.push(vec![
                a.label().to_string(),
                format!("{}", REL_FRACS[i]),
                format!("{:.0}", run.measured_total),
                format!("{:.3}", run.total_wall.as_secs_f64()),
                format!("{}", run.feasible),
            ]);
        }
    }
    print_table(
        title,
        &["approach", "rel constraint", "measured work", "wall s", "est feasible"],
        &rows,
    );
    save_json(
        json_name,
        &serde_json::json!({
            "fracs": REL_FRACS,
            "runs": per_approach.iter().map(|(a, runs)| serde_json::json!({
                "approach": a.label(),
                "by_frac": runs.iter().map(run_to_json).collect::<Vec<_>>(),
            })).collect::<Vec<_>>(),
        }),
    );
    Ok(per_approach)
}

/// Fig. 11: uniform relative constraints over the 22 queries.
pub fn fig11(p: &Params) -> Result<Vec<(Approach, Vec<ApproachRun>)>> {
    let env = Env::new(p.sf, p.seed)?;
    let queries = named_all22(&env)?;
    uniform_sweep(p, "Fig. 11 — uniform relative constraints (22 queries)", "fig11", queries)
}

/// Fig. 12: uniform relative constraints over the 10 sharing-friendly
/// queries.
pub fn fig12(p: &Params) -> Result<Vec<(Approach, Vec<ApproachRun>)>> {
    let env = Env::new(p.sf, p.seed)?;
    let queries = named_ten(&env)?;
    uniform_sweep(
        p,
        "Fig. 12 — uniform relative constraints (10 sharing-friendly queries)",
        "fig12",
        queries,
    )
}

/// Table 1: missed latencies of the random (Fig. 9) and uniform (Fig. 11 +
/// Fig. 12) tests.
pub fn table1(p: &Params) -> Result<()> {
    let random = fig9(p)?;
    let uniform22 = fig11(p)?;
    let uniform10 = fig12(p)?;
    let mut rows = Vec::new();
    for (i, (a, runs_r)) in random.iter().enumerate() {
        let mut uniform_runs = uniform22[i].1.clone();
        uniform_runs.extend(uniform10[i].1.clone());
        let r_wall = merge_missed(&runs_r.iter().map(|r| r.missed_wall).collect::<Vec<_>>());
        let r_work = merge_missed(&runs_r.iter().map(|r| r.missed_work).collect::<Vec<_>>());
        let u_wall = merge_missed(&uniform_runs.iter().map(|r| r.missed_wall).collect::<Vec<_>>());
        let u_work = merge_missed(&uniform_runs.iter().map(|r| r.missed_work).collect::<Vec<_>>());
        rows.push({
            let mut v = vec![format!("{} [random]", a.label())];
            v.extend(missed_row("", &r_wall, &r_work).into_iter().skip(1));
            v
        });
        rows.push({
            let mut v = vec![format!("{} [uniform]", a.label())];
            v.extend(missed_row("", &u_wall, &u_work).into_iter().skip(1));
            v
        });
    }
    print_table("Table 1 — missed latencies (random & uniform)", &MISSED_HEADERS, &rows);
    save_json("table1", &serde_json::json!({ "rows": rows }));
    Ok(())
}

/// Fig. 13 + Table 2: manually tuned pace configurations at relative
/// constraint 0.1 — per approach, constraints are tightened until measured
/// final work meets the goals (or stops improving), mirroring the paper's
/// manual tuning. Rounds are judged by missed final *work*, the paper's
/// latency proxy, so two runs of one build report the same round.
pub fn fig13_table2(p: &Params) -> Result<()> {
    let mut env = Env::new(p.sf, p.seed)?;
    let queries = named_all22(&env)?;
    let mut fig_rows = Vec::new();
    let mut tab_rows = Vec::new();
    let mut json = Vec::new();
    for a in MAIN_APPROACHES {
        let mut fracs = vec![0.1f64; queries.len()];
        let mut best: Option<ApproachRun> = None;
        for _round in 0..4 {
            let workload = Workload {
                name: "tuned".into(),
                queries: queries.clone(),
                rel_constraints: fracs.clone(),
            };
            let run = run_approach(&mut env, &workload, a, &opts(p))?;
            let better = match &best {
                None => true,
                Some(b) => {
                    (run.missed_work.max_pct, run.measured_total)
                        < (b.missed_work.max_pct, b.measured_total)
                }
            };
            let missed = run.missed_work.max_pct;
            if better {
                best = Some(run);
            }
            if missed <= 0.5 {
                break;
            }
            // Tighten every constraint; the planner then works harder.
            for f in fracs.iter_mut() {
                *f *= 0.6;
            }
        }
        let best = best.expect("at least one round ran");
        fig_rows.push(vec![
            a.label().to_string(),
            format!("{:.0}", best.measured_total),
            format!("{:.3}", best.total_wall.as_secs_f64()),
        ]);
        tab_rows.push(missed_row(a.label(), &best.missed_wall, &best.missed_work));
        json.push(run_to_json(&best));
    }
    print_table(
        "Fig. 13 — manually tuned paces (goal: relative 0.1)",
        &["approach", "measured work", "wall s"],
        &fig_rows,
    );
    print_table("Table 2 — missed latencies, manually tuned", &MISSED_HEADERS, &tab_rows);
    save_json("fig13_table2", &serde_json::json!({ "runs": json }));
    Ok(())
}

/// Fig. 14 + Table 3: the decomposition experiment over the 20-query
/// sharing-friendly + variants set.
pub fn fig14_table3(p: &Params) -> Result<()> {
    let mut env = Env::new(p.sf, p.seed)?;
    let queries = named_twenty(&env)?;
    let approaches = [
        Approach::NoShareUniform,
        Approach::NoShareNonuniform,
        Approach::ShareUniform,
        Approach::IShareNoUnshare,
        Approach::IShare,
        Approach::IShareBruteForce,
    ];
    let mut fig_rows = Vec::new();
    let mut tab_rows: Vec<Vec<String>> = Vec::new();
    let mut json = Vec::new();
    let mut missed_by_approach: BTreeMap<&str, Vec<ApproachRun>> = BTreeMap::new();
    for &frac in &REL_FRACS {
        let workload = Workload::uniform(format!("variants-{frac}"), queries.clone(), frac);
        for a in approaches {
            let run = run_approach(&mut env, &workload, a, &opts(p))?;
            fig_rows.push(vec![
                a.label().to_string(),
                format!("{frac}"),
                format!("{:.0}", run.measured_total),
                format!("{:.3}", run.total_wall.as_secs_f64()),
                format!("{}", run.subplans),
            ]);
            json.push(serde_json::json!({ "frac": frac, "run": run_to_json(&run) }));
            missed_by_approach.entry(a.label()).or_default().push(run);
        }
    }
    for (label, runs) in &missed_by_approach {
        let wall = merge_missed(&runs.iter().map(|r| r.missed_wall).collect::<Vec<_>>());
        let work = merge_missed(&runs.iter().map(|r| r.missed_work).collect::<Vec<_>>());
        tab_rows.push(missed_row(label, &wall, &work));
    }
    print_table(
        "Fig. 14 — decomposition on the 20-query variant set",
        &["approach", "rel constraint", "measured work", "wall s", "subplans"],
        &fig_rows,
    );
    print_table("Table 3 — missed latencies, variant set", &MISSED_HEADERS, &tab_rows);
    save_json("fig14_table3", &serde_json::json!({ "runs": json }));
    Ok(())
}

/// Fig. 15: end-to-end optimization overhead vs max pace, with and without
/// memoization.
///
/// The memo only saves work: both variants must choose the same paces in
/// the same number of greedy steps and estimate the same report, every
/// float of it to the bit, and the experiment fails if they do not. The figure's constraint, `Relative(0.01)`, is one no pace meets,
/// so there the search ends with every subplan at the max pace and only
/// the final report is compared; so each max pace is planned again under
/// the constraints dealt 1.0/0.5/0.2/0.1 by query position, where the
/// greedy stops early and the paces it chose show any estimate it got
/// wrong on the way.
pub fn fig15(p: &Params) -> Result<()> {
    let env = Env::new(p.sf, p.seed)?;
    let queries = named_all22(&env)?;
    let planner_queries: Vec<(QueryId, LogicalPlan)> =
        queries.iter().enumerate().map(|(i, (_, q))| (QueryId(i as u16), q.clone())).collect();
    let constraints = |frac: &dyn Fn(usize) -> f64| -> BTreeMap<QueryId, FinalWorkConstraint> {
        (0..queries.len())
            .map(|i| (QueryId(i as u16), FinalWorkConstraint::Relative(frac(i))))
            .collect()
    };
    let sets = [
        ("rel 0.01", constraints(&|_| 0.01)),
        ("dealt", constraints(&|i| REL_FRACS[i % REL_FRACS.len()])),
    ];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut mismatches = Vec::new();
    for &max_pace in &[10u32, 25, 50, 75, 100] {
        if max_pace > p.max_pace {
            continue;
        }
        let mut cells = vec![format!("{max_pace}")];
        for (set, cons) in &sets {
            // Each variant's paces, step count and report bits.
            let mut plans = Vec::new();
            for use_memo in [true, false] {
                let o = PlanningOptions { max_pace, use_memo };
                let t = Instant::now();
                let planned = plan_workload(
                    Approach::IShareNoUnshare,
                    &planner_queries,
                    cons,
                    &env.data.catalog,
                    &o,
                )?;
                let label = format!("{:.2}s", t.elapsed().as_secs_f64());
                plans.push((
                    planned.paces.to_string(),
                    planned.search_steps,
                    report_bits(&planned.report),
                ));
                json.push(serde_json::json!({
                    "max_pace": max_pace, "constraints": set, "memo": use_memo, "time": label,
                }));
                cells.push(label);
            }
            if let [memo, scratch] = plans.as_slice() {
                if memo != scratch {
                    let (paces, steps, bits) = memo;
                    let (s_paces, s_steps, s_bits) = scratch;
                    let word = bits.iter().zip(s_bits).position(|(a, b)| a != b);
                    mismatches.push(format!(
                        "max pace {max_pace}, {set}: w/ memo {paces} in {steps} steps, \
                         w/o memo {s_paces} in {s_steps} steps, reports differ at word {word:?}"
                    ));
                }
            }
        }
        rows.push(cells);
    }
    print_table(
        "Fig. 15 — optimization time vs max pace (22 queries)",
        &[
            "max pace",
            "iShare (w/ memo) rel 0.01",
            "iShare (w/o memo) rel 0.01",
            "w/ memo, dealt",
            "w/o memo, dealt",
        ],
        &rows,
    );
    save_json("fig15", &serde_json::json!({ "points": json }));
    if !mismatches.is_empty() {
        return Err(ishare_common::Error::InvalidConfig(format!(
            "the memo changed the plan: {}",
            mismatches.join("; ")
        )));
    }
    Ok(())
}

/// Every float of a report, as bits: totals, per-query finals, and each
/// subplan's private costs and output estimate.
fn report_bits(r: &CostReport) -> Vec<u64> {
    let mut bits = vec![r.total_work.get().to_bits()];
    bits.extend(r.final_work().flat_map(|(q, w)| [u64::from(q.0), w.get().to_bits()]));
    for ((total, fin), sim) in r.subplan_total.iter().zip(&r.subplan_final).zip(&r.subplan_output) {
        let out = &sim.output;
        bits.extend([*total, *fin, sim.private_total, sim.private_final].map(f64::to_bits));
        bits.extend([out.rows.total, out.delete_frac].map(f64::to_bits));
        bits.extend(out.rows.per_query.iter().flat_map(|(&q, n)| [u64::from(q), n.to_bits()]));
        for c in &out.cols {
            bits.push(c.ndv.to_bits());
            for bound in [c.min, c.max] {
                bits.extend(bound.map_or([0, 0], |b| [1, b.to_bits()]));
            }
        }
    }
    bits
}

/// Fig. 16: clustering vs brute-force decomposition time vs number of
/// queries sharing one subplan.
pub fn fig16(p: &Params) -> Result<()> {
    use ishare_common::{QuerySet, SubplanId, TableId};
    use ishare_expr::Expr;
    use ishare_plan::{AggExpr, AggFunc, InputSource, OpTree, SelectBranch, Subplan, TreeOp};
    use ishare_storage::ColumnStats;
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for n_queries in [2usize, 4, 6, 8, 10, 12] {
        // A shared aggregate subplan with one overlapping range predicate
        // per query.
        let branches: Vec<SelectBranch> = (0..n_queries)
            .map(|i| SelectBranch {
                queries: QuerySet::single(QueryId(i as u16)),
                predicate: Expr::col(1).lt(Expr::lit((30 + 10 * i as i64).min(100))),
            })
            .collect();
        let queries = QuerySet::first_n(n_queries);
        let sp = Subplan {
            id: SubplanId(0),
            root: OpTree::node(
                TreeOp::Aggregate {
                    group_by: vec![(Expr::col(0), "k".into())],
                    aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
                },
                vec![OpTree::node(
                    TreeOp::Select { branches },
                    vec![OpTree::input(InputSource::Base(TableId(0)))],
                )],
            ),
            queries,
            output_queries: QuerySet::EMPTY,
        };
        let mut input = StreamEstimate::insert_only(
            50_000.0,
            queries,
            vec![
                ColumnStats::ndv(500.0),
                ColumnStats::with_range(
                    100.0,
                    ishare_common::Value::Int(0),
                    ishare_common::Value::Int(99),
                ),
            ],
        );
        input.delete_frac = 0.2;
        let inputs = [input];
        let cons: BTreeMap<QueryId, f64> =
            (0..n_queries).map(|i| (QueryId(i as u16), 2_000.0 + 500.0 * i as f64)).collect();
        let problem = LocalProblem {
            subplan: &sp,
            inputs: &inputs,
            local_constraints: &cons,
            weights: CostWeights::default(),
            max_pace: p.max_pace,
        };
        let t = Instant::now();
        let clustered = cluster_split(&problem)?;
        let cluster_time = t.elapsed();
        let t = Instant::now();
        brute_force_split(&problem)?.expect("Fig. 16 stays within MAX_BRUTE_QUERIES");
        let brute_label = format!("{:.3}s", t.elapsed().as_secs_f64());
        rows.push(vec![
            format!("{n_queries}"),
            format!("{}", bell_number(n_queries)),
            format!("{:.3}s", cluster_time.as_secs_f64()),
            brute_label.clone(),
            format!("{}", clustered.partitions.len()),
        ]);
        json.push(serde_json::json!({
            "queries": n_queries,
            "bell": bell_number(n_queries).to_string(),
            "cluster_secs": cluster_time.as_secs_f64(),
            "brute": brute_label,
        }));
    }
    print_table(
        "Fig. 16 — split-search time: clustering vs brute force",
        &["queries", "possible splits", "clustering", "brute force", "chosen partitions"],
        &rows,
    );
    save_json("fig16", &serde_json::json!({ "points": json }));
    Ok(())
}

/// Fig. 17a/b/c: pairs with varied incrementability; the first query's
/// constraint is fixed at 1.0 and the second's sweeps over
/// {1.0, 0.5, 0.2, 0.1}.
pub fn fig17(p: &Params, which: char) -> Result<()> {
    let mut env = Env::new(p.sf, p.seed)?;
    let (title, fixed, swept) = match which {
        'a' => ("Fig. 17a — PairA (Q5 fixed 1.0, Q8 swept): both incrementable", "q5", "q8"),
        'b' => ("Fig. 17b — PairB (Q15 fixed 1.0, Q7 swept): one non-incrementable", "q15", "q7"),
        _ => ("Fig. 17c — PairC (QA fixed 1.0, QB swept): both less incrementable", "qa", "qb"),
    };
    let qf = query_by_name(&env.data.catalog, fixed)?;
    let qs = query_by_name(&env.data.catalog, swept)?;
    let queries = vec![(qf.name.clone(), qf.plan.clone()), (qs.name.clone(), qs.plan.clone())];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for &frac in &REL_FRACS {
        let workload = Workload {
            name: format!("pair{which}-{frac}"),
            queries: queries.clone(),
            rel_constraints: vec![1.0, frac],
        };
        for a in MAIN_APPROACHES {
            let run = run_approach(&mut env, &workload, a, &opts(p))?;
            rows.push(vec![
                a.label().to_string(),
                format!("{frac}"),
                format!("{:.0}", run.measured_total),
                format!("{:.2}", run.missed_wall.max_pct),
            ]);
            json.push(serde_json::json!({ "frac": frac, "run": run_to_json(&run) }));
        }
    }
    print_table(
        title,
        &["approach", "swept rel constraint", "measured work", "max missed %"],
        &rows,
    );
    save_json(&format!("fig17{which}"), &serde_json::json!({ "points": json }));
    Ok(())
}

/// Kernel datapath benchmark: per-kernel ns/op for the hot kernels (join
/// probe/insert, skewed insert, wide emission and updates into long slots,
/// group update, predicate eval) against the reference operators they
/// replaced, and the engine-level wall clock of the
/// `scaling` workload on both datapaths. Work numbers are asserted
/// bit-identical between the datapaths; results land in
/// `results/BENCH_kernels.json` — the perf trajectory later PRs regress
/// against.
pub fn kernel_bench(p: &Params) -> Result<()> {
    use crate::harness::{
        long_slot_run, long_slot_updates, save_kernel_bench, skewed_join_input, time_min_secs,
        wide_join_chain, wide_join_input, KernelTiming, WIDE_JOIN_ORDERS,
    };
    use ishare_common::{QuerySet, Value, WorkCounter};
    use ishare_exec::aggregate::{AggSpec, AggState};
    use ishare_exec::join::{JoinKeys, JoinState};
    use ishare_exec::operators::apply_select;
    use ishare_exec::reference::{ref_apply_select, RefAggState, RefJoinState};
    use ishare_expr::{CompiledPredicate, Expr};
    use ishare_plan::{AggExpr, AggFunc, SelectBranch};
    use ishare_storage::{DeltaBatch, DeltaRow, Row};
    use ishare_stream::{execute_planned_deltas_with, insert_feeds, ExecMode, SourceOptions};

    let weights = CostWeights::default();
    const REPS: usize = 5;
    const N: usize = 10_000;
    let rows = |n: usize, keys: i64, mask: QuerySet| -> Vec<DeltaRow> {
        (0..n as i64)
            .map(|i| DeltaRow {
                row: Row::new(vec![Value::Int(i % keys), Value::Int(i * 13 % 1000)]),
                weight: 1,
                mask,
            })
            .collect()
    };
    let mut micro = Vec::new();

    // Join probe + insert: ΔL of N rows against a ΔR of N/4 rows, 4096 keys
    // (~3 matches per probe). The sparse key space keeps the micro dominated
    // by the probe/insert datapath under test; a dense one (say 256 keys,
    // ~40 matches per probe) spends most of its time materializing output
    // rows through `Row::concat` — code both datapaths share — and the
    // ratio of two near-equal totals is then mostly measurement noise.
    let key_exprs = vec![(Expr::col(0), Expr::col(0))];
    let join_keys = JoinKeys::compile(&key_exprs);
    let left = DeltaBatch::from_rows(rows(N, 4096, QuerySet(0b1)));
    let right = DeltaBatch::from_rows(rows(N / 4, 4096, QuerySet(0b1)));
    micro.push(KernelTiming {
        name: "join_probe_insert".into(),
        ops: N + N / 4,
        kernel_ns_per_op: time_min_secs(REPS, || {
            let mut st = JoinState::new();
            st.execute(left.clone(), right.clone(), &join_keys, &weights, &WorkCounter::new())
                .unwrap();
        }) * 1e9
            / (N + N / 4) as f64,
        reference_ns_per_op: time_min_secs(REPS, || {
            let mut st = RefJoinState::new();
            st.execute(left.clone(), right.clone(), &key_exprs, &weights, &WorkCounter::new())
                .unwrap();
        }) * 1e9
            / (N + N / 4) as f64,
    });

    // Join insert under key skew: 50k left rows over 25 keys, then one probe
    // per key (see `skewed_join_input`).
    const SKEW_ROWS: usize = 50_000;
    const SKEW_KEYS: usize = 25;
    let (skew_left, skew_right) = skewed_join_input(SKEW_ROWS, SKEW_KEYS);
    micro.push(KernelTiming {
        name: "join_insert_skewed".into(),
        ops: SKEW_ROWS + SKEW_KEYS,
        kernel_ns_per_op: time_min_secs(REPS, || {
            let mut st = JoinState::new();
            st.execute(
                skew_left.clone(),
                skew_right.clone(),
                &join_keys,
                &weights,
                &WorkCounter::new(),
            )
            .unwrap();
        }) * 1e9
            / (SKEW_ROWS + SKEW_KEYS) as f64,
        reference_ns_per_op: time_min_secs(REPS, || {
            let mut st = RefJoinState::new();
            st.execute(
                skew_left.clone(),
                skew_right.clone(),
                &key_exprs,
                &weights,
                &WorkCounter::new(),
            )
            .unwrap();
        }) * 1e9
            / (SKEW_ROWS + SKEW_KEYS) as f64,
    });

    // Join emission at TPC-H width: a two-level chain (orders ⋈ customer,
    // then lineitem ⋈ that) whose every match emits a 17- or 33-column row,
    // per emitted row. Its heap bytes per row come from the `emit_heap`
    // binary, which counts allocations; this one must not.
    let wide = wide_join_input(WIDE_JOIN_ORDERS);
    let emitted = wide_join_chain(wide.clone(), false)?;
    micro.push(KernelTiming {
        name: "join_emit_wide".into(),
        ops: emitted,
        kernel_ns_per_op: time_min_secs(REPS, || {
            wide_join_chain(wide.clone(), false).unwrap();
        }) * 1e9
            / emitted as f64,
        reference_ns_per_op: time_min_secs(REPS, || {
            wide_join_chain(wide.clone(), true).unwrap();
        }) * 1e9
            / emitted as f64,
    });

    // Join update into long slots: 256 slots of 400 rows keyed on column 1,
    // then 2000 executions that each retract two rows of one slot, insert
    // two, and probe it, so every execution consolidates a slot of 400
    // pairs whose order column 0 decides (see `long_slot_updates`). The
    // executions visit the slots in turn, so each meets a slot that has left
    // the cache, as engine join state does: with 16 slots the state stays
    // cached and row comparisons cost what word comparisons do.
    const LONG_SLOT_UPDATES: usize = 2_000;
    let long_slot = long_slot_updates(256, 400, LONG_SLOT_UPDATES);
    let long_slot_ops = 5 * LONG_SLOT_UPDATES;
    let best = |reference: bool| -> Result<f64> {
        let mut best = f64::INFINITY;
        for _ in 0..=REPS {
            best = best.min(long_slot_run(&long_slot, reference)?);
        }
        Ok(best * 1e9 / long_slot_ops as f64)
    };
    micro.push(KernelTiming {
        name: "join_update_long_slot".into(),
        ops: long_slot_ops,
        kernel_ns_per_op: best(false)?,
        reference_ns_per_op: best(true)?,
    });

    // Group update: N rows into 64 SUM groups.
    let group_by = vec![(Expr::col(0), "k".to_string())];
    let aggs = vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")];
    let spec = AggSpec::compile(&group_by, &aggs);
    let input = DeltaBatch::from_rows(rows(N, 64, QuerySet(0b11)));
    micro.push(KernelTiming {
        name: "group_update".into(),
        ops: N,
        kernel_ns_per_op: time_min_secs(REPS, || {
            let mut st = AggState::new();
            st.execute(input.clone(), &spec, &[true], &weights, &WorkCounter::new()).unwrap();
        }) * 1e9
            / N as f64,
        reference_ns_per_op: time_min_secs(REPS, || {
            let mut st = RefAggState::new();
            st.execute(input.clone(), &group_by, &aggs, &[true], &weights, &WorkCounter::new())
                .unwrap();
        }) * 1e9
            / N as f64,
    });

    // Predicate eval: four `col < const` branches over N rows — the
    // kernel's `ColCmpLit` fast path vs recursive interpretation.
    let branches: Vec<SelectBranch> = (0..4u16)
        .map(|q| SelectBranch {
            queries: QuerySet(1 << q),
            predicate: Expr::col(1).lt(Expr::lit(250 * (i64::from(q) + 1))),
        })
        .collect();
    let compiled: Vec<CompiledPredicate> =
        branches.iter().map(|b| CompiledPredicate::compile(&b.predicate)).collect();
    let sel_input = DeltaBatch::from_rows(rows(N, 64, QuerySet(0b1111)));
    micro.push(KernelTiming {
        name: "predicate_eval".into(),
        ops: N * branches.len(),
        kernel_ns_per_op: time_min_secs(REPS, || {
            apply_select(sel_input.clone(), &branches, &compiled, &weights, &WorkCounter::new())
                .unwrap();
        }) * 1e9
            / (N * branches.len()) as f64,
        reference_ns_per_op: time_min_secs(REPS, || {
            ref_apply_select(sel_input.clone(), &branches, &weights, &WorkCounter::new()).unwrap();
        }) * 1e9
            / (N * branches.len()) as f64,
    });

    // Engine level: the `scaling` workload (ten sharing-friendly queries,
    // NoShare-Nonuniform — join-heavy, ten independent subplan chains) on
    // both datapaths, sequentially, so the gap is pure datapath.
    let env = Env::new(p.sf, p.seed)?;
    let queries: Vec<(QueryId, LogicalPlan)> = named_ten(&env)?
        .into_iter()
        .enumerate()
        .map(|(i, (_, plan))| (QueryId(i as u16), plan))
        .collect();
    let cons: BTreeMap<QueryId, FinalWorkConstraint> =
        queries.iter().map(|(q, _)| (*q, FinalWorkConstraint::Relative(0.2))).collect();
    let planned =
        plan_workload(Approach::NoShareNonuniform, &queries, &cons, &env.data.catalog, &opts(p))?;
    let feeds = insert_feeds(&env.data.data);
    let run_in = |mode: ExecMode| {
        execute_planned_deltas_with(
            &planned.plan,
            planned.paces.as_slice(),
            &env.data.catalog,
            &feeds,
            CostWeights::default(),
            SourceOptions { mode, ..Default::default() },
        )
    };
    let kernel_run = run_in(ExecMode::Kernels)?;
    let reference_run = run_in(ExecMode::Reference)?;
    assert_eq!(
        kernel_run.total_work.get().to_bits(),
        reference_run.total_work.get().to_bits(),
        "datapaths must charge bit-identical work"
    );
    assert_eq!(kernel_run.results, reference_run.results, "datapaths must agree on results");
    const ENGINE_REPS: usize = 5;
    let kernel_secs = time_min_secs(ENGINE_REPS, || drop(run_in(ExecMode::Kernels).unwrap()));
    let reference_secs = time_min_secs(ENGINE_REPS, || drop(run_in(ExecMode::Reference).unwrap()));
    let engine_speedup = reference_secs / kernel_secs;

    let mut rows_out: Vec<Vec<String>> = micro
        .iter()
        .map(|t| {
            vec![
                t.name.clone(),
                format!("{:.1}", t.kernel_ns_per_op),
                format!("{:.1}", t.reference_ns_per_op),
                format!("{:.2}x", t.speedup()),
            ]
        })
        .collect();
    rows_out.push(vec![
        "engine (scaling workload, s)".into(),
        format!("{kernel_secs:.3}"),
        format!("{reference_secs:.3}"),
        format!("{engine_speedup:.2}x"),
    ]);
    print_table(
        &format!("Kernel datapath vs reference — sf {}, seed {}", p.sf, p.seed),
        &["kernel", "kernels ns/op", "reference ns/op", "speedup"],
        &rows_out,
    );
    save_kernel_bench(
        &micro,
        &serde_json::json!({
            "workload": "scaling (10 sharing-friendly queries, NoShare-Nonuniform)",
            "sf": p.sf,
            "seed": p.seed,
            "subplans": planned.plan.len(),
            "kernel_wall_secs_min": kernel_secs,
            "reference_wall_secs_min": reference_secs,
            "speedup": engine_speedup,
            "total_work_bits": format!("{:016x}", kernel_run.total_work.get().to_bits()),
        }),
    );
    Ok(())
}

/// Adaptive re-optimization under statistics drift (`figures adapt`).
///
/// Plans an iShare configuration from the *clean* catalog statistics, then
/// streams a drifted feed: [`ishare_tpch::with_updates`] turns a fraction
/// of the lineitem/orders rows into delete+insert pairs, so the live stream
/// carries substantially more records — plus deletes — than the estimator
/// was told about. The static run keeps the planned paces and misses its
/// final-work constraints; the adaptive run observes the drift at early
/// wavefront boundaries, refreshes the estimator's base stats, re-runs the
/// pace search mid-run, and meets them. Writes `results/BENCH_adapt.json`
/// with both runs, the `adapt.*` metrics, and the full switch log; fails
/// unless the adaptive run switches at least once and misses fewer
/// constraints than the static run.
pub fn adapt(p: &Params) -> Result<()> {
    use ishare_core::adapt::{AdaptController, AdaptOptions};
    use ishare_stream::{
        execute_adaptive_from_source_obs, execute_from_source_obs, ObsConfig, Source, SourceOptions,
    };
    use ishare_tpch::with_updates;

    let env = Env::new(p.sf, p.seed)?;
    let names = ["qa", "qb", "q6"];
    let mut queries = Vec::new();
    let mut cons = BTreeMap::new();
    for (i, name) in names.iter().enumerate() {
        let q = query_by_name(&env.data.catalog, name)?;
        queries.push((QueryId(i as u16), q.plan));
        cons.insert(QueryId(i as u16), FinalWorkConstraint::Relative(0.35));
    }
    let planned = plan_workload(Approach::IShare, &queries, &cons, &env.data.catalog, &opts(p))?;

    // Drift the stream: ~40% of the rows become delete+insert pairs, so the
    // gross record count is ~1.8x what the catalog promised.
    let update_frac = 0.4;
    let feeds = with_updates(&env.data, update_frac, p.seed ^ 0x00ad_a917)?;
    let w = CostWeights::default();
    let src_opts = || SourceOptions { obs: Some(ObsConfig::default()), ..Default::default() };

    let static_run = {
        let mut source = Source::in_order(&feeds);
        execute_from_source_obs(
            &planned.plan,
            planned.paces.as_slice(),
            &env.data.catalog,
            &mut source,
            w,
            src_opts(),
        )?
        .into_result()?
    };

    let mut ctrl = AdaptController::from_planned(
        &planned,
        &env.data.catalog,
        w,
        AdaptOptions { max_pace: p.max_pace, ..Default::default() },
    )?;
    let adaptive_run = {
        let mut source = Source::in_order(&feeds);
        execute_adaptive_from_source_obs(
            &planned.plan,
            &env.data.catalog,
            &mut source,
            w,
            src_opts(),
            &mut ctrl,
        )?
        .into_result()?
    };

    let mut rows = Vec::new();
    let mut query_json = Vec::new();
    let mut static_missed = 0usize;
    let mut adaptive_missed = 0usize;
    for (i, name) in names.iter().enumerate() {
        let q = QueryId(i as u16);
        let l = planned.constraints[&q];
        let s = static_run.final_work[&q];
        let a = adaptive_run.final_work[&q];
        let s_met = s <= l;
        let a_met = a <= l;
        static_missed += usize::from(!s_met);
        adaptive_missed += usize::from(!a_met);
        rows.push(vec![
            name.to_string(),
            format!("{l:.0}"),
            format!("{s:.0} {}", if s_met { "met" } else { "MISS" }),
            format!("{a:.0} {}", if a_met { "met" } else { "MISS" }),
        ]);
        query_json.push(serde_json::json!({
            "query": name,
            "constraint": l,
            "static_final_work": s,
            "adaptive_final_work": a,
            "static_met": s_met,
            "adaptive_met": a_met,
        }));
    }
    print_table(
        &format!(
            "Adaptive re-optimization under drift — sf {}, seed {}, update_frac {}",
            p.sf, p.seed, update_frac
        ),
        &["query", "constraint L(q)", "static final work", "adaptive final work"],
        &rows,
    );
    let m = ctrl.metrics();
    println!(
        "static misses {static_missed}/{} constraints; adaptive misses {adaptive_missed}/{} \
         ({} switches, max drift {:.2}, reopt {:.1} ms)",
        names.len(),
        names.len(),
        m.switches,
        m.max_drift,
        m.reopt_time.as_secs_f64() * 1e3,
    );

    // The adapt.* metrics as the observability layer surfaces them.
    let obs = adaptive_run.obs.as_ref().expect("obs was enabled");
    let metric = |n: &str| obs.metrics.counter(n).or_else(|| obs.metrics.gauge(n)).unwrap_or(0.0);
    let switches: Vec<serde_json::Value> = ctrl
        .switches()
        .iter()
        .map(|s| {
            serde_json::json!({
                "wavefront": s.wavefront as u64,
                "num": s.num,
                "den": s.den,
                "drift": s.drift,
                "from": s.from.clone(),
                "to": s.to.clone(),
                "feasible": s.feasible,
                "steps": s.steps as u64,
            })
        })
        .collect();
    save_json(
        "BENCH_adapt",
        &serde_json::json!({
            "sf": p.sf,
            "seed": p.seed,
            "update_frac": update_frac,
            "queries": query_json,
            "static": {
                "total_work": static_run.total_work.get(),
                "executions": static_run.executions as u64,
                "constraints_missed": static_missed as u64,
            },
            "adaptive": {
                "total_work": adaptive_run.total_work.get(),
                "executions": adaptive_run.executions as u64,
                "constraints_missed": adaptive_missed as u64,
            },
            "adapt": {
                "adapt.evaluations": metric("adapt.evaluations"),
                "adapt.triggers": metric("adapt.triggers"),
                "adapt.pace_switches": metric("adapt.pace_switches"),
                "adapt.max_drift": metric("adapt.max_drift"),
                "adapt.reopt_time_us": metric("adapt.reopt_time_us"),
            },
            "switches": switches,
        }),
    );
    if adaptive_missed >= static_missed || m.switches == 0 {
        return Err(ishare_common::Error::InvalidConfig(format!(
            "adaptation rescued nothing: static misses {static_missed}, adaptive misses \
             {adaptive_missed}, {} switches",
            m.switches
        )));
    }
    Ok(())
}

/// Observability overhead gate: the instrumentation (metrics registry, span
/// trace, slack ledger) must stay effectively free, because the whole design
/// is fold-after-execute — nothing runs on the hot path. Executes the
/// 10-query `scaling` workload source-fed with obs fully off and fully on
/// (metrics + every span + SLO slack ledger) in `PAIRS` back-to-back
/// pairs, alternating which mode runs first, and takes the overhead as the
/// median over pairs of on/off − 1 of end-to-end wall clock. It fails when
/// that overhead exceeds `GATE_PCT` = 5 % or the obs-on trace dropped
/// anything past its one capacity budget. Work numbers are asserted
/// bit-identical between the modes — observability can cost (bounded) time
/// but never changes a measured quantity. Writes
/// `results/BENCH_obs.json`.
pub fn obs_overhead(p: &Params) -> Result<()> {
    use ishare_stream::{
        execute_planned_deltas_with, insert_feeds, ObsConfig, RunResult, SourceOptions,
    };

    let env = Env::new(p.sf, p.seed)?;
    let queries = named_ten(&env)?;
    let workload = Workload::uniform("obs-overhead", queries, 0.2);
    let (planner_queries, cons) = {
        let queries: Vec<(QueryId, LogicalPlan)> = workload
            .queries
            .iter()
            .enumerate()
            .map(|(i, (_, plan))| (QueryId(i as u16), plan.clone()))
            .collect();
        let cons: BTreeMap<QueryId, FinalWorkConstraint> = workload
            .rel_constraints
            .iter()
            .enumerate()
            .map(|(i, &f)| (QueryId(i as u16), FinalWorkConstraint::Relative(f)))
            .collect();
        (queries, cons)
    };
    let planned =
        plan_workload(Approach::IShare, &planner_queries, &cons, &env.data.catalog, &opts(p))?;
    let feeds = insert_feeds(&env.data.data);
    let w = CostWeights::default();

    let run_once = |opts: SourceOptions| -> Result<RunResult> {
        execute_planned_deltas_with(
            &planned.plan,
            planned.paces.as_slice(),
            &env.data.catalog,
            &feeds,
            w,
            opts,
        )
    };
    let obs_opts = || SourceOptions {
        obs: Some(ObsConfig::default()),
        slo: Some(planned.constraints.clone()),
        ..Default::default()
    };

    // Each pair runs both modes back to back, so machine-load drift hits
    // them alike; alternating the order keeps either mode from always
    // running second. The first run of a process is up to 30 % slower than
    // the rest, so one unmeasured run goes ahead of the pairs.
    const PAIRS: usize = 25;
    const GATE_PCT: f64 = 5.0;
    run_once(obs_opts())?;
    let mut pairs = Vec::with_capacity(PAIRS);
    let mut runs: Option<(RunResult, RunResult)> = None;
    for i in 0..PAIRS {
        let (off, on) = if i.is_multiple_of(2) {
            let off = run_once(SourceOptions::default())?;
            (off, run_once(obs_opts())?)
        } else {
            let on = run_once(obs_opts())?;
            (run_once(SourceOptions::default())?, on)
        };
        pairs.push((off.elapsed.as_secs_f64(), on.elapsed.as_secs_f64()));
        runs = Some((off, on));
    }
    let (off_run, on_run) = runs.expect("PAIRS > 0");

    // Observability is passive: every measured number must be bit-identical.
    assert_eq!(
        off_run.total_work.get().to_bits(),
        on_run.total_work.get().to_bits(),
        "obs-on run changed measured total work"
    );
    for (q, work) in &off_run.final_work {
        assert_eq!(
            work.to_bits(),
            on_run.final_work[q].to_bits(),
            "obs-on run changed final work of q{}",
            q.0
        );
    }

    let report = on_run.obs.as_ref().expect("obs was enabled");
    let ledger = report.slack.as_ref().expect("slo budgets were set");
    ledger.verify().map_err(ishare_common::Error::InvalidConfig)?;
    let mut ratios: Vec<f64> = pairs.iter().map(|(off, on)| on / off - 1.0).collect();
    ratios.sort_by(f64::total_cmp);
    let overhead_pct = ratios[PAIRS / 2] * 100.0;

    println!(
        "obs overhead: {overhead_pct:.2}% (median of {PAIRS} off/on pairs, {:+.2}% to {:+.2}%; \
         gate {GATE_PCT}%); {} spans, {} slack fronts",
        ratios[0] * 100.0,
        ratios[PAIRS - 1] * 100.0,
        report.trace.spans().len(),
        ledger.fronts()
    );

    save_json(
        "BENCH_obs",
        &serde_json::json!({
            "sf": p.sf,
            "seed": p.seed,
            "pairs": pairs
                .iter()
                .enumerate()
                .map(|(i, (off, on))| {
                    serde_json::json!({
                        "first": if i.is_multiple_of(2) { "off" } else { "on" },
                        "off_elapsed_secs": off,
                        "on_elapsed_secs": on,
                    })
                })
                .collect::<Vec<_>>(),
            "overhead_pct": overhead_pct,
            "gate_pct": GATE_PCT,
            "total_work_bits": format!("{:016x}", on_run.total_work.get().to_bits()),
            "spans": report.trace.spans().len() as u64,
            "trace_dropped": report.trace.dropped() as u64,
            "slack_fronts": ledger.fronts() as u64,
            "deadline_misses": ledger.misses() as u64,
        }),
    );
    if report.trace.dropped() > 0 {
        return Err(ishare_common::Error::InvalidConfig(format!(
            "the obs-on trace was cut short: {} spans or slack samples dropped",
            report.trace.dropped()
        )));
    }
    if overhead_pct > GATE_PCT {
        return Err(ishare_common::Error::InvalidConfig(format!(
            "observability overhead {overhead_pct:.2}% (median over {PAIRS} pairs) exceeds \
             the {GATE_PCT}% gate"
        )));
    }
    Ok(())
}

/// `figures churn` — the economics of online query churn (DESIGN.md §14),
/// two comparisons on one live workload:
///
/// 1. **Incremental merge vs full rebuild.** Admitting the N-th query into
///    a sealed [`ishare_mqo::IncrementalSharer`] (one plan walk against the
///    persistent signature table, speculative clone included) vs rebuilding
///    the whole shared DAG from scratch. Min-of-reps wall clock; errors
///    unless the incremental merge is strictly cheaper.
/// 2. **State handoff vs history replay.** The work charged to reconstruct
///    an admitted query's shared state from witness-indexed snapshots
///    (the churn record's `handoff_work`) vs re-running the query's plan
///    over the history that had already arrived at its admission boundary
///    — what a runtime without handoff would have to replay.
///
/// Writes `results/BENCH_churn.json`.
pub fn churn(p: &Params) -> Result<()> {
    use crate::harness::time_min_secs;
    use ishare_mqo::{build_shared_dag, normalize, IncrementalSharer, MqoConfig};
    use ishare_stream::{
        execute_churn_from_source, insert_feeds, ChurnEvent, ChurnOp, ChurnOptions, ChurnScript,
        Source,
    };
    use std::collections::HashMap;

    let env = Env::new(p.sf, p.seed)?;
    let pool: Vec<(QueryId, LogicalPlan)> = sharing_friendly_queries(&env.data.catalog)?
        .into_iter()
        .take(5)
        .enumerate()
        .map(|(i, q)| (QueryId(i as u16), normalize(&q.plan)))
        .collect();
    if pool.len() < 5 {
        return Err(ishare_common::Error::InvalidConfig(
            "churn experiment needs 5 sharing-friendly queries".into(),
        ));
    }
    let w = CostWeights::default();
    let feeds = insert_feeds(&env.data.data);

    // 1 — merge microbench: admit the 5th query into a sealed 4-query
    // sharer (clone included, as the runtime admission path pays it) vs a
    // from-scratch batch rebuild over all 5.
    const REPS: usize = 20;
    let sealed = {
        let mut s = IncrementalSharer::new(MqoConfig::default());
        for (q, lp) in &pool[..4] {
            s.admit(*q, lp)?;
        }
        s.seal();
        s
    };
    let (last_q, last_plan) = &pool[4];
    let inc_secs = time_min_secs(REPS, || {
        let mut s = sealed.clone();
        s.admit(*last_q, last_plan).expect("admission is feasible");
    });
    let batch_secs = time_min_secs(REPS, || {
        build_shared_dag(&pool, &env.data.catalog, &MqoConfig::default())
            .expect("batch build succeeds");
    });

    // 2 — live churn run: admit q3 at 1/4 and q4 at 2/4, remove q1 at 3/4
    // (the churn scenario of tests/lattice.rs).
    let initial: Vec<(QueryId, LogicalPlan)> = pool[..3].to_vec();
    let cons: BTreeMap<QueryId, FinalWorkConstraint> =
        (0..5).map(|q| (QueryId(q), FinalWorkConstraint::Relative(0.35))).collect();
    let script = ChurnScript::new(vec![
        ChurnEvent {
            num: 1,
            den: 4,
            op: ChurnOp::Admit {
                query: QueryId(3),
                plan: pool[3].1.clone(),
                constraint: FinalWorkConstraint::Relative(0.9),
            },
        },
        ChurnEvent {
            num: 2,
            den: 4,
            op: ChurnOp::Admit {
                query: QueryId(4),
                plan: pool[4].1.clone(),
                constraint: FinalWorkConstraint::Relative(0.9),
            },
        },
        ChurnEvent { num: 3, den: 4, op: ChurnOp::Remove { query: QueryId(1) } },
    ]);
    let opts = ChurnOptions { max_pace: 16, ..Default::default() };
    let mut source = Source::in_order(&feeds);
    let run = execute_churn_from_source(
        &initial,
        &cons,
        &script,
        &env.data.catalog,
        &mut source,
        w,
        &opts,
    )?
    .into_result()?;
    let handoff_work: f64 = run
        .churn
        .iter()
        .filter(|r| r.handoff_work_bits != 0)
        .map(|r| f64::from_bits(r.handoff_work_bits))
        .sum();

    // Replay baseline: per admission, run the admitted query solo over the
    // history that had arrived by its boundary (q3: first quarter, q4:
    // first half) and charge the full run — the state a handoff-less
    // runtime would rebuild from row zero.
    let mut replay_work = 0.0f64;
    for (q, frac) in [(3u16, 0.25f64), (4, 0.5)] {
        let prefix: HashMap<_, Vec<_>> = env
            .data
            .data
            .iter()
            .map(|(t, rows)| {
                let n = ((rows.len() as f64) * frac).ceil() as usize;
                (*t, rows.iter().take(n).map(|r| (r.clone(), 1i64)).collect())
            })
            .collect();
        let mut source = Source::in_order(&prefix);
        let solo = execute_churn_from_source(
            &[(QueryId(q), pool[q as usize].1.clone())],
            &BTreeMap::new(),
            &ChurnScript::default(),
            &env.data.catalog,
            &mut source,
            w,
            &ChurnOptions::default(),
        )?
        .into_result()?;
        replay_work += solo.run.total_work.get();
    }

    print_table(
        &format!("Online churn — sf {}, seed {}, {REPS} reps", p.sf, p.seed),
        &["comparison", "incremental / handoff", "rebuild / replay", "ratio"],
        &[
            vec![
                "DAG merge (s, min)".into(),
                format!("{inc_secs:.6}"),
                format!("{batch_secs:.6}"),
                format!("{:.2}x", batch_secs / inc_secs),
            ],
            vec![
                "state seeding (work)".into(),
                format!("{handoff_work:.0}"),
                format!("{replay_work:.0}"),
                format!("{:.2}x", replay_work / handoff_work),
            ],
        ],
    );
    println!(
        "churn run: {} events, {} handoff rows, {} reclaimed rows, total work {:.0}",
        run.churn.len(),
        run.handoff_rows,
        run.reclaimed_rows,
        run.run.total_work.get()
    );

    save_json(
        "BENCH_churn",
        &serde_json::json!({
            "sf": p.sf,
            "seed": p.seed,
            "reps": REPS as u64,
            "incremental_admit_secs_min": inc_secs,
            "batch_rebuild_secs_min": batch_secs,
            "merge_speedup": batch_secs / inc_secs,
            "handoff_work": handoff_work,
            "replay_work": replay_work,
            "handoff_saving": replay_work / handoff_work,
            "handoff_rows": run.handoff_rows,
            "reclaimed_rows": run.reclaimed_rows,
            "churn_events": run.churn.len() as u64,
            "total_work_bits": format!("{:016x}", run.run.total_work.get().to_bits()),
        }),
    );
    if inc_secs >= batch_secs {
        return Err(ishare_common::Error::InvalidConfig(format!(
            "incremental admission ({inc_secs:.6}s) is not strictly cheaper than a full \
             rebuild ({batch_secs:.6}s)"
        )));
    }
    Ok(())
}

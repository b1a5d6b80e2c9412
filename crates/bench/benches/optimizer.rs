//! Criterion benchmarks of the optimizer's hot paths: memoized vs
//! from-scratch cost estimation (Fig. 15's mechanism), one subplan
//! simulation, and the clustering vs brute-force split search (Fig. 16's
//! mechanism).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ishare_common::{CostWeights, QueryId, QuerySet, Result, SubplanId, TableId, Value};
use ishare_core::decompose::{brute_force_split, cluster_split, LocalProblem};
use ishare_core::find_pace_configuration;
use ishare_cost::simulate::simulate_subplan;
use ishare_cost::{PlanEstimator, StreamEstimate};
use ishare_expr::Expr;
use ishare_mqo::{build_shared_dag, normalize, MqoConfig};
use ishare_plan::{
    AggExpr, AggFunc, InputSource, LogicalPlan, OpTree, PlanBuilder, SelectBranch, SharedPlan,
    Subplan, TreeOp,
};
use ishare_storage::{Catalog, ColumnStats, Field, Schema, TableStats};
use std::collections::BTreeMap;
use std::time::Duration;

fn catalog() -> Catalog {
    use ishare_common::DataType;
    let mut c = Catalog::new();
    c.add_table(
        "t",
        Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
        TableStats {
            row_count: 50_000.0,
            columns: vec![
                ColumnStats::ndv(200.0),
                ColumnStats::with_range(1000.0, Value::Int(0), Value::Int(999)),
            ],
        },
    )
    .unwrap();
    c
}

fn workload(c: &Catalog, n: usize) -> Result<Vec<(QueryId, LogicalPlan)>> {
    (0..n)
        .map(|i| {
            let plan = PlanBuilder::scan(c, "t")?
                .select(move |x| Ok(x.col("v")?.lt(Expr::lit((100 + 80 * i) as i64))))?
                .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))?
                .build();
            Ok((QueryId(i as u16), normalize(&plan)))
        })
        .collect()
}

fn bench_estimation(c: &mut Criterion) {
    let cat = catalog();
    let queries = workload(&cat, 6).unwrap();
    let dag = build_shared_dag(&queries, &cat, &MqoConfig::default()).unwrap();
    let plan = SharedPlan::from_dag(&dag, |_| false).unwrap();
    let n = plan.len();
    let mut g = c.benchmark_group("cost_estimation");
    // A stream of configurations differing in one subplan's pace — the
    // greedy search's access pattern, where memoization shines.
    let configs: Vec<Vec<u32>> = (0..50u32)
        .map(|i| {
            let mut p = vec![4u32; n];
            p[(i as usize) % n] = 4 + i % 4;
            p
        })
        .collect();
    g.bench_function("memoized_50_configs", |b| {
        b.iter(|| {
            let mut est = PlanEstimator::new(&plan, &cat, CostWeights::default()).unwrap();
            for p in &configs {
                est.estimate(p).unwrap();
            }
        })
    });
    g.bench_function("unmemoized_50_configs", |b| {
        b.iter(|| {
            let mut est = PlanEstimator::new(&plan, &cat, CostWeights::default()).unwrap();
            for p in &configs {
                est.estimate_unmemoized(p).unwrap();
            }
        })
    });
    g.finish();
}

/// One simulation of a join + aggregate subplan shared by three queries —
/// what every memo miss (and all of Fig. 15's `w/o memo` column) pays.
fn bench_simulate_subplan(c: &mut Criterion) {
    let queries = QuerySet::first_n(3);
    let side = |table: u32| {
        OpTree::node(
            TreeOp::Select {
                branches: (0..3)
                    .map(|i| SelectBranch {
                        queries: QuerySet::single(QueryId(i)),
                        predicate: Expr::col(1).lt(Expr::lit(200 + 300 * i64::from(i))),
                    })
                    .collect(),
            },
            vec![OpTree::input(InputSource::Base(TableId(table)))],
        )
    };
    let sp = Subplan {
        id: SubplanId(0),
        root: OpTree::node(
            TreeOp::Aggregate {
                group_by: vec![(Expr::col(0), "k".into())],
                aggs: vec![
                    AggExpr::new(AggFunc::Sum, Expr::col(1), "s"),
                    AggExpr::new(AggFunc::Max, Expr::col(3), "m"),
                ],
            },
            vec![OpTree::node(
                TreeOp::Join { keys: vec![(Expr::col(0), Expr::col(0))] },
                vec![side(0), side(1)],
            )],
        ),
        queries,
        output_queries: QuerySet::EMPTY,
    };
    let mut input = StreamEstimate::insert_only(
        20_000.0,
        queries,
        vec![
            ColumnStats::ndv(100.0),
            ColumnStats::with_range(1000.0, Value::Int(0), Value::Int(999)),
        ],
    );
    input.delete_frac = 0.2;
    let mut inputs = ishare_cost::LeafInputs::new();
    inputs.insert(vec![0, 0, 0], input.clone());
    inputs.insert(vec![0, 1, 0], input);
    let weights = CostWeights::default();
    let mut g = c.benchmark_group("simulate_subplan");
    for pace in [1u32, 10, 100] {
        g.bench_with_input(BenchmarkId::new("join_agg", pace), &pace, |b, &pace| {
            b.iter(|| simulate_subplan(&sp, pace, &inputs, &weights).unwrap())
        });
    }
    g.finish();
}

fn bench_pace_search(c: &mut Criterion) {
    let cat = catalog();
    let mut g = c.benchmark_group("pace_search");
    g.sample_size(10);
    for &nq in &[3usize, 6] {
        let queries = workload(&cat, nq).unwrap();
        let dag = build_shared_dag(&queries, &cat, &MqoConfig::default()).unwrap();
        let plan = SharedPlan::from_dag(&dag, |_| false).unwrap();
        g.bench_with_input(BenchmarkId::new("greedy", nq), &nq, |b, _| {
            // Resolve a tight uniform constraint against the plan's batch.
            let mut est = PlanEstimator::new(&plan, &cat, CostWeights::default()).unwrap();
            let batch = est.estimate(&vec![1; plan.len()]).unwrap();
            let cons: BTreeMap<QueryId, f64> = (0..nq)
                .map(|i| {
                    let q = QueryId(i as u16);
                    (q, batch.final_of(q).get() * 0.2)
                })
                .collect();
            b.iter(|| {
                let mut est = PlanEstimator::new(&plan, &cat, CostWeights::default()).unwrap();
                find_pace_configuration(&mut est, &cons, 30).unwrap()
            })
        });
    }
    g.finish();
}

fn local_problem_subplan(n_queries: usize) -> Subplan {
    let queries = QuerySet::first_n(n_queries);
    Subplan {
        id: SubplanId(0),
        root: OpTree::node(
            TreeOp::Aggregate {
                group_by: vec![(Expr::col(0), "k".into())],
                aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
            },
            vec![OpTree::node(
                TreeOp::Select {
                    branches: (0..n_queries)
                        .map(|i| SelectBranch {
                            queries: QuerySet::single(QueryId(i as u16)),
                            predicate: Expr::col(1).lt(Expr::lit((200 + 100 * i) as i64)),
                        })
                        .collect(),
                },
                vec![OpTree::input(InputSource::Base(TableId(0)))],
            )],
        ),
        queries,
        output_queries: QuerySet::EMPTY,
    }
}

fn bench_split_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("split_search");
    g.sample_size(10);
    for &nq in &[3usize, 5, 7] {
        let sp = local_problem_subplan(nq);
        let mut input = StreamEstimate::insert_only(
            20_000.0,
            sp.queries,
            vec![
                ColumnStats::ndv(100.0),
                ColumnStats::with_range(1000.0, Value::Int(0), Value::Int(999)),
            ],
        );
        input.delete_frac = 0.2;
        let mut inputs = ishare_cost::LeafInputs::new();
        inputs.insert(vec![0, 0], input);
        let cons: BTreeMap<QueryId, f64> =
            (0..nq).map(|i| (QueryId(i as u16), 3_000.0 + 2_000.0 * i as f64)).collect();
        g.bench_with_input(BenchmarkId::new("clustering", nq), &nq, |b, _| {
            let problem = LocalProblem {
                subplan: &sp,
                inputs: &inputs,
                local_constraints: &cons,
                weights: CostWeights::default(),
                max_pace: 30,
            };
            b.iter(|| cluster_split(&problem).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("brute_force", nq), &nq, |b, _| {
            let problem = LocalProblem {
                subplan: &sp,
                inputs: &inputs,
                local_constraints: &cons,
                weights: CostWeights::default(),
                max_pace: 30,
            };
            b.iter(|| brute_force_split(&problem, Duration::from_secs(120)).unwrap())
        });
    }
    g.finish();
}

fn bench_decomposition_ablation(c: &mut Criterion) {
    // Ablation: the full optimizer with decomposition off / whole-only /
    // whole+partial, on a workload where un-sharing fires (broad lazy +
    // narrow tight max-over-sum pair).
    use ishare_core::{plan_workload, Approach, FinalWorkConstraint, PlanningOptions};
    let cat = catalog();
    let broad = normalize(
        &PlanBuilder::scan(&cat, "t")
            .unwrap()
            .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))
            .unwrap()
            .aggregate(&[], |x| Ok(vec![x.max("s", "m")?]))
            .unwrap()
            .build(),
    );
    let narrow = normalize(
        &PlanBuilder::scan(&cat, "t")
            .unwrap()
            .select(|x| Ok(x.col("v")?.lt(Expr::lit(40i64))))
            .unwrap()
            .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))
            .unwrap()
            .aggregate(&[], |x| Ok(vec![x.max("s", "m")?]))
            .unwrap()
            .build(),
    );
    let queries = vec![(QueryId(0), broad), (QueryId(1), narrow)];
    let cons: BTreeMap<QueryId, FinalWorkConstraint> = [
        (QueryId(0), FinalWorkConstraint::Relative(1.0)),
        (QueryId(1), FinalWorkConstraint::Relative(0.05)),
    ]
    .into_iter()
    .collect();
    let mut g = c.benchmark_group("decomposition_ablation");
    g.sample_size(10);
    for (label, approach, partial) in [
        ("no_unshare", Approach::IShareNoUnshare, false),
        ("whole_only", Approach::IShare, false),
        ("whole_plus_partial", Approach::IShare, true),
    ] {
        g.bench_function(label, |b| {
            let opts = PlanningOptions { max_pace: 50, partial, ..Default::default() };
            b.iter(|| plan_workload(approach, &queries, &cons, &cat, &opts).unwrap())
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_estimation, bench_simulate_subplan, bench_pace_search, bench_split_search,
        bench_decomposition_ablation
}
criterion_main!(benches);

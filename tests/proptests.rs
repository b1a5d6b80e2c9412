//! Property-based tests over the engine's core invariants.
//!
//! The deepest one: *incremental execution is a refinement of batch
//! execution* — any way of chopping a delta stream into batches must
//! consolidate to the same multiset the single batch produces, for every
//! operator and for whole subplans. This is what makes pace configurations
//! a pure performance knob.

use ishare::exec::SubplanExecutor;
use ishare_common::{
    CostWeights, DataType, QueryId, QuerySet, SubplanId, TableId, Value, WorkCounter,
};
use ishare_expr::Expr;
use ishare_plan::{AggExpr, AggFunc, InputSource, OpTree, SelectBranch, Subplan, TreeOp};
use ishare_storage::{consolidate, Catalog, DeltaBatch, DeltaRow, Field, Row, Schema, TableStats};
use proptest::prelude::*;
use std::collections::HashMap;

fn qs(bits: u8) -> QuerySet {
    QuerySet((bits as u64).max(1) & 0b11)
}

/// A random delta stream that never over-retracts: deletes only reference
/// previously inserted (row, mask) pairs.
fn delta_stream(max_len: usize) -> impl Strategy<Value = Vec<DeltaRow>> {
    proptest::collection::vec(
        (0i64..6, 0i64..8, 1u8..4, proptest::bool::weighted(0.25)),
        0..max_len,
    )
    .prop_map(|specs| {
        let mut live: Vec<DeltaRow> = Vec::new();
        let mut out = Vec::new();
        for (k, v, mask, is_delete) in specs {
            if is_delete {
                if let Some(prev) = live.pop() {
                    out.push(DeltaRow { weight: -1, ..prev });
                }
            } else {
                let dr = DeltaRow {
                    row: Row::new(vec![Value::Int(k), Value::Int(v)]),
                    weight: 1,
                    mask: qs(mask),
                };
                live.push(dr.clone());
                out.push(dr);
            }
        }
        out
    })
}

fn catalog2() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        "t",
        Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
        TableStats::unknown(100.0, 2),
    )
    .unwrap();
    c.add_table(
        "u",
        Schema::new(vec![Field::new("k", DataType::Int), Field::new("w", DataType::Int)]),
        TableStats::unknown(100.0, 2),
    )
    .unwrap();
    c
}

/// select(q0: all, q1: v>3) → join(t,u on k) → agg sum(w), count(*) by k.
fn rich_subplan() -> Subplan {
    let both = QuerySet(0b11);
    let tree = OpTree::node(
        TreeOp::Aggregate {
            group_by: vec![(Expr::col(0), "k".into())],
            aggs: vec![
                AggExpr::new(AggFunc::Sum, Expr::col(3), "sw"),
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Max, Expr::col(3), "mx"),
            ],
        },
        vec![OpTree::node(
            TreeOp::Join { keys: vec![(Expr::col(0), Expr::col(0))] },
            vec![
                OpTree::node(
                    TreeOp::Select {
                        branches: vec![
                            SelectBranch { queries: QuerySet(0b01), predicate: Expr::true_lit() },
                            SelectBranch {
                                queries: QuerySet(0b10),
                                predicate: Expr::col(1).gt(Expr::lit(3i64)),
                            },
                        ],
                    },
                    vec![OpTree::input(InputSource::Base(TableId(0)))],
                ),
                OpTree::input(InputSource::Base(TableId(1))),
            ],
        )],
    );
    Subplan { id: SubplanId(0), root: tree, queries: both, output_queries: both }
}

fn run_chunked(
    sp: &Subplan,
    t_rows: &[DeltaRow],
    u_rows: &[DeltaRow],
    t_cuts: &[usize],
    u_cuts: &[usize],
) -> HashMap<(Row, QuerySet), i64> {
    let c = catalog2();
    let mut ex = SubplanExecutor::new(sp, &c, &HashMap::new(), CostWeights::default()).unwrap();
    let leaves = ex.leaf_paths();
    let counter = WorkCounter::new();
    let steps = t_cuts.len().max(u_cuts.len());
    let mut acc = Vec::new();
    let slice = |rows: &[DeltaRow], cuts: &[usize], i: usize| -> Vec<DeltaRow> {
        if i + 1 >= cuts.len() {
            return Vec::new();
        }
        rows[cuts[i]..cuts[i + 1]].to_vec()
    };
    for i in 0..steps.max(1) {
        let mut inputs = HashMap::new();
        inputs.insert(leaves[0].0.clone(), DeltaBatch::from_rows(slice(t_rows, t_cuts, i)));
        inputs.insert(leaves[1].0.clone(), DeltaBatch::from_rows(slice(u_rows, u_cuts, i)));
        acc.extend(ex.execute(&mut inputs, &counter).unwrap().rows);
    }
    consolidate(acc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chopping the input stream into any batches yields the same
    /// consolidated output as one big batch — for a subplan combining
    /// marking select, symmetric join, and a SUM/COUNT/MAX aggregate.
    #[test]
    fn incremental_equals_batch_for_any_chunking(
        t_rows in delta_stream(30),
        u_rows in delta_stream(20),
        t_cuts_seed in proptest::collection::vec(0usize..31, 0..5),
        u_cuts_seed in proptest::collection::vec(0usize..21, 0..5),
    ) {
        let sp = rich_subplan();
        let mk_cuts = |mut seed: Vec<usize>, len: usize| {
            seed.iter_mut().for_each(|c| *c = (*c).min(len));
            seed.push(0); seed.push(len);
            seed.sort_unstable(); seed.dedup();
            seed
        };
        let t_cuts = mk_cuts(t_cuts_seed, t_rows.len());
        let u_cuts = mk_cuts(u_cuts_seed, u_rows.len());
        let single_t = vec![0, t_rows.len()];
        let single_u = vec![0, u_rows.len()];
        let batch = run_chunked(&sp, &t_rows, &u_rows, &single_t, &single_u);
        let chunked = run_chunked(&sp, &t_rows, &u_rows, &t_cuts, &u_cuts);
        // The raw (row, mask) representation is not canonical — a refined
        // class emits two disjoint-mask rows where a batch emits one
        // union-mask row — so equality is PER QUERY: each query's visible
        // multiset must match exactly.
        for q in [QueryId(0), QueryId(1)] {
            let view = |m: &HashMap<(Row, QuerySet), i64>| {
                let mut out: HashMap<Row, i64> = HashMap::new();
                for ((row, mask), w) in m {
                    if mask.contains(q) {
                        *out.entry(row.clone()).or_insert(0) += w;
                    }
                }
                out.retain(|_, w| *w != 0);
                out
            };
            prop_assert_eq!(view(&batch), view(&chunked), "query {}", q);
        }
    }

    /// Consolidation of the output never contains masks outside the
    /// subplan's query set, and per-group class masks are disjoint.
    #[test]
    fn output_masks_stay_inside_query_set(
        t_rows in delta_stream(25),
        u_rows in delta_stream(15),
    ) {
        let sp = rich_subplan();
        let out = run_chunked(
            &sp, &t_rows, &u_rows, &[0, t_rows.len()], &[0, u_rows.len()],
        );
        let mut per_group: HashMap<Value, QuerySet> = HashMap::new();
        for ((row, mask), w) in &out {
            prop_assert!(mask.is_subset_of(sp.queries));
            prop_assert!(*w > 0, "net output weights are positive");
            // Disjointness of class masks per group key.
            let key = row.get(0).clone();
            let seen = per_group.entry(key).or_insert(QuerySet::EMPTY);
            prop_assert!(!seen.intersects(*mask), "class masks must be disjoint");
            *seen = seen.union(*mask);
        }
    }

    /// The work counter is additive: the work of executing chunks separately
    /// is at least the single-batch work (eagerness never reduces total
    /// work) for insert-only streams.
    #[test]
    fn eagerness_never_cheaper_insert_only(
        n_rows in 8usize..40,
        chunks in 2usize..6,
    ) {
        let sp = rich_subplan();
        let c = catalog2();
        let both = QuerySet(0b11);
        let t_rows: Vec<DeltaRow> = (0..n_rows as i64)
            .map(|i| DeltaRow {
                row: Row::new(vec![Value::Int(i % 4), Value::Int(i % 7)]),
                weight: 1,
                mask: both,
            })
            .collect();
        let u_rows: Vec<DeltaRow> = (0..4i64)
            .map(|k| DeltaRow {
                row: Row::new(vec![Value::Int(k), Value::Int(10 + k)]),
                weight: 1,
                mask: both,
            })
            .collect();
        let work_of = |n_chunks: usize| {
            let mut ex = SubplanExecutor::new(&sp, &c, &HashMap::new(), CostWeights::default())
                .unwrap();
            let leaves = ex.leaf_paths();
            let counter = WorkCounter::new();
            for i in 0..n_chunks {
                let lo = i * t_rows.len() / n_chunks;
                let hi = (i + 1) * t_rows.len() / n_chunks;
                let mut inputs = HashMap::new();
                inputs.insert(leaves[0].0.clone(), DeltaBatch::from_rows(t_rows[lo..hi].to_vec()));
                if i == 0 {
                    inputs.insert(leaves[1].0.clone(), DeltaBatch::from_rows(u_rows.clone()));
                }
                ex.execute(&mut inputs, &counter).unwrap();
            }
            counter.total().get()
        };
        prop_assert!(work_of(chunks) >= work_of(1) - 1e-6);
    }

    /// Memoized and unmemoized estimation agree for arbitrary pace vectors.
    #[test]
    fn memoized_estimation_is_pure(paces in proptest::collection::vec(1u32..8, 3)) {
        use ishare::cost::PlanEstimator;
        use ishare::mqo::{build_shared_dag, normalize, MqoConfig};
        use ishare::plan::{PlanBuilder, SharedPlan};
        let c = catalog2();
        let q0 = normalize(
            &PlanBuilder::scan(&c, "t").unwrap()
                .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?])).unwrap()
                .build(),
        );
        let q1 = normalize(
            &PlanBuilder::scan(&c, "t").unwrap()
                .select(|x| Ok(x.col("v")?.gt(Expr::lit(3i64)))).unwrap()
                .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?])).unwrap()
                .build(),
        );
        let dag = build_shared_dag(
            &[(QueryId(0), q0), (QueryId(1), q1)], &c, &MqoConfig::default(),
        ).unwrap();
        let plan = SharedPlan::from_dag(&dag).unwrap();
        // Clamp the pace vector to the plan's subplan count and the
        // parent<=child requirement by sorting descending along topo order.
        let n = plan.len();
        let mut p = paces;
        p.resize(n, 1);
        // Force children (lower ids, built bottom-up) at least as eager as
        // parents.
        for i in (1..n).rev() {
            if p[i - 1] < p[i] {
                p[i - 1] = p[i];
            }
        }
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let a = est.estimate(&p).unwrap();
        let b = est.estimate_unmemoized(&p).unwrap();
        prop_assert!((a.total_work.get() - b.total_work.get()).abs() < 1e-9);
        for (q, w) in a.final_work() {
            prop_assert!((w.get() - b.final_of(q).get()).abs() < 1e-9);
        }
        // And a second memoized call is identical (pure).
        let a2 = est.estimate(&p).unwrap();
        prop_assert!((a.total_work.get() - a2.total_work.get()).abs() < 1e-12);
    }

    /// Clustering always returns a partition of the query set, and its local
    /// total work never beats the brute-force optimum.
    #[test]
    fn clustering_is_a_partition_and_brute_is_optimal(
        limits in proptest::collection::vec(0.05f64..2.0, 3),
        total in 500f64..5000f64,
    ) {
        use ishare::core::decompose::{brute_force_split, cluster_split, LocalProblem};
        use ishare::cost::{simulate::simulate_subplan, StreamEstimate};
        use ishare_storage::ColumnStats;
        use std::collections::BTreeMap;

        let both = QuerySet(0b111);
        let tree = OpTree::node(
            TreeOp::Aggregate {
                group_by: vec![(Expr::col(0), "k".into())],
                aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
            },
            vec![OpTree::node(
                TreeOp::Select {
                    branches: (0..3)
                        .map(|i| SelectBranch {
                            queries: QuerySet(1 << i),
                            predicate: Expr::col(1).lt(Expr::lit(30 + 20 * i as i64)),
                        })
                        .collect(),
                },
                vec![OpTree::input(InputSource::Base(TableId(0)))],
            )],
        );
        let sp = Subplan { id: SubplanId(0), root: tree, queries: both, output_queries: QuerySet::EMPTY };
        let mut input = StreamEstimate::insert_only(
            total,
            both,
            vec![
                ColumnStats::ndv(20.0),
                ColumnStats::with_range(100.0, Value::Int(0), Value::Int(99)),
            ],
        );
        input.delete_frac = 0.2;
        let inputs = [input];
        let batch = simulate_subplan(&sp, 1, &inputs, &CostWeights::default()).unwrap();
        let cons: BTreeMap<QueryId, f64> = limits
            .iter()
            .enumerate()
            .map(|(i, &l)| (QueryId(i as u16), batch.private_final * l))
            .collect();
        let problem = LocalProblem {
            subplan: &sp,
            inputs: &inputs,
            local_constraints: &cons,
            weights: CostWeights::default(),
            max_pace: 30,
        };
        let split = cluster_split(&problem).unwrap();
        let mut seen = QuerySet::EMPTY;
        for (s, pace) in &split.partitions {
            prop_assert!(!s.intersects(seen));
            prop_assert!(*pace >= 1 && *pace <= 30);
            seen = seen.union(*s);
        }
        prop_assert_eq!(seen, both);
        let best = brute_force_split(&problem).unwrap().expect("3 queries are within the bound");
        prop_assert!(best.local_total <= split.local_total + 1e-6);
    }
}

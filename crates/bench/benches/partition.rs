//! Criterion benchmark of intra-subplan data parallelism: one join+aggregate
//! chain over uniform keys executed end-to-end by the sequential driver and
//! with its join/aggregate state hash-partitioned into 1/2/4 parts behind
//! the per-operator exchange (DESIGN.md §12), with as many partition workers
//! as partitions.
//!
//! Bit-identity across partition counts is enforced by
//! `tests/partition_equivalence.rs` and the `validate_partition` bin; the
//! deterministic work-division headline lives in
//! `results/BENCH_partition.json` (`figures partition`). This bench only
//! measures the wall-clock of the exchange datapath itself — on a box
//! without spare cores the partitioned runs pay routing+merge overhead and
//! that overhead is exactly what this measures.
//!
//! Set `ISHARE_BENCH_QUICK=1` (CI smoke) to run one small size with few
//! samples — a compile-and-run gate, not a measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ishare_common::{CostWeights, DataType, QueryId, QuerySet, TableId, Value};
use ishare_expr::Expr;
use ishare_plan::{AggExpr, AggFunc, DagOp, SharedDag, SharedPlan};
use ishare_storage::{Catalog, Field, Row, Schema, TableStats};
use ishare_stream::{execute_planned_deltas, execute_planned_deltas_with, SourceOptions};
use std::collections::HashMap;

fn quick() -> bool {
    std::env::var_os("ISHARE_BENCH_QUICK").is_some()
}

fn sizes() -> Vec<usize> {
    if quick() {
        vec![2_000]
    } else {
        vec![2_000, 20_000]
    }
}

fn catalog(n_t: usize) -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        "t",
        Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
        TableStats::unknown(n_t as f64, 2),
    )
    .unwrap();
    c.add_table(
        "u",
        Schema::new(vec![Field::new("k", DataType::Int), Field::new("w", DataType::Int)]),
        TableStats::unknown(n_t as f64 / 4.0, 2),
    )
    .unwrap();
    c
}

/// Single query, single heavy subplan: join on `k`, then group-by `k` — the
/// join exchange partitions on the join key, the aggregate exchange on the
/// group key.
fn plan(c: &Catalog) -> SharedPlan {
    let t = c.table_by_name("t").unwrap().id;
    let u = c.table_by_name("u").unwrap().id;
    let q0 = QuerySet::from_iter([QueryId(0)]);
    let mut d = SharedDag::new();
    let scan_t = d.add_node(DagOp::Scan { table: t }, vec![], q0).unwrap();
    let scan_u = d.add_node(DagOp::Scan { table: u }, vec![], q0).unwrap();
    let join = d
        .add_node(
            DagOp::Join { keys: vec![(Expr::col(0), Expr::col(0))] },
            vec![scan_t, scan_u],
            q0,
        )
        .unwrap();
    let agg = d
        .add_node(
            DagOp::Aggregate {
                group_by: vec![(Expr::col(0), "k".into())],
                aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "sv")],
            },
            vec![join],
            q0,
        )
        .unwrap();
    d.set_query_root(QueryId(0), agg).unwrap();
    SharedPlan::from_dag(&d, |_| false).unwrap()
}

fn feed(n: usize, keys: i64, vmul: i64) -> Vec<(Row, i64)> {
    (0..n as i64)
        .map(|i| (Row::new(vec![Value::Int(i * 7 % keys), Value::Int(i * vmul % 1000)]), 1i64))
        .collect()
}

fn bench_partitioned_run(c: &mut Criterion) {
    let weights = CostWeights::default();
    let mut g = c.benchmark_group("partitioned_run");
    g.sample_size(if quick() { 10 } else { 20 });
    for &n in &sizes() {
        let cat = catalog(n);
        let t = cat.table_by_name("t").unwrap().id;
        let u = cat.table_by_name("u").unwrap().id;
        let plan = plan(&cat);
        let paces = vec![4u32; plan.len()];
        let feeds: HashMap<TableId, Vec<(Row, i64)>> =
            [(t, feed(n, 2048, 13)), (u, feed(n / 4, 2048, 29))].into_iter().collect();
        g.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
            b.iter(|| execute_planned_deltas(&plan, &paces, &cat, &feeds, weights).unwrap())
        });
        for parts in [1usize, 2, 4] {
            g.bench_with_input(BenchmarkId::new(format!("partitioned_p{parts}"), n), &n, |b, _| {
                b.iter(|| {
                    let opts = SourceOptions { partitions: parts, ..Default::default() };
                    execute_planned_deltas_with(&plan, &paces, &cat, &feeds, weights, opts).unwrap()
                })
            });
        }
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default().sample_size(if quick() { 10 } else { 20 })
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_partitioned_run
}
criterion_main!(benches);

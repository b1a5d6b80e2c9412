//! Criterion microbenchmarks of the vectorized (columnar) kernels against
//! both the row-kernel datapath and the reference operators: selection-vector
//! predicate evaluation vs per-row `matches`, columnar group update vs
//! row-at-a-time accumulation, and the full narrow→select chain including
//! the columnar conversion cost.
//!
//! All variants charge identical work to identical counters — bit-identity
//! is enforced by `tests/kernel_equivalence.rs` and the `validate_kernels`
//! bin; this bench only measures the wall-clock gap. The columnar batch is
//! built once outside the timed predicate/group loops: the engine converts
//! once at input narrowing and amortizes it over every operator above,
//! which is exactly what the `chain` group measures end to end.
//!
//! Set `ISHARE_BENCH_QUICK=1` (CI smoke) to run one small size with few
//! samples — a compile-and-run gate, not a measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ishare_common::{CostWeights, QuerySet, Value, WorkCounter};
use ishare_exec::aggregate::{AggSpec, AggState};
use ishare_exec::operators::{apply_select, narrow_input};
use ishare_exec::vectorized::{narrow_columnar, select_columnar, ColsView, VecDelta};
use ishare_expr::{CompiledPredicate, Expr};
use ishare_plan::{AggExpr, AggFunc, SelectBranch};
use ishare_storage::{ColumnarBatch, DeltaBatch, DeltaRow, Row};

fn quick() -> bool {
    std::env::var_os("ISHARE_BENCH_QUICK").is_some()
}

fn sizes() -> Vec<usize> {
    if quick() {
        vec![1_000]
    } else {
        vec![1_000, 10_000]
    }
}

fn rows(n: usize, keys: i64, mask: QuerySet) -> Vec<DeltaRow> {
    (0..n as i64)
        .map(|i| DeltaRow {
            row: Row::new(vec![Value::Int(i % keys), Value::Int(i * 13 % 1000)]),
            weight: 1,
            mask,
        })
        .collect()
}

/// The columnar twin of a row batch with an identity selection — what the
/// vectorized narrow produces when every row survives.
fn cols_of(batch: &DeltaBatch) -> (ColumnarBatch, Vec<u32>, Vec<QuerySet>) {
    let cb = ColumnarBatch::from_rows(batch).expect("rectangular batch");
    let sel: Vec<u32> = (0..cb.len() as u32).collect();
    let masks = cb.masks.clone();
    (cb, sel, masks)
}

fn bench_predicate(c: &mut Criterion) {
    let branches: Vec<SelectBranch> = (0..4u16)
        .map(|q| SelectBranch {
            queries: QuerySet(1 << q),
            predicate: Expr::col(1).lt(Expr::lit(250 * (i64::from(q) + 1))),
        })
        .collect();
    let compiled: Vec<CompiledPredicate> =
        branches.iter().map(|b| CompiledPredicate::compile(&b.predicate)).collect();
    let weights = CostWeights::default();
    let mut g = c.benchmark_group("vector_predicate");
    for &n in &sizes() {
        let input = DeltaBatch::from_rows(rows(n, 64, QuerySet(0b1111)));
        let (cb, sel, masks) = cols_of(&input);
        g.bench_with_input(BenchmarkId::new("vectorized", n), &n, |b, _| {
            b.iter(|| {
                let counter = WorkCounter::new();
                let delta =
                    VecDelta::Cols { batch: cb.clone(), sel: sel.clone(), masks: masks.clone() };
                select_columnar(delta, &branches, &compiled, &weights, &counter).unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("row_kernel", n), &n, |b, _| {
            b.iter(|| {
                let counter = WorkCounter::new();
                apply_select(input.clone(), &branches, &compiled, &weights, &counter).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_group_update(c: &mut Criterion) {
    let group_by = vec![(Expr::col(0), "k".to_string())];
    let aggs = vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")];
    let spec = AggSpec::compile(&group_by, &aggs);
    let agg_int = [true];
    let weights = CostWeights::default();
    let mut g = c.benchmark_group("vector_group_update");
    for &n in &sizes() {
        let input = DeltaBatch::from_rows(rows(n, 64, QuerySet(0b11)));
        let (cb, sel, masks) = cols_of(&input);
        g.bench_with_input(BenchmarkId::new("vectorized", n), &n, |b, _| {
            b.iter(|| {
                let mut st = AggState::new();
                let counter = WorkCounter::new();
                let view = ColsView { batch: &cb, sel: &sel, masks: &masks };
                st.execute_columnar(view, &spec, &agg_int, &weights, &counter).unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("row_kernel", n), &n, |b, _| {
            b.iter(|| {
                let mut st = AggState::new();
                let counter = WorkCounter::new();
                st.execute(input.clone(), &spec, &agg_int, &weights, &counter).unwrap()
            })
        });
    }
    g.finish();
}

/// End-to-end narrow→select including the columnar conversion, so the
/// amortization claim is measured rather than assumed.
fn bench_chain(c: &mut Criterion) {
    let branches: Vec<SelectBranch> = (0..4u16)
        .map(|q| SelectBranch {
            queries: QuerySet(1 << q),
            predicate: Expr::col(1).lt(Expr::lit(250 * (i64::from(q) + 1))),
        })
        .collect();
    let compiled: Vec<CompiledPredicate> =
        branches.iter().map(|b| CompiledPredicate::compile(&b.predicate)).collect();
    let weights = CostWeights::default();
    let queries = QuerySet(0b1111);
    let mut g = c.benchmark_group("vector_chain");
    for &n in &sizes() {
        let input = DeltaBatch::from_rows(rows(n, 64, queries));
        g.bench_with_input(BenchmarkId::new("vectorized", n), &n, |b, _| {
            b.iter(|| {
                let counter = WorkCounter::new();
                let narrowed = narrow_columnar(&input, queries, &[1], &weights, &counter);
                select_columnar(narrowed, &branches, &compiled, &weights, &counter).unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("row_kernel", n), &n, |b, _| {
            b.iter(|| {
                let counter = WorkCounter::new();
                let narrowed = narrow_input(input.clone(), queries, &weights, &counter);
                apply_select(narrowed, &branches, &compiled, &weights, &counter).unwrap()
            })
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default().sample_size(if quick() { 5 } else { 20 })
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_predicate, bench_group_update, bench_chain
}
criterion_main!(benches);

//! Criterion microbenchmarks of the datapath kernels against the reference
//! (interpreter-shaped) operators they replaced: join probe/insert over
//! encoded keys + flat tables vs `BTreeMap<(Row, QuerySet), i64>`, group
//! update over flat state vs `HashMap<Vec<Value>, _>`, and compiled
//! predicate evaluation vs recursive `Expr` eval.
//!
//! Both variants of each pair charge identical work to identical counters —
//! bit-identity is enforced by `tests/kernel_equivalence.rs` and the
//! `validate_kernels` bin; this bench only measures the wall-clock gap.
//!
//! Set `ISHARE_BENCH_QUICK=1` (CI smoke) to run one small size with few
//! samples — a compile-and-run gate, not a measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ishare_bench::harness::skewed_join_input;
use ishare_common::{CostWeights, QuerySet, Value, WorkCounter};
use ishare_exec::aggregate::{AggSpec, AggState};
use ishare_exec::join::{JoinKeys, JoinState};
use ishare_exec::operators::apply_select;
use ishare_exec::reference::{ref_apply_select, RefAggState, RefJoinState};
use ishare_expr::{CompiledPredicate, Expr};
use ishare_plan::{AggExpr, AggFunc, SelectBranch};
use ishare_storage::{DeltaBatch, DeltaRow, Row};

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

fn bench_join_kernel(c: &mut Criterion) {
    let key_exprs = vec![(Expr::col(0), Expr::col(0))];
    let compiled = JoinKeys::compile(&key_exprs);
    let weights = CostWeights::default();
    let mut g = c.benchmark_group("join_kernel");
    for &n in &sizes() {
        // Sparse key space (~3 matches per probe) keeps the measurement on
        // the probe/insert datapath; dense keys would be dominated by
        // output-row materialization, which both datapaths share.
        let left = DeltaBatch::from_rows(rows(n, 4096, QuerySet(0b1)));
        let right = DeltaBatch::from_rows(rows(n / 4, 4096, QuerySet(0b1)));
        g.bench_with_input(BenchmarkId::new("kernel_probe_insert", n), &n, |b, _| {
            b.iter(|| {
                let mut st = JoinState::new();
                let counter = WorkCounter::new();
                st.execute(left.clone(), right.clone(), &compiled, &weights, &counter).unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("reference_probe_insert", n), &n, |b, _| {
            b.iter(|| {
                let mut st = RefJoinState::new();
                let counter = WorkCounter::new();
                st.execute(left.clone(), right.clone(), &key_exprs, &weights, &counter).unwrap()
            })
        });
    }
    // Key skew (50k rows over 25 keys, one probe per key): what an insert
    // costs in a long slot, which the sparse sizes above cannot see.
    let n = if quick() { 5_000 } else { 50_000 };
    let (left, right) = skewed_join_input(n, 25);
    g.bench_with_input(BenchmarkId::new("kernel_insert_skewed", n), &n, |b, _| {
        b.iter(|| {
            let mut st = JoinState::new();
            let counter = WorkCounter::new();
            st.execute(left.clone(), right.clone(), &compiled, &weights, &counter).unwrap()
        })
    });
    g.bench_with_input(BenchmarkId::new("reference_insert_skewed", n), &n, |b, _| {
        b.iter(|| {
            let mut st = RefJoinState::new();
            let counter = WorkCounter::new();
            st.execute(left.clone(), right.clone(), &key_exprs, &weights, &counter).unwrap()
        })
    });
    g.finish();
}

fn bench_group_update(c: &mut Criterion) {
    let group_by = vec![(Expr::col(0), "k".to_string())];
    let aggs = vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")];
    let spec = AggSpec::compile(&group_by, &aggs);
    let agg_int = [true];
    let weights = CostWeights::default();
    let mut g = c.benchmark_group("group_update_kernel");
    for &n in &sizes() {
        let input = DeltaBatch::from_rows(rows(n, 64, QuerySet(0b11)));
        g.bench_with_input(BenchmarkId::new("kernel_sum", n), &n, |b, _| {
            b.iter(|| {
                let mut st = AggState::new();
                let counter = WorkCounter::new();
                st.execute(input.clone(), &spec, &agg_int, &weights, &counter).unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("reference_sum", n), &n, |b, _| {
            b.iter(|| {
                let mut st = RefAggState::new();
                let counter = WorkCounter::new();
                st.execute(input.clone(), &group_by, &aggs, &agg_int, &weights, &counter).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_predicate(c: &mut Criterion) {
    // The dominant shape after plan merging: one `col ⊕ const` branch per
    // query — the kernel's `ColCmpLit` fast path vs recursive eval.
    let branches: Vec<SelectBranch> = (0..4u16)
        .map(|q| SelectBranch {
            queries: QuerySet(1 << q),
            predicate: Expr::col(1).lt(Expr::lit(250 * (i64::from(q) + 1))),
        })
        .collect();
    let compiled: Vec<CompiledPredicate> =
        branches.iter().map(|b| CompiledPredicate::compile(&b.predicate)).collect();
    let weights = CostWeights::default();
    let mut g = c.benchmark_group("predicate_kernel");
    for &n in &sizes() {
        let input = DeltaBatch::from_rows(rows(n, 64, QuerySet(0b1111)));
        g.bench_with_input(BenchmarkId::new("compiled_col_cmp_lit", n), &n, |b, _| {
            b.iter(|| {
                let counter = WorkCounter::new();
                apply_select(input.clone(), &branches, &compiled, &weights, &counter).unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("interpreted", n), &n, |b, _| {
            b.iter(|| {
                let counter = WorkCounter::new();
                ref_apply_select(input.clone(), &branches, &weights, &counter).unwrap()
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
    targets = bench_join_kernel, bench_group_update, bench_predicate
}
criterion_main!(benches);

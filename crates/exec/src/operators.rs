//! Stateless operators: input narrowing, marking select, project — kernel
//! implementations over pre-compiled expressions.
//!
//! Vs. [`crate::reference`]: predicates and projections are lowered once at
//! plan setup ([`CompiledPredicate`] / [`CompiledProjection`]) instead of
//! walking `Expr` trees per row, and `Filter`/`Project` work is charged once
//! per batch with the exact unit count the reference charges tuple-at-a-time
//! (bit-identical totals — the default weights are dyadic rationals).

use ishare_common::{CostWeights, OpKind, QuerySet, Result, WorkCounter};
use ishare_expr::compile::{CompiledPredicate, CompiledProjection};
use ishare_plan::SelectBranch;
use ishare_storage::{prefetch_ahead, DeltaBatch, DeltaRow, Row};

/// Narrow an input batch to a subplan's query set (the σ_filter at a subplan
/// boundary, Fig. 2): each row's mask is intersected with `queries` and rows
/// left with an empty mask are dropped. The batch is narrowed in place — the
/// caller hands over rows it would otherwise drop, so no `Row` is cloned.
pub fn narrow_input(
    mut batch: DeltaBatch,
    queries: QuerySet,
    weights: &CostWeights,
    counter: &WorkCounter,
) -> DeltaBatch {
    counter.charge(OpKind::Scan, weights.scan, batch.len());
    batch.rows.retain_mut(|r| {
        r.mask = r.mask.intersect(queries);
        !r.mask.is_empty()
    });
    batch
}

/// Shared marking select (σ*): each branch's predicate is evaluated only for
/// rows carrying that branch's query bits; failing a branch clears those
/// bits. A row survives iff some query still wants it.
///
/// `compiled` is the branch predicates lowered 1:1 by the executor at setup.
/// Work is charged per evaluated (row, branch) pair — the same count the
/// reference charges one tuple at a time (a `TRUE` branch counts as
/// evaluated, matching the reference's charge-then-bypass).
pub fn apply_select(
    batch: DeltaBatch,
    branches: &[SelectBranch],
    compiled: &[CompiledPredicate],
    weights: &CostWeights,
    counter: &WorkCounter,
) -> Result<DeltaBatch> {
    debug_assert_eq!(branches.len(), compiled.len());
    let mut out = DeltaBatch::new();
    let mut evals = 0usize;
    let mut rows = batch.rows.into_iter();
    loop {
        prefetch_ahead(rows.as_slice());
        let Some(r) = rows.next() else { break };
        let mut mask = QuerySet::EMPTY;
        for (b, p) in branches.iter().zip(compiled) {
            let bits = b.queries.intersect(r.mask);
            if bits.is_empty() {
                continue;
            }
            evals += 1;
            if p.matches(&r.row)? {
                mask = mask.union(bits);
            }
        }
        if !mask.is_empty() {
            out.push(DeltaRow { row: r.row, weight: r.weight, mask });
        }
    }
    counter.charge(OpKind::Filter, weights.filter, evals);
    Ok(out)
}

/// Merged projection: computes the union expression list for every row.
///
/// Identity projections (every expression is `col(i)` in input order over
/// the full arity) pass rows through without rebuilding them — the common
/// shape after plan merging, and the reason projection drops out of profiles
/// entirely in the kernel datapath.
pub fn apply_project(
    batch: DeltaBatch,
    proj: &CompiledProjection,
    weights: &CostWeights,
    counter: &WorkCounter,
) -> Result<DeltaBatch> {
    counter.charge(OpKind::Project, weights.project, proj.arity() * batch.len());
    let mut out = DeltaBatch::new();
    for r in batch.rows {
        let row = if proj.is_identity_for(r.row.arity()) {
            r.row
        } else {
            Row::new(proj.project(&r.row)?)
        };
        out.push(DeltaRow { row, weight: r.weight, mask: r.mask });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{QueryId, Value};
    use ishare_expr::Expr;

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    fn row(v: i64) -> Row {
        Row::new(vec![Value::Int(v)])
    }

    fn batch(rows: &[(i64, i64, &[u16])]) -> DeltaBatch {
        rows.iter().map(|&(v, w, m)| DeltaRow { row: row(v), weight: w, mask: qs(m) }).collect()
    }

    fn compile_preds(branches: &[SelectBranch]) -> Vec<CompiledPredicate> {
        branches.iter().map(|b| CompiledPredicate::compile(&b.predicate)).collect()
    }

    fn select(
        b: DeltaBatch,
        branches: &[SelectBranch],
        w: &CostWeights,
        c: &WorkCounter,
    ) -> Result<DeltaBatch> {
        apply_select(b, branches, &compile_preds(branches), w, c)
    }

    #[test]
    fn narrowing_drops_and_intersects() {
        let c = WorkCounter::new();
        let w = CostWeights::default();
        let b = batch(&[(1, 1, &[0, 1]), (2, 1, &[1]), (3, -1, &[2])]);
        let out = narrow_input(b, qs(&[0, 2]), &w, &c);
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows[0].mask, qs(&[0]));
        assert_eq!(out.rows[1].mask, qs(&[2]));
        assert_eq!(out.rows[1].weight, -1);
        assert_eq!(c.total().get(), 3.0 * w.scan);
    }

    #[test]
    fn marking_select_clears_bits_not_rows() {
        let c = WorkCounter::new();
        let w = CostWeights::default();
        // q0: pass-through; q1: v > 5.
        let branches = vec![
            SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() },
            SelectBranch { queries: qs(&[1]), predicate: Expr::col(0).gt(Expr::lit(5i64)) },
        ];
        let out = select(batch(&[(3, 1, &[0, 1]), (9, 1, &[0, 1])]), &branches, &w, &c).unwrap();
        assert_eq!(out.len(), 2);
        // Row 3 fails q1's predicate: keeps only q0's bit (marked, not dropped).
        assert_eq!(out.rows[0].mask, qs(&[0]));
        assert_eq!(out.rows[1].mask, qs(&[0, 1]));
    }

    #[test]
    fn select_drops_fully_filtered_rows() {
        let c = WorkCounter::new();
        let w = CostWeights::default();
        let branches =
            vec![SelectBranch { queries: qs(&[1]), predicate: Expr::col(0).gt(Expr::lit(5i64)) }];
        let out = select(batch(&[(3, 1, &[1])]), &branches, &w, &c).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn select_skips_branches_not_in_mask() {
        let c = WorkCounter::new();
        let w = CostWeights::default();
        let branches = vec![
            SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() },
            SelectBranch { queries: qs(&[1]), predicate: Expr::true_lit() },
        ];
        // Row only valid for q0 — q1's branch must not be charged.
        let _ = select(batch(&[(1, 1, &[0])]), &branches, &w, &c).unwrap();
        assert_eq!(c.total().get(), w.filter);
    }

    #[test]
    fn project_computes_and_preserves_weight() {
        let c = WorkCounter::new();
        let w = CostWeights::default();
        let exprs = vec![Expr::col(0).mul(Expr::lit(2i64)), Expr::lit(7i64)];
        let proj = CompiledProjection::compile(&exprs);
        let out = apply_project(batch(&[(4, -2, &[0])]), &proj, &w, &c).unwrap();
        assert_eq!(out.rows[0].row.values()[..], [Value::Int(8), Value::Int(7)]);
        assert_eq!(out.rows[0].weight, -2);
        assert_eq!(c.total().get(), 2.0 * w.project);
    }

    #[test]
    fn identity_projection_passes_rows_through() {
        let c = WorkCounter::new();
        let w = CostWeights::default();
        let proj = CompiledProjection::compile(&[Expr::col(0)]);
        let out = apply_project(batch(&[(4, 1, &[0])]), &proj, &w, &c).unwrap();
        assert_eq!(out.rows[0].row.values()[..], [Value::Int(4)]);
        // Charged the same as the computing path: unit count is arity × rows.
        assert_eq!(c.total().get(), w.project);
    }

    #[test]
    fn select_treats_retractions_like_insertions() {
        // A HAVING-style select above an aggregate sees retract/insert
        // pairs; the predicate must apply identically to both signs so the
        // downstream state stays consistent.
        let c = WorkCounter::new();
        let w = CostWeights::default();
        let branches =
            vec![SelectBranch { queries: qs(&[0]), predicate: Expr::col(0).gt(Expr::lit(5i64)) }];
        let out = select(batch(&[(9, 1, &[0]), (9, -1, &[0]), (3, -1, &[0])]), &branches, &w, &c)
            .unwrap();
        // 9 passes with both signs; 3 fails with both signs.
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows[0].weight, 1);
        assert_eq!(out.rows[1].weight, -1);
    }

    #[test]
    fn select_error_propagates() {
        let c = WorkCounter::new();
        let w = CostWeights::default();
        let branches = vec![SelectBranch {
            queries: qs(&[0]),
            predicate: Expr::col(5).gt(Expr::lit(1i64)), // out of bounds
        }];
        assert!(select(batch(&[(1, 1, &[0])]), &branches, &w, &c).is_err());
    }
}

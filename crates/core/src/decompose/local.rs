//! The local optimization problem of Sec. 4.1.
//!
//! Decomposing a shared subplan is judged *locally*: find a split `O` of the
//! subplan's queries and a local pace configuration `R` minimizing the local
//! total work `W_T(O,R) = Σ_i W_PT(O_i, R_i)` subject to each partition's
//! local final work meeting the lowest local final work constraint among its
//! queries (`W_F(O_i, R_i) ≤ min_{j∈O_i} S_j`).
//!
//! The *selected pace* `R*_i` of a partition is the smallest pace meeting
//! its constraint — the laziest admissible execution — and is monotone under
//! merging (the paper's pruning observation): merging two partitions never
//! yields a smaller selected pace, so searches start from the merged
//! partitions' larger selected pace.

use ishare_common::{CostWeights, Error, QueryId, QuerySet, Result};
use ishare_cost::simulate::{simulate_subplan, SubplanSimulator};
use ishare_cost::LeafInputs;
use std::collections::BTreeMap;

/// Partition-evaluation memo shared across the clustering and brute-force
/// searches. A `BTreeMap` (QuerySet derives `Ord`) so any iteration over
/// cached evaluations is deterministic.
pub type PartitionMemo = BTreeMap<QuerySet, PartitionEval>;

/// One partition's evaluation at its selected pace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionEval {
    /// Selected pace R*: smallest pace meeting the partition's constraint
    /// (capped at `max_pace` when infeasible).
    pub pace: u32,
    /// Partial local total work W_PT at the selected pace.
    pub wpt: f64,
    /// Local final work W_F at the selected pace.
    pub wf: f64,
    /// Whether the constraint was actually met within `max_pace`.
    pub feasible: bool,
}

/// The local problem for one shared subplan.
pub struct LocalProblem<'a> {
    /// The subplan being split.
    pub subplan: &'a ishare_plan::Subplan,
    /// Full-trigger input estimates per leaf (from simulating the chosen
    /// nonuniform pace configuration of the full plan — Fig. 7).
    pub inputs: &'a LeafInputs,
    /// Local final work constraints S_j per query.
    pub local_constraints: &'a BTreeMap<QueryId, f64>,
    /// Cost weights.
    pub weights: CostWeights,
    /// Pace cap.
    pub max_pace: u32,
}

impl LocalProblem<'_> {
    /// Evaluate a partition: restrict the subplan to `queries`, then find
    /// the selected pace starting the search at `start_pace` (monotonicity
    /// of R* under merging makes starting above 1 sound).
    ///
    /// `memo` caches evaluations per query set across the clustering and
    /// brute-force searches.
    pub fn eval_partition(
        &self,
        queries: QuerySet,
        start_pace: u32,
        memo: &mut PartitionMemo,
    ) -> Result<PartitionEval> {
        if let Some(hit) = memo.get(&queries) {
            return Ok(*hit);
        }
        let mut restricted = SubplanSimulator::new(&self.subplan.restrict(queries)?);
        // NaN-safe minimum: a NaN constraint is rejected outright instead of
        // silently winning or losing the fold (`f64::min` drops NaN, turning
        // a poisoned constraint into "unconstrained").
        let mut limit = f64::INFINITY;
        for q in queries.iter() {
            let l = self
                .local_constraints
                .get(&q)
                .copied()
                .ok_or_else(|| Error::NotFound(format!("local constraint for {q}")))?;
            if l.is_nan() {
                return Err(Error::InvalidConfig(format!("NaN local constraint for {q}")));
            }
            if l.total_cmp(&limit).is_lt() {
                limit = l;
            }
        }

        // W_F is (approximately) monotone decreasing in the pace, so the
        // selected pace is found by galloping up from `start_pace` and
        // binary-refining, instead of the O(max_pace) linear scan — each
        // probe costs O(pace) simulation steps, so this matters.
        let mut probe = |pace: u32| -> Result<(f64, f64)> {
            let sim = restricted.run(pace, self.inputs, &self.weights)?;
            debug_assert!(
                sim.private_total.is_finite() && sim.private_final.is_finite(),
                "non-finite simulated cost at pace {pace}"
            );
            Ok((sim.private_total, sim.private_final))
        };
        let start = start_pace.max(1);
        let (mut lo_wpt, mut lo_wf) = probe(start)?;
        let eval = if lo_wf <= limit + 1e-9 {
            PartitionEval { pace: start, wpt: lo_wpt, wf: lo_wf, feasible: true }
        } else {
            // Gallop to an upper bound that satisfies the limit.
            let mut lo = start;
            let mut hi = start;
            let mut hi_eval = None;
            while hi < self.max_pace {
                hi = (hi.saturating_mul(2)).min(self.max_pace);
                let (wpt, wf) = probe(hi)?;
                if wf <= limit + 1e-9 {
                    hi_eval = Some((wpt, wf));
                    break;
                }
                lo = hi;
                lo_wpt = wpt;
                lo_wf = wf;
            }
            match hi_eval {
                None => {
                    // Even max pace misses the limit.
                    let (wpt, wf) = if hi == lo { (lo_wpt, lo_wf) } else { probe(hi)? };
                    PartitionEval { pace: hi, wpt, wf, feasible: false }
                }
                Some((wpt, wf)) => {
                    // Binary refine: smallest pace in (lo, hi] meeting the
                    // limit.
                    let mut best = (hi, wpt, wf);
                    while hi - lo > 1 {
                        let mid = lo + (hi - lo) / 2;
                        let (wpt, wf) = probe(mid)?;
                        if wf <= limit + 1e-9 {
                            hi = mid;
                            best = (mid, wpt, wf);
                        } else {
                            lo = mid;
                        }
                    }
                    PartitionEval { pace: best.0, wpt: best.1, wf: best.2, feasible: true }
                }
            }
        };
        // The paper equates the laziest feasible pace with the cheapest
        // ("the laziest possible execution that reduces the most local total
        // work"), which holds when W_PT grows with the pace. Churn-fed
        // subplans violate that: eager execution lets retractions cancel in
        // operator state and can be CHEAPER than lazy. Probe a geometric
        // ladder above the laziest feasible pace and keep the cheapest
        // feasible evaluation, preserving the paper's intent.
        let eval = if eval.feasible {
            let mut best = eval;
            let mut cand = best.pace;
            loop {
                cand = ((cand as f64 * 1.6) as u32).max(cand + 1);
                if cand > self.max_pace {
                    break;
                }
                let sim = restricted.run(cand, self.inputs, &self.weights)?;
                if sim.private_final <= limit + 1e-9 && sim.private_total < best.wpt {
                    best = PartitionEval {
                        pace: cand,
                        wpt: sim.private_total,
                        wf: sim.private_final,
                        feasible: true,
                    };
                }
            }
            best
        } else {
            eval
        };
        memo.insert(queries, eval);
        Ok(eval)
    }
}

/// Sec. 4.1.1: local final work constraints. Each query's absolute
/// constraint `L(q)` is scaled by the share of the query's separate batch
/// work that this subplan's operators account for:
///
/// > "Assume that the two operators occupy 20% of the work of executing q
/// > separately in one batch. Then, the local final work constraint for the
/// > two operators is also 20% of the constraint on q."
pub fn local_constraints_for_subplan(
    subplan: &ishare_plan::Subplan,
    inputs: &LeafInputs,
    global_constraints: &BTreeMap<QueryId, f64>,
    batch_finals: &BTreeMap<QueryId, f64>,
    weights: CostWeights,
) -> Result<BTreeMap<QueryId, f64>> {
    let mut out = BTreeMap::new();
    for q in subplan.queries.iter() {
        let restricted = subplan.restrict(QuerySet::single(q))?;
        let sim = simulate_subplan(&restricted, 1, inputs, &weights)?;
        let total_batch = batch_finals.get(&q).copied().unwrap_or(0.0);
        let fraction =
            if total_batch > 0.0 { (sim.private_total / total_batch).clamp(0.0, 1.0) } else { 1.0 };
        let l = global_constraints.get(&q).copied().unwrap_or(f64::INFINITY);
        if l.is_nan() {
            return Err(Error::InvalidConfig(format!("NaN final-work constraint for {q}")));
        }
        out.insert(q, l * fraction);
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ishare_common::{SubplanId, TableId};
    use ishare_cost::StreamEstimate;
    use ishare_expr::Expr;
    use ishare_plan::{AggExpr, AggFunc, InputSource, OpTree, SelectBranch, Subplan, TreeOp};
    use ishare_storage::ColumnStats;

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    /// A shared aggregate subplan over three queries with per-query selects.
    pub(crate) fn shared_agg_subplan() -> Subplan {
        let tree = OpTree::node(
            TreeOp::Aggregate {
                group_by: vec![(Expr::col(0), "k".into())],
                aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
            },
            vec![OpTree::node(
                TreeOp::Select {
                    branches: vec![
                        SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() },
                        SelectBranch {
                            queries: qs(&[1]),
                            predicate: Expr::col(1).gt(Expr::lit(50i64)),
                        },
                        SelectBranch {
                            queries: qs(&[2]),
                            predicate: Expr::col(1).lt(Expr::lit(10i64)),
                        },
                    ],
                },
                vec![OpTree::input(InputSource::Base(TableId(0)))],
            )],
        );
        Subplan {
            id: SubplanId(0),
            root: tree,
            queries: qs(&[0, 1, 2]),
            output_queries: QuerySet::EMPTY,
        }
    }

    pub(crate) fn inputs_for(sp: &Subplan, total: f64) -> LeafInputs {
        let mut m = LeafInputs::new();
        fn collect(t: &OpTree, p: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if matches!(t.op, TreeOp::Input(_)) {
                out.push(p.clone());
            }
            for (i, c) in t.inputs.iter().enumerate() {
                p.push(i);
                collect(c, p, out);
                p.pop();
            }
        }
        let mut paths = Vec::new();
        collect(&sp.root, &mut Vec::new(), &mut paths);
        for p in paths {
            m.insert(
                p,
                StreamEstimate::insert_only(
                    total,
                    sp.queries,
                    vec![
                        ColumnStats::with_range(
                            50.0,
                            ishare_common::Value::Int(0),
                            ishare_common::Value::Int(49),
                        ),
                        ColumnStats::with_range(
                            100.0,
                            ishare_common::Value::Int(0),
                            ishare_common::Value::Int(99),
                        ),
                    ],
                ),
            );
        }
        m
    }

    #[test]
    fn selected_pace_meets_constraint() {
        let sp = shared_agg_subplan();
        let inputs = inputs_for(&sp, 10_000.0);
        // Find the batch final work first, then demand a quarter of it.
        let batch = simulate_subplan(&sp, 1, &inputs, &CostWeights::default()).unwrap();
        let limit = batch.private_final * 0.25;
        let cons: BTreeMap<QueryId, f64> = sp.queries.iter().map(|q| (q, limit)).collect();
        let prob = LocalProblem {
            subplan: &sp,
            inputs: &inputs,
            local_constraints: &cons,
            weights: CostWeights::default(),
            max_pace: 100,
        };
        let mut memo = PartitionMemo::new();
        let eval = prob.eval_partition(sp.queries, 1, &mut memo).unwrap();
        assert!(eval.feasible);
        assert!(eval.pace >= 4, "roughly 1/pace final work");
        assert!(eval.wf <= limit + 1e-9);
        // Memo hit returns identical result.
        let again = prob.eval_partition(sp.queries, 1, &mut memo).unwrap();
        assert_eq!(eval, again);
    }

    #[test]
    fn singleton_partitions_can_be_lazier() {
        let sp = shared_agg_subplan();
        let inputs = inputs_for(&sp, 10_000.0);
        let batch = simulate_subplan(&sp, 1, &inputs, &CostWeights::default()).unwrap();
        // q1 is highly selective (v > 50 keeps little data): its restricted
        // subplan meets the same absolute limit at a lazier pace.
        let limit = batch.private_final * 0.25;
        let cons: BTreeMap<QueryId, f64> = sp.queries.iter().map(|q| (q, limit)).collect();
        let prob = LocalProblem {
            subplan: &sp,
            inputs: &inputs,
            local_constraints: &cons,
            weights: CostWeights::default(),
            max_pace: 100,
        };
        let mut memo = PartitionMemo::new();
        let full = prob.eval_partition(sp.queries, 1, &mut memo).unwrap();
        let q1_only = prob.eval_partition(qs(&[1]), 1, &mut memo).unwrap();
        assert!(q1_only.pace <= full.pace);
        assert!(q1_only.wpt < full.wpt);
    }

    #[test]
    fn infeasible_partitions_cap_at_max_pace() {
        let sp = shared_agg_subplan();
        let inputs = inputs_for(&sp, 10_000.0);
        let cons: BTreeMap<QueryId, f64> = sp.queries.iter().map(|q| (q, 0.0001)).collect();
        let prob = LocalProblem {
            subplan: &sp,
            inputs: &inputs,
            local_constraints: &cons,
            weights: CostWeights::default(),
            max_pace: 6,
        };
        let mut memo = PartitionMemo::new();
        let eval = prob.eval_partition(sp.queries, 1, &mut memo).unwrap();
        assert!(!eval.feasible);
        assert_eq!(eval.pace, 6);
    }

    #[test]
    fn missing_local_constraint_is_error() {
        let sp = shared_agg_subplan();
        let inputs = inputs_for(&sp, 100.0);
        let cons: BTreeMap<QueryId, f64> = BTreeMap::new();
        let prob = LocalProblem {
            subplan: &sp,
            inputs: &inputs,
            local_constraints: &cons,
            weights: CostWeights::default(),
            max_pace: 10,
        };
        let mut memo = PartitionMemo::new();
        assert!(prob.eval_partition(qs(&[0]), 1, &mut memo).is_err());
    }

    #[test]
    fn local_constraints_scale_by_fraction() {
        let sp = shared_agg_subplan();
        let inputs = inputs_for(&sp, 1000.0);
        let global: BTreeMap<QueryId, f64> = sp.queries.iter().map(|q| (q, 100.0)).collect();
        // Pretend each query's separate batch work is 4× this subplan's.
        let mut batch = BTreeMap::new();
        for q in sp.queries.iter() {
            let restricted = sp.restrict(QuerySet::single(q)).unwrap();
            let sim = simulate_subplan(&restricted, 1, &inputs, &CostWeights::default()).unwrap();
            batch.insert(q, sim.private_total * 4.0);
        }
        let local =
            local_constraints_for_subplan(&sp, &inputs, &global, &batch, CostWeights::default())
                .unwrap();
        for q in sp.queries.iter() {
            assert!((local[&q] - 25.0).abs() < 1e-6, "25% of L(q)=100");
        }
    }

    #[test]
    fn nan_constraint_is_rejected_not_silently_dropped() {
        // Regression: the old `fold(INFINITY, f64::min)` dropped NaN (Rust's
        // `f64::min` returns the non-NaN operand), silently treating a
        // poisoned constraint as "unconstrained" and mis-ranking candidates.
        let sp = shared_agg_subplan();
        let inputs = inputs_for(&sp, 1_000.0);
        let mut cons: BTreeMap<QueryId, f64> = sp.queries.iter().map(|q| (q, 1_000.0)).collect();
        cons.insert(QueryId(1), f64::NAN);
        let prob = LocalProblem {
            subplan: &sp,
            inputs: &inputs,
            local_constraints: &cons,
            weights: CostWeights::default(),
            max_pace: 10,
        };
        let mut memo = PartitionMemo::new();
        assert!(prob.eval_partition(sp.queries, 1, &mut memo).is_err());
        // Global NaN constraints are rejected when localizing, too.
        let mut global: BTreeMap<QueryId, f64> = sp.queries.iter().map(|q| (q, 100.0)).collect();
        global.insert(QueryId(0), f64::NAN);
        let batch: BTreeMap<QueryId, f64> = sp.queries.iter().map(|q| (q, 400.0)).collect();
        assert!(local_constraints_for_subplan(
            &sp,
            &inputs,
            &global,
            &batch,
            CostWeights::default()
        )
        .is_err());
    }
}

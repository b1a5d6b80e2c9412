//! The clustering algorithm and sharing benefit (Sec. 4.1.2).
//!
//! Bottom-up agglomerative clustering of the queries sharing a subplan:
//! start with singletons at their selected paces, repeatedly merge the pair
//! with the highest *sharing benefit*
//!
//! ```text
//! SharingBenefit(O_i, O_j) = W_PT(O_i, R*_i) + W_PT(O_j, R*_j) − W_PT(O_ij, R*_ij)
//! ```
//!
//! until no merge has positive benefit or a single partition remains. The
//! merged partition's selected-pace search starts from the larger of the two
//! old selected paces (monotonicity observation).

use super::local::{LocalProblem, PartitionEval, PartitionMemo};
use ishare_common::{QuerySet, Result};

/// A proposed split of a shared subplan.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Partitions with their selected paces (sorted by smallest member for
    /// determinism).
    pub partitions: Vec<(QuerySet, u32)>,
    /// Local total work of the split: Σ W_PT at the selected paces.
    pub local_total: f64,
}

impl Split {
    /// `true` iff this split keeps everything in one partition (i.e. no
    /// decomposition is proposed).
    pub fn is_trivial(&self) -> bool {
        self.partitions.len() <= 1
    }
}

/// `true` iff a merge with sharing benefit `b` beats the incumbent best.
/// NaN-safe: a NaN benefit never wins, and any non-NaN benefit displaces a
/// NaN incumbent — a poisoned cost cannot steer the clustering.
pub(crate) fn merge_better(b: f64, best: Option<f64>) -> bool {
    if b.is_nan() {
        return false;
    }
    match best {
        None => true,
        Some(bb) => bb.is_nan() || b.total_cmp(&bb).is_gt(),
    }
}

/// Run the clustering algorithm for one local problem.
pub fn cluster_split(problem: &LocalProblem<'_>) -> Result<Split> {
    let mut memo = PartitionMemo::new();
    let mut parts: Vec<(QuerySet, PartitionEval)> = Vec::new();
    for q in problem.subplan.queries.iter() {
        let set = QuerySet::single(q);
        let eval = problem.eval_partition(set, 1, &mut memo)?;
        parts.push((set, eval));
    }

    while parts.len() > 1 {
        let mut best: Option<(f64, usize, usize, PartitionEval)> = None;
        for i in 0..parts.len() {
            for j in (i + 1)..parts.len() {
                let merged = parts[i].0.union(parts[j].0);
                let start = parts[i].1.pace.max(parts[j].1.pace);
                let eval = problem.eval_partition(merged, start, &mut memo)?;
                let b = parts[i].1.wpt + parts[j].1.wpt - eval.wpt;
                debug_assert!(!b.is_nan(), "NaN sharing benefit for {merged}");
                if merge_better(b, best.as_ref().map(|(bb, ..)| *bb)) {
                    best = Some((b, i, j, eval));
                }
            }
        }
        match best {
            Some((b, i, j, eval)) if b > 0.0 => {
                let merged = parts[i].0.union(parts[j].0);
                // Remove j first (j > i) to keep indices valid.
                parts.remove(j);
                parts.remove(i);
                parts.push((merged, eval));
            }
            _ => break,
        }
    }

    parts.sort_by_key(|(s, _)| s.min_query().map(|q| q.0).unwrap_or(u16::MAX));
    let local_total = parts.iter().map(|(_, e)| e.wpt).sum();
    Ok(Split { partitions: parts.into_iter().map(|(s, e)| (s, e.pace)).collect(), local_total })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::local::tests::{inputs_for, shared_agg_subplan};
    use ishare_common::{CostWeights, QueryId};
    use ishare_cost::simulate::simulate_subplan;
    use std::collections::BTreeMap;

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    #[test]
    fn nan_benefit_cannot_win_a_merge() {
        // Regression for the NaN-unsafe `b > *bb` comparison: a NaN sharing
        // benefit must lose to everything (including a worse finite benefit)
        // and a finite benefit must displace a NaN incumbent.
        assert!(!merge_better(f64::NAN, None));
        assert!(!merge_better(f64::NAN, Some(-5.0)));
        assert!(merge_better(-5.0, Some(f64::NAN)));
        assert!(merge_better(1.0, None));
        assert!(merge_better(2.0, Some(1.0)));
        assert!(!merge_better(1.0, Some(2.0)));
        assert!(merge_better(f64::INFINITY, Some(1.0)));
    }

    #[test]
    fn loose_constraints_keep_sharing() {
        // With loose constraints every partition runs at pace 1; sharing is
        // free work reduction, so everything merges.
        let sp = shared_agg_subplan();
        let inputs = inputs_for(&sp, 10_000.0);
        let batch = simulate_subplan(&sp, 1, &inputs, &CostWeights::default()).unwrap();
        let cons: BTreeMap<QueryId, f64> =
            sp.queries.iter().map(|q| (q, batch.private_final * 2.0)).collect();
        let prob = LocalProblem {
            subplan: &sp,
            inputs: &inputs,
            local_constraints: &cons,
            weights: CostWeights::default(),
            max_pace: 100,
        };
        let split = cluster_split(&prob).unwrap();
        assert!(split.is_trivial(), "got {:?}", split.partitions);
        assert_eq!(split.partitions[0].0, qs(&[0, 1, 2]));
        assert_eq!(split.partitions[0].1, 1);
    }

    #[test]
    fn unfiltered_tight_query_rides_along_shared() {
        // q0 (unfiltered) is tight: it must process all data eagerly anyway,
        // so adding the selective q1/q2 to its subplan is nearly free, while
        // separating them would re-scan everything. The clustering must KEEP
        // sharing here — un-sharing is not always the answer.
        let sp = shared_agg_subplan();
        let inputs = inputs_for(&sp, 10_000.0);
        let batch = simulate_subplan(&sp, 1, &inputs, &CostWeights::default()).unwrap();
        let mut cons: BTreeMap<QueryId, f64> = BTreeMap::new();
        cons.insert(QueryId(0), batch.private_final * 0.05);
        cons.insert(QueryId(1), batch.private_final * 2.0);
        cons.insert(QueryId(2), batch.private_final * 2.0);
        let prob = LocalProblem {
            subplan: &sp,
            inputs: &inputs,
            local_constraints: &cons,
            weights: CostWeights::default(),
            max_pace: 100,
        };
        let split = cluster_split(&prob).unwrap();
        assert!(split.is_trivial(), "expected sharing kept, got {:?}", split.partitions);
    }

    #[test]
    fn tight_query_splits_off_under_churny_input() {
        // The paper's Fig. 14 / Q15 mechanism: the shared subplan maintains
        // a MAX over an input stream that already churns (it is fed by an
        // upstream aggregate). Eager execution pays retract-processing and
        // extremum rescans over the UNION of the queries' data; a tightly
        // constrained selective query forces that eagerness on everyone.
        // Splitting lets the tight query run eagerly over its small slice
        // while the others stay lazy.
        use ishare_common::{SubplanId, TableId};
        use ishare_expr::Expr;
        use ishare_plan::{AggExpr, AggFunc, InputSource, OpTree, SelectBranch, Subplan, TreeOp};
        let q = |ids: &[u16]| QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)));
        let tree = OpTree::node(
            TreeOp::Aggregate {
                group_by: vec![],
                aggs: vec![AggExpr::new(AggFunc::Max, Expr::col(1), "m")],
            },
            vec![OpTree::node(
                TreeOp::Select {
                    branches: vec![
                        SelectBranch { queries: q(&[0]), predicate: Expr::true_lit() },
                        SelectBranch {
                            queries: q(&[1]),
                            // Very selective: ~2% of the domain.
                            predicate: Expr::col(0).lt(Expr::lit(1i64)),
                        },
                    ],
                },
                vec![OpTree::input(InputSource::Base(TableId(0)))],
            )],
        );
        let sp = Subplan {
            id: SubplanId(0),
            root: tree,
            queries: q(&[0, 1]),
            output_queries: QuerySet::EMPTY,
        };
        let mut inputs = inputs_for(&sp, 20_000.0);
        for est in &mut inputs {
            est.delete_frac = 0.35; // fed by an upstream aggregate
        }
        let batch = simulate_subplan(&sp, 1, &inputs, &CostWeights::default()).unwrap();
        let mut cons: BTreeMap<QueryId, f64> = BTreeMap::new();
        cons.insert(QueryId(1), batch.private_final * 0.02); // tight, selective
        cons.insert(QueryId(0), batch.private_final * 2.0); // loose, broad
        let prob = LocalProblem {
            subplan: &sp,
            inputs: &inputs,
            local_constraints: &cons,
            weights: CostWeights::default(),
            max_pace: 100,
        };
        let split = cluster_split(&prob).unwrap();
        assert!(!split.is_trivial(), "expected un-sharing, got {:?}", split.partitions);
        let q1_pace = split.partitions.iter().find(|(s, _)| s.contains(QueryId(1))).unwrap().1;
        let q0_pace = split.partitions.iter().find(|(s, _)| s.contains(QueryId(0))).unwrap().1;
        assert!(q1_pace > q0_pace, "tight query eager ({q1_pace}), loose lazy ({q0_pace})");
        // And the split beats the fully shared evaluation locally.
        let mut memo = PartitionMemo::new();
        let full = prob.eval_partition(sp.queries, 1, &mut memo).unwrap();
        assert!(split.local_total < full.wpt);
    }

    #[test]
    fn split_partitions_are_a_partition() {
        let sp = shared_agg_subplan();
        let inputs = inputs_for(&sp, 5_000.0);
        let batch = simulate_subplan(&sp, 1, &inputs, &CostWeights::default()).unwrap();
        let mut cons: BTreeMap<QueryId, f64> = BTreeMap::new();
        cons.insert(QueryId(0), batch.private_final * 0.1);
        cons.insert(QueryId(1), batch.private_final * 0.5);
        cons.insert(QueryId(2), batch.private_final * 1.5);
        let prob = LocalProblem {
            subplan: &sp,
            inputs: &inputs,
            local_constraints: &cons,
            weights: CostWeights::default(),
            max_pace: 100,
        };
        let split = cluster_split(&prob).unwrap();
        let mut seen = QuerySet::EMPTY;
        for (s, pace) in &split.partitions {
            assert!(!s.intersects(seen), "partitions must be disjoint");
            assert!(*pace >= 1);
            seen = seen.union(*s);
        }
        assert_eq!(seen, sp.queries, "partitions must cover all queries");
    }
}

//! Brute-force split enumeration (the `iShare (Brute-Force)` variant of
//! Sec. 5.4/5.5).
//!
//! Enumerates *every* set partition of the queries sharing a subplan
//! (Bell-number many), evaluating each partition at its selected pace, and
//! returns the split with the smallest local total work. The enumeration
//! runs only up to [`MAX_BRUTE_QUERIES`] queries, so its exponential
//! blow-up is bounded by the query count and its answer by nothing else —
//! Fig. 16 plots exactly this growth against the clustering algorithm.

use super::clustering::Split;
use super::local::{LocalProblem, PartitionMemo};
use ishare_common::{QueryId, QuerySet, Result};

/// Most queries a subplan may be shared by for brute force to enumerate
/// its splits: Bell(12) = 4 213 597, Fig. 16's largest point.
pub const MAX_BRUTE_QUERIES: usize = 12;

/// The optimal split of the subplan's query set, or `None` without
/// evaluating anything when more than [`MAX_BRUTE_QUERIES`] queries share
/// it.
pub fn brute_force_split(problem: &LocalProblem<'_>) -> Result<Option<Split>> {
    let queries: Vec<QueryId> = problem.subplan.queries.iter().collect();
    let n = queries.len();
    if n > MAX_BRUTE_QUERIES {
        return Ok(None);
    }
    let mut memo = PartitionMemo::new();
    let mut best: Option<Split> = None;

    // Enumerate set partitions via restricted growth strings.
    let mut rgs = vec![0usize; n];
    loop {
        // Materialize the partition described by `rgs`.
        let blocks = rgs.iter().copied().max().unwrap_or(0) + 1;
        let mut parts: Vec<QuerySet> = vec![QuerySet::EMPTY; blocks];
        for (i, &b) in rgs.iter().enumerate() {
            parts[b].insert(queries[i]);
        }
        let mut total = 0.0;
        let mut with_paces = Vec::with_capacity(parts.len());
        for p in &parts {
            let eval = problem.eval_partition(*p, 1, &mut memo)?;
            total += eval.wpt;
            with_paces.push((*p, eval.pace));
        }
        // NaN-safe: a NaN total never wins, a finite one displaces a NaN.
        debug_assert!(!total.is_nan(), "NaN local total in brute-force split");
        let better = !total.is_nan()
            && best.as_ref().is_none_or(|b| b.local_total.is_nan() || total < b.local_total);
        if better {
            with_paces.sort_by_key(|(s, _)| s.min_query().map(|q| q.0).unwrap_or(u16::MAX));
            best = Some(Split { partitions: with_paces, local_total: total });
        }
        // Next restricted growth string.
        if !next_rgs(&mut rgs) {
            break;
        }
    }
    Ok(Some(best.expect("at least the trivial partition")))
}

/// Advance a restricted growth string; returns `false` after the last one.
/// RGS invariant: `rgs[0] = 0` and `rgs[i] ≤ max(rgs[0..i]) + 1`.
fn next_rgs(rgs: &mut [usize]) -> bool {
    let n = rgs.len();
    for i in (1..n).rev() {
        let max_prefix = rgs[..i].iter().copied().max().unwrap_or(0);
        if rgs[i] <= max_prefix {
            rgs[i] += 1;
            for v in rgs[i + 1..].iter_mut() {
                *v = 0;
            }
            return true;
        }
    }
    false
}

/// Number of set partitions of an `n`-set (Bell number) — used by the
/// optimization-overhead experiments to report search-space sizes.
pub fn bell_number(n: usize) -> u128 {
    // Bell triangle.
    let mut row = vec![1u128];
    for _ in 1..=n {
        let mut next = Vec::with_capacity(row.len() + 1);
        next.push(*row.last().expect("nonempty"));
        for &v in &row {
            let last = *next.last().expect("nonempty");
            next.push(last + v);
        }
        row = next;
    }
    row[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::clustering::cluster_split;
    use crate::decompose::local::tests::{inputs_for, shared_agg_subplan};
    use ishare_common::CostWeights;
    use ishare_cost::simulate::simulate_subplan;
    use std::collections::BTreeMap;

    #[test]
    fn rgs_enumerates_all_partitions() {
        // 4 elements → Bell(4) = 15 partitions.
        let mut rgs = vec![0; 4];
        let mut count = 1;
        while next_rgs(&mut rgs) {
            count += 1;
        }
        assert_eq!(count, 15);
        assert_eq!(bell_number(4), 15);
        assert_eq!(bell_number(0), 1);
        assert_eq!(bell_number(1), 1);
        assert_eq!(bell_number(10), 115_975);
    }

    #[test]
    fn brute_force_at_least_as_good_as_clustering() {
        let sp = shared_agg_subplan();
        let inputs = inputs_for(&sp, 5_000.0);
        let batch = simulate_subplan(&sp, 1, &inputs, &CostWeights::default()).unwrap();
        let mut cons: BTreeMap<ishare_common::QueryId, f64> = BTreeMap::new();
        cons.insert(ishare_common::QueryId(0), batch.private_final * 0.05);
        cons.insert(ishare_common::QueryId(1), batch.private_final * 2.0);
        cons.insert(ishare_common::QueryId(2), batch.private_final * 2.0);
        let prob = LocalProblem {
            subplan: &sp,
            inputs: &inputs,
            local_constraints: &cons,
            weights: CostWeights::default(),
            max_pace: 100,
        };
        let clustered = cluster_split(&prob).unwrap();
        let best = brute_force_split(&prob).unwrap().expect("3 queries are within the bound");
        assert!(best.local_total <= clustered.local_total + 1e-9);
    }

    #[test]
    fn over_the_bound_falls_through_without_evaluating() {
        let mut sp = shared_agg_subplan();
        let inputs = inputs_for(&sp, 5_000.0);
        sp.queries = ishare_common::QuerySet::first_n(MAX_BRUTE_QUERIES + 1);
        // No constraints: evaluating any partition would fail on the
        // missing local constraint, so `None` shows nothing was evaluated.
        let cons = BTreeMap::new();
        let prob = LocalProblem {
            subplan: &sp,
            inputs: &inputs,
            local_constraints: &cons,
            weights: CostWeights::default(),
            max_pace: 100,
        };
        assert!(brute_force_split(&prob).unwrap().is_none());
    }
}

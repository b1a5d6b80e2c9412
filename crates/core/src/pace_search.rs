//! Greedy pace-configuration search (Sec. 3.2) and its two variants.
//!
//! * [`find_pace_configuration`] — the iShare greedy: start from batch
//!   execution P_𝟙 and repeatedly raise the pace of the subplan with the
//!   highest incrementability until every query meets its constraint or all
//!   paces hit the max. Candidates violating the parent-pace ≤ child-pace
//!   requirement are filtered out.
//! * [`find_grouped_paces`] — the same greedy with *groups* of subplans
//!   sharing one pace knob: NoShare-Uniform (one group per query) and
//!   Share-Uniform (one group per connected shared plan) are exactly this,
//!   and OneShot is it started and capped at pace 2.
//! * [`relax_pace_configuration`] — the decomposition follow-up (Sec. 4.2):
//!   start from an eager initial configuration and repeatedly *decrease* the
//!   pace of the subplan with the lowest incrementability — the one that
//!   lowers total work most per unit of final work given back — without
//!   regressing any query's missed work.

use crate::constraint::ConstraintMap;
use crate::incrementability::incrementability;
use crate::pace::PaceConfiguration;
use ishare_common::{Error, QuerySet, Result, SubplanId};
use ishare_cost::{CostReport, PlanEstimator};
use ishare_plan::SharedPlan;
use std::cmp::Ordering;

/// Result of a pace search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The chosen configuration.
    pub paces: PaceConfiguration,
    /// Its cost report.
    pub report: CostReport,
    /// `true` iff every query meets its constraint under the cost model.
    pub feasible: bool,
    /// Greedy steps taken.
    pub steps: usize,
}

/// The plan's `(parent, child)` subplan edges, taken once per search: a
/// candidate is checked per group per step, and
/// [`PaceConfiguration::respects_plan`] walks every operator tree to find
/// them (1.7 µs per call on a 23-subplan plan, beside a 3 µs memoized
/// estimate).
fn plan_edges(plan: &SharedPlan) -> Vec<(SubplanId, SubplanId)> {
    plan.subplans.iter().flat_map(|sp| sp.children().into_iter().map(move |c| (sp.id, c))).collect()
}

/// [`PaceConfiguration::respects_plan`] over [`plan_edges`], for a
/// configuration of the plan's length: no parent paces above a child.
fn respects(edges: &[(SubplanId, SubplanId)], paces: &PaceConfiguration) -> bool {
    edges.iter().all(|&(parent, child)| paces.pace(parent) <= paces.pace(child))
}

fn is_feasible(report: &CostReport, constraints: &ConstraintMap) -> bool {
    constraints.iter().all(|(q, l)| report.final_of(*q).get() <= *l + 1e-9)
}

/// Reject NaN constraints up front: every comparison downstream treats
/// "final work ≤ L + ε" as false for NaN, which would silently turn a
/// poisoned constraint into "unsatisfiable" (upward search) or "always
/// admissible" (relaxation's `(x − NaN).max(0.0) == 0`).
fn check_constraints(constraints: &ConstraintMap) -> Result<()> {
    for (q, l) in constraints {
        if l.is_nan() {
            return Err(Error::InvalidConfig(format!("NaN final-work constraint for {q}")));
        }
    }
    Ok(())
}

/// Candidate ordering for the upward search: highest incrementability wins,
/// ties broken by least extra total work. NaN-safe — a candidate with a NaN
/// cost never wins (total_cmp alone would rank NaN above +∞), and any
/// non-NaN candidate displaces a NaN incumbent.
pub(crate) fn upward_better(cand: (f64, f64), best: Option<(f64, f64)>) -> bool {
    let (inc, extra) = cand;
    if inc.is_nan() || extra.is_nan() {
        return false;
    }
    match best {
        None => true,
        Some((bi, be)) => {
            if bi.is_nan() || be.is_nan() {
                return true;
            }
            match inc.total_cmp(&bi) {
                Ordering::Greater => true,
                Ordering::Equal => extra.total_cmp(&be).is_lt(),
                Ordering::Less => false,
            }
        }
    }
}

/// Candidate ordering for the lazy-ward relaxation: lowest incrementability
/// wins, ties broken by most total work saved. Same NaN policy as
/// [`upward_better`].
pub(crate) fn relax_better(cand: (f64, f64), best: Option<(f64, f64)>) -> bool {
    let (inc, saved) = cand;
    if inc.is_nan() || saved.is_nan() {
        return false;
    }
    match best {
        None => true,
        Some((bi, bs)) => {
            if bi.is_nan() || bs.is_nan() {
                return true;
            }
            match inc.total_cmp(&bi) {
                Ordering::Less => true,
                Ordering::Equal => saved.total_cmp(&bs).is_gt(),
                Ordering::Greater => false,
            }
        }
    }
}

/// The iShare greedy (one pace knob per subplan), from batch execution.
pub fn find_pace_configuration(
    est: &mut PlanEstimator,
    constraints: &ConstraintMap,
    max_pace: u32,
) -> Result<SearchOutcome> {
    let n = est.plan().len();
    let groups: Vec<Vec<SubplanId>> = (0..n).map(|i| vec![SubplanId(i as u32)]).collect();
    find_grouped_paces(est, &groups, constraints, 1, max_pace)
}

/// The grouped greedy: all subplans in a group move together, starting
/// with every subplan at pace `start`. With `start == max_pace` no group
/// can move, and the outcome is the estimate at that uniform pace.
pub fn find_grouped_paces(
    est: &mut PlanEstimator,
    groups: &[Vec<SubplanId>],
    constraints: &ConstraintMap,
    start: u32,
    max_pace: u32,
) -> Result<SearchOutcome> {
    check_constraints(constraints)?;
    let paces = PaceConfiguration::new(vec![start; est.plan().len()])?;
    search_upward(est, groups, constraints, max_pace, paces)
}

/// The paper's greedy loop: raise the pace of the group with the highest
/// incrementability until every constraint is met or all paces are maxed.
///
/// Zero-benefit steps are taken too — they cross plateaus where a parent's
/// pace is blocked by its child's (raising the child alone buys nothing,
/// but unblocks the parent next step). To avoid pointlessly pumping
/// subplans of already-satisfied queries, zero-benefit candidates are
/// restricted to groups serving at least one unmet query.
fn search_upward(
    est: &mut PlanEstimator,
    groups: &[Vec<SubplanId>],
    constraints: &ConstraintMap,
    max_pace: u32,
    mut paces: PaceConfiguration,
) -> Result<SearchOutcome> {
    let edges = plan_edges(est.plan());
    let mut report = est.estimate(paces.as_slice())?;
    let mut steps = 0;

    loop {
        if is_feasible(&report, constraints) || paces.maxed(max_pace) {
            break;
        }
        let unmet: QuerySet = constraints
            .iter()
            .filter(|(q, l)| report.final_of(**q).get() > **l + 1e-9)
            .map(|(q, _)| *q)
            .collect();
        // Evaluate one candidate per group: bump every member by one, in
        // place, and take the bump back once the candidate is costed.
        let mut best: Option<(f64, f64, &[SubplanId], CostReport)> = None;
        for g in groups {
            if g.iter().any(|id| paces.pace(*id) >= max_pace) {
                continue;
            }
            let plan = est.plan();
            let serves_unmet =
                g.iter().any(|id| plan.subplans[id.index()].queries.intersects(unmet));
            if !serves_unmet {
                continue;
            }
            bump(&mut paces, g, 1);
            let cand_report = respects(&edges, &paces).then(|| est.estimate(paces.as_slice()));
            bump(&mut paces, g, -1);
            let Some(cand_report) = cand_report.transpose()? else {
                continue;
            };
            debug_assert!(
                cand_report.total_work.get().is_finite(),
                "non-finite estimated total work for a bump of {g:?} on {paces}"
            );
            let inc = incrementability(&cand_report, &report, constraints);
            let extra = cand_report.total_work.get() - report.total_work.get();
            if upward_better((inc, extra), best.as_ref().map(|(bi, be, _, _)| (*bi, *be))) {
                best = Some((inc, extra, g, cand_report));
            }
        }
        match best {
            Some((_, _, g, cand_report)) => {
                bump(&mut paces, g, 1);
                report = cand_report;
                steps += 1;
            }
            // Every group is maxed or blocked: nothing left to try.
            None => break,
        }
    }
    let feasible = is_feasible(&report, constraints);
    Ok(SearchOutcome { paces, report, feasible, steps })
}

/// Move every member of `group` by `by` paces.
fn bump(paces: &mut PaceConfiguration, group: &[SubplanId], by: i32) {
    for &id in group {
        let pace = paces.pace(id).checked_add_signed(by).expect("paces stay within 1..=max_pace");
        paces.set(id, pace);
    }
}

/// The decomposition follow-up: lazy-ward relaxation from an eager initial
/// configuration. A candidate decrease is admissible iff it reduces total
/// work, keeps the parent ≤ child requirement, and does not increase any
/// query's *missed* final work relative to the initial configuration
/// (feasible stays feasible; already-missed stays no-worse).
pub fn relax_pace_configuration(
    est: &mut PlanEstimator,
    constraints: &ConstraintMap,
    init: PaceConfiguration,
    max_pace: u32,
) -> Result<SearchOutcome> {
    check_constraints(constraints)?;
    let edges = plan_edges(est.plan());
    let mut paces = init;
    let mut report = est.estimate(paces.as_slice())?;
    let mut steps = 0;

    // If the initial configuration misses constraints, try to repair by
    // increasing first (the regenerated plan's costs differ slightly from
    // the donor configuration's).
    if !is_feasible(&report, constraints) {
        let groups: Vec<Vec<SubplanId>> =
            (0..paces.len()).map(|i| vec![SubplanId(i as u32)]).collect();
        let repaired = search_upward(est, &groups, constraints, max_pace, paces)?;
        paces = repaired.paces;
        report = repaired.report;
        steps += repaired.steps;
    }

    let missed_budget: Vec<(ishare_common::QueryId, f64)> =
        constraints.iter().map(|(q, l)| (*q, (report.final_of(*q).get() - l).max(0.0))).collect();

    loop {
        let mut best: Option<(f64, f64, SubplanId, CostReport)> = None;
        for i in 0..paces.len() {
            let id = SubplanId(i as u32);
            let p = paces.pace(id);
            if p <= 1 {
                continue;
            }
            // One pace down, in place; taken back once costed.
            paces.set(id, p - 1);
            let cand_report = respects(&edges, &paces).then(|| est.estimate(paces.as_slice()));
            paces.set(id, p);
            let Some(cand_report) = cand_report.transpose()? else {
                continue;
            };
            let saved = report.total_work.get() - cand_report.total_work.get();
            // Zero-saving decreases are admissible too: a stateless parent's
            // total work is pace-independent, but lowering its pace unblocks
            // decreases of its children (parent pace ≤ child pace).
            if saved < -1e-9 {
                continue;
            }
            let admissible = missed_budget.iter().all(|(q, budget)| {
                let l = constraints.get(q).copied().unwrap_or(f64::INFINITY);
                let missed = (cand_report.final_of(*q).get() - l).max(0.0);
                missed <= budget + 1e-9
            });
            if !admissible {
                continue;
            }
            // Lowest incrementability of the eager side = best candidate to
            // relax: it pays the most total work for the least benefit.
            let inc = incrementability(&report, &cand_report, constraints);
            if relax_better((inc, saved), best.as_ref().map(|(bi, bs, _, _)| (*bi, *bs))) {
                best = Some((inc, saved, id, cand_report));
            }
        }
        match best {
            Some((_, _, id, cand_report)) => {
                paces.set(id, paces.pace(id) - 1);
                report = cand_report;
                steps += 1;
            }
            None => break,
        }
    }
    let feasible = is_feasible(&report, constraints);
    Ok(SearchOutcome { paces, report, feasible, steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{CostWeights, DataType, QueryId, QuerySet};
    use ishare_expr::Expr;
    use ishare_plan::{AggExpr, AggFunc, DagOp, SelectBranch, SharedDag, SharedPlan};
    use ishare_storage::{Catalog, ColumnStats, Field, Schema, TableStats};

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
            TableStats {
                row_count: 20_000.0,
                columns: vec![ColumnStats::ndv(100.0), ColumnStats::ndv(5000.0)],
            },
        )
        .unwrap();
        c
    }

    /// Shared agg feeding two per-query projects (Fig. 2 shape, no join).
    fn shared_plan(c: &Catalog) -> SharedPlan {
        let t = c.table_by_name("t").unwrap().id;
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Scan { table: t }, vec![], qs(&[0, 1])).unwrap();
        let sel = d
            .add_node(
                DagOp::Select {
                    branches: vec![SelectBranch {
                        queries: qs(&[0, 1]),
                        predicate: Expr::true_lit(),
                    }],
                },
                vec![scan],
                qs(&[0, 1]),
            )
            .unwrap();
        let agg = d
            .add_node(
                DagOp::Aggregate {
                    group_by: vec![(Expr::col(0), "k".into())],
                    aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
                },
                vec![sel],
                qs(&[0, 1]),
            )
            .unwrap();
        let p0 = d
            .add_node(
                DagOp::Project { exprs: vec![(Expr::col(1), "a".into())] },
                vec![agg],
                qs(&[0]),
            )
            .unwrap();
        let p1 = d
            .add_node(
                DagOp::Project { exprs: vec![(Expr::col(0), "b".into())] },
                vec![agg],
                qs(&[1]),
            )
            .unwrap();
        d.set_query_root(QueryId(0), p0).unwrap();
        d.set_query_root(QueryId(1), p1).unwrap();
        SharedPlan::from_dag(&d).unwrap()
    }

    fn constraints_rel(est: &mut PlanEstimator, fracs: &[(u16, f64)]) -> ConstraintMap {
        // Resolve relative constraints against this plan's own batch run.
        let batch = est.estimate(&vec![1; est.plan().len()]).unwrap();
        fracs.iter().map(|&(q, f)| (QueryId(q), batch.final_of(QueryId(q)).get() * f)).collect()
    }

    #[test]
    fn loose_constraints_stay_batch() {
        let c = catalog();
        let plan = shared_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let cons = constraints_rel(&mut est, &[(0, 1.0), (1, 1.0)]);
        let out = find_pace_configuration(&mut est, &cons, 50).unwrap();
        assert!(out.feasible);
        assert_eq!(out.paces, PaceConfiguration::batch(plan.len()));
        assert_eq!(out.steps, 0);
    }

    #[test]
    fn tight_constraints_raise_paces_and_meet() {
        let c = catalog();
        let plan = shared_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let cons = constraints_rel(&mut est, &[(0, 0.2), (1, 0.2)]);
        let out = find_pace_configuration(&mut est, &cons, 100).unwrap();
        assert!(out.feasible, "0.2 relative must be reachable");
        assert!(out.steps > 0);
        assert!(out.paces.as_slice().iter().any(|&p| p > 1));
        out.paces.respects_plan(&plan).unwrap();
        // The batch configuration costs less total work.
        let batch = est.estimate(&vec![1; plan.len()]).unwrap();
        assert!(out.report.total_work.get() >= batch.total_work.get());
    }

    #[test]
    fn asymmetric_constraints_give_nonuniform_paces() {
        let c = catalog();
        let plan = shared_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        // q0 tight, q1 loose: q1's private project subplan must stay lazy.
        let cons = constraints_rel(&mut est, &[(0, 0.15), (1, 1.0)]);
        let out = find_pace_configuration(&mut est, &cons, 100).unwrap();
        assert!(out.feasible);
        let q1_root = plan.query_root(QueryId(1)).unwrap();
        assert_eq!(out.paces.pace(q1_root), 1, "nothing should eagerly run q1's private subplan");
    }

    #[test]
    fn parent_child_requirement_respected() {
        let c = catalog();
        let plan = shared_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let cons = constraints_rel(&mut est, &[(0, 0.05), (1, 0.05)]);
        let out = find_pace_configuration(&mut est, &cons, 100).unwrap();
        out.paces.respects_plan(&plan).unwrap();
    }

    #[test]
    fn grouped_search_moves_groups_together() {
        let c = catalog();
        let plan = shared_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let cons = constraints_rel(&mut est, &[(0, 0.2), (1, 0.2)]);
        // Single group: everything at one pace (Share-Uniform style).
        let all: Vec<SubplanId> = (0..plan.len()).map(|i| SubplanId(i as u32)).collect();
        let out = find_grouped_paces(&mut est, &[all], &cons, 1, 100).unwrap();
        let first = out.paces.as_slice()[0];
        assert!(out.paces.as_slice().iter().all(|&p| p == first));
        assert!(out.feasible);
        assert!(first > 1);
    }

    #[test]
    fn relax_recovers_batch_when_constraints_loose() {
        let c = catalog();
        let plan = shared_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let cons = constraints_rel(&mut est, &[(0, 1.0), (1, 1.0)]);
        let eager = PaceConfiguration::new(vec![8; plan.len()]).unwrap();
        let out = relax_pace_configuration(&mut est, &cons, eager, 100).unwrap();
        assert!(out.feasible);
        assert_eq!(
            out.paces,
            PaceConfiguration::batch(plan.len()),
            "everything relaxes back to batch"
        );
    }

    #[test]
    fn relax_keeps_constraints_met() {
        let c = catalog();
        let plan = shared_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let cons = constraints_rel(&mut est, &[(0, 0.3), (1, 0.3)]);
        let eager = PaceConfiguration::new(vec![30; plan.len()]).unwrap();
        let relaxed = relax_pace_configuration(&mut est, &cons, eager.clone(), 100).unwrap();
        assert!(relaxed.feasible);
        let eager_report = est.estimate(eager.as_slice()).unwrap();
        assert!(
            relaxed.report.total_work.get() < eager_report.total_work.get(),
            "relaxation must save total work"
        );
    }

    #[test]
    fn nan_cost_cannot_win_a_search() {
        // Regression for the NaN-unsafe `inc > *bi` / `inc < *bi`
        // comparisons: NaN candidates must lose to everything in both
        // search directions, and finite candidates must displace a NaN
        // incumbent.
        // Upward (max inc, min extra):
        assert!(!upward_better((f64::NAN, 0.0), None));
        assert!(!upward_better((1.0, f64::NAN), None));
        assert!(!upward_better((f64::NAN, 0.0), Some((0.0, 0.0))));
        assert!(upward_better((0.0, 0.0), Some((f64::NAN, 0.0))));
        assert!(upward_better((f64::INFINITY, 5.0), Some((2.0, 0.0))));
        assert!(upward_better((2.0, 1.0), Some((2.0, 3.0))), "tie broken by less extra");
        assert!(!upward_better((2.0, 3.0), Some((2.0, 1.0))));
        // Relaxation (min inc, max saved):
        assert!(!relax_better((f64::NAN, 0.0), None));
        assert!(!relax_better((f64::NAN, 0.0), Some((f64::INFINITY, 0.0))));
        assert!(relax_better((f64::INFINITY, 0.0), Some((f64::NAN, 0.0))));
        assert!(relax_better((1.0, 0.0), Some((2.0, 9.0))));
        assert!(relax_better((2.0, 9.0), Some((2.0, 1.0))), "tie broken by more saved");
    }

    #[test]
    fn nan_constraints_rejected() {
        let c = catalog();
        let plan = shared_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let cons: ConstraintMap =
            [(QueryId(0), f64::NAN), (QueryId(1), 10.0)].into_iter().collect();
        assert!(find_pace_configuration(&mut est, &cons, 10).is_err());
        let init = PaceConfiguration::batch(plan.len());
        assert!(relax_pace_configuration(&mut est, &cons, init, 10).is_err());
    }

    #[test]
    fn infeasible_constraints_reported() {
        let c = catalog();
        let plan = shared_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        // Absurd absolute constraints: unreachable even at max pace.
        let cons: ConstraintMap = [(QueryId(0), 0.001), (QueryId(1), 0.001)].into_iter().collect();
        let out = find_pace_configuration(&mut est, &cons, 8).unwrap();
        assert!(!out.feasible);
        // Search still terminates with sane paces.
        out.paces.respects_plan(&plan).unwrap();
    }
}

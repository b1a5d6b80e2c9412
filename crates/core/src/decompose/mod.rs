//! Decomposing shared subplans (Sec. 4).
//!
//! Every decomposition is an edit of the optimizer's [`SharedDag`], and
//! every plan the pass judges is re-derived from the edited DAG by the one
//! cut rule, [`SharedPlan::from_dag_with_roots`] — the DAG and the rule that
//! MQO planning and query churn use too ([`DagPlan`]).
//!
//! * [`local`] — the local optimization problem, selected paces, and local
//!   final work constraints (Sec. 4.1.1).
//! * [`clustering`] — the sharing-benefit clustering algorithm
//!   (Sec. 4.1.2, Eq. 4).
//! * [`brute`] — exhaustive split enumeration for subplans shared by at
//!   most [`MAX_BRUTE_QUERIES`] queries (the `iShare (Brute-Force)`
//!   variant).
//! * [`regenerate`](mod@regenerate) — the whole split: clone the target's
//!   and its ancestors' nodes per partition and tombstone the originals, so
//!   the cut rule regenerates the plan; and pace initialization (Sec. 4.2).
//! * [`partial`] — partial decomposition: force cuts below a root-anchored
//!   subtree, then split the top (Sec. 4.3).
//! * [`try_decompose_subplan`] — the per-subplan driver combining all of
//!   the above.
//! * [`decompose_plan`] — the pass over the full plan: every subplan in
//!   parent-to-child order, each profitable split adopted (Sec. 4.4);
//!   [`crate::plan_workload`] runs it for the un-sharing approaches.

pub mod brute;
pub mod clustering;
pub mod local;
pub mod partial;
pub mod regenerate;

pub use brute::{bell_number, brute_force_split, MAX_BRUTE_QUERIES};
pub use clustering::{cluster_split, Split};
pub use local::{local_constraints_for_subplan, LocalProblem, PartitionEval};
pub use regenerate::{initial_paces, regenerate};

use crate::baselines::PlanningOptions;
use crate::constraint::ConstraintMap;
use crate::pace::PaceConfiguration;
use crate::pace_search::{relax_pace_configuration, SearchOutcome};
use ishare_common::{CostWeights, Error, NodeId, QueryId, Result, SubplanId};
use ishare_cost::{CostReport, PlanEstimator};
use ishare_plan::{SharedDag, SharedPlan, TreeOp};
use ishare_storage::Catalog;
use std::collections::{BTreeMap, HashSet};

/// Cap on the number of partial (subtree) candidates tried per subplan.
/// Candidates are generated closest-to-root first, which is where the
/// paper's BFS expansion finds its splits; deeper candidates cost a full
/// clustering run each.
const MAX_PARTIAL_CANDIDATES: usize = 4;

/// A shared DAG, its forced cuts, and the plan the cut rule derives from
/// them. Decomposition edits the DAG (whole splits) and the forced cuts
/// (partial splits); the plan is only ever derived.
#[derive(Debug, Clone)]
pub struct DagPlan {
    /// The shared DAG, tombstoned nodes included.
    pub dag: SharedDag,
    /// Nodes cut even when single-parent.
    pub forced: Vec<NodeId>,
    /// `SharedPlan::from_dag_with_roots(&dag, |_| false, &forced)`.
    pub plan: SharedPlan,
    /// Per subplan, the DAG node its root came from.
    pub roots: Vec<NodeId>,
}

impl DagPlan {
    /// Cut `dag` into subplans at its multi-parent nodes, its query roots
    /// and `forced`.
    pub fn cut(dag: SharedDag, forced: Vec<NodeId>) -> Result<DagPlan> {
        let (plan, roots) = SharedPlan::from_dag_with_roots(&dag, |_| false, &forced)?;
        Ok(DagPlan { dag, forced, plan, roots })
    }

    /// Per DAG node, the subplan holding it as its root or as one of its
    /// operators; `None` for tombstones and for scans read as base inputs.
    pub fn holders(&self) -> Result<Vec<Option<SubplanId>>> {
        let mut out = vec![None; self.dag.nodes.len()];
        for (sp, &root) in self.plan.subplans.iter().zip(&self.roots) {
            out[root.0 as usize] = Some(sp.id);
            sp.root.post_order(|step| {
                if !matches!(step.node.op, TreeOp::Input(_)) {
                    out[self.dag.node_at(root, step.path).0 as usize] = Some(sp.id);
                }
                Ok(())
            })?;
        }
        Ok(out)
    }
}

/// A decomposition the driver judged profitable.
pub struct Adopted {
    /// The edited DAG and the plan derived from it.
    pub edited: DagPlan,
    /// Its relaxed pace configuration and report.
    pub outcome: SearchOutcome,
    /// The estimator of the edited plan that made `outcome.report`.
    pub estimator: PlanEstimator,
}

/// Decompose the full plan (Sec. 4.4): "we sort all subplans topologically
/// from the parent to the child and apply the decomposition algorithm for
/// each subplan in this order". Every profitable split is adopted; it edits
/// the DAG, the plan is re-derived from it and the walk restarts over the
/// new plan. Returns the final plan and its pace configuration. `est` is
/// the estimator of `current.plan` that made `outcome.report`.
#[allow(clippy::too_many_arguments)]
pub fn decompose_plan(
    mut current: DagPlan,
    mut outcome: SearchOutcome,
    mut est: PlanEstimator,
    constraints: &ConstraintMap,
    batch_finals: &BTreeMap<QueryId, f64>,
    catalog: &Catalog,
    weights: CostWeights,
    opts: &PlanningOptions,
    brute_force: bool,
) -> Result<(DagPlan, SearchOutcome)> {
    // Subplans are attempted once each, keyed by their root node: node ids
    // never move, and a split's pieces root at new nodes.
    let mut attempted: HashSet<NodeId> = HashSet::new();
    'outer: loop {
        // Parents-first order = reverse of children-first.
        let mut order = current.plan.topo_order()?;
        order.reverse();
        for target in order {
            if current.plan.subplan(target)?.queries.len() < 2
                || !attempted.insert(current.roots[target.index()])
            {
                continue;
            }
            if let Some(adopted) = try_decompose_subplan(
                &current,
                &outcome.paces,
                &outcome.report,
                &est,
                target,
                constraints,
                batch_finals,
                catalog,
                weights,
                opts,
                brute_force,
            )? {
                current = adopted.edited;
                outcome = adopted.outcome;
                est = adopted.estimator;
                continue 'outer;
            }
        }
        return Ok((current, outcome));
    }
}

/// Try to decompose `target` inside `current.plan`, currently paced by
/// `paces`/`report` (a report of `est`, an estimator of `current.plan`),
/// splitting by clustering or, with `brute_force`, by enumeration (by
/// clustering past [`MAX_BRUTE_QUERIES`] queries). Returns the best
/// profitable alternative, or `None` when keeping the shared subplan is
/// better.
#[allow(clippy::too_many_arguments)]
pub fn try_decompose_subplan(
    current: &DagPlan,
    paces: &PaceConfiguration,
    report: &CostReport,
    est: &PlanEstimator,
    target: SubplanId,
    constraints: &ConstraintMap,
    batch_finals: &BTreeMap<QueryId, f64>,
    catalog: &Catalog,
    weights: CostWeights,
    opts: &PlanningOptions,
    brute_force: bool,
) -> Result<Option<Adopted>> {
    let target_sp = current.plan.subplan(target)?;
    // A pace-1 subplan already executes maximally lazily; un-sharing it can
    // only duplicate scan work. (The decomposition exists to *enable*
    // laziness that sharing prevents — there is none to enable here.)
    if target_sp.queries.len() < 2 || paces.pace(target) <= 1 {
        return Ok(None);
    }

    // Candidates: the whole subplan, then (partial decomposition) the top
    // of each root-anchored subtree cut off below, every piece keeping the
    // target's pace.
    let mut partials = Vec::new();
    for included in partial::subtree_candidates(target_sp)?.into_iter().take(MAX_PARTIAL_CANDIDATES)
    {
        let cut = partial::force_cut_points(current, target, &included)?;
        if cut.plan.validate(catalog).is_ok() {
            let paces2 = initial_paces(current, paces, &cut, &[])?;
            partials.push((cut, paces2));
        }
    }
    let root = current.roots[target.index()];
    let mut best: Option<Adopted> = None;
    for (cand, cand_paces, cand_report) in std::iter::once((current, paces, Some(report)))
        .chain(partials.iter().map(|(c, p)| (c, p, None)))
    {
        // Find a split of the candidate's top, regenerate, re-pace.
        let top = cand.roots.iter().position(|r| *r == root).map(|i| SubplanId(i as u32));
        let top = top.ok_or_else(|| Error::InvalidPlan(format!("no subplan roots at {root}")))?;
        let top_sp = cand.plan.subplan(top)?;
        // The per-leaf input estimates the local problem needs: `report`
        // holds the current plan's; a partial cut's plan is estimated once.
        let inputs = &match cand_report {
            Some(report) => est.leaf_inputs(report, top)?,
            None => {
                let mut est = PlanEstimator::new(&cand.plan, catalog, weights)?;
                let cand_report = est.estimate(cand_paces.as_slice())?;
                est.leaf_inputs(&cand_report, top)?
            }
        };
        let local_cons =
            local_constraints_for_subplan(top_sp, inputs, constraints, batch_finals, weights)?;
        let problem = LocalProblem {
            subplan: top_sp,
            inputs,
            local_constraints: &local_cons,
            weights,
            max_pace: opts.max_pace,
        };
        let brute = if brute_force { brute_force_split(&problem)? } else { None };
        let split = match brute {
            Some(split) => split,
            None => cluster_split(&problem)?,
        };
        if split.is_trivial() {
            continue;
        }
        let partitions: Vec<_> = split.partitions.iter().map(|(s, _)| *s).collect();
        let (edited, clone_of) = regenerate(cand, top, &partitions)?;
        edited.plan.validate(catalog)?;
        let init = initial_paces(cand, cand_paces, &edited, &clone_of)?;
        let mut estimator = PlanEstimator::new(&edited.plan, catalog, weights)?;
        let outcome = relax_pace_configuration(&mut estimator, constraints, init, opts.max_pace)?;
        let bar = best.as_ref().map_or(report, |b| &b.outcome.report).total_work.get();
        if outcome.report.total_work.get() < bar * (1.0 - 1e-6) {
            best = Some(Adopted { edited, outcome, estimator });
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::resolve_constraints;
    use crate::constraint::FinalWorkConstraint;
    use crate::pace_search::find_pace_configuration;
    use ishare_common::{DataType, Value};
    use ishare_expr::Expr;
    use ishare_mqo::{build_shared_dag, normalize, MqoConfig};
    use ishare_plan::PlanBuilder;
    use ishare_storage::{ColumnStats, Field, Schema, TableStats};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
            TableStats {
                row_count: 30_000.0,
                columns: vec![
                    ColumnStats::ndv(40.0),
                    ColumnStats::with_range(2000.0, Value::Int(0), Value::Int(1999)),
                ],
            },
        )
        .unwrap();
        c
    }

    /// A broad lazy query and a selective tight one sharing a max-over-sum
    /// pipeline — the Fig. 2 / Q15 situation where un-sharing pays: the
    /// outer MAX sits on the inner aggregate's churny output, so forcing
    /// the shared subplan eager (for the tight query) costs rescans over
    /// the union of both queries' data.
    fn setup(c: &Catalog, tight_frac: f64) -> (DagPlan, ConstraintMap, BTreeMap<QueryId, f64>) {
        let broad = normalize(
            &PlanBuilder::scan(c, "t")
                .unwrap()
                .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))
                .unwrap()
                .aggregate(&[], |x| Ok(vec![x.max("s", "m")?]))
                .unwrap()
                .build(),
        );
        let narrow = normalize(
            &PlanBuilder::scan(c, "t")
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
        let dag = build_shared_dag(&queries, c, &MqoConfig::default()).unwrap();
        let plan = DagPlan::cut(dag, Vec::new()).unwrap();
        let cons_in: BTreeMap<QueryId, FinalWorkConstraint> = [
            (QueryId(0), FinalWorkConstraint::Relative(1.0)),
            (QueryId(1), FinalWorkConstraint::Relative(tight_frac)),
        ]
        .into_iter()
        .collect();
        let weights = CostWeights::default();
        let resolved = resolve_constraints(&queries, &cons_in, c, weights).unwrap();
        let batch = crate::constraint::batch_final_works(&queries, c, weights).unwrap();
        (plan, resolved, batch)
    }

    fn shared_subplan(plan: &DagPlan) -> SubplanId {
        plan.plan
            .subplans
            .iter()
            .find(|sp| sp.queries.len() > 1)
            .map(|sp| sp.id)
            .expect("a shared subplan exists")
    }

    #[test]
    fn loose_constraints_keep_the_shared_plan() {
        let c = catalog();
        let (plan, cons, batch) = setup(&c, 1.0);
        let mut est = PlanEstimator::new(&plan.plan, &c, CostWeights::default()).unwrap();
        let outcome = find_pace_configuration(&mut est, &cons, 50).unwrap();
        let target = shared_subplan(&plan);
        let adopted = try_decompose_subplan(
            &plan,
            &outcome.paces,
            &outcome.report,
            &est,
            target,
            &cons,
            &batch,
            &c,
            CostWeights::default(),
            &PlanningOptions { max_pace: 50, ..Default::default() },
            false,
        )
        .unwrap();
        assert!(adopted.is_none(), "batch execution leaves nothing to unshare");
    }

    #[test]
    fn tight_asymmetric_constraints_trigger_unsharing() {
        let c = catalog();
        let (plan, cons, batch) = setup(&c, 0.05);
        let mut est = PlanEstimator::new(&plan.plan, &c, CostWeights::default()).unwrap();
        let outcome = find_pace_configuration(&mut est, &cons, 100).unwrap();
        let target = shared_subplan(&plan);
        let adopted = try_decompose_subplan(
            &plan,
            &outcome.paces,
            &outcome.report,
            &est,
            target,
            &cons,
            &batch,
            &c,
            CostWeights::default(),
            &PlanningOptions { max_pace: 100, ..Default::default() },
            false,
        )
        .unwrap();
        let adopted = adopted.expect("expected a profitable decomposition");
        assert!(
            adopted.outcome.report.total_work.get() < outcome.report.total_work.get(),
            "adopted {} vs original {}",
            adopted.outcome.report.total_work.get(),
            outcome.report.total_work.get()
        );
        let edited = &adopted.edited;
        edited.dag.validate(&c).unwrap();
        edited.plan.validate(&c).unwrap();
        adopted.outcome.paces.respects_plan(&edited.plan).unwrap();
        // Both queries still have output subplans.
        assert!(edited.plan.query_root(QueryId(0)).is_some());
        assert!(edited.plan.query_root(QueryId(1)).is_some());
        // The decomposed plan keeps constraint satisfaction no worse.
        for (q, l) in &cons {
            let before = (outcome.report.final_of(*q).get() - l).max(0.0);
            let after = (adopted.outcome.report.final_of(*q).get() - l).max(0.0);
            assert!(after <= before + 1e-6, "query {q} missed work regressed");
        }
    }

    #[test]
    fn single_query_subplans_never_decompose() {
        let c = catalog();
        let (plan, cons, batch) = setup(&c, 0.1);
        let mut est = PlanEstimator::new(&plan.plan, &c, CostWeights::default()).unwrap();
        let outcome = find_pace_configuration(&mut est, &cons, 20).unwrap();
        let private = plan.plan.subplans.iter().find(|sp| sp.queries.len() == 1).map(|sp| sp.id);
        if let Some(target) = private {
            let adopted = try_decompose_subplan(
                &plan,
                &outcome.paces,
                &outcome.report,
                &est,
                target,
                &cons,
                &batch,
                &c,
                CostWeights::default(),
                &PlanningOptions::default(),
                false,
            )
            .unwrap();
            assert!(adopted.is_none());
        }
    }
}

//! The end-to-end iShare optimizer (Sec. 2.2 overview + Sec. 4.4).
//!
//! 1. Normalize the queries and merge them with the MQO optimizer into a
//!    shared plan (iShare "takes a shared plan generated by an existing MQO
//!    optimizer as input").
//! 2. Resolve final work constraints (relative → absolute against each
//!    query's separate batch execution).
//! 3. Find the nonuniform pace configuration (Sec. 3).
//! 4. If enabled, walk the subplans parents-first and adopt every
//!    profitable decomposition (Sec. 4.4: "we sort all subplans
//!    topologically from the parent to the child and apply the
//!    decomposition algorithm for each subplan in this order").

use crate::baselines::PlannedExecution;
use crate::constraint::{batch_final_works, resolve_against, FinalWorkConstraint};
use crate::decompose::{try_decompose_subplan, DagPlan, DecomposeOptions};
use crate::pace_search::find_pace_configuration;
use ishare_common::{CostWeights, NodeId, QueryId, Result};
use ishare_cost::PlanEstimator;
use ishare_mqo::{build_shared_dag, normalize, MqoConfig};
use ishare_plan::LogicalPlan;
use ishare_storage::Catalog;
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

/// Optimizer configuration.
#[derive(Debug, Clone)]
pub struct IShareOptions {
    /// Pace cap J.
    pub max_pace: u32,
    /// Run the decomposition pass (iShare w/ unshare).
    pub unshare: bool,
    /// Also consider partial (subtree) decompositions.
    pub partial: bool,
    /// Use brute-force split enumeration instead of clustering.
    pub brute_force: bool,
    /// DNF deadline for brute-force enumeration.
    pub brute_deadline: Duration,
    /// MQO configuration for the input shared plan.
    pub mqo: MqoConfig,
    /// Memoized cost estimation (disable to reproduce the Fig. 15
    /// `w/o memo` variant).
    pub use_memo: bool,
}

impl Default for IShareOptions {
    fn default() -> Self {
        IShareOptions {
            max_pace: 100,
            unshare: true,
            partial: true,
            brute_force: false,
            brute_deadline: Duration::from_secs(60),
            mqo: MqoConfig::default(),
            use_memo: true,
        }
    }
}

/// The end-to-end optimizer.
#[derive(Debug, Clone)]
pub struct IShareOptimizer {
    /// Configuration.
    pub options: IShareOptions,
    /// Cost weights shared with the engine.
    pub weights: CostWeights,
}

impl IShareOptimizer {
    /// Optimizer with default options.
    pub fn new(options: IShareOptions) -> Self {
        IShareOptimizer { options, weights: CostWeights::default() }
    }

    /// Optimize a workload of `(query, constraint)` pairs.
    pub fn optimize(
        &self,
        queries: &[(QueryId, LogicalPlan)],
        constraints: &BTreeMap<QueryId, FinalWorkConstraint>,
        catalog: &Catalog,
    ) -> Result<PlannedExecution> {
        let start = Instant::now();

        // 1. MQO.
        let normalized: Vec<(QueryId, LogicalPlan)> =
            queries.iter().map(|(q, p)| (*q, normalize(p))).collect();
        let dag = build_shared_dag(&normalized, catalog, &self.options.mqo)?;
        let mut current = DagPlan::cut(dag, Vec::new())?;
        current.plan.validate(catalog)?;

        // 2. Constraints.
        let batch_finals = batch_final_works(&normalized, catalog, self.weights)?;
        let resolved = resolve_against(&normalized, constraints, &batch_finals);

        // 3. Nonuniform paces.
        let mut est = PlanEstimator::new(&current.plan, catalog, self.weights)?;
        est.set_memo_enabled(self.options.use_memo);
        let mut outcome = find_pace_configuration(&mut est, &resolved, self.options.max_pace)?;
        // Counters reflect the initial pace search; the decomposition pass
        // builds its own estimators per candidate plan.
        let counters = est.counters;

        // 4. Decomposition over the full plan, parents first. Each adopted
        // split edits the DAG; the plan is re-derived from it.
        if self.options.unshare {
            let dopts = DecomposeOptions {
                max_pace: self.options.max_pace,
                partial: self.options.partial,
                brute_force: self.options.brute_force,
                brute_deadline: self.options.brute_deadline,
            };
            // Subplans are attempted once each, keyed by their root node:
            // node ids never move, and a split's pieces root at new nodes.
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
                        target,
                        &resolved,
                        &batch_finals,
                        catalog,
                        self.weights,
                        &dopts,
                    )? {
                        current = adopted.edited;
                        outcome = adopted.outcome;
                        // Plan changed: restart the walk over the new plan.
                        continue 'outer;
                    }
                }
                break;
            }
        }
        Ok(PlannedExecution {
            plan: current.plan,
            paces: outcome.paces,
            report: outcome.report,
            feasible: outcome.feasible,
            constraints: resolved,
            batch_finals,
            opt_time: start.elapsed(),
            estimator_counters: counters,
        })
    }
}

//! Golden digest of the cost estimator and the pace searches built on it.
//!
//! The greedy searches break ties by comparing `f64`s exactly, so the cost
//! simulator's contract is bit-identity, not a tolerance: a last-bit change
//! in one estimate can move a pace and with it the measured total work. The
//! constants below were recorded with the path-keyed simulator this
//! repository started with; any rewrite of `ishare-cost` has to reproduce
//! them to the bit.

use ishare::core::{
    find_pace_configuration, relax_pace_configuration, resolve_constraints, FinalWorkConstraint,
    PaceConfiguration,
};
use ishare::cost::{CostReport, PlanEstimator, StreamEstimate};
use ishare::mqo::{build_shared_dag, normalize, MqoConfig};
use ishare::plan::{LogicalPlan, SharedPlan};
use ishare::tpch::queries::sharing_friendly_queries;
use ishare::tpch::{all_queries, generate};
use ishare_common::{CostWeights, QueryId};
use ishare_storage::Catalog;
use std::collections::BTreeMap;

const PACE_VECTORS: usize = 200;
const MAX_PACE: u32 = 100;
/// The mixed constraints of the benchmark's `optimizer_bound`, dealt by
/// query position.
const DEAL: [f64; 4] = [1.0, 0.5, 0.2, 0.1];

/// One subplan's full-trigger output estimate in a report.
fn output_of(report: &CostReport, i: usize) -> &StreamEstimate {
    &report.subplan_output[i].output
}

/// Order-dependent FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Every field of every subplan's simulation result.
    fn report(&mut self, report: &CostReport) {
        for i in 0..report.subplan_total.len() {
            self.float(report.subplan_total[i]);
            self.float(report.subplan_final[i]);
            let out = output_of(report, i);
            self.float(out.rows.total);
            for (&q, &n) in &out.rows.per_query {
                self.word(u64::from(q));
                self.float(n);
            }
            self.float(out.delete_frac);
            for c in &out.cols {
                self.float(c.ndv);
            }
        }
    }
}

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Seeded pace vectors in which no parent paces above a child.
fn pace_vectors(plan: &SharedPlan, seed: u64) -> Vec<Vec<u32>> {
    let mut draw = SplitMix(seed);
    let topo = plan.topo_order().unwrap();
    (0..PACE_VECTORS)
        .map(|_| {
            let mut paces = vec![1u32; plan.len()];
            for id in &topo {
                let cap = plan.subplans[id.index()]
                    .children()
                    .iter()
                    .map(|c| paces[c.index()])
                    .min()
                    .unwrap_or(MAX_PACE);
                paces[id.index()] = 1 + (draw.next() % u64::from(cap)) as u32;
            }
            paces
        })
        .collect()
}

struct Case {
    catalog: Catalog,
    queries: Vec<(QueryId, LogicalPlan)>,
    plan: SharedPlan,
}

fn case(sharing_friendly: bool) -> Case {
    let data = generate(0.002, 42).unwrap();
    let defs = if sharing_friendly {
        sharing_friendly_queries(&data.catalog).unwrap()
    } else {
        all_queries(&data.catalog).unwrap()
    };
    let queries: Vec<(QueryId, LogicalPlan)> = defs
        .into_iter()
        .enumerate()
        .map(|(i, q)| (QueryId(i as u16), normalize(&q.plan)))
        .collect();
    let dag = build_shared_dag(&queries, &data.catalog, &MqoConfig::default()).unwrap();
    let plan = SharedPlan::from_dag(&dag, |_| false).unwrap();
    plan.validate(&data.catalog).unwrap();
    Case { catalog: data.catalog, queries, plan }
}

/// Digest of the estimates over the seeded vectors. The memoized and the
/// unmemoized estimate must agree entry by entry, so one digest covers both.
fn estimate_digest(case: &Case) -> u64 {
    let mut est = PlanEstimator::new(&case.plan, &case.catalog, CostWeights::default()).unwrap();
    let of = |report: CostReport| {
        let mut d = Digest::new();
        d.report(&report);
        d.0
    };
    let mut digest = Digest::new();
    for v in pace_vectors(&case.plan, 42) {
        let memo = of(est.estimate(&v).unwrap());
        let cold = of(est.estimate_unmemoized(&v).unwrap());
        assert_eq!(memo, cold, "memoized and unmemoized estimates differ at {v:?}");
        digest.word(memo);
    }
    digest.0
}

/// Digest of the three searches: chosen paces and estimated total work.
fn search_digest(case: &Case, max_pace: u32) -> u64 {
    let weights = CostWeights::default();
    let resolve = |frac: &dyn Fn(usize) -> f64| {
        let constraints: BTreeMap<QueryId, FinalWorkConstraint> = case
            .queries
            .iter()
            .enumerate()
            .map(|(i, (q, _))| (*q, FinalWorkConstraint::Relative(frac(i))))
            .collect();
        resolve_constraints(&case.queries, &constraints, &case.catalog, weights).unwrap()
    };
    let uniform = resolve(&|_| 0.2);
    let dealt = resolve(&|i| DEAL[i % DEAL.len()]);

    let mut digest = Digest::new();
    let mut push = |paces: &PaceConfiguration, report: &CostReport, feasible: bool| {
        for &p in paces.as_slice() {
            digest.word(u64::from(p));
        }
        digest.float(report.total_work.get());
        digest.word(u64::from(feasible));
    };
    let mut est = PlanEstimator::new(&case.plan, &case.catalog, weights).unwrap();
    let out = find_pace_configuration(&mut est, &uniform, max_pace).unwrap();
    push(&out.paces, &out.report, out.feasible);
    let out = find_pace_configuration(&mut est, &dealt, max_pace).unwrap();
    push(&out.paces, &out.report, out.feasible);
    // A fresh estimator, so the relaxation's memo starts cold as it does in
    // the decomposition pass.
    let mut est = PlanEstimator::new(&case.plan, &case.catalog, weights).unwrap();
    let start = PaceConfiguration::new(vec![32; case.plan.len()]).unwrap();
    let out = relax_pace_configuration(&mut est, &dealt, start, max_pace).unwrap();
    push(&out.paces, &out.report, out.feasible);
    digest.0
}

#[track_caller]
fn assert_digest(got: u64, want: u64) {
    assert_eq!(got, want, "digest {got:#018x}, golden {want:#018x}");
}

#[test]
fn tpch22_estimates_match_the_golden_digest() {
    assert_digest(estimate_digest(&case(false)), 0x5f1c_efd0_2053_fa5f);
}

#[test]
fn sharing_friendly10_estimates_match_the_golden_digest() {
    assert_digest(estimate_digest(&case(true)), 0x4afe_2043_6d5e_c699);
}

#[test]
fn tpch22_searches_match_the_golden_digest() {
    assert_digest(search_digest(&case(false), 32), 0xa5bd_806c_c6b6_b434);
}

#[test]
fn sharing_friendly10_searches_match_the_golden_digest() {
    assert_digest(search_digest(&case(true), MAX_PACE), 0xe920_21db_5798_49c2);
}

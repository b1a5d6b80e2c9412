//! Golden digests of the cost estimator, the pace searches built on it and
//! the planner (`plan_workload`) that runs them for every approach.
//!
//! The greedy searches break ties by comparing `f64`s exactly, so the cost
//! simulator's contract is bit-identity, not a tolerance: a last-bit change
//! in one estimate can move a pace and with it the measured total work. The
//! estimate and search constants were recorded with the path-keyed
//! simulator this repository started with, the planner constants with the
//! four separate planning pipelines `plan_workload` replaced; any rewrite
//! of `ishare-cost` or `ishare-core` has to reproduce them to the bit.

use ishare::core::{
    find_pace_configuration, plan_workload, relax_pace_configuration, resolve_constraints,
    Approach, FinalWorkConstraint, PaceConfiguration, PlannedExecution, PlanningOptions,
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
    let plan = SharedPlan::from_dag(&dag).unwrap();
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

/// Digest of one `plan_workload` result: every subplan, the paces,
/// feasibility, the report's totals and per-query finals, the resolved
/// constraints, the batch finals and the estimator counters.
fn planned_digest(planned: &PlannedExecution) -> u64 {
    let mut digest = Digest::new();
    for sp in &planned.plan.subplans {
        for b in format!("{sp:?}").bytes() {
            digest.word(u64::from(b));
        }
    }
    for &p in planned.paces.as_slice() {
        digest.word(u64::from(p));
    }
    digest.word(u64::from(planned.feasible));
    digest.float(planned.report.total_work.get());
    for (q, w) in &planned.report.final_work {
        digest.word(u64::from(q.0));
        digest.float(w.get());
    }
    for (q, l) in &planned.constraints {
        digest.word(u64::from(q.0));
        digest.float(*l);
    }
    for (q, b) in &planned.batch_finals {
        digest.word(u64::from(q.0));
        digest.float(*b);
    }
    digest.word(planned.estimator_counters.simulations as u64);
    digest.word(planned.estimator_counters.memo_hits as u64);
    digest.0
}

#[track_caller]
fn assert_digests(got: &[u64], want: &[u64]) {
    assert_eq!(got, want, "digests {got:#018x?}, golden {want:#018x?}");
}

/// Per query position, a relative final-work constraint.
type Fractions<'a> = &'a dyn Fn(usize) -> f64;

/// Digests of `plan_workload` for every approach in `approaches` under
/// every constraint set in `fractions`, constraint set major.
fn planner_digests(
    catalog: &Catalog,
    queries: &[(QueryId, LogicalPlan)],
    approaches: &[Approach],
    max_pace: u32,
    fractions: &[Fractions<'_>],
) -> Vec<u64> {
    let opts = PlanningOptions { max_pace, ..Default::default() };
    let mut out = Vec::new();
    for frac in fractions {
        let constraints: BTreeMap<QueryId, FinalWorkConstraint> = queries
            .iter()
            .enumerate()
            .map(|(i, (q, _))| (*q, FinalWorkConstraint::Relative(frac(i))))
            .collect();
        for &approach in approaches {
            let planned = plan_workload(approach, queries, &constraints, catalog, &opts).unwrap();
            out.push(planned_digest(&planned));
        }
    }
    out
}

/// `Relative(0.2)` everywhere, then the dealt constraints.
const UNIFORM_THEN_DEALT: [Fractions<'static>; 2] = [&|_| 0.2, &|i| DEAL[i % DEAL.len()]];

#[test]
fn tpch22_plans_match_the_golden_digests() {
    // Brute force is left out: on these plans its enumeration outlives the
    // deadline, and the clustering fallback would tie the digest to wall time.
    let approaches: Vec<Approach> =
        Approach::ALL.into_iter().filter(|a| *a != Approach::IShareBruteForce).collect();
    let c = case(false);
    let got = planner_digests(&c.catalog, &c.queries, &approaches, 16, &UNIFORM_THEN_DEALT);
    assert_digests(
        &got,
        &[
            0x8cd6_50ce_e2c7_77b4,
            0xbfd2_3f34_38b5_7d81,
            0x81ae_6610_1362_ddd3,
            0x203c_4a40_4118_0604,
            0x203c_4a40_4118_0604,
            0x4ffa_e411_d250_3f11,
            0x3789_3227_4975_0dfa,
            0x1977_b0b5_f9ec_72e6,
            0xd3c9_e1e0_130e_996e,
            0x5bf4_cfea_6d73_afb8,
            0x5bf4_cfea_6d73_afb8,
            0x9561_9d0a_0d3e_a650,
        ],
    );
}

#[test]
fn sharing_friendly10_plans_match_the_golden_digests() {
    let c = case(true);
    let got = planner_digests(&c.catalog, &c.queries, &Approach::ALL, 32, &UNIFORM_THEN_DEALT);
    assert_digests(
        &got,
        &[
            0x86e0_6d8a_dfc1_0564,
            0x66b4_36e7_4bca_ac67,
            0x8bbc_ea23_bfc6_cad5,
            0xcc63_4b88_1299_e9ee,
            0xcc63_4b88_1299_e9ee,
            0xcc63_4b88_1299_e9ee,
            0x1ee5_5146_6278_5984,
            0xd961_4d30_8ae7_ed7b,
            0xcc7e_f114_7626_39cf,
            0x7f1f_e2bc_1e9a_9658,
            0x3e8c_6b6b_2466_66d1,
            0x3e8c_6b6b_2466_66d1,
            0x3e8c_6b6b_2466_66d1,
            0x08d9_8bd9_e64d_0fbe,
        ],
    );
}

/// A broad lazy query and a narrow tight one sharing a max-over-sum
/// pipeline: the one input here on which the decomposition pass adopts a
/// split.
#[test]
fn unsharing_plans_match_the_golden_digests() {
    use ishare::plan::PlanBuilder;
    use ishare_common::{DataType, Value};
    use ishare_expr::Expr;
    use ishare_storage::{ColumnStats, Field, Schema, TableStats};

    let mut catalog = Catalog::new();
    catalog
        .add_table(
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
    let max_over_sum = |narrow: bool| {
        let mut b = PlanBuilder::scan(&catalog, "t").unwrap();
        if narrow {
            b = b.select(|x| Ok(x.col("v")?.lt(Expr::lit(40i64)))).unwrap();
        }
        b.aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))
            .unwrap()
            .aggregate(&[], |x| Ok(vec![x.max("s", "m")?]))
            .unwrap()
            .build()
    };
    let queries = vec![(QueryId(0), max_over_sum(false)), (QueryId(1), max_over_sum(true))];
    let tight: Fractions<'_> = &|i| [1.0, 0.05][i];
    let got = planner_digests(&catalog, &queries, &Approach::ALL, MAX_PACE, &[tight]);
    assert_digests(
        &got,
        &[
            0xbcf7_2b2a_ac4a_5c5b,
            0x6059_594b_5886_1433,
            0xb417_48be_5d10_5647,
            0xb417_48be_5d10_5647,
            0x900c_22b9_3a33_d0d9,
            0x900c_22b9_3a33_d0d9,
            0xd97a_c7ee_0907_2f9d,
        ],
    );
}

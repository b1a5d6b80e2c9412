//! Golden digests of the cost estimator, the pace searches built on it and
//! the planner (`plan_workload`) that runs them for every approach.
//!
//! The greedy searches break ties by comparing `f64`s exactly, so the cost
//! simulator's contract is bit-identity, not a tolerance: a last-bit change
//! in one estimate can move a pace and with it the measured total work. The
//! estimate and search constants were recorded with the path-keyed
//! simulator this repository started with, the planner digests with the
//! four separate planning pipelines `plan_workload` replaced (re-recorded
//! on that code once the estimator counters left the digest); any rewrite
//! of `ishare-cost` or `ishare-core` has to reproduce them to the bit. The
//! counters are pinned beside the digests: they count what the memo
//! reuses, which a change may improve while every plan stays the same.

use ishare::core::{
    find_pace_configuration, plan_workload, relax_pace_configuration, resolve_constraints,
    Approach, FinalWorkConstraint, PaceConfiguration, PlannedExecution, PlanningOptions,
};
use ishare::cost::{CostReport, PlanEstimator};
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
        for sim in &report.subplan_output {
            self.float(sim.private_total);
            self.float(sim.private_final);
            let out = &sim.output;
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
/// constraints and the batch finals. The estimator counters are pinned
/// apart, in `Planned::counters`.
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
    for (q, w) in planned.report.final_work() {
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
    digest.0
}

#[track_caller]
fn assert_digests(got: &[u64], want: &[u64]) {
    assert_eq!(got, want, "digests {got:#018x?}, golden {want:#018x?}");
}

/// Per query position, a relative final-work constraint.
type Fractions<'a> = &'a dyn Fn(usize) -> f64;

/// What the planner goldens pin of a list of `plan_workload` results: each
/// plan's digest, and apart from it the pace search's estimator counters
/// `(simulations, memo_hits)`.
#[derive(Default)]
struct Planned {
    digests: Vec<u64>,
    counters: Vec<(usize, usize)>,
}

impl Planned {
    #[track_caller]
    fn assert(&self, digests: &[u64], counters: &[(usize, usize)]) {
        assert_digests(&self.digests, digests);
        assert_eq!(self.counters, counters, "estimator counters (simulations, memo_hits)");
    }
}

/// `plan_workload` for every approach in `approaches` under every
/// constraint set in `fractions`, constraint set major.
fn planner_digests(
    catalog: &Catalog,
    queries: &[(QueryId, LogicalPlan)],
    approaches: &[Approach],
    max_pace: u32,
    fractions: &[Fractions<'_>],
) -> Planned {
    let opts = PlanningOptions { max_pace, ..Default::default() };
    let mut out = Planned::default();
    for frac in fractions {
        let constraints: BTreeMap<QueryId, FinalWorkConstraint> = queries
            .iter()
            .enumerate()
            .map(|(i, (q, _))| (*q, FinalWorkConstraint::Relative(frac(i))))
            .collect();
        for &approach in approaches {
            let planned = plan_workload(approach, queries, &constraints, catalog, &opts).unwrap();
            out.digests.push(planned_digest(&planned));
            let counters = planned.estimator_counters;
            out.counters.push((counters.simulations, counters.memo_hits));
        }
    }
    out
}

/// `Relative(0.2)` everywhere, then the dealt constraints.
const UNIFORM_THEN_DEALT: [Fractions<'static>; 2] = [&|_| 0.2, &|i| DEAL[i % DEAL.len()]];

#[test]
fn tpch22_plans_match_the_golden_digests() {
    // Brute force enumerates the subplans shared by at most 12 queries and
    // clusters the one shared by 17, so its plans equal iShare's.
    let c = case(false);
    let got = planner_digests(&c.catalog, &c.queries, &Approach::ALL, 16, &UNIFORM_THEN_DEALT);
    got.assert(
        &[
            0xb4cd_5004_6788_495a,
            0x095e_f6e9_9b60_c299,
            0x3c62_4434_a6b2_fc89,
            0xef49_5830_81ba_7818,
            0xef49_5830_81ba_7818,
            0xef49_5830_81ba_7818,
            0x59b6_6691_b2aa_f2cd,
            0x39a8_09f3_7350_e59c,
            0xc01a_a16f_cef6_722d,
            0x6483_18f4_9f99_a278,
            0x7a22_f2e6_4807_09dc,
            0x7a22_f2e6_4807_09dc,
            0x7a22_f2e6_4807_09dc,
            0x5106_9a7d_ca52_924c,
        ],
        &[
            (235, 62569),
            (1201, 327299),
            (640, 0),
            (3595, 337965),
            (3595, 337965),
            (3595, 337965),
            (28, 0),
            (186, 33442),
            (903, 246537),
            (640, 0),
            (3354, 218686),
            (3354, 218686),
            (3354, 218686),
            (28, 0),
        ],
    );
}

#[test]
fn sharing_friendly10_plans_match_the_golden_digests() {
    let c = case(true);
    let got = planner_digests(&c.catalog, &c.queries, &Approach::ALL, 32, &UNIFORM_THEN_DEALT);
    got.assert(
        &[
            0x5099_472b_04a0_b61f,
            0x6c3f_02c9_044c_070e,
            0x3388_7e31_9e3f_42f2,
            0xe9c0_5b22_efce_22d1,
            0xe9c0_5b22_efce_22d1,
            0xe9c0_5b22_efce_22d1,
            0xb916_88ec_eee1_d88a,
            0x7844_c9a5_3e28_37c0,
            0x7407_01e9_66d5_2a45,
            0xfbd7_8941_06b7_6bae,
            0x5574_e3d2_5367_eefa,
            0x5574_e3d2_5367_eefa,
            0x5574_e3d2_5367_eefa,
            0x2e6f_17c6_8165_3030,
        ],
        &[
            (130, 7542),
            (937, 71873),
            (621, 0),
            (4708, 114846),
            (4708, 114846),
            (4708, 114846),
            (14, 0),
            (120, 4584),
            (726, 59244),
            (736, 0),
            (4387, 85083),
            (4387, 85083),
            (4387, 85083),
            (14, 0),
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
    got.assert(
        &[
            0xcc20_0c60_bff3_d2fd,
            0xa551_bb5d_fafc_f8ed,
            0x553a_91f5_706d_8ce3,
            0x553a_91f5_706d_8ce3,
            0xcc20_0c60_bff3_d2fd,
            0xcc20_0c60_bff3_d2fd,
            0x89e9_c67f_b805_605f,
        ],
        &[(29, 27), (169, 923), (100, 0), (100, 0), (100, 0), (100, 0), (2, 0)],
    );
}

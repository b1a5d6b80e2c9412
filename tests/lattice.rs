//! The differential lattice: one seeded harness for the claim every other
//! result in this repository rests on — a pace configuration, a datapath,
//! observability, the ingest path, a kill and a replay change what a run
//! *costs*, never what it *answers* or what it is *charged* (paper
//! Sec. 2.3 / 5.1).
//!
//! Every run is reduced to one [`Digest`] — results, `total_work` and
//! per-query `final_work` bits, execution counts, the commit log, the
//! per-subplan × per-`OpKind` charges, the slack ledger, the pace-switch log
//! and the churn records — and diffed by one comparator, [`assert_same`];
//! both live in `tests/harness`, which the face files
//! (`tests/{kernel_equivalence,ingest_replay,parallel_equivalence,pace_invariance}.rs`)
//! share to sweep single axes of this lattice exhaustively.
//!
//! * [`lattice_points_match_the_reference_run`] draws seeded random cases
//!   (a two-table catalog, aggregate fan-out or join plans, insert/delete
//!   feeds that never over-retract, random paces) and diffs points sampled
//!   from mode × obs × feed × kill point × run kind against the
//!   `Reference`, obs-off, `Vec`-fed, uninterrupted run; the
//!   all-1-pace batch results are the pace-invariance oracle.
//! * Four TPC-H scenarios — kernels, adapt, churn, slo — check their
//!   workload-level contracts and are pinned by golden constants recorded
//!   in another process, so each run of this file is also a cross-process
//!   determinism check. A change that moves charged work re-records the
//!   goldens and explains the move per scenario.
//! * The fault tests feed the replay damaged commit logs and a zero stop.

mod harness;

use harness::*;
use ishare::core::adapt::{AdaptController, AdaptOptions};
use ishare::core::{plan_workload, Approach, FinalWorkConstraint, PlanningOptions};
use ishare::exec::approx_result_eq;
use ishare::mqo::{build_shared_dag, normalize, IncrementalSharer, MqoConfig};
use ishare::plan::LogicalPlan;
use ishare::stream::{
    execute_adaptive_from_source_obs, execute_churn_from_source, execute_from_source_obs,
    insert_feeds, ChurnEvent, ChurnKind, ChurnOp, ChurnOptions, ChurnScript, CommitLog, ExecMode,
    ObsConfig, Source, SourceConfig, SourceOptions, SourceOutcome,
};
use ishare::tpch::{generate, with_updates};
use ishare_common::{CostWeights, Error, QueryId, Value};
use ishare_storage::{Catalog, Row};
use std::collections::BTreeMap;

const CASES: usize = 64;
const POINTS_PER_CASE: usize = 8;

/// Counts of sampled axis values and of the events the lattice must hit.
#[derive(Debug, Default)]
struct Coverage {
    modes: [usize; 3],
    obs: [usize; 2],
    feeds: [usize; 3],
    kills: usize,
    adaptive: [usize; 2],
    joins: usize,
    clamped_slack: usize,
}

#[test]
fn lattice_points_match_the_reference_run() {
    let mut seen = Coverage::default();
    for_each_case(SEED, CASES, |case_no, case, reference, rng| {
        seen.joins += usize::from(case.join);

        // Pace invariance: the all-1 batch run answers the same.
        let batch = vec![1; case.plan.len()];
        let batch = case.run(&ORACLE, &batch, case.options(&ORACLE)).done("batch");
        assert!(batch.results == reference.results, "case {case_no}: paced != batch results");

        // Obs-on points must agree on charges and ledger, source-fed points
        // on the commit log of their feed: the first such point pins them.
        let mut obs_pin: Option<Digest> = None;
        let mut log_pins: [Option<Digest>; 3] = Default::default();
        for _ in 0..POINTS_PER_CASE {
            let feed = rng.pick(&[Feed::Vec, Feed::InOrder, Feed::Jittered]);
            let p = Point {
                mode: rng.pick(&[Mode::Kernels, Mode::Reference, Mode::Inert]),
                obs: rng.chance(50),
                feed,
                kill: (feed != Feed::Vec && rng.chance(50)).then(|| rng.range(1, 8) as usize),
                adaptive: rng.chance(30),
            };
            let label = format!("case {case_no} {p:?} paces {:?}", case.paces);
            let (got, killed) = case.check(reference, &p, &label);
            if p.obs {
                // Logs differ between feeds; charges and ledgers do not.
                pin(&mut obs_pin, Digest { log: None, ..got.clone() }, &label);
            }
            if got.log.is_some() {
                pin(&mut log_pins[p.feed as usize], got.clone(), &label);
            }
            seen.kills += usize::from(killed);
            seen.modes[p.mode as usize] += 1;
            seen.obs[usize::from(p.obs)] += 1;
            seen.feeds[p.feed as usize] += 1;
            seen.adaptive[usize::from(p.adaptive)] += 1;
            let accounts = got.ledger.iter().flat_map(|l| &l.accounts);
            let clamped = |(_, [budget, consumed, ..]): &&(QueryId, [u64; 4])| {
                f64::from_bits(*consumed) > f64::from_bits(*budget)
            };
            seen.clamped_slack += accounts.filter(clamped).count();
        }
    });
    // Every axis value was sampled, and the events the lattice exists for
    // happened: kills, join plans, and ledgers whose slack clamped at 0.
    let axes: [&[usize]; 4] = [&seen.modes, &seen.obs, &seen.feeds, &seen.adaptive];
    let hit = axes.iter().all(|counts| counts.iter().all(|&n| n > 0));
    assert!(hit && seen.kills > 0 && seen.joins > 0 && seen.clamped_slack > 0, "{seen:?}");
}

// ---------------------------------------------------------------------------
// TPC-H scenarios
// ---------------------------------------------------------------------------

/// Six sharing-friendly queries planned by iShare: the `Reference`
/// datapath is the oracle for `Kernels` (obs off and on) and for a
/// jittered, partitioned, backpressured source killed after two fronts and
/// resumed.
#[test]
fn kernels_scenario_matches_reference_and_golden() {
    let (data, planned) = kernels_workload(6);
    let feeds = insert_feeds(&data.data);
    let run = |mode, obs: bool| {
        let obs = obs.then(ObsConfig::default);
        run_vec(&planned, &data, &feeds, SourceOptions { mode, obs, ..Default::default() })
    };
    let reference = run(ExecMode::Reference, false);
    let kernels = run(ExecMode::Kernels, false);
    assert_same(&reference, &kernels, "kernels vs reference");
    assert_same(&reference, &run(ExecMode::Kernels, true), "obs on");

    let topology = SourceConfig { partitions: 3, capacity: 32, jitter: 15, seed: 11 };
    let jittered = |opts| {
        Ran::fixed(run_fixed(&planned, &data, &mut Source::new(&feeds, topology).unwrap(), opts))
    };
    let opts = SourceOptions::default();
    let full = jittered(opts.clone()).done("jittered");
    assert_same(&reference, &full, "jittered source");
    assert_kill_resume(&full, 2, &opts, jittered, "jittered source");
    assert_golden(&kernels, &KERNELS, "kernels");
}

const ADAPT: Golden = Golden {
    total_work_bits: 0x4120_b0c4_0000_0000,
    result_checksum: 0x9dcc_6605_d3f4_9594,
    executions: 137,
    final_work_bits: &[0x40df_d880_0000_0000, 0x40e0_1aa0_0000_0000, 0x40c9_2b00_0000_0000],
};
/// The one switch: (wavefront, drift bits).
const ADAPT_SWITCH: (usize, u64) = (0, 0x3fe9_8e8e_c5fc_1e32);

/// A drifted stream (40 % of rows become delete + insert pairs) against
/// plans made from clean statistics: the controller must switch, rescue at
/// least one deadline the static paces miss and break none; the commit log
/// records the paces each front ran under; kill/resume and obs on (which
/// also checks the ledger) reproduce the switch log to the drift bit.
#[test]
fn adapt_scenario_rescues_deadlines_and_replays() {
    let data = generate(0.004, 42).unwrap();
    let planned = tpch_plan(&data, &fig2_and_q6(&data), 0.35, 100);
    let feeds = with_updates(&data, 0.4, 42 ^ 0x00ad_a917).unwrap();
    let w = CostWeights::default();
    let run = |opts| {
        let (d, opt) = (&data, AdaptOptions::default());
        let mut ctrl = AdaptController::from_planned(&planned, &d.catalog, w, opt).unwrap();
        let mut source = Source::in_order(&feeds);
        let out = execute_adaptive_from_source_obs(
            &planned.plan,
            &d.catalog,
            &mut source,
            w,
            opts,
            &mut ctrl,
        );
        Ran::adaptive(out.unwrap(), &ctrl)
    };
    let static_run =
        Ran::fixed(run_fixed(&planned, &data, &mut Source::in_order(&feeds), Default::default()));
    let static_run = static_run.done("static");
    let adaptive = run(SourceOptions::default()).done("adaptive");

    let (mut rescued, mut broken) = (0, 0);
    for (q, l) in &planned.constraints {
        let met = |d: &Digest| f64::from_bits(d.final_work[q]) <= *l;
        rescued += usize::from(!met(&static_run) && met(&adaptive));
        broken += usize::from(met(&static_run) && !met(&adaptive));
    }
    assert!(rescued > 0 && broken == 0, "rescued {rescued}, broken {broken}");

    let switches = adaptive.switches.as_deref().unwrap();
    let mut paces = planned.paces.as_slice().to_vec();
    let mut pending = switches.iter().peekable();
    for entry in &adaptive.log.as_ref().unwrap().entries {
        assert_eq!(entry.paces, paces, "front {} ran under other paces", entry.wavefront);
        if let Some(sw) = pending.next_if(|sw| sw.wavefront == entry.wavefront) {
            assert_eq!(sw.from, paces, "switch at front {} starts elsewhere", sw.wavefront);
            paces = sw.to.clone();
        }
    }
    assert!(pending.next().is_none(), "a switch after the last front");

    assert_kill_resume(&adaptive, 2, &SourceOptions::default(), run, "adapt");
    let obs = SourceOptions { obs: Some(ObsConfig::default()), ..Default::default() };
    assert_same(&adaptive, &run(obs).done("obs on"), "obs on");
    assert_golden(&adaptive, &ADAPT, "adapt");
    let pinned: Vec<(usize, u64)> =
        switches.iter().map(|s| (s.wavefront, s.drift.to_bits())).collect();
    assert_eq!(pinned, [ADAPT_SWITCH], "adapt: the switch (wavefront, drift bits)");
}

const CHURN: Golden = Golden {
    total_work_bits: 0x4125_2d6f_0000_0000,
    result_checksum: 0x1151_cb62_c22b_35f4,
    executions: 126,
    final_work_bits: &[
        0x40d0_1740_0000_0000,
        0x40e6_7f40_0000_0000,
        0x40e7_ec20_0000_0000,
        0x40f4_2930_0000_0000,
    ],
};
/// Rows handed to the admitted queries, rows reclaimed by the removal.
const CHURN_ROWS: (u64, u64) = (10_651, 8_405);
/// Each churn record's `handoff_work_bits`, in script order (a removal
/// hands nothing off).
const CHURN_HANDOFF_WORK: [u64; 3] = [0x40b8_6a00_0000_0000, 0x40cd_7b00_0000_0000, 0];

/// Three sharing-friendly queries live, two admitted at 1/4 and 2/4 and q1
/// removed at 3/4: the incremental sharer builds the batch DAG; every query
/// live at the end — survivors and admitted alike — matches the unshared
/// `Reference` batch oracle; obs on (which checks the whole-run breakdown
/// and the ledger) and a kill/resume reproduce the run, churn records
/// included.
#[test]
fn churn_scenario_matches_oracle_and_golden() {
    let data = generate(0.002, 11).unwrap();
    let pool = sharing_friendly(&data, 5);
    let initial: Vec<(QueryId, LogicalPlan)> =
        (0..3).map(|i| (QueryId(i as u16), pool[i].clone())).collect();

    let normalized: Vec<(QueryId, LogicalPlan)> =
        initial.iter().map(|(q, lp)| (*q, normalize(lp))).collect();
    let batch = build_shared_dag(&normalized, &data.catalog, &MqoConfig::default()).unwrap();
    let mut sharer = IncrementalSharer::new(MqoConfig::default());
    for (q, lp) in &normalized {
        sharer.admit(*q, lp).unwrap();
    }
    assert_eq!(sharer.dag().nodes.len(), batch.nodes.len(), "incremental DAG != batch DAG");

    let cons: BTreeMap<QueryId, FinalWorkConstraint> =
        (0..5).map(|q| (QueryId(q), FinalWorkConstraint::Relative(0.35))).collect();
    let admit = |q: u16| ChurnOp::Admit {
        query: QueryId(q),
        plan: pool[q as usize].clone(),
        constraint: FinalWorkConstraint::Relative(0.9),
    };
    let script = ChurnScript::new(vec![
        ChurnEvent { num: 1, den: 4, op: admit(3) },
        ChurnEvent { num: 2, den: 4, op: admit(4) },
        ChurnEvent { num: 3, den: 4, op: ChurnOp::Remove { query: QueryId(1) } },
    ]);
    let feeds = insert_feeds(&data.data);
    let run = |source| {
        let opts = ChurnOptions { source, max_pace: 16 };
        let (c, w) = (&data.catalog, CostWeights::default());
        let mut src = Source::in_order(&feeds);
        Ran::churn(
            execute_churn_from_source(&initial, &cons, &script, c, &mut src, w, &opts).unwrap(),
        )
    };
    let churned = run(SourceOptions::default()).done("churn");

    let (records, handoff, reclaimed) = churned.churn.clone().unwrap();
    let ops: Vec<(ChurnKind, u16)> = records.iter().map(|r| (r.kind, r.query)).collect();
    let want = [(ChurnKind::Admit, 3), (ChurnKind::Admit, 4), (ChurnKind::Remove, 1)];
    assert_eq!(ops, want, "churn records");
    let log = churned.log.as_ref().unwrap();
    assert!(log.entries.iter().any(|e| !e.churn.is_empty()), "log carries no churn records");

    let live: Vec<(QueryId, LogicalPlan)> =
        [0, 2, 3, 4].map(|i| (QueryId(i), pool[i as usize].clone())).to_vec();
    let opts = PlanningOptions { max_pace: 1, ..Default::default() };
    let unshared =
        plan_workload(Approach::NoShareUniform, &live, &BTreeMap::new(), &data.catalog, &opts)
            .unwrap();
    let reference = SourceOptions { mode: ExecMode::Reference, ..Default::default() };
    let oracle = run_fixed(&unshared, &data, &mut Source::in_order(&feeds), reference);
    let oracle = oracle.into_result().unwrap();
    assert_eq!(
        churned.results.keys().collect::<Vec<_>>(),
        oracle.results.keys().collect::<Vec<_>>(),
        "exactly the live queries answer"
    );
    for (q, expect) in &oracle.results {
        assert!(approx_result_eq(&churned.results[q], expect, 1e-9), "{q}: churn != oracle");
    }

    let obs = SourceOptions { obs: Some(ObsConfig::default()), ..Default::default() };
    assert_same(&churned, &run(obs).done("obs on"), "obs on");
    assert_kill_resume(&churned, 2, &SourceOptions::default(), run, "churn");
    assert_golden(&churned, &CHURN, "churn");
    assert_eq!((handoff, reclaimed), CHURN_ROWS, "churn: hand-off / reclaimed rows");
    let handoff_work: Vec<u64> = records.iter().map(|r| r.handoff_work_bits).collect();
    assert_eq!(handoff_work, CHURN_HANDOFF_WORK, "churn: hand-off work bits per record");
}

const SLO: Golden = Golden {
    total_work_bits: 0x4110_1d18_0000_0000,
    result_checksum: 0x506e_0cf6_262b_1192,
    executions: 109,
    final_work_bits: &[0x40e9_5080_0000_0000, 0x40ea_dfc0_0000_0000, 0x40ca_2100_0000_0000],
};
const SLO_FRONTS: usize = 102;
/// Per query: budget, consumed and remaining bits.
const SLO_LEDGER: [[u64; 3]; 3] = [
    [0x40ea_4f2f_ffff_ffba, 0x40e9_5080_0000_0000, 0x409f_d5ff_ffff_f740],
    [0x40ed_6fac_5f92_c5cf, 0x40ea_dfc0_0000_0000, 0x40b4_7f62_fc96_2e78],
    [0x40d8_5c51_784c_b96f, 0x40ca_2100_0000_0000, 0x40c6_97a2_f099_72de],
];

/// `qa`/`qb`/`q6` at `Relative(0.5)` on a clean stream with per-query
/// budgets: the ledger holds its invariants, budgets are the planner's
/// `L(q)` and consumption the measured final work, bit for bit; a feasible
/// plan misses nothing; the `slo.*` gauges and the Prometheus text mirror
/// the ledger; obs off and kill/resume reproduce it.
#[test]
fn slo_scenario_ledger_matches_golden() {
    let data = generate(0.004, 42).unwrap();
    let planned = tpch_plan(&data, &fig2_and_q6(&data), 0.5, 100);
    let feeds = insert_feeds(&data.data);
    let slo = SourceOptions {
        obs: Some(ObsConfig::default()),
        slo: Some(planned.constraints.clone()),
        ..Default::default()
    };
    let run = |opts| Ran::fixed(run_fixed(&planned, &data, &mut Source::in_order(&feeds), opts));
    let SourceOutcome::Completed { result, log } =
        run_fixed(&planned, &data, &mut Source::in_order(&feeds), slo.clone())
    else {
        panic!("slo run suspended");
    };
    let seq = Digest::of(&result, Some(log));

    let obs = result.obs.as_ref().unwrap();
    let ledger = obs.slack.as_ref().expect("slo run has a ledger");
    assert_eq!(ledger.fronts(), SLO_FRONTS, "slo: fronts");
    let mut pinned = Vec::new();
    for (q, slot) in ledger.queries() {
        assert_eq!(slot.budget.to_bits(), planned.constraints[&q].to_bits(), "{q}: budget != L(q)");
        assert_eq!(slot.consumed.to_bits(), seq.final_work[&q], "{q}: consumed != final work");
        let gauge = |name: &str| obs.metrics.gauge(&format!("slo.q{}.{name}", q.index())).unwrap();
        let mirror = [gauge("budget"), gauge("consumed"), gauge("slack_remaining")];
        let bits = [slot.budget, slot.consumed, slot.remaining()].map(f64::to_bits);
        assert_eq!(mirror.map(f64::to_bits), bits, "{q}: slo gauges != ledger");
        pinned.push(bits);
    }
    assert!(!planned.feasible || ledger.misses() == 0, "a feasible plan missed a deadline");
    assert_eq!(obs.metrics.counter("slo.deadline_misses"), Some(ledger.misses() as f64));
    let prom = obs.prometheus();
    for needle in ["ishare_slo_q0_slack_remaining", "ishare_slo_deadline_misses"] {
        assert!(prom.contains(needle), "Prometheus text lacks {needle}");
    }

    assert_same(&seq, &run(SourceOptions::default()).done("obs off"), "obs off");
    assert_kill_resume(&seq, 2, &slo, run, "slo");
    assert_golden(&seq, &SLO, "slo");
    assert_eq!(pinned, SLO_LEDGER, "slo: per-query budget / consumed / remaining bits");
    assert_eq!(ledger.misses(), 0, "slo: deadline misses");
}

// ---------------------------------------------------------------------------
// Faults
// ---------------------------------------------------------------------------

/// The first lattice case's plan over 30 inserts into `t` at pace 2,
/// pulled from a jittered two-partition source and run to completion.
fn small_completed_run(catalog: &Catalog) -> (Case<'_>, CommitLog) {
    let mut case = Case::new(catalog, &mut SplitMix(SEED));
    let t = catalog.table_by_name("t").unwrap().id;
    let feed = (0..30).map(|i| (Row::new(vec![Value::Int(i % 4), Value::Int(i)]), 1)).collect();
    case.feeds = [(t, feed)].into_iter().collect();
    case.paces = vec![2; case.plan.len()];
    case.topology = SourceConfig { partitions: 2, capacity: 8, jitter: 3, seed: 5 };
    let SourceOutcome::Completed { log, .. } = replay(&case, Default::default()).unwrap() else {
        panic!("must complete")
    };
    (case, log)
}

fn replay(case: &Case, opts: SourceOptions) -> ishare::Result<SourceOutcome> {
    let mut source = Source::new(&case.feeds, case.topology).unwrap();
    let (c, w) = (case.catalog, CostWeights::default());
    execute_from_source_obs(&case.plan, &case.paces, c, &mut source, w, opts)
}

/// A tampered commit log makes the replay fail loudly instead of silently
/// diverging.
#[test]
fn replay_against_wrong_log_errors() {
    let catalog = catalog();
    let (case, mut log) = small_completed_run(&catalog);
    for tc in log.entries[0].topics.values_mut() {
        tc.delivered += 1;
    }
    let err = replay(&case, SourceOptions { verify: Some(log), ..Default::default() });
    assert!(matches!(err, Err(Error::InvalidDelta(_))), "{:?}", err.map(|_| "ran"));
}

/// A log longer than the run it replays is not that run's log.
#[test]
fn replay_against_longer_log_errors() {
    let catalog = catalog();
    let (case, mut log) = small_completed_run(&catalog);
    let exact = replay(&case, SourceOptions { verify: Some(log.clone()), ..Default::default() });
    assert!(exact.is_ok(), "the run's own log must verify: {:?}", exact.err());
    log.entries.push(log.entries.last().unwrap().clone());
    let err = replay(&case, SourceOptions { verify: Some(log), ..Default::default() });
    assert!(matches!(err, Err(Error::InvalidDelta(_))), "{:?}", err.map(|_| "ran"));
}

/// Stopping after zero fronts is rejected before the first front.
#[test]
fn stop_after_zero_is_rejected() {
    let catalog = catalog();
    let (case, _) = small_completed_run(&catalog);
    let err = replay(&case, SourceOptions { stop_after: Some(0), ..Default::default() });
    assert!(matches!(err, Err(Error::InvalidConfig(_))), "{:?}", err.map(|_| "ran"));
}

//! The differential lattice's one harness: one run digest, one comparator,
//! one case generator and the TPC-H workload helpers. `tests/lattice.rs`
//! samples the whole lattice and runs its TPC-H scenarios; the other files
//! that include this module sweep single faces of it exhaustively.
//!
//! Each test binary uses a different part of the harness.
#![allow(dead_code)]

use ishare::core::adapt::{AdaptController, AdaptOptions, PaceSwitch};
use ishare::core::{
    plan_workload, Approach, FinalWorkConstraint, PlannedExecution, PlanningOptions,
};
use ishare::exec::QueryResult;
use ishare::plan::LogicalPlan;
use ishare::stream::{
    execute_adaptive_from_source_obs, execute_from_source_obs, execute_from_source_parallel_obs,
    execute_planned_deltas_with, ChurnOutcome, ChurnRecord, CommitLog, ExecCounts, ExecMode,
    ObsConfig, ObsReport, QuerySlack, RunResult, Source, SourceConfig, SourceOptions,
    SourceOutcome,
};
use ishare::tpch::{generate, queries::sharing_friendly_queries, query_by_name};
use ishare::tpch::{updates::DeltaFeed, TpchData};
use ishare_common::{CostWeights, DataType, OpKind, QueryId, QuerySet, TableId, Value};
use ishare_expr::Expr;
use ishare_plan::{AggExpr, AggFunc, DagOp, SelectBranch, SharedDag, SharedPlan};
use ishare_storage::{Catalog, Field, Row, Schema, TableStats};
use std::collections::{BTreeMap, HashMap};

// ---------------------------------------------------------------------------
// The digest and the comparator
// ---------------------------------------------------------------------------

/// A slack ledger as bits: the front count; per query its budget,
/// consumed, charged total and joined front; and the trace's per-front
/// charged-work points as (query, wavefront, charged), timestamps left out.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerBits {
    pub fronts: usize,
    pub accounts: Vec<(QueryId, [u64; 4])>,
    pub charged: Vec<(u16, u32, u64)>,
}

/// Everything a run is judged by, floats as bit patterns. The optional
/// parts exist only for runs that produce them.
#[derive(Debug, Clone, Default)]
pub struct Digest {
    pub results: BTreeMap<QueryId, QueryResult>,
    pub total_work: u64,
    pub final_work: BTreeMap<QueryId, u64>,
    pub executions: usize,
    pub executions_per_query: BTreeMap<QueryId, ExecCounts>,
    /// Source-fed runs.
    pub log: Option<CommitLog>,
    /// Obs-on runs: per subplan, per `OpKind`.
    pub cells: Option<Vec<Vec<u64>>>,
    /// Obs-on runs with budgets.
    pub ledger: Option<Box<LedgerBits>>,
    /// Adaptive runs.
    pub switches: Option<Vec<PaceSwitch>>,
    /// Churn runs: records, hand-off rows, reclaimed rows.
    pub churn: Option<(Vec<ChurnRecord>, u64, u64)>,
}

impl Digest {
    /// Digest a completed run, first checking the run against itself: the
    /// obs breakdown regroups exactly the charged terms, replaced plans'
    /// included, and the ledger upholds its invariants.
    pub fn of(run: &RunResult, log: Option<CommitLog>) -> Digest {
        let total = run.total_work.get();
        let obs = run.obs.as_ref();
        if let Some(report) = obs {
            assert_eq!(report.total_work.to_bits(), total.to_bits(), "report total != total_work");
            let tol = 1e-6 * total.abs().max(1.0);
            assert!((report.breakdown_total() - total).abs() <= tol, "breakdown != total_work");
            assert_eq!(report.executions() as usize, run.executions, "obs execution counts");
            if let Some(ledger) = &report.slack {
                ledger.verify().unwrap_or_else(|e| panic!("ledger invariant: {e}"));
            }
        }
        Digest {
            results: run.results.clone(),
            total_work: total.to_bits(),
            final_work: run.final_work.iter().map(|(q, w)| (*q, w.to_bits())).collect(),
            executions: run.executions,
            executions_per_query: run.executions_per_query.clone(),
            log,
            cells: obs.map(|r| {
                let cells = |b: &ishare_common::WorkBreakdown| {
                    OpKind::ALL.iter().map(|&k| b.get(k).to_bits()).collect()
                };
                r.work_by_subplan.iter().map(cells).collect()
            }),
            ledger: obs.and_then(ledger_bits),
            switches: None,
            churn: None,
        }
    }
}

fn ledger_bits(report: &ObsReport) -> Option<Box<LedgerBits>> {
    let ledger = report.slack.as_ref()?;
    let account = |(q, s): (QueryId, &QuerySlack)| {
        let [budget, consumed, charged] = [s.budget, s.consumed, s.charged_total].map(f64::to_bits);
        (q, [budget, consumed, charged, u64::from(s.joined)])
    };
    let points = report.trace.slack_points().iter();
    Some(Box::new(LedgerBits {
        fronts: ledger.fronts(),
        accounts: ledger.queries().map(account).collect(),
        charged: points.map(|p| (p.query, p.wavefront, p.charged.to_bits())).collect(),
    }))
}

/// Diff two digests: the core always, each optional part when both carry it.
#[track_caller]
pub fn assert_same(want: &Digest, got: &Digest, label: &str) {
    assert_eq!(
        want.total_work,
        got.total_work,
        "{label}: total_work {} vs {}",
        f64::from_bits(want.total_work),
        f64::from_bits(got.total_work)
    );
    assert_eq!(want.final_work, got.final_work, "{label}: final_work bits");
    assert_eq!(want.executions, got.executions, "{label}: executions");
    assert_eq!(want.executions_per_query, got.executions_per_query, "{label}: per-query counts");
    assert!(want.results == got.results, "{label}: query results differ");
    if let (Some(a), Some(b)) = (&want.log, &got.log) {
        assert!(a == b, "{label}: commit logs differ");
    }
    if let (Some(a), Some(b)) = (&want.cells, &got.cells) {
        assert_eq!(a, b, "{label}: per-subplan x per-OpKind charges");
    }
    if let (Some(a), Some(b)) = (&want.ledger, &got.ledger) {
        assert_eq!(a, b, "{label}: slack ledgers");
    }
    if let (Some(a), Some(b)) = (&want.switches, &got.switches) {
        assert_eq!(a, b, "{label}: switch logs");
        let drift = |s: &[PaceSwitch]| s.iter().map(|x| x.drift.to_bits()).collect::<Vec<_>>();
        assert_eq!(drift(a), drift(b), "{label}: switch drift bits");
    }
    if let (Some(a), Some(b)) = (&want.churn, &got.churn) {
        assert_eq!(a, b, "{label}: churn records / hand-off / reclaimed rows");
    }
}

/// What a run produced: a digest, or the log of a run killed at a boundary.
pub enum Ran {
    Done(Digest),
    Killed(CommitLog),
}

impl Ran {
    pub fn fixed(out: SourceOutcome) -> Ran {
        match out {
            SourceOutcome::Completed { result, log } => Ran::Done(Digest::of(&result, Some(log))),
            SourceOutcome::Suspended { log } => Ran::Killed(log),
        }
    }

    pub fn adaptive(out: SourceOutcome, ctrl: &AdaptController) -> Ran {
        match Ran::fixed(out) {
            Ran::Done(d) => Ran::Done(Digest { switches: Some(ctrl.switches().to_vec()), ..d }),
            killed => killed,
        }
    }

    pub fn churn(out: ChurnOutcome) -> Ran {
        match out {
            ChurnOutcome::Completed { result, log } => {
                let extra = (result.churn.clone(), result.handoff_rows, result.reclaimed_rows);
                let d = Digest::of(&result.run, Some(log));
                Ran::Done(Digest { churn: Some(extra), ..d })
            }
            ChurnOutcome::Suspended { log } => Ran::Killed(log),
        }
    }

    #[track_caller]
    pub fn done(self, label: &str) -> Digest {
        match self {
            Ran::Done(d) => d,
            Ran::Killed(_) => panic!("{label}: run suspended unexpectedly"),
        }
    }
}

/// Kill `run` after `k` committed fronts and resume it against the killed
/// log: the log must be cut at `k` as a prefix of the uninterrupted run's,
/// and the resumed run must land on `full` (log included).
#[track_caller]
pub fn assert_kill_resume(
    full: &Digest,
    k: usize,
    opts: &SourceOptions,
    run: impl Fn(SourceOptions) -> Ran,
    label: &str,
) {
    let log = full.log.as_ref().expect("kill points are source-fed");
    let Ran::Killed(partial) = run(SourceOptions { stop_after: Some(k), ..opts.clone() }) else {
        panic!("{label}: stop_after {k} of {} fronts did not suspend", log.len());
    };
    assert!(partial.entries[..] == log.entries[..k], "{label}: killed log is not the prefix");
    let resumed = run(SourceOptions { verify: Some(partial), ..opts.clone() });
    assert_same(full, &resumed.done(label), &format!("{label} resumed@{k}"));
}

/// Order-independent FNV-1a digest of every query's result multiset, over
/// `Row`'s `Debug` (the digest the golden constants were recorded with).
pub fn result_checksum(results: &BTreeMap<QueryId, QueryResult>) -> u64 {
    let mut lines: Vec<String> = Vec::new();
    for (q, result) in results {
        for (row, w) in result {
            lines.push(format!("q{}|{row:?}|{w}", q.0));
        }
    }
    lines.sort_unstable();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in &lines {
        for b in line.as_bytes().iter().chain(b"\n") {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x1000_0000_01b3);
        }
    }
    hash
}

/// A scenario's pinned numbers.
pub struct Golden {
    pub total_work_bits: u64,
    pub result_checksum: u64,
    pub executions: usize,
    /// In query-id order.
    pub final_work_bits: &'static [u64],
}

#[track_caller]
pub fn assert_golden(d: &Digest, g: &Golden, scenario: &str) {
    let got = (d.total_work, result_checksum(&d.results), d.executions);
    let want = (g.total_work_bits, g.result_checksum, g.executions);
    assert_eq!(got, want, "{scenario}: (total_work bits, result checksum, executions)");
    let finals: Vec<u64> = d.final_work.values().copied().collect();
    assert_eq!(finals, g.final_work_bits, "{scenario}: final_work bits");
}

// ---------------------------------------------------------------------------
// The generated lattice
// ---------------------------------------------------------------------------

pub const SEED: u64 = 0x1a77_1ce5;

pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    pub fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.next() as usize % xs.len()]
    }
}

fn qs(ids: &[u16]) -> QuerySet {
    QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
}

/// Tables `t(k, v)` and `u(k, w)`.
pub fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for (name, col) in [("t", "v"), ("u", "w")] {
        let schema =
            Schema::new(vec![Field::new("k", DataType::Int), Field::new(col, DataType::Int)]);
        c.add_table(name, schema, TableStats::unknown(100.0, 2)).unwrap();
    }
    c
}

/// A shared marking select over `t` fanning out to one aggregate subplan per
/// query; with `join`, the select joins `u` on `k` and projects `[k, v + w]`
/// first. Query 0 is a MIN and query 1 a MAX, so extremum deletes rescan.
/// Returns the DAG and the plan cut from it.
pub fn build_plan(c: &Catalog, rng: &mut SplitMix, join: bool) -> (SharedDag, SharedPlan) {
    let n = rng.range(2, 5) as u16;
    let all: Vec<u16> = (0..n).collect();
    let mut d = SharedDag::new();
    let t = c.table_by_name("t").unwrap().id;
    let scan = d.add_node(DagOp::Input(t), vec![], qs(&all)).unwrap();
    let branches = (0..n)
        .map(|q| {
            let cutoff = rng.range(5, 100) as i64;
            let predicate =
                if cutoff >= 95 { Expr::true_lit() } else { Expr::col(1).lt(Expr::lit(cutoff)) };
            SelectBranch { queries: qs(&[q]), predicate }
        })
        .collect();
    let mut trunk = d.add_node(DagOp::Select { branches }, vec![scan], qs(&all)).unwrap();
    if join {
        let u = c.table_by_name("u").unwrap().id;
        let scan_u = d.add_node(DagOp::Input(u), vec![], qs(&all)).unwrap();
        let keys = vec![(Expr::col(0), Expr::col(0))];
        let join = d.add_node(DagOp::Join { keys }, vec![trunk, scan_u], qs(&all)).unwrap();
        let exprs = vec![(Expr::col(0), "k".into()), (Expr::col(1).add(Expr::col(3)), "vw".into())];
        trunk = d.add_node(DagOp::Project { exprs }, vec![join], qs(&all)).unwrap();
    }
    let funcs = [AggFunc::Min, AggFunc::Max, AggFunc::Sum, AggFunc::Count];
    for q in 0..n {
        let func = if q < 2 { funcs[q as usize] } else { rng.pick(&funcs) };
        let op = DagOp::Aggregate {
            group_by: vec![(Expr::col(0), "k".into())],
            aggs: vec![AggExpr::new(func, Expr::col(1), "a")],
        };
        let agg = d.add_node(op, vec![trunk], qs(&[q])).unwrap();
        d.set_query_root(QueryId(q), agg).unwrap();
    }
    let plan = SharedPlan::from_dag(&d).unwrap();
    (d, plan)
}

/// Insert/delete events for `t` (and `u` when `join`). A delete retracts a
/// live row — the one holding the current max or min of column 1 half of
/// the time — so no feed ever over-retracts.
pub fn build_feeds(c: &Catalog, rng: &mut SplitMix, join: bool) -> HashMap<TableId, DeltaFeed> {
    let tables: Vec<TableId> = ["t", "u"][..1 + usize::from(join)]
        .iter()
        .map(|n| c.table_by_name(n).unwrap().id)
        .collect();
    let mut live: Vec<Vec<Row>> = vec![Vec::new(); tables.len()];
    let mut feeds: Vec<DeltaFeed> = vec![Vec::new(); tables.len()];
    let col1 = |r: &Row| match r.get(1) {
        Value::Int(v) => *v,
        _ => 0,
    };
    for _ in 0..rng.range(1, 50) {
        let i = rng.next() as usize % tables.len();
        if rng.chance(30) && !live[i].is_empty() {
            let idx = if rng.chance(50) {
                let sign = if feeds[i].len().is_multiple_of(2) { 1 } else { -1 };
                (0..live[i].len()).max_by_key(|&j| sign * col1(&live[i][j])).unwrap()
            } else {
                live[i].len() - 1
            };
            feeds[i].push((live[i].swap_remove(idx), -1));
        } else {
            let k = rng.range(0, 6) as i64;
            let row = Row::new(vec![Value::Int(k), Value::Int(rng.range(0, 100) as i64)]);
            live[i].push(row.clone());
            feeds[i].push((row, 1));
        }
    }
    tables.into_iter().zip(feeds).collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    Kernels,
    Reference,
    /// Every inert surface the benchmark pins: `ExecMode::Vectorized`,
    /// `partitions: 4` and, on source-fed fixed runs, the thread-count shim
    /// at 4 threads. This must be the `Kernels` run bit for bit.
    Inert,
}

impl Mode {
    /// The datapath options of this mode.
    pub fn options(self) -> SourceOptions {
        let (mode, partitions) = match self {
            Mode::Kernels => (ExecMode::Kernels, 1),
            Mode::Reference => (ExecMode::Reference, 1),
            Mode::Inert => (ExecMode::Vectorized, 4),
        };
        SourceOptions { mode, partitions, ..Default::default() }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Feed {
    Vec,
    InOrder,
    /// The case's partitioned, bounded, jittered topology.
    Jittered,
}

#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub mode: Mode,
    pub obs: bool,
    pub feed: Feed,
    /// Kill after this many fronts (clamped into the schedule), then resume.
    pub kill: Option<usize>,
    /// Run through the adaptive driver with adaptation disabled.
    pub adaptive: bool,
}

/// The oracle point every other point is diffed against.
pub const ORACLE: Point =
    Point { mode: Mode::Reference, obs: false, feed: Feed::Vec, kill: None, adaptive: false };

pub struct Case<'c> {
    pub catalog: &'c Catalog,
    pub join: bool,
    pub plan: SharedPlan,
    pub paces: Vec<u32>,
    pub feeds: HashMap<TableId, DeltaFeed>,
    pub topology: SourceConfig,
    /// Slack-ledger budgets of obs-on points; small, so queries miss.
    pub budgets: BTreeMap<QueryId, f64>,
}

impl Case<'_> {
    pub fn new<'c>(catalog: &'c Catalog, rng: &mut SplitMix) -> Case<'c> {
        let join = rng.chance(50);
        let (_, plan) = build_plan(catalog, rng, join);
        let feeds = build_feeds(catalog, rng, join);
        let paces = (0..plan.len()).map(|_| rng.range(1, 7) as u32).collect();
        let topology = SourceConfig {
            partitions: rng.range(1, 4) as usize,
            capacity: rng.pick(&[1, 3, 64]),
            jitter: rng.pick(&[0, 2, 9]),
            seed: rng.range(0, 1000),
        };
        let budgets = plan.queries().iter().map(|q| (q, rng.range(1, 400) as f64 + 0.5)).collect();
        Case { catalog, join, plan, paces, feeds, topology, budgets }
    }

    pub fn options(&self, p: &Point) -> SourceOptions {
        SourceOptions {
            obs: p.obs.then(ObsConfig::default),
            slo: p.obs.then(|| self.budgets.clone()),
            ..p.mode.options()
        }
    }

    pub fn run(&self, p: &Point, paces: &[u32], opts: SourceOptions) -> Ran {
        let (plan, c, w) = (&self.plan, self.catalog, CostWeights::default());
        if p.feed == Feed::Vec && !p.adaptive {
            let run = execute_planned_deltas_with(plan, paces, c, &self.feeds, w, opts).unwrap();
            return Ran::Done(Digest::of(&run, None));
        }
        let mut source = match p.feed {
            Feed::Jittered => Source::new(&self.feeds, self.topology).unwrap(),
            Feed::Vec | Feed::InOrder => Source::in_order(&self.feeds),
        };
        let ran = if p.adaptive {
            let off = AdaptOptions::disabled();
            let mut ctrl =
                AdaptController::new(plan, c, w, paces, self.budgets.clone(), off).unwrap();
            let out = execute_adaptive_from_source_obs(plan, c, &mut source, w, opts, &mut ctrl);
            let out = out.unwrap();
            if let SourceOutcome::Completed { .. } = out {
                assert!(ctrl.metrics().evaluations > 0, "a disabled controller still observes");
            }
            // Disabled adaptation never switches: the switch log is empty
            // and stays out of the digest, which the fixed runs lack.
            assert!(ctrl.switches().is_empty(), "a disabled controller switched paces");
            Ran::fixed(out)
        } else if p.mode == Mode::Inert {
            let out = execute_from_source_parallel_obs(plan, paces, c, &mut source, w, 4, opts);
            Ran::fixed(out.unwrap())
        } else {
            Ran::fixed(execute_from_source_obs(plan, paces, c, &mut source, w, opts).unwrap())
        };
        match ran {
            Ran::Done(d) if p.feed == Feed::Vec => Ran::Done(Digest { log: None, ..d }),
            ran => ran,
        }
    }

    /// Run point `p` at the case's paces, diff it against `reference` and,
    /// at a kill point of a source-fed run with more than one front, kill
    /// and resume it too. Returns the run's digest and whether it was killed.
    #[track_caller]
    pub fn check(&self, reference: &Digest, p: &Point, label: &str) -> (Digest, bool) {
        let opts = self.options(p);
        let run = |opts| self.run(p, &self.paces, opts);
        let got = run(opts.clone()).done(label);
        assert_same(reference, &got, label);
        let fronts = got.log.as_ref().map_or(0, CommitLog::len);
        let killed = match p.kill {
            Some(k) if fronts > 1 => {
                assert_kill_resume(&got, k.min(fronts - 1), &opts, run, label);
                true
            }
            _ => false,
        };
        (got, killed)
    }
}

/// Draw `n` cases from `seed` and hand each, with its oracle run's digest
/// and the generator, to `check`, which may draw its points from it.
pub fn for_each_case(
    seed: u64,
    n: usize,
    mut check: impl FnMut(usize, &Case, &Digest, &mut SplitMix),
) {
    let catalog = catalog();
    let mut rng = SplitMix(seed);
    for case_no in 0..n {
        let case = Case::new(&catalog, &mut rng);
        let reference = case.run(&ORACLE, &case.paces, case.options(&ORACLE)).done("oracle");
        check(case_no, &case, &reference, &mut rng);
    }
}

/// The first digest into `slot` pins it; later ones must match.
#[track_caller]
pub fn pin(slot: &mut Option<Digest>, got: Digest, label: &str) {
    match slot {
        Some(want) => assert_same(want, &got, label),
        None => *slot = Some(got),
    }
}

// ---------------------------------------------------------------------------
// TPC-H workloads
// ---------------------------------------------------------------------------

pub fn tpch_plan(
    data: &TpchData,
    queries: &[LogicalPlan],
    rel: f64,
    max_pace: u32,
) -> PlannedExecution {
    let queries: Vec<(QueryId, LogicalPlan)> =
        queries.iter().cloned().enumerate().map(|(i, p)| (QueryId(i as u16), p)).collect();
    let cons: BTreeMap<QueryId, FinalWorkConstraint> =
        queries.iter().map(|(q, _)| (*q, FinalWorkConstraint::Relative(rel))).collect();
    let opts = PlanningOptions { max_pace, ..Default::default() };
    plan_workload(Approach::IShare, &queries, &cons, &data.catalog, &opts).unwrap()
}

pub fn sharing_friendly(data: &TpchData, n: usize) -> Vec<LogicalPlan> {
    let all = sharing_friendly_queries(&data.catalog).unwrap();
    all.into_iter().take(n).map(|q| q.plan).collect()
}

/// `qa`, `qb` (the paper's Fig. 2 pair) and `q6`.
pub fn fig2_and_q6(data: &TpchData) -> Vec<LogicalPlan> {
    let named = ["qa", "qb", "q6"].map(|n| query_by_name(&data.catalog, n).unwrap().plan);
    named.to_vec()
}

/// The kernels workload: the first `n` sharing-friendly queries at SF
/// 0.002, seed 11, planned by iShare at `Relative(0.25)`, max pace 8.
pub fn kernels_workload(n: usize) -> (TpchData, PlannedExecution) {
    let data = generate(0.002, 11).unwrap();
    let planned = tpch_plan(&data, &sharing_friendly(&data, n), 0.25, 8);
    (data, planned)
}

/// The kernels workload's six queries over insert-only feeds, run by
/// `Kernels`.
pub const KERNELS: Golden = Golden {
    total_work_bits: 0x4121_cf46_0000_0000,
    result_checksum: 0x2dc9_d305_5b99_a3fc,
    executions: 128,
    final_work_bits: &[
        0x40d0_d400_0000_0000,
        0x40e5_f3c0_0000_0000,
        0x40ef_9ca0_0000_0000,
        0x40e8_74a0_0000_0000,
        0x40eb_e340_0000_0000,
        0x40c5_f400_0000_0000,
    ],
};

/// `planned` over `Vec`-fed `feeds`.
pub fn run_vec(
    planned: &PlannedExecution,
    data: &TpchData,
    feeds: &HashMap<TableId, DeltaFeed>,
    opts: SourceOptions,
) -> Digest {
    let (plan, paces, w) = (&planned.plan, planned.paces.as_slice(), CostWeights::default());
    let run = execute_planned_deltas_with(plan, paces, &data.catalog, feeds, w, opts);
    Digest::of(&run.unwrap(), None)
}

pub fn run_fixed(
    planned: &PlannedExecution,
    data: &TpchData,
    source: &mut Source,
    opts: SourceOptions,
) -> SourceOutcome {
    let (plan, paces) = (&planned.plan, planned.paces.as_slice());
    execute_from_source_obs(plan, paces, &data.catalog, source, CostWeights::default(), opts)
        .unwrap()
}

//! The shadow wavefront loop: the sequential driver rebuilt in the benchmark
//! from public functions only, with a span around every call into a layer.
//!
//! It exists so that the per-layer numbers come from outside the program. It
//! is only trusted because it must charge exactly the work the real driver
//! charged: the caller compares `total_work` bit for bit and fails the
//! benchmark on any difference.

use crate::api::*;
use crate::trace::Tracer;
use std::collections::{BTreeMap, HashMap};

/// Root operator of a subplan, the split `exec.execute_*_root_s` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootKind {
    Join,
    Aggregate,
    Other,
}

/// Normalized plans wrap every subplan in selects and projections, so the
/// root that tells subplans apart is the first operator below those.
fn root_kind(tree: &OpTree) -> RootKind {
    match (&tree.op, tree.inputs.first()) {
        (TreeOp::Select { .. } | TreeOp::Project { .. }, Some(input)) => root_kind(input),
        (TreeOp::Join { .. }, _) => RootKind::Join,
        (TreeOp::Aggregate { .. }, _) => RootKind::Aggregate,
        _ => RootKind::Other,
    }
}

/// One `SubplanExecutor::execute` call.
#[derive(Debug, Clone, Copy)]
pub struct ExecSample {
    pub root: RootKind,
    pub secs: f64,
}

/// What one shadow run charged and counted.
pub struct ShadowOut {
    pub total_work: WorkUnits,
    pub breakdown: WorkBreakdown,
    pub executions: usize,
    pub wavefronts: usize,
    /// Deltas delivered by the source.
    pub rows: u64,
    /// Rows pulled into executions, summed over leaves.
    pub rows_in: u64,
    pub exec: Vec<ExecSample>,
    /// Σ over buffers of the most rows ever held / still held at the end.
    pub high_water_rows: usize,
    pub retained_rows: usize,
    /// Σ over executors of stored join/aggregate state entries at the end.
    pub state_rows: usize,
    pub stall_ticks: u64,
    pub reorder_high_water: usize,
    pub results: BTreeMap<QueryId, QueryResult>,
}

/// Run `plan` at `paces` over `source`, mirroring `run_from_source` (and,
/// with `retain_base`, the churn runner on an empty script, which keeps base
/// buffers whole). With a controller the loop adapts exactly like
/// `execute_adaptive_from_source_obs`.
#[allow(clippy::too_many_arguments)]
pub fn shadow_run(
    tr: &mut Tracer,
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    source: &mut Source,
    weights: CostWeights,
    retain_base: bool,
    mut adapt: Option<&mut AdaptController>,
) -> Result<ShadowOut> {
    let root_span = tr.enter("stream.shadow_run");

    // Wiring, as `setup_engine`: one buffer per subplan and base table, one
    // consumer per leaf; query roots keep their full stream.
    let wiring = tr.enter("exec.new");
    let schemas = plan.schemas(catalog)?;
    let mut base_buffers: HashMap<TableId, DeltaBuffer> = HashMap::new();
    let mut sp_buffers: Vec<DeltaBuffer> = (0..plan.len()).map(|_| DeltaBuffer::new()).collect();
    for q in plan.queries().iter() {
        if let Some(root) = plan.query_root(q) {
            sp_buffers[root.index()].set_retention(Retain::All);
        }
    }
    let mut executors: Vec<SubplanExecutor> = Vec::with_capacity(plan.len());
    let mut leaf_consumers: Vec<Vec<(Vec<usize>, InputSource, ConsumerId)>> = Vec::new();
    for sp in &plan.subplans {
        let ex = SubplanExecutor::new_with_options(
            sp,
            catalog,
            &schemas,
            weights,
            ExecOptions::default(),
        )?;
        let mut regs = Vec::new();
        for (path, src) in ex.leaf_paths() {
            let consumer = match src {
                InputSource::Base(t) => base_buffers.entry(t).or_default().register_consumer()?,
                InputSource::Subplan(c) => sp_buffers[c.index()].register_consumer()?,
            };
            regs.push((path, src, consumer));
        }
        executors.push(ex);
        leaf_consumers.push(regs);
    }
    if retain_base {
        for b in base_buffers.values_mut() {
            b.set_retention(Retain::All);
        }
    }
    let mut base_tables: Vec<TableId> = base_buffers.keys().copied().collect();
    base_tables.sort();
    let roots: Vec<RootKind> = plan.subplans.iter().map(|sp| root_kind(&sp.root)).collect();
    tr.exit(wiring);

    let mut tick_list = tr.span("stream.schedule", || build_schedule(plan, paces))?;
    let mut active_paces = paces.to_vec();
    let all_queries = plan.queries();

    let mut total_work = WorkUnits::ZERO;
    let mut breakdown = WorkBreakdown::default();
    let mut exec = Vec::with_capacity(tick_list.len());
    let mut final_sp_work = vec![0.0f64; plan.len()];
    let mut tallies: BTreeMap<TableId, (u64, u64)> = BTreeMap::new();
    let (mut rows, mut rows_in) = (0u64, 0u64);
    let mut pos = 0;
    let mut wf = 0;
    while pos < tick_list.len() {
        let front = front_at(&tick_list, pos);
        let head = tick_list[front.start];

        // One cut per table per wavefront. The driver pushes from inside
        // the sink; the shadow collects first so that ingest and storage
        // time separate.
        let mut cut: Vec<(TableId, DeltaRow)> = Vec::new();
        let advance = tr.enter("ingest.advance");
        for &t in &base_tables {
            source.advance_to(t, head.num, head.den, |row, weight| {
                cut.push((t, DeltaRow { row, weight, mask: all_queries }))
            })?;
        }
        tr.exit(advance);
        rows += cut.len() as u64;
        let push = tr.enter("storage.push");
        for (t, dr) in cut {
            let tally = tallies.entry(t).or_insert((0, 0));
            tally.0 += 1;
            if dr.weight < 0 {
                tally.1 += 1;
            }
            base_buffers.get_mut(&t).expect("registered table").push(dr);
        }
        tr.exit(push);

        for tick in &tick_list[front.clone()] {
            let i = tick.sp.index();
            let counter = WorkCounter::new();
            let mut inputs = HashMap::new();
            let pull = tr.enter("storage.pull");
            for (path, src, consumer) in &leaf_consumers[i] {
                let batch = match src {
                    InputSource::Base(t) => {
                        base_buffers.get_mut(t).expect("registered table").pull(*consumer)?
                    }
                    InputSource::Subplan(c) => sp_buffers[c.index()].pull(*consumer)?,
                };
                rows_in += batch.len() as u64;
                inputs.insert(path.clone(), batch);
            }
            tr.exit(pull);
            let execute = tr.enter("exec.execute");
            let out = executors[i].execute(&mut inputs, &counter)?;
            tr.exit(execute);
            exec.push(ExecSample { root: roots[i], secs: tr.spans()[execute].secs() });
            counter.charge(OpKind::Materialize, weights.materialize, out.len());
            tr.span("storage.append", || sp_buffers[i].append(&out));
            let work = counter.total();
            total_work += work;
            breakdown.add(&counter.breakdown());
            if tick.is_final {
                final_sp_work[i] = work.get();
            }
        }

        let compact = tr.enter("storage.compact");
        for b in base_buffers.values_mut() {
            b.compact();
        }
        for b in sp_buffers.iter_mut() {
            b.compact();
        }
        tr.exit(compact);
        tr.span("ingest.commit", || {
            source.commit(wf, head.num, head.den, &active_paces);
        });

        if let Some(ctrl) = adapt.as_deref_mut() {
            let observe = tr.enter("core.adapt_observe");
            let mut charged_final = BTreeMap::new();
            for q in all_queries.iter() {
                let sum: f64 =
                    plan.subplans_of_query(q).iter().map(|id| final_sp_work[id.index()]).sum();
                charged_final.insert(q, sum);
            }
            let obs = WavefrontObservation {
                wavefront: wf,
                num: head.num,
                den: head.den,
                charged_final,
                tables: tallies
                    .iter()
                    .map(|(t, &(delivered, deletes))| ObservedTable {
                        table: *t,
                        delivered,
                        deletes,
                    })
                    .collect(),
            };
            let switch = ctrl.observe(&obs)?;
            tr.exit(observe);
            if let Some(new_paces) = switch {
                tick_list = tr.span("stream.schedule", || {
                    reschedule_after(plan, &tick_list[..front.end], head.num, head.den, &new_paces)
                })?;
                active_paces = new_paces;
            }
        }
        pos = front.end;
        wf += 1;
    }

    let mut results = BTreeMap::new();
    let extract = tr.enter("exec.results");
    for q in all_queries.iter() {
        if let Some(root) = plan.query_root(q) {
            results.insert(q, query_result(sp_buffers[root.index()].all_rows(), q));
        }
    }
    tr.exit(extract);

    let buffers = || base_buffers.values().chain(sp_buffers.iter());
    let high_water_rows = buffers().map(DeltaBuffer::high_water).sum();
    let retained_rows = buffers().map(DeltaBuffer::retained_len).sum();
    let state_rows = executors.iter().map(SubplanExecutor::state_rows).sum();
    // The driver frees operator state and buffers before it returns, so the
    // wall of its `execute_*` call includes this.
    tr.span("exec.teardown", || drop((executors, base_buffers, sp_buffers)));
    tr.exit(root_span);

    let stats = source.stats();
    Ok(ShadowOut {
        total_work,
        breakdown,
        executions: exec.len(),
        wavefronts: wf,
        rows,
        rows_in,
        exec,
        high_water_rows,
        retained_rows,
        state_rows,
        stall_ticks: stats.iter().map(|s| s.stall_ticks).sum(),
        reorder_high_water: stats.iter().map(|s| s.reorder_high_water).max().unwrap_or(0),
        results,
    })
}

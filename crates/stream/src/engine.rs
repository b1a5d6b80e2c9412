//! Engine wiring and the one tick function.
//!
//! [`EngineState`] is the buffers, executors and consumer registrations of
//! one shared plan. The wavefront loop ([`crate::driver`]) feeds it, runs a
//! front's ticks through [`EngineState::run_ticks`], and compacts it; live
//! churn ([`crate::admission`]) rebuilds it around a re-cut plan between
//! two fronts.
//!
//! # Determinism
//!
//! Every tick runs on the calling thread, in schedule order: arrival
//! fraction, then topological rank, so children run before their parents.
//! Each tick's work is tallied on a tick-local [`WorkCounter`] and its
//! record is appended as soon as it finishes, so every later sum sees the
//! records in schedule order.

use crate::schedule::Tick;
use ishare_common::{CostWeights, OpKind, Result, TableId, WorkBreakdown, WorkCounter, WorkUnits};
use ishare_exec::{ExecOptions, SubplanExecutor};
use ishare_plan::{InputSource, SharedPlan};
use ishare_storage::{Catalog, ConsumerId, DeltaBatch, DeltaBuffer, Retain};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One-shot leaf input batches of a subplan, by leaf path: state handed to
/// an admitted query, merged ahead of the pulled rows at the next execution.
pub(crate) type Seeds = HashMap<Vec<usize>, DeltaBatch>;

/// Buffers, executors, and the consumer registrations wiring them together.
pub(crate) struct EngineState {
    pub(crate) base_buffers: HashMap<TableId, DeltaBuffer>,
    /// Registered base tables in sorted order: the order the loop advances
    /// the ingest topics in.
    pub(crate) base_tables: Vec<TableId>,
    pub(crate) sp_buffers: Vec<DeltaBuffer>,
    pub(crate) executors: Vec<SubplanExecutor>,
    /// Per subplan: `(leaf path, source, consumer)` for each leaf input.
    pub(crate) leaf_consumers: Vec<Vec<(Vec<usize>, InputSource, ConsumerId)>>,
    /// Per subplan: pending seed batches (empty outside churn runs).
    pub(crate) seeds: Vec<Seeds>,
    pub(crate) weights: CostWeights,
    /// Base buffers keep their whole stream: set for churn runs, whose
    /// admitted cones replay base history from offset 0.
    base_history: bool,
}

/// Measurement of one execution: the tick, its deterministic work numbers,
/// and the passive observations (wall, start offset from the run's
/// beginning) the trace is built from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TickRec {
    pub(crate) tick: Tick,
    pub(crate) depth: u32,
    pub(crate) work: WorkUnits,
    pub(crate) wall: Duration,
    pub(crate) breakdown: WorkBreakdown,
    pub(crate) start: Duration,
}

/// The buffer a leaf reads.
fn buffer<'e>(
    base: &'e mut HashMap<TableId, DeltaBuffer>,
    sp: &'e mut [DeltaBuffer],
    src: &InputSource,
) -> &'e mut DeltaBuffer {
    match src {
        InputSource::Base(t) => base.get_mut(t).expect("registered table"),
        InputSource::Subplan(c) => &mut sp[c.index()],
    }
}

impl EngineState {
    /// Build executors, buffers, and consumer registrations for `plan`.
    /// `base_history` keeps every base buffer's full stream (churn runs).
    pub(crate) fn new(
        plan: &SharedPlan,
        catalog: &Catalog,
        weights: CostWeights,
        options: ExecOptions,
        base_history: bool,
    ) -> Result<EngineState> {
        let schemas = plan.schemas(catalog)?;
        let mut base_buffers: HashMap<TableId, DeltaBuffer> = HashMap::new();
        let mut sp_buffers: Vec<DeltaBuffer> =
            (0..plan.len()).map(|_| DeltaBuffer::new()).collect();
        let mut executors: Vec<SubplanExecutor> = Vec::with_capacity(plan.len());
        let mut leaf_consumers = Vec::with_capacity(plan.len());
        for sp in &plan.subplans {
            let ex = SubplanExecutor::new_with_options(sp, catalog, &schemas, weights, options)?;
            let mut regs = Vec::new();
            for (path, src) in ex.leaf_paths() {
                let consumer = match src {
                    InputSource::Base(t) => {
                        catalog.table(t)?; // existence check
                        base_buffers.entry(t).or_default().register_consumer()?
                    }
                    InputSource::Subplan(c) => sp_buffers[c.index()].register_consumer()?,
                };
                regs.push((path, src, consumer));
            }
            executors.push(ex);
            leaf_consumers.push(regs);
        }
        let seeds = (0..plan.len()).map(|_| Seeds::new()).collect();
        let mut engine = EngineState {
            base_buffers,
            base_tables: Vec::new(),
            sp_buffers,
            executors,
            leaf_consumers,
            seeds,
            weights,
            base_history,
        };
        engine.settle(plan);
        Ok(engine)
    }

    /// Settle what follows from `plan`'s wiring, after `new` builds it or a
    /// churn re-cut rebuilds it: the sorted base tables, and the one
    /// retention rule. Query roots keep their full stream ([`Retain::All`]:
    /// it backs the final result views), so do a churn run's base buffers,
    /// and every other buffer drops its consumed prefix on `compact`.
    /// Retention only widens: a buffer a re-cut carries over keeps the
    /// stream it already kept.
    pub(crate) fn settle(&mut self, plan: &SharedPlan) {
        for q in plan.queries().iter() {
            if let Some(root) = plan.query_root(q) {
                self.sp_buffers[root.index()].set_retention(Retain::All);
            }
        }
        if self.base_history {
            for b in self.base_buffers.values_mut() {
                b.set_retention(Retain::All);
            }
        }
        self.base_tables = self.base_buffers.keys().copied().collect();
        self.base_tables.sort();
    }

    /// Reclaim fully consumed prefixes. Consumers never re-read below their
    /// cursor, cursors are absolute, and query roots retain everything, so
    /// this cannot change what later ticks or the result views see.
    pub(crate) fn compact(&mut self) {
        for b in self.base_buffers.values_mut().chain(self.sp_buffers.iter_mut()) {
            b.compact();
        }
    }

    /// `true` iff an execution of subplan `i` would see any input.
    fn has_input(&mut self, i: usize) -> Result<bool> {
        if !self.seeds[i].is_empty() {
            return Ok(true);
        }
        for (_, src, consumer) in &self.leaf_consumers[i] {
            if buffer(&mut self.base_buffers, &mut self.sp_buffers, src).pending(*consumer)? > 0 {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// One incremental execution of subplan `i`: pull every leaf delta
    /// (a pending seed batch goes ahead of the pulled rows), run the
    /// subplan, charge the materialization, append the output.
    fn run_tick(&mut self, i: usize) -> Result<(WorkUnits, Duration, WorkBreakdown)> {
        let counter = WorkCounter::new();
        let started = Instant::now();
        let mut seeds = std::mem::take(&mut self.seeds[i]);
        let mut inputs = HashMap::new();
        for (path, src, consumer) in &self.leaf_consumers[i] {
            let mut batch =
                buffer(&mut self.base_buffers, &mut self.sp_buffers, src).pull(*consumer)?;
            if let Some(mut seed) = seeds.remove(path) {
                seed.rows.extend(batch.rows);
                batch = seed;
            }
            inputs.insert(path.clone(), batch);
        }
        let out = self.executors[i].execute(&mut inputs, &counter)?;
        counter.charge(OpKind::Materialize, self.weights.materialize, out.len());
        self.sp_buffers[i].extend(out);
        Ok((counter.total(), started.elapsed(), counter.breakdown()))
    }

    /// Execute `ticks` — one wavefront, sorted children-first — in order,
    /// appending one [`TickRec`] per execution to `recs`. With
    /// `drain_only`, a tick whose subplan has no pending input is skipped
    /// (the quiesce sweep of a churn boundary).
    pub(crate) fn run_ticks(
        &mut self,
        ticks: &[Tick],
        drain_only: bool,
        depths: &[usize],
        run_started: Instant,
        recs: &mut Vec<TickRec>,
    ) -> Result<()> {
        for tick in ticks {
            let i = tick.sp.index();
            if drain_only && !self.has_input(i)? {
                continue;
            }
            let start = run_started.elapsed();
            let (work, wall, breakdown) = self.run_tick(i)?;
            let depth = depths[i] as u32;
            recs.push(TickRec { tick: *tick, depth, work, wall, breakdown, start });
        }
        Ok(())
    }
}

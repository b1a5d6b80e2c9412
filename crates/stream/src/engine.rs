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
//! A front's ticks run level by level ([`depth_levels`]); the ticks of one
//! level run on the calling thread when there is one worker or one tick,
//! and on a pool of scoped threads otherwise. Either way the outcome is
//! bit-identical:
//!
//! - Ticks only run concurrently when their subplans share a dependency
//!   depth, and a parent is strictly deeper than each of its children — so
//!   no concurrently running tick reads a buffer another one writes. Each
//!   tick consumes exactly the deltas it would have seen on one thread, and
//!   produces exactly the same output batch.
//! - Each tick's work is tallied on a tick-local [`WorkCounter`]; the
//!   per-tick records are appended in schedule order after the level's
//!   threads join, so every later sum sees them in that order.
//! - A failing level reports the earliest failing tick in schedule order,
//!   regardless of which worker hit an error first.

use crate::schedule::{depth_levels, Tick};
use ishare_common::{CostWeights, OpKind, Result, TableId, WorkBreakdown, WorkCounter, WorkUnits};
use ishare_exec::{ExecOptions, SubplanExecutor};
use ishare_plan::{InputSource, SharedPlan};
use ishare_storage::{Catalog, ConsumerId, DeltaBatch, DeltaBuffer, Retain};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
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
}

/// Measurement of one execution: the tick, its deterministic work numbers,
/// and the passive observations (wall, start offset from the run's
/// beginning, worker index) the trace is built from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TickRec {
    pub(crate) tick: Tick,
    pub(crate) depth: u32,
    pub(crate) work: WorkUnits,
    pub(crate) wall: Duration,
    pub(crate) breakdown: WorkBreakdown,
    pub(crate) start: Duration,
    pub(crate) worker: u32,
}

type TickOutcome = Result<(WorkUnits, Duration, WorkBreakdown)>;

/// The engine borrowed for one front, every piece behind its own lock so
/// the ticks of a level can share it across threads. Plain `Mutex` (not
/// `RwLock`): every buffer access — even a read — advances a consumer
/// cursor. Built per front, so everything between fronts (feeding,
/// compaction, churn surgery) works on the plain [`EngineState`].
struct FrontView<'e> {
    base: HashMap<TableId, Mutex<&'e mut DeltaBuffer>>,
    sp: Vec<Mutex<&'e mut DeltaBuffer>>,
    executors: Vec<Mutex<&'e mut SubplanExecutor>>,
    seeds: Vec<Mutex<&'e mut Seeds>>,
    leaf_consumers: &'e [Vec<(Vec<usize>, InputSource, ConsumerId)>],
    weights: &'e CostWeights,
}

fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("engine lock poisoned")
}

impl<'e> FrontView<'e> {
    fn buffer(&self, src: &InputSource) -> MutexGuard<'_, &'e mut DeltaBuffer> {
        match src {
            InputSource::Base(t) => locked(self.base.get(t).expect("registered table")),
            InputSource::Subplan(c) => locked(&self.sp[c.index()]),
        }
    }

    /// `true` iff an execution of subplan `i` would see any input.
    fn has_input(&self, i: usize) -> Result<bool> {
        if !locked(&self.seeds[i]).is_empty() {
            return Ok(true);
        }
        for (_, src, consumer) in &self.leaf_consumers[i] {
            if self.buffer(src).pending(*consumer)? > 0 {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// One incremental execution of subplan `i`: pull every leaf delta
    /// (a pending seed batch goes ahead of the pulled rows), run the
    /// subplan, charge the materialization, append the output. Locks are
    /// taken one at a time and never nested, so workers cannot deadlock;
    /// within a level no two ticks touch the same executor or write the
    /// same buffer, so contention is limited to sibling pulls of a shared
    /// child.
    fn run_tick(&self, i: usize) -> TickOutcome {
        let counter = WorkCounter::new();
        let started = Instant::now();
        let mut seeds = std::mem::take(&mut **locked(&self.seeds[i]));
        let mut inputs = HashMap::new();
        for (path, src, consumer) in &self.leaf_consumers[i] {
            let mut batch = self.buffer(src).pull(*consumer)?;
            if let Some(mut seed) = seeds.remove(path) {
                seed.rows.extend(batch.rows);
                batch = seed;
            }
            inputs.insert(path.clone(), batch);
        }
        let out = locked(&self.executors[i]).execute(&mut inputs, &counter)?;
        counter.charge(OpKind::Materialize, self.weights.materialize, out.len());
        locked(&self.sp[i]).append(&out);
        Ok((counter.total(), started.elapsed(), counter.breakdown()))
    }
}

impl EngineState {
    /// Build executors, buffers, and consumer registrations for `plan`.
    ///
    /// Retention policy is decided here, once: query-root buffers keep
    /// their full stream ([`Retain::All`] — it backs the final result
    /// views), every other buffer drops its consumed prefix on `compact`.
    pub(crate) fn new(
        plan: &SharedPlan,
        catalog: &Catalog,
        weights: CostWeights,
        options: ExecOptions,
    ) -> Result<EngineState> {
        let schemas = plan.schemas(catalog)?;
        let mut base_buffers: HashMap<TableId, DeltaBuffer> = HashMap::new();
        let mut sp_buffers: Vec<DeltaBuffer> =
            (0..plan.len()).map(|_| DeltaBuffer::new()).collect();
        for q in plan.queries().iter() {
            if let Some(root) = plan.query_root(q) {
                sp_buffers[root.index()].set_retention(Retain::All);
            }
        }
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
        let mut base_tables: Vec<TableId> = base_buffers.keys().copied().collect();
        base_tables.sort();
        let seeds = (0..plan.len()).map(|_| Seeds::new()).collect();
        Ok(EngineState {
            base_buffers,
            base_tables,
            sp_buffers,
            executors,
            leaf_consumers,
            seeds,
            weights,
        })
    }

    fn view(&mut self) -> FrontView<'_> {
        FrontView {
            base: self.base_buffers.iter_mut().map(|(t, b)| (*t, Mutex::new(b))).collect(),
            sp: self.sp_buffers.iter_mut().map(Mutex::new).collect(),
            executors: self.executors.iter_mut().map(Mutex::new).collect(),
            seeds: self.seeds.iter_mut().map(Mutex::new).collect(),
            leaf_consumers: &self.leaf_consumers,
            weights: &self.weights,
        }
    }

    /// Reclaim fully consumed prefixes. Consumers never re-read below their
    /// cursor, cursors are absolute, and query roots retain everything, so
    /// this cannot change what later ticks or the result views see.
    pub(crate) fn compact(&mut self) {
        for b in self.base_buffers.values_mut().chain(self.sp_buffers.iter_mut()) {
            b.compact();
        }
    }

    /// Execute `ticks` — one wavefront, sorted children-first — level by
    /// level on `workers` threads, appending one [`TickRec`] per execution
    /// to `recs` in schedule order. With `drain_only`, a tick whose subplan
    /// has no pending input when its level starts is skipped (the quiesce
    /// sweep of a churn boundary).
    pub(crate) fn run_ticks(
        &mut self,
        ticks: &[Tick],
        drain_only: bool,
        depths: &[usize],
        workers: usize,
        run_started: Instant,
        recs: &mut Vec<TickRec>,
    ) -> Result<()> {
        let view = self.view();
        let rec = |tick: &Tick, (work, wall, breakdown), start, worker| TickRec {
            tick: *tick,
            depth: depths[tick.sp.index()] as u32,
            work,
            wall,
            breakdown,
            start,
            worker,
        };
        let mut due = Vec::new();
        for level in depth_levels(ticks, depths) {
            let mut level = &ticks[level];
            if drain_only {
                due.clear();
                for tick in level {
                    if view.has_input(tick.sp.index())? {
                        due.push(*tick);
                    }
                }
                level = &due;
            }
            if workers <= 1 || level.len() <= 1 {
                for tick in level {
                    let start = run_started.elapsed();
                    recs.push(rec(tick, view.run_tick(tick.sp.index())?, start, 0));
                }
                continue;
            }
            // Workers grab the next tick of the level until it is drained.
            let next = AtomicUsize::new(0);
            let mut outcomes: Vec<(usize, TickOutcome, Duration, u32)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers.min(level.len()) as u32)
                    .map(|w| {
                        let (next, view) = (&next, &view);
                        s.spawn(move || {
                            let mut done = Vec::new();
                            loop {
                                let j = next.fetch_add(1, Ordering::Relaxed);
                                let Some(tick) = level.get(j) else { break };
                                let start = run_started.elapsed();
                                done.push((j, view.run_tick(tick.sp.index()), start, w));
                            }
                            done
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("worker thread panicked"))
                    .collect()
            });
            outcomes.sort_by_key(|(j, ..)| *j);
            for (j, outcome, start, w) in outcomes {
                recs.push(rec(&level[j], outcome?, start, w));
            }
        }
        Ok(())
    }
}

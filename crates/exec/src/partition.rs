//! Intra-subplan data parallelism: hash-partitioned stateful operators
//! behind an exchange that preserves the sequential emission order exactly.
//!
//! The paced scheduler spreads *subplans* over time and the parallel driver
//! spreads independent subplans over threads, but a single heavy join or
//! aggregate still ran on one thread. This module shards the *state* of one
//! stateful operator: its [`FlatTable`](crate::flat::FlatTable) rows are
//! owned by `N` partitions keyed by `hash(encoded key) % N`
//! ([`ishare_common::fxhash::partition_of`]), and each incremental execution
//! routes its delta rows to their owning partition (the exchange), executes
//! every partition independently — optionally on scoped worker threads —
//! and merges the partition outputs back into the exact order the
//! unpartitioned operator would have emitted.
//!
//! The exchange sits *per stateful operator*, not per subplan tree: a tree
//! like `Agg(Join(t, u))` partitions the join by the join key and the
//! aggregate by its group key independently, with stateless operators
//! (select/project/input-narrowing) running unchanged on merged batches in
//! between. That costs one merge per stateful operator but keeps each
//! operator's state local to the key it is actually keyed by.
//!
//! Three invariants make the partitioned path bit-identical to the
//! sequential one, which is what lets every existing differential suite
//! keep its oracle:
//!
//! 1. **Value-pure routing.** Rows are routed by the *evaluated key value*
//!    (the join side's key exprs, the aggregate's group-by), encoded through
//!    one router-owned interner — so equal keys always share a partition,
//!    and all state transitions of one key replay in input order inside one
//!    partition. Rows whose key contains NULL route to partition 0 by rule
//!    (a NULL join key never matches; a NULL group key still groups — and
//!    equal NULL-containing group keys bail identically, so they co-locate).
//! 2. **Traced execution.** Each partition records where its outputs came
//!    from ([`JoinTrace`]: emissions per probe row; [`AggTrace`]: flush
//!    records per touched group). A join emits left-probe output before
//!    right-probe output, each phase in batch-row order; an aggregate
//!    flushes groups in first-touch order, and groups partition disjointly.
//!    Splicing per-row runs in original batch order (join) / N-way merging
//!    flush runs by first-touch row index (agg) therefore reconstructs the
//!    sequential emission order exactly — not approximately.
//! 3. **Exact work absorption.** Each partition charges a private
//!    [`WorkCounter`]; the per-kind breakdowns are absorbed into the main
//!    counter in partition-index order ([`WorkCounter::absorb`]). With the
//!    engine's dyadic cost weights every per-kind sum is exact in f64, so
//!    totals — including the per-query final-work numbers the paper's
//!    constraints are stated over — come out bit-equal to the sequential
//!    counter's.
//!
//! Error paths are the one documented divergence: partitions execute
//! independently, so when several fail the exchange deterministically
//! reports the lowest partition index's error, which need not be the error
//! the sequential row order would have hit first. On valid streams (no
//! over-retraction, well-typed keys) the paths are indistinguishable.

use crate::aggregate::{AggSpec, AggState, AggTrace};
use crate::join::{JoinKeys, JoinState, JoinTrace};
use ishare_common::fxhash::partition_of;
use ishare_common::{
    CostWeights, KeyBuf, QueryId, Result, StrInterner, WorkBreakdown, WorkCounter,
};
use ishare_expr::KeyExtractor;
use ishare_storage::{DeltaBatch, DeltaRow};

/// Cumulative per-partition load of one partitioned operator: how many
/// delta rows the exchange routed to the partition and how much work the
/// partition charged, across all executions so far. Feeds the `obs`
/// per-partition work/skew gauges and the partition-scaling bench.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PartitionStat {
    /// Delta rows routed to this partition (both sides for a join).
    pub rows: u64,
    /// Work units charged by this partition's executions.
    pub work: f64,
}

/// The exchange half shared by both operators: route a batch to partitions
/// by encoded key, remembering each row's owner so the merge can splice.
struct Router {
    extractor: KeyExtractor,
    interner: StrInterner,
    scratch: KeyBuf,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router").field("key_columns", &self.extractor.len()).finish()
    }
}

impl Router {
    fn new(extractor: KeyExtractor) -> Router {
        Router { extractor, interner: StrInterner::new(), scratch: KeyBuf::new() }
    }

    /// Split `batch` into per-partition sub-batches (rows kept in batch
    /// order) and return each original row's owning partition.
    fn route(
        &mut self,
        batch: &DeltaBatch,
        partitions: usize,
    ) -> Result<(Vec<DeltaBatch>, Vec<u32>)> {
        let mut parts: Vec<DeltaBatch> = (0..partitions).map(|_| DeltaBatch::new()).collect();
        let mut owners = Vec::with_capacity(batch.len());
        for dr in &batch.rows {
            let keyed =
                self.extractor.encode(dr.row.values(), &mut self.scratch, &mut self.interner)?;
            let p = if keyed {
                partition_of(self.scratch.as_words(), partitions)
            } else {
                // NULL in the key: no hashable value. Route by fixed rule so
                // equal (NULL-containing) keys still co-locate.
                0
            };
            owners.push(p as u32);
            parts[p].push(dr.clone());
        }
        Ok((parts, owners))
    }
}

/// Run one closure per partition, inline or on scoped worker threads, and
/// return the outcomes in partition order, each with the partition's
/// private work breakdown. Thread count only affects wall-clock: outcomes
/// and charges are a pure function of the inputs.
fn run_partitioned<S, T, R, F>(
    threads: usize,
    states: &mut [S],
    inputs: Vec<T>,
    f: F,
) -> Vec<Result<(R, WorkBreakdown)>>
where
    S: Send,
    T: Send,
    R: Send,
    F: Fn(&mut S, T, &WorkCounter) -> Result<R> + Sync,
{
    let run_one = |st: &mut S, inp: T| {
        let counter = WorkCounter::new();
        f(st, inp, &counter).map(|out| (out, counter.breakdown()))
    };
    if threads > 1 && states.len() > 1 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = states
                .iter_mut()
                .zip(inputs)
                .map(|(st, inp)| {
                    let run_one = &run_one;
                    scope.spawn(move || run_one(st, inp))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("partition worker panicked")).collect()
        })
    } else {
        states.iter_mut().zip(inputs).map(|(st, inp)| run_one(st, inp)).collect()
    }
}

/// Unwrap partition outcomes: absorb every partition's charges into
/// `counter` in partition-index order (and into the per-partition work
/// stats), or return the lowest-index error without absorbing anything.
fn collect_outcomes<T>(
    outcomes: Vec<Result<(T, WorkBreakdown)>>,
    counter: &WorkCounter,
    stats: &mut [PartitionStat],
) -> Result<Vec<T>> {
    let mut unwrapped = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        unwrapped.push(o?);
    }
    let mut ok = Vec::with_capacity(unwrapped.len());
    for ((v, b), stat) in unwrapped.into_iter().zip(stats) {
        counter.absorb(&b);
        stat.work += b.sum();
        ok.push(v);
    }
    Ok(ok)
}

/// A hash-partitioned symmetric join: `N` independent [`JoinState`]s behind
/// an exchange on the join key. Drop-in for [`JoinState::execute`] with
/// bit-identical output and charges (see the module docs).
#[derive(Debug)]
pub struct PartitionedJoin {
    parts: Vec<JoinState>,
    threads: usize,
    left_router: Router,
    right_router: Router,
    stats: Vec<PartitionStat>,
}

impl PartitionedJoin {
    /// Fresh empty partitioned state. `partitions ≥ 1`; `threads ≤ 1` runs
    /// partitions inline on the calling thread.
    pub fn new(partitions: usize, threads: usize, keys: &JoinKeys) -> PartitionedJoin {
        assert!(partitions > 0, "need at least one partition");
        PartitionedJoin {
            parts: (0..partitions).map(|_| JoinState::new()).collect(),
            threads,
            left_router: Router::new(keys.extractor(false)),
            right_router: Router::new(keys.extractor(true)),
            stats: vec![PartitionStat::default(); partitions],
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Cumulative per-partition routed-row / charged-work load.
    pub fn stats(&self) -> &[PartitionStat] {
        &self.stats
    }

    /// Total stored (row, mask) entries on the left side, all partitions.
    pub fn left_size(&self) -> usize {
        self.parts.iter().map(|p| p.left_size()).sum()
    }

    /// Total stored (row, mask) entries on the right side, all partitions.
    pub fn right_size(&self) -> usize {
        self.parts.iter().map(|p| p.right_size()).sum()
    }

    /// Widen every stored entry whose mask contains `q_ref` with `q_new`,
    /// partition by partition in index order. Routing is unaffected: widening
    /// changes masks, never key values, so each entry stays in its partition.
    pub fn widen_query(&mut self, q_ref: QueryId, q_new: QueryId) {
        for p in &mut self.parts {
            p.widen_query(q_ref, q_new);
        }
    }

    /// Remove `q` from every stored entry and GC entries/keys whose mask
    /// goes empty. Returns the total number of entries reclaimed, summed in
    /// partition-index order (a plain integer sum — partition-count
    /// independent because partitions hold disjoint entries).
    pub fn retire_query(&mut self, q: QueryId) -> Result<usize> {
        self.parts.iter_mut().map(|p| p.retire_query(q)).sum()
    }

    /// Concatenate per-partition [`JoinState::snapshot_product`] outputs in
    /// partition-index order. The result is *unconsolidated and
    /// partition-order dependent*; callers must consolidate globally (sort by
    /// encoded row + merge weights) before the snapshot crosses a
    /// determinism boundary.
    pub fn snapshot_product(&self, q_ref: QueryId, q_new: QueryId) -> Vec<DeltaRow> {
        let mut out = Vec::new();
        for p in &self.parts {
            out.extend(p.snapshot_product(q_ref, q_new));
        }
        out
    }

    /// Run one incremental execution: exchange-route both deltas, execute
    /// every partition (traced), merge outputs in the sequential emission
    /// order — left-probe phase in batch order, then right-probe phase.
    pub fn execute(
        &mut self,
        left_delta: DeltaBatch,
        right_delta: DeltaBatch,
        keys: &JoinKeys,
        weights: &CostWeights,
        counter: &WorkCounter,
    ) -> Result<DeltaBatch> {
        let n = self.parts.len();
        let (left_parts, right_parts, left_owners, right_owners) = {
            let (lp, lo) = self.left_router.route(&left_delta, n)?;
            let (rp, ro) = self.right_router.route(&right_delta, n)?;
            (lp, rp, lo, ro)
        };
        for (p, stat) in self.stats.iter_mut().enumerate() {
            stat.rows += (left_parts[p].len() + right_parts[p].len()) as u64;
        }

        let jobs: Vec<(DeltaBatch, DeltaBatch)> = left_parts.into_iter().zip(right_parts).collect();
        let outcomes = run_partitioned(self.threads, &mut self.parts, jobs, |st, (l, r), c| {
            let mut trace = JoinTrace::default();
            let out = st.execute_traced(l, r, keys, weights, c, Some(&mut trace))?;
            Ok((out, trace))
        });
        let results = collect_outcomes(outcomes, counter, &mut self.stats)?;
        let mut outs: Vec<std::vec::IntoIter<DeltaRow>> = Vec::with_capacity(n);
        let mut traces: Vec<JoinTrace> = Vec::with_capacity(n);
        for (out, trace) in results {
            outs.push(out.rows.into_iter());
            traces.push(trace);
        }

        // Splice: for each original row (left batch first, then right), take
        // that row's emission run from its owner partition's output stream.
        let mut merged = DeltaBatch::new();
        let mut cursor = vec![0usize; n];
        for &p in &left_owners {
            let p = p as usize;
            let count = traces[p].left[cursor[p]] as usize;
            cursor[p] += 1;
            for _ in 0..count {
                merged.push(outs[p].next().expect("traced join output exhausted early"));
            }
        }
        let mut cursor = vec![0usize; n];
        for &p in &right_owners {
            let p = p as usize;
            let count = traces[p].right[cursor[p]] as usize;
            cursor[p] += 1;
            for _ in 0..count {
                merged.push(outs[p].next().expect("traced join output exhausted early"));
            }
        }
        debug_assert!(outs.iter_mut().all(|o| o.next().is_none()), "unmerged join output");
        Ok(merged)
    }
}

/// A hash-partitioned aggregate: `N` independent [`AggState`]s behind an
/// exchange on the group-by key. Drop-in for [`AggState::execute`] with
/// bit-identical output and charges (see the module docs).
#[derive(Debug)]
pub struct PartitionedAgg {
    parts: Vec<AggState>,
    threads: usize,
    router: Router,
    stats: Vec<PartitionStat>,
}

impl PartitionedAgg {
    /// Fresh empty partitioned state. `partitions ≥ 1`; `threads ≤ 1` runs
    /// partitions inline on the calling thread.
    pub fn new(partitions: usize, threads: usize, spec: &AggSpec) -> PartitionedAgg {
        assert!(partitions > 0, "need at least one partition");
        PartitionedAgg {
            parts: (0..partitions).map(|_| AggState::new()).collect(),
            threads,
            router: Router::new(spec.group_extractor()),
            stats: vec![PartitionStat::default(); partitions],
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Cumulative per-partition routed-row / charged-work load.
    pub fn stats(&self) -> &[PartitionStat] {
        &self.stats
    }

    /// Number of live groups, all partitions.
    pub fn group_count(&self) -> usize {
        self.parts.iter().map(|p| p.group_count()).sum()
    }

    /// Total stored state entries (classes + outstanding emitted pairs),
    /// all partitions.
    pub fn state_size(&self) -> usize {
        self.parts.iter().map(|p| p.state_size()).sum()
    }

    /// Widen classes and outstanding emitted pairs containing `q_ref` with
    /// `q_new`, partition by partition in index order.
    pub fn widen_query(&mut self, q_ref: QueryId, q_new: QueryId) {
        for p in &mut self.parts {
            p.widen_query(q_ref, q_new);
        }
    }

    /// Remove `q` from all classes and emitted pairs, GC empties. Returns
    /// the total number of state entries reclaimed (integer sum over
    /// disjoint partitions — partition-count independent).
    pub fn retire_query(&mut self, q: QueryId) -> usize {
        self.parts.iter_mut().map(|p| p.retire_query(q)).sum()
    }

    /// Concatenate per-partition [`AggState::snapshot_emitted`] outputs in
    /// partition-index order. Unconsolidated and partition-order dependent;
    /// callers must consolidate globally before use.
    pub fn snapshot_emitted(&self, q_ref: QueryId, q_new: QueryId) -> Vec<DeltaRow> {
        let mut out = Vec::new();
        for p in &self.parts {
            out.extend(p.snapshot_emitted(q_ref, q_new));
        }
        out
    }

    /// Run one incremental execution: exchange-route by group key, execute
    /// every partition (traced), N-way merge flush runs ascending by the
    /// first-touch row index — the sequential flush order.
    pub fn execute(
        &mut self,
        input: DeltaBatch,
        spec: &AggSpec,
        agg_int: &[bool],
        weights: &CostWeights,
        counter: &WorkCounter,
    ) -> Result<DeltaBatch> {
        let n = self.parts.len();
        let (parts_in, owners) = self.router.route(&input, n)?;
        // Map each partition's local row index back to the original batch
        // index, for the first-touch merge key.
        let mut locals: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, &p) in owners.iter().enumerate() {
            locals[p as usize].push(i as u32);
        }
        for (p, stat) in self.stats.iter_mut().enumerate() {
            stat.rows += parts_in[p].len() as u64;
        }

        let outcomes = run_partitioned(self.threads, &mut self.parts, parts_in, |st, batch, c| {
            let mut trace = AggTrace::default();
            let out = st.execute_traced(batch, spec, agg_int, weights, c, Some(&mut trace))?;
            Ok((out, trace))
        });
        let results = collect_outcomes(outcomes, counter, &mut self.stats)?;
        let mut outs: Vec<std::vec::IntoIter<DeltaRow>> = Vec::with_capacity(n);
        let mut runs: Vec<std::vec::IntoIter<(u32, u32)>> = Vec::with_capacity(n);
        for (p, (out, trace)) in results.into_iter().enumerate() {
            outs.push(out.rows.into_iter());
            // Rewrite local first-touch indices to original batch indices.
            let global: Vec<(u32, u32)> = trace
                .groups
                .into_iter()
                .map(|(local, emits)| (locals[p][local as usize], emits))
                .collect();
            runs.push(global.into_iter());
        }

        // N-way merge ascending by first-touch original row index. Each
        // partition's runs are already ascending (local first-touch order
        // maps monotonically to original indices), and indices are distinct
        // across partitions, so the order is total and deterministic.
        let mut merged = DeltaBatch::new();
        let mut heads: Vec<Option<(u32, u32)>> = runs.iter_mut().map(|r| r.next()).collect();
        loop {
            let mut best: Option<(usize, u32)> = None;
            for (p, head) in heads.iter().enumerate() {
                if let Some((first, _)) = head {
                    if best.is_none_or(|(_, bf)| *first < bf) {
                        best = Some((p, *first));
                    }
                }
            }
            let Some((p, _)) = best else { break };
            let (_, emits) = heads[p].take().expect("picked head exists");
            for _ in 0..emits {
                merged.push(outs[p].next().expect("traced agg output exhausted early"));
            }
            heads[p] = runs[p].next();
        }
        debug_assert!(outs.iter_mut().all(|o| o.next().is_none()), "unmerged agg output");
        Ok(merged)
    }
}

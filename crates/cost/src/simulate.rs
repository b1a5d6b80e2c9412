//! Per-subplan pace simulation.
//!
//! "To estimate the cost of a subplan with a pace k, we take the estimated
//! total input data of this subplan and start k incremental executions where
//! each processes 1/k of its total input data." (Sec. 3.2, the memoization
//! algorithm's pace semantics.)
//!
//! The simulation mirrors the execution engine operator by operator and
//! charges the same [`CostWeights`], tracking:
//!
//! * per-query cardinalities through every operator,
//! * aggregate churn — each execution retracts and reinserts the touched
//!   groups' outputs, so eager paces inflate output cardinality and
//!   downstream work,
//! * MIN/MAX rescans driven by upstream retractions, and
//! * growing operator state (join sides, seen groups) across the k steps.
//!
//! A subplan is compiled once into a [`SimProgram`]: its operators in
//! post-order, its queries mapped to dense slots. A run is a static pass
//! (batch cardinalities, column statistics, operator domains) followed by
//! the `k`-step loop over flat `f64` rows in a reused [`SimScratch`]. The
//! pace searches compare estimates exactly, so every floating-point
//! operation and its order are part of the contract: per-query loops run in
//! ascending `QueryId`, products run over the queries a vector *carries* (an
//! absent query is not a zero), and each step adds to its work in operator
//! post-order. `tests/estimator_golden.rs` pins the bits.

use crate::estimator::LeafInputs;
use crate::selectivity::selectivity;
use crate::stats::{expected_distinct, CardVec, StreamEstimate};
use ishare_common::{CostWeights, Error, QueryId, QuerySet, Result};
use ishare_expr::Expr;
use ishare_plan::{InputSource, OpTree, Subplan, TreeOp};
use ishare_storage::ColumnStats;

/// Result of simulating one subplan at one pace.
#[derive(Debug, Clone)]
pub struct SubplanSim {
    /// Private total work: estimated work of all `k` incremental executions
    /// of this subplan over its input.
    pub private_total: f64,
    /// Private final work: estimated work of the final (k-th) execution.
    pub private_final: f64,
    /// The subplan's output stream over the whole trigger (including
    /// retract/insert churn, which grows with the pace).
    pub output: StreamEstimate,
}

/// Simulate `k` incremental executions of `subplan` over its full-trigger
/// `leaf_inputs` (one [`StreamEstimate`] per leaf path).
pub fn simulate_subplan(
    subplan: &Subplan,
    pace: u32,
    leaf_inputs: &LeafInputs,
    weights: &CostWeights,
) -> Result<SubplanSim> {
    if pace == 0 {
        return Err(Error::InvalidConfig("pace must be >= 1".into()));
    }
    let program = SimProgram::compile(subplan);
    let inputs = program
        .leaves()
        .iter()
        .map(|(path, src)| {
            leaf_inputs.get(path.as_slice()).ok_or_else(|| {
                Error::InvalidPlan(format!("no input estimate for leaf {path:?} ({src:?})"))
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(program.run(pace, &inputs, weights, &mut SimScratch::default()))
}

/// A subplan compiled for simulation.
pub(crate) struct SimProgram {
    /// Operators in post-order (children before parents, the root last):
    /// the order the engine charges work in.
    nodes: Vec<SimNode>,
    /// Leaves in tree order; [`SimOp::Input`] indexes this list, and a run
    /// takes one input estimate per entry.
    leaves: Vec<(Vec<usize>, InputSource)>,
    /// The subplan's queries.
    queries: QuerySet,
    /// Every query a cardinality vector of this subplan can carry — the
    /// subplan's own plus its select branches' — one dense slot each, in
    /// ascending `QueryId` order.
    universe: QuerySet,
    /// Length of the work-addend buffer (see [`SimNode::addend_at`]).
    addends: usize,
}

struct SimNode {
    op: SimOp,
    /// The node whose row of the per-query arenas holds this node's
    /// cardinalities: itself, or for a project the node it passes through.
    rows_at: usize,
    /// `true` for an input/select/project chain below the first stateful
    /// operator: its flow is the same in every step, so it is computed in
    /// the first and only its work addends are replayed afterwards.
    invariant: bool,
    /// Where this node keeps the work it adds per step (one addend for an
    /// input or a project, one per branch for a select).
    addend_at: usize,
}

enum SimOp {
    Input {
        leaf: usize,
    },
    Select {
        child: usize,
        /// Slots and predicate per branch.
        branches: Vec<(u64, Expr)>,
        /// Union of the branches' slots: the queries the output carries.
        present: u64,
    },
    Project {
        child: usize,
        cols: Vec<ProjectedCol>,
    },
    Join {
        left: usize,
        right: usize,
        /// Key columns per side; `None` for a computed key.
        keys: Vec<(Option<usize>, Option<usize>)>,
    },
    Aggregate {
        child: usize,
        /// Group-key columns; `None` for a computed key.
        group_by: Vec<Option<usize>>,
        aggs: usize,
        has_extremum: bool,
    },
}

/// What a projected column's statistics derive from.
enum ProjectedCol {
    Column(usize),
    Literal,
    Computed,
}

fn column_of(e: &Expr) -> Option<usize> {
    match e {
        Expr::Column(i) => Some(*i),
        _ => None,
    }
}

/// The slots set in `mask`, ascending.
fn slots(mask: u64) -> impl Iterator<Item = usize> {
    QuerySet(mask).iter().map(QueryId::index)
}

impl SimProgram {
    pub(crate) fn compile(subplan: &Subplan) -> SimProgram {
        let mut universe = subplan.queries;
        subplan.root.visit(&mut |t| {
            if let TreeOp::Select { branches } = &t.op {
                for b in branches {
                    universe = universe.union(b.queries);
                }
            }
        });
        let mut program = SimProgram {
            nodes: Vec::with_capacity(subplan.root.operator_count()),
            leaves: Vec::new(),
            queries: subplan.queries,
            universe,
            addends: 0,
        };
        program.compile_node(&subplan.root, &mut Vec::new());
        program
    }

    /// The leaves a run takes inputs for, in order.
    pub(crate) fn leaves(&self) -> &[(Vec<usize>, InputSource)] {
        &self.leaves
    }

    /// The dense slot of `q`, a query of the universe.
    fn slot_of(&self, q: QueryId) -> usize {
        (self.universe.0 & ((1u64 << q.index()) - 1)).count_ones() as usize
    }

    fn slots_of(&self, queries: QuerySet) -> u64 {
        queries.iter().fold(0, |mask, q| mask | 1u64 << self.slot_of(q))
    }

    fn compile_node(&mut self, t: &OpTree, path: &mut Vec<usize>) -> usize {
        let mut child = |program: &mut SimProgram, i: usize| {
            path.push(i);
            let at = program.compile_node(&t.inputs[i], path);
            path.pop();
            at
        };
        let (op, addends) = match &t.op {
            TreeOp::Input(src) => {
                self.leaves.push((path.clone(), *src));
                (SimOp::Input { leaf: self.leaves.len() - 1 }, 1)
            }
            TreeOp::Select { branches } => {
                let child = child(self, 0);
                let branches: Vec<(u64, Expr)> = branches
                    .iter()
                    .map(|b| (self.slots_of(b.queries), b.predicate.clone()))
                    .collect();
                let present = branches.iter().fold(0, |mask, (b, _)| mask | b);
                let addends = branches.len();
                (SimOp::Select { child, branches, present }, addends)
            }
            TreeOp::Project { exprs } => {
                let cols = exprs
                    .iter()
                    .map(|(e, _)| match e {
                        Expr::Column(i) => ProjectedCol::Column(*i),
                        Expr::Literal(_) => ProjectedCol::Literal,
                        _ => ProjectedCol::Computed,
                    })
                    .collect();
                (SimOp::Project { child: child(self, 0), cols }, 1)
            }
            TreeOp::Join { keys } => {
                let (left, right) = (child(self, 0), child(self, 1));
                let keys = keys.iter().map(|(l, r)| (column_of(l), column_of(r))).collect();
                (SimOp::Join { left, right, keys }, 0)
            }
            TreeOp::Aggregate { group_by, aggs } => {
                let op = SimOp::Aggregate {
                    child: child(self, 0),
                    group_by: group_by.iter().map(|(e, _)| column_of(e)).collect(),
                    aggs: aggs.len(),
                    has_extremum: aggs.iter().any(|a| a.func.is_extremum()),
                };
                (op, 0)
            }
        };
        let at = self.nodes.len();
        let (rows_at, invariant) = match &op {
            SimOp::Input { .. } => (at, true),
            SimOp::Select { child, .. } => (at, self.nodes[*child].invariant),
            SimOp::Project { child, .. } => {
                (self.nodes[*child].rows_at, self.nodes[*child].invariant)
            }
            SimOp::Join { .. } | SimOp::Aggregate { .. } => (at, false),
        };
        self.nodes.push(SimNode { op, rows_at, invariant, addend_at: self.addends });
        self.addends += addends;
        at
    }

    /// Simulate `pace >= 1` incremental executions over one full-trigger
    /// estimate per leaf.
    pub(crate) fn run(
        &self,
        pace: u32,
        inputs: &[&StreamEstimate],
        weights: &CostWeights,
        scratch: &mut SimScratch,
    ) -> SubplanSim {
        let n = self.nodes.len();
        let m = self.universe.len();
        self.static_pass(inputs, scratch);
        let SimScratch { statics, srows, flows, flow, state, state_q, addends, out_q } = scratch;
        zeroed(flows, n * m);
        zeroed(state_q, 2 * n * m);
        zeroed(out_q, m);
        flow.clear();
        flow.resize(n, Flow::default());
        state.clear();
        state.resize(n, OpState::default());

        let root = n - 1;
        let root_row = self.nodes[root].rows_at * m;
        let slice = 1.0 / pace as f64;
        let (mut private_total, mut private_final) = (0.0, 0.0);
        let (mut out_total, mut out_deletes) = (0.0, 0.0);
        for step in 1..=pace {
            let mut work = 0.0;
            for (i, node) in self.nodes.iter().enumerate() {
                let fresh = step == 1 || !node.invariant;
                let own = &statics[i];
                let row_of =
                    |at: usize| self.nodes[at].rows_at * m..(self.nodes[at].rows_at + 1) * m;
                let (below, rest) = flows.split_at_mut(i * m);
                let out = &mut rest[..m];
                match &node.op {
                    SimOp::Input { leaf } => {
                        if fresh {
                            let input = inputs[*leaf];
                            let total = input.rows.total * slice;
                            // The engine charges the scan before narrowing
                            // drops rows.
                            addends[node.addend_at] = weights.scan * total;
                            for s in slots(own.present) {
                                out[s] = srows[i * m + s] * slice;
                            }
                            let narrowed = union_of(total, out, own.present);
                            flow[i] =
                                Flow { total: narrowed, deletes: narrowed * input.delete_frac };
                        }
                        work += addends[node.addend_at];
                    }
                    SimOp::Select { child, branches, .. } => {
                        let charged = node.addend_at..node.addend_at + branches.len();
                        if fresh {
                            let c = flow[*child];
                            let total = select_rows(
                                c.total,
                                &below[row_of(*child)],
                                statics[*child].present,
                                branches,
                                &own.sels,
                                &mut addends[charged.clone()],
                                out,
                            );
                            for union in &mut addends[charged.clone()] {
                                *union *= weights.filter;
                            }
                            flow[i] = Flow { total, deletes: total * c.delete_frac() };
                        }
                        for a in &addends[charged] {
                            work += a;
                        }
                    }
                    SimOp::Project { child, cols } => {
                        if fresh {
                            let c = flow[*child];
                            addends[node.addend_at] = weights.project * c.total * cols.len() as f64;
                            flow[i] = c;
                        }
                        work += addends[node.addend_at];
                    }
                    SimOp::Join { left, right, .. } => {
                        let (l, r) = (flow[*left], flow[*right]);
                        let (l_rows, r_rows) = (&below[row_of(*left)], &below[row_of(*right)]);
                        let (l_present, r_present) =
                            (statics[*left].present, statics[*right].present);
                        let st = &mut state[i];
                        let (l_cum_q, r_cum_q) =
                            state_q[2 * i * m..2 * (i + 1) * m].split_at_mut(m);
                        // ΔL ⋈ R_old + L_new ⋈ ΔR.
                        for s in slots(l_present) {
                            out[s] = (l_rows[s] * r_cum_q[s]
                                + (l_cum_q[s] + l_rows[s]) * r_rows[s])
                                / own.key_ndv;
                        }
                        let total =
                            (l.total * st.r_cum + (st.l_cum + l.total) * r.total) / own.key_ndv;
                        work += weights.join_probe * (l.total + r.total);
                        work += weights.join_insert * (l.total + r.total);
                        work += weights.join_emit * total;
                        // Deletes cancel prior inserts in the stored state.
                        let l_net = (l.total - 2.0 * l.deletes).max(0.0);
                        let r_net = (r.total - 2.0 * r.deletes).max(0.0);
                        st.l_cum += l_net;
                        st.r_cum += r_net;
                        let l_scale = if l.total > 0.0 { l_net / l.total } else { 0.0 };
                        let r_scale = if r.total > 0.0 { r_net / r.total } else { 0.0 };
                        for s in slots(l_present) {
                            l_cum_q[s] += l_rows[s] * l_scale;
                        }
                        for s in slots(r_present) {
                            r_cum_q[s] += r_rows[s] * r_scale;
                        }
                        let df = (l.delete_frac() + r.delete_frac()).min(0.9);
                        flow[i] = Flow { total, deletes: total * df };
                    }
                    SimOp::Aggregate { child, aggs, has_extremum, .. } => {
                        let c = flow[*child];
                        let c_rows = &below[row_of(*child)];
                        let c_present = statics[*child].present;
                        let st = &mut state[i];
                        let (cum_q, seen_q) = state_q[2 * i * m..2 * (i + 1) * m].split_at_mut(m);
                        let domain = own.group_domain;
                        let (n, d) = (c.total, c.deletes);
                        let net = (n - 2.0 * d).max(0.0);
                        let touched = expected_distinct(n, domain);
                        let seen_after = expected_distinct(st.agg_cum + net, domain);
                        let new_groups = (seen_after - st.seen_groups).clamp(0.0, touched);
                        let touched_old = (touched - new_groups).max(0.0);
                        // Shared-state class multiplicity: when marking
                        // selects upstream give this aggregate's queries
                        // different inputs, each group's state splits into
                        // disjoint mask classes, multiplying emitted churn.
                        // A query whose cardinality is below the stream's
                        // total contributes one extra class boundary.
                        let below_total =
                            slots(c_present).filter(|&s| c_rows[s] < 0.95 * n).count();
                        let class_factor =
                            (1.0 + below_total as f64).min(c_present.count_ones().max(1) as f64);
                        // Per-query churn.
                        for s in slots(c_present) {
                            let nq = c_rows[s];
                            let dq = if n > 0.0 { d * nq / n } else { 0.0 };
                            let net_q = (nq - 2.0 * dq).max(0.0);
                            let touched_q = expected_distinct(nq, domain);
                            // `seen_q[s]` is the last step's
                            // `expected_distinct(cum_q[s], domain)`.
                            cum_q[s] += net_q;
                            let seen_q_after = expected_distinct(cum_q[s], domain);
                            let new_q = (seen_q_after - seen_q[s]).clamp(0.0, touched_q);
                            seen_q[s] = seen_q_after;
                            let old_q = (touched_q - new_q).max(0.0);
                            out[s] = new_q + 2.0 * old_q;
                        }
                        let total = (new_groups + 2.0 * touched_old) * class_factor;
                        work += weights.agg_update * n * (*aggs).max(1) as f64;
                        work += weights.agg_emit * total;
                        let arrived_now = st.agg_arrived + (n - d).max(0.0);
                        // MIN/MAX rescans driven by upstream retractions,
                        // charged against arrived values (see the engine's
                        // accumulator). Sizes use post-step state so the
                        // first execution is not degenerate.
                        if *has_extremum && d > 0.0 {
                            let groups_after = seen_after.max(1.0);
                            let avg_size = ((st.agg_cum + net) / groups_after).max(1.0);
                            // At least ~one rescan per execution under
                            // adversarial (monotone) data, plus the
                            // uniform-case expectation.
                            let rescans = d.min(1.0 + d / avg_size);
                            let arrived_per_group = arrived_now / groups_after;
                            work += weights.minmax_rescan * rescans * arrived_per_group;
                        }
                        st.agg_arrived = arrived_now;
                        st.agg_cum += net;
                        st.seen_groups = seen_after;
                        flow[i] = Flow { total, deletes: touched_old * class_factor };
                    }
                }
            }
            // Materialization of the subplan's output into its buffer.
            work += weights.materialize * flow[root].total;
            out_total += flow[root].total;
            for s in slots(statics[root].present) {
                out_q[s] += flows[root_row + s];
            }
            out_deletes += flow[root].deletes;
            private_total += work;
            if step == pace {
                private_final = work;
            }
        }

        let delete_frac =
            if out_total > 0.0 { (out_deletes / out_total).clamp(0.0, 0.95) } else { 0.0 };
        // The output carries the subplan's queries and whatever else its
        // root produced.
        let carried = self.slots_of(self.queries) | statics[root].present;
        let per_query = self
            .universe
            .iter()
            .enumerate()
            .filter(|(s, _)| carried & (1u64 << s) != 0)
            .map(|(s, q)| (q.0, out_q[s]))
            .collect();
        SubplanSim {
            private_total,
            private_final,
            output: StreamEstimate {
                rows: CardVec { total: out_total, per_query },
                delete_frac,
                // A copy of exact capacity: results live on in the memo, the
                // scratch buffer's spare capacity should not.
                cols: statics[root].cols.clone(),
            },
        }
    }

    /// Static (pace-independent) pass: full-trigger batch cardinalities,
    /// column statistics and operator domains per node, and which queries
    /// each node's vector carries.
    fn static_pass(&self, inputs: &[&StreamEstimate], scratch: &mut SimScratch) {
        let n = self.nodes.len();
        let m = self.universe.len();
        let SimScratch { statics, srows, addends, .. } = scratch;
        statics.resize_with(n, NodeStatic::default);
        zeroed(srows, n * m);
        zeroed(addends, self.addends);
        for (i, node) in self.nodes.iter().enumerate() {
            let (done, rest) = statics.split_at_mut(i);
            let own = &mut rest[0];
            own.cols.clear();
            own.sels.clear();
            let row_of = |at: usize| self.nodes[at].rows_at * m..(self.nodes[at].rows_at + 1) * m;
            let (below, rest) = srows.split_at_mut(i * m);
            let out = &mut rest[..m];
            match &node.op {
                SimOp::Input { leaf } => {
                    let input = inputs[*leaf];
                    // Narrow to the subplan's queries.
                    own.present = 0;
                    for (&q, &rows) in &input.rows.per_query {
                        if self.queries.contains(QueryId(q)) {
                            let s = self.slot_of(QueryId(q));
                            out[s] = rows;
                            own.present |= 1u64 << s;
                        }
                    }
                    own.total = union_of(input.rows.total, out, own.present);
                    own.cols.extend_from_slice(&input.cols);
                }
                SimOp::Select { child, branches, present } => {
                    let c = &done[*child];
                    own.sels.extend(branches.iter().map(|(_, p)| selectivity(p, &c.cols)));
                    let unions = &mut addends[node.addend_at..node.addend_at + branches.len()];
                    own.total = select_rows(
                        c.total,
                        &below[row_of(*child)],
                        c.present,
                        branches,
                        &own.sels,
                        unions,
                        out,
                    );
                    own.present = *present;
                    own.cols.extend_from_slice(&c.cols);
                    scale_ndvs(&mut own.cols, own.total);
                }
                SimOp::Project { child, cols } => {
                    let c = &done[*child];
                    own.total = c.total;
                    own.present = c.present;
                    let computed = || ColumnStats::ndv(c.total.max(1.0));
                    own.cols.extend(cols.iter().map(|col| match col {
                        ProjectedCol::Column(i) => c.cols.get(*i).cloned().unwrap_or_else(computed),
                        ProjectedCol::Literal => ColumnStats::ndv(1.0),
                        ProjectedCol::Computed => computed(),
                    }));
                }
                SimOp::Join { left, right, keys } => {
                    let (l, r) = (&done[*left], &done[*right]);
                    let lk = key_ndv(l, keys.iter().map(|k| k.0));
                    let rk = key_ndv(r, keys.iter().map(|k| k.1));
                    own.key_ndv = lk.max(rk).max(1.0);
                    let (l_rows, r_rows) = (&below[row_of(*left)], &below[row_of(*right)]);
                    for s in slots(l.present) {
                        out[s] = l_rows[s] * r_rows[s] / own.key_ndv;
                    }
                    own.total = l.total * r.total / own.key_ndv;
                    own.present = l.present;
                    own.cols.extend_from_slice(&l.cols);
                    own.cols.extend_from_slice(&r.cols);
                    scale_ndvs(&mut own.cols, own.total);
                }
                SimOp::Aggregate { child, group_by, aggs, .. } => {
                    let c = &done[*child];
                    let domain = if group_by.is_empty() {
                        1.0
                    } else {
                        key_ndv(c, group_by.iter().copied()).max(1.0)
                    };
                    own.group_domain = domain;
                    let c_rows = &below[row_of(*child)];
                    for s in slots(c.present) {
                        out[s] = expected_distinct(c_rows[s], domain);
                    }
                    own.total = expected_distinct(c.total, domain);
                    own.present = c.present;
                    own.cols.extend(group_by.iter().map(
                        |key| match key.and_then(|i| c.cols.get(i)) {
                            Some(col) => ColumnStats { ndv: col.ndv.min(domain), ..col.clone() },
                            None => ColumnStats::ndv(domain),
                        },
                    ));
                    let agg_col = ColumnStats::ndv(own.total.max(1.0));
                    own.cols.extend(std::iter::repeat_n(agg_col, *aggs));
                }
            }
        }
    }
}

/// Reusable buffers of [`SimProgram::run`]. Per-query arenas hold one row of
/// `universe.len()` slots per node; a slot a node does not carry stays `0.0`.
#[derive(Default)]
pub(crate) struct SimScratch {
    statics: Vec<NodeStatic>,
    /// Static per-query cardinalities.
    srows: Vec<f64>,
    /// Per-step per-query cardinalities.
    flows: Vec<f64>,
    flow: Vec<Flow>,
    state: Vec<OpState>,
    /// Per-query operator state, two rows per node: a join's stored rows per
    /// side; an aggregate's net input rows and groups seen.
    state_q: Vec<f64>,
    /// Work addends of the input/select/project nodes (scratch space for the
    /// select unions during the static pass).
    addends: Vec<f64>,
    /// The output's accumulated per-query rows.
    out_q: Vec<f64>,
}

/// Static (pace-independent) info per node.
#[derive(Default)]
struct NodeStatic {
    /// Full-trigger batch-cardinality estimate at this node.
    total: f64,
    /// Slots of the queries this node's cardinality vector carries.
    present: u64,
    /// Column statistics of the node's output.
    cols: Vec<ColumnStats>,
    /// Select: per-branch selectivity.
    sels: Vec<f64>,
    /// Join: max of the two sides' key ndv.
    key_ndv: f64,
    /// Aggregate: group-key domain size.
    group_domain: f64,
}

/// Per-step flow through an operator.
#[derive(Clone, Copy, Default)]
struct Flow {
    total: f64,
    /// Absolute number of retraction rows within `total`.
    deletes: f64,
}

impl Flow {
    fn delete_frac(&self) -> f64 {
        if self.total > 0.0 {
            (self.deletes / self.total).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

/// Growing state of stateful operators across steps.
#[derive(Clone, Copy, Default)]
struct OpState {
    /// Join: net stored rows per side.
    l_cum: f64,
    r_cum: f64,
    /// Aggregate: net input rows and groups seen so far.
    agg_cum: f64,
    seen_groups: f64,
    /// All rows ever fed to the aggregate (MIN/MAX rescans are charged
    /// against arrived values, mirroring the engine).
    agg_arrived: f64,
}

fn zeroed(arena: &mut Vec<f64>, len: usize) {
    arena.clear();
    arena.resize(len, 0.0);
}

/// Rows valid for at least one of the queries in `mask`, under the
/// independence assumption of [`CardVec::restrict`]:
/// `total × (1 − Π_q (1 − n_q/total))`.
fn union_of(total: f64, rows: &[f64], mask: u64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let mut miss = 1.0;
    for s in slots(mask) {
        miss *= 1.0 - (rows[s] / total).clamp(0.0, 1.0);
    }
    total * (1.0 - miss)
}

/// Per-query select output `n_q × s_branch(q)` into `out`, each branch's
/// input union into `unions`; returns the total via the independence union
/// over branches.
fn select_rows(
    total: f64,
    rows: &[f64],
    present: u64,
    branches: &[(u64, Expr)],
    sels: &[f64],
    unions: &mut [f64],
    out: &mut [f64],
) -> f64 {
    let mut miss = 1.0;
    for (((mask, _), &sel), union) in branches.iter().zip(sels).zip(unions) {
        for s in slots(*mask) {
            out[s] = rows[s] * sel;
        }
        *union = union_of(total, rows, present & mask);
        miss *= 1.0 - sel * (*union / total).clamp(0.0, 1.0);
    }
    if total <= 0.0 {
        0.0
    } else {
        total * (1.0 - miss)
    }
}

fn scale_ndvs(cols: &mut [ColumnStats], rows: f64) {
    let cap = rows.max(1.0);
    for c in cols {
        c.ndv = c.ndv.min(cap).max(1.0);
    }
}

/// Distinct values of a composite key over `side`: the product of the key
/// columns' ndv (a computed key counts as unique per row), capped by the
/// side's rows.
fn key_ndv(side: &NodeStatic, keys: impl Iterator<Item = Option<usize>>) -> f64 {
    let rows = side.total.max(1.0);
    let mut nd = 1.0f64;
    for key in keys {
        let col = key.and_then(|i| side.cols.get(i)).map_or(rows, |c| c.ndv);
        nd *= col.max(1.0);
    }
    nd.min(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{QueryId, QuerySet, SubplanId, TableId};
    use ishare_expr::Expr;
    use ishare_plan::{AggExpr, AggFunc, InputSource, SelectBranch};

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    fn base_input(total: f64, queries: QuerySet, ndvs: &[f64]) -> StreamEstimate {
        StreamEstimate::insert_only(
            total,
            queries,
            ndvs.iter().map(|&n| ColumnStats::ndv(n)).collect(),
        )
    }

    /// agg(sum v by k) over select(all q0; v>... q1) over base.
    fn agg_subplan() -> Subplan {
        let tree = OpTree::node(
            TreeOp::Aggregate {
                group_by: vec![(Expr::col(0), "k".into())],
                aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
            },
            vec![OpTree::node(
                TreeOp::Select {
                    branches: vec![
                        SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() },
                        SelectBranch {
                            queries: qs(&[1]),
                            predicate: Expr::col(1).eq(Expr::lit(1i64)),
                        },
                    ],
                },
                vec![OpTree::input(InputSource::Base(TableId(0)))],
            )],
        );
        Subplan { id: SubplanId(0), root: tree, queries: qs(&[0, 1]), output_queries: qs(&[0, 1]) }
    }

    fn inputs_for(sp: &Subplan, est: StreamEstimate) -> LeafInputs {
        // Single leaf at path [0, 0].
        let mut m = LeafInputs::new();
        let mut paths = Vec::new();
        fn collect(t: &OpTree, p: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if matches!(t.op, TreeOp::Input(_)) {
                out.push(p.clone());
            }
            for (i, c) in t.inputs.iter().enumerate() {
                p.push(i);
                collect(c, p, out);
                p.pop();
            }
        }
        collect(&sp.root, &mut Vec::new(), &mut paths);
        for p in paths {
            m.insert(p, est.clone());
        }
        m
    }

    #[test]
    fn higher_pace_higher_total_lower_final() {
        let sp = agg_subplan();
        let inputs = inputs_for(&sp, base_input(1000.0, qs(&[0, 1]), &[20.0, 50.0]));
        let w = CostWeights::default();
        let lazy = simulate_subplan(&sp, 1, &inputs, &w).unwrap();
        let eager = simulate_subplan(&sp, 10, &inputs, &w).unwrap();
        assert!(
            eager.private_total > lazy.private_total,
            "eager {} vs lazy {}",
            eager.private_total,
            lazy.private_total
        );
        assert!(eager.private_final < lazy.private_final, "final work shrinks with pace");
        // Churn inflates the eager output cardinality.
        assert!(eager.output.rows.total > lazy.output.rows.total);
        assert!(eager.output.delete_frac > 0.0);
        assert_eq!(lazy.output.delete_frac, 0.0, "single batch never retracts");
    }

    #[test]
    fn per_query_cardinalities_respect_selectivity() {
        let sp = agg_subplan();
        let inputs = inputs_for(&sp, base_input(1000.0, qs(&[0, 1]), &[20.0, 50.0]));
        let sim = simulate_subplan(&sp, 1, &inputs, &CostWeights::default()).unwrap();
        let q0 = sim.output.rows.query(QueryId(0));
        let q1 = sim.output.rows.query(QueryId(1));
        assert!(q0 > q1, "q1 is filtered (sel 1/50) so it sees fewer groups");
        assert!(q0 <= 20.0 + 1e-9, "at most the group domain");
    }

    #[test]
    fn join_state_grows_across_steps() {
        let tree = OpTree::node(
            TreeOp::Join { keys: vec![(Expr::col(0), Expr::col(0))] },
            vec![
                OpTree::input(InputSource::Base(TableId(0))),
                OpTree::input(InputSource::Base(TableId(1))),
            ],
        );
        let sp =
            Subplan { id: SubplanId(0), root: tree, queries: qs(&[0]), output_queries: qs(&[0]) };
        let mut inputs = LeafInputs::new();
        inputs.insert(vec![0], base_input(100.0, qs(&[0]), &[10.0, 10.0]));
        inputs.insert(vec![1], base_input(100.0, qs(&[0]), &[10.0, 10.0]));
        let w = CostWeights::default();
        let one = simulate_subplan(&sp, 1, &inputs, &w).unwrap();
        let four = simulate_subplan(&sp, 4, &inputs, &w).unwrap();
        // Join output cardinality is pace-independent (no churn):
        assert!(
            (one.output.rows.total - four.output.rows.total).abs() / one.output.rows.total < 1e-6
        );
        // 100×100/10 = 1000 joined rows.
        assert!((one.output.rows.total - 1000.0).abs() < 1e-6);
        // But the final step of the eager run is cheaper.
        assert!(four.private_final < one.private_final);
    }

    #[test]
    fn extremum_aggregate_pays_rescans_under_churn() {
        // max over an input stream with deletes (as if fed by an upstream
        // aggregate).
        let tree = OpTree::node(
            TreeOp::Aggregate {
                group_by: vec![],
                aggs: vec![AggExpr::new(AggFunc::Max, Expr::col(1), "m")],
            },
            vec![OpTree::input(InputSource::Base(TableId(0)))],
        );
        let sp =
            Subplan { id: SubplanId(0), root: tree, queries: qs(&[0]), output_queries: qs(&[0]) };
        let mut churny = base_input(1000.0, qs(&[0]), &[100.0, 1000.0]);
        churny.delete_frac = 0.4;
        let mut inputs = LeafInputs::new();
        inputs.insert(vec![0], churny);
        let w = CostWeights::default();
        let lazy = simulate_subplan(&sp, 1, &inputs, &w).unwrap();
        let eager = simulate_subplan(&sp, 50, &inputs, &w).unwrap();
        // Compare against the same aggregate with SUM instead of MAX: the
        // rescan surcharge must make eager MAX disproportionately expensive.
        let sum_tree = OpTree::node(
            TreeOp::Aggregate {
                group_by: vec![],
                aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "m")],
            },
            vec![OpTree::input(InputSource::Base(TableId(0)))],
        );
        let sum_sp = Subplan { root: sum_tree, ..sp.clone() };
        let sum_eager = simulate_subplan(&sum_sp, 50, &inputs, &w).unwrap();
        assert!(eager.private_total > sum_eager.private_total);
        assert!(eager.private_total > lazy.private_total);
    }

    #[test]
    fn zero_pace_rejected_and_missing_inputs_error() {
        let sp = agg_subplan();
        let inputs = inputs_for(&sp, base_input(10.0, qs(&[0, 1]), &[2.0, 2.0]));
        assert!(simulate_subplan(&sp, 0, &inputs, &CostWeights::default()).is_err());
        assert!(simulate_subplan(&sp, 1, &LeafInputs::new(), &CostWeights::default()).is_err());
    }

    #[test]
    fn total_is_sum_of_steps_final_is_last() {
        let sp = agg_subplan();
        let inputs = inputs_for(&sp, base_input(500.0, qs(&[0, 1]), &[10.0, 25.0]));
        let w = CostWeights::default();
        let sim = simulate_subplan(&sp, 5, &inputs, &w).unwrap();
        assert!(sim.private_final <= sim.private_total / 2.0, "final is one of five steps");
        assert!(sim.private_final > 0.0);
    }
}

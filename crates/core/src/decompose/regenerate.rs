//! Plan regeneration after a split (Sec. 4.2), as an edit of the shared DAG.
//!
//! Replacing a shared subplan with its partitions can violate the engine
//! requirement that a subplan's query set subsume its parents' — Fig. 8:
//! after splitting `Subplan1` into `{q1,q2}` and `{q3}`, the parent
//! `Subplan4` (queries `{q1,q3}`) straddles both pieces. The paper splits
//! the ancestors along the same query partition, recursively, and then
//! merges newly created subplans that ended up with a single parent (e.g.
//! `Subplan1b` + `Subplan4b` → `Subplan14b`).
//!
//! [`regenerate`] performs the first step on the DAG: every node of the
//! target and of its ancestor subplans is cloned once per partition it
//! meets, with its query set and select branches restricted to the
//! partition and its children pointed at the same partition's clones; query
//! roots move to their partition's clones, and the originals are tombstoned
//! the way `ishare_mqo::IncrementalSharer::remove` leaves removed nodes.
//! The merge is no code of its own: it is the paper's subplan rule, "cut at
//! multi-parent operators", applied again when the plan is re-derived — a
//! clone with a single parent is not cut, so it fuses into its reader.
//!
//! [`initial_paces`] implements the pace initialization of "Finding a new
//! pace configuration" for whole and partial splits alike: every derived
//! subplan adopts the largest pace of the old subplans that held its nodes
//! (a clone counts as its original), and parent paces are clamped to their
//! children's.

use super::DagPlan;
use crate::pace::PaceConfiguration;
use ishare_common::{Error, NodeId, QuerySet, Result, SubplanId};
use ishare_plan::{restrict_branches, DagOp};
use std::collections::HashMap;

/// Split `target` of `current` into one piece per partition and re-derive
/// the plan. Returns the edited DAG with its plan, and the original of every
/// node appended to the DAG, in order (`clone_of[i]` for node
/// `current.dag.nodes.len() + i`).
pub fn regenerate(
    current: &DagPlan,
    target: SubplanId,
    partitions: &[QuerySet],
) -> Result<(DagPlan, Vec<NodeId>)> {
    let target_sp = current.plan.subplan(target)?;
    // Sanity: partitions form a partition of the target's queries.
    let mut seen = QuerySet::EMPTY;
    for p in partitions {
        if p.is_empty() || p.intersects(seen) {
            return Err(Error::InvalidPlan("split is not a partition".into()));
        }
        seen = seen.union(*p);
    }
    if seen != target_sp.queries || partitions.len() < 2 {
        return Err(Error::InvalidPlan(format!(
            "{} partitions covering {seen} do not split {}",
            partitions.len(),
            target_sp.queries
        )));
    }

    // The target and its ancestors (transitive readers) split, and so do
    // the nodes they hold.
    let mut in_cone = vec![false; current.plan.len()];
    for id in current.plan.topo_order()? {
        let readers = current.plan.subplan(id)?.children().iter().any(|c| in_cone[c.index()]);
        in_cone[id.index()] = id == target || readers;
    }
    let split: Vec<bool> =
        current.holders().iter().map(|h| h.is_some_and(|j| in_cone[j.index()])).collect();

    // Clone children first (node ids are bottom-up), so a clone's split
    // children already have their clones.
    let mut dag = current.dag.clone();
    let mut clones: HashMap<(NodeId, usize), NodeId> = HashMap::new();
    let mut clone_of = Vec::new();
    for n in (0..split.len()).filter(|&n| split[n]) {
        let node = dag.nodes[n].clone();
        for (i, part) in partitions.iter().enumerate() {
            let queries = node.queries.intersect(*part);
            if queries.is_empty() {
                continue;
            }
            let children =
                node.children.iter().map(|c| *clones.get(&(*c, i)).unwrap_or(c)).collect();
            let mut op = node.op.clone();
            if let DagOp::Select { branches } = &mut op {
                restrict_branches(branches, queries);
            }
            let id = dag.add_node(op, children, queries)?;
            clones.insert((node.id, i), id);
            clone_of.push(node.id);
        }
        let dead = &mut dag.nodes[n];
        if let DagOp::Select { branches } = &mut dead.op {
            restrict_branches(branches, QuerySet::EMPTY);
        }
        dead.queries = QuerySet::EMPTY;
    }
    for (q, root) in &mut dag.query_roots {
        if let Some(i) = partitions.iter().position(|p| p.contains(*q)) {
            if let Some(&c) = clones.get(&(*root, i)) {
                *root = c;
            }
        }
    }
    Ok((DagPlan::cut(dag, current.forced.clone())?, clone_of))
}

/// Sec. 4.2 pace initialization: each subplan of `new` adopts the largest
/// pace, under `old_paces`, of the `old` subplans that held its nodes — a
/// node appended past `old`'s DAG counts as its original in `clone_of` —
/// then parent paces are clamped down to their children's so the engine
/// requirement holds. The result is eagerer than or equal to the donor
/// configuration — the right starting point for lazy-ward relaxation.
pub fn initial_paces(
    old: &DagPlan,
    old_paces: &PaceConfiguration,
    new: &DagPlan,
    clone_of: &[NodeId],
) -> Result<PaceConfiguration> {
    let (n_old, old_holders) = (old.dag.nodes.len(), old.holders());
    let mut paces = vec![0; new.plan.len()];
    for (n, holder) in new.holders().into_iter().enumerate() {
        let origin = n.checked_sub(n_old).map_or(n, |i| clone_of[i].0 as usize);
        if let (Some(j), Some(i)) = (holder, old_holders[origin]) {
            paces[j.index()] = paces[j.index()].max(old_paces.pace(i));
        }
    }
    // A zero pace (a subplan deriving from nothing) is rejected here.
    let mut config = PaceConfiguration::new(paces)?;
    // Clamp parents to children, parents processed after children.
    for id in new.plan.topo_order()? {
        if let Some(mc) = new.plan.subplan(id)?.children().iter().map(|c| config.pace(*c)).min() {
            config.set(id, config.pace(id).min(mc));
        }
    }
    config.respects_plan(&new.plan)?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{DataType, QueryId};
    use ishare_expr::Expr;
    use ishare_plan::{AggExpr, AggFunc, SelectBranch, SharedDag};
    use ishare_storage::{Catalog, ColumnStats, Field, Schema, TableStats};
    use std::collections::BTreeSet;

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
            TableStats {
                row_count: 1000.0,
                columns: vec![ColumnStats::ndv(20.0), ColumnStats::ndv(100.0)],
            },
        )
        .unwrap();
        c
    }

    /// Fig. 8-like shape: sp0 shared by q1,q2,q3; sp1 (parent, {q0-like
    /// mix}) reads sp0; per-query roots on top.
    ///
    /// Concretely: sp0 = agg shared by {0,1,2}; sp1 = select over sp0 shared
    /// by {0,2} (straddles a {0,1}/{2} split); roots: q0,q1,q2.
    fn fig8(c: &Catalog) -> DagPlan {
        let t = c.table_by_name("t").unwrap().id;
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Scan { table: t }, vec![], qs(&[0, 1, 2])).unwrap();
        let sel = d
            .add_node(
                DagOp::Select {
                    branches: vec![
                        SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() },
                        SelectBranch {
                            queries: qs(&[1]),
                            predicate: Expr::col(1).gt(Expr::lit(10i64)),
                        },
                        SelectBranch {
                            queries: qs(&[2]),
                            predicate: Expr::col(1).lt(Expr::lit(90i64)),
                        },
                    ],
                },
                vec![scan],
                qs(&[0, 1, 2]),
            )
            .unwrap();
        let agg = d
            .add_node(
                DagOp::Aggregate {
                    group_by: vec![(Expr::col(0), "k".into())],
                    aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
                },
                vec![sel],
                qs(&[0, 1, 2]),
            )
            .unwrap();
        // Shared parent over {0, 2}.
        let sel2 = d
            .add_node(
                DagOp::Select {
                    branches: vec![
                        SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() },
                        SelectBranch {
                            queries: qs(&[2]),
                            predicate: Expr::col(1).gt(Expr::lit(0i64)),
                        },
                    ],
                },
                vec![agg],
                qs(&[0, 2]),
            )
            .unwrap();
        let r0 = d
            .add_node(
                DagOp::Project { exprs: vec![(Expr::col(1), "x".into())] },
                vec![sel2],
                qs(&[0]),
            )
            .unwrap();
        let r2 = d
            .add_node(
                DagOp::Project { exprs: vec![(Expr::col(0), "y".into())] },
                vec![sel2],
                qs(&[2]),
            )
            .unwrap();
        let r1 = d
            .add_node(
                DagOp::Project { exprs: vec![(Expr::col(0), "z".into())] },
                vec![agg],
                qs(&[1]),
            )
            .unwrap();
        d.set_query_root(QueryId(0), r0).unwrap();
        d.set_query_root(QueryId(1), r1).unwrap();
        d.set_query_root(QueryId(2), r2).unwrap();
        d.validate(c).unwrap();
        DagPlan::cut(d, Vec::new()).unwrap()
    }

    /// Per subplan of `new`: the `old` subplans holding its nodes' originals.
    fn derived_from(old: &DagPlan, new: &DagPlan, clone_of: &[NodeId]) -> Vec<BTreeSet<u32>> {
        let (n_old, old_holders) = (old.dag.nodes.len(), old.holders());
        let mut out = vec![BTreeSet::new(); new.plan.len()];
        for (n, holder) in new.holders().into_iter().enumerate() {
            let origin = n.checked_sub(n_old).map_or(n, |i| clone_of[i].0 as usize);
            if let (Some(j), Some(i)) = (holder, old_holders[origin]) {
                out[j.index()].insert(i.0);
            }
        }
        out
    }

    #[test]
    fn straddling_parent_gets_split() {
        let c = catalog();
        let old = fig8(&c);
        old.plan.validate(&c).unwrap();
        // sp0 is the shared agg (queries {0,1,2}); split into {0,1} | {2}.
        let target = SubplanId(0);
        assert_eq!(old.plan.subplan(target).unwrap().queries, qs(&[0, 1, 2]));
        let (new, clone_of) = regenerate(&old, target, &[qs(&[0, 1]), qs(&[2])]).unwrap();
        new.dag.validate(&c).unwrap();
        new.plan.validate(&c).unwrap();
        assert_eq!(new.dag.nodes.len(), old.dag.nodes.len() + clone_of.len());
        // Every query still has exactly one output subplan.
        for q in [0, 1, 2] {
            assert!(new.plan.query_root(QueryId(q)).is_some(), "q{q} root");
        }
        // The straddling select-parent {0,2} must have been split: no
        // subplan serves {0,2} any more, and no live node either.
        assert!(new.plan.subplans.iter().all(|sp| sp.queries != qs(&[0, 2])));
        assert!(new.dag.nodes.iter().all(|n| n.queries != qs(&[0, 2])));
        // The originals are tombstoned; the scan is a buffer and stays.
        let live = new.dag.nodes[..old.dag.nodes.len()].iter().filter(|n| !n.queries.is_empty());
        assert!(live.map(|n| n.op.label()).eq(["scan"]));
    }

    #[test]
    fn single_parent_pieces_merge() {
        let c = catalog();
        let old = fig8(&c);
        let (new, clone_of) = regenerate(&old, SubplanId(0), &[qs(&[0, 1]), qs(&[2])]).unwrap();
        // The {2} piece of the target has a single parent chain (the {2}
        // piece of the select parent, then q2's root): the cut rule fuses
        // them, so some subplan holds nodes of more than one old subplan.
        let derived = derived_from(&old, &new, &clone_of);
        assert!(derived.iter().any(|d| d.len() > 1), "expected a merge, derived = {derived:?}");
        // The {0,1} piece keeps two readers (q0's and q1's roots), so it
        // stays a subplan of its own.
        assert!(new.plan.subplans.iter().any(|sp| sp.queries == qs(&[0, 1])));
        assert_eq!(new.plan.len(), 4);
    }

    #[test]
    fn bad_splits_rejected() {
        let c = catalog();
        let plan = fig8(&c);
        let target = SubplanId(0);
        // Overlapping.
        assert!(regenerate(&plan, target, &[qs(&[0, 1]), qs(&[1, 2])]).is_err());
        // Not covering.
        assert!(regenerate(&plan, target, &[qs(&[0]), qs(&[1])]).is_err());
        // Single partition.
        assert!(regenerate(&plan, target, &[qs(&[0, 1, 2])]).is_err());
        // Empty partition.
        assert!(regenerate(&plan, target, &[qs(&[0, 1, 2]), QuerySet::EMPTY]).is_err());
    }

    #[test]
    fn initial_paces_adopt_and_clamp() {
        let c = catalog();
        let old = fig8(&c);
        let target = SubplanId(0);
        let (new, clone_of) = regenerate(&old, target, &[qs(&[0, 1]), qs(&[2])]).unwrap();
        // Old config: target eager (8), everything else lazy (1).
        let mut old_paces = PaceConfiguration::batch(old.plan.len());
        old_paces.set(target, 8);
        let init = initial_paces(&old, &old_paces, &new, &clone_of).unwrap();
        init.respects_plan(&new.plan).unwrap();
        // Pieces deriving from the target adopt pace 8 (merged ones take the
        // larger pace; none is clamped, as nothing sits below the target);
        // the rest keep pace 1.
        for (j, d) in derived_from(&old, &new, &clone_of).iter().enumerate() {
            let want = if d.contains(&target.0) { 8 } else { 1 };
            assert_eq!(init.as_slice()[j], want, "subplan {j} derives from {d:?}");
        }
        assert!(init.as_slice().contains(&8), "at least one piece keeps the donor pace");
    }
}

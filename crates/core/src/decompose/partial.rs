//! Partial decomposition (Sec. 4.3).
//!
//! Instead of un-sharing a whole subplan, iShare can split only a subtree
//! that contains the subplan's root, leaving the operators below it shared:
//! "we first break the subplan into three subplans: the join operator
//! itself, and the left/right child subtree of the join operator.
//! Afterwards, we split the join operator using the clustering algorithm."
//!
//! Breaking the subplan is no tree surgery: [`force_cut_points`] adds the
//! DAG nodes at a candidate's [`cut_points`] to the forced cuts, and the cut
//! rule re-derives the plan with one bottom subplan per cut point. The
//! whole split that follows clones only the top and its ancestors, so the
//! bottoms stay shared.
//!
//! Candidates are generated breadth-first from the root, each adding the
//! not-yet-included operator closest to the root, so there are at most as
//! many candidates as operators in the subplan.

use super::DagPlan;
use ishare_common::{Result, SubplanId};
use ishare_plan::{Subplan, TreeOp};
use std::collections::HashSet;

/// A candidate cut: the set of tree paths kept in the top (root) subplan.
pub type IncludedSet = HashSet<Vec<usize>>;

/// Generate the BFS candidate sequence of root-anchored subtrees. Each
/// candidate includes one more operator than the previous, in
/// breadth-first (closest-to-root) order. Candidates that would cut nothing
/// (every excluded child is already a leaf) and the full tree are skipped —
/// the former is equivalent to whole-subplan decomposition, which the
/// caller tries separately.
pub fn subtree_candidates(subplan: &Subplan) -> Result<Vec<IncludedSet>> {
    // Operator paths in BFS order: by depth, then left to right.
    let mut internal = Vec::new();
    subplan.root.post_order(|step| {
        if !matches!(step.node.op, TreeOp::Input(_)) {
            internal.push(step.path.to_vec());
        }
        Ok(())
    })?;
    internal.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    let mut included = IncludedSet::new();
    let mut out = Vec::new();
    // The last prefix is the full tree (== whole-subplan decomposition).
    for path in internal.iter().take(internal.len().saturating_sub(1)) {
        included.insert(path.clone());
        // Skip candidates that cut only leaves.
        if !cut_points(subplan, &included)?.is_empty() {
            out.push(included.clone());
        }
    }
    Ok(out)
}

/// The non-leaf subtrees directly below the cut: paths of excluded
/// operators all of whose ancestors are included.
pub fn cut_points(subplan: &Subplan, included: &IncludedSet) -> Result<Vec<Vec<usize>>> {
    let mut out = Vec::new();
    subplan.root.post_order(|step| {
        let path = step.path;
        if !path.is_empty()
            && !matches!(step.node.op, TreeOp::Input(_))
            && !included.contains(path)
            && (0..path.len()).all(|depth| included.contains(&path[..depth]))
        {
            out.push(path.to_vec());
        }
        Ok(())
    })?;
    Ok(out)
}

/// Break subplan `target` of `current` at the cut points of `included`:
/// the plan re-derived with those nodes forced to be subplan roots. The top
/// keeps the target's root node; each bottom serves the target's queries
/// and produces no query output.
pub fn force_cut_points(
    current: &DagPlan,
    target: SubplanId,
    included: &IncludedSet,
) -> Result<DagPlan> {
    let root = current.roots[target.index()];
    let mut forced = current.forced.clone();
    let cuts = cut_points(current.plan.subplan(target)?, included)?;
    forced.extend(cuts.iter().map(|path| current.dag.node_at(root, path)));
    DagPlan::cut(current.dag.clone(), forced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{QueryId, QuerySet, TableId};
    use ishare_expr::Expr;
    use ishare_plan::{AggExpr, AggFunc, DagOp, InputSource, SelectBranch, SharedDag};

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    /// agg( join( select(scan t), agg2(scan u) ) ) — two internal levels —
    /// shared by q0 and q1, whose results it computes.
    fn deep() -> DagPlan {
        let all = qs(&[0, 1]);
        let mut d = SharedDag::new();
        let t = d.add_node(DagOp::Input(TableId(0)), vec![], all).unwrap();
        let branches = vec![SelectBranch { queries: all, predicate: Expr::true_lit() }];
        let left = d.add_node(DagOp::Select { branches }, vec![t], all).unwrap();
        let u = d.add_node(DagOp::Input(TableId(1)), vec![], all).unwrap();
        let right = d
            .add_node(
                DagOp::Aggregate {
                    group_by: vec![(Expr::col(0), "k".into())],
                    aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
                },
                vec![u],
                all,
            )
            .unwrap();
        let keys = vec![(Expr::col(0), Expr::col(0))];
        let join = d.add_node(DagOp::Join { keys }, vec![left, right], all).unwrap();
        let root = d
            .add_node(
                DagOp::Aggregate {
                    group_by: vec![(Expr::col(0), "k".into())],
                    aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(3), "t")],
                },
                vec![join],
                all,
            )
            .unwrap();
        d.set_query_root(QueryId(0), root).unwrap();
        d.set_query_root(QueryId(1), root).unwrap();
        let cut = DagPlan::cut(d, Vec::new()).unwrap();
        assert_eq!(cut.plan.len(), 1, "one subplan holds the whole tree");
        cut
    }

    /// The subplan of `cut` rooted at `node`.
    fn rooted_at(cut: &DagPlan, node: ishare_common::NodeId) -> &Subplan {
        &cut.plan.subplans[cut.roots.iter().position(|r| *r == node).unwrap()]
    }

    #[test]
    fn candidate_count_bounded_by_operators() {
        let cut = deep();
        let sp = &cut.plan.subplans[0];
        let cands = subtree_candidates(sp).unwrap();
        // Internal ops: root agg, join, select, agg2 → at most 3 proper
        // candidates (full tree excluded).
        assert!(!cands.is_empty());
        assert!(cands.len() <= sp.root.operator_count());
        // Candidates grow monotonically.
        for w in cands.windows(2) {
            assert!(w[0].len() < w[1].len());
            assert!(w[0].iter().all(|p| w[1].contains(p)));
        }
        // First candidate = root only.
        assert!(cands[0].contains(&Vec::new()));
    }

    #[test]
    fn split_at_root_creates_bottom_for_join() {
        let cut = deep();
        let root = cut.roots[0];
        let mut included = IncludedSet::new();
        included.insert(Vec::new()); // root aggregate only
        let split = force_cut_points(&cut, SubplanId(0), &included).unwrap();
        assert_eq!(split.plan.len(), 2, "the join subtree becomes one bottom");
        let join = cut.dag.node_at(root, &[0]);
        assert_eq!(split.forced, [join]);
        let (top, bottom) = (rooted_at(&split, root), rooted_at(&split, join));
        assert_eq!(bottom.root.op.label(), "join");
        assert_eq!(top.root.op.label(), "aggregate");
        assert_eq!(top.root.inputs[0].op, TreeOp::Input(InputSource::Subplan(bottom.id)));
        assert_eq!(top.children(), vec![bottom.id]);
        assert_eq!(top.output_queries, qs(&[0, 1]));
        assert_eq!(bottom.queries, top.queries);
        assert!(bottom.output_queries.is_empty());
    }

    #[test]
    fn split_deeper_keeps_join_cuts_children() {
        let cut = deep();
        let mut included = IncludedSet::new();
        included.insert(Vec::new());
        included.insert(vec![0]); // include the join
        let split = force_cut_points(&cut, SubplanId(0), &included).unwrap();
        // Left child of join is select (internal → bottom), right is agg2
        // (internal → bottom).
        assert_eq!(split.plan.len(), 3);
        let top = rooted_at(&split, cut.roots[0]);
        assert_eq!(top.root.inputs[0].op.label(), "join");
        assert_eq!(top.children().len(), 2);
    }

    #[test]
    fn leaf_children_stay_inline() {
        let cut = deep();
        let mut included = IncludedSet::new();
        included.insert(Vec::new());
        included.insert(vec![0]);
        included.insert(vec![0, 0]); // select included; its child is a leaf
        let split = force_cut_points(&cut, SubplanId(0), &included).unwrap();
        assert_eq!(split.plan.len(), 2, "only agg2 is cut");
        // The select's base input stays a leaf of the top.
        let top = rooted_at(&split, cut.roots[0]);
        assert!(top.root.referenced_tables().contains(&TableId(0)));
    }
}

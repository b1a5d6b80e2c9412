//! Tick scheduling: which subplan runs at which arrival fraction.
//!
//! A subplan at pace `k` runs when `1/k, 2/k, …, k/k` of the trigger's data
//! has arrived (paper Sec. 2.2). The global schedule merges every subplan's
//! ticks, ordered by arrival fraction and children-first within a shared
//! fraction (Sec. 5.1: "the child subplans are executed earlier than their
//! parent subplans").
//!
//! On top of the flat schedule this module exposes the grouping the
//! wavefront loop runs by: [`wavefronts`] (maximal runs of equal fraction —
//! base relations need feeding only once per front).

use ishare_common::{Error, Result, SubplanId};
use ishare_plan::SharedPlan;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;

/// One scheduled incremental execution: subplan `sp` runs when `num/den` of
/// the trigger's data has arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tick {
    /// Numerator of the arrival fraction.
    pub num: u32,
    /// Denominator of the arrival fraction (the subplan's pace).
    pub den: u32,
    /// Rank in the plan's children-first topological order.
    pub topo_rank: usize,
    /// The subplan to execute.
    pub sp: SubplanId,
    /// `true` for the subplan's last tick (`num == den`).
    pub is_final: bool,
}

impl Tick {
    /// Compare the two ticks' arrival fractions exactly (see [`frac_cmp`]).
    pub fn frac_cmp(&self, other: &Tick) -> Ordering {
        frac_cmp(self.num, self.den, other.num, other.den)
    }
}

/// Compare arrival fractions exactly: `a/b` vs `c/d` ⇔ `a·d` vs `c·b`.
/// Cross-multiplication in `u64` is exact and cannot overflow for `u32`
/// numerators and denominators.
pub fn frac_cmp(a: u32, b: u32, c: u32, d: u32) -> Ordering {
    (u64::from(a) * u64::from(d)).cmp(&(u64::from(c) * u64::from(b)))
}

/// Build the global tick schedule for `plan` at `paces`: every subplan's
/// ticks merged, sorted by arrival fraction with ties broken children-first
/// (topological rank). Errors when `paces` and the plan disagree on the
/// number of subplans.
pub fn build_schedule(plan: &SharedPlan, paces: &[u32]) -> Result<Vec<Tick>> {
    ticks_after(plan, paces, 0, 1)
}

/// Every tick of `plan` at `paces` whose arrival fraction lies strictly
/// beyond `num/den`, sorted by fraction with ties broken children-first
/// (topological rank). At the boundary `0/1` that is the whole schedule.
fn ticks_after(plan: &SharedPlan, paces: &[u32], num: u32, den: u32) -> Result<Vec<Tick>> {
    if paces.len() != plan.len() {
        return Err(Error::InvalidConfig(format!(
            "{} paces for {} subplans",
            paces.len(),
            plan.len()
        )));
    }
    let topo = plan.topo_order()?;
    let topo_rank: HashMap<SubplanId, usize> =
        topo.iter().enumerate().map(|(i, id)| (*id, i)).collect();
    let mut ticks: Vec<Tick> = Vec::new();
    for sp in &plan.subplans {
        let k = paces[sp.id.index()];
        for j in (1..=k).filter(|&j| frac_cmp(j, k, num, den).is_gt()) {
            ticks.push(Tick {
                num: j,
                den: k,
                topo_rank: topo_rank[&sp.id],
                sp: sp.id,
                is_final: j == k,
            });
        }
    }
    ticks.sort_by(|a, b| a.frac_cmp(b).then(a.topo_rank.cmp(&b.topo_rank)));
    Ok(ticks)
}

/// Split a schedule into wavefronts: maximal runs of ticks sharing one
/// arrival fraction, returned as index ranges into the schedule. Every tick
/// in a wavefront observes the same base-relation prefix.
pub fn wavefronts(ticks: &[Tick]) -> Vec<Range<usize>> {
    let mut fronts = Vec::new();
    let mut start = 0;
    for i in 1..=ticks.len() {
        if i == ticks.len() || ticks[i].frac_cmp(&ticks[start]) != Ordering::Equal {
            fronts.push(start..i);
            start = i;
        }
    }
    fronts
}

/// The maximal wavefront starting at `pos`: the run of ticks sharing
/// `ticks[pos]`'s arrival fraction. Incremental counterpart of
/// [`wavefronts`] for drivers whose schedule may change mid-run (adaptive
/// pace switches rebuild the tail, so fronts cannot be precomputed).
pub fn front_at(ticks: &[Tick], pos: usize) -> Range<usize> {
    let mut end = pos + 1;
    while end < ticks.len() && ticks[end].frac_cmp(&ticks[pos]) == Ordering::Equal {
        end += 1;
    }
    pos..end
}

/// Rebuild a schedule around a mid-run pace switch: keep the already
/// executed prefix (`executed`, which must end exactly at the wavefront
/// boundary with arrival fraction `num/den`) and regenerate every remaining
/// tick from `new_paces`, keeping only fractions *strictly* beyond the
/// boundary. Each subplan's final tick (`k/k`, fraction 1) is always beyond
/// a non-final boundary, so every subplan still ends with exactly one final
/// refresh — and because the engine's delta buffers are pull-based, any tick
/// set ending in finals materializes the same results, so a switch can never
/// change answers, only how work is spread over the remaining fronts.
pub fn reschedule_after(
    plan: &SharedPlan,
    executed: &[Tick],
    num: u32,
    den: u32,
    new_paces: &[u32],
) -> Result<Vec<Tick>> {
    if num >= den {
        return Err(Error::InvalidConfig(format!(
            "cannot reschedule at boundary {num}/{den}: stream already complete"
        )));
    }
    let suffix = ticks_after(plan, new_paces, num, den)?;
    let mut out = executed.to_vec();
    out.extend(suffix);
    debug_assert!(
        plan.subplans
            .iter()
            .all(|sp| out.iter().filter(|t| t.sp == sp.id && t.is_final).count() == 1),
        "rescheduled ticks must contain exactly one final tick per subplan"
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{DataType, QueryId, QuerySet};
    use ishare_expr::Expr;
    use ishare_plan::{AggExpr, AggFunc, DagOp, SelectBranch, SharedDag};
    use ishare_storage::{Catalog, ColumnStats, Field, Schema, TableStats};

    fn tick(num: u32, den: u32) -> Tick {
        Tick { num, den, topo_rank: 0, sp: SubplanId(0), is_final: num == den }
    }

    #[test]
    fn frac_cmp_equal_at_different_denominators() {
        assert_eq!(tick(1, 2).frac_cmp(&tick(2, 4)), Ordering::Equal);
        assert_eq!(tick(3, 6).frac_cmp(&tick(1, 2)), Ordering::Equal);
        assert_eq!(tick(2, 2).frac_cmp(&tick(7, 7)), Ordering::Equal);
        assert_eq!(tick(5, 10).frac_cmp(&tick(50, 100)), Ordering::Equal);
    }

    #[test]
    fn frac_cmp_orders_fractions() {
        let fracs = [(1, 5), (1, 3), (2, 5), (1, 2), (2, 3), (3, 4), (1, 1)];
        for (i, &(an, ad)) in fracs.iter().enumerate() {
            for (j, &(bn, bd)) in fracs.iter().enumerate() {
                let got = tick(an, ad).frac_cmp(&tick(bn, bd));
                assert_eq!(got, i.cmp(&j), "{an}/{ad} vs {bn}/{bd}");
            }
        }
    }

    #[test]
    fn frac_cmp_max_pace_values_do_not_overflow() {
        let m = u32::MAX;
        // (MAX-1)/MAX < 1/1 == MAX/MAX; cross products reach (2^32-1)^2 < 2^64.
        assert_eq!(tick(m - 1, m).frac_cmp(&tick(1, 1)), Ordering::Less);
        assert_eq!(tick(m, m).frac_cmp(&tick(1, 1)), Ordering::Equal);
        assert_eq!(tick(1, 1).frac_cmp(&tick(m - 1, m)), Ordering::Greater);
        // Adjacent ticks at the largest possible pace stay distinguishable.
        assert_eq!(tick(1, m).frac_cmp(&tick(2, m)), Ordering::Less);
        assert_eq!(tick(1, m).frac_cmp(&tick(1, m - 1)), Ordering::Less);
        assert_eq!(tick(m - 1, m).frac_cmp(&tick(m - 2, m - 1)), Ordering::Greater);
    }

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    /// The driver's Fig. 2-style fixture: scan→select→aggregate shared by
    /// two queries, with one project subplan per query on top.
    fn fixture() -> (Catalog, SharedPlan) {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
            TableStats {
                row_count: 200.0,
                columns: vec![ColumnStats::ndv(10.0), ColumnStats::ndv(100.0)],
            },
        )
        .unwrap();
        let t = c.table_by_name("t").unwrap().id;
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Scan { table: t }, vec![], qs(&[0, 1])).unwrap();
        let sel = d
            .add_node(
                DagOp::Select {
                    branches: vec![
                        SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() },
                        SelectBranch {
                            queries: qs(&[1]),
                            predicate: Expr::col(1).lt(Expr::lit(50i64)),
                        },
                    ],
                },
                vec![scan],
                qs(&[0, 1]),
            )
            .unwrap();
        let agg = d
            .add_node(
                DagOp::Aggregate {
                    group_by: vec![(Expr::col(0), "k".into())],
                    aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
                },
                vec![sel],
                qs(&[0, 1]),
            )
            .unwrap();
        let p0 = d
            .add_node(
                DagOp::Project {
                    exprs: vec![(Expr::col(0), "k".into()), (Expr::col(1), "s".into())],
                },
                vec![agg],
                qs(&[0]),
            )
            .unwrap();
        let p1 = d
            .add_node(
                DagOp::Project { exprs: vec![(Expr::col(1), "s".into())] },
                vec![agg],
                qs(&[1]),
            )
            .unwrap();
        d.set_query_root(QueryId(0), p0).unwrap();
        d.set_query_root(QueryId(1), p1).unwrap();
        let plan = ishare_plan::SharedPlan::from_dag(&d).unwrap();
        (c, plan)
    }

    #[test]
    fn pace_count_mismatch_rejected() {
        let (_c, plan) = fixture();
        assert!(build_schedule(&plan, &[1, 1]).is_err());
    }

    #[test]
    fn children_run_before_parents_on_shared_ticks() {
        let (_c, plan) = fixture();
        let paces = vec![2u32; plan.len()];
        let ticks = build_schedule(&plan, &paces).unwrap();
        assert_eq!(ticks.len(), 2 * plan.len());
        for front in wavefronts(&ticks) {
            let front = &ticks[front];
            // Every subplan ticks exactly once per shared fraction here.
            assert_eq!(front.len(), plan.len());
            let pos: HashMap<SubplanId, usize> =
                front.iter().enumerate().map(|(i, t)| (t.sp, i)).collect();
            for sp in &plan.subplans {
                for child in sp.children() {
                    assert!(
                        pos[&child] < pos[&sp.id],
                        "child {child} must run before parent {} in a shared tick",
                        sp.id
                    );
                }
            }
        }
    }

    #[test]
    fn wavefronts_partition_by_fraction() {
        let (_c, plan) = fixture();
        let mut paces = vec![1u32; plan.len()];
        paces[0] = 4;
        paces[1] = 2;
        let ticks = build_schedule(&plan, &paces).unwrap();
        let fronts = wavefronts(&ticks);
        // Fractions: 1/4 | 1/2 = 2/4 | 3/4 | 1/1 group (4/4, 2/2, 1/1 …).
        let sizes: Vec<usize> = fronts.iter().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![1, 2, 1, plan.len()]);
        // The ranges tile the schedule in order.
        let mut covered = 0;
        for f in &fronts {
            assert_eq!(f.start, covered);
            covered = f.end;
            let head = ticks[f.start];
            for t in &ticks[f.clone()] {
                assert_eq!(t.frac_cmp(&head), Ordering::Equal);
            }
        }
        assert_eq!(covered, ticks.len());
    }

    #[test]
    fn depth_levels_group_independent_subplans() {
        // Each front runs children before parents: depths never fall along
        // a front, and every child tick precedes its parent's tick.
        let (_c, plan) = fixture();
        let depths = plan.depths();
        let paces: Vec<u32> = (0..plan.len()).map(|i| 1 + i as u32).collect();
        let ticks = build_schedule(&plan, &paces).unwrap();
        for range in wavefronts(&ticks) {
            let front = &ticks[range];
            assert!(front.windows(2).all(|w| depths[w[0].sp.index()] <= depths[w[1].sp.index()]));
            let pos = |sp: SubplanId| front.iter().position(|t| t.sp == sp);
            for sp in &plan.subplans {
                let Some(parent) = pos(sp.id) else { continue };
                for child in sp.children() {
                    assert_ne!(depths[sp.id.index()], depths[child.index()]);
                    if let Some(c) = pos(child) {
                        assert!(c < parent, "child {child} after parent {} in a front", sp.id);
                    }
                }
            }
        }
    }

    #[test]
    fn front_at_agrees_with_wavefronts() {
        let (_c, plan) = fixture();
        let paces: Vec<u32> = (0..plan.len()).map(|i| 1 + i as u32 * 2).collect();
        let ticks = build_schedule(&plan, &paces).unwrap();
        let mut pos = 0;
        let mut incremental = Vec::new();
        while pos < ticks.len() {
            let f = front_at(&ticks, pos);
            pos = f.end;
            incremental.push(f);
        }
        assert_eq!(incremental, wavefronts(&ticks));
    }

    #[test]
    fn reschedule_keeps_prefix_and_regenerates_strict_suffix() {
        let (_c, plan) = fixture();
        let old = vec![4u32; plan.len()];
        let ticks = build_schedule(&plan, &old).unwrap();
        // Boundary after the 2/4 front.
        let boundary = wavefronts(&ticks)[1].end;
        let new_paces: Vec<u32> = (0..plan.len()).map(|i| [6u32, 1][i % 2]).collect();
        let out = reschedule_after(&plan, &ticks[..boundary], 2, 4, &new_paces).unwrap();
        // Prefix untouched.
        assert_eq!(&out[..boundary], &ticks[..boundary]);
        // Suffix: only fractions strictly beyond 1/2, sorted, each subplan
        // ending in exactly one final tick.
        let half = Tick { num: 1, den: 2, topo_rank: 0, sp: SubplanId(0), is_final: false };
        for t in &out[boundary..] {
            assert_eq!(t.frac_cmp(&half), Ordering::Greater, "{}/{} <= 1/2", t.num, t.den);
        }
        for w in out[boundary..].windows(2) {
            assert_ne!(w[0].frac_cmp(&w[1]), Ordering::Greater, "suffix must stay sorted");
        }
        for sp in &plan.subplans {
            assert_eq!(out.iter().filter(|t| t.sp == sp.id && t.is_final).count(), 1);
            let k = new_paces[sp.id.index()];
            // A subplan at new pace k has exactly the ticks j/k with j/k > 1/2.
            let expect = (1..=k).filter(|&j| j as u64 * 2 > k as u64).count();
            assert_eq!(out[boundary..].iter().filter(|t| t.sp == sp.id).count(), expect);
        }
    }

    #[test]
    fn reschedule_rejects_complete_boundary_and_bad_arity() {
        let (_c, plan) = fixture();
        let ticks = build_schedule(&plan, &vec![2u32; plan.len()]).unwrap();
        assert!(reschedule_after(&plan, &ticks, 2, 2, &vec![3u32; plan.len()]).is_err());
        assert!(reschedule_after(&plan, &ticks[..1], 1, 2, &[3]).is_err());
    }
}

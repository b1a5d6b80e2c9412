//! Heap allocations of `PlanEstimator::new` and of one
//! `PlanEstimator::estimate` or `PlanEstimator::estimate_candidate` call,
//! counted by a global allocator of this test binary's own.
//!
//! The plan is all 22 TPC-H queries merged into one shared plan (scale
//! factor 0.002, seed 7). Five calls are counted:
//!
//! * building the estimator (the decomposition pass builds one per
//!   candidate plan it re-paces);
//! * a memo hit: the pace configuration estimated just before, again;
//! * a one-subplan pace change: the first subplan of the children-first
//!   order (a leaf of the subplan DAG) moves from pace 2 to 3, so it
//!   re-simulates, and so does each ancestor one of whose children's
//!   outputs moved, while the rest hit;
//! * a candidate whose changed subplan hits the memo: that subplan back at
//!   pace 2, costed next to the report at pace 3, as a search step does;
//! * a candidate one subplan's pace away: the same subplan at pace 4, never
//!   estimated before, so it re-simulates, and its ancestors do too while
//!   an output moves.
//!
//! Before the simulator kept its buffers across programs, `ColumnStats`
//! became `Copy` and the estimator stopped building vectors it throws away,
//! the second and third were 11 and 278 allocations. What an estimate may
//! allocate now is its report per call and the memoized result per miss
//! (DESIGN.md §3): 3 and 65 here, about four per re-simulated subplan (7
//! and 69 while a report also kept its per-query final work in a map; 105
//! for the change when the memo keyed a simulation by its descendants'
//! paces and 24 subplans re-simulated, against 15 now). A candidate builds no report,
//! so it allocates only its misses' memo entries: 0 and 6 here (98 before).
//! Building the estimator takes 1643 allocations (1782 while it kept each
//! subplan's descendant list). The counts below are a ratchet — lower them when a change lowers
//! them, never raise them.

use ishare_common::{CostWeights, QueryId};
use ishare_cost::{PlanCost, PlanEstimator};
use ishare_plan::SharedPlan;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations and reallocations handed out since the process started.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting the blocks it hands out.
struct CountingAlloc;

// SAFETY: every method forwards its arguments to `System` unchanged; the
// counter is the only addition.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of a one-subplan pace change before the ratchet was set.
const PARENT_ONE_CHANGE: usize = 278;
/// The ratchet: at most this many allocations to build the estimator…
const NEW: usize = 1643;
/// …for a memo hit…
const MEMO_HIT: usize = 3;
/// …and for a one-subplan pace change.
const ONE_CHANGE: usize = 65;
/// The ratchet for a candidate one subplan's pace away from its base (one
/// whose changed subplan hits the memo allocates nothing).
const CANDIDATE_CHANGE: usize = 6;

/// Allocations made by `f`. The binary holds this one test, so no other
/// thread allocates meanwhile.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn estimate_allocates_within_budget() {
    let data = ishare_tpch::generate(0.002, 7).unwrap();
    let queries: Vec<_> = ishare_tpch::all_queries(&data.catalog)
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(i, q)| (QueryId(i as u16), ishare_mqo::normalize(&q.plan)))
        .collect();
    let dag = ishare_mqo::build_shared_dag(&queries, &data.catalog, &Default::default()).unwrap();
    let plan = SharedPlan::from_dag(&dag).unwrap();
    let (new, mut est) =
        allocations(|| PlanEstimator::new(&plan, &data.catalog, CostWeights::default()).unwrap());
    println!("new: {new} allocations");
    assert!(new <= NEW, "building the estimator made {new} allocations");
    let changed = plan.topo_order().unwrap()[0];

    let mut paces = vec![2u32; plan.len()];
    est.estimate(&paces).unwrap();
    let (memo_hit, _) = allocations(|| est.estimate(&paces).unwrap());
    paces[changed.index()] = 3;
    let sims = est.counters.simulations;
    let (one_change, _) = allocations(|| est.estimate(&paces).unwrap());
    let resimulated = est.counters.simulations - sims;
    println!(
        "memo hit: {memo_hit} allocations; one change ({resimulated} re-simulated): {one_change}"
    );

    assert!(resimulated > 1, "the changed subplan has ancestors");
    assert!(memo_hit <= MEMO_HIT, "a memo-hit estimate made {memo_hit} allocations");
    assert!(one_change <= ONE_CHANGE, "a one-subplan change made {one_change} allocations");
    assert!(
        one_change * 10 <= PARENT_ONE_CHANGE * 6,
        "a one-subplan change made {one_change} allocations, over 60% of {PARENT_ONE_CHANGE}"
    );

    // The search's path: candidates costed next to the report they step from.
    let base = est.estimate(&paces).unwrap();
    let mut cand = paces.clone();
    cand[changed.index()] = 2;
    let (cone_hit, _) =
        allocations(|| est.estimate_candidate(&base, &paces, &cand).unwrap().total_work());
    cand[changed.index()] = 4;
    let sims = est.counters.simulations;
    let (cand_change, _) =
        allocations(|| est.estimate_candidate(&base, &paces, &cand).unwrap().total_work());
    let cand_resimulated = est.counters.simulations - sims;
    println!(
        "candidate, cone hits: {cone_hit} allocations; \
         candidate, one change ({cand_resimulated} re-simulated): {cand_change}"
    );
    assert!(
        cand_resimulated <= resimulated,
        "a candidate re-simulated {cand_resimulated} subplans, more than the {resimulated} of an \
         estimate"
    );
    assert_eq!(cone_hit, 0, "a candidate whose cone hits allocated");
    assert!(cand_change <= CANDIDATE_CHANGE, "a candidate change made {cand_change} allocations");
    assert!(
        cand_change <= one_change - memo_hit,
        "a candidate change made {cand_change} allocations, more than the {} of its misses",
        one_change - memo_hit
    );
}

//! Heap allocations of one `PlanEstimator::estimate` call, counted by a
//! global allocator of this test binary's own.
//!
//! The plan is all 22 TPC-H queries merged into one shared plan (scale
//! factor 0.002, seed 7). Two calls are counted:
//!
//! * a memo hit: the pace configuration estimated just before, again;
//! * a one-subplan pace change: the first subplan of the children-first
//!   order (a leaf of the subplan DAG) moves from pace 2 to 3, so it and
//!   every subplan above it re-simulate while the rest hit.
//!
//! Before the simulator kept its buffers across programs, `ColumnStats`
//! became `Copy` and the estimator stopped building vectors it throws away,
//! these were 11 and 278 allocations. What an estimate may allocate now is
//! its report per call and the memoized result per miss (DESIGN.md §3): 7
//! and 105 here, about four per re-simulated subplan. The counts below are
//! a ratchet — lower them when a change lowers them, never raise them.

use ishare_common::{CostWeights, QueryId};
use ishare_cost::PlanEstimator;
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
/// The ratchet: at most this many allocations for a memo hit…
const MEMO_HIT: usize = 7;
/// …and for a one-subplan pace change.
const ONE_CHANGE: usize = 105;

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
    let mut est = PlanEstimator::new(&plan, &data.catalog, CostWeights::default()).unwrap();
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
}

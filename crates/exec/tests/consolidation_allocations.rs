//! Heap allocations of one `JoinState::execute` that consolidates a long
//! join slot, counted by a global allocator of this test binary's own.
//!
//! The left side holds one warm slot of 600 `(row, mask)` pairs, keyed on
//! column 1; the right side is empty, so nothing is probed on the left and
//! nothing is emitted. Each round runs two executions on the left:
//!
//! * an insert-only batch of two new rows, which wait on the slot's pending
//!   tail;
//! * a mixed-sign batch that retracts those two rows and two older ones and
//!   inserts two more, so consolidation point (b) merges the eight pending
//!   entries into the run at the end of the insert phase.
//!
//! Every row is built before the count starts, so what is counted is the
//! operator's own allocation. The insert-only batch allocates the keyed
//! batch's key arena and row list (2). The mixed batch allocates only those
//! too: the merge rebuilds the run's suffix through a per-side scratch
//! buffer and the list of slots that took a retraction is kept per side,
//! both with their capacity. Before the merge sorted its tail in place, the
//! mixed batch took 5 (the merge split the tail off into a new vector and
//! moved the run into a second one); while each insert phase built a fresh
//! retracted-slot list, 3. The counts below are a ratchet — lower them when
//! a change lowers them, never raise them.

use ishare_common::{CostWeights, QuerySet, Value, WorkCounter};
use ishare_exec::join::{JoinKeys, JoinState};
use ishare_expr::Expr;
use ishare_storage::{DeltaBatch, DeltaRow, Row};
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

/// Allocations of the mixed-sign execution before the ratchet was set.
const PARENT_MIXED: usize = 5;
/// The ratchet: at most this many allocations for the insert-only
/// execution…
const INSERT_ONLY: usize = 2;
/// …and for the mixed-sign execution whose retractions are merged.
const MIXED: usize = 2;

/// Pairs stored in the warm slot.
const SLOT: usize = 600;
/// Rounds counted after the warm-up rounds.
const ROUNDS: usize = 20;

fn row(id: usize) -> Row {
    let c0 = (id * 7919 % 1000) as i64 - 500;
    Row::new(vec![Value::Int(c0), Value::Int(0), Value::Int(id as i64)])
}

#[test]
fn consolidating_a_warm_slot_allocates_nothing() {
    let keys = JoinKeys::compile(&[(Expr::col(1), Expr::col(1))]);
    let (weights, counter) = (CostWeights::default(), WorkCounter::new());
    let mask = QuerySet(1);
    let mut st = JoinState::new();
    let run = |st: &mut JoinState, rows: Vec<DeltaRow>| {
        let batch = DeltaBatch::from_rows(rows);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let out = st.execute(batch, DeltaBatch::new(), &keys, &weights, &counter).unwrap();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(out.is_empty(), "the right side is empty: nothing joins");
        allocations
    };

    let mut stored: Vec<Row> = (0..SLOT).map(row).collect();
    run(&mut st, stored.iter().map(|r| DeltaRow::insert(r.clone(), mask)).collect());
    let mut next_id = SLOT;
    let (mut insert_only, mut mixed) = (0, 0);
    for round in 0..ROUNDS + 4 {
        let fresh: Vec<Row> = (next_id..next_id + 4).map(row).collect();
        next_id += 4;
        let pending =
            run(&mut st, fresh[..2].iter().map(|r| DeltaRow::insert(r.clone(), mask)).collect());
        let old = [round * 7 % stored.len(), (round * 13 + 5) % stored.len()];
        let retract = fresh[..2].iter().chain(old.iter().map(|&i| &stored[i]));
        let mut batch: Vec<DeltaRow> = retract.map(|r| DeltaRow::delete(r.clone(), mask)).collect();
        batch.extend(fresh[2..].iter().map(|r| DeltaRow::insert(r.clone(), mask)));
        let merged = run(&mut st, batch);
        for (i, r) in old.into_iter().zip(&fresh[2..]) {
            stored[i] = r.clone();
        }
        // The first rounds warm the slot's capacity and the merge's scratch.
        if round >= 4 {
            insert_only = insert_only.max(pending);
            mixed = mixed.max(merged);
        }
    }
    assert_eq!(st.left_size(), SLOT, "each round nets to no change in size");

    assert!(
        insert_only <= INSERT_ONLY,
        "an insert-only execution allocated {insert_only} times, above its ratchet of \
         {INSERT_ONLY}"
    );
    assert!(
        mixed <= MIXED,
        "a merging execution allocated {mixed} times (it took {PARENT_MIXED} when the merge \
         allocated), above its ratchet of {MIXED}"
    );
    assert_eq!(mixed, insert_only, "the merge and the retracted-slot list allocate nothing");
}

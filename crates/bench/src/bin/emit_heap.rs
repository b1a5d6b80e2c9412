//! Heap bytes allocated per emitted row by the `join_emit_wide` chain
//! (orders ⋈ customer, then lineitem ⋈ that; see
//! `harness::wide_join_chain`), on both datapaths.
//!
//! ```text
//! cargo run -p ishare-bench --release --bin emit_heap
//! ```
//!
//! A binary of its own because it installs a counting global allocator;
//! `figures`, which times the same chain, runs on the plain system
//! allocator. The count is every allocation's size plus every
//! reallocation's growth while the chain runs — output rows, join state,
//! key arenas — with the inputs built before counting starts.

use ishare_bench::harness::{wide_join_chain, wide_join_input, WIDE_JOIN_ORDERS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes handed out by [`CountingAlloc`] since the process started.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// The system allocator, adding up the bytes it hands out.
struct CountingAlloc;

// SAFETY: every method forwards its arguments to `System` unchanged; the
// counter is the only addition.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let growth = new_size.saturating_sub(layout.size());
        ALLOCATED.fetch_add(growth as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let input = wide_join_input(WIDE_JOIN_ORDERS);
    println!("join_emit_wide, {WIDE_JOIN_ORDERS} orders: heap bytes allocated per emitted row");
    for (name, reference) in [("kernel", false), ("reference", true)] {
        let run = input.clone();
        let before = ALLOCATED.load(Ordering::Relaxed);
        let emitted = match wide_join_chain(run, reference) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("emit_heap: {name} chain failed: {e}");
                std::process::exit(1);
            }
        };
        let bytes = ALLOCATED.load(Ordering::Relaxed) - before;
        println!("{name:<10} {:>6.0} B/row over {emitted} rows", bytes as f64 / emitted as f64);
    }
}

//! Building a netlist allocates nothing per cell.
//!
//! Cells keep their pins inline and derive auto names and net names
//! on demand, and the fanout is one offsets-plus-sinks table, so the
//! heap traffic of a build is a fixed number of table allocations plus
//! the logarithmic growth of the builder's cell vector, whatever the
//! cell count. This binary installs a counting global allocator and
//! checks that bound on a 10,000-gate chain; the count is
//! deterministic, so the test times nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use optpower_netlist::{CellKind, NetlistBuilder};

/// The system allocator, counting allocation calls (fresh and
/// resized) made by the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`; the only addition
// is a thread-local counter whose access neither allocates nor panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made by `f` on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn building_a_netlist_allocates_nothing_per_cell() {
    const GATES: usize = 10_000;
    let (netlist, allocations) = allocations_of(|| {
        let mut b = NetlistBuilder::new("chain");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let mut net = x;
        for i in 0..GATES {
            let kind = if i % 2 == 0 {
                CellKind::Xor2
            } else {
                CellKind::And2
            };
            net = b.add_cell(kind, &[net, y]);
        }
        b.add_output("p", net);
        b.build_pruned().expect("a feed-forward chain builds")
    });
    assert_eq!(netlist.logic_cell_count(), GATES);
    assert!(
        allocations < 64,
        "building {GATES} cells made {allocations} heap allocations"
    );
}

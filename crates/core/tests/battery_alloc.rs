//! Pins what a crash point of the battery costs in host memory traffic:
//! bytes allocated per outer crash point, steady state, as a multiple of
//! the pool capacity, measured with a counting global allocator over the
//! 1 MiB bank session.
//!
//! A point needs the pool its session builds; a nested point the crashed
//! image kept for nesting and its own re-crashed one. Everything else the
//! battery does with an image — the power failure, the heap walk, the
//! parity comparison, the copy a second recovery runs on — reads in place
//! or reuses the buffer of a pool it is done with, so a pool-sized
//! allocation creeping back into the loop fails here. (Before the images
//! were handled this way the same measurement read 10.05 x capacity with
//! `Nested::Off` and 21.09 x with `Nested::Rotating`.)
//!
//! This file intentionally holds a single test: the counter is global, so
//! a concurrently running test in the same binary would pollute the delta.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use clobber_nvm::{Backend, CrashBattery, Nested};

static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: delegates every operation to `System` unchanged; the counter is
// a relaxed atomic with no effect on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Pool capacity of the bank session (`common::setup_with`).
const CAPACITY: u64 = 1 << 20;

/// The most bytes any steady-state outer crash point of a full clobber
/// sweep allocated, in pool capacities. A point is measured from the
/// moment its recovered pool is served to the same moment of the next, and
/// the first two (which size the recycled buffers) are left out.
fn worst_point(nested: Nested) -> f64 {
    let session = common::bank_session(Backend::clobber());
    let battery = CrashBattery {
        session: &session,
        drive: &common::drive_script,
        nested,
    };
    let mut marks = Vec::with_capacity(256);
    let summary = battery
        .sweep(1, u64::MAX, |r| {
            if r.nested_at.is_none() {
                marks.push(BYTES.load(Ordering::Relaxed));
            }
        })
        .unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(marks.len() as u64, summary.crash_points);
    assert!(marks.len() > 8, "the sweep reaches a steady state");
    let worst = marks[2..]
        .windows(2)
        .map(|w| w[1] - w[0])
        .max()
        .expect("steady-state points");
    worst as f64 / CAPACITY as f64
}

#[test]
fn a_crash_point_allocates_a_bounded_number_of_images() {
    let off = worst_point(Nested::Off);
    let rotating = worst_point(Nested::Rotating);
    println!("bytes allocated per crash point: {off:.2} x capacity (Nested::Off), {rotating:.2} x (Nested::Rotating)");
    // One image and three, plus what the runtimes and cache models of a
    // point's pools allocate (a fraction of an image): one more pool-sized
    // copy anywhere in the loop crosses these.
    assert!(off <= 2.0, "Nested::Off allocates {off:.2} x capacity");
    assert!(
        rotating <= 4.0,
        "Nested::Rotating allocates {rotating:.2} x capacity"
    );
}

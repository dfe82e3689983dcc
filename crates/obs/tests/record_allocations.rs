//! The record contract, as `cargo test` holds it: once a thread has
//! picked its counter shard and the span ring has cycled, recording —
//! counter add, gauge set, histogram record, tracer span, trace-context
//! enter / propagate, span-guard open / close, and the two closing calls
//! of a timed region (`record_since`, `SpanGuard::finish`) feeding a
//! histogram the duration they return — allocates nothing.
//!
//! One `#[test]`, so nothing else runs in this process while it counts;
//! the counter is per thread all the same, because the harness's own
//! main thread is alive beside the test's. (An integration test is its
//! own crate: the allocator's `unsafe impl` lives here and `taco_obs`
//! keeps `#![forbid(unsafe_code)]`.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as Counter;
use taco_obs::{Obs, SpanCat, TraceContext};

/// Counts every allocation and reallocation the calling thread makes.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it from inside
    // the allocator can neither allocate nor find it torn down.
    static ALLOCATIONS: Counter<u64> = const { Counter::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that does not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Counter::get)
}

#[test]
fn warm_records_allocate_nothing_and_land_in_the_snapshot() {
    let obs = Obs::new_default();
    let plain = obs.metrics.counter("taco_test_ops_total");
    let labeled = obs.metrics.counter_with("taco_test_mode_total", "mode=\"test\"");
    let gauge = obs.metrics.gauge("taco_test_depth");
    let hist = obs.metrics.histogram_with("taco_test_ns", "mode=\"test\"");
    // A pinned request context, as the server propagates per connection.
    let root = obs.tracer.new_root();

    // What the server runs per request, after one of every plain record:
    // enter the wire context, read it back, open a child guard under it,
    // record a span at explicit coordinates (the registry's batch link),
    // close a leaf region and the guard, each duration into the histogram.
    let round = |i: u64| {
        plain.inc();
        labeled.add(i);
        gauge.set(i as i64);
        hist.record(i);
        let now = obs.tracer.now_ns();
        obs.tracer.record("round", SpanCat::Recalc, now, i, i, i);
        let _g = root.enter();
        let ctx = TraceContext::current();
        assert_eq!(ctx.span_id, root.span_id, "enter must install the context");
        let mut guard = obs.tracer.span_guard("round.guard", SpanCat::WalAppend);
        guard.a = i;
        let link = TraceContext {
            span_id: i.wrapping_add(1 << 32),
            parent_id: guard.context().span_id,
            ..ctx
        };
        obs.tracer.record_at("round.child", SpanCat::WalFsync, link, now, i, i, 0);
        hist.record(obs.tracer.record_since("round.leaf", SpanCat::Publish, now, i, 0));
        hist.record(guard.finish());
    };

    // The first rounds pick the thread's counter shard and cycle the span
    // ring past its initial state.
    const WARM: u64 = 64;
    const BATCH: u64 = 10_000;
    (0..WARM).for_each(round);
    let before = allocations();
    (0..BATCH).for_each(round);
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "{BATCH} warm record rounds allocated {allocated} times");

    // The records landed: the loop was not optimised away.
    let snap = obs.snapshot();
    assert_eq!(snap.counter("taco_test_ops_total"), Some(WARM + BATCH));
    assert_eq!(
        snap.histogram("taco_test_ns", "mode=\"test\"").map(|h| h.count),
        Some(3 * (WARM + BATCH))
    );
    assert!(allocations() > before, "a snapshot allocates, and the counter must see it");
}

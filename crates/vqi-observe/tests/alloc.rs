//! Allocation accounting for the disabled observability path.
//!
//! The overhead contract says a `span!` site costs one relaxed atomic
//! load while recording is disabled — in particular it must not heap
//! allocate, not even to materialize the span name. This test installs
//! a counting global allocator and pins that down; it also checks the
//! enabled fast path for a literal (non-interpolated) span name: once
//! its histogram is registered, with the journal disarmed, it borrows
//! the `&'static str` and allocates nothing at all.
//!
//! Lives in `tests/` rather than the unit-test module because a
//! `#[global_allocator]` needs `unsafe impl GlobalAlloc`, and the
//! library itself forbids unsafe code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: delegates verbatim to the system allocator; the counter is a
// relaxed atomic and never influences allocation behaviour.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn disabled_span_sites_do_not_allocate() {
    // one process-wide test (no #[serial] harness here), so exercise
    // both phases in sequence: disabled first, then the enabled
    // borrowed-literal path
    vqi_observe::set_enabled(false);
    vqi_observe::set_journal_enabled(false);

    let disabled = allocations_during(|| {
        for i in 0..64 {
            let _s = vqi_observe::span!("alloc.test.disabled");
            // the format arguments must stay unevaluated too
            let _t = vqi_observe::span!("alloc.test.shard{i}");
            vqi_observe::count!(format!("alloc.test.{i}"), 1);
            vqi_observe::instant("alloc.test.instant");
        }
    });
    assert_eq!(
        disabled, 0,
        "disabled observability sites must not heap-allocate"
    );

    // enabled, journal disarmed, literal name: the first span
    // registers its histogram; after that the guard only clones the
    // histogram handle and reads the clock
    vqi_observe::set_enabled(true);
    vqi_observe::reset();
    let _ = allocations_during(|| {
        let _s = vqi_observe::span!("alloc.test.literal");
    });
    let literal = allocations_during(|| {
        for _ in 0..64 {
            let _s = vqi_observe::span!("alloc.test.literal");
        }
    });
    assert_eq!(literal, 0, "a warmed literal span must not heap-allocate");
    let formatted = allocations_during(|| {
        let _s = vqi_observe::span!("alloc.test.{}", "formatted");
    });
    assert!(
        formatted > 0,
        "interpolated names materialize a String while enabled"
    );
    vqi_observe::set_enabled(false);
    vqi_observe::reset();
}

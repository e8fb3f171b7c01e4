//! Regression test for the SoA round engine's zero-alloc steady state:
//! after one warm-up pass, recomputing every round of a pinned FMS
//! workload into the reused [`fppn_sim::hotpath::SeqRounds`] scratch
//! buffers must perform **zero** heap allocations — both in the default
//! loop, where the frame memo engages, and in the memo-off reference.
//!
//! The test binary installs its own counting `#[global_allocator]` (an
//! integration test is a separate crate root, so this never affects the
//! library or other tests) and therefore runs under a plain
//! `cargo test -q` — no feature flags needed. The counter is per thread:
//! the code under test runs on the test's own thread, and the test
//! harness runs sibling tests concurrently on other threads, whose
//! allocations must not count. The scoped `#[allow]` overrides the
//! crate's `unsafe_code = "deny"` lint for the one `GlobalAlloc` impl.

use std::cell::Cell;

thread_local! {
    /// Allocations made by the current thread. Each test reads only its
    /// own thread's count, so sibling tests running concurrently in this
    /// binary cannot pollute the measurement. `const` initialisation and
    /// a `Drop`-free `Cell` keep the slot itself allocation-free.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations (including reallocations) made so far by this thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct CountingAlloc;

#[allow(unsafe_code)]
mod counting_impl {
    use super::{CountingAlloc, ALLOCATIONS};
    use std::alloc::{GlobalAlloc, Layout, System};

    fn count() {
        // `try_with`: a thread being torn down may still allocate.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }

    // SAFETY: every call forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; counting only bumps a
    // thread-local `Cell` and never allocates or unwinds.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            System.realloc(ptr, layout, new_size)
        }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The memo-off reference loop: every frame computed live into the reused
/// scratch buffers.
#[test]
fn steady_state_round_computation_allocates_nothing() {
    use fppn_apps::{fms_network, fms_wcet, FmsVariant};
    use fppn_sched::{list_schedule, Heuristic};
    use fppn_sim::hotpath::SeqRounds;
    use fppn_sim::{SimConfig, StaticTables};
    use fppn_taskgraph::derive_task_graph;

    let (net, _, ids) = fms_network(FmsVariant::Original);
    let derived = derive_task_graph(&net, &fms_wcet(&ids)).expect("derivable");
    let schedule = list_schedule(&derived.graph, 4, Heuristic::AlapEdf);
    let tables = StaticTables::build(&net, &derived, &schedule);
    let stimuli = fppn_core::Stimuli::new();
    let cfg = SimConfig {
        frames: 8,
        ..SimConfig::default()
    };
    let mut rounds = SeqRounds::new_reference(&net, &stimuli, &derived, &tables, &cfg)
        .expect("round tables");

    // Warm-up: grows every scratch buffer to its final capacity.
    let n = rounds.compute().expect("warm-up compute");
    assert!(n > 1_000, "pinned workload should be non-trivial, got {n} rounds");

    let before = allocations();
    for _ in 0..3 {
        let again = rounds.compute().expect("steady-state compute");
        assert_eq!(again, n, "round count must be stable across recomputes");
    }
    let delta = allocations() - before;
    assert_eq!(rounds.memo_stats(), (0, 0), "the reference never consults the memo");
    assert_eq!(
        delta, 0,
        "steady-state round loop allocated {delta} times; the RoundScratch \
         buffers are supposed to be fully reused after warm-up"
    );
}

/// Same gate with cooperative cancellation armed: a live (never-tripping)
/// deadline token's per-boundary checks — a relaxed atomic load plus an
/// occasional `Instant::now()` — must not cost the round loop its
/// zero-alloc steady state. This is what lets `fppn-serve` put a deadline
/// on every pooled run for free.
#[test]
fn steady_state_with_armed_cancel_token_allocates_nothing() {
    use fppn_apps::{fms_network, fms_wcet, FmsVariant};
    use fppn_sched::{list_schedule, Heuristic};
    use fppn_sim::hotpath::SeqRounds;
    use fppn_sim::{CancelToken, SimConfig, StaticTables};
    use fppn_taskgraph::derive_task_graph;
    use std::time::Duration;

    let (net, _, ids) = fms_network(FmsVariant::Original);
    let derived = derive_task_graph(&net, &fms_wcet(&ids)).expect("derivable");
    let schedule = list_schedule(&derived.graph, 4, Heuristic::AlapEdf);
    let tables = StaticTables::build(&net, &derived, &schedule);
    let stimuli = fppn_core::Stimuli::new();
    let cfg = SimConfig {
        frames: 8,
        ..SimConfig::default()
    };
    // A deadline far enough out that the token never trips mid-test, so
    // every compute exercises the armed checks end to end.
    let token = CancelToken::with_deadline(Duration::from_secs(3600));
    let mut rounds =
        SeqRounds::new(&net, &stimuli, &derived, &tables, &cfg).expect("round tables");
    rounds.set_cancel(&token);

    let n = rounds.compute().expect("warm-up compute");
    let before = allocations();
    for _ in 0..3 {
        let again = rounds.compute().expect("steady-state compute");
        assert_eq!(again, n, "round count must be stable across recomputes");
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "armed cancellation checks allocated {delta} times on the \
         steady-state round path; they must stay allocation-free"
    );
    assert!(!token.is_cancelled(), "the far deadline tripped mid-test");
}

/// Same gate on the default loop, where the frame memo engages: after the
/// warm-up compute has populated the memo and grown every entry buffer,
/// steady-state recomputes must replay hit frames — fingerprint, table
/// scan, content check, record copy — without a single heap allocation. A memo that
/// allocates per hit would trade the zero-alloc steady state for its
/// speedup; this pins that it does neither.
#[test]
fn steady_state_with_frame_memo_allocates_nothing() {
    use fppn_apps::{fms_network, fms_wcet, FmsVariant};
    use fppn_sched::{list_schedule, Heuristic};
    use fppn_sim::hotpath::SeqRounds;
    use fppn_sim::{SimConfig, StaticTables};
    use fppn_taskgraph::derive_task_graph;

    let (net, _, ids) = fms_network(FmsVariant::Original);
    let derived = derive_task_graph(&net, &fms_wcet(&ids)).expect("derivable");
    let schedule = list_schedule(&derived.graph, 4, Heuristic::AlapEdf);
    let tables = StaticTables::build(&net, &derived, &schedule);
    let stimuli = fppn_core::Stimuli::new();
    let cfg = SimConfig {
        frames: 8,
        ..SimConfig::default()
    };
    let mut rounds =
        SeqRounds::new(&net, &stimuli, &derived, &tables, &cfg).expect("round tables");

    // Warm-up: grows the scratch buffers *and* the memo entry buffers.
    let n = rounds.compute().expect("warm-up compute");
    let (warm_hits, warm_misses) = rounds.memo_stats();
    assert!(
        warm_hits > 0,
        "the pinned periodic workload must replay frames ({warm_hits}h/{warm_misses}m)"
    );

    let before = allocations();
    for _ in 0..3 {
        let again = rounds.compute().expect("steady-state compute");
        assert_eq!(again, n, "round count must be stable across recomputes");
    }
    let delta = allocations() - before;
    let (hits, _) = rounds.memo_stats();
    assert!(hits > warm_hits, "steady-state computes must keep hitting");
    assert_eq!(
        delta, 0,
        "memoized steady-state round loop allocated {delta} times; hit \
         replay must reuse the memo entry buffers, not the allocator"
    );
}

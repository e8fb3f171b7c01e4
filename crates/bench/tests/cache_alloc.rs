//! Regression test for the artifact cache's zero-alloc hit path: once an
//! artifact is cached, `get_or_compile` for an equal `(network, config)`
//! pair must hash the key, look it up and clone the `Arc` without a
//! single heap allocation — the compile phase is provably skipped.
//!
//! Same per-thread counting `#[global_allocator]` as `alloc_zero.rs` (an
//! integration test is its own crate root, so the allocator is local to
//! this binary); the scoped `#[allow]` overrides the crate's
//! `unsafe_code = "deny"` lint for the one `GlobalAlloc` impl.

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

#[test]
fn cache_hits_allocate_nothing() {
    use fppn_apps::{fms_network, fms_wcet, FmsVariant};
    use fppn_serve::ArtifactCache;
    use fppn_sim::CompileConfig;

    let (net, _, ids) = fms_network(FmsVariant::Original);
    let cfg = CompileConfig::new(fms_wcet(&ids), 4);
    let cache = ArtifactCache::new();

    // Warm-up: the one and only compile.
    let warm = cache.get_or_compile(&net, &cfg).expect("FMS compiles");
    assert_eq!((cache.hits(), cache.misses()), (0, 1));

    let before = allocations();
    for _ in 0..10 {
        let hit = cache.get_or_compile(&net, &cfg).expect("cache hit");
        assert_eq!(hit.content_hash(), warm.content_hash());
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "cache-hit get_or_compile allocated {delta} times; the hit path \
         must be hash + lookup + Arc::clone, no compile-phase work"
    );
    assert_eq!((cache.hits(), cache.misses()), (10, 1));
}

/// The cross-run result cache's hit path, held to the same standard: once
/// a `(artifact, stimuli, config)` result is cached, re-keying the same
/// request and looking it up must be hash + lookup + `Arc::clone` — zero
/// heap allocations, no simulation work.
#[test]
fn run_cache_hits_allocate_nothing() {
    use std::sync::Arc;

    use fppn_apps::{fms_network, fms_wcet, FmsVariant};
    use fppn_serve::{run_key, RunCache};
    use fppn_sim::{CompileConfig, CompiledNetwork, SimConfig};

    let (net, bank, ids) = fms_network(FmsVariant::Original);
    let bank = Arc::new(bank);
    let artifact = CompiledNetwork::compile(net, &CompileConfig::new(fms_wcet(&ids), 4))
        .expect("FMS compiles");
    let stimuli = fppn_core::Stimuli::new();
    let config = SimConfig {
        frames: 2,
        ..SimConfig::default()
    };
    let run = Arc::new(
        artifact
            .simulate(&bank, &stimuli, &config)
            .expect("FMS run"),
    );

    let cache = RunCache::new(4);
    cache.insert(
        run_key(&artifact, &stimuli, &config),
        Arc::clone(&bank),
        Arc::clone(&run),
    );

    let before = allocations();
    for _ in 0..10 {
        let key = run_key(&artifact, &stimuli, &config);
        let hit = cache.lookup(key, &bank).expect("warm cache hit");
        assert!(Arc::ptr_eq(&hit, &run), "hit must share the cached run");
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "run-cache hit path allocated {delta} times; keying and lookup \
         must be hash + lookup + Arc::clone"
    );
    assert_eq!((cache.hits(), cache.misses()), (10, 0));
}

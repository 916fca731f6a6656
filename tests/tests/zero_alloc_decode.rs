//! Zero-allocation decode sentinel: the dynamic twin of the static
//! `hot-path-alloc` rule in `hnlpu-analyze`.
//!
//! The static analyzer proves no *allocation call* is reachable from the
//! decode hot path; this test proves the *allocator* agrees. A counting
//! `#[global_allocator]` wraps the system allocator, and after a warmup
//! generation the steady-state `step_with` loop of both engines (the
//! dataflow executor and the reference transformer) must perform exactly
//! zero heap allocations — under both the rayon and serial builds
//! (`--features count-alloc` / `--no-default-features --features
//! count-alloc,…`). The counter is process-wide, so the tests take a
//! lock and never measure while another test allocates.
//!
//! Run with: `cargo test -p hnlpu-integration --features count-alloc`

#![cfg(feature = "count-alloc")]

use hnlpu::llm::{DataflowExecutor, PrefixCache, PrefixCacheConfig, Transformer};
use hnlpu::model::{zoo, ModelWeights, WeightGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// System allocator with a relaxed allocation counter.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Held for a whole test, so no other test allocates inside a measured
/// window.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn steady_state_decode_performs_zero_allocations() {
    let _serial = serial();
    const PROMPT: &[u32] = &[2, 4, 8, 16];
    const WARMUP_STEPS: usize = 4;
    const MEASURED_STEPS: usize = 16;

    let card = zoo::dataflow_test_model();
    let weights = ModelWeights::materialize(&card.config, &WeightGenerator::new(42));
    let engine = DataflowExecutor::new(weights);
    let mut state = engine.new_state();
    let mut scratch = engine.new_scratch();

    // Size the context-dependent buffers for the whole run up front —
    // the serving layer does the same per admitted sequence.
    let horizon = PROMPT.len() + WARMUP_STEPS + MEASURED_STEPS;
    state.reserve_context(horizon);
    scratch.reserve_context(horizon);

    // Prefill plus warmup decode: first touches of lazily-sized buffers
    // (rope table growth, lora scratch, kernel dispatch init) land here.
    let mut token = *PROMPT.last().expect("non-empty prompt");
    for &t in PROMPT {
        engine.step_with(t, &mut state, &mut scratch);
    }
    for _ in 0..WARMUP_STEPS {
        engine.step_with(token, &mut state, &mut scratch);
        token = argmax(scratch.logits());
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(
        before > 0,
        "counter miswired: model construction must have allocated"
    );
    for _ in 0..MEASURED_STEPS {
        engine.step_with(token, &mut state, &mut scratch);
        token = argmax(scratch.logits());
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state decode allocated {} times over {MEASURED_STEPS} steps",
        after - before
    );
}

/// The paged twin of the sentinel above: a sequence that *hit* the
/// prefix cache decodes through shared, refcounted pages (indirect page
/// lookup in `key`/`value`) — and the steady-state loop still performs
/// exactly zero heap allocations. Attach-time work (boundary-block
/// copy-on-write, page table growth) happens before the measured window,
/// exactly as it does at admission in the serving layer.
#[test]
fn prefix_hit_decode_through_shared_pages_performs_zero_allocations() {
    let _serial = serial();
    const WARMUP_STEPS: usize = 4;
    const MEASURED_STEPS: usize = 16;

    // Three full 16-token blocks; the cache caps the match at 47 so the
    // final token is prefilled by the reader itself.
    let prompt: Vec<u32> = (0..48u32).map(|i| (i * 11 + 5) % 96).collect();

    let card = zoo::dataflow_test_model();
    let weights = ModelWeights::materialize(&card.config, &WeightGenerator::new(42));
    let engine = DataflowExecutor::new(weights);

    // Donor sequence: prefill the whole prompt, then commit its full
    // blocks into a prefix cache (freezing them into shared pages).
    let mut cache = PrefixCache::new(PrefixCacheConfig::default());
    let mut donor_grant = Vec::new();
    {
        let mut donor = engine.new_state();
        let mut scratch = engine.new_scratch();
        donor.reserve_context(prompt.len());
        scratch.reserve_context(prompt.len());
        for &t in &prompt {
            engine.step_with(t, &mut donor, &mut scratch);
        }
        cache.commit(&prompt, |b| donor.share_block(b), &mut donor_grant);
    }

    // Reader sequence: attach the cached prefix and decode through it.
    let m = cache.match_prompt(&prompt);
    assert_eq!(m.matched, prompt.len() - 1, "full-block prefix hit");
    let mut grant = Vec::new();
    cache.retain_match(&m, &mut grant);

    let mut state = engine.new_state();
    let mut scratch = engine.new_scratch();
    state.attach_prefix(m.matched, &m.blocks, cache.pool());
    let horizon = prompt.len() + WARMUP_STEPS + MEASURED_STEPS;
    state.reserve_context(horizon);
    scratch.reserve_context(horizon);

    // Prefill the unmatched final token, then warm up the decode loop.
    let mut token = *prompt.last().expect("non-empty prompt");
    engine.step_with(token, &mut state, &mut scratch);
    for _ in 0..WARMUP_STEPS {
        engine.step_with(token, &mut state, &mut scratch);
        token = argmax(scratch.logits());
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..MEASURED_STEPS {
        engine.step_with(token, &mut state, &mut scratch);
        token = argmax(scratch.logits());
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "shared-page decode allocated {} times over {MEASURED_STEPS} steps",
        after - before
    );

    // The grant ledger still balances after the measured run.
    cache.release_grant(&mut grant);
    cache.release_grant(&mut donor_grant);
    cache.flush();
    assert!(cache.ledger_balanced(), "every page freed exactly once");
}

/// The reference engine decodes through the same width-1 panel path as
/// the dataflow executor; its steady-state loop is allocation-free too.
#[test]
fn reference_steady_state_decode_performs_zero_allocations() {
    let _serial = serial();
    const PROMPT: &[u32] = &[2, 4, 8, 16];
    const WARMUP_STEPS: usize = 4;
    const MEASURED_STEPS: usize = 16;

    let card = zoo::test_model();
    let weights = ModelWeights::materialize(&card.config, &WeightGenerator::new(42));
    let engine = Transformer::new(weights);
    let mut cache = engine.new_cache();
    let mut scratch = engine.new_scratch();
    let horizon = PROMPT.len() + WARMUP_STEPS + MEASURED_STEPS;
    cache.reserve(horizon);
    scratch.reserve_context(horizon);

    let mut token = *PROMPT.last().expect("non-empty prompt");
    for &t in PROMPT {
        engine.step_with(t, &mut cache, &mut scratch);
    }
    for _ in 0..WARMUP_STEPS {
        engine.step_with(token, &mut cache, &mut scratch);
        token = argmax(scratch.logits());
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..MEASURED_STEPS {
        engine.step_with(token, &mut cache, &mut scratch);
        token = argmax(scratch.logits());
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "reference steady-state decode allocated {} times over {MEASURED_STEPS} steps",
        after - before
    );
}

/// Greedy next token without allocating.
fn argmax(logits: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best as u32
}

//! The decode step allocates nothing once a thread is warm.
//!
//! A counting global allocator tallies each thread's heap allocations.
//! A draw from a fitted Large context, repeated on the same thread,
//! must then allocate a fixed handful of times whether it generates 64
//! tokens or 256: per draw, not per token. What remains is per draw:
//!
//! - the session box;
//! - the session's history keys and its per-order row locations;
//! - the distribution buffer;
//! - the sampler's candidate buffer (one per sampler, kept across tokens);
//! - the output vector's doublings (5 up to 64 tokens, 7 up to 256);
//! - the decoded `String`.
//!
//! The session's count overlay is the thread's spare from the previous
//! draw, so it neither grows nor rehashes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mc_lm::{
    fit_model, generate_session, CharTokenizer, GenerateOptions, ModelPreset, Sampler,
    SamplerConfig, Tokenizer, Vocab,
};

thread_local! {
    /// Heap allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // A thread being torn down has no counter left; its frees and late
    // allocations are not the draw's.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting touches only a const-initialised thread-local `Cell`, which
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The most allocations a warm draw may make, at either length: 13
/// measured at 256 tokens (11 at 64), plus slack for the standard
/// library's own bookkeeping.
const MAX_WARM_DRAW_ALLOCS: u64 = 16;

#[test]
fn a_warm_draw_allocates_per_draw_not_per_token() {
    // A rendered digit series, as the digit codec writes one: three-digit
    // values, comma-separated.
    let vocab = Vocab::numeric();
    let tokenizer = CharTokenizer::new(vocab.clone());
    let series: String = (0..600u32).map(|i| format!("{:03},", (i * 37 + i * i) % 1000)).collect();
    let prompt = tokenizer.encode(&series).expect("digits and commas are in the vocabulary");
    let frozen = fit_model(ModelPreset::Large, vocab.len(), &prompt);
    let mut allowed = vec![false; vocab.len()];
    for id in vocab.ids_of("0123456789,") {
        allowed[id as usize] = true;
    }
    let draw = |tokens: usize| {
        let mut session = frozen.fork();
        let mut sampler = Sampler::new(SamplerConfig { seed: 7, ..SamplerConfig::default() });
        let options = GenerateOptions { max_tokens: tokens, stop_token: None, stop_count: 0 };
        let out =
            generate_session(session.as_mut(), &mut sampler, |t| allowed[t as usize], &options);
        tokenizer.decode(&out).expect("sampled ids are in the vocabulary")
    };
    let mut counts = Vec::new();
    for tokens in [64, 256] {
        let cold = draw(tokens);
        assert_eq!(cold.len(), tokens);
        for _ in 0..2 {
            let (n, warm) = allocations(|| draw(tokens));
            assert_eq!(warm, cold, "a recycled overlay must decode like a new one");
            assert!(
                n <= MAX_WARM_DRAW_ALLOCS,
                "a warm {tokens}-token draw made {n} allocations (bound {MAX_WARM_DRAW_ALLOCS})"
            );
            counts.push(n);
        }
    }
    // Per draw, not per token: four times the tokens add only the output
    // vector's two extra doublings.
    assert_eq!(counts[2], counts[0] + 2, "allocations at 64 and 256 tokens: {counts:?}");
    assert_eq!((counts[0], counts[2]), (counts[1], counts[3]), "repeats: {counts:?}");
}

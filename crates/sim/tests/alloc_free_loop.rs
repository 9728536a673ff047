//! The Monte Carlo frame loop allocates nothing per frame.
//!
//! A counting global allocator tallies every allocation made outside a
//! decoder's `decode_block`; a wrapping decoder raises a thread-local
//! flag around that call, so the decoder's own results are excluded.
//! The engine's set-up (worker thread, channel, buffers, the decoder's
//! construction) costs the same at any frame budget, so a 640-frame run
//! must allocate exactly what a 64-frame run does.
//!
//! This file is its own test binary with a single test, so no other test
//! allocates while the counter is read.

use ldpc_core::codes::small::demo_code;
use ldpc_core::{BlockDecoder, DecodeResult, DecoderSpec};
use ldpc_sim::{run_point_blocks, MonteCarloConfig, Transmission};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static IN_DECODER: Cell<bool> = const { Cell::new(false) };
}

fn count_allocation() {
    if !IN_DECODER.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for the caller. The bookkeeping touches
// only an atomic and a const-initialized thread-local without a
// destructor; neither allocates or unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract;
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract;
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Raises this thread's decoder flag for the duration of `decode_block`.
struct Flagged(Box<dyn BlockDecoder>);

impl BlockDecoder for Flagged {
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        IN_DECODER.with(|flag| flag.set(true));
        let out = self.0.decode_block(llrs, max_iterations);
        IN_DECODER.with(|flag| flag.set(false));
        out
    }

    fn block_frames(&self) -> usize {
        self.0.block_frames()
    }

    fn n(&self) -> usize {
        self.0.n()
    }

    fn name(&self) -> String {
        self.0.name()
    }
}

/// Allocations outside `decode_block` during one all-zero AWGN run of
/// `frames` frames of the demo code on one worker.
fn allocations_of_run(spec: &DecoderSpec, frames: u64) -> u64 {
    let code = demo_code();
    let cfg = MonteCarloConfig {
        ebn0_db: 3.0,
        max_frames: frames,
        target_frame_errors: 0,
        max_iterations: 18,
        seed: 7,
        threads: 1,
        transmission: Transmission::AllZero,
    };
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let point = run_point_blocks(&code, None, &cfg, || Flagged(spec.build(&code)));
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(point.frames, frames);
    after - before
}

#[test]
fn frame_loop_allocations_do_not_grow_with_frames() {
    // A multi-frame block and a one-frame block.
    for s in ["nms:1.25@batch=8", "fixed"] {
        let spec = DecoderSpec::parse(s).unwrap();
        // Process-wide lazy state (the noise tables) is built here, once.
        allocations_of_run(&spec, 8);
        let short = allocations_of_run(&spec, 64);
        let long = allocations_of_run(&spec, 640);
        assert!(short > 0, "{s}: the counter saw no set-up allocation");
        assert_eq!(
            long, short,
            "demo / awgn / {s}: allocations grew with frames"
        );
    }
}

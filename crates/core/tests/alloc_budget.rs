//! Steady-state ACP-SGD and Power-SGD steps allocate nothing the size of a
//! gradient.
//!
//! The low-rank codecs used to copy every matrix out of its bucket, clone
//! it again into `M + E`, materialize `P Qᵀ` twice and decode into a fresh
//! zeroed buffer — five gradient-sized allocations per matrix per step.
//! They now stream bucket sub-slices through in-place kernels and decode
//! into the bucket's own buffer. A counting global allocator pins that: once
//! the lazily built state exists, the largest single allocation of a whole
//! `aggregate` call stays below the smallest matrix in the bucket.
//!
//! The allocator is the one place the workspace needs `unsafe` outside
//! `acp_tensor::pool`: `GlobalAlloc` is an unsafe trait. It only forwards to
//! [`System`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use acp_collectives::LocalCommunicator;
use acp_core::{
    AcpSgdAggregator, AcpSgdConfig, DistributedOptimizer, GradViewMut, PowerSgdAggregator,
    PowerSgdConfig,
};

/// Forwards to [`System`], recording the largest request made while armed
/// — on any thread, so the kernel pool's workers are covered too.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's obligations are passed through as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One bucket: two matrices (both above the kernels' parallel threshold at
/// rank 4) and a bias that travels uncompressed.
const SHAPES: [&[usize]; 3] = [&[256, 1152], &[64, 576], &[64]];

/// Bytes of the smaller matrix: anything this large is gradient-sized.
const GRADIENT_SIZED: usize = 64 * 576 * 4;

/// Largest single allocation of one `aggregate` call on `grads`.
fn largest_allocation(opt: &mut dyn DistributedOptimizer, grads: &mut [Vec<f32>]) -> usize {
    let mut comm = LocalCommunicator::new();
    let mut views: Vec<GradViewMut<'_>> = grads
        .iter_mut()
        .zip(SHAPES)
        .map(|(grad, dims)| GradViewMut { dims, grad })
        .collect();
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let result = opt.aggregate(&mut views, &mut comm);
    ARMED.store(false, Ordering::Relaxed);
    result.expect("aggregate");
    LARGEST.load(Ordering::Relaxed)
}

fn gradients(step: usize) -> Vec<Vec<f32>> {
    SHAPES
        .iter()
        .enumerate()
        .map(|(t, dims)| {
            let len: usize = dims.iter().product();
            (0..len)
                .map(|e| ((t * 31 + e * 7 + step * 13) as f32 * 0.01).sin())
                .collect()
        })
        .collect()
}

/// One test, so nothing else in this process allocates while armed.
#[test]
fn steady_state_steps_make_no_gradient_sized_allocation() {
    for error_feedback in [true, false] {
        let mut acp =
            AcpSgdAggregator::new(AcpSgdConfig::default().with_error_feedback(error_feedback));
        let mut power =
            PowerSgdAggregator::new(PowerSgdConfig::default().with_error_feedback(error_feedback));
        // Warm-up: the first step builds the bucket plan, the residuals and
        // the states' carries; the second is ACP-SGD's first Q step.
        for step in 0..2 {
            let cold = largest_allocation(&mut acp, &mut gradients(step));
            largest_allocation(&mut power, &mut gradients(step));
            if step == 0 {
                assert!(
                    cold >= GRADIENT_SIZED,
                    "the counter sees the lazy set-up ({cold} B)"
                );
            }
        }
        // Steady state: a P step and a Q step of ACP-SGD, one Power-SGD step.
        for step in 2..4 {
            let largest = largest_allocation(&mut acp, &mut gradients(step));
            assert!(
                largest < GRADIENT_SIZED,
                "ACP-SGD step {step} (EF {error_feedback}) allocated {largest} B at once"
            );
        }
        let largest = largest_allocation(&mut power, &mut gradients(4));
        assert!(
            largest < GRADIENT_SIZED,
            "Power-SGD (EF {error_feedback}) allocated {largest} B at once"
        );
    }
}

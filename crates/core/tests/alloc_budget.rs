//! Steady-state aggregation steps allocate nothing the size of a gradient
//! — for all seven aggregators, through both entry points.
//!
//! The pipeline used to stage every step in bucket-sized buffers of its
//! own (zeroed, packed, unpacked), and several codecs decoded into a fresh
//! zeroed bucket. Now each codec reads the caller's tensors and writes them
//! back, holding at most one dense buffer that it reuses (S-SGD's op
//! buffer, the sign/sparse codecs' corrected gradient) and, for the
//! low-rank codecs, only factors. A counting global allocator pins that:
//! once the lazily built state exists, the largest single allocation of a
//! whole step stays below the smallest matrix in the bucket.
//!
//! The allocator is the one place the workspace needs `unsafe` outside
//! `acp_tensor::pool`: `GlobalAlloc` is an unsafe trait. It only forwards to
//! [`System`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use acp_collectives::LocalCommunicator;
use acp_core::{
    build_optimizer, AcpSgdConfig, Aggregator, DgcConfig, DistributedOptimizer, GradViewMut,
    PowerSgdConfig, SignSgdConfig, TopkSgdConfig,
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

/// Largest single allocation made anywhere in the process while `f` runs.
fn largest_allocation_during(f: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    f();
    ARMED.store(false, Ordering::Relaxed);
    LARGEST.load(Ordering::Relaxed)
}

/// Largest single allocation of one step on `grads`: a blocking
/// `aggregate`, or every tensor pushed in backward order and then
/// `finish_overlap`.
fn largest_allocation(
    opt: &mut dyn DistributedOptimizer,
    grads: &mut [Vec<f32>],
    overlapped: bool,
) -> usize {
    let mut comm = LocalCommunicator::new();
    largest_allocation_during(|| {
        if overlapped {
            for (index, grad) in grads.iter().enumerate().rev() {
                opt.push_ready(index, SHAPES[index], grad, &mut comm)
                    .expect("push_ready");
            }
        }
        // The views are three fat pointers: far below gradient-sized.
        let mut views: Vec<GradViewMut<'_>> = grads
            .iter_mut()
            .zip(SHAPES)
            .map(|(grad, dims)| GradViewMut { dims, grad })
            .collect();
        if overlapped {
            opt.finish_overlap(&mut views, &mut comm)
        } else {
            opt.aggregate(&mut views, &mut comm)
        }
        .expect("aggregate");
    })
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

/// All seven aggregators; the four with an error-feedback switch in both
/// positions (the low-rank ones carry the gradient differently without it).
fn aggregators() -> Vec<Aggregator> {
    let mut all = vec![
        Aggregator::Ssgd,
        Aggregator::GTopk { density: 0.001 },
        Aggregator::Dgc(DgcConfig::default()),
    ];
    for ef in [true, false] {
        all.push(Aggregator::SignSgd(
            SignSgdConfig::default().with_error_feedback(ef),
        ));
        all.push(Aggregator::Topk(
            TopkSgdConfig::default().with_error_feedback(ef),
        ));
        all.push(Aggregator::PowerSgd(
            PowerSgdConfig::default().with_error_feedback(ef),
        ));
        all.push(Aggregator::AcpSgd(
            AcpSgdConfig::default().with_error_feedback(ef),
        ));
    }
    all
}

/// One test, so nothing else in this process allocates while armed.
#[test]
fn steady_state_steps_make_no_gradient_sized_allocation() {
    // The counter is armed and sees a gradient-sized request when one is
    // made — otherwise every assertion below would pass vacuously.
    let probe = largest_allocation_during(|| {
        drop(std::hint::black_box(vec![0u8; GRADIENT_SIZED]));
    });
    assert!(
        probe >= GRADIENT_SIZED,
        "the counter is not armed ({probe} B)"
    );

    for spec in aggregators() {
        let mut opt = build_optimizer(&spec);
        // Warm-up: the first step builds the bucket plan, the codec's
        // buffers, the residuals and the states' carries; the second is
        // ACP-SGD's first Q step.
        for step in 0..2 {
            largest_allocation(opt.as_mut(), &mut gradients(step), false);
        }
        // Steady state, two steps through each entry point: a P step and
        // a Q step of ACP-SGD either way.
        for step in 2..6 {
            let overlapped = step >= 4;
            let largest = largest_allocation(opt.as_mut(), &mut gradients(step), overlapped);
            assert!(
                largest < GRADIENT_SIZED,
                "{spec:?} step {step} (overlapped {overlapped}) allocated {largest} B at once"
            );
        }
    }
}

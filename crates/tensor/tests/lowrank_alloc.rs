//! The thin-factor kernels stage nothing the size of their operands: once
//! a thread's scratch is warm, a call at the benchmark's `512×4608`, rank
//! 4 shape allocates under 1 KiB in the whole process beyond what the
//! worker pool's own dispatch of that many tasks allocates (its result
//! channel and task boxes, a fixed cost per call; nothing at all on an
//! inline pool). A transposed factor (`r×m`, 72 KiB) or a table of row
//! slices (16 bytes a row) staged per call would break the budget.
//!
//! A counting global allocator measures it. As in `acp-serve`'s
//! `alloc_steady_state` test, the allocator is an `unsafe impl` only
//! because `GlobalAlloc` is an unsafe trait; it forwards to [`System`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use acp_tensor::kernels::{
    project_cols, project_cols_corrected, project_rows, project_rows_corrected, reconstruct,
    subtract_reconstruction,
};
use acp_tensor::rng::{fill_std_normal, seeded_rng};
use acp_tensor::WorkerPool;

/// Forwards to [`System`], summing — while armed, on any thread — the
/// bytes every allocation and growth asks for.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        BYTES.fetch_add(size, Ordering::Relaxed);
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

/// Bytes allocated anywhere in the process while `f` runs.
fn counted(f: impl FnOnce()) -> usize {
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    BYTES.load(Ordering::SeqCst)
}

fn normals(len: usize, seed: u64) -> Vec<f32> {
    let mut v = vec![0.0f32; len];
    fill_std_normal(&mut v, &mut seeded_rng(seed));
    v
}

/// Per-call budget on top of the pool's dispatch.
const BUDGET: usize = 1024;

#[test]
fn warm_thin_kernel_calls_allocate_under_a_kibibyte() {
    let (n, m, r) = (512, 4608, 4);
    let grad = normals(n * m, 1);
    let mut error = normals(n * m, 2);
    let q_in = normals(m * r, 3);
    let p_in = normals(n * r, 4);
    let mut p = vec![0.0f32; n * r];
    let mut q = vec![0.0f32; m * r];
    let mut out = vec![0.0f32; n * m];
    let mut report = Vec::new();
    // Inline, and split across two and four threads.
    for workers in [0, 1, 3] {
        let pool = WorkerPool::new(workers);
        let tasks = pool.parallelism();
        pool.run(tasks, |_| {});
        let dispatch = counted(|| pool.run(tasks, |_| {}));
        let mut run = |name: &str, f: &mut dyn FnMut()| {
            // Two warm-up calls grow every thread's scratch; the third is
            // counted.
            f();
            f();
            report.push((workers, name.to_string(), counted(f), dispatch));
        };
        run("project_rows", &mut || {
            project_rows(&pool, n, m, r, &grad, &q_in, &mut p)
        });
        for residual in [false, true] {
            run(
                &format!("project_rows_corrected residual={residual}"),
                &mut || {
                    project_rows_corrected(
                        &pool, n, m, r, &grad, &mut error, &q_in, &mut p, residual,
                    )
                },
            );
        }
        run("project_cols", &mut || {
            project_cols(&pool, n, m, r, &grad, &p_in, &mut q)
        });
        run("project_cols_corrected", &mut || {
            project_cols_corrected(&pool, n, m, r, &grad, &mut error, &p_in, &mut q)
        });
        run("reconstruct", &mut || {
            reconstruct(&pool, n, m, r, &p_in, &q_in, &mut out)
        });
        run("subtract_reconstruction", &mut || {
            subtract_reconstruction(&pool, n, m, r, &p_in, &q_in, &mut error)
        });
    }
    for (workers, name, bytes, dispatch) in &report {
        println!("workers={workers} {name}: {bytes} bytes (pool dispatch {dispatch})");
    }
    let over: Vec<_> = report
        .iter()
        .filter(|(_, _, bytes, dispatch)| *bytes >= dispatch + BUDGET)
        .collect();
    assert!(
        over.is_empty(),
        "calls at or over {BUDGET} bytes beyond the pool's dispatch: {over:?}"
    );
}

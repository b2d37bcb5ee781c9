//! A blocking collective before any dispatch borrows the caller's buffer:
//! once warm, a blocking all-reduce of a 1 MiB buffer at world 2 makes no
//! allocation as large as that buffer, on the in-process backend and on
//! loopback sockets.
//!
//! The bound is the buffer itself, not zero bytes: the in-process
//! transport settles a loan its peer had not yet read by copying it, and
//! a loan is one ring chunk — half the buffer at world 2. Whether that
//! copy happens depends on timing; its size does not.
//!
//! As in `acp-serve`'s `alloc_steady_state` test, the allocator is an
//! `unsafe impl` only because `GlobalAlloc` is an unsafe trait; it
//! forwards to [`System`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use acp_collectives::{Communicator, ReduceOp, ThreadGroup};
use acp_net::run_local;

const WORLD: usize = 2;
/// A 1 MiB buffer per rank.
const WORDS: usize = 256 * 1024;
/// Allocations at least this large are copies of the whole buffer.
const BUFFER_SIZED: usize = 4 * WORDS;
/// Measured all-reduces per backend.
const STEPS: usize = 4;

/// Forwards to [`System`], recording — while armed, on any thread — the
/// largest request and how many were at least [`BUFFER_SIZED`].
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static BUFFER_SIZED_COUNT: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
        if size >= BUFFER_SIZED {
            BUFFER_SIZED_COUNT.fetch_add(1, Ordering::Relaxed);
        }
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

/// The counters are process-wide: one armed window at a time.
static WINDOW: Mutex<()> = Mutex::new(());

/// Claims the window; a failure of the other test must not fail this one.
fn window() -> std::sync::MutexGuard<'static, ()> {
    WINDOW
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn arm() {
    LARGEST.store(0, Ordering::SeqCst);
    BUFFER_SIZED_COUNT.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms and returns (largest allocation, buffer-sized allocations).
fn disarm() -> (usize, usize) {
    ARMED.store(false, Ordering::SeqCst);
    (
        LARGEST.load(Ordering::SeqCst),
        BUFFER_SIZED_COUNT.load(Ordering::SeqCst),
    )
}

/// One rank: warm up, then run [`STEPS`] blocking all-reduces, each inside
/// a window the measuring thread opens and closes. Ranks and the measuring
/// thread meet three times per step: everyone idle (then the window
/// opens), go, done (then it closes).
fn rank_body(comm: &mut dyn Communicator, gate: &Barrier) {
    let mut buf = vec![comm.rank() as f32 + 0.5; WORDS];
    // Warm-up: connections, mailboxes and per-thread scratch reach their
    // steady size.
    for _ in 0..2 {
        comm.all_reduce(&mut buf, ReduceOp::Mean).unwrap();
    }
    for _ in 0..STEPS {
        gate.wait();
        gate.wait();
        comm.all_reduce(&mut buf, ReduceOp::Mean).unwrap();
        gate.wait();
    }
}

/// Runs a group whose ranks call [`rank_body`] and returns what each
/// measured step allocated.
fn measure(group: impl FnOnce(&Barrier) + Send) -> Vec<(usize, usize)> {
    let gate = Barrier::new(WORLD + 1);
    let mut counted = Vec::new();
    std::thread::scope(|scope| {
        let gate = &gate;
        scope.spawn(move || group(gate));
        for _ in 0..STEPS {
            gate.wait();
            arm();
            gate.wait();
            gate.wait();
            counted.push(disarm());
        }
    });
    counted
}

fn assert_no_buffer_copy(backend: &str, counted: &[(usize, usize)]) {
    for (step, &(largest, buffer_sized)) in counted.iter().enumerate() {
        assert_eq!(
            buffer_sized, 0,
            "{backend} step {step}: {buffer_sized} buffer-sized allocations \
             (largest {largest} bytes, buffer {BUFFER_SIZED})"
        );
    }
}

#[test]
fn a_blocking_all_reduce_on_threads_copies_no_buffer() {
    let _window = window();
    let counted = measure(|gate| {
        ThreadGroup::run(WORLD, |mut comm| rank_body(&mut comm, gate));
    });
    assert_no_buffer_copy("thread", &counted);
}

#[test]
fn a_blocking_all_reduce_on_sockets_copies_no_buffer() {
    let _window = window();
    let counted = measure(|gate| {
        run_local(WORLD, |mut comm| rank_body(&mut comm, gate));
    });
    assert_no_buffer_copy("tcp", &counted);
}

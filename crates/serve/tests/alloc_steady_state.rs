//! The served data path stages nothing: once a job's buffers are warm, a
//! step allocates no payload-sized memory anywhere in the process —
//! clients, connection threads, shard worker — and a refused header
//! reserves none at all.
//!
//! One all-reduce of one bucket at world 2 used to make 21 bucket-sized
//! allocations (`to_vec` on submit, a clone and two staged encodes each
//! way, owned decodes on both ends, a fresh fold output, one reply clone
//! per client). A counting global allocator pins the new floor: zero for
//! an all-reduce, and for an all-gather exactly the `Vec` the API returns.
//!
//! As in `acp-core`'s `alloc_budget` test, the allocator is an `unsafe
//! impl` only because `GlobalAlloc` is an unsafe trait; it forwards to
//! [`System`].

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use acp_collectives::schedule::{OpKind, SchedulePoint};
use acp_collectives::{Communicator, ReduceOp, WireMsg};
use acp_serve::wire::{read_response, write_request, Reject, Request, Response, Submit};
use acp_serve::{ServeConfig, ServedCommunicator, Server};

/// Forwards to [`System`], recording — while armed, on any thread — the
/// largest request and how many were at least [`PAYLOAD_SIZED`].
struct Counting;

/// Far below any gradient bucket, far above every header, channel node
/// and thread-local the path legitimately allocates.
const PAYLOAD_SIZED: usize = 64 * 1024;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static PAYLOAD_SIZED_COUNT: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
        if size >= PAYLOAD_SIZED {
            PAYLOAD_SIZED_COUNT.fetch_add(1, Ordering::Relaxed);
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
    PAYLOAD_SIZED_COUNT.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms and returns (largest allocation, payload-sized allocations).
fn disarm() -> (usize, usize) {
    ARMED.store(false, Ordering::SeqCst);
    (
        LARGEST.load(Ordering::SeqCst),
        PAYLOAD_SIZED_COUNT.load(Ordering::SeqCst),
    )
}

const WORLD: usize = 2;
/// A 1 MiB payload per member.
const WORDS: usize = 256 * 1024;

/// One collective the measured window runs on every client.
#[derive(Clone, Copy, Debug)]
enum Step {
    AllReduce(usize),
    GatherF32(usize),
    GatherU32(usize),
}

fn run(comm: &mut ServedCommunicator, step: Step, f32s: &mut [f32], u32s: &[u32]) {
    match step {
        Step::AllReduce(n) => comm.all_reduce(&mut f32s[..n], ReduceOp::Sum).unwrap(),
        Step::GatherF32(n) => drop(comm.all_gather_f32(&f32s[..n]).unwrap()),
        Step::GatherU32(n) => drop(comm.all_gather_u32(&u32s[..n]).unwrap()),
    }
}

#[test]
fn a_warm_served_step_allocates_nothing_payload_sized_in_the_whole_process() {
    let _window = window();
    let server = Server::spawn(ServeConfig::default()).unwrap();
    let addr = server.addr();
    // Each measured step, with the payload-sized allocations it may make
    // per client: none, or the one `Vec` an all-gather returns. The
    // shorter steps run in buffers the longer ones grew.
    let measured = [
        (Step::AllReduce(WORDS), 0),
        (Step::AllReduce(WORDS / 3), 0),
        (Step::GatherF32(WORDS), 1),
        (Step::GatherU32(WORDS), 1),
        (Step::AllReduce(WORDS), 0),
    ];
    // Clients and the measuring thread meet three times per step: everyone
    // idle (then the window opens), go, done (then it closes).
    let gate = Barrier::new(WORLD + 1);
    let mut counted = Vec::new();
    std::thread::scope(|scope| {
        for c in 0..WORLD {
            let gate = &gate;
            scope.spawn(move || {
                let mut comm =
                    ServedCommunicator::connect(addr, 1, c as u32, WORLD as u32).unwrap();
                let mut f32s = vec![c as f32 + 0.5; WORDS];
                let u32s = vec![c as u32; WORDS];
                // Warm-up: the first step of each kind sizes the job's
                // buffers; the second proves nothing is still growing.
                for _ in 0..2 {
                    for (step, _) in measured {
                        run(&mut comm, step, &mut f32s, &u32s);
                    }
                }
                for (step, _) in measured {
                    gate.wait();
                    gate.wait();
                    run(&mut comm, step, &mut f32s, &u32s);
                    gate.wait();
                }
            });
        }
        for _ in measured {
            gate.wait();
            arm();
            gate.wait();
            gate.wait();
            counted.push(disarm());
        }
    });
    // Asserted outside the scope: a failure in there would strand the
    // clients at the gate.
    for ((step, per_client), (largest, payload_sized)) in measured.into_iter().zip(counted) {
        assert_eq!(
            payload_sized,
            per_client * WORLD,
            "{step:?}: payload-sized allocations (largest {largest} bytes)"
        );
    }
    assert_eq!(server.stats().busy_rejects, 0);
}

#[test]
fn a_header_announcing_a_gigabyte_is_refused_without_reserving_it() {
    let _window = window();
    const BUDGET: u64 = 1 << 20;
    let server = Server::spawn(ServeConfig {
        per_job_budget: BUDGET,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut stream = common::raw_join(server.addr(), 9, 0, 1);
    // A well-formed submit of a barrier token, re-headed to announce 2³⁰
    // `f32`s — the framing's cap, 4 GiB — of which not one byte follows.
    const ANNOUNCED: u32 = 1 << 30;
    let submit = Submit {
        job: 9,
        client: 0,
        epoch: 0,
        point: SchedulePoint {
            seq: 0,
            kind: OpKind::AllReduce,
            words: u64::from(ANNOUNCED),
            param: 0,
        },
        digest: 0,
        payload: WireMsg::Token,
    };
    let mut bytes = Vec::new();
    write_request(&mut bytes, &Request::Submit(submit)).unwrap();
    bytes.pop();
    bytes.push(0x01);
    bytes.extend_from_slice(&ANNOUNCED.to_le_bytes());

    arm();
    stream.write_all(&bytes).unwrap();
    let verdict = read_response(&mut stream);
    let (largest, _) = disarm();
    match verdict.unwrap() {
        Response::Reject(Reject::Busy { in_flight, budget }) => {
            assert_eq!((in_flight, budget), (0, BUDGET));
        }
        other => panic!("expected a structured Busy, got {other:?}"),
    }
    assert!(
        largest < BUDGET as usize,
        "a refused header made a {largest}-byte allocation"
    );
    assert_eq!(server.stats().in_flight_bytes, 0);
}

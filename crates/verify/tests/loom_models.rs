//! Exhaustive concurrency models of the nonblocking comm-worker
//! protocol, run under `--cfg loom` against the workspace's loom shim:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p acp-verify --test loom_models
//! ```
//!
//! The models restate the protocol of
//! `acp_collectives::nonblocking::{CommWorker, PendingOp}` in loom
//! primitives — the same channel topology as the real code, minus the
//! transport — and the checker proves each property over *every*
//! interleaving of the visible operations:
//!
//! - a submitted collective's reply is never lost, whatever order the
//!   submitter, worker and handle-drop run in (no lost wakeup);
//! - a submit racing the worker's death resolves as an error instead of
//!   hanging;
//! - the drop-drain of an abandoned `PendingOp` stays synchronous with
//!   the worker and the reply is delivered exactly once (no double
//!   drain); the drain's timeout is a pure backstop that fires only when
//!   the worker is wedged;
//! - the thread transport's loan of a send slice
//!   (`acp_collectives::communicator::Loan`) is read in place only while
//!   the lender's borrow is live, is otherwise settled by copy, and one
//!   of the two happens exactly once.

#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use loom::sync::mpsc::{channel, RecvTimeoutError, Sender};
use loom::sync::{Arc, Mutex};
use std::time::Duration;

/// The comm-worker handoff: submitter creates a reply channel, enqueues
/// the op, the worker executes and replies. Dropping the submission
/// handle (the `CommWorker`) immediately after the submit must not lose
/// the in-flight reply — the worker drains its queue before exiting.
#[test]
fn submitted_reply_is_never_lost() {
    loom::model(|| {
        let (tx, rx) = channel::<(u32, Sender<u32>)>();
        let worker = loom::thread::spawn(move || {
            // The real worker loop: drain ops in FIFO order until the
            // submission channel closes, replying to each (the submitter
            // may be gone; the send result is deliberately ignored).
            while let Ok((op, reply)) = rx.recv() {
                let _ = reply.send(op * 2);
            }
        });
        let (reply_tx, reply_rx) = channel::<u32>();
        tx.send((21, reply_tx)).expect("worker is alive");
        drop(tx); // CommWorker dropped right after submit
                  // PendingOp::wait: the reply must arrive in every interleaving.
        assert_eq!(reply_rx.recv(), Ok(42), "in-flight reply was lost");
        worker.join().expect("worker exits cleanly");
    });
}

/// A submit racing the worker's death: either the send fails (and the
/// real code resolves the handle as `WorkerPanicked` immediately) or the
/// message is accepted and the dropped reply sender surfaces as a
/// disconnect at `wait`. Neither order may hang.
#[test]
fn submit_racing_worker_death_always_resolves() {
    loom::model(|| {
        let (tx, rx) = channel::<(u32, Sender<u32>)>();
        // A worker that dies before serving anything (the panic path:
        // the transport blew up and the thread unwound).
        let worker = loom::thread::spawn(move || {
            drop(rx);
        });
        let (reply_tx, reply_rx) = channel::<u32>();
        match tx.send((7, reply_tx)) {
            // Worker already gone: CommWorker::submit returns a ready
            // WorkerPanicked handle. Nothing to wait on.
            Err(_) => {}
            // Message accepted but the worker is dying: the reply sender
            // drops with the queue, and wait observes the disconnect.
            Ok(()) => {
                assert_eq!(
                    reply_rx.recv(),
                    Err(loom::sync::mpsc::RecvError),
                    "wait must observe worker death as a disconnect"
                );
            }
        }
        worker.join().expect("worker exits");
    });
}

/// The drop-drain: a `PendingOp` dropped without `wait` blocks until the
/// worker finishes the operation, and the reply is produced exactly once.
/// With a live worker the drain's 60-second cap never fires (the shim
/// delivers timeouts only when every thread is blocked).
#[test]
fn drop_drain_is_synchronous_and_single() {
    loom::model(|| {
        let (op_tx, op_rx) = channel::<Sender<u32>>();
        let executed = Arc::new(AtomicUsize::new(0));
        let executed_in_worker = Arc::clone(&executed);
        let worker = loom::thread::spawn(move || {
            while let Ok(reply) = op_rx.recv() {
                executed_in_worker.fetch_add(1, Ordering::SeqCst);
                let _ = reply.send(9);
            }
        });
        let (reply_tx, reply_rx) = channel::<u32>();
        op_tx.send(reply_tx).expect("worker is alive");
        // PendingOp::drop: drain the reply with the capped receive.
        let drained = reply_rx.recv_timeout(Duration::from_secs(60));
        assert_eq!(
            drained,
            Ok(9),
            "drain must stay synchronous with a live worker, not time out"
        );
        // The drop is synchronous: by the time the drain returns, the
        // operation ran exactly once.
        assert_eq!(executed.load(Ordering::SeqCst), 1);
        drop(op_tx);
        worker.join().expect("worker exits cleanly");
    });
}

/// The drain cap is a pure backstop: with a wedged worker (holds the
/// reply channel, never replies) the drain times out instead of hanging
/// forever — and that is the only schedule in which it fires.
#[test]
fn drain_timeout_fires_only_for_a_wedged_worker() {
    loom::model(|| {
        let (reply_tx, reply_rx) = channel::<u32>();
        let worker = loom::thread::spawn(move || {
            // Wedged: keeps the reply sender alive, never sends, and
            // only exits once the drain has given up.
            let _held = reply_tx;
        });
        let drained = reply_rx.recv_timeout(Duration::from_secs(60));
        // Depending on the schedule the worker either dropped the sender
        // first (disconnect) or still holds it (backstop timeout); both
        // terminate the drain.
        assert!(
            matches!(
                drained,
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected)
            ),
            "drain must terminate: {drained:?}"
        );
        worker.join().expect("worker exits");
    });
}

/// The loan protocol of the thread transport's dense exchange: the lender
/// posts a loan of its borrowed send slice and, when its exchange ends,
/// drops the guard that settles the loan; the peer's reader takes it.
/// The borrow is modelled as a buffer plus a flag that the lender clears
/// (and the buffer it scribbles over) once the guard is gone — the
/// lender's storage is its own again.
#[test]
fn a_loan_is_read_in_place_or_settled_by_copy_never_both() {
    enum State {
        Lent,
        Copied(Vec<u32>),
        Taken,
    }
    const LENT: [u32; 3] = [7, 8, 9];
    loom::model(|| {
        let buffer = Arc::new(Mutex::new(LENT.to_vec()));
        let borrowed = Arc::new(AtomicBool::new(true));
        let loan = Arc::new(Mutex::new(State::Lent));
        let (in_place, settled) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let reader = {
            let (buffer, borrowed, loan, in_place) = (
                Arc::clone(&buffer),
                Arc::clone(&borrowed),
                Arc::clone(&loan),
                Arc::clone(&in_place),
            );
            loom::thread::spawn(move || {
                let mut state = loan.lock().unwrap();
                let read = match &*state {
                    State::Lent => {
                        // The dereference of the lent pointer.
                        assert!(
                            borrowed.load(Ordering::SeqCst),
                            "read a lent slice after the borrow ended"
                        );
                        in_place.fetch_add(1, Ordering::SeqCst);
                        buffer.lock().unwrap().clone()
                    }
                    State::Copied(copy) => copy.clone(),
                    State::Taken => panic!("a loan is delivered once"),
                };
                *state = State::Taken;
                read
            })
        };
        // The lender's guard drop: the single settle point.
        {
            let mut state = loan.lock().unwrap();
            if let State::Lent = *state {
                assert!(borrowed.load(Ordering::SeqCst));
                settled.fetch_add(1, Ordering::SeqCst);
                *state = State::Copied(buffer.lock().unwrap().clone());
            }
        }
        // The exchange returns: the borrow ends and the caller reuses its
        // storage.
        borrowed.store(false, Ordering::SeqCst);
        *buffer.lock().unwrap() = vec![0; 3];
        let read = reader.join().expect("reader finishes");
        assert_eq!(read, LENT, "the reader must see the lent values");
        assert_eq!(
            in_place.load(Ordering::SeqCst) + settled.load(Ordering::SeqCst),
            1,
            "exactly one of read-in-place and settle-by-copy"
        );
    });
}

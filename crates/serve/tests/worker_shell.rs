//! The served client rides the same worker shell as the ring backends:
//! the body of `acp-net`'s `worker_shell` test runs on a 3-client served
//! job and on a 3-rank `ThreadGroup`, and both must agree on results, on
//! the schedule, and on the telemetry a late recorder sees.

use std::sync::Arc;

use acp_collectives::{Communicator, OpKind, ReduceOp, ThreadGroup};
use acp_serve::{ServeConfig, ServedCommunicator, Server};
use acp_telemetry::{keys, InMemoryRecorder};

const WORLD: usize = 3;

/// What one rank observed after [`shell_body`].
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    reduced: Vec<f32>,
    gathered: Vec<f32>,
    late: Vec<f32>,
    kinds: Vec<OpKind>,
    late_calls: u64,
    late_bytes: u64,
    bytes_sent: u64,
    digest: u64,
}

fn shell_body(comm: &mut dyn Communicator) -> Observed {
    let rank = comm.rank();
    // A blocking call behind an undrained dispatch: it queues behind the
    // dispatched all-reduce on the comm worker and returns after it.
    let pending = comm.all_reduce_start(vec![rank as f32 + 1.0; 8], ReduceOp::Sum);
    let gathered = comm
        .all_gather_f32(&[rank as f32; 2])
        .expect("blocking gather behind a dispatch");
    let reduced = pending
        .wait()
        .and_then(|r| r.into_f32())
        .expect("dispatched all-reduce");
    // The worker is running; a recorder attached now must still see the
    // next collective.
    let rec = Arc::new(InMemoryRecorder::new());
    comm.set_recorder(rec.clone());
    let mut late = vec![rank as f32; 16];
    comm.all_reduce(&mut late, ReduceOp::Max)
        .expect("blocking all-reduce on the worker");
    let snapshot = comm.schedule().expect("worker-backed shells trace");
    Observed {
        reduced,
        gathered,
        late,
        kinds: snapshot.entries.iter().map(|e| e.point.kind).collect(),
        late_calls: rec.counter(keys::COMM_CALLS),
        late_bytes: rec.counter(keys::COMM_BYTES_SENT),
        bytes_sent: comm.bytes_sent(),
        digest: snapshot.digest,
    }
}

#[test]
fn served_and_thread_shells_behave_alike() {
    let server = Server::spawn(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let served: Vec<Observed> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORLD as u32)
            .map(|client| {
                scope.spawn(move || {
                    let mut comm =
                        ServedCommunicator::connect(addr, 40, client, WORLD as u32).unwrap();
                    shell_body(&mut comm)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let thread = ThreadGroup::run(WORLD, |mut comm| shell_body(&mut comm));
    // What each client submits: 8 + 2 + 16 `f32`s.
    let submitted = 4 * (8 + 2 + 16);
    for (rank, (t, s)) in thread.iter().zip(&served).enumerate() {
        assert_eq!(s.reduced, vec![6.0; 8], "rank {rank}");
        assert_eq!(
            s.gathered,
            vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0],
            "rank {rank}"
        );
        assert_eq!(s.late, vec![2.0; 16], "rank {rank}");
        assert_eq!(
            s.kinds,
            vec![OpKind::AllReduce, OpKind::AllGatherF32, OpKind::AllReduce],
            "rank {rank}"
        );
        assert_eq!(
            (&s.reduced, &s.gathered, &s.late, &s.kinds),
            (&t.reduced, &t.gathered, &t.late, &t.kinds),
            "rank {rank}: served vs thread"
        );
        assert_eq!(s.digest, t.digest, "rank {rank} schedule digest");
        // A recorder attached after the worker spawned sees exactly the
        // one collective that followed, on both backends.
        assert_eq!((s.late_calls, t.late_calls), (1, 1), "rank {rank}");
        assert_eq!(s.late_bytes, 4 * 16, "rank {rank}");
        assert_eq!(s.bytes_sent, submitted, "rank {rank} bytes_sent");
    }
    assert_eq!(server.stats().schedule_mismatches, 0);
}

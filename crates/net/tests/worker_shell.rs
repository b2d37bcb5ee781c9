//! The worker-backed communicator shell, pinned on both backends that use
//! it: in-process mailboxes (`ThreadGroup`) and loopback sockets
//! (`run_local`). One body runs over each, so the
//! lazy comm worker, late recorder attachment, byte accounting and the
//! schedule digest cannot drift apart between transports.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use acp_collectives::{CommError, Communicator, OpKind, ReduceOp, ThreadGroup};
use acp_net::run_local;
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
    // A blocking call behind an undrained dispatch: it spawns nothing new,
    // queues behind the dispatched all-reduce and returns after it.
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
fn thread_and_tcp_shells_behave_alike() {
    let thread = ThreadGroup::run(WORLD, |mut comm| shell_body(&mut comm));
    let tcp = run_local(WORLD, |mut comm| shell_body(&mut comm));
    for (rank, (t, s)) in thread.iter().zip(&tcp).enumerate() {
        for o in [t, s] {
            // (a) FIFO: the gather ran after the dispatched all-reduce,
            // and both results are exact.
            assert_eq!(o.reduced, vec![6.0; 8], "rank {rank}");
            assert_eq!(
                o.gathered,
                vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0],
                "rank {rank}"
            );
            assert_eq!(o.late, vec![2.0; 16], "rank {rank}");
            assert_eq!(
                o.kinds,
                vec![OpKind::AllReduce, OpKind::AllGatherF32, OpKind::AllReduce],
                "rank {rank}"
            );
            // (b) a recorder attached after the worker spawned records.
            assert_eq!(o.late_calls, 1, "rank {rank}");
            assert!(o.late_bytes > 0, "rank {rank}");
        }
        // (c) and (d): byte accounting and schedule digest agree across
        // backends.
        assert_eq!(t.bytes_sent, s.bytes_sent, "rank {rank} bytes_sent");
        assert_eq!(t.digest, s.digest, "rank {rank} schedule digest");
    }
}

/// A thread-backend rank whose owner panics while its comm worker runs
/// still announces its departure at once: survivors see
/// `MembershipChanged` within the group's poll interval, not a peer
/// timeout.
#[test]
fn owner_panic_with_a_running_worker_is_a_prompt_departure() {
    let started = Instant::now();
    let errors = Mutex::new(Vec::new());
    let result = ThreadGroup::try_run(WORLD, |mut comm| {
        let rank = comm.rank();
        comm.all_reduce_start(vec![1.0; 4], ReduceOp::Sum)
            .wait()
            .expect("first collective with everyone alive");
        if rank == 1 {
            panic!("injected owner death with a running comm worker");
        }
        let mut buf = vec![1.0f32; 4];
        let r = comm.all_reduce(&mut buf, ReduceOp::Sum);
        errors.lock().unwrap().push((rank, r));
    });
    assert_eq!(result, Err(CommError::WorkerPanicked));
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "survivors blocked {:?}",
        started.elapsed()
    );
    let errors = errors.into_inner().unwrap();
    assert_eq!(errors.len(), 2, "both survivors must finish");
    for (rank, r) in &errors {
        match r {
            Err(CommError::MembershipChanged { departed, .. }) => {
                assert_eq!(departed, &vec![1], "rank {rank} misnamed the departed");
            }
            other => panic!("rank {rank} got {other:?}, expected MembershipChanged"),
        }
    }
}

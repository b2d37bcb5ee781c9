//! Collective communication substrate for the ACP-SGD reproduction.
//!
//! The paper's entire system argument is about which collective an
//! aggregation algorithm *can* use: S-SGD, Power-SGD and ACP-SGD aggregate
//! additively and therefore use bandwidth-optimal **ring all-reduce**, while
//! Sign-SGD and Top-k SGD produce non-additive compressed payloads and fall
//! back to **all-gather**, whose received volume grows linearly with the
//! number of workers (Table II). This crate provides both sides of that
//! argument:
//!
//! * [`communicator`] — the [`Communicator`] trait plus
//!   [`ThreadGroup`]/[`ThreadCommunicator`]: *real* collectives that move
//!   data between worker threads over a ring of channels (chunked
//!   reduce-scatter + all-gather), bit-tested against naive reference
//!   reductions. The data-parallel trainer in `acp-training` runs on these.
//! * [`nonblocking`] — [`WorkerCommunicator`], the one [`Communicator`]
//!   shell all three backends share: a backend supplies a
//!   [`WorkerTransport`] whose `execute` runs one collective over the
//!   caller's storage (the thread backend's [`ThreadTransport`] and
//!   `acp-net`'s `TcpTransport` through the shared ring body
//!   [`execute_ring`], `acp-serve`'s client as one submission to its
//!   server), and the shell adds the lazy per-rank comm worker, FIFO
//!   routing of blocking and dispatched collectives, per-collective
//!   telemetry, byte accounting and the schedule trace. Group state is one
//!   [`GroupView`] (see [`topology`]), whose `reformed` step is the one
//!   reform transition every backend shares.
//! * [`cost`] — α–β analytical cost models for ring all-reduce, all-gather
//!   and their start-up terms, with [`cost::NetworkTier`] presets for the
//!   paper's three interconnects (1 GbE, 10 GbE, 100 Gb InfiniBand),
//!   calibrated to the microbenchmarks quoted in the paper. The
//!   discrete-event simulator in `acp-simulator` prices every communication
//!   task with these models.
//!
//! # Examples
//!
//! ```
//! use acp_collectives::{Communicator, ReduceOp, ThreadGroup};
//!
//! // Four workers each contribute their rank; all-reduce sums them.
//! let results = ThreadGroup::run(4, |mut comm| {
//!     let mut buf = vec![comm.rank_id().as_usize() as f32; 3];
//!     comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
//!     buf
//! });
//! for buf in results {
//!     assert_eq!(buf, vec![6.0, 6.0, 6.0]); // 0 + 1 + 2 + 3
//! }
//! ```

#![warn(missing_docs)]

pub mod communicator;
pub mod cost;
pub mod hierarchy;
pub mod nonblocking;
pub mod ring;
pub mod schedule;
pub mod topology;

pub use communicator::{
    CommError, Communicator, LocalCommunicator, ReduceOp, ThreadCommunicator, ThreadGroup,
    ThreadTransport,
};
pub use cost::{AlphaBetaCost, ClusterCost, NetworkTier, TwoLevelCost};
pub use nonblocking::{
    confirm_reform, execute_ring, wait_all, BorrowedOp, CollectiveOp, CollectiveResult, CommWorker,
    DepartureNotice, PendingOp, WorkerCommunicator, WorkerTransport,
};
pub use ring::{
    all_gather_f32_reference, all_gather_reference_into, all_gather_u32_reference,
    all_reduce_reference, all_reduce_reference_into, Transport, WireMsg,
};
pub use schedule::{
    OpKind, ScheduleEntry, SchedulePoint, ScheduleSnapshot, ScheduleTag, ScheduleTracer, VerifyMode,
};
pub use topology::{GroupId, GroupView, Membership, RankId, Topology, TopologyError};

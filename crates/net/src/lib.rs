//! `acp-net` — a real TCP collectives backend for ACP-SGD.
//!
//! Implements [`acp_collectives::Communicator`] over `std::net`
//! sockets so the training stack runs across OS processes (and, with a
//! non-loopback peer list, across hosts). The design follows one rule:
//! **the transport is the only thing that changes**. All collective
//! algorithms live in [`acp_collectives::ring`], generic over the
//! point-to-point [`Transport`](acp_collectives::Transport) trait, so the
//! TCP backend is bit-exact with the in-process
//! [`ThreadCommunicator`](acp_collectives::ThreadCommunicator) by
//! construction — the floating-point reduction order is literally the same
//! code.
//!
//! The crate adds what a real network demands and threads cannot fake:
//!
//! * [`frame`] — length-prefixed wire framing with a handshake frame and
//!   allocation caps;
//! * [`TcpTransport`] — a [`Transport`](acp_collectives::Transport) with
//!   one duplex link per peer, connection establishment with bounded
//!   exponential-backoff retry ([`RetryPolicy`]), per-operation deadlines
//!   surfacing as
//!   [`CommError::Timeout`](acp_collectives::CommError::Timeout), and
//!   one-shot link re-establishment after a drop. [`TcpCommunicator`] is
//!   the shared [`WorkerCommunicator`](acp_collectives::WorkerCommunicator)
//!   shell over it, built by [`TcpConfig::connect`];
//! * [`FaultInjector`] — deterministic delay / drop-then-reconnect /
//!   straggler faults, configurable from the environment, so the failure
//!   paths are exercised by tests instead of trusted;
//! * [`launch_local`] — a local process launcher using `ACP_NET_*`
//!   environment variables as the rendezvous protocol.
//!
//! Telemetry uses the same `acp-telemetry` keys as the thread backend
//! (`comm.bytes_sent` counts payload bytes only), so recorded wire volume
//! reconciles against the paper's Table II cost model regardless of
//! transport.
//!
//! # Example
//!
//! In-process smoke test over real loopback sockets:
//!
//! ```
//! use acp_collectives::{Communicator, ReduceOp};
//!
//! let sums = acp_net::run_local(4, |mut comm| {
//!     let mut buf = vec![comm.rank_id().as_usize() as f32; 3];
//!     comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
//!     buf[0]
//! });
//! assert_eq!(sums, vec![6.0; 4]); // 0 + 1 + 2 + 3
//! ```

pub mod fault;
pub mod frame;
pub mod launch;
pub mod tcp;

pub use fault::FaultInjector;
pub use launch::{
    launch_local, launch_local_grouped, worker_from_env, LocalGroup, ENV_BASE_PORT, ENV_GROUPS,
    ENV_RANK, ENV_WORLD_SIZE,
};
pub use tcp::{run_local, run_local_with, RetryPolicy, TcpCommunicator, TcpConfig, TcpTransport};

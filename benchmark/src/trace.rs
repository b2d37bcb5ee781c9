//! Benchmark-side spans: one around every call into a layer, recorded from
//! outside the program, kept in memory and written when the run ends.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use acp_collectives::{
    CollectiveOp, CommError, Communicator, Membership, PendingOp, ReduceOp, ScheduleSnapshot,
    Topology,
};
use acp_telemetry::{ChromeTraceBuilder, InMemoryRecorder, Recorder, RecorderHandle, SpanRecord};

/// One completed benchmark-side span. Times are microseconds on the clock
/// of the rank's [`InMemoryRecorder`], so they line up with the spans the
/// program records itself.
#[derive(Debug, Clone)]
pub struct BenchSpan {
    /// `<layer>.<call>`, e.g. `core.push_ready`.
    pub name: &'static str,
    /// Crate the call goes into.
    pub layer: &'static str,
    /// Rank whose thread made the call.
    pub rank: usize,
    /// Iteration the span belongs to; spans of one iteration share it.
    pub iter: u64,
    /// Index (in the rank's span list) of the enclosing span.
    pub parent: Option<usize>,
    /// Start, microseconds.
    pub start_us: u64,
    /// End, microseconds.
    pub end_us: u64,
}

/// One collective the traced communicator was asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommCall {
    /// Iteration that issued it.
    pub iter: u64,
    /// Payload bytes this rank contributed.
    pub bytes: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<BenchSpan>,
    open: Vec<usize>,
    iter: u64,
    calls: Vec<CommCall>,
}

/// Span store of one rank.
pub struct RankTracer {
    rec: Arc<InMemoryRecorder>,
    rank: usize,
    state: Mutex<State>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a RankTracer,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_us = self.tracer.rec.now_us();
        let mut state = self.tracer.lock();
        state.spans[self.index].end_us = end_us;
        state.open.pop();
    }
}

impl RankTracer {
    /// A tracer for `rank` on the clock of `rec`.
    pub fn new(rec: Arc<InMemoryRecorder>, rank: usize) -> Self {
        RankTracer {
            rec,
            rank,
            state: Mutex::new(State::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Only the owning rank's thread mutates the state, and every update
        // leaves it valid, so a poisoned lock still holds usable spans.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The rank's recorder, for `set_recorder` on the program's side.
    pub fn recorder(&self) -> RecorderHandle {
        self.rec.clone()
    }

    /// The rank's recorder, for reading what the program recorded.
    pub fn memory(&self) -> &InMemoryRecorder {
        &self.rec
    }

    /// Sets the identifier the following spans share.
    pub fn set_iteration(&self, iter: u64) {
        self.lock().iter = iter;
    }

    /// Opens a span nested in whichever span of this rank is open now.
    pub fn span(&self, name: &'static str, layer: &'static str) -> SpanGuard<'_> {
        let start_us = self.rec.now_us();
        let mut state = self.lock();
        let index = state.spans.len();
        let span = BenchSpan {
            name,
            layer,
            rank: self.rank,
            iter: state.iter,
            parent: state.open.last().copied(),
            start_us,
            end_us: start_us,
        };
        state.spans.push(span);
        state.open.push(index);
        SpanGuard {
            tracer: self,
            index,
        }
    }

    fn call(&self, bytes: u64) {
        let mut state = self.lock();
        let iter = state.iter;
        state.calls.push(CommCall { iter, bytes });
    }

    /// Everything recorded so far: benchmark-side spans and collective
    /// calls, leaving the tracer empty.
    pub fn take(&self) -> (Vec<BenchSpan>, Vec<CommCall>) {
        let mut state = self.lock();
        (
            std::mem::take(&mut state.spans),
            std::mem::take(&mut state.calls),
        )
    }
}

/// A [`Communicator`] that forwards every call to `inner`, wrapped in a
/// benchmark-side span and counted. It adds no behaviour: results, errors
/// and the collective schedule are the inner communicator's.
pub struct TracedComm<'a> {
    inner: &'a mut dyn Communicator,
    tracer: &'a RankTracer,
    layer: &'static str,
}

impl<'a> TracedComm<'a> {
    /// Wraps `inner`; spans are attributed to `layer`, the transport crate.
    pub fn new(
        inner: &'a mut dyn Communicator,
        tracer: &'a RankTracer,
        layer: &'static str,
    ) -> Self {
        TracedComm {
            inner,
            tracer,
            layer,
        }
    }
}

/// Payload bytes this rank contributes to `op` (the size the α–β model
/// takes).
fn op_bytes(op: &CollectiveOp) -> u64 {
    match op {
        CollectiveOp::AllReduce { buf, .. }
        | CollectiveOp::AllReduceRd { buf, .. }
        | CollectiveOp::Broadcast { buf, .. } => 4 * buf.len() as u64,
        CollectiveOp::AllGatherF32 { send } | CollectiveOp::SendRecvF32 { send, .. } => {
            4 * send.len() as u64
        }
        CollectiveOp::AllGatherU32 { send } => 4 * send.len() as u64,
        CollectiveOp::GlobalTopk { indices, .. } => 8 * indices.len() as u64,
        CollectiveOp::Barrier => 0,
    }
}

impl Communicator for TracedComm<'_> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn topology(&self) -> Topology {
        self.inner.topology()
    }

    fn membership(&self) -> Membership {
        self.inner.membership()
    }

    fn reform(&mut self) -> Result<Membership, CommError> {
        self.inner.reform()
    }

    fn all_reduce(&mut self, buf: &mut [f32], op: ReduceOp) -> Result<(), CommError> {
        let _g = self.tracer.span("comm.all_reduce", self.layer);
        self.tracer.call(4 * buf.len() as u64);
        self.inner.all_reduce(buf, op)
    }

    fn all_gather_f32(&mut self, send: &[f32]) -> Result<Vec<f32>, CommError> {
        let _g = self.tracer.span("comm.all_gather", self.layer);
        self.tracer.call(4 * send.len() as u64);
        self.inner.all_gather_f32(send)
    }

    fn all_gather_u32(&mut self, send: &[u32]) -> Result<Vec<u32>, CommError> {
        let _g = self.tracer.span("comm.all_gather", self.layer);
        self.tracer.call(4 * send.len() as u64);
        self.inner.all_gather_u32(send)
    }

    fn broadcast(&mut self, buf: &mut [f32], root: usize) -> Result<(), CommError> {
        let _g = self.tracer.span("comm.broadcast", self.layer);
        self.tracer.call(4 * buf.len() as u64);
        self.inner.broadcast(buf, root)
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        let _g = self.tracer.span("comm.barrier", self.layer);
        self.inner.barrier()
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.inner.set_recorder(recorder);
    }

    fn global_topk(
        &mut self,
        indices: &[u32],
        values: &[f32],
        k: usize,
    ) -> Result<(Vec<u32>, Vec<f32>), CommError> {
        let _g = self.tracer.span("comm.global_topk", self.layer);
        self.tracer.call(8 * indices.len() as u64);
        self.inner.global_topk(indices, values, k)
    }

    fn dispatch(&mut self, op: CollectiveOp) -> PendingOp {
        // On a worker-backed transport this is the handoff to the comm
        // worker; on `acp-serve` the whole collective runs inside it.
        let _g = self.tracer.span("comm.dispatch", self.layer);
        self.tracer.call(op_bytes(&op));
        self.inner.dispatch(op)
    }

    fn schedule(&self) -> Option<ScheduleSnapshot> {
        self.inner.schedule()
    }
}

/// Total length of the union of `intervals`.
pub fn cover_us(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, 0u64);
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Aggregate of every benchmark-side span with one name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// Span name.
    pub name: &'static str,
    /// Layer the calls went into.
    pub layer: &'static str,
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations, microseconds.
    pub total_us: u64,
    /// Sum of self times: each span's duration minus the part of it its
    /// child spans cover.
    pub self_us: u64,
}

/// Summarises one rank's spans by name, with self time.
pub fn summarize(spans: &[BenchSpan]) -> Vec<SpanSummary> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(parent) = s.parent {
            let p = &spans[parent];
            children[parent].push((s.start_us.max(p.start_us), s.end_us.min(p.end_us)));
        }
    }
    let mut by_name: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let duration = s.end_us - s.start_us;
        let entry = by_name.entry(s.name).or_insert(SpanSummary {
            name: s.name,
            layer: s.layer,
            count: 0,
            total_us: 0,
            self_us: 0,
        });
        entry.count += 1;
        entry.total_us += duration;
        entry.self_us += duration - cover_us(kids);
    }
    by_name.into_values().collect()
}

/// Adds one rank's benchmark-side spans and the spans the program recorded
/// on the same clock to a Chrome trace, as two processes.
pub fn add_to_chrome(
    trace: &mut ChromeTraceBuilder,
    labels: &[&str],
    bench: &[BenchSpan],
    recorded: &[SpanRecord],
) {
    const BENCH_PID: u64 = 1;
    const PROGRAM_PID: u64 = 2;
    trace.process_name(BENCH_PID, "benchmark-side spans");
    trace.process_name(PROGRAM_PID, "spans recorded by the program");
    for s in bench {
        // The iteration span carries the shared identifier in its name;
        // its children nest under it on the same track.
        let name = if s.name == "iteration" {
            format!("iteration {} {}", s.iter, labels[s.iter as usize])
        } else {
            s.name.to_string()
        };
        trace.complete(
            &name,
            s.layer,
            BENCH_PID,
            s.rank as u64,
            s.start_us as f64,
            (s.end_us - s.start_us) as f64,
        );
    }
    trace.add_spans(PROGRAM_PID, recorded);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cover_merges_overlaps() {
        assert_eq!(cover_us(vec![(0, 10), (5, 12), (20, 25)]), 17);
        assert_eq!(cover_us(Vec::new()), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let tracer = RankTracer::new(Arc::new(InMemoryRecorder::new()), 0);
        {
            let _outer = tracer.span("outer", "benchmark");
            let _inner = tracer.span("inner", "core");
        }
        let (mut spans, _) = tracer.take();
        spans[0].start_us = 0;
        spans[0].end_us = 100;
        spans[1].start_us = 10;
        spans[1].end_us = 40;
        assert_eq!(spans[1].parent, Some(0));
        let summary = summarize(&spans);
        let outer = summary.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!((outer.total_us, outer.self_us), (100, 70));
    }
}

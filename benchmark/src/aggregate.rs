//! Gradient aggregation over a tensor catalog: the iteration the three
//! `resnet18_*` workloads time, and the loop the traced pass attributes.

use std::time::Instant;

use acp_collectives::Communicator;
use acp_core::{build_optimizer, CoreError, DistributedOptimizer, GradViewMut};
use acp_tensor::rng::{fill_std_normal, seeded_rng};

use crate::stats::{digest_f32, DIGEST_SEED};
use crate::trace::{RankTracer, TracedComm};
use crate::workload::aggregator;

/// Untimed iterations per aggregator before the clock starts: the first
/// builds the bucket plan (and runs blocking), the second is the first
/// overlapped one and starts the lazily spawned comm worker and kernel pool.
const WARMUP_ITERATIONS: usize = 2;

/// Seeded standard-normal gradients of one rank, one buffer per tensor.
/// Constant fills would make top-k and the low-rank factorizations
/// degenerate.
pub fn gradients(shapes: &[Vec<usize>], seed: u64, rank: usize) -> Vec<Vec<f32>> {
    shapes
        .iter()
        .enumerate()
        .map(|(tensor, dims)| {
            let mut grad = vec![0.0f32; dims.iter().product()];
            fill_tensor(&mut grad, seed, rank, tensor);
            grad
        })
        .collect()
}

fn fill_tensor(grad: &mut [f32], seed: u64, rank: usize, tensor: usize) {
    let stream = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((rank as u64) << 32 | tensor as u64);
    fill_std_normal(grad, &mut seeded_rng(stream));
}

fn views<'g>(shapes: &'g [Vec<usize>], grads: &'g mut [Vec<f32>]) -> Vec<GradViewMut<'g>> {
    shapes
        .iter()
        .zip(grads.iter_mut())
        .map(|(dims, grad)| GradViewMut { dims, grad })
        .collect()
}

/// One rank's gradients and its live aggregators.
pub struct RankState<'a> {
    shapes: &'a [Vec<usize>],
    pristine: Vec<Vec<f32>>,
    grads: Vec<Vec<f32>>,
    opts: Vec<Box<dyn DistributedOptimizer>>,
}

impl<'a> RankState<'a> {
    /// Generates this rank's gradients, builds one default-configured
    /// aggregator per name and warms each up.
    ///
    /// # Errors
    ///
    /// Propagates a failed warm-up iteration.
    pub fn setup(
        shapes: &'a [Vec<usize>],
        buffer_bytes: usize,
        aggs: &[&str],
        seed: u64,
        comm: &mut dyn Communicator,
    ) -> Result<Self, CoreError> {
        let pristine = gradients(shapes, seed, comm.rank());
        let mut state = RankState {
            shapes,
            grads: pristine.clone(),
            pristine,
            opts: aggs
                .iter()
                .map(|name| {
                    let mut opt = build_optimizer(&aggregator(name));
                    opt.set_buffer_bytes(buffer_bytes);
                    opt
                })
                .collect(),
        };
        for k in 0..state.opts.len() {
            for _ in 0..WARMUP_ITERATIONS {
                state.iteration(k, comm, None)?;
            }
        }
        Ok(state)
    }

    /// Puts the seeded gradients back (an untimed memcpy).
    fn restore(&mut self) {
        for (grad, pristine) in self.grads.iter_mut().zip(&self.pristine) {
            grad.copy_from_slice(pristine);
        }
    }

    /// The aggregator at position `k`.
    pub fn optimizer(&mut self, k: usize) -> &mut dyn DistributedOptimizer {
        self.opts[k].as_mut()
    }

    /// One iteration of aggregator `k`: restore the gradients (untimed),
    /// barrier, then time `push_ready` for every tensor in backward order
    /// plus `finish_overlap`. Returns milliseconds. With a tracer, every
    /// call into `core` and, through [`TracedComm`], into the transport is
    /// wrapped in a span.
    ///
    /// # Errors
    ///
    /// Propagates the aggregator's or the barrier's error.
    pub fn iteration(
        &mut self,
        k: usize,
        comm: &mut dyn Communicator,
        tracer: Option<(&RankTracer, &'static str)>,
    ) -> Result<f64, CoreError> {
        self.restore();
        comm.barrier()?;
        let start = Instant::now();
        match tracer {
            None => self.push_and_finish(k, comm, None)?,
            Some((tracer, layer)) => {
                let _iteration = tracer.span("iteration", "benchmark");
                let mut traced = TracedComm::new(comm, tracer, layer);
                self.push_and_finish(k, &mut traced, Some(tracer))?;
            }
        }
        Ok(start.elapsed().as_secs_f64() * 1e3)
    }

    fn push_and_finish(
        &mut self,
        k: usize,
        comm: &mut dyn Communicator,
        tracer: Option<&RankTracer>,
    ) -> Result<(), CoreError> {
        let opt = &mut self.opts[k];
        for index in (0..self.shapes.len()).rev() {
            let _g = tracer.map(|t| t.span("core.push_ready", "core"));
            opt.push_ready(index, &self.shapes[index], &self.grads[index], comm)?;
        }
        let mut views = views(self.shapes, &mut self.grads);
        let _g = tracer.map(|t| t.span("core.finish_overlap", "core"));
        opt.finish_overlap(&mut views, comm)
    }

    /// One blocking `aggregate` call of aggregator `k` after an untimed
    /// restore. Returns milliseconds.
    ///
    /// # Errors
    ///
    /// Propagates the aggregator's error.
    pub fn blocking_iteration(
        &mut self,
        k: usize,
        comm: &mut dyn Communicator,
    ) -> Result<f64, CoreError> {
        self.restore();
        let mut views = views(self.shapes, &mut self.grads);
        let start = Instant::now();
        self.opts[k].aggregate(&mut views, comm)?;
        Ok(start.elapsed().as_secs_f64() * 1e3)
    }

    /// Digest of the gradients as the last iteration left them.
    pub fn digest(&self) -> u64 {
        self.grads
            .iter()
            .fold(DIGEST_SEED, |h, grad| digest_f32(h, grad))
    }

    /// Whether the gradients now hold exactly the average of both ranks'
    /// seeded gradients — the reference S-SGD must reproduce bit for bit
    /// (at world size 2 the sum has one rounding whatever the order, and
    /// halving is exact).
    pub fn holds_exact_average(&self, seed: u64, rank: usize) -> bool {
        let mut peer = Vec::new();
        self.grads
            .iter()
            .zip(&self.pristine)
            .enumerate()
            .all(|(tensor, (grad, mine))| {
                peer.clear();
                peer.resize(mine.len(), 0.0f32);
                fill_tensor(&mut peer, seed, 1 - rank, tensor);
                grad.iter()
                    .zip(mine.iter().zip(&peer))
                    .all(|(g, (a, b))| g.to_bits() == ((a + b) * 0.5).to_bits())
            })
    }
}

/// Rank 0 decides whether another round runs and tells the others; a
/// broadcast on the measured transport cannot deadlock the way a
/// process-local barrier would when one rank has already failed.
///
/// # Errors
///
/// Propagates the broadcast's error.
pub fn agree_to_continue(comm: &mut dyn Communicator, go: bool) -> Result<bool, CoreError> {
    let mut flag = [if go { 1.0f32 } else { 0.0 }];
    comm.broadcast(&mut flag, 0)?;
    Ok(flag[0] != 0.0)
}

//! Blocking vs pipelined aggregation over the ResNet-18 tensor catalog:
//! the same fused S-SGD step executed as one blocking `aggregate` call and
//! as the WFBP schedule (reverse-order `push_ready` + `finish_overlap`),
//! over 4 in-process worker ranks.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use acp_collectives::{Communicator, ThreadGroup};
use acp_core::{DistributedOptimizer, GradViewMut, SSgdAggregator};
use acp_models::Model;

const WORKERS: usize = 4;
const BUFFER_BYTES: usize = 4 * 1024 * 1024;

/// The model's gradient tensor shapes, in forward order.
fn shapes() -> Vec<Vec<usize>> {
    Model::ResNet18Cifar
        .spec()
        .layers
        .iter()
        .map(|l| l.dims.clone())
        .collect()
}

fn make_grads(shapes: &[Vec<usize>], rank: usize) -> Vec<Vec<f32>> {
    shapes
        .iter()
        .map(|d| vec![rank as f32 + 1.0; d.iter().product()])
        .collect()
}

fn views<'a>(shapes: &'a [Vec<usize>], grads: &'a mut [Vec<f32>]) -> Vec<GradViewMut<'a>> {
    shapes
        .iter()
        .zip(grads.iter_mut())
        .map(|(dims, grad)| GradViewMut { dims, grad })
        .collect()
}

fn bench_pipeline(c: &mut Criterion) {
    let shapes = shapes();
    let grad_bytes: u64 = shapes
        .iter()
        .map(|d| 4 * d.iter().product::<usize>() as u64)
        .sum();

    let mut group = c.benchmark_group("resnet18_step_p4");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(grad_bytes));

    // Both arms run a first blocking step (the pipeline builds its bucket
    // plan there) and then the measured schedule differs only in how the
    // second, steady-state step dispatches its collectives.
    group.bench_function("blocking", |b| {
        b.iter(|| {
            ThreadGroup::run(WORKERS, |mut comm| {
                let mut agg = SSgdAggregator::with_buffer_bytes(BUFFER_BYTES);
                let mut grads = make_grads(&shapes, comm.rank_id().as_usize());
                agg.aggregate(&mut views(&shapes, &mut grads), &mut comm)
                    .unwrap();
                agg.aggregate(&mut views(&shapes, &mut grads), &mut comm)
                    .unwrap();
                grads[0][0]
            })
        });
    });

    group.bench_function("pipelined", |b| {
        b.iter(|| {
            ThreadGroup::run(WORKERS, |mut comm| {
                let mut agg = SSgdAggregator::with_buffer_bytes(BUFFER_BYTES);
                let mut grads = make_grads(&shapes, comm.rank_id().as_usize());
                agg.aggregate(&mut views(&shapes, &mut grads), &mut comm)
                    .unwrap();
                // Backward order: deepest tensor becomes ready first.
                for index in (0..shapes.len()).rev() {
                    agg.push_ready(index, &shapes[index], &grads[index], &mut comm)
                        .unwrap();
                }
                agg.finish_overlap(&mut views(&shapes, &mut grads), &mut comm)
                    .unwrap();
                grads[0][0]
            })
        });
    });

    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);

//! A zero-element tensor alone in its bucket is aggregated like any other.
//!
//! Two layouts put an empty tensor in a bucket of its own: no fusion at
//! all, and a 4-byte buffer that an 8-element tensor overflows. Every
//! aggregator, at worlds 1 and 2, must return `Ok` on every rank for a
//! blocking step and an overlapped one, with outputs equal across ranks.
//! The sparse codecs used to panic here: the number of elements they
//! selected was clamped to `1..=n`, which panics for `n = 0`.

use acp_collectives::{Communicator, ThreadGroup};
use acp_core::{
    build_optimizer, AcpSgdConfig, Aggregator, DgcConfig, GradViewMut, PowerSgdConfig,
    SignSgdConfig, TopkSgdConfig,
};

const SHAPES: [&[usize]; 2] = [&[8], &[0]];

fn aggregators() -> [Aggregator; 7] {
    [
        Aggregator::Ssgd,
        Aggregator::SignSgd(SignSgdConfig::default().with_error_feedback(true)),
        Aggregator::Topk(TopkSgdConfig::default().with_density(0.25)),
        Aggregator::GTopk { density: 0.25 },
        Aggregator::Dgc(DgcConfig::default().with_density(0.25)),
        Aggregator::PowerSgd(PowerSgdConfig {
            warm_start_steps: 1,
            ..PowerSgdConfig::default()
        }),
        Aggregator::AcpSgd(AcpSgdConfig {
            warm_start_steps: 1,
            ..AcpSgdConfig::default()
        }),
    ]
}

/// Three steps of `spec` on `world` ranks at `buffer_bytes`: blocking,
/// overlapped (the empty tensor pushed first), blocking. Returns each
/// rank's outputs of every step.
fn run(spec: Aggregator, world: usize, buffer_bytes: usize) -> Vec<Vec<Vec<f32>>> {
    ThreadGroup::run(world, move |mut comm| {
        let rank = comm.rank_id().as_usize();
        let mut opt = build_optimizer(&spec);
        opt.set_buffer_bytes(buffer_bytes);
        let mut outputs = Vec::new();
        for step in 0..3 {
            let mut grads: Vec<Vec<f32>> = SHAPES
                .iter()
                .map(|dims| {
                    let n: usize = dims.iter().product();
                    (0..n)
                        .map(|i| ((i * 7 + rank * 3 + step) as f32 * 0.37).sin())
                        .collect()
                })
                .collect();
            if step == 1 {
                for index in (0..SHAPES.len()).rev() {
                    opt.push_ready(index, SHAPES[index], &grads[index], &mut comm)
                        .unwrap_or_else(|e| panic!("{} push {index}: {e}", spec.name()));
                }
            }
            let mut views: Vec<GradViewMut<'_>> = SHAPES
                .iter()
                .zip(grads.iter_mut())
                .map(|(dims, grad)| GradViewMut { dims, grad })
                .collect();
            let done = if step == 1 {
                opt.finish_overlap(&mut views, &mut comm)
            } else {
                opt.aggregate(&mut views, &mut comm)
            };
            done.unwrap_or_else(|e| panic!("{} step {step}: {e}", spec.name()));
            outputs.push(grads.concat());
        }
        outputs
    })
}

#[test]
fn every_aggregator_takes_a_bucket_of_nothing() {
    for buffer_bytes in [0, 4] {
        for world in [1, 2] {
            for spec in aggregators() {
                let ranks = run(spec, world, buffer_bytes);
                assert_eq!(ranks.len(), world);
                for (rank, outputs) in ranks.iter().enumerate() {
                    assert!(
                        outputs.iter().flatten().all(|v| v.is_finite()),
                        "{} world {world} buffer {buffer_bytes} rank {rank}",
                        spec.name()
                    );
                    let bits = |o: &[Vec<f32>]| {
                        o.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(
                        bits(outputs),
                        bits(&ranks[0]),
                        "{} world {world} buffer {buffer_bytes} rank {rank}",
                        spec.name()
                    );
                }
            }
        }
    }
}

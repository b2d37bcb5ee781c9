//! Golden bits of the benchmark's training recipe.
//!
//! Two epochs of the rings MLP `[32, 256, 256, 128, 4]` (init seed 99) on
//! `Dataset::rings(4, 32, 400, 1)`, two thread ranks, S-SGD with a 64 KiB
//! fusion buffer and wait-free backpropagation — the `mlp_train_thread`
//! recipe. Every product of the dense layers runs through
//! `acp_tensor::kernels`, so a kernel that reorders a single add moves
//! these constants. The Conv2d pin covers the one other `A·Bᵀ` user, the
//! weight gradient `dy · colsᵀ`.
//!
//! The constants are what the scalar loops of
//! `acp_tensor::kernels::reference` produce; every kernel must reproduce
//! them exactly.

use acp_collectives::ThreadGroup;
use acp_core::{build_optimizer, Aggregator};
use acp_tensor::rng::{fill_std_normal, seeded_rng};
use acp_training::layers::{Conv2d, Layer};
use acp_training::tensor4::Tensor;
use acp_training::trainer::train_rank_with_model;
use acp_training::{mlp, Dataset, LrSchedule, TrainConfig};

/// Bits of rank 0's final mean training loss.
const FINAL_LOSS_BITS: u32 = 1_067_753_965;
/// FNV-1a digest of every trained parameter, forward order.
const PARAMS_DIGEST: u64 = 0x53db_df02_dadb_f1a5;
/// FNV-1a digest of a Conv2d's output, weight and bias gradients and
/// input gradient.
const CONV_DIGEST: u64 = 0x914a_fc9f_f457_69c3;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the little-endian bytes of `values`, continuing from `h`.
fn fnv1a(mut h: u64, values: &[f32]) -> u64 {
    for byte in values.iter().flat_map(|v| v.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[test]
fn mlp_recipe_trains_to_golden_bits() {
    let data = Dataset::rings(4, 32, 400, 1);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 32,
        schedule: LrSchedule::new(0.05, 5, vec![(10, 0.1), (14, 0.1)]),
        momentum: 0.9,
        weight_decay: 1e-4,
        seed: 1,
        overlap: true,
        auto_tune: false,
    };
    let ranks = ThreadGroup::run(2, |comm| {
        let (mut model, history, _) = train_rank_with_model(
            comm,
            &data,
            &|| mlp(&[32, 256, 256, 128, 4], 99),
            &|| {
                let mut opt = build_optimizer(&Aggregator::Ssgd);
                opt.set_buffer_bytes(64 << 10);
                opt
            },
            &cfg,
            false,
        );
        let digest = model
            .params()
            .iter()
            .fold(FNV_OFFSET, |h, p| fnv1a(h, p.value));
        (history.last().map(|e| e.train_loss.to_bits()), digest)
    });
    let (loss_bits, digest) = ranks[0];
    assert_eq!(ranks[1].1, digest, "ranks hold different models");
    assert_eq!(
        (loss_bits, digest),
        (Some(FINAL_LOSS_BITS), PARAMS_DIGEST),
        "final loss {:?} / params digest {digest:#018x} moved",
        loss_bits.map(f32::from_bits)
    );
}

#[test]
fn conv2d_forward_backward_golden_bits() {
    let mut rng = seeded_rng(7);
    let mut conv = Conv2d::new(3, 5, 3, &mut rng);
    let mut x = Tensor::zeros(&[2, 3, 6, 6]);
    fill_std_normal(x.as_mut_slice(), &mut rng);
    let y = conv.forward(&x);
    let mut dy = Tensor::zeros(y.dims());
    fill_std_normal(dy.as_mut_slice(), &mut rng);
    let dx = conv.backward(&dy);
    let mut h = fnv1a(FNV_OFFSET, y.as_slice());
    for p in conv.params() {
        h = fnv1a(h, p.grad);
    }
    h = fnv1a(h, dx.as_slice());
    assert_eq!(h, CONV_DIGEST, "conv digest {h:#018x} moved");
}

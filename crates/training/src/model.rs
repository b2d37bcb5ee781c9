//! Sequential model container and the two convergence-experiment
//! architectures.

use acp_tensor::rng::seeded_rng;

use crate::layers::{AvgPool2, Conv2d, Dense, Flatten, Layer, Param, Relu};
use crate::norm::{BatchNorm, Residual};
use crate::tensor4::Tensor;

/// A stack of layers applied in order.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

impl Sequential {
    /// Builds a model from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Runs the forward pass, caching activations for backward.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else {
            return input.clone();
        };
        layers.fold(first.forward(input), |x, layer| layer.forward(&x))
    }

    /// Runs the backward pass, filling every parameter gradient.
    pub fn backward(&mut self, grad_out: &Tensor) {
        self.backward_with(grad_out, |_, _| {});
    }

    /// Runs the backward pass, invoking `on_layer_ready` as each layer's
    /// parameter gradients become final — i.e. immediately after that
    /// layer's `backward`, while earlier (forward-order) layers are still
    /// waiting to run.
    ///
    /// This is the wait-free-backpropagation hook: the callback receives
    /// the layer's forward-order index and its parameters, letting a
    /// gradient-aggregation pipeline dispatch communication for finished
    /// layers concurrently with the rest of the backward pass. Layers are
    /// visited in reverse forward order (output first).
    pub fn backward_with<F>(&mut self, grad_out: &Tensor, mut on_layer_ready: F)
    where
        F: FnMut(usize, &mut [Param<'_>]),
    {
        let mut g = grad_out.clone();
        for (index, layer) in self.layers.iter_mut().enumerate().rev() {
            g = layer.backward(&g);
            let mut params = layer.params();
            on_layer_ready(index, &mut params);
        }
    }

    /// Borrows all parameters in forward-layer order.
    pub fn params(&mut self) -> Vec<Param<'_>> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    /// Number of parameter tensors held by each layer, in forward order.
    ///
    /// Prefix-summing this gives the global forward-order parameter index
    /// of each layer's first tensor — the index space [`Sequential::params`]
    /// and the `backward_with` callback agree on.
    pub fn params_per_layer(&mut self) -> Vec<usize> {
        self.layers.iter_mut().map(|l| l.params().len()).collect()
    }

    /// Total number of trainable parameters.
    pub fn num_params(&mut self) -> usize {
        self.params().iter().map(|p| p.value.len()).sum()
    }
}

/// Builds an MLP with the given layer widths (`dims[0]` inputs through
/// `dims.last()` classes), ReLU between layers, He init from `seed`.
///
/// All ranks constructing `mlp` with the same arguments hold bit-identical
/// initial weights — the data-parallel invariant.
///
/// # Panics
///
/// Panics if fewer than two widths are given.
pub fn mlp(dims: &[usize], seed: u64) -> Sequential {
    assert!(
        dims.len() >= 2,
        "mlp needs at least input and output widths"
    );
    let mut rng = seeded_rng(seed);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    for (i, pair) in dims.windows(2).enumerate() {
        layers.push(Box::new(Dense::new(pair[0], pair[1], &mut rng)));
        if i + 2 < dims.len() {
            layers.push(Box::new(Relu::new()));
        }
    }
    Sequential::new(layers)
}

/// Builds the small convnet used as the VGG/ResNet stand-in: two conv+pool
/// stages followed by a dense classifier head.
///
/// Input shape `[batch, channels, hw, hw]`; `hw` must be divisible by 4.
pub fn small_cnn(channels: usize, hw: usize, classes: usize, seed: u64) -> Sequential {
    assert!(hw.is_multiple_of(4), "spatial size must be divisible by 4");
    let mut rng = seeded_rng(seed);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(channels, 8, 3, &mut rng)),
        Box::new(Relu::new()),
        Box::new(AvgPool2::new()),
        Box::new(Conv2d::new(8, 16, 3, &mut rng)),
        Box::new(Relu::new()),
        Box::new(AvgPool2::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(16 * (hw / 4) * (hw / 4), classes, &mut rng)),
    ];
    Sequential::new(layers)
}

/// Builds a tiny residual network: conv stem, two residual conv+BN blocks
/// with pooling between, dense head — the structurally faithful
/// "ResNet-18" stand-in (identity skips, batch norm, strided stages).
///
/// Input shape `[batch, channels, hw, hw]`; `hw` must be divisible by 4.
pub fn resnet_tiny(channels: usize, hw: usize, classes: usize, seed: u64) -> Sequential {
    assert!(hw.is_multiple_of(4), "spatial size must be divisible by 4");
    let mut rng = seeded_rng(seed);
    let width = 8usize;
    let block = |rng: &mut rand_chacha::ChaCha8Rng| -> Box<dyn Layer> {
        Box::new(Residual::new(vec![
            Box::new(Conv2d::new(width, width, 3, rng)),
            Box::new(BatchNorm::new(width)),
            Box::new(Relu::new()),
            Box::new(Conv2d::new(width, width, 3, rng)),
            Box::new(BatchNorm::new(width)),
        ]))
    };
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(channels, width, 3, &mut rng)),
        Box::new(BatchNorm::new(width)),
        Box::new(Relu::new()),
        block(&mut rng),
        Box::new(Relu::new()),
        Box::new(AvgPool2::new()),
        block(&mut rng),
        Box::new(Relu::new()),
        Box::new(AvgPool2::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(width * (hw / 4) * (hw / 4), classes, &mut rng)),
    ];
    Sequential::new(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;

    #[test]
    fn mlp_shapes_and_param_count() {
        let mut m = mlp(&[8, 16, 4], 0);
        // 8*16+16 + 16*4+4 = 144 + 68 = 212.
        assert_eq!(m.num_params(), 212);
        let x = Tensor::zeros(&[3, 8]);
        let y = m.forward(&x);
        assert_eq!(y.dims(), &[3, 4]);
    }

    #[test]
    fn identical_seeds_give_identical_models() {
        let mut a = mlp(&[4, 8, 2], 7);
        let mut b = mlp(&[4, 8, 2], 7);
        let pa = a.params();
        let pb = b.params();
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.value, y.value);
        }
    }

    #[test]
    fn cnn_forward_shape() {
        let mut m = small_cnn(3, 8, 10, 1);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = m.forward(&x);
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn resnet_tiny_forward_shape_and_params() {
        let mut m = resnet_tiny(3, 8, 10, 4);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = m.forward(&x);
        assert_eq!(y.dims(), &[2, 10]);
        // Stem conv + 2 residual blocks (2 convs + 2 BNs each) + head:
        // (1 conv + 1 bn)*2 params + 2 blocks * 4 layers * 2 + dense 2.
        assert_eq!(m.params().len(), 2 + 2 + 2 * 8 + 2);
    }

    #[test]
    fn resnet_tiny_backward_runs() {
        let mut m = resnet_tiny(3, 8, 4, 5);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let logits = m.forward(&x);
        let (_, d) = softmax_cross_entropy(&logits, &[0, 1]);
        m.backward(&d);
        // All parameter gradients are finite.
        for p in m.params() {
            assert!(p.grad.iter().all(|g| g.is_finite()));
        }
    }

    #[test]
    fn backward_with_visits_layers_in_reverse_with_global_indices() {
        let mut m = mlp(&[4, 8, 2], 7);
        let counts = m.params_per_layer();
        assert_eq!(counts.iter().sum::<usize>(), m.params().len());
        let x = Tensor::zeros(&[2, 4]);
        let logits = m.forward(&x);
        let (_, d) = softmax_cross_entropy(&logits, &[0, 1]);
        let mut visited = Vec::new();
        m.backward_with(&d, |i, params| visited.push((i, params.len())));
        let expected: Vec<(usize, usize)> = counts.iter().copied().enumerate().rev().collect();
        assert_eq!(visited, expected, "reverse forward order, every layer");
    }

    #[test]
    fn backward_with_fills_same_gradients_as_backward() {
        let x = Tensor::from_vec(&[2, 4], (0..8).map(|i| i as f32 * 0.25).collect());
        let labels = [0usize, 1];
        let grads = |hook: bool| {
            let mut m = mlp(&[4, 8, 2], 11);
            let logits = m.forward(&x);
            let (_, d) = softmax_cross_entropy(&logits, &labels);
            if hook {
                m.backward_with(&d, |_, _| {});
            } else {
                m.backward(&d);
            }
            m.params()
                .iter()
                .flat_map(|p| p.grad.iter().copied())
                .collect::<Vec<f32>>()
        };
        assert_eq!(grads(true), grads(false));
    }

    #[test]
    fn single_model_overfits_tiny_problem() {
        // Sanity: plain local SGD drives the loss down.
        use crate::optim::SgdMomentum;
        let mut m = mlp(&[2, 16, 2], 3);
        let x = Tensor::from_vec(&[4, 2], vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let labels = [0usize, 1, 1, 0]; // XOR
        let mut opt = SgdMomentum::new(0.5, 0.9, 0.0);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..200 {
            let logits = m.forward(&x);
            let (loss, dlogits) = softmax_cross_entropy(&logits, &labels);
            m.backward(&dlogits);
            let mut params = m.params();
            opt.step(&mut params);
            if step == 0 {
                first = loss;
            }
            last = loss;
        }
        assert!(last < first / 5.0, "loss {first} -> {last} did not drop");
    }
}

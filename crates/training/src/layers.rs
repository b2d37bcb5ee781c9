//! Neural-network layers with hand-written backward passes.
//!
//! Just enough of a layer zoo for the convergence experiments: dense and
//! convolutional layers (whose weight matrices exercise the low-rank
//! compression path, including the 4-D conv reshape), ReLU, average
//! pooling and flatten. Forward caches whatever backward needs; backward
//! fills the parameter gradients and returns the input gradient.

use acp_tensor::kernels;
use acp_tensor::pool::global_for;
use acp_tensor::rng::fill_std_normal;
use acp_tensor::Matrix;
use rand_chacha::ChaCha8Rng;

use crate::tensor4::Tensor;

/// A mutable view of one parameter with its gradient (handed to the
/// distributed aggregator and the SGD update).
#[derive(Debug)]
pub struct Param<'a> {
    /// Tensor shape of the parameter.
    pub dims: &'a [usize],
    /// Parameter values.
    pub value: &'a mut [f32],
    /// Gradient of the last backward pass.
    pub grad: &'a mut [f32],
}

/// A differentiable layer.
pub trait Layer: Send {
    /// Computes the layer output, caching activations for backward.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Propagates the output gradient, filling parameter gradients
    /// (overwriting them) and returning the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Layer::forward`].
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Borrows the layer's parameters (empty for activation layers).
    fn params(&mut self) -> Vec<Param<'_>>;
}

/// Fully-connected layer `y = x Wᵀ + b` with weight `W ∈ ℝ^{out×in}`.
#[derive(Debug)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    w: Vec<f32>,
    b: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
    w_dims: [usize; 2],
    b_dims: [usize; 1],
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-initialized weights drawn from `rng`.
    pub fn new(in_features: usize, out_features: usize, rng: &mut ChaCha8Rng) -> Self {
        let mut w = vec![0.0f32; out_features * in_features];
        fill_std_normal(&mut w, rng);
        let scale = (2.0 / in_features as f32).sqrt();
        for v in &mut w {
            *v *= scale;
        }
        Dense {
            in_features,
            out_features,
            w,
            b: vec![0.0; out_features],
            gw: vec![0.0; out_features * in_features],
            gb: vec![0.0; out_features],
            w_dims: [out_features, in_features],
            b_dims: [out_features],
            cached_input: None,
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let batch = input.batch();
        assert_eq!(
            input.len(),
            batch * self.in_features,
            "dense input shape mismatch: {:?}",
            input.dims()
        );
        let (n, k, m) = (batch, self.in_features, self.out_features);
        let mut y = vec![0.0f32; n * m];
        kernels::matmul_nt_into(
            global_for(n * k * m),
            n,
            k,
            m,
            input.as_slice(),
            &self.w,
            &mut y,
        );
        for row in y.chunks_exact_mut(m) {
            for (o, bias) in row.iter_mut().zip(&self.b) {
                *o += bias;
            }
        }
        self.cached_input = Some(input.clone());
        Tensor::from_vec(&[batch, m], y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.take().expect("backward before forward");
        let (batch, out, inp) = (input.batch(), self.out_features, self.in_features);
        let dy = grad_out.as_slice();
        assert_eq!(dy.len(), batch * out, "dense grad shape mismatch");
        let pool = global_for(batch * out * inp);
        // gW = dyᵀ x, gb = column sums of dy.
        kernels::matmul_tn_into(pool, batch, out, inp, dy, input.as_slice(), &mut self.gw);
        self.gb.fill(0.0);
        for row in dy.chunks_exact(out) {
            for (g, v) in self.gb.iter_mut().zip(row) {
                *g += v;
            }
        }
        // dx = dy W.
        let mut dx = vec![0.0f32; batch * inp];
        kernels::matmul_into(pool, batch, out, inp, dy, &self.w, &mut dx);
        Tensor::from_vec(input.dims(), dx)
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        vec![
            Param {
                dims: &self.w_dims,
                value: &mut self.w,
                grad: &mut self.gw,
            },
            Param {
                dims: &self.b_dims,
                value: &mut self.b,
                grad: &mut self.gb,
            },
        ]
    }
}

/// ReLU activation.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.mask = input.as_slice().iter().map(|&v| v > 0.0).collect();
        let data = input.as_slice().iter().map(|&v| v.max(0.0)).collect();
        Tensor::from_vec(input.dims(), data)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.len(), self.mask.len(), "backward before forward");
        let data = grad_out
            .as_slice()
            .iter()
            .zip(&self.mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(grad_out.dims(), data)
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        Vec::new()
    }
}

/// 2-D convolution, stride 1, `same` padding for odd kernels, via im2col.
///
/// The weight tensor is `[out_c, in_c, k, k]` — the 4-D shape the low-rank
/// compressors reshape to `out_c × (in_c·k²)` (§IV-C).
#[derive(Debug)]
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    k: usize,
    pad: usize,
    w: Vec<f32>,
    b: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
    w_dims: [usize; 4],
    b_dims: [usize; 1],
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a conv layer with He-initialized filters.
    pub fn new(in_c: usize, out_c: usize, k: usize, rng: &mut ChaCha8Rng) -> Self {
        let fan_in = in_c * k * k;
        let mut w = vec![0.0f32; out_c * fan_in];
        fill_std_normal(&mut w, rng);
        let scale = (2.0 / fan_in as f32).sqrt();
        for v in &mut w {
            *v *= scale;
        }
        Conv2d {
            in_c,
            out_c,
            k,
            pad: k / 2,
            w,
            b: vec![0.0; out_c],
            gw: vec![0.0; out_c * fan_in],
            gb: vec![0.0; out_c],
            w_dims: [out_c, in_c, k, k],
            b_dims: [out_c],
            cached_input: None,
        }
    }

    /// im2col for one sample: returns a `(in_c·k²) × (h·w)` matrix.
    fn im2col(&self, sample: &[f32], h: usize, w: usize) -> Matrix {
        let k = self.k;
        let pad = self.pad as isize;
        let mut cols = Matrix::zeros(self.in_c * k * k, h * w);
        for c in 0..self.in_c {
            let plane = &sample[c * h * w..(c + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let row = (c * k + ky) * k + kx;
                    for oy in 0..h {
                        let iy = oy as isize + ky as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..w {
                            let ix = ox as isize + kx as isize - pad;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            cols.set(row, oy * w + ox, plane[iy as usize * w + ix as usize]);
                        }
                    }
                }
            }
        }
        cols
    }

    /// col2im accumulation: scatter a `(in_c·k²) × (h·w)` gradient back
    /// into a sample-shaped buffer.
    fn col2im(&self, dcols: &Matrix, h: usize, w: usize, out: &mut [f32]) {
        let k = self.k;
        let pad = self.pad as isize;
        for c in 0..self.in_c {
            let plane = &mut out[c * h * w..(c + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let row = (c * k + ky) * k + kx;
                    for oy in 0..h {
                        let iy = oy as isize + ky as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..w {
                            let ix = ox as isize + kx as isize - pad;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            plane[iy as usize * w + ix as usize] += dcols.get(row, oy * w + ox);
                        }
                    }
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let dims = input.dims();
        assert_eq!(
            dims.len(),
            4,
            "conv input must be [batch, c, h, w], got {dims:?}"
        );
        let (batch, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(c, self.in_c, "conv channel mismatch");
        let wm = Matrix::from_vec(self.out_c, self.in_c * self.k * self.k, self.w.clone())
            .expect("weight buffer consistent");
        let mut out = Tensor::zeros(&[batch, self.out_c, h, w]);
        for bi in 0..batch {
            let cols = self.im2col(input.sample(bi), h, w);
            let y = wm.matmul(&cols); // (out_c, h*w)
            let dst = out.sample_mut(bi);
            for oc in 0..self.out_c {
                let bias = self.b[oc];
                let src = y.row(oc);
                let plane = &mut dst[oc * h * w..(oc + 1) * h * w];
                for (d, s) in plane.iter_mut().zip(src) {
                    *d = s + bias;
                }
            }
        }
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.take().expect("backward before forward");
        let dims = input.dims();
        let (batch, _c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let wm = Matrix::from_vec(self.out_c, self.in_c * self.k * self.k, self.w.clone())
            .expect("weight buffer consistent");
        self.gw.fill(0.0);
        self.gb.fill(0.0);
        let mut dx = Tensor::zeros(dims);
        for bi in 0..batch {
            let dy = Matrix::from_vec(self.out_c, h * w, grad_out.sample(bi).to_vec())
                .expect("grad shape");
            let cols = self.im2col(input.sample(bi), h, w);
            // gW += dy colsᵀ.
            let gw_b = dy.matmul_nt(&cols);
            for (g, v) in self.gw.iter_mut().zip(gw_b.as_slice()) {
                *g += v;
            }
            for oc in 0..self.out_c {
                self.gb[oc] += dy.row(oc).iter().sum::<f32>();
            }
            // dcols = Wᵀ dy; scatter back.
            let dcols = wm.matmul_tn(&dy);
            self.col2im(&dcols, h, w, dx.sample_mut(bi));
        }
        dx
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        vec![
            Param {
                dims: &self.w_dims,
                value: &mut self.w,
                grad: &mut self.gw,
            },
            Param {
                dims: &self.b_dims,
                value: &mut self.b,
                grad: &mut self.gb,
            },
        ]
    }
}

/// 2×2 average pooling with stride 2.
#[derive(Debug, Default)]
pub struct AvgPool2 {
    in_dims: Vec<usize>,
}

impl AvgPool2 {
    /// Creates the pooling layer.
    pub fn new() -> Self {
        AvgPool2::default()
    }
}

impl Layer for AvgPool2 {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let dims = input.dims();
        assert_eq!(dims.len(), 4, "pool input must be 4-D, got {dims:?}");
        let (batch, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert!(
            h % 2 == 0 && w % 2 == 0,
            "pool needs even spatial dims, got {h}x{w}"
        );
        self.in_dims = dims.to_vec();
        let (oh, ow) = (h / 2, w / 2);
        let mut out = Tensor::zeros(&[batch, c, oh, ow]);
        for bi in 0..batch {
            let src = input.sample(bi);
            let dst = out.sample_mut(bi);
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for dy in 0..2 {
                            for dxx in 0..2 {
                                acc += src[ci * h * w + (2 * oy + dy) * w + 2 * ox + dxx];
                            }
                        }
                        dst[ci * oh * ow + oy * ow + ox] = acc / 4.0;
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(!self.in_dims.is_empty(), "backward before forward");
        let (batch, c, h, w) = (
            self.in_dims[0],
            self.in_dims[1],
            self.in_dims[2],
            self.in_dims[3],
        );
        let (oh, ow) = (h / 2, w / 2);
        let mut dx = Tensor::zeros(&self.in_dims);
        for bi in 0..batch {
            let src = grad_out.sample(bi);
            let dst = dx.sample_mut(bi);
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = src[ci * oh * ow + oy * ow + ox] / 4.0;
                        for dy in 0..2 {
                            for dxx in 0..2 {
                                dst[ci * h * w + (2 * oy + dy) * w + 2 * ox + dxx] = g;
                            }
                        }
                    }
                }
            }
        }
        dx
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        Vec::new()
    }
}

/// Flattens `[batch, …]` to `[batch, features]`.
#[derive(Debug, Default)]
pub struct Flatten {
    in_dims: Vec<usize>,
}

impl Flatten {
    /// Creates the flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.in_dims = input.dims().to_vec();
        let batch = input.batch();
        let features = input.len() / batch.max(1);
        input.clone().reshape(&[batch, features])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(!self.in_dims.is_empty(), "backward before forward");
        grad_out.clone().reshape(&self.in_dims)
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_tensor::rng::seeded_rng;

    /// Numerical gradient check of a scalar function of layer input.
    fn grad_check<L: Layer>(layer: &mut L, input: Tensor, tol: f32) {
        // Loss = sum of outputs; analytic dL/dx = backward(ones).
        let out = layer.forward(&input);
        let ones = Tensor::from_vec(out.dims(), vec![1.0; out.len()]);
        let dx = layer.backward(&ones);
        let eps = 1e-2f32;
        for i in (0..input.len()).step_by((input.len() / 7).max(1)) {
            let mut plus = input.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[i] -= eps;
            let f_plus: f32 = layer.forward(&plus).as_slice().iter().sum();
            let f_minus: f32 = layer.forward(&minus).as_slice().iter().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let analytic = dx.as_slice()[i];
            assert!(
                (numeric - analytic).abs() < tol * (1.0 + numeric.abs()),
                "element {i}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn dense_forward_matches_hand_computation() {
        let mut rng = seeded_rng(0);
        let mut d = Dense::new(2, 2, &mut rng);
        // Overwrite with known weights.
        d.w.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]); // W = [[1,2],[3,4]]
        d.b.copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        let y = d.forward(&x);
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn dense_input_gradient_is_correct() {
        let mut rng = seeded_rng(1);
        let mut d = Dense::new(5, 3, &mut rng);
        let mut x = Tensor::zeros(&[2, 5]);
        fill_std_normal(x.as_mut_slice(), &mut rng);
        grad_check(&mut d, x, 1e-2);
    }

    #[test]
    fn dense_weight_gradient_is_correct() {
        let mut rng = seeded_rng(2);
        let mut d = Dense::new(3, 2, &mut rng);
        let mut x = Tensor::zeros(&[2, 3]);
        fill_std_normal(x.as_mut_slice(), &mut rng);
        let out = d.forward(&x);
        let ones = Tensor::from_vec(out.dims(), vec![1.0; out.len()]);
        d.backward(&ones);
        let analytic = d.gw.clone();
        let eps = 1e-2f32;
        #[allow(clippy::needless_range_loop)] // the loop both perturbs w[i] and reads analytic[i]
        for i in 0..d.w.len() {
            d.w[i] += eps;
            let f_plus: f32 = d.forward(&x).as_slice().iter().sum();
            d.w[i] -= 2.0 * eps;
            let f_minus: f32 = d.forward(&x).as_slice().iter().sum();
            d.w[i] += eps;
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!(
                (numeric - analytic[i]).abs() < 1e-2 * (1.0 + numeric.abs()),
                "w[{i}]: numeric {numeric} vs analytic {}",
                analytic[i]
            );
        }
    }

    #[test]
    fn relu_masks_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(&[1, 4], vec![-1.0, 2.0, 0.0, -3.0]);
        let y = r.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
        let g = Tensor::from_vec(&[1, 4], vec![1.0; 4]);
        let dx = r.backward(&g);
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn conv_identity_kernel_passes_input_through() {
        let mut rng = seeded_rng(3);
        let mut c = Conv2d::new(1, 1, 3, &mut rng);
        // Identity kernel (centre 1).
        c.w.fill(0.0);
        c.w[4] = 1.0;
        c.b[0] = 0.0;
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = c.forward(&x);
        assert_eq!(y.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn conv_input_gradient_is_correct() {
        let mut rng = seeded_rng(4);
        let mut c = Conv2d::new(2, 3, 3, &mut rng);
        let mut x = Tensor::zeros(&[1, 2, 4, 4]);
        fill_std_normal(x.as_mut_slice(), &mut rng);
        grad_check(&mut c, x, 2e-2);
    }

    #[test]
    fn conv_weight_gradient_is_correct() {
        let mut rng = seeded_rng(5);
        let mut c = Conv2d::new(1, 2, 3, &mut rng);
        let mut x = Tensor::zeros(&[2, 1, 3, 3]);
        fill_std_normal(x.as_mut_slice(), &mut rng);
        let out = c.forward(&x);
        let ones = Tensor::from_vec(out.dims(), vec![1.0; out.len()]);
        c.backward(&ones);
        let analytic = c.gw.clone();
        let eps = 1e-2f32;
        for i in (0..c.w.len()).step_by(3) {
            c.w[i] += eps;
            let f_plus: f32 = c.forward(&x).as_slice().iter().sum();
            c.w[i] -= 2.0 * eps;
            let f_minus: f32 = c.forward(&x).as_slice().iter().sum();
            c.w[i] += eps;
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!(
                (numeric - analytic[i]).abs() < 2e-2 * (1.0 + numeric.abs()),
                "w[{i}]: numeric {numeric} vs analytic {}",
                analytic[i]
            );
        }
    }

    #[test]
    fn avgpool_halves_and_backprops_evenly() {
        let mut p = AvgPool2::new();
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = p.forward(&x);
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert_eq!(y.as_slice(), &[2.5]);
        let dx = p.backward(&Tensor::from_vec(&[1, 1, 1, 1], vec![4.0]));
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn flatten_round_trips() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec(&[2, 1, 2, 2], (0..8).map(|i| i as f32).collect());
        let y = f.forward(&x);
        assert_eq!(y.dims(), &[2, 4]);
        let dx = f.backward(&y);
        assert_eq!(dx.dims(), &[2, 1, 2, 2]);
    }

    #[test]
    fn dense_params_expose_matrix_and_vector() {
        let mut rng = seeded_rng(6);
        let mut d = Dense::new(3, 4, &mut rng);
        let params = d.params();
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].dims, &[4, 3]);
        assert_eq!(params[1].dims, &[4]);
    }
}

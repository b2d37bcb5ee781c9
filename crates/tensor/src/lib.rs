//! Dense matrix and vector math substrate for the ACP-SGD reproduction.
//!
//! The gradient-compression algorithms in this workspace (Power-SGD and
//! ACP-SGD in particular) operate on gradients viewed as dense `f32`
//! matrices. This crate provides exactly the primitives those algorithms
//! need, implemented from scratch:
//!
//! * [`Matrix`] — a row-major dense matrix with the multiplication variants
//!   used by power iteration (`A·B`, `Aᵀ·B`, `A·Bᵀ`).
//! * [`qr`] — thin QR orthogonalization (modified Gram–Schmidt and
//!   Householder), the `Orthogonalize` step of Algorithms 1–2 in the paper.
//! * [`reshape`] — the convention for viewing an arbitrary parameter tensor
//!   as a 2-D matrix for low-rank compression.
//! * [`vecops`] — flat `f32` slice kernels (axpy, dot, scale, …) used by the
//!   optimizers and collectives.
//! * [`rng`] — deterministic, seedable random initialization shared by every
//!   worker so low-rank query matrices start identical across ranks.
//! * [`pool`] — a small fixed-size worker pool (shared injector + worker
//!   threads + result channel) that data-parallel kernels share.
//! * [`kernels`] — tiled, pool-parallel matmul kernels that stay
//!   bitwise-identical to the serial loops.
//!
//! # Examples
//!
//! ```
//! use acp_tensor::Matrix;
//!
//! let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let q = Matrix::identity(2);
//! let p = m.matmul(&q);
//! assert_eq!(p, m);
//! ```

#![warn(missing_docs)]

pub mod kernels;
pub mod matrix;
pub mod pool;
pub mod qr;
pub mod reshape;
pub mod rng;
pub mod vecops;

pub use matrix::{Matrix, MatrixError};
pub use pool::WorkerPool;
pub use qr::{orthogonalize, orthogonalize_householder};
pub use reshape::MatrixShape;
pub use rng::SeedableStdNormal;

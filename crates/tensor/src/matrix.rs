//! Row-major dense `f32` matrices with the multiplication variants used by
//! power iteration.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Error produced by fallible [`Matrix`] constructors and operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// The supplied buffer length does not equal `rows * cols`.
    LengthMismatch {
        /// Expected number of elements (`rows * cols`).
        expected: usize,
        /// Number of elements actually supplied.
        actual: usize,
    },
    /// Two matrices had incompatible dimensions for the requested operation.
    DimMismatch {
        /// Human-readable operation name (e.g. `"matmul"`).
        op: &'static str,
        /// Dimensions of the left operand.
        lhs: (usize, usize),
        /// Dimensions of the right operand.
        rhs: (usize, usize),
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "buffer length {actual} does not match rows*cols = {expected}"
                )
            }
            MatrixError::DimMismatch { op, lhs, rhs } => write!(
                f,
                "incompatible dimensions for {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
        }
    }
}

impl std::error::Error for MatrixError {}

/// A dense row-major `f32` matrix.
///
/// This is the working representation of a gradient inside the low-rank
/// compressors: the gradient of an `n × m` weight is an `n × m` matrix `M`,
/// factored as `M ≈ P Qᵀ` with `P ∈ ℝ^{n×r}` and `Q ∈ ℝ^{m×r}`.
///
/// # Examples
///
/// ```
/// use acp_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
/// assert_eq!(a.get(1, 1), 2.0);
/// assert_eq!(a.transpose().get(1, 1), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::LengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, MatrixError> {
        if data.len() != rows * cols {
            return Err(MatrixError::LengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from row slices; all rows must have equal length.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements (`rows * cols`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the row-major backing buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the row-major backing buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Computes `self · other` (`n×k · k×m → n×m`).
    ///
    /// This is the `P ← M Q` step of power iteration.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`; use [`Matrix::try_matmul`]
    /// for a fallible variant.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.try_matmul(other).expect("matmul dimension mismatch")
    }

    /// Fallible [`Matrix::matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimMismatch`] if `self.cols() != other.rows()`.
    #[must_use = "the result carries the computation; dropping it discards the round"]
    pub fn try_matmul(&self, other: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != other.rows {
            return Err(MatrixError::DimMismatch {
                op: "matmul",
                lhs: (self.rows, self.cols),
                rhs: (other.rows, other.cols),
            });
        }
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(n, m);
        crate::kernels::matmul_into(
            crate::pool::global_for(n * k * m),
            n,
            k,
            m,
            &self.data,
            &other.data,
            &mut out.data,
        );
        Ok(out)
    }

    /// Computes `selfᵀ · other` (`(n×k)ᵀ · n×m → k×m`) without materializing
    /// the transpose.
    ///
    /// This is the `Q ← Mᵀ P` step of power iteration.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`; use [`Matrix::try_matmul_tn`]
    /// for a fallible variant.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        self.try_matmul_tn(other)
            .expect("matmul_tn dimension mismatch")
    }

    /// Fallible [`Matrix::matmul_tn`].
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimMismatch`] if `self.rows() != other.rows()`.
    #[must_use = "the result carries the computation; dropping it discards the round"]
    pub fn try_matmul_tn(&self, other: &Matrix) -> Result<Matrix, MatrixError> {
        if self.rows != other.rows {
            return Err(MatrixError::DimMismatch {
                op: "matmul_tn",
                lhs: (self.rows, self.cols),
                rhs: (other.rows, other.cols),
            });
        }
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(k, m);
        crate::kernels::matmul_tn_into(
            crate::pool::global_for(n * k * m),
            n,
            k,
            m,
            &self.data,
            &other.data,
            &mut out.data,
        );
        Ok(out)
    }

    /// Computes `self · otherᵀ` (`n×k · (m×k)ᵀ → n×m`) without materializing
    /// the transpose.
    ///
    /// This is the decompression step `M̂ ← P Qᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`; use [`Matrix::try_matmul_nt`]
    /// for a fallible variant.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        self.try_matmul_nt(other)
            .expect("matmul_nt dimension mismatch")
    }

    /// Fallible [`Matrix::matmul_nt`].
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimMismatch`] if `self.cols() != other.cols()`.
    #[must_use = "the result carries the computation; dropping it discards the round"]
    pub fn try_matmul_nt(&self, other: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != other.cols {
            return Err(MatrixError::DimMismatch {
                op: "matmul_nt",
                lhs: (self.rows, self.cols),
                rhs: (other.rows, other.cols),
            });
        }
        let (n, k, m) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(n, m);
        crate::kernels::matmul_nt_into(
            crate::pool::global_for(n * k * m),
            n,
            k,
            m,
            &self.data,
            &other.data,
            &mut out.data,
        );
        Ok(out)
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Fills the matrix with zeros in place.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Returns `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Element-wise maximum absolute difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "max_abs_diff shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out -= rhs;
        out
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f32) -> Matrix {
        let mut out = self.clone();
        out.scale(rhs);
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            let row = self.row(r);
            let cells: Vec<String> = row.iter().take(8).map(|v| format!("{v:>9.4}")).collect();
            writeln!(
                f,
                "  [{}{}]",
                cells.join(", "),
                if self.cols > 8 { ", …" } else { "" }
            )?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        let err = Matrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            MatrixError::LengthMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn try_matmul_rejects_bad_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.try_matmul(&b),
            Err(MatrixError::DimMismatch { .. })
        ));
    }

    #[test]
    fn try_matmul_tn_and_nt_reject_bad_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 3);
        assert_eq!(
            a.try_matmul_tn(&b).unwrap_err(),
            MatrixError::DimMismatch {
                op: "matmul_tn",
                lhs: (2, 3),
                rhs: (4, 3),
            }
        );
        let c = Matrix::zeros(4, 5);
        assert_eq!(
            a.try_matmul_nt(&c).unwrap_err(),
            MatrixError::DimMismatch {
                op: "matmul_nt",
                lhs: (2, 3),
                rhs: (4, 5),
            }
        );
        // The happy paths still agree with the explicit-transpose route.
        let ok_tn = a.try_matmul_tn(&Matrix::zeros(2, 4)).unwrap();
        assert_eq!((ok_tn.rows(), ok_tn.cols()), (3, 4));
        let ok_nt = a.try_matmul_nt(&Matrix::zeros(4, 3)).unwrap();
        assert_eq!((ok_nt.rows(), ok_nt.cols()), (2, 4));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, -1.0], &[0.5, -3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, -1.0]]);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, -1.0], &[0.5, 2.0]]);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(&a * 2.0, Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn frobenius_norm_of_unit_axes() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Matrix::zeros(1, 1).get(1, 0);
    }

    #[test]
    fn display_is_nonempty() {
        let s = format!("{}", Matrix::zeros(2, 2));
        assert!(s.contains("Matrix 2x2"));
    }
}

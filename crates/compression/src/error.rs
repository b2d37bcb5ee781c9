//! Structured errors for the fallible compressor entry points.

use std::fmt;

use acp_tensor::MatrixError;

/// Error returned by the fallible low-rank compressor entry points
/// (`try_compute_p`, `try_compress`, `try_finish`, …).
///
/// The infallible legacy methods panic with exactly the [`fmt::Display`]
/// rendering of these variants, so the two surfaces stay consistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// A matrix multiplication inside the compressor was fed incompatible
    /// dimensions.
    Matrix(MatrixError),
    /// A state-machine method was called out of protocol order.
    Phase {
        /// The protocol violation, e.g. `"compute_p called out of order"`.
        what: &'static str,
    },
    /// A gradient or aggregated factor arrived with the wrong shape.
    Shape {
        /// What was mis-shaped, e.g. `"gradient shape changed"`.
        what: &'static str,
        /// The shape the state machine was constructed for.
        expected: (usize, usize),
        /// The shape actually supplied.
        actual: (usize, usize),
    },
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::Matrix(e) => write!(f, "{e}"),
            CompressError::Phase { what } => write!(f, "{what}"),
            CompressError::Shape {
                what,
                expected,
                actual,
            } => write!(
                f,
                "{what}: expected {}x{}, got {}x{}",
                expected.0, expected.1, actual.0, actual.1
            ),
        }
    }
}

impl std::error::Error for CompressError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompressError::Matrix(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MatrixError> for CompressError {
    fn from(e: MatrixError) -> Self {
        CompressError::Matrix(e)
    }
}

/// `Err` unless a flat row-major buffer holds exactly `expected` elements.
pub(crate) fn check_len(expected: usize, actual: usize) -> Result<(), CompressError> {
    if actual != expected {
        return Err(MatrixError::LengthMismatch { expected, actual }.into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_legacy_panic_messages() {
        let phase = CompressError::Phase {
            what: "compute_p called out of order",
        };
        assert_eq!(phase.to_string(), "compute_p called out of order");
        let shape = CompressError::Shape {
            what: "gradient shape changed",
            expected: (4, 4),
            actual: (4, 5),
        };
        assert_eq!(
            shape.to_string(),
            "gradient shape changed: expected 4x4, got 4x5"
        );
        let m = CompressError::from(MatrixError::DimMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (2, 3),
        });
        assert!(m.to_string().contains("matmul"));
        assert!(std::error::Error::source(&m).is_some());
    }
}

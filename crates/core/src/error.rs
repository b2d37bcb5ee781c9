//! Error type shared by the distributed aggregators.

use acp_collectives::CommError;
use acp_compression::CompressError;
use std::fmt;

/// Error returned by [`crate::DistributedOptimizer::aggregate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A collective operation failed (peer loss, inconsistent calls).
    Collective(CommError),
    /// The set of gradient tensors changed shape between steps — per-tensor
    /// compression state (queries, residuals) is keyed by position and
    /// shape.
    ShapeChanged {
        /// Index of the offending tensor.
        index: usize,
        /// Shape seen at first aggregation.
        expected: Vec<usize>,
        /// Shape seen now.
        actual: Vec<usize>,
    },
    /// The *number* of gradient tensors changed between steps (a model was
    /// rebuilt, or layers were frozen mid-training).
    TensorCountChanged {
        /// Tensor count seen at first aggregation.
        expected: usize,
        /// Tensor count seen now.
        actual: usize,
    },
    /// [`push_ready`](crate::DistributedOptimizer::push_ready) offered a
    /// tensor the open step already holds. A codec compresses a gradient
    /// as it arrives, so a second copy can neither replace the first nor
    /// be ignored; the step is discarded.
    TensorPushedTwice {
        /// Index of the tensor pushed twice.
        index: usize,
    },
    /// A compressor state machine rejected its input (phase, shape or
    /// matrix-dimension violation inside the low-rank encode path).
    Compress(CompressError),
    /// A codec was handed something that does not fit the step it is in:
    /// collective results that do not match what its encode round
    /// dispatched (wrong count, wrong payload kind), a peer-supplied
    /// payload that does not fit the bucket (a sparse index outside it,
    /// index and value counts that differ, sign words or scales that do
    /// not match the world size), or a call for a bucket that has absorbed
    /// nothing. A desynchronized schedule or a corrupt peer must surface
    /// as an error, not a panicking rank.
    CodecProtocol(&'static str),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Collective(e) => write!(f, "collective failed: {e}"),
            CoreError::ShapeChanged {
                index,
                expected,
                actual,
            } => write!(
                f,
                "gradient tensor {index} changed shape: expected {expected:?}, got {actual:?}"
            ),
            CoreError::TensorCountChanged { expected, actual } => write!(
                f,
                "gradient tensor count changed: expected {expected}, got {actual}"
            ),
            CoreError::TensorPushedTwice { index } => {
                write!(f, "gradient tensor {index} was pushed twice in one step")
            }
            CoreError::Compress(e) => write!(f, "compression failed: {e}"),
            CoreError::CodecProtocol(what) => write!(f, "codec protocol violation: {what}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Collective(e) => Some(e),
            CoreError::Compress(e) => Some(e),
            CoreError::ShapeChanged { .. }
            | CoreError::TensorCountChanged { .. }
            | CoreError::TensorPushedTwice { .. }
            | CoreError::CodecProtocol(_) => None,
        }
    }
}

#[doc(hidden)]
impl From<CommError> for CoreError {
    fn from(e: CommError) -> Self {
        CoreError::Collective(e)
    }
}

#[doc(hidden)]
impl From<CompressError> for CoreError {
    fn from(e: CompressError) -> Self {
        CoreError::Compress(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::from(CommError::PeerDisconnected);
        assert!(e.to_string().contains("collective failed"));
        let s = CoreError::ShapeChanged {
            index: 2,
            expected: vec![3],
            actual: vec![4],
        }
        .to_string();
        assert!(s.contains("tensor 2"));
        let s = CoreError::TensorCountChanged {
            expected: 4,
            actual: 3,
        }
        .to_string();
        assert!(s.contains("expected 4"));
        assert!(s.contains("got 3"));
        let s = CoreError::TensorPushedTwice { index: 7 }.to_string();
        assert!(s.contains("tensor 7"));
    }

    #[test]
    fn source_chain() {
        use std::error::Error;
        let e = CoreError::from(CommError::PeerDisconnected);
        assert!(e.source().is_some());
    }
}

//! The [`Compressor`] trait implemented by the one-shot element-wise
//! methods (Sign-SGD, Top-k).

use crate::payload::Payload;

/// A one-shot gradient compressor: dense gradient in, [`Payload`] out.
///
/// Implementations are deterministic: the same gradient always yields the
/// same payload, on every worker.
///
/// The low-rank methods (Power-SGD, ACP-SGD) are *not* `Compressor`s — their
/// compression interleaves with communication and lives in
/// [`crate::powersgd`] and [`crate::acp`] as explicit state machines.
pub trait Compressor: Send {
    /// Short method name used in experiment output (e.g. `"signsgd"`).
    fn name(&self) -> &'static str;

    /// Compresses a dense gradient.
    fn compress(&mut self, grad: &[f32]) -> Payload;

    /// Reconstructs a dense gradient from `payload` into `out`
    /// (overwriting it).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the payload's dense length or the
    /// payload variant is not one this compressor produces.
    fn decompress(&self, payload: &Payload, out: &mut [f32]);

    /// Turns `buf`, the corrected gradient that compressing returned
    /// `payload` for, into the error-feedback residual
    /// `buf − decompress(payload)`, in place: the one residual step of
    /// [`crate::ErrorFeedback`]. By default through a decompressed
    /// temporary; overrides must produce the default's bits.
    ///
    /// # Panics
    ///
    /// Panics on the same mismatches as [`Compressor::decompress`].
    fn residual_in_place(&self, payload: &Payload, buf: &mut [f32]) {
        let mut approx = vec![0.0; buf.len()];
        self.decompress(payload, &mut approx);
        for (e, a) in buf.iter_mut().zip(&approx) {
            *e -= a;
        }
    }

    /// Convenience: compress then immediately decompress, returning the
    /// round-tripped gradient (what this worker's contribution looks like
    /// after lossy compression).
    fn round_trip(&mut self, grad: &[f32]) -> Vec<f32> {
        let payload = self.compress(grad);
        let mut out = vec![0.0; grad.len()];
        self.decompress(&payload, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A do-nothing compressor to exercise the default method.
    struct Identity;

    impl Compressor for Identity {
        fn name(&self) -> &'static str {
            "identity"
        }

        fn compress(&mut self, grad: &[f32]) -> Payload {
            Payload::Dense(grad.to_vec())
        }

        fn decompress(&self, payload: &Payload, out: &mut [f32]) {
            match payload {
                Payload::Dense(v) => out.copy_from_slice(v),
                _ => panic!("identity compressor expects dense payloads"),
            }
        }
    }

    #[test]
    fn round_trip_default_method() {
        let mut c = Identity;
        let grad = vec![1.0, -2.0, 3.0];
        assert_eq!(c.round_trip(&grad), grad);
        assert_eq!(c.name(), "identity");
    }
}

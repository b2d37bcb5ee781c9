//! Kernel microbenchmarks: vectorized kernels against their retained
//! scalar references (`acp_compression::kernels::reference` and
//! `acp_tensor::kernels::reference`).
//!
//! `figures kernels` times sign packing, sign expansion, majority voting
//! and abs-key top-k selection at three bucket sizes, plus the training
//! forward product `A·Bᵀ` (`dense_nt`) at the rings MLP's widest layer and
//! ACP-SGD's two compression sweeps (`lowrank_p`, `lowrank_q`) at the
//! benchmark's `512×4608` rank-4 shape, and reports the speedup of each
//! kernel over its scalar baseline. The four headline gates — what the CI
//! `kernels` job asserts via `--min-speedup` — are the encode and decode
//! speedups on the *largest* bucket (sign packing and the bit-sliced
//! majority vote, the two kernels on the per-step critical path of
//! sign-based aggregation), the forward speedup of `dense_nt`,
//! single-threaded, which falls to about 1× if the register-blocked product
//! stops vectorizing, and `lowrank_speedup`, the slower of the two low-rank
//! sweeps against the scalar reference loops, single-threaded, which
//! collapses if the lane-per-output kernels lose their vectors.
//!
//! Timing is best-of-`reps` over batched iterations (min, not mean: the
//! minimum is the least noisy estimator of the achievable time on a shared
//! machine).

use std::hint::black_box;
use std::time::Instant;

use acp_compression::kernels;
use acp_compression::kernels::reference;
use acp_tensor::{Matrix, SeedableStdNormal, WorkerPool};

/// Ranks voting in the majority-vote benchmark.
pub const VOTE_WORLD: usize = 8;

/// `(n, k, m)` of the `dense_nt` row: the rings MLP's 256-wide hidden
/// layer forward, a 32-sample batch `32×256` times `(256×256)ᵀ`.
pub const DENSE_NT_SHAPE: (usize, usize, usize) = (32, 256, 256);

/// `(n, m, r)` of the `lowrank_*` rows: the benchmark's probe gradient
/// (`512×4608`, a ResNet-18 `3×3×512` convolution viewed as a matrix) at
/// ACP-SGD's default rank. Quick runs use a sixteenth of it.
pub const LOWRANK_SHAPE: (usize, usize, usize) = (512, 4608, 4);

/// One kernel timed at one bucket size.
#[derive(Debug, Clone)]
pub struct KernelPoint {
    /// Kernel label (`sign_pack`, `sign_unpack`, `majority_vote`, …).
    pub kernel: &'static str,
    /// Bucket size in elements; multiply-adds for `dense_nt`; gradient
    /// elements for `lowrank_*`.
    pub elems: usize,
    /// Scalar reference time per call, nanoseconds (best of reps).
    pub scalar_ns: f64,
    /// Optimized kernel time per call, nanoseconds (best of reps).
    pub optimized_ns: f64,
    /// `scalar_ns / optimized_ns`.
    pub speedup: f64,
    /// Optimized throughput, billion elements per second.
    pub gelems_per_s: f64,
}

/// The full kernel sweep plus the four headline gates.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Bucket sizes timed, ascending.
    pub sizes: Vec<usize>,
    /// One row per kernel × size.
    pub points: Vec<KernelPoint>,
    /// Largest bucket size in the sweep.
    pub largest_elems: usize,
    /// Sign-pack speedup on the largest bucket (the encode gate).
    pub encode_speedup: f64,
    /// Majority-vote speedup on the largest bucket (the decode gate).
    pub decode_speedup: f64,
    /// `dense_nt` speedup (the forward gate).
    pub forward_speedup: f64,
    /// The smaller of the `lowrank_p` and `lowrank_q` speedups (the
    /// low-rank gate).
    pub lowrank_speedup: f64,
}

/// Best-of-`reps` time per call of `f`, in nanoseconds, each rep averaging
/// `iters` back-to-back calls.
fn best_ns<F: FnMut()>(mut f: F, iters: usize, reps: usize) -> f64 {
    f(); // warm caches and the worker pool before the first timed rep
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
        best = best.min(ns);
    }
    best
}

fn point(kernel: &'static str, elems: usize, scalar_ns: f64, optimized_ns: f64) -> KernelPoint {
    KernelPoint {
        kernel,
        elems,
        scalar_ns,
        optimized_ns,
        speedup: scalar_ns / optimized_ns,
        gelems_per_s: elems as f64 / optimized_ns,
    }
}

/// Times every kernel pair at one bucket size.
fn sweep_size(elems: usize, reps: usize, points: &mut Vec<KernelPoint>) {
    // Enough batched iterations that one rep covers ≥ ~16M element-visits.
    let iters = ((1usize << 24) / elems).max(1);
    let grad = Matrix::random_std_normal(1, elems, 7).into_vec();

    // Sign packing (encode).
    let scalar = best_ns(
        || drop(black_box(reference::pack_signs(&grad))),
        iters,
        reps,
    );
    let fast = best_ns(|| drop(black_box(kernels::pack_signs(&grad))), iters, reps);
    points.push(point("sign_pack", elems, scalar, fast));

    // Sign expansion (decode).
    let words = kernels::pack_signs(&grad);
    let mut out = vec![0.0f32; elems];
    let scalar = best_ns(
        || reference::unpack_signs_into(black_box(&words), 0.75, black_box(&mut out)),
        iters,
        reps,
    );
    let fast = best_ns(
        || kernels::unpack_signs_into(black_box(&words), 0.75, black_box(&mut out)),
        iters,
        reps,
    );
    points.push(point("sign_unpack", elems, scalar, fast));

    // Majority vote across VOTE_WORLD gathered sign payloads (decode).
    let wpr = elems.div_ceil(32);
    let mut gathered = Vec::with_capacity(VOTE_WORLD * wpr);
    let mut scales = Vec::with_capacity(VOTE_WORLD);
    for w in 0..VOTE_WORLD {
        let g = Matrix::random_std_normal(1, elems, 11 + w as u64).into_vec();
        gathered.extend(kernels::pack_signs(&g));
        scales.push(1.0 + w as f32 * 0.1);
    }
    let scalar = best_ns(
        || {
            reference::majority_vote_into(
                black_box(&gathered),
                &scales,
                elems,
                VOTE_WORLD,
                black_box(&mut out),
            )
        },
        iters,
        reps,
    );
    let fast = best_ns(
        || {
            kernels::majority_vote_into(
                black_box(&gathered),
                &scales,
                elems,
                VOTE_WORLD,
                black_box(&mut out),
            )
        },
        iters,
        reps,
    );
    points.push(point("majority_vote", elems, scalar, fast));

    // Abs-key top-k selection at 0.1% density (encode): both sides read
    // the whole bucket even though only k indices survive, so throughput is
    // still per input element. The scalar side partitions the whole bucket;
    // the kernel sweeps it once against a sampled lower bound and
    // partitions only the few thousand candidates, so it wins by about the
    // ratio of one sweep to an introselect (~5× on normals).
    let k = (elems / 1000).max(1);
    let scalar = best_ns(
        || drop(black_box(reference::select_topk(&grad, k))),
        (iters / 4).max(1),
        reps,
    );
    let fast = best_ns(
        || drop(black_box(kernels::select_topk(&grad, k))),
        (iters / 4).max(1),
        reps,
    );
    points.push(point("topk_select", elems, scalar, fast));
}

/// Times the scalar `A·Bᵀ` reference against `matmul_nt_into` at
/// [`DENSE_NT_SHAPE`], both on the calling thread: the gate measures
/// vectorization, not the pool.
fn dense_nt(reps: usize) -> KernelPoint {
    use acp_tensor::kernels::{matmul_nt_into, reference::matmul_nt};
    let (n, k, m) = DENSE_NT_SHAPE;
    let a = Matrix::random_std_normal(n, k, 5).into_vec();
    let b = Matrix::random_std_normal(m, k, 6).into_vec();
    let inline = WorkerPool::new(0);
    let mut out = vec![0.0f32; n * m];
    let iters = ((1usize << 24) / (n * k * m)).max(4);
    let scalar = best_ns(
        || drop(black_box(matmul_nt(n, k, m, black_box(&a), &b))),
        iters,
        reps,
    );
    let fast = best_ns(
        || matmul_nt_into(&inline, n, k, m, black_box(&a), &b, black_box(&mut out)),
        iters,
        reps,
    );
    point("dense_nt", n * k * m, scalar, fast)
}

/// Times ACP-SGD's two compression sweeps with error feedback on the
/// calling thread: the P step `E ← G + E`, `P ← E·Q`, `E ← E − P·Qᵀ`
/// (`lowrank_p`) and the Q step `E ← G + E`, `Q ← Eᵀ·P`, `E ← E − P·Qᵀ`
/// (`lowrank_q`), each against the same composition of the scalar
/// reference loops.
fn lowrank(quick: bool, reps: usize) -> [KernelPoint; 2] {
    use acp_tensor::kernels::{
        project_cols_corrected, project_rows_corrected, reference, subtract_reconstruction,
    };
    let (n, m, r) = LOWRANK_SHAPE;
    let (n, m) = if quick { (n / 4, m / 4) } else { (n, m) };
    let grad = Matrix::random_std_normal(n, m, 8).into_vec();
    let q = Matrix::random_std_normal(m, r, 9).into_vec();
    let p = Matrix::random_std_normal(n, r, 10).into_vec();
    let mut error = vec![0.0f32; n * m];
    let mut p_out = vec![0.0f32; n * r];
    let mut q_out = vec![0.0f32; m * r];
    let inline = WorkerPool::new(0);
    let iters = 2;
    // `E ← E − approx`, after `E ← G + E`, as the references compose it.
    let subtract = |error: &mut [f32], approx: &[f32]| {
        for (e, a) in error.iter_mut().zip(approx) {
            *e -= a;
        }
    };
    let add_grad = |error: &mut [f32]| {
        for (e, g) in error.iter_mut().zip(&grad) {
            *e += g;
        }
    };

    let scalar = best_ns(
        || {
            add_grad(&mut error);
            let p = reference::matmul(n, m, r, &error, &q);
            subtract(&mut error, &reference::matmul_nt(n, r, m, &p, &q));
        },
        iters,
        reps,
    );
    let fast = best_ns(
        || {
            project_rows_corrected(
                &inline,
                n,
                m,
                r,
                &grad,
                black_box(&mut error),
                &q,
                &mut p_out,
                true,
            )
        },
        iters,
        reps,
    );
    let p_step = point("lowrank_p", n * m, scalar, fast);

    let scalar = best_ns(
        || {
            add_grad(&mut error);
            let q = reference::matmul_tn(n, m, r, &error, &p);
            subtract(&mut error, &reference::matmul_nt(n, r, m, &p, &q));
        },
        iters,
        reps,
    );
    let fast = best_ns(
        || {
            project_cols_corrected(
                &inline,
                n,
                m,
                r,
                &grad,
                black_box(&mut error),
                &p,
                &mut q_out,
            );
            subtract_reconstruction(&inline, n, m, r, &p, &q_out, &mut error);
        },
        iters,
        reps,
    );
    [p_step, point("lowrank_q", n * m, scalar, fast)]
}

/// Runs the sweep. `quick` keeps CI smoke runs to a couple of seconds by
/// dropping the largest bucket and the repetition count.
pub fn run(quick: bool) -> KernelReport {
    let (sizes, reps): (Vec<usize>, usize) = if quick {
        (vec![1 << 14, 1 << 18], 3)
    } else {
        (vec![1 << 14, 1 << 18, 1 << 22], 5)
    };
    let mut points = Vec::new();
    for &elems in &sizes {
        sweep_size(elems, reps, &mut points);
    }
    let dense = dense_nt(reps);
    let forward_speedup = dense.speedup;
    points.push(dense);
    let low_rank = lowrank(quick, reps);
    let lowrank_speedup = low_rank[0].speedup.min(low_rank[1].speedup);
    points.extend(low_rank);
    let largest_elems = *sizes.last().expect("sizes is non-empty");
    let gate = |kernel: &str| {
        points
            .iter()
            .find(|p| p.kernel == kernel && p.elems == largest_elems)
            .map_or(0.0, |p| p.speedup)
    };
    KernelReport {
        encode_speedup: gate("sign_pack"),
        decode_speedup: gate("majority_vote"),
        forward_speedup,
        lowrank_speedup,
        sizes,
        points,
        largest_elems,
    }
}

/// Human-readable rendering for the terminal.
pub fn render(r: &KernelReport) -> String {
    let mut out = format!(
        "Kernels vs scalar reference (vote world {VOTE_WORLD})\n\
         {:>15} {:>10} {:>12} {:>12} {:>9} {:>10}\n",
        "kernel", "elems", "scalar(ns)", "kernel(ns)", "speedup", "Gelem/s",
    );
    for p in &r.points {
        out.push_str(&format!(
            "{:>15} {:>10} {:>12.0} {:>12.0} {:>8.2}x {:>10.3}\n",
            p.kernel, p.elems, p.scalar_ns, p.optimized_ns, p.speedup, p.gelems_per_s,
        ));
    }
    out.push_str(&format!(
        "largest bucket ({} elems): encode {:.2}x, decode {:.2}x; dense_nt: forward {:.2}x; \
         lowrank_speedup {:.2}x\n",
        r.largest_elems, r.encode_speedup, r.decode_speedup, r.forward_speedup, r.lowrank_speedup,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_reports_every_kernel_at_every_size() {
        let r = run(true);
        assert_eq!(r.sizes.len(), 2);
        assert_eq!(r.points.len(), 4 * r.sizes.len() + 3);
        assert_eq!(r.largest_elems, 1 << 18);
        for p in &r.points {
            assert!(p.scalar_ns > 0.0 && p.optimized_ns > 0.0, "{p:?}");
        }
        assert!(r.encode_speedup > 0.0 && r.decode_speedup > 0.0 && r.forward_speedup > 0.0);
        assert!(r.lowrank_speedup > 0.0);
    }

    #[test]
    fn report_renders_and_serializes() {
        let r = run(true);
        let text = render(&r);
        assert!(text.contains("sign_pack"));
        assert!(text.contains("majority_vote"));
        assert!(text.contains("dense_nt"));
        assert!(text.contains("lowrank_p") && text.contains("lowrank_q"));
        assert!(text.contains("lowrank_speedup"));
        assert!(text.contains(&format!("largest bucket ({} elems)", r.largest_elems)));
        assert_eq!(text.lines().count(), 2 + r.points.len() + 1);
    }
}

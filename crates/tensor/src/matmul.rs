//! Batched matrix multiplication with broadcasting over leading axes.
//!
//! The inner kernel ([`crate::kernel::matmul_packed_into`], shared with the
//! compiled executor) is a cache-blocked, register-tiled loop over strided
//! operands. Work is row-partitioned over the `batches * m` output rows
//! through `lip-par` — chunk boundaries depend only on the problem sizes,
//! every output element is produced by the unchanged serial per-element
//! accumulation, and so results are bit-identical at any thread count.
//! Partitioning over rows (not batches) also means a single large
//! `[m, k] × [k, n]` product parallelizes just as well as a batched one.
//!
//! The lhs is read directly through its strides — transposed, sliced, or
//! sliding-window lhs views are never packed. The rhs is packed via
//! [`Tensor::contiguous`] only when its innermost rows are not unit-stride
//! (e.g. a transposed K in attention); a permuted-but-row-dense rhs is read
//! in place. When a pack does happen it gathers in logical order, so the
//! packed bytes — and therefore products — match the old
//! materialize-everything pipeline exactly.

use crate::kernel;
use crate::shape::numel;
use crate::Tensor;

impl Tensor {
    /// Matrix product with broadcasting over leading (batch) axes.
    ///
    /// * `[m, k] × [k, n] → [m, n]`
    /// * `[B.., m, k] × [k, n] → [B.., m, n]` (weights broadcast per batch)
    /// * `[B.., m, k] × [B.., k, n] → [B.., m, n]`
    /// * a 1-d lhs or rhs is treated as a row / column vector and the
    ///   inserted axis is squeezed from the result.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        // Validate through the shared shape-only rule first, so misuse fails
        // before any buffer is touched and with the same message the static
        // analyzer reports.
        let out_shape = crate::shape::matmul_shapes(&self.shape, &rhs.shape)
            .unwrap_or_else(|e| match e {
                crate::TensorError::MatMulMismatch { .. } => panic!("{e}"),
                other => panic!("matmul batch axes: {other}"),
            });
        // Promote vectors to matrices, remembering what to squeeze. The
        // promotions are metadata-only reshapes (a rank-1 tensor always
        // admits a [1, n] / [n, 1] view); packing below handles density.
        let a = if self.rank() == 1 {
            self.reshape(&[1, self.shape[0]])
        } else {
            self.clone()
        };
        let b = if rhs.rank() == 1 {
            rhs.reshape(&[rhs.shape[0], 1])
        } else {
            rhs.clone()
        };
        assert!(a.rank() >= 2 && b.rank() >= 2);
        // The kernel reads the lhs through its strides; only a rhs whose
        // rows are not unit-stride must be packed dense first.
        let b = if kernel::matmul_rows_dense(b.shape(), b.strides()) {
            b
        } else {
            b.contiguous()
        };

        // The promoted shapes and the validated output shape describe the
        // same element count (squeezed axes have extent 1), so the kernel
        // can fill the output buffer directly.
        let mut out = vec![0.0f32; numel(&out_shape)];
        kernel::matmul_packed_into(a.view_ref(), b.view_ref(), &mut out);
        Tensor::from_vec(out, &out_shape)
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn matmul_2d_known() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        let b = Tensor::from_vec(vec![5., 6., 7., 8.], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.to_vec(), vec![19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::arange(6).reshape(&[2, 3]); // [[0,1,2],[3,4,5]]
        let b = Tensor::arange(12).reshape(&[3, 4]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 4]);
        assert_eq!(c.to_vec(), vec![20., 23., 26., 29., 56., 68., 80., 92.]);
    }

    #[test]
    fn matmul_batched_shared_weights() {
        let x = Tensor::arange(12).reshape(&[2, 3, 2]); // batch 2 of [3,2]
        let w = Tensor::from_vec(vec![1., 0., 0., 1.], &[2, 2]); // identity
        let y = x.matmul(&w);
        assert_eq!(y.shape(), &[2, 3, 2]);
        assert_eq!(y, x);
    }

    #[test]
    fn matmul_batched_both_sides() {
        let a = Tensor::arange(8).reshape(&[2, 2, 2]);
        let b = Tensor::arange(8).reshape(&[2, 2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2, 2]);
        // batch 0: [[0,1],[2,3]]² = [[2,3],[6,11]]
        assert_eq!(&c.to_vec()[..4], &[2., 3., 6., 11.]);
        // batch 1: [[4,5],[6,7]]² = [[46,55],[66,79]]
        assert_eq!(&c.to_vec()[4..], &[46., 55., 66., 79.]);
    }

    #[test]
    fn matmul_4d_batch_broadcast() {
        // [2,1,2,3] x [3,2] -> [2,1,2,2]
        let a = Tensor::arange(12).reshape(&[2, 1, 2, 3]);
        let w = Tensor::ones(&[3, 2]);
        let y = a.matmul(&w);
        assert_eq!(y.shape(), &[2, 1, 2, 2]);
        assert_eq!(y.data()[0], 3.0); // 0+1+2
        assert_eq!(y.data()[7], 30.0); // 9+10+11
    }

    #[test]
    fn vector_cases() {
        let v = Tensor::from_vec(vec![1., 2.], &[2]);
        let m = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        assert_eq!(v.matmul(&m).shape(), &[2]);
        assert_eq!(v.matmul(&m).to_vec(), vec![7., 10.]);
        assert_eq!(m.matmul(&v).to_vec(), vec![5., 11.]);
        assert_eq!(v.matmul(&v).item(), 5.0);
    }

    #[test]
    #[should_panic(expected = "inner-dim mismatch")]
    fn inner_dim_mismatch_panics() {
        let _ = Tensor::ones(&[2, 3]).matmul(&Tensor::ones(&[2, 3]));
    }

    #[test]
    fn single_batch_large_m_splits_over_rows() {
        // Regression: the old kernel only fanned out when batches > 1, so a
        // single big [M, K] × [K, N] product ran serially. The row partition
        // must cover it — and stay bit-identical to the one-thread result.
        let m = 512;
        let (k, n) = (48, 40);
        let a = Tensor::from_vec(
            (0..m * k).map(|i| ((i * 31) % 13) as f32 * 0.5 - 3.0).collect(),
            &[m, k],
        );
        let b = Tensor::from_vec(
            (0..k * n).map(|i| ((i * 17) % 11) as f32 * 0.25 - 1.0).collect(),
            &[k, n],
        );
        let serial = lip_par::with_threads(1, || a.matmul(&b));
        assert_eq!(serial.shape(), &[m, n]);
        for threads in [2usize, 3, 8] {
            let par = lip_par::with_threads(threads, || a.matmul(&b));
            assert_eq!(serial, par, "threads={threads}");
        }
        // spot-check one element against a plain dot product
        let (i, j) = (400, 7);
        let want: f32 = (0..k).map(|p| a.data()[i * k + p] * b.data()[p * n + j]).sum();
        assert_eq!(serial.data()[i * n + j], want);
    }

    #[test]
    fn large_parallel_matches_small_path() {
        // force the threaded path and compare against per-batch 2-d products
        let a = Tensor::from_vec((0..64 * 32 * 64).map(|i| (i % 7) as f32).collect(), &[64, 32, 64]);
        let b = Tensor::from_vec((0..64 * 64 * 32).map(|i| (i % 5) as f32).collect(), &[64, 64, 32]);
        let big = a.matmul(&b);
        for batch in [0usize, 17, 63] {
            let a2 = a.slice_axis(0, batch, batch + 1).reshape(&[32, 64]);
            let b2 = b.slice_axis(0, batch, batch + 1).reshape(&[64, 32]);
            let expect = a2.matmul(&b2);
            let got = big.slice_axis(0, batch, batch + 1).reshape(&[32, 32]);
            assert_eq!(expect, got);
        }
    }
}

//! Reductions (full and per-axis), softmax / log-softmax over the last axis,
//! and argmax. Axis reductions keep the reduced axis as size 1 so results
//! broadcast back against the input without reshaping.
//!
//! Parallelism contract: full reductions **always** fold
//! [`lip_par::REDUCE_CHUNK`]-sized partials in `lip-par`'s fixed tree order
//! — even on one thread — so the f32 rounding is a function of the input
//! size alone and the result is bit-identical at any thread count. Axis
//! reductions and the row-wise softmax kernels assign disjoint output
//! regions per chunk and keep the serial per-element accumulation order, so
//! they are bit-identical to the single-threaded loop by construction.

use lip_par::{reduce_chunks, Partition, REDUCE_CHUNK};

use crate::kernel::{self, AxisReduce};
use crate::shape::split_at_axis;
use crate::Tensor;

/// Deterministic chunked-tree sum of a flat buffer (0.0 for empty input).
fn tree_sum(data: &[f32]) -> f32 {
    reduce_chunks(
        Partition::new(data.len(), REDUCE_CHUNK),
        |_, r| data[r].iter().sum::<f32>(),
        |a, b| a + b,
    )
    .unwrap_or(0.0)
}

/// Deterministic chunked fold under an exactly associative+commutative
/// combiner (min/max), seeded with `empty` for zero-length input.
fn tree_fold(data: &[f32], empty: f32, combine: impl Fn(f32, f32) -> f32 + Sync) -> f32 {
    reduce_chunks(
        Partition::new(data.len(), REDUCE_CHUNK),
        |_, r| data[r].iter().copied().fold(empty, &combine),
        &combine,
    )
    .unwrap_or(empty)
}

impl Tensor {
    /// Sum of all elements (rank-0 result).
    pub fn sum(&self) -> Tensor {
        Tensor::scalar(tree_sum(self.contiguous().data()))
    }

    /// Mean of all elements (rank-0 result).
    pub fn mean(&self) -> Tensor {
        Tensor::scalar(tree_sum(self.contiguous().data()) / self.numel() as f32)
    }

    /// Largest element.
    pub fn max_value(&self) -> f32 {
        tree_fold(self.contiguous().data(), f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element.
    pub fn min_value(&self) -> f32 {
        tree_fold(self.contiguous().data(), f32::INFINITY, f32::min)
    }

    /// Sum along `axis`, keeping it as size 1.
    pub fn sum_axis(&self, axis: usize) -> Tensor {
        self.reduce_axis(axis, |data, shape, out| {
            kernel::axis_reduce_into(data, shape, axis, AxisReduce::Sum, out)
        })
    }

    /// Mean along `axis`, keeping it as size 1.
    pub fn mean_axis(&self, axis: usize) -> Tensor {
        self.reduce_axis(axis, |data, shape, out| {
            kernel::axis_reduce_into(data, shape, axis, AxisReduce::Mean, out)
        })
    }

    /// Population variance along `axis`, keeping it as size 1.
    pub fn var_axis(&self, axis: usize) -> Tensor {
        let mu = self.mean_axis(axis);
        self.sub(&mu).square().mean_axis(axis)
    }

    /// Max along `axis`, keeping it as size 1.
    pub fn max_axis(&self, axis: usize) -> Tensor {
        self.reduce_axis(axis, |data, shape, out| {
            kernel::axis_accumulate_into(data, shape, axis, f32::NEG_INFINITY, f32::max, out)
        })
    }

    /// Shared axis-reduction wrapper: `reduce(data, shape, out)` fills the
    /// `(outer, inner)` output from this tensor's dense row-major data.
    fn reduce_axis(
        &self,
        axis: usize,
        reduce: impl FnOnce(&[f32], &[usize], &mut [f32]),
    ) -> Tensor {
        let (outer, _, inner) = split_at_axis(&self.shape, axis);
        // the row-major index arithmetic in the kernel wants dense storage
        let dense = self.contiguous();
        let mut out = vec![0.0f32; outer * inner];
        reduce(dense.data(), &self.shape, &mut out);
        let mut shape = self.shape.clone();
        shape[axis] = 1;
        Tensor::from_vec(out, &shape)
    }

    /// Numerically stable softmax over the last axis. A zero-numel tensor
    /// (including a zero-width last axis) maps to an equally empty result.
    pub fn softmax_lastdim(&self) -> Tensor {
        let width = *self.shape.last().expect("softmax on a scalar");
        let dense = self.contiguous();
        let mut out = vec![0.0f32; self.numel()];
        kernel::softmax_lastdim_into(dense.data(), width, &mut out);
        Tensor::from_vec(out, &self.shape)
    }

    /// Numerically stable log-softmax over the last axis (same empty-tensor
    /// contract as [`Tensor::softmax_lastdim`]).
    pub fn log_softmax_lastdim(&self) -> Tensor {
        let width = *self.shape.last().expect("log_softmax on a scalar");
        let dense = self.contiguous();
        let mut out = vec![0.0f32; self.numel()];
        kernel::log_softmax_lastdim_into(dense.data(), width, &mut out);
        Tensor::from_vec(out, &self.shape)
    }

    /// Index of the max element in each row of the last axis (empty tensors
    /// have no rows, hence an empty result).
    pub fn argmax_lastdim(&self) -> Vec<usize> {
        let width = *self.shape.last().expect("argmax on a scalar");
        if self.numel() == 0 {
            return Vec::new();
        }
        self.contiguous()
            .data()
            .chunks_exact(width)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN in argmax"))
                    .map(|(i, _)| i)
                    .expect("empty row")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn full_reductions() {
        let t = Tensor::arange(4);
        assert_eq!(t.sum().item(), 6.0);
        assert_eq!(t.mean().item(), 1.5);
        assert_eq!(t.max_value(), 3.0);
        assert_eq!(t.min_value(), 0.0);
    }

    #[test]
    fn axis_sum_keeps_dim() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        let s0 = t.sum_axis(0);
        assert_eq!(s0.shape(), &[1, 3]);
        assert_eq!(s0.to_vec(), vec![3., 5., 7.]);
        let s1 = t.sum_axis(1);
        assert_eq!(s1.shape(), &[2, 1]);
        assert_eq!(s1.to_vec(), vec![3., 12.]);
    }

    #[test]
    fn mean_var_axis() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        assert_eq!(t.mean_axis(1).to_vec(), vec![1.5, 3.5]);
        assert_close(&t.var_axis(1).to_vec(), &[0.25, 0.25], 1e-6);
    }

    #[test]
    fn max_axis_works_with_negatives() {
        let t = Tensor::from_vec(vec![-5., -2., -7., -1.], &[2, 2]);
        assert_eq!(t.max_axis(1).to_vec(), vec![-2., -1.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1., 2., 3., 1000., 1001., 1002.], &[2, 3]);
        let s = t.softmax_lastdim();
        for row in s.data().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // translation invariance: both rows should be identical
        assert_close(&s.data()[..3], &s.data()[3..], 1e-6);
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let t = Tensor::from_vec(vec![0.1, -0.4, 2.0], &[1, 3]);
        let a = t.softmax_lastdim().ln();
        let b = t.log_softmax_lastdim();
        assert_close(a.data(), b.data(), 1e-5);
    }

    #[test]
    fn argmax_rows() {
        let t = Tensor::from_vec(vec![1., 9., 3., 7., 2., 0.], &[2, 3]);
        assert_eq!(t.argmax_lastdim(), vec![1, 0]);
    }
}

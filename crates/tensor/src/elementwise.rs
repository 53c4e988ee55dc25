//! Elementwise arithmetic with NumPy broadcasting, plus unary maps and
//! scalar ops. Fast paths cover contiguous equal shapes and trailing-suffix
//! broadcasts (the bias-add pattern); the general path walks a strided
//! odometer over the operands' **actual** strides, so permuted / sliced /
//! broadcast views feed these kernels directly without packing.
//!
//! Every kernel here fans out over the `lip-par` pool in fixed-size chunks
//! ([`lip_par::ELEMWISE_CHUNK`]) of the *logical* output index space; each
//! output element is computed identically regardless of chunk, thread, or
//! operand layout, so results are bit-identical at any thread count and
//! identical to what the old materialize-then-compute pipeline produced.

use lip_par::{par_chunks_mut, ELEMWISE_CHUNK};

use crate::kernel::{self, Binary, Unary, ViewRef, SQRT_2_OVER_PI};
use crate::shape::{broadcast_strides, contiguous_strides, numel, Odometer2};
use crate::Tensor;

impl Tensor {
    /// Apply `f` to every element (in logical row-major order).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut out = vec![0.0f32; self.numel()];
        kernel::map_into(self.view_ref(), &mut out, f);
        Tensor::from_vec(out, &self.shape)
    }

    /// Apply the table function `f` to every element.
    fn unary(&self, f: Unary) -> Tensor {
        let mut out = vec![0.0f32; self.numel()];
        kernel::unary_into(self.view_ref(), &mut out, f);
        Tensor::from_vec(out, &self.shape)
    }

    /// Combine with `rhs` elementwise under broadcasting, into the shape
    /// [`kernel::zip_shape`] picks.
    pub fn zip(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        self.zip_with(rhs, |a, b, shape, out| kernel::zip_into(a, b, shape, out, f))
    }

    /// Combine with `rhs` by the table function `f`.
    fn binary(&self, rhs: &Tensor, f: Binary) -> Tensor {
        self.zip_with(rhs, |a, b, shape, out| kernel::binary_into(a, b, shape, out, f))
    }

    fn zip_with(
        &self,
        rhs: &Tensor,
        write: impl FnOnce(ViewRef<'_>, ViewRef<'_>, &[usize], &mut [f32]),
    ) -> Tensor {
        let (a, b) = (self.view_ref(), rhs.view_ref());
        let out_shape = kernel::zip_shape(a, b);
        let mut out = vec![0.0f32; numel(&out_shape)];
        write(a, b, &out_shape, &mut out);
        Tensor::from_vec(out, &out_shape)
    }

    /// Elementwise addition (broadcasting).
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.binary(rhs, Binary::Add)
    }

    /// Elementwise subtraction (broadcasting).
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.binary(rhs, Binary::Sub)
    }

    /// Elementwise multiplication (broadcasting).
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        self.binary(rhs, Binary::Mul)
    }

    /// Elementwise division (broadcasting).
    pub fn div(&self, rhs: &Tensor) -> Tensor {
        self.binary(rhs, Binary::Div)
    }

    /// Add a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.unary(Unary::AddScalar(s))
    }

    /// Multiply every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.unary(Unary::MulScalar(s))
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.unary(Unary::Neg)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.unary(Unary::Square)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.unary(Unary::Sqrt)
    }

    /// Elementwise natural exponent.
    pub fn exp(&self) -> Tensor {
        self.unary(Unary::Exp)
    }

    /// Elementwise natural log.
    pub fn ln(&self) -> Tensor {
        self.unary(Unary::Ln)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.unary(Unary::Abs)
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        self.unary(Unary::Relu)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.unary(Unary::Sigmoid)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.unary(Unary::Tanh)
    }

    /// Gaussian error linear unit (tanh approximation, as used by GPT-style
    /// stacks; accurate to ~1e-3 of the exact erf form).
    pub fn gelu(&self) -> Tensor {
        self.unary(Unary::Gelu)
    }

    /// In-place fused `self += rhs * scale` for equally shaped tensors —
    /// the gradient-accumulation hot path (autograd's backward sweep funnels
    /// every per-node and per-parameter accumulation through here).
    ///
    /// `rhs` may be any view (a permuted gradient, a slice adjoint, …); a
    /// strided `self` is packed first, and copy-on-write storage guarantees
    /// the accumulation never writes through an aliasing view.
    pub fn add_assign_scaled(&mut self, rhs: &Tensor, scale: f32) {
        assert_eq!(self.shape, rhs.shape, "add_assign_scaled shape mismatch");
        if rhs.is_contiguous() {
            let src = rhs.data();
            let dst = self.data_mut();
            par_chunks_mut(dst, ELEMWISE_CHUNK, |_, start, d| {
                let len = d.len();
                for (x, &s) in d.iter_mut().zip(&src[start..start + len]) {
                    *x += s * scale;
                }
            });
        } else {
            let raw: &[f32] = &rhs.data;
            let base = rhs.offset;
            let shape = rhs.shape.clone();
            let strides = rhs.strides.clone();
            let zero = vec![0usize; shape.len()];
            let dst = self.data_mut();
            par_chunks_mut(dst, ELEMWISE_CHUNK, |_, start, d| {
                let odo = Odometer2::starting_at(&shape, strides.clone(), zero.clone(), start);
                for (x, (a, _)) in d.iter_mut().zip(odo) {
                    *x += raw[base + a] * scale;
                }
            });
        }
    }

    /// Sum-reduce this tensor down to `target` shape — the adjoint of
    /// broadcasting. `target` must itself broadcast to `self.shape`.
    ///
    /// Chunks of the logical input index space accumulate into per-chunk
    /// partial outputs which are then combined in [`lip_par::combine_tree`]'s
    /// fixed order, so the result depends only on the shapes — never on the
    /// thread count or the input's storage layout.
    ///
    /// Each chunk walks its range one innermost run at a time, in row-major
    /// source order, so every accumulator element takes the same adds in the
    /// same order as an element-by-element walk. When both innermost strides
    /// are 1 (a dense source summed over leading axes, the weight-gradient
    /// case) a run is one slice add.
    pub fn reduce_to_shape(&self, target: &[usize]) -> Tensor {
        if self.shape == target {
            return self.clone();
        }
        // target indexes the dense accumulator; self walks its own strides
        let sa = broadcast_strides(target, &contiguous_strides(target), &self.shape);
        let inner_t = sa.last().copied().unwrap_or(0);
        let inner_s = self.strides.last().copied().unwrap_or(0);
        let t_numel = numel(target);
        let raw: &[f32] = &self.data;
        let base = self.offset;
        let n = self.numel();
        let partials = lip_par::map_chunks(
            lip_par::Partition::new(n, ELEMWISE_CHUNK),
            |_, r| {
                let mut odo =
                    Odometer2::starting_at(&self.shape, sa.clone(), self.strides.clone(), r.start);
                let mut acc = vec![0.0f32; t_numel];
                let mut left = r.len();
                while let Some((t, s, len)) = odo.next_run(left) {
                    left -= len;
                    let s = base + s;
                    if inner_t == 1 && inner_s == 1 {
                        for (x, &v) in acc[t..t + len].iter_mut().zip(&raw[s..s + len]) {
                            *x += v;
                        }
                    } else {
                        for j in 0..len {
                            acc[t + j * inner_t] += raw[s + j * inner_s];
                        }
                    }
                }
                acc
            },
        );
        let out = lip_par::combine_tree(partials, |mut a, b| {
            for (x, &y) in a.iter_mut().zip(&b) {
                *x += y;
            }
            a
        })
        .unwrap_or_else(|| vec![0.0f32; t_numel]);
        Tensor::from_vec(out, target)
    }
}

/// Derivative of the tanh-approximated GELU, exposed for the autograd crate.
pub fn gelu_grad_scalar(x: f32) -> f32 {
    let inner = SQRT_2_OVER_PI * (x + 0.044715 * x * x * x);
    let t = inner.tanh();
    let dinner = SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn add_equal_shapes() {
        let a = Tensor::from_vec(vec![1., 2., 3.], &[3]);
        let b = Tensor::from_vec(vec![10., 20., 30.], &[3]);
        assert_eq!(a.add(&b).to_vec(), vec![11., 22., 33.]);
    }

    #[test]
    fn suffix_broadcast_bias() {
        let x = Tensor::arange(6).reshape(&[2, 3]);
        let b = Tensor::from_vec(vec![1., 1., 1.], &[3]);
        assert_eq!(x.add(&b).to_vec(), vec![1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn general_broadcast_middle_axis() {
        let x = Tensor::ones(&[2, 1, 2]);
        let y = Tensor::from_vec(vec![1., 2., 3.], &[3, 1]);
        let z = x.mul(&y);
        assert_eq!(z.shape(), &[2, 3, 2]);
        assert_eq!(z.to_vec(), vec![1., 1., 2., 2., 3., 3., 1., 1., 2., 2., 3., 3.]);
    }

    #[test]
    fn scalar_both_sides() {
        let x = Tensor::arange(3);
        assert_eq!(x.add(&Tensor::scalar(1.0)).to_vec(), vec![1., 2., 3.]);
        assert_eq!(Tensor::scalar(1.0).sub(&x).to_vec(), vec![1., 0., -1.]);
        // a one-element operand of higher rank takes the other's shape
        assert_eq!(x.add(&Tensor::ones(&[1, 1])).shape(), &[3]);
        assert_eq!(Tensor::ones(&[1, 1]).mul(&x).shape(), &[3]);
    }

    #[test]
    #[should_panic(expected = "cannot be broadcast")]
    fn incompatible_shapes_panic() {
        let _ = Tensor::ones(&[2, 3]).add(&Tensor::ones(&[4]));
    }

    #[test]
    fn reduce_to_shape_is_broadcast_adjoint() {
        let g = Tensor::ones(&[2, 3]);
        let r = g.reduce_to_shape(&[3]);
        assert_eq!(r.to_vec(), vec![2., 2., 2.]);
        let r2 = g.reduce_to_shape(&[]);
        assert_eq!(r2.item(), 6.0);
        let g3 = Tensor::arange(12).reshape(&[2, 3, 2]);
        let r3 = g3.reduce_to_shape(&[3, 1]);
        assert_eq!(r3.shape(), &[3, 1]);
        // axis-0 and axis-2 sums: rows (0+1+6+7, 2+3+8+9, 4+5+10+11)
        assert_eq!(r3.to_vec(), vec![14., 22., 30.]);
    }

    #[test]
    fn strided_operands_match_packed() {
        // a transposed view fed straight into zip must equal pack-then-zip
        let a = Tensor::arange(6).reshape(&[2, 3]);
        let at = a.t(); // [3, 2] view
        let b = Tensor::arange(6).reshape(&[3, 2]);
        let lazy = at.add(&b);
        let packed = at.contiguous().add(&b);
        assert_eq!(lazy, packed);
        assert_eq!(lazy.to_vec(), packed.to_vec());
        // map over a broadcast (stride-0) view expands correctly
        let row = Tensor::arange(3).broadcast_to(&[2, 3]);
        assert_eq!(row.mul_scalar(2.0).to_vec(), vec![0., 2., 4., 0., 2., 4.]);
    }

    #[test]
    fn unary_maps() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 4.0], &[3]);
        assert_eq!(x.relu().to_vec(), vec![0., 0., 4.]);
        assert_eq!(x.abs().to_vec(), vec![1., 0., 4.]);
        assert_eq!(x.square().to_vec(), vec![1., 0., 16.]);
        assert!((x.sigmoid().data()[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn gelu_matches_known_values() {
        let x = Tensor::from_vec(vec![0.0, 1.0, -1.0], &[3]);
        let y = x.gelu();
        assert!((y.data()[0]).abs() < 1e-6);
        assert!((y.data()[1] - 0.8412).abs() < 1e-3);
        assert!((y.data()[2] + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let eps = 1e-3;
            let f = |v: f32| Tensor::scalar(v).gelu().item();
            let fd = (f(x + eps) - f(x - eps)) / (2.0 * eps);
            let an = super::gelu_grad_scalar(x);
            assert!((fd - an).abs() < 1e-2, "x={x}: fd={fd} an={an}");
        }
    }

    #[test]
    fn add_assign_scaled_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::arange(3);
        a.add_assign_scaled(&b, 2.0);
        assert_eq!(a.to_vec(), vec![1., 3., 5.]);
    }

    #[test]
    fn add_assign_scaled_takes_strided_rhs() {
        // rhs is a permuted view — the accumulation must follow its logical
        // order, not its storage order
        let base = Tensor::arange(6).reshape(&[2, 3]);
        let rhs = base.t(); // logical [[0,3],[1,4],[2,5]]
        let mut acc = Tensor::zeros(&[3, 2]);
        acc.add_assign_scaled(&rhs, 1.0);
        assert_eq!(acc.to_vec(), vec![0., 3., 1., 4., 2., 5.]);
        // and accumulating into a view must not corrupt the view's base
        let mut acc_view = base.slice_axis(0, 0, 1).reshape(&[3, 1]);
        acc_view.add_assign_scaled(&Tensor::ones(&[3, 1]), 1.0);
        assert_eq!(base.to_vec(), vec![0., 1., 2., 3., 4., 5.]);
        assert_eq!(acc_view.to_vec(), vec![1., 2., 3.]);
    }
}

//! The [`Tensor`] type: a strided view `{shape, strides, offset}` over
//! shared row-major f32 storage, plus shape manipulation (reshape / permute /
//! slice / broadcast / sliding windows / concat / gather / repeat).
//!
//! Layout ops — [`Tensor::permute`], [`Tensor::transpose`],
//! [`Tensor::slice_axis`], [`Tensor::broadcast_to`],
//! [`Tensor::sliding_window`] and stride-compatible [`Tensor::reshape`] —
//! are O(1) metadata edits sharing the underlying buffer. Kernels that need
//! dense row-major storage call [`Tensor::contiguous`], which packs a view
//! by gathering its elements in logical row-major order; the gather is a
//! pure function of the layout, so packed bytes are identical to what the
//! old copy-on-layout implementation produced, at any thread count.

use std::fmt;
use std::sync::Arc;

use crate::shape::{
    broadcast_strides, contiguous_strides, is_row_major, numel, split_at_axis, view_strides,
    Odometer2,
};
use crate::stats::{self, CopyKind};

/// A strided view over shared, row-major `f32` storage.
///
/// Cloning is O(1) (shared `Arc` storage); mutation copies on write
/// ([`Tensor::data_mut`]). Layout operations produce views whenever the
/// result is expressible as strides over the same buffer, and materialize
/// only when it is not (e.g. reshaping a transposed matrix).
#[derive(Clone)]
pub struct Tensor {
    pub(crate) shape: Vec<usize>,
    pub(crate) strides: Vec<usize>,
    pub(crate) offset: usize,
    pub(crate) data: Arc<Vec<f32>>,
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Build a tensor from a flat row-major buffer.
    ///
    /// Panics if `data.len()` does not match the element count of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            numel(shape),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            strides: contiguous_strides(shape),
            offset: 0,
            data: Arc::new(data),
        }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::from_vec(vec![0.0; numel(shape)], shape)
    }

    /// All-ones tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::from_vec(vec![1.0; numel(shape)], shape)
    }

    /// Tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor::from_vec(vec![value; numel(shape)], shape)
    }

    /// Rank-0 scalar.
    pub fn scalar(value: f32) -> Self {
        Tensor::from_vec(vec![value], &[])
    }

    /// `[0, 1, ..., n-1]` as a 1-d tensor.
    pub fn arange(n: usize) -> Self {
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), &[n])
    }

    // ------------------------------------------------------------ accessors

    /// The tensor's shape (empty slice for a scalar).
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Per-axis element strides into the shared storage buffer. A stride of
    /// 0 marks a broadcast axis (every index reads the same element).
    #[inline]
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Offset (in elements) of this view's first logical element within the
    /// shared storage buffer.
    #[inline]
    pub fn storage_offset(&self) -> usize {
        self.offset
    }

    /// Number of axes.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of logical elements.
    #[inline]
    pub fn numel(&self) -> usize {
        numel(&self.shape)
    }

    /// True when the view's elements sit in dense row-major order in storage
    /// (any offset) — the precondition for [`Tensor::data`].
    #[inline]
    pub fn is_contiguous(&self) -> bool {
        is_row_major(&self.shape, &self.strides)
    }

    /// Flat row-major view of the elements.
    ///
    /// Panics on a non-contiguous view (a permuted / broadcast / overlapping
    /// window layout); call [`Tensor::contiguous`] first.
    #[inline]
    pub fn data(&self) -> &[f32] {
        assert!(
            self.is_contiguous(),
            "data() on a non-contiguous view (shape {:?}, strides {:?}); call contiguous() first",
            self.shape,
            self.strides
        );
        let n = self.numel();
        if n == 0 {
            // an empty view may carry an offset past the end of its storage
            // (e.g. a zero-width slice of an empty axis) — never index it
            return &[];
        }
        &self.data[self.offset..self.offset + n]
    }

    /// Mutable flat view; packs a strided view first and copies the buffer
    /// if it is shared, so writes never leak into aliasing views.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        if !self.is_contiguous() {
            *self = self.pack(CopyKind::Pack);
        }
        let (o, n) = (self.offset, self.numel());
        if n == 0 {
            return &mut [];
        }
        &mut Arc::make_mut(&mut self.data)[o..o + n]
    }

    /// The single element of a scalar (or 1-element) tensor.
    ///
    /// Panics if the tensor holds more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() on tensor of shape {:?}", self.shape);
        self.data[self.offset]
    }

    /// Element at a full multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        assert_eq!(index.len(), self.rank(), "index rank mismatch");
        let mut off = self.offset;
        for ((&i, &dim), &s) in index.iter().zip(&self.shape).zip(&self.strides) {
            assert!(i < dim, "index {index:?} out of bounds for {:?}", self.shape);
            off += i * s;
        }
        self.data[off]
    }

    /// Copy of the elements as an owned `Vec`, in logical row-major order.
    pub fn to_vec(&self) -> Vec<f32> {
        if self.is_contiguous() {
            self.data().to_vec()
        } else {
            self.gather_logical()
        }
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        if self.is_contiguous() {
            return self.data().iter().any(|v| !v.is_finite());
        }
        let zero = vec![0usize; self.rank()];
        Odometer2::new(&self.shape, self.strides.clone(), zero)
            .any(|(a, _)| !self.data[self.offset + a].is_finite())
    }

    /// Borrow this tensor's layout and raw storage as a kernel-level view —
    /// the operand type of the shared compute cores in [`crate::kernel`].
    #[inline]
    pub fn view_ref(&self) -> crate::kernel::ViewRef<'_> {
        crate::kernel::ViewRef {
            data: &self.data,
            offset: self.offset,
            shape: &self.shape,
            strides: &self.strides,
        }
    }

    /// Address of the shared storage buffer, as an opaque identity token.
    /// Two tensors report the same value exactly when they alias the same
    /// `Arc` buffer (e.g. a tensor and any view of it). Distinct views of
    /// one buffer collide here by design — disambiguate with
    /// [`Tensor::storage_offset`] and [`Tensor::numel`] where it matters
    /// (the static analyzer's dropout-mask lint does).
    #[inline]
    pub fn storage_ptr(&self) -> usize {
        Arc::as_ptr(&self.data) as usize
    }

    // ------------------------------------------------------ materialization

    /// This view's elements gathered into a fresh buffer in logical
    /// row-major order. Chunked over the logical index space, so the bytes
    /// are identical at any thread count.
    fn gather_logical(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.numel()];
        crate::kernel::gather_into(self.view_ref(), &mut out);
        out
    }

    /// Materialize into a fresh dense tensor, recording the copy as `kind`.
    fn pack(&self, kind: CopyKind) -> Tensor {
        stats::record_copy(kind, self.numel() * 4);
        Tensor::from_vec(self.gather_logical(), &self.shape)
    }

    /// Dense row-major version of this tensor: `self` (cheap clone) when the
    /// view is already contiguous, otherwise a packed copy. Kernels that
    /// index flat storage (matmul packing, reductions, serialization) call
    /// this as their density escape hatch.
    pub fn contiguous(&self) -> Tensor {
        if self.is_contiguous() {
            self.clone()
        } else {
            self.pack(CopyKind::Pack)
        }
    }

    /// Fully standalone copy semantics: a tensor whose storage starts at
    /// offset 0 and holds exactly this view's elements. Unlike
    /// [`Tensor::contiguous`] this also detaches a contiguous window into a
    /// larger shared buffer (useful before long-lived retention, e.g.
    /// checkpoints, so a small slice does not pin a large allocation).
    pub fn materialize(&self) -> Tensor {
        if self.is_contiguous() && self.offset == 0 && self.data.len() == self.numel() {
            self.clone()
        } else {
            self.pack(CopyKind::Pack)
        }
    }

    // ------------------------------------------------------ shape surgery

    /// Reinterpret the elements under a new shape with equal element count.
    ///
    /// O(1) whenever the current strides admit the new shape (always true
    /// for contiguous tensors); otherwise gathers into a fresh buffer.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            self.numel(),
            numel(shape),
            "cannot reshape {:?} ({} elems) to {:?}",
            self.shape,
            self.numel(),
            shape
        );
        match view_strides(&self.shape, &self.strides, shape) {
            Some(strides) => {
                // bytes-avoided is 0: reshape was already O(1) pre-refactor
                stats::record_view(CopyKind::Reshape, 0);
                Tensor {
                    shape: shape.to_vec(),
                    strides,
                    offset: self.offset,
                    data: Arc::clone(&self.data),
                }
            }
            None => {
                stats::record_copy(CopyKind::Reshape, self.numel() * 4);
                Tensor::from_vec(self.gather_logical(), shape)
            }
        }
    }

    /// Reorder axes: `out[i_axes[0], i_axes[1], ..] = self[i0, i1, ..]`.
    /// A zero-copy view: only the stride order changes.
    pub fn permute(&self, axes: &[usize]) -> Tensor {
        assert_eq!(axes.len(), self.rank(), "permute axes rank mismatch");
        let mut seen = vec![false; axes.len()];
        for &a in axes {
            assert!(a < self.rank() && !seen[a], "invalid permutation {axes:?}");
            seen[a] = true;
        }
        stats::record_view(CopyKind::Permute, self.numel() * 4);
        Tensor {
            shape: axes.iter().map(|&a| self.shape[a]).collect(),
            strides: axes.iter().map(|&a| self.strides[a]).collect(),
            offset: self.offset,
            data: Arc::clone(&self.data),
        }
    }

    /// Swap two axes (zero-copy view).
    pub fn transpose(&self, a: usize, b: usize) -> Tensor {
        let mut axes: Vec<usize> = (0..self.rank()).collect();
        axes.swap(a, b);
        self.permute(&axes)
    }

    /// Swap the last two axes — the usual matrix transpose for batched mats.
    pub fn t(&self) -> Tensor {
        let r = self.rank();
        assert!(r >= 2, "t() requires rank >= 2, got {:?}", self.shape);
        self.transpose(r - 2, r - 1)
    }

    /// Contiguous sub-range `start..end` along `axis` (zero-copy view:
    /// the storage offset advances, strides are unchanged).
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Tensor {
        assert!(axis < self.rank(), "axis {axis} out of range for {:?}", self.shape);
        let len = self.shape[axis];
        assert!(
            start <= end && end <= len,
            "slice {start}..{end} out of bounds for axis {axis} of {:?}",
            self.shape
        );
        let mut shape = self.shape.clone();
        shape[axis] = end - start;
        stats::record_view(CopyKind::SliceAxis, numel(&shape) * 4);
        Tensor {
            shape,
            strides: self.strides.clone(),
            offset: self.offset + start * self.strides[axis],
            data: Arc::clone(&self.data),
        }
    }

    /// Overlapping sliding windows along `axis` (zero-copy view, PyTorch
    /// `unfold` semantics): `axis` shrinks to the window count
    /// `(len - window) / step + 1` and a new trailing axis of size `window`
    /// is appended, striding by the original axis stride. Consecutive
    /// windows alias each other whenever `step < window` — exactly the
    /// overlapping-patch case of PatchTST-style patch extraction.
    pub fn sliding_window(&self, axis: usize, window: usize, step: usize) -> Tensor {
        assert!(axis < self.rank(), "axis {axis} out of range for {:?}", self.shape);
        assert!(window >= 1 && step >= 1, "sliding_window needs window,step >= 1");
        let len = self.shape[axis];
        assert!(
            window <= len,
            "window {window} longer than axis {axis} (len {len}) of {:?}",
            self.shape
        );
        let n = (len - window) / step + 1;
        let mut shape = self.shape.clone();
        shape[axis] = n;
        shape.push(window);
        let mut strides = self.strides.clone();
        let s = strides[axis];
        strides[axis] = step * s;
        strides.push(s);
        stats::record_view(CopyKind::Unfold, numel(&shape) * 4);
        Tensor {
            shape,
            strides,
            offset: self.offset,
            data: Arc::clone(&self.data),
        }
    }

    /// Broadcast to `out_shape` (zero-copy view: expanded axes get stride 0,
    /// so every index along them reads the same storage element).
    pub fn broadcast_to(&self, out_shape: &[usize]) -> Tensor {
        if self.shape == out_shape {
            return self.clone();
        }
        assert!(
            out_shape.len() >= self.rank(),
            "cannot broadcast {:?} down to {out_shape:?}",
            self.shape
        );
        let pad = out_shape.len() - self.rank();
        for i in pad..out_shape.len() {
            let dim = self.shape[i - pad];
            assert!(
                dim == out_shape[i] || dim == 1,
                "shape {:?} does not broadcast to {out_shape:?}",
                self.shape
            );
        }
        stats::record_view(CopyKind::BroadcastTo, numel(out_shape) * 4);
        Tensor {
            shape: out_shape.to_vec(),
            strides: broadcast_strides(&self.shape, &self.strides, out_shape),
            offset: self.offset,
            data: Arc::clone(&self.data),
        }
    }

    /// Concatenate tensors along `axis`. All other axes must match.
    pub fn concat(parts: &[&Tensor], axis: usize) -> Tensor {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let rank = parts[0].rank();
        for p in parts {
            assert_eq!(p.rank(), rank, "concat rank mismatch");
            for ax in 0..rank {
                if ax != axis {
                    assert_eq!(
                        p.shape[ax], parts[0].shape[ax],
                        "concat shape mismatch on axis {ax}"
                    );
                }
            }
        }
        let mut shape = parts[0].shape.clone();
        shape[axis] = parts.iter().map(|p| p.shape[axis]).sum();
        let (outer, _, inner) = split_at_axis(&shape, axis);
        let dense: Vec<Tensor> = parts.iter().map(|p| p.contiguous()).collect();
        let packed: Vec<(&[f32], usize)> =
            dense.iter().map(|p| (p.data(), p.shape[axis])).collect();
        let mut out = vec![0.0f32; numel(&shape)];
        crate::kernel::concat_packed_into(&packed, outer, inner, &mut out);
        Tensor::from_vec(out, &shape)
    }

    /// Stack equally-shaped tensors along a new leading axis.
    pub fn stack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack of zero tensors");
        let mut out = Vec::with_capacity(parts.len() * parts[0].numel());
        for p in parts {
            assert_eq!(p.shape, parts[0].shape, "stack shape mismatch");
            out.extend_from_slice(p.contiguous().data());
        }
        let mut shape = vec![parts.len()];
        shape.extend_from_slice(&parts[0].shape);
        Tensor::from_vec(out, &shape)
    }

    /// Gather rows along axis 0: `out[i] = self[indices[i]]`.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        assert!(self.rank() >= 1, "gather_rows on a scalar");
        let src = self.contiguous();
        let row = src.numel() / src.shape[0].max(1);
        let mut out = vec![0.0f32; indices.len() * row];
        crate::kernel::gather_rows_into(src.data(), src.shape[0], row, indices, &mut out);
        let mut shape = src.shape.clone();
        shape[0] = indices.len();
        Tensor::from_vec(out, &shape)
    }

    /// Repeat the whole tensor `times` along a new leading axis and collapse:
    /// shape `[d0, ...]` becomes `[times * d0, ...]`.
    pub fn tile_rows(&self, times: usize) -> Tensor {
        let src = self.contiguous();
        let mut out = Vec::with_capacity(src.numel() * times);
        for _ in 0..times {
            out.extend_from_slice(src.data());
        }
        let mut shape = src.shape.clone();
        if shape.is_empty() {
            shape = vec![times];
        } else {
            shape[0] *= times;
        }
        Tensor::from_vec(out, &shape)
    }
}

/// Logical elementwise equality: same shape, same element values, regardless
/// of how either side is laid out in storage.
impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        if self.shape != other.shape {
            return false;
        }
        if self.is_contiguous() && other.is_contiguous() {
            return self.data() == other.data();
        }
        Odometer2::new(&self.shape, self.strides.clone(), other.strides.clone())
            .all(|(a, b)| self.data[self.offset + a] == other.data[other.offset + b])
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let zero = vec![0usize; self.rank()];
        let preview: Vec<f32> = Odometer2::new(&self.shape, self.strides.clone(), zero)
            .take(8)
            .map(|(a, _)| self.data[self.offset + a])
            .collect();
        write!(
            f,
            "Tensor{:?} {:?}{}",
            self.shape,
            preview,
            if self.numel() > 8 { "…" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_access() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.rank(), 2);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn bad_shape_panics() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn clone_is_cow() {
        let a = Tensor::zeros(&[4]);
        let mut b = a.clone();
        b.data_mut()[0] = 9.0;
        assert_eq!(a.data()[0], 0.0);
        assert_eq!(b.data()[0], 9.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        assert_eq!(t.at(&[1, 0]), 3.0);
    }

    #[test]
    fn reshape_of_contiguous_is_zero_copy() {
        // the arange → reshape chain must not copy: same storage, new strides
        let t = Tensor::arange(6);
        let r = t.reshape(&[2, 3]);
        assert_eq!(r.storage_ptr(), t.storage_ptr());
        let r2 = r.reshape(&[3, 2, 1]);
        assert_eq!(r2.storage_ptr(), t.storage_ptr());
        assert_eq!(r2.strides(), &[2, 1, 1]);
    }

    #[test]
    fn permute_2d_is_transpose() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let tt = t.t();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.to_vec(), vec![1., 4., 2., 5., 3., 6.]);
        // zero-copy: storage is shared, only strides changed
        assert_eq!(tt.storage_ptr(), t.storage_ptr());
        assert_eq!(tt.strides(), &[1, 3]);
        assert!(!tt.is_contiguous());
    }

    #[test]
    fn permute_3d() {
        let t = Tensor::arange(24).reshape(&[2, 3, 4]);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), t.at(&[0, 2, 1]));
        assert_eq!(p.storage_ptr(), t.storage_ptr());
        // permute then inverse permute round-trips (still zero-copy)
        let back = p.permute(&[1, 2, 0]);
        assert_eq!(back, t);
        assert_eq!(back.storage_ptr(), t.storage_ptr());
        assert!(back.is_contiguous());
        assert_eq!(back.data(), t.data());
    }

    #[test]
    fn slice_is_view_and_concat_roundtrips() {
        let t = Tensor::arange(24).reshape(&[2, 3, 4]);
        let a = t.slice_axis(1, 0, 1);
        let b = t.slice_axis(1, 1, 3);
        assert_eq!(a.shape(), &[2, 1, 4]);
        assert_eq!(b.shape(), &[2, 2, 4]);
        // zero-copy: both windows share t's storage, offset by the start
        assert_eq!(a.storage_ptr(), t.storage_ptr());
        assert_eq!(b.storage_ptr(), t.storage_ptr());
        assert_eq!(b.storage_offset(), 4);
        let joined = Tensor::concat(&[&a, &b], 1);
        assert_eq!(joined, t);
    }

    #[test]
    fn view_chain_shares_storage() {
        // permute ∘ slice ∘ broadcast-compatible reshape: one buffer end to end
        let t = Tensor::arange(24).reshape(&[2, 3, 4]);
        let v = t.permute(&[1, 0, 2]).slice_axis(0, 1, 3).reshape(&[2, 2, 2, 2]);
        assert_eq!(v.storage_ptr(), t.storage_ptr());
        assert_eq!(v, v.contiguous());
        // materializing detaches
        let m = v.contiguous();
        assert_ne!(m.storage_ptr(), t.storage_ptr());
        assert_eq!(m.to_vec(), v.to_vec());
    }

    #[test]
    fn stack_adds_axis() {
        let a = Tensor::arange(3);
        let b = Tensor::full(&[3], 7.0);
        let s = Tensor::stack(&[&a, &b]);
        assert_eq!(s.shape(), &[2, 3]);
        assert_eq!(s.at(&[1, 1]), 7.0);
    }

    #[test]
    fn gather_rows_picks_rows() {
        let t = Tensor::arange(6).reshape(&[3, 2]);
        let g = t.gather_rows(&[2, 0, 2]);
        assert_eq!(g.shape(), &[3, 2]);
        assert_eq!(g.to_vec(), vec![4., 5., 0., 1., 4., 5.]);
    }

    #[test]
    fn broadcast_to_is_stride0_view() {
        let t = Tensor::from_vec(vec![1., 2.], &[2]);
        let b = t.broadcast_to(&[3, 2]);
        assert_eq!(b.to_vec(), vec![1., 2., 1., 2., 1., 2.]);
        assert_eq!(b.storage_ptr(), t.storage_ptr());
        assert_eq!(b.strides(), &[0, 1]);
        let s = Tensor::scalar(5.0).broadcast_to(&[2, 2]);
        assert_eq!(s.to_vec(), vec![5.0; 4]);
    }

    #[test]
    fn sliding_window_views_overlap() {
        let t = Tensor::arange(6); // [0,1,2,3,4,5]
        let w = t.sliding_window(0, 3, 2); // windows [0,1,2], [2,3,4]
        assert_eq!(w.shape(), &[2, 3]);
        assert_eq!(w.storage_ptr(), t.storage_ptr());
        assert_eq!(w.to_vec(), vec![0., 1., 2., 2., 3., 4.]);
        // step == window: non-overlapping tiling, still a view
        let tiles = t.sliding_window(0, 2, 2);
        assert_eq!(tiles.shape(), &[3, 2]);
        assert_eq!(tiles.to_vec(), vec![0., 1., 2., 3., 4., 5.]);
        assert!(tiles.is_contiguous());
        // middle axis of a higher-rank tensor
        let x = Tensor::arange(8).reshape(&[2, 4]);
        let xs = x.sliding_window(1, 2, 1);
        assert_eq!(xs.shape(), &[2, 3, 2]);
        assert_eq!(xs.at(&[1, 2, 1]), x.at(&[1, 3]));
    }

    #[test]
    fn tile_rows_repeats() {
        let t = Tensor::arange(2).reshape(&[1, 2]);
        let r = t.tile_rows(3);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.to_vec(), vec![0., 1., 0., 1., 0., 1.]);
    }

    #[test]
    fn data_mut_on_view_does_not_leak_into_base() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        let mut v = t.t();
        v.data_mut()[0] = 99.0;
        assert_eq!(t.at(&[0, 0]), 0.0, "base tensor must be untouched");
        assert_eq!(v.at(&[0, 0]), 99.0);
    }

    #[test]
    fn eq_is_layout_agnostic() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        let b = a.t().t(); // same logical tensor, round-tripped strides
        assert_eq!(a, b);
        let c = Tensor::from_vec(vec![1., 3., 2., 4.], &[2, 2]).t();
        assert_eq!(a, c, "strided view equals its dense equivalent");
    }

    #[test]
    fn materialize_detaches_slices() {
        let t = Tensor::arange(10);
        let s = t.slice_axis(0, 2, 5);
        assert_eq!(s.storage_ptr(), t.storage_ptr());
        let m = s.materialize();
        assert_ne!(m.storage_ptr(), t.storage_ptr());
        assert_eq!(m.data().len(), 3);
        assert_eq!(m.to_vec(), vec![2., 3., 4.]);
    }

    #[test]
    fn size_zero_views_behave() {
        let t = Tensor::arange(12).reshape(&[3, 4]);
        let empty = t.slice_axis(0, 3, 3);
        assert_eq!(empty.shape(), &[0, 4]);
        assert_eq!(empty.numel(), 0);
        assert!(empty.is_contiguous());
        assert_eq!(empty.to_vec(), Vec::<f32>::new());
        assert_eq!(empty.permute(&[1, 0]).numel(), 0);
        assert_eq!(empty.reshape(&[4, 0]).shape(), &[4, 0]);
    }
}

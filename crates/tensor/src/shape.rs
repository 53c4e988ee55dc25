//! Shape arithmetic: strides, broadcasting, and an odometer iterator used by
//! the strided kernels in the rest of the crate, which steps one element or
//! one innermost run at a time.

use crate::TensorError;

/// Row-major strides for `shape`. The stride of a size-1 axis is kept as the
/// natural contiguous stride; broadcasting zeroes it separately.
pub fn contiguous_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![0usize; shape.len()];
    let mut acc = 1usize;
    for (s, &dim) in strides.iter_mut().zip(shape.iter()).rev() {
        *s = acc;
        acc *= dim;
    }
    strides
}

/// Number of elements described by `shape` (1 for a scalar / empty shape).
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// True when `(shape, strides)` lays elements out in dense row-major order
/// (any storage offset). Strides of size-≤1 axes carry no information and are
/// ignored; an empty tensor is trivially row-major.
pub fn is_row_major(shape: &[usize], strides: &[usize]) -> bool {
    debug_assert_eq!(shape.len(), strides.len(), "shape/stride rank mismatch");
    if shape.contains(&0) {
        return true;
    }
    let mut acc = 1usize;
    for (&dim, &stride) in shape.iter().zip(strides).rev() {
        if dim > 1 {
            if stride != acc {
                return false;
            }
            acc *= dim;
        }
    }
    true
}

/// Strides that reinterpret a `(old_shape, old_strides)` layout as
/// `new_shape` **without moving data**, or `None` when the reshape genuinely
/// requires a copy (e.g. flattening a transposed matrix).
///
/// The rule is the standard one: old axes are grouped into maximal
/// row-major-contiguous chunks; each chunk must be exactly tiled (from the
/// trailing side) by a run of new axes. Size-1 axes on either side are
/// unconstrained. Shapes must describe the same element count (checked by
/// the caller).
pub fn view_strides(
    old_shape: &[usize],
    old_strides: &[usize],
    new_shape: &[usize],
) -> Option<Vec<usize>> {
    debug_assert_eq!(numel(old_shape), numel(new_shape), "reshape numel mismatch");
    if numel(new_shape) == 0 {
        // no elements: any layout works, pick the canonical one
        return Some(contiguous_strides(new_shape));
    }
    // size-1 old axes impose no constraint
    let olds: Vec<(usize, usize)> = old_shape
        .iter()
        .zip(old_strides)
        .filter(|(&d, _)| d != 1)
        .map(|(&d, &s)| (d, s))
        .collect();
    let mut out = vec![0usize; new_shape.len()];
    let mut new_d = new_shape.len(); // exclusive upper bound of unfilled axes
    let mut od = olds.len();
    while od > 0 {
        // grow a chunk leftwards while the old axes are mutually contiguous
        let chunk_end = od;
        let mut chunk_start = od - 1;
        while chunk_start > 0
            && olds[chunk_start - 1].1 == olds[chunk_start].1 * olds[chunk_start].0
        {
            chunk_start -= 1;
        }
        let mut rem: usize = olds[chunk_start..chunk_end].iter().map(|&(d, _)| d).product();
        let mut stride = olds[chunk_end - 1].1;
        // consume new axes from the right until the chunk is exactly tiled
        while rem > 1 {
            if new_d == 0 {
                return None;
            }
            new_d -= 1;
            let dim = new_shape[new_d];
            if dim == 1 {
                out[new_d] = stride; // unconstrained
                continue;
            }
            if !rem.is_multiple_of(dim) {
                return None; // new axis straddles a chunk boundary
            }
            out[new_d] = stride;
            stride *= dim;
            rem /= dim;
        }
        od = chunk_start;
    }
    // leftover new axes must all be size 1
    while new_d > 0 {
        new_d -= 1;
        if new_shape[new_d] != 1 {
            return None;
        }
        out[new_d] = 1;
    }
    Some(out)
}

/// NumPy broadcasting: align shapes at the trailing axis; each pair of dims
/// must be equal or one of them 1.
pub fn broadcast_shapes(lhs: &[usize], rhs: &[usize]) -> Result<Vec<usize>, TensorError> {
    let rank = lhs.len().max(rhs.len());
    let mut out = vec![0usize; rank];
    for (i, slot) in out.iter_mut().enumerate() {
        let l = padded_dim(lhs, rank, i);
        let r = padded_dim(rhs, rank, i);
        *slot = if l == r || r == 1 {
            l
        } else if l == 1 {
            r
        } else {
            return Err(TensorError::BroadcastMismatch {
                lhs: lhs.to_vec(),
                rhs: rhs.to_vec(),
            });
        };
    }
    Ok(out)
}

/// Dim `i` of `shape` implicitly left-padded with 1s to `rank` axes.
fn padded_dim(shape: &[usize], rank: usize, i: usize) -> usize {
    let pad = rank - shape.len();
    if i < pad {
        1
    } else {
        shape[i - pad]
    }
}

/// Shape-only matmul rule, shared by [`crate::Tensor::matmul`] and the
/// static analyzer: 1-d operands are promoted to a row / column vector (and
/// the inserted axis squeezed from the result), inner dimensions must agree,
/// and leading batch axes broadcast like NumPy.
pub fn matmul_shapes(lhs: &[usize], rhs: &[usize]) -> Result<Vec<usize>, TensorError> {
    assert!(
        !lhs.is_empty() && !rhs.is_empty(),
        "matmul operands must have rank >= 1, got {lhs:?} × {rhs:?}"
    );
    let squeeze_front = lhs.len() == 1;
    let squeeze_back = rhs.len() == 1;
    let a: Vec<usize> = if squeeze_front { vec![1, lhs[0]] } else { lhs.to_vec() };
    let b: Vec<usize> = if squeeze_back { vec![rhs[0], 1] } else { rhs.to_vec() };
    let (m, ka) = (a[a.len() - 2], a[a.len() - 1]);
    let (kb, n) = (b[b.len() - 2], b[b.len() - 1]);
    if ka != kb {
        return Err(TensorError::MatMulMismatch {
            lhs: lhs.to_vec(),
            rhs: rhs.to_vec(),
        });
    }
    let mut out = broadcast_shapes(&a[..a.len() - 2], &b[..b.len() - 2])?;
    if !squeeze_front {
        out.push(m);
    }
    if !squeeze_back {
        out.push(n);
    }
    Ok(out)
}

/// `strides` (belonging to `shape`) viewed as `out_shape`: missing leading
/// axes and size-1 axes get stride 0. Panics if `shape` has more axes than
/// `out_shape`; the per-axis rule is checked in debug builds.
pub fn broadcast_strides(shape: &[usize], strides: &[usize], out_shape: &[usize]) -> Vec<usize> {
    assert!(
        out_shape.len() >= shape.len(),
        "shape {shape:?} does not broadcast to {out_shape:?}"
    );
    let pad = out_shape.len() - shape.len();
    let mut out = vec![0usize; out_shape.len()];
    for (i, (&dim, &stride)) in shape.iter().zip(strides).enumerate() {
        debug_assert!(
            dim == out_shape[pad + i] || dim == 1,
            "shape {shape:?} does not broadcast to {out_shape:?}"
        );
        if dim != 1 {
            out[pad + i] = stride;
        }
    }
    out
}

/// An odometer over a multi-dimensional index space that tracks flat offsets
/// into two strided operands simultaneously. This is the workhorse behind the
/// generic broadcast kernels.
pub struct Odometer2 {
    shape: Vec<usize>,
    idx: Vec<usize>,
    strides_a: Vec<usize>,
    strides_b: Vec<usize>,
    off_a: usize,
    off_b: usize,
    remaining: usize,
}

impl Odometer2 {
    /// Walk `out_shape` in row-major order, tracking flat offsets into two
    /// operands with the given per-axis strides.
    pub fn new(out_shape: &[usize], strides_a: Vec<usize>, strides_b: Vec<usize>) -> Self {
        Odometer2 {
            shape: out_shape.to_vec(),
            idx: vec![0; out_shape.len()],
            strides_a,
            strides_b,
            off_a: 0,
            off_b: 0,
            remaining: numel(out_shape),
        }
    }

    /// An odometer positioned at flat output index `start` (row-major), as
    /// if [`Odometer2::new`] had been stepped `start` times. Lets chunked
    /// kernels walk disjoint linear ranges of a broadcast output without
    /// replaying the prefix.
    pub fn starting_at(
        out_shape: &[usize],
        strides_a: Vec<usize>,
        strides_b: Vec<usize>,
        start: usize,
    ) -> Self {
        let total = numel(out_shape);
        let mut idx = vec![0usize; out_shape.len()];
        let mut off_a = 0usize;
        let mut off_b = 0usize;
        if start < total {
            // mixed-radix decomposition, last axis fastest
            let mut rem = start;
            for ax in (0..out_shape.len()).rev() {
                let dim = out_shape[ax];
                idx[ax] = rem % dim;
                rem /= dim;
                off_a += idx[ax] * strides_a[ax];
                off_b += idx[ax] * strides_b[ax];
            }
        }
        Odometer2 {
            shape: out_shape.to_vec(),
            idx,
            strides_a,
            strides_b,
            off_a,
            off_b,
            remaining: total.saturating_sub(start),
        }
    }

    /// Step a whole innermost run at once: the flat offsets of the current
    /// element and the run length `len` (the elements left on the innermost
    /// axis, capped at `max` and at what remains), then advance to where
    /// `len` calls to `next` would leave the odometer. Element `j < len` of
    /// the run sits at `(a + j·sa, b + j·sb)`, with `sa` and `sb` the
    /// innermost strides. A rank-0 walk is one run of length 1. `None` once
    /// the walk is done or when `max` is 0.
    pub fn next_run(&mut self, max: usize) -> Option<(usize, usize, usize)> {
        if self.remaining == 0 || max == 0 {
            return None;
        }
        let (a, b) = (self.off_a, self.off_b);
        let Some(last) = self.shape.len().checked_sub(1) else {
            self.remaining = 0;
            return Some((a, b, 1));
        };
        let i0 = self.idx[last];
        let len = (self.shape[last] - i0).min(max).min(self.remaining);
        self.remaining -= len;
        if i0 + len < self.shape[last] {
            self.idx[last] += len;
            self.off_a += len * self.strides_a[last];
            self.off_b += len * self.strides_b[last];
        } else {
            // row finished: rewind it and carry into the axes above
            self.off_a -= i0 * self.strides_a[last];
            self.off_b -= i0 * self.strides_b[last];
            self.idx[last] = 0;
            self.step(last);
        }
        Some((a, b, len))
    }

    /// Advance the index over axes `..axes` by one (row-major, last of them
    /// fastest), wrapping each finished axis to 0.
    #[inline]
    fn step(&mut self, axes: usize) {
        for ax in (0..axes).rev() {
            self.idx[ax] += 1;
            self.off_a += self.strides_a[ax];
            self.off_b += self.strides_b[ax];
            if self.idx[ax] < self.shape[ax] {
                break;
            }
            self.off_a -= self.strides_a[ax] * self.shape[ax];
            self.off_b -= self.strides_b[ax] * self.shape[ax];
            self.idx[ax] = 0;
        }
    }
}

impl Iterator for Odometer2 {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        if self.remaining == 0 {
            return None;
        }
        let item = (self.off_a, self.off_b);
        self.remaining -= 1;
        self.step(self.shape.len());
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Split a shape at `axis` into (outer, axis_len, inner) extents — the shape
/// of the implicit 3-d view used by axis reductions and slicing.
pub fn split_at_axis(shape: &[usize], axis: usize) -> (usize, usize, usize) {
    assert!(axis < shape.len(), "axis {axis} out of range for {shape:?}");
    let outer: usize = shape[..axis].iter().product();
    let inner: usize = shape[axis + 1..].iter().product();
    (outer, shape[axis], inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(contiguous_strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(contiguous_strides(&[5]), vec![1]);
        assert_eq!(contiguous_strides(&[]), Vec::<usize>::new());
    }

    #[test]
    fn row_major_check() {
        assert!(is_row_major(&[2, 3], &[3, 1]));
        assert!(!is_row_major(&[2, 3], &[1, 2])); // transposed
        assert!(is_row_major(&[1, 3], &[99, 1])); // size-1 stride is free
        assert!(is_row_major(&[2, 1, 3], &[3, 7, 1]));
        assert!(!is_row_major(&[2, 3], &[0, 1])); // broadcast axis
        assert!(is_row_major(&[0, 3], &[9, 9])); // empty: trivially dense
        assert!(is_row_major(&[], &[]));
    }

    #[test]
    fn view_strides_contiguous_always_works() {
        let s = contiguous_strides(&[2, 3, 4]);
        assert_eq!(view_strides(&[2, 3, 4], &s, &[6, 4]).unwrap(), vec![4, 1]);
        assert_eq!(view_strides(&[2, 3, 4], &s, &[24]).unwrap(), vec![1]);
        assert_eq!(
            view_strides(&[2, 3, 4], &s, &[2, 12, 1]).unwrap(),
            vec![12, 1, 1]
        );
    }

    #[test]
    fn view_strides_on_strided_layouts() {
        // transposed [3,2] (strides [1,3]): flattening needs a copy
        assert_eq!(view_strides(&[3, 2], &[1, 3], &[6]), None);
        // splitting an axis of a transposed view keeps the outer stride
        assert_eq!(
            view_strides(&[4, 2], &[1, 4], &[2, 2, 2]).unwrap(),
            vec![2, 1, 4]
        );
        // size-1 axes are free on both sides
        assert_eq!(
            view_strides(&[3, 1, 2], &[1, 9, 3], &[1, 3, 2]).unwrap(),
            vec![1, 1, 3]
        );
        // zero-sized tensors reshape freely
        assert_eq!(
            view_strides(&[0, 4], &[4, 1], &[2, 0, 2]).unwrap(),
            contiguous_strides(&[2, 0, 2])
        );
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[2, 3], &[3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[2, 1, 4], &[3, 1]).unwrap(), vec![2, 3, 4]);
        assert_eq!(broadcast_shapes(&[], &[2, 2]).unwrap(), vec![2, 2]);
        assert!(broadcast_shapes(&[2, 3], &[4]).is_err());
    }

    #[test]
    fn broadcast_strides_zeroes_unit_axes() {
        assert_eq!(broadcast_strides(&[3], &[1], &[2, 3]), vec![0, 1]);
        assert_eq!(broadcast_strides(&[2, 1, 4], &[4, 4, 1], &[2, 3, 4]), vec![4, 0, 1]);
        // a permuted view keeps its own strides on the axes it owns
        assert_eq!(broadcast_strides(&[3, 2], &[1, 3], &[4, 3, 2]), vec![0, 1, 3]);
    }

    fn dense_broadcast(shape: &[usize], out_shape: &[usize]) -> Vec<usize> {
        broadcast_strides(shape, &contiguous_strides(shape), out_shape)
    }

    #[test]
    fn odometer_walks_broadcast_pairs() {
        let out = [2usize, 2];
        let sa = dense_broadcast(&[2, 2], &out);
        let sb = dense_broadcast(&[2], &out);
        let pairs: Vec<_> = Odometer2::new(&out, sa, sb).collect();
        assert_eq!(pairs, vec![(0, 0), (1, 1), (2, 0), (3, 1)]);
    }

    #[test]
    fn odometer_starting_at_matches_skipped_walk() {
        let out = [2usize, 3, 4];
        let sa = dense_broadcast(&[3, 1], &out);
        let sb = dense_broadcast(&[2, 1, 4], &out);
        let full: Vec<_> = Odometer2::new(&out, sa.clone(), sb.clone()).collect();
        for start in [0usize, 1, 5, 11, 23, 24, 99] {
            let tail: Vec<_> =
                Odometer2::starting_at(&out, sa.clone(), sb.clone(), start).collect();
            assert_eq!(tail, full[start.min(full.len())..], "start={start}");
        }
    }

    #[test]
    fn odometer_runs_expand_to_the_element_walk() {
        let out = [2usize, 3, 4];
        let sa = dense_broadcast(&[3, 1], &out);
        let sb = vec![1usize, 8, 2]; // permuted, non-unit innermost stride
        let full: Vec<_> = Odometer2::new(&out, sa.clone(), sb.clone()).collect();
        for start in [0usize, 1, 5, 11, 23, 24] {
            for max in [1usize, 3, 7, 100] {
                let mut odo = Odometer2::starting_at(&out, sa.clone(), sb.clone(), start);
                let mut walked = Vec::new();
                while let Some((a, b, len)) = odo.next_run(max) {
                    assert!((1..=max.min(4)).contains(&len), "run length {len}");
                    walked.extend((0..len).map(|j| (a + j * sa[2], b + j * sb[2])));
                }
                assert_eq!(
                    walked,
                    full[start.min(full.len())..],
                    "start={start} max={max}"
                );
            }
        }
        // rank 0: one run of one element; a zero cap yields nothing
        let mut scalar = Odometer2::new(&[], vec![], vec![]);
        assert_eq!(scalar.next_run(0), None);
        assert_eq!(scalar.next_run(5), Some((0, 0, 1)));
        assert_eq!(scalar.next_run(5), None);
    }

    #[test]
    fn matmul_shapes_rule() {
        assert_eq!(matmul_shapes(&[2, 3], &[3, 4]).unwrap(), vec![2, 4]);
        assert_eq!(matmul_shapes(&[5, 2, 3], &[3, 4]).unwrap(), vec![5, 2, 4]);
        assert_eq!(matmul_shapes(&[2, 1, 2, 3], &[3, 2]).unwrap(), vec![2, 1, 2, 2]);
        // vector promotion and squeeze
        assert_eq!(matmul_shapes(&[2], &[2, 2]).unwrap(), vec![2]);
        assert_eq!(matmul_shapes(&[2, 2], &[2]).unwrap(), vec![2]);
        assert_eq!(matmul_shapes(&[2], &[2]).unwrap(), Vec::<usize>::new());
        // inner-dim and batch failures
        assert!(matmul_shapes(&[2, 3], &[2, 3]).is_err());
        assert!(matmul_shapes(&[2, 2, 3], &[3, 3, 4]).is_err());
    }

    #[test]
    fn split_axis_extents() {
        assert_eq!(split_at_axis(&[2, 3, 4], 1), (2, 3, 4));
        assert_eq!(split_at_axis(&[5], 0), (1, 5, 1));
    }
}

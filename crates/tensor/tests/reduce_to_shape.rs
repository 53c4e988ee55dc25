//! Differential suite for `Tensor::reduce_to_shape`, the adjoint of
//! broadcasting: the kernel walks each chunk one innermost run at a time,
//! and must give the same bits as the element-by-element odometer walk it
//! replaced, kept here as the reference. Both share the partition
//! (`ELEMWISE_CHUNK` over the source's logical index space), the per-chunk
//! accumulators starting at `0.0`, the row-major source order and the
//! `combine_tree` fold; the cases cover
//!
//! * dense sources summed over leading axes (the weight-gradient case),
//! * permuted, transposed, sliced and broadcast sources,
//! * targets with interior and trailing 1s, and a rank-0 target,
//! * sources larger than `ELEMWISE_CHUNK` whose chunk boundaries fall
//!   mid-row,
//!
//! at thread budgets {1, 2, 3, 8}.

use lip_par::{combine_tree, map_chunks, Partition, ELEMWISE_CHUNK};
use lip_rng::prop::Gen;
use lip_rng::prop_check;
use lip_tensor::shape::{broadcast_strides, contiguous_strides, numel, Odometer2};
use lip_tensor::Tensor;

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// The element-by-element walk: each chunk steps the odometer once per
/// source element and adds it into the target slot it maps to.
fn reference_reduce(src: &Tensor, target: &[usize]) -> Vec<f32> {
    if src.shape() == target {
        return src.to_vec();
    }
    let sa = broadcast_strides(target, &contiguous_strides(target), src.shape());
    let t_numel = numel(target);
    let view = src.view_ref();
    let partials = map_chunks(Partition::new(src.numel(), ELEMWISE_CHUNK), |_, r| {
        let odo = Odometer2::starting_at(src.shape(), sa.clone(), src.strides().to_vec(), r.start);
        let mut acc = vec![0.0f32; t_numel];
        for (t, s) in odo.take(r.end - r.start) {
            acc[t] += view.data[view.offset + s];
        }
        acc
    });
    combine_tree(partials, |mut a, b| {
        for (x, &y) in a.iter_mut().zip(&b) {
            *x += y;
        }
        a
    })
    .unwrap_or_else(|| vec![0.0f32; t_numel])
}

fn assert_matches_reference(label: &str, src: &Tensor, target: &[usize]) {
    let want = lip_par::with_threads(1, || reference_reduce(src, target));
    for &threads in &THREADS {
        let got = lip_par::with_threads(threads, || src.reduce_to_shape(target));
        assert_eq!(got.shape(), target, "{label}: shape");
        let got = got.to_vec();
        assert_eq!(got.len(), want.len(), "{label}: element count");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{label}: element {i} at {threads} thread(s): run walk {g} vs element walk {w}"
            );
        }
    }
}

fn random(g: &mut Gen, shape: &[usize]) -> Tensor {
    Tensor::from_vec(g.vec_f32(numel(shape), -6.0, 6.0), shape)
}

#[test]
fn dense_sources_summed_over_leading_axes() {
    prop_check!(cases = 4, seed = 0x5ED0, |g| {
        for (shape, target) in [
            (vec![32, 16, 8], vec![16, 8]),
            (vec![6, 5, 7], vec![5, 7]),
            (vec![6, 5, 7], vec![7]),
            (vec![2, 3, 4, 5], vec![4, 5]),
            (vec![2, 3, 4, 5], vec![3, 4, 5]),
            (vec![9, 1], vec![1]),
        ] {
            let src = random(g, &shape);
            assert_matches_reference(&format!("{shape:?} -> {target:?}"), &src, &target);
        }
    });
}

#[test]
fn permuted_and_strided_sources() {
    prop_check!(cases = 4, seed = 0x5ED1, |g| {
        // [3, 5, 4] view over [5, 4, 3] storage: no unit innermost stride
        let permuted = random(g, &[5, 4, 3]).permute(&[2, 0, 1]);
        for target in [vec![5, 4], vec![4], vec![3, 1, 1], vec![3, 1, 4], vec![]] {
            assert_matches_reference(&format!("permuted -> {target:?}"), &permuted, &target);
        }
        let transposed = random(g, &[7, 9]).t();
        for target in [vec![7], vec![9, 1], vec![]] {
            assert_matches_reference(&format!("transposed -> {target:?}"), &transposed, &target);
        }
        // unit innermost stride on a non-dense view
        let sliced = random(g, &[6, 10]).slice_axis(1, 2, 9);
        for target in [vec![7], vec![6, 1]] {
            assert_matches_reference(&format!("sliced -> {target:?}"), &sliced, &target);
        }
        // stride-0 source axes
        let broadcast = random(g, &[1, 6]).broadcast_to(&[5, 6]);
        for target in [vec![6], vec![5, 1], vec![]] {
            assert_matches_reference(&format!("broadcast -> {target:?}"), &broadcast, &target);
        }
    });
}

#[test]
fn targets_with_interior_and_trailing_ones() {
    prop_check!(cases = 4, seed = 0x5ED2, |g| {
        let src = random(g, &[4, 5, 6]);
        for target in [
            vec![5, 1],
            vec![4, 1, 6],
            vec![1, 5, 1],
            vec![4, 5, 1],
            vec![1, 1, 6],
            vec![],
        ] {
            assert_matches_reference(&format!("[4, 5, 6] -> {target:?}"), &src, &target);
        }
    });
}

#[test]
fn chunk_boundaries_fall_mid_row() {
    let shape = [50usize, 13, 67];
    assert!(
        numel(&shape) > ELEMWISE_CHUNK,
        "the source must span several chunks"
    );
    assert_ne!(ELEMWISE_CHUNK % 67, 0, "a chunk boundary must fall mid-row");
    prop_check!(cases = 2, seed = 0x5ED3, |g| {
        let src = random(g, &shape);
        for target in [vec![13, 67], vec![67], vec![13, 1], vec![50, 1, 67], vec![]] {
            assert_matches_reference(&format!("{shape:?} -> {target:?}"), &src, &target);
        }
        // the same extents reached through a permuted view
        let permuted = random(g, &[67, 50, 13]).permute(&[1, 2, 0]);
        for target in [vec![13, 67], vec![50, 1, 1]] {
            assert_matches_reference(
                &format!("permuted {shape:?} -> {target:?}"),
                &permuted,
                &target,
            );
        }
    });
}

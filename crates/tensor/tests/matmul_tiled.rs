//! Differential suite for the register-tiled matmul kernel: every tiled
//! result must equal a naive triple-loop reference computed with the same
//! per-element accumulation contract (`p` increasing, zero-lhs terms
//! skipped), byte-for-byte, across
//!
//! * column counts straddling the 8-lane tile width (tail handling),
//! * row counts straddling the 4-row tile height, at the end of a batch
//!   matrix and at a `lip-par` chunk boundary that splits a would-be tile,
//! * row counts straddling the `lip-par` chunk boundary (chunk ± 1),
//! * adversarial extents (0 and 1 in every position),
//! * strided operands — transposed lhs read in place, transposed rhs
//!   packed, broadcast batch axes — against their packed equivalents,
//! * thread budgets {1, 2, 3, 8}.
//!
//! The zero-lhs skip is observable only when the rhs holds `±inf` or `NaN`
//! (`0 · inf` is `NaN`); [`zero_lhs_column_hides_non_finite_rhs_row`] pins
//! it inside every tile shape. It cannot flip a sign bit: the accumulator
//! starts at `+0.0`, and a round-to-nearest add yields `-0.0` only from two
//! `-0.0` operands, so the accumulator is never `-0.0`.

use lip_rng::prop_check;
use lip_tensor::kernel::MATMUL_TILE_M;
use lip_tensor::Tensor;

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Naive triple loop over packed operands with the kernel's per-element
/// contract: accumulate in `p`-increasing order from `+0.0`, skipping
/// `a == 0.0` terms (so a `±inf` or `NaN` rhs entry facing a zero lhs entry
/// contributes nothing, where `0 · inf` would give `NaN`).
fn naive_matmul(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (a, b) = (a.contiguous(), b.contiguous());
    let ar = a.rank();
    let (m, k) = (a.shape()[ar - 2], a.shape()[ar - 1]);
    let n = *b.shape().last().unwrap();
    let batches_a: usize = a.shape()[..ar - 2].iter().product();
    let batches_b: usize = b.shape()[..b.rank() - 2].iter().product();
    // rank-2 operands have an empty batch prefix whose product is already 1;
    // a genuine 0-extent batch axis must yield an empty result, not clamp up
    let batches = batches_a.max(batches_b);
    assert!(
        (batches_a <= 1 || batches_a == batches) && (batches_b <= 1 || batches_b == batches),
        "reference only handles equal-or-broadcast batch extents"
    );
    let mut out = vec![0.0f32; batches * m * n];
    for bi in 0..batches {
        let ab = if batches_a <= 1 { 0 } else { bi } * m * k;
        let bb = if batches_b <= 1 { 0 } else { bi } * k * n;
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let av = a.data()[ab + i * k + p];
                    if av == 0.0 {
                        continue;
                    }
                    acc += av * b.data()[bb + p * n + j];
                }
                out[(bi * m + i) * n + j] = acc;
            }
        }
    }
    out
}

fn assert_tiled_matches(label: &str, a: &Tensor, b: &Tensor) {
    let want = naive_matmul(a, b);
    let base = lip_par::with_threads(1, || a.matmul(b));
    let got: Vec<f32> = base.to_vec();
    assert_eq!(got.len(), want.len(), "{label}: element count");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label}: element {i} tiled {g} vs naive {w}"
        );
    }
    for &threads in &THREADS {
        let par = lip_par::with_threads(threads, || a.matmul(b));
        assert_eq!(
            base.to_bytes(),
            par.to_bytes(),
            "{label}: diverges at {threads} thread(s)"
        );
    }
}

fn filled(shape: &[usize], scale: f32, offset: f32) -> Tensor {
    let n: usize = shape.iter().product();
    // values never exactly 0.0, so the zero-skip is inert in these cases
    Tensor::from_vec(
        (0..n).map(|i| ((i * 31 % 17) as f32 - 8.5) * scale + offset).collect(),
        shape,
    )
}

#[test]
fn tile_width_boundaries() {
    // n straddles the 8-lane tile: full tiles, tail-only, full + tail
    for n in [1usize, 2, 7, 8, 9, 15, 16, 17, 31] {
        for m in [1usize, 3, 8] {
            for k in [1usize, 5, 16] {
                let a = filled(&[m, k], 0.25, 0.0);
                let b = filled(&[k, n], 0.5, 0.125);
                assert_tiled_matches(&format!("[{m},{k}]x[{k},{n}]"), &a, &b);
            }
        }
    }
}

#[test]
fn zero_and_unit_extents() {
    for shape_pair in [
        (vec![0, 4], vec![4, 3]),
        (vec![4, 0], vec![0, 3]), // k = 0: every output element is an empty sum
        (vec![4, 3], vec![3, 0]),
        (vec![1, 1], vec![1, 1]),
        (vec![0, 2, 3], vec![0, 3, 2]), // zero batch
        (vec![1, 2, 3], vec![1, 3, 2]),
    ] {
        let (sa, sb) = shape_pair;
        let a = filled(&sa, 0.5, 0.25);
        let b = filled(&sb, 0.25, -0.125);
        assert_tiled_matches(&format!("{sa:?}x{sb:?}"), &a, &b);
    }
}

#[test]
fn chunk_boundary_rows() {
    // rows_per_chunk = MATMUL_CHUNK_MACS / (k * n); with k = 256, n = 64 the
    // chunk is 16 rows — m = 15, 16, 17 put the split exactly at, below,
    // and above a chunk boundary.
    let chunk_rows = (lip_par::MATMUL_CHUNK_MACS / (256 * 64)).max(1);
    assert!(chunk_rows > 1, "chunk must span multiple rows for this test");
    for m in [chunk_rows - 1, chunk_rows, chunk_rows + 1, 3 * chunk_rows + 1] {
        let a = filled(&[m, 256], 0.03125, 0.0625);
        let b = filled(&[256, 64], 0.0625, -0.03125);
        assert_tiled_matches(&format!("chunk rows m={m}"), &a, &b);
    }
}

#[test]
fn row_tile_boundaries_in_batches() {
    // m = 1 ..= 9 rows per batch matrix: row tiles end at a batch boundary
    // and leave 0–3 remainder rows; n = 8 is one full column tile, n = 17
    // two plus a one-column tail. Shared and per-batch rhs alike.
    let k = 5;
    for m in 1usize..=9 {
        for n in [8usize, 17] {
            let a = filled(&[3, m, k], 0.25, 0.0);
            let shared = filled(&[k, n], 0.5, 0.125);
            let batched = filled(&[3, k, n], 0.5, -0.125);
            assert_tiled_matches(&format!("[3,{m},{k}]x[{k},{n}]"), &a, &shared);
            assert_tiled_matches(&format!("[3,{m},{k}]x[3,{k},{n}]"), &a, &batched);
        }
    }
}

#[test]
fn chunk_boundary_splits_a_row_tile() {
    // k is chosen so a chunk holds 6 output rows: rows 4..8 would make one
    // row tile, but the chunk boundary at row 6 splits them, so each chunk
    // ends in single rows (and, batched, a batch boundary falls mid-chunk)
    let n = 16;
    let k = lip_par::MATMUL_CHUNK_MACS / (n * 6);
    let chunk_rows = lip_par::MATMUL_CHUNK_MACS / (k * n);
    assert_eq!(chunk_rows, 6);
    assert_ne!(
        chunk_rows % MATMUL_TILE_M,
        0,
        "the chunk must split a row tile"
    );
    let b = filled(&[k, n], 0.0625, -0.03125);
    for shape in [
        vec![chunk_rows + 1, k],
        vec![2 * chunk_rows + 1, k],
        vec![2, 7, k],
    ] {
        let a = filled(&shape, 0.03125, 0.0625);
        assert_tiled_matches(&format!("tile split by chunk {shape:?}"), &a, &b);
    }
}

#[test]
fn zero_lhs_column_hides_non_finite_rhs_row() {
    // every lhs entry of columns 1 and 4 is 0.0, and rhs rows 1 and 4 hold
    // +inf, -inf and NaN: the zero skip must drop those terms in the row
    // tile, in the single-row loop and in the column tail (`0 · inf` is NaN)
    let k = 6;
    let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    for (lhs_shape, n) in [(vec![8, k], 17), (vec![3, 5, k], 8), (vec![9, k], 3)] {
        let mut av = filled(&lhs_shape, 0.25, 0.0).to_vec();
        for (i, v) in av.iter_mut().enumerate() {
            if i % k == 1 || i % k == 4 {
                *v = 0.0;
            }
        }
        let a = Tensor::from_vec(av, &lhs_shape);
        let mut bv = filled(&[k, n], 0.5, 0.125).to_vec();
        for p in [1usize, 4] {
            for j in 0..n {
                bv[p * n + j] = specials[(p + j) % specials.len()];
            }
        }
        let b = Tensor::from_vec(bv, &[k, n]);
        let label = format!("{lhs_shape:?}x[{k},{n}] non-finite rhs rows");
        assert!(
            !a.matmul(&b).has_non_finite(),
            "{label}: a zero lhs term reached the sum"
        );
        assert_tiled_matches(&label, &a, &b);
    }
}

#[test]
fn zero_skip_matches_reference() {
    // lhs dense in zeros: the skip path must agree with the skip-aware
    // naive loop at every thread budget
    let mut av = vec![0.0f32; 24 * 16];
    for (i, v) in av.iter_mut().enumerate() {
        if i % 3 == 0 {
            *v = (i % 7) as f32 - 3.0; // includes exact 0.0 from i % 7 == 3
        }
    }
    let a = Tensor::from_vec(av, &[24, 16]);
    let b = filled(&[16, 20], 0.5, 0.25);
    assert_tiled_matches("zero-heavy lhs", &a, &b);
}

#[test]
fn strided_operands_match_packed() {
    prop_check!(cases = 32, seed = 0x7117, |g| {
        let m = g.pick(&[1usize, 2, 5, 9]);
        let k = g.pick(&[1usize, 3, 8, 12]);
        let n = g.pick(&[1usize, 4, 7, 16]);
        let at = Tensor::from_vec(g.vec_f32(k * m, -3.0, 3.0), &[k, m]);
        let bt = Tensor::from_vec(g.vec_f32(n * k, -3.0, 3.0), &[n, k]);
        let (a_view, b_view) = (at.t(), bt.t()); // strided lhs AND rhs
        let (a_dense, b_dense) = (a_view.contiguous(), b_view.contiguous());
        // the strided path (lhs read in place, rhs packed inside matmul)
        // must be byte-identical to packing everything up front
        let base = lip_par::with_threads(1, || a_dense.matmul(&b_dense));
        for &threads in &THREADS {
            let got = lip_par::with_threads(threads, || a_view.matmul(&b_view));
            assert_eq!(
                base.to_bytes(),
                got.to_bytes(),
                "[{m},{k}]x[{k},{n}] strided diverges at {threads} thread(s)"
            );
        }
        assert_tiled_matches("strided vs naive", &a_view, &b_view);
    });
}

#[test]
fn broadcast_batch_axes() {
    // [2, 1, m, k] x [3, k, n] -> [2, 3, m, n]: both sides broadcast
    let a = filled(&[2, 1, 3, 4], 0.5, 0.25);
    let b = filled(&[3, 4, 5], 0.25, -0.5);
    let big = a.matmul(&b);
    assert_eq!(big.shape(), &[2, 3, 3, 5]);
    for i in 0..2 {
        for j in 0..3 {
            let a2 = a.slice_axis(0, i, i + 1).reshape(&[3, 4]);
            let b2 = b.slice_axis(0, j, j + 1).reshape(&[4, 5]);
            let small = a2.matmul(&b2);
            let got = big
                .slice_axis(0, i, i + 1)
                .slice_axis(1, j, j + 1)
                .reshape(&[3, 5]);
            assert_eq!(small.to_bytes(), got.contiguous().to_bytes(), "batch ({i},{j})");
        }
    }
}

#[test]
fn sliding_window_lhs_reads_in_place() {
    // the patching pattern: an unfold view (overlapping windows) as lhs
    let x = filled(&[40], 0.25, 0.0);
    let patches = x.sliding_window(0, 8, 4); // [9, 8] overlapping view
    let w = filled(&[8, 6], 0.5, 0.125);
    assert_tiled_matches("unfold lhs", &patches, &w);
    let packed = patches.contiguous();
    assert_eq!(
        packed.matmul(&w).to_bytes(),
        patches.matmul(&w).to_bytes(),
        "in-place unfold lhs must equal packed lhs"
    );
}
